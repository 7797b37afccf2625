"""Transmission codecs: compressing the tensors that cross the link.

The paper's related work (DeepWear, model-compression surveys) motivates
shrinking what gets transmitted.  This extension provides codecs for the
intermediate tensors of a partition:

- ``fp32`` — the identity baseline (4 B/element, free to encode/decode),
- ``zlib`` — byte-shuffle + DEFLATE over the raw float32 bytes
  (lossless; the shuffle groups exponent bytes, and feature maps behind
  a ReLU are zero-heavy, so they deflate well),
- ``fp16`` — half precision (2 B/element, ~2^-11 relative error),
- ``int8`` — per-tensor affine quantisation (1 B/element + 8 B header).

A codec plugs into :class:`~repro.core.engine.LoADPartEngine` (it scales
the ``s_i`` transmission sizes and adds encode/decode terms, which shifts
the optimal partition point) and into the streamed executor path (encode
on the device, decode on the server), so both the *decision* and the
*numerics* of compression are testable.

Accounting note: the simulated timeline must be independent of functional
execution, so wire sizes and codec times come from **declared constants**
(bytes-per-element ratios, encode/decode throughputs), never from measured
payload lengths.  For ``zlib`` the achievable ratio depends strongly on
the producing op — ReLU outputs are ~50% zeros, dense conv/matmul outputs
are mantissa noise — so the declared ratio is keyed on the producer op
kind, which is a *static* graph property.  The table was calibrated on
functional cut tensors of the model zoo (p90-conservative; see
``tests/test_codec.py``).  Actual payload lengths vary per tensor, which
only matters on the real-socket transport, never in simulation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: Compression level for the ``zlib`` codec: level 1 keeps device-side
#: encode cheap while capturing most of the zero-run redundancy.
_ZLIB_LEVEL = 1


def _byte_shuffle(raw: np.ndarray) -> bytes:
    """Transpose the 4 byte planes of a float32 array (HDF5-style filter)."""
    planes = raw.view(np.uint8).reshape(-1, 4)
    return np.ascontiguousarray(planes.T).tobytes()


def _byte_unshuffle(data: bytes, shape: Tuple[int, ...]) -> np.ndarray:
    planes = np.frombuffer(data, dtype=np.uint8).reshape(4, -1)
    flat = np.ascontiguousarray(planes.T).reshape(-1).view(np.float32)
    return flat.reshape(shape).copy()


@dataclass(frozen=True)
class EncodedTensor:
    """Wire format: raw bytes plus the metadata needed to decode."""

    codec: str
    shape: Tuple[int, ...]
    payload: bytes
    scale: float = 1.0
    zero_point: float = 0.0

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class TensorCodec:
    """Encode/decode float32 tensors for transmission."""

    #: codec name -> *declared* payload bytes per element, used for all
    #: simulated wire accounting.  The zlib figure is the dense-tensor
    #: (conv/matmul/bn output) calibration; sparsity-aware refinements
    #: live in :data:`ZLIB_OP_BYTES_PER_ELEMENT`.
    BYTES_PER_ELEMENT: Dict[str, float] = {
        "fp32": 4.0, "zlib": 3.7, "fp16": 2.0, "int8": 1.0,
    }

    #: Declared zlib bytes/element by *producer op kind* — a static graph
    #: property, so the simulated wire size never depends on tensor
    #: content.  Calibrated p90-conservative on functional zoo cuts:
    #: ReLU outputs are ~50% zeros, pools concentrate them, the graph
    #: input is modelled as incompressible.
    ZLIB_OP_BYTES_PER_ELEMENT: Dict[str, float] = {
        "relu": 2.4, "concat": 2.4, "maxpool2d": 3.0, "dwconv2d": 3.4,
        "input": 4.0,
    }

    #: Codecs whose round trip is bit-exact on float32 input.
    LOSSLESS = frozenset({"fp32", "zlib"})

    #: Device-side encode throughput (bytes of float32 input per second).
    #: Pi-class CPU figures; ``fp32`` is the identity and costs nothing.
    ENCODE_BYTES_PER_S: Dict[str, float] = {
        "fp32": float("inf"), "zlib": 8.0e7, "fp16": 4.0e8, "int8": 3.0e8,
    }

    #: Server-side decode throughput (bytes of float32 output per second).
    DECODE_BYTES_PER_S: Dict[str, float] = {
        "fp32": float("inf"), "zlib": 4.0e8, "fp16": 1.2e9, "int8": 1.0e9,
    }

    def __init__(self, name: str = "fp32") -> None:
        if name not in self.BYTES_PER_ELEMENT:
            raise ValueError(
                f"unknown codec {name!r}; choose from {sorted(self.BYTES_PER_ELEMENT)}"
            )
        self.name = name

    @property
    def bytes_per_element(self) -> float:
        return self.BYTES_PER_ELEMENT[self.name]

    def _bytes_per_element_for(self, producer_op: str | None) -> float:
        if self.name == "zlib" and producer_op is not None:
            key = "relu" if producer_op.startswith("relu") else producer_op
            return self.ZLIB_OP_BYTES_PER_ELEMENT.get(key, self.bytes_per_element)
        return self.bytes_per_element

    def wire_bytes(self, fp32_bytes, producer_op: str | None = None):
        """Declared transmitted size for a tensor of ``fp32_bytes`` raw bytes.

        ``producer_op`` is the op kind of the node that produced the
        tensor (``None`` for unknown); it refines the zlib ratio.
        Accepts a scalar or an ndarray of sizes.
        """
        sizes = np.asarray(fp32_bytes)
        if np.any(sizes < 0):
            raise ValueError("sizes must be non-negative")
        ratio = 4.0 / self._bytes_per_element_for(producer_op)
        wire = np.ceil(sizes / ratio).astype(np.int64)
        return int(wire) if np.isscalar(fp32_bytes) else wire

    # -- time model -----------------------------------------------------------

    def encode_time_s(self, fp32_bytes):
        """Device-side encode time for ``fp32_bytes`` of raw tensor data.

        Scalar in → float out; ndarray in → ndarray out.  ``fp32`` is the
        identity codec and costs exactly 0.0 — required so a degenerate
        streaming config stays byte-identical to the non-streaming path.
        """
        return self._codec_time(fp32_bytes, self.ENCODE_BYTES_PER_S[self.name])

    def decode_time_s(self, fp32_bytes):
        """Server-side decode time for ``fp32_bytes`` of raw tensor data."""
        return self._codec_time(fp32_bytes, self.DECODE_BYTES_PER_S[self.name])

    @staticmethod
    def _codec_time(fp32_bytes, rate: float):
        if np.isscalar(fp32_bytes):
            return 0.0 if rate == float("inf") else fp32_bytes / rate
        sizes = np.asarray(fp32_bytes, dtype=np.float64)
        return np.zeros_like(sizes) if rate == float("inf") else sizes / rate

    # -- numerics -------------------------------------------------------------

    def encode(self, tensor: np.ndarray) -> EncodedTensor:
        arr = np.ascontiguousarray(tensor, dtype=np.float32)
        if self.name == "fp32":
            return EncodedTensor("fp32", arr.shape, arr.tobytes())
        if self.name == "zlib":
            return EncodedTensor(
                "zlib", arr.shape, zlib.compress(_byte_shuffle(arr), _ZLIB_LEVEL))
        if self.name == "fp16":
            return EncodedTensor("fp16", arr.shape, arr.astype(np.float16).tobytes())
        # int8: per-tensor affine quantisation over the observed range.
        lo = float(arr.min()) if arr.size else 0.0
        hi = float(arr.max()) if arr.size else 0.0
        scale = (hi - lo) / 255.0 if hi > lo else 1.0
        quantised = np.clip(np.round((arr - lo) / scale), 0, 255).astype(np.uint8)
        return EncodedTensor("int8", arr.shape, quantised.tobytes(),
                             scale=scale, zero_point=lo)

    def decode(self, encoded: EncodedTensor) -> np.ndarray:
        if encoded.codec != self.name:
            raise ValueError(f"codec mismatch: {encoded.codec!r} vs {self.name!r}")
        if self.name == "fp32":
            return np.frombuffer(encoded.payload, dtype=np.float32).reshape(encoded.shape).copy()
        if self.name == "zlib":
            return _byte_unshuffle(zlib.decompress(encoded.payload), encoded.shape)
        if self.name == "fp16":
            half = np.frombuffer(encoded.payload, dtype=np.float16).reshape(encoded.shape)
            return half.astype(np.float32)
        raw = np.frombuffer(encoded.payload, dtype=np.uint8).reshape(encoded.shape)
        return (raw.astype(np.float32) * encoded.scale + encoded.zero_point)


def decode_any(encoded: EncodedTensor) -> np.ndarray:
    """Decode with whatever codec the wire header declares."""
    return TensorCodec(encoded.codec).decode(encoded)
