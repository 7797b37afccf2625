"""Streaming offload configuration: chunked upload + codec selection.

The paper's 1-8 Mbps regime is transfer-dominated: uploading the whole
cut tensor before the server tail starts leaves the edge GPU idle for
hundreds of milliseconds.  :class:`StreamingConfig` opts a system into
the streaming pipeline:

- the cut tensors are encoded with one of ``codecs`` (chosen *jointly*
  with the partition point by
  :meth:`~repro.core.engine.LoADPartEngine.decide_joint`),
- the encoded byte stream is uploaded in ``chunk_bytes`` chunks
  (:meth:`~repro.network.channel.Channel.try_upload_stream`), and
- the server begins executing tail layers as soon as their boundary
  inputs have fully arrived (arrival-gated execution in
  :meth:`~repro.runtime.server.EdgeServer.handle_offload`).

Lossy codecs (``fp16``, ``int8``) are strictly opt-in via
``allow_lossy``; the default candidate set only ever produces bit-exact
results.  The degenerate config — identity codec, no chunking — is
byte-identical to not streaming at all, which the interaction tests pin
down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.network.codec import TensorCodec

#: In-stream retry budget per chunk: a faulted chunk is retried this many
#: times (each failure charging only that chunk's timeout share) before
#: the stream aborts.
MAX_CHUNK_RETRIES = 1
#: Floor for the per-chunk timeout share, so tiny chunks are not starved
#: by proportional budget splitting.
MIN_CHUNK_TIMEOUT_S = 0.05


@dataclass(frozen=True)
class StreamingConfig:
    """Opt-in knobs for the streaming offload path.

    ``chunk_bytes``
        Wire chunk size; ``None`` uploads each request as one chunk
        (codec selection still applies).
    ``codecs``
        Candidate codecs the decision engine may pick from, in
        preference order (ties in predicted latency break toward the
        earlier entry).
    ``allow_lossy``
        Must be ``True`` to list a lossy codec (``fp16``/``int8``);
        results are then only tolerance-bounded, not bit-exact.
    """

    chunk_bytes: int | None = 32 * 1024
    codecs: Tuple[str, ...] = ("fp32", "zlib")
    allow_lossy: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "codecs", tuple(self.codecs))
        if self.chunk_bytes is not None and self.chunk_bytes < 1024:
            raise ValueError("chunk_bytes must be >= 1024 (or None for one chunk)")
        if not self.codecs:
            raise ValueError("codecs must name at least one codec")
        for name in self.codecs:
            if name not in TensorCodec.BYTES_PER_ELEMENT:
                raise ValueError(
                    f"unknown codec {name!r}; choose from "
                    f"{sorted(TensorCodec.BYTES_PER_ELEMENT)}")
            if not self.allow_lossy and name not in TensorCodec.LOSSLESS:
                raise ValueError(
                    f"codec {name!r} is lossy; set allow_lossy=True to opt in")

    def plan_chunks(self, total_bytes: int) -> Tuple[int, ...]:
        """Split ``total_bytes`` of wire payload into chunk sizes."""
        return plan_chunks(total_bytes, self.chunk_bytes)

    def num_chunks(self, total_bytes: int) -> int:
        if self.chunk_bytes is None or total_bytes <= self.chunk_bytes:
            return 1
        return -(-total_bytes // self.chunk_bytes)


def plan_chunks(total_bytes: int, chunk_bytes: int | None) -> Tuple[int, ...]:
    """Chunk sizes for ``total_bytes``: full chunks plus the remainder.

    Zero-byte payloads still produce one (empty) chunk so every request
    has at least one wire message.
    """
    if total_bytes < 0:
        raise ValueError("total_bytes must be non-negative")
    if chunk_bytes is None or total_bytes <= chunk_bytes:
        return (total_bytes,)
    full, rem = divmod(total_bytes, chunk_bytes)
    sizes = (chunk_bytes,) * full
    return sizes + (rem,) if rem else sizes
