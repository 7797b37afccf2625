"""NumPy kernels for every operator in the registry.

Each kernel has the signature ``kernel(inputs, params, attrs) -> ndarray``
where ``inputs`` is a list of input arrays (in CNode input order) and
``params`` is a list of parameter arrays (in CNode parameter order).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _pair(value: Any) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def _pad_nchw(x: np.ndarray, padding: Tuple[int, int], fill: float = 0.0) -> np.ndarray:
    ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (ph, ph), (pw, pw)),
        mode="constant",
        constant_values=fill,
    )


def _windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
    padding: Tuple[int, int], fill: float = 0.0,
) -> np.ndarray:
    """Sliding windows of a padded NCHW tensor: (N, C, Ho, Wo, KH, KW)."""
    xp = _pad_nchw(x, padding, fill)
    win = sliding_window_view(xp, kernel, axis=(2, 3))
    sh, sw = stride
    return win[:, :, ::sh, ::sw, :, :]


def conv2d(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    (weight,) = params
    win = _windows(x, _pair(attrs["kernel"]), _pair(attrs.get("stride", 1)), _pair(attrs.get("padding", 0)))
    out = np.einsum("nchwij,ocij->nohw", win, weight, optimize=True)
    return out.astype(x.dtype, copy=False)


def dwconv2d(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    (weight,) = params
    mult = int(attrs.get("channel_multiplier", 1))
    kh, kw = _pair(attrs["kernel"])
    sh, sw = _pair(attrs.get("stride", 1))
    if mult == 1:
        # Multiply-accumulate over kh*kw shifted slices (i-major, j-minor).
        # The planned backend compiles the same lowering in the same
        # accumulation order, so both backends agree bit-for-bit.
        xp = _pad_nchw(x, _pair(attrs.get("padding", 0)))
        c = x.shape[1]
        ho = (xp.shape[2] - kh) // sh + 1
        wo = (xp.shape[3] - kw) // sw + 1
        out = None
        for i in range(kh):
            for j in range(kw):
                view = xp[:, :, i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw]
                wk = np.ascontiguousarray(weight[:, 0, i, j]).reshape(1, c, 1, 1)
                if out is None:
                    out = view * wk
                else:
                    out += view * wk
    else:
        win = _windows(x, (kh, kw), (sh, sw), _pair(attrs.get("padding", 0)))
        # Output channel c*mult + m applies filter m of input channel c
        # (TensorFlow depthwise convention; matches the registry's
        # (c_in*mult, 1, kh, kw) parameter layout).
        n, c, ho, wo = win.shape[:4]
        kh, kw = weight.shape[2], weight.shape[3]
        wm = weight.reshape(c, mult, kh, kw)
        out = np.einsum("nchwij,cmij->ncmhw", win, wm, optimize=True)
        out = out.reshape(n, c * mult, ho, wo)
    return out.astype(x.dtype, copy=False)


def matmul(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    (weight,) = params
    return (x @ weight).astype(x.dtype, copy=False)


def maxpool2d(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", kernel))
    win = _windows(x, kernel, stride, _pair(attrs.get("padding", 0)), fill=-np.inf)
    return win.max(axis=(-2, -1)).astype(x.dtype, copy=False)


def avgpool2d(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", kernel))
    win = _windows(x, kernel, stride, _pair(attrs.get("padding", 0)), fill=0.0)
    # count_include_pad semantics: divide by the full kernel area.
    return win.mean(axis=(-2, -1)).astype(x.dtype, copy=False)


def global_avgpool(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    return x.mean(axis=(2, 3), keepdims=True).astype(x.dtype, copy=False)


def bias_add(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    (bias,) = params
    shape = [1] * x.ndim
    shape[1] = bias.shape[0]
    return x + bias.reshape(shape)


def add(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    return inputs[0] + inputs[1]


def mul(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    return inputs[0] * inputs[1]


def batchnorm(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    (x,) = inputs
    gamma, beta, mean, var = params
    eps = float(attrs.get("eps", 1e-5))
    shape = [1] * x.ndim
    shape[1] = gamma.shape[0]
    scale = (gamma / np.sqrt(var + eps)).reshape(shape)
    shift = (beta - mean * gamma / np.sqrt(var + eps)).reshape(shape)
    return (x * scale + shift).astype(x.dtype, copy=False)


def relu(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    return np.maximum(inputs[0], 0)


def sigmoid(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    x = inputs[0]
    return (1.0 / (1.0 + np.exp(-x))).astype(x.dtype, copy=False)


def tanh(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    return np.tanh(inputs[0]).astype(inputs[0].dtype, copy=False)


def softmax(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    x = inputs[0]
    axis = int(attrs.get("axis", -1))
    shifted = x - x.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    return (expd / expd.sum(axis=axis, keepdims=True)).astype(x.dtype, copy=False)


def lrn(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    """Local response normalisation via a cumulative sum over channels.

    The windowed sum for every channel is a difference of two prefix sums,
    so one ``cumsum`` replaces the per-channel Python loop.  Prefix sums are
    taken in float64: the subtraction cancels large partial sums, which in
    float32 would cost several digits of the window sum.
    """
    (x,) = inputs
    size = int(attrs.get("size", 5))
    alpha = float(attrs.get("alpha", 1e-4))
    beta = float(attrs.get("beta", 0.75))
    k = float(attrs.get("k", 2.0))
    half = size // 2
    channels = x.shape[1]
    squares = np.square(x, dtype=np.float64)
    prefix = np.cumsum(squares, axis=1)
    prefix = np.concatenate([np.zeros_like(prefix[:, :1]), prefix], axis=1)
    hi = np.minimum(np.arange(channels) + half + 1, channels)
    lo = np.maximum(np.arange(channels) - half, 0)
    denom = prefix[:, hi] - prefix[:, lo]
    return (x / np.power(k + (alpha / size) * denom, beta)).astype(x.dtype, copy=False)


def concat(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    return np.concatenate(list(inputs), axis=int(attrs.get("axis", 1)))


def flatten(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    x = inputs[0]
    return x.reshape(x.shape[0], -1)


def dropout(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    # Inference mode: identity.
    return inputs[0]


def make_tuple(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> Tuple[np.ndarray, ...]:
    return tuple(inputs)


def return_op(inputs: Sequence[Any], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> Any:
    return inputs[0]


#: Number of parameter tensors each op consumes (for fused dispatch).
_PARAM_ARITY = {"bias_add": 1, "batchnorm": 4, "relu": 0, "sigmoid": 0, "tanh": 0}

_ANCHOR_KERNELS = {
    "fused_conv2d": conv2d,
    "fused_dwconv2d": dwconv2d,
    "fused_matmul": matmul,
}


def _make_fused_kernel(fused_op: str) -> Callable[..., np.ndarray]:
    anchor = _ANCHOR_KERNELS[fused_op]

    def fused(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray],
              attrs: Dict[str, Any]) -> np.ndarray:
        out = anchor(inputs, params[:1], attrs)
        cursor = 1
        for op in attrs.get("epilogue", ()):
            arity = _PARAM_ARITY[op]
            out = KERNELS[op]([out], params[cursor:cursor + arity], {})
            cursor += arity
        return out

    return fused


KERNELS: Dict[str, Callable[..., Any]] = {
    "conv2d": conv2d,
    "dwconv2d": dwconv2d,
    "matmul": matmul,
    "maxpool2d": maxpool2d,
    "avgpool2d": avgpool2d,
    "global_avgpool": global_avgpool,
    "bias_add": bias_add,
    "add": add,
    "mul": mul,
    "batchnorm": batchnorm,
    "relu": relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax,
    "lrn": lrn,
    "concat": concat,
    "flatten": flatten,
    "dropout": dropout,
    "make_tuple": make_tuple,
    "return": return_op,
}

for _fused_name in _ANCHOR_KERNELS:
    KERNELS[_fused_name] = _make_fused_kernel(_fused_name)
