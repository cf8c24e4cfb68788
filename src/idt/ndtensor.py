"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything runs on 64-bit floats and a dynamic tape: operations append a
record (inputs, output, local gradient rule) to every open Tape, and `grad`
replays the records in exact reverse creation order, which makes gradients
deterministic for a fixed sequence of operations.

Every op is one tape node. Besides the elementwise, reduction, shape and
matmul primitives, the network's layers are single nodes with closed-form
backward rules (g is the gradient of the output):

  * tmean:      dx = broadcast(g) / count
  * gelu:       y = x/2 * (1 + t), t = tanh(c * (x + 0.044715 x^3)),
                c = sqrt(2/pi); dx = g * (0.5 (1 + t)
                + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2))
  * layer_norm: y = (x - mean) / sqrt(var + eps), out = y * gain + bias;
                gy = g * gain, dx = (gy - mean(gy) - y * mean(gy * y))
                / sqrt(var + eps), dgain = sum(g * y), dbias = sum(g)
  * attention:  per head (feature axes split into h slices, outputs and
                gradients concatenated back) P = softmax(Q K^T / sqrt(d)),
                out = P V; dV = P^T g, dQ = dS K, dK = dS^T Q with
                dS = P * (g V^T - rowsum(g V^T * P)) / sqrt(d); only P is
                kept for the backward
  * linear:     out = x @ w + b over the last axis of x; dx = g w^T,
                dw = x^T g and db = sum(g) over every leading axis of x

An op builds and records its backward closure only while a tape is open
(`if _TAPE_STACK:`), so untaped inference allocates no closures and keeps
no intermediates alive.

Tensors are immutable values (the wrapped numpy buffer is marked read-only)
and safe to share; a Tape is single-owner and must not be shared across
concurrent tasks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-5

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """An immutable dense tensor of 64-bit floats, row-major."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for freshly computed arrays we own.
        # asarray keeps 0-d results 0-d (ascontiguousarray would rank-promote).
        t = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(t, "data", arr)
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self, None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    """Wrap arrays / scalars as constant Tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class Tape:
    """Records operations in creation order for reverse-mode differentiation.

    Use as a context manager; ops executed inside record themselves on the
    innermost active tape. Leaf tensors whose gradients are wanted must be
    `watch`ed (participating in a recorded op also registers a tensor).
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple, Callable]] = []
        # id -> Tensor; holds strong references so no recorded tensor can be
        # garbage-collected while the tape lives (a freed id could be reused
        # by a new Tensor and silently cross-wire gradient routing)
        self._known: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def watch(self, *tensors: Tensor) -> None:
        for t in tensors:
            if not isinstance(t, Tensor):
                raise TypeError("can only watch Tensors")
            self._known[id(t)] = t

    def _record(self, out: Tensor, inputs: Sequence[Tensor], backward: Callable) -> None:
        self._nodes.append((out, tuple(inputs), backward))
        self._known[id(out)] = out
        for t in inputs:
            self._known[id(t)] = t

    def __len__(self) -> int:
        return len(self._nodes)


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable) -> None:
    # Every open tape sees the op, so an outer tape never misses work done
    # while an inner tape was active.
    for tape in _TAPE_STACK:
        tape._record(out, inputs, backward)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def grad(tape: Tape, output: Tensor, inputs: Sequence[Tensor]) -> list[Tensor]:
    """d(output)/d(input) for each input, via reverse replay of `tape`.

    `output` must be scalar (size 1) and every input must have been watched
    on or produced by the tape. Inputs the output does not depend on get
    zero gradients.
    """
    if output.size != 1:
        raise ValueError(f"grad requires a scalar output, got shape {output.shape}")
    for i, t in enumerate(inputs):
        if id(t) not in tape._known:
            raise ValueError(f"input {i} was not recorded on the tape")

    grads: dict[int, np.ndarray] = {id(output): np.ones(output.shape)}
    for out_t, node_inputs, backward in reversed(tape._nodes):
        g = grads.get(id(out_t))
        if g is None:
            continue
        for t, gi in zip(node_inputs, backward(g)):
            if gi is None:
                continue
            acc = grads.get(id(t))
            if acc is None:
                grads[id(t)] = gi
            else:
                grads[id(t)] = acc + gi
    out = []
    for t in inputs:
        g = grads.get(id(t))
        out.append(Tensor._wrap(g.copy() if g is not None else np.zeros(t.shape)))
    return out


# elementwise and reduction primitives --------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data + b.data)
    if _TAPE_STACK:
        _record(out, (a, b), lambda g, sa=a.shape, sb=b.shape: (
            _unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data - b.data)
    if _TAPE_STACK:
        _record(out, (a, b), lambda g, sa=a.shape, sb=b.shape: (
            _unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data * b.data)
    if _TAPE_STACK:
        _record(out, (a, b), lambda g, ad=a.data, bd=b.data: (
            _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data / b.data)
    if _TAPE_STACK:
        _record(out, (a, b), lambda g, ad=a.data, bd=b.data: (
            _unbroadcast(g / bd, ad.shape),
            _unbroadcast(-g * ad / (bd * bd), bd.shape)))
    return out


def texp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.exp(a.data))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, od=out.data: (g * od,))
    return out


def tlog(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.log(a.data))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, ad=a.data: (g / ad,))
    return out


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.sqrt(a.data))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, od=out.data: (g * 0.5 / od,))
    return out


def tabs(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.abs(a.data))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, ad=a.data: (g * np.sign(ad),))
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.tanh(a.data))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, od=out.data: (g * (1.0 - od * od),))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable in both tails.
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    z[~pos] = ex / (1.0 + ex)
    return z


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(_sigmoid(np.asarray(a.data)))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, od=out.data: (g * od * (1.0 - od),))
    return out


def softplus(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.logaddexp(0.0, a.data))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, ad=a.data: (g * _sigmoid(np.asarray(ad)),))
    return out


def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast the gradient of a reduction back to the input shape."""
    if axis is not None and not keepdims:
        ax = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(i % len(shape) for i in ax))
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.sum(a.data, axis=axis, keepdims=keepdims))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, s=a.shape, ax=axis, kd=keepdims: (
            _expand_reduced(g, s, ax, kd),))
    return out


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axes = range(a.ndim) if axis is None else (
        axis if isinstance(axis, tuple) else (axis,))
    count = float(math.prod(a.shape[i] for i in axes))
    out = Tensor._wrap(np.sum(a.data, axis=axis, keepdims=keepdims) / count)
    if _TAPE_STACK:
        _record(out, (a,), lambda g, s=a.shape, ax=axis, kd=keepdims: (
            _expand_reduced(g / count, s, ax, kd),))
    return out


# shape manipulation ---------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(a.data.reshape(shape))
    if _TAPE_STACK:
        _record(out, (a,), lambda g, s=a.shape: (g.reshape(s),))
    return out


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.transpose(a.data, axes))
    if _TAPE_STACK:
        inv = None if axes is None else tuple(np.argsort(axes))
        _record(out, (a,), lambda g: (np.transpose(g, inv),))
    return out


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(a.data[idx].copy())
    if _TAPE_STACK:
        def backward(g, shape=a.shape, idx=idx):
            full = np.zeros(shape)
            full[idx] = g
            return (full,)

        _record(out, (a,), backward)
    return out


def concat(parts: Iterable, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=axis))
    if _TAPE_STACK:
        splits = tuple(np.cumsum([p.shape[axis] for p in parts])[:-1])
        _record(out, tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))
    return out


def matmul(a, b) -> Tensor:
    """np.matmul semantics on the last two axes; leading axes broadcast.

    1-D operands follow numpy's promotion rule (prepend/append a unit axis,
    squeeze it from the result); the backward pass restores those axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ValueError("matmul requires rank >= 1 operands")
    out = Tensor._wrap(np.matmul(a.data, b.data))
    if _TAPE_STACK:
        def backward(g, ad=a.data, bd=b.data):
            a1, b1 = ad.ndim == 1, bd.ndim == 1
            ad2 = ad[None, :] if a1 else ad
            bd2 = bd[:, None] if b1 else bd
            g2 = g
            if b1:
                g2 = np.expand_dims(g2, -1)
            if a1:
                g2 = np.expand_dims(g2, -2)
            ga = _unbroadcast(np.matmul(g2, np.swapaxes(bd2, -1, -2)), ad2.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(ad2, -1, -2), g2), bd2.shape)
            return (ga.reshape(ad.shape) if a1 else ga,
                    gb.reshape(bd.shape) if b1 else gb)

        _record(out, (a, b), backward)
    return out


# network layers: one node each ------------------------------------------------


def linear(x, w, b) -> Tensor:
    """x @ w + b over the last axis: x [..., n] (or [n]), w [n, m], b [m].

    All leading axes of x are folded into one matrix product, so the
    forward and both weight gradients are single GEMMs.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (w.ndim != 2 or b.shape != (w.shape[1],) or x.ndim < 1
            or x.shape[-1] != w.shape[0]):
        raise ValueError(f"linear expects x [..., n], w [n, m], b [m]; got "
                         f"{x.shape}, {w.shape}, {b.shape}")
    n, m = w.shape
    y = x.data.reshape(-1, n) @ w.data
    y += b.data
    out = Tensor._wrap(y.reshape(x.shape[:-1] + (m,)))
    if _TAPE_STACK:
        def backward(g, xd=x.data, wd=w.data):
            g2 = g.reshape(-1, m)
            return ((g2 @ wd.T).reshape(xd.shape),
                    xd.reshape(-1, n).T @ g2,
                    g2.sum(axis=0))

        _record(out, (x, w, b), backward)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x) -> Tensor:
    """tanh-approximation GELU (smooth everywhere, gradient-check friendly)."""
    x = as_tensor(x)
    xd = x.data
    t = np.tanh((xd + xd * (xd * xd) * _GELU_A) * _GELU_C)
    out = Tensor._wrap(xd * 0.5 * (t + 1.0))
    if _TAPE_STACK:
        def backward(g):
            dt = (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * (xd * xd))
            return (g * (0.5 * (1.0 + t) + 0.5 * xd * dt),)

        _record(out, (x,), backward)
    return out


def layer_norm(x, gain, bias, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xc = x.data - np.sum(x.data, axis=-1, keepdims=True) / d
    std = np.sqrt(np.sum(xc * xc, axis=-1, keepdims=True) / d + eps)
    y = xc / std
    out = Tensor._wrap(y * gain.data + bias.data)
    if _TAPE_STACK:
        def backward(g, gd=gain.data):
            gy = g * gd
            dx = (gy - np.sum(gy, axis=-1, keepdims=True) / d
                  - y * (np.sum(gy * y, axis=-1, keepdims=True) / d)) / std
            return (dx, (g * y).reshape(-1, d).sum(axis=0),
                    g.reshape(-1, d).sum(axis=0))

        _record(out, (x, gain, bias), backward)
    return out


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * (g - np.sum(g * p, axis=-1, keepdims=True))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., n, h*d] -> [..., h, n, d], contiguous."""
    x = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    return np.ascontiguousarray(np.swapaxes(x, -2, -3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[..., h, n, d] -> [..., n, h*d]."""
    x = np.swapaxes(x, -2, -3)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def attention(q, k, v, heads: int = 1) -> Tensor:
    """Multi-head softmax(Q·Kᵀ/√d)·V with stable softmax.

    Q: [..., n_q, h·d], K: [..., n_k, h·d], V: [..., n_k, h·d_v]. The
    feature axis is split into `heads` slices, each head attends on its
    own slice, and the head outputs are concatenated in head order to
    [..., n_q, h·d_v]. Every attention row sums to 1, so each output row
    of a head is a convex combination of that head's V rows.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ValueError("attention operands must be [..., n, d]")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"Q/K feature dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"K/V row counts differ: {k.shape[-2]} vs {v.shape[-2]}")
    if heads < 1 or q.shape[-1] < heads or q.shape[-1] % heads or v.shape[-1] % heads:
        raise ValueError(f"{heads} heads must divide the positive feature dims "
                         f"{q.shape[-1]} and {v.shape[-1]}")
    scale = math.sqrt(q.shape[-1] // heads)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    p = _softmax_rows(np.matmul(qh, np.swapaxes(kh, -1, -2)) / scale)
    out = Tensor._wrap(_merge_heads(np.matmul(p, vh)))
    if _TAPE_STACK:
        def backward(g):
            gh = _split_heads(g, heads)
            ds = _softmax_backward(np.matmul(gh, np.swapaxes(vh, -1, -2)), p)
            ds /= scale
            return (_unbroadcast(_merge_heads(np.matmul(ds, kh)), q.shape),
                    _unbroadcast(_merge_heads(
                        np.matmul(np.swapaxes(ds, -1, -2), qh)), k.shape),
                    _unbroadcast(_merge_heads(
                        np.matmul(np.swapaxes(p, -1, -2), gh)), v.shape))

        _record(out, (q, k, v), backward)
    return out
