"""Dense tensors with reverse-mode automatic differentiation.

numpy holds the data; the gradient rules, the tape, and the finite-difference
checker live here. Tensors default to float32; float64 is used for oracle-grade
gradient checks. Every op validates shapes up front; none checks its output
for NaN/Inf. backpropagate checks the loss, and only when that is not finite
names the first node, parents first, whose output is not, by its scope and op
("layers.1 hybrid_attention produced NaN/Inf"). So a NaN that a later op
overwrites (masked_fill over it) or that never reaches the loss raises nothing.

Each op is its forward plus one gradient rule per parent, handed to one node
constructor (fused, through _node): it records the node, runs a parent's rule
only when that parent requires a gradient, and accumulates the result. The
slice op alone keeps its own backward, which adds into its source's gradient.

Broadcasting is deliberately one-sided: in a binary op, one operand must be
expandable to the other's shape by left-padding with 1s and stretching size-1
axes. Two-sided broadcasts like (l,1)*(1,d) are shape errors; write the outer
product as a matmul.

On glibc, importing the module fixes the allocator's trim and mmap thresholds
(_keep_freed_heap), so that a step reuses the heap the last step's tape freed.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import platform
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadConfig,
    DetachedLoss,
    EmptyReduction,
    NonDeterministicF,
    NonFiniteResult,
    NotScalar,
    ShapeMismatch,
)

DEFAULT_DTYPE = np.float32

# Large-negative sentinel for masked logits (float32-safe; exp() underflows to 0).
MASK_VALUE = -3.4e38

_grad_enabled = True
_scope = ""


def _keep_freed_heap() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    the top of the range its dynamic thresholds climb to, and return whether
    both settings took. A training step's tape (about 5 MB at train-tiny) is
    freed when the step ends; with the default trim threshold glibc returns
    that heap top to the kernel and the next step faults it back in, about
    1,600 minor page faults per stage-2 step. The cost is up to 64 MiB of
    free heap kept in RSS. Nothing is set on another C library, or when the
    environment sets either threshold, so glibc's own settings win."""
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if (
        platform.libc_ver()[0] != "glibc"
        or "MALLOC_MMAP_THRESHOLD_" in os.environ
        or "MALLOC_TRIM_THRESHOLD_" in os.environ
        or "malloc.mmap_threshold" in tunables
        or "malloc.trim_threshold" in tunables
    ):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 (malloc.h); 1 on success
    set_mmap = mallopt(-3, 32 << 20) == 1
    return mallopt(-1, 64 << 20) == 1 and set_mmap


# Whether importing this module set glibc's heap thresholds (_keep_freed_heap).
_HEAP_THRESHOLDS_SET = _keep_freed_heap()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (teacher paths, decoding)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def scope(name: str):
    """Tag the nodes recorded inside the block with name (a layer, "layers.1"),
    which a failed finite check reports with the op."""
    global _scope
    prev = _scope
    _scope = name
    try:
        yield
    finally:
        _scope = prev


def finite(a: np.ndarray, name: str) -> np.ndarray:
    """Return a; raise NonFiniteResult("<name> produced NaN/Inf") if a is not all finite."""
    if not np.isfinite(a).all():
        raise NonFiniteResult(f"{name} produced NaN/Inf")
    return a


class Tensor:
    """A dense array plus optional participation in the gradient tape.

    Leaves created with requires_grad=True get a zero-filled .grad immediately;
    backpropagate() accumulates into it, so leaves not upstream of the loss
    keep an exactly-zero gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_name")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._name = ""  # a tape node's scope and op

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def is_leaf(self) -> bool:
        return not self._parents

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.dtype)

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() on shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

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

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return narrow(self, key)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis, keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    # a first gradient is kept as the rule handed it over when that is an
    # array of t's dtype that owns its data or is a C- or F-contiguous view
    # (the layout np.array would give it); a strided, flipped or broadcast
    # view is copied. No rule hands one array to two parents (add copies b's)
    if t.grad is None:
        keep = type(g) is np.ndarray and g.dtype == t.dtype and (g.base is None or g.flags.forc)
        t.grad = g if keep else np.array(g, dtype=t.dtype)
    else:
        t.grad += g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:  # a loop: any() over a generator costs more per node
            if p.requires_grad:
                out.requires_grad = True
                out.grad = None  # intermediates get grads lazily during backward
                out._parents = tuple(parents)
                out._backward = backward
                out._name = f"{_scope} {op}" if _scope else op
                break
    return out


def fused(data: np.ndarray, parents: Sequence[Tensor], grads: Callable, op: str) -> Tensor:
    """The node constructor: grads(g) returns the gradient of each parent, in
    order, for the upstream gradient g, and each parent that requires one
    accumulates it. The ops here reach it through _node; a numpy kernel of
    another module (the hybrid layer's) calls it directly."""

    def _bw(g):
        for p, gp in zip(parents, grads(g)):
            if p.requires_grad:
                _accum(p, gp)

    return _make(data, parents, _bw, op)


def _node(data: np.ndarray, parents: Sequence[Tensor], rules: Sequence[Callable], op: str) -> Tensor:
    """fused with one gradient rule per parent: rules[i](g) is the gradient of
    parents[i], run only when that parent requires one. A generator, so each
    gradient is accumulated before the next one is computed."""
    return fused(data, parents, lambda g: (r(g) if p.requires_grad else None for p, r in zip(parents, rules)), op)


# -- broadcasting (one-sided) ------------------------------------------------


def _broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...], op: str) -> tuple[int, ...]:
    """Return the output shape if one side expands to the other, else raise."""
    if a == b:
        return a

    def expands_to(small, big):
        if len(small) > len(big):
            return False
        pad = (1,) * (len(big) - len(small)) + tuple(small)
        return all(s == t or s == 1 for s, t in zip(pad, big))

    if expands_to(b, a):
        return a
    if expands_to(a, b):
        return b
    raise ShapeMismatch(f"{op}: cannot broadcast {a} with {b} (one-sided only)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce an upstream gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _coerce_pair(a, b, op: str) -> tuple[Tensor, Tensor]:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.dtype != b.dtype:
        # python-scalar promotion only; deliberate f32/f64 mixes are errors
        if a.size == 1 and not a.requires_grad and not a._parents:
            a = Tensor(a.data, dtype=b.dtype)
        elif b.size == 1 and not b.requires_grad and not b._parents:
            b = Tensor(b.data, dtype=a.dtype)
        else:
            raise ShapeMismatch(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
    return a, b


def _elementwise_pair(a, b, op: str) -> tuple[Tensor, Tensor]:
    """The operands of add/sub/mul/div: coerced, one broadcastable to the other."""
    a, b = _coerce_pair(a, b, op)
    _broadcast_shapes(a.shape, b.shape, op)
    return a, b


# -- elementwise binary ops ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _elementwise_pair(a, b, "add")
    data = a.data + b.data
    # with equal shapes both rules would hand over g itself, so b's copies it
    rules = (lambda g: _unbroadcast(g, a.shape), lambda g: np.array(g) if a.shape == b.shape else _unbroadcast(g, b.shape))
    return _node(data, (a, b), rules, "add")


def sub(a, b) -> Tensor:
    a, b = _elementwise_pair(a, b, "sub")
    data = a.data - b.data
    return _node(data, (a, b), (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)), "sub")


def mul(a, b) -> Tensor:
    a, b = _elementwise_pair(a, b, "mul")
    data = a.data * b.data
    return _node(data, (a, b), (lambda g: _unbroadcast(g * b.data, a.shape), lambda g: _unbroadcast(g * a.data, b.shape)), "mul")


def div(a, b) -> Tensor:
    a, b = _elementwise_pair(a, b, "div")
    data = a.data / b.data
    rules = (lambda g: _unbroadcast(g / b.data, a.shape), lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape))
    return _node(data, (a, b), rules, "div")


def matmul(a, b) -> Tensor:
    """Batched matmul contracting the last axis of a with the second-to-last
    of b. Leading batch dims must match or be one-sided broadcastable."""
    a, b = _coerce_pair(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul: operands must be >= 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul: inner dims {a.shape} @ {b.shape}")
    _broadcast_shapes(a.shape[:-2], b.shape[:-2], "matmul")
    data = np.matmul(a.data, b.data)
    return _node(data, (a, b), (
        lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
        lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape),
    ), "matmul")


# -- elementwise unary ops ----------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _node(data, (a,), (lambda g: g * data,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)
    return _node(data, (a,), (lambda g: g / a.data,), "log")


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0),), "relu")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _node(data, (a,), (lambda g: g * data * (1.0 - data),), "sigmoid")


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=axis, keepdims=True), out=e)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax (max subtraction always applied)."""
    a = as_tensor(a)
    if a.shape == () or a.shape[axis] == 0:
        raise EmptyReduction("softmax over empty axis")
    data = softmax_np(a.data, axis)
    return _node(data, (a,), (lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True)),), "softmax")


# -- reductions ----------------------------------------------------------------


def _norm_axis(a: Tensor, axis) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(a.ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % a.ndim for ax in axis)


def _check_nonempty(a: Tensor, axes: tuple[int, ...], op: str) -> None:
    for ax in axes:
        if a.shape[ax] == 0:
            raise EmptyReduction(f"{op} over empty axis {ax} of shape {a.shape}")


def _sum_or_mean(a, axis, keepdims: bool, op: str) -> Tensor:
    """reduce_sum and reduce_mean: op is "sum" or "mean", the ndarray method."""
    a = as_tensor(a)
    axes = _norm_axis(a, axis)
    _check_nonempty(a, axes, op)
    data = getattr(a.data, op)(axis=axes or None, keepdims=keepdims)

    def rule(g):
        if op == "mean":
            g = g / (math.prod(a.shape[ax] for ax in axes) if axes else a.size)
        if not keepdims and axes:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _node(np.asarray(data, dtype=a.dtype), (a,), (rule,), op)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    return _sum_or_mean(a, axis, keepdims, "sum")


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    return _sum_or_mean(a, axis, keepdims, "mean")


def reduce_max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max over one axis (or all); backward routes to the first argmax."""
    a = as_tensor(a)
    axes = _norm_axis(a, axis)
    if axis is not None and len(axes) != 1:
        raise ShapeMismatch("max supports a single axis or axis=None")
    _check_nonempty(a, axes, "max")
    data = a.data.max(axis=axes[0] if axis is not None else None, keepdims=True)

    def rule(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axis is not None else np.asarray(g).reshape((1,) * a.ndim)
        hit = a.data == data
        if axis is not None:
            first = np.cumsum(hit, axis=axes[0]) == 1
        else:
            first = (np.cumsum(hit.reshape(-1)) == 1).reshape(a.shape)
        return np.broadcast_to(g, a.shape) * (hit & first)

    if keepdims:
        out = data
    elif axis is None:
        out = data.reshape(())
    else:
        out = np.squeeze(data, axis=axes[0])
    return _node(np.asarray(out, dtype=a.dtype), (a,), (rule,), "max")


def _running_sum(x: np.ndarray, ax: int, in_place: bool = False) -> np.ndarray:
    """np.cumsum(x, axis=ax), summed in the same order, in x itself when
    in_place. Along any axis but the last, numpy accumulates one element at a
    time; adding whole slices in sequence is several times faster."""
    if ax == x.ndim - 1:
        return np.cumsum(x, axis=ax, out=x if in_place else None)
    out = x if in_place else x.copy()
    view = np.moveaxis(out, ax, 0) if ax else out
    for i in range(1, len(view)):
        np.add(view[i - 1], view[i], out=view[i])
    return out


def cumsum(a, axis: int) -> Tensor:
    a = as_tensor(a)
    ax = axis % a.ndim
    return _node(_running_sum(a.data, ax), (a,), (lambda g: np.flip(_running_sum(np.flip(g, ax), ax), ax),), "cumsum")


# -- shape ops -------------------------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return _node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),), "reshape")


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    axes = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
    inv = np.argsort(axes)
    return _node(a.data.transpose(axes), (a,), (lambda g: g.transpose(inv),), "transpose")


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return _node(np.swapaxes(a.data, ax1, ax2), (a,), (lambda g: np.swapaxes(g, ax1, ax2),), "swapaxes")


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeMismatch("concat of zero tensors")
    ax = axis % parts[0].ndim
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(o != b for i, (o, b) in enumerate(zip(other, base)) if i != ax):
            raise ShapeMismatch(f"concat: {parts[0].shape} vs {p.shape} on axis {ax}")
    data = np.concatenate([p.data for p in parts], axis=ax)
    ends = np.cumsum([p.shape[ax] for p in parts]).tolist()
    keys = [(slice(None),) * ax + (slice(end - p.shape[ax], end),) for p, end in zip(parts, ends)]
    return _node(data, parts, [lambda g, key=key: g[key] for key in keys], "concat")


def narrow(a, key) -> Tensor:
    """Basic slicing with gradient support (ints, slices, tuples thereof)."""
    a = as_tensor(a)
    data = a.data[key]

    def _bw(g):
        # into the source's gradient, not a zeros array of its size per slice
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return _make(data.copy(), (a,), _bw, "slice")


def masked_fill(a, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True with a constant (mask not differentiable)."""
    a = as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    data = np.where(mask, np.asarray(value, dtype=a.dtype), a.data)
    return _node(data, (a,), (lambda g: np.where(mask, 0.0, g),), "masked_fill")


def embedding(weight, ids: np.ndarray) -> Tensor:
    """Row gather from weight [vocab, dim] by integer ids [...]."""
    weight = as_tensor(weight)
    ids = np.asarray(ids)

    def rule(g):
        buf = np.zeros_like(weight.data)
        np.add.at(buf, ids, g)
        return buf

    return _node(weight.data[ids], (weight,), (rule,), "embedding")


# -- fused block ops: one tape node each; the serving engine runs their kernels


def rope_np(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each (2i, 2i+1) pair of x [..., S, d] by the angles of the tables
    cos/sin [S, d/2]. A strided x (the engine's transposed q, k) is copied
    contiguous first, so the result is laid out as before whatever x's
    strides, and the dense pairs are read as complex numbers a + bi: the
    rotation is two complex products, (a + bi) cos and (a + bi) (i sin),
    added. Each product has one exactly-zero part, so a fused multiply-add
    rounds it as a plain multiply does, and the sum is a cos - b sin,
    a sin + b cos rounded as the real formula rounds it
    (tests/oracles.rope_real): the same values, bit for bit, except the sign
    of an exactly-zero output, and a +-inf input gives NaN."""
    xc = np.ascontiguousarray(x).view(np.promote_types(x.dtype, np.complex64))
    out = xc * cos
    out += xc * (1j * sin)
    return out.view(x.dtype)


def rope(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """rope_np on a Tensor; the backward rotates by the opposite angle (Su et al. 2021)."""
    x = as_tensor(x)
    cos, sin = np.asarray(cos, dtype=x.dtype), np.asarray(sin, dtype=x.dtype)
    if x.shape[-1] % 2 or cos.shape != sin.shape or cos.shape != (x.shape[-2], x.shape[-1] // 2):
        raise ShapeMismatch(f"rope: x {x.shape} vs tables {cos.shape} {sin.shape}")
    return _node(rope_np(x.data, cos, sin), (x,), (lambda g: rope_np(g, cos, -sin),), "rope")


def _rms_scale(x: np.ndarray, eps: float) -> np.ndarray:
    # sum / n is what ndarray.mean computes, without its Python-level wrappers
    return (np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps) ** -0.5


def rms_norm_np(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    return x * _rms_scale(x, eps) * gain


def rms_norm(x, gain, eps: float) -> Tensor:
    """x / sqrt(mean(x^2) + eps) * gain over the last axis, gain [D]."""
    x, gain = _coerce_pair(x, gain, "rms_norm")
    if gain.shape != x.shape[-1:]:
        raise ShapeMismatch(f"rms_norm: gain {gain.shape} vs x {x.shape}")

    r = _rms_scale(x.data, eps)  # [..., 1], the one array the rules keep beyond x and gain

    def dx(g):
        u, gu = x.data * r, g * gain.data
        return r * (gu - u * ((gu * u).sum(-1, keepdims=True) / x.shape[-1]))

    def dgain(g):
        return _unbroadcast(g * (x.data * r), gain.shape)

    return _node(x.data * r * gain.data, (x, gain), (dx, dgain), "rms_norm")


def cross_entropy(logits, targets: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[target] over the rows of logits [..., V], in
    log-sum-exp form: never the log of a probability, which can underflow to 0."""
    logits = as_tensor(logits)
    idx = np.expand_dims(np.asarray(targets), -1)
    if idx.shape[:-1] != logits.shape[:-1] or not idx.size:
        raise ShapeMismatch(f"cross_entropy: targets {idx.shape[:-1]} vs logits {logits.shape}")
    shifted = logits.data - logits.data.max(-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(-1, keepdims=True)
    nll = np.log(total) - np.take_along_axis(shifted, idx, axis=-1)

    def rule(g):  # grad is this call's own array; e stays for a second backward
        grad = e / total
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - 1.0, axis=-1)
        grad *= g / idx.size
        return grad

    return _node(np.asarray(nll.mean(), dtype=logits.dtype), (logits,), (rule,), "cross_entropy")


# -- tape / backward --------------------------------------------------------------


def topological_order(root: Tensor) -> list[Tensor]:
    """All tape nodes reachable from root, parents before children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backpropagate(loss: Tensor) -> None:
    """Fill .grad of every requires_grad leaf upstream of a scalar loss; a
    NaN/Inf loss raises NonFiniteResult first (see the module docstring)."""
    if loss.data.size != 1:
        raise NotScalar(f"loss has shape {loss.shape}")
    if not loss.requires_grad:
        raise DetachedLoss("loss is not on an active tape")
    order = topological_order(loss)
    if not np.isfinite(loss.data).all():
        for node in order:
            if node._parents:  # a leaf is named by the first op that reads it
                finite(node.data, node._name)
        finite(loss.data, "loss")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            if not node.is_leaf():
                node.grad = None  # free intermediate grads as we go


# -- gradient checking --------------------------------------------------------------


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor | np.ndarray,
    h: float = 1e-4,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must be a deterministic Tensor -> scalar map; the check runs in float64.
    """
    if not 1e-5 <= h <= 1e-3:
        raise BadConfig(f"h={h} outside [1e-5, 1e-3]")
    x0 = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    probe = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    y1 = f(probe)
    y2 = f(Tensor(x0.copy(), requires_grad=True, dtype=np.float64))
    if y1.data != y2.data:
        raise NonDeterministicF("two evaluations at the same point differ")
    backpropagate(y1)
    analytic = probe.grad.copy()

    numeric = np.zeros_like(x0)
    flat = x0.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(Tensor(x0.copy(), dtype=np.float64)).item()
        flat[i] = orig - h
        fm = f(Tensor(x0.copy(), dtype=np.float64)).item()
        flat[i] = orig
        num_flat[i] = (fp - fm) / (2.0 * h)

    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    return float(rel.max())

