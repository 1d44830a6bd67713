"""Attention mathematics: causal softmax attention, linear attention (parallel,
state-form, and recurrent), learnable feature maps, rotary embeddings, the
hybrid linear + sliding-window layer in standard and terraced window modes,
and the entropy / effective-sequence-length diagnostics.

All batched operations take [batch, heads, seq, dim] arrays. Softmax
attention has one forward, softmax_attention_np: the stage-1 teacher and
SoftmaxSession call it, and softmax_attention runs it as one tape node with
an analytic backward. The hybrid layer has two numpy forwards over the same
w-aligned chunks, each chunk attending to its window exactly and to older
keys through a kv-state: the serving walk, _hybrid_walk, takes the chunks
one at a time from a kv-state over a cached tail (scratch grows with the
window, not the sequence), and the training kernel, _hybrid_chunkwise, takes
every chunk of a fresh sequence at once, with an analytic backward.

The three kernels mask with caps, read-only tables cached per shape, mode
and dtype beside the bool masks (_mask_table): +inf where a key is attended
and MASK_VALUE where it is not, applied by np.minimum in place, which gives
what np.where gives for every finite and +-inf score at a fraction of the
cost. They shift each row by np.fmax.reduce, the row max np.maximum.reduce
gives on a row without a NaN; a row holding a NaN comes out NaN under
either, so a non-finite result is named at the same layer and op.

Training and Model.forward run the kernel as one tape node,
hybrid_attention_prefill, which keeps every chunk's scores (O(l w) bytes per
layer) for its backward; the serving sessions run the walk through
hybrid_decode_step, which keeps nothing per chunk and advances a
constant-size state by a segment of any length. _hybrid_naive, the masked
O(l^2) form, is the oracle of both.

The numpy kernels (_phi_np, softmax_attention_np, hybrid_decode_step; rope and
softmax are T.rope_np and T.softmax_np, the Tensor ops' own) read plain-array
snapshots of the parameters (PhiArrays, HybridArrays), which model.py's
engine takes once for the sessions and the stage-1 teacher. _phi_np runs the
Tensor op's own operations in the same order, bit for bit: t2r one matmul,
hedgehog both softmaxes feature-major (as one), along the sequence and not
the short feature axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import (
    NotStochastic,
    OddHeadDim,
    OutOfOrderToken,
    ShapeMismatch,
    StateDimMismatch,
    WindowTooSmall,
)
from .tensor import MASK_VALUE, Tensor

# Denominator guard for every linear-attention normalizer. An all-zero phi(k)
# prefix (possible with relu features) must yield 0, not NaN. The pure linear
# forms add it; the hybrid layer floors the shared denominator with it instead,
# so the window term's gamma factor cancels exactly when the linear sum is
# empty (the collapse-to-softmax contract holds to float precision).
EPS = 1e-6


def _floor_den(den: Tensor) -> Tensor:
    return T.masked_fill(den, den.data < EPS, EPS)


# --------------------------------------------------------------------------
# rotary embeddings
# --------------------------------------------------------------------------


def rope_angles(seq_len: int, head_dim: int, start_pos: int = 0, base: float = 10000.0):
    """cos/sin tables [seq, head_dim/2] for absolute positions start_pos.."""
    if head_dim % 2:
        raise OddHeadDim(f"head_dim {head_dim} must be even for rotary pairs")
    if start_pos < 0:
        raise OutOfOrderToken(f"start_pos {start_pos} must be >= 0")
    pos = np.arange(start_pos, start_pos + seq_len, dtype=np.float64)
    inv_freq = base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    ang = pos[:, None] * inv_freq[None, :]
    return np.cos(ang), np.sin(ang)


# --------------------------------------------------------------------------
# learnable feature maps
# --------------------------------------------------------------------------


FEATURE_KINDS = ("t2r", "hedgehog")


@dataclass
class FeatureMapParams:
    """Per-head learnable feature map phi: R^d -> R^{d'} (t2r) or R^{2d'} (hedgehog).

    t2r:      relu(x @ W + b)
    hedgehog: concat(softmax(x @ W), softmax(-x @ W)) over the feature axis
    """

    kind: str
    weight: Tensor  # [heads, head_dim, feature_dim]
    bias: Tensor | None = None  # [heads, feature_dim], t2r only

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ShapeMismatch(f"unknown feature map kind {self.kind!r}")
        if self.weight.ndim != 3:
            raise ShapeMismatch(f"feature map weight must be [heads, d, d'], got {self.weight.shape}")
        if self.kind == "hedgehog" and self.bias is not None:
            raise ShapeMismatch("hedgehog feature map takes no bias")
        if self.bias is not None and self.bias.shape != (self.heads, self.feature_dim):
            raise ShapeMismatch(f"bias shape {self.bias.shape} vs heads/feature {self.heads}/{self.feature_dim}")

    @property
    def heads(self) -> int:
        return self.weight.shape[0]

    @property
    def head_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weight.shape[2]

    @property
    def output_dim(self) -> int:
        return 2 * self.feature_dim if self.kind == "hedgehog" else self.feature_dim

    def parameters(self) -> list[Tensor]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]

    def arrays(self) -> PhiArrays:
        return PhiArrays(self.kind, self.weight.data, None if self.bias is None else self.bias.data)


class PhiArrays(NamedTuple):
    """The arrays of a FeatureMapParams, as the numpy kernels read them."""

    kind: str
    weight: np.ndarray  # [heads, head_dim, feature_dim]
    bias: np.ndarray | None  # [heads, feature_dim], t2r only


def default_feature_dim(kind: str, head_dim: int) -> int:
    """d' = d for t2r and d/2 for hedgehog, whose output is 2d' wide."""
    return head_dim if kind == "t2r" else max(1, head_dim // 2)


def init_feature_map(
    kind: str,
    n_heads: int,
    head_dim: int,
    feature_dim: int | None = None,
    rng: np.random.Generator | None = None,
    dtype=np.float32,
) -> FeatureMapParams:
    """Fresh trainable feature map. The default width, default_feature_dim,
    keeps the effective output dimension equal to head_dim."""
    rng = rng or np.random.default_rng(0)
    if feature_dim is None:
        feature_dim = default_feature_dim(kind, head_dim)
    bound = 1.0 / np.sqrt(head_dim)
    weight = Tensor(
        rng.uniform(-bound, bound, size=(n_heads, head_dim, feature_dim)).astype(dtype),
        requires_grad=True,
    )
    bias = None
    if kind == "t2r":
        bias = Tensor(np.zeros((n_heads, feature_dim), dtype=dtype), requires_grad=True)
    return FeatureMapParams(kind=kind, weight=weight, bias=bias)


def feature_map_apply(params: FeatureMapParams, x: Tensor) -> Tensor:
    """Apply phi to x [..., heads, seq, head_dim] -> [..., heads, seq, out_dim].
    hedgehog projects feature-major, W^T x^T as [..., heads, f, seq], so that
    both softmaxes reduce over rows of length seq rather than along the short
    feature axis, and returns a [..., seq, 2f] view of that layout."""
    if x.shape[-1] != params.head_dim or x.shape[-3] != params.heads:
        raise ShapeMismatch(f"feature map expects [..., {params.heads}, l, {params.head_dim}], got {x.shape}")
    if params.kind == "t2r":
        return T.relu(T.matmul(x, params.weight) + params.bias.reshape(params.heads, 1, params.feature_dim))
    proj = T.matmul(T.swapaxes(params.weight, -1, -2), T.swapaxes(x, -1, -2))
    return T.swapaxes(T.concat([T.softmax(proj, -2), T.softmax(-proj, -2)], axis=-2), -1, -2)


def _phi_np(params: PhiArrays, x: np.ndarray) -> np.ndarray:
    """numpy twin of feature_map_apply for inference; x [b, h, n, d] -> [b, h, n, out].
    It runs the Tensor op's operations in the same order and layout, so it
    matches feature_map_apply bit for bit, for both kinds."""
    if params.kind == "t2r":
        return np.maximum(x @ params.weight + params.bias[:, None], 0.0)
    proj = params.weight.swapaxes(-1, -2) @ x.swapaxes(-1, -2)
    both = np.concatenate([proj, -proj], axis=-2)
    return T.softmax_np(both.reshape(*proj.shape[:-2], 2, *proj.shape[-2:]), -2).reshape(both.shape).swapaxes(-1, -2)


# --------------------------------------------------------------------------
# softmax and linear attention
# --------------------------------------------------------------------------


def _check_qkv(q, k, v):
    if not (q.shape == k.shape == v.shape) or q.ndim != 4:
        raise ShapeMismatch(f"q/k/v must share a [b, h, l, d] shape: {q.shape} {k.shape} {v.shape}")


def causal_mask(s: int, n: int) -> np.ndarray:
    """[s, n], True where a key follows its query (the positions to mask out),
    for the last s queries over n keys."""
    return np.triu(np.ones((s, n), dtype=bool), k=n - s + 1)


def softmax_attention(q: Tensor, k: Tensor, v: Tensor):
    """Causal softmax attention with 1/sqrt(d) scaling as one tape node over
    q, k, v -> (y, weights), the weights a Tensor off the tape. The forward
    is softmax_attention_np; the node keeps its weights a [b, h, l, l] for
    the analytic backward that FlashAttention writes (Dao et al. 2022),
    without its recompute: dV = a^T g, dA = g v^T, dS = a (dA - rowsum(dA a)),
    dQ = scale dS k and dK = scale dS^T q. The scale multiplies dS before the
    matmuls and dK is taken as (q^T dS)^T, as the chain of Tensor ops has it
    (tests/oracles.softmax_attention_composite), so both agree bit for bit."""
    _check_qkv(q, k, v)
    y, a = softmax_attention_np(q.data, k.data, v.data)

    def grads(g):
        da = g @ v.data.swapaxes(-1, -2)
        ds = a * (da - (da * a).sum(axis=-1, keepdims=True))  # T.softmax's rule
        ds *= 1.0 / math.sqrt(q.shape[-1])
        return ds @ k.data, (q.data.swapaxes(-1, -2) @ ds).swapaxes(-1, -2), a.swapaxes(-1, -2) @ g

    return T.fused(y, (q, k, v), grads, "softmax_attention"), Tensor(a)


def softmax_attention_np(q: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Causal softmax attention, the package's one forward of it: queries
    q [b, h, S, d] at the last S positions of keys, values [b, h, n, d] ->
    (y, weights). It serves the stage-1 teacher, SoftmaxSession and, as
    softmax_attention, the tape. Scores, mask, shift, exp and normalisation
    run in place in the buffer the weights are returned in. The last S keys
    are masked by _mask_table's causal cap (a single query, which follows
    every key, takes none) and the shift is np.fmax.reduce, as in _chunk."""
    s, n = q.shape[2], keys.shape[2]
    a = q @ keys.swapaxes(-1, -2)
    a *= 1.0 / math.sqrt(q.shape[-1])
    if s > 1:
        tail = a[..., n - s :]
        np.minimum(tail, _mask_table(s, s, "standard", a.dtype)[2], out=tail)
    a -= np.fmax.reduce(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=-1, keepdims=True)
    return a @ values, a


def linear_attention_parallel(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    phi_q: FeatureMapParams,
    phi_k: FeatureMapParams,
) -> Tensor:
    """Linear attention, weight form: normalize phi(q)^T phi(k) scores per row."""
    _check_qkv(q, k, v)
    l = q.shape[-2]
    fq = feature_map_apply(phi_q, q)
    fk = feature_map_apply(phi_k, k)
    scores = T.masked_fill(T.matmul(fq, T.swapaxes(fk, -1, -2)), causal_mask(l, l), 0.0)
    den = scores.sum(-1, keepdims=True) + EPS
    return T.matmul(scores, v) / den


def linear_attention_state(q: Tensor, k: Tensor, v: Tensor, phi_q, phi_k) -> Tensor:
    """Linear attention, kv-state form: cumulative sum of phi(k) v^T outer products."""
    _check_qkv(q, k, v)
    b, h, l, d = q.shape
    fq = feature_map_apply(phi_q, q)
    fk = feature_map_apply(phi_k, k)
    f = fq.shape[-1]
    outer = T.matmul(fk.reshape(b, h, l, f, 1), v.reshape(b, h, l, 1, d))
    s_cum = T.cumsum(outer, 2)
    num = T.matmul(fq.reshape(b, h, l, 1, f), s_cum).reshape(b, h, l, d)
    den = (fq * T.cumsum(fk, 2)).sum(-1, keepdims=True) + EPS
    return num / den


class LinearAttentionState:
    """Constant-size recurrent state: s = sum phi(k) v^T, z = sum phi(k)."""

    def __init__(self, batch: int, heads: int, feature_out_dim: int, head_dim: int, dtype=np.float32):
        self.s = np.zeros((batch, heads, feature_out_dim, head_dim), dtype=dtype)
        self.z = np.zeros((batch, heads, feature_out_dim), dtype=dtype)

    @property
    def nbytes(self) -> int:
        return self.s.nbytes + self.z.nbytes


def linear_attention_recurrent_step(
    state: LinearAttentionState,
    q_n: np.ndarray,
    k_n: np.ndarray,
    v_n: np.ndarray,
    phi_q: FeatureMapParams,
    phi_k: FeatureMapParams,
) -> np.ndarray:
    """One streaming step of linear attention; mutates state, returns y_n [b, h, d]."""
    if q_n.shape != state.s.shape[:2] + (state.s.shape[-1],):
        raise StateDimMismatch(f"token shape {q_n.shape} vs state {state.s.shape}")
    fk = _phi_np(phi_k.arrays(), k_n[:, :, None])[:, :, 0]
    if fk.shape[-1] != state.s.shape[2]:
        raise StateDimMismatch(f"feature dim {fk.shape[-1]} vs state {state.s.shape[2]}")
    state.s += fk[..., :, None] * v_n[..., None, :]
    state.z += fk
    fq = _phi_np(phi_q.arrays(), q_n[:, :, None])[:, :, 0]
    num = np.einsum("bhf,bhfd->bhd", fq, state.s)
    den = np.einsum("bhf,bhf->bh", fq, state.z) + EPS
    return num / den[..., None]


# --------------------------------------------------------------------------
# hybrid linear + sliding-window attention
# --------------------------------------------------------------------------

WINDOW_MODES = ("standard", "terraced")


@dataclass
class HybridAttnConfig:
    """One hybrid layer's parameterization: exact softmax over a recent window,
    linear attention over everything older, mixed under a shared normalizer.

    The effective window factor is sigmoid(gamma_raw) per head; the linear term
    carries a fixed factor of 1.
    """

    window_size: int
    window_mode: str
    gamma_raw: Tensor  # [heads]
    phi_q: FeatureMapParams
    phi_k: FeatureMapParams

    def __post_init__(self):
        if self.window_size < 1:
            raise WindowTooSmall(f"window_size {self.window_size} < 1")
        if self.window_mode not in WINDOW_MODES:
            raise ShapeMismatch(f"window_mode must be one of {WINDOW_MODES}")
        if self.gamma_raw.ndim != 1 or self.gamma_raw.shape[0] != self.phi_q.heads:
            raise ShapeMismatch(f"gamma_raw must be [heads], got {self.gamma_raw.shape}")

    def parameters(self) -> list[Tensor]:
        return [self.gamma_raw] + self.phi_q.parameters() + self.phi_k.parameters()

    def arrays(self) -> HybridArrays:
        gamma = 1.0 / (1.0 + np.exp(-self.gamma_raw.data))
        return HybridArrays(self.window_size, self.window_mode, gamma[:, None, None], self.phi_q.arrays(), self.phi_k.arrays())


class HybridArrays(NamedTuple):
    """A HybridAttnConfig as the numpy hybrid kernels read it: plain arrays,
    with the window factor sigmoid(gamma_raw) computed once."""

    window_size: int
    window_mode: str
    gamma: np.ndarray  # sigmoid(gamma_raw) as [heads, 1, 1]
    phi_q: PhiArrays
    phi_k: PhiArrays


def make_hybrid_config(
    window_size: int,
    window_mode: str,
    feature_kind: str,
    n_heads: int,
    head_dim: int,
    feature_dim: int | None = None,
    rng: np.random.Generator | None = None,
    gamma_init: float = 1.0,
    dtype=np.float32,
) -> HybridAttnConfig:
    rng = rng or np.random.default_rng(0)
    phi_q = init_feature_map(feature_kind, n_heads, head_dim, feature_dim, rng, dtype)
    phi_k = init_feature_map(feature_kind, n_heads, head_dim, feature_dim, rng, dtype)
    gamma = Tensor(np.full(n_heads, gamma_init, dtype=dtype), requires_grad=True)
    return HybridAttnConfig(window_size, window_mode, gamma, phi_q, phi_k)


def _window_masks(l: int, w: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(window_mask, linear_mask) [l, l], True where the term applies (0-based)."""
    n, j = np.arange(l)[:, None], np.arange(l)[None, :]
    causal = j <= n
    win = causal & ((n - j < w) if mode == "standard" else (j >= (n // w) * w))
    return win, causal & ~win


@functools.lru_cache(maxsize=16)
def _mask_table(l: int, w: int, mode: str, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_window_masks(l, w, mode) and their caps in dtype, all read-only. The
    window cap is +inf in the window and MASK_VALUE off it, the linear cap
    +inf under the linear mask and 0 off it: np.minimum(scores, cap) is
    np.where(mask, scores, MASK_VALUE) for every finite and +-inf score, one
    elementwise op in place of a select. It differs only off the window,
    where -inf stays -inf (exp weights it 0 all the same) and NaN stays NaN.

    A chunk reads the table of l = 2 w: its masks are its rows from
    start - lo and keys from lo on, since the rule reads n - j alone in
    standard mode and lo is w-aligned in terraced mode. The causal mask of l
    queries is the standard-mode table of w = l."""
    win, lin = _window_masks(l, w, mode)
    tables = (win, lin, np.where(win, np.inf, MASK_VALUE).astype(dtype), np.where(lin, np.inf, 0.0).astype(dtype))
    for t in tables:
        t.flags.writeable = False
    return tables


def _window_start(n_seen: int, w: int, mode: str) -> int:
    """First window token after n_seen tokens (see HybridDecodeState)."""
    return max(0, n_seen - w if mode == "standard" else (n_seen - 1) // w * w)


def _chunk(cfg: HybridArrays, qc, fqc, kc, vc, fkc, s, z, start: int, lo: int):
    """Queries qc, fqc at positions [start, stop) against keys kc, vc at
    [lo, stop), fkc = phi(k) from lo on, and the kv-state s, z of the keys
    before lo. Returns the window scores (MASK_VALUE off each query's window),
    ex = exp(scores - row max), the weights (gamma ex, plus in standard mode
    phi(q) phi(k)^T over the keys [lo, hi) that left a later query's window),
    that linear mask [stop - start, hi - lo] or None, and y's num and den.

    The masks are _mask_table's caps, sliced and applied by np.minimum in
    place; a single query takes none, since its window holds every key from
    lo on. The linear cap is exact too: phi >= 0 for both feature kinds, so
    min(phi(q) phi(k)^T, 0) is 0. The shift is np.fmax.reduce (see the
    module docstring)."""
    size, w, mode = qc.shape[2], cfg.window_size, cfg.window_mode
    scores = qc @ kc.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(qc.shape[3])
    lin = None
    if size > 1:
        rel, hi = start - lo, _window_start(start + size, w, mode)
        _, lin, win_cap, lin_cap = _mask_table(2 * w, w, mode, scores.dtype)
        np.minimum(scores, win_cap[rel : rel + size, : rel + size], out=scores)
        lin = lin[rel : rel + size, : hi - lo] if hi > lo else None
    ex = scores - np.fmax.reduce(scores, axis=-1, keepdims=True)  # scores stay: _chunk returns them
    np.exp(ex, out=ex)
    weights = cfg.gamma * ex
    if lin is not None:
        prod = fqc @ fkc[:, :, : lin.shape[1]].swapaxes(-1, -2)
        weights[..., : lin.shape[1]] += np.minimum(prod, lin_cap[rel : rel + size, : hi - lo], out=prod)
    num = weights @ vc + fqc @ s
    den = np.add.reduce(weights, axis=-1, keepdims=True) + fqc @ z[..., None]
    return scores, ex, weights, lin, num, den


def _fold(fk, v):
    """The kv-state terms phi(k)^T v and sum phi(k) of the keys fk = phi(k),
    v [..., n, ·], summed over n."""
    return fk.swapaxes(-1, -2) @ v, fk.sum(axis=-2)


def _hybrid_walk(cfg: HybridArrays, s, z, q, fq, keys, values, fk, p: int, off: int):
    """The serving forward: queries q [b, h, S, d] at positions p onwards,
    with feature maps fq, over keys and values [b, h, end - off, d] at
    positions off onwards (end = p + S), where the kv-state s [b, h, f, d],
    z [b, h, f] sums every key before off. fk holds phi(k) of the keys from
    off on, at least to _window_start(end), the ones that leave the window by
    the end.

    Chunks end at multiples of w. Before each, the keys outside its first
    query's window are folded into the kv-state. Returns y [b, h, S, d] and
    the kv-state with every key before _window_start(end) folded in, which is
    what a decode state keeps."""
    w, end = cfg.window_size, p + q.shape[2]
    folded, outs = off, []
    for start in [p, *range((p // w + 1) * w, end, w)]:
        stop = min(end, (start // w + 1) * w)
        lo = _window_start(start + 1, w, cfg.window_mode)
        if lo > folded:
            ds, dz = _fold(fk[:, :, folded - off : lo - off], values[:, :, folded - off : lo - off])
            s, z, folded = s + ds, z + dz, lo
        qs, ks = slice(start - p, stop - p), slice(lo - off, stop - off)
        chunk = _chunk(cfg, q[:, :, qs], fq[:, :, qs], keys[:, :, ks], values[:, :, ks], fk[:, :, lo - off :], s, z, start, lo)
        outs.append(chunk[-2] / np.maximum(chunk[-1], EPS))
    tail = _window_start(end, w, cfg.window_mode)
    if tail > folded:
        ds, dz = _fold(fk[:, :, folded - off : tail - off], values[:, :, folded - off : tail - off])
        s, z = s + ds, z + dz
    return (outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)), s, z


def _blocks(x, nc: int, w: int, lead: int = 0):
    """x [b, h, l, e] as blocks [b, h, lead + nc, w, e]: a view when l = nc w
    and lead = 0, else a copy, zero-padded by lead blocks before x and by
    nc w - l rows after it."""
    b, h, l, e = x.shape
    if not lead and l == nc * w:
        return x.reshape(b, h, nc, w, e)
    out = np.zeros((b, h, lead + nc, w, e), dtype=x.dtype)
    out.reshape(b, h, -1, e)[:, :, lead * w : lead * w + l] = x
    return out


def _unblock(x, l: int):
    """The first l rows of blocks x [b, h, n, w, e], as [b, h, l, e]."""
    return x.reshape(*x.shape[:2], -1, x.shape[-1])[:, :, :l]


def _hybrid_chunkwise(cfg: HybridArrays, q, fq, k, v, fk):
    """The hybrid forward from a fresh state over every chunk at once, the
    chunkwise-parallel training form of GLA (Yang et al. 2023): q, k, v
    [b, h, l, d] and their feature maps fq, fk [b, h, l, f] as nc = ceil(l / w)
    blocks of w rows, zero-padded to nc w. Returns (y, backward, stats):
    backward(g, qkv) gives (dq, dk, dv, dfq, dfk, dgamma [h]), and dq, dk, dv
    are None unless qkv; stats are one chunk's share of the arrays kept.

    Chunk c's queries attend to a key block through the window cap: its own
    chunk in terraced mode; in standard mode the previous chunk and its own,
    2w keys read as an overlapping view of the keys after one zero block
    (chunk 0's previous block is that pad, capped at MASK_VALUE), whose
    previous-chunk keys that left a query's window enter through the linear
    cap. The kv-state S, Z of chunk c sums the folds phi(k)^T v of the chunks
    lag = 1 (terraced) or 2 (standard) and more before it, a running sum over
    the chunk axis (T._running_sum); the last lag chunks are folded by no one
    and not computed. A padded key follows every real query, so the causal
    cap weights it 0, and it lies in a chunk no fold reads.

    A sequence within one window is one chunk of l rows, the window all of
    it, in both modes. In terraced mode each chunk runs _chunk's operations
    on the same operands, and the kv-state and every gradient that crosses
    chunks are summed chunk by chunk in the serving walk's order, so when w
    divides l, y is bit-identical to the walk's. A padded last chunk differs
    from the walk by rounding, and so does standard mode, whose folds are
    w-aligned groups where the walk's start one key later. The backward
    reuses the forward's arrays, O(l w) bytes per layer, not recomputed as
    FlashAttention does (Dao et al. 2022)."""
    b, h, l, d = q.shape
    w = min(cfg.window_size, l)
    nc = -(-l // w)
    standard, lag = (True, 2) if cfg.window_mode == "standard" and nc > 1 else (False, 1)
    _, lin, win_cap, lin_cap = _mask_table(2 * cfg.window_size, cfg.window_size, cfg.window_mode, q.dtype)
    gamma = cfg.gamma[:, None]
    scale = 1.0 / math.sqrt(d)
    qb, fqb = _blocks(q, nc, w), _blocks(fq, nc, w)
    if standard:  # one zero block in front: a key block is the previous block and its own
        kp, vp, fkp = (_blocks(x, nc, w, 1) for x in (k, v, fk))
        kb, vb = (np.lib.stride_tricks.as_strided(x, (b, h, nc, 2 * w, d), x.strides, writeable=False) for x in (kp, vp))
        vo, fko = vp[:, :, 1:], fkp[:, :, 1:]
    else:
        kb, vb, fko = (_blocks(x, nc, w) for x in (k, v, fk))
        vo = vb
    n = nc - lag  # the chunks whose folds a later chunk reads

    scores = qb @ kb.swapaxes(-1, -2)
    scores *= scale
    np.minimum(scores, win_cap[w : 2 * w] if standard else win_cap[:w, :w], out=scores)
    if standard:
        np.minimum(scores[:, :, 0, :, :w], MASK_VALUE, out=scores[:, :, 0, :, :w])
    ex = scores - np.fmax.reduce(scores, axis=-1, keepdims=True)  # scores stay: the backward takes their argmax
    np.exp(ex, out=ex)
    weights = gamma * ex
    if standard:
        prod = fqb @ fkp[:, :, :-1].swapaxes(-1, -2)
        weights[..., :w] += np.minimum(prod, lin_cap[w : 2 * w, :w], out=prod)
    # the kv-state s | z of every chunk, [nc, b, h, f, d + 1]: chunk-major, so
    # that the running sum adds contiguous slices
    state = np.zeros((nc, b, h, fk.shape[-1], d + 1), dtype=q.dtype)
    fold = state[lag:].transpose(1, 2, 0, 3, 4)
    fold[..., :d], fold[..., d] = _fold(fko[:, :, :n], vo[:, :, :n])
    T._running_sum(state, 0, in_place=True)
    s, z = state[..., :d].transpose(1, 2, 0, 3, 4), state[..., d].transpose(1, 2, 0, 3)
    num = weights @ vb
    num += fqb @ s
    den = np.add.reduce(weights, axis=-1, keepdims=True)
    den += fqb @ z[..., None]
    y = _unblock(num / np.maximum(den, EPS), l)
    stats = {  # one chunk's share: scores, ex, weights, num, den and its y (num's size)
        "peak_chunk_bytes": (scores.nbytes + ex.nbytes + weights.nbytes + 2 * num.nbytes + den.nbytes) // nc,
        "state_bytes": state.nbytes // nc,
        "chunks": nc,
    }

    def onto_chunks(x):  # a standard key block's gradient onto its two chunks
        out = x[..., w:, :].copy()
        out[:, :, :-1] += x[:, :, 1:, :w]
        return out

    def backward(g, qkv: bool):
        floor = np.maximum(den, EPS)
        dnum = _blocks(g, nc, w) / floor
        dden = np.where(den < EPS, 0.0, -(dnum * num).sum(axis=-1, keepdims=True) / floor)
        dweights = dnum @ vb.swapaxes(-1, -2)
        dweights += dden
        dfq = dnum @ s.swapaxes(-1, -2)
        dfq += dden * z[:, :, :, None]
        # chunk c's fold reaches the state of every chunk from c + lag on: its
        # gradient is a running sum of theirs from the last chunk back
        dstate = np.empty((n, b, h, fk.shape[-1], d + 1), dtype=q.dtype)
        dfold = dstate.transpose(1, 2, 0, 3, 4)
        dfold[..., :d] = fqb[:, :, lag:].swapaxes(-1, -2) @ dnum[:, :, lag:]
        dfold[..., d] = (dden[:, :, lag:] * fqb[:, :, lag:]).sum(axis=3)
        T._running_sum(dstate[::-1], 0, in_place=True)
        ds, dz = dfold[..., :d], dfold[..., d]
        dfk = np.zeros_like(fko)
        dfk[:, :, :n] = vo[:, :, :n] @ ds.swapaxes(-1, -2) + dz[:, :, :, None]
        if standard:
            dlin = np.where(lin[w : 2 * w, :w], dweights[:, :, 1:, :, :w], 0.0)
            dfq[:, :, 1:] += dlin @ fko[:, :, :-1]
            dfk[:, :, :-1] += dlin.swapaxes(-1, -2) @ fqb[:, :, 1:]
        # the window term gamma exp(scores - row max). Only the window term
        # is shifted, so the output depends on the max, and its gradient goes
        # to the row's first argmax, as T.max routes it.
        dex = dweights * ex
        dgamma = np.cumsum(dex.sum(axis=(0, 3, 4))[:, ::-1], axis=1)[:, -1]  # chunk sums, last first: the walk's order
        dq = dk = dv = None
        if qkv:
            dscores = gamma * dex
            rows = dscores.reshape(-1, dscores.shape[-1])
            rows[np.arange(len(rows)), scores.argmax(axis=-1).ravel()] -= rows.sum(axis=1)
            dk, dv = scale * (dscores.swapaxes(-1, -2) @ qb), weights.swapaxes(-1, -2) @ dnum
            if standard:
                dk, dv = onto_chunks(dk), onto_chunks(dv)
            dv[:, :, :n] += fko[:, :, :n] @ ds
            dq, dk, dv = _unblock(scale * (dscores @ kb), l), _unblock(dk, l), _unblock(dv, l)
        return dq, dk, dv, _unblock(dfq, l), _unblock(dfk, l), dgamma

    return y, backward, stats


def _hybrid_op(q: Tensor, k: Tensor, v: Tensor, fq: Tensor, fk: Tensor, cfg: HybridAttnConfig, stats=None) -> Tensor:
    """The hybrid layer as one tape node over q, k, v, their feature maps fq,
    fk and cfg.gamma_raw, forward and backward by _hybrid_chunkwise."""
    arrays = cfg.arrays()
    y, backward, kernel_stats = _hybrid_chunkwise(arrays, q.data, fq.data, k.data, v.data, fk.data)
    if stats is not None:
        stats.update(kernel_stats)

    def grads(g):  # stage 1 needs no dq, dk, dv
        *rest, dgamma = backward(g, q.requires_grad or k.requires_grad or v.requires_grad)
        return (*rest, dgamma * arrays.gamma[:, 0, 0] * (1.0 - arrays.gamma[:, 0, 0]))

    return T.fused(y, (q, k, v, fq, fk, cfg.gamma_raw), grads, "hybrid_attention")


def hybrid_attention_prefill(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: HybridAttnConfig,
    with_stats: bool = False,
):
    """Hybrid attention over a full prompt, both window modes, post-RoPE q, k:
    the feature maps, as Tensor ops, then _hybrid_op. with_stats also returns
    a stats dict: peak_chunk_bytes, one chunk's share of the scratch the
    kernel keeps (it grows with w, not with the sequence; the kernel holds
    all nc chunks, O(l w) bytes), state_bytes, one chunk's kv-state, and
    chunks, nc. _hybrid_naive is the masked O(l^2) oracle it must agree
    with."""
    _check_qkv(q, k, v)
    stats = {} if with_stats else None
    y = _hybrid_op(q, k, v, feature_map_apply(cfg.phi_q, q), feature_map_apply(cfg.phi_k, k), cfg, stats)
    return (y, stats) if with_stats else y


def _hybrid_naive(q, k, v, cfg):
    """Reference path: full masked score matrices, both modes; returns (y, weights)."""
    b, h, l, d = q.shape
    scale = 1.0 / np.sqrt(d)
    gamma = T.sigmoid(cfg.gamma_raw).reshape(1, h, 1, 1)
    win_mask, lin_mask = _window_masks(l, cfg.window_size, cfg.window_mode)

    scores = T.matmul(q, T.swapaxes(k, -1, -2)) * scale
    masked = T.masked_fill(scores, ~win_mask, MASK_VALUE)
    c = masked.max(-1, keepdims=True)
    ew = gamma * T.exp(masked - c)  # exp underflows to 0 off-window

    fq = feature_map_apply(cfg.phi_q, q)
    fk = feature_map_apply(cfg.phi_k, k)
    lin = T.masked_fill(T.matmul(fq, T.swapaxes(fk, -1, -2)), ~lin_mask, 0.0)

    den = _floor_den(ew.sum(-1, keepdims=True) + lin.sum(-1, keepdims=True))
    weights = (ew + lin) / den
    y = T.matmul(weights, v)
    return y, weights


def hybrid_attention_weights(q, k, v, cfg) -> Tensor:
    """Materialized row-stochastic hybrid weights [b, h, l, l] (memory-heavy; opt-in)."""
    _, weights = _hybrid_naive(q, k, v, cfg)
    return weights


def terraced_prefill_chunked(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: HybridAttnConfig,
    with_stats: bool = False,
):
    """hybrid_attention_prefill for a terraced-mode layer; rejects standard mode."""
    if cfg.window_mode != "terraced":
        raise ShapeMismatch("terraced_prefill_chunked requires window_mode='terraced'")
    return hybrid_attention_prefill(q, k, v, cfg, with_stats)


# --------------------------------------------------------------------------
# constant-memory decoding
# --------------------------------------------------------------------------


class HybridDecodeState:
    """Recurrent state for one hybrid layer: a kv-state (s = sum phi(k) v^T,
    z = sum phi(k)) over evicted tokens plus a cache of up to w post-RoPE (k, v)
    pairs for the exact-softmax window.

    After n tokens the window holds tokens [start, n) and the kv-state all
    earlier ones: start = max(0, n - w) in standard mode (the last w tokens),
    floor((n - 1) / w) * w in terraced mode (the current w-aligned chunk).
    _window_start computes it; tests/oracles.hybrid_ref is its independent oracle.
    Allocation is fixed at construction, so byte size is constant for the whole
    generation."""

    def __init__(self, batch: int, heads: int, cfg: HybridAttnConfig, head_dim: int, dtype=np.float32):
        s, z, cache = self._shapes(batch, heads, cfg, head_dim)
        self.s = np.zeros(s, dtype=dtype)
        self.z = np.zeros(z, dtype=dtype)
        self.k_cache = np.zeros(cache, dtype=dtype)
        self.v_cache = np.zeros(cache, dtype=dtype)
        self.filled = 0
        self.position = 0

    @staticmethod
    def _shapes(batch: int, heads: int, cfg: HybridAttnConfig, head_dim: int) -> tuple[tuple[int, ...], ...]:
        f = cfg.phi_k.output_dim
        return (batch, heads, f, head_dim), (batch, heads, f), (batch, heads, cfg.window_size, head_dim)

    @classmethod
    def projected_bytes(cls, batch: int, heads: int, cfg: HybridAttnConfig, head_dim: int, dtype=np.float32) -> tuple[int, int]:
        """(state_bytes, cache_bytes) of the state these arguments build,
        without allocating it."""
        s, z, cache = (math.prod(shape) * np.dtype(dtype).itemsize for shape in cls._shapes(batch, heads, cfg, head_dim))
        return s + z, 2 * cache

    @property
    def nbytes(self) -> int:
        return self.s.nbytes + self.z.nbytes + self.k_cache.nbytes + self.v_cache.nbytes

    @property
    def state_bytes(self) -> int:
        return self.s.nbytes + self.z.nbytes

    @property
    def cache_bytes(self) -> int:
        return self.k_cache.nbytes + self.v_cache.nbytes


def hybrid_decode_step(
    state: HybridDecodeState,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cfg: HybridArrays,
    position: int | None = None,
) -> np.ndarray:
    """Hybrid attention over the next S >= 1 tokens, post-RoPE q, k, v
    [b, h, S, d] at positions state.position onwards: returns y [b, h, S, d]
    and advances the state, by _hybrid_walk over the cached tail plus the
    segment. phi(k) is computed once, for the keys that leave the window by
    the segment's end, so a decode token computes it only for those. The
    state ends folded to _window_start(end) with the tail in the fixed-size
    cache. A segment that fits in the cache beside the tail evicts nothing,
    so it is written into the cache and attends over a view of it."""
    b, h, f, d = state.s.shape
    if not q.shape == k.shape == v.shape or q.ndim != 4 or q.shape[:2] != (b, h) or q.shape[3] != d or not q.shape[2]:
        raise StateDimMismatch(f"segment shapes {q.shape} {k.shape} {v.shape} vs state {state.s.shape}")
    if position is not None and position != state.position:
        raise OutOfOrderToken(f"expected position {state.position}, got {position}")
    p, filled = state.position, state.filled
    end = p + q.shape[2]
    off = p - filled  # position of keys[:, :, 0]
    in_place = end - off <= cfg.window_size
    if in_place:
        state.k_cache[:, :, filled : end - off] = k
        state.v_cache[:, :, filled : end - off] = v
        keys, values = state.k_cache[:, :, : end - off], state.v_cache[:, :, : end - off]
    elif not filled:  # a fresh prefill: nothing cached to put before the segment
        keys, values = k, v
    else:
        keys = np.concatenate([state.k_cache[:, :, :filled], k], axis=2)
        values = np.concatenate([state.v_cache[:, :, :filled], v], axis=2)

    tail = _window_start(end, cfg.window_size, cfg.window_mode)
    fk = _phi_np(cfg.phi_k, keys[:, :, : tail - off]) if tail > off else np.empty((b, h, 0, f), dtype=q.dtype)
    y, state.s, state.z = _hybrid_walk(cfg, state.s, state.z, q, _phi_np(cfg.phi_q, q), keys, values, fk, p, off)
    # the window never moves past keys[:, :, 0] while the segment fits beside
    # the tail, so an in-place segment is already where the cache keeps it
    if not in_place:
        state.k_cache[:, :, : end - tail] = keys[:, :, tail - off :]
        state.v_cache[:, :, : end - tail] = values[:, :, tail - off :]
    state.filled = end - tail
    state.position = end
    return y


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------


def _check_stochastic(weights: np.ndarray) -> None:
    """NotStochastic unless rows are >= 0 and sum to 1 within 1e-4 (NaN/Inf fail)."""
    sums = weights.sum(axis=-1)
    if not ((weights >= -1e-4).all() and np.abs(sums - 1.0).max() <= 1e-4):
        raise NotStochastic(f"rows must be nonnegative and sum to 1 (max dev {np.abs(sums - 1).max():.2e})")


def attention_entropy(weights) -> np.ndarray:
    """Per-row entropy H = -sum a log a (0 log 0 = 0) of row-stochastic weights."""
    wts = np.asarray(weights.data if isinstance(weights, Tensor) else weights, dtype=np.float64)
    _check_stochastic(wts)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(wts > 0, wts * np.log(wts), 0.0)
    return -terms.sum(axis=-1)


def esl_per_query(weights) -> np.ndarray:
    """Effective sequence length sum_j (i - j) a[i, j] for every query row i."""
    wts = np.asarray(weights.data if isinstance(weights, Tensor) else weights, dtype=np.float64)
    _check_stochastic(wts)
    l = wts.shape[-1]
    lookback = np.maximum(np.arange(l)[:, None] - np.arange(l)[None, :], 0)
    return (wts * lookback).sum(axis=-1)


def effective_sequence_length(weights, i: int) -> np.ndarray:
    """ESL of query index i (1-based; i=1 attends only to itself, so 0)."""
    esl = esl_per_query(weights)
    if not 1 <= i <= esl.shape[-1]:
        raise ShapeMismatch(f"query index {i} outside [1, {esl.shape[-1]}]")
    return esl[..., i - 1]


def sample_esl(per_layer_weights: list) -> float:
    """Sample-level ESL: per-head sum over queries, averaged over heads, layers, batch."""
    per_layer = []
    for wts in per_layer_weights:
        q_esl = esl_per_query(wts)  # [b, h, l]
        per_layer.append(q_esl.sum(axis=-1).mean())
    return float(np.mean(per_layer))
