"""Attention mathematics: causal softmax attention, linear attention (parallel,
state-form, and recurrent), learnable feature maps, rotary embeddings, the
hybrid linear + sliding-window layer in standard and terraced window modes,
and the entropy / effective-sequence-length diagnostics.

All batched operations take [batch, heads, seq, dim] arrays. Softmax
attention has one forward, softmax_attention_np: the stage-1 teacher and
SoftmaxSession call it, and softmax_attention runs it as one tape node with
an analytic backward. The hybrid layer has one numpy forward,
_hybrid_chunkwise, over chunks of w rows, each chunk attending to its window
exactly and to older keys through a kv-state: it takes every chunk of a
segment at once, from the kv-state of the keys before a cached tail, with
an analytic backward.

The two kernels mask with caps, read-only tables cached per shape, mode
and dtype beside the bool masks (_mask_table): +inf where a key is attended
and MASK_VALUE where it is not, applied by np.minimum in place, which gives
what np.where gives for every finite and +-inf score at a fraction of the
cost. They shift each row by np.fmax.reduce, the row max np.maximum.reduce
gives on a row without a NaN; a row holding a NaN comes out NaN under
either, so a non-finite result is named at the same layer and op.

Training and Model.forward run the kernel from an empty state as one tape
node, hybrid_attention_prefill, which keeps every chunk's scores (O(l w)
bytes per layer) for its backward; the serving sessions run it through
hybrid_decode_step, which advances a constant-size state (the kv-state and a
w-key cache) by a segment of any length and keeps nothing else between
segments. hybrid_attention_weights, the masked O(l^2) weights, is its
oracle: those weights times v are the layer's output.

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
    every key, takes none) and the shift is np.fmax.reduce, as in
    _hybrid_chunkwise."""
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
        return HybridArrays(self.window_size, self.window_mode, gamma[:, None, None, None], self.phi_q.arrays(), self.phi_k.arrays())


class HybridArrays(NamedTuple):
    """A HybridAttnConfig as the numpy hybrid kernels read it: plain arrays,
    with the window factor sigmoid(gamma_raw) computed once."""

    window_size: int
    window_mode: str
    gamma: np.ndarray  # sigmoid(gamma_raw) as [heads, 1, 1, 1], over [b, h, chunks, rows, keys]
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


def _fold(fk, v):
    """The kv-state terms phi(k)^T v and sum phi(k) of the keys fk = phi(k),
    v [..., n, ·], summed over n."""
    return fk.swapaxes(-1, -2) @ v, fk.sum(axis=-2)


def _blocks(x, start: int, nb: int, n: int, w: int):
    """Rows [start + i w, start + i w + n) of x [b, h, ·, e] for i < nb, as a
    view [b, h, nb, n, e]; the blocks overlap when n > w."""
    if nb == 1:
        return x[:, :, None, start : start + n]
    b, h, _, e = x.shape
    if n != w:
        st = x.strides
        return np.lib.stride_tricks.as_strided(x[:, :, start:], (b, h, nb, n, e), (*st[:2], w * st[2], *st[2:]), writeable=False)
    return x[:, :, start : start + nb * n].reshape(b, h, nb, n, e)


def _add_blocks(x, start: int, blocks, w: int):
    """x[:, :, start + i w + r] += blocks[:, :, i, r], blocks of up to 2 w
    rows: the gradient of _blocks."""
    nb, n = blocks.shape[2:4]
    for j in range(0, n, w):
        part = blocks[:, :, :, j : j + w]
        view = _blocks(x, start + j, nb, part.shape[3], w)
        view += part


def _hybrid_chunkwise(cfg: HybridArrays, s, z, q, fq, keys, values, fk, p: int, off: int):
    """The hybrid forward, the chunkwise-parallel form of GLA (Yang et al.
    2023): queries q [b, h, S, d] at positions p onwards, with feature maps
    fq, over keys and values [b, h, L, d] at positions off onwards (end = p +
    S = off + L), where the kv-state s [b, h, f, d], z [b, h, f] sums every
    key before off; s = z = None is the empty state of a fresh sequence. fk
    holds phi(k) of the keys from off on, at least those that leave the
    window by the end; q = fq = None at p = end (S = 0) runs no chunk and
    gives y = None, the state advance alone. Returns (y, s, z, folded,
    backward, stats): y [b, h, S, d]; the kv-state of every key before
    position folded, the first key the last chunk reads, which is
    _window_start(end) in terraced mode and 1 to w keys short of it in
    standard mode, where the last chunk reads those through its linear term;
    backward(g, qkv) gives (dq, dk, dv, dfq, dfk, dgamma [h]), dq, dk, dv
    None unless qkv; and stats(), one chunk's share of the arrays the
    backward keeps.

    The keys form blocks of w rows from off, and the queries of a block are
    one chunk. A chunk attends to a key block through the window cap: its
    own block in terraced mode, where off is w-aligned; in standard mode the
    previous block and its own (block 0 has only its own), whose keys that
    left a query's window enter through the linear cap. The kv-state of
    block c adds to s the folds phi(k)^T v of the blocks lag = 1 (terraced)
    or 2 (standard) and more before it, a running sum over the block axis
    (T._running_sum); a call that folds nothing reads s, z as given.

    Chunks of one shape run as one batch of numpy calls: the whole chunks,
    then a first chunk that starts within its block (or, in standard mode,
    lies in block 0) and a last one that ends within it, each at its own
    size. No row or key is padded, since OpenBLAS rounds a row differently
    at some row counts: a chunk's output does not depend on the chunks
    batched with it. So serving a sequence from a fresh decode state is the
    training op's call, bit for bit, and with w dividing the segment length
    a prefill cut into segments folds and attends as one segment does, bit
    for bit. The backward reuses the forward's arrays, O(L w) bytes per
    layer, not recomputed as FlashAttention does (Dao et al. 2022)."""
    b, h, L, d = keys.shape
    w, r0 = cfg.window_size, p - off
    nc = -(-L // w)  # key blocks
    standard = cfg.window_mode == "standard"
    lag = 2 if standard else 1
    scale = 1.0 / math.sqrt(d)
    n_f = max(0, nc - lag)  # the blocks whose fold a chunk reads
    if n_f or s is None:  # the kv-state s | z of every block, chunk-major for the running sum
        state = np.zeros((nc, b, h, fk.shape[3], d + 1), dtype=keys.dtype)
        if s is not None:
            state[0, ..., :d], state[0, ..., d] = s, z
        fold = state[lag:].transpose(1, 2, 0, 3, 4)
        fold[..., :d], fold[..., d] = _fold(_blocks(fk, 0, n_f, w, w), _blocks(values, 0, n_f, w, w))
        T._running_sum(state, 0, in_place=True)
        S, Z = state[..., :d].transpose(1, 2, 0, 3, 4), state[..., d].transpose(1, 2, 0, 3).copy()
        s, z = S[:, :, -1], Z[:, :, -1]
    else:  # nothing to fold: every chunk reads s, z
        S, Z = s[:, :, None], z[:, :, None]
    a1 = min(L, max(-(-r0 // w), lag - 1) * w)  # the end of a first chunk that starts within its block, or of standard block 0
    a2 = max(a1, L // w * w)  # the start of a last chunk that ends within its block
    ys, chunks = [], []
    for a, e in ((r0, a1), (a1, a2), (a2, L)):
        if e <= a:
            continue
        c, m = a // w, min(w, e - a)  # the first chunk's block, its rows
        nb, lo = (e - a) // m, max(0, (c - lag + 1) * w)  # the chunks, the first key row
        rel = a - lo
        n = rel + m  # keys per chunk
        qg, fqg = _blocks(q, a - r0, nb, m, m), _blocks(fq, a - r0, nb, m, m)
        kg, vg = _blocks(keys, lo, nb, n, w), _blocks(values, lo, nb, n, w)
        scores = qg @ kg.swapaxes(-1, -2)
        scores *= scale
        if m > 1 or n > w:  # a single query's window holds every key of its own block
            _, lin, win_cap, lin_cap = _mask_table(2 * w, w, cfg.window_mode, q.dtype)
            np.minimum(scores, win_cap[rel : rel + m, :n], out=scores)
        ex = scores - np.fmax.reduce(scores, axis=-1, keepdims=True)  # scores stay: the backward takes their argmax
        np.exp(ex, out=ex)
        weights = cfg.gamma * ex
        fkl = _blocks(fk, lo, nb, n - w, w) if n > w else None  # standard: the previous block's phi(k)
        if fkl is not None:  # phi >= 0 for both feature kinds, so the linear cap's 0 is exact
            prod = fqg @ fkl.swapaxes(-1, -2)
            weights[..., : n - w] += np.minimum(prod, lin_cap[rel : rel + m, : n - w], out=prod)
        Sc, Zc = (S, Z) if S.shape[2] == 1 else (S[:, :, c : c + nb], Z[:, :, c : c + nb])
        num = weights @ vg
        num += fqg @ Sc
        den = np.add.reduce(weights, axis=-1, keepdims=True)
        den += fqg @ Zc[..., None]
        ys.append((num / np.maximum(den, EPS)).reshape(b, h, -1, d))
        chunks.append((a, c, m, nb, lo, rel, n, qg, fqg, kg, vg, fkl, Sc, Zc, scores, ex, weights, num, den))

    def stats():  # the largest chunk's scores, ex, weights, num, den and its y (num's size)
        peak = max((sum(x.nbytes for x in ch[-5:]) + ch[-2].nbytes) // ch[3] for ch in chunks)
        return {"peak_chunk_bytes": peak, "state_bytes": b * h * fk.shape[3] * (d + 1) * q.itemsize}

    def backward(g, qkv: bool):
        dq, dfq = np.empty(q.shape, q.dtype) if qkv else None, np.empty(fq.shape, fq.dtype)
        dk, dv, dfk = (np.zeros(x.shape, x.dtype) if qkv or x is fk else None for x in (keys, values, fk))
        dstate = np.zeros((n_f, b, h, fk.shape[3], d + 1), dtype=q.dtype)
        dgammas = []
        for a, c, m, nb, lo, rel, n, qg, fqg, kg, vg, fkl, Sc, Zc, scores, ex, weights, num, den in chunks:
            floor = np.maximum(den, EPS)
            dnum = _blocks(g, a - r0, nb, m, m) / floor
            dden = np.where(den < EPS, 0.0, -(dnum * num).sum(axis=-1, keepdims=True) / floor)
            dweights = dnum @ vg.swapaxes(-1, -2)
            dweights += dden
            dfqg = np.matmul(dnum, Sc.swapaxes(-1, -2), out=_blocks(dfq, a - r0, nb, m, m))
            dfqg += dden * Zc[:, :, :, None]
            k0 = max(0, lag - c)  # the first chunk that reads a fold
            if n_f and k0 < nb:
                dfold = dstate[c + k0 - lag : c + nb - lag].transpose(1, 2, 0, 3, 4)
                dfold[..., :d] = fqg[:, :, k0:].swapaxes(-1, -2) @ dnum[:, :, k0:]
                dfold[..., d] = (dden[:, :, k0:] * fqg[:, :, k0:]).sum(axis=3)
            if fkl is not None:
                dlin = np.where(lin[rel : rel + m, : n - w], dweights[..., : n - w], 0.0)
                dfqg += dlin @ fkl
                _add_blocks(dfk, lo, dlin.swapaxes(-1, -2) @ fqg, w)
            # the window term gamma exp(scores - row max). Only the window term
            # is shifted, so the output depends on the max, and its gradient goes
            # to the row's first argmax, as T.max routes it.
            dex = dweights * ex
            dgammas.append(dex.sum(axis=(0, 3, 4)))
            if qkv:
                dscores = cfg.gamma * dex
                flat = dscores.reshape(-1, n)
                flat[np.arange(len(flat)), scores.argmax(axis=-1).ravel()] -= flat.sum(axis=1)
                _add_blocks(dk, lo, scale * (dscores.swapaxes(-1, -2) @ qg), w)
                _add_blocks(dv, lo, weights.swapaxes(-1, -2) @ dnum, w)
                dqg = np.matmul(dscores, kg, out=_blocks(dq, a - r0, nb, m, m))
                dqg *= scale
        if n_f:  # fold i reaches the state of every block from i + lag on: a running sum of theirs from the last back
            T._running_sum(dstate[::-1], 0, in_place=True)
            ds, dz = dstate[..., :d].transpose(1, 2, 0, 3, 4), dstate[..., d].transpose(1, 2, 0, 3)
            _add_blocks(dfk, 0, _blocks(values, 0, n_f, w, w) @ ds.swapaxes(-1, -2) + dz[:, :, :, None], w)
            if qkv:
                _add_blocks(dv, 0, _blocks(fk, 0, n_f, w, w) @ ds, w)
        dgamma = np.cumsum(np.concatenate(dgammas, axis=1)[:, ::-1], axis=1)[:, -1]  # chunk sums, added from the last chunk back
        return dq, dk, dv, dfq, dfk, dgamma

    y = (ys[0] if len(ys) == 1 else np.concatenate(ys, axis=2)) if ys else None
    return y, s, z, off + n_f * w, backward, stats


def _hybrid_op(q: Tensor, k: Tensor, v: Tensor, fq: Tensor, fk: Tensor, cfg: HybridAttnConfig, stats=None) -> Tensor:
    """The hybrid layer as one tape node over q, k, v, their feature maps fq,
    fk and cfg.gamma_raw, forward and backward by _hybrid_chunkwise."""
    arrays = cfg.arrays()
    y, _, _, _, backward, kernel_stats = _hybrid_chunkwise(arrays, None, None, q.data, fq.data, k.data, v.data, fk.data, 0, 0)
    if stats is not None:
        stats.update(kernel_stats())

    def grads(g):  # stage 1 needs no dq, dk, dv
        *rest, dgamma = backward(g, q.requires_grad or k.requires_grad or v.requires_grad)
        return (*rest, dgamma * arrays.gamma.ravel() * (1.0 - arrays.gamma.ravel()))

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
    a stats dict: peak_chunk_bytes, the largest chunk's share of the
    scratch the kernel keeps (it grows with w, not with the sequence; the
    kernel holds all nc chunks, O(l w) bytes), and state_bytes, one chunk's
    kv-state. hybrid_attention_weights is the masked O(l^2) oracle it must
    agree with: its weights times v."""
    _check_qkv(q, k, v)
    stats = {} if with_stats else None
    y = _hybrid_op(q, k, v, feature_map_apply(cfg.phi_q, q), feature_map_apply(cfg.phi_k, k), cfg, stats)
    return (y, stats) if with_stats else y


def hybrid_attention_weights(q, k, v, cfg) -> Tensor:
    """The hybrid layer's row-stochastic weights [b, h, l, l], both modes, from
    full masked score matrices (memory-heavy; the weight losses and the
    oracle of hybrid_attention_prefill read them); v is checked, not read."""
    _check_qkv(q, k, v)
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

    den = ew.sum(-1, keepdims=True) + lin.sum(-1, keepdims=True)
    return (ew + lin) / T.masked_fill(den, den.data < EPS, EPS)


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
    def state_bytes(self) -> int:
        return self.s.nbytes + self.z.nbytes

    @property
    def cache_bytes(self) -> int:
        return self.k_cache.nbytes + self.v_cache.nbytes


def hybrid_decode_step(
    state: HybridDecodeState,
    q: np.ndarray | None,
    k: np.ndarray,
    v: np.ndarray,
    cfg: HybridArrays,
    position: int | None = None,
) -> np.ndarray | None:
    """Hybrid attention over the next S >= 1 tokens, post-RoPE k, v
    [b, h, S, d] at positions state.position onwards, with queries q
    [b, h, S_q, d], 1 <= S_q <= S, at the last S_q of those positions:
    returns y [b, h, S_q, d] and advances the state over all S keys, by
    _hybrid_chunkwise over the cached tail plus the segment. A caller that
    reads only the segment's last outputs passes only their queries, and
    one that reads none passes q = None: the state advances and the call
    returns None, with no phi(q), score or output computed. The state and
    cache it leaves do not depend on S_q, bit for bit; a q of 0 rows is a
    StateDimMismatch, as any shape that does not fit. phi(k) is computed once,
    for the keys that leave the window by the segment's end, so a decode
    token computes it only for those. The state ends folded to
    _window_start(end), with the tail in the fixed-size cache: in standard
    mode the kernel's last chunk reads up to w of those keys through its
    linear term, and they are folded here. A segment that fits in the cache
    beside the tail evicts nothing, so it is written into the cache and
    attends over a view of it."""
    b, h, f, d = state.s.shape
    fits = k.shape == v.shape and k.ndim == 4 and k.shape[:2] == (b, h) and k.shape[3] == d and k.shape[2] > 0
    if q is not None:
        fits = fits and q.ndim == 4 and q.shape[:2] == (b, h) and q.shape[3] == d and 0 < q.shape[2] <= k.shape[2]
    if not fits:
        raise StateDimMismatch(f"segment shapes {None if q is None else q.shape} {k.shape} {v.shape} vs state {state.s.shape}")
    if position is not None and position != state.position:
        raise OutOfOrderToken(f"expected position {state.position}, got {position}")
    p, filled = state.position, state.filled
    end = p + k.shape[2]
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
    fk = _phi_np(cfg.phi_k, keys[:, :, : tail - off]) if tail > off else np.empty((b, h, 0, f), dtype=k.dtype)
    fq, p_q = (None, end) if q is None else (_phi_np(cfg.phi_q, q), end - q.shape[2])
    y, s, z, folded, *_ = _hybrid_chunkwise(cfg, state.s, state.z, q, fq, keys, values, fk, p_q, off)
    if tail > folded:  # standard mode: the keys the last chunk reads through its linear term
        ds, dz = _fold(fk[:, :, folded - off :], values[:, :, folded - off : tail - off])
        s, z = s + ds, z + dz
    state.s, state.z = s, z
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


def sample_esl(per_layer_weights: list) -> float:
    """Sample-level ESL: per-head sum over queries, averaged over heads, layers, batch."""
    per_layer = []
    for wts in per_layer_weights:
        q_esl = esl_per_query(wts)  # [b, h, l]
        per_layer.append(q_esl.sum(axis=-1).mean())
    return float(np.mean(per_layer))
