"""Independent float64 reference implementations used as test oracles.

These transcribe the attention definitions as per-position loops over plain
numpy arrays and never call the library's vectorized paths, so agreement is a
two-route check rather than a tautology. rope_real is T.rope_np's real
formula, its byte-equality oracle. The *_composite functions are the
other kind of oracle: the fused Tensor ops (rope, softmax attention,
rms_norm, cross_entropy) written out as chains of elementary Tensor ops,
whose gradients the tape derives op by op; hybrid_naive is the hybrid
layer's masked O(l^2) form. hybrid_op_packed sets the hybrid op up for the
finite-difference suites. clone_model and zero_grad are the
model helpers only the tests use; effective_sequence_length (criterion 12's
per-index ESL) and mse_attention_loss (the all-layer output MSE) are the
attention and training helpers only the tests use.
"""

import numpy as np

from linswap import attention as A
from linswap import model as M
from linswap import tensor as T
from linswap import training as tr
from linswap.errors import ShapeMismatch

EPS = 1e-6


def phi_ref(kind, weight, bias, x):
    """Feature map on x [b, h, l, d] with weight [h, d, f] (float64 loops)."""
    b, h, l, d = x.shape
    f = weight.shape[-1]
    out_dim = 2 * f if kind == "hedgehog" else f
    out = np.zeros((b, h, l, out_dim))
    for bi in range(b):
        for hi in range(h):
            for n in range(l):
                z = x[bi, hi, n] @ weight[hi]
                if kind == "t2r":
                    out[bi, hi, n] = np.maximum(z + bias[hi], 0.0)
                else:
                    e1 = np.exp(z - z.max())
                    e2 = np.exp(-z - (-z).max())
                    out[bi, hi, n] = np.concatenate([e1 / e1.sum(), e2 / e2.sum()])
    return out


def softmax_attention_ref(q, k, v):
    """Causal softmax attention, per-position normalization."""
    b, h, l, d = q.shape
    y = np.zeros_like(v)
    a = np.zeros((b, h, l, l))
    for bi in range(b):
        for hi in range(h):
            for n in range(l):
                logits = np.array([q[bi, hi, n] @ k[bi, hi, i] / np.sqrt(d) for i in range(n + 1)])
                e = np.exp(logits - logits.max())
                w = e / e.sum()
                a[bi, hi, n, : n + 1] = w
                y[bi, hi, n] = sum(w[i] * v[bi, hi, i] for i in range(n + 1))
    return y, a


def linear_attention_ref(fq, fk, v):
    """Linear attention from pre-computed features, weight form with eps floor."""
    b, h, l, d = v.shape
    y = np.zeros_like(v)
    for bi in range(b):
        for hi in range(h):
            for n in range(l):
                scores = np.array([fq[bi, hi, n] @ fk[bi, hi, i] for i in range(n + 1)])
                den = scores.sum() + EPS
                y[bi, hi, n] = sum(scores[i] * v[bi, hi, i] for i in range(n + 1)) / den
    return y


def window_lo(n, w, mode):
    """First key of query n's window (0-based). Window membership: standard =
    the last min(w, n + 1) tokens; terraced = the token's w-aligned chunk."""
    if mode == "standard":
        return max(0, n - w + 1)
    return (n // w) * w


def hybrid_ref(q, k, v, fq, fk, w, gamma, mode="standard"):
    """Hybrid linear + sliding-window attention, direct per-position evaluation.

    gamma is the post-sigmoid per-head window factor [h]; window_lo gives the
    window, every earlier key is mixed linearly.
    """
    b, h, l, d = q.shape
    y = np.zeros_like(v)
    for bi in range(b):
        for hi in range(h):
            for n in range(l):
                w_lo = window_lo(n, w, mode)
                win = range(w_lo, n + 1)
                lin = range(0, w_lo)
                logits = np.array([q[bi, hi, n] @ k[bi, hi, i] / np.sqrt(d) for i in win])
                c = logits.max()
                e = gamma[hi] * np.exp(logits - c)
                num = sum(e[j] * v[bi, hi, i] for j, i in enumerate(win))
                den = e.sum()
                for i in lin:
                    s = fq[bi, hi, n] @ fk[bi, hi, i]
                    num = num + s * v[bi, hi, i]
                    den = den + s
                y[bi, hi, n] = num / max(den, EPS)
    return y


def rope_ref(x, start_pos, base):
    """Pairwise rotation with explicit 2x2 matrices."""
    out = np.zeros_like(x)
    l, d = x.shape[-2], x.shape[-1]
    for n in range(l):
        p = start_pos + n
        for i in range(d // 2):
            ang = p * base ** (-2.0 * i / d)
            c, s = np.cos(ang), np.sin(ang)
            xe = x[..., n, 2 * i]
            xo = x[..., n, 2 * i + 1]
            out[..., n, 2 * i] = xe * c - xo * s
            out[..., n, 2 * i + 1] = xe * s + xo * c
    return out


def rope_real(x, cos, sin):
    """T.rope_np's rotation by the real formula on the interleaved pairs,
    a cos - b sin and a sin + b cos, in numpy: the form it replaced, kept as
    its byte-equality oracle."""
    xe, xo = x[..., 0::2], x[..., 1::2]
    out = np.empty(x.shape, x.dtype)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos
    return out


def rope_composite(x, cos, sin):
    """T.rope from elementwise ops: x [..., S, d], tables [S, d/2]."""
    cos, sin = T.Tensor(cos, dtype=x.dtype), T.Tensor(sin, dtype=x.dtype)
    xe, xo = x[..., 0::2], x[..., 1::2]
    pairs = [xe * cos - xo * sin, xe * sin + xo * cos]
    half = pairs[0].shape
    return T.concat([p.reshape(half + (1,)) for p in pairs], axis=-1).reshape(x.shape)


def softmax_attention_composite(q, k, v):
    """A.softmax_attention from elementary Tensor ops -> (y, weights): the
    scaled scores, the causal mask as masked_fill, softmax and a matmul."""
    l, d = q.shape[-2], q.shape[-1]
    scores = T.matmul(q, T.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(d))
    a = T.softmax(T.masked_fill(scores, A.causal_mask(l, l), T.MASK_VALUE), -1)
    return T.matmul(a, v), a


def rms_norm_composite(x, gain, eps):
    """T.rms_norm from elementwise ops; the rsqrt is exp(-log(.) / 2)."""
    mean_square = (x * x).mean(-1, keepdims=True) + eps
    return x * T.exp(T.log(mean_square) * -0.5) * gain


def cross_entropy_composite(logits, targets):
    """T.cross_entropy as log-softmax, a one-hot target pick and a mean."""
    shifted = logits - logits.max(-1, keepdims=True)
    logp = shifted - T.log(T.exp(shifted).sum(-1, keepdims=True))
    onehot = np.eye(logits.shape[-1])[np.asarray(targets)]
    return -(logp * T.Tensor(onehot, dtype=logits.dtype)).sum(-1).mean()


def hybrid_naive(q, k, v, cfg):
    """The hybrid layer's output as Tensor ops: its masked O(l^2) weights
    (A.hybrid_attention_weights) times v."""
    return T.matmul(A.hybrid_attention_weights(q, k, v, cfg), v)


HYBRID_PACKED = (1, 2, 7, 2)  # b, h, l, d of hybrid_op_packed, window 2: the last chunk is padded
HYBRID_PACKED_SIZE = 5 * int(np.prod(HYBRID_PACKED)) + HYBRID_PACKED[1]
HYBRID_ALIGNED = (2, 1, 6, 2)  # three whole chunks, b > 1
HYBRID_ALIGNED_SIZE = 5 * int(np.prod(HYBRID_ALIGNED)) + HYBRID_ALIGNED[1]


def hybrid_op_packed(t, mode, shape=HYBRID_PACKED):
    """The hybrid op as a scalar function of one float64 Tensor t that packs
    q, k, v, the feature-map outputs and gamma_raw [h] of the given b, h, l, d
    shape: the feature maps are exp of their slices, so they stay positive,
    and the output is summed against a fixed probe."""
    b, h, l, d = shape
    n = b * h * l * d
    q, k, v, fq, fk = (t[i * n : (i + 1) * n].reshape(b, h, l, d) for i in range(5))
    cfg = A.make_hybrid_config(2, mode, "t2r", h, d, dtype=np.float64)
    cfg.gamma_raw = t[5 * n :]
    y = A._hybrid_op(q, k, v, T.exp(fq), T.exp(fk), cfg)
    probe = np.random.default_rng(n).normal(size=y.shape)
    return (y * T.Tensor(probe, dtype=np.float64)).sum()


def clone_model(model):
    """Independent copy of a model: the same structure, copies of the data,
    the same trainable flags and zeroed gradients."""
    src = model.parameters()
    new = M._assemble(model.config, lambda name, shape: src[name].data.copy(), model.hybrid_spec, model.lora_meta)
    for name, t in new.parameters().items():
        t.requires_grad = src[name].requires_grad
        t.grad = np.zeros_like(t.data) if t.requires_grad else None
    return new


def zero_grad(model):
    """Zero (or clear) the gradient of every parameter of a model."""
    for t in model.parameters().values():
        t.zero_grad()


def effective_sequence_length(weights, i):
    """ESL of query index i (1-based; i=1 attends only to itself, so 0): the
    package's per-query ESL read at one index, for criterion 12."""
    esl = A.esl_per_query(weights)
    if not 1 <= i <= esl.shape[-1]:
        raise ShapeMismatch(f"query index {i} outside [1, {esl.shape[-1]}]")
    return esl[..., i - 1]


def mse_attention_loss(ys, y_hats):
    """(1 / (M H)) sum over layers and heads of per-head output MSE: the
    block-wise loss of one block of all M layers."""
    return tr.blockwise_loss(ys, y_hats, len(ys))[0]
