"""Hybrid linear + sliding-window attention: brute-force oracle agreement,
softmax-collapse and pure-linear limits, chunked prefill against the masked
oracle, recurrent decode consistency, and a property test of the segment
step and the decode session over drawn shapes and segment splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linswap import attention as A
from linswap import model as M
from linswap import tensor as T
from linswap.errors import OutOfOrderToken, ShapeMismatch, WindowTooSmall
from linswap.tensor import Tensor

import oracles


def rng(seed):
    return np.random.default_rng(seed)


def make_cfg(w, mode, kind="hedgehog", heads=2, d=8, seed=0, gamma=1.0, dtype=np.float64):
    return A.make_hybrid_config(
        w, mode, kind, heads, d, rng=rng(seed), gamma_init=gamma, dtype=dtype
    )


def rand_qkv(b, h, l, d, seed, dtype=np.float64):
    g = rng(seed)
    return tuple(Tensor(g.normal(size=(b, h, l, d)), dtype=dtype) for _ in range(3))


def ref_features(cfg, q, k):
    fq = oracles.phi_ref(cfg.phi_q.kind, cfg.phi_q.weight.data,
                         None if cfg.phi_q.bias is None else cfg.phi_q.bias.data, q)
    fk = oracles.phi_ref(cfg.phi_k.kind, cfg.phi_k.weight.data,
                         None if cfg.phi_k.bias is None else cfg.phi_k.bias.data, k)
    return fq, fk


def gamma_of(cfg):
    return 1.0 / (1.0 + np.exp(-cfg.gamma_raw.data))


# --- mixing semantics --------------------------------------------------------

def test_single_token_returns_value():
    for mode in A.WINDOW_MODES:
        cfg = make_cfg(4, mode, seed=1)
        q, k, v = rand_qkv(1, 2, 1, 8, 2)
        y = A.hybrid_attention_prefill(q, k, v, cfg)
        np.testing.assert_allclose(y.data, v.data, atol=1e-5)


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
def test_prefill_matches_direct_oracle(mode, kind):
    cfg = make_cfg(3, mode, kind=kind, seed=3)
    q, k, v = rand_qkv(2, 2, 8, 8, 4)
    fq, fk = ref_features(cfg, q.data, k.data)
    ref = oracles.hybrid_ref(q.data, k.data, v.data, fq, fk, 3, gamma_of(cfg), mode)
    y = A.hybrid_attention_prefill(q, k, v, cfg)
    np.testing.assert_allclose(y.data, ref, atol=1e-6)


def test_prefill_float32_against_float64_oracle():
    cfg = make_cfg(3, "standard", seed=5, dtype=np.float32)
    g = rng(6)
    q, k, v = (g.normal(size=(1, 2, 8, 8)).astype(np.float32) for _ in range(3))
    fq, fk = ref_features(cfg, q.astype(np.float64), k.astype(np.float64))
    ref = oracles.hybrid_ref(
        q.astype(np.float64), k.astype(np.float64), v.astype(np.float64), fq, fk, 3, gamma_of(cfg)
    )
    y = A.hybrid_attention_prefill(Tensor(q), Tensor(k), Tensor(v), cfg)
    np.testing.assert_allclose(y.data, ref, atol=1e-5)


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("gamma_raw", [-2.0, 0.0, 3.0])
def test_collapse_to_softmax_when_window_covers_sequence(mode, gamma_raw):
    cfg = make_cfg(16, mode, seed=7, gamma=gamma_raw)
    q, k, v = rand_qkv(2, 2, 9, 8, 8)
    y_soft, _ = A.softmax_attention(q, k, v)
    y_hyb = A.hybrid_attention_prefill(q, k, v, cfg)
    np.testing.assert_allclose(y_hyb.data, y_soft.data, atol=1e-5)


def test_pure_linear_limit_via_window_factor_hook():
    # gamma_raw = -inf drives the window factor sigmoid(gamma_raw) to exactly 0:
    # positions past the window reduce to linear attention over tokens <= n - w
    w = 3
    cfg = make_cfg(w, "standard", seed=9)
    cfg.gamma_raw.data[:] = -np.inf
    q, k, v = rand_qkv(1, 2, 10, 8, 10)
    y = A.hybrid_attention_prefill(q, k, v, cfg)
    fq, fk = ref_features(cfg, q.data, k.data)
    for n in range(w, 10):
        scores = np.einsum("hf,hif->hi", fq[0, :, n], fk[0, :, : n - w + 1])
        den = np.maximum(scores.sum(-1), A.EPS)
        ref = np.einsum("hi,hid->hd", scores, v.data[0, :, : n - w + 1]) / den[:, None]
        np.testing.assert_allclose(y.data[0, :, n], ref, atol=1e-6)


def test_hybrid_weights_are_stochastic_and_reproduce_output():
    for mode in A.WINDOW_MODES:
        cfg = make_cfg(3, mode, seed=11)
        q, k, v = rand_qkv(1, 2, 7, 8, 12)
        wts = A.hybrid_attention_weights(q, k, v, cfg)
        np.testing.assert_allclose(wts.data.sum(-1), 1.0, atol=1e-5)
        assert (wts.data >= 0).all()
        y = A.hybrid_attention_prefill(q, k, v, cfg)
        np.testing.assert_allclose(np.matmul(wts.data, v.data), y.data, atol=1e-6)


def test_window_too_small_rejected():
    with pytest.raises(WindowTooSmall):
        make_cfg(0, "standard")


# --- chunked prefill ---------------------------------------------------------

@pytest.mark.parametrize("w", [4, 8])
@pytest.mark.parametrize("rel", ["one", "w", "w+1", "4w", "4w+3"])
def test_chunked_equals_naive_terraced(w, rel):
    # the chunked kernel against the masked O(l^2) oracle, in both window modes
    seq = {"one": 1, "w": w, "w+1": w + 1, "4w": 4 * w, "4w+3": 4 * w + 3}[rel]
    for mode in A.WINDOW_MODES:
        cfg = make_cfg(w, mode, seed=13 + w)
        q, k, v = rand_qkv(2, 2, seq, 8, 14 + seq)
        ref = A._hybrid_naive(q, k, v, cfg)[0]
        out = A.hybrid_attention_prefill(q, k, v, cfg)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-6, err_msg=mode)


def test_chunked_single_chunk_is_softmax():
    w = 8
    cfg = make_cfg(w, "terraced", seed=15)
    q, k, v = rand_qkv(1, 2, 6, 8, 16)
    out = A.terraced_prefill_chunked(q, k, v, cfg)
    y_soft, _ = A.softmax_attention(q, k, v)
    np.testing.assert_allclose(out.data, y_soft.data, atol=1e-5)


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("l", [3, 8, 13])
def test_training_walk_folds_only_keys_that_left_the_window(mode, l, monkeypatch):
    # the training kernel folds whole chunks of keys in one _fold call, and
    # only the chunks whose fold a later chunk's kv-state reads: the keys
    # before the w-aligned start of the last chunk's key block, the first l
    # keys in order and never a padded one. In terraced mode those are the
    # keys before _window_start(l), the ones a decode state holds in its
    # kv-state (test_decode_state_matches_spec_partition); in standard mode
    # the last query reaches the rest of those, 1 to w keys, through the
    # linear term over the previous chunk
    w, folded = 4, []
    fold = A._fold

    def counted(fk, v):
        folded.append(fk)
        return fold(fk, v)

    monkeypatch.setattr(A, "_fold", counted)
    cfg = make_cfg(w, mode, seed=5)
    q, k, v = rand_qkv(1, 2, l, 8, 6)
    A.hybrid_attention_prefill(q, k, v, cfg)
    (fk,) = folded
    keys = fk.reshape(1, 2, -1, fk.shape[-1])
    n = keys.shape[2]
    last = (l - 1) // w * w  # the last chunk's first query
    assert n == A._window_start(last + 1, w, mode) // w * w
    assert np.array_equal(keys, A.feature_map_apply(cfg.phi_k, k).data[:, :, :n])
    if mode == "terraced" or l <= w:
        assert n == A._window_start(l, w, mode)
    else:
        assert 0 < A._window_start(l, w, mode) - n <= w


@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("rel", ["1", "w-1", "w", "w+1", "2w+3", "5w"])
def test_chunkwise_kernel_matches_oracle_and_serving_walk(rel, mode, kind, monkeypatch):
    # the kernel over every chunk at once, at lengths within one window,
    # with a last chunk that ends within its block and with whole chunks: in
    # float64, y and the gradients of q, k, v, phi(q), phi(k) and gamma_raw
    # against the masked oracle, inside criterion 5's bound; in float32,
    # serving the sequence from a fresh decode state (hybrid_decode_step) is
    # the same kernel call, so its y is the training op's bit for bit
    w = 4
    l = {"1": 1, "w-1": w - 1, "w": w, "w+1": w + 1, "2w+3": 2 * w + 3, "5w": 5 * w}[rel]
    b, h, d = 2, 3, 8
    cfg = make_cfg(w, mode, kind=kind, heads=h, d=d, seed=60 + l, gamma=0.4)
    q, k, v = rand_qkv(b, h, l, d, 61 + l)
    fq, fk = (Tensor(A.feature_map_apply(p, x).data) for p, x in ((cfg.phi_q, q), (cfg.phi_k, k)))
    probe = rng(62 + l).normal(size=(b, h, l, d))
    leaves = (q, k, v, fq, fk, cfg.gamma_raw)

    def run(fn):
        for t in leaves:
            t.requires_grad, t.grad = True, np.zeros_like(t.data)
        y = fn()
        T.backpropagate((y * Tensor(probe)).sum())
        return y.data, [t.grad.copy() for t in leaves]

    y, grads = run(lambda: A._hybrid_op(q, k, v, fq, fk, cfg))
    monkeypatch.setattr(A, "feature_map_apply", lambda p, x: fq if p is cfg.phi_q else fk)
    y_ref, grads_ref = run(lambda: A._hybrid_naive(q, k, v, cfg)[0])
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
    for name, g, g_ref in zip(("q", "k", "v", "phi_q", "phi_k", "gamma_raw"), grads, grads_ref):
        assert np.abs(g - g_ref).max() <= 1e-10 * max(np.abs(g_ref).max(), 1.0), name
    monkeypatch.undo()

    cfg32 = make_cfg(w, mode, kind=kind, heads=h, d=d, seed=60 + l, gamma=0.4, dtype=np.float32)
    q32, k32, v32 = (t.data.astype(np.float32) for t in (q, k, v))
    y32 = A.hybrid_attention_prefill(Tensor(q32), Tensor(k32), Tensor(v32), cfg32).data
    served = A.hybrid_decode_step(A.HybridDecodeState(b, h, cfg32, d), q32, k32, v32, cfg32.arrays())
    assert np.array_equal(y32, served)


def test_chunked_scratch_scales_with_window_not_seq():
    w = 8
    q4, k4, v4 = rand_qkv(1, 2, 4 * w, 8, 18)
    q16, k16, v16 = rand_qkv(1, 2, 16 * w, 8, 19)
    full_scores_bytes = (16 * w) ** 2 * 2 * 2 * 8  # what an O(seq^2) path would allocate
    for mode in A.WINDOW_MODES:
        cfg = make_cfg(w, mode, seed=17)
        _, stats4 = A.hybrid_attention_prefill(q4, k4, v4, cfg, with_stats=True)
        _, stats16 = A.hybrid_attention_prefill(q16, k16, v16, cfg, with_stats=True)
        # per-chunk scratch is fixed by w; quadrupling seq must not change it
        assert stats16["peak_chunk_bytes"] == stats4["peak_chunk_bytes"], mode
        assert stats16["state_bytes"] == stats4["state_bytes"], mode
        assert stats16["peak_chunk_bytes"] < full_scores_bytes / 16, mode


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
def test_kernel_is_one_tape_node_above_its_inputs(mode):
    # at every length the kernel's output is one node whose parents are q, k,
    # v, the two feature-map outputs and gamma_raw, so the tape holds the same
    # number of nodes however many chunks the kernel takes
    w = 4
    totals = set()
    for l in (1, w, w + 1, 4 * w + 3):
        cfg = make_cfg(w, mode, kind="t2r", seed=40)
        q, k, v = rand_qkv(1, 2, l, 8, 41)
        for t in (q, k, v):
            t.requires_grad = True
        y = A.hybrid_attention_prefill(q, k, v, cfg)
        assert y._parents[:3] == (q, k, v) and y._parents[5] is cfg.gamma_raw
        below = {id(n) for p in y._parents for n in T.topological_order(p)}
        nodes = T.topological_order(y)
        assert len(nodes) == len(below) + 1, l
        totals.add(len(nodes))
    assert len(totals) == 1


def test_chunked_requires_terraced_mode():
    cfg = make_cfg(4, "standard", seed=20)
    q, k, v = rand_qkv(1, 2, 8, 8, 21)
    with pytest.raises(ShapeMismatch):
        A.terraced_prefill_chunked(q, k, v, cfg)


# --- recurrent decode --------------------------------------------------------------

@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
def test_decode_reproduces_prefill_everywhere(mode, kind):
    w = 4
    seq = 4 * w + 3
    cfg = make_cfg(w, mode, kind=kind, seed=23)
    q, k, v = rand_qkv(2, 2, seq, 8, 24)
    ref = A.hybrid_attention_prefill(q, k, v, cfg).data

    state = A.HybridDecodeState(2, 2, cfg, 8, dtype=np.float64)
    out = np.zeros_like(ref)
    for n in range(seq):
        out[:, :, n : n + 1] = A.hybrid_decode_step(
            state, q.data[:, :, n : n + 1], k.data[:, :, n : n + 1], v.data[:, :, n : n + 1], cfg.arrays(), position=n
        )
    np.testing.assert_allclose(out, ref, atol=1e-6)


def test_decode_first_token_is_value():
    cfg = make_cfg(4, "standard", seed=25)
    state = A.HybridDecodeState(1, 2, cfg, 8, dtype=np.float64)
    g = rng(26)
    v1 = g.normal(size=(1, 2, 1, 8))
    y1 = A.hybrid_decode_step(state, g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), v1, cfg.arrays())
    np.testing.assert_allclose(y1, v1, atol=1e-5)


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
def test_decode_state_bytes_constant_past_window(mode):
    w = 4
    cfg = make_cfg(w, mode, seed=27)
    state = A.HybridDecodeState(1, 2, cfg, 8, dtype=np.float64)
    g = rng(28)
    sizes = []
    for n in range(3 * w):
        A.hybrid_decode_step(state, g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), cfg.arrays())
        sizes.append(state.nbytes)
    assert len(set(sizes)) == 1  # fixed allocation from the start


def test_decode_out_of_order_rejected():
    cfg = make_cfg(4, "standard", seed=29)
    state = A.HybridDecodeState(1, 2, cfg, 8, dtype=np.float64)
    g = rng(30)
    A.hybrid_decode_step(state, g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), cfg.arrays(), position=0)
    with pytest.raises(OutOfOrderToken):
        A.hybrid_decode_step(state, g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), g.normal(size=(1, 2, 1, 8)), cfg.arrays(), position=3)


def test_decode_state_matches_spec_partition():
    # after n tokens the kv-state must cover exactly the evicted tokens
    w = 3
    cfg = make_cfg(w, "standard", heads=1, seed=31)
    g = rng(32)
    ks = g.normal(size=(8, 1, 1, 8))
    vs = g.normal(size=(8, 1, 1, 8))
    state = A.HybridDecodeState(1, 1, cfg, 8, dtype=np.float64)
    for n in range(8):
        A.hybrid_decode_step(state, g.normal(size=(1, 1, 1, 8)), ks[n, :, :, None], vs[n, :, :, None], cfg.arrays())
    fk_old = oracles.phi_ref(cfg.phi_k.kind, cfg.phi_k.weight.data, None,
                             ks[: 8 - w].transpose(1, 2, 0, 3))
    s_expect = np.einsum("bhnf,bhnd->bhfd", fk_old, vs[: 8 - w].transpose(1, 2, 0, 3))
    z_expect = fk_old.sum(axis=2)
    np.testing.assert_allclose(state.s, s_expect, atol=1e-9)
    np.testing.assert_allclose(state.z, z_expect, atol=1e-9)
    np.testing.assert_allclose(state.k_cache[:, :, : state.filled], ks[8 - w :].transpose(1, 2, 0, 3), atol=0)


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("w", [1, 2, 3, 5, 8])
def test_chunk_masks_follow_the_oracle_window_rule(w, mode):
    # the kernel slices its chunk masks from one cached table and anchors
    # its blocks at the first cached key. From a state advanced to every
    # position p < 4w, a segment of every length up to 2w + 1 reaches every
    # offset of a first chunk within its block, a first block that holds
    # only cached keys, and a last chunk that ends within its block: each
    # segment's output must be the masked oracle's rows, in float64
    cfg = make_cfg(w, mode, seed=70 + w)
    q, k, v = rand_qkv(1, 2, 6 * w, 8, 71 + w)
    ref = A._hybrid_naive(q, k, v, cfg)[0].data
    arrays = cfg.arrays()
    for p in range(4 * w):
        for n in range(1, 2 * w + 2):
            state = A.HybridDecodeState(1, 2, cfg, 8, dtype=np.float64)
            if p:
                A.hybrid_decode_step(state, q.data[:, :, :p], k.data[:, :, :p], v.data[:, :, :p], arrays)
            seg = slice(p, p + n)
            y = A.hybrid_decode_step(state, q.data[:, :, seg], k.data[:, :, seg], v.data[:, :, seg], arrays, position=p)
            np.testing.assert_allclose(y, ref[:, :, seg], rtol=0, atol=1e-12, err_msg=f"p={p} n={n}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", A.WINDOW_MODES)
@pytest.mark.parametrize("w", [1, 2, 3, 5, 8])
def test_mask_caps_follow_the_window_masks(w, mode, dtype):
    # the caps are the bool masks as numbers: +inf where the window (or the
    # linear) mask holds, MASK_VALUE (0) where it does not, in the scores'
    # dtype, and every table is read-only, since all callers share it. The
    # standard table of w = l is the causal mask, the softmax teacher's
    win, lin, win_cap, lin_cap = A._mask_table(2 * w, w, mode, dtype)
    ref_win, ref_lin = A._window_masks(2 * w, w, mode)
    assert (win == ref_win).all() and (lin == ref_lin).all()
    assert win_cap.dtype == lin_cap.dtype == dtype
    assert win_cap.tobytes() == np.where(ref_win, np.inf, np.asarray(T.MASK_VALUE, dtype)).astype(dtype).tobytes()
    assert lin_cap.tobytes() == np.where(ref_lin, np.inf, 0.0).astype(dtype).tobytes()
    assert not any(t.flags.writeable for t in (win, lin, win_cap, lin_cap))
    assert (A._mask_table(w, w, "standard", dtype)[0] == ~A.causal_mask(w, w)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cap_masking_equals_where(dtype):
    # np.minimum against the cap is np.where against the mask for every
    # finite and +-inf score, -0.0 included; off the window, -inf stays
    # -inf where np.where writes MASK_VALUE, and exp weights both 0
    values = np.array([1.0, np.inf, -np.inf, 3e38, -3e38, -0.0, 0.0], dtype=dtype)
    for window in (values, values[[0, 3, 4, 5, 6]], values[[0, 4, 5, 6]]):
        row = np.concatenate([window, values])  # the window's scores, then every value off it
        mask = np.arange(row.size) < window.size
        capped = np.minimum(row, np.where(mask, np.inf, T.MASK_VALUE).astype(dtype))
        selected = np.where(mask, row, np.asarray(T.MASK_VALUE, dtype))
        kept = mask | (row != -np.inf)
        assert capped.dtype == selected.dtype == dtype
        assert capped[kept].tobytes() == selected[kept].tobytes()
        assert (capped[~kept] == -np.inf).all()
        if np.isfinite(window).all():  # a row the softmax weights: the same weights, bit for bit
            assert np.fmax.reduce(capped) == np.maximum.reduce(selected)
            with np.errstate(over="ignore"):
                assert np.exp(capped - np.fmax.reduce(capped)).tobytes() == np.exp(selected - np.maximum.reduce(selected)).tobytes()


# --- property: any segment split, any shape -------------------------------------


@st.composite
def hybrid_cases(draw):
    w = draw(st.integers(1, 6))
    l = draw(st.integers(1, 4 * w + 3))
    return {
        "b": draw(st.integers(1, 2)),
        "h": draw(st.integers(1, 3)),
        "d": 2 * draw(st.integers(1, 4)),
        "w": w,
        "l": l,
        "mode": draw(st.sampled_from(A.WINDOW_MODES)),
        "kind": draw(st.sampled_from(["t2r", "hedgehog"])),
        "gamma": draw(st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 1e-3)),
        "cuts": sorted(draw(st.sets(st.integers(1, l), max_size=4)) | {l}),
        "seed": draw(st.integers(0, 2**16)),
    }


def kernel_and_grads(fn, q, k, v, cfg, probe):
    """fn(q, k, v, cfg)'s output and the gradients of <output, probe> for q,
    k, v and every parameter of cfg."""
    leaves = [q, k, v] + cfg.parameters()
    for t in leaves:
        t.requires_grad = True
        t.grad = np.zeros_like(t.data)
    y = fn(q, k, v, cfg)
    T.backpropagate((y * Tensor(probe)).sum())
    return y.data, [t.grad.copy() for t in leaves]


@settings(max_examples=60, deadline=None)
@given(hybrid_cases())
def test_kernel_matches_oracle_outputs_and_gradients(case):
    # the kernel against the masked O(l^2) oracle in float64, at
    # any shape, window and padding: outputs, and gradients for q, k, v, the
    # feature maps and gamma_raw
    b, h, d, l = case["b"], case["h"], case["d"], case["l"]
    cfg = make_cfg(case["w"], case["mode"], kind=case["kind"], heads=h, d=d, seed=case["seed"], gamma=case["gamma"])
    q, k, v = rand_qkv(b, h, l, d, case["seed"] + 1)
    probe = rng(case["seed"] + 2).normal(size=(b, h, l, d))
    y, grads = kernel_and_grads(A.hybrid_attention_prefill, q, k, v, cfg, probe)
    y_ref, grads_ref = kernel_and_grads(lambda *a: A._hybrid_naive(*a)[0], q, k, v, cfg, probe)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
    for g, g_ref in zip(grads, grads_ref):
        # relative to the largest entry; gamma's gradient is 0 in exact
        # arithmetic when the window covers the sequence, so floored at 1
        assert np.abs(g - g_ref).max() <= 1e-10 * max(np.abs(g_ref).max(), 1.0)


@pytest.mark.parametrize("mode", A.WINDOW_MODES)
def test_kernel_parameter_gradients_do_not_need_qkv_gradients(mode):
    # stage 1 freezes q, k and v, so the kernel's backward skips their
    # gradients; the feature maps' and gamma_raw's must match the oracle's
    cfg = make_cfg(3, mode, kind="t2r", seed=42, gamma=0.5)
    q, k, v = rand_qkv(2, 2, 11, 8, 43)
    probe = rng(44).normal(size=(2, 2, 11, 8))
    grads = []
    for fn in (A.hybrid_attention_prefill, lambda *a: A._hybrid_naive(*a)[0]):
        for t in cfg.parameters():
            t.grad = np.zeros_like(t.data)
        T.backpropagate((fn(q, k, v, cfg) * Tensor(probe)).sum())
        grads.append([t.grad.copy() for t in cfg.parameters()])
    for g, g_ref in zip(*grads):
        assert np.abs(g - g_ref).max() <= 1e-10 * max(np.abs(g_ref).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(hybrid_cases())
def test_segment_steps_match_oracle_and_session_matches_fresh_prefill(case):
    b, h, d, w, l = case["b"], case["h"], case["d"], case["w"], case["l"]
    mode, kind, cuts = case["mode"], case["kind"], case["cuts"]

    # any split of the sequence into segments reproduces the masked oracle
    cfg = make_cfg(w, mode, kind=kind, heads=h, d=d, seed=case["seed"], gamma=case["gamma"])
    q, k, v = rand_qkv(b, h, l, d, case["seed"] + 1)
    ref = A._hybrid_naive(q, k, v, cfg)[0].data
    state = A.HybridDecodeState(b, h, cfg, d, dtype=np.float64)
    outs = [
        A.hybrid_decode_step(state, q.data[:, :, lo:hi], k.data[:, :, lo:hi], v.data[:, :, lo:hi], cfg.arrays(), position=lo)
        for lo, hi in zip([0] + cuts[:-1], cuts)
    ]
    np.testing.assert_allclose(np.concatenate(outs, axis=2), ref, rtol=0, atol=1e-12)

    # a session prefilled with the first segment and stepped token by token
    # agrees with a fresh prefill of every longer prompt
    model = M.convert_model(
        M.build_model(M.ModelConfig(n_layers=2, n_heads=h, head_dim=d, seed=case["seed"])),
        M.HybridSpec(window_size=w, window_mode=mode, feature_kind=kind, gamma_init=case["gamma"]),
    )
    ids = rng(case["seed"] + 2).integers(0, 258, size=(b, l))
    session = M.HybridSession(model, b)
    session.prefill(ids[:, : cuts[0]])
    for n in range(cuts[0], l):
        stepped = session.step(ids[:, n])
        fresh = M.HybridSession(model, b).prefill(ids[:, : n + 1])
        assert np.abs(stepped - fresh).max() <= 1e-5, f"position {n}"


# The three standard-mode examples on which the test above misses criterion
# 4's float32 bound: b, h, d, w, l, feature kind, gamma and seed, the session
# prefilled with the first token and stepped from there.
FLOAT32_MISSES = [
    (1, 2, 2, 2, 2, "t2r", 1.28125, 703),
    (1, 3, 2, 5, 18, "t2r", -3.8269227597244964, 2309),
    (1, 1, 2, 6, 25, "hedgehog", 1.5, 0),
]


@pytest.mark.parametrize("b, h, d, w, l, kind, gamma, seed", FLOAT32_MISSES)
def test_float64_session_steps_match_fresh_prefill(b, h, d, w, l, kind, gamma, seed):
    # a session holds its states and caches in the model's dtype, so on a
    # float64 model the step-vs-prefill gap is the session logic's alone:
    # 1e-12 separates it from float32 rounding, which exceeds 1e-5 here
    model = M.convert_model(
        M.build_model(M.ModelConfig(n_layers=2, n_heads=h, head_dim=d, seed=seed)),
        M.HybridSpec(window_size=w, window_mode="standard", feature_kind=kind, gamma_init=gamma),
    )
    for t in model.parameters().values():
        t.data = t.data.astype(np.float64)
    ids = rng(seed + 2).integers(0, 258, size=(b, l))
    session = M.HybridSession(model, b)
    session.prefill(ids[:, :1])
    assert all(s.s.dtype == s.k_cache.dtype == np.float64 for s in session.states)
    for n in range(1, l):
        stepped = session.step(ids[:, n])
        fresh = M.HybridSession(model, b).prefill(ids[:, : n + 1])
        assert stepped.dtype == np.float64
        assert np.abs(stepped - fresh).max() <= 1e-12, f"position {n}"
