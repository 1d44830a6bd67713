"""RoPE, feature maps, softmax attention, and the three linear-attention forms,
checked against the analytic cases, the float64 loop oracles and, for the
three forms, each other at drawn shapes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linswap import attention as A
from linswap import tensor as T
from linswap.errors import LinswapError, NotStochastic, OddHeadDim, ShapeMismatch, StateDimMismatch
from linswap.tensor import Tensor

import oracles


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_f64(shape, seed):
    return rng(seed).normal(size=shape)


# --- rotary embeddings ------------------------------------------------------

def test_rope_position_zero_is_identity():
    x = Tensor(rand_f64((1, 2, 1, 8), 0))
    out = T.rope(x, *A.rope_angles(1, 8, start_pos=0))
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_rope_preserves_pair_norms():
    x = rand_f64((2, 2, 5, 8), 1)
    out = T.rope(Tensor(x), *A.rope_angles(5, 8)).data
    for i in range(4):
        before = np.hypot(x[..., 2 * i], x[..., 2 * i + 1])
        after = np.hypot(out[..., 2 * i], out[..., 2 * i + 1])
        np.testing.assert_allclose(after, before, atol=1e-6)


def test_rope_dot_depends_only_on_distance():
    g = rng(2)
    q = g.normal(size=8)
    k = g.normal(size=8)

    def dot_at(m, n):
        qm = T.rope(Tensor(q.reshape(1, 1, 1, 8)), *A.rope_angles(1, 8, start_pos=m)).data[0, 0, 0]
        kn = T.rope(Tensor(k.reshape(1, 1, 1, 8)), *A.rope_angles(1, 8, start_pos=n)).data[0, 0, 0]
        return qm @ kn

    assert abs(dot_at(5, 2) - dot_at(7, 4)) < 1e-5


def test_rope_matches_reference():
    x = rand_f64((1, 2, 6, 8), 3)
    ref = oracles.rope_ref(x, start_pos=3, base=10000.0)
    out = T.rope(Tensor(x), *A.rope_angles(6, 8, start_pos=3)).data
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_serving_rope_matches_reference():
    # the numpy kernel the serving engine runs, and T.rope's forward
    x = rand_f64((2, 2, 6, 8), 4)
    cos, sin = A.rope_angles(6, 8, start_pos=3)
    ref = oracles.rope_ref(x, start_pos=3, base=10000.0)
    np.testing.assert_allclose(T.rope_np(x, cos, sin), ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_kernel_is_the_real_formula_bitwise(dtype):
    # T.rope_np rotates the pairs as complex numbers; against the real
    # formula (oracles.rope_real) it gives the same bytes on contiguous and
    # strided [2, b, h, n, d] views (the engine's q, k), at magnitudes from
    # 1e-20 to 1e20, for the forward's sin and the backward's -sin. Exact
    # zeros (sin at position 0, a zero entry of x) give equal values, the
    # sign of a zero output aside; a +-inf input gives NaN, not +-inf
    g = np.random.default_rng(21)
    for trial in range(200):
        b, h, n, half = (int(v) for v in g.integers(1, (4, 4, 70, 17)))
        scale = 10.0 ** g.uniform(-20, 20)
        fused = (g.normal(size=(b, n, 3, h, 2 * half)) * scale).astype(dtype)
        x = fused.transpose(2, 0, 3, 1, 4)[:2] if trial % 2 else fused[:, :, 0].transpose(0, 2, 1, 3).copy()
        cos, sin = (t.astype(dtype) for t in A.rope_angles(n, 2 * half, int(g.integers(0, 5000))))
        for s in (sin, -sin):
            assert T.rope_np(x, cos, s).tobytes() == oracles.rope_real(x, cos, s).tobytes(), trial
    x = g.normal(size=(1, 2, 5, 8)).astype(dtype)
    x[0, 0, :, 2:5] = 0.0
    x[0, 1, :, 5] = -0.0
    cos, sin = (t.astype(dtype) for t in A.rope_angles(5, 8, 0))
    for s in (sin, -sin):
        assert np.array_equal(T.rope_np(x, cos, s), oracles.rope_real(x, cos, s))
    x[0, 0, 1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(T.rope_np(x, cos, sin)[0, 0, 1, :2]).any()


def test_rope_odd_dim_rejected():
    with pytest.raises(OddHeadDim):
        T.rope(Tensor(np.zeros((1, 1, 2, 7))), *A.rope_angles(2, 7))


def test_rope_negative_start_rejected():
    with pytest.raises(LinswapError):
        A.rope_angles(4, 8, start_pos=-1)


# --- feature maps ------------------------------------------------------------

def test_hedgehog_zero_input_uniform():
    fmap = A.init_feature_map("hedgehog", 1, 8, 4, rng(0))
    out = A.feature_map_apply(fmap, Tensor(np.zeros((1, 1, 1, 8), dtype=np.float32)))
    np.testing.assert_allclose(out.data, np.full((1, 1, 1, 8), 0.25), atol=1e-7)


def test_hedgehog_analytic_projection():
    # one head, projection picked so x @ W = [ln 2, 0]
    w = np.zeros((1, 1, 2))
    w[0, 0, 0] = np.log(2.0)
    fmap = A.FeatureMapParams("hedgehog", Tensor(w, dtype=np.float64))
    out = A.feature_map_apply(fmap, Tensor(np.ones((1, 1, 1, 1)), dtype=np.float64))
    np.testing.assert_allclose(out.data[0, 0, 0], [2 / 3, 1 / 3, 1 / 3, 2 / 3], atol=1e-9)


def test_t2r_relu_analytic():
    w = np.zeros((1, 1, 3))
    bias = np.array([[-1.0, 0.0, 2.0]])
    fmap = A.FeatureMapParams("t2r", Tensor(w, dtype=np.float64), Tensor(bias, dtype=np.float64))
    out = A.feature_map_apply(fmap, Tensor(np.ones((1, 1, 1, 1)), dtype=np.float64))
    np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.0, 2.0])


@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
def test_feature_map_nonnegative_and_matches_reference(kind):
    fmap = A.init_feature_map(kind, 3, 8, 4, rng(7), dtype=np.float64)
    x = rand_f64((2, 3, 5, 8), 8)
    out = A.feature_map_apply(fmap, Tensor(x, dtype=np.float64)).data
    assert (out >= 0).all()
    ref = oracles.phi_ref(kind, fmap.weight.data, None if fmap.bias is None else fmap.bias.data, x)
    np.testing.assert_allclose(out, ref, atol=1e-10)
    if kind == "hedgehog":
        np.testing.assert_allclose(out[..., :4].sum(-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out[..., 4:].sum(-1), 1.0, atol=1e-6)


def test_feature_map_shape_errors():
    fmap = A.init_feature_map("t2r", 2, 8, None, rng(0))
    with pytest.raises(ShapeMismatch):
        A.feature_map_apply(fmap, Tensor(np.zeros((1, 2, 3, 5))))


@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [1, 64, 1000])
def test_serving_phi_matches_feature_map_apply(kind, b, n):
    # the serving engine's phi against the Tensor op's forward, bit for bit,
    # on k as the engine slices it from its fused qkv (not contiguous)
    h, d = 4, 32
    g = rng(n + b)
    fmap = A.init_feature_map(kind, h, d, None, g)
    if kind == "t2r":
        fmap.bias.data = g.normal(size=fmap.bias.shape).astype(np.float32)
    k = g.normal(size=(b, n, 3, h, d)).astype(np.float32).transpose(2, 0, 3, 1, 4)[1]
    assert n == 1 or not k.flags.c_contiguous
    out = A._phi_np(fmap.arrays(), k)
    ref = A.feature_map_apply(fmap, Tensor(k)).data
    assert out.shape == ref.shape and out.dtype == ref.dtype
    np.testing.assert_array_equal(out, ref)


# --- softmax attention --------------------------------------------------------

def test_softmax_attention_single_token():
    q, k = Tensor(rand_f64((1, 2, 1, 4), 1)), Tensor(rand_f64((1, 2, 1, 4), 2))
    v = Tensor(rand_f64((1, 2, 1, 4), 3))
    y, _ = A.softmax_attention(q, k, v)
    np.testing.assert_allclose(y.data, v.data, atol=1e-7)


def test_softmax_attention_identical_keys_average():
    g = rng(4)
    k1 = g.normal(size=4)
    k = Tensor(np.tile(k1, (1, 1, 5, 1)))
    q = Tensor(g.normal(size=(1, 1, 5, 4)))
    v = Tensor(g.normal(size=(1, 1, 5, 4)))
    y, _ = A.softmax_attention(q, k, v)
    for n in range(5):
        np.testing.assert_allclose(y.data[0, 0, n], v.data[0, 0, : n + 1].mean(0), atol=1e-5)


def test_softmax_attention_matches_oracle():
    q = rand_f64((1, 2, 3, 2), 5)
    k = rand_f64((1, 2, 3, 2), 6)
    v = rand_f64((1, 2, 3, 2), 7)
    y_ref, a_ref = oracles.softmax_attention_ref(q, k, v)
    y, a = A.softmax_attention(Tensor(q), Tensor(k), Tensor(v))
    np.testing.assert_allclose(y.data, y_ref, atol=1e-6)
    np.testing.assert_allclose(a.data, a_ref, atol=1e-6)
    np.testing.assert_allclose(a.data.sum(-1), 1.0, atol=1e-6)


@pytest.mark.parametrize("d", [8, 16, 32])
def test_softmax_attention_node_matches_its_composite_bit_for_bit(d):
    # the fused node against the chain of Tensor ops it replaced, in float32:
    # the same y and weights, and the same gradients of q, k and v, whether
    # or not 1/sqrt(d) is a power of two
    q, k, v = (rand_f64((2, 3, 11, d), seed).astype(np.float32) for seed in (40, 41, 42))
    probe = Tensor(rand_f64((2, 3, 11, d), 43).astype(np.float32))
    runs = []
    for attend in (A.softmax_attention, oracles.softmax_attention_composite):
        leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        y, a = attend(*leaves)
        T.backpropagate((y * probe).sum())
        runs.append([y.data, a.data] + [t.grad for t in leaves])
    for got, want in zip(*runs):
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()


# --- linear attention -----------------------------------------------------------

def _fmaps(kind, heads, d, seed, dtype=np.float64):
    g = rng(seed)
    return (
        A.init_feature_map(kind, heads, d, None, g, dtype),
        A.init_feature_map(kind, heads, d, None, g, dtype),
    )


def test_linear_attention_single_token_and_uniform():
    pq, pk = _fmaps("hedgehog", 1, 4, 0)
    v = Tensor(rand_f64((1, 1, 1, 4), 1), dtype=np.float64)
    q = Tensor(rand_f64((1, 1, 1, 4), 2), dtype=np.float64)
    k = Tensor(rand_f64((1, 1, 1, 4), 3), dtype=np.float64)
    y = A.linear_attention_parallel(q, k, v, pq, pk)
    np.testing.assert_allclose(y.data, v.data, atol=1e-5)

    # identical keys -> identical phi(k) -> mean of values
    k_rep = Tensor(np.tile(rand_f64((1, 1, 1, 4), 4), (1, 1, 6, 1)), dtype=np.float64)
    q6 = Tensor(rand_f64((1, 1, 6, 4), 5), dtype=np.float64)
    v6 = Tensor(rand_f64((1, 1, 6, 4), 6), dtype=np.float64)
    y6 = A.linear_attention_parallel(q6, k_rep, v6, pq, pk)
    for n in range(6):
        np.testing.assert_allclose(y6.data[0, 0, n], v6.data[0, 0, : n + 1].mean(0), atol=1e-4)


@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
def test_linear_attention_matches_loop_oracle(kind):
    pq, pk = _fmaps(kind, 2, 6, 11)
    q = Tensor(rand_f64((2, 2, 7, 6), 12), dtype=np.float64)
    k = Tensor(rand_f64((2, 2, 7, 6), 13), dtype=np.float64)
    v = Tensor(rand_f64((2, 2, 7, 6), 14), dtype=np.float64)
    fq = oracles.phi_ref(kind, pq.weight.data, None if pq.bias is None else pq.bias.data, q.data)
    fk = oracles.phi_ref(kind, pk.weight.data, None if pk.bias is None else pk.bias.data, k.data)
    ref = oracles.linear_attention_ref(fq, fk, v.data)
    y = A.linear_attention_parallel(q, k, v, pq, pk)
    np.testing.assert_allclose(y.data, ref, atol=1e-9)


@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
def test_linear_attention_three_forms_agree(kind):
    pq, pk = _fmaps(kind, 2, 8, 21)
    q = Tensor(rand_f64((1, 2, 16, 8), 22), dtype=np.float64)
    k = Tensor(rand_f64((1, 2, 16, 8), 23), dtype=np.float64)
    v = Tensor(rand_f64((1, 2, 16, 8), 24), dtype=np.float64)
    y_par = A.linear_attention_parallel(q, k, v, pq, pk)
    y_state = A.linear_attention_state(q, k, v, pq, pk)
    np.testing.assert_allclose(y_state.data, y_par.data, atol=1e-9)

    state = A.LinearAttentionState(1, 2, pq.output_dim, 8, dtype=np.float64)
    size0 = state.s.nbytes + state.z.nbytes
    stream = np.zeros_like(v.data)
    for n in range(16):
        stream[:, :, n] = A.linear_attention_recurrent_step(
            state, q.data[:, :, n], k.data[:, :, n], v.data[:, :, n], pq, pk
        )
    assert state.s.nbytes + state.z.nbytes == size0  # constant-memory contract
    np.testing.assert_allclose(stream, y_par.data, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    b=st.integers(1, 2),
    h=st.integers(1, 4),
    l=st.integers(1, 96),
    half_d=st.integers(1, 16),
    kind=st.sampled_from(["t2r", "hedgehog"]),
    seed=st.integers(0, 2**16),
)
def test_linear_attention_forms_agree_pairwise(b, h, l, half_d, kind, seed):
    # criterion 1 as a property: at any shape and seed, in float32, each of
    # the weight form, the kv-state form and the recurrent step agrees with
    # the other two within 1e-5 max-abs
    g, d = rng(seed), 2 * half_d
    pq = A.init_feature_map(kind, h, d, None, g)
    pk = A.init_feature_map(kind, h, d, None, g)
    q, k, v = (Tensor(g.normal(size=(b, h, l, d)).astype(np.float32)) for _ in range(3))
    state = A.LinearAttentionState(b, h, pq.output_dim, d)
    forms = {
        "parallel": A.linear_attention_parallel(q, k, v, pq, pk).data,
        "state": A.linear_attention_state(q, k, v, pq, pk).data,
        "recurrent": np.stack(
            [A.linear_attention_recurrent_step(state, q.data[:, :, n], k.data[:, :, n], v.data[:, :, n], pq, pk) for n in range(l)],
            axis=2,
        ),
    }
    for (a, ya), (c, yc) in itertools.combinations(forms.items(), 2):
        assert np.abs(ya - yc).max() <= 1e-5, (a, c)


def test_recurrent_first_step_returns_value():
    pq, pk = _fmaps("hedgehog", 1, 4, 31)
    state = A.LinearAttentionState(1, 1, pq.output_dim, 4, dtype=np.float64)
    v1 = rand_f64((1, 1, 4), 32)
    y1 = A.linear_attention_recurrent_step(state, rand_f64((1, 1, 4), 33), rand_f64((1, 1, 4), 34), v1, pq, pk)
    np.testing.assert_allclose(y1, v1, atol=1e-5)


def test_recurrent_state_dim_mismatch():
    pq, pk = _fmaps("hedgehog", 1, 4, 41)
    state = A.LinearAttentionState(1, 1, 3, 4, dtype=np.float64)  # wrong feature dim
    with pytest.raises(StateDimMismatch):
        A.linear_attention_recurrent_step(state, np.zeros((1, 1, 4)), np.zeros((1, 1, 4)), np.zeros((1, 1, 4)), pq, pk)


def test_recurrent_state_size_constant_over_1000_steps():
    pq, pk = _fmaps("t2r", 1, 4, 51)
    state = A.LinearAttentionState(1, 1, pq.output_dim, 4, dtype=np.float64)
    size0 = state.s.nbytes + state.z.nbytes
    g = rng(52)
    for _ in range(1000):
        A.linear_attention_recurrent_step(
            state, g.normal(size=(1, 1, 4)), g.normal(size=(1, 1, 4)), g.normal(size=(1, 1, 4)), pq, pk
        )
    assert state.s.nbytes + state.z.nbytes == size0


# --- diagnostics -----------------------------------------------------------------

def test_entropy_analytic_values():
    np.testing.assert_allclose(A.attention_entropy(np.full(4, 0.25)), np.log(4), atol=1e-9)
    np.testing.assert_allclose(A.attention_entropy(np.array([0.0, 1.0, 0.0])), 0.0, atol=1e-12)
    np.testing.assert_allclose(A.attention_entropy(np.array([0.5, 0.25, 0.25])), 1.5 * np.log(2), atol=1e-9)


def test_entropy_rejects_nonstochastic():
    # a NaN or Inf row fails too, though every comparison with NaN is false;
    # the ESL diagnostic takes the same check
    for weights in (np.array([0.5, 0.2]), np.full((1, 1, 2, 2), np.nan), np.array([[1.0, 0.0], [np.inf, 0.0]])):
        for diagnostic in (A.attention_entropy, A.esl_per_query):
            with pytest.raises(NotStochastic):
                diagnostic(weights)


def test_esl_analytic_values():
    l = 6
    # query 1 (self-attention only) -> 0
    w = np.zeros((l, l))
    for i in range(l):
        w[i, : i + 1] = 1.0 / (i + 1)
    assert oracles.effective_sequence_length(w, 1) == 0.0
    for i in range(1, l + 1):
        np.testing.assert_allclose(oracles.effective_sequence_length(w, i), (i - 1) / 2, atol=1e-9)


def test_esl_matches_direct_sum():
    g = rng(61)
    row = g.uniform(size=5)
    row /= row.sum()
    w = np.zeros((5, 5))
    for i in range(5):
        w[i, : i + 1] = 1.0 / (i + 1)
    w[4, :5] = row
    expect = sum((4 - j) * row[j] for j in range(5))
    np.testing.assert_allclose(oracles.effective_sequence_length(w, 5), expect, atol=1e-9)


@pytest.mark.parametrize("i", [0, 5])
def test_esl_query_index_outside_sequence_rejected(i):
    w = np.tril(np.ones((4, 4))) / np.arange(1, 5)[:, None]
    with pytest.raises(LinswapError):
        oracles.effective_sequence_length(w, i)
