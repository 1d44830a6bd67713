"""Tensor/autograd contract tests: analytic trivials, finite-difference oracles,
tape ordering, and determinism."""

import zlib

import numpy as np
import pytest

from linswap import attention as A
from linswap import tensor as T

import oracles
from linswap.errors import (
    BadConfig,
    DetachedLoss,
    EmptyReduction,
    NonFiniteResult,
    NotScalar,
    ShapeMismatch,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_softmax_symmetry_and_rows():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])
    x = T.Tensor(rng(1).normal(size=(4, 7)))
    s = T.softmax(x, axis=-1)
    np.testing.assert_allclose(s.data.sum(-1), np.ones(4), atol=1e-6)
    assert (s.data > 0).all()


def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    m = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(T.matmul(eye, m).data, m.data)


def test_cumsum_exp_analytic():
    np.testing.assert_allclose(T.cumsum(T.Tensor([1.0, 2.0, 3.0]), 0).data, [1, 3, 6])
    np.testing.assert_allclose(T.exp(T.Tensor([0.0, np.log(2.0)])).data, [1.0, 2.0], rtol=1e-6)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_cumsum_sums_in_numpy_order(axis):
    # forward and backward equal numpy's cumsum bit for bit along every axis
    x = T.Tensor(rng(5).normal(size=(4, 3, 5)).astype(np.float32), requires_grad=True)
    g = rng(6).normal(size=(4, 3, 5)).astype(np.float32)
    out = T.cumsum(x, axis)
    T.backpropagate((out * T.Tensor(g)).sum())
    np.testing.assert_array_equal(out.data, np.cumsum(x.data, axis=axis))
    np.testing.assert_array_equal(x.grad, np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis))


def test_backward_linear_and_square():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backpropagate(x.sum())
    np.testing.assert_allclose(x.grad, [1, 1, 1])

    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backpropagate((x * x).sum())
    np.testing.assert_allclose(x.grad, [2, 4])


def test_grad_of_unused_leaf_is_zero():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.Tensor([3.0, 4.0], requires_grad=True)
    T.backpropagate((x * x).sum())
    np.testing.assert_allclose(y.grad, [0, 0])


def test_backward_requires_scalar_and_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NotScalar):
        T.backpropagate(x * 2.0)
    with pytest.raises(DetachedLoss):
        T.backpropagate(T.Tensor(3.0))


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))
    # two-sided broadcasting is rejected
    with pytest.raises(ShapeMismatch):
        T.mul(T.Tensor(np.zeros((4, 1))), T.Tensor(np.zeros((1, 5))))
    with pytest.raises(ShapeMismatch):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_one_sided_broadcast_ok():
    a = T.Tensor(np.ones((2, 3, 4)))
    b = T.Tensor(np.ones((2, 3, 1)), requires_grad=True)
    out = a * b
    assert out.shape == (2, 3, 4)
    T.backpropagate(out.sum())
    np.testing.assert_allclose(b.grad, np.full((2, 3, 1), 4.0))

    c = T.Tensor(np.ones(4), requires_grad=True)
    T.backpropagate((a + c).sum())
    np.testing.assert_allclose(c.grad, np.full(4, 6.0))


def test_empty_reduction_is_error():
    with pytest.raises(EmptyReduction):
        T.reduce_sum(T.Tensor(np.zeros((2, 0))), axis=1)
    with pytest.raises(EmptyReduction):
        T.reduce_mean(T.Tensor(np.zeros((0,))), axis=0)


def test_nonfinite_is_error():
    # ops record NaN/Inf without raising; backpropagate of a loss built on
    # them raises before any gradient, naming the op (and scope) that first
    # produced one, parents first
    x = T.Tensor(np.array([1000.0], dtype=np.float32), requires_grad=True)
    with np.errstate(over="ignore", divide="ignore"):
        big = T.exp(x)
        with T.scope("layers.3"):
            ratio = T.div(x, T.Tensor([0.0]))
    assert np.isinf(big.data).all() and np.isinf(ratio.data).all()
    with pytest.raises(NonFiniteResult, match=r"^exp produced NaN/Inf"):
        T.backpropagate((big * 2.0).sum())
    with pytest.raises(NonFiniteResult, match=r"^layers\.3 div produced NaN/Inf"):
        T.backpropagate(ratio.sum())
    assert not x.grad.any()


def test_concat_backward_splits_exactly():
    a = T.Tensor(rng(2).normal(size=(3, 2)), requires_grad=True, dtype=np.float64)
    b = T.Tensor(rng(3).normal(size=(3, 5)), requires_grad=True, dtype=np.float64)
    out = T.concat([a, b], axis=-1)
    w = rng(4).normal(size=(3, 7))
    T.backpropagate((out * T.Tensor(w, dtype=np.float64)).sum())
    np.testing.assert_allclose(a.grad, w[:, :2])
    np.testing.assert_allclose(b.grad, w[:, 2:])
    # upstream grad norm is exactly partitioned
    total = np.sum(w**2)
    np.testing.assert_allclose(np.sum(a.grad**2) + np.sum(b.grad**2), total)


def test_first_gradient_is_not_shared():
    # add hands one upstream gradient to both parents: each must store its own
    # copy, or a later accumulation into one leaks into the other
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    a = x * 2.0
    s = a + x * 3.0
    T.backpropagate((s + a).sum())
    np.testing.assert_array_equal(x.grad, [7.0, 7.0])


def test_tape_is_topologically_ordered():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    z = y + x
    loss = (z * y).sum()
    order = T.topological_order(loss)
    pos = {id(t): i for i, t in enumerate(order)}
    # parents strictly precede children, each node appears once
    assert len(pos) == len(order)
    for node in order:
        for p in node._parents:
            assert pos[id(p)] < pos[id(node)]


def test_masked_fill_and_slice_backward():
    x = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    mask = np.array([[True, False, False], [False, False, True]])
    out = T.masked_fill(x, mask, -1.0)
    T.backpropagate((out * out).sum())
    expect = 2 * x.data * (~mask)
    np.testing.assert_allclose(x.grad, expect)

    x = T.Tensor(np.arange(8, dtype=np.float64), requires_grad=True)
    T.backpropagate(x[2:5].sum())
    np.testing.assert_allclose(x.grad, [0, 0, 1, 1, 1, 0, 0, 0])


def test_embedding_and_gather_backward():
    w = T.Tensor(rng(5).normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
    ids = np.array([[1, 1, 4], [0, 5, 5]])
    out = T.embedding(w, ids)
    T.backpropagate(out.sum())
    counts = np.zeros(6)
    for i in ids.reshape(-1):
        counts[i] += 1
    np.testing.assert_allclose(w.grad, counts[:, None] * np.ones((6, 3)))

    # cross_entropy's target pick: the gradient is (softmax - onehot) / rows
    logits = T.Tensor(rng(6).normal(size=(2, 4)), requires_grad=True, dtype=np.float64)
    idx = np.array([3, 0])
    T.backpropagate(T.cross_entropy(logits, idx))
    expect = T.softmax_np(logits.data)
    expect[0, 3] -= 1
    expect[1, 0] -= 1
    np.testing.assert_allclose(logits.grad, expect / 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "name,fn",
    [
        # add hands one upstream gradient to both parents, which both get more
        ("add_square", lambda t: (lambda a, b: ((a + b) * (a + b) + b * a).sum())(t * 2.0, t * 3.0)),
        ("add_twice", lambda t: (lambda a, b: ((a + b) + (b + a) * b).sum())(t * 2.0, t * 3.0)),
        # concat and reshape hand views of one gradient to their parents
        ("concat", lambda t: (lambda a, b: (T.concat([a, b], 0) * T.concat([b, a], 0)).sum() + a.sum())(t * 2.0, t * 3.0)),
        ("reshape", lambda t: (lambda a: (a.reshape(6) * a.reshape(6)).sum() + (a * a).sum())(t * 2.0)),
        ("transpose", lambda t: (lambda a: (a.transpose() * a.transpose()).sum() + (a + a).sum())(t * 2.0)),
    ],
)
def test_first_gradients_of_intermediates_hold_their_own_arrays(name, fn):
    # an intermediate's gradient starts unallocated and keeps the array the
    # first rule hands it; later gradients are added into that array in place,
    # so two intermediates holding one array would count each other's share
    x = rng(zlib.crc32(name.encode())).normal(size=(2, 3))
    assert T.finite_difference_check(fn, x) <= 1e-6, name


def test_slice_backward_adds_into_the_source_gradient():
    # several slices of one source, some overlapping, against the form that
    # scatters each slice's gradient into a zeros array of the source's size;
    # equal up to the sign of zeros (that form turns a -0.0 into +0.0)
    def zeros_then_add(a, key):
        def _bw(g):
            buf = np.zeros_like(a.data)
            buf[key] += g
            T._accum(a, buf)

        return T._make(a.data[key].copy(), (a,), _bw, "slice")

    keys = [(slice(0, 4), slice(None)), (slice(2, 6), slice(1, 4)), (3, slice(None, None, 2)), (slice(None), 4)]
    probes = [T.Tensor(rng(10 + i).normal(size=np.zeros((6, 5))[key].shape), dtype=np.float64) for i, key in enumerate(keys)]
    grads = []
    for take in (T.narrow, zeros_then_add):
        x = T.Tensor(rng(9).normal(size=(6, 5)), requires_grad=True, dtype=np.float64)
        src = x * 1.0  # an intermediate: its gradient starts unallocated
        loss = (take(src, keys[0]) * probes[0]).sum()
        for key, probe in zip(keys[1:], probes[1:]):
            loss = loss + (take(src, key) * probe).sum()
        T.backpropagate(loss)
        grads.append(x.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_node_runs_a_rule_only_for_a_parent_that_requires_a_gradient():
    calls = []

    def rule(name):
        def grad(g):
            calls.append(name)
            return g

        return grad

    live, frozen = T.Tensor([1.0, 2.0], requires_grad=True), T.Tensor([3.0, 4.0])
    out = T._node(live.data * frozen.data, (live, frozen), (rule("live"), rule("frozen")), "probe")
    T.backpropagate(out.sum())
    assert calls == ["live"]
    np.testing.assert_array_equal(live.grad, [1.0, 1.0])
    assert frozen.grad is None

    # no parent requires a gradient, or recording is off: no node
    untaped = [T._node(frozen.data * 2.0, (frozen,), (rule("frozen"),), "probe")]
    with T.no_grad():
        untaped.append(T._node(live.data * 2.0, (live,), (rule("live"),), "probe"))
        untaped.append(live * 2.0)
    for t in untaped:
        assert not t.requires_grad and t.is_leaf() and t._backward is None
    assert calls == ["live"]


# --- finite-difference oracle suite -------------------------------------------

def test_fd_polynomial():
    err = T.finite_difference_check(lambda t: (t * t).sum(), np.array([1.0, 2.0, 3.0]))
    assert err <= 1e-6


@pytest.mark.parametrize("h", [1.0, 1e-6])
def test_fd_rejects_a_step_outside_its_range(h):
    with pytest.raises(BadConfig):
        T.finite_difference_check(lambda t: (t * t).sum(), np.array([1.0, 2.0]), h=h)


def test_fd_softmax_sum_of_squares():
    x = rng(7).normal(size=(3, 5))
    err = T.finite_difference_check(lambda t: (T.softmax(t) * T.softmax(t)).sum(), x)
    assert err <= 1e-4


_ANG_32 = rng(20).normal(size=(3, 2))
_PROBE_34 = T.Tensor(rng(22).normal(size=(3, 4)), dtype=np.float64)
_PROBE_234 = T.Tensor(rng(23).normal(size=(2, 3, 4)), dtype=np.float64)
_PROBE_1254 = T.Tensor(rng(24).normal(size=(1, 2, 5, 4)), dtype=np.float64)

UNARY_CASES = [
    ("exp", lambda t: T.exp(t).sum(), (4,)),
    ("log", lambda t: T.log(t * t + 1.0).sum(), (4,)),
    # rows 0-2 are x, row 3 the gain
    ("rms_norm", lambda t: (T.rms_norm(t[:3], t[3], 1e-6) * _PROBE_34).sum(), (4, 4)),
    ("rope", lambda t: (T.rope(t, np.cos(_ANG_32), np.sin(_ANG_32)) * _PROBE_234).sum(), (2, 3, 4)),
    ("cross_entropy", lambda t: T.cross_entropy(t, np.array([[2, 0, 1], [3, 3, 0]])), (2, 3, 4)),
    ("relu", lambda t: (T.relu(t) * T.relu(t)).sum(), (6,)),
    ("sigmoid", lambda t: (T.sigmoid(t) * T.sigmoid(t)).sum(), (5,)),
    ("softmax", lambda t: (T.softmax(t) * T.Tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64)).sum(), (2, 3)),
    ("mean", lambda t: (t.mean(axis=0) * t.mean(axis=0)).sum(), (3, 4)),
    ("max", lambda t: (t.max(axis=-1) * t.max(axis=-1)).sum(), (3, 4)),
    ("cumsum", lambda t: (T.cumsum(t, 1) * T.cumsum(t, 1)).sum(), (2, 5)),
    ("transpose", lambda t: (t.transpose() * t.transpose()).sum(), (2, 3)),
    ("reshape", lambda t: (t.reshape(6) * t.reshape(6)).sum(), (2, 3)),
    ("slice", lambda t: (t[1:, ::2] * t[1:, ::2]).sum(), (3, 4)),
    ("div", lambda t: (t / (t * t + 2.0)).sum(), (4,)),
    ("concat", lambda t: (T.concat([t, t * 2.0], -1) * T.concat([t * 3.0, t], -1)).sum(), (2, 3)),
    ("masked_fill", lambda t: (T.masked_fill(t, np.eye(3, dtype=bool), 0.5) * T.masked_fill(t, np.eye(3, dtype=bool), 0.5)).sum(), (3, 3)),
    # q, k and v stacked on the first axis
    ("softmax_attention", lambda t: (A.softmax_attention(t[0], t[1], t[2])[0] * _PROBE_1254).sum(), (3, 1, 2, 5, 4)),
    # q, k, v, phi(q), phi(k) and gamma_raw, packed
    ("hybrid_standard", lambda t: oracles.hybrid_op_packed(t, "standard"), (oracles.HYBRID_PACKED_SIZE,)),
    ("hybrid_terraced", lambda t: oracles.hybrid_op_packed(t, "terraced"), (oracles.HYBRID_PACKED_SIZE,)),
    ("hybrid_standard_aligned", lambda t: oracles.hybrid_op_packed(t, "standard", oracles.HYBRID_ALIGNED), (oracles.HYBRID_ALIGNED_SIZE,)),
    ("hybrid_terraced_aligned", lambda t: oracles.hybrid_op_packed(t, "terraced", oracles.HYBRID_ALIGNED), (oracles.HYBRID_ALIGNED_SIZE,)),
]


@pytest.mark.parametrize("name,fn,shape", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_fd_each_op(name, fn, shape):
    x = rng(zlib.crc32(name.encode())).normal(size=shape)
    if name == "relu":  # keep away from the kink
        x = x + np.sign(x) * 0.2
    if name == "max":  # keep argmax unique and FD-stable
        x = np.sort(x, axis=-1) + np.arange(shape[-1]) * 0.5
    err = T.finite_difference_check(fn, x)
    assert err <= 1e-4, f"{name}: {err}"


def test_fd_matmul_both_sides():
    a0 = rng(11).normal(size=(2, 3, 4))
    b0 = rng(12).normal(size=(4, 5))

    def thru_a(t):
        return T.matmul(t, T.Tensor(b0, dtype=np.float64)).sum()

    def thru_b(t):
        return T.matmul(T.Tensor(a0, dtype=np.float64), t).sum()

    assert T.finite_difference_check(thru_a, a0) <= 1e-5
    assert T.finite_difference_check(thru_b, b0) <= 1e-5


def test_determinism_same_seed_bitwise():
    def run():
        g = np.random.default_rng(42)
        x = T.Tensor(g.normal(size=(4, 4)), requires_grad=True)
        y = T.softmax(T.matmul(x, x.transpose()))
        loss = (y * y).sum()
        T.backpropagate(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_no_grad_blocks_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = x * 3.0
    assert not y.requires_grad
    assert y.is_leaf()


def test_nondeterministic_f_detected():
    from linswap.errors import NonDeterministicF

    calls = []

    def flaky(t):
        calls.append(1)
        return (t * float(len(calls))).sum()

    with pytest.raises(NonDeterministicF):
        T.finite_difference_check(flaky, np.array([1.0, 2.0]))


def _grads_of(fn, *arrays):
    """fn's output and the gradients of (output * probe).sum() w.r.t. each
    float64 input, the probe fixed per output shape."""
    leaves = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    out = fn(*leaves)
    probe = T.Tensor(rng(30).normal(size=out.shape), dtype=np.float64)
    T.backpropagate((out * probe).sum())
    return out.data, [t.grad for t in leaves]


_X = rng(31).normal(size=(2, 3, 5, 8))
_ANGLES = rng(32).normal(size=(5, 4)) * 3.0
_TARGETS = rng(33).integers(0, 8, size=(2, 3, 5))

# name, fused op, its composite oracle, float64 inputs
FUSED_CASES = [
    ("rope", lambda t: T.rope(t, np.cos(_ANGLES), np.sin(_ANGLES)),
     lambda t: oracles.rope_composite(t, np.cos(_ANGLES), np.sin(_ANGLES)), (_X,)),
    ("rms_norm", lambda t, gain: T.rms_norm(t, gain, 1e-6),
     lambda t, gain: oracles.rms_norm_composite(t, gain, 1e-6), (_X * 0.1, rng(34).normal(size=8))),
    ("cross_entropy", lambda t: T.cross_entropy(t, _TARGETS),
     lambda t: oracles.cross_entropy_composite(t, _TARGETS), (_X * 4.0,)),
    ("softmax_attention", lambda q, k, v: A.softmax_attention(q, k, v)[0],
     lambda q, k, v: oracles.softmax_attention_composite(q, k, v)[0], (_X, _X[::-1] * 2.0, rng(35).normal(size=_X.shape))),
]


@pytest.mark.parametrize("name,op,composite,inputs", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
def test_fused_op_matches_its_composite(name, op, composite, inputs):
    out, grads = _grads_of(op, *inputs)
    out_ref, grads_ref = _grads_of(composite, *inputs)
    assert np.abs(out - out_ref).max() <= 1e-12
    for got, want in zip(grads, grads_ref):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("name,op,composite,inputs", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
def test_fused_op_survives_a_second_backward(name, op, composite, inputs):
    # a rule that scales its result in place must not write into what the
    # forward kept: a second backward of the same loss adds the same gradient
    leaves = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in inputs]
    out = op(*leaves)
    loss = (out * T.Tensor(rng(30).normal(size=out.shape), dtype=np.float64)).sum()
    T.backpropagate(loss)
    first = [t.grad.copy() for t in leaves]
    T.backpropagate(loss)
    for got, want in zip(leaves, first):
        np.testing.assert_array_equal(got.grad, 2 * want)


def test_rms_norm_takes_its_scale_once(monkeypatch):
    # the forward's scale serves both gradient rules
    calls = []

    def counted(x, eps):
        calls.append(x.shape)
        return scale(x, eps)

    scale = T._rms_scale
    monkeypatch.setattr(T, "_rms_scale", counted)
    x = T.Tensor(_X * 0.1, requires_grad=True, dtype=np.float64)
    gain = T.Tensor(rng(34).normal(size=8), requires_grad=True, dtype=np.float64)
    T.backpropagate(T.rms_norm(x, gain, 1e-6).sum())
    assert len(calls) == 1 and x.grad is not None and gain.grad is not None


def test_cross_entropy_stays_finite_over_a_wide_logit_spread():
    # float32 probabilities of the low targets underflow to 0: a log of the
    # softmax would be -inf, the log-sum-exp form is not
    logits = np.zeros((2, 3, 6), dtype=np.float32)
    logits[..., 0] = 200.0
    targets = np.array([[1, 0, 5], [2, 3, 0]])
    assert (T.softmax_np(logits)[..., 1:] == 0).all()
    x = T.Tensor(logits, requires_grad=True)
    loss = T.cross_entropy(x, targets)
    T.backpropagate(loss)
    ref = oracles.cross_entropy_composite(T.Tensor(logits), targets)
    exact = np.mean(np.where(targets == 0, 0.0, 200.0) + np.log1p(5 * np.exp(-200.0)))
    assert np.isfinite(loss.item()) and np.isfinite(x.grad).all()
    np.testing.assert_allclose(loss.item(), ref.item(), rtol=1e-6)
    np.testing.assert_allclose(loss.item(), exact, rtol=1e-6)
