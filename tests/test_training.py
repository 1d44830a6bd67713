"""Losses (with direct float64 oracles), optimizer determinism, frozen-weight
contracts, block decoupling, and short training smoke runs."""

import numpy as np
import pytest

from linswap import tensor as T
from linswap.errors import BadConfig, DivergedLoss, IndivisibleBlocks, LinswapError, NonFiniteResult, NotStochastic, ShapeMismatch
from linswap.model import (
    AttentionLayer,
    HybridSpec,
    ModelConfig,
    adapter_parameters,
    build_model,
    convert_model,
    freeze_feature_maps,
    lora_attach,
)
from linswap.tensor import Tensor
from linswap.training import (
    AdamW,
    AttentionTransfer,
    LoraAdjust,
    ReduceLROnPlateau,
    blockwise_loss,
    eval_next_token_loss,
    feature_map_parameters,
    hedgehog_weight_xent_loss,
    layerwise_diagnostics,
    next_token_loss,
    pretrain_base,
    sample_batch,
    synthetic_corpus,
)

import oracles


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_model(seed=0, kind="hedgehog", w=4, mode="standard", layers=2):
    cfg = ModelConfig(n_layers=layers, n_heads=2, head_dim=8, seed=seed)
    return convert_model(build_model(cfg), HybridSpec(window_size=w, window_mode=mode, feature_kind=kind), seed=seed)


# --- losses ---------------------------------------------------------------

def test_mse_loss_trivials():
    y = [Tensor(rng(1).normal(size=(2, 2, 5, 4)), dtype=np.float64) for _ in range(2)]
    assert oracles.mse_attention_loss(y, [Tensor(t.data.copy(), dtype=np.float64) for t in y]).item() == 0.0
    shifted = [Tensor(t.data + 0.5, dtype=np.float64) for t in y]
    np.testing.assert_allclose(oracles.mse_attention_loss(y, shifted).item(), 0.25, atol=1e-12)


def test_mse_loss_matches_direct_sum():
    g = rng(2)
    ys = [g.normal(size=(2, 3, 4, 5)) for _ in range(3)]
    yhs = [g.normal(size=(2, 3, 4, 5)) for _ in range(3)]
    direct = np.mean(
        [np.mean((yh[:, h] - y[:, h]) ** 2) for y, yh in zip(ys, yhs) for h in range(3)]
    )
    got = oracles.mse_attention_loss([Tensor(y, dtype=np.float64) for y in ys], [Tensor(y, dtype=np.float64) for y in yhs])
    np.testing.assert_allclose(got.item(), direct, atol=1e-9)


def test_blockwise_reductions():
    g = rng(3)
    ys = [Tensor(g.normal(size=(1, 2, 4, 4)), dtype=np.float64) for _ in range(2)]
    yhs = [Tensor(g.normal(size=(1, 2, 4, 4)), dtype=np.float64) for _ in range(2)]
    joint = oracles.mse_attention_loss(ys, yhs).item()
    # b = M: the single block loss is exactly the joint value
    (single,) = blockwise_loss(ys, yhs, 2)
    np.testing.assert_allclose(single.item(), joint, atol=1e-12)
    # b = 1: two per-layer losses whose mean equals the joint value
    per_layer = blockwise_loss(ys, yhs, 1)
    np.testing.assert_allclose(np.mean([b.item() for b in per_layer]), joint, atol=1e-12)
    with pytest.raises(IndivisibleBlocks):
        blockwise_loss(ys, yhs, 3)


def test_hedgehog_xent_trivials_and_oracle():
    # one-hot teacher matched by one-hot student rows -> 0
    eye = np.eye(4)[None, None]
    assert hedgehog_weight_xent_loss(eye, Tensor(eye.copy(), dtype=np.float64)).item() == 0.0
    # uniform teacher and student over n -> ln n
    n = 5
    u = np.full((1, 1, 3, n), 1.0 / n)
    np.testing.assert_allclose(
        hedgehog_weight_xent_loss(u, Tensor(u.copy(), dtype=np.float64)).item(), np.log(n), atol=1e-7
    )
    # random stochastic rows vs direct float64 sum
    g = rng(5)
    a = g.uniform(0.1, 1.0, size=(2, 2, 4, 6))
    a /= a.sum(-1, keepdims=True)
    ah = g.uniform(0.1, 1.0, size=(2, 2, 4, 6))
    ah /= ah.sum(-1, keepdims=True)
    direct = float(np.mean(-(a * np.log(ah)).sum(-1)))
    got = hedgehog_weight_xent_loss(a, Tensor(ah, dtype=np.float64)).item()
    np.testing.assert_allclose(got, direct, atol=1e-7)
    with pytest.raises(NotStochastic):
        hedgehog_weight_xent_loss(a * 2.0, Tensor(ah, dtype=np.float64))


def test_hedgehog_xent_uses_the_teacher_in_the_student_dtype():
    # causal rows: the student's masked zeros are clamped at 1e-12; a float64
    # teacher is not rounded through float32 on the way
    g = rng(6)
    causal = np.tril(np.ones((7, 7)))
    a = g.uniform(0.1, 1.0, size=(2, 3, 7, 7)) * causal
    a /= a.sum(-1, keepdims=True)
    ah = g.uniform(0.1, 1.0, size=(2, 3, 7, 7)) * causal
    ah /= ah.sum(-1, keepdims=True)
    direct = -(a * np.log(np.maximum(ah, 1e-12))).sum(-1).mean()
    got = hedgehog_weight_xent_loss(a, Tensor(ah, dtype=np.float64))
    assert got.dtype == np.float64
    assert abs(got.item() - direct) <= 1e-14 * abs(direct)
    got32 = hedgehog_weight_xent_loss(a, Tensor(ah, dtype=np.float32))
    assert got32.dtype == np.float32
    assert abs(got32.item() - direct) <= 1e-6 * abs(direct)


def test_next_token_loss_trivials():
    b, l, v = 2, 3, 7
    logits = Tensor(np.zeros((b, l, v), dtype=np.float64))
    targets = rng(6).integers(0, v, size=(b, l))
    np.testing.assert_allclose(next_token_loss(logits, targets).item(), np.log(v), atol=1e-6)

    margin = np.zeros((b, l, v))
    for bi in range(b):
        for li in range(l):
            margin[bi, li, targets[bi, li]] = 20.0
    assert next_token_loss(Tensor(margin, dtype=np.float64), targets).item() <= 1e-3


def test_next_token_loss_matches_direct():
    g = rng(7)
    logits = g.normal(size=(2, 3, 5))
    targets = g.integers(0, 5, size=(2, 3))
    p = np.exp(logits - logits.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    direct = float(np.mean([-np.log(p[b, l, targets[b, l]]) for b in range(2) for l in range(3)]))
    got = next_token_loss(Tensor(logits, dtype=np.float64), targets).item()
    np.testing.assert_allclose(got, direct, atol=1e-9)


def test_next_token_loss_mask():
    g = rng(8)
    logits = Tensor(g.normal(size=(1, 4, 5)), dtype=np.float64)
    targets = g.integers(0, 5, size=(1, 4))
    with pytest.raises(ShapeMismatch):
        next_token_loss(logits, targets[:, :2])


def test_combined_loss_is_exact_weighted_sum():
    model = tiny_model(seed=4)
    corpus = synthetic_corpus(2000, seed=4)
    inputs, _ = sample_batch(corpus, 2, 16, rng(4))
    trainer = AttentionTransfer(loss="combined", w_mse=1000.0, w_xent=1.0)
    combined, _ = trainer.transfer_loss(model, inputs)
    trainer.loss = "output_mse"
    mse_only, _ = trainer.transfer_loss(model, inputs)
    trainer.loss = "weight_xent"
    xent_only, _ = trainer.transfer_loss(model, inputs)
    np.testing.assert_allclose(
        combined.item(), 1000.0 * mse_only.item() + xent_only.item(), rtol=1e-6
    )


# --- optimizer ----------------------------------------------------------------

def test_sample_batch_reaches_the_last_crop():
    # a corpus of exactly seq_len + 1 tokens holds one crop, and it must be drawn
    corpus = np.arange(17)
    inputs, targets = sample_batch(corpus, 3, 16, rng(5))
    np.testing.assert_array_equal(inputs, np.tile(corpus[:-1], (3, 1)))
    np.testing.assert_array_equal(targets, np.tile(corpus[1:], (3, 1)))


def test_adamw_deterministic_bitwise():
    def run():
        g = rng(11)
        p = Tensor(g.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=1e-2)
        for _ in range(20):
            opt.zero_grad()
            loss = (p * p).sum()
            T.backpropagate(loss)
            opt.step()
        return p.data.copy()

    assert run().tobytes() == run().tobytes()


def test_lr_zero_step_is_identity():
    model = tiny_model(seed=6)
    corpus = synthetic_corpus(2000, seed=6)
    inputs, _ = sample_batch(corpus, 2, 16, rng(6))
    before = {n: t.data.copy() for n, t in model.parameters().items()}
    opt = AdamW(feature_map_parameters(model), lr=0.0)
    AttentionTransfer().step(model, inputs, opt)
    for n, t in model.parameters().items():
        assert t.data.tobytes() == before[n].tobytes(), n


def test_gradient_clipping_scales_to_unit_norm():
    p = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-3, clip_norm=1.0)
    p.grad = np.full(4, 10.0)
    norm = opt._clip()
    assert norm > 1.0
    np.testing.assert_allclose(np.sqrt((p.grad**2).sum()), 1.0, rtol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_norm_raises_before_anything_moves(bad):
    w = Tensor(np.arange(4.0, dtype=np.float32), requires_grad=True)
    u = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW({"w": w, "u": u}, lr=0.1, clip_norm=1.0)
    w.grad[:], u.grad[:] = 1.0, 2.0
    opt.step()  # moments and t away from their initial zeros
    w.grad[:] = [1.0, bad, 0.0, 0.0]
    u.grad[:] = 5.0  # over the clip norm: clipping would scale it
    state = {n: (t.data.copy(), t.grad.copy(), opt._m[n].copy(), opt._v[n].copy()) for n, t in opt.params.items()}
    with pytest.raises(DivergedLoss, match=rf"gradient norm {bad} \(first at w\)"):
        opt.step()
    assert opt.t == 1
    for n, t in opt.params.items():
        for got, kept in zip((t.data, t.grad, opt._m[n], opt._v[n]), state[n]):
            assert got.tobytes() == kept.tobytes(), n


def test_plateau_scheduler_halves_lr():
    p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    opt = AdamW({"p": p}, lr=1.0)
    sched = ReduceLROnPlateau(opt)
    sched.on_eval(1.0)
    for _ in range(10):
        sched.on_eval(1.0)  # no improvement, still within the patience of 10
    assert opt.lr == 1.0
    sched.on_eval(1.0)
    assert opt.lr == 0.5


# --- contracts -------------------------------------------------------------------

def test_stage1_frozen_weight_contract():
    model = tiny_model(seed=9)
    init = {n: t.data.copy() for n, t in model.parameters().items()}
    corpus = synthetic_corpus(3000, seed=9)
    trainer = AttentionTransfer(steps=5, batch_size=2, seq_len=16, seed=9).fit(model, corpus)
    feature_names = set(feature_map_parameters(model))
    for n, t in model.parameters().items():
        if n in feature_names:
            assert not np.array_equal(t.data, init[n]), f"{n} did not train"
        else:
            assert t.data.tobytes() == init[n].tobytes(), f"{n} moved"
            assert t.grad is None or not t.grad.any(), f"{n} has gradient"


def test_stage2_adapter_only_contract():
    model = tiny_model(seed=10)
    corpus = synthetic_corpus(3000, seed=10)
    AttentionTransfer(steps=3, batch_size=2, seq_len=16, seed=10).fit(model, corpus)
    lora_attach(model, rank=2, alpha=16.0, seed=10)
    init = {n: t.data.copy() for n, t in model.parameters().items()}
    LoraAdjust(lr=1e-3, steps=5, batch_size=2, seq_len=16, seed=10).fit(model, corpus)
    for n, t in model.parameters().items():
        if n.endswith(("lora_a", "lora_b")):
            continue
        assert t.data.tobytes() == init[n].tobytes(), f"{n} moved in stage 2"
        assert t.grad is None or not t.grad.any(), f"{n} has gradient in stage 2"


def test_block_gradients_decouple_and_match_joint():
    m = 4
    cfg = ModelConfig(n_layers=m, n_heads=2, head_dim=8, seed=12)
    model = convert_model(build_model(cfg), HybridSpec(window_size=4, window_mode="standard", feature_kind="hedgehog"), seed=12)
    corpus = synthetic_corpus(3000, seed=12)
    inputs, _ = sample_batch(corpus, 2, 24, rng(12))
    params = feature_map_parameters(model)

    def grads_for(block_size):
        trainer = AttentionTransfer(block_size=block_size)
        oracles.zero_grad(model)
        loss, _ = trainer.transfer_loss(model, inputs)
        T.backpropagate(loss)
        return {n: t.grad.copy() for n, t in params.items()}

    joint = grads_for(m)
    for b in (1, 2, m):
        got = grads_for(b)
        for n in params:
            rel = np.abs(got[n] - joint[n]) / (np.abs(joint[n]) + 1e-12)
            assert rel.max() <= 1e-6, f"block_size {b}, {n}: {rel.max()}"

    # a single block's loss must not touch other blocks' parameters
    records = model.forward_teacher_forced(inputs)
    blocks = blockwise_loss([r["y"] for r in records], [r["y_hat"] for r in records], 2)
    oracles.zero_grad(model)
    T.backpropagate(blocks[0])
    for n, t in params.items():
        layer = int(n.split(".")[1])
        if layer >= 2:
            assert not t.grad.any(), f"{n} received gradient from block 0"
        else:
            assert t.grad.any(), f"{n} missing gradient from its own block"


def test_zeroing_later_layer_loss_leaves_earlier_grads():
    model = tiny_model(seed=13)
    corpus = synthetic_corpus(2000, seed=13)
    inputs, _ = sample_batch(corpus, 2, 16, rng(13))
    params = feature_map_parameters(model)

    records = model.forward_teacher_forced(inputs)
    per_layer = blockwise_loss([r["y"] for r in records], [r["y_hat"] for r in records], 1)
    oracles.zero_grad(model)
    T.backpropagate(per_layer[0] + per_layer[1])
    with_both = {n: t.grad.copy() for n, t in params.items() if n.startswith("layers.0")}

    records = model.forward_teacher_forced(inputs)
    per_layer = blockwise_loss([r["y"] for r in records], [r["y_hat"] for r in records], 1)
    oracles.zero_grad(model)
    T.backpropagate(per_layer[0])  # layer-1 loss zeroed out
    for n, t in params.items():
        if n.startswith("layers.0"):
            np.testing.assert_allclose(t.grad, with_both[n], rtol=1e-6, atol=1e-12)


# --- diagnostics ------------------------------------------------------------------

def test_diagnostics_shape_and_collapse():
    model = tiny_model(seed=14, w=64)  # window covers everything -> hybrid == softmax
    corpus = synthetic_corpus(3000, seed=14)
    report = layerwise_diagnostics(model, corpus, batch_size=2, seq_len=24)
    assert len(report.layer_mse) == model.config.n_layers
    assert all(m <= 1e-10 for m in report.layer_mse)
    assert all(np.isfinite(report.layer_entropy))
    assert report.mean_esl >= 0


def test_student_weights_built_only_for_weight_losses(monkeypatch):
    # the O(l^2) student weights a_hat are built by the loss that reads them,
    # once per layer, and never for the diagnostics
    from linswap import attention, training

    calls = []

    def counted(*args):
        calls.append(1)
        return attention.hybrid_attention_weights(*args)

    monkeypatch.setattr(training, "hybrid_attention_weights", counted)
    model = tiny_model(seed=16, layers=3)
    corpus = synthetic_corpus(2000, seed=16)
    layerwise_diagnostics(model, corpus, batch_size=2, seq_len=16)
    assert not calls
    inputs, _ = sample_batch(corpus, 2, 16, rng(16))
    AttentionTransfer(loss="combined").transfer_loss(model, inputs)
    assert len(calls) == model.config.n_layers


def test_diagnostics_uniform_weights_entropy():
    from linswap.attention import attention_entropy

    l = 9
    w = np.zeros((l, l))
    for i in range(l):
        w[i, : i + 1] = 1.0 / (i + 1)
    ent = attention_entropy(w)
    np.testing.assert_allclose(ent, [np.log(i + 1) for i in range(l)], atol=1e-9)


# --- training smoke ---------------------------------------------------------------

def test_transfer_reduces_fixed_batch_loss_quickly():
    model = tiny_model(seed=15, kind="t2r", w=4)
    corpus = synthetic_corpus(3000, seed=15)
    inputs, _ = sample_batch(corpus, 4, 32, rng(15))
    trainer = AttentionTransfer(lr=1e-2)
    opt = AdamW(feature_map_parameters(model), lr=1e-2)
    first = trainer.step(model, inputs, opt)
    for _ in range(59):
        last = trainer.step(model, inputs, opt)
    assert last < 0.5 * first


def test_hedgehog_transfer_convergence_regression():
    # hedgehog starts from a much better fit, so its 200-step ratio is larger;
    # guard against regressions at its observed level
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=16, seed=1)
    model = convert_model(build_model(cfg), HybridSpec(window_size=8, window_mode="standard", feature_kind="hedgehog", feature_dim=16), seed=1)
    corpus = synthetic_corpus(4000, seed=1)
    inputs, _ = sample_batch(corpus, 8, 64, rng(1))
    trainer = AttentionTransfer(lr=1e-2)
    opt = AdamW(feature_map_parameters(model), lr=1e-2)
    first = trainer.step(model, inputs, opt)
    for _ in range(199):
        last = trainer.step(model, inputs, opt)
    assert last <= 0.2 * first


def test_estimator_params_roundtrip():
    t = AttentionTransfer(lr=0.5, steps=7)
    params = t.get_params()
    assert params["lr"] == 0.5 and params["steps"] == 7
    t.set_params(lr=0.25)
    assert t.lr == 0.25
    with pytest.raises(ValueError):
        t.set_params(nonsense=1)
    a = LoraAdjust(rank=3)
    assert type(a)(**a.get_params()).get_params() == a.get_params()


def test_fit_seed_determinism():
    def run():
        model = tiny_model(seed=16, kind="t2r")
        corpus = synthetic_corpus(3000, seed=16)
        AttentionTransfer(steps=8, batch_size=2, seq_len=16, seed=16).fit(model, corpus)
        return np.concatenate([t.data.reshape(-1) for t in feature_map_parameters(model).values()])

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_validation_rejects_bad_tokens():
    from linswap.validation import check_token_array
    from linswap.errors import UnknownId

    with pytest.raises(UnknownId):
        check_token_array(np.array([1, 2, 300]), vocab_size=258)
    with pytest.raises(BadConfig):
        check_token_array(np.array([], dtype=np.int64))


def test_adjust_requires_adapters():
    from linswap.errors import AdaptersMissing

    model = tiny_model(seed=77)
    corpus = synthetic_corpus(2000, seed=77)
    inputs, targets = sample_batch(corpus, 2, 16, rng(77))
    opt = AdamW({}, lr=1e-3)
    with pytest.raises(AdaptersMissing):
        LoraAdjust().step(model, inputs, targets, opt)


@pytest.mark.parametrize(
    "bad", [{"steps": 0}, {"batch_size": 0}, {"seq_len": -1}, {"seq_len": 5000}, {"rank": 0}, {"clip_norm": float("nan")}]
)
def test_rejected_adjust_fit_leaves_model_unchanged(bad):
    model = tiny_model(seed=79)
    corpus = synthetic_corpus(2000, seed=79)
    before = {n: t.requires_grad for n, t in model.parameters().items()}
    with pytest.raises(LinswapError):
        LoraAdjust(**{"steps": 2, "batch_size": 2, "seq_len": 16, **bad}).fit(model, corpus)
    assert {n: t.requires_grad for n, t in model.parameters().items()} == before
    assert model.lora_meta is None


def _pretrain_tiny(**kw):
    model = build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, seed=83))
    return pretrain_base(model, synthetic_corpus(2000, seed=83), **{"steps": 2, "batch_size": 2, "seq_len": 16, **kw})


# each class checks its own fields when built (and set_params re-runs that
# check); pretrain_base, a function, checks its arguments
@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: AttentionTransfer(clip_norm=-1), "clip_norm", id="transfer-clip_norm-negative"),
        pytest.param(lambda: AttentionTransfer(clip_norm=0), "clip_norm", id="transfer-clip_norm-zero"),
        pytest.param(lambda: AttentionTransfer(lr=-1), "lr", id="transfer-lr-negative"),
        pytest.param(lambda: AttentionTransfer(lr=float("nan")), "lr", id="transfer-lr-nan"),
        pytest.param(lambda: AttentionTransfer(seed=-1), "seed", id="transfer-seed-negative"),
        pytest.param(lambda: AttentionTransfer(eval_every=-5), "eval_every", id="transfer-eval_every-negative"),
        pytest.param(lambda: LoraAdjust(clip_norm=-1), "clip_norm", id="adjust-clip_norm-negative"),
        pytest.param(lambda: LoraAdjust(lr=float("nan")), "lr", id="adjust-lr-nan"),
        pytest.param(lambda: LoraAdjust(rank=0), "rank", id="adjust-rank-zero"),
        pytest.param(lambda: LoraAdjust(targets=("wz",)), "targets", id="adjust-targets-unknown"),
        pytest.param(lambda: ModelConfig(seed=-1), "seed", id="model-seed-negative"),
        pytest.param(lambda: HybridSpec(window_size=0), "window_size", id="hybrid-window_size-zero"),
        pytest.param(lambda: HybridSpec(window_mode="sliding"), "window_mode", id="hybrid-window_mode-unknown"),
        pytest.param(lambda: AttentionTransfer().set_params(clip_norm=0), "clip_norm", id="set_params-clip_norm-zero"),
        pytest.param(lambda: _pretrain_tiny(lr=-1), "lr", id="pretrain_base-lr-negative"),
        pytest.param(lambda: synthetic_corpus(100, seed=-1), "seed", id="synthetic_corpus-seed-negative"),
        pytest.param(lambda: eval_next_token_loss(tiny_model(), synthetic_corpus(200), seed=-1), "seed", id="eval_loss-seed-negative"),
        pytest.param(lambda: eval_next_token_loss(tiny_model(), synthetic_corpus(200), batch_size=0), "batch_size", id="eval_loss-batch_size-zero"),
        pytest.param(lambda: layerwise_diagnostics(tiny_model(), synthetic_corpus(200), seed=-1), "seed", id="diagnostics-seed-negative"),
        pytest.param(lambda: layerwise_diagnostics(tiny_model(), synthetic_corpus(200), batch_size=0), "batch_size", id="diagnostics-batch_size-zero"),
    ],
)
def test_settings_out_of_range_raise_naming_the_field(call, field):
    with pytest.raises(LinswapError, match=rf"^{field} must be"):
        call()


def test_refused_settings_change_nothing():
    trainer = AttentionTransfer(lr=0.5)
    with pytest.raises(BadConfig):
        trainer.set_params(lr=0.25, clip_norm=0)
    assert trainer.get_params() == AttentionTransfer(lr=0.5).get_params()
    model = build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, seed=83))
    before = {n: (t.data.copy(), t.requires_grad) for n, t in model.parameters().items()}
    with pytest.raises(BadConfig):
        pretrain_base(model, synthetic_corpus(2000, seed=83), steps=2, lr=-1, batch_size=2, seq_len=16)
    for n, t in model.parameters().items():
        assert t.data.tobytes() == before[n][0].tobytes() and t.requires_grad == before[n][1], n


def test_diverged_loss_is_reported():
    from linswap.errors import DivergedLoss

    model = tiny_model(seed=78, kind="t2r")
    # simulate a diverged state: feature weights whose products overflow f32
    model.blocks[0].attn.hybrid_cfg.phi_q.weight.data[:] = 1e30
    model.blocks[0].attn.hybrid_cfg.phi_k.weight.data[:] = 1e30
    corpus = synthetic_corpus(2000, seed=78)
    inputs, _ = sample_batch(corpus, 2, 16, rng(78))
    opt = AdamW(feature_map_parameters(model), lr=1e-2)
    with pytest.raises(DivergedLoss):
        AttentionTransfer().step(model, inputs, opt)


def test_non_finite_teacher_is_diverged_loss_before_any_update():
    model = tiny_model(seed=80, kind="t2r")
    # query and key weights of layer 1 whose products overflow f32 in the
    # teacher's attention scores
    params = model.parameters()
    params["layers.1.attn.wq.weight"].data[:] = 1e30
    params["layers.1.attn.wk.weight"].data[:] = 1e30
    before = {n: t.data.copy() for n, t in params.items()}
    inputs, _ = sample_batch(synthetic_corpus(2000, seed=80), 2, 16, rng(80))
    opt = AdamW(feature_map_parameters(model), lr=1e-2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedLoss, match=r"layers\.1 attn\.heads"):
        AttentionTransfer().step(model, inputs, opt)
    for n, t in model.parameters().items():
        assert t.data.tobytes() == before[n].tobytes(), n


@pytest.mark.parametrize("stage, op", [("output_mse", "hybrid_attention"), ("combined", "matmul"), ("adjust", "matmul")])
def test_tape_diverged_loss_names_layer_and_op_before_any_update(stage, op):
    # stage 1: feature maps of layer 1 whose products overflow f32 in the
    # hybrid layer (and, for the weight loss, in its score matrix); stage 2:
    # a LoRA B of layer 1 that makes the merged weight NaN
    model = tiny_model(seed=81, kind="t2r")
    inputs, targets = sample_batch(synthetic_corpus(2000, seed=81), 2, 16, rng(81))
    if stage == "adjust":
        freeze_feature_maps(model)
        lora_attach(model, rank=2, alpha=4.0, seed=81)
        model.parameters()["layers.1.attn.wq.lora_b"].data[:] = np.inf
        opt = AdamW(adapter_parameters(model), lr=1e-2)
        step = lambda: LoraAdjust().step(model, inputs, targets, opt)
    else:
        hybrid = model.blocks[1].attn.hybrid_cfg
        hybrid.phi_q.weight.data[:] = 1e30
        hybrid.phi_k.weight.data[:] = 1e30
        opt = AdamW(feature_map_parameters(model), lr=1e-2)
        step = lambda: AttentionTransfer(loss=stage).step(model, inputs, opt)
    before = {n: t.data.copy() for n, t in model.parameters().items()}
    with pytest.raises(DivergedLoss, match=rf"^layers\.1 {op} produced NaN/Inf"):
        step()
    assert opt.t == 0
    for n, t in model.parameters().items():
        assert t.data.tobytes() == before[n].tobytes(), n


@pytest.mark.parametrize("stage, op", [("output_mse", "matmul"), ("combined", "matmul"), ("adjust", "rope")])
def test_nan_key_inside_a_chunk_window_names_layer_and_op(stage, op, monkeypatch):
    # one NaN key of layer 1 at position 5, inside the window of the queries
    # 5-7 of its chunk and off the window of query 4: the hybrid op's window
    # softmax puts NaN in those rows under the caps and the fmax shift as
    # under np.where and np.maximum, and the loss names the layer and op it
    # named before. Stage 1's student reads the teacher's k as a leaf, so
    # the first op that reads it, phi(k)'s matmul, is named; stage 2's k is
    # the rope node's output
    model = tiny_model(seed=82, kind="t2r", mode="terraced")
    inputs, targets = sample_batch(synthetic_corpus(2000, seed=82), 2, 16, rng(82))
    heads_hybrid = AttentionLayer.heads_hybrid

    def poisoned(self, q, k, v):
        if self is model.blocks[1].attn:
            k.data[:, :, 5] = np.nan
        return heads_hybrid(self, q, k, v)

    monkeypatch.setattr(AttentionLayer, "heads_hybrid", poisoned)
    if stage == "adjust":
        freeze_feature_maps(model)
        lora_attach(model, rank=2, alpha=4.0, seed=82)
        opt = AdamW(adapter_parameters(model), lr=1e-2)
        step = lambda: LoraAdjust().step(model, inputs, targets, opt)
    else:
        opt = AdamW(feature_map_parameters(model), lr=1e-2)
        step = lambda: AttentionTransfer(loss=stage).step(model, inputs, opt)
    with pytest.raises(DivergedLoss, match=rf"^layers\.1 {op} produced NaN/Inf"):
        step()
    assert opt.t == 0


def test_off_tape_evaluations_raise_on_a_non_finite_figure():
    model = tiny_model(seed=81, kind="t2r")
    hybrid = model.blocks[1].attn.hybrid_cfg
    hybrid.phi_q.weight.data[:] = 1e30
    hybrid.phi_k.weight.data[:] = 1e30
    corpus = synthetic_corpus(2000, seed=81)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteResult, match=r"^layers\.1 transfer_mse produced NaN/Inf"):
            layerwise_diagnostics(model, corpus, 2, 16)
        with pytest.raises(NonFiniteResult, match=r"^eval_loss produced NaN/Inf"):
            eval_next_token_loss(model, corpus, 2, 16)


@pytest.mark.parametrize("stage", ["transfer", "adjust"])
def test_fit_is_a_loop_of_sample_batch_and_step(stage):
    # one training step is one iteration of the fit loop: fit leaves the same
    # bits as drawing seeded crops with sample_batch and calling trainer.step
    corpus = synthetic_corpus(3000, seed=17)
    trainer_cls = AttentionTransfer if stage == "transfer" else LoraAdjust
    trainer = trainer_cls(lr=1e-2, steps=6, batch_size=2, seq_len=16, seed=17)

    def fresh():
        model = tiny_model(seed=17, kind="t2r")
        if stage == "adjust":
            freeze_feature_maps(model)
            lora_attach(model, rank=2, alpha=16.0, seed=17)
        return model

    fitted = fresh()
    trainer.fit(fitted, corpus)
    fit_losses = trainer.report_.train_losses if stage == "transfer" else trainer.train_losses_

    by_hand = fresh()
    params = feature_map_parameters(by_hand) if stage == "transfer" else adapter_parameters(by_hand)
    opt = AdamW(params, lr=trainer.lr, clip_norm=trainer.clip_norm)
    batches = rng(trainer.seed)
    hand_losses = []
    for _ in range(trainer.steps):
        inputs, targets = sample_batch(corpus, trainer.batch_size, trainer.seq_len, batches)
        if stage == "transfer":
            hand_losses.append(trainer.step(by_hand, inputs, opt))
        else:
            hand_losses.append(trainer.step(by_hand, inputs, targets, opt))

    assert fit_losses == hand_losses
    hand_params = by_hand.parameters()
    for n, t in fitted.parameters().items():
        assert t.data.tobytes() == hand_params[n].data.tobytes(), n


def test_pretrain_divergence_is_reported():
    model = build_model(ModelConfig(n_layers=1, n_heads=2, head_dim=8, seed=79))
    # query and key weights whose products overflow f32 in the attention scores
    params = model.parameters()
    params["layers.0.attn.wq.weight"].data[:] = 1e30
    params["layers.0.attn.wk.weight"].data[:] = 1e30
    corpus = synthetic_corpus(2000, seed=79)
    with pytest.raises(DivergedLoss):
        pretrain_base(model, corpus, steps=2, batch_size=2, seq_len=16)
