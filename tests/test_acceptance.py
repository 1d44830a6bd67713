"""Acceptance suite: one test per criterion, each printing a PASS line with its
measured margin. Tolerances are pinned here and match the stated contracts.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np

from linswap import attention as A
from linswap import tensor as T
from linswap.model import (
    HybridSpec,
    ModelConfig,
    build_model,
    convert_model,
    lora_attach,
)
from linswap.planner import plan_blockwise_storage
from linswap.bench import bench_generation
from linswap.tensor import Tensor
from linswap.training import (
    AdamW,
    AttentionTransfer,
    LoraAdjust,
    blockwise_loss,
    feature_map_parameters,
    hedgehog_weight_xent_loss,
    next_token_loss,
    pretrain_base,
    sample_batch,
    synthetic_corpus,
    eval_next_token_loss,
)

import oracles


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def rng(seed):
    return np.random.default_rng(seed)


# -------------------------------------------------------------------------
# 1. dual-form + recurrent equivalence (float32, max-abs 1e-5, < 30 s)
# -------------------------------------------------------------------------

def test_criterion_01_linear_attention_three_forms():
    start = time.perf_counter()
    worst = 0.0
    for case in range(64):
        g = rng(1000 + case)
        b = int(g.integers(1, 3))
        h = int(g.integers(1, 5))
        l = int(g.integers(1, 129))
        d = 2 * int(g.integers(1, 17))
        kind = ("t2r", "hedgehog")[case % 2]
        pq = A.init_feature_map(kind, h, d, None, g)
        pk = A.init_feature_map(kind, h, d, None, g)
        q, k, v = (Tensor(g.normal(size=(b, h, l, d)).astype(np.float32)) for _ in range(3))
        y_par = A.linear_attention_parallel(q, k, v, pq, pk)
        y_state = A.linear_attention_state(q, k, v, pq, pk)
        state = A.LinearAttentionState(b, h, pq.output_dim, d)
        y_rec = np.zeros_like(y_par.data)
        for n in range(l):
            y_rec[:, :, n] = A.linear_attention_recurrent_step(
                state, q.data[:, :, n], k.data[:, :, n], v.data[:, :, n], pq, pk
            )
        worst = max(
            worst,
            np.abs(y_par.data - y_state.data).max(),
            np.abs(y_par.data - y_rec).max(),
            np.abs(y_state.data - y_rec).max(),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 30.0
    report(1, f"64 cases, both feature maps; max-abs dev {worst:.2e}; runtime {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. hybrid collapse to softmax when the window covers the sequence
# -------------------------------------------------------------------------

def test_criterion_02_hybrid_collapse():
    worst = 0.0
    case = 0
    for i in range(32):
        g = rng(2000 + i)
        mode = ("standard", "terraced")[i % 2]
        gamma_raw = (-2.0, 0.0, 3.0)[i % 3]
        b = int(g.integers(1, 3))
        h = int(g.integers(1, 4))
        l = int(g.integers(1, 25))
        d = 2 * int(g.integers(2, 9))
        cfg = A.make_hybrid_config(l + int(g.integers(0, 9)), mode, ("t2r", "hedgehog")[i % 2],
                                   h, d, rng=g, gamma_init=gamma_raw)
        q, k, v = (Tensor(g.normal(size=(b, h, l, d)).astype(np.float32)) for _ in range(3))
        y_soft, _ = A.softmax_attention(q, k, v)
        y_hyb = A.hybrid_attention_prefill(q, k, v, cfg)
        worst = max(worst, np.abs(y_soft.data - y_hyb.data).max())
        case += 1
    assert worst <= 1e-5
    report(2, f"32 cases, both modes, gamma_raw in {{-2, 0, 3}}; max-abs dev {worst:.2e}")


# -------------------------------------------------------------------------
# 3. chunked terraced prefill vs the masked terraced oracle
# -------------------------------------------------------------------------

def test_criterion_03_chunked_terraced_equivalence():
    worst = 0.0
    for w in (4, 8, 64):
        for seq in (1, w, w + 1, 4 * w, 4 * w + 3):
            g = rng(3000 + w + seq)
            cfg = A.make_hybrid_config(w, "terraced", "hedgehog", 2, 8, rng=g)
            q, k, v = (Tensor(g.normal(size=(1, 2, seq, 8)).astype(np.float32)) for _ in range(3))
            ref = oracles.hybrid_naive(q, k, v, cfg)
            out = A.terraced_prefill_chunked(q, k, v, cfg)
            worst = max(worst, np.abs(out.data - ref.data).max())
    assert worst <= 1e-5
    report(3, f"w in {{4, 8, 64}}, seq in {{1, w, w+1, 4w, 4w+3}}; max-abs dev {worst:.2e}")


# -------------------------------------------------------------------------
# 4. decode/prefill consistency at every position, both modes
# -------------------------------------------------------------------------

def test_criterion_04_decode_prefill_consistency():
    worst = 0.0
    w = 4
    for mode in ("standard", "terraced"):
        for kind in ("t2r", "hedgehog"):
            g = rng(4000 + len(mode) + len(kind))
            seq = 4 * w + 3
            cfg = A.make_hybrid_config(w, mode, kind, 2, 8, rng=g)
            q, k, v = (Tensor(g.normal(size=(2, 2, seq, 8)).astype(np.float32)) for _ in range(3))
            ref = A.hybrid_attention_prefill(q, k, v, cfg).data
            state = A.HybridDecodeState(2, 2, cfg, 8)
            for n in range(seq):
                step = A.hybrid_decode_step(
                    state, q.data[:, :, n : n + 1], k.data[:, :, n : n + 1], v.data[:, :, n : n + 1], cfg.arrays(), position=n
                )
                worst = max(worst, np.abs(step - ref[:, :, n : n + 1]).max())
    assert worst <= 1e-5
    report(4, f"both modes and feature maps, seq 4w+3; max-abs dev {worst:.2e}")


# -------------------------------------------------------------------------
# 5. gradient suite: finite differences for every differentiable op and loss
# -------------------------------------------------------------------------

def _fd_cases():
    g = rng(50)
    w4 = g.normal(size=(4, 3))
    probe24 = Tensor(g.normal(size=(2, 4)), dtype=np.float64)
    probe234 = Tensor(g.normal(size=(2, 3, 4)), dtype=np.float64)
    ang = g.normal(size=(3, 2))
    cases = [
        ("add/mul/sub", lambda t: ((t + t * 2.0 - 0.5) * t).sum(), g.normal(size=(3, 4))),
        ("div", lambda t: (t / (t * t + 2.0)).sum(), g.normal(size=(5,))),
        ("matmul", lambda t: T.matmul(t, Tensor(w4, dtype=np.float64)).sum(), g.normal(size=(2, 4))),
        ("exp", lambda t: T.exp(t).sum(), g.normal(size=(4,))),
        ("log", lambda t: T.log(t * t + 1.5).sum(), g.normal(size=(4,))),
        ("rms_norm", lambda t: (T.rms_norm(t[:2], t[2], 1e-6) * probe24).sum(), g.normal(size=(3, 4))),
        ("rope", lambda t: (T.rope(t, np.cos(ang), np.sin(ang)) * probe234).sum(), g.normal(size=(2, 3, 4))),
        ("relu", lambda t: (T.relu(t) * T.relu(t)).sum(), g.normal(size=(6,)) + np.sign(g.normal(size=(6,))) * 0.3),
        ("sigmoid", lambda t: (T.sigmoid(t) * T.sigmoid(t)).sum(), g.normal(size=(5,))),
        ("softmax", lambda t: (T.softmax(t) * probe24).sum(), g.normal(size=(2, 4))),
        ("sum/mean", lambda t: (t.sum(0) * t.mean(0)).sum(), g.normal(size=(3, 3))),
        ("max", lambda t: (t.max(-1) * t.max(-1)).sum(), np.sort(g.normal(size=(3, 4)), -1) + np.arange(4) * 0.3),
        ("cumsum", lambda t: (T.cumsum(t, 0) * T.cumsum(t, 0)).sum(), g.normal(size=(5, 2))),
        ("concat", lambda t: (T.concat([t, t * 2.0], -1) * T.concat([t * 3.0, t], -1)).sum(), g.normal(size=(3, 2))),
        ("slice", lambda t: (t[1:, ::2] * t[:-1, ::2]).sum(), g.normal(size=(4, 4))),
        ("masked_fill", lambda t: (T.masked_fill(t, np.eye(3, dtype=bool), 0.25) * t).sum(), g.normal(size=(3, 3))),
        ("transpose/reshape", lambda t: (t.transpose() * t.transpose()).reshape(6).sum(), g.normal(size=(2, 3))),
        ("embedding", lambda t: (T.embedding(t, np.array([0, 2, 2, 1])) * T.embedding(t, np.array([2, 0, 1, 1]))).sum(), g.normal(size=(3, 3))),
        ("cross_entropy", lambda t: T.cross_entropy(t * 3.0, np.array([[1, 0, 2], [2, 2, 0]])), g.normal(size=(2, 3, 3))),
    ]
    # the hybrid op: q, k, v, phi(q), phi(k) and gamma_raw, packed
    cases += [(f"hybrid/{mode}", lambda t, mode=mode: oracles.hybrid_op_packed(t, mode), g.normal(size=oracles.HYBRID_PACKED_SIZE))
              for mode in A.WINDOW_MODES]
    return cases


def _loss_fd_cases():
    """Feature maps, the output-MSE and block-wise transfer losses, the weight
    cross-entropy, and the next-token loss, each as a scalar function of a
    packed parameter vector."""
    g = rng(51)
    b, h, l, d = 1, 2, 6, 4
    q0, k0, v0 = (g.normal(size=(b, h, l, d)) for _ in range(3))
    teacher = [g.normal(size=(b, h, l, d)) for _ in range(2)]

    def hybrid_from(t, kind, mode):
        f = d if kind == "t2r" else d // 2
        n_w = h * d * f
        phi_q = A.FeatureMapParams(kind, t[:n_w].reshape(h, d, f),
                                   None if kind == "hedgehog" else t[n_w : n_w + h * f].reshape(h, f))
        off = n_w if kind == "hedgehog" else n_w + h * f
        phi_k = A.FeatureMapParams(kind, t[off : off + n_w].reshape(h, d, f),
                                   None if kind == "hedgehog" else t[off + n_w : off + n_w + h * f].reshape(h, f))
        off2 = off + n_w if kind == "hedgehog" else off + n_w + h * f
        gamma = t[off2 : off2 + h]
        cfg = A.HybridAttnConfig(3, mode, gamma, phi_q, phi_k)
        return cfg

    def pack(kind, seed):
        gg = rng(seed)
        f = d if kind == "t2r" else d // 2
        parts = [gg.uniform(-0.5, 0.5, size=h * d * f)]
        if kind == "t2r":
            parts.append(gg.uniform(-0.1, 0.1, size=h * f))
        parts.append(gg.uniform(-0.5, 0.5, size=h * d * f))
        if kind == "t2r":
            parts.append(gg.uniform(-0.1, 0.1, size=h * f))
        parts.append(np.array([1.0] * h))
        return np.concatenate(parts)

    def output_mse_loss(t, kind):
        cfg = hybrid_from(t, kind, "standard")
        y_hat = A.hybrid_attention_prefill(Tensor(q0, dtype=np.float64), Tensor(k0, dtype=np.float64),
                                           Tensor(v0, dtype=np.float64), cfg)
        return oracles.mse_attention_loss([Tensor(teacher[0], dtype=np.float64)], [y_hat])

    def block_loss(t, kind):
        cfg = hybrid_from(t, kind, "terraced")
        y_hat = A.terraced_prefill_chunked(Tensor(q0, dtype=np.float64), Tensor(k0, dtype=np.float64),
                                           Tensor(v0, dtype=np.float64), cfg)
        blocks = blockwise_loss([Tensor(x, dtype=np.float64) for x in teacher],
                                [y_hat, y_hat * 0.5], 1)
        return blocks[0] + blocks[1]

    def xent_loss(t):
        cfg = hybrid_from(t, "hedgehog", "standard")
        a_hat = A.hybrid_attention_weights(Tensor(q0, dtype=np.float64), Tensor(k0, dtype=np.float64),
                                           Tensor(v0, dtype=np.float64), cfg)
        _, a_teacher = A.softmax_attention(Tensor(q0, dtype=np.float64), Tensor(k0, dtype=np.float64),
                                           Tensor(v0, dtype=np.float64))
        return hedgehog_weight_xent_loss(a_teacher.data, a_hat)

    # next-token loss as a function of logits
    targets = rng(52).integers(0, 5, size=(2, 3))

    def ntl(t):
        return next_token_loss(t.reshape(2, 3, 5), targets)

    probe_t2r = Tensor(g.normal(size=(b, h, l, d)), dtype=np.float64)
    probe_hh = Tensor(g.normal(size=(b, h, l, 2 * (d // 2))), dtype=np.float64)

    def t2r_phi(t):
        params = A.FeatureMapParams("t2r", t[: h * d * d].reshape(h, d, d), t[h * d * d :].reshape(h, d))
        return (A.feature_map_apply(params, Tensor(q0, dtype=np.float64)) * probe_t2r).sum()

    def hedgehog_phi(t):
        params = A.FeatureMapParams("hedgehog", t.reshape(h, d, d // 2))
        return (A.feature_map_apply(params, Tensor(q0, dtype=np.float64)) * probe_hh).sum()

    cases = [
        ("feature map t2r (phi only)", t2r_phi,
         np.concatenate([rng(53).uniform(-0.5, 0.5, h * d * d), rng(54).uniform(-0.1, 0.1, h * d)])),
        ("feature map hedgehog (phi only)", hedgehog_phi,
         rng(55).uniform(-0.5, 0.5, h * d * (d // 2))),
        ("output MSE, t2r hybrid", lambda t: output_mse_loss(t, "t2r"), pack("t2r", 56)),
        ("output MSE, hedgehog hybrid", lambda t: output_mse_loss(t, "hedgehog"), pack("hedgehog", 57)),
        ("block-wise loss, hedgehog chunked", lambda t: block_loss(t, "hedgehog"), pack("hedgehog", 58)),
        ("hedgehog weight cross-entropy", xent_loss, pack("hedgehog", 59)),
        ("next-token loss", ntl, rng(60).normal(size=2 * 3 * 5)),
    ]
    return cases


def test_criterion_05_gradient_suite():
    worst = 0.0
    for name, fn, x in _fd_cases() + _loss_fd_cases():
        err = T.finite_difference_check(fn, np.asarray(x, dtype=np.float64), h=1e-4)
        assert err <= 1e-3, f"{name}: rel err {err:.2e}"
        worst = max(worst, err)
    report(5, f"{len(_fd_cases())} op cases + {len(_loss_fd_cases())} loss cases; worst rel err {worst:.2e}")


# -------------------------------------------------------------------------
# 6. frozen-weight and LoRA contracts
# -------------------------------------------------------------------------

def test_criterion_06_frozen_and_lora_contracts():
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=8, seed=61)
    model = convert_model(build_model(cfg), HybridSpec(window_size=4, window_mode="standard", feature_kind="t2r"), seed=61)
    corpus = synthetic_corpus(4000, seed=61)
    inputs, targets = sample_batch(corpus, 4, 24, rng(61))

    # stage 1: backprop the transfer loss, check the gradient support exactly
    trainer = AttentionTransfer()
    loss, _ = trainer.transfer_loss(model, inputs)
    oracles.zero_grad(model)
    T.backpropagate(loss)
    feature_names = set(feature_map_parameters(model))
    for n, t in model.parameters().items():
        if n in feature_names:
            continue
        assert t.grad is None or not t.grad.any(), f"stage-1 grad leaked into {n}"

    # LoRA attach is a bit-exact identity
    before = model.forward(inputs).data.copy()
    lora_attach(model, rank=4, alpha=16.0, seed=61)
    after = model.forward(inputs).data
    assert before.tobytes() == after.tobytes()

    # stage 2: only adapters receive gradients
    from linswap.model import freeze_feature_maps

    freeze_feature_maps(model)
    oracles.zero_grad(model)
    loss2 = next_token_loss(model.forward(inputs), targets)
    T.backpropagate(loss2)
    for n, t in model.parameters().items():
        if n.endswith(("lora_a", "lora_b")):
            assert t.grad is not None
        else:
            assert t.grad is None or not t.grad.any(), f"stage-2 grad leaked into {n}"
    report(6, "stage-1/stage-2 gradient supports exact; LoRA attach bit-exact identity")


# -------------------------------------------------------------------------
# 7. block decoupling: blockwise grads equal joint grads (M = 4)
# -------------------------------------------------------------------------

def test_criterion_07_block_decoupling():
    m = 4
    cfg = ModelConfig(n_layers=m, n_heads=2, head_dim=8, seed=71)
    model = convert_model(build_model(cfg), HybridSpec(window_size=4, window_mode="standard", feature_kind="hedgehog"), seed=71)
    corpus = synthetic_corpus(4000, seed=71)
    inputs, _ = sample_batch(corpus, 2, 24, rng(71))
    params = feature_map_parameters(model)

    def grads(block_size):
        oracles.zero_grad(model)
        loss, _ = AttentionTransfer(block_size=block_size).transfer_loss(model, inputs)
        T.backpropagate(loss)
        return {n: t.grad.copy() for n, t in params.items()}

    joint = grads(m)
    worst = 0.0
    for b in (1, m // 2, m):
        got = grads(b)
        for n in params:
            rel = np.abs(got[n] - joint[n]) / (np.abs(joint[n]) + 1e-12)
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-6
    report(7, f"b in {{1, 2, 4}} vs joint, M=4; worst relative grad dev {worst:.2e}")


# -------------------------------------------------------------------------
# 8. two-stage qualitative orderings (3 seeds, < 10 min)
# -------------------------------------------------------------------------

def test_criterion_08_two_stage_orderings():
    start = time.perf_counter()
    rows = []
    for seed in (0, 1, 2):
        cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=16, seed=seed, max_seq_len=256)
        corpus = synthetic_corpus(24000, seed=seed + 500)
        train, evalc = corpus[:20000], corpus[20000:]
        base = build_model(cfg)
        pretrain_base(base, train, steps=300, lr=3e-3, seed=seed)

        spec = HybridSpec(window_size=8, window_mode="terraced", feature_kind="t2r")
        with_transfer = convert_model(oracles.clone_model(base), spec, seed=seed)
        without = convert_model(oracles.clone_model(base), spec, seed=seed)

        AttentionTransfer(lr=1e-2, steps=100, seq_len=64, seed=seed).fit(with_transfer, train)
        ppl0_with = eval_next_token_loss(with_transfer, evalc)
        ppl0_without = eval_next_token_loss(without, evalc)

        LoraAdjust(lr=1e-3, steps=100, seq_len=64, seed=seed).fit(with_transfer, train)
        LoraAdjust(lr=1e-3, steps=200, seq_len=64, seed=seed).fit(without, train)
        end_with = eval_next_token_loss(with_transfer, evalc)
        end_without = eval_next_token_loss(without, evalc)
        rows.append((seed, ppl0_with, ppl0_without, end_with, end_without))
        assert ppl0_with < ppl0_without, f"seed {seed}: PPL@0 ordering failed"
        assert end_with < end_without, f"seed {seed}: equal-steps ordering failed"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    detail = "; ".join(
        f"seed {s}: pre-LoRA {a:.3f}<{b:.3f}, end {c:.3f}<{d:.3f}" for s, a, b, c, d in rows
    )
    report(8, f"{detail}; runtime {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 9. attention-transfer convergence: 200 fixed-batch steps to <= 10%
# -------------------------------------------------------------------------

def test_criterion_09_transfer_convergence():
    ratios = []
    for seed in (0, 1, 2):
        cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=16, seed=seed)
        model = convert_model(
            build_model(cfg), HybridSpec(window_size=8, window_mode="standard", feature_kind="t2r"), seed=seed
        )
        corpus = synthetic_corpus(4000, seed=seed)
        inputs, _ = sample_batch(corpus, 8, 64, rng(seed))
        trainer = AttentionTransfer(lr=1e-2)
        opt = AdamW(feature_map_parameters(model), lr=1e-2, clip_norm=1.0)
        first = trainer.step(model, inputs, opt)
        for _ in range(199):
            last = trainer.step(model, inputs, opt)
        ratios.append(last / first)
        assert last <= 0.1 * first, f"seed {seed}: ratio {last / first:.3f}"
    report(9, f"M=2 H=2 d=16 seq=64 lr=1e-2, t2r; loss ratios {[f'{r:.3f}' for r in ratios]}")


# -------------------------------------------------------------------------
# 10. storage planner exact reproduction of the large-model figure
# -------------------------------------------------------------------------

def test_criterion_10_storage_planner_exact():
    plan = plan_blockwise_storage(tokens=5 * 10**7, model_dim=16384, layers=126, block_size=1, precision_bytes=2)
    assert plan.total_bytes == 206_438_400_000_000  # 2.064384e14 exactly
    assert plan.total_bytes == 2 * 5 * 10**7 * 16384 * 126
    assert plan.total_bytes > 200 * 10**12  # "over 200TB"
    report(10, f"T=5e7 d=16384 L=126 k=1 p=2 -> {plan.total_bytes} bytes = 2.064384e14 (over 200 TB)")


# -------------------------------------------------------------------------
# 11. constant-memory decode vs linearly growing softmax cache
# -------------------------------------------------------------------------

def test_criterion_11_memory_shape():
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=8192, seed=111)
    hybrid = convert_model(build_model(cfg), HybridSpec(window_size=8, window_mode="terraced", feature_kind="hedgehog"), seed=111)
    sizes = {}
    for gen_len in (64, 512, 4096):
        r = bench_generation(hybrid, "hybrid", batch_size=1, prompt_len=16, gen_len=gen_len, seed=2)
        sizes[gen_len] = (r.peak_state_bytes, r.peak_cache_bytes)
    assert len(set(sizes.values())) == 1, f"hybrid state/cache bytes vary: {sizes}"

    base = build_model(cfg)
    r1 = bench_generation(base, "softmax-baseline", batch_size=1, prompt_len=16, gen_len=256, seed=2)
    r2 = bench_generation(base, "softmax-baseline", batch_size=1, prompt_len=16, gen_len=512, seed=2)
    ratio = (r2.peak_cache_bytes - r2.prompt_cache_bytes) / (r1.peak_cache_bytes - r1.prompt_cache_bytes)
    assert abs(ratio - 2.0) <= 0.02
    report(
        11,
        f"hybrid state+cache {sum(sizes[64])} bytes for gen 64/512/4096; softmax growth ratio {ratio:.4f}",
    )


# -------------------------------------------------------------------------
# 12. analytic diagnostics and feature-map positivity
# -------------------------------------------------------------------------

def test_criterion_12_analytic_diagnostics():
    assert abs(A.attention_entropy(np.full(7, 1 / 7)) - np.log(7)) <= 1e-9
    assert A.attention_entropy(np.eye(5)[2]) == 0.0

    l = 8
    w = np.zeros((l, l))
    for i in range(l):
        w[i, : i + 1] = 1.0 / (i + 1)
    assert oracles.effective_sequence_length(w, 1) == 0.0
    for i in range(1, l + 1):
        assert abs(oracles.effective_sequence_length(w, i) - (i - 1) / 2) <= 1e-9

    g = rng(12)
    n = 10**4
    x = Tensor(g.normal(size=(1, 2, n // 2, 8)).astype(np.float32))
    hh = A.init_feature_map("hedgehog", 2, 8, 4, g)
    out = A.feature_map_apply(hh, x).data
    assert (out >= 0).all()
    halves_dev = max(np.abs(out[..., :4].sum(-1) - 1).max(), np.abs(out[..., 4:].sum(-1) - 1).max())
    assert halves_dev <= 1e-6
    t2r = A.init_feature_map("t2r", 2, 8, None, g)
    out2 = A.feature_map_apply(t2r, x).data
    assert (out2 >= 0).all()
    report(12, f"entropy/ESL closed forms exact; {n} random inputs nonnegative, hedgehog halves dev {halves_dev:.1e}")
