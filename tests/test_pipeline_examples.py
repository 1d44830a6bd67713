"""Cross-module example contracts: the bundled-config pipeline budget, the
stage-2 training-run example, throughput direction, and the chunked-vs-masked
generation oracle."""

import os
import time

import numpy as np

from linswap import attention as A
from linswap.bench import bench_generation
from linswap.cli import main
from linswap.model import (
    AttentionLayer,
    HybridSpec,
    ModelConfig,
    build_model,
    convert_model,
    generate_greedy,
    lora_attach,
)
from linswap.training import (
    AdamW,
    AttentionTransfer,
    LoraAdjust,
    eval_next_token_loss,
    pretrain_base,
    sample_batch,
    synthetic_corpus,
)

import oracles


REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "tiny.ini")


def test_bundled_config_pipeline_under_budget(tmp_path):
    out = str(tmp_path / "run")
    start = time.perf_counter()
    assert main(["transfer", "--config", REPO_CONFIG, "--out", out]) == 0
    assert main(["adjust", "--config", REPO_CONFIG, "--checkpoint", os.path.join(out, "transfer.lolc"), "--out", out]) == 0
    elapsed = time.perf_counter() - start
    assert os.path.exists(os.path.join(out, "transfer.lolc"))
    assert os.path.exists(os.path.join(out, "adjust.lolc"))
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"


def test_adjust_500_steps_reduces_eval_loss_30pct():
    for seed in (0, 1, 2):
        cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=16, seed=seed, max_seq_len=256)
        corpus = synthetic_corpus(24000, seed=seed + 900)
        train, evalc = corpus[:20000], corpus[20000:]
        base = build_model(cfg)
        pretrain_base(base, train, steps=250, lr=3e-3, seed=seed)
        model = convert_model(base, HybridSpec(window_size=8, window_mode="terraced", feature_kind="t2r"), seed=seed)
        AttentionTransfer(lr=1e-2, steps=80, seq_len=64, seed=seed).fit(model, train)
        before = eval_next_token_loss(model, evalc)
        LoraAdjust(lr=1e-3, steps=500, seq_len=64, seed=seed).fit(model, train)
        after = eval_next_token_loss(model, evalc)
        assert after <= 0.7 * before, f"seed {seed}: {before:.4f} -> {after:.4f}"


def test_adjust_lr_zero_leaves_parameters():
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=8, seed=31)
    model = convert_model(build_model(cfg), HybridSpec(window_size=4, window_mode="standard", feature_kind="t2r"), seed=31)
    lora_attach(model, rank=2, seed=31)
    corpus = synthetic_corpus(3000, seed=31)
    inputs, targets = sample_batch(corpus, 2, 16, np.random.default_rng(31))
    before = {n: t.data.copy() for n, t in model.parameters().items()}
    from linswap.model import adapter_parameters

    opt = AdamW(adapter_parameters(model), lr=0.0)
    LoraAdjust().step(model, inputs, targets, opt)
    for n, t in model.parameters().items():
        assert t.data.tobytes() == before[n].tobytes(), n


def test_hybrid_throughput_beats_softmax_when_seq_dominated():
    # d small, generation long: the baseline pays O(n) per token, the hybrid a
    # constant. Direction only; the magnitude is host-specific.
    cfg = ModelConfig(n_layers=2, n_heads=4, head_dim=32, max_seq_len=8192, seed=41)
    hybrid = convert_model(build_model(cfg), HybridSpec(window_size=64, window_mode="terraced", feature_kind="hedgehog"), seed=41)
    base = build_model(cfg)
    r_h = bench_generation(hybrid, "hybrid", batch_size=8, prompt_len=128, gen_len=1024, seed=1)
    r_s = bench_generation(base, "softmax-baseline", batch_size=8, prompt_len=128, gen_len=1024, seed=1)
    assert r_h.tokens_per_sec >= r_s.tokens_per_sec


def test_generation_identical_with_naive_prefill():
    # greedy decoding through the recurrent session must pick the same tokens
    # as rerunning the masked O(l^2) oracle over the whole prefix every step
    prompt = np.concatenate([[256], (np.arange(13) % 26) + 65])

    def naive_heads(self, q, k, v):
        return oracles.hybrid_naive(q, k, v, self.hybrid_cfg)

    for mode in A.WINDOW_MODES:
        model = convert_model(
            build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=256, seed=51)),
            HybridSpec(window_size=4, window_mode=mode, feature_kind="hedgehog"),
            seed=51,
        )
        fast = generate_greedy(model, prompt, 10)
        chunked = AttentionLayer.heads_hybrid
        AttentionLayer.heads_hybrid = naive_heads
        try:
            slow = prompt[None, :]
            for _ in range(10):
                nxt = model.forward(slow).data[:, -1].argmax(-1)
                slow = np.concatenate([slow, nxt[:, None]], axis=1)
        finally:
            AttentionLayer.heads_hybrid = chunked
        np.testing.assert_array_equal(fast, slow, err_msg=mode)


def test_trainable_fractions_at_wide_desk_config():
    # at the wide desk config both stage-wise trainable sets stay under 2%
    cfg = ModelConfig(n_layers=2, n_heads=4, head_dim=64, seed=61)
    model = convert_model(build_model(cfg), HybridSpec(window_size=64, window_mode="terraced", feature_kind="hedgehog"), seed=61)
    total = model.parameter_count()
    fmap = sum(t.size for t in model.parameters().values() if t.requires_grad)
    lora_attach(model, rank=8, alpha=16.0, seed=61)
    lora = sum(t.size for n, t in model.parameters().items() if n.endswith(("lora_a", "lora_b")))
    total = model.parameter_count() - lora  # base + feature maps
    assert fmap / total < 0.02, f"feature-map fraction {fmap / total:.4f}"
    assert lora / total < 0.02, f"LoRA fraction {lora / total:.4f}"
