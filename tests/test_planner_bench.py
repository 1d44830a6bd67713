"""Storage planner exactness and instrumented generation-benchmark counters."""

import json
import tracemalloc

import numpy as np
import pytest

from linswap import bench
from linswap.bench import bench_generation
from linswap.cli import main
from linswap.errors import BadConfig, ConfigTooLarge, IndivisibleBlocks
from linswap.model import HybridSession, HybridSpec, ModelConfig, SoftmaxSession, build_model, convert_model
from linswap.planner import format_bytes, parse_report, plan_blockwise_storage


def test_planner_reference_figure_exact():
    plan = plan_blockwise_storage(tokens=5 * 10**7, model_dim=16384, layers=126, block_size=1, precision_bytes=2)
    assert plan.total_bytes == 2 * 5 * 10**7 * 16384 * 126
    assert plan.total_bytes == 206_438_400_000_000  # 2.064384e14, "over 200TB"
    assert plan.total_bytes > 200 * 10**12
    assert format_bytes(plan.total_bytes) == "206.4 TB"
    assert plan.blocks == 126


def test_planner_joint_training_figures():
    plan = plan_blockwise_storage(tokens=1000, model_dim=64, layers=4, block_size=4)
    assert plan.total_bytes == 2 * 1000 * 64  # verbatim formula at k = L
    assert plan.boundary_bytes == 0  # boundaries-only variant
    assert "state set per block" in plan.note


def test_planner_hand_case():
    plan = plan_blockwise_storage(tokens=10**6, model_dim=64, layers=4, block_size=2)
    assert plan.total_bytes == 2 * 10**6 * 64 * 2 == 256_000_000


def test_planner_rejects_bad_inputs():
    with pytest.raises(IndivisibleBlocks):
        plan_blockwise_storage(10, 10, 5, 2)
    with pytest.raises(BadConfig):
        plan_blockwise_storage(-1, 10, 4, 2)
    with pytest.raises(BadConfig):
        plan_blockwise_storage(10, 10.5, 4, 2)


def test_planner_report_roundtrip(capsys):
    # the record `linswap plan` prints reads back to the plan; a record whose
    # figures do not follow from its inputs is refused
    plan = plan_blockwise_storage(tokens=12345, model_dim=32, layers=6, block_size=3, precision_bytes=4)
    assert main(["plan", "--tokens", "12345", "--dim", "32", "--layers", "6", "--block", "3", "--precision", "4"]) == 0
    text = capsys.readouterr().out
    again = parse_report(text)
    assert again == plan
    for key, value in (("total_bytes", plan.total_bytes + 1), ("total_human", "1.0 B"), ("blocks", 3)):
        with pytest.raises(BadConfig):
            parse_report(json.dumps({**json.loads(text), key: value}))
    for malformed in ("", "[1]", '{"tokens": 12345}', "5"):
        with pytest.raises(BadConfig):
            parse_report(malformed)


def test_planner_huge_inputs_exact():
    # far beyond 64-bit range; must stay exact
    plan = plan_blockwise_storage(tokens=10**15, model_dim=10**6, layers=1000, block_size=1, precision_bytes=2)
    assert plan.total_bytes == 2 * 10**15 * 10**6 * 1000


# --- bench ------------------------------------------------------------------


def _bench_model(mode_needed="hybrid"):
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=8192, seed=21)
    model = build_model(cfg)
    if mode_needed == "hybrid":
        convert_model(model, HybridSpec(window_size=8, window_mode="terraced", feature_kind="hedgehog"), seed=21)
    return model


def test_hybrid_state_bytes_constant_across_gen_lens():
    model = _bench_model()
    sizes = []
    for gen_len in (16, 64, 128):
        r = bench_generation(model, "hybrid", batch_size=2, prompt_len=16, gen_len=gen_len, seed=1)
        sizes.append((r.peak_state_bytes, r.peak_cache_bytes))
        assert r.tokens_per_sec > 0
    assert len(set(sizes)) == 1


def test_softmax_cache_grows_linearly():
    model = _bench_model("softmax")
    r1 = bench_generation(model, "softmax-baseline", batch_size=2, prompt_len=16, gen_len=32, seed=1)
    r2 = bench_generation(model, "softmax-baseline", batch_size=2, prompt_len=16, gen_len=64, seed=1)
    grown1 = r1.peak_cache_bytes - r1.prompt_cache_bytes
    grown2 = r2.peak_cache_bytes - r2.prompt_cache_bytes
    assert abs(grown2 / grown1 - 2.0) <= 0.02
    assert r2.peak_cache_bytes > r1.peak_cache_bytes


def test_bench_memory_budget_enforced():
    model = _bench_model("softmax")
    with pytest.raises(ConfigTooLarge):
        bench_generation(model, "softmax-baseline", batch_size=64, prompt_len=64, gen_len=4096,
                         memory_budget_bytes=1024)


@pytest.mark.parametrize("kind", ["t2r", "hedgehog"])
def test_bench_projection_is_what_a_session_allocates(kind):
    # one size rule: the budget's projection sums HybridDecodeState's sizes
    # over every layer, and they are the bytes a session's states hold
    model = convert_model(build_model(ModelConfig(n_layers=3, n_heads=2, head_dim=8, seed=21)),
                          HybridSpec(window_size=8, feature_kind=kind), seed=21)
    session = HybridSession(model, 3)
    assert bench._estimate_bytes(model, "hybrid", 3, 16, 32) == session.state_bytes + session.cache_bytes


@pytest.mark.parametrize("prompt_len, gen_len", [(2048, 8), (128, 512), (1, 100), (300, 4), (1000, 30), (2049, 2)])
def test_bench_softmax_projection_is_what_a_session_allocates(prompt_len, gen_len):
    # the budget's projection follows the rule the KV buffers grow by, so it
    # bounds the capacity a session allocates, not only the keys it fills;
    # prefill grows them segment by segment (a 1000-token prompt ends at
    # 1024 slots, not 1000)
    model = _bench_model("softmax")
    session = SoftmaxSession(model, 1)
    logits = session.prefill(np.full((1, prompt_len), 256))
    for _ in range(gen_len):
        logits = session.step(logits.argmax(-1))
    allocated = sum(kv.nbytes for kv in session.kv)
    assert bench._estimate_bytes(model, "softmax-baseline", 1, prompt_len, gen_len) == allocated
    # a budget between the filled and the allocated bytes is too small
    assert session.cache_bytes < allocated
    with pytest.raises(ConfigTooLarge):
        bench_generation(model, "softmax-baseline", 1, prompt_len, gen_len, memory_budget_bytes=session.cache_bytes)
    r = bench_generation(model, "softmax-baseline", 1, prompt_len, gen_len, memory_budget_bytes=allocated)
    assert r.peak_cache_bytes == session.cache_bytes


@pytest.mark.parametrize("mode", ["hybrid", "softmax-baseline"])
def test_bench_budget_rejects_a_huge_batch_before_allocating(mode):
    model = _bench_model(mode)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigTooLarge):
            bench_generation(model, mode, batch_size=10**12, prompt_len=16, gen_len=16, memory_budget_bytes=1 << 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bench_rejects_unconverted_hybrid():
    model = _bench_model("softmax")
    with pytest.raises(BadConfig):
        bench_generation(model, "hybrid", batch_size=1, prompt_len=4, gen_len=4)


@pytest.mark.parametrize("bad", [{"seed": -1}, {"gen_len": 0}, {"mode": "sliding"}])
def test_bench_checks_its_arguments(bad):
    # a negative seed is BadConfig, not numpy's raw ValueError
    args = {"mode": "softmax-baseline", "batch_size": 1, "prompt_len": 4, "gen_len": 4, **bad}
    with pytest.raises(BadConfig, match=rf"^{next(iter(bad))} must be"):
        bench_generation(_bench_model("softmax"), **args)
