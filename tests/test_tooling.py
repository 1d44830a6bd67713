"""The benchmark imports linswap names and its span tracer patches them through
``owner.__dict__[attr]``; a refactor that moves or renames one of them breaks
``benchmarks/run.py``, so both are checked here, with the benchmark files
loaded read-only. The serving sessions are pinned to the names the tracer
attributes their attention time to, a decode token reads only cached rope and
mask tables, a stage-1 step and a softmax-baseline token build no mask,
every bundled config is built into the classes it configures, a stage-2
loss records rope, RMS normalisation and the loss as one tape node each and
the qkv projection over one concat, and every tensor op records its node
through the one node constructor. Every committed BENCH_*.json at the
repository root parses and holds the fields a performance claim is read
from. On glibc, importing the tape module keeps a training step's freed heap
mapped, so a steady-state stage-2 step takes almost no page faults, unless
the environment sets glibc's own thresholds."""

import ast
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linswap import attention
from linswap import model as M
from linswap import tensor as T
from linswap.config import load_config
from linswap.training import (
    AdamW,
    AttentionTransfer,
    LoraAdjust,
    feature_map_parameters,
    next_token_loss,
    sample_batch,
    synthetic_corpus,
)

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_FIELDS = ("label", "command", "note", "host", "summary", "runs")


def test_committed_bench_files_hold_their_claim_fields():
    # a performance claim is read from a committed BENCH_<label>.json: the
    # command and note say how it was measured, the host block where, the
    # summary what it found, and the runs what it found it from
    files = sorted(BENCH.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text())
        missing = [field for field in BENCH_FIELDS if field not in record]
        assert not missing, f"{path.name} lacks {missing}"
        assert record["label"] and record["runs"], path.name


def test_span_targets_are_defined_on_their_owners():
    spans = _load("spans")
    assert spans.TARGETS
    for owner, attr, name in spans.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is not defined on its owner"
        assert callable(owner.__dict__[attr]), f"{name}: {owner.__name__}.{attr} is not callable"


def test_workloads_import_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports its sibling harness.py
    workloads = _load("workloads")
    assert callable(workloads.terraced_prefill_chunked)


def test_workloads_reference_only_defined_attributes():
    # a removed or renamed helper would otherwise fail only inside
    # benchmarks/run.py, on the workload that first calls it
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"linswap.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "linswap"
        for alias in node.names
    }
    assert {"tr", "M", "ckpt", "T"} <= set(modules)
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert used
    missing = sorted(f"{alias}.{attr}" for alias, attr in used if not hasattr(modules[alias], attr))
    assert not missing, f"benchmarks/workloads.py uses undefined {missing}"


def test_sessions_serve_every_layer_through_the_segment_step(monkeypatch):
    # the span tracer attributes serving time through these two names: both
    # prefill and step must advance each layer by one hybrid_decode_step call
    # and never reach the Tensor prefill kernel. That call runs the one hybrid
    # forward, _hybrid_chunkwise, once: per layer, once per prefill segment
    # (two here) and once per step
    calls = {"decode_step": 0, "heads_hybrid": 0, "chunkwise": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(attention, "hybrid_decode_step", counted("decode_step", attention.hybrid_decode_step))
    monkeypatch.setattr(M.AttentionLayer, "heads_hybrid", counted("heads_hybrid", M.AttentionLayer.heads_hybrid))
    monkeypatch.setattr(attention, "_hybrid_chunkwise", counted("chunkwise", attention._hybrid_chunkwise))
    cfg = M.ModelConfig(n_layers=3, n_heads=2, head_dim=8, seed=5)
    model = M.convert_model(M.build_model(cfg), M.HybridSpec(window_size=4, window_mode="standard", feature_kind="t2r"))
    session = M.HybridSession(model, 2)
    ids = np.random.default_rng(5).integers(0, 258, size=(2, M.PREFILL_SEGMENT + 11))
    session.prefill(ids)
    assert calls == {"decode_step": 2 * cfg.n_layers, "heads_hybrid": 0, "chunkwise": 2 * cfg.n_layers}
    session.step(ids[:, 0])
    assert calls == {"decode_step": 3 * cfg.n_layers, "heads_hybrid": 0, "chunkwise": 3 * cfg.n_layers}


@pytest.mark.parametrize("mode", ["terraced", "standard"])
def test_decode_reads_only_cached_tables(mode):
    # a decode token slices its rope angles and chunk masks from cached
    # tables: after a warm-up session, the same 3w + 1 steps (past a window
    # boundary and a rope span) make no table, and prefills of four lengths
    # add no chunk-mask table, which is one per window size and mode
    w = 64
    cfg = M.ModelConfig(n_layers=2, n_heads=4, head_dim=32, max_seq_len=4096, seed=7)
    model = M.convert_model(M.build_model(cfg), M.HybridSpec(window_size=w, window_mode=mode, feature_kind="hedgehog"))
    ids = np.random.default_rng(7).integers(0, 258, size=(1, 128))
    tables = (attention._mask_table, M._rope_table)
    for warm in (True, False):
        session = M.HybridSession(model, 1)
        tok = session.prefill(ids).argmax(-1)
        misses = [t.cache_info().misses for t in tables]
        for _ in range(3 * w + 1):
            tok = session.step(tok).argmax(-1)
        if not warm:
            assert [t.cache_info().misses for t in tables] == misses
    masks = attention._mask_table.cache_info()
    for n in (1, 65, 300, 700):
        M.HybridSession(model, 1).prefill(np.random.default_rng(n).integers(0, 258, size=(1, n)))
    after = attention._mask_table.cache_info()
    assert after.misses == masks.misses and after.currsize <= after.maxsize


def test_stage1_and_softmax_steps_build_no_mask(monkeypatch):
    # the softmax teacher and the hybrid chunks mask with caps cached beside
    # the chunk masks: after a warm-up, a stage-1 step of either window mode
    # and 50 SoftmaxSession steps make no table, and nothing on those paths
    # builds a causal mask. A step's one query follows every key, so it reads
    # no cap at all
    calls = []
    causal_mask = attention.causal_mask
    monkeypatch.setattr(attention, "causal_mask", lambda *args: calls.append(args) or causal_mask(*args))
    cfg = M.ModelConfig(n_layers=2, n_heads=2, head_dim=16, max_seq_len=512, seed=3)
    inputs, _ = sample_batch(synthetic_corpus(3000, seed=3), 4, 32, np.random.default_rng(3))
    for mode in ("terraced", "standard"):
        model = M.convert_model(M.build_model(cfg), M.HybridSpec(8, mode, "t2r"))
        opt = AdamW(feature_map_parameters(model), lr=1e-2)
        for warm in (True, False):
            misses = attention._mask_table.cache_info().misses
            AttentionTransfer().step(model, inputs, opt)
            assert warm or attention._mask_table.cache_info().misses == misses, mode
    session = M.SoftmaxSession(M.build_model(cfg), 2)
    tok = session.prefill(inputs[:2]).argmax(-1)
    reads = attention._mask_table.cache_info()
    for _ in range(50):
        tok = session.step(tok).argmax(-1)
    assert attention._mask_table.cache_info()[:2] == reads[:2]
    assert not calls


def test_bundled_configs_build_every_section():
    # a renamed field or constructor parameter fails here, not in the demo
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    assert configs
    for path in configs:
        cfg = load_config(str(path))
        assert isinstance(cfg.build("model"), M.ModelConfig)
        assert isinstance(cfg.build("attention"), M.HybridSpec)
        assert isinstance(cfg.build("transfer"), AttentionTransfer)
        assert isinstance(cfg.build("adjust"), LoraAdjust)


def test_stage2_loss_records_one_node_per_fused_op(monkeypatch):
    # rope, RMS normalisation and the loss are one node each, not composites,
    # and q, k, v come from one matmul over the concatenated merged wq|wk|wv
    made = []
    make = T._make

    def counted(data, parents, backward, op):
        made.append(op)
        return make(data, parents, backward, op)

    cfg = M.ModelConfig(n_layers=3, n_heads=2, head_dim=8, seed=6)
    model = M.convert_model(M.build_model(cfg), M.HybridSpec(window_size=4, window_mode="terraced", feature_kind="t2r"))
    M.freeze_feature_maps(model)
    M.lora_attach(model, rank=2, alpha=4.0, seed=6)
    inputs, targets = sample_batch(synthetic_corpus(2000, seed=6), 2, 12, np.random.default_rng(6))
    monkeypatch.setattr(T, "_make", counted)
    next_token_loss(model.forward(inputs), targets)
    assert made.count("concat") == cfg.n_layers
    assert made.count("rope") == 2 * cfg.n_layers
    assert made.count("rms_norm") == 2 * cfg.n_layers + 1
    assert made.count("cross_entropy") == 1


def test_tensor_ops_record_through_one_node_constructor():
    # each op hands its forward and one gradient rule per parent to the node
    # constructor: only fused and narrow record with _make, only fused's
    # backward accumulates with _accum, and no op tests requires_grad itself;
    # no op checks its output or sets numpy's error state: finite values are
    # checked only in backpropagate and its helper finite
    sites = {"_make": set(), "_accum": set(), "_node": set(), "requires_grad": set(), "isfinite": set(), "errstate": set()}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name in sites:
                sites[name].add(scope)
            walk(child, scope + (child.name,) if isinstance(child, ast.FunctionDef) else scope)

    walk(ast.parse(Path(T.__file__).read_text()), ())
    assert sites["_make"] == {("fused",), ("narrow",)}
    assert sites["_accum"] == {("fused", "_bw")}
    ops = {scope[0] for scope in sites["_node"]}
    assert {"add", "matmul", "rms_norm", "concat", "reduce_max", "_sum_or_mean"} <= ops
    assert not ops & {scope[0] for scope in sites["requires_grad"] if scope}
    assert sites["isfinite"] | sites["errstate"] <= {("backpropagate",), ("finite",)}


HEAP_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
GLIBC = platform.libc_ver()[0] == "glibc"

# 5 warm-up and 20 counted stage-2 steps at the train-tiny shape; prints
# whether the import set the heap thresholds and the minor faults per step
STAGE2_FAULTS = """
import resource
import numpy as np
import linswap.tensor as T
from linswap import model as M
from linswap.training import AdamW, LoraAdjust, sample_batch, synthetic_corpus

cfg = M.ModelConfig(vocab_size=258, n_layers=2, n_heads=2, head_dim=16, max_seq_len=512, seed=3)
model = M.convert_model(M.build_model(cfg), M.HybridSpec(window_size=8, window_mode="terraced", feature_kind="t2r"))
M.freeze_feature_maps(model)
M.lora_attach(model, rank=8, alpha=16.0, seed=3)
trainer = LoraAdjust(lr=1e-3, batch_size=8, seq_len=64)
optimizer = AdamW(M.adapter_parameters(model), lr=1e-3, clip_norm=trainer.clip_norm)
corpus, rng = synthetic_corpus(20_000, seed=3), np.random.default_rng(3)
for i in range(25):
    if i == 5:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.step(model, *sample_batch(corpus, 8, 64, rng), optimizer)
print(T._HEAP_THRESHOLDS_SET, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 20)
"""


def _stage2_in_fresh_process(env: dict[str, str]) -> tuple[str, float]:
    # a fresh process: earlier tests in this one move glibc's dynamic thresholds
    clean = {key: value for key, value in os.environ.items() if key not in HEAP_ENV}
    clean["PYTHONPATH"] = os.pathsep.join([str(Path(T.__file__).resolve().parents[1]), clean.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", STAGE2_FAULTS], env={**clean, **env}, capture_output=True, text=True, timeout=300, check=True)
    flag, faults = out.stdout.split()
    return flag, float(faults)


@pytest.mark.skipif(not GLIBC, reason="linswap sets the heap thresholds only on glibc")
def test_stage2_steps_reuse_the_heap_of_the_previous_step():
    # a stage-2 step at the train-tiny shape frees a tape of about 5 MB; with
    # glibc's default thresholds the next step faulted about 700 pages of it
    # back in here, with the thresholds set at import it reuses them
    flag, faults = _stage2_in_fresh_process({})
    assert flag == "True" and faults < 50


@pytest.mark.parametrize(
    "env",
    [{"MALLOC_TRIM_THRESHOLD_": "131072"}, {"MALLOC_MMAP_THRESHOLD_": "131072"}, {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}],
    ids=["trim", "mmap", "tunables"],
)
def test_environment_heap_thresholds_win_over_the_import_time_call(env):
    # the import sets nothing when the environment sets either threshold, so
    # glibc keeps its own settings: a fixed 128 KiB threshold, which also
    # keeps glibc from raising the other, and a stage-2 step faults its heap
    # back in again
    flag, faults = _stage2_in_fresh_process(env)
    assert flag == "False"
    assert faults >= 50 or not GLIBC
