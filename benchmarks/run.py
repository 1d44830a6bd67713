"""linswap benchmark: one closed-loop caller timing calls into linswap's public
API on three workloads (see README.md in this directory).

    python3 benchmarks/run.py --workload train-tiny --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 5

Run from the repository root; linswap is imported from ./src. With --trace 0
the final stdout line is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. A human-readable
table precedes it, and the full record (host, samples summary, checks) is
written to benchmarks/out/. The exit code is 1 if any operation or
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _import_linswap() -> None:
    """Put the checkout's src/ first on the path and make sure that is where
    linswap comes from, never from an installed copy."""
    if not (SRC / "linswap" / "__init__.py").is_file():
        sys.exit(f"error: linswap sources not found at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import linswap

    if Path(linswap.__file__).resolve().parent != (SRC / "linswap").resolve():
        sys.exit(f"error: imported linswap from {linswap.__file__}, expected {SRC / 'linswap'}")


_import_linswap()

from linswap import tensor as T  # noqa: E402

from harness import OUT_DIR, Run, host_record, summarize_ms  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SETUPS, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"op1_min_ms": "ms", "op2_min_ms": "ms", "op3_min_ms": "ms", "setup_s": "s"}

# Per-layer timings are ms per operation of the workload (summed over the
# traced rounds, divided by the operations timed in them); *_calls are span
# calls per operation. stem -> (span names, parent span name or None, which
# duration). Self time is a span's duration minus its child spans.
LAYER_SPANS = {
    "tensor.backward": (("tensor.backward",), None, "self"),
    "training.transfer_forward": (("model.forward",), "training.transfer_loss", "incl"),
    "training.adjust_forward": (("model.forward",), "op.adjust", "incl"),
    "training.loss": (("training.loss",), None, "self"),
    "training.sample_batch": (("training.sample_batch",), None, "self"),
    "training.optimizer": (("training.optimizer",), None, "self"),
    "model.qkv_rope": (("model.qkv_rope",), None, "self"),
    "model.mlp": (("model.mlp",), None, "self"),
    "model.norm": (("model.norm",), None, "self"),
    "model.embed_head_self": (("model.forward", "model.session"), None, "self"),
    "attention.hybrid": (("attention.hybrid",), None, "self"),
    "attention.feature_map": (("attention.feature_map",), None, "self"),
    "attention.teacher_softmax": (("attention.teacher_softmax",), None, "self"),
    "attention.decode_step": (("attention.decode_step",), None, "self"),
}
# Spans of the set-up: ms per call and calls per set-up.
SETUP_SPANS = ("checkpoint.save", "checkpoint.load")
# Exact counts and reference figures that a workload records; 0 where the
# workload does not exercise the layer.
COUNTS = {
    "tensor.tape_nodes": "count",
    "tensor.tape_bytes": "bytes",
    "tensor.tape_nodes_standard": "count",
    "tensor.tape_bytes_standard": "bytes",
    "tensor.tape_nodes_adjust": "count",
    "tensor.tape_bytes_adjust": "bytes",
    "training.transfer_mse_final": "mse",
    "training.adjust_loss_final": "nats",
    "model.decode_state_bytes": "bytes",
    "model.decode_cache_bytes": "bytes",
    "model.softmax_decode_ms_tok_b8": "ms",
    "attention.peak_chunk_bytes": "bytes",
    "checkpoint.file_bytes": "bytes",
}
TAPE_SUFFIX = {"transfer": "", "transfer_standard": "_standard", "adjust": "_adjust"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for stem in LAYER_SPANS:
        units[stem + "_ms"] = "ms"
        units[stem + "_calls"] = "1/op"
    for stem in SETUP_SPANS:
        units[stem + "_ms"] = "ms"
        units[stem + "_calls"] = "1/setup"
    units.update(COUNTS)
    units["host.calib_ms"] = "ms"
    units["trace_overhead_frac"] = "frac"
    return units


def _tape_counter(run: Run):
    def count(loss) -> None:
        if not run.traced:  # warm-up steps in the set-up
            return
        nodes = T.topological_order(loss)
        suffix = TAPE_SUFFIX[run.kind]
        run.counts["tensor.tape_nodes" + suffix] = len(nodes)
        run.counts["tensor.tape_bytes" + suffix] = sum(n.data.nbytes for n in nodes)

    return count


def layer_metrics(run: Run, workload) -> dict[str, float]:
    tracer = run.tracer
    ops = tracer.totals("op.")
    setup = tracer.totals("setup")
    n_ops = sum(len(v) for v in run.traced_samples.values())
    values = {}
    for stem, (names, parent, field) in LAYER_SPANS.items():
        picked = [agg for (name, par), agg in ops.items() if name in names and (parent is None or par == parent)]
        values[stem + "_ms"] = sum(a[field] for a in picked) * 1e3 / n_ops if n_ops else 0.0
        values[stem + "_calls"] = sum(a["calls"] for a in picked) / n_ops if n_ops else 0.0
    for stem in SETUP_SPANS:
        picked = [agg for (name, _), agg in setup.items() if name == stem]
        calls = sum(a["calls"] for a in picked)
        values[stem + "_ms"] = sum(a["incl"] for a in picked) * 1e3 / calls if calls else 0.0
        values[stem + "_calls"] = calls / SETUPS
    for name in COUNTS:
        values[name] = run.counts.get(name, 0)
    values["host.calib_ms"] = statistics.median(run.calib_ms)
    ratios = [
        statistics.median(run.traced_samples[kind]) / statistics.median(run.samples[kind]) - 1.0
        for _, kind, _ in workload.OPS
        if run.traced_samples[kind] and run.samples[kind]
    ]
    values["trace_overhead_frac"] = statistics.fmean(ratios) if ratios else 0.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds)
    if trace:
        run.tracer = Tracer(on_backward=_tape_counter(run))
    workload = WORKLOADS[name]()
    for _ in range(SETUPS):
        start = time.perf_counter()
        if trace:
            run.tracer.install()
            try:
                with run.tracer.span("setup"):
                    workload.setup(run)
            finally:
                run.tracer.uninstall()
        else:
            workload.setup(run)
        run.setup_s.append(time.perf_counter() - start)
    run.rounds_until_deadline(lambda: workload.round(run), workload.done)
    workload.finish(run)

    ops = {figure: summarize_ms(run.samples[kind]) for _, kind, figure in workload.OPS}
    if trace:
        metrics = layer_metrics(run, workload)
        units = per_layer_units()
    else:
        metrics = {slot: ops[figure]["min"] for slot, _, figure in workload.OPS}
        metrics["setup_s"] = statistics.median(run.setup_s)
        units = END_TO_END_UNITS
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_record(),
        "rounds": run.rounds,
        "slots": {slot: figure for slot, _, figure in workload.OPS},
        "ops": ops,
        "setup_s": run.setup_s,
        "calib_ms": run.calib_ms,
        "samples_ms": {kind: [round(x * 1e3, 5) for x in run.samples[kind]] for _, kind, _ in workload.OPS},
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "checks": run.checks,
        "notes": run.notes,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1, default=str))
    if trace:
        run.tracer.write(OUT_DIR / f"{name}-spans.jsonl.gz")
    return result


def print_table(result: dict) -> None:
    host = result["host"]
    print(
        f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
        f"trace={int(result['trace'])}  rounds={result['rounds']}"
    )
    print(
        f"   host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"blas={host['blas']} blas_threads={host['blas_threads']} commit={host['git_commit'][:12]}"
    )
    for slot, figure in result["slots"].items():
        s = result["ops"][figure]
        tail = f"p{s['tail_pct']:g}={s['tail']:.4f} ms" if s["tail"] is not None else "tail: too few samples"
        print(
            f"   {slot:10s} {figure:26s} min={s['min']:.4f} ms  median={s['median']:.4f} ms  "
            f"n={s['n']:<5d} {tail}"
        )
    setup = result["setup_s"]
    print(f"   {'setup_s':10s} {'(median of set-ups)':26s} {statistics.median(setup):.4f} s  n={len(setup)}")
    if result["trace"]:
        for name, m in result["metrics"].items():
            print(f"   {name:44s} {m['value']:>14.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"   note {key} = {value}")
    bad = [c for c in result["checks"] if not c["ok"]]
    print(f"   checks: {len(result['checks']) - len(bad)} passed, {len(bad)} failed")
    for c in bad:
        print(f"   FAILED check {c['name']}: {c['detail']}")
    for why in result["failures"]:
        print(f"   failure: {why}")
    print(f"   ops attempted={result['attempted']} failed={result['failed']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        print_table(results[-1])
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in results}
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
