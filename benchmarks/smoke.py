"""Smoke self-test of the benchmark: runs the command of BENCHMARK.json on
every workload at minimal length, untraced and traced, and checks that each
run succeeds and emits exactly the metric names and units listed there.

    python3 benchmarks/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if emitted != expected:
        missing = sorted(expected.keys() - emitted.keys())
        extra = sorted(emitted.keys() - expected.keys())
        units = sorted(n for n in expected.keys() & emitted.keys() if expected[n] != emitted[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, unit mismatch {units}")
    if not trace:
        problems += [f"{where}: {n} = {m['value']}" for n, m in result["metrics"].items() if not m["value"] > 0]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
