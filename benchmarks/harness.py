"""Measurement plumbing shared by the workloads: the closed-loop round loop,
per-operation timing with failure counting, summary statistics, the host
record and the host-calibration probe.

Nothing here imports linswap; the probe in particular must stay independent
of it, so that a change to the package cannot move the calibration figure.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Tail percentiles tried from the highest down; the first with at least
# TAIL_BEYOND samples above it is reported next to the median.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile that leaves at
    least TAIL_BEYOND samples beyond it (nearest-rank), or None if too few."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def summarize_ms(samples_s: list[float]) -> dict:
    """Minimum, median, tail and count of durations given in seconds, in ms."""
    ms = [s * 1e3 for s in samples_s]
    out = {"min": min(ms), "median": statistics.median(ms), "n": len(ms), "tail_pct": None, "tail": None}
    t = tail(ms)
    if t is not None:
        out["tail_pct"], out["tail"] = t
    return out


# --------------------------------------------------------------------------
# host record and calibration probe
# --------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, asked from the library
    itself; None when it cannot be found (another BLAS, another layout)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git;
    'unknown' outside a git checkout."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "argv": sys.argv,
    }


_CALIB = np.random.default_rng(0).standard_normal((64, 64)).astype(np.float32) * 0.1


def calibration_probe_ms() -> float:
    """A fixed numpy loop (small matmuls and elementwise ops, the same mix of
    per-call overhead and arithmetic as the package) timed in ms. Reported as
    host.calib_ms so host drift can be told from a code change; it never
    rescales a gated metric."""
    x = _CALIB
    start = time.perf_counter()
    for _ in range(100):
        x = np.tanh(x @ _CALIB + 0.01)
        x = x / (np.abs(x).sum(-1, keepdims=True) + 1.0)
    return (time.perf_counter() - start) * 1e3


# --------------------------------------------------------------------------
# the run: operations, failures, checks
# --------------------------------------------------------------------------


class Run:
    """State of one benchmark run: timed samples per operation kind (split
    into untraced and traced rounds), failure and check bookkeeping, and the
    counts and notes that go into the result file."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = None  # a spans.Tracer in a traced run
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: list[dict] = []
        self.counts: dict[str, float] = {}
        self.notes: dict[str, object] = {}
        self.setup_s: list[float] = []
        self.calib_ms: list[float] = []
        self.rounds = 0
        self.traced = False  # True while a traced round runs
        self.kind = ""  # operation kind being timed

    def op(self, kind: str, fn):
        """Time one operation (closed loop: the caller waits for it). A raised
        LinswapError counts as a failed operation and returns None."""
        from linswap.errors import LinswapError

        self.attempted += 1
        self.kind = kind
        start = time.perf_counter()
        try:
            if self.traced:
                with self.tracer.span("op." + kind):
                    out = fn()
            else:
                out = fn()
        except LinswapError as exc:
            self.fail(f"{kind}: {exc.category}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        (self.traced_samples if self.traced else self.samples)[kind].append(elapsed)
        return out

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a correctness check; a failed check counts as a failure."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.fail(f"check {name}: {detail}")

    def rounds_until_deadline(self, round_fn, done=lambda: True) -> None:
        """Call round_fn until --seconds have passed and done() holds. With a
        tracer, odd rounds run traced, so traced and untraced samples come
        from the same stretch of time, and at least one round of each runs."""
        deadline = time.perf_counter() + self.seconds
        min_rounds = 2 if self.tracer is not None else 1
        while time.perf_counter() < deadline or not done() or self.rounds < min_rounds:
            self.traced = self.tracer is not None and self.rounds % 2 == 1
            if self.traced:
                self.tracer.install()
            try:
                round_fn()
            finally:
                if self.traced:
                    self.tracer.uninstall()
                self.traced = False
            self.calib_ms.append(calibration_probe_ms())
            self.rounds += 1
