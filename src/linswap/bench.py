"""Generation benchmark: throughput (new tokens * batch / total time) and
instrumented memory counters. Memory figures come from data-structure sizes,
not OS RSS, so the constant-state and linear-cache-growth assertions are
hardware-independent; wall-clock throughput is reported but host-specific.
A BenchResult's fields are the record `linswap bench` prints as JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attention import HybridDecodeState
from .errors import BadConfig, ConfigTooLarge
from .model import HybridSession, Model, SoftmaxSession
from .validation import check_fields

BENCH_MODES = ("hybrid", "softmax-baseline")


@dataclass
class BenchResult:
    mode: str
    batch_size: int
    prompt_len: int
    gen_len: int
    tokens_per_sec: float
    peak_state_bytes: int
    peak_cache_bytes: int
    prompt_cache_bytes: int
    wall_time: float


def _estimate_bytes(model: Model, mode: str, batch: int, prompt_len: int, gen_len: int) -> int:
    """The bytes the session allocates for a prompt_len prefill and gen_len
    steps, from the configs alone (nothing is allocated)."""
    c = model.config
    if mode == "softmax-baseline":
        return SoftmaxSession.projected_bytes(c, batch, prompt_len, gen_len)
    return sum(sum(HybridDecodeState.projected_bytes(batch, c.n_heads, blk.attn.hybrid_cfg, c.head_dim)) for blk in model.blocks)


def bench_generation(
    model: Model,
    mode: str,
    batch_size: int,
    prompt_len: int,
    gen_len: int,
    seed: int = 0,
    memory_budget_bytes: int | None = None,
) -> BenchResult:
    """Greedy-decode gen_len tokens per row and measure throughput and the
    instrumented state/cache byte counters."""
    check_fields(locals(), ("batch_size", "prompt_len", "gen_len"), ("seed",), {"mode": BENCH_MODES})
    if mode == "hybrid" and not model.converted:
        raise BadConfig("hybrid bench needs a converted model")
    if memory_budget_bytes is not None:
        projected = _estimate_bytes(model, mode, batch_size, prompt_len, gen_len)
        if projected > memory_budget_bytes:
            raise ConfigTooLarge(f"projected {projected} bytes exceeds budget {memory_budget_bytes}")

    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, 256, size=(batch_size, prompt_len))
    prompt[:, 0] = 256  # BOS

    if mode == "hybrid":
        session = HybridSession(model, batch_size)
    else:
        session = SoftmaxSession(model, batch_size)

    logits = session.prefill(prompt)
    prompt_cache = session.cache_bytes
    peak_state = session.state_bytes if mode == "hybrid" else 0
    peak_cache = session.cache_bytes

    start = time.perf_counter()
    for _ in range(gen_len):
        nxt = logits.argmax(-1)
        logits = session.step(nxt)
        peak_cache = max(peak_cache, session.cache_bytes)
        if mode == "hybrid":
            peak_state = max(peak_state, session.state_bytes)
    elapsed = time.perf_counter() - start

    return BenchResult(
        mode=mode,
        batch_size=batch_size,
        prompt_len=prompt_len,
        gen_len=gen_len,
        tokens_per_sec=gen_len * batch_size / elapsed,
        peak_state_bytes=peak_state,
        peak_cache_bytes=peak_cache,
        prompt_cache_bytes=prompt_cache,
        wall_time=elapsed,
    )
