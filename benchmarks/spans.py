"""Span tracing from outside the package.

A Tracer replaces public linswap functions and methods with wrappers that
record a span (name, start, end, parent) around each call, and puts the
originals back on uninstall. Nothing inside src/linswap changes: the wrappers
take effect because the package looks these names up at call time (module
attributes such as ``T.backpropagate``, globals such as ``feature_map_apply``
and class attributes for methods).

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict

from linswap import attention, checkpoint, model, tensor, training

# (owner, attribute, span name). The span names are the per-layer metric
# sources; run.LAYER_SPANS derives the per-layer metrics from them.
TARGETS = (
    (tensor, "backpropagate", "tensor.backward"),
    (training.AttentionTransfer, "transfer_loss", "training.transfer_loss"),
    (training, "blockwise_loss", "training.loss"),
    (training, "next_token_loss", "training.loss"),
    (training, "sample_batch", "training.sample_batch"),
    (training.AdamW, "step", "training.optimizer"),
    (model.Model, "forward", "model.forward"),
    (model.Model, "forward_teacher_forced", "model.forward"),
    (model.HybridSession, "prefill", "model.session"),
    (model.HybridSession, "step", "model.session"),
    (model.AttentionLayer, "project_qkv", "model.qkv_rope"),
    (model.Mlp, "forward", "model.mlp"),
    (model.RMSNorm, "forward", "model.norm"),
    (model.AttentionLayer, "heads_hybrid", "attention.hybrid"),
    (model.AttentionLayer, "heads_softmax", "attention.teacher_softmax"),
    (attention, "feature_map_apply", "attention.feature_map"),
    (attention, "hybrid_decode_step", "attention.decode_step"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)


class Tracer:
    def __init__(self, on_backward=None):
        # spans[i] = [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._on_backward = on_backward

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "tensor.backward" and tracer._on_backward is not None:
                tracer._on_backward(args[0])  # before the span: counting is not backward time
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def totals(self, root_prefix: str) -> dict[tuple[str, str], dict]:
        """Per (span name, parent span name), over the spans whose root span
        name starts with root_prefix: calls, inclusive seconds and self
        seconds (duration minus the time covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:  # a parent is always recorded before its children
                child_time[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out: dict[tuple[str, str], dict] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not self.spans[root[i]][0].startswith(root_prefix):
                continue
            key = (name, self.spans[parent][0] if parent >= 0 else "")
            agg = out[key]
            agg["calls"] += 1
            agg["incl"] += end - start
            agg["self"] += end - start - child_time[i]
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, start/end in seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent]) + "\n")
