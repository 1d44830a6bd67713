"""The three workloads. Each builds its inputs from the seed, times closed-loop
calls into linswap's public API, and checks the outputs.

Every workload reports its three operation kinds in the end-to-end slots
op1_min_ms, op2_min_ms and op3_min_ms (the fastest operation of the run, in
ms), so that all workloads emit the same metric names; OPS maps each slot to
the figure it holds, whose median and tail go into the table and the result
file.

    train-tiny   op1 transfer_step_ms          stage-1 step, terraced window
                 op2 transfer_standard_step_ms stage-1 step, standard window
                 op3 adjust_step_ms            stage-2 (LoRA) step
    long-prompt  op1 prefill_ms_L128           time to first token, b1
                 op2 prefill_ms_L1024
                 op3 prefill_ms_L4096
    decode       op1 decode_ms_tok_b1          gap between tokens, 128-token prompt
                 op2 decode_ms_tok_b8
                 op3 decode_ms_tok_b1_L2048    the same after a 2048-token prompt
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

from linswap import checkpoint as ckpt
from linswap import model as M
from linswap import tensor as T
from linswap import training as tr
from linswap.attention import terraced_prefill_chunked

from harness import OUT_DIR, Run

SETUPS = 5  # set-ups per run; setup_s is their median
LOGIT_TOL = 1e-5  # acceptance criterion 4: decode vs prefill, max abs deviation

# configs/tiny.ini shapes, written out so that editing the demo config does
# not silently change the benchmark.
TINY = dict(vocab_size=258, n_layers=2, n_heads=2, head_dim=16, max_seq_len=512)
TINY_WINDOW = 8
TINY_BATCH, TINY_SEQ = 8, 64
TRANSFER_LR, ADJUST_LR = 1e-2, 1e-3
LORA_RANK, LORA_ALPHA = 8, 16.0
CORPUS_TOKENS = 20_000
QUALITY_STEPS = 60  # quality figures are read after exactly this many steps

# The "wide desk" shape of the serving workloads.
WIDE = dict(vocab_size=258, n_layers=2, n_heads=4, head_dim=32, max_seq_len=4096)
WIDE_WINDOW = 64


def _snapshot(model: M.Model) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.parameters().items()}


def _changed(model: M.Model, before: dict[str, np.ndarray]) -> set[str]:
    return {name for name, t in model.parameters().items() if not np.array_equal(t.data, before[name])}


def _random_prompt(rng: np.random.Generator, batch: int, length: int) -> np.ndarray:
    ids = rng.integers(0, 256, size=(batch, length))
    ids[:, 0] = M.BOS_ID
    return ids


# --------------------------------------------------------------------------
# train-tiny
# --------------------------------------------------------------------------


# Parameters each stage may change, by name suffix. Written out here, not
# taken from the trainers, so that a trainer that starts to update a frozen
# weight fails the check instead of widening it.
STAGE1_TRAINABLE = ("gamma_raw", "phi_q.weight", "phi_q.bias", "phi_k.weight", "phi_k.bias")
STAGE2_TRAINABLE = ("lora_a", "lora_b")


class _Arm:
    """One model with its trainer, optimizer and batch stream."""

    def __init__(self, model, trainer, optimizer, rng, trainable: tuple[str, ...]):
        self.model = model
        self.trainer = trainer
        self.optimizer = optimizer
        self.rng = rng
        self.trainable = trainable  # name suffixes of the parameters allowed to change
        self.before = _snapshot(model)
        self.steps = 0  # successful steps, warm-up included
        self.attempts = 0  # timed steps attempted


class TrainTiny:
    name = "train-tiny"
    OPS = (
        ("op1_min_ms", "transfer", "transfer_step_ms"),
        ("op2_min_ms", "transfer_standard", "transfer_standard_step_ms"),
        ("op3_min_ms", "adjust", "adjust_step_ms"),
    )

    def setup(self, run: Run) -> None:
        seed = run.seed
        self.corpus = tr.synthetic_corpus(CORPUS_TOKENS, seed)
        cfg = M.ModelConfig(**TINY, seed=seed)
        self.arms = {}
        for i, (kind, mode) in enumerate((("transfer", "terraced"), ("transfer_standard", "standard"))):
            model = M.convert_model(M.build_model(cfg), M.HybridSpec(TINY_WINDOW, mode, "t2r"))
            params = tr.feature_map_parameters(model)
            trainer = tr.AttentionTransfer(lr=TRANSFER_LR, batch_size=TINY_BATCH, seq_len=TINY_SEQ)
            optimizer = tr.AdamW(params, lr=TRANSFER_LR, clip_norm=trainer.clip_norm)
            self.arms[kind] = _Arm(model, trainer, optimizer, np.random.default_rng((seed, i)), STAGE1_TRAINABLE)
        model = M.convert_model(M.build_model(cfg), M.HybridSpec(TINY_WINDOW, "terraced", "t2r"))
        M.freeze_feature_maps(model)
        M.lora_attach(model, rank=LORA_RANK, alpha=LORA_ALPHA, seed=seed)
        params = M.adapter_parameters(model)
        trainer = tr.LoraAdjust(lr=ADJUST_LR, batch_size=TINY_BATCH, seq_len=TINY_SEQ, rank=LORA_RANK, alpha=LORA_ALPHA)
        optimizer = tr.AdamW(params, lr=ADJUST_LR, clip_norm=trainer.clip_norm)
        self.arms["adjust"] = _Arm(model, trainer, optimizer, np.random.default_rng((seed, 2)), STAGE2_TRAINABLE)

        self.mse_start = self._transfer_mse()
        self.loss_start = self._adjust_loss()
        self.mse_final = self.loss_final = None
        for _ in range(2):  # warm-up: first calls allocate optimizer state and caches
            for kind in self.arms:
                self._step(kind)

    def _transfer_mse(self) -> float:
        arm = self.arms["transfer"]
        report = tr.layerwise_diagnostics(arm.model, self.corpus, 4, TINY_SEQ, seed=arm.trainer.seed + 1)
        return float(np.mean(report.layer_mse))

    def _adjust_loss(self) -> float:
        return tr.eval_next_token_loss(self.arms["adjust"].model, self.corpus, TINY_BATCH, TINY_SEQ)

    def _step(self, kind: str) -> float:
        """One iteration of the trainer's fit loop: draw a batch, then
        zero_grad + forward + backward + AdamW."""
        arm = self.arms[kind]
        inputs, targets = tr.sample_batch(self.corpus, TINY_BATCH, TINY_SEQ, arm.rng)
        if kind == "adjust":
            value = arm.trainer.step(arm.model, inputs, targets, arm.optimizer)
        else:
            value = arm.trainer.step(arm.model, inputs, arm.optimizer)
        arm.steps += 1
        return value

    def round(self, run: Run) -> None:
        for kind, arm in self.arms.items():
            arm.attempts += 1
            value = run.op(kind, lambda: self._step(kind))
            if value is not None and not np.isfinite(value):
                run.fail(f"{kind}: non-finite loss {value}")
            if arm.steps == QUALITY_STEPS and value is not None:  # read outside the timed step
                if kind == "transfer":
                    self.mse_final = self._transfer_mse()
                elif kind == "adjust":
                    self.loss_final = self._adjust_loss()

    def done(self) -> bool:
        # attempts, not successes: a run whose steps keep failing still ends
        return all(arm.attempts >= QUALITY_STEPS for arm in self.arms.values())

    def finish(self, run: Run) -> None:
        for kind, arm in self.arms.items():
            changed = _changed(arm.model, arm.before)
            stray = sorted(name for name in changed if not name.endswith(arm.trainable))
            label = "stage2_changes_only_lora" if kind == "adjust" else f"stage1_{kind}_base_frozen"
            run.check(label, not stray and bool(changed), f"changed outside the trainable set: {stray[:4]}; trained: {len(changed)}")
        for label, start, final in (
            ("transfer_mse_drops", self.mse_start, self.mse_final),
            ("adjust_loss_drops", self.loss_start, self.loss_final),
        ):
            run.check(label, final is not None and final < start, f"{start} -> {final} after {QUALITY_STEPS} steps")
        run.notes.update(
            quality_steps=QUALITY_STEPS,
            transfer_mse_start=self.mse_start,
            transfer_mse_final=self.mse_final,
            adjust_loss_start=self.loss_start,
            adjust_loss_final=self.loss_final,
        )
        run.counts["training.transfer_mse_final"] = self.mse_final or 0.0
        run.counts["training.adjust_loss_final"] = self.loss_final or 0.0


# --------------------------------------------------------------------------
# long-prompt and decode: the wide model, loaded from an LOLC checkpoint
# --------------------------------------------------------------------------


class _WideModel:
    """Set-up shared by the serving workloads: build the wide model, attach
    LoRA with non-zero B (as a stage-2 checkpoint has it), write it as LOLC
    and serve from the loaded copy."""

    def build(self, run: Run) -> None:
        seed = run.seed
        source = M.build_model(M.ModelConfig(**WIDE, seed=seed))
        M.convert_model(source, M.HybridSpec(WIDE_WINDOW, "terraced", "hedgehog"))
        M.lora_attach(source, rank=LORA_RANK, alpha=LORA_ALPHA, seed=seed)
        rng = np.random.default_rng((seed, 1))
        for name, t in M.adapter_parameters(source).items():
            if name.endswith("lora_b"):
                t.data = rng.normal(0.0, 0.02, size=t.shape).astype(np.float32)
        OUT_DIR.mkdir(exist_ok=True)
        self.path = str(OUT_DIR / f"{run.workload}.lolc")
        ckpt.save_checkpoint(source, self.path)
        self.model = ckpt.load_checkpoint(self.path)
        self.source = source

    def check_checkpoint(self, run: Run) -> None:
        saved = self.source.parameters()
        loaded = self.model.parameters()
        same = saved.keys() == loaded.keys() and all(np.array_equal(saved[n].data, loaded[n].data) for n in saved)
        run.check("checkpoint_roundtrip_bit_exact", same)
        run.counts["checkpoint.file_bytes"] = os.path.getsize(self.path)


class LongPrompt(_WideModel):
    name = "long-prompt"
    OPS = (
        ("op1_min_ms", "L128", "prefill_ms_L128"),
        ("op2_min_ms", "L1024", "prefill_ms_L1024"),
        ("op3_min_ms", "L4096", "prefill_ms_L4096"),
    )
    LENGTHS = {"L128": 128, "L1024": 1024, "L4096": 4096}
    # One round spends about the same time on each length.
    ROUND = ["L4096"] + (["L1024"] + ["L128"] * 6) * 4
    PROMPTS_PER_LENGTH = 4

    def setup(self, run: Run) -> None:
        self.build(run)
        rng = np.random.default_rng(run.seed)
        self.prompts = {
            kind: [_random_prompt(rng, 1, n) for _ in range(self.PROMPTS_PER_LENGTH)]
            for kind, n in self.LENGTHS.items()
        }
        self.first_logits = {}
        self.calls = dict.fromkeys(self.LENGTHS, 0)
        self.mismatches = 0
        for kind in self.LENGTHS:  # warm-up
            self._prefill(self.prompts[kind][0])

    def _prefill(self, ids: np.ndarray) -> np.ndarray:
        return M.HybridSession(self.model, ids.shape[0]).prefill(ids)

    def round(self, run: Run) -> None:
        for kind in self.ROUND:
            i = self.calls[kind] % self.PROMPTS_PER_LENGTH
            self.calls[kind] += 1
            logits = run.op(kind, lambda: self._prefill(self.prompts[kind][i]))
            if logits is None:
                continue
            # every prompt is served several times: the answer must not drift
            ref = self.first_logits.setdefault((kind, i), logits)
            if not np.isfinite(logits).all() or np.abs(logits - ref).max() > LOGIT_TOL:
                self.mismatches += 1
                run.fail(f"{kind}: prefill logits non-finite or not repeatable")

    def done(self) -> bool:
        return True

    def finish(self, run: Run) -> None:
        self.check_checkpoint(run)
        run.notes["prefill_logit_mismatches"] = self.mismatches
        # Peak scratch of the chunked kernel on the served q/k/v: it must be a
        # function of the window, so L1024 and L4096 must agree.
        peaks = {}
        blk = self.model.blocks[0]
        with T.no_grad():
            for kind in ("L1024", "L4096"):
                x = self.model.embed_tokens(self.prompts[kind][0])
                q, k, v = blk.attn.project_qkv(blk.norm1.forward(x))
                _, stats = terraced_prefill_chunked(q, k, v, blk.attn.hybrid_cfg, with_stats=True)
                peaks[kind] = stats["peak_chunk_bytes"]
        run.check("peak_chunk_bytes_independent_of_length", peaks["L1024"] == peaks["L4096"], str(peaks))
        run.counts["attention.peak_chunk_bytes"] = peaks["L4096"]


class Decode(_WideModel):
    name = "decode"
    OPS = (
        ("op1_min_ms", "b1", "decode_ms_tok_b1"),
        ("op2_min_ms", "b8", "decode_ms_tok_b8"),
        ("op3_min_ms", "b1_L2048", "decode_ms_tok_b1_L2048"),
    )
    # kind -> (batch, prompt length, generated tokens). The generations cross
    # several w = 64 boundaries, so terraced state folds are in the cost.
    SESSIONS = {"b1": (1, 128, 256), "b8": (8, 128, 256), "b1_L2048": (1, 2048, 128)}

    def setup(self, run: Run) -> None:
        self.build(run)
        self.rng = np.random.default_rng(run.seed)
        self.digests = {}
        self.byte_counts = {}  # kind -> (state, cache) bytes at the first and last step of its first session
        self.bytes_moved = []  # sessions whose counters differ between first and last step
        self.worst_dev = 0.0
        for batch, prompt_len, _ in self.SESSIONS.values():  # warm-up
            session = M.HybridSession(self.model, batch)
            logits = session.prefill(_random_prompt(self.rng, batch, prompt_len))
            for _ in range(4):
                logits = session.step(logits.argmax(-1))

    def _check_positions(self, prompt_len: int, n_new: int) -> list[int]:
        """Positions just before and just after every w-boundary fold, the
        first and last step, and two drawn from the seed."""
        w = WIDE_WINDOW
        last = prompt_len + n_new - 1
        picks = {prompt_len, last}
        for m in range(-(-prompt_len // w) * w, last + 1, w):
            picks.update(p for p in (m - 1, m) if prompt_len <= p <= last)
        picks.update(int(p) for p in self.rng.integers(prompt_len, last + 1, size=2))
        return sorted(picks)

    def _session(self, run: Run, kind: str, check: bool) -> None:
        batch, prompt_len, n_new = self.SESSIONS[kind]
        prompt = _random_prompt(self.rng, batch, prompt_len)
        session = M.HybridSession(self.model, batch)
        logits = session.prefill(prompt)  # time to first token is long-prompt's figure
        positions = set(self._check_positions(prompt_len, n_new)) if check else set()
        fed = []
        kept = {}
        counters = []
        for i in range(n_new):
            token = logits.argmax(-1)
            fed.append(token)
            logits = run.op(kind, lambda: session.step(token))
            if logits is None:
                return
            if not np.isfinite(logits).all():
                run.fail(f"{kind}: non-finite logits at position {prompt_len + i}")
                return
            if prompt_len + i in positions:
                kept[prompt_len + i] = logits
            if i in (0, n_new - 1):
                counters.append((session.state_bytes, session.cache_bytes))
        self.byte_counts.setdefault(kind, counters)
        if counters[0] != counters[-1]:
            self.bytes_moved.append((kind, counters[0], counters[-1]))
        if not check:
            return
        seq = np.concatenate([prompt, np.stack(fed, axis=1)], axis=1)
        self.digests[kind] = hashlib.sha256(seq[:, prompt_len:].astype(np.int64).tobytes()).hexdigest()[:16]
        for pos, got in sorted(kept.items()):
            ref = M.HybridSession(self.model, batch).prefill(seq[:, : pos + 1])
            dev = float(np.abs(ref - got).max())
            self.worst_dev = max(self.worst_dev, dev)
            run.check(f"decode_matches_prefill_{kind}_pos{pos}", dev <= LOGIT_TOL, f"max abs dev {dev:.2e}")

    def round(self, run: Run) -> None:
        check = run.rounds == 0
        for kind in self.SESSIONS:
            self._session(run, kind, check)

    def done(self) -> bool:
        return True

    def finish(self, run: Run) -> None:
        self.check_checkpoint(run)
        run.check("decode_bytes_constant", not self.bytes_moved, str(self.bytes_moved[:4]))
        state, cache = self.byte_counts["b8"][0]
        run.counts["model.decode_state_bytes"] = state
        run.counts["model.decode_cache_bytes"] = cache
        run.notes.update(greedy_digests=self.digests, decode_vs_prefill_max_dev=self.worst_dev)
        if run.tracer is not None:
            run.counts["model.softmax_decode_ms_tok_b8"] = self._softmax_reference()

    def _softmax_reference(self) -> float:
        """Median ms/token of the softmax KV-cache session on a b8 128-token
        prompt: an ungated reference point."""
        batch, prompt_len, n_new = self.SESSIONS["b8"]
        session = M.SoftmaxSession(self.model, batch)
        logits = session.prefill(_random_prompt(self.rng, batch, prompt_len))
        times = []
        for _ in range(n_new):
            token = logits.argmax(-1)
            start = time.perf_counter()
            logits = session.step(token)
            times.append(time.perf_counter() - start)
        return float(np.median(times) * 1e3)


WORKLOADS = {cls.name: cls for cls in (TrainTiny, LongPrompt, Decode)}
