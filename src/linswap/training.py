"""Two-stage training: attention transfer (stage 1) teaches the swapped hybrid
layers to mimic the frozen softmax attentions; low-rank adjusting (stage 2)
finetunes LoRA adapters with next-token cross-entropy on the fully swapped
model. Both stages are estimator-shaped (fit / get_params / set_params).

Both fits and the toy base pretraining run the one loop `_fit_loop` (seeded
`sample_batch` crops, one stage step each, every `eval_every`-th loss fed to
the plateau schedule) and the one guarded update `_update` (a NaN/Inf loss,
which `T.backpropagate` names by the layer and op that first produced one, or
a non-finite gradient norm becomes `DivergedLoss`). The optimizer constants
are fixed: AdamW with betas 0.9/0.999, eps 1e-8 and no weight decay; the
plateau schedule halves the learning rate after 10 stale evals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import _check_stochastic, attention_entropy, hybrid_attention_weights, sample_esl
from .base import ParamsMixin
from .errors import (
    BadConfig,
    DivergedLoss,
    IndivisibleBlocks,
    NonFiniteResult,
    ShapeMismatch,
)
from .model import LORA_TARGETS, Model, adapter_parameters, freeze_feature_maps, lora_attach
from .tensor import Tensor
from .validation import check_converted, check_fields, check_positive, check_token_array

LOSS_KINDS = ("output_mse", "weight_xent", "combined")


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _check_paired(ys, y_hats):
    if len(ys) != len(y_hats) or not ys:
        raise ShapeMismatch(f"{len(ys)} teacher layers vs {len(y_hats)} student layers")
    for y, y_hat in zip(ys, y_hats):
        if y.shape != y_hat.shape:
            raise ShapeMismatch(f"layer outputs {y.shape} vs {y_hat.shape}")


def per_layer_mse(y, y_hat) -> Tensor:
    """sum over heads of mean-squared error, reduced (head, position, dim)."""
    diff = y_hat - (y.detach() if isinstance(y, Tensor) else Tensor(y))
    return (diff * diff).mean(axis=(0, 2, 3)).sum()


def blockwise_loss(ys: list, y_hats: list, block_size: int) -> list[Tensor]:
    """Per-block transfer losses: (1 / (b H)) sums over each b-layer block."""
    _check_paired(ys, y_hats)
    m = len(ys)
    if block_size < 1 or m % block_size:
        raise IndivisibleBlocks(f"{m} layers not divisible by block size {block_size}")
    heads = ys[0].shape[1]
    out = []
    for start in range(0, m, block_size):
        block = None
        for y, y_hat in zip(ys[start : start + block_size], y_hats[start : start + block_size]):
            layer = per_layer_mse(y, y_hat)
            block = layer if block is None else block + layer
        out.append(block * (1.0 / (block_size * heads)))
    return out


def hedgehog_weight_xent_loss(a, a_hat) -> Tensor:
    """Cross-entropy between teacher softmax weights and student weights,
    -sum a log a_hat per row, averaged over rows/heads/batch, with a taken in
    a_hat's dtype. Student entries are clamped at 1e-12 before the log."""
    a_hat_t = a_hat if isinstance(a_hat, Tensor) else Tensor(a_hat)
    a_data = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=a_hat_t.dtype)
    if a_data.shape != a_hat_t.shape:
        raise ShapeMismatch(f"weight tensors {a_data.shape} vs {a_hat_t.shape}")
    _check_stochastic(a_data)
    if np.isfinite(a_hat_t.data).all():  # a NaN/Inf student is the tape's to name (T.backpropagate)
        _check_stochastic(a_hat_t.data)
    clamped = T.masked_fill(a_hat_t, a_hat_t.data < 1e-12, 1e-12)
    row_xent = -(Tensor(a_data) * T.log(clamped)).sum(-1)
    return row_xent.mean()


def next_token_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token cross-entropy; logits [b, l, vocab], targets [b, l] already shifted by one."""
    if logits.ndim != 3:
        raise ShapeMismatch(f"logits {logits.shape} must be [b, l, vocab]")
    return T.cross_entropy(logits, targets)


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------


class AdamW:
    """AdamW (betas 0.9/0.999, eps 1e-8, no weight decay) with global-norm
    gradient clipping; parameter order is fixed by the insertion order of the
    name -> tensor dict, so runs are bit-reproducible. A non-finite global
    gradient norm raises DivergedLoss before anything changes, naming the
    parameter at which the sum of squares turned non-finite (the first one
    with a NaN/Inf gradient)."""

    def __init__(self, params: dict[str, Tensor], lr: float, clip_norm: float | None = 1.0):
        self.params = dict(params)
        self.lr = float(lr)
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {n: np.zeros_like(t.data) for n, t in self.params.items()}
        self._v = {n: np.zeros_like(t.data) for n, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def _clip(self) -> float:
        total, first = 0.0, None
        for name, t in self.params.items():
            if t.grad is not None:
                total += float((t.grad.astype(np.float64) ** 2).sum())
                if first is None and not math.isfinite(total):
                    first = name
        norm = float(np.sqrt(total))
        if first is not None:  # before any gradient, moment or parameter changes
            raise DivergedLoss(f"gradient norm {norm} (first at {first})")
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for t in self.params.values():
                if t.grad is not None:
                    t.grad *= scale
        return norm

    def step(self) -> float:
        grad_norm = self._clip()
        self.t += 1
        b1, b2 = 0.9, 0.999
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, t in self.params.items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
            t.data = t.data - self.lr * update.astype(t.data.dtype)
        return grad_norm


class ReduceLROnPlateau:
    """Halve the learning rate once the eval metric has not improved by 1e-4
    (relative) for more than 10 evals in a row."""

    def __init__(self, optimizer: AdamW):
        self.optimizer = optimizer
        self.best = np.inf
        self.stale = 0

    def on_eval(self, metric: float) -> None:
        if metric < self.best * (1.0 - 1e-4):
            self.best = metric
            self.stale = 0
        else:
            self.stale += 1
            if self.stale > 10:
                self.optimizer.lr *= 0.5
                self.stale = 0


# --------------------------------------------------------------------------
# data
# --------------------------------------------------------------------------


def synthetic_corpus(n_tokens: int, seed: int = 0) -> np.ndarray:
    """A tiny byte language: documents repeat one of a few short motifs with a
    newline separator, so a competent model drives next-token loss well below
    the uniform baseline."""
    check_fields(locals(), ("n_tokens",), ("seed",))
    from .model import tokenize

    rng = np.random.default_rng(seed)
    motifs = [bytes(rng.integers(65, 91, size=rng.integers(3, 8)).tolist()) for _ in range(8)]
    pieces = []
    total = 0
    while total < n_tokens:
        motif = motifs[int(rng.integers(0, len(motifs)))]
        reps = int(rng.integers(3, 9))
        doc = (motif + b"\n") * reps
        ids = tokenize(doc)
        pieces.append(ids)
        total += ids.size
    return np.concatenate(pieces)[:n_tokens].astype(np.uint32)


def sample_batch(corpus: np.ndarray, batch_size: int, seq_len: int, rng: np.random.Generator):
    """Random crops of seq_len + 1 tokens -> (inputs [b, l], targets [b, l])."""
    if corpus.size < seq_len + 1:
        raise BadConfig(f"corpus of {corpus.size} tokens cannot yield seq_len {seq_len}")
    starts = rng.integers(0, corpus.size - seq_len, size=batch_size)
    ids = np.stack([corpus[s : s + seq_len + 1] for s in starts]).astype(np.int64)
    return ids[:, :-1], ids[:, 1:]


def eval_next_token_loss(model: Model, corpus: np.ndarray, batch_size: int = 8, seq_len: int = 64, seed: int = 1234) -> float:
    """Mean next-token loss over four seeded crops, without a tape; a NaN/Inf
    mean raises NonFiniteResult."""
    check_fields(locals(), ("batch_size", "seq_len"), ("seed",))
    rng = np.random.default_rng(seed)
    losses = []
    with T.no_grad():
        for _ in range(4):
            inputs, targets = sample_batch(corpus, batch_size, seq_len, rng)
            logits = model.forward(inputs)
            losses.append(next_token_loss(logits, targets).item())
    return float(T.finite(np.mean(losses), "eval_loss"))


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


@dataclass
class TransferReport:
    train_losses: list[float] = field(default_factory=list)
    layer_mse: list[float] = field(default_factory=list)
    layer_entropy: list[float] = field(default_factory=list)
    mean_esl: float = 0.0
    wall_time: float = 0.0

    def rows(self) -> list[dict]:
        return [
            {"layer": i, "eval_mse": self.layer_mse[i], "mean_entropy": self.layer_entropy[i]}
            for i in range(len(self.layer_mse))
        ]


def layerwise_diagnostics(model: Model, eval_tokens: np.ndarray, batch_size: int = 4, seq_len: int = 64, seed: int = 7) -> TransferReport:
    """Per-layer eval MSE and teacher-attention entropy plus mean sample ESL.
    A NaN/Inf layer MSE raises NonFiniteResult naming the layer (the teacher's
    figures come from the engine, which checks its own)."""
    check_converted(model)
    check_fields(locals(), ("batch_size", "seq_len"), ("seed",))
    rng = np.random.default_rng(seed)
    inputs, _ = sample_batch(np.asarray(eval_tokens), batch_size, seq_len, rng)
    with T.no_grad():
        records = model.forward_teacher_forced(inputs, return_weights=True)
    heads = records[0]["y"].shape[1]
    report = TransferReport()
    weight_list = []
    for i, rec in enumerate(records):
        report.layer_mse.append(T.finite(per_layer_mse(rec["y"], rec["y_hat"]).item() / heads, f"layers.{i} transfer_mse"))
        report.layer_entropy.append(float(attention_entropy(rec["a"]).mean()))
        weight_list.append(rec["a"])
    report.mean_esl = sample_esl(weight_list)
    return report


def feature_map_parameters(model: Model) -> dict[str, Tensor]:
    """Stage-1 trainables: feature-map weights/biases and gamma_raw, nothing else."""
    suffixes = ("gamma_raw", "phi_q.weight", "phi_q.bias", "phi_k.weight", "phi_k.bias")
    out = {n: t for n, t in model.parameters().items() if n.endswith(suffixes)}
    if not out:
        raise BadConfig("model has no feature-map parameters; convert it first")
    for t in out.values():
        t.requires_grad = True
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
    return out


# --------------------------------------------------------------------------
# the one update step and the one training loop of every stage
# --------------------------------------------------------------------------


def _update(optimizer: AdamW, loss_fn) -> float:
    """One guarded update: zero_grad, then loss and backward under one
    np.errstate, then the AdamW step. A NaN/Inf loss (T.backpropagate names
    the layer and op that first produced one) or a non-finite gradient norm
    raises DivergedLoss before the parameters move. Returns the loss value."""
    optimizer.zero_grad()
    try:
        with np.errstate(all="ignore"):
            loss = loss_fn()
            T.backpropagate(loss)
    except NonFiniteResult as exc:
        raise DivergedLoss(str(exc)) from exc
    optimizer.step()
    return loss.item()


def _fit_loop(prepare, step, corpus: np.ndarray, steps: int, batch_size: int, seq_len: int, seed: int, eval_every: int = 0):
    """The training loop of every stage; returns (losses, optimizer). prepare()
    sets the model up and returns the optimizer after the checks, so a rejected
    fit leaves the model as it was. Each of `steps` crops that sample_batch
    draws with an rng seeded by `seed` goes to step(inputs, targets, optimizer),
    which returns the loss; every eval_every-th loss (0 = none) drives the
    plateau schedule. The schedule watches the loss of the training batch
    itself, not of a held-out batch: a held-out forward would add a code path
    and move the results of acceptance criteria 08 and 09."""
    if corpus.size < seq_len + 1:
        raise BadConfig(f"corpus of {corpus.size} tokens cannot yield seq_len {seq_len}")
    optimizer = prepare()
    rng = np.random.default_rng(seed)
    plateau = ReduceLROnPlateau(optimizer)
    losses = []
    for step_idx in range(steps):
        inputs, targets = sample_batch(corpus, batch_size, seq_len, rng)
        losses.append(step(inputs, targets, optimizer))
        if eval_every and (step_idx + 1) % eval_every == 0:
            plateau.on_eval(losses[-1])
    return losses, optimizer


# --------------------------------------------------------------------------
# stage 1: attention transfer
# --------------------------------------------------------------------------


@dataclass(eq=False)
class AttentionTransfer(ParamsMixin):
    """Trains feature maps and gamma_raw to make hybrid attention mimic the
    frozen softmax attention, layer by layer, with teacher forcing.

    Block training folds per-block losses back to the joint normalization
    (factor block_size / n_layers), so per-parameter gradients are identical
    for every block size; teacher forcing already decouples the blocks.
    BadConfig unless steps, batch_size, seq_len, clip_norm and a set block_size
    are > 0, lr, w_mse, w_xent, eval_every and seed >= 0 and loss in LOSS_KINDS.
    """

    lr: float = 1e-2
    steps: int = 200
    batch_size: int = 8
    seq_len: int = 64
    block_size: int | None = None
    loss: str = "output_mse"
    w_mse: float = 1000.0
    w_xent: float = 1.0
    clip_norm: float = 1.0
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        non_negative = ("lr", "w_mse", "w_xent", "eval_every", "seed")
        check_fields(vars(self), ("steps", "batch_size", "seq_len", "clip_norm"), non_negative, {"loss": LOSS_KINDS})
        if self.block_size is not None:
            check_positive("block_size", self.block_size)

    # -- losses over a teacher-forced forward -------------------------------

    def check_settings(self, model: Model) -> int:
        """The block size checked against model's layer count; returns it
        (None -> all layers in one block)."""
        m = model.config.n_layers
        b = self.block_size if self.block_size is not None else m
        if b < 1 or m % b:
            raise IndivisibleBlocks(f"{m} layers not divisible by block size {b}")
        return b

    def transfer_loss(self, model: Model, inputs: np.ndarray) -> tuple[Tensor, float]:
        """Total training loss for one batch plus its output-MSE component."""
        kind = self.loss
        b = self.check_settings(model)
        m = model.config.n_layers
        records = model.forward_teacher_forced(inputs, return_weights=kind != "output_mse")
        ys = [r["y"] for r in records]
        y_hats = [r["y_hat"] for r in records]

        blocks = blockwise_loss(ys, y_hats, b)
        mse_total = blocks[0] * (b / m)
        for blk in blocks[1:]:
            mse_total = mse_total + blk * (b / m)

        if kind == "output_mse":
            return mse_total, mse_total.item()
        xent_total = None
        for i, (r, blk) in enumerate(zip(records, model.blocks)):
            with T.scope(f"layers.{i}"):
                a_hat = hybrid_attention_weights(Tensor(r["q"]), Tensor(r["k"]), Tensor(r["v"]), blk.attn.hybrid_cfg)
                layer_xent = hedgehog_weight_xent_loss(r["a"], a_hat) * (1.0 / m)
            xent_total = layer_xent if xent_total is None else xent_total + layer_xent
        if kind == "weight_xent":
            return xent_total, mse_total.item()
        return mse_total * self.w_mse + xent_total * self.w_xent, mse_total.item()

    def step(self, model: Model, inputs: np.ndarray, optimizer: AdamW) -> float:
        """One teacher-forced forward/backward/update; returns the loss value."""
        return _update(optimizer, lambda: self.transfer_loss(model, inputs)[0])

    def fit(self, model: Model, corpus) -> "AttentionTransfer":
        check_converted(model)
        corpus = check_token_array(corpus, model.config.vocab_size)
        self.check_settings(model)
        start = time.perf_counter()
        losses, optimizer = _fit_loop(
            lambda: AdamW(feature_map_parameters(model), lr=self.lr, clip_norm=self.clip_norm),
            lambda inputs, _, optimizer: self.step(model, inputs, optimizer),
            corpus, self.steps, self.batch_size, self.seq_len, self.seed, self.eval_every,
        )
        report = layerwise_diagnostics(model, corpus, min(self.batch_size, 4), self.seq_len, seed=self.seed + 1)
        report.train_losses = losses
        report.wall_time = time.perf_counter() - start
        self.report_ = report
        self.optimizer_ = optimizer
        return self


# --------------------------------------------------------------------------
# stage 2: low-rank adjusting
# --------------------------------------------------------------------------


@dataclass(eq=False)
class LoraAdjust(ParamsMixin):
    """Next-token finetuning of LoRA adapters on the fully swapped model.

    Feature maps and gamma are frozen on entry; only adapter matrices train.
    BadConfig unless steps, batch_size, seq_len, clip_norm and rank are > 0,
    lr, eval_every and seed >= 0 and each of targets in LORA_TARGETS.
    """

    lr: float = 1e-4
    steps: int = 500
    batch_size: int = 8
    seq_len: int = 64
    rank: int = 8
    alpha: float = 16.0
    targets: tuple[str, ...] = LORA_TARGETS
    clip_norm: float = 1.0
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        positive = ("steps", "batch_size", "seq_len", "clip_norm", "rank")
        check_fields(vars(self), positive, ("lr", "eval_every", "seed"), {"targets": LORA_TARGETS})

    def step(self, model: Model, inputs: np.ndarray, targets: np.ndarray, optimizer: AdamW) -> float:
        adapter_parameters(model)  # AdaptersMissing when none attached
        return _update(optimizer, lambda: next_token_loss(model.forward(inputs), targets))

    def fit(self, model: Model, corpus) -> "LoraAdjust":
        check_converted(model)
        corpus = check_token_array(corpus, model.config.vocab_size)

        def prepare():
            if model.lora_meta is None:
                lora_attach(model, rank=self.rank, alpha=self.alpha, targets=tuple(self.targets), seed=self.seed)
            freeze_feature_maps(model)
            return AdamW(adapter_parameters(model), lr=self.lr, clip_norm=self.clip_norm)

        start = time.perf_counter()
        self.train_losses_, optimizer = _fit_loop(
            prepare,
            lambda inputs, targets, optimizer: self.step(model, inputs, targets, optimizer),
            corpus, self.steps, self.batch_size, self.seq_len, self.seed, self.eval_every,
        )
        self.wall_time_ = time.perf_counter() - start
        self.optimizer_ = optimizer
        return self


# --------------------------------------------------------------------------
# base-model pretraining (toy teacher for experiments)
# --------------------------------------------------------------------------


def pretrain_base(
    model: Model,
    corpus: np.ndarray,
    steps: int,
    lr: float = 3e-3,
    batch_size: int = 8,
    seq_len: int = 64,
    clip_norm: float = 1.0,
    seed: int = 0,
) -> list[float]:
    """Full-parameter next-token training of the softmax base model. This is
    experiment scaffolding (a desk-scale stand-in for a pretrained checkpoint),
    not part of either linearizing stage. BadConfig unless steps, batch_size,
    seq_len and clip_norm are > 0 and lr and seed >= 0."""
    check_fields(locals(), ("steps", "batch_size", "seq_len", "clip_norm"), ("lr", "seed"))
    corpus = check_token_array(corpus, model.config.vocab_size)

    def prepare():
        model.set_all_trainable(True)
        return AdamW(model.parameters(), lr=lr, clip_norm=clip_norm)

    return _fit_loop(
        prepare,
        lambda inputs, targets, optimizer: _update(optimizer, lambda: next_token_loss(model.forward(inputs), targets)),
        corpus, steps, batch_size, seq_len, seed,
    )[0]
