"""A small decoder-only transformer with Llama-shaped blocks (pre-RMSNorm,
rotary attention, gated MLP, untied head), whose softmax attention layers can
be swapped for hybrid linear + sliding-window layers, plus LoRA adapters and a
byte-level tokenizer.

Model.forward and the stage-1 student run on the autograd Tensor path.
Generation and the frozen stage-1 teacher run on a numpy engine built from
the model: the norm gains, MLP weights and head as arrays, and sigmoid(gamma)
cached. Both paths project alike: a LoRA adapter is merged into its base
weight by one float32 expression (Projection.merged), on the tape at every
forward and in the engine once, and q, k, v come from one matmul over the
fused wq|wk|wv. Sessions share one engine per set of parameter arrays
(_Engine.of), and a session keeps the engine it was handed, so it serves the
weights as they were when it was built. The engine computes only what is
read: its last layer serves the rows it is asked for (_Engine.steps rows),
one per sequence in a step and in a prefill's last segment, and none in the
prefill's other segments, where that layer only advances its state.

Parameter count closed form (asserted in tests):

    vocab*D + M*(4*D^2 + 3*D*Dh + 2*D) + D + D*vocab

with D = n_heads * head_dim and Dh = round(mlp_hidden_mult * D).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import attention
from . import tensor as T
from .attention import (
    FeatureMapParams,
    HybridArrays,
    HybridAttnConfig,
    HybridDecodeState,
    default_feature_dim,
    hybrid_attention_prefill,
    make_hybrid_config,
    rope_angles,
    softmax_attention,
)
from .errors import (
    AdaptersMissing,
    AlreadyConverted,
    BadConfig,
    DuplicateAdapter,
    InvalidConfig,
    NotConverted,
    PromptTooLong,
    ShapeMismatch,
    UnknownId,
)
from .tensor import Tensor
from .validation import check_fields, check_positive

RMS_EPS = 1e-6

LORA_TARGETS = ("wq", "wk", "wv", "wo")  # the attention projections an adapter can wrap

# the largest model ModelConfig describes: 8 GiB of float32 weights is beyond
# a desk-scale numpy model, and sizing larger ones is the planner's job
MAX_PARAMETERS = 2**31

ROPE_SPAN = 256  # positions per cached rope table at least (_rope_at)
PREFILL_SEGMENT = 256  # tokens per engine pass of a session prefill (_Session.prefill)

BOS_ID = 256
EOS_ID = 257


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------


@dataclass
class ModelConfig:
    """InvalidConfig unless the int fields are integers (not bools),
    n_layers, n_heads, head_dim, max_seq_len and rope_base are > 0, seed >= 0,
    vocab_size >= 2, head_dim even, mlp_hidden a finite count >= 1 and the
    parameter count <= MAX_PARAMETERS."""

    vocab_size: int = 258
    n_layers: int = 2
    n_heads: int = 2
    head_dim: int = 16
    mlp_hidden_mult: float = 4.0
    max_seq_len: int = 512
    rope_base: float = 10000.0
    seed: int = 0

    def __post_init__(self):
        counts = ("n_layers", "n_heads", "head_dim", "max_seq_len")
        check_fields(vars(self), (*counts, "rope_base"), ("seed",), error=InvalidConfig, integers=("vocab_size", *counts, "seed"))
        if self.vocab_size < 2:
            raise InvalidConfig("vocab_size must be >= 2")
        if self.head_dim % 2:
            raise InvalidConfig(f"head_dim must be even, got {self.head_dim}")
        if not np.isfinite(self.mlp_hidden_mult * self.model_dim) or self.mlp_hidden < 1:
            raise InvalidConfig(f"mlp_hidden_mult {self.mlp_hidden_mult} must give a finite mlp_hidden >= 1")
        if not expected_parameter_count(self) <= MAX_PARAMETERS:
            raise InvalidConfig(f"{expected_parameter_count(self)} parameters exceed MAX_PARAMETERS = {MAX_PARAMETERS}")

    @property
    def model_dim(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_hidden_mult * self.model_dim))


@dataclass
class HybridSpec:
    """Static description of the hybrid layers created by convert_model.
    InvalidConfig unless window_size and a set feature_dim are integers (not
    bools) > 0 and window_mode and feature_kind are one of WINDOW_MODES and
    FEATURE_KINDS."""

    window_size: int = 8
    window_mode: str = "terraced"
    feature_kind: str = "hedgehog"
    feature_dim: int | None = None
    gamma_init: float = 1.0

    def __post_init__(self):
        choices = {"window_mode": attention.WINDOW_MODES, "feature_kind": attention.FEATURE_KINDS}
        check_fields(vars(self), ("window_size",), choices=choices, error=InvalidConfig, integers=("window_size", "feature_dim"))
        if self.feature_dim is not None:
            check_positive("feature_dim", self.feature_dim, InvalidConfig)


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------


@dataclass
class LoraAdapter:
    """Low-rank delta (alpha/rank) * B A attached to one base projection.

    B starts at zero, so attaching is an exact identity transformation until
    the first optimizer update.
    """

    a: Tensor  # [rank, in_dim]
    b: Tensor  # [out_dim, rank]
    rank: int
    alpha: float


class Projection:
    """x @ W, with an attached LoRA adapter merged into W first."""

    def __init__(self, weight: Tensor, name: str):
        self.weight = weight
        self.name = name
        self.adapter: LoraAdapter | None = None

    def merged(self) -> Tensor:
        """The weight the projection applies: W, or W + (alpha/r) A^T B^T
        (Hu et al. 2021) in W's dtype. The tape records it at every forward;
        the engine takes it once per parameter state, under no_grad."""
        ad = self.adapter
        return self.weight if ad is None else self.weight + (ad.b @ ad.a).swapaxes(0, 1) * (ad.alpha / ad.rank)

    def forward(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.merged())


class RMSNorm:
    def __init__(self, gain: Tensor):
        self.gain = gain

    def forward(self, x: Tensor) -> Tensor:
        return T.rms_norm(x, self.gain, RMS_EPS)


class AttentionLayer:
    """Multi-head attention over the residual stream. Starts as causal softmax
    attention; convert_model attaches a HybridAttnConfig that routes the model's
    forward paths through the hybrid heads while keeping the frozen softmax heads
    available for teacher forcing."""

    def __init__(self, wq, wk, wv, wo, n_heads: int, head_dim: int, rope_base: float):
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.rope_base = rope_base
        self.hybrid_cfg: HybridAttnConfig | None = None

    def project_qkv(self, x: Tensor):
        """x [b, l, D] -> rotary q, k and plain v as [b, h, l, d]: one matmul
        over the merged wq | wk | wv, split into heads as the engine does."""
        b, l, _ = x.shape
        wqkv = T.concat([self.wq.merged(), self.wk.merged(), self.wv.merged()], axis=1)
        qkv = T.matmul(x, wqkv).reshape(b, l, 3, self.n_heads, self.head_dim).transpose(2, 0, 3, 1, 4)
        cos, sin = _rope_at(0, l, self.head_dim, self.rope_base, x.dtype)
        return T.rope(qkv[0], cos, sin), T.rope(qkv[1], cos, sin), qkv[2]

    def merge_heads(self, y: Tensor) -> Tensor:
        b, h, l, d = y.shape
        return T.swapaxes(y, 1, 2).reshape(b, l, h * d)

    def heads_softmax(self, q, k, v):
        """(y, weights): one softmax_attention tape node, the kernel the
        engine's teacher and SoftmaxSession run."""
        return softmax_attention(q, k, v)

    def heads_hybrid(self, q, k, v) -> Tensor:
        return hybrid_attention_prefill(q, k, v, self.hybrid_cfg)


class Mlp:
    """Gated (SwiGLU-style) MLP: down(silu(gate(x)) * up(x))."""

    def __init__(self, gate: Projection, up: Projection, down: Projection):
        self.gate, self.up, self.down = gate, up, down

    def forward(self, x: Tensor) -> Tensor:
        g = self.gate.forward(x)
        return self.down.forward(g * T.sigmoid(g) * self.up.forward(x))


class Block:
    def __init__(self, norm1: RMSNorm, attn: AttentionLayer, norm2: RMSNorm, mlp: Mlp):
        self.norm1, self.attn, self.norm2, self.mlp = norm1, attn, norm2, mlp


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------


def _check_ids(ids, vocab: int) -> np.ndarray:
    """The model's one token-id check, for the Tensor forward paths and the
    serving ones alike: a non-empty [batch, n] array of integers in [0, vocab)."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or not ids.size:
        raise ShapeMismatch(f"token ids must be a non-empty [batch, n] array, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise UnknownId(f"token ids must be integers, got dtype {ids.dtype}")
    if (ids < 0).any() or (ids >= vocab).any():
        raise UnknownId(f"token ids outside [0, {vocab})")
    return ids


def _check_count(name: str, value, least: int) -> None:
    """BadConfig unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise BadConfig(f"{name} must be an integer >= {least}, got {value!r}")


class Model:
    def __init__(self, config: ModelConfig, embed: Tensor, blocks: list[Block], final_norm: RMSNorm, head: Tensor):
        self.config = config
        self.embed = embed
        self.blocks = blocks
        self.final_norm = final_norm
        self.head = head
        self.hybrid_spec: HybridSpec | None = None
        self.lora_meta: dict | None = None  # {"rank", "alpha", "targets"}
        self._engine: tuple[tuple, _Engine] | None = None  # (parameter arrays, their engine): _Engine.of

    # -- parameter registry ------------------------------------------------

    @property
    def converted(self) -> bool:
        return self.blocks[0].attn.hybrid_cfg is not None

    def parameters(self) -> dict[str, Tensor]:
        """Stable-ordered name -> tensor map over every parameter."""
        params: dict[str, Tensor] = {"embed.weight": self.embed}
        for i, blk in enumerate(self.blocks):
            p = f"layers.{i}"
            params[f"{p}.norm1.gain"] = blk.norm1.gain
            for proj_name in ("wq", "wk", "wv", "wo"):
                proj: Projection = getattr(blk.attn, proj_name)
                params[f"{p}.attn.{proj_name}.weight"] = proj.weight
                if proj.adapter is not None:
                    params[f"{p}.attn.{proj_name}.lora_a"] = proj.adapter.a
                    params[f"{p}.attn.{proj_name}.lora_b"] = proj.adapter.b
            cfg = blk.attn.hybrid_cfg
            if cfg is not None:
                params[f"{p}.attn.gamma_raw"] = cfg.gamma_raw
                params[f"{p}.attn.phi_q.weight"] = cfg.phi_q.weight
                if cfg.phi_q.bias is not None:
                    params[f"{p}.attn.phi_q.bias"] = cfg.phi_q.bias
                params[f"{p}.attn.phi_k.weight"] = cfg.phi_k.weight
                if cfg.phi_k.bias is not None:
                    params[f"{p}.attn.phi_k.bias"] = cfg.phi_k.bias
            params[f"{p}.norm2.gain"] = blk.norm2.gain
            params[f"{p}.mlp.gate.weight"] = blk.mlp.gate.weight
            params[f"{p}.mlp.up.weight"] = blk.mlp.up.weight
            params[f"{p}.mlp.down.weight"] = blk.mlp.down.weight
        params["final_norm.gain"] = self.final_norm.gain
        params["head.weight"] = self.head
        return params

    def parameter_count(self) -> int:
        return sum(t.size for t in self.parameters().values())

    def set_all_trainable(self, flag: bool) -> None:
        for t in self.parameters().values():
            t.requires_grad = flag
            t.grad = np.zeros_like(t.data) if flag else None

    # -- forward paths --------------------------------------------------------

    def embed_tokens(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.embed, _check_ids(ids, self.config.vocab_size))

    def forward(self, ids: np.ndarray) -> Tensor:
        """Full forward on the tape to logits [b, l, vocab]; hybrid layers use
        the chunked prefill once converted. Block i records under
        T.scope("layers.i"), which a failed finite check names."""
        x = self.embed_tokens(ids)
        for i, blk in enumerate(self.blocks):
            with T.scope(f"layers.{i}"):
                attn = blk.attn
                q, k, v = attn.project_qkv(blk.norm1.forward(x))
                y = attn.heads_softmax(q, k, v)[0] if attn.hybrid_cfg is None else attn.heads_hybrid(q, k, v)
                x = x + attn.wo.forward(attn.merge_heads(y))
                x = x + blk.mlp.forward(blk.norm2.forward(x))
        return T.matmul(self.final_norm.forward(x), self.head)

    def forward_teacher_forced(self, ids: np.ndarray, return_weights: bool = False) -> list[dict]:
        """Per-layer records for attention transfer. The frozen softmax teacher
        runs once, off the tape, through the engine's block loop, and stops
        after the last layer's attention (the last MLP, final norm and head
        feed nothing here); a non-finite array raises NonFiniteResult naming
        its layer and op. The student then runs on the tape from each layer's
        q, k, v as plain Tensors, so gradients reach the feature maps and
        gamma through y_hat alone; its hybrid op keeps each chunk's scores
        for the backward, O(l w) bytes per layer. records[m] holds the arrays
        q, k, v (post-rope heads [b, h, l, d]) and y (softmax heads output),
        the Tensor y_hat (hybrid heads output, recorded under T.scope
        "layers.m") and, on request, the teacher's softmax weights a; never
        the student's weights a_hat, which only a weight-matching loss reads
        and builds (AttentionTransfer.transfer_loss)."""
        if not self.converted:
            raise NotConverted("attention transfer needs a converted model")
        ids = _check_ids(ids, self.config.vocab_size)
        records = []

        def attend(i, q, k, v):
            y, a = attention.softmax_attention_np(q, k, v)
            records.append({"q": q, "k": k, "v": v, "y": y} | ({"a": a} if return_weights else {}))
            return y

        steps = _Engine(self).steps(ids, 0, attend)
        for _ in self.blocks:
            next(steps)  # through the layer's attention
        for i, (rec, blk) in enumerate(zip(records, self.blocks)):
            with T.scope(f"layers.{i}"):
                rec["y_hat"] = blk.attn.heads_hybrid(Tensor(rec["q"]), Tensor(rec["k"]), Tensor(rec["v"]))
        return records


def build_model(cfg: ModelConfig) -> Model:
    """Deterministic initialization from cfg.seed (same seed, same bits)."""
    rng = np.random.default_rng(cfg.seed)
    std = 1.0 / np.sqrt(cfg.model_dim)
    # the projections into the residual stream are scaled down by the depth
    stds = {"wo": std / np.sqrt(2 * cfg.n_layers), "down": 1.0 / np.sqrt(cfg.mlp_hidden) / np.sqrt(2 * cfg.n_layers)}

    def draw(name, shape):
        if name.endswith(".gain"):
            return np.ones(shape, dtype=np.float32)
        return rng.normal(0.0, stds.get(name.split(".")[-2], std), size=shape).astype(np.float32)

    return _assemble(cfg, draw)


def _assemble(cfg: ModelConfig, take, hybrid: HybridSpec | None = None, lora: dict | None = None) -> Model:
    """The model that cfg, hybrid and lora describe, with each parameter the
    array take(name, shape) returns, asked for in a fixed order under its
    Model.parameters() name: build_model draws them, load_checkpoint reads
    them from the payload."""
    D, Dh, H, d = cfg.model_dim, cfg.mlp_hidden, cfg.n_heads, cfg.head_dim

    def param(name, *shape):
        return Tensor(take(name, shape))

    def proj(name, rows, cols):
        return Projection(param(f"{name}.weight", rows, cols), name)

    embed = param("embed.weight", cfg.vocab_size, D)
    blocks = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        attn = AttentionLayer(*(proj(f"{p}.attn.{n}", D, D) for n in ("wq", "wk", "wv", "wo")), H, d, cfg.rope_base)
        norm1 = RMSNorm(param(f"{p}.norm1.gain", D))
        mlp = Mlp(proj(f"{p}.mlp.gate", D, Dh), proj(f"{p}.mlp.up", D, Dh), proj(f"{p}.mlp.down", Dh, D))
        blocks.append(Block(norm1, attn, RMSNorm(param(f"{p}.norm2.gain", D)), mlp))
    final_norm = RMSNorm(param("final_norm.gain", D))
    model = Model(cfg, embed, blocks, final_norm, param("head.weight", D, cfg.vocab_size))
    if hybrid is not None:
        kind = hybrid.feature_kind
        f = default_feature_dim(kind, d) if hybrid.feature_dim is None else hybrid.feature_dim

        def phi(name):
            bias = param(f"{name}.bias", H, f) if kind == "t2r" else None
            return FeatureMapParams(kind, param(f"{name}.weight", H, d, f), bias)

        for i, blk in enumerate(blocks):
            p = f"layers.{i}.attn"
            gamma_raw = param(f"{p}.gamma_raw", H)
            blk.attn.hybrid_cfg = HybridAttnConfig(hybrid.window_size, hybrid.window_mode, gamma_raw, phi(f"{p}.phi_q"), phi(f"{p}.phi_k"))
        model.hybrid_spec = hybrid
    if lora is not None:
        _attach_lora(model, lora["rank"], lora["alpha"], tuple(lora["targets"]), take)
    return model


def expected_parameter_count(cfg: ModelConfig) -> int:
    """The documented closed form."""
    D, Dh = cfg.model_dim, cfg.mlp_hidden
    per_layer = 4 * D * D + 3 * D * Dh + 2 * D
    return cfg.vocab_size * D + cfg.n_layers * per_layer + D + D * cfg.vocab_size


def convert_model(model: Model, spec: HybridSpec, seed: int | None = None) -> Model:
    """Swap every softmax attention for a hybrid layer that inherits the frozen
    projection weights; fresh feature maps and gamma_raw are the only trainable
    parameters afterwards."""
    if model.converted:
        raise AlreadyConverted("model already has hybrid attention layers")
    model.set_all_trainable(False)
    base_seed = model.config.seed if seed is None else seed
    for i, blk in enumerate(model.blocks):
        cfg = make_hybrid_config(
            spec.window_size,
            spec.window_mode,
            spec.feature_kind,
            model.config.n_heads,
            model.config.head_dim,
            spec.feature_dim,
            rng=np.random.default_rng((base_seed, i)),
            gamma_init=spec.gamma_init,
        )
        blk.attn.hybrid_cfg = cfg
    model.hybrid_spec = spec
    return model


def freeze_feature_maps(model: Model) -> None:
    """Stage-2 precondition: feature maps and gamma stop training."""
    for blk in model.blocks:
        cfg = blk.attn.hybrid_cfg
        if cfg is None:
            continue
        for t in cfg.parameters():
            t.requires_grad = False
            t.grad = None


def lora_attach(
    model: Model,
    rank: int = 8,
    alpha: float = 16.0,
    targets: tuple[str, ...] = LORA_TARGETS,
    seed: int = 0,
) -> Model:
    """Attach rank-r adapters to the targeted attention projections of every
    layer. B is zero-initialized, so the model function is bit-identical at
    attach time; only A/B are trainable afterwards."""
    rng = np.random.default_rng(seed)

    def draw(name, shape):  # A ~ N(0, 1 / in_dim), B = 0
        if name.endswith("lora_b"):
            return np.zeros(shape, dtype=np.float32)
        return rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape).astype(np.float32)

    return _attach_lora(model, rank, alpha, targets, draw)


def _attach_lora(model: Model, rank: int, alpha: float, targets: tuple[str, ...], take) -> Model:
    """lora_attach with the A and B arrays that take(name, shape) returns."""
    check_fields(locals(), ("rank",), choices={"targets": LORA_TARGETS}, error=InvalidConfig, integers=("rank",))
    if not targets:
        raise InvalidConfig("LoRA targets must not be empty")
    for blk in model.blocks:
        for name in targets:
            proj: Projection = getattr(blk.attn, name)
            if proj.adapter is not None:
                raise DuplicateAdapter(f"{proj.name} already has an adapter")
            in_dim, out_dim = proj.weight.shape
            a = Tensor(take(f"{proj.name}.lora_a", (rank, in_dim)), requires_grad=True)
            b = Tensor(take(f"{proj.name}.lora_b", (out_dim, rank)), requires_grad=True)
            proj.adapter = LoraAdapter(a=a, b=b, rank=rank, alpha=alpha)
    model.lora_meta = {"rank": rank, "alpha": alpha, "targets": list(targets)}
    return model


def adapter_parameters(model: Model) -> dict[str, Tensor]:
    out = {}
    for name, t in model.parameters().items():
        if name.endswith(("lora_a", "lora_b")):
            out[name] = t
    if not out:
        raise AdaptersMissing("no LoRA adapters attached")
    return out


# --------------------------------------------------------------------------
# tokenizer
# --------------------------------------------------------------------------


def tokenize(text: str | bytes) -> np.ndarray:
    """Byte ids 0-255 wrapped in BOS=256 / EOS=257, as uint32; text is a str
    (taken as UTF-8) or bytes-like, and BadConfig otherwise."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    if not isinstance(text, (bytes, bytearray, memoryview)):
        raise BadConfig(f"tokenize takes str or bytes-like text, got {type(text).__name__}")
    return np.concatenate(
        [[BOS_ID], np.frombuffer(bytes(text), dtype=np.uint8).astype(np.uint32), [EOS_ID]]
    ).astype(np.uint32)


def detokenize(ids) -> bytes:
    """The bytes of ids, BOS and EOS dropped; UnknownId unless every id is an
    integer in [0, 258)."""
    ids = np.asarray(ids)
    if ids.size and (ids.dtype.kind not in "iu" or int(ids.min()) < 0 or int(ids.max()) >= 258):
        raise UnknownId(f"detokenize takes integer ids in [0, 258), got a {ids.dtype} array")
    keep = ids[(ids != BOS_ID) & (ids != EOS_ID)]
    return keep.astype(np.uint8).tobytes()


# --------------------------------------------------------------------------
# serving: the numpy engine and the decode sessions
# --------------------------------------------------------------------------


class _EngineLayer(NamedTuple):
    norm1: np.ndarray  # [D]
    wqkv: np.ndarray  # [D, 3D]: wq | wk | wv
    wo: np.ndarray  # [D, D]
    norm2: np.ndarray  # [D]
    gate: np.ndarray  # [D, Dh]
    up: np.ndarray  # [D, Dh]
    down: np.ndarray  # [Dh, D]
    hybrid: HybridArrays | None


def _first_non_finite(i: int, *named: tuple[str, np.ndarray]) -> None:
    """Raise NonFiniteResult for the first non-finite of layer i's (op,
    array) pairs, given in compute order."""
    for op, a in named:
        T.finite(a, f"layers.{i} {op}")


def _swiglu_np(g: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Mlp's g * sigmoid(g) * up in one scratch array: the same operations in
    the same order as the Tensor ops, so bit for bit the same result."""
    act = np.negative(g)
    np.exp(act, out=act)
    act += 1.0
    np.divide(1.0, act, out=act)
    act *= g
    act *= up
    return act


def _rope_at(position: int, n: int, head_dim: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """rope_angles(n, head_dim, position, base) cast to dtype, bit for bit, as
    read-only views of a cached table (each row is computed on its own). The
    table spans 2 * span positions from a multiple of span, span = max(
    ROPE_SPAN, n rounded up to a power of two): a decode step reads a table
    made once per ROPE_SPAN tokens, and no table outgrows twice the segment.

    A prefill reads one table per segment (PREFILL_SEGMENT = ROPE_SPAN). The
    cache keeps the 64 tables used last: a prompt and the steps after it
    that read at most 64 tables in all (16384 positions) leave every table
    of the prompt for its next prefill; past that, each prefill recomputes
    its tables, about 0.37 ms each at head_dim 32 on a 2-vCPU x86_64 host.
    A session's tables hold 512 * head_dim * itemsize bytes each (64 KiB at
    head_dim 32 in float32), so the cache holds at most 4 MiB of them at that
    shape, however long sessions run; a forward over l tokens at once (the
    Tensor model, the stage-1 teacher) reads one of max(512, 4 l) rows."""
    span = max(ROPE_SPAN, 1 << (n - 1).bit_length())
    start = position // span * span
    return tuple(t[position - start : position - start + n] for t in _rope_table(start, 2 * span, head_dim, base, dtype))


@functools.lru_cache(maxsize=64)
def _rope_table(start: int, size: int, head_dim: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    tables = tuple(t.astype(dtype) for t in rope_angles(size, head_dim, start, base))
    for t in tables:
        t.flags.writeable = False
    return tables


class _Engine:
    """The plain numpy arrays a session serves, taken from the model once, and
    the one numpy block loop over them, for the sessions and the stage-1
    teacher. LoRA is merged into its base projection by the expression the
    tape trains through (Projection.merged, under no_grad), wq|wk|wv is one
    [D, 3D] matrix as in project_qkv, and a hybrid layer's window factor
    sigmoid(gamma_raw) is computed once (HybridArrays).

    Merged and fused matrices are the engine's own arrays; the others are the
    parameter arrays themselves, which the optimizer and load_checkpoint
    replace rather than write into. Sessions take the engine from of(model),
    which builds one per set of parameter arrays and keeps the last on the
    model: an optimizer step, a load, lora_attach, convert_model or a cast
    replaces or adds an array, and the next session gets a new engine, while
    a session built before keeps serving the weights it was built from. A
    parameter written in place is not seen, and the kept engine then mixes
    its own copies from before the write with the other arrays as written:
    replace it instead. The kept key holds the arrays it was built from alive
    until the next session is built on changed ones. The stage-1 teacher
    builds its own engine each step, since each step replaces phi and gamma
    and a kept engine would only hold the last step's arrays alive.

    The residual stream is one [b * n, D] array: each dense product is one
    2-D matmul over every row of the batch (steps says what that trades).

    Norm, rope and softmax run the Tensor ops' numpy kernels (T.*_np). The
    loop checks the embedding, the residual stream after each sublayer and
    the logits finite: NaN and Inf propagate through the matmuls, adds, norms
    and the SwiGLU into the stream. When a check fails, the sublayer's
    intermediates, which the loop still holds, are scanned in compute order,
    and NonFiniteResult names the layer and the first non-finite op; nothing
    is re-run, since attend has already advanced its state. A non-finite
    value that its sublayer maps back to finite values (a -inf score that the
    window softmax weights 0) raises nothing at that step; if it reached a
    decode state, the next step that reads it raises."""

    def __init__(self, model: Model):
        self.config = model.config
        self.embed = model.embed.data
        with T.no_grad():
            self.layers = [
                _EngineLayer(
                    blk.norm1.gain.data,
                    np.concatenate([blk.attn.wq.merged().data, blk.attn.wk.merged().data, blk.attn.wv.merged().data], axis=1),
                    blk.attn.wo.merged().data,
                    blk.norm2.gain.data,
                    blk.mlp.gate.weight.data,
                    blk.mlp.up.weight.data,
                    blk.mlp.down.weight.data,
                    None if blk.attn.hybrid_cfg is None else blk.attn.hybrid_cfg.arrays(),
                )
                for blk in model.blocks
            ]
        self.final_gain = model.final_norm.gain.data
        self.head = model.head.data

    @classmethod
    def of(cls, model: Model) -> _Engine:
        """The model's engine for its parameter arrays as they are: the one
        built last while each array is the very one (is) it was built from,
        else a new one, kept on the model in its place."""
        arrays = tuple(t.data for t in model.parameters().values())
        built = model._engine
        if built is None or len(built[0]) != len(arrays) or not all(map(operator.is_, built[0], arrays)):
            built = model._engine = (arrays, cls(model))
        return built[1]

    def steps(self, ids: np.ndarray, position: int, attend, rows: int | None = None):
        """The block loop over ids [b, n] (checked by the caller) at positions
        position onwards, as a generator. Per layer i, attend(i, q, k, v) gets
        the rotary heads [b, h, ·, d] and returns the heads output of its
        queries; the loop yields after each layer's attention, then the
        logits [b, m, vocab] of the rows the last layer serves. A caller that
        stops after the last layer's attention (the stage-1 teacher) never
        runs the last MLP, final norm or head.

        rows is how many of each sequence's last positions the last layer
        serves; every other layer serves all n:
        - None: all n, the stage-1 teacher's rows.
        - 1 <= m <= n: the last m. The layer still projects q | k | v by one
          product over the fused wqkv, so a query's bits do not depend on
          m, and ropes only the m queries that are read; attend answers
          those, and wo, the residual, norm2, the MLP, the final norm and
          the head run on b * m rows. A session step and the last segment
          of a prefill serve 1 (_Session).
        - 0: none, a plain state advance. The layer projects k | v alone,
          by its columns of wqkv (a view, which OpenBLAS 0.3.31 rounds as
          the fused product does; the tests pin it), ropes k and calls
          attend(i, None, k, v); the loop yields once more and ends, with no
          logits. No q, phi(q), score, wo, MLP, final norm or head is
          computed. It checks k | v and the rotated k before attend, naming
          norm1, attn.qkv or attn.rope; a value that turns non-finite
          inside attend's fold reaches the state and raises at its next
          read (see the class docstring). The other segments of a prefill
          do this.

        The residual stream is one [b * n, D] array, so each dense product
        (wqkv, wo, gate, up, down) is one 2-D matmul over all b * n rows, not
        b stacked n-row products: a b8 decode token makes one 8-row BLAS call
        per product where it made eight one-row calls. q, k, v still reach
        attend as [b, h, ·, d] heads.

        The trade: BLAS picks its kernel by shape, so a row's rounding can
        depend on the row count of its product. At b1 the row counts are the
        per-sequence ones, and so are the bits. At b > 1 a decode row rounds
        as part of a b-row product, and may differ from the same row served
        at b1 by float32 rounding, within criterion 4's 1e-5 (about 4e-6 at
        b8 on the benchmark's wide shape). In OpenBLAS 0.3.31, products of
        32 rows or more round each row alike at any row count, so a b8 l64
        stage-1 teacher keeps the bits of its per-sequence products."""
        c = self.config
        b, n = ids.shape
        h, d = c.n_heads, c.head_dim
        last = len(self.layers) - 1
        cos, sin = _rope_at(position, n, d, c.rope_base, self.embed.dtype)
        x = T.finite(self.embed[ids.reshape(-1)], "embed embedding")
        for i, layer in enumerate(self.layers):
            m = n if rows is None or i < last else rows  # the query rows the layer serves
            u = T.rms_norm_np(x, layer.norm1, RMS_EPS)
            if not m:  # a state advance: k | v by their columns of wqkv, no query side
                qkv = (u @ layer.wqkv[:, h * d :]).reshape(b, n, 2, h, d).transpose(2, 0, 3, 1, 4)
                q, k = None, T.rope_np(qkv[0], cos, sin)  # rebound, so the layer before's q and qkv are freed
                if not (np.isfinite(k).all() and np.isfinite(qkv[1]).all()):
                    _first_non_finite(i, ("norm1", u), ("attn.qkv", qkv), ("attn.rope", k))
                attend(i, q, k, qkv[1])
                yield
                return
            qkv = (u @ layer.wqkv).reshape(b, n, 3, h, d).transpose(2, 0, 3, 1, 4)
            if m == n:
                q, k = T.rope_np(qkv[:2], cos, sin)
            else:  # rope only the queries that are read
                q, k = T.rope_np(qkv[0, :, :, n - m :], cos[n - m :], sin[n - m :]), T.rope_np(qkv[1], cos, sin)
                x, n = x.reshape(b, n, -1)[:, n - m :].reshape(b * m, -1), m
            y = attend(i, q, k, qkv[2])
            o = y.transpose(0, 2, 1, 3).reshape(b * n, h * d) @ layer.wo
            x = x + o
            if not np.isfinite(x).all():
                _first_non_finite(
                    i, ("norm1", u), ("attn.qkv", qkv), ("attn.rope", q), ("attn.rope", k), ("attn.heads", y), ("attn.wo", o),
                    ("attn.residual", x),
                )
            yield
            u = T.rms_norm_np(x, layer.norm2, RMS_EPS)
            g = u @ layer.gate
            up = u @ layer.up
            act = _swiglu_np(g, up)
            down = act @ layer.down
            x = x + down
            if not np.isfinite(x).all():
                _first_non_finite(
                    i, ("norm2", u), ("mlp.gate", g), ("mlp.up", up), ("mlp.swiglu", act), ("mlp.down", down), ("mlp.residual", x)
                )
        out = T.finite(T.rms_norm_np(x, self.final_gain, RMS_EPS), "final_norm norm")
        yield T.finite(out @ self.head, "head logits").reshape(b, n, -1)


class _Session:
    """Shared by the decode sessions: prefill and step check the token ids
    (the sessions' input boundary) once per call, before any state moves;
    _advance runs the steps of the serving engine, the model's engine for its
    parameters as they were when the session was built (_Engine.of), over
    checked ids to the end with the session's _attend. fresh=True first
    resets the session's state. BadConfig unless batch is an integer >= 1,
    before any engine or state is built.

    prefill advances fresh state over the prompt in segments of
    PREFILL_SEGMENT tokens, each carrying the position and the state of the
    one before, so its working set is one segment's activations whatever the
    prompt's length; _advance(ids, fresh=True) is the same prompt as one
    segment.

    Only the last id's logits leave a session, and a later segment or step
    reads a layer only through the keys and values its state keeps. So a
    step and a prefill's last segment serve one row per sequence from the
    last layer (the engine's rows = 1): it attends with each sequence's last
    query, and its wo, MLP, the final norm and the head run on that row.
    Every other segment of a prefill serves none (rows = 0): its last layer
    only advances its state by the segment's keys and values. Every key
    still enters the state, and the states match a full-row prefill bit for
    bit; the prefill's logits differ by float32 rounding, since one-row
    products round apart from n-row ones."""

    def __init__(self, model: Model, batch: int):
        _check_count("batch", batch, 1)
        self.model = model
        self.engine = _Engine.of(model)
        self.batch = batch
        self._reset(batch)

    def prefill(self, ids: np.ndarray) -> np.ndarray:
        """Advance fresh state over the prompt ids [b, n], PREFILL_SEGMENT
        tokens at a time -> the last id's logits [b, vocab]."""
        ids = _check_ids(ids, self.engine.config.vocab_size)
        n = ids.shape[1]
        for start in range(0, n, PREFILL_SEGMENT):
            logits = self._advance(ids[:, start : start + PREFILL_SEGMENT], fresh=not start, rows=int(start + PREFILL_SEGMENT >= n))
        return logits

    def step(self, token_ids: np.ndarray) -> np.ndarray:
        """Advance one token; token_ids [b] -> logits [b, vocab]."""
        return self._advance(_check_ids(np.asarray(token_ids)[..., None], self.engine.config.vocab_size))

    def _advance(self, ids: np.ndarray, fresh: bool = False, rows: int = 1) -> np.ndarray | None:
        """The engine over ids, its last layer serving each sequence's last
        rows positions (a session asks for 0 or 1) -> the last id's logits
        [b, vocab], or None at rows = 0."""
        if fresh:
            self.batch = ids.shape[0]
            self._reset(self.batch)
        elif ids.shape[0] != self.batch:
            raise ShapeMismatch(f"{ids.shape[0]} token rows for a session of batch {self.batch}")
        *_, logits = self.engine.steps(ids, self.position, self._attend, rows)
        self.position += ids.shape[1]
        return logits[:, -1] if rows else None


class HybridSession(_Session):
    """Per-layer recurrent decode states for a converted model. Prefill and
    step are the same advance through attention.hybrid_decode_step; prefill
    starts it from fresh states, and its last layer's call carries no
    queries in every segment but the last. With w dividing PREFILL_SEGMENT,
    a prefill folds the same key groups and attends with the same chunks as
    the prompt in one segment, bit for bit, in both window modes."""

    # the shared methods, bound here too for benchmarks/spans.py to wrap
    prefill = _Session.prefill
    step = _Session.step

    def __init__(self, model: Model, batch: int):
        if not model.converted:
            raise NotConverted("decode session needs a converted model")
        super().__init__(model, batch)

    def _reset(self, batch: int) -> None:
        cfg = self.model.config
        self.states = [
            HybridDecodeState(batch, cfg.n_heads, blk.attn.hybrid_cfg, cfg.head_dim, self.engine.embed.dtype)
            for blk in self.model.blocks
        ]
        self.position = 0

    @property
    def state_bytes(self) -> int:
        return sum(s.state_bytes for s in self.states)

    @property
    def cache_bytes(self) -> int:
        return sum(s.cache_bytes for s in self.states)

    def _attend(self, i, q, k, v) -> np.ndarray:
        hybrid = self.engine.layers[i].hybrid
        return attention.hybrid_decode_step(self.states[i], q, k, v, hybrid, position=self.position)


class SoftmaxSession(_Session):
    """Growing-KV-cache decoding for the softmax baseline (bench comparison);
    prefill is the step's numpy advance over the cache, started empty. Each
    layer keeps its keys and values in one buffer [2, b, h, capacity, d]
    whose capacity doubles when a segment does not fit: a step, and each
    prefill segment, writes its keys after the filled ones and attends over a
    view of them; a call with no queries (q = None) only writes them."""

    def _reset(self, batch: int) -> None:
        cfg = self.model.config
        empty = np.zeros((2, batch, cfg.n_heads, 0, cfg.head_dim), dtype=self.engine.embed.dtype)
        self.kv = [empty] * len(self.model.blocks)
        self.position = 0

    @property
    def cache_bytes(self) -> int:
        """Bytes of the filled keys and values, not of the capacity."""
        return sum(kv[:, :, :, : self.position].nbytes for kv in self.kv)

    @staticmethod
    def _capacity(capacity: int, end: int) -> int:
        """A buffer's capacity once it holds keys up to end: kept while they
        fit, else doubled, to end at least."""
        return capacity if end <= capacity else max(end, 2 * capacity)

    @classmethod
    def projected_bytes(cls, config: ModelConfig, batch: int, prompt_len: int, gen_len: int) -> int:
        """Bytes of the buffers after a prompt_len prefill and gen_len steps,
        without allocating them, at 4 bytes an element: the float32 models
        that build_model and bench make (a session holds its buffers in the
        model's dtype)."""
        capacity = 0
        for start in range(0, prompt_len, PREFILL_SEGMENT):  # prefill's segments
            capacity = cls._capacity(capacity, min(start + PREFILL_SEGMENT, prompt_len))
        while capacity < prompt_len + gen_len:
            capacity = cls._capacity(capacity, capacity + 1)  # the step that overflows it
        return config.n_layers * 2 * batch * config.n_heads * capacity * config.head_dim * 4  # float32

    def _attend(self, i, q, k, v) -> np.ndarray:
        n, end = self.position, self.position + k.shape[2]
        kv = self.kv[i]
        if end > kv.shape[3]:
            grown = np.empty((*kv.shape[:3], self._capacity(kv.shape[3], end), kv.shape[4]), dtype=kv.dtype)
            grown[:, :, :, :n] = kv[:, :, :, :n]
            kv = self.kv[i] = grown
        kv[0, :, :, n:end] = k
        kv[1, :, :, n:end] = v
        return None if q is None else attention.softmax_attention_np(q, kv[0, :, :, :end], kv[1, :, :, :end])[0]


def generate_greedy(model: Model, prompt_ids: np.ndarray, n_new: int, max_len: int | None = None) -> np.ndarray:
    """Greedy decoding: a session prefill of the prompt, then one step per
    token. BadConfig unless n_new is an integer >= 0 and a set max_len an
    integer >= 1."""
    prompt_ids = np.asarray(prompt_ids)
    if prompt_ids.ndim == 1:
        prompt_ids = prompt_ids[None, :]
    prompt_ids = _check_ids(prompt_ids, model.config.vocab_size).astype(np.int64)
    _check_count("n_new", n_new, 0)
    if max_len is not None:
        _check_count("max_len", max_len, 1)
    cap = max_len if max_len is not None else model.config.max_seq_len
    if prompt_ids.shape[1] + n_new > cap:
        raise PromptTooLong(f"prompt {prompt_ids.shape[1]} + {n_new} new tokens exceeds cap {cap}")
    if n_new == 0:
        return prompt_ids.copy()
    session = HybridSession(model, prompt_ids.shape[0])
    logits = session.prefill(prompt_ids)
    out = [prompt_ids]
    for _ in range(n_new):
        nxt = logits.argmax(-1)
        out.append(nxt[:, None])
        logits = session.step(nxt)
    return np.concatenate(out, axis=1)
