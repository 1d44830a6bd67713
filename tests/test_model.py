"""Model construction, conversion, teacher forcing, LoRA, tokenizer, and
checkpoint round trips."""

import builtins
import copy
import functools
import json
import os
import re
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linswap import checkpoint
from linswap import model as M
from linswap import tensor as T
from linswap.attention import rope_angles
from linswap.checkpoint import (
    load_checkpoint,
    load_corpus,
    save_checkpoint,
    save_corpus,
)
from linswap.errors import (
    AlreadyConverted,
    BadConfig,
    CorruptPayload,
    DuplicateAdapter,
    InvalidConfig,
    IoFailure,
    LinswapError,
    NonFiniteResult,
    NotConverted,
    PromptTooLong,
    ShapeMismatch,
    UnknownId,
)
from linswap.model import (
    AttentionLayer,
    HybridSession,
    HybridSpec,
    LoraAdapter,
    ModelConfig,
    Projection,
    SoftmaxSession,
    adapter_parameters,
    build_model,
    convert_model,
    detokenize,
    expected_parameter_count,
    generate_greedy,
    lora_attach,
    tokenize,
)
from linswap.tensor import Tensor
from linswap.training import AdamW, AttentionTransfer, LoraAdjust, feature_map_parameters
from linswap.validation import check_token_array

import oracles

check_ids = M._check_ids


CFG = ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=128, seed=3)
SPEC = HybridSpec(window_size=4, window_mode="standard", feature_kind="hedgehog")


def small_model(seed=3, **kw):
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=128, seed=seed, **kw)
    return build_model(cfg)


def test_parameter_count_closed_form():
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=8, vocab_size=258)
    model = build_model(cfg)
    assert model.parameter_count() == expected_parameter_count(cfg)
    # and the closed form itself, expanded by hand for this config:
    D, Dh, V, M = 16, 64, 258, 2
    assert expected_parameter_count(cfg) == V * D + M * (4 * D * D + 3 * D * Dh + 2 * D) + D + D * V


def test_same_seed_bit_identical():
    a = small_model()
    b = small_model()
    for (n1, t1), (n2, t2) in zip(a.parameters().items(), b.parameters().items()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()


def test_forward_shape_bos_only():
    model = small_model()
    logits = model.forward(np.array([[256]]))
    assert logits.shape == (1, 1, 258)


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        ModelConfig(n_layers=0)
    with pytest.raises(InvalidConfig):
        ModelConfig(vocab_size=1)
    with pytest.raises(InvalidConfig):
        ModelConfig(head_dim=7)


# a setting declared int given a non-integer (or a bool) is refused with the
# settings' typed error, as the INI parser refuses it, and not with a raw
# TypeError at build, convert or forward
INTEGER_SETTINGS = {
    "ModelConfig(n_layers=2.5)": (InvalidConfig, lambda: ModelConfig(n_layers=2.5)),
    "HybridSpec(window_size=2.5)": (InvalidConfig, lambda: HybridSpec(window_size=2.5)),
    "HybridSpec(feature_dim=2.5)": (InvalidConfig, lambda: HybridSpec(feature_dim=2.5)),
    "HybridSpec(window_size=True)": (InvalidConfig, lambda: HybridSpec(window_size=True)),
    "LoraAdjust(rank=2.5)": (BadConfig, lambda: LoraAdjust(rank=2.5)),
    "lora_attach(rank=2.5)": (InvalidConfig, lambda: lora_attach(convert_model(small_model(), SPEC), rank=2.5)),
}


@pytest.mark.parametrize("case", list(INTEGER_SETTINGS))
def test_integer_settings_must_be_integers(case):
    error, make = INTEGER_SETTINGS[case]
    with pytest.raises(error, match="must be an integer"):
        make()


def test_generate_max_len_must_be_an_integer():
    model = convert_model(small_model(), SPEC)
    with pytest.raises(BadConfig, match="max_len"):
        generate_greedy(model, tokenize("AB")[:-1], 2, max_len="a")
    assert model._engine is None


# --- conversion -------------------------------------------------------------

def test_convert_trainable_set_is_exactly_feature_maps():
    model = convert_model(small_model(), SPEC)
    names = sorted(n for n, t in model.parameters().items() if t.requires_grad)
    expect = sorted(
        f"layers.{i}.attn.{n}" for i in range(2) for n in ("gamma_raw", "phi_q.weight", "phi_k.weight")
    )
    assert names == expect  # hedgehog has no bias

    model2 = convert_model(small_model(), HybridSpec(window_size=4, window_mode="standard", feature_kind="t2r"))
    names2 = sorted(n for n, t in model2.parameters().items() if t.requires_grad)
    expect2 = sorted(
        f"layers.{i}.attn.{n}"
        for i in range(2)
        for n in ("gamma_raw", "phi_q.weight", "phi_q.bias", "phi_k.weight", "phi_k.bias")
    )
    assert names2 == expect2


def test_convert_preserves_teacher_path_bitwise(monkeypatch):
    model = small_model()
    ids = np.array([[256, 65, 66, 67, 68, 69]])
    before = []
    heads_softmax = AttentionLayer.heads_softmax

    def recorded(self, q, k, v):
        y, a = heads_softmax(self, q, k, v)
        before.append([t.data.copy() for t in (q, k, v, y)])
        return y, a

    monkeypatch.setattr(AttentionLayer, "heads_softmax", recorded)
    model.forward(ids)
    convert_model(model, SPEC)
    # the teacher replays the original softmax model's layers bit-exactly
    records = model.forward_teacher_forced(ids)
    assert len(records) == len(before)
    for rec, arrays in zip(records, before):
        for name, want in zip("qkvy", arrays):
            assert rec[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("mode", ["standard", "terraced"])
def test_teacher_records_match_tensor_softmax_stack(mode):
    # the engine's teacher against the Tensor softmax stack of the same
    # weights, bit for bit: outputs y and the weights a. The stack's
    # attention is the composite of elementary Tensor ops, not heads_softmax,
    # which runs the teacher's own kernel
    model = convert_model(small_model(seed=5), HybridSpec(window_size=4, window_mode=mode, feature_kind="t2r"))
    ids = np.random.default_rng(5).integers(0, 258, size=(3, 13))
    x = model.embed_tokens(ids)
    records = model.forward_teacher_forced(ids, return_weights=True)
    for rec, blk in zip(records, model.blocks):
        q, k, v = blk.attn.project_qkv(blk.norm1.forward(x))
        y, a = oracles.softmax_attention_composite(q, k, v)
        assert rec["y"].tobytes() == y.data.tobytes()
        assert rec["a"].tobytes() == a.data.tobytes()
        x = x + blk.attn.wo.forward(blk.attn.merge_heads(y))
        x = x + blk.mlp.forward(blk.norm2.forward(x))


def test_convert_twice_rejected():
    model = convert_model(small_model(), SPEC)
    with pytest.raises(AlreadyConverted):
        convert_model(model, SPEC)


def test_teacher_forced_requires_conversion():
    with pytest.raises(NotConverted):
        small_model().forward_teacher_forced(np.array([[256, 65]]))


def test_feature_map_trainable_count_matches_formula():
    # d = 16, d' = 8 hedgehog, M = 2, H = 2 -> M*H*2*(d*d') feature-map weights
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=16, seed=0)
    model = build_model(cfg)
    convert_model(model, HybridSpec(window_size=4, window_mode="standard", feature_kind="hedgehog", feature_dim=8))
    count = sum(t.size for n, t in model.parameters().items() if t.requires_grad and "phi_" in n)
    assert count == 2 * 2 * 2 * (16 * 8)


def test_teacher_forcing_isolates_stream_from_feature_maps():
    model = convert_model(small_model(), SPEC)
    ids = np.array([[256, 72, 73, 74, 75, 76, 77]])
    records1 = model.forward_teacher_forced(ids)
    # perturb a feature map; the propagated stream (every layer's q, k, v)
    # and the teacher outputs must not move
    model.blocks[0].attn.hybrid_cfg.phi_q.weight.data += 0.37
    records2 = model.forward_teacher_forced(ids)
    for r1, r2 in zip(records1, records2):
        for name in "qkvy":
            assert r1[name].tobytes() == r2[name].tobytes(), name
    # but the student outputs do move
    assert not np.array_equal(records1[0]["y_hat"].data, records2[0]["y_hat"].data)


def test_hybrid_equals_softmax_when_window_covers_seq():
    model = convert_model(
        small_model(), HybridSpec(window_size=64, window_mode="standard", feature_kind="hedgehog")
    )
    ids = np.array([[256, 65, 66, 67, 65, 66, 67, 68]])
    records = model.forward_teacher_forced(ids)
    for rec in records:
        assert np.abs(rec["y"] - rec["y_hat"].data).max() <= 1e-5


# --- LoRA ----------------------------------------------------------------------

def test_lora_attach_is_bit_exact_identity():
    model = convert_model(small_model(), SPEC)
    ids = np.array([[256, 80, 81, 82, 83]])
    before = model.forward(ids).data.copy()
    lora_attach(model, rank=2, alpha=16.0)
    after = model.forward(ids).data
    assert before.tobytes() == after.tobytes()


def test_lora_double_attach_rejected():
    model = convert_model(small_model(), SPEC)
    lora_attach(model, rank=2)
    with pytest.raises(DuplicateAdapter):
        lora_attach(model, rank=2)


def lora_projection(w, a, b, rank, alpha):
    proj = Projection(w, "t")
    proj.adapter = LoraAdapter(a=a, b=b, rank=rank, alpha=alpha)
    return proj


def test_lora_alpha_linearity():
    g = np.random.default_rng(9)
    w = Tensor(g.normal(size=(8, 8)), dtype=np.float64)
    a = Tensor(g.normal(size=(2, 8)), dtype=np.float64)
    b = Tensor(g.normal(size=(8, 2)), dtype=np.float64)
    x = Tensor(g.normal(size=(3, 8)), dtype=np.float64)
    base_out = T.matmul(x, w).data

    y8 = lora_projection(w, a, b, rank=2, alpha=8.0).forward(x).data
    y16 = lora_projection(w, a, b, rank=2, alpha=16.0).forward(x).data
    np.testing.assert_allclose(y16 - base_out, 2.0 * (y8 - base_out), atol=1e-6)


def test_lora_rank1_hand_case():
    # base W = 0, A picks x_0, B writes to output 0, alpha/r = alpha
    w = Tensor(np.zeros((4, 4), dtype=np.float64))
    a = Tensor(np.array([[1.0, 0, 0, 0]]), dtype=np.float64)
    c = 0.7
    b = Tensor(np.array([[c], [0], [0], [0]]), dtype=np.float64)
    x = Tensor(np.array([[2.0, -1.0, 5.0, 0.5]]), dtype=np.float64)
    y = lora_projection(w, a, b, rank=1, alpha=3.0).forward(x)
    expect = np.zeros((1, 4))
    expect[0, 0] = 3.0 * c * 2.0
    np.testing.assert_allclose(y.data, expect, atol=1e-12)


# --- tokenizer ----------------------------------------------------------------

def test_tokenize_analytic():
    np.testing.assert_array_equal(tokenize(b""), [256, 257])
    np.testing.assert_array_equal(tokenize("AB"), [256, 65, 66, 257])


def test_tokenize_roundtrip_random_bytes():
    g = np.random.default_rng(13)
    blob = bytes(g.integers(0, 256, size=1024).tolist())
    assert detokenize(tokenize(blob)) == blob


def test_detokenize_unknown_id():
    with pytest.raises(UnknownId):
        detokenize(np.array([65, 400]))


@pytest.mark.parametrize("ids", [[-1, 65], [65.7], [65.0]], ids=["negative", "fraction", "float"])
def test_detokenize_refuses_negative_and_non_integer_ids(ids):
    with pytest.raises(UnknownId):
        detokenize(np.array(ids))


@pytest.mark.parametrize("text", [5, [300], None], ids=["int", "list", "none"])
def test_tokenize_takes_only_text_or_bytes(text):
    # an int would be bytes(n), n zero bytes: an allocation the caller sized
    with pytest.raises(BadConfig):
        tokenize(text)


# --- checkpoints -----------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = convert_model(small_model(), SPEC)
    lora_attach(model, rank=2, alpha=16.0, seed=11)
    g = np.random.default_rng(17)
    for name, t in model.parameters().items():
        if name.endswith("lora_b"):
            t.data = g.normal(0, 0.02, size=t.shape).astype(np.float32)
    path = str(tmp_path / "model.lolc")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    ids = np.array([[256, 70, 71, 72, 73]])
    assert model.forward(ids).data.tobytes() == loaded.forward(ids).data.tobytes()
    for (n1, t1), (n2, t2) in zip(model.parameters().items(), loaded.parameters().items()):
        assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()
        assert t1.requires_grad == t2.requires_grad


def test_checkpoint_load_draws_no_random_weights(tmp_path, monkeypatch):
    # the loader builds every array from the payload: trained feature maps,
    # t2r biases and adapters alike, with their trainable flags
    model = lora_attach(convert_model(small_model(), HybridSpec(4, "terraced", "t2r")), rank=2, seed=5)
    for t in model.parameters().values():
        t.data = t.data + np.float32(0.5)
    path = str(tmp_path / "model.lolc")
    save_checkpoint(model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)
    assert (loaded.hybrid_spec, loaded.lora_meta) == (model.hybrid_spec, model.lora_meta)
    assert loaded.parameters().keys() == model.parameters().keys()
    for name, t in loaded.parameters().items():
        src = model.parameters()[name]
        assert t.data.tobytes() == src.data.tobytes() and t.data.flags.writeable, name
        assert t.requires_grad == src.requires_grad and (t.grad is None) == (src.grad is None), name


def test_checkpoint_truncation_detected(tmp_path):
    model = small_model()
    path = str(tmp_path / "model.lolc")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 9])
    with pytest.raises(CorruptPayload):
        load_checkpoint(path)


def test_checkpoint_corruption_detected(tmp_path):
    model = small_model()
    path = str(tmp_path / "model.lolc")
    save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CorruptPayload):
        load_checkpoint(path)


def _sealed(blob, header):
    """blob, a saved checkpoint, with header in place of its own and the CRC re-sealed."""
    n = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    raw = json.dumps(header).encode("utf-8")
    body = blob[:8] + np.uint64(len(raw)).tobytes() + raw + blob[16 + n : -4]
    return body + np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes()


def _rewrite_header(path, edit):
    """Apply edit(header dict) to a saved checkpoint and re-seal its CRC."""
    blob = open(path, "rb").read()
    header = json.loads(blob[16 : 16 + int(np.frombuffer(blob[8:16], dtype="<u8")[0])])
    edit(header)
    open(path, "wb").write(_sealed(blob, header))


def _share_layer_0(header, n_layers):
    """Declare n_layers layers, each extra one's table entries pointing at
    layer 0's payload bytes."""
    layer_0 = [e for e in header["tensors"] if e["name"].startswith("layers.0.")]
    for i in range(header["config"]["n_layers"], n_layers):
        header["tensors"] += [{**e, "name": e["name"].replace("layers.0.", f"layers.{i}.", 1)} for e in layer_0]
    header["config"]["n_layers"] = n_layers


MALFORMED_HEADERS = {
    "missing_config": lambda h: h.pop("config"),
    "unknown_dtype_tag": lambda h: h["tensors"][0].update(dtype="f16"),
    "mistyped_config_field": lambda h: h["config"].update(n_layers="2"),
    "unknown_config_key": lambda h: h["config"].update(n_experts=4),
    "reversed_tensor_shape": lambda h: [e.update(shape=e["shape"][::-1]) for e in h["tensors"] if e["name"] == "head.weight"],
    # ~1e8 parameters declared in a file of a few KB
    "config_larger_than_payload": lambda h: h["config"].update(vocab_size=10**5, n_layers=8, n_heads=8, head_dim=64),
    "infinite_mlp_mult": lambda h: h["config"].update(mlp_hidden_mult=float("inf")),
    "negative_mlp_mult": lambda h: h["config"].update(mlp_hidden_mult=-1.0),
    "zero_layers": lambda h: h["config"].update(n_layers=0),
    "zero_rope_base": lambda h: h["config"].update(rope_base=0.0),
    "zero_window_size": lambda h: h["hybrid"].update(window_size=0),
    "zero_feature_dim": lambda h: h["hybrid"].update(feature_dim=0),
    "unknown_window_mode": lambda h: h["hybrid"].update(window_mode="bogus"),
    # feature maps and adapters of ~1e7 parameters each, sized by the header alone
    "huge_feature_dim": lambda h: h["hybrid"].update(feature_dim=200000),
    "huge_lora_rank": lambda h: h["lora"].update(rank=20000),
    # a model over ModelConfig's MAX_PARAMETERS, before the payload is read
    "model_over_parameter_cap": lambda h: h["config"].update(mlp_hidden_mult=1e9),
    # every shape as the model expects, 400 layers read from layer 0's bytes
    "layers_sharing_one_payload": lambda h: _share_layer_0(h, 400),
    # a tensor read from before the payload (a negative slice start counts
    # from its end, so these bytes exist) or past its end
    "negative_tensor_offset": lambda h: [
        e.update(offset=-4 - 4 * int(np.prod(e["shape"]))) for e in h["tensors"] if e["name"] == "embed.weight"
    ],
    "tensor_offset_past_payload": lambda h: max(h["tensors"], key=lambda e: e["offset"]).update(offset=10**6),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_checkpoint_malformed_header_is_corrupt_payload(tmp_path, case):
    path = str(tmp_path / "model.lolc")
    save_checkpoint(lora_attach(convert_model(small_model(), SPEC), rank=2), path)
    _rewrite_header(path, MALFORMED_HEADERS[case])
    tracemalloc.start()
    try:
        with pytest.raises(CorruptPayload):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"loader peaked at {peak} bytes"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every path into a decoded JSON value, the root () first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


@functools.cache
def _tiny_checkpoint():
    """The bytes and the decoded header of a converted two-layer model with
    rank-1 adapters, a few KB."""
    cfg = ModelConfig(vocab_size=8, n_layers=2, n_heads=1, head_dim=2, max_seq_len=16, seed=9)
    model = lora_attach(convert_model(build_model(cfg), HybridSpec(2, "terraced", "t2r")), rank=1)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(model, os.path.join(tmp, "tiny.lolc"))
        blob = open(os.path.join(tmp, "tiny.lolc"), "rb").read()
    return blob, json.loads(blob[16 : 16 + int(np.frombuffer(blob[8:16], dtype="<u8")[0])])


@st.composite
def edited_tiny_headers(draw):
    """The tiny checkpoint's header after 1-3 edits, each replacing or deleting
    the value at a path drawn mostly from the config, hybrid and LoRA settings."""
    header = copy.deepcopy(_tiny_checkpoint()[1])
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(["config", "config", "hybrid", "lora", "tensors", None]))
        root = (section,) if isinstance(header, dict) and isinstance(header.get(section), (dict, list)) else ()
        node = header
        for key in root:
            node = node[key]
        path = root + draw(st.sampled_from(list(_paths(node))))
        value = draw(JSON_VALUES)
        if not path:
            header = value
            continue
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return header


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=edited_tiny_headers())
def test_mutated_checkpoint_header_loads_or_raises_a_linswap_error(tmp_path, header):
    # the CRC is re-sealed, so each edit gets past it to the header's
    # decoding, the settings classes' own checks and the payload reads;
    # no edit may make the loader allocate past the fixed cases' bound
    path = str(tmp_path / "fuzz.lolc")
    open(path, "wb").write(_sealed(_tiny_checkpoint()[0], header))
    tracemalloc.start()
    try:
        load_checkpoint(path)
    except LinswapError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"loader peaked at {peak} bytes"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=64))
def test_arbitrary_corpus_bytes_load_or_raise_a_linswap_error(tmp_path, data):
    path = tmp_path / "fuzz.u32"
    path.write_bytes(data)
    try:
        check_token_array(load_corpus(str(path)))
    except LinswapError:
        pass


def test_checkpoint_failed_save_keeps_previous(tmp_path, monkeypatch):
    path = str(tmp_path / "model.lolc")
    save_checkpoint(small_model(), path)
    before = open(path, "rb").read()

    class HalfWrite:
        """A file whose first write stores half its bytes, then fails."""

        def __init__(self, name, mode):
            self.fh = builtins.open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    # save_checkpoint opens its output through the module-global name open
    monkeypatch.setattr(checkpoint, "open", HalfWrite, raising=False)
    with pytest.raises(IoFailure):
        save_checkpoint(convert_model(small_model(), SPEC), path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert not load_checkpoint(path).converted
    assert os.listdir(tmp_path) == ["model.lolc"]


def test_checkpoint_save_fsyncs_before_rename(tmp_path, monkeypatch):
    # the complete temp file must reach the disk before it replaces path
    path = str(tmp_path / "model.lolc")
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", dst))
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint.os, "replace", replace)
    save_checkpoint(small_model(), path)
    assert events == [("fsync", os.path.getsize(path)), ("replace", path)]


def test_corpus_roundtrip(tmp_path):
    ids = np.random.default_rng(23).integers(0, 258, size=1000).astype(np.uint32)
    path = str(tmp_path / "corpus.bin")
    save_corpus(ids, path)
    np.testing.assert_array_equal(load_corpus(path), ids)
    raw = open(path, "rb").read()
    assert raw[:4] == ids[:1].astype("<u4").tobytes()  # little-endian u32 layout


# --- generation ----------------------------------------------------------------

def test_generate_zero_new_tokens_echoes_prompt():
    model = convert_model(small_model(), SPEC)
    prompt = tokenize("AB")[:-1]  # drop EOS
    out = generate_greedy(model, prompt, 0)
    np.testing.assert_array_equal(out[0], prompt)


def test_generate_rejects_negative_n_new():
    model = convert_model(small_model(), SPEC)
    with pytest.raises(BadConfig):
        generate_greedy(model, tokenize("AB")[:-1], -3)


def test_generate_prompt_too_long():
    model = convert_model(small_model(), SPEC)
    with pytest.raises(PromptTooLong):
        generate_greedy(model, np.arange(100) % 256, 100)


def test_generate_rejects_float_ids():
    # ids are checked as given, not truncated to integers first
    model = convert_model(small_model(), SPEC)
    with pytest.raises(UnknownId):
        generate_greedy(model, [[1.7, 2.2, 3.9]], 3)


def test_generate_rejects_out_of_range_ids_without_new_tokens():
    model = convert_model(small_model(), SPEC)
    with pytest.raises(UnknownId):
        generate_greedy(model, [[999]], 0)


@pytest.mark.parametrize("mode", ["standard", "terraced"])
def test_generate_decode_matches_full_prefill(mode):
    model = convert_model(
        small_model(), HybridSpec(window_size=4, window_mode=mode, feature_kind="hedgehog")
    )
    w = 4
    prompt = np.concatenate([[256], (np.arange(11) % 26) + 65])
    n_new = w + 2
    out = generate_greedy(model, prompt, n_new)
    # re-prefilling at every intermediate length must pick the same tokens
    for p in range(len(prompt), len(prompt) + n_new):
        logits = model.forward(out[:, :p])
        nxt = logits.data[:, -1].argmax(-1)
        assert nxt[0] == out[0, p]


def test_checkpoint_version_mismatch(tmp_path):
    model = small_model()
    path = str(tmp_path / "model.lolc")
    save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = np.uint32(99).tobytes()  # bump format version
    import zlib

    body = bytes(blob[:-4])
    blob[-4:] = np.uint32(zlib.crc32(body) & 0xFFFFFFFF).tobytes()
    open(path, "wb").write(bytes(blob))
    from linswap.errors import FormatVersionMismatch

    with pytest.raises(FormatVersionMismatch):
        load_checkpoint(path)


def test_checkpoint_io_failure():
    with pytest.raises(IoFailure):
        save_checkpoint(small_model(), "/nonexistent-dir/x.lolc")
    with pytest.raises(IoFailure):
        load_checkpoint("/nonexistent-dir/x.lolc")


@pytest.mark.parametrize("mode", ["standard", "terraced"])
def test_decode_matches_reprefill_at_window_boundaries(mode):
    # short prompt so the checked positions straddle w-1, w, w+1, 2w
    w = 4
    model = convert_model(
        small_model(), HybridSpec(window_size=w, window_mode=mode, feature_kind="hedgehog")
    )
    prompt = np.array([256, 65])
    n_new = 2 * w + 1
    out = generate_greedy(model, prompt, n_new)
    for p in (w - 1, w, w + 1, 2 * w):
        logits = model.forward(out[:, :p])
        assert logits.data[0, -1].argmax() == out[0, p], f"position {p}"


@pytest.mark.parametrize("kind", ["hedgehog", "t2r"])
@pytest.mark.parametrize("mode", ["standard", "terraced"])
def test_session_bulk_load_then_step_matches_prefill(mode, kind):
    # a prompt advanced as one segment must leave the same state that
    # streaming would, at every prompt length on both sides of each eviction
    # boundary
    w = 4
    model = convert_model(small_model(), HybridSpec(window_size=w, window_mode=mode, feature_kind=kind))
    ids = np.random.default_rng(0).integers(0, 258, size=(2, 3 * w + 2))
    for n in range(1, 3 * w + 2):
        session = HybridSession(model, 2)
        session.prefill(ids[:, :n])
        stepped = session.step(ids[:, n])
        fresh = HybridSession(model, 2).prefill(ids[:, : n + 1])
        assert np.abs(stepped - fresh).max() <= 1e-5, f"prompt length {n}"


def test_session_prefill_replaces_state():
    # a second prefill on the same session must not keep the first prompt's kv-state
    model = convert_model(small_model(), HybridSpec(window_size=4, window_mode="terraced", feature_kind="hedgehog"))
    ids = np.random.default_rng(2).integers(0, 258, size=(1, 11))
    reused = HybridSession(model, 1)
    reused.prefill(ids)
    reused.prefill(ids)
    fresh = HybridSession(model, 1)
    fresh.prefill(ids)
    np.testing.assert_array_equal(reused.step(ids[:, 0]), fresh.step(ids[:, 0]))


@pytest.mark.parametrize("session", ["hybrid", "softmax"])
@pytest.mark.parametrize(
    "ids, error",
    [
        (np.zeros((1, 0), dtype=np.int64), ShapeMismatch),  # empty prompt
        (np.array([[1.5, 2.0]]), UnknownId),  # float ids
        (np.array([1, 2]), ShapeMismatch),  # 1-D ids
    ],
    ids=["empty", "float", "1d"],
)
def test_session_rejects_malformed_ids(session, ids, error):
    # the sessions' input boundary raises typed errors, not numpy's
    if session == "hybrid":
        model = convert_model(small_model(), SPEC)
        cls = HybridSession
    else:
        model, cls = small_model(), SoftmaxSession
    with pytest.raises(error):
        cls(model, 1).prefill(ids)
    primed = cls(model, 2)
    primed.prefill(np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ShapeMismatch):
        primed.step(np.ones(3, dtype=np.int64))  # batch differs from the prompt's


def test_session_checks_ids_once_per_call_before_any_state_moves(monkeypatch):
    # a 600-token prompt spans three prefill segments; its ids are checked
    # once, before the first segment resets the state, so an out-of-range id
    # at its last position leaves the primed session as it was
    session = HybridSession(convert_model(small_model(), SPEC), 1)
    session.prefill(np.ones((1, 10), dtype=np.int64))
    before = copy.deepcopy(session.states)
    checks = []
    monkeypatch.setattr(M, "_check_ids", lambda *args: checks.append(args) or check_ids(*args))
    ids = np.random.default_rng(2).integers(0, 258, size=(1, 600))
    ids[0, 599] = 258
    with pytest.raises(UnknownId):
        session.prefill(ids)
    with pytest.raises(UnknownId):
        session.step(np.array([258]))
    assert len(checks) == 2 and session.position == 10
    for a, b in zip(before, session.states):
        assert (a.filled, a.position) == (b.filled, b.position)
        for name in ("s", "z", "k_cache", "v_cache"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    ids[0, 599] = 5
    session.prefill(ids)
    session.step(ids[:, 0])
    assert len(checks) == 4 and session.position == 601


def test_softmax_session_matches_forward():
    model = small_model()
    ids = np.random.default_rng(1).integers(0, 258, size=(2, 10))
    ref = model.forward(ids).data
    session = SoftmaxSession(model, 2)
    assert np.abs(session.prefill(ids[:, :4]) - ref[:, 3]).max() <= 1e-5
    for t in range(4, ids.shape[1]):
        assert np.abs(session.step(ids[:, t]) - ref[:, t]).max() <= 1e-5, f"position {t}"


@pytest.mark.parametrize("mode", ["standard", "terraced", None])
def test_session_row_matches_the_row_served_alone(mode):
    # the engine multiplies all b rows of a product at once, so a row of a
    # b4 batch rounds as part of a 4-row product; through a prefill and steps
    # that cross w boundaries, it stays within criterion 4's 1e-5 of the same
    # row served at b1. Mode None is the softmax session
    w, prompt_len = 4, 6
    n_new = 2 * w + 3
    model = small_model()
    if mode is not None:
        convert_model(model, HybridSpec(window_size=w, window_mode=mode, feature_kind="hedgehog"))
    model = with_nonzero_lora(model)
    cls = SoftmaxSession if mode is None else HybridSession
    ids = np.random.default_rng(9).integers(0, 258, size=(4, prompt_len + n_new))
    batch = cls(model, 4)
    rows = [cls(model, 1) for _ in range(4)]
    got = [batch.prefill(ids[:, :prompt_len])]
    alone = [np.concatenate([s.prefill(ids[r : r + 1, :prompt_len]) for r, s in enumerate(rows)])]
    for n in range(prompt_len, ids.shape[1]):
        got.append(batch.step(ids[:, n]))
        alone.append(np.concatenate([s.step(ids[r : r + 1, n]) for r, s in enumerate(rows)]))
    for n, (x, y) in enumerate(zip(got, alone)):
        assert np.abs(x - y).max() <= 1e-5, f"position {prompt_len - 1 + n}"


def test_softmax_session_holds_the_model_dtype():
    # a float64 model's KV buffers are float64, and its steps then agree with
    # the float64 Tensor forward far below criterion 4's float32 bound
    model = small_model()
    for t in model.parameters().values():
        t.data = t.data.astype(np.float64)
    ids = np.random.default_rng(1).integers(0, 258, size=(2, 10))
    ref = model.forward(ids).data
    session = SoftmaxSession(model, 2)
    assert np.abs(session.prefill(ids[:, :4]) - ref[:, 3]).max() <= 1e-12
    for t in range(4, ids.shape[1]):
        assert np.abs(session.step(ids[:, t]) - ref[:, t]).max() <= 1e-12, f"position {t}"
    assert all(kv.dtype == np.float64 for kv in session.kv)


def test_engine_swiglu_is_mlp_forward_bitwise():
    # the engine's in-place SwiGLU against Mlp.forward on the same weights
    mlp = small_model().blocks[1].mlp
    u = np.random.default_rng(6).normal(size=(3, 7, 16)).astype(np.float32) * 4
    act = M._swiglu_np(u @ mlp.gate.weight.data, u @ mlp.up.weight.data)
    assert (act @ mlp.down.weight.data).tobytes() == mlp.forward(Tensor(u)).data.tobytes()


def test_engine_rope_tables_are_rope_angles_bitwise():
    # slices of the cached tables, at positions up to and past max_seq_len
    # (sessions do not cap there) and segment lengths around the table span
    span = M.ROPE_SPAN
    for position in (0, 1, 5, span - 1, span, 3 * span - 2, 4095, 4096, CFG.max_seq_len + 3, 70001):
        for n in (1, 3, span - 1, span + 1, 1000):
            cos, sin = M._rope_at(position, n, 32, 10000.0, np.dtype(np.float32))
            ref = [t.astype(np.float32) for t in rope_angles(n, 32, position, 10000.0)]
            assert cos.tobytes() == ref[0].tobytes() and sin.tobytes() == ref[1].tobytes(), (position, n)
            assert not cos.flags.writeable and not sin.flags.writeable


def test_rope_tables_stay_cached_across_long_prefills():
    # a prefill reads one rope table per segment: a second L8192 sweep finds
    # all 32 of its tables cached, and a decode step past an L4096 prompt
    # evicts none of the prompt's 16 (with 16 cached tables, each of those
    # sweeps recomputed every table)
    seg = M.PREFILL_SEGMENT

    def sweep(n):
        for start in range(0, n, seg):
            M._rope_at(start, seg, 32, 10000.0, np.dtype(np.float32))
        return M._rope_table.cache_info().misses

    M._rope_table.cache_clear()
    assert sweep(8192) == 8192 // seg
    assert sweep(8192) == 8192 // seg
    M._rope_table.cache_clear()
    sweep(4096)
    M._rope_at(4096, 1, 32, 10000.0, np.dtype(np.float32))
    stepped = M._rope_table.cache_info().misses
    assert sweep(4096) - stepped <= 1


@pytest.mark.parametrize("mode", ["standard", "terraced"])
def test_fresh_prefill_state_matches_split_prefill(mode):
    # a prompt longer than the window, prefilled at once (its segment is not
    # copied after an empty cache), leaves the state and cache that the same
    # prompt leaves in two segments
    w = 4
    model = with_nonzero_lora(convert_model(small_model(), HybridSpec(window_size=w, window_mode=mode, feature_kind="t2r")))
    ids = np.random.default_rng(7).integers(0, 258, size=(2, 5 * w + 3))
    for cut in (1, w - 1, w + 2, 3 * w):
        whole, split = HybridSession(model, 2), HybridSession(model, 2)
        whole.prefill(ids)
        split.prefill(ids[:, :cut])
        split._advance(ids[:, cut:])
        for a, b in zip(whole.states, split.states):
            assert (a.filled, a.position) == (b.filled, b.position)
            for name, (x, y) in _state_pairs(a, b).items():
                assert np.abs(x - y).max() <= 1e-5 * max(1.0, np.abs(y).max()), (cut, name)


def _state_pairs(a, b):
    """The (a, b) arrays of two HybridDecodeStates that a decode step reads."""
    pairs = {"s": (a.s, b.s), "z": (a.z, b.z)}
    return pairs | {name: (getattr(a, name)[:, :, : a.filled], getattr(b, name)[:, :, : b.filled]) for name in ("k_cache", "v_cache")}


@pytest.mark.parametrize("kind", ["hedgehog", "t2r"])
@pytest.mark.parametrize("mode", ["standard", "terraced"])
def test_segmented_prefill_matches_one_segment(mode, kind):
    # prefill runs the prompt in PREFILL_SEGMENT-token segments; the same
    # prompt as one segment (_advance with fresh=True) is its oracle. w
    # divides the segment, so either way the kernel folds the same key
    # blocks and runs the same chunks, in both modes: bit-identical
    w, seg = 8, M.PREFILL_SEGMENT
    model = with_nonzero_lora(convert_model(small_model(), HybridSpec(window_size=w, window_mode=mode, feature_kind=kind)))
    ids = np.random.default_rng(11).integers(0, 258, size=(2, 2 * seg + 3 * w + 3))
    segmented, whole = HybridSession(model, 2), HybridSession(model, 2)
    got, ref = segmented.prefill(ids), whole._advance(ids, fresh=True)
    assert segmented.position == whole.position == ids.shape[1]
    pairs = {"logits": (got, ref)}
    for i, (a, b) in enumerate(zip(segmented.states, whole.states)):
        assert (a.filled, a.position) == (b.filled, b.position)
        pairs |= {f"layers.{i} {name}": pair for name, pair in _state_pairs(a, b).items()}
    for name, (x, y) in pairs.items():
        assert x.tobytes() == y.tobytes(), name


def test_segmented_prefill_peak_memory_is_flat_in_prompt_length():
    # one segment's activations at a time: a one-segment prefill peaks 3.9x
    # higher at 8 segments than at 2 on this shape, the segmented one 1.001x.
    # 1.25 fails any buffer that keeps more than about 200 bytes per prompt
    # token (1/16 of what the one-segment prefill keeps) and leaves the rest
    # to allocator noise
    seg = M.PREFILL_SEGMENT
    model = convert_model(small_model(), HybridSpec(window_size=8, window_mode="terraced", feature_kind="hedgehog"))
    peaks = {}
    for n in (2 * seg, 8 * seg):
        ids = np.random.default_rng(n).integers(0, 258, size=(2, n))
        session = HybridSession(model, 2)
        session.prefill(ids)  # caches the rope tables of its positions
        tracemalloc.start()
        try:
            session.prefill(ids)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8 * seg] <= 1.25 * peaks[2 * seg], peaks


def with_nonzero_lora(model, seed=4):
    lora_attach(model, rank=2, alpha=4.0, seed=seed)
    g = np.random.default_rng(seed)
    for name, t in adapter_parameters(model).items():
        if name.endswith("lora_b"):
            t.data = g.normal(0.0, 0.1, size=t.shape).astype(np.float32)
    return model


@pytest.mark.parametrize(
    "mode,kind",
    [("standard", "t2r"), ("standard", "hedgehog"), ("terraced", "t2r"), ("terraced", "hedgehog"), (None, None)],
)
def test_engine_serves_merged_lora_as_forward(mode, kind):
    # the sessions' numpy engine (merged LoRA, fused qkv, numpy rope) against
    # the Tensor forward; mode None is the softmax session on an unconverted model
    w = 4
    model = small_model()
    if mode is not None:
        convert_model(model, HybridSpec(window_size=w, window_mode=mode, feature_kind=kind))
    ids = np.random.default_rng(5).integers(0, 258, size=(2, 3 * w + 3))
    base = model.forward(ids).data
    ref = with_nonzero_lora(model).forward(ids).data  # causal: row t is the last row of forward(ids[:, :t + 1])
    assert np.abs(ref - base).max() > 1e-3  # the adapters matter
    session = (SoftmaxSession if mode is None else HybridSession)(model, 2)
    assert np.abs(session.prefill(ids[:, : w + 1]) - ref[:, w]).max() <= 1e-5
    for t in range(w + 1, ids.shape[1]):
        assert np.abs(session.step(ids[:, t]) - ref[:, t]).max() <= 1e-5, f"position {t}"


def test_engine_projections_are_the_tape_merged_weights():
    # one merge rule: the engine's fused wq|wk|wv and its wo are the merged
    # weights the tape trains through, bit for bit
    model = with_nonzero_lora(convert_model(small_model(), SPEC))
    engine = M._Engine(model)
    for blk, layer in zip(model.blocks, engine.layers):
        attn = blk.attn
        wqkv = T.concat([attn.wq.merged(), attn.wk.merged(), attn.wv.merged()], axis=1)
        assert layer.wqkv.tobytes() == wqkv.data.tobytes()
        assert layer.wo.tobytes() == attn.wo.merged().data.tobytes()
        assert np.abs(layer.wo - attn.wo.weight.data).max() > 1e-3  # the adapter is in it


def test_sessions_on_one_model_state_share_one_engine(monkeypatch):
    # the LoRA merges and the qkv fusion run once per state of the
    # parameters, not once per session; a stage-1 step replaces phi and gamma
    # every time, so its teacher builds its own engine, exactly one
    builds = []
    init = M._Engine.__init__
    monkeypatch.setattr(M._Engine, "__init__", lambda self, model: builds.append(model) or init(self, model))
    model = with_nonzero_lora(convert_model(small_model(), SPEC))
    sessions = [HybridSession(model, 1) for _ in range(4)] + [generate_greedy(model, [[65, 66]], 2)]
    assert len(builds) == 1
    assert sessions[0].engine is sessions[1].engine is M._Engine.of(model)
    model = convert_model(small_model(), SPEC)
    HybridSession(model, 1)
    del builds[:]
    ids = np.random.default_rng(6).integers(0, 258, size=(2, 8))
    AttentionTransfer().step(model, ids, AdamW(feature_map_parameters(model), lr=1e-2))
    assert len(builds) == 1


@pytest.mark.parametrize(
    "name", ["layers.0.attn.wq.weight", "layers.1.mlp.up.weight", "layers.1.attn.wv.lora_b", "layers.0.attn.gamma_raw", "layers.1.attn.phi_k.weight"]
)
def test_replacing_a_parameter_array_builds_the_next_sessions_engine(name):
    # a dense weight, a LoRA B, gamma_raw and a feature map, each replaced as
    # AdamW replaces it: the next session serves the new array, as a session
    # on an engine built from scratch does, while a session built before
    # keeps the engine, and so the bits, it was handed
    model = with_nonzero_lora(convert_model(small_model(), SPEC))
    ids = np.random.default_rng(7).integers(0, 258, size=(1, 3 * SPEC.window_size + 1))
    before, stepped = HybridSession(model, 1), HybridSession(model, 1)
    old = before.prefill(ids[:, :-1])
    stepped.prefill(ids[:, :-1])
    old_step = stepped.step(ids[:, -1])
    t = model.parameters()[name]
    t.data = t.data * np.float32(1.5)
    after, fresh = HybridSession(model, 1), HybridSession(model, 1)
    fresh.engine = M._Engine(model)
    assert after.engine is not before.engine
    new = after.prefill(ids[:, :-1])
    assert new.tobytes() == fresh.prefill(ids[:, :-1]).tobytes()
    assert np.abs(new - old).max() > 1e-4
    assert before.step(ids[:, -1]).tobytes() == old_step.tobytes()


@pytest.mark.parametrize("name", ["layers.0.attn.wq.weight", "layers.1.attn.wv.lora_b"])
def test_writing_a_parameter_array_in_place_is_not_seen_until_it_is_replaced(name):
    # the engine is looked up by the identity of the parameter arrays, so a
    # write into one in place keeps the engine the last session was handed,
    # whose merged qkv still holds the old bits; replacing the array, as
    # AdamW and load_checkpoint do, gives the next session a new engine
    model = with_nonzero_lora(convert_model(small_model(), SPEC))
    ids = np.random.default_rng(8).integers(0, 258, size=(1, 3 * SPEC.window_size))
    first = HybridSession(model, 1)
    old = first.prefill(ids)
    t = model.parameters()[name]
    t.data *= np.float32(1.5)
    stale = HybridSession(model, 1)
    assert stale.engine is first.engine
    assert stale.prefill(ids).tobytes() == old.tobytes()
    t.data = t.data.copy()
    after, fresh = HybridSession(model, 1), HybridSession(model, 1)
    fresh.engine = M._Engine(model)
    assert after.engine is not first.engine
    new = after.prefill(ids)
    assert new.tobytes() == fresh.prefill(ids).tobytes()
    assert np.abs(new - old).max() > 1e-4


def test_lora_attach_or_convert_after_a_session_builds_a_new_engine():
    model = small_model()
    softmax = SoftmaxSession(model, 1).engine
    convert_model(model, SPEC)
    hybrid = HybridSession(model, 1).engine
    assert hybrid is not softmax and hybrid.layers[0].hybrid is not None
    lora_attach(model, rank=2)
    assert HybridSession(model, 1).engine is not hybrid


@pytest.mark.parametrize("batch", [-1, 0, 2.5, True, "2"])
@pytest.mark.parametrize("kind", ["hybrid", "softmax"])
def test_session_batch_must_be_an_integer_of_at_least_one(kind, batch):
    # refused before the session builds an engine or allocates a state
    model = convert_model(small_model(), SPEC) if kind == "hybrid" else small_model()
    with pytest.raises(BadConfig, match="batch"):
        (HybridSession if kind == "hybrid" else SoftmaxSession)(model, batch)
    assert model._engine is None


@pytest.mark.parametrize("n_new", [2.5, -0.5, None, "3"])
def test_generate_n_new_must_be_a_non_negative_integer(n_new):
    model = convert_model(small_model(), SPEC)
    with pytest.raises(BadConfig, match="n_new"):
        generate_greedy(model, tokenize("AB")[:-1], n_new)
    assert model._engine is None


@pytest.mark.parametrize("layer,param,op", [(0, "wq", "attn.qkv"), (1, "down", "mlp.down")])
def test_engine_non_finite_result_names_layer_and_op(layer, param, op):
    model = with_nonzero_lora(convert_model(small_model(), SPEC))
    blk = model.blocks[layer]
    proj = blk.attn.wq if param == "wq" else blk.mlp.down
    proj.weight.data = np.full_like(proj.weight.data, np.inf)
    session = HybridSession(model, 1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResult, match=rf"layers\.{layer} {op}"):
        session.step(np.array([65]))


F32_MAX = float(np.finfo(np.float32).max)


def _poison(name, edit):
    # edit(array, model) writes the poison into a copy of the named parameter
    def apply(model):
        t = model.parameters()[name]
        data = t.data.copy()
        edit(data, model)
        t.data = data

    return apply


def _nan(data, model):
    data[:] = np.nan


def _pair_col(data, model, scale):
    # columns 0 and 1 each carry +scale and -scale in every row, so one of
    # the pair is positive for any input whose entries sum nonzero
    data[:] = 0.0
    data[:, 0], data[:, 1] = scale, -scale


def _layer0_u(model, token):
    # layer 0's norm1 output for a token: its input is the embedding row
    engine = M._Engine(model)
    return T.rms_norm_np(engine.embed[token], engine.layers[0].norm1, M.RMS_EPS)


def _rope_overflow(data, model):
    # q's rotary pair 0 is (a, -a), read from the one input entry m where
    # token 66's norm1 output is largest against token 65's: a = 0.85 f32 max
    # for token 66, at most that for token 65. At position 1 the pair turns
    # by 1 rad, and a (cos 1 + sin 1) = 1.17 f32 max overflows
    u65, u66 = _layer0_u(model, 65), _layer0_u(model, 66)
    m = np.argmax(np.abs(u66) / np.abs(u65))
    data[:] = 0.0
    data[m, 0] = 0.85 * F32_MAX / u66[m]
    data[m, 1] = -data[m, 0]


def _residual_embed(data, model):
    data[66, 0] = 0.9 * F32_MAX  # its norm1 output is 0 (x^2 overflows the mean), so its q, k, v are 0


def _residual_wo(data, model):
    # token 65's heads output is its own v, so o[0] = 0.5 f32 max there;
    # token 66 attends half to 65's v and half to its own (zero) v, so its
    # o[0] is 0.25 f32 max, which its 0.9 f32 max stream entry cannot take
    D = model.config.model_dim
    v = (_layer0_u(model, 65) @ M._Engine(model).layers[0].wqkv)[2 * D :]
    data[:, 0] = np.sign(v) * (0.5 * F32_MAX / np.abs(v).sum())


def _poison_all(*poisons):
    def apply(model):
        for p in poisons:
            p(model)

    return apply


# Every op the engine can name, with a poison that makes it the first
# non-finite array of its sublayer. mlp.residual is missing: the MLP mixes
# no tokens, so a stream entry large enough that adding a finite value
# overflows it (|x| >= 2^103) has x^2 overflow in norm2, whose output is
# then 0, and so are gate, up, swiglu and down; attn.residual is reachable
# only because attention mixes in other tokens' values.
DIAGNOSES = {
    "embed embedding": _poison("embed.weight", _nan),
    "layers.1 norm1": _poison("layers.1.norm1.gain", _nan),
    "layers.1 attn.qkv": _poison("layers.1.attn.wq.weight", _nan),
    "layers.0 attn.rope": _poison("layers.0.attn.wq.weight", _rope_overflow),
    "layers.1 attn.heads": _poison_all(
        _poison("layers.1.attn.wq.weight", lambda data, model: data.fill(1e30)),
        _poison("layers.1.attn.wk.weight", lambda data, model: data.fill(1e30)),
    ),
    "layers.1 attn.wo": _poison("layers.1.attn.wo.weight", _nan),
    "layers.0 attn.residual": _poison_all(_poison("layers.0.attn.wo.weight", _residual_wo), _poison("embed.weight", _residual_embed)),
    "layers.1 norm2": _poison("layers.1.norm2.gain", _nan),
    "layers.1 mlp.gate": _poison("layers.1.mlp.gate.weight", _nan),
    "layers.1 mlp.up": _poison("layers.1.mlp.up.weight", _nan),
    "layers.1 mlp.swiglu": _poison_all(
        _poison("layers.1.mlp.gate.weight", lambda data, model: _pair_col(data, model, 1e30)),
        _poison("layers.1.mlp.up.weight", lambda data, model: _pair_col(data, model, 1e30)),
    ),
    "layers.1 mlp.down": _poison("layers.1.mlp.down.weight", _nan),
    "final_norm norm": _poison("final_norm.gain", _nan),
    "head logits": _poison("head.weight", _nan),
}


@pytest.mark.parametrize("where", list(DIAGNOSES))
def test_engine_names_the_first_non_finite_op_at_prefill_and_step(where):
    # the engine checks only the residual stream and the logits; on a failure
    # it names the first non-finite intermediate of the sublayer. Prefill
    # runs the two-token prompt on the poisoned weights; step runs its second
    # token on them after a clean prefill of the first
    prompt = np.array([[65, 66]])
    model = convert_model(small_model(), SPEC)
    stepped = HybridSession(model, 1)
    stepped.prefill(prompt[:, :1])
    DIAGNOSES[where](model)
    stepped.engine = M._Engine(model)
    match = rf"^{re.escape(where)} produced NaN/Inf"
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteResult, match=match):
            HybridSession(model, 1).prefill(prompt)
        with pytest.raises(NonFiniteResult, match=match):
            stepped.step(prompt[:, 1])


@pytest.mark.parametrize("op", ["attn.qkv", "attn.rope"])
def test_non_finite_key_of_a_non_final_segment_names_the_last_layer(op, monkeypatch):
    # a prefill's non-final segment runs its last layer as a state advance,
    # with no residual for the stream check to read. That layer checks its
    # k | v and rotated k itself, so a NaN there raises at that segment,
    # naming the layer and op, before its state takes the segment's keys:
    # a NaN wk (every key), or one rotated key of the first segment, which
    # would otherwise fold into the state and surface at the last segment
    model = convert_model(small_model(), SPEC)
    last = model.config.n_layers - 1
    if op == "attn.qkv":
        _poison(f"layers.{last}.attn.wk.weight", _nan)(model)
    else:
        rope, calls = T.rope_np, []

        def poisoned(x, cos, sin):
            out = rope(x, cos, sin)
            calls.append(out.shape)
            if len(calls) == model.config.n_layers:  # the first segment's last layer: its k alone
                out[..., 100, 0] = np.nan
            return out

        monkeypatch.setattr(T, "rope_np", poisoned)
    session = HybridSession(model, 1)
    ids = np.random.default_rng(13).integers(0, 258, size=(1, M.PREFILL_SEGMENT + 5))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteResult, match=rf"^layers\.{last} {re.escape(op)} produced NaN/Inf"):
        session.prefill(ids)
    assert session.states[last].position == 0


@pytest.mark.parametrize("layer", [0, 1])
def test_non_finite_decode_state_raises_at_the_next_step(layer):
    # a non-finite value that reaches a decode state raises at the next step
    # that reads it, naming the heads output of that state's layer
    w = SPEC.window_size
    session = HybridSession(convert_model(small_model(), SPEC), 1)
    session.prefill(np.random.default_rng(9).integers(0, 258, size=(1, 2 * w)))
    session.states[layer].s[:] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteResult, match=rf"^layers\.{layer} attn\.heads produced NaN/Inf"):
        session.step(np.array([65]))


@pytest.mark.parametrize("mode", ["standard", "terraced"])
@pytest.mark.parametrize("call", ["prefill", "step"])
def test_nan_key_inside_a_chunk_window_names_the_heads_of_its_layer(mode, call, monkeypatch):
    # one NaN key of layer 1 (in a copy, so the engine's rope output stays
    # finite), mid-segment: inside the window of its own and later queries
    # and, in a prefill chunk, off the window of the earlier ones. Its rows
    # come out NaN under the caps and the fmax shift as under np.where and
    # np.maximum, so the engine names that layer's heads, as it did before
    w = 4
    model = convert_model(small_model(), HybridSpec(window_size=w, window_mode=mode, feature_kind="hedgehog"))
    session = HybridSession(model, 1)
    ids = np.random.default_rng(12).integers(0, 258, size=(1, 2 * w + 2))
    if call == "step":
        session.prefill(ids)
    decode_step = M.attention.hybrid_decode_step

    def poisoned(state, q, k, v, cfg, position=None):
        if state is session.states[1]:
            k = k.copy()
            k[:, :, k.shape[2] // 2] = np.nan
        return decode_step(state, q, k, v, cfg, position)

    monkeypatch.setattr(M.attention, "hybrid_decode_step", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteResult, match=r"^layers\.1 attn\.heads produced NaN/Inf"):
        session.prefill(ids) if call == "prefill" else session.step(np.array([65]))
