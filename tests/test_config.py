"""The INI boundary: every key takes its default from the class that consumes
it, an empty value means that default, the resolved-config log reads back to
the same config, and any file, whatever its bytes, either loads or raises
BadConfig."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linswap.config import SCHEMA, default_config, load_config
from linswap.errors import BadConfig

TINY_INI = Path(__file__).resolve().parents[1] / "configs" / "tiny.ini"

SET_OPTIONALS = """\
[attention]
feature_dim = 4
[transfer]
block_size = 1
corpus = corpus.u32
[adjust]
targets = wo, wq
synthetic_tokens = 3000
synthetic_seed = 7
[bench]
memory_budget_mb = 64
"""


def _write_lines_as_ini(lines, path):
    sections = {}
    for line in lines:
        name, value = line.removeprefix("config ").split("=", 1)
        section, key = name.split(".", 1)
        sections.setdefault(section, []).append(f"{key} = {value}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(keys) + "\n" for s, keys in sections.items()))


@pytest.mark.parametrize("source", ["defaults", "tiny.ini", "set_optionals"])
def test_resolved_lines_round_trip(source, tmp_path):
    if source == "defaults":
        cfg = load_config(None)
    elif source == "tiny.ini":
        cfg = load_config(str(TINY_INI))
    else:
        (tmp_path / "in.ini").write_text(SET_OPTIONALS)
        cfg = load_config(str(tmp_path / "in.ini"))
        assert cfg["adjust"]["targets"] == ("wo", "wq") and cfg["attention"]["feature_dim"] == 4
    _write_lines_as_ini(cfg.resolved_lines(), tmp_path / "resolved.ini")
    assert load_config(str(tmp_path / "resolved.ini")) == cfg


def test_empty_value_means_default(tmp_path):
    defaults = default_config()
    path = tmp_path / "empty.ini"
    for section, keys in SCHEMA.items():
        for key in keys:
            path.write_text(f"[{section}]\n{key} =\n")
            assert load_config(str(path)) == defaults, f"[{section}] {key}"
    path.write_text("[transfer]\nsteps =   \n")
    assert load_config(str(path))["transfer"]["steps"] == defaults["transfer"]["steps"]


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nseed = 3\n",
        "[DEFAULT]\n[model]\nn_layers = 3\n",
        "[model]\nn_layers = three\n",
        "[adjust]\ntargets = ,\n",
        "[adjust]\ntargets = wq,wz\n",
        "[attention]\nfeature_kind = softmax\n",
        "[transfer]\nsteps = 1e3\n",
        "[bench]\nmemory_budget_mb = 1.5\n",
        "[bench]\nmemory_budget_mb = -1\n",
        "[transfer]\nclip_norm = nan\n",
        "[model]\nseed = -1\n",
        # values ModelConfig and HybridSpec refuse, which the layers would
        # only meet when built (or, for rope_base, when run)
        "[attention]\nfeature_dim = -1\n",
        "[attention]\nfeature_dim = 0\n",
        "[model]\nmlp_hidden_mult = -1\n",
        "[model]\nmlp_hidden_mult = 0\n",
        "[model]\nmlp_hidden_mult = nan\n",
        "[model]\nmlp_hidden_mult = inf\n",
        "[model]\nmlp_hidden_mult = 1e308\n",
        "[model]\nrope_base = 0\n",
        "[model]\nrope_base = nan\n",
        # 6.1e12 parameters: over ModelConfig's cap, refused before any allocation
        "[model]\nmlp_hidden_mult = 1e9\n",
    ],
)
def test_fail_closed_cases(text, tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(BadConfig):
        load_config(str(path))


def _load_bytes(path, data):
    path.write_bytes(data)
    try:
        load_config(str(path))
    except BadConfig:
        pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=300))
def test_arbitrary_bytes_load_or_raise_bad_config(tmp_path, data):
    _load_bytes(tmp_path / "fuzz.ini", data)


@st.composite
def tiny_ini_mutations(draw):
    data = bytearray(TINY_INI.read_bytes())
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        chunk = draw(st.binary(min_size=1, max_size=8))
        if action == "insert":
            data[at:at] = chunk
        elif action == "replace":
            data[at : at + len(chunk)] = chunk
        else:
            del data[at : at + len(chunk)]
    return bytes(data)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tiny_ini_mutations())
def test_mutated_tiny_ini_loads_or_raises_bad_config(tmp_path, data):
    _load_bytes(tmp_path / "fuzz.ini", data)
