"""End-to-end CLI runs on a tiny bundled config, plus exit-code contracts."""

import json
import os
import re

import numpy as np
import pytest

from linswap.cli import main
from linswap.checkpoint import load_checkpoint, save_checkpoint, save_corpus
from linswap.config import load_config
from linswap.model import HybridSpec, ModelConfig, build_model, convert_model, lora_attach
from test_config import _write_lines_as_ini

TINY_CONFIG = """\
[model]
n_layers = 2
n_heads = 2
head_dim = 8
max_seq_len = 256
seed = 5
pretrain_steps = 30

[attention]
window_size = 4
window_mode = terraced
feature_kind = t2r

[transfer]
steps = 25
batch_size = 4
seq_len = 32
synthetic_tokens = 4000
eval_every = 10

[adjust]
lr = 1e-3
steps = 25
batch_size = 4
seq_len = 32
rank = 2
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "tiny.ini"
    cfg.write_text(TINY_CONFIG)
    return d


def test_full_pipeline(workdir, capsys):
    cfg = str(workdir / "tiny.ini")
    out = str(workdir / "run1")

    assert main(["transfer", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "transfer.lolc"))
    csv_text = open(os.path.join(out, "diagnostics.csv")).read()
    assert csv_text.splitlines()[0] == "layer,eval_mse,mean_entropy"
    assert len(csv_text.strip().splitlines()) == 3  # header + one row per layer
    summary = json.loads(open(os.path.join(out, "transfer.json")).read())
    assert len(summary["train_losses"]) == summary["steps"] == 25 and np.isfinite(summary["train_losses"][-1])
    assert summary["wall_time"] > 0

    ckpt = os.path.join(out, "transfer.lolc")
    assert main(["adjust", "--config", cfg, "--checkpoint", ckpt, "--out", out]) == 0
    adjusted = os.path.join(out, "adjust.lolc")
    assert os.path.exists(adjusted)
    model = load_checkpoint(adjusted)
    assert model.converted and model.lora_meta is not None

    capsys.readouterr()
    assert main(["generate", "--checkpoint", adjusted, "--prompt", "AB", "--n", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "AB"

    assert main(["generate", "--checkpoint", adjusted, "--prompt", "AB", "--n", "8"]) == 0
    produced = capsys.readouterr().out
    assert produced.startswith("AB") and len(produced.strip()) >= 2

    assert main(["diag", "--config", cfg, "--checkpoint", adjusted, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    capsys.readouterr()

    assert main(["bench", "--config", cfg, "--checkpoint", adjusted, "--gen-len", "8", "--batch", "2", "--prompt-len", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tokens_per_sec"] > 0 and report["peak_state_bytes"] > 0


def test_resolved_config_logged(workdir, capsys):
    cfg = str(workdir / "tiny.ini")
    main(["plan", "--tokens", "100", "--dim", "8", "--layers", "2", "--block", "1"])
    capsys.readouterr()
    out = str(workdir / "run2")
    main(["transfer", "--config", cfg, "--out", out])
    err = capsys.readouterr().err
    # every section/key appears with defaults expanded
    for needle in ("config model.seed=5", "config transfer.lr=0.01", "config adjust.rank=2", "config bench.gen_len=512"):
        assert needle in err, needle


def test_seed_override_sets_every_section_seed(workdir, capsys):
    cfg = str(workdir / "tiny.ini")
    bench = ["bench", "--config", cfg, "--gen-len", "2", "--batch", "1", "--prompt-len", "4"]
    assert main(bench) == 0
    plain = capsys.readouterr().err.splitlines()
    assert main(bench + ["--seed", "7"]) == 0
    seeded = capsys.readouterr().err.splitlines()
    assert len(seeded) == len(plain)
    overridden = [line for line in seeded if re.match(r"config \w+\.seed=", line)]
    assert len(overridden) >= 4 and all(line.endswith(".seed=7") for line in overridden)
    assert any(line.startswith("config model.seed=") and not line.endswith("=7") for line in plain)
    for line, before in zip(seeded, plain):
        if line not in overridden:
            assert line == before


def test_bench_flags_are_logged_as_the_config_that_ran(workdir, capsys, tmp_path):
    cfg = str(workdir / "tiny.ini")
    flags = ["--mode", "softmax-baseline", "--batch", "2", "--prompt-len", "8", "--gen-len", "4"]
    assert main(["bench", "--config", cfg, *flags]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("config ")]
    for needle in ("bench.mode=softmax-baseline", "bench.batch_size=2", "bench.prompt_len=8", "bench.gen_len=4"):
        assert f"config {needle}" in lines, needle
    # the record states what ran; the logged lines read back to that config
    ran = json.loads(captured.out)
    _write_lines_as_ini(lines, tmp_path / "resolved.ini")
    logged = load_config(str(tmp_path / "resolved.ini"))
    keys = ("mode", "batch_size", "prompt_len", "gen_len")
    assert {k: logged["bench"][k] for k in keys} == {k: ran[k] for k in keys}
    expected = load_config(cfg)
    expected["bench"].update(mode="softmax-baseline", batch_size=2, prompt_len=8, gen_len=4)
    assert logged == expected


OTHER_CONFIG = """\
[model]
n_layers = 3
n_heads = 2
head_dim = 16
max_seq_len = 256
seed = 5

[attention]
window_size = 8
window_mode = terraced
feature_kind = hedgehog

[transfer]
steps = 1
batch_size = 2
seq_len = 16
synthetic_tokens = 2000

[adjust]
steps = 2
batch_size = 2
seq_len = 16
rank = 4
alpha = 8.0
targets = wq,wk,wv,wo
"""


def _logged_config(err, path):
    """The run's config lines, read back as an INI file."""
    _write_lines_as_ini([line for line in err.splitlines() if line.startswith("config ")], path)
    return load_config(str(path))


def test_checkpoint_supplies_the_logged_model_settings(capsysbinary, tmp_path):
    # every setting of the checkpoint differs from the INI's; the log states
    # the checkpoint's, since that is the model each run serves or trains
    ini = tmp_path / "other.ini"
    ini.write_text(OTHER_CONFIG)
    model = build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=256, seed=11))
    lora_attach(convert_model(model, HybridSpec(4, "standard", "t2r")), rank=2, alpha=3.0, targets=("wq",))
    ckpt = str(tmp_path / "model.lolc")
    save_checkpoint(model, ckpt)
    expected = load_config(str(ini))
    expected["model"].update(vars(model.config))
    expected["attention"].update(vars(model.hybrid_spec))
    expected["adjust"].update(rank=2, alpha=3.0, targets=("wq",))
    common = ["--config", str(ini), "--checkpoint", ckpt]
    out = str(tmp_path / "out")
    for run in (
        ["adjust", *common, "--out", out],
        ["diag", *common, "--out", out],
        ["generate", *common, "--prompt", "AB", "--n", "2"],
        ["bench", *common, "--gen-len", "2", "--batch", "1", "--prompt-len", "4"],
    ):
        assert main(run) == 0, run
        # the untrained model generates bytes that need not be UTF-8
        logged = _logged_config(capsysbinary.readouterr().err.decode(), tmp_path / f"{run[0]}.ini")
        assert logged.build("model") == model.config and logged.build("attention") == model.hybrid_spec, run[0]
        assert {key: logged["adjust"][key] for key in model.lora_meta} == {**model.lora_meta, "targets": ("wq",)}
        if run[0] == "bench":
            expected["bench"].update(batch_size=1, prompt_len=4, gen_len=2)
        assert logged == expected, run[0]
    # adjust trained the adapters the checkpoint has
    adjusted = load_checkpoint(os.path.join(out, "adjust.lolc"))
    assert (adjusted.config, adjusted.hybrid_spec, adjusted.lora_meta) == (model.config, model.hybrid_spec, model.lora_meta)


def test_transfer_converts_an_unconverted_checkpoint_with_its_seed(capsys, tmp_path):
    # lr 0 keeps the feature maps and gamma as the conversion drew them
    ini = tmp_path / "other.ini"
    ini.write_text(OTHER_CONFIG.replace("[transfer]\n", "[transfer]\nlr = 0\n"))
    ckpt = str(tmp_path / "base.lolc")
    save_checkpoint(build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=256, seed=11)), ckpt)
    out = tmp_path / "out"
    assert main(["transfer", "--config", str(ini), "--checkpoint", ckpt, "--out", str(out), "--seed", "7"]) == 0
    logged = _logged_config(capsys.readouterr().err, tmp_path / "transfer.ini")
    spec = load_config(str(ini)).build("attention")
    assert logged.build("model") == load_checkpoint(ckpt).config and logged["model"]["seed"] == 11
    assert logged.build("attention") == spec and logged["transfer"]["seed"] == 7
    expected = convert_model(load_checkpoint(ckpt), spec).parameters()
    trained = load_checkpoint(str(out / "transfer.lolc")).parameters()
    maps = [name for name in expected if ".phi_" in name or name.endswith("gamma_raw")]
    assert len(maps) == 2 * 3  # per layer: gamma_raw and the hedgehog phi_q, phi_k weights
    for name in maps:
        np.testing.assert_array_equal(trained[name].data, expected[name].data, err_msg=name)


def test_plan_reference_figure(capsys):
    assert main(["plan", "--tokens", "50000000", "--dim", "16384", "--layers", "126", "--block", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["total_bytes"] == 206438400000000
    assert record["total_human"] == "206.4 TB"


def test_each_command_prints_one_json_record_and_writes_it(capsys, tmp_path, monkeypatch):
    # stdout is one JSON line holding the command's figures; <out>/<command>.json
    # holds the same line. bench and plan write it only when given --out
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "quick.ini"
    cfg.write_text(TINY_CONFIG.replace("pretrain_steps = 30", "pretrain_steps = 0").replace("steps = 25", "steps = 2"))
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    figures = {
        "transfer": {"train_losses", "layer_mse", "layer_entropy", "mean_esl", "wall_time", "steps", "checkpoint"},
        "adjust": {"train_losses", "eval_loss", "wall_time", "steps", "checkpoint"},
        "diag": {"layer_mse", "layer_entropy", "mean_esl", "csv"},
        "bench": {"mode", "batch_size", "prompt_len", "gen_len", "tokens_per_sec", "peak_state_bytes", "peak_cache_bytes", "prompt_cache_bytes", "wall_time"},
        "plan": {"tokens", "model_dim", "layers", "block_size", "precision_bytes", "total_bytes", "total_human", "boundary_bytes", "blocks", "note"},
    }
    bench = ["--gen-len", "2", "--batch", "1", "--prompt-len", "4"]
    plan = ["--tokens", "100", "--dim", "8", "--layers", "2", "--block", "1"]
    for run in (
        ["transfer", *common],
        ["adjust", *common, "--checkpoint", str(out / "transfer.lolc")],
        ["diag", *common, "--checkpoint", str(out / "adjust.lolc")],
        ["bench", *common, "--checkpoint", str(out / "adjust.lolc"), *bench],
        ["plan", "--out", str(out), *plan],
    ):
        assert main(run) == 0, run
        stdout = capsys.readouterr().out
        assert len(stdout.splitlines()) == 1, run[0]
        record = json.loads(stdout)
        assert isinstance(record, dict) and record.pop("command") == run[0]
        assert set(record) == figures[run[0]], run[0]
        assert (out / f"{run[0]}.json").read_text() == stdout, run[0]
    assert len(json.loads((out / "transfer.json").read_text())["layer_mse"]) == 2
    for run in (["bench", "--config", str(cfg), *bench], ["plan", *plan]):
        (out / f"{run[0]}.json").unlink()
        assert main(run) == 0
        assert json.loads(capsys.readouterr().out)["command"] == run[0]
        assert not (out / f"{run[0]}.json").exists() and not (tmp_path / f"{run[0]}.json").exists()


def test_exit_codes(workdir, capsys, tmp_path):
    # BadConfig -> 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nbogus_key = 1\n")
    assert main(["transfer", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "BadConfig:" in capsys.readouterr().err

    # an empty synthetic corpus is a BadConfig too, not a raw numpy error
    empty = tmp_path / "empty.ini"
    empty.write_text(TINY_CONFIG.replace("synthetic_tokens = 4000", "synthetic_tokens = 0"))
    assert main(["transfer", "--config", str(empty), "--out", str(tmp_path)]) == 2
    assert "BadConfig:" in capsys.readouterr().err

    # so are zero-sized training runs, learning rates below 0 or not finite and
    # clip norms not > 0, when the config loads: before pretraining (30 steps
    # here), with no raw numpy error from an empty batch
    in_transfer = "eval_every = 10"  # a line only [transfer] has
    for name, text, key in (
        ("batch0.ini", TINY_CONFIG.replace("batch_size = 4", "batch_size = 0", 1), "batch_size"),  # [transfer]
        ("seq0.ini", TINY_CONFIG.replace("seq_len = 32", "seq_len = 0", 1), "seq_len"),  # [transfer]
        ("steps0.ini", TINY_CONFIG.replace("steps = 25", "steps = 0", 1), "steps"),  # [transfer]
        ("lrneg.ini", TINY_CONFIG.replace(in_transfer, f"{in_transfer}\nlr = -1"), "lr"),
        ("clipneg.ini", TINY_CONFIG.replace(in_transfer, f"{in_transfer}\nclip_norm = -1"), "clip_norm"),
        ("clip0.ini", TINY_CONFIG.replace(in_transfer, f"{in_transfer}\nclip_norm = 0"), "clip_norm"),
        ("adjustlrnan.ini", TINY_CONFIG.replace("lr = 1e-3", "lr = nan"), "lr"),
        ("adjustclip.ini", TINY_CONFIG.replace("rank = 2", "rank = 2\nclip_norm = inf"), "clip_norm"),
        ("adjustbatch0.ini", TINY_CONFIG.replace("batch_size = 4\nseq_len = 32\nrank", "batch_size = 0\nseq_len = 32\nrank"), "batch_size"),
        ("pretrainlr.ini", TINY_CONFIG.replace("pretrain_steps = 30", "pretrain_steps = 30\npretrain_lr = -5"), "pretrain_lr"),
        ("seedneg.ini", TINY_CONFIG.replace(in_transfer, f"{in_transfer}\nseed = -1"), "seed"),
        ("gammanan.ini", TINY_CONFIG.replace("feature_kind = t2r", "feature_kind = t2r\ngamma_init = nan"), "gamma_init"),
    ):
        (tmp_path / name).write_text(text)
        assert main(["transfer", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2, name
        err = capsys.readouterr().err
        assert "BadConfig:" in err and key in err and "pretraining" not in err, name
    # bytes that are not UTF-8 and values outside a key's choices are rejected
    # when the config loads, before any pretraining
    for name, text in (
        ("window.ini", TINY_CONFIG.replace("window_mode = terraced", "window_mode = bogus")),
        ("feature.ini", TINY_CONFIG.replace("feature_kind = t2r", "feature_kind = bogus")),
        ("loss.ini", TINY_CONFIG.replace("eval_every = 10", "eval_every = 10\nloss = bogus")),
        ("targets.ini", TINY_CONFIG.replace("rank = 2", "rank = 2\ntargets = wq,bogus")),
        ("bench.ini", TINY_CONFIG + "\n[bench]\nmode = bogus\n"),
    ):
        (tmp_path / name).write_text(text)
        assert main(["transfer", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "BadConfig:" in err and "bogus" in err and "pretraining" not in err
    # so are values out of range, which the layers that take them would only
    # reject when built, some after pretraining
    for name, text, key in (
        ("window0.ini", TINY_CONFIG.replace("window_size = 4", "window_size = 0"), "window_size"),
        ("layers0.ini", TINY_CONFIG.replace("n_layers = 2", "n_layers = 0"), "n_layers"),
        ("rank0.ini", TINY_CONFIG.replace("rank = 2", "rank = 0"), "rank"),
        ("featneg.ini", TINY_CONFIG.replace("feature_kind = t2r", "feature_kind = t2r\nfeature_dim = -1"), "feature_dim"),
        ("feat0.ini", TINY_CONFIG.replace("feature_kind = t2r", "feature_kind = t2r\nfeature_dim = 0"), "feature_dim"),
        ("mlpneg.ini", TINY_CONFIG.replace("head_dim = 8", "head_dim = 8\nmlp_hidden_mult = -1"), "mlp_hidden_mult"),
        ("mlp0.ini", TINY_CONFIG.replace("head_dim = 8", "head_dim = 8\nmlp_hidden_mult = 0"), "mlp_hidden_mult"),
        ("rope0.ini", TINY_CONFIG.replace("head_dim = 8", "head_dim = 8\nrope_base = 0"), "rope_base"),
    ):
        (tmp_path / name).write_text(text)
        assert main(["transfer", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "BadConfig:" in err and key in err and "pretraining" not in err
    # stage-1 settings that need the model are checked against it before
    # pretraining too, with the categories the trainer raises
    for name, text, category, code in (
        ("block3.ini", TINY_CONFIG.replace("eval_every = 10", "eval_every = 10\nblock_size = 3"), "IndivisibleBlocks", 1),
        ("wmse.ini", TINY_CONFIG.replace("eval_every = 10", "eval_every = 10\nloss = combined\nw_mse = -1"), "BadConfig", 2),
    ):
        (tmp_path / name).write_text(text)
        assert main(["transfer", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert f"{category}:" in err and "pretraining" not in err, name
    undecodable = tmp_path / "latin1.ini"
    undecodable.write_bytes(TINY_CONFIG.replace("seed = 5", "seed = 5\xff").encode("latin-1"))
    assert main(["transfer", "--config", str(undecodable), "--out", str(tmp_path)]) == 2
    assert "BadConfig:" in capsys.readouterr().err

    converted = str(tmp_path / "converted.lolc")
    base = build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_seq_len=256, seed=5))
    save_checkpoint(convert_model(base, HybridSpec(4, "terraced", "t2r")), converted)
    steps0 = tmp_path / "steps0.ini"
    steps0.write_text(TINY_CONFIG.replace("lr = 1e-3\nsteps = 25", "lr = 1e-3\nsteps = 0"))  # [adjust]
    out = tmp_path / "adjust0"
    assert main(["adjust", "--config", str(steps0), "--checkpoint", converted, "--out", str(out)]) == 2
    assert "BadConfig:" in capsys.readouterr().err
    assert not (out / "adjust.lolc").exists()
    assert main(["generate", "--checkpoint", converted, "--prompt", "AB", "--n", "-3"]) == 2
    assert "BadConfig:" in capsys.readouterr().err

    # MissingCheckpoint -> 3
    assert main(["adjust", "--config", str(workdir / "tiny.ini"), "--checkpoint", "/nonexistent.lolc", "--out", str(tmp_path)]) == 3
    assert "MissingCheckpoint:" in capsys.readouterr().err

    # IndivisibleBlocks -> 1
    assert main(["plan", "--tokens", "10", "--dim", "8", "--layers", "5", "--block", "2"]) == 1
    assert "IndivisibleBlocks:" in capsys.readouterr().err


def test_corpus_file_input(workdir, capsys, tmp_path):
    from linswap.training import synthetic_corpus

    corpus_path = tmp_path / "corpus.u32"
    save_corpus(synthetic_corpus(3000, seed=9), str(corpus_path))
    cfg = tmp_path / "corp.ini"
    cfg.write_text(
        TINY_CONFIG.replace("synthetic_tokens = 4000", f"corpus = {corpus_path}")
    )
    out = str(tmp_path / "run")
    assert main(["transfer", "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "transfer.lolc"))


def test_bench_rejects_explicit_zero_sizes(workdir, capsys):
    # an explicit 0 must reach the size check, not fall back to [bench]; a
    # negative --seed is checked as a negative INI seed is
    cfg = str(workdir / "tiny.ini")
    for flag, value in (("--batch", "0"), ("--prompt-len", "0"), ("--gen-len", "0"), ("--seed", "-1")):
        assert main(["bench", "--config", cfg, "--gen-len", "2", "--batch", "1", "--prompt-len", "4", flag, value]) == 2
        assert "BadConfig:" in capsys.readouterr().err, flag


def test_adjust_corpus_falls_back_to_transfer_per_key(tmp_path):
    from linswap.cli import _resolve_corpus
    from linswap.config import load_config
    from linswap.training import synthetic_corpus

    def corpora(text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        cfg = load_config(str(path))
        return _resolve_corpus(cfg["transfer"]), _resolve_corpus(cfg["adjust"], fallback=cfg["transfer"])

    transfer, adjust = corpora(TINY_CONFIG)
    np.testing.assert_array_equal(adjust, transfer)
    # a seed alone keeps [transfer]'s token count and changes the corpus
    transfer, adjust = corpora(TINY_CONFIG.replace("rank = 2", "rank = 2\nsynthetic_seed = 7"))
    np.testing.assert_array_equal(adjust, synthetic_corpus(4000, 7))
    assert not np.array_equal(adjust, transfer)
    # a token count alone keeps [transfer]'s seed
    seeded = TINY_CONFIG.replace("synthetic_tokens = 4000", "synthetic_tokens = 4000\nsynthetic_seed = 3")
    _, adjust = corpora(seeded.replace("rank = 2", "rank = 2\nsynthetic_tokens = 3000"))
    np.testing.assert_array_equal(adjust, synthetic_corpus(3000, 3))
