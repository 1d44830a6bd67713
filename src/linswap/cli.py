"""Command-line surface: transfer / adjust / generate / diag / bench / plan.

Every run logs the fully resolved configuration to stderr so it can be
reproduced from the log alone: a --checkpoint supplies [model], [attention]
when converted and the LoRA keys of [adjust] (so --seed leaves [model] seed as
the checkpoint's). Failures print one machine-parseable line (`<Category>:
message`) and exit with the category's code (BadConfig=2, MissingCheckpoint=3,
other library errors=1).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from .bench import BENCH_MODES, bench_generation
from .checkpoint import load_checkpoint, load_corpus, save_checkpoint
from .config import load_config
from .errors import BadConfig, LinswapError, MissingCheckpoint
from .model import BOS_ID, build_model, convert_model, detokenize, generate_greedy
from .planner import plan_blockwise_storage
from .training import eval_next_token_loss, layerwise_diagnostics, pretrain_base, synthetic_corpus


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _setup(args, require_checkpoint: bool = False):
    """The run's config, with the flags that set config keys applied (--seed,
    when given, as every section's seed; a flag whose dest is "section.key" as
    that key) and then a --checkpoint model's own settings, logged to stderr
    line by line; and the model, built from the config if no checkpoint."""
    cfg = load_config(args.config)
    if args.seed is not None:
        for section in cfg.values.values():
            if "seed" in section:
                section["seed"] = args.seed
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg.values[section][key] = value
    model = None
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise MissingCheckpoint(f"checkpoint {args.checkpoint} not found")
        model = load_checkpoint(args.checkpoint)
        cfg["model"].update(dataclasses.asdict(model.config))
        if model.hybrid_spec is not None:
            cfg["attention"].update(dataclasses.asdict(model.hybrid_spec))
        if model.lora_meta is not None:
            cfg["adjust"].update({**model.lora_meta, "targets": tuple(model.lora_meta["targets"])})
    elif require_checkpoint:
        raise MissingCheckpoint("this subcommand needs --checkpoint")
    for line in cfg.resolved_lines():
        _log(line)
    return cfg, model if model is not None else build_model(cfg.build("model"))


def _resolve_corpus(section: dict, fallback: dict | None = None) -> np.ndarray:
    """The corpus file a stage names, else its synthetic corpus. With a
    fallback section ([adjust] falls back to [transfer]) each key is taken
    from it per key: the corpus file or token count unless the stage names
    one, the seed unless the stage sets one."""
    if fallback is not None:
        source = section if section.get("corpus") or section.get("synthetic_tokens") is not None else fallback
        seed = section.get("synthetic_seed")
        section = {**source, "synthetic_seed": fallback["synthetic_seed"] if seed is None else seed}
    if section.get("corpus"):
        return load_corpus(section["corpus"])
    return synthetic_corpus(int(section["synthetic_tokens"]), int(section["synthetic_seed"]))


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_diag_csv(path: str, report) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "eval_mse", "mean_entropy"])
        for row in report.rows():
            writer.writerow([row["layer"], f"{row['eval_mse']:.10e}", f"{row['mean_entropy']:.10e}"])


# --- subcommands ---------------------------------------------------------------


def cmd_transfer(args) -> int:
    cfg, model = _setup(args)
    trainer = cfg.build("transfer")
    trainer.check_settings(model)  # before pretraining, not after it
    corpus = _resolve_corpus(cfg["transfer"])
    if not model.converted:
        if cfg["model"]["pretrain_steps"] > 0:
            _log(f"pretraining base model for {cfg['model']['pretrain_steps']} steps")
            pretrain_base(
                model,
                corpus,
                steps=cfg["model"]["pretrain_steps"],
                lr=cfg["model"]["pretrain_lr"],
                batch_size=cfg["transfer"]["batch_size"],
                seq_len=cfg["transfer"]["seq_len"],
                seed=cfg["transfer"]["seed"],
            )
        convert_model(model, cfg.build("attention"))
    trainer.fit(model, corpus)
    report = trainer.report_
    out = _out_dir(args)
    ckpt = os.path.join(out, "transfer.lolc")
    save_checkpoint(model, ckpt)
    _write_diag_csv(os.path.join(out, "diagnostics.csv"), report)
    with open(os.path.join(out, "transfer_summary.txt"), "w") as fh:
        fh.write(f"steps={trainer.steps}\n")
        fh.write(f"final_train_loss={report.train_losses[-1]:.8e}\n")
        fh.write(f"mean_layer_mse={np.mean(report.layer_mse):.8e}\n")
        fh.write(f"mean_esl={report.mean_esl:.4f}\n")
        fh.write(f"wall_time_s={report.wall_time:.2f}\n")
    _log(f"wrote {ckpt}")
    print(f"transfer done: final loss {report.train_losses[-1]:.6f}, wall time {report.wall_time:.1f}s")
    return 0


def cmd_adjust(args) -> int:
    cfg, model = _setup(args, require_checkpoint=True)
    corpus = _resolve_corpus(cfg["adjust"], fallback=cfg["transfer"])
    trainer = cfg.build("adjust").fit(model, corpus)
    out = _out_dir(args)
    ckpt = os.path.join(out, "adjust.lolc")
    save_checkpoint(model, ckpt)
    eval_loss = eval_next_token_loss(model, corpus, trainer.batch_size, trainer.seq_len, seed=trainer.seed + 1)
    with open(os.path.join(out, "adjust_summary.txt"), "w") as fh:
        fh.write(f"steps={trainer.steps}\n")
        fh.write(f"final_train_loss={trainer.train_losses_[-1]:.8e}\n")
        fh.write(f"eval_loss={eval_loss:.8e}\n")
        fh.write(f"wall_time_s={trainer.wall_time_:.2f}\n")
    _log(f"wrote {ckpt}")
    print(f"adjust done: final loss {trainer.train_losses_[-1]:.6f}, eval loss {eval_loss:.6f}")
    return 0


def cmd_generate(args) -> int:
    cfg, model = _setup(args, require_checkpoint=True)
    if not model.converted:
        raise BadConfig("generate needs a converted (hybrid) checkpoint")
    prompt_bytes = args.prompt.encode("utf-8")
    prompt = np.concatenate([[BOS_ID], np.frombuffer(prompt_bytes, dtype=np.uint8).astype(np.int64)])
    out_ids = generate_greedy(model, prompt, args.n, max_len=args.max_len)
    text = detokenize(out_ids[0])
    sys.stdout.buffer.write(text)
    sys.stdout.buffer.write(b"\n")
    return 0


def cmd_diag(args) -> int:
    cfg, model = _setup(args, require_checkpoint=True)
    corpus = _resolve_corpus(cfg["transfer"])
    report = layerwise_diagnostics(
        model, corpus, batch_size=min(4, cfg["transfer"]["batch_size"]), seq_len=cfg["transfer"]["seq_len"]
    )
    out = _out_dir(args)
    path = os.path.join(out, "diagnostics.csv")
    _write_diag_csv(path, report)
    _log(f"wrote {path}")
    print(f"diag done: mean eval MSE {np.mean(report.layer_mse):.6e}, mean ESL {report.mean_esl:.2f}")
    return 0


def cmd_bench(args) -> int:
    cfg, model = _setup(args)
    b = cfg["bench"]
    if not args.checkpoint and b["mode"] == "hybrid":
        convert_model(model, cfg.build("attention"))
    budget = b["memory_budget_mb"]
    result = bench_generation(
        model,
        mode=b["mode"],
        batch_size=b["batch_size"],
        prompt_len=b["prompt_len"],
        gen_len=b["gen_len"],
        seed=b["seed"],
        memory_budget_bytes=budget * 1024 * 1024 if budget else None,
    )
    print(result.report())
    return 0


def cmd_plan(args) -> int:
    plan = plan_blockwise_storage(args.tokens, args.dim, args.layers, args.block, args.precision)
    text = plan.report()
    print(text)
    if args.out:
        path = os.path.join(_out_dir(args), "plan.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        _log(f"wrote {path}")
    return 0


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linswap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--checkpoint", default=None, help="checkpoint to load")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override all stage seeds")

    p = sub.add_parser("transfer", help="stage 1: attention transfer")
    common(p)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("adjust", help="stage 2: LoRA adjusting")
    common(p)
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("generate", help="greedy generation from a prompt")
    common(p)
    p.add_argument("--prompt", required=True)
    p.add_argument("--n", type=int, default=32, help="tokens to generate")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("diag", help="layer-wise transfer diagnostics CSV")
    common(p)
    p.set_defaults(fn=cmd_diag)

    p = sub.add_parser("bench", help="generation throughput/memory benchmark")
    common(p)
    p.add_argument("--mode", dest="bench.mode", choices=BENCH_MODES, default=None)
    p.add_argument("--batch", dest="bench.batch_size", type=int, default=None)
    p.add_argument("--prompt-len", dest="bench.prompt_len", type=int, default=None)
    p.add_argument("--gen-len", dest="bench.gen_len", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("plan", help="block-wise training storage planner")
    common(p)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--precision", type=int, default=2)
    p.set_defaults(fn=cmd_plan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LinswapError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
