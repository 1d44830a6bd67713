"""INI-style run configuration, declared by the classes that take it.

Sections are fixed ([model], [attention], [transfer], [adjust], [bench]). The
keys, defaults and types of [model], [attention], [transfer] and [adjust] are
the fields of the dataclasses ModelConfig, HybridSpec, AttentionTransfer and
LoraAdjust. This module declares only the keys the CLI reads itself
(CLI_KEYS): base-model pretraining, each stage's corpus and [bench].

A value is parsed by its declared type; a tuple is a comma list, and an empty
value means "use the default". Everything else fails closed with BadConfig:
unknown sections (including [DEFAULT]) or keys, bytes that are not UTF-8,
values that do not parse, floats that are not finite, a value outside its
key's rule: each class checks its own fields when built, and CHOICES,
POSITIVE and NON_NEGATIVE hold the rules of the keys declared here. So a
config that loads has no range error left for a later stage but the block
size, which AttentionTransfer.check_settings checks against the model's
layer count; the CLI runs that before pretraining.
Stage-2 reuses stage-1's corpus settings unless [adjust] overrides them,
matching the two-stage default of training both stages on the same data.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, field, fields
from typing import Any

from .bench import BENCH_MODES
from .errors import BadConfig, LinswapError
from .model import HybridSpec, ModelConfig
from .training import AttentionTransfer, LoraAdjust
from .validation import check_fields

# section -> the class its keys are passed to (None: read by the CLI only)
CLASSES = {"model": ModelConfig, "attention": HybridSpec, "transfer": AttentionTransfer, "adjust": LoraAdjust, "bench": None}

# keys the CLI reads itself: key -> (default, type)
CLI_KEYS: dict[str, dict[str, tuple[Any, Any]]] = {
    "model": {  # optional toy-teacher pretraining before transfer
        "pretrain_steps": (0, int),
        "pretrain_lr": (3e-3, float),
    },
    "transfer": {  # path to a token corpus; empty -> synthetic
        "corpus": (None, str | None),
        "synthetic_tokens": (20000, int),
        "synthetic_seed": (0, int),
    },
    "adjust": {  # empty -> same data as [transfer]
        "corpus": (None, str | None),
        "synthetic_tokens": (None, int | None),
        "synthetic_seed": (None, int | None),
    },
    "bench": {
        "mode": ("hybrid", str),
        "batch_size": (8, int),
        "prompt_len": (128, int),
        "gen_len": (512, int),
        "seed": (0, int),
        "memory_budget_mb": (None, int | None),
    },
}


def _declared(cls) -> dict[str, tuple[Any, Any]]:
    """key -> (default, type) for the dataclass fields of cls."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f.default, hints[f.name]) for f in fields(cls)}


SCHEMA = {s: {**(_declared(cls) if cls else {}), **CLI_KEYS.get(s, {})} for s, cls in CLASSES.items()}

# the rules of the keys declared here, by section, as check_fields takes them:
# a value one of a fixed set, > 0, or >= 0 when set (a rate of 0 leaves the
# parameters as they are, a budget of 0 sets none; a seed is a numpy seed)
CHOICES = {"bench": {"mode": BENCH_MODES}}
POSITIVE = {"bench": ("batch_size", "prompt_len", "gen_len")}
NON_NEGATIVE = {"model": ("pretrain_lr",), "transfer": ("synthetic_seed",), "adjust": ("synthetic_seed",),
                "bench": ("seed", "memory_budget_mb")}


def _format(value) -> str:
    """The INI spelling of a value: what _parse reads back to it."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


@dataclass
class RunConfig:
    values: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def build(self, section: str):
        """The section's class (see CLASSES) constructed from its keys."""
        cls = CLASSES[section]
        return cls(**{key: self.values[section][key] for key in _declared(cls)})

    def check(self) -> None:
        """BadConfig for a value outside its key's rule, or a section its class
        refuses; load_config runs it, and the CLI after its flags."""
        for section, cls in CLASSES.items():
            try:
                set_keys = [k for k in NON_NEGATIVE.get(section, ()) if self[section][k] is not None]
                check_fields(self[section], POSITIVE.get(section, ()), set_keys, CHOICES.get(section))
                if cls is not None:
                    self.build(section)
            except LinswapError as exc:
                raise BadConfig(f"[{section}] {exc}") from exc

    def resolved_lines(self) -> list[str]:
        """Every key with defaults expanded, for reproducibility logging. Read
        back as an INI file, the values give the same config."""
        return [
            f"config {section}.{key}={_format(value)}"
            for section in sorted(self.values)
            for key, value in sorted(self.values[section].items())
        ]


def _parse(section: str, key: str, raw: str, kind):
    """A non-empty raw value as its declared type: int, float (finite), str,
    X | None (a set value is an X) or tuple[str, ...] (a non-empty comma list)."""
    try:
        if typing.get_origin(kind) is tuple:
            items = tuple(x.strip() for x in raw.split(",") if x.strip())
            if not items:
                raise ValueError("empty list")
            return items
        args = typing.get_args(kind)
        value = (args[0] if type(None) in args else kind)(raw)
    except ValueError as exc:
        raise BadConfig(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise BadConfig(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def default_config() -> RunConfig:
    return RunConfig({s: {k: default for k, (default, _) in keys.items()} for s, keys in SCHEMA.items()})


def load_config(path: str | None) -> RunConfig:
    """Parse an INI file against the schema; None yields pure defaults."""
    cfg = default_config()
    if path is None:
        return cfg
    # no header can name the section "", so [DEFAULT] is an ordinary (unknown)
    # section instead of silent values for every other one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise BadConfig(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in SCHEMA:
            raise BadConfig(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise BadConfig(f"unknown key {key!r} in section [{section}]")
            raw = raw.strip()
            if raw:
                cfg.values[section][key] = _parse(section, key, raw, SCHEMA[section][key][1])
    cfg.check()
    return cfg
