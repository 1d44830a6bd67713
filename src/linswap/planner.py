"""Block-wise attention-transfer storage planner.

Training b-layer blocks from precomputed hidden states means saving each
block's input states to disk; the cost model is p * T * d * (L / k) bytes for
T training tokens, model dim d, L layers in k-layer blocks at p-byte
precision. All arithmetic is exact Python integers (arbitrary precision, so
the >=128-bit accumulation requirement is met by construction).

The formula charges one saved state set per block, including the first block
whose inputs are just the token embeddings; the boundaries-only variant
p * T * d * (L/k - 1) charges interior boundaries only. At k = L the formula
still yields 2*T*d even though joint training needs no precomputed states;
a BlockPlan carries both figures with a note. `linswap plan` prints its
fields as one JSON record, and parse_report reads that record back.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import BadConfig, IndivisibleBlocks
from .validation import check_positive

DISCREPANCY_NOTE = (
    "formula charges one state set per block (2*T*d at k=L); "
    "boundaries-only variant excludes the final block's output"
)


@dataclass
class BlockPlan:
    tokens: int
    model_dim: int
    layers: int
    block_size: int
    precision_bytes: int
    total_bytes: int
    boundary_bytes: int
    blocks: int
    note: str = DISCREPANCY_NOTE
    total_human: str = field(init=False)

    def __post_init__(self):
        self.total_human = format_bytes(self.total_bytes)


def _check_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise BadConfig(f"{name} must be an integer, got {value!r}")
    return check_positive(name, value)


def plan_blockwise_storage(tokens: int, model_dim: int, layers: int, block_size: int, precision_bytes: int = 2) -> BlockPlan:
    tokens = _check_int("tokens", tokens)
    model_dim = _check_int("model_dim", model_dim)
    layers = _check_int("layers", layers)
    block_size = _check_int("block_size", block_size)
    precision_bytes = _check_int("precision_bytes", precision_bytes)
    if layers % block_size:
        raise IndivisibleBlocks(f"{layers} layers not divisible by block size {block_size}")
    blocks = layers // block_size
    total = precision_bytes * tokens * model_dim * blocks
    boundary = precision_bytes * tokens * model_dim * (blocks - 1)
    return BlockPlan(
        tokens=tokens,
        model_dim=model_dim,
        layers=layers,
        block_size=block_size,
        precision_bytes=precision_bytes,
        total_bytes=total,
        boundary_bytes=boundary,
        blocks=blocks,
    )


def parse_report(text: str) -> BlockPlan:
    """Inverse of the JSON record `linswap plan` prints (round-trip contract):
    the plan of the record's inputs, which must state every figure as the
    plan does."""
    try:
        record = json.loads(text)
        inputs = [record[k] for k in ("tokens", "model_dim", "layers", "block_size", "precision_bytes")]
    except (ValueError, KeyError, TypeError) as exc:
        raise BadConfig(f"not a plan record: {exc}") from exc
    plan = plan_blockwise_storage(*inputs)
    if any(record.get(k) != v for k, v in asdict(plan).items()):
        raise BadConfig("report figures inconsistent with its inputs")
    return plan


def format_bytes(n: int) -> str:
    """Decimal units, one decimal place (a 2.064384e14 plan reads '206.4 TB')."""
    units = ["B", "KB", "MB", "GB", "TB", "PB", "EB"]
    value = float(n)
    for unit in units:
        if value < 1000.0 or unit == units[-1]:
            return f"{value:.1f} {unit}"
        value /= 1000.0
