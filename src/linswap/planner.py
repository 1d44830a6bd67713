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
reports carry both figures with a note.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadConfig, IndivisibleBlocks

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

    def report(self) -> str:
        lines = [
            f"tokens={self.tokens}",
            f"model_dim={self.model_dim}",
            f"layers={self.layers}",
            f"block_size={self.block_size}",
            f"precision_bytes={self.precision_bytes}",
            f"blocks={self.blocks}",
            f"total_bytes={self.total_bytes}",
            f"total_human={format_bytes(self.total_bytes)}",
            f"boundary_bytes={self.boundary_bytes}",
            f"note={self.note}",
        ]
        return "\n".join(lines)


def _check_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise BadConfig(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise BadConfig(f"{name} must be positive, got {value}")
    return value


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
    """Inverse of BlockPlan.report (round-trip contract)."""
    fields: dict[str, str] = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    plan = plan_blockwise_storage(
        int(fields["tokens"]),
        int(fields["model_dim"]),
        int(fields["layers"]),
        int(fields["block_size"]),
        int(fields["precision_bytes"]),
    )
    if plan.total_bytes != int(fields["total_bytes"]):
        raise BadConfig("report total_bytes inconsistent with inputs")
    return plan


def format_bytes(n: int) -> str:
    """Decimal units, one decimal place (a 2.064384e14 plan reads '206.4 TB')."""
    units = ["B", "KB", "MB", "GB", "TB", "PB", "EB"]
    value = float(n)
    for unit in units:
        if value < 1000.0 or unit == units[-1]:
            return f"{value:.1f} {unit}"
        value /= 1000.0
    return f"{n} B"
