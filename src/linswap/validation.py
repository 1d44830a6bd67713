"""Input validation helpers shared by the trainers and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import BadConfig, NotConverted, UnknownId
from .model import Model


def check_token_array(ids, vocab_size: int = 258) -> np.ndarray:
    """Coerce to a 1-D uint32 id array and bound-check against the vocabulary."""
    arr = np.asarray(ids)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise BadConfig("tokens is empty")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise UnknownId("tokens must be integer token ids")
        arr = arr.astype(np.int64)
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise UnknownId(f"tokens ids outside [0, {vocab_size})")
    return arr.astype(np.uint32)


def check_converted(model: Model) -> Model:
    if not model.converted:
        raise NotConverted("this operation needs a converted (hybrid) model")
    return model


def check_positive(name: str, value):
    if value is None or value <= 0:
        raise BadConfig(f"{name} must be positive, got {value}")
    return value


def check_choice(name: str, value, choices) -> str:
    if value not in choices:
        raise BadConfig(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value
