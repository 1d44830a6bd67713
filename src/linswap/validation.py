"""Input validation helpers shared by the settings classes, the trainers and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import BadConfig, NotConverted, UnknownId


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


def check_converted(model):
    if not model.converted:
        raise NotConverted("this operation needs a converted (hybrid) model")
    return model


def check_positive(name: str, value, error=BadConfig):
    if value is None or not value > 0:  # NaN too
        raise error(f"{name} must be positive, got {value}")
    return value


def check_fields(values: dict, positive=(), non_negative=(), choices=None, error=BadConfig, integers=()) -> None:
    """Named settings (an object's vars, a function's locals()) by rule: an
    integer and not a bool where set (the fields declared int), > 0, >= 0
    (NaN fails both), or each item one of its choices; error names the first."""
    for name in integers:
        value = values[name]
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
            raise error(f"{name} must be an integer, got {value!r}")
    for name in positive:
        check_positive(name, values[name], error)
    for name in non_negative:
        if values[name] is None or not values[name] >= 0:
            raise error(f"{name} must be >= 0, got {values[name]}")
    for name, allowed in (choices or {}).items():
        for item in values[name] if isinstance(values[name], (tuple, list)) else (values[name],):
            if item not in allowed:
                raise error(f"{name} must be one of {sorted(allowed)}, got {item!r}")
