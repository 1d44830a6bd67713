"""Checkpoint and token-corpus persistence.

Checkpoint layout (little-endian throughout):

    magic  b"LOLC"
    u32    format version
    u64    header length in bytes
    header UTF-8 JSON: model config, hybrid/LoRA metadata, tensor table
           (name, shape, dtype tag, byte offset into the payload)
    payload: raw tensor bytes back to back
    u32    CRC32 over everything above

Round trips are bit-exact. A save fsyncs <path>.tmp before renaming it over
<path>, so a crash or a failed save never leaves a torn file at <path>.
Corpus files are raw little-endian uint32 ids.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import zlib

import numpy as np

from .errors import CorruptPayload, FormatVersionMismatch, InvalidConfig, IoFailure, ShapeMismatch, WindowTooSmall
from .model import HybridSpec, Model, ModelConfig, _assemble

MAGIC = b"LOLC"
FORMAT_VERSION = 1

_DTYPE_TAGS = {"f32": np.float32, "f64": np.float64}


def _dtype_tag(dtype) -> str:
    for tag, dt in _DTYPE_TAGS.items():
        if dtype == dt:
            return tag
    raise IoFailure(f"unsupported tensor dtype {dtype}")


def save_checkpoint(model: Model, path: str) -> None:
    params = model.parameters()
    table = []
    chunks = []
    offset = 0
    for name, t in params.items():
        raw = np.ascontiguousarray(t.data)
        if raw.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts only
            raw = raw.astype(raw.dtype.newbyteorder("<"))
        payload = raw.tobytes()
        table.append(
            {
                "name": name,
                "shape": list(t.shape),
                "dtype": _dtype_tag(t.data.dtype),
                "offset": offset,
                "trainable": bool(t.requires_grad),
            }
        )
        chunks.append(payload)
        offset += len(payload)
    header = {
        "config": dataclasses.asdict(model.config),
        "hybrid": dataclasses.asdict(model.hybrid_spec) if model.hybrid_spec else None,
        "lora": model.lora_meta,
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    blob = bytearray()
    blob += MAGIC
    blob += np.uint32(FORMAT_VERSION).tobytes()
    blob += np.uint64(len(header_bytes)).tobytes()
    blob += header_bytes
    for c in chunks:
        blob += c
    blob += np.uint32(zlib.crc32(bytes(blob)) & 0xFFFFFFFF).tobytes()
    # fsync, then rename: neither a failed write nor a crash tears path
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(blob))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoFailure(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str) -> Model:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise CorruptPayload(f"{path}: missing LOLC magic")
    stored_crc = int(np.frombuffer(blob[-4:], dtype="<u4")[0])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptPayload(f"{path}: CRC mismatch")
    version = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(f"{path}: version {version}, expected {FORMAT_VERSION}")
    header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptPayload(f"{path}: bad header: {exc}") from exc
    # besides the raw errors of a mistyped header, the config classes and the
    # hybrid layers reject the values they cannot take
    try:
        return _restore(header, memoryview(blob)[16 + header_len : -4], path)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidConfig, ShapeMismatch, WindowTooSmall) as exc:
        raise CorruptPayload(f"{path}: malformed header: {exc!r}") from exc


def _restore(header: dict, payload: memoryview, path: str) -> Model:
    """Build the model a decoded header describes, each parameter read from
    the payload: nothing is drawn at random to be overwritten."""
    cfg = ModelConfig(**header["config"])
    hybrid = None if header["hybrid"] is None else HybridSpec(**header["hybrid"])
    entries = {entry["name"]: entry for entry in header["tensors"]}
    # payload bytes not yet charged to a tensor: a header that declares more
    # than the payload holds fails before the tensor that overdraws it is
    # allocated, even when its table entries share one payload range
    budget = len(payload)

    def read(name: str, shape: tuple) -> np.ndarray:
        nonlocal budget
        entry = entries.get(name)
        if entry is None:
            raise CorruptPayload(f"{path}: checkpoint missing tensor {name}")
        if tuple(entry["shape"]) != shape:
            raise CorruptPayload(f"{path}: {name} has shape {entry['shape']}, the model expects {list(shape)}")
        dtype = np.dtype(_DTYPE_TAGS[entry["dtype"]])
        nbytes = math.prod(shape) * dtype.itemsize
        budget -= nbytes
        if budget < 0:
            raise CorruptPayload(f"{path}: header declares more parameters than a {len(payload)}-byte payload holds")
        start = entry["offset"]
        if not 0 <= start <= len(payload) - nbytes:
            raise CorruptPayload(f"{path}: {name} at offset {start} is outside the {len(payload)}-byte payload")
        raw = payload[start : start + nbytes]
        return np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)

    model = _assemble(cfg, read, hybrid, header["lora"])
    params = model.parameters()
    unknown = entries.keys() - params.keys()
    if unknown:
        raise CorruptPayload(f"{path}: unknown tensors {sorted(unknown)[:4]}")
    for name, t in params.items():
        t.requires_grad = bool(entries[name].get("trainable", False))
        t.grad = np.zeros_like(t.data) if t.requires_grad else None
    return model


# --- token corpus ----------------------------------------------------------


def save_corpus(ids: np.ndarray, path: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(np.asarray(ids, dtype="<u4").tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write corpus {path}: {exc}") from exc


def load_corpus(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read corpus {path}: {exc}") from exc
    if len(raw) % 4:
        raise CorruptPayload(f"{path}: corpus length not a multiple of 4 bytes")
    return np.frombuffer(raw, dtype="<u4").astype(np.uint32)
