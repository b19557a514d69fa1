"""Versioned parameter checkpoints.

Layout: the magic line ``OPFUSE-CKPT-1``, a JSON manifest line listing
parameter names and shapes in order, then the raw little-endian float64
payloads concatenated in the same order.

Per-head weights are stored stacked, as ``P.N`` with a leading head axis.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .autodiff import Tensor

MAGIC = b"OPFUSE-CKPT-1\n"


class CheckpointError(Exception):
    pass


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray | Tensor]) -> None:
    arrays: list[tuple[str, np.ndarray]] = []
    for name, value in params.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        # No copy for a C-contiguous little-endian float64 array: its buffer
        # is written as it is.  (``ascontiguousarray`` would give a 0-d
        # array a dimension.)
        arrays.append((name, np.asarray(arr, dtype="<f8", order="C")))
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps({"params": manifest}, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in arrays:
            fh.write(memoryview(arr))


def _is_dim(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_manifest(path, header: bytes) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) per manifest entry; CheckpointError for any malformed field."""
    try:
        obj = json.loads(header.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint manifest") from exc
    manifest = obj.get("params") if isinstance(obj, dict) else None
    if not isinstance(manifest, list):
        raise CheckpointError(f"{path}: checkpoint manifest needs a 'params' list")
    entries = []
    for index, entry in enumerate(manifest):
        name = entry.get("name") if isinstance(entry, dict) else None
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: manifest entry #{index} has no string name")
        if not isinstance(shape, list) or not all(_is_dim(d) for d in shape):
            raise CheckpointError(
                f"{path}: shape of {name!r} must be a list of non-negative integers")
        entries.append((name, tuple(shape)))
    if len({name for name, _ in entries}) != len(entries):
        raise CheckpointError(f"{path}: manifest names a parameter twice")
    return entries


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Every named array of the checkpoint, as views into one payload buffer.

    The payload is read with one call into one array, which the caller
    frees with the last view: a model-sized read, made once per checkpoint,
    is one allocation, not one per parameter.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not an OPFUSE-CKPT-1 checkpoint")
        entries = _read_manifest(path, fh.readline())
        # Sizes come from the file, so they are checked against what is
        # left before the buffer is allocated.
        ends = list(itertools.accumulate((math.prod(shape) for _, shape in entries), initial=0))
        left = os.fstat(fh.fileno()).st_size - fh.tell()

        def truncated(size: int) -> CheckpointError:
            name = next(name for (name, _), end in zip(entries, ends[1:]) if 8 * end > size)
            return CheckpointError(f"{path}: truncated payload for {name}")

        if 8 * ends[-1] > left:
            raise truncated(left)
        if 8 * ends[-1] < left:
            raise CheckpointError(f"{path}: {left - 8 * ends[-1]} bytes after the last payload")
        payload = np.empty(ends[-1], dtype="<f8")
        read = fh.readinto(memoryview(payload).cast("B"))
        if read != 8 * ends[-1]:
            raise truncated(read)
    out: dict[str, np.ndarray] = {}
    for (name, shape), start, end in zip(entries, ends, ends[1:]):
        out[name] = payload[start:end].reshape(shape)
        if not np.isfinite(out[name]).all():
            raise CheckpointError(f"{path}: non-finite values in {name}")
    return out


def restore_into(params: dict[str, Tensor], values: dict[str, np.ndarray]) -> None:
    """Write checkpoint values into live parameter tensors' own buffers.

    Every name, shape and value is checked before any buffer is written, so
    a refused checkpoint leaves the parameters as they were.
    """
    missing = sorted(set(params) - set(values))
    extra = sorted(set(values) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match model: missing={missing} unexpected={extra}")
    for name, tensor in params.items():
        arr = values[name]
        if arr.shape != tensor.shape:
            raise CheckpointError(
                f"checkpoint shape mismatch for {name}: {arr.shape} vs {tensor.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint has non-finite values in {name}")
    for name, tensor in params.items():
        tensor.write_rows(..., values[name])
