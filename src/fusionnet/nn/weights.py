"""Binary weights file: magic "FNW1", then one record per named array.

Record layout, all integers unsigned 32-bit little-endian:
    name_len, name bytes (utf-8), rank, dims[rank], then the values as
    32-bit IEEE-754 little-endian in row-major order.

Checkpoints reuse the format and append optimizer velocity buffers under
"<param name>.m" so training can resume mid-schedule.

Encoding makes one copy of the values: each array's own buffer (converted
only if it is not already contiguous little-endian float32) goes straight
into the final join, with no intermediate bytes object per array. Decoding
raises WeightsError, and no other error type, on any malformed payload.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"FNW1"
MOMENTUM_SUFFIX = ".m"


class WeightsError(ValueError):
    """Malformed or mismatched weights payload."""


def write_weights(arrays: dict[str, np.ndarray]) -> bytes:
    out = [MAGIC]
    for name, arr in arrays.items():
        nb = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f4")
        out.append(struct.pack("<I", len(nb)))
        out.append(nb)
        out.append(struct.pack("<I", a.ndim))
        out.append(struct.pack(f"<{a.ndim}I", *a.shape))
        out.append(a.reshape(-1).view(np.uint8))
    return b"".join(out)


def read_weights(data: bytes) -> dict[str, np.ndarray]:
    if data[:4] != MAGIC:
        raise WeightsError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    pos = 4
    arrays: dict[str, np.ndarray] = {}

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise WeightsError("truncated weights file")
        chunk = data[pos:pos + n]
        pos += n
        return chunk

    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightsError(f"array name is not valid utf-8: {exc}") from None
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = math.prod(dims)  # a Python int: huge dims cannot wrap around
        payload = take(4 * count)
        try:
            values = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as exc:  # e.g. rank above numpy's limit, or 0 beside huge dims
            raise WeightsError(f"array {name!r}: bad dims {dims}: {exc}") from None
        if name in arrays:
            raise WeightsError(f"duplicate array name {name!r}")
        arrays[name] = values.copy()
    return arrays


def split_checkpoint(arrays: dict[str, np.ndarray]) -> tuple[dict[str, np.ndarray],
                                                             dict[str, np.ndarray]]:
    """Separate parameters from appended optimizer velocity buffers."""
    params = {k: v for k, v in arrays.items() if not k.endswith(MOMENTUM_SUFFIX)}
    state = {k[:-len(MOMENTUM_SUFFIX)]: v for k, v in arrays.items()
             if k.endswith(MOMENTUM_SUFFIX)}
    return params, state


def make_checkpoint(params: dict[str, np.ndarray],
                    state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = dict(params)
    for name, v in state.items():
        out[name + MOMENTUM_SUFFIX] = v
    return out
