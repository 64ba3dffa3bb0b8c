"""Binary weights file: magic "FNW1", then one record per named array.

Record layout, all integers unsigned 32-bit little-endian:
    name_len, name bytes (utf-8), rank, dims[rank], then the values as
    32-bit IEEE-754 little-endian in row-major order.

A file holds one network's parameters, named as in ``Network.params``.

Encoding makes one copy of the values: each array's own buffer (converted
only if it is not already contiguous little-endian float32) goes straight
into the final join, with no intermediate bytes object per array. Decoding
makes none: it returns read-only views of the payload, which keep the
payload alive, so a caller that needs writable arrays copies them. It
raises WeightsError, and no other error type, on any malformed payload.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"FNW1"


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
    """The named arrays of a weights file, as read-only views of ``data``."""
    if data[:4] != MAGIC:
        raise WeightsError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    data = memoryview(data).toreadonly()
    pos = 4
    arrays: dict[str, np.ndarray] = {}

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(data):
            raise WeightsError("truncated weights file")
        chunk = data[pos:pos + n]
        pos += n
        return chunk

    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = str(take(name_len), "utf-8")
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
        arrays[name] = values
    return arrays

