"""Flat binary container for parameter sets.

Layout, all integers little-endian unsigned 64-bit:

    magic          5 bytes, b"LLNS1"
    count          u64, number of parameters
    per parameter:
        name_len   u64
        name       name_len bytes, UTF-8
        rank       u64
        dims       rank * u64
        data       prod(dims) * f64, little-endian

Round-trips are bit-exact; parameter order is preserved.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..exceptions import FormatError

MAGIC = b"LLNS1"


def save_params(values: dict[str, np.ndarray], path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(values)))
        for name, arr in values.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.astype("<f8").tobytes())


def load_params(path) -> dict[str, np.ndarray]:
    """The parameters ``save_params`` wrote. A file that is not exactly that
    layout (a short header, a name that is not UTF-8, more data announced
    than the file holds, or bytes after the last parameter) is a
    ``FormatError`` naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise FormatError(f"{path}: bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    offset = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal offset
        if n > len(data) - offset:
            raise ValueError(f"{n} bytes wanted at byte {offset}, "
                             f"{len(data) - offset} left")
        offset += n
        return data[offset - n:offset]

    def u64() -> int:
        return int.from_bytes(take(8), "little")

    values: dict[str, np.ndarray] = {}
    try:
        for _ in range(u64()):
            name = take(u64()).decode("utf-8")
            dims = [u64() for _ in range(u64())]
            values[name] = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8"
                                         ).reshape(dims).copy()
    except (ValueError, OverflowError) as err:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: {err}") from None
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} bytes after the last parameter")
    return values
