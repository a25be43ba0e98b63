"""Bounds-checked reading of the little-endian binary formats.

Every field of a `.cpcd` dataset and a `.ckpt` checkpoint is read through
one `Reader`, so a short, overlong or garbled file raises the format's own
error naming the offset, never `struct.error` or an out-of-range slice. The
formats' own checks raise through `Reader.error` too, so every message starts
with the file's path.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


class Reader:
    def __init__(self, path, error_type: type[Exception]):
        self.path = path
        self.data = Path(path).read_bytes()
        self.off = 0
        self.error_type = error_type

    def error(self, message: str) -> Exception:
        """The format's error for `message`, prefixed with the file's path."""
        return self.error_type(f"{self.path}: {message}")

    def _take(self, size: int, what: str) -> int:
        start = self.off
        if size > len(self.data) - start:
            raise self.error(f"truncated {what} at offset {start}: needs "
                             f"{size} bytes, {len(self.data) - start} left")
        self.off += size
        return start

    def fields(self, fmt: str, what: str) -> tuple:
        """Unpack the struct format `fmt` ('<' is prepended)."""
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.data,
                                  self._take(struct.calcsize(fmt), what))

    def text(self, size: int, what: str) -> str:
        start = self._take(size, what)
        try:
            return self.data[start:self.off].decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} at offset {start} is not utf-8") from None

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """float64 copy of a C-order array stored as `dtype`."""
        count = math.prod(shape)
        start = self._take(count * np.dtype(dtype).itemsize, what)
        flat = np.frombuffer(self.data, dtype=dtype, count=count, offset=start)
        try:
            return flat.reshape(shape).astype(np.float64)
        except ValueError as exc:  # more axes or elements than numpy allows
            raise self.error(f"{what} at offset {start}: {exc}") from None

    @property
    def at_end(self) -> bool:
        return self.off >= len(self.data)

    def expect_end(self):
        if not self.at_end:
            raise self.error(f"{len(self.data) - self.off} trailing bytes "
                             f"at offset {self.off}")
