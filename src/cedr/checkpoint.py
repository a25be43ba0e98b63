"""Binary checkpoint format for named parameter tensors.

Layout (little-endian):
    magic   b"CEDR"
    version u16
    then per tensor until EOF:
        name_len u16, name utf-8, ndim u16, dims u32 each, values f64
"""

from __future__ import annotations

import struct

import numpy as np

from .autodiff import Parameter
from .binio import Reader

MAGIC = b"CEDR"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: list[Parameter]):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        for p in params:
            name = p.name.encode("utf-8")
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<H", p.values.ndim))
            for d in p.values.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(p.values, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    r = Reader(path, CheckpointError)
    (magic,) = r.fields("4s", "magic")
    if magic != MAGIC:
        raise r.error(f"bad magic at offset 0: {magic!r}")
    (version,) = r.fields("H", "version")
    if version != VERSION:
        raise r.error(f"unsupported checkpoint version {version} at offset 4")
    tensors: dict[str, np.ndarray] = {}
    while not r.at_end:
        start = r.off
        (name_len,) = r.fields("H", "tensor name length")
        name = r.text(name_len, "tensor name")
        if name in tensors:
            raise r.error(f"repeated tensor '{name}' at offset {start}")
        (ndim,) = r.fields("H", f"rank of '{name}'")
        dims = r.fields(f"{ndim}I", f"shape of '{name}'")
        tensors[name] = r.array("<f8", dims, f"values of '{name}'")
    return tensors
