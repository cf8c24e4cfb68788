"""Binary checkpoints: parameters, optimizer state, and training step.

Layout (all little-endian):

    8s  magic "IDTCKPT1"
    I   format version (1)
    6I  ModelConfig: patch_size, embed_dim, block_pairs, heads,
        register_count, sg_lobes
    B   aux_depth flag
    Q   training step
    I   tensor count
    per tensor:
        H   name length (bytes)
        s*  name, UTF-8
        B   rank
        I*  extents
        d*  float64 payload, row-major
    I   CRC32 of everything above

Optimizer momentum buffers are stored under "opt/<param name>" so a resumed
run continues bit-exactly. Tensors are written in sorted name order, making
the file a pure function of its contents.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .ioutil import atomic_write_bytes
from .model import ModelConfig
from .ndtensor import Tensor

MAGIC = b"IDTCKPT1"
VERSION = 1
_OPT_PREFIX = "opt/"


class CheckpointError(ValueError):
    pass


def _pack_tensor(name: str, t: Tensor) -> bytes:
    nb = name.encode("utf-8")
    if len(nb) > 0xFFFF:
        raise CheckpointError(f"tensor name too long: {name[:40]}...")
    # asarray, not ascontiguousarray: the latter would rank-promote 0-d
    # tensors; tobytes() serializes in C order either way
    arr = np.asarray(t.data, dtype="<f8")
    head = struct.pack("<H", len(nb)) + nb
    head += struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def save_checkpoint(path: str, params: dict, config: ModelConfig,
                    step: int = 0, opt_state: dict | None = None) -> None:
    """Atomic write; the file is bit-reproducible for identical contents."""
    for name in params:
        if name.startswith(_OPT_PREFIX):
            raise CheckpointError(f"parameter name reserved for optimizer "
                                  f"state: {name}")
    table = dict(params)
    for name, t in (opt_state or {}).items():
        table[_OPT_PREFIX + name] = t

    # one join at the end: growing a bytes object per tensor would recopy
    # the whole buffer each time
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<6I", config.patch_size, config.embed_dim,
                         config.block_pairs, config.heads,
                         config.register_count, config.sg_lobes),
             struct.pack("<B", 1 if config.aux_depth else 0),
             struct.pack("<Q", int(step)),
             struct.pack("<I", len(table))]
    parts.extend(_pack_tensor(name, table[name]) for name in sorted(table))
    body = b"".join(parts)
    atomic_write_bytes(path, body + struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return vals

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + size]
        self.pos += size
        return out


def load_checkpoint(path: str):
    """-> (params, ModelConfig, step, opt_state). Refuses bad CRC/version."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual = zlib.crc32(blob[:-4])
    if stored_crc != actual:
        raise CheckpointError(f"{path}: CRC mismatch "
                              f"(stored {stored_crc:08x}, computed {actual:08x})")

    r = _Reader(blob[:-4], path)
    magic = r.raw(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (version,) = r.take("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{version} (expected {VERSION})")
    p, d, bp, heads, reg, k = r.take("<6I")
    (aux,) = r.take("<B")
    config = ModelConfig(patch_size=p, embed_dim=d, block_pairs=bp,
                         heads=heads, register_count=reg, sg_lobes=k,
                         aux_depth=bool(aux))
    (step,) = r.take("<Q")
    (count,) = r.take("<I")

    params: dict = {}
    opt_state: dict = {}
    for _ in range(count):
        (nlen,) = r.take("<H")
        name = r.raw(nlen).decode("utf-8")
        (rank,) = r.take("<B")
        shape = r.take(f"<{rank}I") if rank else ()
        n = 1
        for s in shape:
            n *= s
        payload = r.raw(8 * n)
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        t = Tensor(arr.astype(np.float64))
        if name.startswith(_OPT_PREFIX):
            opt_state[name[len(_OPT_PREFIX):]] = t
        else:
            params[name] = t
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} trailing bytes")
    return params, config, step, opt_state
