"""Atomic file writing helpers.

All persistent outputs go through a temp-file-plus-rename so a crashed or
failing command never leaves a partially written file behind.
"""

from __future__ import annotations

import itertools
import os

_TMP_IDS = itertools.count()


def atomic_write_bytes(path, data: bytes) -> None:
    """Write `data` to a fresh temp file beside `path`, then rename it over.

    The temp name is unique to this process and call, and exclusive
    creation never opens an existing file, so no other file (a user's own
    `<path>.tmp`, a concurrent writer's temp) is written or removed.
    """
    path = os.fspath(path)
    while True:
        tmp = f"{path}.{os.getpid()}.{next(_TMP_IDS)}.tmp"
        try:
            f = open(tmp, "xb")
            break
        except FileExistsError:  # left behind by a crashed earlier process
            continue
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def parse_kv_lines(text: str, source: str = "<text>") -> dict:
    """Parse flat `key = value` lines; '#' starts a comment, blanks skipped."""
    out = {}
    for num, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{num}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"{source}:{num}: empty key")
        out[key] = value.strip()
    return out
