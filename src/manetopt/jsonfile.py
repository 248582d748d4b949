"""Atomic JSON writes, and checked reads, of cache entries and saved artifacts.

The document goes to a temporary file in the target's directory, which then
replaces the target in one ``os.replace``.  A reader sees the old file, no
file, or the whole new one, never a partial write; a failed write removes
its temporary file.  A cache entry is read through its kind's check, and
one that is not JSON or that the check refuses is a miss, which the caller
recomputes and rewrites.
"""

from __future__ import annotations

import json
import os


def write_json(path: str, doc, **dump_kwargs) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, **dump_kwargs)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_entry(path: str | None, check):
    """``check(doc)`` of the cache entry at ``path``, or None when there is
    none: no path, no file, a partial write, or a document that ``check``
    refuses with ``ValueError``."""
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return check(json.load(fh))
    except ValueError:  # json.JSONDecodeError is one
        return None
