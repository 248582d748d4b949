"""Atomic JSON writes for cache entries and saved artifacts.

The document goes to a temporary file in the target's directory, which then
replaces the target in one ``os.replace``.  A reader sees the old file, no
file, or the whole new one, never a partial write; a failed write removes
its temporary file.
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
