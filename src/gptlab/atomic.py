"""Artifact files replaced whole: a reader sees the old file or the new one.

Each write goes to a temporary file in the target's directory, which
``os.replace`` moves over the target only once it is complete; a write
that raises removes it and leaves the target as it was.
"""
from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary sibling of ``path`` for writing (``"w"``: UTF-8 text,
    ``"wb"``: bytes) and move it over ``path`` when the block ends cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
