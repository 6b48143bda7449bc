"""Artifact files: read whole as UTF-8 text, replaced whole when written.

A write goes to a temporary file in the target's directory, which
``os.replace`` moves over the target only once it is complete; a write
that raises removes it and leaves the target as it was. A reader sees the
old file or the new one.
"""
from __future__ import annotations

import contextlib
import os
from pathlib import Path


def read_lines(path, error: type[Exception], what: str) -> list[str]:
    """The lines of a UTF-8 text file; one that cannot be opened or decoded
    raises ``error``, naming the ``what`` it should have been."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise error(f"cannot open {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text ({exc})") from exc


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
