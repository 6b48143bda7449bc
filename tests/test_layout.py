"""Production code holds no code that only tests call, and no setting
that nothing reads.

Every module-level function or class of ``src/gptlab``, and every method
of its classes, must be named (as a whole word) on some other line of
``src/gptlab`` or ``perfbench/``. Dunder methods are exempt: Python calls
them. Every config key that the reader accepts must be quoted somewhere
in ``src/gptlab`` outside the set that lists the accepted keys.
"""
import ast
import re
from pathlib import Path

from gptlab.config import KNOWN_KEYS

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gptlab"

# called only by the acceptance suite: criterion 06 checks the trainable
# parameter budget with it
ALLOWED = {"parameter_count"}


def definitions(tree: ast.Module):
    """(name, line) of each module-level function and class, and of each
    method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno


def test_every_definition_is_named_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(
        (REPO / "perfbench").glob("*.py"))
    lines = [(path, no, text) for path in sources
             for no, text in enumerate(path.read_text(encoding="utf-8")
                                       .splitlines(), start=1)]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, lineno in definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if name not in ALLOWED and not any(
                    word.search(text) for p, no, text in lines
                    if (p, no) != (path, lineno)):
                unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, "named only by tests: " + ", ".join(unused)


def test_every_config_key_is_read():
    listing = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    known = next(node for node in listing.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["KNOWN_KEYS"])
    text = "\n".join(
        line for path in sorted(PACKAGE.glob("*.py"))
        for no, line in enumerate(path.read_text(encoding="utf-8")
                                  .splitlines(), start=1)
        if not (path.name == "config.py"
                and known.lineno <= no <= known.end_lineno))
    unread = sorted(key for key in KNOWN_KEYS if f'"{key}"' not in text)
    assert not unread, "config keys nothing reads: " + ", ".join(unread)
