"""Character-level vocabulary with reversible text/id mapping.

Six special tokens occupy the lowest ids; every other id is one
character. Specials are indivisible units that character splitting can
never produce, so round-tripping in-vocab text is exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .atomic import atomic_write, read_lines
from .errors import DataError

PAD = "<PAD>"
BOS = "<BOS>"
EOS = "<EOS>"
PATIENT = "<PAT>"
DOCTOR = "<DOC>"
UNK = "<UNK>"

SPECIALS = (PAD, BOS, EOS, PATIENT, DOCTOR, UNK)
# every vocabulary file holds the specials at these ids (load_vocab checks)
PAD_ID, BOS_ID, EOS_ID, PATIENT_ID, DOCTOR_ID, UNK_ID = range(len(SPECIALS))

# line-file escapes so one symbol always fits one line
_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}
_ESCAPED = re.compile(r"\\[\\nrt]")


@dataclass
class Vocab:
    symbol_to_id: dict[str, int]
    id_to_symbol: list[str] = field(init=False)

    def __post_init__(self):
        self.id_to_symbol = [""] * len(self.symbol_to_id)
        for sym, i in self.symbol_to_id.items():
            self.id_to_symbol[i] = sym

    def __len__(self) -> int:
        return len(self.symbol_to_id)


def build_vocab(corpus) -> Vocab:
    """Build a vocabulary from dialogue turn texts.

    Specials take ids 0..5, then characters in order of first occurrence,
    so construction is deterministic and idempotent for a given corpus.
    """
    dialogues = list(corpus)
    if not dialogues:
        raise DataError("cannot build a vocabulary from an empty corpus")
    table: dict[str, int] = {s: i for i, s in enumerate(SPECIALS)}
    for dlg in dialogues:
        for turn in dlg.turns:
            for ch in turn.text:
                if ch not in table:
                    table[ch] = len(table)
    return Vocab(table)


def encode(text: str, vocab: Vocab) -> list[int]:
    """One id per character; unknown characters map to UNK."""
    return [vocab.symbol_to_id.get(ch, UNK_ID) for ch in text]


def decode(ids, vocab: Vocab) -> str:
    """Inverse of encode on in-vocab text; specials render as their tags."""
    out = []
    n = len(vocab)
    for i in ids:
        i = int(i)
        if i < 0 or i >= n:
            raise DataError(f"token id {i} out of range for vocab size {n}")
        out.append(vocab.id_to_symbol[i])
    return "".join(out)


def save_vocab(vocab: Vocab, path) -> None:
    """One symbol per line, line number = id, escaped; specials hold no
    escaped character, so they appear as literal tags; written atomically."""
    with atomic_write(path) as fh:
        for sym in vocab.id_to_symbol:
            fh.write(sym.translate(_ESCAPE_TABLE) + "\n")


def load_vocab(path) -> Vocab:
    table: dict[str, int] = {}
    for i, line in enumerate(read_lines(path, DataError, "vocab file")):
        sym = _ESCAPED.sub(lambda m: _UNESCAPES[m.group()], line.rstrip("\n"))
        if sym in table:
            raise DataError(f"duplicate symbol at line {i} of {path}")
        table[sym] = i
    for i, s in enumerate(SPECIALS):
        if table.get(s) != i:
            raise DataError(f"vocab file {path} misses special {s} at id {i}")
    return Vocab(table)
