"""Per-token lexical tags and entity flags: the tagger that assigns a
lexical class to each character, and the 0/1 flags of entity spans.
``corpus.linearize`` places both, and the entity-splicing baseline's tail,
into the model input."""
from __future__ import annotations

import re
from enum import IntEnum
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, DataError

Tagger = Callable[[str], list[int]]


class LexTag(IntEnum):
    """Coarse lexical classes; OTHER keeps the embedding table total."""
    NOUN = 0
    ADJ = 1
    VERB = 2
    OTHER = 3


LEX_TABLE_SIZE = len(LexTag)
ENTITY_TABLE_SIZE = 2


def entity_flags(seq_len: int, token_spans: Iterable[tuple[int, int]]) -> list[int]:
    """Binary per-token membership in any half-open [start, end) span."""
    flags = [0] * seq_len
    for start, end in token_spans:
        if not (0 <= start < end <= seq_len):
            raise DataError(
                f"token span [{start},{end}) outside sequence of length {seq_len}")
        for i in range(start, end):
            flags[i] = 1
    return flags


def dictionary_tagger(nouns: Sequence[str], adjectives: Sequence[str],
                      verbs: Sequence[str]) -> Tagger:
    """Longest-match-first lexicon tagger; unmatched characters get OTHER.

    A term listed under two classes is a configuration error, not a tie to
    break silently.
    """
    table: dict[str, LexTag] = {}
    for terms, tag in ((nouns, LexTag.NOUN), (adjectives, LexTag.ADJ),
                       (verbs, LexTag.VERB)):
        for term in terms:
            if not term:
                raise ConfigError("empty term in tagger lexicon")
            if term in table and table[term] != tag:
                raise ConfigError(
                    f"term {term!r} appears in two tagger lexicons")
            table[term] = tag
    # one alternation, longest first with an alphabetical tiebreak: at each
    # position the regex engine takes the first listed term that matches;
    # with no terms, "(?!)" never matches
    pattern = re.compile("|".join(
        re.escape(t) for t in sorted(table, key=lambda t: (-len(t), t)))
        or "(?!)")

    def tag_text(text: str) -> list[int]:
        tags = [int(LexTag.OTHER)] * len(text)
        for m in pattern.finditer(text):
            tags[m.start():m.end()] = [int(table[m.group()])] * len(m.group())
        return tags

    return tag_text
