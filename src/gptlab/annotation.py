"""Per-token lexical tags, entity flags, and the discrete splicing baseline."""
from __future__ import annotations

import re
from dataclasses import replace
from enum import IntEnum
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, SpanOutOfBoundsError
from .vocab import Vocab, encode

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
            raise SpanOutOfBoundsError(
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


def splice_entities(seq, entity_texts: Sequence[str], vocab: Vocab,
                    max_len: int):
    """Discrete-append baseline: original sequence, a separator marker,
    then the concatenated entity mentions; ``seq`` itself when there are
    no mentions.

    Appended tokens are OTHER/0, excluded from the loss, and the result is
    re-truncated to the most recent max_len tokens. PAD doubles as the
    separator: sequences are never padded, so the id is free.
    """
    if not entity_texts:
        return seq
    appended = [vocab.pad_id]
    for text in entity_texts:
        appended.extend(encode(text, vocab))
    n = len(appended)
    return replace(seq, ids=seq.ids + appended,
                   lexical_tags=seq.lexical_tags + [int(LexTag.OTHER)] * n,
                   entity_flags=seq.entity_flags + [0] * n,
                   loss_mask=seq.loss_mask + [False] * n,
                   position_ids=list(range(len(seq) + n))).tail(max_len)
