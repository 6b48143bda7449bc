"""Dialogue dataset schema, loading, splitting, linearization, synthesis.

Corpus files are line-delimited JSON, one dialogue per line, offsets in
characters. ``linearize`` is the one way from a dialogue to model input:
it lays out every token's id, lexical tag, entity flag, loss bit and
position, the discrete entity-splicing baseline's tail included. The
synthetic generator produces annotated consultations in which the
doctor's diagnosis is a deterministic function of the flagged symptom
mention, so the entity channel carries real predictive signal.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .annotation import LexTag, Tagger, entity_flags
from .atomic import atomic_write, read_lines
from .errors import (
    ConfigError,
    DataError,
    MalformedRecordError,
    OverlappingSpanError,
    SpanOutOfBoundsError,
)
from .vocab import (BOS_ID, DOCTOR_ID, EOS_ID, PAD_ID, PATIENT_ID, Vocab,
                    encode)

PATIENT = "patient"
DOCTOR = "doctor"

MIN_SEQ_LEN = 8
# loss-mask policies: loss on every token, or on the final doctor turn only
LOSS_MASK_POLICIES = ("all", "response")


@dataclass(frozen=True)
class EntitySpan:
    start: int  # character offset, inclusive
    end: int    # character offset, exclusive
    label: str


@dataclass(frozen=True)
class Turn:
    speaker: str
    text: str
    entities: tuple[EntitySpan, ...] = ()


@dataclass(frozen=True)
class Dialogue:
    id: str
    turns: tuple[Turn, ...]


@dataclass
class TokenSequence:
    """One linearized dialogue, ready for the model; checked once, when
    it is built."""
    ids: list[int]
    lexical_tags: list[int]
    entity_flags: list[int]
    loss_mask: list[bool]
    position_ids: list[int]

    def __len__(self) -> int:
        return len(self.ids)

    def prefix(self, n: int) -> "TokenSequence":
        """The first ``n`` tokens, every field sliced alike."""
        return TokenSequence(*(getattr(self, f.name)[:n] for f in fields(self)))

    def __post_init__(self):
        n = len(self.ids)
        lists = (self.lexical_tags, self.entity_flags, self.loss_mask,
                 self.position_ids)
        if any(len(l) != n for l in lists):
            raise DataError("TokenSequence field lengths disagree")
        if not set(self.entity_flags) <= {0, 1}:
            raise DataError("entity flags must be 0/1")


def validate_dialogue(dlg: Dialogue) -> None:
    if type(dlg.id) is not str or not dlg.id:
        raise MalformedRecordError(f"dialogue id {dlg.id!r} is not a "
                                   f"non-empty string")
    if len(dlg.turns) < 2:
        raise MalformedRecordError(
            f"dialogue {dlg.id!r}: needs at least two turns")
    if dlg.turns[-1].speaker != DOCTOR:
        raise MalformedRecordError(
            f"dialogue {dlg.id!r}: final turn must be a doctor turn")
    for t_idx, turn in enumerate(dlg.turns):
        if turn.speaker not in (PATIENT, DOCTOR):
            raise MalformedRecordError(
                f"dialogue {dlg.id!r}: unknown speaker {turn.speaker!r}")
        if not isinstance(turn.text, str) or not turn.text:
            raise MalformedRecordError(
                f"dialogue {dlg.id!r}: turn {t_idx} has no text string")
        if not all(type(s.start) is int and type(s.end) is int
                   and isinstance(s.label, str) for s in turn.entities):
            raise MalformedRecordError(
                f"dialogue {dlg.id!r}: turn {t_idx} has a span without "
                f"integer offsets and a string label")
        spans = sorted(turn.entities, key=lambda s: (s.start, s.end))
        prev_end = -1
        for span in spans:
            if not (0 <= span.start < span.end <= len(turn.text)):
                raise SpanOutOfBoundsError(
                    f"dialogue {dlg.id!r}: span [{span.start},{span.end}) "
                    f"outside turn {t_idx} of length {len(turn.text)}")
            if span.start < prev_end:
                raise OverlappingSpanError(
                    f"dialogue {dlg.id!r}: overlapping spans in turn {t_idx}")
            prev_end = span.end
    try:  # a lone surrogate escape decodes from JSON but has no UTF-8
        "".join([dlg.id] + [t.text for t in dlg.turns]).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MalformedRecordError(
            f"dialogue {dlg.id!r}: id or text is not UTF-8 ({exc.reason})"
        ) from exc


def _dialogue_from_record(rec: dict, lineno: int) -> Dialogue:
    try:
        turns = tuple(
            Turn(
                speaker=t["speaker"],
                text=t["text"],
                entities=tuple(
                    EntitySpan(e["start"], e["end"], e["label"])
                    for e in t.get("entities", ())),
            )
            for t in rec["turns"])
        dlg = Dialogue(id=rec["id"], turns=turns)
    except (KeyError, TypeError) as exc:
        raise MalformedRecordError(
            f"line {lineno}: missing or malformed field ({exc})") from exc
    return dlg


def load_corpus(path) -> list[Dialogue]:
    """Load and validate a JSONL corpus; any invariant violation rejects
    the file, naming the offending dialogue."""
    out = []
    for lineno, line in enumerate(read_lines(path, DataError, "corpus"),
                                  start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise MalformedRecordError(
                f"line {lineno} of {path}: not valid JSON") from exc
        dlg = _dialogue_from_record(rec, lineno)
        validate_dialogue(dlg)
        out.append(dlg)
    return out


def save_corpus(corpus, path) -> None:
    with atomic_write(path) as fh:
        for dlg in corpus:
            # each schema dataclass is written as its fields (vars);
            # dataclasses.asdict writes the same bytes 2.5x slower
            fh.write(json.dumps(dlg, default=vars, ensure_ascii=False,
                                sort_keys=True))
            fh.write("\n")


def split(corpus: list[Dialogue], ratio: tuple[int, int],
          seed: int) -> tuple[list[Dialogue], list[Dialogue]]:
    """Deterministic dialogue-level partition at train:test = ratio."""
    n = len(corpus)
    if n < 2:
        raise DataError("cannot split a corpus of fewer than 2 dialogues")
    train_part, test_part = ratio
    if train_part <= 0 or test_part <= 0:
        raise ConfigError(f"split ratio parts must be positive, got {ratio}")
    frac = test_part / (train_part + test_part)
    n_test = int(round(n * frac))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    test_idx = set(int(i) for i in perm[:n_test])
    train = [d for i, d in enumerate(corpus) if i not in test_idx]
    test = [d for i, d in enumerate(corpus) if i in test_idx]
    return train, test


def linearize(dialogue: Dialogue, vocab: Vocab, max_len: int, policy: str,
              tagger: Optional[Tagger], splice: bool) -> TokenSequence:
    """The model input of a dialogue: BOS, each turn as its speaker marker
    and characters, EOS, then with ``splice`` a PAD separator and the
    entity mentions of the history turns.

    Turn characters carry the tagger's lexical tags (OTHER without one)
    and flag 1 inside an entity span; every other token is OTHER/0.
    Policy "all" puts loss on every token after BOS, "response" only on
    the final turn's text and EOS; the splice tail carries none. A longer
    sequence keeps its last max_len tokens. Positions count from 0.
    """
    if max_len < MIN_SEQ_LEN:
        raise ConfigError(f"max_len must be >= {MIN_SEQ_LEN}, got {max_len}")
    if policy not in LOSS_MASK_POLICIES:
        raise ConfigError(f"unknown loss-mask policy {policy!r}")
    validate_dialogue(dialogue)

    other = int(LexTag.OTHER)
    every = policy == "all"
    ids = [BOS_ID]
    tags = [other]
    flags = [0]
    mask = [False]
    mentions = []
    last = len(dialogue.turns) - 1
    for t_idx, turn in enumerate(dialogue.turns):
        text = turn.text
        ids.append(PATIENT_ID if turn.speaker == PATIENT else DOCTOR_ID)
        tags.append(other)
        flags.append(0)
        mask.append(every)
        turn_tags = tagger(text) if tagger else [other] * len(text)
        if len(turn_tags) != len(text):
            raise DataError(
                f"tagger returned {len(turn_tags)} tags for "
                f"{len(text)} characters")
        spans = [(span.start, span.end) for span in turn.entities]
        ids.extend(encode(text, vocab))
        tags.extend(turn_tags)
        flags.extend(entity_flags(len(text), spans))
        mask.extend([every or t_idx == last] * len(text))
        if splice and t_idx < last:
            mentions.extend(text[start:end] for start, end in spans)
    ids.append(EOS_ID)
    tags.append(other)
    flags.append(0)
    mask.append(True)  # EOS is always a prediction target
    if mentions:
        # PAD separates: sequences are never padded, so the id is free
        tail = [PAD_ID]
        for mention in mentions:
            tail.extend(encode(mention, vocab))
        ids.extend(tail)
        tags.extend([other] * len(tail))
        flags.extend([0] * len(tail))
        mask.extend([False] * len(tail))
    if len(ids) > max_len:
        ids, tags, flags, mask = (ids[-max_len:], tags[-max_len:],
                                  flags[-max_len:], mask[-max_len:])
    return TokenSequence(ids=ids, lexical_tags=tags, entity_flags=flags,
                         loss_mask=mask, position_ids=list(range(len(ids))))


# --- synthetic annotated consultations ---

@dataclass
class SyntheticSpec:
    """Recipe for one synthetic corpus."""
    symptoms: list[str]
    diseases: list[str]
    drugs: list[str]
    n_dialogues: int
    turns_min: int = 2
    turns_max: int = 4
    style: str = "clinic"
    n_mentions: int = 4  # symptom words per opening turn; one is annotated


_STYLES = {
    "clinic": {
        "open": ("hello doctor i feel ", " these days"),
        "probe": "how long has this been going on",
        "reply": ["for about two days", "for about three days",
                  "since last week", "for a few days now"],
        "final": ("you have ", " take "),
    },
    "followup": {
        "open": ("doctor my ", " keep coming back"),
        "probe": "did anything change since last visit",
        "reply": ["not really it feels the same", "only a little at night",
                  "it got worse after work", "hard to say it comes and goes"],
        "final": ("tests say ", " use "),
    },
}


def generate_synthetic(spec: SyntheticSpec, seed: int) -> list[Dialogue]:
    """Template-generated consultations with exact span annotations.

    The opening patient turn mentions ``n_mentions`` distinct symptoms but
    annotates exactly one; the closing doctor turn names the disease and
    drug at the annotated symptom's lexicon index. Flags, not surface
    text, decide which mention counts.
    """
    if spec.n_dialogues < 1:
        raise ConfigError(
            f"corpus needs at least 1 dialogue, got {spec.n_dialogues}")
    for name, lex in (("symptoms", spec.symptoms), ("diseases", spec.diseases),
                      ("drugs", spec.drugs)):
        if not lex:
            raise ConfigError(f"empty {name} lexicon")
    if spec.n_mentions < 1 or spec.n_mentions > len(spec.symptoms):
        raise ConfigError(
            f"n_mentions={spec.n_mentions} not in [1, {len(spec.symptoms)}]")
    if spec.style not in _STYLES:
        raise ConfigError(f"unknown dialogue style {spec.style!r}")
    if not (2 <= spec.turns_min <= spec.turns_max):
        raise ConfigError("need 2 <= turns_min <= turns_max")
    style = _STYLES[spec.style]
    rng = np.random.Generator(np.random.PCG64(seed))

    dialogues = []
    for d_idx in range(spec.n_dialogues):
        picks = rng.choice(len(spec.symptoms), size=spec.n_mentions,
                           replace=False)
        flagged_pos = int(rng.integers(spec.n_mentions))
        flagged = int(picks[flagged_pos])

        prefix, suffix = style["open"]
        text = prefix
        spans = []
        for m_idx, s_idx in enumerate(picks):
            word = spec.symptoms[int(s_idx)]
            if m_idx > 0:
                text += " and "
            if m_idx == flagged_pos:
                spans.append(EntitySpan(len(text), len(text) + len(word),
                                        "symptom"))
            text += word
        text += suffix
        turns = [Turn(PATIENT, text, tuple(spans))]

        n_turns = int(rng.integers(spec.turns_min, spec.turns_max + 1))
        while len(turns) < n_turns - 1:
            turns.append(Turn(DOCTOR, style["probe"]))
            if len(turns) < n_turns - 1:
                reply = style["reply"][int(rng.integers(len(style["reply"])))]
                turns.append(Turn(PATIENT, reply))

        lead, mid = style["final"]
        disease = spec.diseases[flagged % len(spec.diseases)]
        drug = spec.drugs[flagged % len(spec.drugs)]
        final = lead + disease + mid + drug
        d_span = EntitySpan(len(lead), len(lead) + len(disease), "disease")
        g_start = len(lead) + len(disease) + len(mid)
        g_span = EntitySpan(g_start, g_start + len(drug), "drug")
        turns.append(Turn(DOCTOR, final, (d_span, g_span)))

        dlg = Dialogue(id=f"{spec.style}-{d_idx:05d}", turns=tuple(turns))
        validate_dialogue(dlg)
        dialogues.append(dlg)
    return dialogues

