import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.annotation import LexTag, dictionary_tagger, entity_flags
from gptlab.corpus import (LOSS_MASK_POLICIES, MIN_SEQ_LEN, PATIENT, Dialogue,
                           EntitySpan, SyntheticSpec, TokenSequence, Turn,
                           generate_synthetic, linearize, load_corpus,
                           save_corpus, split)
from gptlab.errors import ConfigError, DataError
from gptlab import vocab as special
from gptlab.vocab import (BOS_ID, DOCTOR_ID, EOS_ID, PATIENT_ID, build_vocab,
                          encode)

from .util import DEFAULT_DISEASES, DEFAULT_DRUGS, DEFAULT_SYMPTOMS


def two_turn(idx="d0", patient="ab", doctor="c", spans=()):
    return Dialogue(id=idx, turns=(
        Turn("patient", patient, tuple(spans)),
        Turn("doctor", doctor),
    ))


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(idx="d0", spans=()):
    return {
        "id": idx,
        "turns": [
            {"speaker": "patient", "text": "stomach ache",
             "entities": [dict(zip(("start", "end", "label"), s))
                          for s in spans]},
            {"speaker": "doctor", "text": "rest well", "entities": []},
        ],
    }


def test_load_well_formed_file(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(spans=[(0, 7, "part")])])
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert corpus[0].turns[0].entities[0] == EntitySpan(0, 7, "part")


def test_load_rejects_span_past_text_end(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(idx="bad-span", spans=[(5, 99, "x")])])
    with pytest.raises(DataError, match=r"bad-span.*outside turn 0"):
        load_corpus(path)


def test_load_rejects_overlapping_spans(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(idx="olap", spans=[(0, 3, "a"), (2, 5, "b")])])
    with pytest.raises(DataError, match="olap.*overlapping spans"):
        load_corpus(path)


def test_load_rejects_malformed_records(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        load_corpus(path)

    write_jsonl(path, [{"id": "x"}])  # missing turns
    with pytest.raises(DataError, match="missing or malformed field"):
        load_corpus(path)

    rec = record(idx="short")
    rec["turns"] = rec["turns"][:1]
    write_jsonl(path, [rec])
    with pytest.raises(DataError, match="short.*at least two turns"):
        load_corpus(path)


def test_corpus_round_trip(tmp_path):
    spec = SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                         n_dialogues=5)
    corpus = generate_synthetic(spec, seed=3)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_split_hundred_to_one():
    corpus = [two_turn(f"d{i}") for i in range(101)]
    train, test = split(corpus, (100, 1), seed=0)
    assert len(train) == 100 and len(test) == 1


def test_split_eight_to_two():
    corpus = [two_turn(f"d{i}") for i in range(10)]
    train, test = split(corpus, (8, 2), seed=0)
    assert len(train) == 8 and len(test) == 2


def test_split_deterministic_and_partitions():
    corpus = [two_turn(f"d{i}") for i in range(23)]
    t1 = split(corpus, (8, 2), seed=9)
    t2 = split(corpus, (8, 2), seed=9)
    assert t1 == t2
    train, test = t1
    ids = {d.id for d in train} | {d.id for d in test}
    assert len(ids) == 23
    assert not ({d.id for d in train} & {d.id for d in test})


def test_split_too_small_rejected():
    with pytest.raises(DataError):
        split([two_turn()], (8, 2), seed=0)


def test_linearize_layout():
    corpus = [two_turn()]
    vocab = build_vocab(corpus)
    seq = linearize(corpus[0], vocab, 32, policy="all", tagger=None,
                    splice=False)
    a, b, c = (vocab.symbol_to_id[ch] for ch in "abc")
    assert seq.ids == [BOS_ID, PATIENT_ID, a, b, DOCTOR_ID, c, EOS_ID]
    assert seq.position_ids == list(range(7))


def test_linearize_entity_flags():
    corpus = [two_turn(spans=[EntitySpan(0, 2, "thing")])]
    vocab = build_vocab(corpus)
    seq = linearize(corpus[0], vocab, 32, policy="all", tagger=None,
                    splice=False)
    assert seq.entity_flags == [0, 0, 1, 1, 0, 0, 0]


def test_linearize_loss_masks_by_policy():
    corpus = [two_turn()]
    vocab = build_vocab(corpus)
    pre = linearize(corpus[0], vocab, 32, policy="all", tagger=None,
                    splice=False)
    assert pre.loss_mask == [False, True, True, True, True, True, True]
    tune = linearize(corpus[0], vocab, 32, policy="response", tagger=None,
                     splice=False)
    # only the final doctor text and EOS carry loss
    assert tune.loss_mask == [False, False, False, False, False, True, True]


def test_linearize_truncation_keeps_suffix():
    long_text = "x" * 600
    dlg = Dialogue(id="long", turns=(Turn("patient", long_text),
                                     Turn("doctor", "ok")))
    vocab = build_vocab([dlg])
    seq = linearize(dlg, vocab, 512, policy="all", tagger=None, splice=False)
    assert len(seq) == 512
    # the tail (doctor turn + EOS) must be intact
    assert seq.ids[-1] == EOS_ID
    assert seq.ids[-4] == DOCTOR_ID
    assert seq.position_ids == list(range(512))


def test_linearize_equal_length_lists():
    spec = SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                         n_dialogues=8)
    corpus = generate_synthetic(spec, seed=1)
    vocab = build_vocab(corpus)
    for dlg in corpus:
        # force truncation
        seq = linearize(dlg, vocab, 64, policy="all", tagger=None,
                        splice=False)
        assert len(seq.ids) == len(seq.lexical_tags) == len(seq.entity_flags)
        assert len(seq.loss_mask) == len(seq.position_ids) == len(seq.ids)
        assert len(seq) <= 64


def test_generate_synthetic_validates_and_is_deterministic():
    spec = SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                         n_dialogues=3, turns_min=2, turns_max=2)
    c1 = generate_synthetic(spec, seed=7)
    c2 = generate_synthetic(spec, seed=7)
    assert len(c1) == 3
    assert c1 == c2
    assert c1 != generate_synthetic(spec, seed=8)


def test_generate_synthetic_spans_are_lexicon_members():
    spec = SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                         n_dialogues=20)
    lexicon = set(DEFAULT_SYMPTOMS) | set(DEFAULT_DISEASES) | set(DEFAULT_DRUGS)
    for dlg in generate_synthetic(spec, seed=11):
        for turn in dlg.turns:
            for span in turn.entities:
                assert turn.text[span.start:span.end] in lexicon


def test_generate_synthetic_disease_is_function_of_flagged_symptom():
    spec = SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                         n_dialogues=40)
    for dlg in generate_synthetic(spec, seed=13):
        pturn = dlg.turns[0]
        (span,) = pturn.entities
        symptom = pturn.text[span.start:span.end]
        idx = DEFAULT_SYMPTOMS.index(symptom)
        dturn = dlg.turns[-1]
        disease = dturn.text[dturn.entities[0].start:dturn.entities[0].end]
        assert disease == DEFAULT_DISEASES[idx % len(DEFAULT_DISEASES)]


def test_generate_synthetic_empty_lexicon_rejected():
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticSpec([], DEFAULT_DISEASES, DEFAULT_DRUGS,
                                         n_dialogues=1), seed=0)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 60), st.integers(0, 2 ** 31 - 1))
def test_split_union_and_disjoint_property(n, seed):
    corpus = [two_turn(f"d{i}") for i in range(n)]
    train, test = split(corpus, (4, 1), seed=seed)
    assert len(train) + len(test) == n
    assert len(test) >= 1 and len(train) >= 1
    assert {d.id for d in train}.isdisjoint({d.id for d in test})


def token_seq(n=5, **fields):
    base = dict(ids=list(range(n)), lexical_tags=[3] * n, entity_flags=[0] * n,
                loss_mask=[True] * n, position_ids=list(range(n)))
    return TokenSequence(**{**base, **fields})


@pytest.mark.parametrize("field", ["ids", "lexical_tags", "entity_flags",
                                   "loss_mask", "position_ids"])
def test_token_sequence_rejects_mismatched_lengths(field):
    with pytest.raises(DataError, match="lengths"):
        token_seq(**{field: getattr(token_seq(), field)[:4]})
    seq = token_seq()
    getattr(seq, field).append(getattr(seq, field)[-1])  # now 6 of 5
    with pytest.raises(DataError, match="lengths"):
        seq.prefix(6)


def test_token_sequence_rejects_entity_flag_two():
    with pytest.raises(DataError, match="0/1"):
        token_seq(entity_flags=[0, 1, 2, 0, 0])
    seq = token_seq()
    seq.entity_flags[3] = 2
    assert seq.prefix(3).entity_flags == [0, 0, 0]  # the 2 is cut off
    with pytest.raises(DataError, match="0/1"):
        seq.prefix(4)


# --- the four-step layout that linearize replaced, kept as its oracle ---
# Copied from the code linearize replaced: TokenSequence.tail,
# corpus.linearize, training.history_entity_texts and
# annotation.splice_entities. Only the plumbing differs: tail is a function
# here, the special ids are read through RefVocab, and the loss-mask policy
# is translated to the old mode names as prepare_sequences did.

REF_POLICIES = {"all": "pretrain", "response": "tune"}


class RefVocab:
    """The vocabulary API the old layout read: special ids as properties."""

    def __init__(self, vocab):
        self.symbol_to_id = vocab.symbol_to_id

    pad_id = property(lambda self: self.symbol_to_id[special.PAD])
    bos_id = property(lambda self: self.symbol_to_id[special.BOS])
    eos_id = property(lambda self: self.symbol_to_id[special.EOS])
    patient_id = property(lambda self: self.symbol_to_id[special.PATIENT])
    doctor_id = property(lambda self: self.symbol_to_id[special.DOCTOR])
    unk_id = property(lambda self: self.symbol_to_id[special.UNK])


def ref_tail(self, n: int) -> "TokenSequence":
    """The last ``n`` tokens, every field sliced alike and positions
    renumbered from 0; the sequence itself when it is no longer."""
    if len(self) <= n:
        return self
    kept = {f.name: getattr(self, f.name)[-n:] for f in fields(self)}
    kept["position_ids"] = list(range(n))
    return TokenSequence(**kept)


def ref_linearize(dialogue, vocab, max_len: int, mode: str = "pretrain",
                  tagger=None) -> TokenSequence:
    if max_len < MIN_SEQ_LEN:
        raise ConfigError(f"max_len must be >= {MIN_SEQ_LEN}, got {max_len}")
    if mode not in ("pretrain", "tune"):
        raise ConfigError(f"unknown linearization mode {mode!r}")

    other = int(LexTag.OTHER)
    ids = [vocab.bos_id]
    tags = [other]
    flags = [0]
    mask = [False]
    last = len(dialogue.turns) - 1
    for t_idx, turn in enumerate(dialogue.turns):
        marker = vocab.patient_id if turn.speaker == PATIENT else vocab.doctor_id
        ids.append(marker)
        tags.append(other)
        flags.append(0)
        mask.append(mode == "pretrain")
        text_ids = encode(turn.text, vocab)
        turn_tags = tagger(turn.text) if tagger else [other] * len(turn.text)
        if len(turn_tags) != len(turn.text):
            raise DataError(
                f"tagger returned {len(turn_tags)} tags for "
                f"{len(turn.text)} characters")
        in_loss = mode == "pretrain" or t_idx == last
        ids.extend(text_ids)
        tags.extend(turn_tags)
        flags.extend(entity_flags(len(turn.text), (
            (span.start, span.end) for span in turn.entities)))
        mask.extend([in_loss] * len(text_ids))
    ids.append(vocab.eos_id)
    tags.append(other)
    flags.append(0)
    mask.append(True)  # EOS is always a prediction target
    return ref_tail(TokenSequence(ids=ids, lexical_tags=tags,
                                  entity_flags=flags, loss_mask=mask,
                                  position_ids=list(range(len(ids)))),
                    max_len)


def ref_history_entity_texts(dlg) -> list[str]:
    """Entity mention strings from every turn before the final one."""
    out = []
    for turn in dlg.turns[:-1]:
        for span in turn.entities:
            out.append(turn.text[span.start:span.end])
    return out


def ref_splice_entities(seq, entity_texts, vocab, max_len: int):
    if not entity_texts:
        return seq
    appended = [vocab.pad_id]
    for text in entity_texts:
        appended.extend(encode(text, vocab))
    n = len(appended)
    return ref_tail(replace(seq, ids=seq.ids + appended,
                            lexical_tags=seq.lexical_tags
                            + [int(LexTag.OTHER)] * n,
                            entity_flags=seq.entity_flags + [0] * n,
                            loss_mask=seq.loss_mask + [False] * n,
                            position_ids=list(range(len(seq) + n))), max_len)


def ref_sequence(dlg, vocab, max_len, policy, tagger, splice):
    """What prepare_sequences returned before linearize took the splice."""
    vocab = RefVocab(vocab)
    seq = ref_linearize(dlg, vocab, max_len, mode=REF_POLICIES[policy],
                        tagger=tagger)
    if splice:
        seq = ref_splice_entities(seq, ref_history_entity_texts(dlg), vocab,
                                  max_len)
    return seq


@st.composite
def annotated_turn(draw, speaker):
    """A turn over a small alphabet with a few non-overlapping spans,
    listed in any order."""
    text = draw(st.text(alphabet="abcxyz .", min_size=1, max_size=14))
    cuts = draw(st.lists(st.integers(0, len(text)), max_size=6, unique=True))
    cuts = sorted(cuts)[:len(cuts) // 2 * 2]
    spans = [EntitySpan(start, end, "e")
             for start, end in zip(cuts[::2], cuts[1::2])]
    return Turn(speaker, text, tuple(draw(st.permutations(spans))))


@st.composite
def annotated_dialogue(draw):
    speakers = draw(st.lists(st.sampled_from(["patient", "doctor"]),
                             min_size=1, max_size=4))
    turns = [draw(annotated_turn(s)) for s in speakers + ["doctor"]]
    return Dialogue(id="h", turns=tuple(turns))


REF_TAGGER = dictionary_tagger(["ab", "c"], ["x y"], ["z"])


@settings(deadline=None, max_examples=300)
@given(dlg=annotated_dialogue(), max_len=st.integers(MIN_SEQ_LEN, 160),
       policy=st.sampled_from(LOSS_MASK_POLICIES), splice=st.booleans(),
       tagged=st.booleans())
def test_linearize_matches_the_layout_it_replaced(dlg, max_len, policy,
                                                  splice, tagged):
    # "." is left out of the vocabulary, so it encodes as UNK
    vocab = build_vocab([Dialogue("v", (Turn("patient", "abcxyz "),
                                        Turn("doctor", "a")))])
    tagger = REF_TAGGER if tagged else None
    got = linearize(dlg, vocab, max_len, policy, tagger, splice)
    want = ref_sequence(dlg, vocab, max_len, policy, tagger, splice)
    for f in fields(TokenSequence):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
