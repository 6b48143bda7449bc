import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.corpus import Dialogue, Turn
from gptlab.errors import DataError
from gptlab.vocab import (BOS_ID, DOCTOR_ID, EOS_ID, PAD_ID, PATIENT_ID,
                          SPECIALS, UNK_ID, Vocab, build_vocab, decode, encode,
                          load_vocab, save_vocab)


def dialogue(*texts):
    turns = [Turn("patient" if i % 2 == 0 else "doctor", t)
             for i, t in enumerate(texts)]
    if turns[-1].speaker != "doctor":
        turns.append(Turn("doctor", texts[0]))
    return Dialogue(id="d0", turns=tuple(turns))


def test_build_vocab_counts_distinct_characters():
    v = build_vocab([dialogue("aba", "b")])
    # 6 specials + {a, b}
    assert len(v) == 8
    assert v.symbol_to_id["a"] == 6
    assert v.symbol_to_id["b"] == 7


def test_vocab_size_independent_of_character_order():
    v1 = build_vocab([dialogue("abc", "c")])
    v2 = build_vocab([dialogue("cba", "a")])
    assert len(v1) == len(v2)


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(DataError):
        build_vocab([])


def test_specials_occupy_lowest_ids():
    v = build_vocab([dialogue("xy", "z")])
    for i, sym in enumerate(SPECIALS):
        assert v.symbol_to_id[sym] == i
    assert PAD_ID == 0 and UNK_ID == 5
    assert [v.symbol_to_id[s] for s in SPECIALS] == [
        PAD_ID, BOS_ID, EOS_ID, PATIENT_ID, DOCTOR_ID, UNK_ID]


def test_encode_basics():
    v = build_vocab([dialogue("aba", "b")])
    assert encode("", v) == []
    assert encode("ab", v) == [6, 7]
    assert encode("Q", v) == [UNK_ID]


def test_decode_basics():
    v = build_vocab([dialogue("ab", "b")])
    assert decode([], v) == ""
    assert decode(encode("abba", v), v) == "abba"
    with pytest.raises(DataError, match="out of range for vocab size"):
        decode([len(v)], v)


def test_decode_renders_special_tags():
    v = build_vocab([dialogue("a", "a")])
    assert decode([BOS_ID, 6, EOS_ID], v) == "<BOS>a<EOS>"


@settings(deadline=None, max_examples=200)
@given(st.text(alphabet=string.ascii_lowercase + " .,", min_size=0,
               max_size=40))
def test_round_trip_identity_on_in_vocab_text(text):
    v = build_vocab([dialogue(string.ascii_lowercase + " .,", "a")])
    assert decode(encode(text, v), v) == text


def test_idempotent_construction():
    corpus = [dialogue("hello doctor", "take rest")]
    v1, v2 = build_vocab(corpus), build_vocab(corpus)
    assert v1.symbol_to_id == v2.symbol_to_id


def test_no_special_collides_with_characters():
    v = build_vocab([dialogue("<PAD>ab", "a")])
    # '<', 'P', 'A', 'D', '>' are separate characters, never the special
    assert {v.symbol_to_id[s] for s in SPECIALS}.isdisjoint(
        {v.symbol_to_id[c] for c in "<PAD>ab"})


def test_vocab_file_round_trip(tmp_path):
    v = build_vocab([dialogue("ab c\t d", "x")])
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.symbol_to_id == v.symbol_to_id
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "<PAD>"
    assert len(lines) == len(v)


def test_vocab_file_escapes_whitespace_symbols(tmp_path):
    v = build_vocab([dialogue("a\nb", "x")])
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert "\n" in loaded.symbol_to_id
    assert loaded.symbol_to_id["\n"] == v.symbol_to_id["\n"]


# the vocab-file escape table, kept here as the reference for the file bytes
REFERENCE_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def test_every_one_character_symbol_round_trips(tmp_path):
    chars = [chr(c) for c in range(0x10000) if not 0xD800 <= c < 0xE000]
    chars += ["\U0001F600", "\U0010FFFF"]
    assert {"\\", "\n", "\r", "\t"} <= set(chars)
    v = Vocab({s: i for i, s in enumerate(SPECIALS + tuple(chars))})
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    assert load_vocab(path).symbol_to_id == v.symbol_to_id
    want = "".join(s + "\n" for s in SPECIALS) + "".join(
        REFERENCE_ESCAPES.get(ch, ch) + "\n" for ch in chars)
    assert path.read_bytes() == want.encode("utf-8")
