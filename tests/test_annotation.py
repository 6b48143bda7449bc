import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptlab.annotation import LexTag, dictionary_tagger, entity_flags
from gptlab.corpus import Dialogue, EntitySpan, Turn, linearize
from gptlab.errors import ConfigError, DataError
from gptlab.vocab import PAD_ID, build_vocab, encode


def test_entity_flags_basic():
    assert entity_flags(5, [(1, 3)]) == [0, 1, 1, 0, 0]
    assert entity_flags(4, []) == [0, 0, 0, 0]
    assert entity_flags(5, [(0, 1), (4, 5)]) == [1, 0, 0, 0, 1]


def test_entity_flags_out_of_range():
    with pytest.raises(DataError, match="outside sequence of length"):
        entity_flags(5, [(3, 6)])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 10))
                .map(lambda p: (min(p[0], p[1] - 1), max(p[0] + 1, p[1]))),
                max_size=5))
def test_entity_flags_idempotent_and_order_free(spans):
    spans = [(s, e) for s, e in spans if e <= 10]
    once = entity_flags(10, spans)
    assert entity_flags(10, spans + spans) == once
    assert entity_flags(10, list(reversed(spans))) == once


def test_dictionary_tagger_basics():
    tag = dictionary_tagger(["ab"], [], [])
    assert tag("ab") == [LexTag.NOUN, LexTag.NOUN]
    assert tag("zz") == [LexTag.OTHER, LexTag.OTHER]


def test_dictionary_tagger_longest_match_wins():
    tag = dictionary_tagger(["abc"], [], ["ab"])
    assert tag("abc") == [LexTag.NOUN] * 3
    assert tag("abx") == [LexTag.VERB, LexTag.VERB, LexTag.OTHER]


def test_dictionary_tagger_total_and_deterministic():
    tag = dictionary_tagger(["cough"], ["sore"], ["rest"])
    text = "a sore throat needs rest not cough drops"
    out1, out2 = tag(text), tag(text)
    assert out1 == out2
    assert len(out1) == len(text)


def test_dictionary_tagger_duplicate_term_rejected():
    with pytest.raises(ConfigError):
        dictionary_tagger(["rest"], [], ["rest"])


def make_seq(history="xy", mentioned=True):
    """The vocabulary of a patient turn answered by "ok", and a function
    that linearizes that dialogue under the response policy, with or
    without the splice tail; the whole patient turn is one entity mention
    when ``mentioned``."""
    spans = (EntitySpan(0, len(history), "symptom"),) if mentioned else ()
    dlg = Dialogue(id="d", turns=(Turn("patient", history, spans),
                                  Turn("doctor", "ok")))
    vocab = build_vocab(dlg for dlg in [dlg])

    def lin(splice, max_len=64):
        return linearize(dlg, vocab, max_len, policy="response", tagger=None,
                         splice=splice)

    return vocab, lin


def test_splice_appends_separator_then_mentions():
    vocab, lin = make_seq()
    seq, out = lin(False), lin(True)
    assert out.ids == seq.ids + [PAD_ID] + encode("xy", vocab)
    n_extra = len(out) - len(seq)
    assert out.lexical_tags[-n_extra:] == [LexTag.OTHER] * n_extra
    assert out.entity_flags[-n_extra:] == [0] * n_extra
    assert out.loss_mask[-n_extra:] == [False] * n_extra
    assert out.position_ids == list(range(len(out)))


def test_splice_without_entities_is_identity():
    vocab, lin = make_seq(mentioned=False)
    assert lin(True) == lin(False)


def test_splice_preserves_surviving_original_annotations():
    vocab, lin = make_seq("ok")
    seq, out = lin(False), lin(True)
    n = len(seq)
    assert out.lexical_tags[:n] == seq.lexical_tags
    assert out.entity_flags[:n] == seq.entity_flags
    assert out.loss_mask[:n] == seq.loss_mask


def test_splice_overflow_truncates_to_max_len():
    vocab, lin = make_seq("xy" * 20)
    seq = lin(False)
    out = lin(True, max_len=len(seq) + 4)
    assert len(out) == len(seq) + 4
    # keep-most-recent truncation: appended ids survive at the tail
    assert out.ids[-1] == vocab.symbol_to_id["y"]


def reference_tagger(nouns, adjectives, verbs):
    """The original startswith scan: at each position the first term in
    (-len, term) order that matches is taken, else the character is OTHER."""
    table = {}
    for terms, tag in ((nouns, LexTag.NOUN), (adjectives, LexTag.ADJ),
                       (verbs, LexTag.VERB)):
        for term in terms:
            table[term] = tag
    ordered = sorted(table, key=lambda t: (-len(t), t))

    def tag_text(text):
        tags = [int(LexTag.OTHER)] * len(text)
        i = 0
        while i < len(text):
            for term in ordered:
                if text.startswith(term, i):
                    tags[i:i + len(term)] = [int(table[term])] * len(term)
                    i += len(term)
                    break
            else:
                i += 1
        return tags

    return tag_text


# a small alphabet with regex metacharacters, so terms overlap and nest
TERM = st.text(alphabet="ab.*(|\\ ", min_size=1, max_size=4)


@settings(deadline=None, max_examples=200)
@given(st.lists(TERM, max_size=6, unique=True), st.data())
def test_dictionary_tagger_matches_reference_scan(terms, data):
    cut = sorted(data.draw(st.lists(st.integers(0, len(terms)), min_size=2,
                                    max_size=2)))
    lexicons = (terms[:cut[0]], terms[cut[0]:cut[1]], terms[cut[1]:])
    text = data.draw(st.text(alphabet="ab.*(|\\ x", max_size=40))
    assert dictionary_tagger(*lexicons)(text) == reference_tagger(*lexicons)(text)


ALPHABET = "gout sayirnh"
LEAK_TAGGER = dictionary_tagger(["gout", "iron"], [], ["use"])
LEAK_HISTORY = "doctor my cough keep coming back"


@st.composite
def cut_replies(draw):
    """A reply with non-overlapping entity spans, a cut 0 < j <= len, and
    a text to continue the first j characters with."""
    text = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=24))
    bounds = sorted(draw(st.sets(st.integers(0, len(text)), max_size=4)))
    spans = tuple(EntitySpan(a, b, "disease")
                  for a, b in zip(bounds[::2], bounds[1::2]))
    cut = draw(st.integers(1, len(text)))
    return text, spans, cut, draw(st.text(alphabet=ALPHABET, max_size=12))


def reply_annotations(text, spans):
    """The lexical tags and entity flags ``linearize`` gives each
    character of a final doctor turn."""
    dlg = Dialogue(id="d", turns=(Turn("patient", LEAK_HISTORY),
                                  Turn("doctor", text, spans)))
    vocab = build_vocab([dlg])
    seq = linearize(dlg, vocab, 128, "response", LEAK_TAGGER, False)
    start = 3 + len(LEAK_HISTORY)  # BOS, PAT, history, DOC
    return (seq.lexical_tags[start:start + len(text)],
            seq.entity_flags[start:start + len(text)])


@pytest.mark.xfail(strict=True,
                   reason="whole-word tags and flags look ahead; "
                          "ROADMAP item 4")
@settings(deadline=None, max_examples=100)
@example(("tests say gout use iron",
          (EntitySpan(10, 14, "disease"), EntitySpan(19, 23, "drug")),
          12, "ing home"))
@given(cut_replies())
def test_annotations_do_not_look_ahead(case):
    """The tags and flags of the first j characters of a reply depend
    only on those characters: continuing them with other text, and
    dropping the spans that reach past j, leaves them as they were."""
    text, spans, cut, tail = case
    tags, flags = reply_annotations(text, spans)
    kept = tuple(span for span in spans if span.end <= cut)
    cut_tags, cut_flags = reply_annotations(text[:cut] + tail, kept)
    assert cut_tags[:cut] == tags[:cut]
    assert cut_flags[:cut] == flags[:cut]
