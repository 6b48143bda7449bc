"""End-to-end command surface tests on a miniature pipeline."""
import contextlib
import csv
import inspect
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gptlab
from gptlab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from gptlab.config import read_kv, write_kv
from gptlab.corpus import (SyntheticSpec, generate_synthetic, load_corpus,
                           save_corpus, split)
from gptlab.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                          PROMPT_PARAM_NAME, generate, load_checkpoint,
                          save_checkpoint)
from gptlab.training import (METRICS_HEADER, evaluate_ppl, init_prompts,
                             load_backbone, prepare_sequences, spawn_seeds,
                             split_corpus)
from gptlab.vocab import build_vocab, load_vocab, save_vocab

from .util import DEFAULT_DISEASES, DEFAULT_DRUGS, DEFAULT_SYMPTOMS

GEN = """
lexicon.symptoms = lex/symptoms.txt
lexicon.diseases = lex/diseases.txt
lexicon.drugs = lex/drugs.txt
corpus.style = {style}
corpus.count = {count}
corpus.turns_min = 2
corpus.turns_max = 4
corpus.mentions = 3
seed = {seed}
"""

TRAIN = """
mode = {mode}
data.corpus = {corpus}
data.vocab = runs/vocab/vocab.txt
data.split = {split}
{extra}
train.batch_size = 8
train.epochs = {epochs}
lr.peak = 2e-3
lr.min = 2e-4
lr.warmup_steps = 5
lr.decay_end_step = 60
seed = 1
"""

MODEL_BLOCK = """
model.layers = 1
model.heads = 2
model.hidden = 24
model.max_len = 160
model.dropout = 0.0
loss_mask = all
"""

PTUNE = TRAIN.format(mode="ptune", corpus="runs/b/corpus.jsonl", split="8:2",
                     epochs=2, extra=("backbone = runs/pretrain/final.ckpt\n"
                                      "ptune.v_p = 2\nloss_mask = response\n"))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small but complete project tree: lexicons, corpora, vocab, pretrain."""
    root = tmp_path_factory.mktemp("cli")
    lex = root / "lex"
    lex.mkdir()
    (lex / "symptoms.txt").write_text(
        "headache\nfever\ncough\nnausea\n", encoding="utf-8")
    (lex / "diseases.txt").write_text(
        "flu\ngout\nmumps\npolio\n", encoding="utf-8")
    (lex / "drugs.txt").write_text(
        "zinc\niron\nsalbex\ntaxol\n", encoding="utf-8")

    (root / "gen_a.kv").write_text(
        GEN.format(style="clinic", count=40, seed=1), encoding="utf-8")
    (root / "gen_b.kv").write_text(
        GEN.format(style="followup", count=30, seed=2), encoding="utf-8")
    (root / "vocab.kv").write_text(
        "data.corpus = runs/a/corpus.jsonl, runs/b/corpus.jsonl\n",
        encoding="utf-8")
    (root / "pretrain.kv").write_text(
        TRAIN.format(mode="pretrain", corpus="runs/a/corpus.jsonl",
                     split="4:1", epochs=4, extra=MODEL_BLOCK),
        encoding="utf-8")
    (root / "ptune.kv").write_text(PTUNE, encoding="utf-8")

    def run(cmd, config, out, *more):
        return main([cmd, "--config", str(root / config),
                     "--out", str(root / "runs" / out), *more])

    assert run("gen-synthetic", "gen_a.kv", "a") == EXIT_OK
    assert run("gen-synthetic", "gen_b.kv", "b") == EXIT_OK
    assert run("build-vocab", "vocab.kv", "vocab") == EXIT_OK
    assert run("pretrain", "pretrain.kv", "pretrain") == EXIT_OK
    return root, run


def test_pipeline_artifacts_are_self_consumable(workspace):
    root, run = workspace
    corpus = load_corpus(root / "runs" / "a" / "corpus.jsonl")
    assert len(corpus) == 40
    vocab = load_vocab(root / "runs" / "vocab" / "vocab.txt")
    assert len(vocab) > 6
    header, *rows = csv.reader(
        (root / "runs" / "pretrain" / "metrics.csv").read_text().splitlines())
    assert header == METRICS_HEADER.split(",")
    assert rows and all(len(r) == len(header) for r in rows)
    assert all(float(r[2]) > 0 for r in rows)  # parseable losses
    assert (root / "runs" / "pretrain" / "final.ckpt").exists()
    echoed = read_kv(root / "runs" / "pretrain" / "config.kv")
    assert echoed["mode"] == "pretrain"


def test_ptune_then_eval_and_generate(workspace):
    root, run = workspace
    assert run("ptune", "ptune.kv", "ptune") == EXIT_OK

    (root / "eval.kv").write_text(
        "eval.checkpoint = runs/ptune/final.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "data.split = 8:2\n"
        "eval.part = test\n"
        "loss_mask = response\n"
        "seed = 1\n", encoding="utf-8")
    assert run("eval", "eval.kv", "eval") == EXIT_OK
    (line,) = (root / "runs" / "eval" / "eval.txt").read_text(
        encoding="utf-8").splitlines()
    key, value = line.split(" = ")
    assert key == "ppl" and float(value) > 1.0

    # eval.part = train scores the dialogues the split trains on
    (root / "eval-train.kv").write_text(
        (root / "eval.kv").read_text(encoding="utf-8").replace(
            "eval.part = test", "eval.part = train"), encoding="utf-8")
    assert run("eval", "eval-train.kv", "eval-train") == EXIT_OK
    vocab = load_vocab(root / "runs" / "vocab" / "vocab.txt")
    config, backbone, prompts = load_backbone(
        root / "runs" / "ptune" / "final.ckpt", len(vocab))
    train_dlgs, _ = split_corpus(
        load_corpus(root / "runs" / "b" / "corpus.jsonl"), (8, 2), 1)
    seqs = prepare_sequences(train_dlgs, vocab, config.max_len, "response",
                             False, None)
    ppl = evaluate_ppl(backbone, config, seqs, prompts=prompts)
    assert (root / "runs" / "eval-train" / "eval.txt").read_text(
        encoding="utf-8") == f"ppl = {ppl!r}\n"

    (root / "generate.kv").write_text(
        "generate.checkpoint = runs/ptune/final.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "generate.index = 0\n"
        "generate.max_new = 16\n"
        "seed = 1\n", encoding="utf-8")
    assert run("generate", "generate.kv", "generate") == EXIT_OK
    text = (root / "runs" / "generate" / "generation.txt").read_text()
    assert "generated = " in text


def test_eval_scores_a_run_as_its_final_eval_ppl(workspace):
    """eval over a ptune run's corpus, split, seed, loss mask and tagger
    writes exactly the eval_ppl of that run's last metrics row."""
    root, run = workspace
    (root / "ptune-tagged.kv").write_text(
        (root / "ptune.kv").read_text()
        + "tagger.nouns = lex/symptoms.txt, lex/diseases.txt\n",
        encoding="utf-8")
    assert run("ptune", "ptune-tagged.kv", "ptune-tagged") == EXIT_OK
    ptune = read_kv(root / "ptune-tagged.kv")
    write_kv(root / "eval-tagged.kv", {
        "eval.checkpoint": "runs/ptune-tagged/final.ckpt",
        "eval.part": "test",
        **{key: ptune[key] for key in (
            "data.corpus", "data.vocab", "data.split", "seed", "loss_mask",
            "tagger.nouns")}})
    assert run("eval", "eval-tagged.kv", "eval-tagged") == EXIT_OK
    last = (root / "runs" / "ptune-tagged" / "metrics.csv").read_text(
        encoding="utf-8").splitlines()[-1]
    eval_ppl = last.split(",")[4]
    assert (root / "runs" / "eval-tagged" / "eval.txt").read_text(
        encoding="utf-8") == f"ppl = {eval_ppl}\n"


def test_generate_without_decode_keys_uses_model_defaults(workspace):
    root, run = workspace
    defaults = {name: p.default for name, p in
                inspect.signature(generate).parameters.items()
                if name in ("strategy", "max_new", "top_k")}
    base = ("generate.checkpoint = runs/pretrain/final.ckpt\n"
            "data.corpus = runs/b/corpus.jsonl\n"
            "data.vocab = runs/vocab/vocab.txt\n"
            "generate.index = 2\n"
            "seed = 1\n")
    explicit = (f"generate.strategy = {defaults['strategy']}\n"
                f"generate.top_k = {defaults['top_k']}\n")
    configs = {
        "plain": base,
        "defaults": base + explicit
        + f"generate.max_new = {defaults['max_new']}\n",
        "longer": base + explicit
        + f"generate.max_new = {2 * defaults['max_new']}\n",
    }
    texts = {}
    for name, text in configs.items():
        (root / f"generate-{name}.kv").write_text(text, encoding="utf-8")
        assert run("generate", f"generate-{name}.kv",
                   f"generate-{name}") == EXIT_OK
        texts[name] = (root / "runs" / f"generate-{name}"
                       / "generation.txt").read_bytes()
    # no EOS within the default budget, so max_new sets the reply length
    assert texts["longer"] != texts["defaults"]
    assert texts["plain"] == texts["defaults"]


def test_rerun_reproduces_byte_identical_artifacts(workspace):
    root, run = workspace
    assert run("ptune", "ptune.kv", "rerun1") == EXIT_OK
    assert run("ptune", "ptune.kv", "rerun2") == EXIT_OK
    m1 = (root / "runs" / "rerun1" / "metrics.csv").read_bytes()
    m2 = (root / "runs" / "rerun2" / "metrics.csv").read_bytes()
    assert m1 == m2
    c1 = (root / "runs" / "rerun1" / "final.ckpt").read_bytes()
    c2 = (root / "runs" / "rerun2" / "final.ckpt").read_bytes()
    assert c1 == c2


def test_seed_override_changes_results(workspace):
    root, run = workspace
    assert run("ptune", "ptune.kv", "seeded", "--seed", "99") == EXIT_OK
    base = (root / "runs" / "rerun1" / "metrics.csv").read_bytes()
    other = (root / "runs" / "seeded" / "metrics.csv").read_bytes()
    assert base != other
    assert read_kv(root / "runs" / "seeded" / "config.kv")["seed"] == "99"


def test_out_dir_protection_and_force(workspace):
    root, run = workspace
    assert run("gen-synthetic", "gen_a.kv", "a") == EXIT_CONFIG
    assert run("gen-synthetic", "gen_a.kv", "a", "--force") == EXIT_OK


def test_failed_run_leaves_a_fresh_out_dir_empty(workspace, capsys):
    """A data error writes nothing, config.kv included, so the run with the
    corrected corpus needs no --force."""
    root, run = workspace
    corpus = root / "runs" / "fixable.jsonl"
    corpus.write_text('{"id": "x"}\n', encoding="utf-8")
    (root / "pretrain-fixable.kv").write_text(
        TRAIN.format(mode="pretrain", corpus="runs/fixable.jsonl",
                     split="4:1", epochs=1, extra=MODEL_BLOCK),
        encoding="utf-8")
    capsys.readouterr()
    assert run("pretrain", "pretrain-fixable.kv", "fixable") == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data:"), err
    assert list((root / "runs" / "fixable").iterdir()) == []
    corpus.write_bytes((root / "runs" / "a" / "corpus.jsonl").read_bytes())
    assert run("pretrain", "pretrain-fixable.kv", "fixable") == EXIT_OK
    assert read_kv(root / "runs" / "fixable" / "config.kv")["seed"] == "1"


def test_diverged_run_keeps_metrics_but_writes_no_config(workspace):
    root, run = workspace
    (root / "pretrain-diverge.kv").write_text(
        TRAIN.format(mode="pretrain", corpus="runs/a/corpus.jsonl",
                     split="4:1", epochs=1, extra=MODEL_BLOCK).replace(
            "lr.peak = 2e-3", "lr.peak = 1e30"), encoding="utf-8")
    assert run("pretrain", "pretrain-diverge.kv", "diverge") == EXIT_NUMERIC
    assert sorted(p.name for p in (root / "runs" / "diverge").iterdir()) == [
        "metrics.csv"]


def test_missing_config_is_config_error(workspace, capsys):
    root, run = workspace
    assert run("pretrain", "nope.kv", "x1") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "\n" not in err.strip()


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(
        tmp_path):
    kv = tmp_path / "hash.kv"
    kv.write_text("# a comment line\n"
                  "   # an indented comment line\n"
                  "data.corpus = runs#2/c.jsonl\n"
                  "data.vocab = v#1.txt # trailing comment\n"
                  "seed = 4\t# tab, then a comment\n", encoding="utf-8")
    assert read_kv(kv) == {"data.corpus": "runs#2/c.jsonl",
                           "data.vocab": "v#1.txt", "seed": "4"}


def test_unknown_key_is_config_error(workspace, tmp_path):
    root, run = workspace
    bad = root / "bad.kv"
    bad.write_text("mode = pretrain\nmodle.hidden = 8\n", encoding="utf-8")
    assert run("pretrain", "bad.kv", "x2") == EXIT_CONFIG


def test_vocab_mismatch_is_data_error(workspace):
    root, run = workspace
    # a vocabulary of a different size must be rejected against the checkpoint
    tiny = root / "runs" / "tiny.jsonl"
    tiny.write_text(
        '{"id": "t", "turns": [{"speaker": "patient", "text": "ab"}, '
        '{"speaker": "doctor", "text": "ba"}]}\n', encoding="utf-8")
    (root / "vocab_tiny.kv").write_text(
        "data.corpus = runs/tiny.jsonl\n", encoding="utf-8")
    assert run("build-vocab", "vocab_tiny.kv", "vocab-tiny") == EXIT_OK
    (root / "eval_bad.kv").write_text(
        "eval.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab-tiny/vocab.txt\n"
        "eval.part = all\n"
        "seed = 1\n", encoding="utf-8")
    assert run("eval", "eval_bad.kv", "x3") == EXIT_DATA


def test_corrupt_corpus_is_data_error(workspace):
    root, run = workspace
    bad_corpus = root / "runs" / "corrupt.jsonl"
    bad_corpus.write_text('{"id": "x"}\n', encoding="utf-8")
    (root / "vocab_bad.kv").write_text(
        "data.corpus = runs/corrupt.jsonl\n", encoding="utf-8")
    assert run("build-vocab", "vocab_bad.kv", "x4") == EXIT_DATA


def test_ablate_and_sweep_tables(workspace):
    root, run = workspace
    (root / "ablate.kv").write_text(
        (root / "ptune.kv").read_text(), encoding="utf-8")
    assert run("ablate", "ablate.kv", "ablate") == EXIT_OK
    lines = (root / "runs" / "ablate" / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,ppl"
    variants = ["none", "lexical", "entity", "both", "splice"]
    assert [l.split(",")[0] for l in lines[1:]] == variants
    for line in lines[1:]:
        float(line.split(",")[1])  # parseable ppl

    (root / "sweep.kv").write_text(
        (root / "ptune.kv").read_text() + "sweep.counts = 1, 3\n",
        encoding="utf-8")
    assert run("sweep-prompts", "sweep.kv", "sweep") == EXIT_OK
    lines = (root / "runs" / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "v_p,ppl"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "3"]

    # one complete run per row, each in its own subdirectory
    for sub in [f"ablate/{v}" for v in variants] + ["sweep/vp1", "sweep/vp3"]:
        for name in ("metrics.csv", "final.ckpt"):
            assert (root / "runs" / sub / name).is_file(), (sub, name)

def test_split_without_loss_tokens_is_data_error(workspace, capsys):
    root, run = workspace
    # splicing a 180-character history mention after the dialogue pushes
    # every loss-bearing token out of the 160-token window
    mention = "fever " * 30
    dialogue = {"id": "no-loss", "turns": [
        {"speaker": "patient", "text": mention, "entities": [
            {"start": 0, "end": len(mention), "label": "symptom"}]},
        {"speaker": "doctor", "text": "flu"}]}
    (root / "runs" / "no-loss.jsonl").write_text(
        json.dumps(dialogue) + "\n", encoding="utf-8")
    (root / "eval-no-loss.kv").write_text(
        "eval.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/no-loss.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "eval.part = all\n"
        "loss_mask = response\n"
        "splice = true\n"
        "seed = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert run("eval", "eval-no-loss.kv", "x-no-loss") == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data:"), err
    assert "loss" in err[0]


def _container_parts(raw: bytes):
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _container(header, body: bytes) -> bytes:
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    return (CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(head))
            + head + body)


def _edited(raw: bytes, part: str, edit) -> bytes:
    header, body = _container_parts(raw)
    edit(header[part])
    return _container(header, body)


def _with_wide_prompts(raw: bytes) -> bytes:
    header, body = _container_parts(raw)
    hidden = header["config"]["hidden"]
    header["tensors"].append({"name": "prompt.emb", "shape": [2, hidden + 1],
                              "dtype": "<f4", "offset": len(body),
                              "nbytes": 8 * (hidden + 1)})
    return _container(header, body + bytes(8 * (hidden + 1)))


def _with_prompt_rows(raw: bytes, rows: int) -> bytes:
    """A prompt matrix of ``rows`` zero rows appended as ``save_checkpoint``
    lays it out: last, keys sorted, back to back."""
    header, body = _container_parts(raw)
    hidden = header["config"]["hidden"]
    nbytes = 4 * rows * hidden
    header["tensors"].append({
        "dtype": "<f4", "name": "prompt.emb", "nbytes": nbytes,
        "offset": len(body), "shape": [rows, hidden]})
    return _container(header, body + bytes(nbytes))


def _with_negative_lex_table(raw: bytes) -> bytes:
    """lex_table_size = -1, with the table and body laid out to agree."""
    header, body = _container_parts(raw)
    hidden = header["config"]["hidden"]
    header["config"]["lex_table_size"] = -1
    table = header["tensors"]
    at = next(i for i, e in enumerate(table) if e["name"] == "lex_emb")
    shrink = table[at]["nbytes"] + 4 * hidden
    table[at].update(shape=[-1, hidden], nbytes=-4 * hidden)
    for entry in table[at + 1:]:
        entry["offset"] -= shrink
    return _container(header, body[:len(body) - shrink])


def _swap_names(table, first: str, second: str) -> None:
    a, b = (next(e for e in table if e["name"] == n) for n in (first, second))
    a["name"], b["name"] = b["name"], a["name"]


MALFORMED_CHECKPOINTS = {
    "short-magic": lambda raw: raw[:2],
    "short-version": lambda raw: raw[:6],
    "short-length": lambda raw: raw[:12],
    "bad-json": lambda raw: _container(b'{"version": 2, "con', b""),
    "bad-utf8": lambda raw: _container(b"\xff\xfe{}", b""),
    "nbytes-mismatch": lambda raw: _edited(
        raw, "tensors", lambda t: t[0].update(nbytes=t[0]["nbytes"] - 4)),
    "past-end": lambda raw: raw[:-4],
    "offset-gap": lambda raw: _edited(
        raw, "tensors", lambda t: t[1].update(offset=t[1]["offset"] + 4)),
    "unknown-name": lambda raw: _edited(
        raw, "tensors", lambda t: t[-1].update(name="layer0.head0.wq")),
    "prompt-width": _with_wide_prompts,
    "heads-negative": lambda raw: _edited(
        raw, "config", lambda c: c.update(n_heads=-2)),
    "trailing-byte": lambda raw: raw + b"\x00",
    "entries-reordered": lambda raw: _edited(
        raw, "tensors",
        lambda t: _swap_names(t, "layer0.ln1.gamma", "layer0.ln1.beta")),
    "prompt-rows-zero": lambda raw: _with_prompt_rows(raw, 0),
    "lex-table-negative": _with_negative_lex_table,
    "use-lexical-not-a-bool": lambda raw: _edited(
        raw, "config", lambda c: c.update(use_lexical="no")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_eval_rejects_malformed_checkpoint(workspace, capsys, case):
    root, run = workspace
    raw = (root / "runs" / "pretrain" / "final.ckpt").read_bytes()
    bad = root / "runs" / f"bad-{case}.ckpt"
    bad.write_bytes(MALFORMED_CHECKPOINTS[case](raw))
    (root / f"eval-{case}.kv").write_text(
        f"eval.checkpoint = runs/bad-{case}.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "eval.part = all\n"
        "seed = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert run("eval", f"eval-{case}.kv", f"x-{case}") == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data:"), err


@pytest.fixture(scope="module")
def prompted_checkpoint(workspace):
    """The pretrained backbone plus a prompt matrix, saved after it: the
    layout of a p-tuned checkpoint."""
    root, _ = workspace
    config, tensors = load_checkpoint(root / "runs" / "pretrain" / "final.ckpt")
    tensors[PROMPT_PARAM_NAME] = init_prompts(2, config.hidden, seed=4).matrix
    path = root / "runs" / "prompted.ckpt"
    save_checkpoint(path, config, tensors)
    return path.read_bytes()


def _mutated(raw: bytes, mutation) -> bytes:
    kind, at, arg = mutation
    if kind == "offset":  # move one tensor's offset in the header
        def shift(table):
            table[at % len(table)]["offset"] += arg
        return _edited(raw, "tensors", shift)
    at %= len(raw)
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ (1 << arg)]) + raw[at + 1:]
    return raw[:at] + arg[:len(raw) - at] + raw[at + len(arg):]


# positions are taken modulo the file size; small ones land in the header
POSITIONS = st.integers(0, 4096) | st.integers(0, 1 << 20)
BYTE_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), POSITIONS, st.none()),
    st.tuples(st.just("flip"), POSITIONS, st.integers(0, 7)),
    st.tuples(st.just("overwrite"), POSITIONS,
              st.binary(min_size=1, max_size=8)))
MUTATIONS = BYTE_MUTATIONS | st.tuples(
    st.just("offset"), st.integers(0, 64), st.integers(-8, 8))


def assert_exit_contract(run, categories, *args):
    """``run(*args)`` exits 0 with nothing on stderr, or with a code of
    ``categories`` and exactly one ``error: <category>:`` line on stderr;
    never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")  # a warning would be a stderr line
        code = run(*args)
    lines = err.getvalue().splitlines() + [str(w.message) for w in warned]
    if code == EXIT_OK:
        assert lines == []
    else:
        category = categories[code]
        assert len(lines) == 1 and lines[0].startswith(
            f"error: {category}:"), lines


@settings(max_examples=40, deadline=None)
@example(mutation=("offset", -2, 1))  # ln_f.beta reads one byte late
@example(mutation=("overwrite", -4, b"\x00\x00\x80\x7f"))  # an inf weight
@given(mutation=MUTATIONS)
def test_eval_of_mutated_checkpoint_keeps_the_exit_contract(
        workspace, prompted_checkpoint, mutation):
    """Exit 0, or exit 3/4 with one ``error:`` line; never a traceback."""
    root, run = workspace
    (root / "runs" / "mutant.ckpt").write_bytes(
        _mutated(prompted_checkpoint, mutation))
    (root / "eval-mutant.kv").write_text(
        "eval.checkpoint = runs/mutant.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "eval.part = all\n"
        "seed = 1\n", encoding="utf-8")
    assert_exit_contract(run, {EXIT_DATA: "data", EXIT_NUMERIC: "numeric"},
                         "eval", "eval-mutant.kv", "x-mutant", "--force")


def _reply_dialogue(n_chars: int) -> bytes:
    reply = ("take zinc " * n_chars)[:n_chars]
    return json.dumps({"id": "r", "turns": [
        {"speaker": "patient", "text": "fever"},
        {"speaker": "doctor", "text": reply}]}).encode()


def _span_escape(**fields):
    """A corpus of one dialogue whose one span, [0, 1) labelled symptom,
    has ``fields`` replaced; read by build-vocab."""
    span = {"start": 0, "end": 1, "label": "symptom", **fields}
    return ("runs/esc.jsonl", json.dumps(
        {"id": "s", "turns": [
            {"speaker": "patient", "text": "ab", "entities": [span]},
            {"speaker": "doctor", "text": "ba"}]}).encode(), "build-vocab")


INPUT_ESCAPES = {
    # case: (file it writes, its bytes, the command that reads it)
    "span-start-not-a-number": _span_escape(start="x"),
    "span-start-a-float": _span_escape(start=0.9),
    "span-end-a-bool": _span_escape(end=True),
    "span-start-a-numeric-string": _span_escape(start="1", end=2),
    "span-label-not-a-string": _span_escape(label=5),
    "id-a-number": ("runs/esc.jsonl", json.dumps(
        {"id": 5, "turns": [{"speaker": "patient", "text": "ab"},
                            {"speaker": "doctor", "text": "ba"}]}).encode(),
        "build-vocab"),
    "id-a-bool": ("runs/esc.jsonl", json.dumps(
        {"id": True, "turns": [{"speaker": "patient", "text": "ab"},
                               {"speaker": "doctor", "text": "ba"}]}).encode(),
        "build-vocab"),
    "text-not-a-string": ("runs/esc.jsonl", json.dumps(
        {"id": "t", "turns": [{"speaker": "patient", "text": 5},
                              {"speaker": "doctor", "text": "ba"}]}).encode(),
        "build-vocab"),
    "corpus-not-utf8": ("runs/esc.jsonl", b'{"id": "\xff"}\n', "build-vocab"),
    "corpus-lone-surrogate": ("runs/esc.jsonl", json.dumps(
        {"id": "u", "turns": [{"speaker": "patient", "text": "a\ud800b"},
                              {"speaker": "doctor", "text": "ba"}]}).encode(),
        "build-vocab"),
    "config-loss-mask-typo": ("esc-mask.kv", (
        "eval.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "eval.part = all\n"
        "loss_mask = respnse\n").encode(), "eval"),
    "config-sweep-no-counts": (
        "esc-sweep.kv", (PTUNE + "sweep.counts = ,\n").encode(),
        "sweep-prompts"),
    "config-sweep-zero-count": (
        "esc-sweep-zero.kv", (PTUNE + "sweep.counts = 1, 0\n").encode(),
        "sweep-prompts"),
    "config-sweep-repeated-count": (
        "esc-sweep-repeat.kv", (PTUNE + "sweep.counts = 1, 1\n").encode(),
        "sweep-prompts"),
    "config-corpus-count": ("esc-corpus-count.kv", GEN.format(
        style="clinic", count=0, seed=1).encode(), "gen-synthetic"),
    "config-corpus-out-in-subdir": ("esc-corpus-out.kv", (
        GEN.format(style="clinic", count=4, seed=1)
        + "corpus.out = sub/c.jsonl\n").encode(), "gen-synthetic"),
    "config-vocab-out-in-subdir": ("esc-vocab-out.kv", (
        b"data.corpus = runs/a/corpus.jsonl\nvocab.out = sub/v.txt\n"),
        "build-vocab"),
    "config-vocab-out-is-dot": ("esc-vocab-dot.kv", (
        b"data.corpus = runs/a/corpus.jsonl\nvocab.out = .\n"),
        "build-vocab"),
    "config-vocab-out-is-parent": ("esc-vocab-parent.kv", (
        b"data.corpus = runs/a/corpus.jsonl\nvocab.out = ..\n"),
        "build-vocab"),
    "config-vocab-out-has-nul": ("esc-vocab-nul.kv", (
        b"data.corpus = runs/a/corpus.jsonl\nvocab.out = v\x00.txt\n"),
        "build-vocab"),
    # the file sits where the command's output directory would go
    "config-out-is-a-file": ("runs/x-esc-config-out-is-a-file", b"file\n",
                             "build-vocab"),
    "config-not-utf8": ("esc.kv", b"seed = \xff\n", "build-vocab"),
    "vocab-not-utf8": ("runs/esc-vocab.txt", b"<PAD>\n\xff\n", "eval"),
    "lexicon-not-utf8": ("lex/esc.txt", b"fever\n\xfe\n", "gen-synthetic"),
    "config-top-k-zero": ("esc-top-k.kv", (
        "generate.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "generate.strategy = top_k\n"
        "generate.top_k = 0\n").encode(), "generate"),
    "config-heads-zero": ("esc-heads.kv", TRAIN.format(
        mode="pretrain", corpus="runs/a/corpus.jsonl", split="4:1", epochs=1,
        extra=MODEL_BLOCK.replace("model.heads = 2", "model.heads = 0")
    ).encode(), "pretrain"),
    "config-layers-zero": ("esc-layers.kv", TRAIN.format(
        mode="pretrain", corpus="runs/a/corpus.jsonl", split="4:1", epochs=1,
        extra=MODEL_BLOCK.replace("model.layers = 1", "model.layers = 0")
    ).encode(), "pretrain"),
    # a final reply of max_len - 1 (160 - 1) or more characters leaves no
    # history token before it
    "reply-fills-max-len": ("runs/esc-reply.jsonl", _reply_dialogue(159),
                            "generate"),
    "reply-beyond-max-len": ("runs/esc-reply.jsonl", _reply_dialogue(170),
                             "generate"),
}

ESCAPE_CONFIGS = {
    "build-vocab": "data.corpus = runs/esc.jsonl\n",
    "eval": ("eval.checkpoint = runs/pretrain/final.ckpt\n"
             "data.corpus = runs/b/corpus.jsonl\n"
             "data.vocab = runs/esc-vocab.txt\n"
             "eval.part = all\n"),
    "gen-synthetic": GEN.format(style="clinic", count=4, seed=1).replace(
        "lex/symptoms.txt", "lex/esc.txt"),
    "generate": ("generate.checkpoint = runs/pretrain/final.ckpt\n"
                 "data.corpus = runs/esc-reply.jsonl\n"
                 "data.vocab = runs/vocab/vocab.txt\n"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ESCAPES))
def test_malformed_input_is_one_error_line(workspace, capsys, case):
    root, run = workspace
    name, raw, command = INPUT_ESCAPES[case]
    (root / name).write_bytes(raw)
    config = name if name.endswith(".kv") else f"esc-{command}.kv"
    if config != name:
        (root / config).write_text(ESCAPE_CONFIGS[command], encoding="utf-8")
    capsys.readouterr()
    want, category = ((EXIT_CONFIG, "config") if case.startswith("config")
                      else (EXIT_DATA, "data"))
    assert run(command, config, f"x-esc-{case}") == want
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {category}:"), err
    out = root / "runs" / f"x-esc-{case}"
    assert not out.is_dir() or not any(out.iterdir())


@pytest.mark.parametrize("command,config", [
    ("gen-synthetic", "gen_a.kv"), ("ptune", "ptune.kv")])
def test_negative_seed_is_config_error(workspace, capsys, command, config):
    root, run = workspace
    capsys.readouterr()
    assert run(command, config, f"x-seed-{command}", "--seed", "-1") == \
        EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:"), err


@pytest.mark.parametrize("seed", ["7", "-1"])
def test_build_vocab_takes_no_seed(workspace, capsys, seed):
    """build-vocab draws nothing at random, so --seed is a usage error
    rather than an option it ignores."""
    root, run = workspace
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("build-vocab", "vocab.kv", f"x-vocab-seed{seed}", "--seed", seed)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (root / "runs" / f"x-vocab-seed{seed}").exists()


def _first_dialogues(root, n: int) -> bytes:
    lines = (root / "runs" / "b" / "corpus.jsonl").read_bytes().splitlines()
    return b"\n".join(lines[:n]) + b"\n"


INPUT_CATEGORIES = {EXIT_CONFIG: "config", EXIT_DATA: "data"}


@settings(max_examples=30, deadline=None)
@given(mutation=BYTE_MUTATIONS)
def test_mutated_corpus_keeps_the_exit_contract(workspace, mutation):
    """A truncated or byte-mutated corpus, read by build-vocab and eval."""
    root, run = workspace
    (root / "runs" / "mutant.jsonl").write_bytes(
        _mutated(_first_dialogues(root, 4), mutation))
    (root / "vocab-mutant.kv").write_text(
        "data.corpus = runs/mutant.jsonl\n", encoding="utf-8")
    (root / "eval-mutant-corpus.kv").write_text(
        "eval.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/mutant.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "eval.part = all\n"
        "loss_mask = response\n"
        "tagger.nouns = lex/symptoms.txt, lex/diseases.txt\n",
        encoding="utf-8")
    for command, config in (("build-vocab", "vocab-mutant.kv"),
                            ("eval", "eval-mutant-corpus.kv")):
        assert_exit_contract(run, INPUT_CATEGORIES, command, config,
                             f"x-mutant-corpus-{command}", "--force")


@settings(max_examples=30, deadline=None)
@given(mutation=BYTE_MUTATIONS)
def test_mutated_vocab_keeps_the_exit_contract(workspace, mutation):
    root, run = workspace
    (root / "runs" / "mutant-vocab.txt").write_bytes(_mutated(
        (root / "runs" / "vocab" / "vocab.txt").read_bytes(), mutation))
    (root / "runs" / "four.jsonl").write_bytes(_first_dialogues(root, 4))
    (root / "eval-mutant-vocab.kv").write_text(
        "eval.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/four.jsonl\n"
        "data.vocab = runs/mutant-vocab.txt\n"
        "eval.part = all\n", encoding="utf-8")
    assert_exit_contract(run, INPUT_CATEGORIES, "eval",
                         "eval-mutant-vocab.kv", "x-mutant-vocab", "--force")


EVAL_CONFIG = (
    "# held-out perplexity of the pretrained model\n"
    "eval.checkpoint = runs/pretrain/final.ckpt\n"
    "data.corpus = runs/b/corpus.jsonl\n"
    "data.vocab = runs/vocab/vocab.txt\n"
    "data.split = 8:2\n"
    "eval.part = test\n"
    "loss_mask = response\n"
    "tagger.nouns = lex/symptoms.txt, lex/diseases.txt\n"
    "seed = 1\n").encode()


@settings(max_examples=30, deadline=None)
@example(mutation=("overwrite", 70, b"\x00"))  # a NUL byte in a path
@example(mutation=("overwrite", -3, b"-"))  # seed =-1
@given(mutation=BYTE_MUTATIONS)
def test_mutated_config_keeps_the_exit_contract(workspace, mutation):
    root, run = workspace
    (root / "eval-mutant-config.kv").write_bytes(
        _mutated(EVAL_CONFIG, mutation))
    assert_exit_contract(run, INPUT_CATEGORIES, "eval",
                         "eval-mutant-config.kv", "x-mutant-config", "--force")


def run_cli_at_blas_threads(threads: str, *args: str) -> None:
    """``gptlab *args`` in a fresh interpreter with BLAS on ``threads``."""
    src = Path(gptlab.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run([sys.executable, "-m", "gptlab.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_artifacts_identical_at_one_and_two_blas_threads(tmp_path):
    corpus = generate_synthetic(
        SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                      n_dialogues=12, style="clinic"), seed=3)
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    vocab = build_vocab(corpus)
    save_vocab(vocab, tmp_path / "vocab.txt")
    (tmp_path / "pretrain.kv").write_text(
        "mode = pretrain\n"
        "data.corpus = corpus.jsonl\n"
        "data.vocab = vocab.txt\n"
        "data.split = 4:1\n"
        "model.layers = 1\nmodel.heads = 2\nmodel.hidden = 64\n"
        "model.max_len = 160\nmodel.dropout = 0.1\n"
        "train.batch_size = 64\ntrain.epochs = 2\n"
        "lr.peak = 2e-3\nlr.min = 2e-4\n"
        "lr.warmup_steps = 5\nlr.decay_end_step = 60\n"
        "loss_mask = all\nseed = 1\n", encoding="utf-8")
    # p-tuning runs the last block on a subset of query rows
    (tmp_path / "ptune.kv").write_text(
        "mode = ptune\n"
        "data.corpus = corpus.jsonl\n"
        "data.vocab = vocab.txt\n"
        "data.split = 4:1\n"
        "backbone = threads1/final.ckpt\n"
        "ptune.v_p = 4\nloss_mask = response\n"
        "train.batch_size = 64\ntrain.epochs = 2\n"
        "lr.peak = 2e-3\nlr.min = 2e-4\n"
        "lr.warmup_steps = 5\nlr.decay_end_step = 60\n"
        "seed = 1\n", encoding="utf-8")
    # one step per epoch over every train sequence: the weight gradients
    # reduce over a packed row count that is long and not a multiple of 128
    train_dlgs, _ = split(corpus, (4, 1), spawn_seeds(1)[1])
    seqs = prepare_sequences(train_dlgs, vocab, 160, "all", False, None)
    rows = sum(len(s) for s in seqs)
    assert rows >= 500 and rows % 128, rows

    for threads in ("1", "2"):
        run_cli_at_blas_threads(threads, "pretrain",
                                "--config", str(tmp_path / "pretrain.kv"),
                                "--out", str(tmp_path / f"threads{threads}"))
    for threads in ("1", "2"):
        run_cli_at_blas_threads(threads, "ptune",
                                "--config", str(tmp_path / "ptune.kv"),
                                "--out", str(tmp_path / f"ptune{threads}"))
    for run in ("threads", "ptune"):
        for name in ("metrics.csv", "final.ckpt"):
            assert ((tmp_path / f"{run}1" / name).read_bytes()
                    == (tmp_path / f"{run}2" / name).read_bytes()), (run, name)


def test_generation_identical_at_one_and_two_blas_threads(workspace):
    root, _ = workspace
    (root / "generate_threads.kv").write_text(
        "generate.checkpoint = runs/pretrain/final.ckpt\n"
        "data.corpus = runs/b/corpus.jsonl\n"
        "data.vocab = runs/vocab/vocab.txt\n"
        "generate.index = 1\n"
        "generate.strategy = top_k\n"
        "generate.max_new = 64\n"
        "seed = 3\n", encoding="utf-8")
    for threads in ("1", "2"):
        run_cli_at_blas_threads(
            threads, "generate", "--config", str(root / "generate_threads.kv"),
            "--out", str(root / "runs" / f"generate-threads{threads}"))
    texts = [(root / "runs" / f"generate-threads{t}" / "generation.txt")
             .read_bytes() for t in ("1", "2")]
    assert texts[0] == texts[1]
