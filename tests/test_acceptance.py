"""Acceptance suite: one test per criterion, at the stated tolerances.

The expensive pipeline (pretrain once, then tune) is shared through
module-scoped fixtures; every criterion stays independent in what it
asserts. A per-criterion PASS/FAIL summary is printed at the end of the
run (see conftest.py).
"""
import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gptlab import autodiff as ad
from gptlab.cli import ABLATION_VARIANTS
from gptlab.cli import main as cli_main
from gptlab.corpus import (SyntheticSpec, generate_synthetic, load_corpus,
                           save_corpus, split)
from gptlab.model import (ModelConfig, batch_loss, forward, init_parameters,
                          load_checkpoint)
from gptlab.training import (ScheduleConfig, build_tagger_from_files,
                             evaluate_ppl, lr_at, make_run_config,
                             prepare_sequences, read_lexicon,
                             spawn_seeds, split_loaded_tensors, train,
                             train_variants)
from gptlab.vocab import build_vocab, save_vocab

from .test_model import make_seq
from .util import fd_grad, max_rel_err, parameter_count

REPO = Path(__file__).resolve().parents[1]
LEXICONS = REPO / "configs" / "lexicons"

TAGGER_PATHS = dict(
    noun_lexicons=(LEXICONS / "nouns.txt", LEXICONS / "symptoms.txt",
                   LEXICONS / "diseases.txt", LEXICONS / "drugs.txt"),
    adj_lexicons=(LEXICONS / "adjectives.txt",),
    verb_lexicons=(LEXICONS / "verbs.txt",),
)


def sha(t):
    return hashlib.sha256(t.data.tobytes()).hexdigest()


def tiny64_config():
    return ModelConfig(n_layers=2, n_heads=2, hidden=16, vocab_size=32,
                       max_len=8, dropout=0.0)


def random_seq(rng, vocab_size, length):
    return make_seq(ids=list(rng.integers(0, vocab_size, size=length)),
                    tags=list(rng.integers(0, 4, size=length)),
                    flags=list(rng.integers(0, 2, size=length)))


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield


# ---------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared desk-scale pipeline, mirroring the shipped config files:
    pretrain on the clinic corpus, tune on the style-shifted followup one."""
    root = tmp_path_factory.mktemp("pipeline")

    def lex(name):
        return read_lexicon(LEXICONS / f"{name}.txt")

    clinic = generate_synthetic(
        SyntheticSpec(lex("symptoms"), lex("diseases"), lex("drugs"),
                      n_dialogues=400, style="clinic", n_mentions=4), seed=11)
    followup = generate_synthetic(
        SyntheticSpec(lex("symptoms"), lex("diseases"), lex("drugs"),
                      n_dialogues=260, style="followup", n_mentions=4), seed=22)
    save_corpus(clinic, root / "clinic.jsonl")
    save_corpus(followup, root / "followup.jsonl")
    vocab = build_vocab(clinic + followup)
    save_vocab(vocab, root / "vocab.txt")

    model = ModelConfig(n_layers=2, n_heads=2, hidden=64, vocab_size=0,
                        max_len=192, dropout=0.1)
    pre = make_run_config(
        "pretrain", corpus_path=root / "clinic.jsonl",
        vocab_path=root / "vocab.txt", out_dir=root / "pretrain",
        model=model, seed=0, split_ratio=(100, 1), batch_size=16, epochs=12,
        sched=ScheduleConfig(peak_lr=3e-3, min_lr=3e-4, warmup_steps=30,
                             decay_end_step=300),
        **TAGGER_PATHS)
    pre_result = train(pre)

    tune_common = dict(
        corpus_path=root / "followup.jsonl", vocab_path=root / "vocab.txt",
        backbone_path=pre_result.checkpoint_path, seed=0, split_ratio=(8, 2),
        batch_size=16, epochs=15, **TAGGER_PATHS)
    ft = make_run_config(
        "finetune", out_dir=root / "finetune",
        sched=ScheduleConfig(peak_lr=1e-3, min_lr=1e-4, warmup_steps=20,
                             decay_end_step=200),
        **tune_common)
    pt = make_run_config(
        "ptune", out_dir=root / "ptune", v_p=8,
        sched=ScheduleConfig(peak_lr=3e-3, min_lr=3e-4, warmup_steps=20,
                             decay_end_step=200),
        **tune_common)

    # frozen-baseline PPL on the tuning test split, response policy
    _, test_dlgs = split(load_corpus(pt.corpus_path), pt.split_ratio,
                         spawn_seeds(pt.seed)[1])
    tagger = build_tagger_from_files(pt.noun_lexicons, pt.adj_lexicons,
                                     pt.verb_lexicons)
    test_seqs = prepare_sequences(test_dlgs, vocab,
                                  pre_result.config.max_len, "response",
                                  False, tagger)
    baseline_ppl = evaluate_ppl(pre_result.params, pre_result.config,
                                test_seqs)

    ft_result = train(ft)
    pt_result = train(pt)
    return {
        "root": root, "vocab": vocab,
        "pre": pre_result, "ft": ft_result, "pt": pt_result,
        "pt_run": pt, "baseline_ppl": baseline_ppl,
    }


# ---------------------------------------------------------------- criteria

def test_criterion_01_gradient_fidelity():
    start = time.perf_counter()
    cfg = tiny64_config()
    params = init_parameters(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(123)
    seq = random_seq(rng, cfg.vocab_size, 8)

    def loss_fn():
        return batch_loss([seq], params, cfg)

    grads = ad.backward(loss_fn())
    worst = 0.0
    for name, tensor in params.items():
        assert tensor in grads, f"no gradient for {name}"
        err = max_rel_err(grads[tensor], fd_grad(loss_fn, tensor, h=1e-5),
                          floor=1e-6)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst < 1e-3, f"max rel err {worst:.2e}"
    assert elapsed < 120.0, f"gradient check took {elapsed:.0f}s"


def test_criterion_02_causality_bit_level():
    cfg = tiny64_config()
    params = init_parameters(cfg, seed=1, dtype=np.float64)
    rng = np.random.default_rng(7)
    for trial in range(100):
        length = int(rng.integers(4, cfg.max_len + 1))
        seq = random_seq(rng, cfg.vocab_size, length)
        t = int(rng.integers(1, length))
        ad.reset_tape()
        base = forward(seq, params, cfg).data.copy()
        perturbed = make_seq(list(seq.ids), tags=list(seq.lexical_tags),
                             flags=list(seq.entity_flags))
        perturbed.ids[t] = int((perturbed.ids[t] + 1 + rng.integers(30))
                               % cfg.vocab_size)
        if trial % 3 == 0:
            perturbed.entity_flags[t] = 1 - perturbed.entity_flags[t]
        ad.reset_tape()
        out = forward(perturbed, params, cfg).data
        assert np.array_equal(out[:t], base[:t]), f"trial {trial}, t={t}"


def test_criterion_03_analytic_oracles():
    # cross-entropy of uniform logits
    loss = ad.cross_entropy(ad.Tensor(np.zeros((6, 32))), [3] * 6,
                            [1 / 6] * 6)
    assert abs(float(loss.data) - math.log(32)) < 1e-9

    # uniform model evaluates to PPL = V
    cfg = tiny64_config()
    params = init_parameters(cfg, seed=2)
    params["tok_emb"].data[:] = 0.0
    seqs = [make_seq([1, 2, 3, 4, 5]), make_seq([6, 7, 8])]
    ppl = evaluate_ppl(params, cfg, seqs)
    assert abs(ppl - 32.0) / 32.0 < 1e-6

    # attention probability rows sum to one: with one head and the one-hot
    # of each row's position as its value, attention returns the rows
    rng = np.random.default_rng(3)
    lengths = [17, 17, 6]
    pos = np.concatenate([np.arange(n) for n in lengths])
    qkv = np.concatenate([rng.normal(size=(40, 34)) * 10,
                          np.eye(17)[pos]], axis=1)
    s = ad.attention(ad.Tensor(qkv), 1, lengths)
    assert np.max(np.abs(s.data.sum(axis=1) - 1.0)) < 1e-12


def test_criterion_04_schedule_exactness():
    sched = ScheduleConfig(peak_lr=1e-4, min_lr=5e-6, warmup_steps=2000,
                           decay_end_step=100_000)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b))

    assert rel(lr_at(2000, sched), 1e-4) < 1e-12
    assert rel(lr_at(100_000, sched), 5e-6) < 1e-12
    assert rel(lr_at(10 ** 6, sched), 5e-6) < 1e-12
    assert rel(lr_at(51_000, sched), 5.25e-5) < 1e-12


def test_criterion_05_single_batch_memorization(tmp_path):
    start = time.perf_counter()

    def lex(name):
        return read_lexicon(LEXICONS / f"{name}.txt")

    corpus = generate_synthetic(
        SyntheticSpec(lex("symptoms"), lex("diseases"), lex("drugs"),
                      n_dialogues=5, style="clinic"), seed=4)
    save_corpus(corpus, tmp_path / "c.jsonl")
    save_vocab(build_vocab(corpus), tmp_path / "v.txt")
    model = ModelConfig(n_layers=2, n_heads=2, hidden=32, vocab_size=0,
                        max_len=192, dropout=0.0)

    def run(out):
        cfgrun = make_run_config(
            "pretrain", corpus_path=tmp_path / "c.jsonl",
            vocab_path=tmp_path / "v.txt", out_dir=tmp_path / out,
            model=model, seed=0, split_ratio=(4, 1), batch_size=4,
            epochs=500,  # 4 train dialogues = 1 fixed batch per epoch
            sched=ScheduleConfig(peak_lr=3e-3, min_lr=3e-4, warmup_steps=10,
                                 decay_end_step=500),
            weight_decay=0.0)
        return train(cfgrun)

    result = run("m1")
    assert len(result.metrics.rows) == 500
    assert result.metrics.rows[-1].loss < 0.1, \
        f"final loss {result.metrics.rows[-1].loss:.3f}"

    again = run("m2")
    assert [r.loss for r in again.metrics.rows] == \
           [r.loss for r in result.metrics.rows]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"memorization run took {elapsed:.0f}s"


def test_criterion_06_tuning_direction_and_parameter_budget(pipeline):
    baseline = pipeline["baseline_ppl"]
    ft_ppl = pipeline["ft"].final_eval_ppl
    pt_ppl = pipeline["pt"].final_eval_ppl
    assert ft_ppl <= 0.95 * baseline, \
        f"finetune {ft_ppl:.2f} vs baseline {baseline:.2f}"
    assert pt_ppl <= 0.95 * baseline, \
        f"ptune {pt_ppl:.2f} vs baseline {baseline:.2f}"

    prompts = pipeline["pt"].prompts
    v_p, hidden = prompts.matrix.shape
    assert (v_p, hidden) == (8, 64)
    assert prompts.matrix.size == v_p * hidden
    backbone = parameter_count(pipeline["pt"].params)
    assert prompts.matrix.size < 0.01 * backbone


def test_criterion_07_ablation_direction(pipeline):
    start = time.perf_counter()
    base = replace(pipeline["pt_run"], out_dir=pipeline["root"] / "ablate")
    variants = dict(zip((name for name, _ in ABLATION_VARIANTS),
                        train_variants(base, ABLATION_VARIANTS)))
    elapsed = time.perf_counter() - start

    assert len(variants) == 5
    assert variants["both"] <= 0.97 * variants["none"], \
        f"both {variants['both']:.2f} vs none {variants['none']:.2f}"
    assert variants["both"] <= variants["splice"], \
        f"both {variants['both']:.2f} vs splice {variants['splice']:.2f}"
    assert elapsed < 1800.0, f"ablation took {elapsed:.0f}s"


def test_criterion_08_freeze_contract(pipeline):
    # backbone hash equality after a complete p-tuning run
    _, pretrained = load_checkpoint(pipeline["pre"].checkpoint_path)
    backbone, _ = split_loaded_tensors(pretrained)
    before = {n: sha(t) for n, t in backbone.items()}
    after = {n: sha(t) for n, t in pipeline["pt"].params.items()}
    assert after == before

    # fine-tuning must move at least one tensor in every layer
    ft_params = pipeline["ft"].params
    for layer in range(pipeline["ft"].config.n_layers):
        changed = [n for n, t in ft_params.items()
                   if n.startswith(f"layer{layer}.") and sha(t) != before[n]]
        assert changed, f"layer {layer} fully unchanged after finetune"


def test_criterion_09_prompt_count_sweep(pipeline):
    run = replace(pipeline["pt_run"], epochs=4,
                  sched=ScheduleConfig(peak_lr=3e-3, min_lr=3e-4,
                                       warmup_steps=10, decay_end_step=60),
                  out_dir=pipeline["root"] / "sweep")
    counts = [1, 25, 50, 75, 100]
    rows = list(zip(counts, train_variants(
        run, [(f"vp{n}", {"v_p": n}) for n in counts])))
    table = pipeline["root"] / "sweep" / "sweep.csv"
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("v_p,ppl\n")
        for v_p, ppl in rows:
            fh.write(f"{v_p},{ppl!r}\n")
    assert [r[0] for r in rows] == counts
    assert all(math.isfinite(r[1]) for r in rows)
    assert len(table.read_text().splitlines()) == 6


def test_criterion_10_persistence(pipeline, tmp_path):
    # checkpoint round trip reproduces evaluation bit-for-bit
    ft = pipeline["ft"]
    cfg, tensors = load_checkpoint(ft.checkpoint_path)
    backbone, prompts = split_loaded_tensors(tensors)
    run = pipeline["pt_run"]
    _, test_dlgs = split(load_corpus(run.corpus_path), run.split_ratio,
                         spawn_seeds(run.seed)[1])
    tagger = build_tagger_from_files(run.noun_lexicons, run.adj_lexicons,
                                     run.verb_lexicons)
    seqs = prepare_sequences(test_dlgs, pipeline["vocab"], cfg.max_len,
                             "response", False, tagger)
    assert evaluate_ppl(backbone, cfg, seqs, prompts=prompts) \
        == ft.final_eval_ppl

    # rerunning a command with identical config and seed is byte-identical
    root = pipeline["root"]
    cfg_file = tmp_path / "ptune.kv"
    cfg_file.write_text(
        f"mode = ptune\n"
        f"data.corpus = {root / 'followup.jsonl'}\n"
        f"data.vocab = {root / 'vocab.txt'}\n"
        f"data.split = 8:2\n"
        f"backbone = {pipeline['pre'].checkpoint_path}\n"
        f"ptune.v_p = 2\n"
        f"train.batch_size = 16\n"
        f"train.epochs = 1\n"
        f"lr.peak = 3e-3\nlr.min = 3e-4\n"
        f"lr.warmup_steps = 5\nlr.decay_end_step = 60\n"
        f"loss_mask = response\nseed = 0\n", encoding="utf-8")
    for out in ("q1", "q2"):
        code = cli_main(["ptune", "--config", str(cfg_file),
                         "--out", str(tmp_path / out)])
        assert code == 0
    assert ((tmp_path / "q1" / "metrics.csv").read_bytes()
            == (tmp_path / "q2" / "metrics.csv").read_bytes())
    assert ((tmp_path / "q1" / "final.ckpt").read_bytes()
            == (tmp_path / "q2" / "final.ckpt").read_bytes())
