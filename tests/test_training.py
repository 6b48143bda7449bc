import csv
import hashlib
import importlib.util
import inspect
import math
import threading
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptlab import autodiff as ad
from gptlab import cli, training
from gptlab.autodiff import Tensor
from gptlab.config import KV, load_run_config, write_kv
from gptlab.corpus import (Dialogue, EntitySpan, SyntheticSpec, Turn,
                           generate_synthetic, linearize, save_corpus)
from gptlab.errors import ConfigError, DataError, NumericError
from gptlab.model import (PROMPT_PARAM_NAME, ModelConfig, batch_loss,
                          dropout_draws, init_parameters, load_checkpoint,
                          save_checkpoint, token_nll)
from gptlab.training import (CLIP, METRICS_HEADER, MetricsLog, MetricsRow,
                             OptimizerState, RunConfig, ScheduleConfig,
                             adamw_step, clip_grad_norm, evaluate_ppl,
                             init_prompts, lr_at, make_run_config,
                             save_metrics, train)
from gptlab.vocab import build_vocab, save_vocab

from .test_model import make_seq
from .util import (DEFAULT_DISEASES, DEFAULT_DRUGS, DEFAULT_SYMPTOMS, cpus,
                   first_two_on_two_threads)

PAPER_SCHED = ScheduleConfig(peak_lr=1e-4, min_lr=5e-6, warmup_steps=2000,
                             decay_end_step=100_000)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def test_lr_at_reference_points():
    assert rel_close(lr_at(2000, PAPER_SCHED), 1e-4, 1e-12)
    assert rel_close(lr_at(100_000, PAPER_SCHED), 5e-6, 1e-12)
    assert rel_close(lr_at(10 ** 6, PAPER_SCHED), 5e-6, 1e-12)
    # midpoint of the cosine leg: progress (51000-2000)/98000 = 0.5
    assert rel_close(lr_at(51_000, PAPER_SCHED), 5.25e-5, 1e-12)


def test_lr_at_warmup_shape():
    assert lr_at(0, PAPER_SCHED) == 0.0
    assert rel_close(lr_at(1000, PAPER_SCHED), 5e-5, 1e-12)


def test_lr_at_continuity_at_boundaries():
    # closed-form values of both branches at each boundary agree
    warm_end = PAPER_SCHED.peak_lr  # warmup branch at step 2000
    span = PAPER_SCHED.peak_lr - PAPER_SCHED.min_lr
    cos_start = PAPER_SCHED.min_lr + span * 0.5 * (1 + math.cos(0.0))
    assert rel_close(warm_end, cos_start, 1e-15)
    cos_end = PAPER_SCHED.min_lr + span * 0.5 * (1 + math.cos(math.pi))
    assert rel_close(cos_end, PAPER_SCHED.min_lr, 1e-15)
    # and the implementation tracks the closed forms at adjacent steps
    assert rel_close(lr_at(2001, PAPER_SCHED),
                     PAPER_SCHED.min_lr + span * 0.5 *
                     (1 + math.cos(math.pi / 98000)), 1e-12)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ScheduleConfig(peak_lr=1e-4, min_lr=2e-4)
    with pytest.raises(ConfigError):
        ScheduleConfig(warmup_steps=10, decay_end_step=10)


def test_clip_hand_oracle():
    grads = {"w": np.array([3.0, 4.0])}
    scale = clip_grad_norm(grads, 0.5)
    assert abs(scale - 0.1) < 1e-15
    assert np.allclose(grads["w"], [0.3, 0.4])


def test_clip_below_threshold_unchanged():
    grads = {"w": np.array([0.3, 0.2])}  # norm ~0.36
    scale = clip_grad_norm(grads, 0.5)
    assert scale == 1.0
    assert np.allclose(grads["w"], [0.3, 0.2])


def test_clip_zero_grads_unchanged():
    grads = {"w": np.zeros(4)}
    assert clip_grad_norm(grads, 0.5) == 1.0
    assert np.array_equal(grads["w"], np.zeros(4))


def test_clip_nonfinite_rejected():
    with pytest.raises(NumericError):
        clip_grad_norm({"w": np.array([np.inf])}, 0.5)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(0.01, 5.0))
# the first clip leaves this norm two ulps above threshold
@example(values=[1.0, 6.0, 0.1, 0.1], threshold=4.119275526896348)
def test_clip_never_increases_norm_and_is_idempotent(values, threshold):
    g = {"w": np.asarray(values, dtype=np.float64)}
    before = float(np.linalg.norm(g["w"]))
    clip_grad_norm(g, threshold)
    after = float(np.linalg.norm(g["w"]))
    assert after <= before + 1e-12
    assert after <= threshold + 1e-9
    snapshot = g["w"].copy()
    clip_grad_norm(g, threshold)
    assert np.allclose(g["w"], snapshot, rtol=0, atol=1e-15)


def test_adamw_hand_trace():
    # m_hat=0.5, v_hat=0.25 -> adam term 0.1; decay 0.1*0.1*1 = 0.01
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimizerState()
    adamw_step({"w": w}, {"w": np.array([0.5])}, state, lr=0.1,
               beta1=0.9, beta2=0.95, eps=1e-15, weight_decay=0.1)
    assert abs(w.data[0] - 0.89) < 1e-9
    assert state.step == 1


def test_adamw_zero_grad_no_decay_is_identity():
    w = Tensor(np.array([2.0]), requires_grad=True)
    adamw_step({"w": w}, {"w": np.array([0.0])}, OptimizerState(), lr=0.1,
               weight_decay=0.0)
    assert w.data[0] == 2.0


def test_adamw_decoupled_decay_with_zero_grad():
    w = Tensor(np.array([2.0]), requires_grad=True)
    adamw_step({"w": w}, {"w": np.array([0.0])}, OptimizerState(), lr=0.1,
               weight_decay=0.1)
    assert abs(w.data[0] - (2.0 - 0.1 * 0.1 * 2.0)) < 1e-12


def test_adamw_skips_missing_grads_and_exempts_norm_params():
    w = Tensor(np.array([1.0]), requires_grad=True)
    gamma = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimizerState()
    adamw_step({"w": w, "ln.gamma": gamma},
               {"ln.gamma": np.array([0.0])}, state, lr=0.1, weight_decay=0.1)
    assert w.data[0] == 1.0          # no grad entry -> untouched
    assert gamma.data[0] == 1.0      # decay exempt, zero grad


def test_metrics_row_monotonicity_and_roundtrip(tmp_path):
    log = MetricsLog()
    log.add(MetricsRow(1, 1e-4, 2.0, math.exp(2.0), None))
    log.add(MetricsRow(2, 9e-5, 1.5, math.exp(1.5), 4.4817))
    with pytest.raises(ConfigError):
        log.add(MetricsRow(2, 9e-5, 1.0, math.exp(1.0)))
    path = tmp_path / "metrics.csv"
    save_metrics(log, path)
    header, *rows = csv.reader(path.read_text().splitlines())
    assert header == METRICS_HEADER.split(",")
    assert all(len(r) == len(header) for r in rows)
    assert [int(r[0]) for r in rows] == [1, 2]
    assert float(rows[0][1]) == 1e-4
    assert rows[0][4] == "" and float(rows[1][4]) == 4.4817
    for r in rows:
        assert rel_close(float(r[3]), math.exp(float(r[2])), 1e-9)
    # seconds column is intentionally blank for rerun byte-identity
    assert all(line.endswith(",") for line in
               path.read_text().splitlines()[1:])


def test_interrupted_writes_keep_previous_artifacts(tmp_path):
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=11,
                      max_len=16)
    params = init_parameters(cfg, seed=0)
    ckpt, csv = tmp_path / "final.ckpt", tmp_path / "metrics.csv"
    save_checkpoint(ckpt, cfg, params)
    log = MetricsLog()
    log.add(MetricsRow(step=1, lr=1e-3, loss=2.0, ppl=math.exp(2.0)))
    save_metrics(log, csv)
    before = ckpt.read_bytes(), csv.read_bytes()

    class Unwritable:
        """A value that fails once the file is partly written."""
        shape, size = (2,), 2

        @property
        def data(self):
            raise RuntimeError("write failed")

        def __repr__(self):
            raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        save_checkpoint(ckpt, cfg, {**params, "late": Unwritable()})
    rerun = MetricsLog()
    rerun.add(MetricsRow(step=1, lr=1e-3, loss=3.0, ppl=math.exp(3.0)))
    rerun.add(MetricsRow(step=2, lr=Unwritable(), loss=1.0, ppl=math.e))
    with pytest.raises(RuntimeError, match="write failed"):
        save_metrics(rerun, csv)
    assert (ckpt.read_bytes(), csv.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "final.ckpt", "metrics.csv"]


def test_interrupted_eval_and_vocab_writes_keep_previous_files(tmp_path):
    """eval.txt (written by write_kv) and vocab.txt are replaced whole too."""
    eval_txt, vocab_txt = tmp_path / "eval.txt", tmp_path / "vocab.txt"
    write_kv(eval_txt, {"ppl": "12.5"})
    vocab = build_vocab([Dialogue("d", (Turn("patient", "ab"),
                                        Turn("doctor", "ba")))])
    save_vocab(vocab, vocab_txt)
    before = eval_txt.read_bytes(), vocab_txt.read_bytes()

    class Unwritable:
        """A value that fails once the file is partly written."""

        def __format__(self, spec):
            raise RuntimeError("write failed")

        def translate(self, table):  # save_vocab escapes each symbol
            raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        write_kv(eval_txt, {"a": "1", "ppl": Unwritable()})
    vocab.id_to_symbol.append(Unwritable())  # after every real symbol
    with pytest.raises(RuntimeError, match="write failed"):
        save_vocab(vocab, vocab_txt)
    assert (eval_txt.read_bytes(), vocab_txt.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eval.txt", "vocab.txt"]


def test_evaluate_ppl_uniform_model():
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=32,
                      max_len=16, dropout=0.0)
    params = init_parameters(cfg, seed=0)
    params["tok_emb"].data[:] = 0.0  # tied head -> uniform distribution
    seqs = [make_seq([1, 2, 3, 4]), make_seq([5, 6, 7])]
    ppl = evaluate_ppl(params, cfg, seqs)
    assert rel_close(ppl, 32.0, 1e-6)


def test_evaluate_ppl_duplication_invariant():
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=16,
                      max_len=16, dropout=0.0)
    params = init_parameters(cfg, seed=1)
    seqs = [make_seq([1, 2, 3, 4]), make_seq([5, 6, 7, 8, 2])]
    once = evaluate_ppl(params, cfg, seqs)
    twice = evaluate_ppl(params, cfg, seqs + seqs)
    assert rel_close(once, twice, 1e-12)


def test_evaluate_ppl_empty_mask_rejected():
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=16,
                      max_len=16, dropout=0.0)
    params = init_parameters(cfg, seed=2)
    seq = make_seq([1, 2, 3], mask=[False, False, False])
    with pytest.raises(DataError, match="no loss-contributing tokens"):
        evaluate_ppl(params, cfg, [seq])


def test_evaluate_ppl_weights_every_token_equally():
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=16,
                      max_len=16, dropout=0.0)
    params = init_parameters(cfg, seed=3, dtype=np.float64)
    seqs = [make_seq([1, 2, 3, 4, 5, 6]), make_seq([7, 8])]

    losses = []
    counts = []
    for s in seqs:
        ad.reset_tape()
        losses.append(float(batch_loss([s], params, cfg).data))
        counts.append(sum(s.loss_mask[1:]))
    by_dialogue = math.exp(sum(losses) / 2)
    by_token = math.exp(
        sum(l * n for l, n in zip(losses, counts)) / sum(counts))
    assert rel_close(evaluate_ppl(params, cfg, seqs), by_token, 1e-12)
    assert not rel_close(by_dialogue, by_token, 1e-6)  # genuinely different


def per_sequence_ppl(params, cfg, seqs, prompts):
    """The token-weighted loop over sequences, one batch_loss per sequence,
    that evaluate_ppl's length-sorted groups replace."""
    total, count = 0.0, 0
    with ad.no_grad():
        for seq in seqs:
            n = sum(seq.loss_mask[1:])
            if n:
                total += float(batch_loss([seq], params, cfg,
                                          prompts=prompts).data) * n
                count += n
    return math.exp(total / count)


QUARTER = training.EVAL_ROWS // 4


@settings(deadline=None, max_examples=12)
@given(short=st.lists(st.integers(2, QUARTER - 1), min_size=1, max_size=5),
       long=st.lists(st.integers(QUARTER + 1, QUARTER + 72), min_size=7,
                     max_size=7),
       n_prompt=st.sampled_from([0, 3]), seed=st.integers(0, 2 ** 16))
def test_evaluate_ppl_groups_equal_per_sequence_loop_float64(
        short, long, n_prompt, seed):
    """Lengths on both sides of a quarter of EVAL_ROWS, with and without
    prompt rows, whole and response-only loss masks and a sequence with no
    loss token; a group holds at most three sequences past a quarter, so
    seven of them need at least three groups."""
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=8, vocab_size=16,
                      max_len=QUARTER + 72, dropout=0.0)
    params = init_parameters(cfg, seed=seed, dtype=np.float64)
    prompts = (init_prompts(n_prompt, cfg.hidden, seed=seed + 1,
                            dtype=np.float64) if n_prompt else None)
    rng = np.random.default_rng(seed)
    seqs = []
    for n in rng.permutation(
            short + long + [int(rng.integers(2, cfg.max_len))]):
        start = int(rng.integers(1, n)) if rng.random() < 0.5 else 1
        mask = [False] * start + [True] * (n - start)
        seqs.append(make_seq(rng.integers(0, cfg.vocab_size, n).tolist(),
                             tags=rng.integers(0, 4, n).tolist(),
                             flags=rng.integers(0, 2, n).tolist(), mask=mask))
    seqs[-1].loss_mask[:] = [False] * len(seqs[-1])  # carries no loss

    groups = []

    def counted(group, *args, **kwargs):
        groups.append(len(group))
        return token_nll(group, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "token_nll", counted)
        got = evaluate_ppl(params, cfg, seqs, prompts)
    want = per_sequence_ppl(params, cfg, seqs,
                            prompts.matrix if prompts else None)
    assert rel_close(got, want, 1e-12)
    assert len(groups) >= 3 and sum(groups) == len(seqs) - 1


@pytest.mark.parametrize("n_prompt", [0, 3])
@pytest.mark.parametrize("lengths", [
    pytest.param(lambda p: np.random.default_rng(14).integers(
        2, training.EVAL_ROWS // 3, 30).tolist() + [training.EVAL_ROWS + 2],
        id="ragged"),
    pytest.param(lambda p: [2, 3] + [training.EVAL_ROWS // 4 - p] * 9,
                 id="budget-hit-exactly")])
def test_evaluate_ppl_packs_length_sorted_neighbours_up_to_eval_rows(
        lengths, n_prompt):
    """The groups, joined, are the sequences that carry loss in length
    order; a group of two or more spans at most EVAL_ROWS padded rows, and
    each but the last would span more with the next sequence added. The
    ragged lengths end in one longer than EVAL_ROWS (a group alone); in
    the other case four sequences of a quarter of EVAL_ROWS, prompt rows
    included, fill a group exactly. A sequence without loss is added."""
    lengths = lengths(n_prompt)
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=16,
                      max_len=max(lengths), dropout=0.0)
    params = init_parameters(cfg, seed=15)
    prompts = init_prompts(n_prompt, cfg.hidden, seed=16) if n_prompt else None
    rng = np.random.default_rng(17)
    seqs = [make_seq(rng.integers(0, cfg.vocab_size, n).tolist())
            for n in rng.permutation(lengths)]
    seqs.append(make_seq([1, 2, 3], mask=[False] * 3))  # carries no loss
    groups = []

    def spy(group, *args, **kwargs):
        groups.append(group)
        return token_nll(group, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, cpus(1):
        mp.setattr(training, "token_nll", spy)
        evaluate_ppl(params, cfg, seqs, prompts)
    joined = [seq for group in groups for seq in group]
    assert joined == sorted(seqs[:-1], key=len)
    for group, after in zip(groups, groups[1:] + [None]):
        width = n_prompt + max(map(len, group))
        if len(group) > 1:
            assert len(group) * width <= training.EVAL_ROWS
        if after is not None:
            assert ((len(group) + 1) * (n_prompt + len(after[0]))
                    > training.EVAL_ROWS)


@pytest.mark.parametrize("scale", [1e6, float("nan")])
def test_evaluate_ppl_without_finite_perplexity_is_numeric_error(scale):
    """A mean NLL whose exp overflows (huge logits) or that is NaN."""
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=16,
                      max_len=16, dropout=0.0)
    params = init_parameters(cfg, seed=4)
    params["ln_f.gamma"].data *= np.float32(scale)
    with pytest.raises(NumericError):
        evaluate_ppl(params, cfg, [make_seq([1, 2, 3, 4])])


# --- end-to-end train() ---

def make_workspace(tmp_path, n=24, style="clinic", seed=5):
    spec = SyntheticSpec(DEFAULT_SYMPTOMS, DEFAULT_DISEASES, DEFAULT_DRUGS,
                         n_dialogues=n, style=style)
    corpus = generate_synthetic(spec, seed=seed)
    corpus_path = tmp_path / f"{style}.jsonl"
    save_corpus(corpus, corpus_path)
    vocab = build_vocab(corpus)
    vocab_path = tmp_path / "vocab.txt"
    save_vocab(vocab, vocab_path)
    return corpus_path, vocab_path, vocab


def fast_run(tmp_path, mode="pretrain", out="run", **kw):
    corpus_path, vocab_path, _ = make_workspace(tmp_path)
    model = ModelConfig(n_layers=1, n_heads=2, hidden=16, vocab_size=0,
                        max_len=160, dropout=0.0)
    defaults = dict(
        corpus_path=corpus_path, vocab_path=vocab_path,
        out_dir=tmp_path / out, model=model, seed=3,
        split_ratio=(4, 1), batch_size=8, epochs=1,
        sched=ScheduleConfig(peak_lr=1e-3, min_lr=1e-4, warmup_steps=2,
                             decay_end_step=50),
    )
    defaults.update(kw)
    return make_run_config(mode, **defaults)


def test_train_deterministic_under_seed(tmp_path):
    run1 = fast_run(tmp_path, out="r1")
    res1 = train(run1)
    run2 = fast_run(tmp_path, out="r2")
    res2 = train(run2)
    assert [r.loss for r in res1.metrics.rows] == \
           [r.loss for r in res2.metrics.rows]
    assert res1.final_eval_ppl == res2.final_eval_ppl
    assert (res1.checkpoint_path.read_bytes()
            == res2.checkpoint_path.read_bytes())
    m1 = (run1.out_dir / "metrics.csv").read_bytes()
    m2 = (run2.out_dir / "metrics.csv").read_bytes()
    assert m1 == m2


def test_train_writes_the_same_bytes_at_any_cpu_count(tmp_path, monkeypatch):
    """Each step runs its batch of 16 as two sequence groups, with
    dropout: pool threads take groups at 2 and 3 CPUs only, and the run
    writes the same bytes at every count. ``gptlab eval`` of the
    checkpoint, whose groups run side by side too, writes one eval.txt at
    every count."""
    threads, real = {}, training.batch_loss

    def spy(*args, **kwargs):  # batch_loss builds one group's graph
        threads[n].add(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "batch_loss", spy)
    files = {}
    for n in (1, 2, 3):
        threads[n] = set()
        run = fast_run(tmp_path, out=f"cpus{n}", batch_size=16, dropout=0.1)
        config = tmp_path / f"eval{n}.kv"
        write_kv(config, {"eval.checkpoint": str(run.out_dir / "final.ckpt"),
                          "data.corpus": str(run.corpus_path),
                          "data.vocab": str(run.vocab_path),
                          "eval.part": "all"})
        with cpus(n):
            train(run)
            assert cli.main(["eval", "--config", str(config),
                             "--out", str(tmp_path / f"eval{n}")]) == 0
        files[n] = [(run.out_dir / name).read_bytes()
                    for name in ("metrics.csv", "final.ckpt")]
        files[n].append((tmp_path / f"eval{n}" / "eval.txt").read_bytes())
    assert files[1] == files[2] == files[3]
    assert threads[1] == {threading.get_ident()}
    assert len(threads[2]) > 1 and len(threads[3]) > 1


def random_response_batch(rng, n, vocab_size, lo, hi):
    """``n`` sequences of lo to hi tokens whose loss starts at a random
    token after the first."""
    seqs = []
    for length in rng.integers(lo, hi + 1, n):
        start = int(rng.integers(1, length))
        seqs.append(make_seq(rng.integers(0, vocab_size, length).tolist(),
                             mask=[False] * start + [True] * (length - start)))
    return seqs


@pytest.mark.parametrize("frozen", [False, True])
def test_group_step_equals_one_whole_batch_graph_float64(frozen):
    """``_batch_grads``, its groups side by side, against one whole-batch
    ``batch_loss`` + ``backward``: dropout 0.3, a ragged batch of 7
    response-masked sequences, 3 prompt rows, trained with the backbone
    or against a frozen one. The loss and every gradient agree within
    1e-12 relative, the generator ends in the same state, and 1 and 2
    CPUs give the same bits."""
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=8, vocab_size=16,
                      max_len=40, dropout=0.3)
    params = init_parameters(cfg, seed=41, dtype=np.float64)
    prompts = init_prompts(3, cfg.hidden, seed=42, dtype=np.float64).matrix
    for t in params.values():
        t.requires_grad = not frozen
    trainable = {PROMPT_PARAM_NAME: prompts,
                 **({} if frozen else params)}
    seqs = random_response_batch(np.random.default_rng(43), 7,
                                 cfg.vocab_size, 2, 30)
    ref_rng = np.random.default_rng(44)
    ad.reset_tape()
    loss = batch_loss(seqs, params, cfg, prompts=prompts,
                      drop=dropout_draws([seqs], 3, cfg, ref_rng)[0])
    ad.backward(loss)
    want = {name: t.grad for name, t in trainable.items()}
    for t in trainable.values():
        t.grad = None
    runs = {}
    for n in (1, 2):
        rng = np.random.default_rng(44)
        with cpus(n):
            runs[n] = training._batch_grads(seqs, params, trainable, cfg, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(t.grad is None for t in trainable.values())
    (value, grads), (value2, grads2) = runs[1], runs[2]
    assert value == value2 and list(grads) == list(grads2) == list(want)
    assert abs(value - float(loss.data)) <= 1e-12 * abs(float(loss.data))
    for name, g in grads.items():
        assert np.array_equal(g, grads2[name]), name
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(g - want[name])) <= 1e-12 * scale, name


def test_train_leaves_no_graph_on_any_thread(tmp_path):
    """Each group drops its tape before it returns, so once train returns
    neither the caller's thread nor a pool thread holds a step's graph."""
    with cpus(2):
        train(fast_run(tmp_path, out="tapes", batch_size=16))
        task, ran = first_two_on_two_threads(
            2, lambda i: len(ad.active_tape().entries))
        assert ad.spread(task, 2) == [0, 0]
    assert len(set(ran.values())) == 2


def _scoring_threads(monkeypatch):
    """Record the thread of every group ``evaluate_ppl`` scores."""
    threads, real = [], training.token_nll

    def spy(group, *args, **kwargs):
        threads.append(threading.get_ident())
        return real(group, *args, **kwargs)

    monkeypatch.setattr(training, "token_nll", spy)
    return threads


def test_evaluate_ppl_is_the_same_at_any_cpu_count(monkeypatch):
    """A float32 model behind prompt rows, scoring many groups: one value
    at 1, 2 and 3 CPUs; pool threads score groups at 2 and 3 only. The
    sequences span more than five times EVAL_ROWS padded rows, and no group
    spans more than EVAL_ROWS, so there are at least six groups."""
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=16, vocab_size=16,
                      max_len=120, dropout=0.0)
    params = init_parameters(cfg, seed=7)
    prompts = init_prompts(4, cfg.hidden, seed=8)
    rng = np.random.default_rng(9)
    lengths = []
    while sum(4 + n for n in lengths) <= 5 * training.EVAL_ROWS:
        lengths.append(int(rng.integers(2, cfg.max_len)))
    seqs = [make_seq(rng.integers(0, cfg.vocab_size, n).tolist())
            for n in lengths]
    threads = _scoring_threads(monkeypatch)
    ppl, scored_by = {}, {}
    for n in (1, 2, 3):
        threads.clear()
        with cpus(n):
            ppl[n] = evaluate_ppl(params, cfg, seqs, prompts)
        scored_by[n] = set(threads)
    assert len(threads) >= 6
    assert ppl[1] == ppl[2] == ppl[3]
    assert scored_by[1] == {threading.get_ident()}
    assert len(scored_by[2]) > 1 and len(scored_by[3]) > 1


def test_evaluate_ppl_of_groups_past_the_split_size(monkeypatch):
    """Two sequences of over 1000 rows, a group each: every count
    finishes with one value."""
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=32, vocab_size=16,
                      max_len=1300, dropout=0.0)
    params = init_parameters(cfg, seed=10)
    rng = np.random.default_rng(11)
    seqs = [make_seq(rng.integers(0, cfg.vocab_size, n).tolist())
            for n in (1100, 1200)]
    threads = _scoring_threads(monkeypatch)
    ppl, scored_by = {}, {}
    for n in (1, 2, 3):
        threads.clear()
        with cpus(n):
            worker = threading.Thread(target=lambda: ppl.update(
                {n: evaluate_ppl(params, cfg, seqs)}), daemon=True)
            worker.start()
            worker.join(timeout=120)
        assert not worker.is_alive(), f"scoring hangs at {n} CPUs"
        scored_by[n] = set(threads)
    assert ppl[1] == ppl[2] == ppl[3]
    assert len(scored_by[1]) == 1 and len(scored_by[2]) == 2


def test_evaluate_ppl_runs_groups_in_order_while_ops_are_wrapped(
        monkeypatch):
    """perfbench's tracer wraps every op and keeps one span stack, which
    two threads' calls would corrupt: traced, the groups run in order on
    the calling thread at 2 CPUs too, with the counts and value of an
    untraced call."""
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=16, vocab_size=16,
                      max_len=120, dropout=0.0)
    params = init_parameters(cfg, seed=12)
    rng = np.random.default_rng(13)
    seqs = [make_seq(rng.integers(0, cfg.vocab_size, n).tolist())
            for n in rng.integers(2, cfg.max_len, 30)]
    threads = _scoring_threads(monkeypatch)
    with cpus(2):
        want = evaluate_ppl(params, cfg, seqs)
        assert len(set(threads)) == 2 and not ad.ops_wrapped()
        tracer, got = tracer_module.Tracer(), {}
        for n in (1, 2):
            threads.clear()
            with cpus(n), tracer.run(n):
                assert ad.ops_wrapped()
                got[n] = evaluate_ppl(params, cfg, seqs)
            assert set(threads) == {threading.get_ident()}
    assert not ad.ops_wrapped()
    assert got[1] == got[2] == want
    counts = [{k: tracer.metrics(n)[k] for k in tracer_module.DETERMINISTIC}
              for n in (1, 2)]
    assert counts[0] == counts[1] and counts[0]["autodiff.matmul.calls"] > 0


def test_train_single_batch_overfit(tmp_path):
    corpus_path, vocab_path, vocab = make_workspace(tmp_path, n=5)
    model = ModelConfig(n_layers=2, n_heads=2, hidden=32, vocab_size=0,
                        max_len=160, dropout=0.0)
    run = make_run_config(
        "pretrain", corpus_path=corpus_path, vocab_path=vocab_path,
        out_dir=tmp_path / "overfit", model=model, seed=0,
        split_ratio=(4, 1), batch_size=4, epochs=200,  # 4 train seqs = 1 step/epoch
        sched=ScheduleConfig(peak_lr=3e-3, min_lr=3e-4, warmup_steps=10,
                             decay_end_step=500),
        weight_decay=0.0)
    result = train(run)
    assert len(result.metrics.rows) == 200
    assert result.metrics.rows[-1].loss < 0.1
    # decreasing on average over the run
    losses = [r.loss for r in result.metrics.rows]
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


def test_train_checkpoint_eval_roundtrip(tmp_path):
    run = fast_run(tmp_path, out="ckpt-run", epochs=2)
    result = train(run)
    cfg, tensors = load_checkpoint(result.checkpoint_path)
    ppl = evaluate_ppl(tensors, cfg, _test_seqs(run, cfg))
    assert ppl == result.final_eval_ppl


def _test_seqs(run, config):
    from gptlab.corpus import load_corpus, split
    from gptlab.training import prepare_sequences, spawn_seeds
    from gptlab.vocab import load_vocab

    vocab = load_vocab(run.vocab_path)
    corpus = load_corpus(run.corpus_path)
    _, test = split(corpus, run.split_ratio, spawn_seeds(run.seed)[1])
    return prepare_sequences(test, vocab, config.max_len,
                             run.loss_mask_policy, run.splice, None)


def test_train_ptune_keeps_backbone_frozen(tmp_path):
    pre = fast_run(tmp_path, out="pre", epochs=2)
    pre_result = train(pre)
    hashes_before = {
        name: hashlib.sha256(t.data.tobytes()).hexdigest()
        for name, t in pre_result.params.items()}

    pt = fast_run(tmp_path, mode="ptune", out="pt",
                  backbone_path=pre_result.checkpoint_path, v_p=3)
    pt_result = train(pt)
    hashes_after = {
        name: hashlib.sha256(t.data.tobytes()).hexdigest()
        for name, t in pt_result.params.items()}
    assert hashes_after == hashes_before
    assert pt_result.prompts is not None
    assert pt_result.prompts.matrix.shape == (3, 16)
    # the prompt matrix trained away from its initial draw
    start = init_prompts(3, 16, seed=training.spawn_seeds(pt.seed)[4])
    assert not np.array_equal(pt_result.prompts.matrix.data, start.matrix.data)
    # the prompt matrix rides in the checkpoint under its reserved name
    _, tensors = load_checkpoint(pt_result.checkpoint_path)
    assert PROMPT_PARAM_NAME in tensors


def test_train_finetune_moves_backbone(tmp_path):
    pre = fast_run(tmp_path, out="pre2", epochs=2)
    pre_result = train(pre)
    ft = fast_run(tmp_path, mode="finetune", out="ft",
                  backbone_path=pre_result.checkpoint_path)
    ft_result = train(ft)
    moved = [n for n, t in ft_result.params.items()
             if not np.array_equal(t.data, pre_result.params[n].data)]
    # every backbone tensor trains; with weight decay the weight tables
    # move even where the gradient is tiny
    assert set(moved) == set(pre_result.params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_aborts_with_numeric_error(tmp_path):
    run = replace(fast_run(tmp_path, out="diverge", epochs=30),
                  sched=ScheduleConfig(peak_lr=1e9, min_lr=1e8,
                                       warmup_steps=1, decay_end_step=10))
    with pytest.raises(NumericError):
        train(run)
    assert not (run.out_dir / "final.ckpt").exists()
    assert (run.out_dir / "metrics.csv").exists()


def test_run_config_defaults_mirror_reference_regimen():
    model = ModelConfig(n_layers=1, n_heads=1, hidden=8, vocab_size=0,
                        max_len=16)
    pre = make_run_config("pretrain", corpus_path="c", vocab_path="v",
                          out_dir="o", model=model)
    assert (pre.batch_size, CLIP, pre.weight_decay) == (32, 0.5, 0.1)
    adamw = inspect.signature(adamw_step).parameters
    assert (adamw["beta1"].default, adamw["beta2"].default) == (0.9, 0.95)
    assert adamw["eps"].default == 1e-8
    assert (pre.sched.peak_lr, pre.sched.min_lr) == (1e-4, 5e-6)
    assert (pre.sched.warmup_steps, pre.sched.decay_end_step) == (2000, 100_000)
    assert (pre.epochs, pre.split_ratio, pre.loss_mask_policy) == \
        (3, (100, 1), "all")
    for mode in ("finetune", "ptune"):
        tune = make_run_config(mode, corpus_path="c", vocab_path="v",
                               out_dir="o", backbone_path="b")
        assert tune.sched.peak_lr == 5e-5
        assert (tune.epochs, tune.split_ratio, tune.loss_mask_policy) == \
            (6, (8, 2), "response")


@pytest.mark.parametrize("mode", ["pretrain", "finetune", "ptune"])
def test_run_config_from_required_keys_keeps_every_default(tmp_path, mode):
    required = {"data.corpus": "c.jsonl", "data.vocab": "v.txt"}
    model = None
    if mode == "pretrain":
        required.update({"model.layers": "1", "model.heads": "2",
                         "model.hidden": "8", "model.max_len": "16"})
        model = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=0,
                            max_len=16)
    else:
        required["backbone"] = "b.ckpt"
    path = tmp_path / "run.kv"
    write_kv(path, required)
    run = load_run_config(KV(path), mode, tmp_path / "out", 0)
    assert run == make_run_config(
        mode, corpus_path=run.corpus_path, vocab_path=run.vocab_path,
        out_dir=run.out_dir, backbone_path=run.backbone_path, model=model)
    for key in required:
        write_kv(path, {k: v for k, v in required.items() if k != key})
        with pytest.raises(ConfigError, match="missing required config key"):
            load_run_config(KV(path), mode, tmp_path / "out", 0)
    # only p-tuning reads the prompt count; the other modes refuse it
    write_kv(path, {**required, "ptune.v_p": "eight"})
    kv = KV(path)
    if mode == "ptune":
        with pytest.raises(ConfigError, match="not an integer"):
            load_run_config(kv, mode, tmp_path / "out", 0)
    else:
        load_run_config(kv, mode, tmp_path / "out", 0)
        with pytest.raises(ConfigError,
                           match=f"the {mode} command does not read "
                                 "'ptune.v_p'"):
            kv.refuse_unread(mode)


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        make_run_config("nonsense", corpus_path="c", vocab_path="v",
                        out_dir="o")
    run = fast_run(tmp_path, out="v")
    with pytest.raises(ConfigError):
        replace(run, mode="ptune", backbone_path=None)


def valid_records() -> dict:
    """One valid instance of each record that checks itself when built."""
    model = ModelConfig(n_layers=1, n_heads=2, hidden=8, vocab_size=0,
                        max_len=16)
    return {
        "run": make_run_config("pretrain", corpus_path=Path("c"),
                               vocab_path=Path("v"), out_dir=Path("o"),
                               model=model),
        "model": model,
        "sched": ScheduleConfig(),
        "spec": SyntheticSpec(["cough"], ["flu"], ["rest"], n_dialogues=1,
                              n_mentions=1),
        "dialogue": Dialogue("d", (Turn("patient", "cough"),
                                   Turn("doctor", "rest"))),
    }


# (record, field values that break one of its checks, the error); the run
# rows cover every check of RunConfig
BROKEN_RECORDS = [
    ("run", dict(mode="nonsense"), ConfigError),
    ("run", dict(model=None), ConfigError),
    ("run", dict(mode="finetune"), ConfigError),
    ("run", dict(mode="ptune"), ConfigError),
    ("run", dict(mode="ptune", backbone_path=Path("b"), v_p=0), ConfigError),
    ("run", dict(loss_mask_policy="first"), ConfigError),
    ("run", dict(batch_size=0), ConfigError),
    ("run", dict(epochs=0), ConfigError),
    ("run", dict(weight_decay=math.nan), ConfigError),
    ("run", dict(seed=-1), ConfigError),
    ("model", dict(hidden=9), ConfigError),
    ("model", dict(dropout=1.0), ConfigError),
    ("sched", dict(min_lr=1.0), ConfigError),
    ("spec", dict(n_dialogues=0), ConfigError),
    ("spec", dict(n_mentions=2), ConfigError),
    ("spec", dict(style="ward"), ConfigError),
    ("dialogue", dict(turns=(Turn("patient", "cough",
                                  (EntitySpan(3, 6, "symptom"),)),
                             Turn("doctor", "rest"))), DataError),
    ("dialogue", dict(turns=(Turn("doctor", "rest"),)), DataError),
]


@pytest.mark.parametrize("name, bad, error", BROKEN_RECORDS)
def test_records_check_themselves_when_built_and_stay_frozen(name, bad,
                                                             error):
    """A record with a bad value cannot be built, neither directly nor by
    ``replace``, and a built one cannot be changed in place."""
    record = valid_records()[name]
    with pytest.raises(error):
        type(record)(**{**vars(record), **bad})
    with pytest.raises(error):
        replace(record, **bad)
    for field, value in bad.items():
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, value)


def test_pretrain_applies_channel_overrides(tmp_path):
    """A pretrain run's channel overrides replace its model's settings, as
    a tune run's replace its backbone's, and the checkpoint records them."""
    run = fast_run(tmp_path, out="pre-over", use_lexical=False, dropout=0.0,
                   model=ModelConfig(n_layers=1, n_heads=2, hidden=16,
                                     vocab_size=0, max_len=160, dropout=0.1))
    result = train(run)
    config, _ = load_checkpoint(result.checkpoint_path)
    assert config == result.config
    assert (config.use_lexical, config.use_entity, config.dropout) == \
        (False, True, 0.0)
