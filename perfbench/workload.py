"""One gptlab benchmark workload, run in its own process by run.py.

run.py sets OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1 in this process's
environment, so the pin is in place before numpy is imported here; the pin
is checked and counts as one correctness check. The program reads only
files written under the work directory: corpora and vocabulary generated
from the workload seed, copies of the shipped lexicons, and configs.

A run has two stages, each its own process: ``--stage fixture`` writes
the inputs and trains the untimed fixtures (a backbone for ptune and
infer, prompt rows for infer); ``--stage measure`` times the set-up and
the measured call, so its peak RSS is the workload's own. Usage (normally
through run.py):
    python3 perfbench/workload.py --stage measure --workload pretrain \
        --seed 0 --seconds 30 --trace 0 --out perfbench/out/pretrain
"""
from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
PINNED_BEFORE_NUMPY = ("numpy" not in sys.modules and all(
    os.environ.get(v) == "1" for v in BLAS_THREAD_VARS))

import numpy as np  # noqa: E402  (after the pin check on purpose)

import gptlab.annotation  # noqa: E402
import gptlab.autodiff  # noqa: E402
import gptlab.cli  # noqa: E402
import gptlab.corpus  # noqa: E402
import gptlab.model  # noqa: E402
import gptlab.training  # noqa: E402
import gptlab.vocab  # noqa: E402
from tracer import DETERMINISTIC, Tracer, median_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LEXICONS = ROOT / "configs" / "lexicons"
LEXICON_FILES = ("nouns", "symptoms", "diseases", "drugs", "adjectives",
                 "verbs")

# Input sizes: one measured call takes about two seconds at the seed, so a
# run of tens of seconds holds enough repeats for a median. The first call
# of a run warms caches and is left out of the medians.
CLINIC_DIALOGUES = 160
FOLLOWUP_DIALOGUES = 100
PRETRAIN_EPOCHS = 1
PTUNE_EPOCHS = 2
FIXTURE_PRETRAIN_EPOCHS = 3
FIXTURE_PTUNE_EPOCHS = 2
DECODE_HISTORIES = 8
MAX_NEW = 32
SETUP_REPEATS = 15
MIN_REPEATS = 3

# shipped configs/pretrain.kv and configs/ptune.kv, minus data paths and
# epochs, frozen here so that a change to the shipped configs does not
# change the benchmark
TAGGER = {
    "tagger.nouns": "lexicons/nouns.txt, lexicons/symptoms.txt, "
                    "lexicons/diseases.txt, lexicons/drugs.txt",
    "tagger.adjectives": "lexicons/adjectives.txt",
    "tagger.verbs": "lexicons/verbs.txt",
}
PRETRAIN_KV = {
    "mode": "pretrain", "data.corpus": "clinic.jsonl",
    "data.vocab": "vocab.txt", "data.split": "100:1",
    "model.layers": "2", "model.heads": "2", "model.hidden": "64",
    "model.max_len": "192", "model.dropout": "0.1",
    "train.batch_size": "16", "lr.peak": "3e-3", "lr.min": "3e-4",
    "lr.warmup_steps": "30", "lr.decay_end_step": "300",
    "loss_mask": "all", "seed": "0", **TAGGER,
}
PTUNE_KV = {
    "mode": "ptune", "data.corpus": "followup.jsonl",
    "data.vocab": "vocab.txt", "data.split": "8:2",
    "backbone": "backbone/final.ckpt", "ptune.v_p": "8",
    "train.batch_size": "16", "lr.peak": "3e-3", "lr.min": "3e-4",
    "lr.warmup_steps": "20", "lr.decay_end_step": "200",
    "loss_mask": "response", "seed": "0", **TAGGER,
}


class Checks:
    """Correctness checks; failed / attempted is the run's failed share."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def write_kv(path: Path, table: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in table.items()),
                    encoding="utf-8")


def write_configs(inputs: Path) -> None:
    """Lexicons and config files; they do not depend on the seed."""
    lex = inputs / "lexicons"
    lex.mkdir(parents=True, exist_ok=True)
    for name in LEXICON_FILES:
        shutil.copyfile(LEXICONS / f"{name}.txt", lex / f"{name}.txt")
    write_kv(inputs / "pretrain.kv", {**PRETRAIN_KV,
                                      "train.epochs": PRETRAIN_EPOCHS})
    write_kv(inputs / "ptune.kv", {**PTUNE_KV, "train.epochs": PTUNE_EPOCHS})
    write_kv(inputs / "fixture_pretrain.kv",
             {**PRETRAIN_KV, "train.epochs": FIXTURE_PRETRAIN_EPOCHS})
    write_kv(inputs / "fixture_ptune.kv",
             {**PTUNE_KV, "train.epochs": FIXTURE_PTUNE_EPOCHS})


def write_data(inputs: Path, seed: int) -> None:
    """Both corpora, generated from the seed, and the vocabulary over them."""
    lex = inputs / "lexicons"
    read = gptlab.training.read_lexicon
    corpora = {}
    for style, count, sub in (("clinic", CLINIC_DIALOGUES, 0),
                              ("followup", FOLLOWUP_DIALOGUES, 1)):
        spec = gptlab.corpus.SyntheticSpec(
            symptoms=read(lex / "symptoms.txt"),
            diseases=read(lex / "diseases.txt"),
            drugs=read(lex / "drugs.txt"),
            n_dialogues=count, turns_min=2, turns_max=4, style=style,
            n_mentions=4)
        corpora[style] = gptlab.corpus.generate_synthetic(spec, 2 * seed + sub)
        gptlab.corpus.save_corpus(corpora[style], inputs / f"{style}.jsonl")
    vocab = gptlab.vocab.build_vocab(corpora["clinic"] + corpora["followup"])
    gptlab.vocab.save_vocab(vocab, inputs / "vocab.txt")


def run_cli(checks: Checks, mode: str, config: Path, out: Path) -> float:
    """One closed-loop CLI call; returns its wall time."""
    argv = [mode, "--config", str(config), "--out", str(out), "--force"]
    start = time.perf_counter()
    code = gptlab.cli.main(argv)
    wall = time.perf_counter() - start
    checks.check(code == 0, f"gptlab {mode} exited {code}")
    return wall


def read_metrics_csv(raw: bytes) -> tuple[list[float], float]:
    """Losses and the final eval_ppl of a metrics.csv."""
    rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
    return [float(r[2]) for r in rows], float(rows[-1][4])


class TrainWorkload:
    """pretrain or ptune through gptlab.cli.main on generated inputs."""

    def __init__(self, mode: str, inputs: Path, seed: int):
        self.mode = mode
        self.inputs = inputs
        self.seed = seed
        self.config = inputs / f"{mode}.kv"
        self.first = None

    def setup(self) -> None:
        write_data(self.inputs, self.seed)

    def fixture(self, checks: Checks) -> None:
        if self.mode == "ptune":
            run_cli(checks, "pretrain", self.inputs / "fixture_pretrain.kv",
                    self.inputs / "backbone")

    def work(self) -> tuple[int, int]:
        """Tokens and optimiser steps of one call: the train split, every
        epoch, prompt rows not counted."""
        kv = PRETRAIN_KV if self.mode == "pretrain" else PTUNE_KV
        epochs = PRETRAIN_EPOCHS if self.mode == "pretrain" else PTUNE_EPOCHS
        corpus = gptlab.corpus.load_corpus(self.inputs / kv["data.corpus"])
        vocab = gptlab.vocab.load_vocab(self.inputs / "vocab.txt")
        ratio = tuple(int(p) for p in kv["data.split"].split(":"))
        split_seed = gptlab.training.spawn_seeds(int(kv["seed"]))[1]
        train, _ = gptlab.corpus.split(corpus, ratio, split_seed)
        seqs = gptlab.training.prepare_sequences(
            train, vocab, int(PRETRAIN_KV["model.max_len"]), kv["loss_mask"],
            False, None)
        batch = int(kv["train.batch_size"])
        return (epochs * sum(len(s) for s in seqs),
                epochs * math.ceil(len(seqs) / batch))

    def call(self, rep: int, checks: Checks, traced: bool = False) -> dict:
        out = self.inputs / "runs" / ("first" if rep == 0 else "repeat")
        wall = run_cli(checks, self.mode, self.config, out)
        metrics_csv = (out / "metrics.csv").read_bytes()
        ckpt = (out / "final.ckpt").read_bytes()
        losses, eval_ppl = read_metrics_csv(metrics_csv)
        checks.check(all(math.isfinite(x) for x in losses + [eval_ppl]),
                     f"non-finite loss or eval_ppl in repeat {rep}")
        if self.first is None:
            self.first = (metrics_csv, ckpt, eval_ppl)
        else:
            checks.check(metrics_csv == self.first[0],
                         f"metrics.csv of repeat {rep} differs from repeat 0")
            checks.check(ckpt == self.first[1],
                         f"final.ckpt of repeat {rep} differs from repeat 0")
            checks.check(eval_ppl == self.first[2],
                         f"eval_ppl of repeat {rep} differs from repeat 0")
        return {"wall": wall, "eval_ppl": eval_ppl}

    def end_to_end(self, calls: list[dict]) -> dict:
        tokens, steps = self.work()
        return {
            "tok_per_s": statistics.median(tokens / c["wall"] for c in calls),
            "step_ms": statistics.median(1000.0 * c["wall"] / steps
                                         for c in calls),
            "eval_ppl": calls[0]["eval_ppl"],
        }


def history(seq, final_text: str):
    """The sequence up to and including the final doctor marker."""
    keep = len(seq) - (len(final_text) + 1)
    return replace(seq, **{f: getattr(seq, f)[:keep] for f in (
        "ids", "lexical_tags", "entity_flags", "loss_mask", "position_ids")})


def extend(seq, new_ids: list[int]):
    """History plus decoded tokens, annotated as model.generate annotates
    them (tag OTHER, flag 0, no loss)."""
    n = len(seq)
    other = int(gptlab.annotation.LexTag.OTHER)
    return replace(
        seq, ids=list(seq.ids) + list(new_ids),
        lexical_tags=list(seq.lexical_tags) + [other] * len(new_ids),
        entity_flags=list(seq.entity_flags) + [0] * len(new_ids),
        loss_mask=list(seq.loss_mask) + [False] * len(new_ids),
        position_ids=list(seq.position_ids) + list(range(n, n + len(new_ids))))


class InferWorkload:
    """Tape-free scoring and greedy decoding with a p-tuned checkpoint."""

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs
        self.seed = seed
        self.ckpt = inputs / "prompts" / "final.ckpt"
        self.first = None

    def fixture(self, checks: Checks) -> None:
        run_cli(checks, "pretrain", self.inputs / "fixture_pretrain.kv",
                self.inputs / "backbone")
        run_cli(checks, "ptune", self.inputs / "fixture_ptune.kv",
                self.inputs / "prompts")

    def setup(self) -> None:
        write_data(self.inputs, self.seed)
        self.session = self.load()

    def load(self) -> dict:
        """Everything scoring and decoding need, loaded from the files."""
        lex = self.inputs / "lexicons"
        vocab = gptlab.vocab.load_vocab(self.inputs / "vocab.txt")
        config, tensors = gptlab.model.load_checkpoint(self.ckpt)
        backbone, prompts = gptlab.training.split_loaded_tensors(tensors)
        corpus = gptlab.corpus.load_corpus(self.inputs / "followup.jsonl")
        tagger = gptlab.training.build_tagger_from_files(
            [lex / f"{n}.txt" for n in ("nouns", "symptoms", "diseases",
                                        "drugs")],
            [lex / "adjectives.txt"], [lex / "verbs.txt"])
        seqs = gptlab.training.prepare_sequences(
            corpus, vocab, config.max_len, "response", False, tagger)
        # held-out histories at evenly spaced length ranks, so the decode
        # work hardly depends on the seed
        split_seed = gptlab.training.spawn_seeds(int(PTUNE_KV["seed"]))[1]
        _, test = gptlab.corpus.split(corpus, (8, 2), split_seed)
        by_id = {d.id: (d, s) for d, s in zip(corpus, seqs)}
        held_out = sorted(
            (history(by_id[d.id][1], d.turns[-1].text) for d in test),
            key=len)
        held_out = [h for h in held_out if len(h) + MAX_NEW <= config.max_len]
        picks = [held_out[(2 * i + 1) * len(held_out) // (2 * DECODE_HISTORIES)]
                 for i in range(DECODE_HISTORIES)]
        return {"config": config, "backbone": backbone,
                "prompts": prompts, "seqs": seqs, "histories": picks}

    def call(self, rep: int, checks: Checks, traced: bool = False) -> dict:
        # a traced call also traces loading, which set-up does untraced
        s = self.load() if traced else self.session
        config, backbone, prompts = s["config"], s["backbone"], s["prompts"]
        start = time.perf_counter()
        ppl = gptlab.training.evaluate_ppl(backbone, config, s["seqs"],
                                           prompts=prompts)
        scored = time.perf_counter()
        outs = [gptlab.model.generate(h, backbone, config, strategy="greedy",
                                      max_new=MAX_NEW, prompts=prompts.matrix,
                                      eos_id=None)
                for h in s["histories"]]
        end = time.perf_counter()
        checks.check(math.isfinite(ppl), f"non-finite eval_ppl in repeat {rep}")
        checks.check(all(len(o) == MAX_NEW for o in outs),
                     f"short decode in repeat {rep}")
        if self.first is None:
            self.first = (ppl, outs)
            self.greedy_check(checks, s, outs)
        else:
            checks.check(ppl == self.first[0],
                         f"eval_ppl of repeat {rep} differs from repeat 0")
            checks.check(outs == self.first[1],
                         f"decoded tokens of repeat {rep} differ from repeat 0")
        return {"score_s": scored - start, "decode_s": end - scored,
                "wall": end - start, "eval_ppl": ppl,
                "score_tokens": sum(len(q) for q in s["seqs"]),
                "new_tokens": sum(len(o) for o in outs)}

    @staticmethod
    def greedy_check(checks: Checks, s: dict, outs: list[list[int]]) -> None:
        """Each decoded token is the argmax of one teacher-forced forward
        over history + output at that position."""
        n_prompt = s["prompts"].matrix.shape[0]
        with gptlab.autodiff.no_grad():
            for h, out in zip(s["histories"], outs):
                logits = gptlab.model.forward(
                    extend(h, out), s["backbone"], s["config"],
                    prompts=s["prompts"].matrix).data
                for i, tok in enumerate(out):
                    row = n_prompt + len(h) - 1 + i
                    checks.check(int(np.argmax(logits[row])) == tok,
                                 f"greedy token {i} is not the argmax of "
                                 f"the teacher-forced forward")

    @staticmethod
    def end_to_end(calls: list[dict]) -> dict:
        return {
            "tok_per_s": statistics.median(c["score_tokens"] / c["score_s"]
                                           for c in calls),
            "step_ms": statistics.median(1000.0 * c["decode_s"] / c["new_tokens"]
                                         for c in calls),
            "eval_ppl": calls[0]["eval_ppl"],
        }


def blas_threads():
    """Runtime thread count of the OpenBLAS numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(checks: Checks) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    pinned = PINNED_BEFORE_NUMPY and threads in (1, None)
    checks.check(pinned, "BLAS threads are not pinned to 1")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime_threads": threads,
        "thread_vars": {v: os.environ.get(v) for v in
                        BLAS_THREAD_VARS + ("MKL_NUM_THREADS",)},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pinned": pinned,
    }


def measure(workload, checks: Checks, seconds: float) -> list[dict]:
    """Closed loop: repeat the measured call until the time is used up;
    returns the calls after the warm-up call."""
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_REPEATS or time.perf_counter() < deadline:
        calls.append(workload.call(len(calls), checks))
    return calls[1:]


def measure_traced(workload, checks: Checks, seconds: float, work: Path):
    """Alternate traced and untraced calls; per-layer metrics are medians
    over the traced ones, and their artifacts must match the untraced."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    workload.call(0, checks)  # warm-up, and the artifacts to match
    reps = itertools.count(1)
    per_run, walls, untraced = [], [], []
    while len(per_run) < 2 or time.perf_counter() < deadline:
        run_id = len(per_run)
        with tracer.run(run_id):
            walls.append(workload.call(next(reps), checks, traced=True)["wall"])
        per_run.append(tracer.metrics(run_id))
        untraced.append(workload.call(next(reps), checks)["wall"])
    for name in DETERMINISTIC:
        values = {r[name] for r in per_run}
        checks.check(len(values) == 1,
                     f"{name} differs across traced runs: {sorted(values)}")
    metrics = median_metrics(per_run)
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(untraced))
    tracer.write_spans(work / "spans.csv")
    return metrics, sorted(set(tracer.missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", required=True, choices=("fixture", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=("pretrain", "ptune", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="work directory")
    args = parser.parse_args(argv)

    work = Path(args.out)
    inputs = work / "inputs"
    checks = Checks()
    if args.workload == "infer":
        workload = InferWorkload(inputs, args.seed)
    else:
        workload = TrainWorkload(args.workload, inputs, args.seed)
    if args.stage == "fixture":
        write_configs(inputs)
        write_data(inputs, args.seed)
        workload.fixture(checks)
        return 1 if checks.failures else 0

    env = environment(checks)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    result = {"env": env}
    if args.trace:
        metrics, missing = measure_traced(workload, checks, args.seconds,
                                          work)
        result["unpatched"] = missing
    else:
        calls = measure(workload, checks, args.seconds)
        metrics = workload.end_to_end(calls)
        metrics["setup_s"] = statistics.median(setup_s)
        result.update(setups=setup_s, calls=calls)
    result.update(metrics=metrics, attempted=checks.attempted,
                  failures=checks.failures)
    (work / "result.json").write_text(json.dumps(result, indent=1),
                                      encoding="utf-8")
    shutil.rmtree(inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
