"""Spans and counters around gptlab's public functions, for the traced run.

While a Tracer is installed it rebinds every name under which a traced
function is reachable in the loaded ``gptlab`` modules (``training``
imports ``lm_loss``, ``linearize`` and ``adamw_step`` by name, ``model``
calls ``ad.<op>``), and it restores the original bindings when it is
removed, so untraced calls run unmodified code. Per-op backward time is
measured by wrapping the vjp of the tape entry an op has just appended.

Spans are kept in memory as (id, name, start, end, parent, run) and written
out once, at the end, by ``write_spans``.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import statistics
import sys
import time
from collections import defaultdict

# autodiff ops the model uses; concat_rows and concat_cols count as "concat"
OPS = {"matmul": "matmul", "softmax_rows": "softmax_rows",
       "layer_norm": "layer_norm", "gelu": "gelu",
       "cross_entropy": "cross_entropy", "take_rows": "take_rows",
       "add": "add", "mul": "mul", "concat_rows": "concat",
       "concat_cols": "concat", "transpose": "transpose"}
OP_KINDS = tuple(dict.fromkeys(OPS.values()))

# (module, attribute) -> span name, for functions timed as a whole; the
# wrappers in Tracer._wrappers add adamw_step, forward, generate, backward
TIMED = {
    ("gptlab.cli", "main"): "cli.main",
    ("gptlab.training", "train"): "training.train",
    ("gptlab.config", "load_run_config"): "config.load_run_config",
    ("gptlab.training", "clip_grad_norm"): "training.clip_grad_norm",
    ("gptlab.training", "evaluate_ppl"): "training.evaluate_ppl",
    ("gptlab.training", "prepare_sequences"): "training.prepare_sequences",
    ("gptlab.training", "lm_loss"): "model.lm_loss",
    ("gptlab.model", "load_checkpoint"): "model.load_checkpoint",
    ("gptlab.model", "save_checkpoint"): "model.save_checkpoint",
    ("gptlab.corpus", "load_corpus"): "corpus.load_corpus",
    ("gptlab.corpus", "linearize"): "corpus.linearize",
    ("gptlab.vocab", "encode"): "vocab.encode",
    ("gptlab.vocab", "load_vocab"): "vocab.load_vocab",
}

# per-layer metric -> span whose summed duration it reports
SECONDS = {
    "autodiff.backward_s": "autodiff.backward",
    "model.forward_s": "model.forward",
    "model.generate_s": "model.generate",
    "model.load_checkpoint_s": "model.load_checkpoint",
    "model.save_checkpoint_s": "model.save_checkpoint",
    "training.adamw_s": "training.adamw_step",
    "training.clip_s": "training.clip_grad_norm",
    "training.evaluate_ppl_s": "training.evaluate_ppl",
    "training.prepare_sequences_s": "training.prepare_sequences",
    "corpus.load_s": "corpus.load_corpus",
    "corpus.linearize_s": "corpus.linearize",
    "annotation.tag_s": "annotation.tag",
    "vocab.encode_s": "vocab.encode",
    "vocab.load_s": "vocab.load_vocab",
    "config.load_run_config_s": "config.load_run_config",
}

# counts that must repeat exactly across traced runs of the same inputs
DETERMINISTIC = tuple(f"autodiff.{k}.calls" for k in OP_KINDS) + (
    "autodiff.tape_entries_per_step", "autodiff.matmul.gflop",
    "autodiff.grad_useful_ratio", "model.forward_calls",
    "model.forward_rows", "model.rows_per_new_token",
    "prompts.prefix_row_share", "annotation.tag_chars")


def _percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Install with ``with tracer.run(run_id):`` around one traced call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.step_ms: dict[int, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._run = 0
        self._saved: list[tuple] = []
        self._step = None
        self._in_generate = 0
        self._t0 = time.perf_counter()

    # --- spans ---

    def _open(self):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        # an exception may have left inner spans open; drop them with this one
        del self._stack[self._stack.index(sid):]
        self.spans.append((sid, name, start, end, parent, self._run))
        return end - start

    def _timed(self, name, fn, after=None):
        def wrapped(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if after is not None:
                after(args, out)
            return out
        return wrapped

    # --- wrappers with counters ---

    def _op(self, kind, fn, ad):
        timed = self._timed(f"autodiff.{kind}", fn)

        def wrapped(*args, **kwargs):
            tape = ad.active_tape()
            n0 = len(tape.entries)
            out = timed(*args, **kwargs)
            mkn = 0
            if kind == "matmul":
                mkn = out.shape[0] * args[0].shape[1] * out.shape[1]
                self.counts[self._run]["autodiff.matmul.flop"] += 2 * mkn
            if len(tape.entries) > n0:
                o, inputs, vjp = tape.entries[-1]
                tape.entries[-1] = (o, inputs,
                                    self._vjp(kind, vjp, inputs, mkn))
            return out
        return wrapped

    def _vjp(self, kind, vjp, inputs, mkn):
        timed = self._timed(f"autodiff.{kind}.bwd", vjp)

        def wrapped(g):
            grads = timed(g)
            c = self.counts[self._run]
            for t, gi in zip(inputs, grads):
                if gi is None:
                    continue
                c["autodiff.grad_elems"] += gi.size
                if t.requires_grad:
                    c["autodiff.grad_elems_useful"] += gi.size
                c["autodiff.matmul.flop"] += 2 * mkn  # one gemm per grad
            return grads
        return wrapped

    def _backward(self, fn, ad):
        timed = self._timed("autodiff.backward", fn)

        def wrapped(loss):
            c = self.counts[self._run]
            c["autodiff.tape_entries"] += len(ad.active_tape().entries)
            c["autodiff.backward_calls"] += 1
            return timed(loss)
        return wrapped

    def _reset_tape(self, fn):
        # training.train calls reset_tape at the top of every step; the
        # step span runs from there to the end of the AdamW update
        def wrapped():
            if self._step is None:
                self._step = self._open()
            return fn()
        return wrapped

    def _adamw(self, fn):
        timed = self._timed("training.adamw_step", fn)

        def wrapped(*args, **kwargs):
            out = timed(*args, **kwargs)
            if self._step is not None:
                sid, parent, start = self._step
                self._step = None
                self.step_ms[self._run].append(
                    1000.0 * self._close("training.step", sid, parent, start))
            return out
        return wrapped

    def _after_forward(self, args, out):
        c = self.counts[self._run]
        rows = out.shape[0]
        c["model.forward_rows"] += rows
        c["model.prompt_rows"] += rows - len(args[0])
        if self._in_generate:
            c["model.generate_rows"] += rows

    def _generate(self, fn):
        timed = self._timed("model.generate", fn)

        def wrapped(*args, **kwargs):
            self._in_generate += 1
            try:
                out = timed(*args, **kwargs)
            finally:
                self._in_generate -= 1
            self.counts[self._run]["model.new_tokens"] += len(out)
            return out
        return wrapped

    def _tagger(self, fn):
        def after(args, out):
            self.counts[self._run]["annotation.tag_chars"] += len(args[0])

        def wrapped(*args, **kwargs):
            tag_text = fn(*args, **kwargs)
            return self._timed("annotation.tag", tag_text, after)
        return wrapped

    # --- install / remove ---

    def _wrappers(self):
        ad = sys.modules["gptlab.autodiff"]
        specs = {("gptlab.autodiff", op): (lambda f, k=kind: self._op(k, f, ad))
                 for op, kind in OPS.items()}
        specs.update({key: (lambda f, n=name: self._timed(n, f))
                      for key, name in TIMED.items()})
        specs[("gptlab.autodiff", "backward")] = lambda f: self._backward(f, ad)
        specs[("gptlab.autodiff", "reset_tape")] = self._reset_tape
        specs[("gptlab.training", "adamw_step")] = self._adamw
        specs[("gptlab.model", "forward")] = (
            lambda f: self._timed("model.forward", f, self._after_forward))
        specs[("gptlab.model", "generate")] = self._generate
        specs[("gptlab.annotation", "dictionary_tagger")] = self._tagger
        return specs

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gptlab" or name.startswith("gptlab.")]
        for (mod_name, attr), make in self._wrappers().items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = make(fn)
            # rebind every name the function is reachable under
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def run(self, run_id: int):
        """Trace the calls made inside the block as run ``run_id``."""
        self._run = run_id
        self.install()
        try:
            yield self
        finally:
            self.remove()
            self._step = None

    # --- results ---

    def metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced run (trace.overhead_ratio aside)."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _sid, name, start, end, _parent, run in self.spans:
            if run == run_id:
                seconds[name] += end - start
                calls[name] += 1
        c = self.counts[run_id]
        out: dict[str, float] = {}
        for kind in OP_KINDS:
            out[f"autodiff.{kind}.fwd_s"] = seconds[f"autodiff.{kind}"]
            out[f"autodiff.{kind}.bwd_s"] = seconds[f"autodiff.{kind}.bwd"]
            out[f"autodiff.{kind}.calls"] = calls[f"autodiff.{kind}"]
        for metric, span in SECONDS.items():
            out[metric] = seconds[span]
        steps = c["autodiff.backward_calls"]
        out["autodiff.tape_entries_per_step"] = (
            c["autodiff.tape_entries"] / steps if steps else 0.0)
        out["autodiff.matmul.gflop"] = c["autodiff.matmul.flop"] / 1e9
        out["autodiff.grad_useful_ratio"] = (
            c["autodiff.grad_elems_useful"] / c["autodiff.grad_elems"]
            if c["autodiff.grad_elems"] else 0.0)
        out["model.forward_calls"] = calls["model.forward"]
        out["model.forward_rows"] = c["model.forward_rows"]
        out["model.rows_per_new_token"] = (
            c["model.generate_rows"] / c["model.new_tokens"]
            if c["model.new_tokens"] else 0.0)
        out["prompts.prefix_row_share"] = (
            c["model.prompt_rows"] / c["model.forward_rows"]
            if c["model.forward_rows"] else 0.0)
        out["annotation.tag_chars"] = c["annotation.tag_chars"]
        out["training.step_ms_p50"] = _percentile(self.step_ms[run_id], 0.5)
        out["training.step_ms_p90"] = _percentile(self.step_ms[run_id], 0.9)
        out["cli.overhead_s"] = seconds["cli.main"] - seconds["training.train"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,run\n")
            for sid, name, start, end, parent, run in self.spans:
                fh.write(f"{sid},{name},{start - self._t0:.9f},"
                         f"{end - self._t0:.9f},{parent},{run}\n")


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced runs."""
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
