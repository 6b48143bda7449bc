"""Training loop: AdamW with decoupled decay, global-norm clipping,
warmup-cosine learning rate, epoch scheduling, checkpoints, PPL eval.

A run is a frozen RunConfig that checks itself when it is built, so
``train`` and ``train_variants`` check nothing again. Everything is
deterministic under RunConfig.seed: initialization, data order, dropout
and prompt init all derive from spawned sub-seeds. A training step runs
its batch as ``_GROUPS`` sequence groups and perplexity runs its scoring
groups, each side by side on the CPUs of the affinity mask
(``autodiff.spread``). Groups depend on the batch or the dataset alone,
so the bytes are identical whatever the CPU count and the BLAS thread
count.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from .annotation import dictionary_tagger
from .atomic import atomic_write, read_lines
from .autodiff import Tensor
from .corpus import (Dialogue, TokenSequence, check_loss_mask_policy,
                     linearize, load_corpus, split)
from .errors import ConfigError, DataError, NumericError
from .model import (INIT_STD, PROMPT_PARAM_NAME, ModelConfig, batch_loss,
                    dropout_draws, init_parameters, load_checkpoint,
                    save_checkpoint, token_nll)
from .vocab import load_vocab

MODES = ("pretrain", "finetune", "ptune")
CLIP = 0.5  # global gradient-norm threshold of the reference regimen
ADAM_BETAS = (0.9, 0.95)  # AdamW's moment decays, as in the reference
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ScheduleConfig:
    peak_lr: float = 1e-4
    min_lr: float = 5e-6
    warmup_steps: int = 2000
    decay_end_step: int = 100_000

    def __post_init__(self):
        if not (0 < self.min_lr <= self.peak_lr < math.inf):
            raise ConfigError("need 0 < min_lr <= peak_lr < inf")
        if not (0 <= self.warmup_steps < self.decay_end_step):
            raise ConfigError("need 0 <= warmup_steps < decay_end_step")


def lr_at(step: int, sched: ScheduleConfig) -> float:
    """Linear warmup to the peak, half-cosine decay to the floor, then flat."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    if step <= sched.warmup_steps:
        if sched.warmup_steps == 0:
            return sched.peak_lr
        return sched.peak_lr * step / sched.warmup_steps
    if step >= sched.decay_end_step:
        return sched.min_lr
    progress = (step - sched.warmup_steps) / (sched.decay_end_step - sched.warmup_steps)
    span = sched.peak_lr - sched.min_lr
    return sched.min_lr + span * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """First/second moment tables addressed by parameter name."""
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def clip_grad_norm(grads: dict[str, np.ndarray], threshold: float) -> float:
    """Scale all gradients so their global L2 norm is at most threshold;
    returns the scale that was applied."""
    if threshold <= 0:
        raise ConfigError("clip threshold must be > 0")
    sq = 0.0
    for g in grads.values():
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient; aborting step")
        sq += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq)
    # a norm that an earlier clip left a few ulps above threshold is
    # already clipped; rescaling it again would move it by rounding alone
    if norm <= threshold * (1.0 + 1e-12):
        return 1.0
    scale = threshold / norm
    for g in grads.values():
        g *= scale
    return scale


def _decays(name: str) -> bool:
    # norm gains/offsets and biases are exempt; embeddings, maps and the
    # prompt matrix decay
    return not name.endswith((".gamma", ".beta", ".b"))


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: OptimizerState, lr: float,
               weight_decay: float = 0.1) -> None:
    """Bias-corrected Adam update (ADAM_BETAS, ADAM_EPS) plus decoupled
    decay w -= lr*wd*w.

    Parameters without a gradient entry are skipped entirely, so frozen
    tensors are untouched no matter how many steps run.
    """
    beta1, beta2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for name, p in params.items():
        if name not in grads:
            continue
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if weight_decay and _decays(name):
            update = update + lr * weight_decay * p.data
        if not np.isfinite(update).all():
            raise NumericError(f"non-finite update for {name}")
        p.data = p.data - update


@dataclass(frozen=True)
class RunConfig:
    """Full description of one training run, checked when it is built;
    defaults follow the reference pretraining regimen (batch 32, wd 0.1,
    warmup-cosine 2000->100k; the clip and AdamW's betas and eps fixed)."""
    mode: str
    corpus_path: Path
    vocab_path: Path
    out_dir: Path
    model: Optional[ModelConfig] = None      # pretrain architecture
    backbone_path: Optional[Path] = None     # finetune/ptune start point
    use_lexical: Optional[bool] = None       # channel overrides, every mode
    use_entity: Optional[bool] = None
    dropout: Optional[float] = None
    seed: int = 0
    split_ratio: tuple[int, int] = (100, 1)
    batch_size: int = 32
    epochs: int = 3
    sched: ScheduleConfig = field(default_factory=ScheduleConfig)
    weight_decay: float = 0.1
    loss_mask_policy: str = "all"            # all | response
    v_p: int = 8
    splice: bool = False
    noun_lexicons: tuple[Path, ...] = ()
    adj_lexicons: tuple[Path, ...] = ()
    verb_lexicons: tuple[Path, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "pretrain" and self.model is None:
            raise ConfigError("pretrain needs a model configuration")
        if self.mode in ("finetune", "ptune") and self.backbone_path is None:
            raise ConfigError(f"{self.mode} needs a backbone checkpoint")
        if self.mode == "ptune" and self.v_p < 1:
            raise ConfigError("ptune needs v_p >= 1")
        check_loss_mask_policy(self.loss_mask_policy)
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not math.isfinite(self.weight_decay):
            raise ConfigError(f"weight_decay {self.weight_decay} is not finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def make_run_config(mode: str, **kw) -> RunConfig:
    """RunConfig with the per-mode reference defaults filled in: pretrain
    keeps RunConfig's own; finetune and ptune train longer, at a lower
    peak rate, on the final reply of a wider split."""
    if mode != "pretrain":
        kw = {"split_ratio": (8, 2), "epochs": 6,
              "loss_mask_policy": "response",
              "sched": ScheduleConfig(peak_lr=5e-5), **kw}
    return RunConfig(mode=mode, **kw)


@dataclass
class MetricsRow:
    step: int
    lr: float
    loss: float
    ppl: float
    eval_ppl: Optional[float] = None


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    def add(self, row: MetricsRow) -> None:
        if self.rows and row.step <= self.rows[-1].step:
            raise ConfigError("metrics steps must be strictly increasing")
        self.rows.append(row)


METRICS_HEADER = "step,lr,loss,ppl,eval_ppl,seconds"


def save_metrics(log: MetricsLog, path) -> None:
    """CSV per the documented schema, written atomically. The seconds
    column is left empty so that reruns with the same seed produce
    byte-identical files."""
    with atomic_write(path) as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in log.rows:
            eval_s = repr(r.eval_ppl) if r.eval_ppl is not None else ""
            fh.write(f"{r.step},{r.lr!r},{r.loss!r},{r.ppl!r},{eval_s},\n")


@dataclass
class PromptEmbeddings:
    """The [V_p x H] prompt matrix ptune trains, saved as PROMPT_PARAM_NAME.
    The wrapper stays only because the benchmark reads ``.matrix`` of
    ``split_loaded_tensors(...)[1]`` and passes it to ``evaluate_ppl``."""
    matrix: Tensor


def init_prompts(v_p: int, hidden: int, seed: int,
                 dtype=np.float32) -> PromptEmbeddings:
    """normal(0, 0.02) prompt rows, deterministic under seed."""
    if v_p < 1:
        raise ConfigError(f"prompt token count must be >= 1, got {v_p}")
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.normal(0.0, INIT_STD, size=(v_p, hidden)).astype(dtype)
    return PromptEmbeddings(Tensor(data, requires_grad=True))


@dataclass
class TrainResult:
    config: ModelConfig
    params: dict[str, Tensor]
    prompts: Optional[PromptEmbeddings]
    metrics: MetricsLog
    checkpoint_path: Path
    final_eval_ppl: float


def read_lexicon(path) -> list[str]:
    """One term per line; blanks ignored."""
    return [t.strip() for t in read_lines(path, DataError, "lexicon")
            if t.strip()]


def build_tagger_from_files(noun_paths, adj_paths, verb_paths):
    if not (noun_paths or adj_paths or verb_paths):
        return None

    def read_terms(ps):
        terms = []
        for p in ps:
            terms.extend(read_lexicon(p))
        return terms

    return dictionary_tagger(read_terms(noun_paths), read_terms(adj_paths),
                             read_terms(verb_paths))


def spawn_seeds(seed: int) -> tuple[int, int, int, int, int]:
    """init, split, shuffle, dropout, prompt sub-seeds for one run seed."""
    children = np.random.SeedSequence(seed).spawn(5)
    return tuple(int(s.generate_state(1)[0]) for s in children)


def split_corpus(corpus: list[Dialogue], ratio: tuple[int, int], seed: int
                 ) -> tuple[list[Dialogue], list[Dialogue]]:
    """The (train, test) dialogues of a run with this seed."""
    return split(corpus, ratio, spawn_seeds(seed)[1])


def prepare_sequences(dialogues, vocab, max_len: int, policy: str,
                      splice: bool, tagger) -> list[TokenSequence]:
    return [linearize(dlg, vocab, max_len, policy, tagger, splice)
            for dlg in dialogues]


def split_loaded_tensors(tensors: dict[str, Tensor]
                         ) -> tuple[dict[str, Tensor], Optional[PromptEmbeddings]]:
    """Separate a loaded checkpoint into backbone and optional prompts."""
    backbone = {n: t for n, t in tensors.items() if n != PROMPT_PARAM_NAME}
    prompt = tensors.get(PROMPT_PARAM_NAME)
    return backbone, None if prompt is None else PromptEmbeddings(prompt)


def override_channels(config: ModelConfig, **overrides) -> ModelConfig:
    """``config`` with each override (``use_lexical``, ``use_entity``,
    ``dropout``) that is not None in place of its own value."""
    return replace(config, **{k: v for k, v in overrides.items()
                              if v is not None})


def load_backbone(path, vocab_size: int, **overrides
                  ) -> tuple[ModelConfig, dict[str, Tensor],
                             Optional[PromptEmbeddings]]:
    """A checkpoint's config under ``override_channels``, its backbone and
    prompts (None without), checked against a ``vocab_size`` vocabulary."""
    config, tensors = load_checkpoint(path)
    if config.vocab_size != vocab_size:
        raise DataError(
            f"checkpoint vocab_size={config.vocab_size} disagrees with "
            f"vocabulary of size {vocab_size}")
    return (override_channels(config, **overrides),
            *split_loaded_tensors(tensors))


# Padded rows one scoring group may span: B sequences, the longest of T
# tokens, behind P prompt rows span B * (P + T). Any other size moves the
# float32 eval bits. Groups run side by side, one per CPU, so peak scoring
# memory holds about _CPUS groups' buffers. A group runs whole on one
# thread, but the two threads hand the GIL to each other between numpy
# calls, and a small group spends more of its time doing so. Scoring the
# 100 dialogues of the benchmark's infer workload in one process (2 vCPUs,
# one BLAS thread; median of 20 interleaved passes; peak RSS of a process
# that loads and scores) at 512 / 640 / 768 / 1024 rows:
#   2 CPUs: 109k / 120k / 133k / 145k tokens/s, 44.0 / 44.5 / 46.1 /
#     49.5 MB, 1913 / 1461 / 1046 / 696 voluntary context switches a pass;
#   taskset -c 0: 90k / 92k / 93k / 100k tokens/s, 41.0 / 41.4 / 42.0 /
#     43.4 MB, no context switches.
# 1024 rows was faster still but raised peak RSS 12%. Unmeasured on more
# than 2 CPUs.
EVAL_ROWS = 768


def evaluate_ppl(params: dict[str, Tensor], config: ModelConfig,
                 seqs: list[TokenSequence],
                 prompts: Optional[PromptEmbeddings] = None) -> float:
    """exp of the mean masked NLL over the dataset, every unmasked token
    weighted equally; NumericError when that is not a finite number.

    The sequences that carry loss are sorted by length and neighbours are
    packed into groups of at most EVAL_ROWS padded rows (a longer
    sequence is a group alone); each group is one pass without dropout,
    the passes run side by side (``autodiff.spread``), and their float32
    NLL sums are added in float64 in group order. In float64 this equals
    scoring one sequence at a time; in float32 the last bits of a
    sequence's NLL depend on the longest member of its group, which sets
    the padded width of the attention softmax.
    """
    if not seqs:
        raise DataError("cannot evaluate perplexity on an empty dataset")
    _keep_freed_heap()
    prompt_matrix = prompts.matrix if prompts is not None else None
    n_prompt = prompt_matrix.shape[0] if prompts is not None else 0
    scored = sorted((s for s in seqs if any(s.loss_mask[1:])), key=len)
    if not scored:
        raise DataError("no loss-contributing tokens in the dataset")
    total_weight = sum(sum(map(bool, s.loss_mask[1:])) for s in scored)
    groups: list[list[TokenSequence]] = [[]]
    for seq in scored:  # seq is the longest of its group so far
        group = groups[-1]
        if group and (len(group) + 1) * (n_prompt + len(seq)) > EVAL_ROWS:
            groups.append([])
        groups[-1].append(seq)

    def score(i):
        return token_nll(groups[i], params, config, prompt_matrix)

    with ad.no_grad():
        nlls = ad.spread(score, len(groups))
    total_nll = 0.0
    for nll in nlls:  # in group order; sum() compensates from Python 3.12
        total_nll += float(nll.data)
    mean_nll = total_nll / total_weight
    try:
        ppl = math.exp(mean_nll)
    except OverflowError:
        ppl = math.inf
    if not math.isfinite(ppl):
        raise NumericError(f"mean NLL {mean_nll!r} has no finite perplexity")
    return ppl


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds so that freed step arrays are reused.

    A batched step or scoring pass allocates and frees tens of megabytes
    in arrays of 0.1-5 MB (padded attention scores, logits, FFW
    activations). Under glibc's dynamic thresholds, whether those blocks
    come back from the heap or are unmapped and faulted in afresh depends
    on the process's allocation history: identical p-tuning runs on a
    2-vCPU VM took about 1.0 or 1.7 s, with 200k+ page faults each in the
    slow processes and a third of the time in the kernel. Blocks under
    32 MB now come from the heap and up to 512 MB of free heap is kept, so
    every step after the first reuses pages already mapped. Results are
    unchanged; a C library without mallopt is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)


# Sequence groups one training step runs side by side: the batch in batch
# order, cut into this many runs of equal size (to one sequence). The
# gradient sums, and so the bytes of a run, depend on this number, never
# on the CPU count. The shipped pretrain (2 vCPUs, one BLAS thread, two
# runs each) took 20.4-21.6 s with one group, 12.9-14.9 s with two,
# 15.7-17.6 s with three and 14.2-17.2 s with four. Unmeasured on more
# than 2 CPUs.
_GROUPS = 2


def _batch_grads(batch: list[TokenSequence], params: dict[str, Tensor],
                 trainable: dict[str, Tensor], config: ModelConfig,
                 rng: Optional[np.random.Generator]
                 ) -> tuple[float, dict[str, np.ndarray]]:
    """The loss of ``batch``, a ``batch_loss`` with dropout drawn from
    ``rng``, and the gradient of each ``trainable`` tensor it reaches, in
    trainable order. ``params`` holds the backbone; ``trainable`` holds
    the tensors that train: backbone tensors, the prompt matrix under
    PROMPT_PARAM_NAME, or both.

    The batch runs as ``_GROUPS`` runs of its sequences, through
    ``autodiff.spread``. Every group builds its part of the loss over the
    same parameter tensors, which nothing writes during the step, on its
    thread's tape, with its block of one ``dropout_draws`` call, takes
    the gradients ``backward`` returns and drops that tape. Losses (in
    float64) and gradients are then added in group order. A group whose
    loss is not finite skips ``backward``; the summed loss shows it.
    """
    cuts = [len(batch) * g // _GROUPS for g in range(_GROUPS + 1)]
    groups = [batch[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    prompts = trainable.get(PROMPT_PARAM_NAME)
    drops = dropout_draws(groups, 0 if prompts is None else prompts.shape[0],
                          config, rng)

    def run(g):
        ad.reset_tape()
        grads = {}
        try:
            loss = batch_loss(groups[g], params, config, prompts=prompts,
                              drop=drops[g], batch_size=len(batch))
            value = float(loss.data)
            if math.isfinite(value):
                grads = ad.backward(loss)
        finally:
            ad.reset_tape()  # the group's graph goes with it
        return value, grads

    parts = ad.spread(run, len(groups))
    got = {name: [grads[t] for _, grads in parts if t in grads]
           for name, t in trainable.items()}
    return (sum(value for value, _ in parts),  # both in group order
            {name: sum(g[1:], g[0]) for name, g in got.items() if g})


def train(run: RunConfig) -> TrainResult:
    """Run one complete experiment; deterministic under run.seed."""
    _keep_freed_heap()
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    init_seed, _, shuffle_seed, drop_seed, prompt_seed = spawn_seeds(run.seed)

    vocab = load_vocab(run.vocab_path)
    corpus = load_corpus(run.corpus_path)
    train_dlgs, test_dlgs = split_corpus(corpus, run.split_ratio, run.seed)

    if run.mode == "pretrain":
        config = run.model
        if config.vocab_size == 0:
            config = replace(config, vocab_size=len(vocab))
        if config.vocab_size != len(vocab):
            raise DataError(
                f"model vocab_size={config.vocab_size} disagrees with "
                f"vocabulary of size {len(vocab)}")
        params = init_parameters(config, init_seed)
    else:
        config, params, _ = load_backbone(run.backbone_path, len(vocab))
    config = override_channels(config, use_lexical=run.use_lexical,
                               use_entity=run.use_entity, dropout=run.dropout)

    tagger = build_tagger_from_files(run.noun_lexicons, run.adj_lexicons,
                                     run.verb_lexicons)
    train_seqs = prepare_sequences(train_dlgs, vocab, config.max_len,
                                   run.loss_mask_policy, run.splice, tagger)
    test_seqs = prepare_sequences(test_dlgs, vocab, config.max_len,
                                  run.loss_mask_policy, run.splice, tagger)

    prompts, trainable = None, params
    if run.mode == "ptune":
        prompts = init_prompts(run.v_p, config.hidden, prompt_seed)
        for t in params.values():
            t.requires_grad = False
        trainable = {PROMPT_PARAM_NAME: prompts.matrix}

    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seed))
    drop_rng = np.random.Generator(np.random.PCG64(drop_seed))

    state = OptimizerState()
    metrics = MetricsLog()
    ckpt_path = out_dir / "final.ckpt"
    step = 0
    try:
        for _epoch in range(run.epochs):
            order = shuffle_rng.permutation(len(train_seqs))
            for lo in range(0, len(order), run.batch_size):
                batch = [train_seqs[i] for i in order[lo:lo + run.batch_size]]
                loss_val, grads = _batch_grads(batch, params, trainable,
                                               config, drop_rng)
                if not math.isfinite(loss_val):
                    raise NumericError(f"loss diverged at step {step + 1}")
                clip_grad_norm(grads, CLIP)
                step += 1
                lr = lr_at(step, run.sched)
                adamw_step(trainable, grads, state, lr,
                           weight_decay=run.weight_decay)
                metrics.add(MetricsRow(step=step, lr=lr, loss=loss_val,
                                       ppl=float(np.exp(loss_val))))
    except NumericError:
        save_metrics(metrics, out_dir / "metrics.csv")
        raise

    final_ppl = evaluate_ppl(params, config, test_seqs, prompts=prompts)
    if metrics.rows:
        metrics.rows[-1].eval_ppl = final_ppl
    save_metrics(metrics, out_dir / "metrics.csv")
    save_checkpoint(ckpt_path, config, {**params, **trainable})
    return TrainResult(config=config, params=params, prompts=prompts,
                       metrics=metrics, checkpoint_path=ckpt_path,
                       final_eval_ppl=final_ppl)


def train_variants(base: RunConfig, variants) -> list[float]:
    """One complete run per ``(subdir, overrides)`` of ``variants``: base
    with the overrides, trained into ``base.out_dir / subdir``, every one
    built (so checked) before any trains. Returns the eval PPLs in order."""
    runs = [replace(base, out_dir=Path(base.out_dir) / subdir, **overrides)
            for subdir, overrides in variants]
    return [train(run).final_eval_ppl for run in runs]
