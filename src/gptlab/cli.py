"""Command-line surface: reproducible experiments driven by config files.

Every command takes --config/--out (--force allows a non-empty output
directory), and every one but build-vocab, which draws nothing at random,
takes --seed to override the config seed. Each command reads its keys and
then, before any work, refuses a config key it did not read, so a typo or
a key meant for another command is a config error. ``main`` loads the
config, makes the output directory, resolves the seed, runs the command
and writes ``config.kv`` (the config with that seed) last, so a failed
command leaves no ``config.kv``: a config or data error leaves a fresh
output directory empty and the corrected rerun needs no --force, and a run
that diverges keeps its metrics.csv. Exit codes: 0 success, 2 config
error, 3 data error, 4 numeric divergence.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .config import (CHANNEL_KEYS, DECODE_KEYS, KV, load_run_config,
                     parse_counts, parse_ratio, write_kv)
from .corpus import SyntheticSpec, generate_synthetic, load_corpus, save_corpus
from .errors import ConfigError, DataError, GptLabError, NumericError
from .model import generate as model_generate
from .training import (build_tagger_from_files, evaluate_ppl, load_backbone,
                       prepare_sequences, read_lexicon, split_corpus, train,
                       train_variants)
from .vocab import EOS_ID, build_vocab, decode, load_vocab, save_vocab

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ABLATION_VARIANTS = (
    # name (run subdirectory and table row), RunConfig overrides
    ("none", dict(use_lexical=False, use_entity=False, splice=False)),
    ("lexical", dict(use_lexical=True, use_entity=False, splice=False)),
    ("entity", dict(use_lexical=False, use_entity=True, splice=False)),
    ("both", dict(use_lexical=True, use_entity=True, splice=False)),
    ("splice", dict(use_lexical=False, use_entity=False, splice=True)),
)


def prepare_out_dir(out, force: bool) -> Path:
    """Make ``out`` if it is missing; refuse a path that is not a
    directory, and a non-empty directory without ``force``."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        reused = any(out.iterdir())
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory "
                          f"({exc.strerror})") from exc
    if reused and not force:
        raise ConfigError(
            f"output directory {out} is not empty (pass --force to reuse)")
    return out


def _out_file(kv: KV, key: str, default: str, out: Path) -> Path:
    """The file that ``key`` names directly inside ``out``."""
    name = kv.str_(key, default)
    if "\0" in name or Path(name).name != name or (out / name).is_dir():
        raise ConfigError(f"key {key!r}: {name!r} is not a file name "
                          f"inside the output directory")
    return out / name


def cmd_gen_synthetic(kv: KV, out: Path, seed: int) -> None:
    lexicons = {"symptoms": kv.path_("lexicon.symptoms"),
                "diseases": kv.path_("lexicon.diseases"),
                "drugs": kv.path_("lexicon.drugs")}
    sizes = dict(n_dialogues=kv.int_("corpus.count"), **kv.present((
        ("corpus.turns_min", "turns_min", KV.int_),
        ("corpus.turns_max", "turns_max", KV.int_),
        ("corpus.style", "style", KV.str_),
        ("corpus.mentions", "n_mentions", KV.int_))))
    path = _out_file(kv, "corpus.out", "corpus.jsonl", out)
    kv.refuse_unread("gen-synthetic")
    spec = SyntheticSpec(**{field: read_lexicon(lexicon)
                            for field, lexicon in lexicons.items()}, **sizes)
    corpus = generate_synthetic(spec, seed)
    save_corpus(corpus, path)
    print(f"wrote {len(corpus)} dialogues to {path}")


def cmd_build_vocab(kv: KV, out: Path, seed: None) -> None:
    corpus_paths = kv.paths_("data.corpus")
    if not corpus_paths:
        raise ConfigError("build-vocab needs data.corpus")
    path = _out_file(kv, "vocab.out", "vocab.txt", out)
    kv.refuse_unread("build-vocab")
    dialogues = []
    for p in corpus_paths:
        dialogues.extend(load_corpus(p))
    vocab = build_vocab(dialogues)
    save_vocab(vocab, path)
    print(f"wrote vocabulary of size {len(vocab)} to {path}")


def _cmd_train(mode: str, kv: KV, out: Path, seed: int) -> None:
    run = load_run_config(kv, mode, out, seed)
    kv.refuse_unread(mode)
    result = train(run)
    print(f"{mode}: {len(result.metrics.rows)} steps, "
          f"final eval ppl {result.final_eval_ppl:.4f}, "
          f"checkpoint {result.checkpoint_path}")


cmd_pretrain = functools.partial(_cmd_train, "pretrain")
cmd_finetune = functools.partial(_cmd_train, "finetune")
cmd_ptune = functools.partial(_cmd_train, "ptune")


def _read_eval_keys(kv: KV, ckpt_key: str):
    """Read the keys eval and generate share: the vocabulary, checkpoint
    (under the channel overrides), lexicons and corpus they name. Returns
    the function that loads them, to call once every key is read."""
    vocab_path, ckpt_path = kv.path_("data.vocab"), kv.path_(ckpt_key)
    overrides = kv.present(CHANNEL_KEYS)
    lexicons = (kv.paths_("tagger.nouns"), kv.paths_("tagger.adjectives"),
                kv.paths_("tagger.verbs"))
    corpus_path = kv.path_("data.corpus")

    def load():
        vocab = load_vocab(vocab_path)
        config, backbone, prompts = load_backbone(ckpt_path, len(vocab),
                                                  **overrides)
        return (config, backbone, prompts, vocab,
                build_tagger_from_files(*lexicons), load_corpus(corpus_path))
    return load


def cmd_eval(kv: KV, out: Path, seed: int) -> None:
    load = _read_eval_keys(kv, "eval.checkpoint")
    part = kv.str_("eval.part", "test")
    if part not in ("train", "test", "all"):
        raise ConfigError(f"eval.part must be train/test/all, got {part!r}")
    ratio = None if part == "all" else parse_ratio(kv.str_("data.split"))
    policy = kv.str_("loss_mask", "response")
    splice = kv.bool_("splice", False)
    kv.refuse_unread("eval")
    config, backbone, prompts, vocab, tagger, corpus = load()
    if ratio is not None:
        tr, te = split_corpus(corpus, ratio, seed)
        corpus = tr if part == "train" else te
    seqs = prepare_sequences(corpus, vocab, config.max_len, policy, splice,
                             tagger)
    ppl = evaluate_ppl(backbone, config, seqs, prompts=prompts)
    write_kv(out / "eval.txt", {"ppl": repr(ppl)})
    print(f"eval ppl {ppl:.6f} over {len(seqs)} dialogues ({part})")


def cmd_generate(kv: KV, out: Path, seed: int) -> None:
    load = _read_eval_keys(kv, "generate.checkpoint")
    index = kv.int_("generate.index", 0)
    decoding = kv.present(DECODE_KEYS)
    kv.refuse_unread("generate")
    config, backbone, prompts, vocab, tagger, corpus = load()
    if not (0 <= index < len(corpus)):
        raise DataError(f"generate.index {index} outside corpus of {len(corpus)}")
    dlg = corpus[index]
    seq = prepare_sequences([dlg], vocab, config.max_len, "response",
                            False, tagger)[0]
    # keep history + the final doctor marker; drop the reply text and EOS
    keep = len(seq) - (len(dlg.turns[-1].text) + 1)
    if keep < 1:
        raise DataError(f"generate.index {index}: the final reply fills all "
                        f"{config.max_len} tokens, leaving no history")
    history_seq = seq.prefix(keep)
    new_ids = model_generate(
        history_seq, backbone, config, seed=seed,
        prompts=prompts.matrix if prompts is not None else None,
        eos_id=EOS_ID, **decoding)
    lines = [
        f"dialogue = {dlg.id}",
        f"history = {decode(history_seq.ids, vocab)}",
        f"reference = {dlg.turns[-1].text}",
        f"generated = {decode(new_ids, vocab)}",
    ]
    with atomic_write(out / "generation.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    print(lines[-1])


def _cmd_variants(command: str, kv: KV, out: Path, seed: int) -> None:
    """p-tune one variant of the config per table row: each prompt count of
    ``sweep.counts`` (sweep-prompts, column ``v_p``) or each ablation
    variant (ablate, column ``variant``)."""
    base = load_run_config(kv, "ptune", out, seed)
    if command == "sweep-prompts":
        keys = parse_counts(kv.str_("sweep.counts", "1,25,50,75,100"))
        variants = [(f"vp{n}", {"v_p": n}) for n in keys]
        column, table = "v_p", "sweep.csv"
    else:
        keys = [name for name, _ in ABLATION_VARIANTS]
        variants = ABLATION_VARIANTS
        column, table = "variant", "ablation.csv"
    kv.refuse_unread(command)
    rows = list(zip(keys, train_variants(base, variants)))
    with atomic_write(out / table) as fh:
        fh.write(f"{column},ppl\n")
        fh.writelines(f"{key},{ppl!r}\n" for key, ppl in rows)
    for key, ppl in rows:
        print(f"{column}={key}  test ppl {ppl:.4f}")


cmd_sweep_prompts = functools.partial(_cmd_variants, "sweep-prompts")
cmd_ablate = functools.partial(_cmd_variants, "ablate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description="deterministic experiments for an entity-aware dialogue LM")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-synthetic": (cmd_gen_synthetic, "generate an annotated corpus"),
        "build-vocab": (cmd_build_vocab, "build a character vocabulary"),
        "pretrain": (cmd_pretrain, "train a model from scratch"),
        "finetune": (cmd_finetune, "tune every backbone parameter"),
        "ptune": (cmd_ptune, "tune prefix prompts against a frozen backbone"),
        "sweep-prompts": (cmd_sweep_prompts, "p-tune at several prompt counts"),
        "eval": (cmd_eval, "perplexity of a checkpoint on a corpus"),
        "generate": (cmd_generate, "decode a reply for one dialogue"),
        "ablate": (cmd_ablate, "run the five knowledge-channel variants"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        if name != "build-vocab":
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result is a NumericError, not a stream of warnings
        with np.errstate(all="ignore"):
            kv = KV(args.config)
            out = prepare_out_dir(args.out, args.force)
            echo = dict(kv.table)
            seed = None
            if args.command != "build-vocab":
                # read even under --seed, so a malformed seed is refused
                seed = kv.int_("seed", 0)
                if args.seed is not None:
                    seed = args.seed
                if seed < 0:
                    raise ConfigError(f"seed must be >= 0, got {seed}")
                echo["seed"] = str(seed)
            args.func(kv, out, seed)
            write_kv(out / "config.kv", echo)
            return EXIT_OK
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)
    except NumericError as exc:
        return _fail("numeric", exc, EXIT_NUMERIC)
    except GptLabError as exc:
        return _fail("internal", exc, EXIT_ERROR)


def _fail(category: str, exc: Exception, code: int) -> int:
    message = " ".join(str(exc).split())
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
