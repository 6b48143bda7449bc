"""Documented key=value run-configuration files.

One ``key = value`` pair per line, keys namespaced with dots. A ``#``
at the start of a line or after whitespace starts a comment; anywhere
else it is part of the value, so ``runs#2/c.jsonl`` is a path. Paths are
resolved relative to the config file so config trees can be shipped and
moved as a unit. ``load_run_config`` builds one self-checking RunConfig.
No list of keys exists apart from the code that reads them: a command
refuses any key it did not read (``KV.refuse_unread``).
"""
from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .atomic import atomic_write, read_lines
from .errors import ConfigError
from .model import ModelConfig
from .training import RunConfig, make_run_config

_COMMENT = re.compile(r"(?:^|\s)#")


def read_kv(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path, ConfigError, "config file"),
                                 start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def write_kv(path, mapping: dict) -> None:
    """``key = value`` lines in key order, written atomically."""
    with atomic_write(path) as fh:
        for key in sorted(mapping):
            fh.write(f"{key} = {mapping[key]}\n")


class KV:
    """Typed access to a config file, with paths anchored at the file.
    Every reader goes through ``str_``, which records the key as read."""

    def __init__(self, path):
        self.path = Path(path)
        self.table = read_kv(self.path)
        self.read: set[str] = set()

    def refuse_unread(self, command: str) -> None:
        """Raise a ConfigError naming every key that ``command`` did not
        read; a command calls it after its last read, before its work."""
        unread = sorted(self.table.keys() - self.read)
        if unread:
            raise ConfigError(
                f"{self.path}: the {command} command does not read "
                + ", ".join(map(repr, unread)))

    def present(self, fields) -> dict:
        """{name: read(self, key)} for each (key, name, read) of ``fields``
        whose key is set; an absent key keeps the default of its field."""
        return {name: read(self, key) for key, name, read in fields
                if key in self.table}

    def str_(self, key: str, default: Optional[str] = None) -> str:
        self.read.add(key)
        if key in self.table:
            return self.table[key]
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def int_(self, key: str, default: Optional[int] = None) -> int:
        raw = self.str_(key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {raw!r} is not an integer") from exc

    def float_(self, key: str) -> float:
        raw = self.str_(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {raw!r} is not a number") from exc

    def bool_(self, key: str, default: Optional[bool] = None) -> bool:
        raw = self.str_(key, None if default is None else str(default)).lower()
        if raw in ("true", "yes", "1", "on"):
            return True
        if raw in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key {key!r}: {raw!r} is not a boolean")

    def _resolve(self, key: str, raw: str) -> Path:
        try:
            return (self.path.parent / raw).resolve()
        except (OSError, ValueError) as exc:  # e.g. an embedded NUL byte
            raise ConfigError(f"key {key!r}: bad path {raw!r} ({exc})") from exc

    def path_(self, key: str) -> Path:
        return self._resolve(key, self.str_(key))

    def paths_(self, key: str) -> tuple[Path, ...]:
        return tuple(self._resolve(key, part.strip())
                     for part in self.str_(key, "").split(",") if part.strip())


def parse_ratio(raw: str) -> tuple[int, int]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"split ratio must look like '100:1', got {raw!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"split ratio must be integers, got {raw!r}") from exc
    return a, b


def parse_counts(raw: str) -> list[int]:
    try:
        counts = [int(p.strip()) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"counts must be integers, got {raw!r}") from exc
    if not counts:
        raise ConfigError("empty counts list")
    if len(set(counts)) != len(counts):
        raise ConfigError(f"counts must not repeat, got {raw!r}")
    return counts


# optional keys, each with the field it sets and its reader
CHANNEL_KEYS = (("model.dropout", "dropout", KV.float_),
                ("model.lexical", "use_lexical", KV.bool_),
                ("model.entity", "use_entity", KV.bool_))
DECODE_KEYS = (("generate.strategy", "strategy", KV.str_),
               ("generate.max_new", "max_new", KV.int_),
               ("generate.top_k", "top_k", KV.int_))
SCHEDULE_KEYS = (("lr.peak", "peak_lr", KV.float_),
                 ("lr.min", "min_lr", KV.float_),
                 ("lr.warmup_steps", "warmup_steps", KV.int_),
                 ("lr.decay_end_step", "decay_end_step", KV.int_))
RUN_KEYS = (("data.split", "split_ratio",
             lambda kv, key: parse_ratio(kv.str_(key))),
            ("train.batch_size", "batch_size", KV.int_),
            ("train.epochs", "epochs", KV.int_),
            ("train.weight_decay", "weight_decay", KV.float_),
            ("loss_mask", "loss_mask_policy", KV.str_),
            ("splice", "splice", KV.bool_),
            ("tagger.nouns", "noun_lexicons", KV.paths_),
            ("tagger.adjectives", "adj_lexicons", KV.paths_),
            ("tagger.verbs", "verb_lexicons", KV.paths_))
PTUNE_KEYS = (("ptune.v_p", "v_p", KV.int_),)


def load_run_config(kv: KV, mode: str, out_dir, seed: int) -> RunConfig:
    """Build a RunConfig for one of the training subcommands, run under the
    seed the command line resolved."""
    declared = kv.str_("mode", mode)
    if declared != mode:
        raise ConfigError(f"config declares mode {declared!r} but the "
                          f"{mode!r} command was invoked")
    run = make_run_config(
        mode,
        corpus_path=kv.path_("data.corpus"),
        vocab_path=kv.path_("data.vocab"),
        out_dir=Path(out_dir),
        seed=seed,
        model=ModelConfig(
            n_layers=kv.int_("model.layers"),
            n_heads=kv.int_("model.heads"),
            hidden=kv.int_("model.hidden"),
            vocab_size=0,  # derived from the vocabulary at train time
            max_len=kv.int_("model.max_len"),
        ) if mode == "pretrain" else None,
        backbone_path=None if mode == "pretrain" else kv.path_("backbone"),
        **kv.present(RUN_KEYS + CHANNEL_KEYS
                     + (PTUNE_KEYS if mode == "ptune" else ())),
    )
    return replace(run, sched=replace(run.sched, **kv.present(SCHEDULE_KEYS)))
