"""Decoder-only transformer with four-channel input embedding fusion.

The input embedding is the elementwise sum of word, position, lexical-tag
and entity-flag lookups; a disabled channel contributes exactly zero.
Blocks are pre-norm with residual connections; the LM head is tied to the
word embedding table.

One engine serves every caller: a batch of sequences runs as packed rows
(sequence after sequence, no padding) through the row-wise ops, and only
the fused attention op pads. A single sequence is a batch of one.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .annotation import ENTITY_TABLE_SIZE, LEX_TABLE_SIZE, LexTag
from .atomic import atomic_write
from .autodiff import Tensor
from .corpus import TokenSequence
from .errors import ConfigError, DataError, GptLabError

LN_EPS = 1e-5
INIT_STD = 0.02

CHECKPOINT_MAGIC = b"GLCK"
CHECKPOINT_VERSION = 2
PROMPT_PARAM_NAME = "prompt.emb"
# fixed embedding table sizes, which every checkpoint header records
TABLE_SIZES = {"lex_table_size": LEX_TABLE_SIZE,
               "entity_table_size": ENTITY_TABLE_SIZE}


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    hidden: int
    vocab_size: int
    max_len: int
    dropout: float = 0.1
    use_lexical: bool = True
    use_entity: bool = True

    def __post_init__(self):
        sizes = (self.n_layers, self.n_heads, self.hidden, self.vocab_size,
                 self.max_len)
        if not all(type(n) is int and n >= 0 for n in sizes):
            raise ConfigError(f"model sizes {sizes} must be integers >= 0")
        if min(self.n_layers, self.n_heads, self.hidden) < 1:
            raise ConfigError(f"n_layers={self.n_layers}, n_heads="
                              f"{self.n_heads} and hidden={self.hidden} "
                              f"must be >= 1")
        if not type(self.use_lexical) is type(self.use_entity) is bool:
            raise ConfigError(f"use_lexical={self.use_lexical!r} and use_entity"
                              f"={self.use_entity!r} must be booleans")
        if self.hidden % self.n_heads != 0:
            raise ConfigError(
                f"hidden={self.hidden} not divisible by n_heads={self.n_heads}")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def ffw_dim(self) -> int:
        return 4 * self.hidden


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every named backbone tensor and its shape, in canonical order."""
    h = config.hidden
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, h),
        "pos_emb": (config.max_len, h),
        "lex_emb": (LEX_TABLE_SIZE, h),
        "ent_emb": (ENTITY_TABLE_SIZE, h),
    }
    for i in range(config.n_layers):
        p = f"layer{i}"
        shapes[f"{p}.ln1.gamma"] = (h,)
        shapes[f"{p}.ln1.beta"] = (h,)
        # query | key | value maps side by side, heads in each third
        shapes[f"{p}.wqkv"] = (h, 3 * h)
        shapes[f"{p}.attn_out"] = (h, h)
        shapes[f"{p}.ln2.gamma"] = (h,)
        shapes[f"{p}.ln2.beta"] = (h,)
        shapes[f"{p}.ffw_in.w"] = (h, config.ffw_dim)
        shapes[f"{p}.ffw_in.b"] = (config.ffw_dim,)
        shapes[f"{p}.ffw_out.w"] = (config.ffw_dim, h)
        shapes[f"{p}.ffw_out.b"] = (h,)
    shapes["ln_f.gamma"] = (h,)
    shapes["ln_f.beta"] = (h,)
    return shapes


def init_parameters(config: ModelConfig, seed: int,
                    dtype=np.float32) -> dict[str, Tensor]:
    """normal(0, 0.02) weights, ones for norm gains, zeros for offsets/biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".gamma"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith((".beta", ".b")):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _dropout(x: Tensor, keep: Optional[np.ndarray]) -> Tensor:
    return x if keep is None else ad.mul(x, Tensor(keep))


def _drop_rows(seqs: list[TokenSequence], n_prompt: int,
               config: ModelConfig) -> list[int]:
    """Rows of each dropout site of each sequence, in draw order: sequence
    by sequence, its embedding rows, then P + T rows for attention and for
    FFW of each layer."""
    return [n for s in seqs
            for n in [len(s)] + [n_prompt + len(s)] * (2 * config.n_layers)]


def dropout_draws(groups: list[list[TokenSequence]], n_prompt: int,
                  config: ModelConfig, rng: Optional[np.random.Generator]
                  ) -> list[Optional[np.ndarray]]:
    """The uniform numbers behind the dropout masks of each group of a
    batch; Nones when dropout is off or ``rng`` is None.

    One float64 ``rng.random`` call of [rows, hidden] covers every
    sequence of every group in turn, row blocks in ``_drop_rows`` order,
    so a batch consumes the generator exactly as the sequences one at a
    time would, however it is grouped, and each group takes one
    contiguous block. A float32 draw, or one draw per site, would take
    other numbers from the stream and change every run that trains with
    dropout.
    """
    if config.dropout <= 0.0 or rng is None:
        return [None] * len(groups)
    rows = [sum(_drop_rows(group, n_prompt, config)) for group in groups]
    draw = rng.random((sum(rows), config.hidden))
    return np.split(draw, np.cumsum(rows)[:-1])


def _dropout_masks(seqs: list[TokenSequence], n_prompt: int,
                   config: ModelConfig, drop: Optional[np.ndarray],
                   dtype) -> list[Optional[np.ndarray]]:
    """Packed keep/(1-rate) masks for the embedding, then attention and FFW
    of each layer, from the sequences' ``dropout_draws`` block ``drop``;
    None everywhere without one."""
    sites = 1 + 2 * config.n_layers
    if drop is None:
        return [None] * sites
    rate = config.dropout
    parts = np.split(drop >= rate,
                     np.cumsum(_drop_rows(seqs, n_prompt, config))[:-1])
    masks = []
    for site in range(sites):
        mask = np.concatenate(parts[site::sites]).astype(dtype)
        mask /= 1.0 - rate
        masks.append(mask)
    return masks


def _pack(seqs: list[TokenSequence], field: str) -> np.ndarray:
    return np.concatenate([np.asarray(getattr(s, field), dtype=np.int64)
                           for s in seqs])


def _embed_rows(seqs: list[TokenSequence], params: dict[str, Tensor],
                config: ModelConfig) -> Tensor:
    """Four-channel embeddings of every token of ``seqs``, packed."""
    for seq in seqs:
        if len(seq) > config.max_len:
            raise GptLabError(
                f"sequence length {len(seq)} exceeds max_len {config.max_len}")
    x = ad.add(ad.take_rows(params["tok_emb"], _pack(seqs, "ids")),
               ad.take_rows(params["pos_emb"], _pack(seqs, "position_ids")))
    if config.use_lexical:
        x = ad.add(x, ad.take_rows(params["lex_emb"],
                                   _pack(seqs, "lexical_tags")))
    if config.use_entity:
        x = ad.add(x, ad.take_rows(params["ent_emb"],
                                   _pack(seqs, "entity_flags")))
    return x


class RowStore:
    """The query/key/value rows one sequence has run through each layer,
    kept for decoding: ``rows`` [layers, P + max_len, 3H] for the P rows of
    ``prompts`` (P = 0 for None), filled up to ``past``; ``forward_batch``
    writes a call's rows after them."""

    def __init__(self, config: ModelConfig, prompts: Optional[Tensor],
                 dtype):
        n_prompt = prompts.shape[0] if prompts is not None else 0
        self.rows = np.empty((config.n_layers, n_prompt + config.max_len,
                              3 * config.hidden), dtype=dtype)
        self.past = 0


def _block(x: Tensor, params: dict[str, Tensor], layer: int,
           config: ModelConfig, lengths: list[int],
           attn_keep: Optional[np.ndarray],
           ffw_keep: Optional[np.ndarray],
           cache: Optional[RowStore],
           first: Optional[Sequence[int]]) -> Tensor:
    """One pre-norm block; with ``first`` only rows first[b] onwards of
    each sequence b come out (keys and values still use every row); with
    a ``cache``, attention also runs over its ``past`` stored rows."""
    p = f"layer{layer}"
    normed = ad.layer_norm(x, params[f"{p}.ln1.gamma"],
                           params[f"{p}.ln1.beta"], LN_EPS)
    qkv = ad.matmul(normed, params[f"{p}.wqkv"])
    if cache is None:
        heads = ad.attention(qkv, config.n_heads, lengths, first=first)
    else:
        past = cache.past
        stored = cache.rows[layer, :past + qkv.shape[0]]
        stored[past:] = qkv.data
        heads = ad.attention(Tensor(stored), config.n_heads, [len(stored)],
                             first=[past + (first[0] if first else 0)])
    if first is not None:
        rows = ad.suffix_rows(lengths, first)
        x = ad.take_rows(x, rows)
        attn_keep, ffw_keep = (None if m is None else m[rows]
                               for m in (attn_keep, ffw_keep))
    attn = _dropout(ad.matmul(heads, params[f"{p}.attn_out"]), attn_keep)
    x = ad.add(x, attn)
    normed = ad.layer_norm(x, params[f"{p}.ln2.gamma"],
                           params[f"{p}.ln2.beta"], LN_EPS)
    hidden = ad.gelu(ad.matmul(normed, params[f"{p}.ffw_in.w"],
                               bias=params[f"{p}.ffw_in.b"]))
    out = ad.matmul(hidden, params[f"{p}.ffw_out.w"],
                    bias=params[f"{p}.ffw_out.b"])
    return ad.add(x, _dropout(out, ffw_keep))


def forward_batch(seqs: list[TokenSequence], params: dict[str, Tensor],
                  config: ModelConfig, prompts: Optional[Tensor] = None,
                  drop: Optional[np.ndarray] = None,
                  cache: Optional[RowStore] = None,
                  first: Optional[Sequence[int]] = None) -> Tensor:
    """Logits over the vocabulary for a batch, on packed rows: sequence b
    owns P + len(seqs[b]) consecutive rows, its P prompt rows first.

    Prompt rows get no positional/lexical/entity additions, every real
    token can attend to every prompt row of its own sequence, and no
    sequence sees another. Dropout runs exactly when ``drop``, the
    sequences' block of ``dropout_draws``, is given.
    With a ``cache`` (one sequence, grad recording off), the call's rows
    continue the ``cache.past`` rows stored there: each block stores its
    query/key/value rows after them and attends over all of them, and
    ``cache.past`` then counts the call's rows too.

    With ``first``, logits come back for tokens first[b] onwards of each
    sequence b only, never for a prompt row: the last block after its
    key/value map, the final norm and the LM head run on those rows alone.
    This is the one place that turns a token index into a row. Dropout
    masks are drawn for every row all the same.
    """
    n_prompt = prompts.shape[0] if prompts is not None else 0
    if prompts is not None and prompts.shape[1:] != (config.hidden,):
        raise ConfigError(f"prompt matrix of shape {prompts.shape} needs "
                          f"rows of the hidden size {config.hidden}")
    if first is not None:
        first = [n_prompt + f for f in first]  # token index -> row
        if not any(first):
            first = None  # every row
    lengths = [n_prompt + len(s) for s in seqs]
    if cache is not None and (ad.grad_enabled() or len(seqs) != 1):
        raise GptLabError("a cache serves one sequence, grad recording off")
    if cache is not None and cache.past + lengths[0] > cache.rows.shape[1]:
        raise GptLabError(f"{cache.past + lengths[0]} rows overflow a "
                          f"cache of {cache.rows.shape[1]}")
    masks = _dropout_masks(seqs, n_prompt, config, drop,
                           params["tok_emb"].dtype)
    x = _dropout(_embed_rows(seqs, params, config), masks[0])
    if prompts is not None:
        # rows of [prompts; tokens] in batch order: P prompt rows, then
        # the sequence's own token rows, for each sequence
        starts = np.cumsum([n_prompt] + [len(s) for s in seqs[:-1]])
        layout = np.concatenate([np.r_[0:n_prompt, lo:lo + len(s)]
                                 for lo, s in zip(starts, seqs)])
        x = ad.take_rows(ad.concat_rows([prompts, x]), layout)
    for layer in range(config.n_layers):
        x = _block(x, params, layer, config, lengths,
                   masks[1 + 2 * layer], masks[2 + 2 * layer], cache,
                   first if layer == config.n_layers - 1 else None)
    if cache is not None:
        cache.past += lengths[0]
    x = ad.layer_norm(x, params["ln_f.gamma"], params["ln_f.beta"], LN_EPS)
    return ad.matmul(x, ad.transpose(params["tok_emb"]))  # tied LM head


def forward(seq: TokenSequence, params: dict[str, Tensor],
            config: ModelConfig, prompts: Optional[Tensor] = None) -> Tensor:
    """Logits over the vocabulary, one row per (prompt or real) position
    of one sequence, without dropout: ``forward_batch`` of a batch of one.
    """
    return forward_batch([seq], params, config, prompts=prompts)


def _loss_rows(seqs: list[TokenSequence]):
    """For each sequence the token f before its first loss token (token
    j's row predicts token j + 1), then the packed targets of its token
    rows from f on and its loss bits over them: ``ids[f+1:]`` and
    ``loss_mask[f+1:]``, and for the last row, which predicts nothing, a
    dummy target and False."""
    first, targets, live = [], [], []
    for seq in seqs:
        m = np.append(np.asarray(seq.loss_mask[1:], dtype=bool), False)
        if not m.any():
            raise DataError("all positions masked out of the loss")
        f = int(np.argmax(m))
        first.append(f)
        targets.append(np.append(np.asarray(seq.ids[f + 1:], np.int64), 0))
        live.append(m[f:])
    return first, np.concatenate(targets), live


def batch_loss(seqs: list[TokenSequence], params: dict[str, Tensor],
               config: ModelConfig, prompts: Optional[Tensor] = None,
               drop: Optional[np.ndarray] = None,
               batch_size: Optional[int] = None) -> Tensor:
    """Mean over a batch of B = ``batch_size`` sequences (default: those of
    ``seqs``) of each sequence's mean next-token NLL over its unmasked
    positions: the part that ``seqs``, a run of the batch, carries, in one
    graph. A loss row of sequence b weighs 1/(B * n_b). Dropout runs when
    ``drop``, the run's block of ``dropout_draws``, is given. The last
    block and the LM head run only from the token before each sequence's
    first loss token on."""
    first, targets, live = _loss_rows(seqs)
    n_seqs = len(seqs) if batch_size is None else batch_size
    weights = np.concatenate([m / (n_seqs * int(m.sum())) for m in live])
    logits = forward_batch(seqs, params, config, prompts=prompts, drop=drop,
                           first=first)
    return ad.cross_entropy(logits, targets, weights)


def token_nll(seqs: list[TokenSequence], params: dict[str, Tensor],
              config: ModelConfig, prompts: Optional[Tensor] = None) -> Tensor:
    """Sum of the next-token NLL over every unmasked position of ``seqs``,
    each weighing 1, without dropout; the last block and the LM head run
    only from the token before each sequence's first loss token on."""
    first, targets, live = _loss_rows(seqs)
    logits = forward_batch(seqs, params, config, prompts=prompts,
                           first=first)
    return ad.cross_entropy(logits, targets, np.concatenate(live))


def check_decoding(strategy: str = "greedy", max_new: int = 0,
                   top_k: int = 1) -> None:
    """Refuse settings ``generate`` cannot decode with. Each default is a
    valid value, so a caller may pass only the settings it has."""
    if strategy not in ("greedy", "top_k"):
        raise ConfigError(f"unknown decoding strategy {strategy!r}")
    if max_new < 0:
        raise ConfigError(f"need max_new >= 0, got {max_new}")
    if top_k < 1:
        raise ConfigError(f"need top_k >= 1, got {top_k}")


def generate(history: TokenSequence, params: dict[str, Tensor],
             config: ModelConfig, strategy: str = "greedy",
             max_new: int = 32, seed: int = 0,
             prompts: Optional[Tensor] = None, top_k: int = 5,
             eos_id: Optional[int] = None) -> list[int]:
    """Autoregressive decoding; greedy is deterministic, top-k is
    deterministic under seed. New tokens are annotated OTHER/0.

    Prompts and history run once into a ``RowStore``, with logits for
    the history's last token only; after that each new token is fed as a
    one-token sequence that attends over the stored rows (see
    ``forward_batch``).
    """
    check_decoding(strategy, max_new, top_k)
    if not 0 < len(history) < config.max_len:
        raise GptLabError("history must hold 1 to max_len - 1 tokens")

    rng = np.random.Generator(np.random.PCG64(seed))
    cache = RowStore(config, prompts, params["tok_emb"].dtype)
    step, n = history, len(history)
    out: list[int] = []
    with ad.no_grad():
        while len(out) < max_new and n < config.max_len:
            logits = forward_batch([step], params, config, prompts=prompts,
                                   cache=cache,
                                   first=[len(step) - 1]).data[0]
            prompts = None  # their rows are in the cache
            if strategy == "greedy":
                nxt = int(np.argmax(logits))
            else:
                k = min(top_k, logits.size)
                cand = np.argsort(logits)[::-1][:k]
                z = logits[cand] - logits[cand].max()
                p = np.exp(z) / np.exp(z).sum()
                nxt = int(rng.choice(cand, p=p))
            out.append(nxt)
            step = TokenSequence(ids=[nxt], lexical_tags=[int(LexTag.OTHER)],
                                 entity_flags=[0], loss_mask=[False],
                                 position_ids=[n])
            n += 1
            if eos_id is not None and nxt == eos_id:
                break
    return out


# --- checkpoint container ---

def _header(config: ModelConfig, shapes: dict[str, tuple[int, ...]]) -> bytes:
    """The JSON header of a container holding float32 tensors of ``shapes``,
    laid back to back from offset 0 in that order."""
    entries = []
    offset = 0
    for name, shape in shapes.items():
        nbytes = 4 * math.prod(shape)
        entries.append({"name": name, "shape": list(shape),
                        "dtype": "<f4", "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return json.dumps({
        "version": CHECKPOINT_VERSION,
        "config": {**asdict(config), **TABLE_SIZES},
        "tensors": entries,
    }, sort_keys=True).encode("utf-8")


def save_checkpoint(path, config: ModelConfig,
                    tensors: dict[str, Tensor]) -> None:
    """Self-describing container, written atomically: magic, version and
    header length, the ``_header`` of the given tensors' shapes, then each
    tensor's raw little-endian float32 data in the same order."""
    header = _header(config, {name: t.shape for name, t in tensors.items()})
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for t in tensors.values():
            fh.write(t.data.astype("<f4").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Load a container as ``save_checkpoint`` writes it for the backbone
    of its config, optionally followed by a prompt matrix under
    PROMPT_PARAM_NAME of one row of width ``hidden`` per prompt. The header
    must equal, byte for byte, the ``_header`` of that config and prompt
    count, and the body must hold exactly the bytes it lists; any other
    file raises DataError.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from exc
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint container")
    preamble = len(CHECKPOINT_MAGIC) + struct.calcsize("<IQ")
    if len(blob) < preamble:
        raise DataError(f"{path}: truncated container preamble")
    version, hlen = struct.unpack_from("<IQ", blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported container version {version}")
    if len(blob) < preamble + hlen:
        raise DataError(f"{path}: truncated header")
    stored = blob[preamble:preamble + hlen]
    try:
        header = json.loads(stored.decode("utf-8"))
        config = ModelConfig(**{key: value for key, value in dict(
            header["config"]).items() if key not in TABLE_SIZES})
        shapes = parameter_shapes(config)
        if len(header["tensors"]) == len(shapes) + 1:  # prompts come last
            rows = header["tensors"][-1]["shape"][0]
            if type(rows) is not int or rows < 1:
                raise ValueError(f"{PROMPT_PARAM_NAME} has {rows!r} rows")
            shapes[PROMPT_PARAM_NAME] = (rows, config.hidden)
    except (ValueError, LookupError, TypeError, RecursionError,
            ConfigError) as exc:
        raise DataError(f"{path}: malformed header ({exc})") from exc
    if _header(config, shapes) != stored:
        raise DataError(
            f"{path}: tensor table is not the layout its config implies")
    counts = [math.prod(shape) for shape in shapes.values()]
    body = memoryview(blob)[preamble + hlen:]
    if len(body) != 4 * sum(counts):
        raise DataError(f"{path}: {len(body)} bytes of tensor data, "
                        f"the header lists {4 * sum(counts)}")
    tensors: dict[str, Tensor] = {}
    offset = 0
    for (name, shape), count in zip(shapes.items(), counts):
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
        tensors[name] = Tensor(arr.reshape(shape).astype(np.float32),
                               requires_grad=True)
        offset += 4 * count
    return config, tensors
