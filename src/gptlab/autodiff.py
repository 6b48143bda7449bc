"""Dense 2-D/3-D real tensors with tape-based reverse-mode differentiation.

Every tensor wraps the numpy float array it is given. Every op returns
through ``_op``, which gets the op's inputs once: with grad recording on
and one of them requiring grad, the result requires grad and the
module's one tape, driven from one thread, gains one ``(result, inputs,
vjp)`` entry. ``backward`` replays the tape once in reverse. The first
gradient array a tensor receives becomes its ``.grad`` (cast if its dtype
differs) and later ones are added into it. So for each input that needs
one, a vjp returns an array no other input's gradient holds: a fresh
array, its incoming gradient, or disjoint views of it (``backward`` never
reads an incoming gradient again); ``add`` gives its second input a copy.
After ``backward`` only leaves have a defined ``.grad``: an intermediate
tensor's is scratch.

Verification suites run in float64, training runs in float32; the dtype
of a result follows numpy promotion of its tensor inputs, so a graph stays
in whatever precision its leaves were created with. Ops take tensors
only, and ``add`` and ``mul`` take two of one shape, so no constant or
broadcast can promote a graph or hide a shape error.

``matmul`` takes an optional bias row, added in place to every row of the
product (so in the product's dtype): an affine layer is one op and one
tape entry.

A vjp returns None for every input that does not require grad, so frozen
weights cost no gradient work. Weight gradients that reduce over the row
axis are summed over fixed 128-row blocks (see ``_rows_t_matmul``), which
keeps them bit-identical whatever the BLAS thread count.

Attention, matmul, layer norm and GELU split their rows (attention: its
sequences) into one range per CPU, run by ``spread`` like perplexity
groups (a nested call runs inline; no task records on the tape). Rows are
computed as in one whole-array call, whatever the CPU and BLAS counts.
Groups, whose tasks call ops, run in order while ``ops_wrapped``.
"""
from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, GptLabError

GELU_COEF = 0.044715
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


class Tensor:
    """A dense real tensor, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Tape:
    """Ordered record of executed operations for one reverse pass."""

    __slots__ = ("entries", "consumed")

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.consumed = False


_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _tape


def reset_tape() -> Tape:
    """Install and return a fresh tape."""
    global _tape
    _tape = Tape()
    return _tape


class no_grad:
    """Context manager that suspends tape recording (pure evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _op(data, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """The tensor of an op's result ``data``. In grad mode, when one of
    ``inputs`` requires grad, it requires grad too and the tape records
    ``vjp`` for it, which maps its gradient to one per input in order."""
    out = Tensor(data, _grad_enabled and any(t.requires_grad for t in inputs))
    if out.requires_grad:
        _tape.entries.append((out, inputs, vjp))
    return out


def backward(loss: Tensor) -> None:
    """Populate the grads of the requires_grad leaves reachable from ``loss``.

    Replays the active tape in reverse exactly once; a tensor consumed by
    k operations receives the sum of the k contributions. A second call
    without ``reset_tape`` raises GptLabError.
    """
    tape = active_tape()
    if tape.consumed:
        raise GptLabError(
            "backward() already ran on this tape; call reset_tape() first")
    if loss.size != 1:
        raise GptLabError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GptLabError("loss is not connected to the active tape")
    if not any(out is loss for out, _, _ in tape.entries):
        raise GptLabError("loss was not produced by the active tape")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    for out, inputs, vjp in reversed(tape.entries):
        if out.grad is None:
            continue  # not on the path from loss
        for t, g in zip(inputs, vjp(out.grad)):
            if g is not None and t.requires_grad:
                if t.grad is None:  # g is t's own: see the module docstring
                    t.grad = g.astype(t.data.dtype, copy=False)
                else:
                    t.grad += g


# --- tasks and row ranges across CPUs ---

SPLIT_ROWS = 512  # fewest rows of work one range is worth a thread for
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)  # macOS has no affinity mask
_pool: Optional[queue.SimpleQueue] = None  # work for _CPUS - 1 threads
_in_task = contextvars.ContextVar("_in_task", default=False)
_probes: dict = {}  # a kernel's outputs on no rows, by argument layout


def _drop_pool() -> None:  # a forked child has none of its parent's threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_drop_pool)


def _serve(work: queue.SimpleQueue) -> None:
    while True:  # run each share of a spread call, then tell its caller
        done, run, args = work.get()
        run(*args)  # a share keeps what its tasks raise
        done.put(None)


def spread(task: Callable, n: int) -> list:
    """``[task(0), ..., task(n - 1)]``: the caller and up to ``_CPUS - 1``
    pool threads each take the next index no one has taken yet, in a copy
    of the caller's context (so under its numpy error state). Once every
    task has finished, the lowest index's exception is re-raised; one that
    is no ``Exception`` (a Ctrl-C) goes first and ends all index taking.
    From inside a task, or with one CPU, the tasks run in order on the
    calling thread, so the pool cannot deadlock. Tasks must not record on
    the tape, which with grad mode is one thread's module state: they run
    under ``no_grad`` or on numpy arrays only.
    """
    helpers = min(n, _CPUS) - 1
    if helpers < 1 or _in_task.get():
        return [task(i) for i in range(n)]
    global _pool
    if _pool is None:
        _pool = queue.SimpleQueue()
        for _ in range(_CPUS - 1):
            threading.Thread(target=_serve, args=(_pool,), daemon=True).start()
    results, errors, indices = [None] * n, {}, iter(range(n))

    def share():  # take the next index until none is left
        for i in indices:
            try:
                results[i] = task(i)
            except Exception as exc:  # re-raised by the caller
                errors[i] = exc
            except BaseException as exc:  # -1: re-raised before the others
                errors[-1] = exc
                for _ in indices:  # no share takes another index
                    pass

    done, inline = queue.SimpleQueue(), _in_task.set(True)
    for _ in range(helpers):  # each share's context inherits the flag
        _pool.put((done, contextvars.copy_context().run, (share,)))
    try:
        share()
    finally:
        for _ in indices:  # an interrupt between tasks leaves some
            pass
        _in_task.reset(inline)
        for _ in range(helpers):
            done.get()
    if errors:
        raise errors[min(errors)]
    return results


def ops_wrapped() -> bool:
    """Whether a public name here is rebound, say to a profiler's wrapper,
    which need not be thread-safe (perfbench's tracer keeps one span
    stack): tasks that call ops then run in order on the calling thread."""
    return any(globals()[name] is not own for name, own in _OWN.items())


def _split(kernel: Callable, sliced: tuple, shared: tuple = (),
           rows: Optional[int] = None):
    """``kernel(*sliced, *shared, None)``: the output arrays of a kernel
    whose last argument, ``out``, is None or a tuple of arrays to write
    them into. With SPLIT_ROWS of ``rows`` (default: the first axis's
    length) for each of two or more CPUs it runs instead through
    ``spread`` on contiguous ranges of the first axis, one per CPU, sliced
    up front (a just-woken pool thread runs Python slowly), into outputs
    laid out like those of a call on no rows, made once per kernel and
    argument layout (on empty arrays it took 5-25 us; probing on every
    call made the benchmark's pretrain call 0.8-1.5% slower: medians of 30
    in-process pairs at each of three seeds, 2-vCPU Xeon). A range writes
    only its own rows, so the result is the whole call's, bit for bit. Forward
    ops, which decoding runs on one row at a time, call their kernel
    directly below 2 * SPLIT_ROWS rows: entering this costs about 1 us.
    """
    n = len(sliced[0])
    parts = min((n if rows is None else rows) // SPLIT_ROWS, _CPUS, n)
    if parts < 2:
        return kernel(*sliced, *shared, None)
    key = (kernel, *((a.shape[1:], a.dtype) for a in sliced), *(
        (x.shape, x.dtype) if isinstance(x, np.ndarray) else x
        for x in shared))
    probe = _probes.get(key)
    if probe is None:
        probe = _probes[key] = kernel(*(a[:0] for a in sliced), *shared, None)
    outs = tuple(np.empty((n,) + o.shape[1:], o.dtype) for o in
                 (probe if isinstance(probe, tuple) else (probe,)))
    cuts = [n * i // parts for i in range(parts + 1)]
    calls = [(*(a[lo:hi] for a in sliced), *shared,
              tuple(o[lo:hi] for o in outs))
             for lo, hi in zip(cuts, cuts[1:])]
    spread(lambda i: kernel(*calls[i]), parts)
    return outs if isinstance(probe, tuple) else outs[0]


# --- operations ---

def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise GptLabError(f"{op} needs operands of one shape, "
                          f"got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    _same_shape("add", a, b)
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):  # one array must not become two tensors' gradients
        return (g if need_a else None,
                (g.copy() if need_a else g) if need_b else None)

    return _op(a.data + b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    _same_shape("mul", a, b)
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g * b_data if need_a else None,
                g * a_data if need_b else None)

    return _op(a_data * b_data, (a, b), vjp)


ROW_BLOCK = 128


def _rows_t_matmul(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """aᵀ·g, reduced over the shared row axis in blocks of ROW_BLOCK rows.

    OpenBLAS splits a long reduction differently at different thread
    counts, so one gemm over thousands of packed rows changes in the last
    bits with OPENBLAS_NUM_THREADS. Each block gemm is short enough to be
    thread-invariant, and the partials are summed in a fixed order.
    """
    full = a.shape[0] - a.shape[0] % ROW_BLOCK
    if not full:
        return a.T @ g
    a_blocks = a[:full].reshape(-1, ROW_BLOCK, a.shape[1]).transpose(0, 2, 1)
    acc = _split(_matmul_rows, (a_blocks, g[:full].reshape(
        -1, ROW_BLOCK, g.shape[1])), (None,), rows=full).sum(axis=0)
    if full < a.shape[0]:
        acc += a[full:].T @ g[full:]
    return acc


def _matmul_rows(a, b, bias, out):
    out = np.matmul(a, b, out=out)
    if bias is not None:
        out += bias
    return out


def _gemm_rows(a: np.ndarray, b: np.ndarray) -> int:
    """Rows of a·b that ``_split`` may cut: all of a float32 product doing
    over 100³ multiply-adds per SPLIT_ROWS rows, else none. On OpenBLAS
    such rows equal the whole product's bit for bit (measured); smaller
    products take its small-matrix kernel, and float64 rounds edge tiles
    differently."""
    big = SPLIT_ROWS * a.shape[1] * b.shape[1] > 100 ** 3
    return len(a) if big and a.dtype == b.dtype == np.float32 else 0


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """2-D matrix product C = A·B, plus the row vector ``bias`` on every
    row when given; dA = dC·Bᵀ, dB = Aᵀ·dC, dbias = column sums of dC."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise GptLabError(
            f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise GptLabError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    if bias is not None and bias.shape != (b.shape[1],):
        raise GptLabError(f"matmul bias must have shape ({b.shape[1]},), "
                          f"got {bias.shape}")
    a_data, b_data = a.data, b.data
    bias_data = None if bias is None else bias.data
    y = (_matmul_rows(a_data, b_data, bias_data, None)
         if len(a_data) < 2 * SPLIT_ROWS else _split(
             _matmul_rows, (a_data,), (b_data, bias_data),
             _gemm_rows(a_data, b_data)))
    need_a, need_b = a.requires_grad, b.requires_grad
    need_bias = bias is not None and bias.requires_grad

    def vjp(g):
        return (_split(_matmul_rows, (g,), (b_data.T, None),
                       _gemm_rows(g, b_data.T)) if need_a else None,
                _rows_t_matmul(a_data, g) if need_b else None,
                g.sum(axis=0) if need_bias else None)

    return _op(y, (a, b) if bias is None else (a, b, bias), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise GptLabError(f"transpose needs a 2-D tensor, got {a.shape}")
    # a copy: products with a transposed view differ from it in the last bits
    return _op(a.data.T.copy(), (a,), lambda g: (g.T,))


def _masked_softmax(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``x``.

    Entries where ``keep`` is False get weight exactly 0; they are set to
    -inf before the row max, so masked garbage can never leak into the
    finite part of the computation.
    """
    np.copyto(x, -np.inf, where=~keep)
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s * (g - <g, s>) over the last axis."""
    out = g - np.einsum("...j,...j->...", g, s)[..., None]
    out *= s
    return out


class KVSlot:
    """Keys and values of the rows one sequence has run so far through one
    attention layer: ``keys`` and ``values`` are [heads, capacity, d_k],
    filled up to ``length``."""

    __slots__ = ("keys", "values", "length")

    def __init__(self, n_heads: int, capacity: int, d_k: int, dtype):
        self.keys = np.empty((n_heads, capacity, d_k), dtype=dtype)
        self.values = np.empty_like(self.keys)
        self.length = 0


def suffix_rows(lengths: Sequence[int], first: Sequence[int]) -> np.ndarray:
    """Packed indices of rows ``first[b]`` onwards of each sequence b, where
    sequence b owns the next ``lengths[b]`` rows."""
    lengths = np.asarray(lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    own = np.arange(starts.size) - starts  # row index within its sequence
    return np.flatnonzero(own >= np.repeat(first, lengths))


def _padding(counts: list[int]):
    """(pad, unpad) between packed rows, ``counts[b]`` rows per sequence,
    and a zero-padded [B, T, C] layout; equal counts pad by a reshape,
    as each one-row decode call does (a scatter made it 36% slower)."""
    n_seq, t = len(counts), max(counts)
    if min(counts) == t:
        return (lambda rows: rows.reshape(n_seq, t, rows.shape[1]),
                lambda padded: padded.reshape(-1, padded.shape[2]))
    counts = np.asarray(counts)
    seq_idx = np.repeat(np.arange(n_seq), counts)
    pos_idx = np.arange(seq_idx.size) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)

    def pad(rows):
        out = np.zeros((n_seq, t, rows.shape[1]), dtype=rows.dtype)
        out[seq_idx, pos_idx] = rows
        return out

    return pad, lambda padded: padded[seq_idx, pos_idx]


def _attend(q, k, v, keep, out):
    """Masked softmax(q·kᵀ) and its product with v, in the padded layout."""
    probs, heads = out or (None, None)
    probs = _masked_softmax(
        np.matmul(q, k.transpose(0, 1, 3, 2), out=probs), keep)
    return probs, np.matmul(probs, v, out=heads)


def _attend_vjp(d_out, q, k, v, probs, scale, out):
    """The gradients of ``_attend`` w.r.t. the unscaled query, k and v."""
    d_q, d_k, d_v = out or (None, None, None)
    d_scores = _softmax_vjp(probs, np.matmul(d_out, v.transpose(0, 1, 3, 2)))
    d_q = np.matmul(d_scores, k, out=d_q)
    d_q *= scale
    return (d_q, np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=d_k),
            np.matmul(probs.transpose(0, 1, 3, 2), d_out, out=d_v))


def attention(qkv: Tensor, n_heads: int, lengths: Sequence[int],
              cache: Optional[KVSlot] = None,
              first: Optional[Sequence[int]] = None) -> Tensor:
    """Causal multi-head self-attention over packed rows.

    Sequence b owns the next ``lengths[b]`` rows of ``qkv`` [N, 3H]; each
    row holds its query, key and value side by side, with head j at
    columns j*d_k:(j+1)*d_k of each third. Rows are scattered into a
    zero-padded [B, heads, T, d_k] layout, every query attends to its own
    sequence's rows up to itself (causal and key-padding mask), and the
    result [N, H] comes back in packed order. Padded rows never reach the
    output, and the vjp is hand-written over the same layout.

    With ``first`` only rows ``first[b]`` onwards of each sequence b ask a
    query, and only their results come back, in packed order; keys and
    values still come from every row. None means every row (all zeros).

    With a ``cache`` (one sequence, grad recording off) the rows continue
    the sequence whose first ``cache.length`` keys and values the cache
    holds: the new keys and values are written after them, and query j
    attends to keys up to cache.length + first[0] + j.
    """
    if qkv.data.ndim != 2 or qkv.shape[1] % (3 * n_heads):
        raise GptLabError(
            f"attention needs [N, 3H] rows with H divisible by {n_heads} "
            f"heads, got {qkv.shape}")
    lengths = [int(n) for n in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != qkv.shape[0]:
        raise GptLabError(
            f"sequence lengths {lengths} do not cover {qkv.shape[0]} rows")
    n_rows, h3 = qkv.shape
    h = h3 // 3
    dk = h // n_heads
    n_seq, t_max = len(lengths), max(lengths)
    firsts = [0] * n_seq if first is None else [int(f) for f in first]
    if first is not None and (len(firsts) != n_seq or not all(
            0 <= f < n for f, n in zip(firsts, lengths))):
        raise GptLabError(f"first query rows {firsts} do not lie inside "
                          f"sequences of lengths {lengths}")
    past = 0
    if cache is not None:
        if _grad_enabled or n_seq != 1:
            raise GptLabError("a key/value cache serves one sequence with "
                              "grad recording off")
        past = cache.length
        if past + n_rows > cache.keys.shape[1]:
            raise GptLabError(f"{past + n_rows} rows overflow a key/value "
                              f"cache of {cache.keys.shape[1]}")
    scale = 1.0 / math.sqrt(dk)
    pad, unpad = _padding(lengths)
    # no ``first``: queries are a view of the padded rows (2-vCPU Xeon, one
    # BLAS thread, same bits: the gather path made a 16-sequence fwd + vjp
    # 8% and a one-row cached decode 44% slower)
    rows = suffix_rows(lengths, firsts) if any(firsts) else None
    n_queries = [n - f for n, f in zip(lengths, firsts)]
    pad_q, unpad_q = (pad, unpad) if rows is None else _padding(n_queries)
    t_q = max(n_queries)

    def split_heads(x):  # [B, T, H] -> [B, heads, T, d_k]
        return x.reshape(n_seq, x.shape[1], n_heads, dk).transpose(0, 2, 1, 3)

    def merge_heads(x):  # [B, heads, T, d_k] -> [B, T, H]
        return x.transpose(0, 2, 1, 3).reshape(n_seq, x.shape[2], h)

    padded = pad(qkv.data)
    q = split_heads(padded[..., :h] if rows is None
                    else pad_q(qkv.data[rows, :h])) * scale
    k = split_heads(padded[..., h:2 * h])
    v = split_heads(padded[..., 2 * h:])
    if cache is not None:
        cache.keys[:, past:past + n_rows] = k[0]
        cache.values[:, past:past + n_rows] = v[0]
        cache.length = past + n_rows
        k = cache.keys[None, :, :cache.length]
        v = cache.values[None, :, :cache.length]
    # query j of sequence b sits at key position past + first[b] + j; the
    # mask is [T_q, T_k] when every sequence starts its queries at one row
    # (a [B, 1, T_q, T_k] one made that fwd + vjp 8% and decode 4% slower)
    at = past + (firsts[0] if len(set(firsts)) == 1
                 else np.asarray(firsts)[:, None, None, None])
    keep = np.arange(past + t_max) <= at + np.arange(t_q)[:, None]
    if min(lengths) != t_max:
        keep = keep & (np.arange(t_max) < np.asarray(lengths)[:, None]
                       )[:, None, None]
    # split by sequence; a mask without a sequence axis is shared
    per_seq = keep.ndim == 4
    probs, heads = (_attend(q, k, v, keep, None) if n_rows < 2 * SPLIT_ROWS
                    else _split(_attend, (q, k, v, keep) if per_seq else
                                (q, k, v), () if per_seq else (keep,), n_rows))

    def vjp(g):
        d_out = split_heads(pad_q(g))
        d_q, d_k, d_v = _split(_attend_vjp, (d_out, q, k, v, probs), (scale,),
                               rows=n_rows)
        d_qkv = np.stack([d.transpose(0, 2, 1, 3) for d in (
            d_q if rows is None else np.zeros_like(d_k), d_k, d_v)], axis=2)
        grad = unpad(d_qkv.reshape(n_seq, t_max, h3))
        if rows is not None:  # the query rows get their gradient back
            grad[rows, :h] = unpad_q(merge_heads(d_q))
        return (grad,)

    return _op(unpad_q(merge_heads(heads)), (qkv,), vjp)


def _layer_norm_rows(x, gamma, beta, eps, out):
    # the row mean and the population variance as np.mean/np.var compute
    # them (sum, then divide by the count), without their call overhead
    h = x.shape[1]
    xhat, inv_std, y = out or (None, None, None)
    xhat = np.subtract(x, np.add.reduce(x, axis=1, keepdims=True) / h,
                       out=xhat)
    y = np.multiply(xhat, xhat, out=y)
    inv_std = np.divide(1.0, np.sqrt(
        np.add.reduce(y, axis=1, keepdims=True) / h + eps), out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return xhat, inv_std, y


def _layer_norm_vjp_rows(g, xhat, inv_std, gamma, out):
    # inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in the
    # buffers of dxhat and xhat: a tape runs backward only once
    h = g.shape[1]
    dx = np.multiply(g, gamma, out=out)
    m2 = np.add.reduce(dx * xhat, axis=1, keepdims=True) / h
    dx -= np.add.reduce(dx, axis=1, keepdims=True) / h
    dx -= np.multiply(xhat, m2, out=xhat)
    dx *= inv_std
    return dx


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if eps < 0:
        raise GptLabError("layer_norm eps must be >= 0")
    if x.data.ndim != 2:
        raise GptLabError(f"layer_norm needs a 2-D tensor, got {x.shape}")
    h = x.shape[1]
    if gamma.shape != (h,) or beta.shape != (h,):
        raise GptLabError(
            f"gamma/beta must have shape ({h},), got {gamma.shape}/{beta.shape}")
    xhat, inv_std, y = (
        _layer_norm_rows(x.data, gamma.data, beta.data, eps, None)
        if len(x.data) < 2 * SPLIT_ROWS else _split(
            _layer_norm_rows, (x.data,), (gamma.data, beta.data, eps)))
    gamma_data = gamma.data
    need_x, need_gamma, need_beta = (
        x.requires_grad, gamma.requires_grad, beta.requires_grad)

    def vjp(g):
        d_gamma = (g * xhat).sum(axis=0) if need_gamma else None
        dx = None
        if need_x:
            dx = _split(_layer_norm_vjp_rows, (g, xhat, inv_std),
                        (gamma_data,))
        return (dx, d_gamma, g.sum(axis=0) if need_beta else None)

    return _op(y, (x, gamma, beta), vjp)


def _gelu_rows(d, out):
    t, y = out or (None, None)
    t = np.multiply(d, d, out=t)  # becomes tanh(c * (d + a * d^3)) in place
    t *= GELU_COEF
    t += 1.0
    t *= d
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    y = np.add(t, 1.0, out=y)
    y *= d
    y *= 0.5
    return t, y


def _gelu_vjp_rows(d, t, g, out):
    # dy/dd = 0.5 (1 + t) (1 + (1 - t) d c (1 + 3 a d^2)), computed in a
    # fresh d^2 and the buffer of t: a tape runs backward only once
    dy = np.multiply(d, d, out=out)
    dy *= 3.0 * GELU_COEF
    dy += 1.0
    dy *= _SQRT_2_OVER_PI
    dy *= d
    np.subtract(1.0, t, out=t)
    dy *= t
    dy += 1.0
    np.subtract(2.0, t, out=t)
    dy *= t
    dy *= 0.5
    dy *= g
    return dy


def gelu(x: Tensor) -> Tensor:
    """Elementwise GELU, tanh approximation (fixed for reproducibility)."""
    d = x.data
    t, y = (_gelu_rows(d, None) if len(d) < 2 * SPLIT_ROWS
            else _split(_gelu_rows, (d,)))

    def vjp(g):
        return (_split(_gelu_vjp_rows, (d, t, g)),)

    return _op(y, (x,), vjp)


def cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """Weighted sum of -log softmax(logits)[target], one weight per row; a
    row of weight 0 carries no loss and its target is not read."""
    if logits.data.ndim != 2:
        raise GptLabError(f"cross_entropy needs 2-D logits, got {logits.shape}")
    n_rows, vocab = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if targets.shape != (n_rows,) or w.shape != (n_rows,):
        raise GptLabError(
            f"targets/weights must have length {n_rows}, got "
            f"{targets.shape}/{w.shape}")
    rows = np.flatnonzero(w)
    if not rows.size:
        raise DataError("no row carries loss weight")
    live = targets[rows]
    if live.min() < 0 or live.max() >= vocab:
        raise DataError(
            f"target id out of range for vocab size {vocab}")
    x = logits.data
    w = w[rows].astype(x.dtype)
    live_x = x[rows]
    row_max = live_x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(live_x - row_max).sum(axis=1, keepdims=True)) + row_max
    nll = lse[:, 0] - live_x[np.arange(rows.size), live]

    def vjp(g):
        probs = np.exp(live_x - lse)
        probs[np.arange(rows.size), live] -= 1.0
        probs *= (g * w)[:, None]
        grad = np.zeros_like(x)
        grad[rows] = probs
        return (grad,)

    return _op(np.asarray((nll * w).sum(), dtype=x.dtype), (logits,), vjp)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds."""
    if table.data.ndim != 2:
        raise GptLabError(f"take_rows needs a 2-D table, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise GptLabError(f"take_rows needs a 1-D id list, got shape {idx.shape}")
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DataError(f"row id out of range for table with {n} rows")

    def vjp(g):
        # scatter-add as one segmented sum over the rows sorted by id
        gt = np.zeros_like(table.data)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            ids = idx[order]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            gt[ids[starts]] = np.add.reduceat(g[order], starts, axis=0)
        return (gt,)

    return _op(table.data[idx], (table,), vjp)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-D tensors vertically (shared column count)."""
    if not parts:
        raise GptLabError("concat of zero tensors")
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != parts[0].shape[1]:
            raise GptLabError("concat needs 2-D tensors with one column "
                              f"count, got {[q.shape for q in parts]}")
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]
    needs = [p.requires_grad for p in parts]

    def vjp(g):
        return tuple(part if need else None for part, need in
                     zip(np.split(g, splits), needs))

    return _op(np.concatenate([p.data for p in parts]), tuple(parts), vjp)


_OWN = {name: value for name, value in globals().items()  # see ops_wrapped
        if name[0] != "_" and getattr(value, "__module__", "") == __name__}
