"""Dense 2-D/3-D real tensors with tape-based reverse-mode differentiation.

Every tensor wraps the numpy float array it is given. Every op returns
through ``_op``, which gets the op's inputs once: with grad recording on
and one of them requiring grad, the result requires grad and the calling
thread's tape gains one ``(result, inputs, vjp)`` entry. ``backward``
replays that tape once in reverse. The first gradient array a tensor
receives becomes its ``.grad`` (cast if its dtype differs) and later ones
are added into it. So for each input that needs one, a vjp returns an
array no other input's gradient holds: a fresh array, its incoming
gradient, or disjoint views of it (``backward`` never reads an incoming
gradient again); ``add`` gives its second input a copy. After
``backward`` only leaves have a defined ``.grad``: an intermediate
tensor's is scratch.

Each thread has its own tape; grad mode is a context variable, so a task
that ``spread`` runs inherits its caller's ``no_grad``.

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

Ops run their kernels on the calling thread. The CPUs are used one level
up: training steps and perplexity run their sequence groups side by side
through ``spread``.
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Tape:
    """Ordered record of executed operations for one reverse pass."""

    __slots__ = ("entries", "consumed")

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.consumed = False


class _Tapes(threading.local):
    def __init__(self):  # runs once in each thread that reads .tape
        self.tape = Tape()


_tapes = _Tapes()
_grad_enabled = contextvars.ContextVar("_grad_enabled", default=True)


def active_tape() -> Tape:
    """The calling thread's tape."""
    return _tapes.tape


def reset_tape() -> Tape:
    """Install and return a fresh tape for the calling thread; the old one,
    and the graph only it held, can then be freed."""
    _tapes.tape = Tape()
    return _tapes.tape


class no_grad:
    """Context manager that suspends tape recording (pure evaluation), in
    this context and in the tasks that ``spread`` runs from it."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def grad_enabled() -> bool:
    """Whether ops record on the tape here: no ``no_grad`` is in force."""
    return _grad_enabled.get()


def _op(data, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """The tensor of an op's result ``data``. In grad mode, when one of
    ``inputs`` requires grad, it requires grad too and the tape records
    ``vjp`` for it, which maps its gradient to one per input in order."""
    out = Tensor(data, _grad_enabled.get()
                 and any(t.requires_grad for t in inputs))
    if out.requires_grad:
        _tapes.tape.entries.append((out, inputs, vjp))
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


# --- tasks across CPUs ---

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)  # macOS has no affinity mask
_pool: Optional[queue.SimpleQueue] = None  # work for _CPUS - 1 threads
_in_task = contextvars.ContextVar("_in_task", default=False)


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
    of the caller's context (so under its numpy error state and grad
    mode). Once every task has finished, the lowest index's exception is
    re-raised; one that is no ``Exception`` (a Ctrl-C) goes first and ends
    all index taking. With one CPU, while ``ops_wrapped``, or from inside
    a task (so the pool cannot deadlock), the tasks run in order on the
    calling thread.
    """
    helpers = min(n, _CPUS) - 1
    if helpers < 1 or _in_task.get() or ops_wrapped():
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
    stack): ``spread`` then runs its tasks in order on the calling thread."""
    return any(globals()[name] is not own for name, own in _OWN.items())


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
    acc = np.matmul(a_blocks, g[:full].reshape(-1, ROW_BLOCK, g.shape[1])
                    ).sum(axis=0)
    if full < a.shape[0]:
        acc += a[full:].T @ g[full:]
    return acc


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
    y = a_data @ b_data
    if bias is not None:
        y += bias.data
    need_a, need_b = a.requires_grad, b.requires_grad
    need_bias = bias is not None and bias.requires_grad

    def vjp(g):
        return (g @ b_data.T if need_a else None,
                _rows_t_matmul(a_data, g) if need_b else None,
                g.sum(axis=0) if need_bias else None)

    return _op(y, (a, b) if bias is None else (a, b, bias), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise GptLabError(f"transpose needs a 2-D tensor, got {a.shape}")
    # a copy: products with a transposed view differ from it in the last bits
    return _op(a.data.T.copy(), (a,), lambda g: (g.T,))


def _masked_softmax(x: np.ndarray, keep: Optional[np.ndarray]) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``x``.

    Entries where ``keep`` is False get weight exactly 0; they are set to
    -inf before the row max, so masked garbage can never leak into the
    finite part of the computation. None keeps every entry.
    """
    if keep is not None:
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


def suffix_rows(lengths: Sequence[int], first: Sequence[int]) -> np.ndarray:
    """Packed indices of rows ``first[b]`` onwards of each sequence b, where
    sequence b owns the next ``lengths[b]`` rows."""
    lengths = np.asarray(lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    own = np.arange(starts.size) - starts  # row index within its sequence
    return np.flatnonzero(own >= np.repeat(first, lengths))


def _padding(counts: list[int]):
    """(pad, unpad) between packed rows, ``counts[b]`` rows per sequence,
    and a zero-padded [B, T, C] layout; equal counts pad by a reshape (a
    scatter made a one-row decode step 36% slower)."""
    n_seq, t = len(counts), max(counts)
    if min(counts) == t:  # -1: equal query counts reuse these too
        return (lambda rows: rows.reshape(n_seq, -1, rows.shape[1]),
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


def attention(qkv: Tensor, n_heads: int, lengths: Sequence[int],
              first: Optional[Sequence[int]] = None) -> Tensor:
    """Causal multi-head self-attention over packed rows.

    Sequence b owns the next ``lengths[b]`` rows of ``qkv`` [N, 3H]; each
    row holds its query, key and value side by side, with head j at
    columns j*d_k:(j+1)*d_k of each third. Rows are scattered into a
    zero-padded [B, heads, T, d_k] layout, every query attends to its own
    sequence's rows up to itself, and the result [N, H] comes back in
    packed order. The causal mask alone hides every padded key from every
    real query, which comes before it; padded queries see key 0 at least,
    so they stay finite, and they never reach the output or get an
    upstream gradient. The vjp is hand-written over the same layout.

    With ``first`` only rows ``first[b]`` onwards of each sequence b ask a
    query, and only their results come back, in packed order; keys and
    values still come from every row. None means every row (all zeros).
    A decoding step is such a call: the rows a sequence has run so far,
    then its new ones, with ``first`` at the first new row.
    """
    if qkv.data.ndim != 2 or qkv.shape[1] % (3 * n_heads):
        raise GptLabError(
            f"attention needs [N, 3H] rows with H divisible by {n_heads} "
            f"heads, got {qkv.shape}")
    lengths = [int(n) for n in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != qkv.shape[0]:
        raise GptLabError(
            f"sequence lengths {lengths} do not cover {qkv.shape[0]} rows")
    h3 = qkv.shape[1]
    h = h3 // 3
    dk = h // n_heads
    n_seq, t_max = len(lengths), max(lengths)
    firsts = [0] * n_seq if first is None else [int(f) for f in first]
    n_queries = [n - f for n, f in zip(lengths, firsts)]
    if len(firsts) != n_seq or min(firsts) < 0 or min(n_queries) < 1:
        raise GptLabError(f"first query rows {firsts} do not lie inside "
                          f"sequences of lengths {lengths}")
    scale = 1.0 / math.sqrt(dk)
    pad, unpad = _padding(lengths)
    # every sequence asking from one row f: queries are a view of the
    # padded rows (2-vCPU Xeon, one BLAS thread, same bits: the gather
    # path made a 16-sequence fwd + vjp 8% and a one-row decode step
    # 10-14% slower)
    f = firsts[0] if len(set(firsts)) == 1 else None
    rows = None if f is not None else suffix_rows(lengths, firsts)
    pad_q, unpad_q = (pad, unpad) if f is not None and (
        f == 0 or min(lengths) == t_max) else _padding(n_queries)
    t_q = max(n_queries)

    def split_heads(x):  # [B, T, H] -> [B, heads, T, d_k]
        return x.reshape(n_seq, x.shape[1], n_heads, dk).transpose(0, 2, 1, 3)

    def merge_heads(x):  # [B, heads, T, d_k] -> [B, T, H]
        return x.transpose(0, 2, 1, 3).reshape(n_seq, x.shape[2], h)

    padded = pad(qkv.data)
    q = split_heads(padded[:, f:, :h] if rows is None
                    else pad_q(qkv.data[rows, :h])) * scale
    k = split_heads(padded[..., h:2 * h])
    v = split_heads(padded[..., 2 * h:])
    # query j of sequence b sits at key position first[b] + j; the mask is
    # [T_q, T_k] when every sequence starts its queries at one row (a
    # [B, 1, T_q, T_k] one made that fwd + vjp 8% and decode 4% slower),
    # and none when that row is every sequence's last, as in a decode step
    at = f if rows is None else np.asarray(firsts)[:, None, None, None]
    keep = None if t_q == 1 and rows is None else (
        np.arange(t_max) <= at + np.arange(t_q)[:, None])
    probs = _masked_softmax(np.matmul(q, k.transpose(0, 1, 3, 2)), keep)
    heads = np.matmul(probs, v)

    def vjp(g):
        d_out = split_heads(pad_q(g))
        d_scores = _softmax_vjp(probs,
                                np.matmul(d_out, v.transpose(0, 1, 3, 2)))
        d_q = np.matmul(d_scores, k)
        d_q *= scale
        d_k = np.matmul(d_scores.transpose(0, 1, 3, 2), q)
        d_v = np.matmul(probs.transpose(0, 1, 3, 2), d_out)
        if f:  # rows before f asked no query
            d_q = np.concatenate([np.zeros_like(d_k[:, :, :f]), d_q], axis=2)
        d_qkv = np.stack([d.transpose(0, 2, 1, 3) for d in (
            d_q if rows is None else np.zeros_like(d_k), d_k, d_v)], axis=2)
        grad = unpad(d_qkv.reshape(n_seq, t_max, h3))
        if rows is not None:  # the query rows get their gradient back
            grad[rows, :h] = unpad_q(merge_heads(d_q))
        return (grad,)

    return _op(unpad_q(merge_heads(heads)), (qkv,), vjp)


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
    # the row mean and the population variance as np.mean/np.var compute
    # them (sum, then divide by the count), without their call overhead
    xhat = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / h
    y = xhat * xhat
    inv_std = 1.0 / np.sqrt(np.add.reduce(y, axis=1, keepdims=True) / h + eps)
    xhat *= inv_std
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    gamma_data = gamma.data
    need_x, need_gamma, need_beta = (
        x.requires_grad, gamma.requires_grad, beta.requires_grad)

    def vjp(g):
        d_gamma = (g * xhat).sum(axis=0) if need_gamma else None
        dx = None
        if need_x:
            # inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
            # in the buffers of dxhat and xhat: a tape runs backward once
            dx = g * gamma_data
            m2 = np.add.reduce(dx * xhat, axis=1, keepdims=True) / h
            dx -= np.add.reduce(dx, axis=1, keepdims=True) / h
            dx -= np.multiply(xhat, m2, out=xhat)
            dx *= inv_std
        return (dx, d_gamma, g.sum(axis=0) if need_beta else None)

    return _op(y, (x, gamma, beta), vjp)


def gelu(x: Tensor) -> Tensor:
    """Elementwise GELU, tanh approximation (fixed for reproducibility)."""
    d = x.data
    t = d * d  # becomes tanh(c * (d + a * d^3)) in place
    t *= GELU_COEF
    t += 1.0
    t *= d
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    y = t + 1.0
    y *= d
    y *= 0.5

    def vjp(g):
        # dy/dd = 0.5 (1 + t) (1 + (1 - t) d c (1 + 3 a d^2)), computed in
        # a fresh d^2 and the buffer of t: a tape runs backward only once
        dy = d * d
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
        return (dy,)

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
