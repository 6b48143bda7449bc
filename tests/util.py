"""Shared test oracles: central finite differences, error metrics and a
scalar sum for gradchecks; small lexicons for synthetic corpora; a CPU
count for ``autodiff.spread`` and a task list that two threads share;
the parameter count of a model.

The finite-difference path only ever calls forward evaluation under
no_grad, so it stays independent of the reverse-mode code it checks.
"""
import contextlib
import threading

import numpy as np

from gptlab import autodiff as ad

FD_H = 1e-5
REL_FLOOR = 1e-6

DEFAULT_SYMPTOMS = ["headache", "fever", "cough", "nausea",
                    "rash", "weakness", "dizziness", "itching"]
DEFAULT_DISEASES = ["flu", "gout", "mumps", "polio",
                    "rabies", "asthma", "ulcer", "vertigo"]
DEFAULT_DRUGS = ["zinc", "iron", "salbex", "taxol",
                 "budecort", "exipan", "lovir", "minoxil"]


def fd_grad(loss_fn, tensor, h=FD_H):
    """Central finite differences of a scalar loss w.r.t. one tensor.

    loss_fn re-evaluates the loss from current tensor contents; the
    tensor is perturbed in place and restored.
    """
    grad = np.zeros_like(tensor.data, dtype=np.float64)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with ad.no_grad():
            up = loss_fn().data.item()
        flat[i] = orig - h
        with ad.no_grad():
            down = loss_fn().data.item()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def total(x):
    """The sum of every entry of a 2-D tensor as a [1, 1] tensor, built from
    production ops: ones-vector matmuls on both sides."""
    rows, cols = x.shape
    return ad.matmul(ad.matmul(ad.Tensor(np.ones((1, rows), dtype=x.dtype)), x),
                     ad.Tensor(np.ones((cols, 1), dtype=x.dtype)))


def max_rel_err(analytic, numeric, floor=REL_FLOOR):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def parameter_count(params):
    """The number of scalars in a ``{name: Tensor}`` parameter dict."""
    return sum(t.size for t in params.values())


@contextlib.contextmanager
def cpus(n):
    """Spread tasks as if the process could run on ``n`` CPUs."""
    saved = ad._CPUS
    ad._CPUS = n
    try:
        yield
    finally:
        ad._CPUS = saved


def first_two_on_two_threads(n, work):
    """A task list of ``n`` in which tasks 0 and 1 meet at a barrier, so
    two threads run them: the caller and a pool thread. Each task calls
    ``work(i)`` and records its thread; returns the task and the record."""
    meet = threading.Barrier(2)
    ran = {}

    def task(i):
        ran[i] = threading.get_ident()
        if i < 2:
            meet.wait(timeout=30)
        return work(i)
    return task, ran
