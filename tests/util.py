"""Shared test oracles: central finite differences, error metrics and a
scalar sum for gradchecks; small lexicons for synthetic corpora; a CPU
count to split kernel rows over.

The finite-difference path only ever calls forward evaluation under
no_grad, so it stays independent of the reverse-mode code it checks.
"""
import contextlib

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


@contextlib.contextmanager
def cpus(n):
    """Split kernel rows as if the process could run on ``n`` CPUs."""
    saved = ad._CPUS
    ad._CPUS = n
    try:
        yield
    finally:
        ad._CPUS = saved
