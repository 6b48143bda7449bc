"""Prefix-prompt tuning: trainable virtual-token embeddings, frozen backbone.

The prompt matrix is the only trainable tensor in ptune mode; it rides in
checkpoints under the reserved name ``prompt.emb`` and is prepended to the
embedded input, ahead of BOS, with no positional additions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError
from .model import INIT_STD, PROMPT_PARAM_NAME


@dataclass
class PromptEmbeddings:
    matrix: Tensor  # [V_p x H]


def init_prompts(v_p: int, hidden: int, seed: int,
                 dtype=np.float32) -> PromptEmbeddings:
    """normal(0, 0.02) prompt rows, deterministic under seed."""
    if v_p < 1:
        raise ConfigError(f"prompt token count must be >= 1, got {v_p}")
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.normal(0.0, INIT_STD, size=(v_p, hidden)).astype(dtype)
    return PromptEmbeddings(Tensor(data, requires_grad=True))


def apply_freeze(params: dict[str, Tensor],
                 prompts: Optional[PromptEmbeddings],
                 trainable_names: AbstractSet[str]) -> dict[str, Tensor]:
    """Return the trainable-parameter view and pin requires_grad flags:
    the tensors named in ``trainable_names`` train, every other is frozen.

    Frozen tensors stop accumulating gradients entirely, which realizes
    "backbone gradients are zero" without wasted work.
    """
    named = dict(params)
    if prompts is not None:
        named[PROMPT_PARAM_NAME] = prompts.matrix
    unknown = trainable_names - named.keys()
    if unknown:
        raise ConfigError(f"no tensors named {sorted(unknown)} to train")
    trainable: dict[str, Tensor] = {}
    for name, t in named.items():
        t.requires_grad = name in trainable_names
        if t.requires_grad:
            trainable[name] = t
    return trainable

