import numpy as np
import pytest

from gptlab import autodiff as ad
from gptlab.errors import ConfigError
from gptlab.model import (ModelConfig, _loss_rows, forward, forward_batch,
                          init_parameters)
from gptlab.training import init_prompts

from .test_model import (make_seq, straight_line_blocks, straight_line_embed,
                         tiny_config)


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield


def test_init_prompts_deterministic_and_shaped():
    a = init_prompts(50, 16, seed=5)
    b = init_prompts(50, 16, seed=5)
    assert a.matrix.shape == (50, 16)
    assert np.array_equal(a.matrix.data, b.matrix.data)
    c = init_prompts(50, 16, seed=6)
    assert not np.array_equal(a.matrix.data, c.matrix.data)


def test_init_prompts_zero_count_rejected():
    with pytest.raises(ConfigError):
        init_prompts(0, 16, seed=0)


def test_prompt_rows_come_first_and_carry_no_loss():
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0, dtype=np.float64)
    seq = make_seq([1, 2], mask=[False, True])
    prompts = init_prompts(1, cfg.hidden, seed=1, dtype=np.float64)
    got = forward(seq, params, cfg, prompts=prompts.matrix).data
    # the model input is [prompt row; embedded tokens], in that order
    full = np.concatenate([prompts.matrix.data,
                           straight_line_embed(seq, params, cfg)])
    want = straight_line_blocks(full, params, cfg) @ params["tok_emb"].data.T
    assert got.shape == (3, cfg.vocab_size)
    assert np.max(np.abs(got - want)) < 1e-10
    # token 0's row, the first behind the prompt row, predicts token 1
    first, targets, live = _loss_rows([seq])
    assert first == [0]
    assert targets.tolist() == [2, 0] and live[0].tolist() == [True, False]
    with ad.no_grad():
        scored = forward_batch([seq], params, cfg, prompts=prompts.matrix,
                               first=first).data
    assert np.max(np.abs(scored - want[1:])) < 1e-10


def test_forward_rejects_prompt_width_mismatch():
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0)
    prompts = init_prompts(2, 8, seed=0)
    with pytest.raises(ConfigError):
        forward(make_seq([1, 2, 3]), params, cfg, prompts=prompts.matrix)


def test_zero_prompts_match_hand_built_prefixed_model():
    """Zero prompt rows change logits only via attention to zero rows;
    a straight-line oracle over the extended input pins the exact values."""
    cfg = ModelConfig(n_layers=1, n_heads=1, hidden=4, vocab_size=6,
                      max_len=8, dropout=0.0)
    params = init_parameters(cfg, seed=3, dtype=np.float64)
    seq = make_seq([1, 4, 2])
    zero = init_prompts(2, cfg.hidden, seed=0, dtype=np.float64)
    zero.matrix.data[:] = 0.0
    got = forward(seq, params, cfg, prompts=zero.matrix).data

    # hand-built equivalent: prepend two zero rows to the hand-computed
    # embedding, then run the straight-line block math and the tied head
    emb = straight_line_embed(seq, params, cfg)
    full = np.concatenate([np.zeros((2, cfg.hidden)), emb], axis=0)
    want = straight_line_blocks(full, params, cfg) @ params["tok_emb"].data.T
    assert got.shape == (5, cfg.vocab_size)
    assert np.max(np.abs(got - want)) < 1e-10

    # the zero rows do perturb real-token logits (through attention), so
    # this is a genuinely different path than the no-prefix forward
    ad.reset_tape()
    plain = forward(seq, params, cfg).data
    assert not np.allclose(plain, got[2:])


def test_no_prompts_equals_plain_forward():
    cfg = tiny_config(hidden=8, n_heads=2)
    params = init_parameters(cfg, seed=4)
    seq = make_seq([1, 2, 3])
    a = forward(seq, params, cfg).data.copy()
    ad.reset_tape()
    b = forward(seq, params, cfg, prompts=None).data
    assert np.array_equal(a, b)


def test_prefix_preserves_causality_over_real_tokens():
    cfg = tiny_config(hidden=8, n_heads=2)
    params = init_parameters(cfg, seed=5, dtype=np.float64)
    prompts = init_prompts(3, cfg.hidden, seed=6, dtype=np.float64)
    base = forward(make_seq([1, 2, 3, 4]), params, cfg,
                   prompts=prompts.matrix).data.copy()
    ad.reset_tape()
    seq = make_seq([1, 2, 6, 4])  # perturb real position 2
    out = forward(seq, params, cfg, prompts=prompts.matrix).data
    n_prompt = 3
    assert np.array_equal(out[:n_prompt + 2], base[:n_prompt + 2])
    assert not np.array_equal(out[n_prompt + 2], base[n_prompt + 2])
