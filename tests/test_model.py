import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import autodiff as ad
from gptlab import model
from gptlab.annotation import LexTag
from gptlab.autodiff import GELU_COEF, Tensor
from gptlab.corpus import Dialogue, EntitySpan, TokenSequence, Turn, linearize
from gptlab.errors import ConfigError, DataError, GptLabError
from gptlab.model import (CHECKPOINT_VERSION, LN_EPS, PROMPT_PARAM_NAME,
                          ModelConfig, _dropout_masks, _embed_rows,
                          batch_loss, dropout_draws, forward, forward_batch,
                          generate, init_parameters, load_checkpoint,
                          parameter_shapes, save_checkpoint, shifted_targets,
                          token_nll)
from gptlab.training import (OptimizerState, adamw_step, clip_grad_norm,
                             evaluate_ppl, init_prompts)
from gptlab.vocab import build_vocab

from .util import fd_grad, max_rel_err, parameter_count

GELU_C = math.sqrt(2.0 / math.pi)


def drawn(seqs, n_prompt, cfg, rng):
    """The dropout numbers of ``seqs`` as one group, drawn from ``rng``."""
    return dropout_draws([seqs], n_prompt, cfg, rng)[0]


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield


def make_seq(ids, tags=None, flags=None, mask=None):
    n = len(ids)
    return TokenSequence(
        ids=list(ids),
        lexical_tags=list(tags) if tags else [int(LexTag.OTHER)] * n,
        entity_flags=list(flags) if flags else [0] * n,
        loss_mask=list(mask) if mask else [False] + [True] * (n - 1),
        position_ids=list(range(n)),
    )


def tiny_config(**kw):
    base = dict(n_layers=1, n_heads=1, hidden=4, vocab_size=7, max_len=16,
                dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def params64(config, seed=0):
    return init_parameters(config, seed, dtype=np.float64)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=3, hidden=4, vocab_size=5, max_len=8)
    for bad in (dict(vocab_size=2.5), dict(max_len="8"), dict(hidden=True)):
        with pytest.raises(ConfigError):
            tiny_config(**bad)
    cfg = tiny_config(hidden=8, n_heads=2)
    assert cfg.ffw_dim == 32


def test_embed_reduces_to_word_plus_position_with_zero_tables():
    cfg = tiny_config()
    params = params64(cfg)
    params["lex_emb"].data[:] = 0.0
    params["ent_emb"].data[:] = 0.0
    seq = make_seq([1, 2, 3], tags=[0, 1, 2], flags=[0, 1, 0])
    out = _embed_rows([seq], params, cfg)
    expected = params["tok_emb"].data[[1, 2, 3]] + params["pos_emb"].data[:3]
    assert np.array_equal(out.data, expected)


def test_embed_single_token_is_four_row_sum():
    cfg = tiny_config()
    params = params64(cfg)
    rows = {"tok_emb": 2, "pos_emb": 0, "lex_emb": 1, "ent_emb": 1}
    for name, table in (("tok_emb", 0), ("pos_emb", 1), ("lex_emb", 2),
                        ("ent_emb", 3)):
        params[name].data[:] = 0.0
        params[name].data[rows[name], table] = 1.0  # distinct one-hot rows
    seq = make_seq([2], tags=[1], flags=[1])
    out = _embed_rows([seq], params, cfg)
    assert np.array_equal(out.data, [[1.0, 1.0, 1.0, 1.0]])


def test_embed_disabled_channel_equals_zero_table():
    cfg_off = tiny_config(use_lexical=False, use_entity=False)
    cfg_on = tiny_config()
    params = params64(cfg_on, seed=3)
    seq = make_seq([0, 4, 6], tags=[1, 2, 0], flags=[1, 0, 1])
    off = _embed_rows([seq], params, cfg_off).data.copy()
    params["lex_emb"].data[:] = 0.0
    params["ent_emb"].data[:] = 0.0
    on = _embed_rows([seq], params, cfg_on).data
    assert np.array_equal(off, on)


def test_embed_range_errors():
    cfg = tiny_config()
    params = params64(cfg)
    with pytest.raises(DataError, match="row id out of range"):
        _embed_rows([make_seq([cfg.vocab_size])], params, cfg)
    long_seq = make_seq(list(range(5)) * 4)
    with pytest.raises(GptLabError, match="exceeds max_len"):
        _embed_rows([long_seq], params, cfg)


def attention_head(h_in, wq, wk, wv):
    """One causal head through the fused op: wqkv = [wq | wk | wv]."""
    wqkv = Tensor(np.concatenate([wq.data, wk.data, wv.data], axis=1))
    return ad.attention(ad.matmul(h_in, wqkv), 1, [h_in.shape[0]])


def multi_head(h_in, head_weights, w_out):
    """Heads packed into one fused wqkv (all queries, then keys, then
    values, head j at columns j*d_k of each third), then the output map."""
    wqkv = Tensor(np.concatenate(
        [w.data for i in range(3) for w in (hw[i] for hw in head_weights)],
        axis=1))
    heads = ad.attention(ad.matmul(h_in, wqkv), len(head_weights),
                         [h_in.shape[0]])
    return ad.matmul(heads, w_out)


def test_attention_single_position_returns_value_row():
    rng = np.random.default_rng(0)
    h_in = Tensor(rng.normal(size=(1, 4)))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    out = attention_head(h_in, wq, wk, wv)
    assert np.allclose(out.data, h_in.data @ wv.data, atol=1e-15)


def test_attention_position_zero_sees_only_itself():
    rng = np.random.default_rng(1)
    h_in = Tensor(rng.normal(size=(5, 4)))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    out = attention_head(h_in, wq, wk, wv)
    v0 = (h_in.data @ wv.data)[0]
    assert np.allclose(out.data[0], v0, atol=1e-15)


def test_attention_two_positions_match_scalar_formula():
    rng = np.random.default_rng(2)
    h_in = rng.normal(size=(2, 4))
    wq = rng.normal(size=(4, 2))
    wk = rng.normal(size=(4, 2))
    wv = rng.normal(size=(4, 2))
    out = attention_head(Tensor(h_in), Tensor(wq), Tensor(wk), Tensor(wv))
    # direct evaluation: scores, stable softmax, weighted values
    q, k, v = h_in @ wq, h_in @ wk, h_in @ wv
    s10 = (q[1] @ k[0]) / math.sqrt(2)
    s11 = (q[1] @ k[1]) / math.sqrt(2)
    m = max(s10, s11)
    w10 = math.exp(s10 - m) / (math.exp(s10 - m) + math.exp(s11 - m))
    expected_row1 = w10 * v[0] + (1 - w10) * v[1]
    assert np.max(np.abs(out.data[0] - v[0])) < 1e-12
    assert np.max(np.abs(out.data[1] - expected_row1)) < 1e-12


def test_multi_head_degenerate_concat_is_identity():
    rng = np.random.default_rng(3)
    h_in = Tensor(rng.normal(size=(3, 4)))
    weights = [tuple(Tensor(rng.normal(size=(4, 4))) for _ in range(3))]
    direct = attention_head(h_in, *weights[0])
    combined = multi_head(h_in, weights, Tensor(np.eye(4)))
    assert np.array_equal(direct.data, combined.data)


def test_multi_head_one_hot_output_map_routes_heads():
    rng = np.random.default_rng(4)
    h_in = Tensor(rng.normal(size=(3, 4)))
    heads = [tuple(Tensor(rng.normal(size=(4, 2))) for _ in range(3))
             for _ in range(2)]
    w = np.zeros((4, 4))
    # route concat feature i to output column perm[i]
    perm = [2, 0, 3, 1]
    for i, j in enumerate(perm):
        w[i, j] = 1.0
    out = multi_head(h_in, heads, Tensor(w))
    h0 = attention_head(h_in, *heads[0]).data
    h1 = attention_head(h_in, *heads[1]).data
    concat = np.concatenate([h0, h1], axis=1)
    assert np.allclose(out.data[:, perm], concat, atol=1e-15)


def test_multi_head_head_permutation_identity():
    rng = np.random.default_rng(5)
    h_in = Tensor(rng.normal(size=(3, 4)))
    heads = [tuple(Tensor(rng.normal(size=(4, 2))) for _ in range(3))
             for _ in range(2)]
    w = rng.normal(size=(4, 4))
    out1 = multi_head(h_in, heads, Tensor(w))
    w_swapped = np.concatenate([w[2:], w[:2]], axis=0)
    out2 = multi_head(h_in, heads[::-1], Tensor(w_swapped))
    assert np.allclose(out1.data, out2.data, atol=1e-15)


def straight_line_embed(seq, params, config):
    p = lambda name: params[name].data
    return (p("tok_emb")[seq.ids] + p("pos_emb")[seq.position_ids]
            + (p("lex_emb")[seq.lexical_tags] if config.use_lexical else 0)
            + (p("ent_emb")[seq.entity_flags] if config.use_entity else 0))


def straight_line_blocks(x, params, config):
    """Blocks + final norm on an already-embedded input, plain numpy."""
    def p(name):
        return params[name].data

    def ln(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + LN_EPS) * g + b

    def gelu_ref(x):
        return 0.5 * x * (1 + np.tanh(GELU_C * (x + GELU_COEF * x ** 3)))

    n = x.shape[0]
    for i in range(config.n_layers):
        pre = f"layer{i}"
        normed = ln(x, p(f"{pre}.ln1.gamma"), p(f"{pre}.ln1.beta"))
        outs = []
        h = config.hidden
        dk = h // config.n_heads
        wqkv = p(f"{pre}.wqkv")
        for j in range(config.n_heads):
            cols = slice(j * dk, (j + 1) * dk)
            q = normed @ wqkv[:, :h][:, cols]
            k = normed @ wqkv[:, h:2 * h][:, cols]
            v = normed @ wqkv[:, 2 * h:][:, cols]
            scores = q @ k.T / math.sqrt(dk)
            att = np.zeros((n, n))
            for r in range(n):
                row = scores[r, :r + 1]
                e = np.exp(row - row.max())
                att[r, :r + 1] = e / e.sum()
            outs.append(att @ v)
        x = x + np.concatenate(outs, axis=1) @ p(f"{pre}.attn_out")
        normed = ln(x, p(f"{pre}.ln2.gamma"), p(f"{pre}.ln2.beta"))
        hid = gelu_ref(normed @ p(f"{pre}.ffw_in.w") + p(f"{pre}.ffw_in.b"))
        x = x + hid @ p(f"{pre}.ffw_out.w") + p(f"{pre}.ffw_out.b")
    return ln(x, p("ln_f.gamma"), p("ln_f.beta"))


def straight_line_forward(seq, params, config):
    """Independent full-model evaluation with plain numpy."""
    x = straight_line_embed(seq, params, config)
    return straight_line_blocks(x, params, config) @ params["tok_emb"].data.T


def test_forward_matches_straight_line_oracle():
    cfg = ModelConfig(n_layers=1, n_heads=1, hidden=2, vocab_size=3,
                      max_len=4, dropout=0.0)
    params = params64(cfg, seed=7)
    seq = make_seq([0, 2], tags=[1, 3], flags=[1, 0])
    got = forward(seq, params, cfg).data
    want = straight_line_forward(seq, params, cfg)
    assert np.max(np.abs(got - want)) < 1e-10

    # and once more on a deeper, multi-head model
    cfg2 = ModelConfig(n_layers=2, n_heads=2, hidden=6, vocab_size=5,
                       max_len=8, dropout=0.0)
    params2 = params64(cfg2, seed=8)
    seq2 = make_seq([0, 3, 1, 4], tags=[0, 1, 2, 3], flags=[1, 0, 0, 1])
    got2 = forward(seq2, params2, cfg2).data
    want2 = straight_line_forward(seq2, params2, cfg2)
    assert np.max(np.abs(got2 - want2)) < 1e-10


def test_forward_causality_bitwise():
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2)
    params = params64(cfg, seed=9)
    seq = make_seq([1, 2, 3, 4, 5])
    base = forward(seq, params, cfg).data.copy()
    for t in range(1, 5):
        ad.reset_tape()
        perturbed = make_seq([1, 2, 3, 4, 5])
        perturbed.ids[t] = (perturbed.ids[t] + 1) % cfg.vocab_size
        out = forward(perturbed, params, cfg).data
        assert np.array_equal(out[:t], base[:t])
        assert not np.array_equal(out[t], base[t])


def test_forward_eval_deterministic():
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2)
    params = init_parameters(cfg, seed=10)
    seq = make_seq([1, 2, 3])
    a = forward(seq, params, cfg).data.copy()
    ad.reset_tape()
    b = forward(seq, params, cfg).data
    assert np.array_equal(a, b)


def test_lm_loss_uniform_head_gives_log_vocab():
    cfg = tiny_config()
    params = params64(cfg)
    params["tok_emb"].data[:] = 0.0  # tied head -> all-zero logits
    seq = make_seq([1, 2, 3, 4])
    loss = batch_loss([seq], params, cfg)
    assert abs(float(loss.data) - math.log(cfg.vocab_size)) < 1e-12


def test_lm_loss_single_position_oracle():
    cfg = tiny_config(hidden=8, n_heads=2)
    params = params64(cfg, seed=11)
    ids = [1, 2, 3, 4]
    seq = make_seq(ids, mask=[False, False, True, False])
    loss = batch_loss([seq], params, cfg)
    logits = straight_line_forward(seq, params, cfg)
    row = logits[1]  # predicts token at position 2
    p = np.exp(row - row.max()) / np.exp(row - row.max()).sum()
    assert abs(float(loss.data) + math.log(p[ids[2]])) < 1e-10


def test_lm_loss_gradcheck_tiny_model():
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=4, vocab_size=6,
                      max_len=8, dropout=0.0)
    params = params64(cfg, seed=12)
    seq = make_seq([1, 5, 3, 0, 2])

    def loss_fn():
        return batch_loss([seq], params, cfg)

    ad.backward(loss_fn())
    worst = 0.0
    for name, t in params.items():
        assert t.grad is not None, name
        worst = max(worst, max_rel_err(t.grad, fd_grad(loss_fn, t)))
    assert worst < 1e-3


def test_lm_loss_batch_mean_invariance():
    cfg = tiny_config(hidden=8, n_heads=2)
    params = init_parameters(cfg, seed=13)
    seq = make_seq([1, 2, 3, 4, 5])
    single = float(batch_loss([seq], params, cfg).data)
    ad.reset_tape()
    pair = ad.mul(ad.add(batch_loss([seq], params, cfg),
                         batch_loss([seq], params, cfg)),
                  Tensor(np.float32(0.5)))
    assert abs(float(pair.data) - single) < 1e-12


def test_float32_lm_loss_keeps_every_tape_output_float32():
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2, dropout=0.1)
    params = init_parameters(cfg, seed=20)
    prompts = init_prompts(2, cfg.hidden, seed=21).matrix
    seqs = [make_seq([1, 2, 3, 4, 5])]
    loss = batch_loss(seqs, params, cfg, prompts=prompts,
                      drop=drawn(seqs, 2, cfg, np.random.default_rng(0)))
    assert loss.dtype == np.float32
    dtypes = {out.dtype for out, _, _ in ad.active_tape().entries}
    assert dtypes == {np.dtype(np.float32)}
    ad.backward(loss)
    assert all(t.grad.dtype == np.float32 for t in params.values())


def unequal_batch():
    return [make_seq([1, 5, 3, 0, 2, 6, 4], tags=[0, 1, 2, 3, 0, 1, 2],
                     flags=[0, 1, 1, 0, 0, 1, 0]),
            make_seq([2, 4], mask=[False, True]),
            make_seq([6, 1, 1, 3, 5], flags=[1, 1, 0, 0, 0],
                     mask=[False, False, True, False, True])]


@pytest.mark.parametrize("n_prompt", [0, 2])
def test_batched_step_equals_mean_of_per_sequence_steps(n_prompt):
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2, dropout=0.3)
    params = params64(cfg, seed=22)
    prompts = None
    if n_prompt:
        prompts = init_prompts(n_prompt, cfg.hidden, seed=23,
                               dtype=np.float64).matrix
    tensors = dict(params, prompts=prompts) if prompts else params
    seqs = unequal_batch()

    rng = np.random.default_rng(24)
    mean_loss = 0.0
    mean_grads = {n: np.zeros_like(t.data) for n, t in tensors.items()}
    for seq in seqs:
        ad.reset_tape()
        loss = batch_loss([seq], params, cfg, prompts=prompts,
                          drop=drawn([seq], n_prompt, cfg, rng))
        ad.backward(loss)
        mean_loss += float(loss.data) / len(seqs)
        for n, t in tensors.items():
            mean_grads[n] += t.grad / len(seqs)
            t.grad = None

    batch_rng = np.random.default_rng(24)
    ad.reset_tape()
    loss = batch_loss(seqs, params, cfg, prompts=prompts,
                      drop=drawn(seqs, n_prompt, cfg, batch_rng))
    ad.backward(loss)
    assert batch_rng.bit_generator.state == rng.bit_generator.state
    assert abs(float(loss.data) - mean_loss) <= 1e-12 * abs(mean_loss)
    for n, t in tensors.items():
        scale = np.max(np.abs(mean_grads[n]))
        assert np.max(np.abs(t.grad - mean_grads[n])) <= 1e-12 * scale, n


def per_sequence_dropout_masks(seqs, n_prompt, config, rng, dtype):
    """Reference for ``_dropout_masks``: one ``rng.random`` call per
    sequence and per site (embedding, then attention and FFW of each
    layer), each site's draws joined in sequence order."""
    sites = 1 + 2 * config.n_layers
    draws = [[] for _ in range(sites)]
    for seq in seqs:
        for site in range(sites):
            rows = len(seq) + (n_prompt if site else 0)
            draws[site].append(rng.random((rows, config.hidden)))
    masks = []
    for parts in draws:
        keep = (np.concatenate(parts) >= config.dropout).astype(dtype)
        keep /= 1.0 - config.dropout
        masks.append(keep)
    return masks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_prompt", [0, 3])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_dropout_masks_match_per_sequence_draws(n_layers, n_prompt, dtype):
    """One draw over the batch gives the per-sequence masks bit for bit
    and leaves the generator where the per-sequence draws leave it."""
    cfg = tiny_config(n_layers=n_layers, hidden=6, n_heads=2, dropout=0.3)
    seqs = [make_seq([1] * n) for n in (7, 1, 12, 4)]
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    masks = _dropout_masks(seqs, n_prompt, cfg,
                           drawn(seqs, n_prompt, cfg, rng), dtype)
    want = per_sequence_dropout_masks(seqs, n_prompt, cfg, ref_rng, dtype)
    assert len(masks) == len(want) == 1 + 2 * n_layers
    for got, ref in zip(masks, want):
        assert got.dtype == dtype and np.array_equal(got, ref)
    assert rng.random() == ref_rng.random()


def test_grouped_dropout_draws_are_blocks_of_one_draw():
    """Groups of a batch take consecutive blocks of the batch's one draw,
    so each group's masks are its sequences' rows of the batch's masks,
    and the generator ends where one draw leaves it."""
    cfg = tiny_config(n_layers=2, hidden=6, n_heads=2, dropout=0.3)
    seqs = [make_seq([1] * n) for n in (7, 1, 12, 4, 9)]
    groups = [seqs[:2], seqs[2:]]
    rng, ref_rng = np.random.default_rng(40), np.random.default_rng(40)
    blocks = dropout_draws(groups, 3, cfg, rng)
    whole = drawn(seqs, 3, cfg, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(np.concatenate(blocks), whole)
    group_masks = [_dropout_masks(g, 3, cfg, b, np.float32)
                   for g, b in zip(groups, blocks)]
    for site, mask in enumerate(_dropout_masks(seqs, 3, cfg, whole,
                                               np.float32)):
        assert np.array_equal(
            mask, np.concatenate([m[site] for m in group_masks]))
    off = tiny_config(n_layers=2, hidden=6, n_heads=2, dropout=0.0)
    assert dropout_draws(groups, 3, off, rng) == [None, None]
    assert dropout_draws(groups, 3, cfg, None) == [None, None]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def full_row_loss(seqs, params, cfg, prompts=None, drop=None):
    """batch_loss without row pruning: every row runs through the whole
    model and the unscored rows weigh 0 in the cross-entropy."""
    n_prompt = prompts.shape[0] if prompts is not None else 0
    logits = forward_batch(seqs, params, cfg, prompts=prompts, drop=drop)
    targets, weights = [], []
    for seq in seqs:
        t, m = shifted_targets(seq, n_prompt)
        targets.append(t)
        weights.append(m / (len(seqs) * m.sum()))
    return ad.cross_entropy(logits, np.concatenate(targets),
                            np.concatenate(weights))


def response_batch():
    """Ragged sequences whose loss starts at different rows."""
    return [make_seq([1, 5, 3, 0, 2, 6, 4], tags=[0, 1, 2, 3, 0, 1, 2],
                     flags=[0, 1, 1, 0, 0, 1, 0], mask=[False] * 4 + [True] * 3),
            make_seq([2, 4, 6], mask=[False, False, True]),
            make_seq([6, 1, 1, 3, 5], flags=[1, 1, 0, 0, 0],
                     mask=[False, False, True, False, True])]


def test_pruned_batch_loss_matches_full_rows_float64():
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2, dropout=0.3)
    params = params64(cfg, seed=30)
    prompts = init_prompts(2, cfg.hidden, seed=31, dtype=np.float64).matrix
    tensors = dict(params, prompts=prompts)
    seqs = response_batch()
    first = [2 + 3, 2 + 1, 2 + 1]  # the row before each first loss token
    runs = []
    for loss_fn in (batch_loss, full_row_loss):
        rng = np.random.default_rng(32)
        ad.reset_tape()
        loss = loss_fn(seqs, params, cfg, prompts=prompts,
                       drop=drawn(seqs, 2, cfg, rng))
        ad.backward(loss)
        runs.append((float(loss.data), {n: t.grad for n, t in tensors.items()},
                     rng.bit_generator.state))
        for t in tensors.values():
            t.grad = None
    (loss, grads, state), (ref_loss, ref_grads, ref_state) = runs
    assert state == ref_state  # dropout drew the same masks
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for n, g in ref_grads.items():
        assert np.max(np.abs(grads[n] - g)) <= 1e-12 * np.max(np.abs(g)), n
    with ad.no_grad():
        pruned = forward_batch(seqs, params, cfg, prompts=prompts, first=first)
        full = forward_batch(seqs, params, cfg, prompts=prompts).data
    assert pruned.shape[0] == sum(2 + len(s) - f for s, f in zip(seqs, first))
    assert np.allclose(pruned.data, full[ad.suffix_rows(
        [2 + len(s) for s in seqs], first)], rtol=0, atol=1e-12)


def random_response_seqs(rng, n, vocab_size, lo, hi):
    seqs = []
    for _ in range(n):
        length = int(rng.integers(lo, hi))
        start = int(rng.integers(1, length - 1))  # the reply's first token
        seqs.append(make_seq(rng.integers(0, vocab_size, length).tolist(),
                             flags=rng.integers(0, 2, length).tolist(),
                             mask=[False] * start + [True] * (length - start)))
    return seqs


def test_pruned_prompt_grad_and_ppl_bit_equal_float32(monkeypatch):
    """Against a frozen backbone the pruned rows change no bit of the loss,
    the prompt gradient or the perplexity: for replies that start at
    ragged rows, and for a loss on every token after BOS, where every
    sequence's first loss row is P."""
    cfg = ModelConfig(n_layers=2, n_heads=4, hidden=32, vocab_size=40,
                      max_len=96, dropout=0.1)
    params = init_parameters(cfg, seed=33)
    for t in params.values():
        t.requires_grad = False
    prompts = init_prompts(8, cfg.hidden, seed=34)
    ragged = random_response_seqs(np.random.default_rng(35), 12,
                                  cfg.vocab_size, 20, 80)
    after_bos = [make_seq(s.ids, flags=s.entity_flags) for s in ragged]
    assert model._loss_rows(after_bos, 8)[0] == [8] * 12
    batches = (ragged, after_bos)
    for seqs in batches:
        runs = []
        for loss_fn in (batch_loss, full_row_loss):
            rng = np.random.default_rng(36)
            ad.reset_tape()
            loss = loss_fn(seqs, params, cfg, prompts=prompts.matrix,
                           drop=drawn(seqs, 8, cfg, rng))
            ad.backward(loss)
            runs.append((loss.data.copy(), prompts.matrix.grad))
            prompts.matrix.grad = None
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    pruned = [evaluate_ppl(params, cfg, seqs, prompts) for seqs in batches]

    def every_row(seqs, params, config, prompts=None, first=None):
        """forward_batch over every row, then the rows ``first`` keeps."""
        logits = forward_batch(seqs, params, config, prompts=prompts)
        lengths = [prompts.shape[0] + len(s) for s in seqs]
        return ad.take_rows(logits, ad.suffix_rows(lengths, first))

    monkeypatch.setattr(model, "forward_batch", every_row)
    assert [evaluate_ppl(params, cfg, seqs, prompts)
            for seqs in batches] == pruned


@pytest.mark.xfail(strict=True,
                   reason="splice tail follows `<EOS>`; ROADMAP item 5")
def test_splice_tail_changes_the_reply_loss():
    """The spliced history mentions are there for the reply to read, so
    the scored loss must depend on them by more than rounding."""
    history = "I have a cough and a fever"
    dlg = Dialogue(id="d", turns=(
        Turn("patient", history, (EntitySpan(9, 14, "symptom"),)),
        Turn("doctor", "rest and fluids")))
    vocab = build_vocab([dlg])
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=8,
                      vocab_size=len(vocab), max_len=64, dropout=0.0)
    params = init_parameters(cfg, seed=7, dtype=np.float64)
    nll = {}
    for splice in (False, True):
        seq = linearize(dlg, vocab, cfg.max_len, "response", None, splice)
        with ad.no_grad():
            nll[splice] = float(token_nll([seq], params, cfg).data)
    assert abs(nll[True] - nll[False]) > 1e-9 * abs(nll[False])


def test_dropout_consumes_rng_per_sequence_in_site_order():
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2, dropout=0.1)
    params = init_parameters(cfg, seed=25)
    seqs = unequal_batch()
    rng = np.random.default_rng(26)
    batch_loss(seqs, params, cfg, prompts=init_prompts(3, 8, seed=1).matrix,
               drop=drawn(seqs, 3, cfg, rng))
    # embedding, then attention and FFW of each layer, sequence by sequence
    ref = np.random.default_rng(26)
    for seq in seqs:
        ref.random((len(seq), cfg.hidden))
        for _ in range(2 * cfg.n_layers):
            ref.random((3 + len(seq), cfg.hidden))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_perturbing_one_sequence_leaves_other_sequences_bit_identical():
    cfg = tiny_config(n_layers=2, hidden=8, n_heads=2)
    params = init_parameters(cfg, seed=27)
    prompts = init_prompts(2, cfg.hidden, seed=28).matrix
    seqs = unequal_batch()
    base = forward_batch(seqs, params, cfg, prompts=prompts).data.copy()
    t = 3
    seqs[0].ids[t] = (seqs[0].ids[t] + 1) % cfg.vocab_size
    seqs[0].entity_flags[t] = 1 - seqs[0].entity_flags[t]
    out = forward_batch(seqs, params, cfg, prompts=prompts).data
    end = 2 + len(seqs[0])  # rows of the first sequence
    assert np.array_equal(out[end:], base[end:])
    assert np.array_equal(out[:2 + t], base[:2 + t])
    assert not np.array_equal(out[2 + t], base[2 + t])


def overfit_one_sequence(cfg, seq, steps=300, lr=3e-3, seed=0):
    params = init_parameters(cfg, seed=seed)
    state = OptimizerState()
    for _ in range(steps):
        ad.reset_tape()
        loss = batch_loss([seq], params, cfg)
        ad.backward(loss)
        grads = {n: t.grad for n, t in params.items() if t.grad is not None}
        clip_grad_norm(grads, 1.0)
        adamw_step(params, grads, state, lr, weight_decay=0.0)
        for t in params.values():
            t.grad = None
    return params, float(loss.data)


def test_generate_overfit_regenerates_suffix():
    cfg = ModelConfig(n_layers=1, n_heads=2, hidden=16, vocab_size=9,
                      max_len=24, dropout=0.0)
    ids = [1, 6, 7, 8, 6, 7, 8, 6, 7, 8, 2]  # BOS-ish, pattern, EOS-ish
    seq = make_seq(ids)
    params, final_loss = overfit_one_sequence(cfg, seq)
    assert final_loss < 0.05
    prefix = make_seq(ids[:4])
    out = generate(prefix, params, cfg, strategy="greedy",
                   max_new=len(ids) - 4, seed=0)
    assert out == ids[4:]


def test_generate_max_new_zero_and_topk_determinism():
    cfg = tiny_config(hidden=8, n_heads=2)
    params = init_parameters(cfg, seed=14)
    seq = make_seq([1, 2, 3])
    assert generate(seq, params, cfg, max_new=0) == []
    a = generate(seq, params, cfg, strategy="top_k", max_new=6, seed=42)
    b = generate(seq, params, cfg, strategy="top_k", max_new=6, seed=42)
    assert a == b
    assert len(a) == 6


def test_generate_stops_at_eos():
    cfg = tiny_config(hidden=8, n_heads=2, vocab_size=5)
    params = init_parameters(cfg, seed=15)
    # pin the final hidden state to e0, then make token 2 win on column 0
    params["ln_f.gamma"].data[:] = 0.0
    params["ln_f.beta"].data[:] = 0.0
    params["ln_f.beta"].data[0] = 1.0
    params["tok_emb"].data[:, 0] = [0.0, 0.0, 10.0, 0.0, 0.0]
    seq = make_seq([1, 3])
    out = generate(seq, params, cfg, max_new=8, eos_id=2)
    assert out == [2]


def sharp_model(cfg, seed, n_prompt=0, dtype=np.float32):
    """Random weights scaled up so that next-token distributions are far
    from uniform; prompts are None when n_prompt is 0."""
    params = init_parameters(cfg, seed=seed, dtype=dtype)
    for t in params.values():
        if t.data.ndim == 2:
            t.data *= dtype(25.0)
    if not n_prompt:
        return params, None
    prompts = init_prompts(n_prompt, cfg.hidden, seed=5, dtype=dtype).matrix
    prompts.data *= dtype(25.0)
    return params, prompts


def annotated_seq(n, vocab_size, seed):
    rng = np.random.default_rng(seed)
    return TokenSequence(
        ids=rng.integers(0, vocab_size, n).tolist(),
        lexical_tags=rng.integers(0, len(LexTag), n).tolist(),
        entity_flags=rng.integers(0, 2, n).tolist(),
        loss_mask=[False] * n, position_ids=list(range(n)))


def extended(seq, new_ids):
    """History plus decoded tokens, annotated as generate annotates them."""
    n, k = len(seq), len(new_ids)
    return TokenSequence(
        ids=seq.ids + list(new_ids),
        lexical_tags=seq.lexical_tags + [int(LexTag.OTHER)] * k,
        entity_flags=seq.entity_flags + [0] * k,
        loss_mask=seq.loss_mask + [False] * k,
        position_ids=seq.position_ids + list(range(n, n + k)))


@pytest.mark.parametrize("n_prompt,channels,max_len,n_hist,max_new", [
    (3, {}, 40, 9, 12),
    (0, {}, 40, 9, 12),
    (2, {"use_lexical": False, "use_entity": False}, 40, 9, 12),
    (2, {}, 160, 140, 10),   # history longer than a 128-row block
    (3, {}, 24, 9, 100),     # decoding stops at max_len
])
def test_cached_decode_matches_full_forward_float64(n_prompt, channels,
                                                    max_len, n_hist, max_new):
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=16, vocab_size=11,
                      max_len=max_len, dropout=0.0, **channels)
    params, prompts = sharp_model(cfg, 41, n_prompt, np.float64)
    history = annotated_seq(n_hist, cfg.vocab_size, 3)
    cache = model.RowStore(cfg, n_prompt, np.float64)
    step, new_ids = history, []
    with ad.no_grad():
        while len(new_ids) < max_new and len(history) + len(new_ids) < max_len:
            cached = forward_batch(
                [step], params, cfg, cache=cache,
                prompts=prompts if step is history else None)
            assert cache.past == n_prompt + len(history) + len(new_ids)
            full = forward(extended(history, new_ids), params, cfg,
                           prompts=prompts).data[-cached.shape[0]:]
            assert cached.shape[0] == len(step) + (
                n_prompt if step is history else 0)
            err = np.max(np.abs(cached.data - full))
            assert err <= 1e-12 * np.max(np.abs(full)), err
            new_ids.append(int(np.argmax(cached.data[-1])))
            step = TokenSequence(
                ids=new_ids[-1:], lexical_tags=[int(LexTag.OTHER)],
                entity_flags=[0], loss_mask=[False],
                position_ids=[len(history) + len(new_ids) - 1])
    assert len(new_ids) == min(max_new, max_len - n_hist)
    assert generate(history, params, cfg, max_new=max_new,
                    prompts=prompts) == new_ids


def test_kv_cache_misuse_raises():
    cfg = tiny_config(hidden=8, n_heads=2)
    params = params64(cfg)
    cache = model.RowStore(cfg, 0, np.float64)
    with pytest.raises(GptLabError):  # grad recording on
        forward_batch([make_seq([1, 2, 3])], params, cfg, cache=cache)
    with ad.no_grad(), pytest.raises(GptLabError):  # two sequences
        forward_batch([make_seq([1, 2]), make_seq([3])], params, cfg,
                      cache=cache)
    cache.past = cfg.max_len - 2
    with ad.no_grad(), pytest.raises(GptLabError, match="overflow"):
        forward_batch([make_seq([1, 2, 3])], params, cfg, cache=cache)


def test_greedy_tokens_are_teacher_forced_argmax_float32():
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=16, vocab_size=13,
                      max_len=48, dropout=0.0)
    params, prompts = sharp_model(cfg, 31, n_prompt=3)
    history = annotated_seq(11, cfg.vocab_size, 8)
    out = generate(history, params, cfg, max_new=30, prompts=prompts)
    assert len(out) == 30
    with ad.no_grad():
        logits = forward(extended(history, out), params, cfg,
                         prompts=prompts).data
    first = 3 + len(history) - 1  # the row that predicts out[0]
    assert np.argmax(logits[first:first + len(out)], axis=1).tolist() == out


def test_top_k_output_is_unchanged_by_the_cache():
    # recorded with the full-recompute decoder that the cache replaced
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=16, vocab_size=13,
                      max_len=40, dropout=0.0)
    params, prompts = sharp_model(cfg, 31, n_prompt=3)
    seq = TokenSequence(ids=[1, 4, 7, 2, 9, 5],
                        lexical_tags=[int(LexTag.OTHER)] * 6,
                        entity_flags=[0, 1, 0, 1, 0, 1], loss_mask=[False] * 6,
                        position_ids=list(range(6)))
    kw = dict(strategy="top_k", max_new=24, seed=123, top_k=4)
    assert generate(seq, params, cfg, **kw) == [
        6, 8, 9, 9, 9, 9, 1, 6, 4, 6, 4, 2, 9, 9, 9, 9, 2, 9, 4, 10, 10, 4,
        4, 4]
    assert generate(seq, params, cfg, prompts=prompts, **kw) == [
        12, 6, 9, 8, 9, 9, 12, 9, 4, 7, 6, 9, 6, 12, 2, 0, 6, 9, 9, 9, 9, 4,
        4, 10]


@settings(max_examples=25, deadline=None)
@given(n_layers=st.integers(1, 3), n_heads=st.integers(1, 4),
       head_dim=st.integers(1, 4), vocab_size=st.integers(1, 12),
       max_len=st.integers(1, 12),
       dropout=st.floats(0.0, 1.0, exclude_max=True),
       use_lexical=st.booleans(), use_entity=st.booleans(),
       prompt_rows=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip(tmp_path_factory, n_layers, n_heads, head_dim,
                               vocab_size, max_len, dropout, use_lexical,
                               use_entity, prompt_rows, seed):
    """Any config, with 0-3 prompt rows saved last, loads back equal and
    bit for bit, and re-saving what was loaded rewrites the same bytes."""
    cfg = ModelConfig(n_layers=n_layers, n_heads=n_heads,
                      hidden=n_heads * head_dim, vocab_size=vocab_size,
                      max_len=max_len, dropout=dropout,
                      use_lexical=use_lexical, use_entity=use_entity)
    tensors = init_parameters(cfg, seed=seed)
    if prompt_rows:
        tensors[PROMPT_PARAM_NAME] = init_prompts(
            prompt_rows, cfg.hidden, seed=seed).matrix
    path = tmp_path_factory.mktemp("round-trip") / "model.ckpt"
    save_checkpoint(path, cfg, tensors)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert list(loaded) == list(tensors)
    for name, t in tensors.items():
        assert loaded[name].data.dtype == np.float32
        assert loaded[name].shape == t.shape
        assert loaded[name].data.tobytes() == t.data.tobytes()
    again = path.with_name("again.ckpt")
    save_checkpoint(again, loaded_cfg, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_byte_identical_rewrite(tmp_path):
    cfg = tiny_config()
    params = init_parameters(cfg, seed=17)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, cfg, params)
    save_checkpoint(p2, cfg, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_mismatte_and_garbage(tmp_path):
    cfg = tiny_config()
    params = init_parameters(cfg, seed=18)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, params)

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"????" + path.read_bytes()[4:])
    with pytest.raises(DataError, match="not a checkpoint container"):
        load_checkpoint(bad)

    # a tensor whose shape disagrees with the config must be rejected
    missing = dict(params)
    missing["tok_emb"] = Tensor(np.zeros((cfg.vocab_size, cfg.hidden + 1)))
    save_checkpoint(bad, cfg, missing)
    with pytest.raises(DataError, match="not the layout its config"):
        load_checkpoint(bad)

    # dropping a tensor must be rejected too
    short = {n: t for n, t in params.items() if n != "ln_f.gamma"}
    save_checkpoint(bad, cfg, short)
    with pytest.raises(DataError, match="not the layout its config"):
        load_checkpoint(bad)


def test_checkpoint_rejects_version_1(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=18))
    raw = bytearray(path.read_bytes())
    assert raw[4:8] == CHECKPOINT_VERSION.to_bytes(4, "little")
    raw[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="unsupported container version 1"):
        load_checkpoint(path)


def test_parameter_shapes_cover_count():
    cfg = ModelConfig(n_layers=2, n_heads=2, hidden=16, vocab_size=32,
                      max_len=16, dropout=0.0)
    params = init_parameters(cfg, seed=19)
    total = parameter_count(params)
    assert total == sum(np.prod(s) for s in parameter_shapes(cfg).values())
    assert set(params) == set(parameter_shapes(cfg))
