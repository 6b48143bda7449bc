import contextlib
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptlab import autodiff as ad
from gptlab.autodiff import GELU_COEF, Tensor
from gptlab.errors import (DoubleBackwardError, EmptyLossError, ShapeError,
                           VocabError)

from .util import cpus, fd_grad, max_rel_err, total


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[2.0, 3.0], [4.0, 5.0]])
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_product():
    # 1*5+2*7=19, 1*6+2*8=22, 3*5+4*7=43, 3*6+4*8=50
    c = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                  Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(c.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_grad_is_ones_times_bt():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(12.0).reshape(3, 4) / 7.0, requires_grad=True)
    loss = total(ad.matmul(a, b))
    ad.backward(loss)
    assert np.allclose(a.grad, np.ones((2, 4)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((2, 4)))

    num = fd_grad(lambda: total(ad.matmul(a, b)), a)
    assert max_rel_err(a.grad, num) < 1e-3


def softmax(rows, keep=None):
    """The attention softmax (``_masked_softmax``) of a copy of ``rows``."""
    x = np.array(rows, dtype=np.float64)
    return ad._masked_softmax(x, np.ones(x.shape, dtype=bool)
                              if keep is None else keep)


def test_softmax_symmetric_row():
    s = softmax([[5.0, 5.0, 5.0]])
    assert np.allclose(s, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_analytic_row():
    s = softmax([[0.0, math.log(2.0)]])
    assert np.allclose(s, [[1 / 3, 2 / 3]], atol=1e-15)


def test_softmax_masked_hand_value():
    # unmasked entries [1, 2]: softmax = [1/(1+e), e/(1+e)]; masked exactly 0
    mask = np.array([[True, True, False]])
    s = softmax([[1.0, 2.0, 3.0]], mask)
    e = math.e
    assert np.allclose(s, [[1 / (1 + e), e / (1 + e), 0.0]], atol=1e-15)
    assert s[0, 2] == 0.0


def test_softmax_fully_masked_row_rejected():
    # a sequence of zero rows is the only way attention could mask a whole
    # softmax row (its padded queries would see no key); it is refused
    with pytest.raises(ShapeError):
        ad.attention(Tensor(np.zeros((2, 6))), 1, [2, 0])


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    s = softmax(rows)
    assert np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-12)


def test_softmax_grad_matches_fd():
    # the vjp attention uses for its probabilities, against central
    # differences of sum(w * softmax(x)) under a mask
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)))
    mask = np.tril(np.ones((3, 4), dtype=bool), k=1)
    w = rng.normal(size=(3, 4))

    def loss_fn():
        return Tensor((softmax(x.data, mask) * w).sum())

    grad = ad._softmax_vjp(softmax(x.data, mask), w)
    assert max_rel_err(grad, fd_grad(loss_fn, x)) < 1e-3


def test_layer_norm_constant_row_collapses_to_beta():
    x = Tensor(np.full((2, 4), 3.7))
    out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_hand_case_eps_zero():
    # row [1, 3]: mean 2, population std 1 -> [-1, 1]
    out = ad.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)), 0.0)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-15)


def test_layer_norm_grad_matches_fd():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    gamma = Tensor(rng.normal(size=5), requires_grad=True)
    beta = Tensor(rng.normal(size=5), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))

    def loss_fn():
        return total(ad.mul(ad.layer_norm(x, gamma, beta, 1e-5), w))

    ad.backward(loss_fn())
    for t in (x, gamma, beta):
        assert max_rel_err(t.grad, fd_grad(loss_fn, t)) < 1e-3


def test_gelu_zero_and_asymptote():
    assert ad.gelu(Tensor([0.0])).data[0] == 0.0
    assert abs(ad.gelu(Tensor([10.0])).data[0] - 10.0) < 1e-6


def test_gelu_at_one_matches_formula():
    # direct evaluation of the tanh approximation at x=1
    expected = 0.5 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * 1.044715))
    got = ad.gelu(Tensor([1.0])).data[0]
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.841192) < 1e-6


def test_gelu_grad_matches_fd():
    x = Tensor(np.linspace(-3, 3, 13)[None], requires_grad=True)

    def loss_fn():
        return total(ad.gelu(x))

    ad.backward(loss_fn())
    assert max_rel_err(x.grad, fd_grad(loss_fn, x)) < 1e-3


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 32)))
    loss = ad.cross_entropy(logits, [0, 5, 31, 7], [1 / 4] * 4)
    assert abs(float(loss.data) - math.log(32)) < 1e-12


def test_cross_entropy_near_delta():
    logits = np.zeros((1, 8))
    logits[0, 3] = 100.0
    loss = ad.cross_entropy(Tensor(logits), [3], [1.0])
    assert float(loss.data) < 1e-6


def test_cross_entropy_matches_brute_force():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    targets = [1, 4, 0]
    loss = ad.cross_entropy(Tensor(x), targets, [1 / 3] * 3)
    # independent per-position path: explicit softmax then -log at the target
    total = 0.0
    for t in range(3):
        p = np.exp(x[t]) / np.exp(x[t]).sum()
        total += -math.log(p[targets[t]])
    assert abs(float(loss.data) - total / 3) < 1e-12


def test_cross_entropy_respects_mask():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    loss = ad.cross_entropy(Tensor(x), [2, 0, 1, 5], [0.0, 1.0, 0.0, 0.0])
    p = np.exp(x[1]) / np.exp(x[1]).sum()
    assert abs(float(loss.data) + math.log(p[0])) < 1e-12


def test_cross_entropy_errors():
    with pytest.raises(EmptyLossError):
        ad.cross_entropy(Tensor(np.zeros((2, 4))), [0, 1], [0.0, 0.0])
    with pytest.raises(VocabError):
        ad.cross_entropy(Tensor(np.zeros((2, 4))), [0, 4], [0.5, 0.5])


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    targets = [1, 6, 3, 0, 2]
    weights = [1 / 3, 0.0, 1 / 3, 1 / 3, 0.0]

    def loss_fn():
        return ad.cross_entropy(x, targets, weights)

    ad.backward(loss_fn())
    assert max_rel_err(x.grad, fd_grad(loss_fn, x)) < 1e-3


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    ad.backward(total(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_elementwise_square():
    x = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    ad.backward(total(ad.mul(x, x)))
    assert np.allclose(x.grad, [[2.0, 4.0, 6.0]])


def test_double_backward_raises_until_reset():
    x = Tensor([[1.0]], requires_grad=True)
    loss = total(x)
    ad.backward(loss)
    with pytest.raises(DoubleBackwardError):
        ad.backward(loss)
    ad.reset_tape()
    loss2 = total(ad.mul(x, x))
    ad.backward(loss2)  # works again on the fresh tape


def test_fanout_accumulates_additively():
    x = Tensor([[2.0]], requires_grad=True)
    y = ad.add(x, x)           # consumed twice
    z = ad.add(y, ad.mul(x, Tensor([[3.0]])))  # and a third time
    ad.backward(total(z))
    assert np.allclose(x.grad, [[5.0]])


def test_add_gives_its_inputs_separate_gradients():
    # m is recorded first, so backward runs its vjp last, adding 3 into
    # a's gradient after add has handed out its incoming gradient
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    m = ad.mul(a, Tensor(np.full((2, 3), 3.0)))
    y = ad.add(a, b)
    ad.backward(total(ad.add(y, m)))
    assert np.array_equal(a.grad, np.full((2, 3), 4.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_float32_leaves_keep_float32_grads_in_a_float64_graph():
    c = Tensor(np.full((2, 3), 3.0))  # float64: m and the loss are float64
    for m_first in (True, False):
        ad.reset_tape()
        a, b = (Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
                for _ in range(2))
        if m_first:  # a's first gradient is float32, from y
            m = ad.mul(a, c)
            y = ad.add(a, b)
        else:  # a's first gradient is float64, from m, and is cast
            y = ad.add(a, b)
            m = ad.mul(a, c)
        ad.backward(total(ad.add(y, m)))
        for t, want in ((a, 4.0), (b, 1.0)):
            assert t.grad.dtype == np.float32, m_first
            assert np.array_equal(t.grad, np.full((2, 3), want)), m_first


# for each two-operand op: may tensor t be its second operand next to a?
SECOND_OPERAND = {
    "add": lambda a, t: t.shape == a.shape,
    "mul": lambda a, t: t.shape == a.shape,
    "matmul": lambda a, t: t.shape[0] == a.shape[1],
    "concat_rows": lambda a, t: t.shape[1] == a.shape[1],
}
GRAPH_OPS = (*SECOND_OPERAND, "transpose", "take_rows")


def _random_graph(steps, seed):
    """Three float64 n x n leaves (the last frozen), then per step one op
    on tensors consumed fewer than 3 times; every tensor that no op
    consumed is summed into the loss. Returns (leaves, loss). Entries of
    at most 1/n keep 12 steps of products far from overflow."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    leaves = [Tensor(rng.uniform(-1, 1, size=(n, n)) / n, requires_grad=need)
              for need in (True, True, False)]
    pool, uses = list(leaves), [0, 0, 0]

    def pick(k, fits=lambda t: True, taken=None):  # taken: the first operand
        free = [x for x, t in enumerate(pool)
                if fits(t) and uses[x] + (x == taken) < 3]
        return free[k % len(free)] if free else None

    for op, i, j, k in steps:
        i = pick(i)
        if i is None:
            break
        a, ins = pool[i], [i]
        if op in SECOND_OPERAND:
            j = pick(j, lambda t: SECOND_OPERAND[op](a, t), taken=i)
            if j is None:
                continue
            ins.append(j)
        if op == "concat_rows":
            out = ad.concat_rows([pool[x] for x in ins])
        elif op == "take_rows":
            out = ad.take_rows(a, np.random.default_rng(k).integers(
                0, len(a.data), size=1 + k % 5))
        else:
            out = getattr(ad, op)(*(pool[x] for x in ins))
        for x in ins:
            uses[x] += 1
        pool.append(out)
        uses.append(0)
    loss = None
    for t, used in zip(pool, uses):
        if not used:
            loss = total(t) if loss is None else ad.add(loss, total(t))
    return leaves, loss


def _copying_backward(loss):
    """The reverse pass that copies every first gradient a tensor
    receives, so no two tensors ever share a gradient array."""
    loss.grad = np.ones_like(loss.data)
    for out, inputs, vjp in reversed(ad.active_tape().entries):
        if out.grad is not None:
            for t, g in zip(inputs, vjp(out.grad)):
                if g is not None and t.requires_grad:
                    if t.grad is None:
                        t.grad = np.array(g, dtype=t.dtype, copy=True)
                    else:
                        t.grad += g


STEP = st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 50),
                 st.integers(0, 50), st.integers(0, 50))


@settings(deadline=None, max_examples=80)
@example(steps=[("mul", 0, 1, 0), ("add", 0, 1, 0)], seed=0)
@example(steps=[("concat_rows", 0, 0, 0), ("take_rows", 3, 0, 7),
                ("matmul", 0, 3, 0), ("transpose", 0, 0, 0),
                ("add", 1, 3, 0)], seed=1)
@given(steps=st.lists(STEP, min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_backward_equals_a_pass_that_copies_every_first_gradient(steps, seed):
    ad.reset_tape()
    leaves, loss = _random_graph(steps, seed)
    ad.backward(loss)
    ad.reset_tape()  # a tape runs backward once: build the graph again
    ref_leaves, ref_loss = _random_graph(steps, seed)
    _copying_backward(ref_loss)
    for got, want in zip(leaves, ref_leaves):
        assert (got.grad is None) == (want.grad is None)
        if want.grad is not None:
            assert got.grad.dtype == want.grad.dtype
            assert np.array_equal(got.grad, want.grad)


def test_accumulation_order_independent():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(4, 4))
    a_const = rng.normal(size=(4, 4))
    b_const = rng.normal(size=(4, 4))

    def run(first_a):
        ad.reset_tape()
        x = Tensor(base.copy(), requires_grad=True)
        ta = total(ad.mul(x, Tensor(a_const)))
        tb = total(ad.mul(x, Tensor(b_const)))
        loss = ad.add(ta, tb) if first_a else ad.add(tb, ta)
        ad.backward(loss)
        return x.grad.copy()

    assert np.max(np.abs(run(True) - run(False))) < 1e-12


def test_take_rows_scatter_adds_repeats():
    table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = ad.take_rows(table, [1, 1, 3])
    ad.backward(total(out))
    assert np.array_equal(table.grad,
                          [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_take_rows_range_check():
    with pytest.raises(VocabError):
        ad.take_rows(Tensor(np.zeros((3, 2))), [0, 3])


def test_concat_grads_split_back():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((4, 3)), requires_grad=True)
    out = ad.concat_rows([a, b])
    assert out.shape == (6, 3)
    w = Tensor(np.arange(18.0).reshape(6, 3))
    ad.backward(total(ad.mul(out, w)))
    assert np.array_equal(a.grad, w.data[:2])
    assert np.array_equal(b.grad, w.data[2:])

    ad.reset_tape()
    c = Tensor(np.ones((2, 2)), requires_grad=True)
    d = Tensor(np.ones((5, 2)), requires_grad=True)
    out = ad.concat_rows([c, d])
    assert out.shape == (7, 2)
    ad.backward(total(out))
    assert np.array_equal(c.grad, np.ones((2, 2)))
    assert np.array_equal(d.grad, np.ones((5, 2)))


def test_concat_rejects_mismatched_column_counts():
    with pytest.raises(ShapeError):
        ad.concat_rows([Tensor(np.ones((2, 3))), Tensor(np.ones((1, 4)))])


def test_transpose_roundtrip_grad():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = Tensor(np.arange(6.0).reshape(3, 2))
    ad.backward(total(ad.mul(ad.transpose(x), w)))
    assert np.array_equal(x.grad, w.data.T)


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_add_and_mul_need_operands_of_one_shape(op):
    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    for other in (np.zeros(4), np.zeros((1, 4)), np.zeros((4, 3)),
                  np.float64(2.0)):
        with pytest.raises(ShapeError, match="one shape"):
            op(x, Tensor(other))
        with pytest.raises(ShapeError, match="one shape"):
            op(Tensor(other), x)
    assert not ad.active_tape().entries


def test_no_grad_suspends_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    assert len(ad.active_tape().entries) == 0


# each op, the shapes of the inputs it records, and a call on those inputs
RECORDING_OPS = {
    "add": ([(2, 3), (2, 3)], ad.add),
    "mul": ([(2, 3), (2, 3)], ad.mul),
    "matmul": ([(2, 3), (3, 4)], ad.matmul),
    "matmul-bias": ([(2, 3), (3, 4), (4,)],
                    lambda a, b, bias: ad.matmul(a, b, bias=bias)),
    "transpose": ([(2, 3)], ad.transpose),
    "attention": ([(3, 6)], lambda qkv: ad.attention(qkv, 2, [2, 1])),
    "layer_norm": ([(2, 3), (3,), (3,)],
                   lambda x, gamma, beta: ad.layer_norm(x, gamma, beta, 1e-5)),
    "gelu": ([(2, 3)], ad.gelu),
    "cross_entropy": ([(2, 3)],
                      lambda x: ad.cross_entropy(x, [0, 2], [1.0, 0.5])),
    "take_rows": ([(4, 3)], lambda table: ad.take_rows(table, [3, 0, 3])),
    "concat_rows": ([(2, 3), (1, 3), (3, 3)],
                    lambda *parts: ad.concat_rows(list(parts))),
}
# which recorded inputs require grad, by their count
TRAINABLE = {
    "all-frozen": lambda n: [False] * n,
    "first-frozen": lambda n: [False] + [True] * (n - 1),
    "last-trainable": lambda n: [False] * (n - 1) + [True],
    "all-trainable": lambda n: [True] * n,
}


@pytest.mark.parametrize("grad_mode", [True, False])
@pytest.mark.parametrize("trainable", sorted(TRAINABLE))
@pytest.mark.parametrize("op", sorted(RECORDING_OPS))
def test_op_records_iff_grad_mode_and_an_input_requires_grad(
        op, trainable, grad_mode):
    shapes, call = RECORDING_OPS[op]
    needs = TRAINABLE[trainable](len(shapes))
    rng = np.random.default_rng(14)
    inputs = tuple(Tensor(rng.normal(size=shape), requires_grad=need)
                   for shape, need in zip(shapes, needs))
    with contextlib.nullcontext() if grad_mode else ad.no_grad():
        out = call(*inputs)
    entries = ad.active_tape().entries
    recorded = grad_mode and any(needs)
    assert out.requires_grad == recorded
    assert len(entries) == recorded
    if recorded:
        (result, got, _), = entries
        assert result is out and got == inputs


def test_backward_rejects_foreign_loss():
    x = Tensor([[1.0]], requires_grad=True)
    loss = total(x)
    ad.reset_tape()  # loss now belongs to a dead tape
    with pytest.raises(Exception, match="tape"):
        ad.backward(loss)


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 6))

    def run():
        ad.reset_tape()
        t = Tensor(x.copy(), requires_grad=True)
        out = ad.attention(ad.gelu(ad.matmul(t, ad.transpose(t))), 1, [4, 2])
        return out.data.copy()

    assert np.array_equal(run(), run())


def test_vjps_skip_inputs_without_grad():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    frozen = dict(gamma=Tensor(np.ones(6)), beta=Tensor(np.zeros(6)),
                  w=Tensor(rng.normal(size=(6, 6))), b=Tensor(np.zeros(6)),
                  shift=Tensor(rng.normal(size=(5, 6))),
                  keep=Tensor((rng.random((5, 2)) > 0.5) * 1.0))
    assert not any(t.requires_grad for t in frozen.values())
    h = ad.layer_norm(x, frozen["gamma"], frozen["beta"], 1e-5)
    h = ad.add(ad.matmul(h, frozen["w"], bias=frozen["b"]), frozen["shift"])
    h = ad.attention(h, 2, [3, 2])
    h = ad.mul(h, frozen["keep"])
    h = ad.concat_rows([h, Tensor(np.zeros((1, 2)))])
    total(h)
    for out, inputs, vjp in ad.active_tape().entries:
        grads = vjp(np.ones_like(out.data))
        for t, g in zip(inputs, grads):
            assert (g is None) == (not t.requires_grad), vjp.__qualname__


@pytest.mark.parametrize("lengths", [[4], [3, 1, 4], [2, 2]])
def test_attention_grad_matches_fd(lengths):
    rng = np.random.default_rng(8)
    qkv = Tensor(rng.normal(size=(sum(lengths), 12)), requires_grad=True)
    w = Tensor(rng.normal(size=(sum(lengths), 4)))

    def loss_fn():
        return total(ad.mul(ad.attention(qkv, 2, lengths), w))

    ad.backward(loss_fn())
    assert max_rel_err(qkv.grad, fd_grad(loss_fn, qkv)) < 1e-3


@pytest.mark.parametrize("lengths,first",
                         [([4], [2]), ([3, 1, 5], [1, 0, 3]), ([2, 3], [1, 1])])
def test_attention_with_first_grad_matches_fd(lengths, first):
    """Only rows first[b]: ask queries; every row still gives keys and
    values, and rows before first[b] get no query gradient."""
    rng = np.random.default_rng(11)
    qkv = Tensor(rng.normal(size=(sum(lengths), 12)), requires_grad=True)
    rows = ad.suffix_rows(lengths, first)
    w = Tensor(rng.normal(size=(rows.size, 4)))

    def loss_fn():
        return total(ad.mul(ad.attention(qkv, 2, lengths,
                                                 first=first), w))

    ad.backward(loss_fn())
    assert max_rel_err(qkv.grad, fd_grad(loss_fn, qkv)) < 1e-3
    asked = np.zeros(sum(lengths), dtype=bool)
    asked[rows] = True
    assert not qkv.grad[~asked, :4].any()
    with ad.no_grad():
        full = ad.attention(qkv, 2, lengths).data
        assert np.allclose(ad.attention(qkv, 2, lengths, first=first).data,
                           full[rows], rtol=0, atol=1e-15)


def test_attention_with_first_after_a_cache_offset():
    """Query j of a cached call sits at key position length + first + j."""
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(9, 12))
    slot = ad.KVSlot(2, 12, 2, np.float64)
    with ad.no_grad():
        full = ad.attention(Tensor(rows), 2, [9]).data
        head = ad.attention(Tensor(rows[:4]), 2, [4], cache=slot, first=[3])
        tail = ad.attention(Tensor(rows[4:]), 2, [5], cache=slot, first=[2])
    assert slot.length == 9
    assert np.allclose(head.data, full[3:4], rtol=0, atol=1e-15)
    assert np.allclose(tail.data, full[6:], rtol=0, atol=1e-15)


@pytest.mark.parametrize("first", [[2], [-1], [0, 0]])
def test_attention_first_outside_the_sequence_rejected(first):
    with pytest.raises(ShapeError):
        ad.attention(Tensor(np.zeros((2, 6))), 1, [2], first=first)


def test_attention_sequences_are_independent():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(7, 6))
    packed = ad.attention(Tensor(rows), 1, [4, 3]).data
    first = ad.attention(Tensor(rows[:4]), 1, [4]).data
    second = ad.attention(Tensor(rows[4:]), 1, [3]).data
    assert np.allclose(packed, np.concatenate([first, second]), atol=1e-15)
    with pytest.raises(ShapeError):
        ad.attention(Tensor(rows), 1, [4, 4])


def test_matmul_weight_grad_over_many_rows():
    # past ROW_BLOCK rows the weight gradient is reduced block by block
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3 * ad.ROW_BLOCK + 37, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = rng.normal(size=(a.shape[0], 3))
    ad.backward(total(ad.mul(ad.matmul(a, b), Tensor(w))))
    assert np.allclose(b.grad, a.data.T @ w, rtol=1e-12, atol=1e-12)
    assert np.allclose(a.grad, w @ b.data.T, rtol=1e-12, atol=1e-12)


def test_cross_entropy_row_weights():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets, weights = [1, 2, 3, 4], [0.5, 0.0, 0.25, 0.25]

    def loss_fn():
        return ad.cross_entropy(x, targets, weights)

    loss = loss_fn()
    logp = x.data - np.log(np.exp(x.data).sum(axis=1, keepdims=True))
    want = -(0.5 * logp[0, 1] + 0.25 * logp[2, 3] + 0.25 * logp[3, 4])
    assert abs(float(loss.data) - want) < 1e-12
    ad.backward(loss)
    assert max_rel_err(x.grad, fd_grad(loss_fn, x)) < 1e-3


def _layer_norm_reference(x, gamma, beta, eps, g):
    """The np.mean/np.var layer norm and vjp that ``ad.layer_norm`` replaced."""
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = xhat * gamma + beta
    dxhat = g * gamma
    dx = inv_std * (dxhat
                    - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
    return y, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


@settings(deadline=None, max_examples=30)
@example(n_rows=1, dtype=np.float32, seed=0)
@example(n_rows=1, dtype=np.float64, seed=0)
@given(n_rows=st.integers(1, 300),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_layer_norm_bit_equal_to_mean_var_formula(n_rows, dtype, seed):
    rng = np.random.default_rng(seed)
    x, g = (rng.normal(1.0, 3.0, size=(n_rows, 48)).astype(dtype)
            for _ in range(2))
    gamma, beta = (rng.normal(1.0, 0.5, size=48).astype(dtype)
                   for _ in range(2))
    ad.reset_tape()
    tx, tgamma, tbeta = (Tensor(a, requires_grad=True)
                         for a in (x, gamma, beta))
    out = ad.layer_norm(tx, tgamma, tbeta, 1e-5)
    assert out.dtype == dtype
    ad.backward(total(ad.mul(out, Tensor(g))))
    want = _layer_norm_reference(x, gamma, beta, 1e-5, g)
    for got, ref in zip((out.data, tx.grad, tgamma.grad, tbeta.grad), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def _gelu_reference(x, g):
    """The gelu and vjp that kept x * x alive from forward to backward."""
    c = math.sqrt(2.0 / math.pi)
    x2 = x * x
    t = x2 * GELU_COEF
    t += 1.0
    t *= x
    t *= c
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    dy = x2
    dy *= 3.0 * GELU_COEF
    dy += 1.0
    dy *= c
    dy *= x
    np.subtract(1.0, t, out=t)
    dy *= t
    dy += 1.0
    np.subtract(2.0, t, out=t)
    dy *= t
    dy *= 0.5
    dy *= g
    return y, dy


@settings(deadline=None, max_examples=30)
@example(n_rows=1, dtype=np.float32, seed=0)
@example(n_rows=2100, dtype=np.float32, seed=0)
@given(n_rows=st.integers(1, 2100),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_gelu_bit_equal_to_formula_with_kept_square(n_rows, dtype, seed):
    rng = np.random.default_rng(seed)
    x, g = (rng.normal(0.0, 3.0, size=(n_rows, 32)).astype(dtype)
            for _ in range(2))
    ad.reset_tape()
    tx = Tensor(x.copy(), requires_grad=True)
    out = ad.gelu(tx)
    ad.backward(total(ad.mul(out, Tensor(g))))
    for got, ref in zip((out.data, tx.grad), _gelu_reference(x, g)):
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref)


def test_matmul_bias_grad_matches_fd():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(ad.ROW_BLOCK + 9, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    w = Tensor(rng.normal(size=(a.shape[0], 3)))

    def loss_fn():
        return total(ad.mul(ad.matmul(a, b, bias=bias), w))

    out = ad.matmul(a, b, bias=bias)
    assert np.array_equal(out.data, a.data @ b.data + bias.data)
    ad.backward(loss_fn())
    for t in (a, b, bias):
        assert max_rel_err(t.grad, fd_grad(loss_fn, t)) < 1e-6
    assert np.array_equal(bias.grad, w.data.sum(axis=0))


@pytest.mark.parametrize("frozen", ["b", "bias"])
def test_matmul_frozen_weight_or_bias_gets_no_grad(frozen):
    rng = np.random.default_rng(13)
    t = {"a": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
         "b": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
         "bias": Tensor(rng.normal(size=2), requires_grad=True)}
    t[frozen].requires_grad = False
    out = ad.matmul(t["a"], t["b"], bias=t["bias"])
    (_, inputs, vjp), = ad.active_tape().entries
    assert inputs == (t["a"], t["b"], t["bias"])
    grads = dict(zip(("a", "b", "bias"), vjp(np.ones_like(out.data))))
    for name, g in grads.items():
        assert (g is None) == (name == frozen)
    with pytest.raises(ShapeError, match="bias"):
        ad.matmul(t["a"], t["b"], bias=Tensor(np.zeros(3)))


def test_tensor_keeps_the_float_dtype_it_is_given():
    single = np.ones(2, dtype=np.float32)
    assert Tensor(single).dtype == np.float32
    assert Tensor(single).data is single
    assert Tensor(3.5).dtype == np.float64


# --- kernel rows split across CPUs ---

SPLIT = ad.SPLIT_ROWS
# row counts from 1 to about 2600, crowding where 2 and 3 ranges begin
ROWS = st.one_of(st.integers(1, 2600), st.integers(2 * SPLIT - 2, 2 * SPLIT + 2),
                 st.integers(3 * SPLIT - 2, 3 * SPLIT + 2))
DTYPES = st.sampled_from([np.float32, np.float64])
WIDTHS = st.sampled_from([2, 3, 16, 31, 64, 100, 192, 256])


def _at_every_cpu_count(op, arrays, needs, seed):
    """Run ``op`` on fresh tensors of ``arrays`` at 1 to 4 CPUs and its
    vjp on one upstream gradient; require the outputs and gradients of
    every count to equal those of 1 CPU (one whole-array kernel call) bit
    for bit. Returns, per CPU count, one list per split kernel call: the
    (ndim, first-axis length) of each range it ran on, probes left out."""
    real, ranges, results = ad._split, {}, {}

    def spy(kernel, *args, **kw):
        call = []
        ranges[n].append(call)

        def counted(*part):
            if len(part[0]):
                call.append((part[0].ndim, len(part[0])))
            return kernel(*part)
        return real(counted, *args, **kw)

    ad._split = spy
    try:
        for n in (1, 2, 3, 4):
            ranges[n] = []
            with cpus(n):
                ad.reset_tape()
                out = op(*(Tensor(a.copy(), requires_grad=need)
                           for a, need in zip(arrays, needs)))
                grads = ()
                if out.requires_grad:
                    g = np.random.default_rng(seed).normal(size=out.shape)
                    grads = ad.active_tape().entries[-1][2](g.astype(out.dtype))
                results[n] = (out.data, *grads)
    finally:
        ad._split = real
    for n in (2, 3, 4):
        for got, want in zip(results[n], results[1]):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), n
    return ranges


def _check_row_ranges(ranges, products=True):
    """A row kernel splits exactly when there are SPLIT_ROWS rows or more
    per range (a weight gradient's 128-row blocks count as their rows);
    with ``products`` False, 2-D matrix products stay whole."""
    for n, calls in ranges.items():
        for call in calls:
            rows = [length * (ad.ROW_BLOCK if ndim == 3 else 1)
                    for ndim, length in call]
            parts = min(n, sum(rows) // SPLIT)
            if not products and call[0][0] == 2:
                parts = 1
            assert len(call) == max(parts, 1), (n, rows)
            assert len(call) == 1 or min(rows) >= SPLIT, (n, rows)


@settings(deadline=None, max_examples=40)
@example(n_rows=2 * SPLIT, k=64, m=256, dtype=np.float32, frozen=(),
         bias=True, seed=0)  # ranges of exactly SPLIT_ROWS rows
@example(n_rows=2 * SPLIT, k=31, m=64, dtype=np.float32, frozen=(),
         bias=False, seed=1)  # just past 100³ multiply-adds per range
@example(n_rows=2 * SPLIT + 2 * ad.ROW_BLOCK - 1, k=256, m=64,
         dtype=np.float64, frozen=(), bias=True, seed=2)
@given(n_rows=ROWS, k=WIDTHS, m=WIDTHS, dtype=DTYPES,
       frozen=st.sets(st.sampled_from(["a", "b", "bias"])),
       bias=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_split_matmul_equals_one_whole_call(n_rows, k, m, dtype, frozen,
                                            bias, seed):
    """Products split by rows in float32 past 100³ multiply-adds per range;
    the weight gradient's 128-row blocks split in any dtype."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s).astype(dtype)
              for s in ((n_rows, k), (k, m), (m,))[:3 if bias else 2]]
    needs = [name not in frozen for name in ("a", "b", "bias")]
    ranges = _at_every_cpu_count(ad.matmul, arrays, needs, seed)
    _check_row_ranges(ranges, products=dtype == np.float32
                      and SPLIT * k * m > 100 ** 3)


@settings(deadline=None, max_examples=25)
@example(n_rows=2 * SPLIT, h=64, dtype=np.float32, frozen=(), seed=0)
@given(n_rows=ROWS, h=WIDTHS, dtype=DTYPES,
       frozen=st.sets(st.sampled_from(["x", "gamma", "beta"])),
       seed=st.integers(0, 2 ** 16))
def test_split_layer_norm_equals_one_whole_call(n_rows, h, dtype, frozen,
                                                seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(1.0, 3.0, size=s).astype(dtype)
              for s in ((n_rows, h), (h,), (h,))]
    needs = [name not in frozen for name in ("x", "gamma", "beta")]
    ranges = _at_every_cpu_count(
        lambda x, gamma, beta: ad.layer_norm(x, gamma, beta, 1e-5),
        arrays, needs, seed)
    _check_row_ranges(ranges)


@settings(deadline=None, max_examples=25)
@example(n_rows=2 * SPLIT, f=256, dtype=np.float32, frozen=False, seed=0)
@given(n_rows=ROWS, f=WIDTHS, dtype=DTYPES, frozen=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_split_gelu_equals_one_whole_call(n_rows, f, dtype, frozen, seed):
    x = np.random.default_rng(seed).normal(0.0, 3.0, size=(n_rows, f))
    ranges = _at_every_cpu_count(ad.gelu, [x.astype(dtype)], [not frozen],
                                 seed)
    _check_row_ranges(ranges)


@settings(deadline=None, max_examples=25)
@example(lengths=[SPLIT] * 2, heads=2, dk=32, dtype=np.float32,
         frozen=False, data=None)
@given(lengths=st.lists(st.integers(1, 240), min_size=1, max_size=14),
       heads=st.sampled_from([1, 2]), dk=st.sampled_from([1, 4, 32]),
       dtype=DTYPES, frozen=st.booleans(), data=st.data())
def test_split_attention_equals_one_whole_call(lengths, heads, dk, dtype,
                                               frozen, data):
    """Ragged sequences, with and without ``first``, split by sequence."""
    first = None
    if data is not None and data.draw(st.booleans()):
        first = [data.draw(st.integers(0, n - 1)) for n in lengths]
    qkv = np.random.default_rng(len(lengths)).normal(
        size=(sum(lengths), 3 * heads * dk)).astype(dtype)
    ranges = _at_every_cpu_count(
        lambda t: ad.attention(t, heads, lengths, first=first), [qkv],
        [not frozen], 0)
    parts = min(len(lengths), sum(lengths) // SPLIT)
    for n, calls in ranges.items():
        if parts > 1:  # smaller forwards call their kernel directly
            assert len(calls) == (1 if frozen else 2)  # forward, vjp
        for call in calls:
            assert sum(length for _, length in call) == len(lengths)
            assert len(call) == max(min(n, parts), 1)


def test_attention_after_a_cache_offset_at_every_cpu_count():
    """A cached call (one sequence) never splits; it gives the same
    bytes at any CPU count."""
    rows = np.random.default_rng(14).normal(size=(3 * SPLIT, 12))
    outs = []
    for n in (1, 2, 3):
        slot = ad.KVSlot(2, 3 * SPLIT, 2, np.float64)
        with cpus(n), ad.no_grad():
            ad.attention(Tensor(rows[:SPLIT]), 2, [SPLIT], cache=slot)
            outs.append(ad.attention(Tensor(rows[SPLIT:]), 2, [2 * SPLIT],
                                     cache=slot, first=[1]).data)
    assert all(np.array_equal(o, outs[0]) for o in outs)


def test_split_ops_under_thread_switches_every_microsecond():
    """More ranges than CPUs, threads switching as often as they can: every
    repeat still writes the whole-call bytes."""
    rng = np.random.default_rng(16)
    x = rng.normal(size=(5 * SPLIT + 3, 64)).astype(np.float32)
    w = rng.normal(size=(64, 64)).astype(np.float32)
    ones, zeros = np.ones(64, np.float32), np.zeros(64, np.float32)

    def run():
        with ad.no_grad():
            h = ad.layer_norm(Tensor(x), Tensor(ones), Tensor(zeros), 1e-5)
            return ad.gelu(ad.matmul(h, Tensor(w))).data

    with cpus(1):
        want = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cpus(4):
            assert all(np.array_equal(run(), want) for _ in range(20))
    finally:
        sys.setswitchinterval(interval)


def test_split_ranges_run_under_the_callers_numpy_error_state():
    x = np.ones((2 * SPLIT, 4), dtype=np.float32)
    x[-1] = 1e30  # x * x overflows in the last range, usually a pool's
    with cpus(2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ad.gelu(Tensor(x))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.gelu(Tensor(x))


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_split_reraises_once_every_range_has_finished(failing):
    """No range writes into the op's buffers after the op has raised."""
    rows = np.arange(2 * SPLIT)
    done = np.zeros(2 * SPLIT)

    def kernel(idx, seen, out):
        if idx.size and (idx[0] == 0) == (failing == "caller"):
            raise ValueError(failing)
        time.sleep(0.05)
        seen[:] = 1.0
        return np.multiply(idx, 1.0, out=out)

    with cpus(2), pytest.raises(ValueError, match=failing):
        ad._split(kernel, (rows, done))
    assert done.sum() == SPLIT  # the range that did not fail finished


def test_spread_returns_results_in_index_order():
    def task(i):
        time.sleep(0.001 * (i % 3))  # threads finish out of order
        return i * i

    for n in (1, 2, 3, 4):
        with cpus(n):
            assert ad.spread(task, 9) == [i * i for i in range(9)]


def _first_two_on_two_threads(n, work):
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


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_spread_reraises_the_lowest_failing_index_once_all_finished(failing):
    """Every task on one side raises; each task still runs to its end (the
    pool's last, made slow, after the caller's), the caller re-raises the
    lowest index of that side, and the pool then serves the next call."""
    caller, finished = threading.get_ident(), set()

    def work(i):
        time.sleep(0.001 if ran[i] == caller else 0.05)
        finished.add(i)
        if (ran[i] == caller) == (failing == "caller"):
            raise ValueError(i)
        return i

    task, ran = _first_two_on_two_threads(8, work)
    with cpus(2), pytest.raises(ValueError) as raised:
        ad.spread(task, 8)
    assert finished == set(range(8))
    side = [i for i in range(8) if (ran[i] == caller) == (failing == "caller")]
    assert raised.value.args == (min(side),)
    task, ran = _first_two_on_two_threads(4, lambda i: -i)
    with cpus(2):
        assert ad.spread(task, 4) == [0, -1, -2, -3]
    assert len(set(ran.values())) == 2


@pytest.mark.parametrize("interrupted", ["caller", "pool"])
def test_spread_stops_taking_tasks_after_an_interrupt(interrupted):
    """A KeyboardInterrupt in one thread's task, while the other thread's
    lower or higher index raises a ValueError: no task after those two
    starts, the interrupt is what the caller raises, and the pool then
    serves the next call."""
    caller = threading.get_ident()

    def work(i):
        if (ran[i] == caller) == (interrupted == "caller"):
            raise KeyboardInterrupt
        time.sleep(0.05)  # the interrupt comes first
        raise ValueError(i)

    task, ran = _first_two_on_two_threads(20, work)
    with cpus(2), pytest.raises(KeyboardInterrupt):
        ad.spread(task, 20)
    assert sorted(ran) == [0, 1]
    task, ran = _first_two_on_two_threads(4, lambda i: -i)
    with cpus(2):
        assert ad.spread(task, 4) == [0, -1, -2, -3]
    assert len(set(ran.values())) == 2


def test_spread_under_thread_switches_every_microsecond(monkeypatch):
    """A fresh pool of three threads beside the caller on fewer cores,
    switching as often as they can: every index runs once, and its result
    lands at its index."""
    monkeypatch.setattr(ad, "_pool", None)
    runs, threads, out = [0] * 3000, set(), []

    def task(i):
        threads.add(threading.get_ident())
        runs[i] += 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cpus(4):
            caller = threading.Thread(
                target=lambda: out.append(ad.spread(task, 3000)), daemon=True)
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert out == [[-i for i in range(3000)]]
    assert runs == [1] * 3000 and len(threads) > 1


def test_spread_tasks_run_under_the_callers_numpy_error_state():
    """Both threads' tasks see the caller's np.errstate: overflow raises
    under ``over="raise"`` and warns nowhere under ``all="ignore"``."""
    big = np.full(4, 1e30, dtype=np.float32)
    task, ran = _first_two_on_two_threads(2, lambda i: big * big)
    with cpus(2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            ad.spread(task, 2)
    assert len(set(ran.values())) == 2
    task, ran = _first_two_on_two_threads(2, lambda i: big * big)
    with cpus(2), np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.isinf(out).all() for out in ad.spread(task, 2))
    assert len(set(ran.values())) == 2


def test_a_spread_inside_a_task_runs_inline():
    """A nested call queues nothing and runs every inner task on the
    thread of the task that made it; waiting for the pool from a pool
    thread would never end."""
    with cpus(2):
        ad.spread(lambda i: i, 2)  # the pool exists
        real, queued, inner = ad._pool, [], []

        class Spy:
            def put(self, item):
                queued.append(item)
                real.put(item)

        def work(i):
            return ad.spread(lambda j: threading.get_ident(), 3)

        task, ran = _first_two_on_two_threads(2, work)
        ad._pool = Spy()
        try:
            outer = threading.Thread(
                target=lambda: inner.extend(ad.spread(task, 2)), daemon=True)
            outer.start()
            outer.join(timeout=60)
            assert not outer.is_alive(), "a nested spread waits on the pool"
        finally:
            ad._pool = real
    assert len(queued) == 1  # the outer call's one pool share
    assert [set(threads) for threads in inner] == [{ran[0]}, {ran[1]}]
    assert ran[0] != ran[1]


def test_split_outputs_follow_each_argument_layout():
    """Split calls of one kernel on arguments of other widths or dtypes
    get outputs of their own layout, equal to one whole call's."""
    rng = np.random.default_rng(17)
    for h, dtype in ((64, np.float32), (64, np.float64), (48, np.float32)):
        x = rng.normal(size=(2 * SPLIT, h)).astype(dtype)
        gamma, beta = (Tensor(rng.normal(size=h).astype(dtype))
                       for _ in range(2))
        for op in (ad.gelu, lambda t: ad.layer_norm(t, gamma, beta, 1e-5)):
            outs = []
            for n in (1, 2):
                with cpus(n), ad.no_grad():
                    outs.append(op(Tensor(x)).data)
            assert outs[1].dtype == dtype and outs[1].shape == x.shape
            assert np.array_equal(outs[0], outs[1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool():
    x = np.random.default_rng(15).normal(size=(2 * SPLIT, 8))
    # from Python 3.12 on, fork() in a process that runs threads warns
    forks = (pytest.warns(DeprecationWarning, match="fork")
             if sys.version_info >= (3, 12) else contextlib.nullcontext())
    with cpus(2):
        want = ad.gelu(Tensor(x)).data  # the parent's pool is running
        with forks:  # which the child leaves only through os._exit
            pid = os.fork()
            if pid == 0:  # the child: its parent's pool threads do not exist
                code = 1
                try:
                    code = 0 if np.array_equal(ad.gelu(Tensor(x)).data,
                                               want) else 2
                finally:
                    os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's pool")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
