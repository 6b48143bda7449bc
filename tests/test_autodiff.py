import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptlab import autodiff as ad
from gptlab.autodiff import Tensor
from gptlab.errors import (DoubleBackwardError, EmptyLossError, ShapeError,
                           VocabError)

from .util import fd_grad, max_rel_err, total


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
