"""Core tensor/tape primitives against hand values and finite differences."""

import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfuse.autodiff as ad
import opfuse.encoder as enc
from opfuse.autodiff import NonFiniteError, ShapeError, Tape, Tensor

from oracles import (composed_attention_block, composed_ffn_block, composed_project_heads,
                     max_rel_err, numeric_gradient, one_hot_edge_scores,
                     scatter_add_rows_reference)

TOL = 1e-4


def attention_node(x, wq, wk, wv, wo, scale):
    """The toy encoder's attention block on one record's rows, as one tape node:
    its per-record forward, and its packed backward over a one-record batch."""
    x, wq, wk, wv, wo = (ad.as_tensor(t) for t in (x, wq, wk, wv, wo))
    weights = (wq.data, wk.data, wv.data, wo.data)
    out, (q, k, v, probs, merged) = enc._attention_forward(x.data, *weights, scale)
    group = (np.arange(x.shape[0]), q[None], k[None], v[None], probs[None])
    return ad.node(out, (x, wq, wk, wv, wo), lambda g: enc._attention_backward(
        g, x.data, merged, [group], *weights, scale))


def ffn_node(x, w1, b1, w2, b2, slope):
    """The toy encoder's feed-forward block on one record's rows, as one tape node."""
    x, w1, b1, w2, b2 = (ad.as_tensor(t) for t in (x, w1, b1, w2, b2))
    out, hidden = enc._ffn_forward(x.data, w1.data, b1.data, w2.data, b2.data, slope)
    return ad.node(out, (x, w1, b1, w2, b2),
                   lambda g: enc._ffn_backward(g, x.data, hidden, w1.data, w2.data, slope))


def test_matmul_identity():
    identity = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(identity, m).data, m.data)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
    assert "(3, 4)" in str(err.value) and "(3, 2)" in str(err.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    with Tape() as tape:
        loss = ad.tsum(ad.matmul(a, b))
    grads = tape.backward(loss)

    def forward():
        return ad.tsum(ad.matmul(a, b)).item()

    for t in (a, b):
        assert max_rel_err(grads.wrt(t), numeric_gradient(forward, t)) < TOL


def test_leaky_relu_definition():
    out = ad.leaky_relu(Tensor([-1.0, 0.0, 2.0]), 0.2)
    assert np.allclose(out.data, [-0.2, 0.0, 2.0])


def test_leaky_relu_positive_passthrough():
    x = np.array([0.5, 3.0, 10.0])
    assert np.array_equal(ad.leaky_relu(Tensor(x), 0.2).data, x)


def test_leaky_relu_gradient_on_negative_branch():
    x = Tensor([-3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.leaky_relu(x, 0.2))
    assert np.allclose(tape.backward(loss).wrt(x), [0.2])


def test_leaky_relu_kink_uses_positive_branch():
    x = Tensor([0.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.leaky_relu(x, 0.2))
    assert np.allclose(tape.backward(loss).wrt(x), [1.0])


def test_leaky_relu_slope_validation():
    with pytest.raises(ShapeError):
        ad.leaky_relu(Tensor([1.0]), 1.5)


def test_softmax_uniform_and_single():
    out = ad.softmax(Tensor([3.7, 3.7, 3.7]), axis=0)
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)
    assert np.allclose(ad.softmax(Tensor([42.0]), axis=0).data, [1.0])


def test_softmax_large_values_no_overflow():
    out = ad.softmax(Tensor([1000.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1.0, 0.0])


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros((0,))), axis=0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12))
def test_softmax_sums_to_one(values):
    out = ad.softmax(Tensor(values), axis=0).data
    assert (out >= 0).all()
    if max(values) - min(values) < 700:  # beyond that exp underflows to exact 0
        assert (out > 0).all()
    assert abs(out.sum() - 1.0) < 1e-9


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 12)))
    loss = ad.cross_entropy(logits, [5])
    assert abs(loss.item() - math.log(12)) < 1e-12


def test_cross_entropy_confident_correct():
    logits = np.zeros((1, 12))
    logits[0, 3] = 30.0
    assert ad.cross_entropy(Tensor(logits), [3]).item() < 1e-9


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ShapeError) as err:
        ad.cross_entropy(Tensor(np.zeros((2, 4))), [1, 7])
    assert "7" in str(err.value)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((4, 12)), requires_grad=True)
    labels = [3, 0, 11, 7]

    with Tape() as tape:
        loss = ad.cross_entropy(logits, labels)
    grads = tape.backward(loss)

    def forward():
        return ad.cross_entropy(logits, labels).item()

    assert max_rel_err(grads.wrt(logits), numeric_gradient(forward, logits)) < 1e-5


def test_weighted_cross_entropy_gradient():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    labels = [0, 2, 4]
    weights = [2.0, 1.0, 0.5, 1.5, 3.0]

    with Tape() as tape:
        loss = ad.cross_entropy(logits, labels, class_weights=weights)
    grads = tape.backward(loss)

    def forward():
        return ad.cross_entropy(logits, labels, class_weights=weights).item()

    assert max_rel_err(grads.wrt(logits), numeric_gradient(forward, logits)) < TOL


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(x)
    assert np.array_equal(tape.backward(loss).wrt(x), np.ones((2, 3)))


def test_backward_unused_tensor_gets_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        ad.tsum(ad.mul(y, 2.0))  # recorded but unrelated to the loss
        loss = ad.tsum(x)
    grads = tape.backward(loss)
    assert np.array_equal(grads.wrt(y), np.zeros(2))
    assert np.array_equal(grads.wrt(x), np.ones(2))


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = ad.mul(x, 3.0)
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_gradient_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.add(ad.mul(x, x), x))  # x^2 + x
    assert np.allclose(tape.backward(loss).wrt(x), [5.0])


def test_backward_frees_the_forward_arrays_and_keeps_only_leaf_gradients():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        hidden = ad.mul(x, x)
        loss = ad.tsum(ad.matmul(hidden, Tensor(np.ones((3, 1)))))
    kept = weakref.ref(hidden.data)
    recorded = len(tape)
    del hidden                            # the caller's own name for the intermediate
    assert kept() is not None             # the tape still holds it
    grads = tape.backward(loss)
    assert kept() is None
    assert len(tape) == recorded == 3
    assert np.array_equal(grads.wrt(x), 2.0 * x.data)
    assert x in grads and loss not in grads   # the loss was made by a node


def test_reading_a_freed_intermediate_gradient_raises_and_untouched_tensors_read_zeros():
    x = Tensor([1.0, 2.0], requires_grad=True)
    untouched = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        hidden = ad.mul(x, x)
        unused = ad.mul(x, x)             # recorded, but the loss does not read it
        loss = ad.tsum(hidden)
    grads = tape.backward(loss)
    for freed in (hidden, loss):
        with pytest.raises(RuntimeError, match="freed this tensor's gradient"):
            grads.wrt(freed)
        with pytest.raises(RuntimeError, match="freed this tensor's gradient"):
            grads.rows(freed)
    for zero in (untouched, unused):
        assert grads.wrt(zero).tobytes() == np.zeros(zero.shape).tobytes()
        assert grads.rows(zero).idx.size == 0
    assert np.array_equal(grads.wrt(x), 2.0 * x.data)


def test_a_second_backward_on_a_spent_tape_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="backward already ran on this tape"):
        tape.backward(loss)


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "transpose", "gather", "concat",
    "mean_axis", "sum_axis", "sigmoid", "softmax", "leaky", "reshape",
    "matmul_leading_axis", "transpose_axes", "gather_nonleaf", "edge_scores",
    "edge_scores_gathered", "project_heads", "attention_block", "ffn_block",
])
def test_primitive_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % (2 ** 31))
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    # Own generator, so the draws of the 2-D cases stay as they were.
    z = Tensor(np.random.default_rng(1).standard_normal((2, 4, 5)), requires_grad=True)

    # Each case: the output's builder and every input that needs a gradient.
    cases = {
        "add": (lambda: ad.add(x, y), (x, y)),
        "sub": (lambda: ad.sub(x, y), (x, y)),
        "mul": (lambda: ad.mul(x, y), (x, y)),
        "transpose": (lambda: ad.transpose(x), (x,)),
        "gather": (lambda: ad.gather_rows(x, [2, 0, 2]), (x,)),
        "concat": (lambda: ad.concat([x, y], axis=1), (x, y)),
        "mean_axis": (lambda: ad.tmean(x, axis=0, keepdims=True), (x,)),
        "sum_axis": (lambda: ad.tsum(x, axis=1, keepdims=True), (x,)),
        "sigmoid": (lambda: ad.sigmoid(x), (x,)),
        "softmax": (lambda: ad.softmax(x, axis=1), (x,)),
        "leaky": (lambda: ad.leaky_relu(x, 0.2), (x,)),
        "reshape": (lambda: ad.reshape(x, (4, 3)), (x,)),
        "matmul_leading_axis": (lambda: ad.matmul(x, z), (x, z)),  # (3, 4) @ (2, 4, 5)
        "transpose_axes": (lambda: ad.transpose(z, (2, 0, 1)), (z,)),
    }

    def gather_nonleaf():
        # Two row-sparse parts and one dense part meet on the same non-leaf.
        h = ad.mul(x, y)
        return ad.concat([ad.gather_rows(h, [2, 0, 2]), h, ad.gather_rows(h, [1, 1])])

    cases["gather_nonleaf"] = (gather_nonleaf, (x, y))
    # Five edges over three nodes, two heads of width 2, three edge types
    # plus the no-attribute type 3; a node repeats as source and as target,
    # so both row-sparse parts sum several rows.
    e = Tensor(np.random.default_rng(2).standard_normal((2, 2, 3)), requires_grad=True)
    a = Tensor(np.random.default_rng(3).standard_normal((2, 2, 1)), requires_grad=True)
    types = [0, 2, 3, 2, 1]
    cases["edge_scores"] = (lambda: ad.edge_scores(x, y, e, a, [0, 2, 1, 2, 0],
                                                   [1, 1, 0, 2, 2], types, 0.2), (x, y, e, a))
    # The same edges with the target rows gathered beforehand: a dense gradient.
    cases["edge_scores_gathered"] = (lambda: ad.edge_scores(
        x, ad.gather_rows(y, [1, 1, 0, 2, 2]), e, a, [0, 2, 1, 2, 0], None, types, 0.2),
        (x, y, e, a))
    # Two heads of width 2 over the four columns of ``x``.
    w = np.random.default_rng(4)
    theta = Tensor(w.standard_normal((2, 3, 2)), requires_grad=True)
    cases["project_heads"] = (lambda: ad.project_heads(x, theta), (x, theta))
    wq, wk, wv = (Tensor(part, requires_grad=True) for part in w.standard_normal((3, 2, 4, 2)))
    wo = Tensor(w.standard_normal((4, 4)), requires_grad=True)
    cases["attention_block"] = (lambda: attention_node(x, wq, wk, wv, wo, 0.7),
                                (x, wq, wk, wv, wo))
    w1, b1 = (Tensor(w.standard_normal(shape), requires_grad=True) for shape in ((4, 5), (1, 5)))
    w2, b2 = (Tensor(w.standard_normal(shape), requires_grad=True) for shape in ((5, 4), (1, 4)))
    cases["ffn_block"] = (lambda: ffn_node(x, w1, b1, w2, b2, 0.2), (x, w1, b1, w2, b2))
    build, inputs = cases[op_name]

    # Weighted sum makes the scalar sensitive to every output entry.
    probe = Tensor(rng.standard_normal(build().shape))

    def scalar():
        return ad.tsum(ad.mul(build(), probe))

    with Tape() as tape:
        loss = scalar()
    grads = tape.backward(loss)

    # A backward that drops an input's gradient leaves it out of ``grads``,
    # where ``wrt`` would read zeros.
    assert [t in grads for t in inputs] == [True] * len(inputs)
    for t in inputs:
        assert max_rel_err(grads.wrt(t), numeric_gradient(lambda: scalar().item(), t)) < TOL


def test_broadcast_add_gradient():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    bias = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    probe = Tensor(rng.standard_normal((3, 4)))

    def scalar():
        return ad.tsum(ad.mul(ad.add(x, bias), probe))

    with Tape() as tape:
        loss = scalar()
    grads = tape.backward(loss)
    for t in (x, bias):
        assert max_rel_err(grads.wrt(t), numeric_gradient(lambda: scalar().item(), t)) < TOL


def test_non_finite_forward_is_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    big = Tensor([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.mul(big, 10.0)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.arange(12.0).reshape(3, 4)
        values[1, 2] = bad
        with pytest.raises(NonFiniteError):
            Tensor(values)
        with pytest.raises(NonFiniteError):
            ad.add(Tensor(np.zeros((3, 4))), values)
    # Every element is finite although the sum overflows.
    with np.errstate(over="ignore"):
        assert Tensor([1e308, 1e308]).shape == (2,)
        assert ad.mul(Tensor([[1e308], [1e308]]), 1.0).shape == (2, 1)


def test_edge_scores_reject_a_non_finite_pre_activation():
    theta_e = Tensor(np.zeros((2, 2, 3)))
    attn = Tensor(np.ones((2, 2, 1)))
    for sign in (1.0, -1.0):
        with np.errstate(over="ignore"):
            # Finite node rows whose sum along an edge overflows.
            nodes = Tensor(np.full((2, 4), sign * 1e308))
            with pytest.raises(NonFiniteError, match="edge_scores"):
                ad.edge_scores(nodes, nodes, theta_e, attn, [0, 1, 1], [1, 0, 1], [0, 3, 2],
                               0.2)


@pytest.mark.parametrize("n_rows, heads, d_out, d_in", [(5, 2, 3, 4), (1, 4, 6, 2), (3, 1, 2, 2)])
def test_project_heads_has_the_bits_of_the_composed_primitives(n_rows, heads, d_out, d_in):
    rng = np.random.default_rng(n_rows + heads)
    rows = Tensor(rng.standard_normal((n_rows, heads * d_in)), requires_grad=True)
    theta = Tensor(rng.standard_normal((heads, d_out, d_in)), requires_grad=True)
    probe = Tensor(rng.standard_normal((n_rows, heads * d_out)))
    results = []
    for project in (ad.project_heads, composed_project_heads):
        with Tape() as tape:
            # Θ_t also feeds a second product, as in ``gat_layer``, so its
            # gradient is a sum of two parts.
            out = project(rows, theta)
            loss = ad.add(ad.tsum(ad.mul(out, probe)), ad.tsum(ad.mul(theta, theta)))
        grads = tape.backward(loss)
        results.append([out.data, grads.wrt(rows), grads.wrt(theta)])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def attention_case(case):
    """Inputs of ``attention_block`` that make one intermediate non-finite.

    Three rows of width 4, two heads of width 2.  Each case names the
    composed primitive that first sees a non-finite value.
    """
    rng = np.random.default_rng(6)
    x, wo = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))
    wq, wk, wv = rng.standard_normal((3, 2, 4, 2))
    scale, probe = 0.7, np.ones((3, 4))
    if case == "q projection":
        x, wq = np.full((3, 4), 1e200), np.full((2, 4, 2), 1e200)
    elif case == "k projection":
        x, wk = np.full((3, 4), 1e200), np.full((2, 4, 2), 1e200)
    elif case == "v projection":
        # q = k = 0, so the scores stay finite and only the output can show it.
        x, wq, wk, wv = (np.full((3, 4), 1e200), np.zeros((2, 4, 2)), np.zeros((2, 4, 2)),
                         np.full((2, 4, 2), 1e200))
    elif case == "hidden score":
        # Key row 2 meets query row 0 at -inf: the softmax gives it weight 0
        # and every output stays finite, so only the score check sees it.
        x, wq, wk, wv = np.eye(3, 4), np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.ones((2, 4, 2))
        x[2, 2], wq[:, 0, :], wk[:, 2, :], wv[:, 2, :] = 1e200, 1e200, -1.0, 0.0
    elif case == "value mix":
        # Every score row is (2.5, -0.1, -0.1), whose rounded probabilities
        # sum to 1 + 2^-52: their mix of values at the largest double overflows.
        x, wq, wk, wv, scale = (np.eye(3, 4), np.zeros((2, 4, 2)), np.zeros((2, 4, 2)),
                                np.zeros((2, 4, 2)), 1.0)
        wq[:, :3, 0], wk[:, 0, 0], wk[:, 1:3, 0] = 1.0, 2.5, -0.1
        wv[:, :3, :] = np.finfo(np.float64).max
    elif case == "output projection":
        # Uniform attention over values of 1e300; ``wo`` scales them past range.
        x, wq, wk, wv = np.eye(3, 4), np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4, 2))
        wv[:, :3, :], wo = 1e300, np.full((4, 4), 1e10)
    elif case == "score scale":
        x, wq, wk, scale = np.ones((3, 4)), np.ones((2, 4, 2)), np.ones((2, 4, 2)), 1e307
    elif case == "residual":
        # Uniform attention over values of 1e308 in column 0, which ``wo``
        # copies onto the residual's column 0, also 1e308.
        x, wq, wk, wv, wo = (np.zeros(shape) for shape in ((3, 4), (2, 4, 2), (2, 4, 2),
                                                            (2, 4, 2), (4, 4)))
        x[:, 0], wv[:, 0, :], wo[0, 0] = 1e308, 1.0, 1.0
    elif case == "backward":
        # The block returns x, but the output weights scale its gradient past range.
        wv, wo, probe = np.zeros((2, 4, 2)), np.full((4, 4), 1e10), np.full((3, 4), 1e300)
    return (x, wq, wk, wv, wo, scale), probe


def ffn_case(case):
    """Inputs of ``ffn_block`` that make one intermediate non-finite (rows of width 4)."""
    rng = np.random.default_rng(7)
    x, w1, b1 = rng.standard_normal((3, 4)), rng.standard_normal((4, 8)), np.zeros((1, 8))
    w2, b2, probe = rng.standard_normal((8, 4)), np.zeros((1, 4)), np.ones((3, 4))
    if case == "hidden projection":
        x, w1 = np.full((3, 4), 1e200), np.full((4, 8), 1e200)
    elif case in ("hidden bias", "leaky_relu"):
        # ``leaky_relu`` never makes a finite input non-finite (0 < slope < 1);
        # its case is a -inf from the bias add carried through the negative branch.
        sign = 1.0 if case == "hidden bias" else -1.0
        x, w1, b1 = np.zeros((3, 4)), np.zeros((4, 8)), np.full((1, 8), sign * 1e308)
        x[:, 0], w1[0, :] = sign * 1e308, 1.0
    elif case == "output projection":
        x, w1, w2 = np.ones((3, 4)), np.ones((4, 8)), np.full((8, 4), 1e308)
    elif case == "residual":
        x, w1, b2 = np.zeros((3, 4)), np.zeros((4, 8)), np.zeros((1, 4))
        x[:, 0], b2[0, 0] = 1e308, 1e308
    elif case == "backward":
        # The block returns x, but ``w2`` scales its gradient past range.
        w1, w2, probe = np.zeros((4, 8)), np.full((8, 4), 1e10), np.full((3, 4), 1e300)
    return (x, w1, b1, w2, b2, 0.2), probe


@pytest.mark.parametrize("block, case, name", [
    ("attention", "q projection", "matmul"),
    ("attention", "k projection", "matmul"),
    ("attention", "v projection", "matmul"),
    ("attention", "hidden score", "matmul"),
    ("attention", "score scale", "mul"),
    ("attention", "value mix", "matmul"),
    ("attention", "output projection", "matmul"),
    ("attention", "residual", "add"),
    ("attention", "backward", "backward"),
    ("ffn", "hidden projection", "matmul"),
    ("ffn", "hidden bias", "add"),
    ("ffn", "leaky_relu", "add"),
    ("ffn", "output projection", "matmul"),
    ("ffn", "residual", "add"),
    ("ffn", "backward", "backward"),
])
def test_block_primitives_reject_non_finite_values_as_the_composed_path_does(block, case,
                                                                             name):
    arrays, probe = (attention_case if block == "attention" else ffn_case)(case)
    fused, composed = ((attention_node, composed_attention_block) if block == "attention"
                       else (ffn_node, composed_ffn_block))
    messages = []
    for primitive in (fused, composed):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            inputs = [Tensor(a, requires_grad=True) for a in arrays[:5]]
            with Tape() as tape:
                loss = ad.tsum(ad.mul(primitive(*inputs, arrays[5]), probe))
            tape.backward(loss)
        messages.append(str(err.value))
    assert messages == [f"{name} produced non-finite values"] * 2


def test_a_score_the_softmax_hides_raises_although_the_output_is_finite():
    (x, wq, wk, wv, wo, scale), _ = attention_case("hidden score")
    with np.errstate(over="ignore", invalid="ignore"):
        q, k, v, scores = enc._attention_scores(x, wq, wk, wv, scale, enc._unchecked)
        probs, _, out = enc._attention_mix(x, v, scores, wo, enc._unchecked)
    # One -inf score per head, weighted 0; a check of the output alone passes.
    assert np.isneginf(scores).sum() == 2 and (probs == 0.0).sum() == 2
    assert np.isfinite(out).all()
    for primitive in (attention_node, composed_attention_block):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                       match="^matmul produced non-finite"):
            primitive(x, wq, wk, wv, wo, scale)


def block_outcome(primitive, arrays, extra, probe):
    """The forward's message or output bits, then the backward's message or gradients."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with np.errstate(all="ignore"):
        try:
            with Tape() as tape:
                out = primitive(*inputs, extra)
                loss = ad.tsum(ad.mul(out, probe))
        except NonFiniteError as err:
            return str(err), None
        try:
            grads = tape.backward(loss)
        except NonFiniteError as err:
            return out.data.tobytes(), str(err)
    return out.data.tobytes(), [grads.wrt(t) for t in inputs]


BIG = (1e100, 1e154, 1e200, 1e300, np.finfo(np.float64).max)


@settings(max_examples=300, deadline=None)
@given(block=st.sampled_from(["attention", "ffn"]), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 4), heads=st.integers(1, 2), width=st.integers(1, 3),
       target=st.integers(0, 5), entry=st.integers(0, 2**16), big=st.sampled_from(BIG),
       sign=st.sampled_from([1.0, -1.0]), zeroed=st.integers(0, 5), zero_row=st.integers(0, 8),
       underflow=st.booleans(), probe_exp=st.sampled_from([0, 300, 306, 307]))
def test_blocks_raise_as_the_composed_path_when_one_entry_overflows(
        block, seed, rows, heads, width, target, entry, big, sign, zeroed, zero_row, underflow,
        probe_exp):
    """One input, weight or probe entry is set to ``±big``.  Optionally one row
    of an operand is zeroed (so inf·0 = NaN must show), and the attention
    scores are scaled until some probabilities underflow to 0.  The probe is
    scaled to about ``10**probe_exp`` over the largest output, so that
    gradients can overflow in backward.  The block is the toy encoder's
    per-record forward, then its batch backward over that one record."""
    rng = np.random.default_rng(seed)
    if block == "attention":
        d_h, model_width = width, heads * width
        shapes = [(rows, model_width)] + [(heads, model_width, d_h)] * 3 + [(heads * d_h,
                                                                            model_width)]
        extra = 1e3 if underflow else 1.0 / np.sqrt(d_h)
        fused, composed = attention_node, composed_attention_block
    else:
        model_width, hidden = heads * width, 2 * heads * width + 1
        shapes = [(rows, model_width), (model_width, hidden), (1, hidden),
                  (hidden, model_width), (1, model_width)]
        extra = 0.2
        fused, composed = ffn_node, composed_ffn_block
    arrays = [rng.standard_normal(shape) for shape in shapes]
    probe = rng.standard_normal((rows, model_width))
    if zeroed < 5:
        zero_in = arrays[zeroed]
        zero_in[..., zero_row % zero_in.shape[-2], :] = 0.0
    if target < 5:
        arrays[target].reshape(-1)[entry % arrays[target].size] = sign * big
    with np.errstate(all="ignore"):
        try:
            peak = np.abs(composed(*arrays, extra).data).max()
        except NonFiniteError:
            peak = 1.0
    probe *= 10.0 ** probe_exp / max(1.0, peak)
    if target == 5:
        probe.reshape(-1)[entry % probe.size] = sign * big
    (forward, backward), (want_forward, want_backward) = (
        block_outcome(primitive, arrays, extra, probe) for primitive in (fused, composed))
    # The per-record forward raises as the composed path does, or has its bits.
    assert forward == want_forward
    if want_backward is None:
        assert backward is None
    elif isinstance(backward, list) and isinstance(want_backward, list):
        for got, want in zip(backward, want_backward):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    else:
        # The batch backward sums each product in other GEMM shapes than the
        # composed path, so a sum within an ulp or so of the double range may
        # overflow on one side only; the side that overflows raises so.
        for outcome in (backward, want_backward):
            assert isinstance(outcome, list) or outcome == "backward produced non-finite values"


def test_edge_scores_match_the_unfused_primitives():
    rng = np.random.default_rng(17)
    src_proj, tgt_proj = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
    theta_e, attn = rng.standard_normal((3, 2, 3)), rng.standard_normal((3, 2, 1))
    src, dst = np.array([0, 0, 1, 2, 3, 3, 3]), np.array([1, 2, 0, 2, 0, 1, 3])
    types = np.array([2, 0, 1, 3, 0, 0, 3])
    # Type t < 3 adds Θe's column t of every head, type 3 nothing.
    edge_proj = np.concatenate([theta_e.transpose(2, 0, 1).reshape(3, 6), np.zeros((1, 6))])
    pre = ad.leaky_relu(src_proj[src] + tgt_proj[dst] + edge_proj[types], 0.3).data
    expected = np.stack([pre[:, 2 * k:2 * k + 2] @ attn[k, :, 0] for k in range(3)], axis=1)
    out = ad.edge_scores(src_proj, tgt_proj, theta_e, attn, src, dst, types, 0.3)
    assert out.shape == (7, 3)
    assert np.max(np.abs(out.data - expected)) < 1e-12
    gathered = ad.edge_scores(src_proj, tgt_proj[dst], theta_e, attn, src, None, types, 0.3)
    assert gathered.data.tobytes() == out.data.tobytes()
    with pytest.raises(ShapeError):
        ad.edge_scores(src_proj, tgt_proj, theta_e, attn, src, None, types, 0.3)


def edge_score_case(rng, n_nodes, n_edges, heads, d):
    """Random inputs of ``edge_scores``: node rows, weights, endpoints and types."""
    width = heads * d
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    return dict(src_proj=rng.standard_normal((n_nodes, width)),
                tgt_proj=rng.standard_normal((n_nodes, width)),
                theta_e=rng.standard_normal((heads, d, 3)),
                attn=rng.standard_normal((heads, d, 1)), src=src, dst=dst,
                edge_type=rng.integers(0, 4, n_edges))


@pytest.mark.parametrize("gathered", [False, True], ids=["dst", "dst_none"])
def test_edge_scores_are_the_one_hot_form_bit_for_bit(gathered):
    rng = np.random.default_rng(23)
    shapes = [(int(rng.integers(1, 7)), int(rng.integers(0, 15)), int(rng.integers(1, 4)),
               int(rng.integers(1, 5))) for _ in range(40)]
    # At GAT 4x192 over 1000 edges, BLAS sums Θe's one-hot product in another
    # order than a row-by-row scatter would.
    shapes.append((400, 1000, 4, 192))
    for trial, shape in enumerate(shapes):
        case = edge_score_case(rng, *shape)
        src_proj, tgt_proj, theta_e, attn = (Tensor(case[k], requires_grad=True) for k in
                                             ("src_proj", "tgt_proj", "theta_e", "attn"))
        src, dst, types = case["src"], case["dst"], case["edge_type"]
        probe = rng.standard_normal((len(src), attn.shape[0]))
        with Tape() as tape:
            # The (E, H·d) target rows, gathered first when ``dst`` is None.
            targets = ad.gather_rows(tgt_proj, dst) if gathered else tgt_proj
            scores = ad.edge_scores(src_proj, targets, theta_e, attn, src,
                                    None if gathered else dst, types, 0.2)
            loss = ad.tsum(ad.mul(scores, probe))
        grads = tape.backward(loss)
        expected, d_src, d_tgt, d_theta, d_attn = one_hot_edge_scores(
            case["src_proj"], case["tgt_proj"][dst] if gathered else case["tgt_proj"],
            case["theta_e"], case["attn"], src, None if gathered else dst, types, 0.2, probe)
        if gathered:
            d_rows, d_tgt = d_tgt, np.zeros_like(case["tgt_proj"])
            np.add.at(d_tgt, dst, d_rows)
        assert scores.data.tobytes() == expected.tobytes(), trial
        for tensor, want in ((src_proj, d_src), (tgt_proj, d_tgt), (theta_e, d_theta),
                             (attn, d_attn)):
            assert grads.wrt(tensor).tobytes() == want.tobytes(), trial


@pytest.mark.parametrize("bad", [-1, 4, 9])
def test_edge_scores_reject_an_edge_type_out_of_range(bad):
    case = edge_score_case(np.random.default_rng(5), 3, 4, 2, 2)
    types = case["edge_type"].copy()
    types[2] = bad
    with pytest.raises(ShapeError, match="edge type"):
        ad.edge_scores(case["src_proj"], case["tgt_proj"], case["theta_e"], case["attn"],
                       case["src"], case["dst"], types, 0.2)


def test_edge_scores_reject_bad_edge_weight_and_type_shapes():
    case = edge_score_case(np.random.default_rng(6), 3, 4, 2, 2)
    args = [case[k] for k in ("src_proj", "tgt_proj", "theta_e", "attn", "src", "dst",
                              "edge_type")]
    for index, bad in ((2, np.zeros((2, 3, 3))), (2, np.zeros((4, 3))),
                       (6, case["edge_type"][:3])):
        broken = list(args)
        broken[index] = bad
        with pytest.raises(ShapeError):
            ad.edge_scores(*broken, 0.2)


def test_tensor_data_is_read_only():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_forward_and_backward_deterministic():
    def run():
        rng = np.random.default_rng(123)
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        with Tape() as tape:
            out = ad.softmax(ad.matmul(ad.leaky_relu(a, 0.2), b), axis=1)
            loss = ad.cross_entropy(out, [0, 1, 2, 3])
        grads = tape.backward(loss)
        return loss.item(), grads.wrt(a).tobytes(), grads.wrt(b).tobytes()

    assert run() == run()


def test_no_recording_without_tape():
    x = Tensor([1.0], requires_grad=True)
    out = ad.mul(x, 2.0)  # no active tape
    assert out.requires_grad
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_segment_sum_hand_case_with_empty_segment():
    rows = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = ad.segment_sum(rows, [2, 0, 2], 4)
    assert out.data.tolist() == [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]]


def test_segment_sum_rejects_bad_ids():
    with pytest.raises(ShapeError):
        ad.segment_sum(Tensor(np.zeros((2, 3))), [0, 3], 3)
    with pytest.raises(ShapeError):
        ad.segment_sum(Tensor(np.zeros((2, 3))), [0], 3)


def test_segment_softmax_single_row_segment_is_exactly_one():
    scores = Tensor([[0.3], [-2.0], [7.5], [1.0]])
    out = ad.segment_softmax(scores, [0, 0, 1, 2], 4).data
    assert out[2, 0] == 1.0 and out[3, 0] == 1.0
    pair = np.exp([0.3, -2.0]) / np.exp([0.3, -2.0]).sum()
    assert np.allclose(out[:2, 0], pair, atol=1e-15)


def test_segment_softmax_large_values_no_overflow():
    out = ad.segment_softmax(Tensor([[1000.0], [1000.0], [-1000.0]]), [1, 1, 0], 2)
    assert np.allclose(out.data.reshape(-1), [0.5, 0.5, 1.0])


EXTREMES = (np.finfo(np.float64).max, -np.finfo(np.float64).max, np.finfo(np.float64).tiny,
            5e-324, -5e-324, 0.0, -0.0)
finite_doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EXTREMES))


@settings(max_examples=200, deadline=None)
@given(primitive=st.sampled_from(["leaky_relu", "sigmoid", "softmax", "segment_softmax"]),
       data=st.data(), rows=st.integers(0, 5), cols=st.integers(1, 3),
       slope=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_bounded_primitives_are_finite_on_finite_inputs_and_check_nothing(primitive, data,
                                                                          rows, cols, slope):
    """Entries up to ±max double, denormals and signed zeros; segments can be
    empty or hold one row.  The output is finite without a check in forward."""
    values = data.draw(st.lists(finite_doubles, min_size=rows * cols, max_size=rows * cols))
    with np.errstate(over="ignore", invalid="ignore"):  # the check's sum may overflow
        x = Tensor(np.reshape(values, (rows, cols)), requires_grad=True)
    num_segments = data.draw(st.integers(1, rows + 2))
    segments = data.draw(st.lists(st.integers(0, num_segments - 1), min_size=rows,
                                  max_size=rows))
    build = {
        "leaky_relu": lambda: ad.leaky_relu(x, slope),
        "sigmoid": lambda: ad.sigmoid(x),
        "softmax": lambda: ad.softmax(x, axis=1),
        "segment_softmax": lambda: ad.segment_softmax(x, segments, num_segments),
    }[primitive]
    # Max-subtraction may overflow to -inf, whose exponential is the 0 it stands for.
    with np.errstate(over="ignore"), Tape(), \
            mock.patch.object(ad, "_check_finite", wraps=ad._check_finite) as check:
        out = build()
    assert check.call_count == 0
    assert out.shape == x.shape and np.isfinite(out.data).all()


@pytest.mark.parametrize("op_name", ["segment_sum", "segment_softmax"])
def test_segment_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(31)
    # Segment 1 is empty and segment 3 holds a single row.
    segments = [0, 2, 0, 3, 2, 2, 0]
    x = Tensor(rng.standard_normal((len(segments), 3)), requires_grad=True)
    probe_rows = 4 if op_name == "segment_sum" else len(segments)
    probe = Tensor(rng.standard_normal((probe_rows, 3)))
    op = getattr(ad, op_name)

    def forward():
        return ad.tsum(ad.mul(op(x, segments, 4), probe))

    with Tape() as tape:
        loss = forward()
    grads = tape.backward(loss)
    analytic = grads.wrt(x)
    numeric = numeric_gradient(lambda: forward().item(), x)
    assert max_rel_err(analytic, numeric) < TOL
    if op_name == "segment_softmax":
        # a one-row segment's softmax is constant, so its gradient is zero
        assert np.array_equal(analytic[3], np.zeros(3))
    else:
        assert np.array_equal(analytic, probe.data[segments])


def test_row_sparse_gradient_matches_dense_scatter():
    rng = np.random.default_rng(41)
    table = Tensor(rng.standard_normal((50, 6)), requires_grad=True)
    gathers = [rng.integers(0, 50, size=n) for n in (7, 1, 12, 30, 30)]
    gathers.append(np.array([3, 3, 3, 3]))
    probes = [rng.standard_normal((len(idx), 6)) for idx in gathers]
    dense_probe = rng.standard_normal((50, 6))
    with Tape() as tape:
        loss = ad.tsum(ad.mul(table, dense_probe))
        for idx, probe in zip(gathers, probes):
            loss = ad.add(loss, ad.tsum(ad.mul(ad.gather_rows(table, idx), probe)))
    analytic = tape.backward(loss).wrt(table)
    expected = dense_probe.copy()
    for idx, probe in zip(gathers, probes):
        np.add.at(expected, idx, probe)
    assert max_rel_err(analytic, expected) < 1e-12


def test_non_finite_row_in_sparse_gradient_is_rejected():
    table = Tensor(np.ones((4, 2)), requires_grad=True)

    def nan_rows(g):
        return (ad._RowGrad(np.array([1, 3]), np.array([[1.0, 2.0], [np.nan, 0.0]])),)

    with Tape() as tape:
        loss = ad.tsum(ad._apply("nan_gather", table.data[[1, 3]], (table,), nan_rows))
    with pytest.raises(NonFiniteError):
        tape.backward(loss)

    # Two finite gradients of 1e308 sum to inf on the gathered rows.
    x = Tensor([[1e-10], [2e-10]], requires_grad=True)
    with Tape() as tape:
        rows = ad.gather_rows(x, [1, 0])
        loss = ad.tsum(ad.add(ad.mul(rows, 1e308), ad.mul(rows, 1e308)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        tape.backward(loss)


def test_a_gradient_is_checked_when_its_node_reads_it():
    # Segment 1 has no rows, so its gradient, two finite parts of 1e308 that
    # sum to inf, reaches no input: only the check as the node reads it sees it.
    x = Tensor([[1e-10]], requires_grad=True)
    probe = np.array([[1.0], [1e308]])
    with Tape() as tape:
        sums = ad.segment_sum(x, [0], 2)
        loss = ad.add(ad.tsum(ad.mul(sums, probe)), ad.tsum(ad.mul(sums, probe)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                   match="^backward produced non-finite values$"):
        tape.backward(loss)


def test_a_leaf_gradient_is_checked_whole_when_dense_and_by_parts_when_row_sparse():
    # Two finite dense gradients of 1e308 sum to inf on a leaf: backward raises.
    x = Tensor([[1e-10]], requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.tsum(ad.mul(x, 1e308)), ad.tsum(ad.mul(x, 1e308)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                   match="^backward produced non-finite values$"):
        tape.backward(loss)
    # Two finite row parts of 1e308 on one row of a leaf table reach the
    # optimizer, whose check of the rows it writes raises.
    table = Tensor(np.full((3, 1), 1e-10), requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.tsum(ad.mul(ad.gather_rows(table, [1]), 1e308)),
                      ad.tsum(ad.mul(ad.gather_rows(table, [1]), 1e308)))
    with np.errstate(over="ignore"):
        idx, rows = tape.backward(loss).rows(table)
    assert idx.tolist() == [1] and np.isposinf(rows).all()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), w=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 20), min_size=1, max_size=5))
def test_gradient_rows_sum_like_the_dense_scatter(n, w, seed, sizes):
    rng = np.random.default_rng(seed)
    table = Tensor(rng.standard_normal((n, w)), requires_grad=True)
    gathers = [rng.integers(0, n, size=size) for size in sizes]
    probes = [rng.standard_normal((size, w)) for size in sizes]
    with Tape() as tape:
        loss = ad.tsum(ad.mul(ad.gather_rows(table, gathers[0]), probes[0]))
        for idx, probe in zip(gathers[1:], probes[1:]):
            loss = ad.add(loss, ad.tsum(ad.mul(ad.gather_rows(table, idx), probe)))
    grads = tape.backward(loss)
    idx, rows = grads.rows(table)
    # Backward meets the gathers in reverse, so their parts are summed in that order.
    dense = ad._scatter_add_rows(np.concatenate(probes[::-1]), np.concatenate(gathers[::-1]), n)
    assert idx.tolist() == sorted(set(np.concatenate(gathers).tolist()))
    assert rows.tobytes() == dense[idx].tobytes()
    assert grads.wrt(table).tobytes() == dense.tobytes()


@settings(max_examples=80, deadline=None)
@given(width=st.sampled_from([1, 63, 64, 65, 768]),
       n_rows=st.sampled_from([0, 1, 2, 17, 121, 956]),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), negative_zero=st.booleans(),
       strided=st.booleans())
def test_scatter_add_rows_matches_add_at_byte_for_byte(width, n_rows, n, seed, negative_zero,
                                                       strided):
    """One bincount over flattened (row, column) cells sums each cell's
    inputs in input order, as ``np.add.at`` does.  121 and 956 rows are the
    largest scatters of a predict-compare and a train-frozen-graph step."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=n_rows)              # unsorted, and repeated
    rows = rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(-8, 9, (n_rows, 1))
    if negative_zero and n_rows:
        rows[rng.integers(n_rows)] = -0.0
    if strided:
        rows = np.asfortranarray(rows)
    got = ad._scatter_add_rows(rows, idx, n)
    assert got.shape == (n, width)
    assert got.tobytes() == scatter_add_rows_reference(rows, idx, n).tobytes()


def test_gradient_rows_of_a_dense_part_are_every_row():
    table = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
    other = Tensor(np.ones((5, 2)), requires_grad=True)
    bias = Tensor(np.ones((1, 3)), requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.tsum(ad.gather_rows(table, [3, 1, 3])), ad.tsum(ad.mul(table, table)))
        loss = ad.add(loss, ad.tsum(ad.mul(bias, 0.5)))
    grads = tape.backward(loss)
    for t in (table, bias):                       # mixed, then dense only
        idx, rows = grads.rows(t)
        assert idx.tolist() == list(range(t.shape[0]))
        assert rows.tobytes() == grads.wrt(t).tobytes()
    idx, rows = grads.rows(other)                 # never touched: no rows
    assert idx.shape == (0,) and rows.shape == (0, 2)
    with Tape() as tape:
        loss = ad.tsum(ad.gather_rows(table, [3, 1, 3]))
    idx, rows = tape.backward(loss).rows(table)   # row parts only: the rows they name
    assert idx.tolist() == [1, 3] and rows.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_write_rows_writes_in_place_and_checks_only_new_rows():
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    buffer = t.data
    t.write_rows(np.array([2, 0]), [[9.0, 9.0], [7.0, 7.0]])
    assert t.data is buffer and not buffer.flags.writeable
    assert buffer.tolist() == [[7.0, 7.0], [2.0, 3.0], [9.0, 9.0]]
    before = buffer.tobytes()
    with pytest.raises(NonFiniteError, match="write_rows"):
        t.write_rows(np.array([1, 2]), [[1.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ShapeError):
        t.write_rows(np.array([1]), [[1.0, 2.0, 3.0]])
    assert t.data is buffer and buffer.tobytes() == before and not buffer.flags.writeable
    # Rows not written are not checked.
    t = ad._wrap(np.array([[np.inf, 0.0], [1.0, 1.0]]), True)
    t.write_rows(np.array([1]), [[2.0, 2.0]])
    assert t.data[1].tolist() == [2.0, 2.0]


@pytest.mark.parametrize("shape", [(), (3, 2)], ids=str)
def test_write_rows_on_the_whole_buffer_keeps_the_buffer(shape):
    t = Tensor(np.zeros(shape), requires_grad=True)
    buffer = t.data
    values = np.full(shape, 4.0)
    t.write_rows(..., values)
    assert t.data is buffer and buffer is not values and not buffer.flags.writeable
    assert buffer.tobytes() == values.tobytes()
    values[...] = 5.0                  # a copy: later writes to values do not reach t
    with pytest.raises(NonFiniteError, match="write_rows"):
        t.write_rows(..., np.full(shape, np.inf))
    with pytest.raises(ShapeError):
        t.write_rows(..., np.zeros((2, 2)))
    assert t.data is buffer and buffer.tobytes() == np.full(shape, 4.0).tobytes()


