import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgchat import decoder as dec
from hgchat import diffcore as dc
from hgchat.config import TrainConfig
from hgchat.layers import causal_mask
from hgchat.params import init_model_params

from oracles import central_diff, kernel_references


def small_matrix(rows=st.integers(1, 4), cols=st.integers(1, 4)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            st.floats(-2.0, 2.0), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda vals: np.array(vals).reshape(shape))
    )


def scalar_probe(t: dc.Tensor, r_left: np.ndarray, r_right: np.ndarray) -> dc.Tensor:
    """Reduce a matrix to a scalar with fixed random weights (conditioning probe)."""
    return dc.matmul(dc.matmul(dc.Tensor(r_left), t), dc.Tensor(r_right))


# --- value oracles -----------------------------------------------------

def test_sigmoid_hand_values():
    out = dc.sigmoid(dc.Tensor([[0.0, math.log(3.0)]])).values
    assert np.allclose(out, [[0.5, 0.75]], atol=1e-15)


def test_softmax_uniform_on_constant_row():
    out = dc.softmax_rows(dc.Tensor([[0.0, 0.0, 0.0]])).values
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_matmul_identity():
    m = dc.Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = dc.matmul(dc.Tensor(np.eye(2)), m).values
    assert np.array_equal(out, m.values)


def test_neg_pick_matches_log():
    p = dc.Tensor([[0.2, 0.5, 0.3]])
    out = dc.neg_pick(p, [1]).item()
    assert out == pytest.approx(-math.log(0.5), abs=1e-15)


def test_neg_pick_row_batch_sums():
    p = dc.Tensor([[0.5, 0.5], [0.25, 0.75]])
    out = dc.neg_pick(p, [0, 1]).item()
    assert out == pytest.approx(-math.log(0.5) - math.log(0.75), abs=1e-14)


# --- shape / contract errors -------------------------------------------

def test_matmul_shape_error_names_kind_and_shapes():
    with pytest.raises(dc.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        dc.matmul(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((2, 3))))


def test_add_shape_error():
    with pytest.raises(dc.ShapeError, match="add"):
        dc.add(dc.Tensor(np.zeros((2, 2))), dc.Tensor(np.zeros((2, 3))))


def test_row_lookup_out_of_range():
    with pytest.raises(IndexError, match="row_lookup"):
        dc.row_lookup(dc.Tensor(np.zeros((3, 2))), [0, 3])


def test_backward_rejects_non_scalar_loss():
    with dc.recording():
        t = dc.add(dc.Tensor(np.zeros((2, 2))), dc.Tensor(np.ones((2, 2))))
        with pytest.raises(dc.ContractError, match="scalar"):
            dc.backward(t)


def test_backward_requires_active_tape():
    t = dc.Tensor([[1.0]])
    with pytest.raises(dc.ContractError, match="tape"):
        dc.backward(t)


def test_backward_rejects_a_loss_from_another_tape():
    x = dc.Tensor([[2.0]], requires_grad=True, name="x")
    with dc.recording():
        loss = dc.elem_mul(x, x)
        with dc.recording():
            dc.scale(x, 3.0)
            with pytest.raises(dc.ContractError, match="not produced on the active tape"):
                dc.backward(loss)
    with dc.recording():
        with pytest.raises(dc.ContractError, match="not produced on the active tape"):
            dc.backward(dc.Tensor([[1.0]]))


def test_recorded_backward_calls_add_into_leaf_grads():
    def one_call(x):
        with dc.recording():
            dc.backward(dc.matmul(dc.tanh(x), dc.Tensor([[0.5], [-1.5]])))

    x = dc.Tensor([[0.3, -0.8]], requires_grad=True, name="x")
    one_call(x)
    once = x.grad.copy()
    one_call(x)
    assert np.array_equal(x.grad, 2.0 * once) and np.all(once != 0.0)


# --- simple gradient oracles -------------------------------------------

def test_grad_of_sum_of_squares():
    with dc.recording():
        x = dc.Tensor([[1.0, 2.0, 3.0]], requires_grad=True, name="x")
        loss = dc.neg_pick(dc.Tensor([[1.0]]), [0])  # zero; keeps loss scalar path uniform
        loss = dc.matmul(dc.elem_mul(x, x), dc.Tensor(np.ones((3, 1))))
        dc.backward(loss)
    assert np.allclose(x.grad, [[2.0, 4.0, 6.0]], atol=1e-14)


def test_grad_of_sigmoid_at_zero():
    with dc.recording():
        w = dc.Tensor([[0.0]], requires_grad=True, name="w")
        loss = dc.sigmoid(w)
        dc.backward(loss)
    assert w.grad[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_fanout_accumulates_shared_subexpression():
    # loss = sum(y) + sum(y*y) with y = 2x shared by both paths
    def build(xv):
        x = dc.Tensor(xv, requires_grad=True, name="x")
        y = dc.scale(x, 2.0)
        ones = dc.Tensor(np.ones((3, 1)))
        loss = dc.add(dc.matmul(y, ones), dc.matmul(dc.elem_mul(y, y), ones))
        return x, loss

    xv = np.array([[0.3, -1.2, 0.7]])
    with dc.recording():
        x, loss = build(xv.copy())
        dc.backward(loss)

    theta = xv.copy()

    def f():
        y = 2.0 * theta
        return float(y.sum() + (y * y).sum())

    numeric = central_diff(f, theta)
    assert np.allclose(x.grad, numeric, rtol=1e-8, atol=1e-10)


# --- per-primitive finite-difference checks ----------------------------

PRIMS_UNARY = ["sigmoid", "relu", "tanh", "softmax_rows", "mean_rows", "transpose", "log"]


@settings(max_examples=25, deadline=None)
@given(small_matrix(), st.sampled_from(PRIMS_UNARY), st.randoms(use_true_random=False))
def test_unary_primitive_gradients_match_fd(mat, kind, rnd):
    if kind == "log":
        mat = np.abs(mat) + 0.5  # keep inside the log domain
    if kind == "relu":
        mat = mat + np.where(np.abs(mat) < 0.05, 0.1, 0.0)  # stay clear of the kink
    out_shape = dc.apply_primitive(kind, (dc.Tensor(mat),)).values.shape
    rng = np.random.default_rng(rnd.randrange(2**32))
    r_left = rng.standard_normal((1, out_shape[0]))
    r_right = rng.standard_normal((out_shape[1], 1))

    theta = mat.copy()

    def analytic():
        with dc.recording():
            x = dc.Tensor(theta, requires_grad=True, name="x")
            loss = scalar_probe(dc.apply_primitive(kind, (x,)), r_left, r_right)
            dc.backward(loss)
            return x.grad.copy()

    def numeric_f():
        y = dc.apply_primitive(kind, (dc.Tensor(theta),)).values
        return (r_left @ y @ r_right).item()

    got = analytic()
    want = central_diff(numeric_f, theta)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_binary_primitive_gradients_match_fd(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((m, k))
    b0 = rng.standard_normal((k, n))
    bias0 = rng.standard_normal((1, n))
    r_left = rng.standard_normal((1, m))
    r_right = rng.standard_normal((n, 1))
    row_bias0 = rng.standard_normal((m, n))  # affine also takes one bias row per row

    for kind, bias_init in (("matmul", bias0), ("affine", bias0), ("affine", row_bias0)):
        a, b, bias = a0.copy(), b0.copy(), bias_init.copy()

        def make(arrs):
            if kind == "matmul":
                return dc.matmul(arrs[0], arrs[1])
            return dc.affine(arrs[0], arrs[1], arrs[2])

        with dc.recording():
            ts = [dc.Tensor(x, requires_grad=True, name=f"t{i}") for i, x in enumerate((a, b, bias))]
            loss = scalar_probe(make(ts), r_left, r_right)
            dc.backward(loss)

        def numeric():
            y = make([dc.Tensor(x) for x in (a, b, bias)]).values
            return (r_left @ y @ r_right).item()

        inputs = (a, b, bias) if kind == "affine" else (a, b)
        for t, arr in zip(ts, inputs):
            want = central_diff(numeric, arr)
            assert np.allclose(t.grad, want, rtol=1e-6, atol=1e-8), kind


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_elemwise_and_concat_gradients_match_fd(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((m, n))
    r_left = rng.standard_normal((1, m))
    r_right_mul = rng.standard_normal((n, 1))
    r_right_cat = rng.standard_normal((2 * n, 1))

    with dc.recording():
        ta = dc.Tensor(a, requires_grad=True, name="a")
        tb = dc.Tensor(b, requires_grad=True, name="b")
        loss = dc.add(
            scalar_probe(dc.elem_mul(ta, tb), r_left, r_right_mul),
            scalar_probe(dc.concat_cols(ta, tb), r_left, r_right_cat),
        )
        dc.backward(loss)

    def numeric():
        mul = (r_left @ (a * b) @ r_right_mul).item()
        cat = (r_left @ np.concatenate([a, b], axis=1) @ r_right_cat).item()
        return mul + cat

    assert np.allclose(ta.grad, central_diff(numeric, a), rtol=1e-6, atol=1e-8)
    assert np.allclose(tb.grad, central_diff(numeric, b), rtol=1e-6, atol=1e-8)


def test_row_lookup_and_neg_pick_gradients_match_fd():
    rng = np.random.default_rng(7)
    table = rng.standard_normal((5, 3))
    idx = [2, 0, 2]

    with dc.recording():
        t = dc.Tensor(table, requires_grad=True, name="table")
        picked = dc.row_lookup(t, idx)
        probs = dc.softmax_rows(picked)
        loss = dc.neg_pick(probs, [0, 1, 2])
        dc.backward(loss)

    def numeric():
        p = table[idx]
        sm = np.exp(p - p.max(axis=1, keepdims=True))
        sm = sm / sm.sum(axis=1, keepdims=True)
        return float(-np.log(sm[np.arange(3), [0, 1, 2]]).sum())

    want = central_diff(numeric, table)
    assert np.allclose(t.grad, want, rtol=1e-6, atol=1e-8)


# --- invariants ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(small_matrix(cols=st.integers(2, 5)))
def test_softmax_rows_sum_to_one_in_open_interval(mat):
    out = dc.softmax_rows(dc.Tensor(mat)).values
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_sigmoid_range_open_interval():
    out = dc.sigmoid(dc.Tensor([[-30.0, 0.0, 30.0]])).values
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))

    def run():
        return dc.tanh(dc.matmul(dc.Tensor(a), dc.softmax_rows(dc.Tensor(b)))).values

    assert np.array_equal(run(), run())


def test_backward_consumes_the_tape():
    with dc.recording() as tape:
        x = dc.Tensor([[1.0, -2.0]], requires_grad=True, name="x")
        y = dc.relu(x)
        z = dc.concat_cols(y, dc.sigmoid(y))
        loss = dc.matmul(z, dc.Tensor(np.ones((4, 1))))
        dc.backward(loss)
    assert len(tape) == 0  # consumed


def test_a_kernel_that_raises_mid_sweep_leaves_an_empty_tape_and_every_grad(monkeypatch):
    def fail(arrays, meta, out, g):
        raise FloatingPointError("tanh backward failed")

    monkeypatch.setattr(dc._PRIMS["tanh"], "backward", fail)
    x = dc.Tensor([[0.5, -1.0]], requires_grad=True, name="x")
    w = dc.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True, name="w")
    x.grad[:] = [[7.0, 8.0]]
    with dc.recording() as tape:
        # w's delta is made before the sweep reaches tanh, x's never is
        loss = dc.matmul(dc.matmul(dc.tanh(x), w), dc.Tensor([[1.0], [1.0]]))
        with pytest.raises(FloatingPointError, match="tanh backward failed"):
            dc.backward(loss)
        assert tape == []
    assert np.array_equal(x.grad, [[7.0, 8.0]])
    assert np.array_equal(w.grad, np.zeros((2, 2)))


def test_the_sweep_frees_what_it_has_consumed():
    # a chain of 30 tanh/matmul ops on 200x200 arrays: the forward tape
    # holds about 30 arrays; a sweep that kept every activation and
    # intermediate gradient peaked about 33 arrays above its start
    rng = np.random.default_rng(0)
    x = dc.Tensor(rng.standard_normal((200, 200)), requires_grad=True)
    w = dc.Tensor(rng.standard_normal((200, 200)) / 20.0, requires_grad=True)
    ones_col, ones_row = dc.Tensor(np.ones((200, 1))), dc.Tensor(np.ones((1, 200)))
    tracemalloc.start()
    try:
        with dc.recording():
            h = x
            for _ in range(15):
                h = dc.tanh(dc.matmul(h, w))
            loss = dc.matmul(ones_row, dc.matmul(h, ones_col))
            del h
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            dc.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert start > 25 * x.values.nbytes  # the tape was traced
    assert peak - start < 4 * x.values.nbytes
    assert np.any(x.grad != 0.0) and np.any(w.grad != 0.0)


def test_sigmoid_equals_masked_formula_bit_for_bit():
    x = np.array([[-800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.7, 36.0, 800.0]])
    x = np.concatenate([x, np.random.default_rng(6).normal(0.0, 8.0, (4, x.shape[1]))])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    got = dc.sigmoid(dc.Tensor(x)).values
    assert got.tobytes() == want.tobytes()


def keep_pattern(name: str, large: bool, rng: np.random.Generator) -> np.ndarray:
    heads, k = 3, 100 if large else 1
    if name == "causal":
        return np.tile(np.tri(40 if large else 7, dtype=bool), (heads, 1))
    if name == "hypothesis":  # three rows, 4k steps of a step-major cache
        return np.tile(np.eye(3, dtype=bool), (heads, 4 * k))
    if name == "blocks":  # three dialogues of 2k, 5k and 4k nodes
        return np.tile(np.arange(3)[:, None] == np.repeat(np.arange(3), [2 * k, 5 * k, 4 * k]),
                       (heads, 1))
    keep = rng.random((12, 17 * k)) < 0.3
    keep[np.arange(12), rng.integers(0, keep.shape[1], 12)] = True  # every row keeps one
    return keep


def lockstep_cross_mask(nodes: list[int], live: tuple[int, ...]) -> dc.Keep:
    """The cross-attention ``Keep`` of a lockstep ``DecodeState`` over
    dialogues of ``nodes`` encoder rows, for rows that decode ``live``."""
    cfg = TrainConfig()
    rng = np.random.default_rng(9)
    h_enc, e_p, s_p = (dc.Tensor(rng.standard_normal((rows, cfg.d_model)))
                       for rows in (sum(nodes), len(nodes), len(nodes)))
    state = dec.DecodeState(h_enc, e_p, s_p, init_model_params(cfg, 12, 3), cfg, nodes)
    state.keep(list(live))
    return state._cross_mask


def model_mask(name: str, large: bool) -> tuple[dc.Keep, np.ndarray]:
    """A ``Keep`` that the model builds, and the boolean mask it stands for."""
    heads = TrainConfig().heads
    if name == "causal_mask":
        n = 40 if large else 7
        return causal_mask(n, heads), np.tile(np.tri(n, dtype=bool), (heads, 1))
    if name.startswith("hypothesis_mask"):  # at step 1 every row keeps one entry
        steps = int(name.rsplit("_", 1)[1])
        width = (32 if large else 3) if steps == 1 else (6 if large else 2)
        return (dec._hypothesis_mask(width, steps, heads),
                np.tile(np.eye(width, dtype=bool), (heads, steps)))
    nodes = [200, 500, 400] if large else [2, 5, 4]  # the rows of dialogues 0 and 2 go on
    return (lockstep_cross_mask(nodes, (0, 2)),
            np.tile(np.array([[0], [2]]) == np.repeat(np.arange(3), nodes), (heads, 1)))


MODEL_MASKS = ("causal_mask", "hypothesis_mask_1", "hypothesis_mask_50", "cross_mask")


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
@pytest.mark.parametrize("pattern", ["causal", "hypothesis", "blocks", "random", *MODEL_MASKS])
def test_keep_mask_softmax_equals_the_additive_mask_bit_for_bit(pattern, large):
    # sizes on both sides of 4096 entries; the model's own masks against
    # the boolean masks they stand for
    rng = np.random.default_rng(8)
    if pattern in MODEL_MASKS:
        entries, keep = model_mask(pattern, large)
    else:
        keep = keep_pattern(pattern, large, rng)
        entries = dc.Keep(keep)
    assert (keep.size >= 4096) == large
    x0 = rng.normal(0.0, 4.0, keep.shape)
    x0[1] *= 400.0  # kept entries that underflow too
    probe = rng.standard_normal(keep.shape)
    r_left = rng.standard_normal((1, keep.shape[0]))
    r_right = rng.standard_normal((keep.shape[1], 1))

    def run(masked_softmax):
        with dc.recording():
            x = dc.Tensor(x0, requires_grad=True, name="x")
            p = masked_softmax(x)
            dc.backward(scalar_probe(dc.elem_mul(p, dc.Tensor(probe)), r_left, r_right))
        return p.values, x.grad

    additive = run(lambda x: dc.softmax_rows(dc.add(x, dc.Tensor(np.where(keep, 0.0, -1e30)))))
    kept = run(lambda x: dc.softmax_rows(x, entries))
    assert np.all(kept[0][~keep] == 0.0)
    for want, got in zip(additive, kept):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mask", [np.ones(3, dtype=bool), np.ones((2, 3, 4), dtype=bool),
                                  np.ones((4, 3)), [[True, False]], None],
                         ids=["1d", "3d", "float", "list", "none"])
def test_keep_is_built_from_a_2d_boolean_array_only(mask):
    with pytest.raises(dc.ContractError, match="a keep mask is a 2-D boolean array"):
        dc.Keep(mask)


@pytest.mark.parametrize("shape", [(4, 3), (4, 80)])
def test_keep_refuses_a_row_that_keeps_no_entry(shape):
    mask = np.ones(shape, dtype=bool)
    mask[2] = False
    with pytest.raises(dc.ContractError, match="keep mask row 2 keeps no entry"):
        dc.Keep(mask)


def test_softmax_rows_takes_a_keep_of_its_shape_or_none():
    x = dc.Tensor(np.zeros((4, 3)))
    mask = np.ones((4, 3), dtype=bool)
    with pytest.raises(TypeError, match="keep must be a Keep or None"):
        dc.softmax_rows(x, mask)
    with pytest.raises(dc.ShapeError, match=r"softmax_rows.*\(4, 3\).*\(3, 4\)"):
        dc.softmax_rows(x, dc.Keep(np.ones((3, 4), dtype=bool)))
    assert np.array_equal(dc.softmax_rows(x, dc.Keep(mask)).values, np.full((4, 3), 1 / 3))


# --- kernels against their operator forms ---------------------------------

REFERENCES = kernel_references()


def layouts(a: np.ndarray) -> list[np.ndarray]:
    """``a`` C-ordered, F-ordered (as a transposed view is) and as a column
    slice of a wider array (as ``concat_cols`` passes ``g`` on). Products
    take the first two only: on a strided view, ``ndarray.dot`` and ``@``
    may pick different BLAS kernels, and no product in the model gets one
    (``test_training`` checks that)."""
    wide = np.zeros((a.shape[0], a.shape[1] + 3))
    wide[:, 1:-2] = a
    return [a, np.asfortranarray(a), wide[:, 1:-2]]


def assert_kernel_matches(kind, arrays, meta, g=None):
    """Forward and backward of ``kind`` equal their operator forms bit for
    bit and write into none of ``arrays``, the output and ``g``."""
    forward, backward = REFERENCES[kind]
    prim = dc._PRIMS[kind]
    before = [a.tobytes() for a in arrays]
    out = prim.forward(list(arrays), meta)
    want = forward(list(arrays), meta)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    if all(a.flags.c_contiguous for a in arrays):  # as Tensor values are
        assert out.flags.c_contiguous and out.dtype == np.float64
    if g is None:
        g = np.random.default_rng(out.size).standard_normal(out.shape)
    seen = (out.tobytes(), g.tobytes())
    got = prim.backward(list(arrays), meta, out, g)
    wanted = backward(list(arrays), meta, want, g)
    assert len(got) == len(wanted)
    for delta, ref in zip(got, wanted):
        assert delta.shape == ref.shape and delta.tobytes() == ref.tobytes()
    assert [a.tobytes() for a in arrays] == before
    assert (out.tobytes(), g.tobytes()) == seen


@pytest.mark.parametrize("kind", ["matmul", "affine"])
def test_products_equal_their_operator_forms_bit_for_bit(kind):
    rng = np.random.default_rng(21)
    sizes = (1, 2, 3, 8, 33, 130)
    for m, k, n in itertools.product(sizes, repeat=3):
        a, b, g = (rng.standard_normal(shape) for shape in ((m, k), (k, n), (m, n)))
        biases = [rng.standard_normal((1, n)), rng.standard_normal((m, n))]  # shared, per row
        for (la, a_), (lb, b_) in itertools.product(enumerate(layouts(a)[:2]),
                                                     enumerate(layouts(b)[:2])):
            g_ = layouts(g)[(la + lb) % 2]
            extra = [biases[(la + lb) % 2]] if kind == "affine" else []
            assert_kernel_matches(kind, [a_, b_, *extra], {}, g_)
    for m, k in itertools.product(sizes, repeat=2):  # one buffer on both sides
        a = rng.standard_normal((m, k))
        extra = [rng.standard_normal((1, m))] if kind == "affine" else []
        assert_kernel_matches(kind, [a, a.T, *extra], {})
        square = rng.standard_normal((k, k))
        extra = [rng.standard_normal((1, k))] if kind == "affine" else []
        assert_kernel_matches(kind, [square, square, *extra], {}, square)


def test_elementwise_kernels_equal_their_operator_forms_bit_for_bit():
    rng = np.random.default_rng(22)
    edges = np.array([[-np.inf, -1000.0, -800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 0.7,
                        36.0, 1000.0, np.inf]])
    for x in (edges, *layouts(rng.normal(0.0, 8.0, (5, 10)))):
        g = layouts(rng.standard_normal(x.shape))[x.shape[0] % 3]
        for kind in ("sigmoid", "tanh", "transpose"):
            with np.errstate(over="raise", divide="raise", invalid="raise"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_kernel_matches(kind, [x], {}, g.T.copy() if kind == "transpose" else g)
        for rows in (1, 3, 5):
            assert_kernel_matches("mean_rows", [x[:rows]], {})


@pytest.mark.parametrize("pattern", [None, "causal", "hypothesis", "blocks", "random"])
def test_softmax_rows_equals_its_operator_form_bit_for_bit(pattern):
    # masks on both sides of 4096 entries
    rng = np.random.default_rng(23)
    for large in (False, True):
        keep = (keep_pattern(pattern, large, rng) if pattern
                else np.ones((16, 300) if large else (7, 12), dtype=bool))
        assert (keep.size >= 4096) == large
        x = rng.normal(0.0, 4.0, keep.shape)  # C-ordered, as a Tensor's values are
        x[1] *= 400.0
        for g in layouts(rng.standard_normal(keep.shape)):
            assert_kernel_matches("softmax_rows", [x],
                                  {"keep": dc.Keep(keep) if pattern else None}, g)


def test_gathers_and_concats_equal_their_operator_forms_bit_for_bit():
    rng = np.random.default_rng(24)
    table = rng.standard_normal((6, 4))
    for idx in ([], [0], [5, 0, 5, 5, 2], list(range(6))):
        idx = np.array(idx, dtype=np.intp)
        for g in layouts(rng.standard_normal((len(idx), 4))):
            assert_kernel_matches("row_lookup", [table], {"indices": idx}, g)
    probs = dc.softmax_rows(dc.Tensor(rng.standard_normal((4, 9)))).values
    assert_kernel_matches("neg_pick", [probs], {"indices": np.array([8, 0, 3, 3])})
    parts = [layouts(rng.standard_normal((3, 2)))[i] for i in range(3)]
    assert_kernel_matches("concat_cols", parts, {})
    assert_kernel_matches("concat_rows", [p.T for p in parts] + [rng.standard_normal((1, 3))], {})


@pytest.mark.parametrize("op", [dc.concat_cols, dc.concat_rows])
def test_concat_of_mismatched_shapes_raises_the_named_shape_error(op):
    mismatched = ((2, 3), (3, 2)) if op is dc.concat_cols else ((2, 3), (2, 4))
    with pytest.raises(dc.ShapeError, match=rf"{op.__name__}: shapes do not conform"):
        op(*(dc.Tensor(np.zeros(shape)) for shape in mismatched))
    with pytest.raises(dc.ShapeError, match=op.__name__):
        op()


@pytest.mark.parametrize("bad", [-1, 3, -4, 2**40])
def test_out_of_range_indices_raise_the_named_index_error(bad):
    x = dc.Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError, match=rf"^row_lookup: index {bad} out of range \[0, 3\)$"):
        dc.row_lookup(x, [0, bad, 1])
    with pytest.raises(IndexError, match=rf"^neg_pick: index {bad} out of range \[0, 2\)$"):
        dc.neg_pick(dc.Tensor(np.full((3, 2), 0.5)), [0, bad, 1])


def test_unreachable_leaf_gets_zero_grad():
    with dc.recording():
        used = dc.Tensor([[1.0]], requires_grad=True, name="used")
        unused = dc.Tensor([[5.0]], requires_grad=True, name="unused")
        _ = dc.relu(unused)  # on tape but not feeding the loss
        loss = dc.sigmoid(used)
        dc.backward(loss)
    assert np.array_equal(unused.grad, [[0.0]])


def test_dropout_identity_at_rate_zero_and_seeded_mask():
    x = dc.Tensor([[1.0, 2.0, 3.0, 4.0]])
    assert dc.dropout(x, 0.0, np.random.default_rng(0)) is x
    a = dc.dropout(x, 0.5, np.random.default_rng(11)).values
    b = dc.dropout(x, 0.5, np.random.default_rng(11)).values
    assert np.array_equal(a, b)
    kept = a[a != 0.0]
    assert np.allclose(kept, x.values[a != 0.0] * 2.0)


# --- grad_check ----------------------------------------------------------

def test_grad_check_quadratic_tiny_error():
    theta = dc.Tensor([[3.0]], requires_grad=True, name="theta")

    def loss():
        return dc.elem_mul(theta, theta)

    err = dc.grad_check(loss, {"theta": theta}, eps=1e-5)
    assert err <= 1e-9


def test_grad_check_constant_function_zero_error():
    theta = dc.Tensor([[2.0]], requires_grad=True, name="theta")
    const = dc.Tensor([[4.0]])

    def loss():
        return dc.relu(const)

    assert dc.grad_check(loss, {"theta": theta}, eps=1e-5) == 0.0


def test_grad_check_rejects_bad_eps():
    theta = dc.Tensor([[1.0]], requires_grad=True, name="theta")
    with pytest.raises(ValueError):
        dc.grad_check(lambda: dc.elem_mul(theta, theta), {"theta": theta}, eps=0.1)


def test_grad_check_reports_nonfinite_with_param_name():
    theta = dc.Tensor([[0.0]], requires_grad=True, name="theta")

    def loss():
        return dc.log(theta)  # log(+-eps) explodes on the negative side

    with np.errstate(all="ignore"), pytest.raises(dc.NumericalError, match="theta"):
        dc.grad_check(loss, {"theta": theta}, eps=1e-5)


# --- the no-tape fast path -----------------------------------------------

def prim_cases() -> list[tuple[str, tuple[np.ndarray, ...], dict]]:
    """One or more (kind, input arrays, meta) applications of every kind."""
    rng = np.random.default_rng(12)

    def m(rows, cols):
        return rng.standard_normal((rows, cols))

    def keep(rows, cols):
        mask = rng.random((rows, cols)) < 0.5
        mask[:, 0] = True  # every row keeps one
        return dc.Keep(mask)

    probs = dc.softmax_rows(dc.Tensor(m(3, 4))).values
    return [
        ("matmul", (m(3, 4), m(4, 2)), {}),
        ("add", (m(3, 4), m(3, 4)), {}),
        ("elem_mul", (m(3, 4), m(3, 4)), {}),
        ("scale", (m(3, 4),), {"alpha": -1.5}),
        ("concat_cols", (m(3, 2), m(3, 5), m(3, 1)), {}),
        ("concat_rows", (m(2, 3), m(4, 3)), {}),
        ("transpose", (m(3, 5),), {}),
        ("transpose", (m(1, 4),), {}),  # its transpose is a contiguous view
        ("sigmoid", (m(3, 4),), {}),
        ("relu", (m(3, 4),), {}),
        ("tanh", (m(3, 4),), {}),
        ("softmax_rows", (m(3, 5),), {"keep": None}),
        ("softmax_rows", (m(3, 5),), {"keep": keep(3, 5)}),
        ("softmax_rows", (m(64, 80),), {"keep": keep(64, 80)}),  # above 4096 entries
        ("mean_rows", (m(4, 3),), {}),
        ("row_lookup", (m(5, 3),), {"indices": np.array([2, 0, 2, 2], dtype=np.intp)}),
        ("affine", (m(3, 4), m(4, 2), m(1, 2)), {}),
        ("affine", (m(3, 4), m(4, 2), m(3, 2)), {}),
        ("log", (np.abs(m(3, 4)) + 0.5,), {}),
        ("neg_pick", (probs,), {"indices": np.array([0, 3, 1], dtype=np.intp)}),
        ("dropout", (m(3, 4),), {"mask": (rng.random((3, 4)) >= 0.5) / 0.5}),
    ]


def test_prim_cases_cover_every_kind():
    assert {kind for kind, _, _ in prim_cases()} == set(dc._PRIMS)


@pytest.mark.parametrize("case", prim_cases(), ids=lambda c: c[0])
def test_forward_output_is_c_contiguous_2d_float64(case):
    # apply_primitive builds its output from the forward's array unchecked
    kind, arrays, meta = case
    out = dc.apply_primitive(kind, tuple(dc.Tensor(a) for a in arrays), **meta)
    assert out.values.ndim == 2 and out.values.dtype == np.float64
    assert out.values.flags.c_contiguous
    assert (out.grad, out.name) == (None, None)


@pytest.mark.parametrize("case", prim_cases(), ids=lambda c: c[0])
def test_every_backward_delta_has_its_inputs_shape(case):
    kind, arrays, meta = case
    out = dc._PRIMS[kind].forward(list(arrays), meta)
    g = np.random.default_rng(13).standard_normal(out.shape)
    deltas = dc._PRIMS[kind].backward(list(arrays), meta, out, g)
    assert [d.shape for d in deltas] == [a.shape for a in arrays]


def test_untaped_threads_run_beside_a_recording_thread():
    rng = np.random.default_rng(14)
    w0, x0 = rng.standard_normal((4, 4)) / 2.0, rng.standard_normal((3, 4))
    a = dc.Tensor(rng.standard_normal((2, 2)))

    def recorded():
        w = dc.Tensor(w0, requires_grad=True, name="w")
        with dc.recording() as tape:
            h = dc.Tensor(x0)
            for _ in range(40):
                h = dc.tanh(dc.matmul(h, w))
            loss = dc.matmul(dc.matmul(dc.Tensor(np.ones((1, 3))), h),
                             dc.Tensor(np.ones((4, 1))))
            kinds = [kind for kind, *_ in tape]
            dc.backward(loss)
        return kinds, w.grad

    alone = recorded()
    assert len(alone[0]) == 82
    stop = threading.Event()
    untaped, runs = [0, 0], []

    def untaped_loop(k):
        while not stop.is_set():
            dc.relu(dc.add(a, a))
            untaped[k] += 2

    def recorder():
        for _ in range(30):
            runs.append(recorded())

    untaped_threads = [threading.Thread(target=untaped_loop, args=(k,)) for k in range(2)]
    recorder_thread = threading.Thread(target=recorder)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads every few primitives
    try:
        for t in [*untaped_threads, recorder_thread]:
            t.start()
        recorder_thread.join(timeout=60)
    finally:
        stop.set()
        for t in untaped_threads:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*untaped_threads, recorder_thread])
    assert all(untaped) and len(runs) == 30
    for kinds, grad in runs:
        assert kinds == alone[0]
        assert grad.tobytes() == alone[1].tobytes()
    assert dc._tapes == []


def test_another_threads_recording_is_refused_while_one_is_open():
    a = dc.Tensor(np.ones((2, 2)))
    outcome = []

    def other():
        try:
            with dc.recording() as tape:
                dc.relu(a)
                outcome.append([kind for kind, *_ in tape])
        except dc.ContractError as exc:
            dc.relu(a)  # untaped: reaches no tape
            outcome.append(exc)

    with dc.recording() as tape:
        dc.add(a, a)
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=10)
        assert [kind for kind, *_ in tape] == ["add"]
    assert isinstance(outcome[0], dc.ContractError)
    assert "another thread is recording" in str(outcome[0])
    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert outcome[1] == ["relu"] and dc._tapes == []


def test_recordings_nest_and_the_stack_empties_after_a_raise():
    w = dc.Tensor(np.full((1, 1), 3.0), requires_grad=True)
    with dc.recording() as outer:
        dc.add(w, w)
        with dc.recording() as inner:
            assert dc._tapes == [outer, inner]
            dc.backward(dc.scale(w, 2.0))
        assert [kind for kind, *_ in outer] == ["add"] and inner == []
    assert w.grad[0, 0] == 2.0 and dc._tapes == []
    with pytest.raises(KeyError):
        with dc.recording():
            with dc.recording():
                raise KeyError("inside")
    assert dc._tapes == []
    with pytest.raises(dc.ContractError, match="requires an active tape"):
        dc.backward(dc.scale(w, 2.0))


def wrapper_calls() -> dict:
    """One call of each thin wrapper, by the kind it applies."""
    rng = np.random.default_rng(15)
    a, b = dc.Tensor(rng.standard_normal((3, 3))), dc.Tensor(rng.standard_normal((3, 3)))
    p = dc.softmax_rows(a)
    return {
        "matmul": lambda: dc.matmul(a, b),
        "add": lambda: dc.add(a, b),
        "elem_mul": lambda: dc.elem_mul(a, b),
        "scale": lambda: dc.scale(a, 2.0),
        "concat_cols": lambda: dc.concat_cols(a, b),
        "concat_rows": lambda: dc.concat_rows(a, b),
        "transpose": lambda: dc.transpose(a),
        "sigmoid": lambda: dc.sigmoid(a),
        "relu": lambda: dc.relu(a),
        "tanh": lambda: dc.tanh(a),
        "softmax_rows": lambda: dc.softmax_rows(a),
        "mean_rows": lambda: dc.mean_rows(a),
        "row_lookup": lambda: dc.row_lookup(a, [1, 1]),
        "affine": lambda: dc.affine(a, b, dc.Tensor(np.ones((1, 3)))),
        "log": lambda: dc.log(p),
        "neg_pick": lambda: dc.neg_pick(p, [0, 1, 2]),
        "dropout": lambda: dc.dropout(a, 0.5, np.random.default_rng(0)),
    }


def test_every_wrapper_dispatches_through_the_module_level_apply_primitive(monkeypatch):
    # perfbench counts primitives at this one point; a wrapper that
    # dispatched on its own would drop out of the traced counts
    calls = wrapper_calls()
    assert set(calls) == set(dc._PRIMS)
    seen = []
    real = dc.apply_primitive

    def counting(kind, inputs, **meta):
        seen.append(kind)
        return real(kind, inputs, **meta)

    monkeypatch.setattr(dc, "apply_primitive", counting)
    for kind, call in calls.items():
        seen.clear()
        call()
        assert seen == [kind]
