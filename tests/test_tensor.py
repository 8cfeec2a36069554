"""Autodiff core: forward values against numpy, gradients against finite differences."""

import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fgn.tensor as tensor_module
from fgn.gradcheck import grad_check
from fgn.tensor import (Parameter, Tensor, _openblas_threads, concat, is_recording, no_grad,
                        one_blas_thread, sigmoid, sigmoid_array, softmax, stack_rows, tanh, threaded_map)


def finite_vec(n, lo=-5, hi=5):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)


def test_add_mul_values():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    assert np.array_equal((a + b).data, [4.0, 6.0])
    assert np.array_equal((a * b).data, [3.0, 8.0])
    assert np.array_equal((a - b).data, [-2.0, -2.0])
    assert np.array_equal((a / 2.0).data, [0.5, 1.0])


def test_matmul_shapes():
    m = Tensor(np.arange(6.0).reshape(2, 3))
    v = Tensor(np.ones(3))
    assert (m @ v).data.shape == (2,)
    assert (Tensor(np.ones(2)) @ m).data.shape == (3,)
    assert (m @ Tensor(np.ones((3, 4)))).data.shape == (2, 4)
    assert (Tensor(np.ones(3)) @ Tensor(np.arange(3.0))).data == pytest.approx(3.0)
    stack = Tensor(np.ones((5, 2, 3)))
    assert (stack @ Tensor(np.ones((3, 4)))).data.shape == (5, 2, 4)
    assert (stack @ v).data.shape == (5, 2)
    assert (Tensor(np.ones(2)) @ stack).data.shape == (5, 3)
    with pytest.raises(ValueError):
        m @ Tensor(np.ones((2, 3)))


def test_arith_gradients(rng):
    a = Parameter(rng.standard_normal((3, 4)), name="a")
    b = Parameter(rng.standard_normal((3, 4)), name="b")
    d = rng.standard_normal((3, 4))

    def loss():
        return ((a * b + a - b / 2.0) * Tensor(d)).sum()

    assert grad_check(loss, [a, b]).passed


def test_matmul_gradients(rng):
    w = Parameter(rng.standard_normal((4, 3)), name="w")
    x = Parameter(rng.standard_normal(3), name="x")
    m = Parameter(rng.standard_normal((3, 5)), name="m")
    d1 = rng.standard_normal(4)
    d2 = rng.standard_normal((4, 5))

    def loss():
        return ((w @ x) * Tensor(d1)).sum() + ((w @ m) * Tensor(d2)).sum()

    assert grad_check(loss, [w, x, m]).passed


def test_batched_matmul_gradients(rng):
    # leading axes broadcast: a shared weight, a shared vector, and a stack on both sides
    a = Parameter(rng.standard_normal((3, 2, 4)), name="a")
    b = Parameter(rng.standard_normal((3, 4, 5)), name="b")
    w = Parameter(rng.standard_normal((4, 5)), name="w")
    v = Parameter(rng.standard_normal(4), name="v")
    u = Parameter(rng.standard_normal(2), name="u")
    d1, d2 = rng.standard_normal((3, 2, 5)), rng.standard_normal((3, 2))
    d3 = rng.standard_normal((3, 5))

    def loss():
        return (((a @ b) + (a @ w)) * Tensor(d1)).sum() + ((a @ v) * Tensor(d2)).sum() \
            + (((u @ a) @ w) * Tensor(d3)).sum()

    assert grad_check(loss, [a, b, w, v, u]).passed


def test_broadcast_add_gradient(rng):
    m = Parameter(rng.standard_normal((4, 3)), name="m")
    b = Parameter(rng.standard_normal(3), name="b")
    d = rng.standard_normal((4, 3))

    def loss():
        return ((m + b) * Tensor(d)).sum()

    assert grad_check(loss, [m, b]).passed


def test_grad_accumulates_across_uses():
    x = Parameter(np.array([2.0]), name="x")
    y = x * x + x
    y.sum().backward()
    # d/dx (x^2 + x) = 2x + 1
    assert x.grad[0] == pytest.approx(5.0)


def test_backward_handles_deep_chains():
    # a recursive traversal would hit the interpreter limit well before 5000
    x = Parameter(np.array([1.0]), name="x")
    y = x
    for _ in range(5000):
        y = y + x
    y.sum().backward()
    assert x.grad[0] == pytest.approx(5001.0)


def test_sigmoid_tanh_values():
    assert sigmoid(Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)
    assert tanh(Tensor(np.array([0.0]))).data[0] == 0.0
    big = sigmoid(Tensor(np.array([800.0, -800.0]))).data
    assert np.all(np.isfinite(big)) and big[0] == pytest.approx(1.0)


def two_branch_sigmoid(x):
    """Reference: 1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere, each on its own mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_array_matches_two_branch_form_bit_for_bit(rng):
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 710.0, -745.0, 800.0, -800.0, np.inf, -np.inf])
    spread = rng.standard_normal(10000) * 10.0 ** rng.uniform(-3, 3, 10000)
    for x in (edges, spread, spread.reshape(100, 10, 10)):
        got = sigmoid_array(x)
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.int64), two_branch_sigmoid(x).view(np.int64))


def test_softmax_uniform():
    p = softmax(Tensor(np.zeros(2))).data
    assert p == pytest.approx([0.5, 0.5])


@given(finite_vec(5), st.floats(-50, 50, allow_nan=False))
def test_softmax_shift_invariant_and_normalized(xs, c):
    p = softmax(Tensor(np.array(xs))).data
    q = softmax(Tensor(np.array(xs) + c)).data
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.allclose(p, q, atol=1e-12)


def test_softmax_gradient(rng):
    x = Parameter(rng.standard_normal(6), name="x")
    m = Parameter(rng.standard_normal((3, 4)), name="m")
    d = rng.standard_normal(6)
    dm = rng.standard_normal((3, 4))

    def loss():
        return (softmax(x) * Tensor(d)).sum() + (softmax(m) * Tensor(dm)).sum()

    assert grad_check(loss, [x, m]).passed


def test_softmax_rows_match_vectors(rng):
    m = rng.standard_normal((3, 5))
    rows = softmax(Tensor(m)).data
    for i in range(3):
        np.testing.assert_array_equal(rows[i], softmax(Tensor(m[i])).data)


def test_concat_narrow_roundtrip(rng):
    a = Tensor(rng.standard_normal(3))
    b = Tensor(rng.standard_normal(2))
    c = concat([a, b])
    assert np.array_equal(c[0:3].data, a.data)
    assert np.array_equal(c[3:5].data, b.data)
    rows = concat([Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((4, 2)))])
    assert rows.shape == (4, 5)


def test_concat_narrow_gradients(rng):
    a = Parameter(rng.standard_normal(3), name="a")
    b = Parameter(rng.standard_normal(2), name="b")
    ma = Parameter(rng.standard_normal((2, 3)), name="ma")
    mb = Parameter(rng.standard_normal((2, 1)), name="mb")
    d = rng.standard_normal(5)
    dm = rng.standard_normal((2, 4))

    def loss():
        return (concat([a, b])[1:5] * Tensor(d[1:])).sum() + (concat([ma, mb]) * Tensor(dm)).sum()

    assert grad_check(loss, [a, b, ma, mb]).passed


def test_stack_rows_and_take(rng):
    rows = [Tensor(rng.standard_normal(4)) for _ in range(3)]
    m = stack_rows(rows)
    assert m.data.shape == (3, 4)
    assert stack_rows(m) is m
    assert m[1, 1].data == pytest.approx(m.data.reshape(-1)[5])


def test_take_gradient_accumulates_repeats():
    x = Parameter(np.array([1.0, 2.0, 3.0]), name="x")
    y = x[1] + x[1] + x[0]
    y.backward()
    assert np.array_equal(x.grad, [1.0, 2.0, 0.0])


@pytest.mark.parametrize("index", [2, -1, slice(1, 4), (Ellipsis, 1), (slice(None), None, slice(0, 2)),
                                   np.array([3, 0, 3, 3]), (Ellipsis, np.array([[0, 1], [1, 2]]))],
                         ids=["row", "negative_row", "slice", "ellipsis", "newaxis", "gather_repeats",
                              "ellipsis_window_gather"])
def test_getitem_matches_numpy(rng, index):
    base = rng.standard_normal((5, 3))
    x = Parameter(base.copy(), name="x")
    y = x[index]
    want = base[index]
    np.testing.assert_array_equal(y.data, want)
    d = rng.standard_normal(want.shape)
    (y * Tensor(d)).sum().backward()
    # every occurrence of an element in the index adds its share of the gradient
    expect = np.zeros_like(base)
    np.add.at(expect, index, d)
    np.testing.assert_allclose(x.grad, expect, rtol=0, atol=1e-15)


def graph_leaves(root) -> list:
    seen, leaves, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            leaves += [] if node._parents else [node]
    return leaves


# (op, shape of the constant) with the Tensor operand x of shape (3, 4)
CONSTANT_OPERANDS = {
    "add": (lambda x, c: x + c, (4,)),
    "radd": (lambda x, c: c + x, (3, 4)),
    "mul": (lambda x, c: x * c, (3, 1)),
    "rmul": (lambda x, c: c * x, (4,)),
    "rsub": (lambda x, c: c - x, (3, 4)),
    "matmul": (lambda x, c: x @ c, (4, 2)),
    "rmatmul": (lambda x, c: c @ x, (2, 3)),
    "rmatmul_vector": (lambda x, c: c @ x, (3,)),
    "concat": (lambda x, c: concat([x, c]), (3, 2)),
    "concat_first": (lambda x, c: concat([c, x]), (3, 1)),
}


@pytest.mark.parametrize("name", CONSTANT_OPERANDS)
def test_plain_array_operand_is_a_constant(rng, name):
    op, shape = CONSTANT_OPERANDS[name]
    base, c = rng.standard_normal((3, 4)), rng.standard_normal(shape)
    x, ref_x = Parameter(base.copy(), name="x"), Parameter(base.copy(), name="x")
    out, ref = op(x, c), op(ref_x, Tensor(c))
    # ndarray <op> Tensor defers to the Tensor instead of building an object array
    assert isinstance(out, Tensor)
    np.testing.assert_array_equal(out.data, ref.data)
    assert graph_leaves(out) == [x]
    d = rng.standard_normal(ref.shape)
    (out * d).sum().backward()
    (ref * Tensor(d)).sum().backward()
    np.testing.assert_array_equal(x.grad, ref_x.grad)


def test_getitem_returns_a_copy():
    x = Parameter(np.arange(6.0).reshape(2, 3), name="x")
    row = x[0]
    x.data[0, 0] = 99.0
    assert row.data[0] == 0.0
    assert len(x) == 2 and len(row) == 3
    assert [r.data.tolist() for r in x] == [[99.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_getitem_gradient(rng):
    x = Parameter(rng.standard_normal((4, 6)), name="x")
    idx = 2 * np.arange(3)[:, None] + np.arange(2)
    d1 = rng.standard_normal((4, 3, 2))
    d2 = rng.standard_normal((3, 6))

    def loss():
        return (x[..., idx] * Tensor(d1)).sum() + (x[np.array([1, 3, 1])] * Tensor(d2)).sum()

    assert grad_check(loss, [x]).passed


def test_reshape_transpose_gradients(rng):
    x = Parameter(rng.standard_normal((2, 6)), name="x")
    d = rng.standard_normal((6, 2))

    def loss():
        return (x.reshape((3, 4)).reshape((12,)).reshape((6, 2)) * Tensor(d)).sum() \
            + (x.transpose((1, 0)) * Tensor(d)).sum()

    assert grad_check(loss, [x]).passed


def test_grads_stay_c_ordered_through_views(rng):
    # ufuncs mirror input layout, so a transposed intermediate must not leak
    # a Fortran-ordered gradient buffer into scatter updates
    x = Parameter(rng.standard_normal((3, 4)), name="x")
    y = tanh(x.transpose((1, 0)))
    z = y[0, 2] + y[0, 2]
    z.backward()
    assert x.grad is not None and x.grad.flags["C_CONTIGUOUS"]
    assert np.count_nonzero(x.grad) == 1
    # both operands of a sum first receive views of its gradient; each needs a
    # buffer of its own, or a's later addition writes through into b's
    w, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    a, b = tanh(x), sigmoid(x)
    (((a + b) * Tensor(w)).sum() + (a * Tensor(v)).sum()).backward()
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(a.grad, w + v)
    # an intermediate whose first gradient is a transposed view still gets a C-ordered one
    h = tanh(x)
    (h.transpose((1, 0)) * Tensor(w.T)).sum().backward()
    assert h.grad.flags["C_CONTIGUOUS"]


def test_scalar_truediv_only():
    with pytest.raises(TypeError):
        Tensor(np.ones(2)) / Tensor(np.ones(2))


def test_no_grad_records_no_graph(rng):
    x = Parameter(rng.standard_normal((3, 4)), name="x")
    w = rng.standard_normal((4, 2))
    with no_grad():
        y = (tanh(x @ w) * 2.0).sum()
    assert y._parents == () and y._backward is None
    # the same value a recorded graph computes
    recorded = (tanh(x @ w) * 2.0).sum()
    assert recorded._parents and y.item() == recorded.item()


def test_no_grad_scope_nests_and_survives_exceptions():
    assert is_recording()
    with no_grad():
        with no_grad():
            assert not is_recording()
        assert not is_recording()
    assert is_recording()
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("inside")
    assert is_recording()
    with pytest.raises(KeyError):
        with no_grad():
            with no_grad():
                raise KeyError("nested")
    assert is_recording()


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy bundles no OpenBLAS with thread control")
def test_one_blas_thread_restores_the_count_and_nests():
    get, put, shutdown = _openblas_threads()
    assert shutdown is None or callable(shutdown)
    saved = get()
    put(2)      # a count other than 1, so a restore shows where the machine allows 2
    try:
        outer = get()
        with one_blas_thread():
            assert get() == 1
            with one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == outer
        with pytest.raises(KeyError):
            with one_blas_thread():
                with one_blas_thread():
                    raise KeyError("nested")
        assert get() == outer
    finally:
        put(saved)


@pytest.mark.skipif(_openblas_threads() is None or _openblas_threads()[2] is None,
                    reason="numpy bundles no OpenBLAS that exports blas_thread_shutdown_")
def test_stopped_blas_workers_restart_and_give_the_same_bits(rng):
    # a GEMM this size runs on every BLAS thread; each map entered at a count of 2
    # stops the workers, twice in a row is as safe as once, and the next GEMM starts them again
    get, put, _ = _openblas_threads()
    saved = get()
    put(2)
    try:
        a, b = rng.standard_normal((300, 400)), rng.standard_normal((400, 500))
        before = a @ b
        threaded_map(lambda i: i, range(2), 2)
        threaded_map(lambda i: i, range(2), 2)
        assert get() == 2
        after = a @ b
        assert np.array_equal(after.view(np.int64), before.view(np.int64))
    finally:
        put(saved)


class FakeBlas:
    """OpenBLAS's thread control as threaded_map sees it: a count, every count set, every shutdown."""

    def __init__(self, count, shutdown=True):
        self.count, self.puts, self.shutdowns = count, [], 0
        self.control = (lambda: self.count, self.put, self.shutdown if shutdown else None)

    def put(self, count):
        self.count = count
        self.puts.append(count)

    def shutdown(self):
        self.shutdowns += 1
        return 0


def fake_blas(monkeypatch, count, shutdown=True):
    blas = FakeBlas(count, shutdown)
    monkeypatch.setattr(tensor_module, "_openblas_threads", lambda: blas.control)
    return blas


@pytest.mark.parametrize("count, shutdown", [(1, True), (1, False), (2, True), (4, True)])
def test_threaded_map_pins_the_count_and_stops_workers_only_above_one(monkeypatch, count, shutdown):
    # at a count of 1 no worker can be spinning, so the symbol is not needed
    blas = fake_blas(monkeypatch, count, shutdown)
    seen = []
    squares = threaded_map(lambda i: seen.append((threading.current_thread(), blas.count)) or i * i, range(5), 2)
    assert squares == [0, 1, 4, 9, 16]
    assert blas.count == count and blas.puts == [1, count]
    assert blas.shutdowns == (count > 1)
    assert {c for _, c in seen} == {1} and threading.current_thread() not in {t for t, _ in seen}


@pytest.mark.parametrize("count", [1, 2])
def test_threaded_map_restores_the_count_after_a_raising_item(monkeypatch, count):
    blas = fake_blas(monkeypatch, count)
    threads = []

    def item(i):
        threads.append(threading.current_thread())
        if i == 1:
            raise KeyError("item")

    with pytest.raises(KeyError, match="item"):
        threaded_map(item, range(4), 2)
    # the exception arrives once the pool has joined
    assert blas.count == count and blas.puts == [1, count]
    assert len(threads) >= 2 and not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("case", ["one worker", "no OpenBLAS", "no shutdown above one"])
def test_threaded_map_runs_in_the_calling_thread(monkeypatch, case):
    if case == "no OpenBLAS":
        monkeypatch.setattr(tensor_module, "_openblas_threads", lambda: None)
    else:
        blas = fake_blas(monkeypatch, 2, shutdown=case == "one worker")
    threads = []
    negated = threaded_map(lambda i: threads.append(threading.current_thread()) or -i, range(3),
                           1 if case == "one worker" else 2)
    assert negated == [0, -1, -2] and threads == [threading.current_thread()] * 3
    if case != "no OpenBLAS":
        assert blas.puts == [] and blas.shutdowns == 0


def test_backward_refuses_a_missing_graph(rng):
    x = Parameter(rng.standard_normal(3), name="x")
    with no_grad():
        loss = (x * x).sum()
        with pytest.raises(RuntimeError, match="no_grad"):
            (x * x).sum().backward()
    # a loss built under the scope, or a bare constant, has no graph to run backward over
    with pytest.raises(RuntimeError, match="no graph"):
        loss.backward()
    with pytest.raises(RuntimeError, match="no graph"):
        Tensor(np.float64(2.0)).backward()
    assert x.grad is None


def test_backward_spends_its_graph(rng):
    # a second backward over one graph would add the intermediate gradients of
    # the first again (x.grad grew to 6x the first); it raises
    x = Parameter(rng.standard_normal(3), name="x")
    hidden = tanh(x) * 3.0
    loss = tanh(hidden).sum()
    loss.backward()
    first = x.grad.copy()
    want = (1.0 - np.tanh(hidden.data) ** 2) * 3.0 * (1.0 - np.tanh(x.data) ** 2)
    np.testing.assert_allclose(first, want, rtol=1e-15)
    assert loss._parents == () and hidden._parents == () and hidden._backward is None
    with pytest.raises(RuntimeError, match="no graph"):
        loss.backward()
    assert np.array_equal(x.grad, first)
    # a fresh graph over the same leaf runs as before
    tanh(tanh(x) * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * first, rtol=1e-15)


def test_backward_refuses_a_graph_that_reaches_a_spent_node():
    # other shares h with the spent graph of loss: its gradient would stop at h,
    # which lost its closure and parents, and x.grad would silently miss its part
    x = Parameter(np.array([0.3, -0.2]), name="x")
    h = tanh(x) * 3.0
    loss = tanh(h).sum()
    other = (h * 2.0).sum()
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="spent"):
        other.backward()
    assert np.array_equal(x.grad, first)
    assert other.grad is None and h.grad is not None
    # leaves are never spent: a fresh graph from x runs
    (tanh(x) * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, first + 2.0 * (1.0 - np.tanh(x.data) ** 2), rtol=1e-15)
