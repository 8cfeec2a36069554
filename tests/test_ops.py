"""Layer ops against hand arithmetic and brute-force loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgn import ops
from fgn.gradcheck import grad_check
from fgn.ops import LstmCellParams, conv, dropout, init_lstm_params, lstm_sequence, lstm_step, pool
from fgn.optim import AdamState, adam_step
from fgn.tensor import Parameter, Tensor, matmul


def conv2d_loops(x, w):
    """Reference correlation: nested loops over a zero-padded input."""
    co, ci, k, _ = w.shape
    c, h, wd = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    y = np.zeros((co, h, wd))
    for o in range(co):
        for i in range(h):
            for j in range(wd):
                y[o, i, j] = (xp[:, i:i + k, j:j + k] * w[o]).sum()
    return y


def conv3d_loops(x, w):
    co, ci, k = w.shape[0], w.shape[1], w.shape[2]
    c, t, h, wd = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    y = np.zeros((co, t, h, wd))
    for o in range(co):
        for f in range(t):
            for i in range(h):
                for j in range(wd):
                    y[o, f, i, j] = (xp[:, f:f + k, i:i + k, j:j + k] * w[o]).sum()
    return y


def conv3d_loops_adjoint(x, w, d):
    """The gradients (dx, dw) of sum(conv3d_loops(x, w) * d), by the same loops."""
    co, k = w.shape[0], w.shape[2]
    c, t, h, wd = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    dxp = np.zeros(xp.shape)
    dw = np.zeros(w.shape)
    for o, f, i, j in np.ndindex(co, t, h, wd):
        dw[o] += d[o, f, i, j] * xp[:, f:f + k, i:i + k, j:j + k]
        dxp[:, f:f + k, i:i + k, j:j + k] += d[o, f, i, j] * w[o]
    return dxp[:, p:p + t, p:p + h, p:p + wd], dw


def last(x):
    """Channels-first (C, *S) -> the channels-last (*S, C) that conv and pool read."""
    return np.moveaxis(x, 0, -1)


def test_conv2d_delta_kernel_identity(rng):
    x = rng.random((5, 5, 1))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = conv(Tensor(x), Parameter(w, name="w"))
    assert np.array_equal(y.data, x)


def test_conv2d_zero_kernel(rng):
    y = conv(Tensor(rng.random((4, 4, 2))), Parameter(np.zeros((3, 2, 3, 3)), name="w"))
    assert y.data.shape == (4, 4, 3) and not y.data.any()


def test_conv2d_ones_on_ones():
    y = conv(Tensor(np.ones((3, 3, 1))), Parameter(np.ones((1, 1, 3, 3)), name="w")).data[..., 0]
    # padded support: 4 cells reach a corner, all 9 reach the center
    assert y[0, 0] == 4.0 and y[1, 1] == 9.0
    assert y[0, 1] == 6.0


def test_conv2d_matches_loop_oracle(rng):
    x = rng.standard_normal((3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    y = conv(Tensor(last(x)), Parameter(w, name="w"))
    assert np.allclose(y.data, last(conv2d_loops(x, w)), atol=1e-12)


def test_conv2d_batched_matches_per_item(rng):
    x = rng.standard_normal((4, 5, 5, 2))
    w = Parameter(rng.standard_normal((3, 2, 3, 3)), name="w")
    yb = conv(Tensor(x), w).data
    for i in range(4):
        assert np.allclose(yb[i], conv(Tensor(x[i]), w).data, atol=1e-14)


def test_conv2d_rejects_bad_shapes(rng):
    with pytest.raises(ValueError, match="channel"):
        conv(Tensor(rng.random((4, 4, 2))), Parameter(np.zeros((1, 3, 3, 3)), name="w"))
    with pytest.raises(ValueError, match="odd"):
        conv(Tensor(rng.random((4, 4, 1))), Parameter(np.zeros((1, 1, 2, 2)), name="w"))


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("rank", [2, 3])
def test_conv_matches_channels_first_oracles(rng, rank, k, lead):
    spatial = (3, 4, 5)[-rank:]
    x = rng.standard_normal(lead + (2,) + spatial)
    w = rng.standard_normal((3, 2) + (k,) * rank)
    oracle = conv2d_loops if rank == 2 else conv3d_loops
    want = np.stack([oracle(item, w) for item in x.reshape((-1, 2) + spatial)])
    want = np.moveaxis(want, 1, -1).reshape(lead + spatial + (3,))
    got = conv(Tensor(np.moveaxis(x, len(lead), -1)), Parameter(w, name="w")).data
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_conv_rejects_bad_shapes(rng):
    x = Tensor(rng.random((3, 4, 4, 2)))
    with pytest.raises(ValueError, match="odd"):
        conv(x, Parameter(np.zeros((1, 2, 2, 2, 2)), name="w"))     # even kernel
    with pytest.raises(ValueError, match="odd"):
        conv(x, Parameter(np.zeros((1, 2, 3, 3, 1)), name="w"))     # not cubic
    with pytest.raises(ValueError, match="odd"):
        conv(x, Parameter(np.zeros((1, 2)), name="w"))              # no spatial axis
    with pytest.raises(ValueError, match="channel"):
        conv(x, Parameter(np.zeros((1, 3, 3, 3, 3)), name="w"))
    with pytest.raises(ValueError, match="spatial"):
        conv(Tensor(rng.random((4, 2))), Parameter(np.zeros((1, 2, 3, 3)), name="w"))
    with pytest.raises(ValueError, match="spatial"):
        conv(Tensor(rng.random((4, 4, 2))), Parameter(np.zeros((1, 2, 3, 3, 3)), name="w"))


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("tau", [1, 2, 3, 6])
def test_folded_conv3d_matches_the_loop_oracle_and_its_adjoint(rng, tau, k, lead):
    # the taps along tau are stacked as output channels; with tau < k some of
    # them fall wholly outside the input and must add nothing
    x = rng.standard_normal(lead + (2, tau, 3, 4))
    w = rng.standard_normal((3, 2, k, k, k))
    d = rng.standard_normal(lead + (3, tau, 3, 4))
    xt, wt = Parameter(np.moveaxis(x, len(lead), -1), name="x"), Parameter(w, name="w")
    y = conv(xt, wt)
    (y * Tensor(np.moveaxis(d, len(lead), -1))).sum().backward()
    items = list(zip(x.reshape((-1,) + x.shape[len(lead):]), d.reshape((-1,) + d.shape[len(lead):])))
    want_y = np.stack([conv3d_loops(xi, w) for xi, _ in items]).reshape(d.shape)
    adjoints = [conv3d_loops_adjoint(xi, w, di) for xi, di in items]
    want_dx = np.stack([dx for dx, _ in adjoints]).reshape(x.shape)
    np.testing.assert_allclose(y.data, np.moveaxis(want_y, len(lead), -1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(xt.grad, np.moveaxis(want_dx, len(lead), -1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(wt.grad, sum(dw for _, dw in adjoints), rtol=1e-12, atol=1e-12)


def test_conv3d_runs_only_2d_correlations(rng, monkeypatch):
    # forward and data gradient each run one 2-d im2col, the taps along the
    # first axis stacked as output channels
    inner, kernels = ops._corr_same, []
    monkeypatch.setattr(ops, "_corr_same", lambda x, w: kernels.append(w.shape) or inner(x, w))
    x = Parameter(rng.standard_normal((4, 5, 5, 2)), name="x")
    conv(x, Parameter(rng.standard_normal((3, 2, 3, 3, 3)), name="w")).sum().backward()
    assert kernels == [(9, 2, 3, 3), (6, 3, 3, 3)]


def test_conv3d_delta_kernel_identity(rng):
    x = rng.random((3, 4, 4, 1))
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0
    y = conv(Tensor(x), Parameter(w, name="w"))
    assert np.array_equal(y.data, x)


def test_conv3d_ones_center_value():
    # 3x3 spatial times the 2 frames that fall inside the padded support
    x = np.ones((2, 3, 3, 1))
    w = Parameter(np.ones((1, 1, 3, 3, 3)), name="w")
    y = conv(Tensor(x), w).data
    assert y[0, 1, 1, 0] == 18.0
    assert y[1, 1, 1, 0] == 18.0


def test_conv3d_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    y = conv(Tensor(last(x)), Parameter(w, name="w"))
    assert np.allclose(y.data, last(conv3d_loops(x, w)), atol=1e-12)


def test_conv3d_preserves_extent_tau1(rng):
    y = conv(Tensor(rng.random((1, 4, 4, 1))), Parameter(rng.random((2, 1, 3, 3, 3)), name="w"))
    assert y.data.shape == (1, 4, 4, 2)


def test_conv_gradients(rng):
    x = Parameter(rng.standard_normal((2, 4, 4, 2)), name="x")
    w = Parameter(rng.standard_normal((2, 2, 3, 3)), name="w")
    x3 = Parameter(rng.standard_normal((3, 4, 4, 2)), name="x3")
    w3 = Parameter(rng.standard_normal((2, 2, 3, 3, 3)), name="w3")
    d2 = rng.standard_normal((2, 4, 4, 2))
    d3 = rng.standard_normal((3, 4, 4, 2))

    def loss():
        return (conv(x, w) * Tensor(d2)).sum() + (conv(x3, w3) * Tensor(d3)).sum()

    assert grad_check(loss, [x, w, x3, w3]).passed


def pool_loops(x, window, stride, mode):
    """Reference pooling of channels-first x (C, *S): one loop iteration per output cell."""
    cells = tuple((n - window) // stride + 1 for n in x.shape[1:])
    y = np.zeros(x.shape[:1] + cells)
    for c in range(x.shape[0]):
        for j in np.ndindex(cells):
            win = x[(c,) + tuple(slice(stride * i, stride * i + window) for i in j)]
            y[(c,) + j] = win.max() if mode == "max" else win.mean()
    return y


def pool_scatter_grad(x, g, window, stride, r, mode):
    """The input gradient of pool by one np.add.at scatter over output cells in scan order."""
    index, values = [], []
    offsets = list(np.ndindex((window,) * r))
    for cell in np.ndindex(g.shape):
        lead, j, c = cell[:-r - 1], cell[-r - 1:-1], cell[-1]
        src = [lead + tuple(stride * i + o for i, o in zip(j, off)) + (c,) for off in offsets]
        if mode == "max":
            first = int(np.argmax([x[s] for s in src]))
            index.append(src[first])
            values.append(g[cell])
        else:
            index.extend(src)
            values.extend([g[cell] / window ** r] * len(src))
    gx = np.zeros(x.shape)
    np.add.at(gx, tuple(np.array(index).T), np.array(values))
    return gx


def test_conv_array_input_is_a_constant(rng):
    x = rng.standard_normal((2, 4, 4, 2))
    w = Parameter(rng.standard_normal((3, 2, 3, 3)), name="w")
    d = Tensor(rng.standard_normal((2, 4, 4, 3)))
    want = conv(Tensor(x), w)
    (want * d).sum().backward()
    want_dw = w.grad.copy()
    w.grad[...] = 0.0
    y = conv(x, w)
    assert y._parents == (w,)
    (y * d).sum().backward()
    assert np.array_equal(y.data, want.data) and np.array_equal(w.grad, want_dw)


def test_maxpool2d_values():
    y = pool(Tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]])), 2, 2, 2)
    assert y.data.shape == (1, 1, 1) and y.data[0, 0, 0] == 4.0
    c = pool(Tensor(np.full((6, 6, 3), 7.0)), 2, 2, 2)
    assert c.data.shape == (3, 3, 3) and np.all(c.data == 7.0)


def test_maxpool2d_shape_arithmetic(rng):
    assert pool(Tensor(rng.random((50, 50, 1))), 2, 2, 2).data.shape == (25, 25, 1)
    assert pool(Tensor(rng.random((3, 3, 1))), 2, 1, 2).data.shape == (2, 2, 1)
    assert pool(Tensor(rng.random((2, 3, 6, 6, 4))), 2, 2, 2).data.shape == (2, 3, 3, 3, 4)
    with pytest.raises(ValueError, match="exceeds"):
        pool(Tensor(rng.random((3, 3, 1))), 4, 1, 2)
    with pytest.raises(ValueError, match="exceeds"):
        pool(Tensor(rng.random((6, 3, 1))), 4, 1, 2)
    with pytest.raises(ValueError, match="axes"):
        pool(Tensor(rng.random((3, 3))), 2, 1, 2)


def test_maxpool2d_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 7, 5))
    y = pool(Tensor(last(x)), 2, 2, 2).data
    for c in range(2):
        for i in range(3):
            for j in range(2):
                assert y[i, j, c] == x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()


def test_maxpool2d_tie_gradient_goes_first():
    x = Parameter(np.full((2, 2, 1), 5.0), name="x")
    pool(x, 2, 2, 2).sum().backward()
    assert np.array_equal(x.grad[..., 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool2d_gradient(rng):
    x = Parameter(rng.standard_normal((2, 6, 6, 2)), name="x")
    d = rng.standard_normal((2, 3, 3, 2))
    d1 = rng.standard_normal((2, 5, 5, 2))

    def loss():
        return (pool(x, 2, 2, 2) * Tensor(d)).sum() + (pool(x, 2, 1, 2) * Tensor(d1)).sum()

    assert grad_check(loss, [x]).passed


POOL_SHAPES = [(2, 2), (2, 1), (3, 1), (4, 3)]


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("window,stride", POOL_SHAPES)
@pytest.mark.parametrize("r", [1, 2])
def test_pool_matches_channels_first_oracles(rng, r, window, stride, mode, lead):
    spatial = (9, 7)[-r:]
    x = rng.standard_normal(lead + (3,) + spatial)
    want = np.stack([pool_loops(item, window, stride, mode) for item in x.reshape((-1, 3) + spatial)])
    want = np.moveaxis(want, 1, -1).reshape(lead + want.shape[2:] + (3,))
    got = pool(Tensor(np.moveaxis(x, len(lead), -1)), window, stride, r, mode).data
    assert got.shape == want.shape
    if mode == "max":
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def maxpool_argmax(x, window, stride, r):
    """Max-pool as argmax over copied windows and take_along_axis: the formula the running maximum replaced."""
    win = ops._windows(x, r, window, stride)
    cells = win.shape[:-r - 1]
    flat = np.moveaxis(win, -1, len(cells)).reshape(cells + (x.shape[-1], window ** r))
    return np.take_along_axis(flat, np.argmax(flat, axis=-1)[..., None], axis=-1)[..., 0]


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("window,stride", POOL_SHAPES)
@pytest.mark.parametrize("r", [1, 2])
def test_maxpool_matches_the_argmax_formula_bit_for_bit(rng, r, window, stride, lead):
    # few distinct values force ties; (2, 1), (3, 1) and (4, 3) overlap their windows
    x = rng.integers(-2, 3, lead + (9, 8)[-r:] + (3,)).astype(np.float64)
    got = pool(Tensor(x), window, stride, r).data
    want = maxpool_argmax(x, window, stride, r)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("window,stride", POOL_SHAPES + [(1, 1), (3, 3), (4, 4)])
@pytest.mark.parametrize("r", [1, 2])
def test_pool_gradient_matches_scatter_bit_for_bit(rng, r, window, stride, mode):
    # few distinct values force max ties; overlapping windows give a cell several addends,
    # stride = window tiles the input, and a routed -0.0 must come out as the +0.0 of a
    # sum into a zeroed buffer
    x = rng.integers(0, 3, (2,) + (12, 12)[-r:] + (2,)).astype(np.float64)
    t = Parameter(x, name="x")
    y = pool(t, window, stride, r, mode)
    g = rng.standard_normal(y.shape)
    g[g < -0.5] = -0.0
    (y * Tensor(g)).sum().backward()
    want = pool_scatter_grad(x, g, window, stride, r, mode)
    assert np.array_equal(t.grad.view(np.int64), want.view(np.int64))


def test_pool1d_examples():
    v = Tensor(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])[:, None])
    assert np.array_equal(pool(v, 4, 4, 1, "max").data[:, 0], [4.0, 9.0])
    assert np.array_equal(pool(v, 4, 4, 1, "avg").data[:, 0], [2.25, 5.5])


def test_pool1d_glyph_width(rng):
    assert pool(Tensor(rng.random((7, 256, 1))), 4, 4, 1).data.shape == (7, 64, 1)


def test_pool1d_rejects(rng):
    with pytest.raises(ValueError, match="exceeds"):
        pool(Tensor(rng.random((3, 1))), 4, 4, 1)
    with pytest.raises(ValueError, match="mode"):
        pool(Tensor(rng.random((8, 1))), 2, 2, 1, "median")
    with pytest.raises(ValueError, match="axes"):
        pool(Tensor(rng.random((8, 1))), 2, 2, 0)
    with pytest.raises(ValueError, match="axes"):
        pool(Tensor(rng.random(8)), 2, 2, 1)
    with pytest.raises(ValueError, match="positive"):
        pool(Tensor(rng.random((8, 1))), 2, 0, 1)


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=8, max_size=8))
def test_pool1d_max_dominates_avg(xs):
    v = Tensor(np.array(xs)[:, None])
    assert np.all(pool(v, 4, 4, 1, "max").data >= pool(v, 4, 4, 1, "avg").data - 1e-12)


def test_pool1d_gradients(rng):
    x = Parameter(rng.standard_normal((12, 1)), name="x")
    d = rng.standard_normal((3, 1))

    def loss():
        return (pool(x, 4, 4, 1, "max") * Tensor(d)).sum() + (pool(x, 4, 4, 1, "avg") * Tensor(d)).sum()

    assert grad_check(loss, [x]).passed



def test_pool_full_axis_first_tie():
    # one window spanning the rows: the max down each column, as fusion's max_pool takes it
    m = Parameter(np.array([[1.0, 5.0], [1.0, 2.0]]), name="m")
    y = pool(m, 2, 1, 1)
    assert np.array_equal(y.data, [[1.0, 5.0]])
    y.sum().backward()
    # the tie in column 0 routes to row 0
    assert np.array_equal(m.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_pool_full_axis_reduces_each_trailing_matrix(rng):
    stack = Parameter(rng.standard_normal((3, 4, 2)), name="stack")
    y = pool(stack, 4, 1, 1)
    assert y.shape == (3, 1, 2)
    np.testing.assert_array_equal(y.data[:, 0], stack.data.max(axis=-2))
    for i in range(3):
        np.testing.assert_array_equal(y.data[i], pool(Tensor(stack.data[i]), 4, 1, 1).data)
    d = rng.standard_normal((3, 1, 2))

    def loss():
        return (pool(stack, 4, 1, 1) * Tensor(d)).sum()

    assert grad_check(loss, [stack]).passed

def test_dropout_identity_paths(rng):
    x = Tensor(rng.random(20))
    assert dropout(x, 0.5, rng=None) is x
    assert dropout(x, 0.0, rng=rng) is x


def test_dropout_mask_reproducible(rng):
    x = Tensor(np.ones(100))
    a = dropout(x, 0.4, rng=np.random.default_rng(3)).data
    b = dropout(x, 0.4, rng=np.random.default_rng(3)).data
    assert np.array_equal(a, b)
    survivors = a[a != 0]
    assert survivors == pytest.approx(np.full(survivors.shape, 1.0 / 0.6))


def test_dropout_rejects_bad_rate(rng):
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 1.0, rng=rng)


def test_lstm_zero_params_zero_state():
    cell = LstmCellParams(
        input_weight=Parameter(np.zeros((8, 3)), name="w"),
        hidden_weight=Parameter(np.zeros((8, 2)), name="u"),
        bias=Parameter(np.zeros(8), name="b"),
    )
    h, c = lstm_step(Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), cell)
    assert not h.data.any() and not c.data.any()


def test_lstm_saturated_forget_gate_keeps_cell(rng):
    d_in, d_h = 3, 4
    cell = init_lstm_params(d_in, d_h, rng, prefix="cell")
    cell.input_weight.data[:] = 0.0
    cell.hidden_weight.data[:] = 0.0
    cell.bias.data[:] = 0.0
    cell.bias.data[d_h:2 * d_h] = 20.0   # forget gate wide open
    c_prev = Tensor(rng.standard_normal(d_h))
    _, c = lstm_step(Tensor(rng.standard_normal(d_in)), Tensor(np.zeros(d_h)), c_prev, cell)
    assert np.allclose(c.data, c_prev.data, atol=1e-6)


def test_lstm_gradient(rng):
    cell = init_lstm_params(3, 4, rng, prefix="cell")
    x = Parameter(rng.standard_normal(3), name="x")
    d = rng.standard_normal(4)

    def loss():
        h, c = lstm_step(x, Tensor(np.zeros(4)), Tensor(np.zeros(4)), cell)
        return (h * Tensor(d)).sum() + (c * Tensor(d)).sum()

    assert grad_check(loss, [x] + cell.parameters(), eps=1e-5, tolerance=1e-4).passed


def lstm_then_weight(rng):
    """An LSTM cell and a (4, 2) weight it feeds through matmul, with an Adam state for their Parameters."""
    cell = init_lstm_params(3, 4, rng, prefix="cell")
    w = Parameter(rng.standard_normal((4, 2)), name="w")
    params = cell.parameters() + [w]
    return cell, w, params, AdamState(params)


def sentences_loss(cell, w, sentences):
    """Over each (x, d): matmul of the LSTM states and of the first state with w, weighted by d."""
    total = 0.0
    for x, d in sentences:
        h = lstm_sequence(Tensor(x), cell)
        total = total + (matmul(h, w) * d).sum() + (matmul(h[0], w) * d[0]).sum()
    return total


def test_weight_gradients_land_in_the_buffers_adam_hands_back(rng):
    cell, w, params, state = lstm_then_weight(rng)
    sentence = [(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))]
    sentences_loss(cell, w, sentence).backward()
    buffers = [p.grad for p in params]
    adam_step(params, state)
    assert all(p.grad is None for p in params)
    sentences_loss(cell, w, sentence).backward()
    for p, buffer in zip(params, buffers):
        assert p.grad is buffer, p.name
    assert cell.input_weight.grad.any() and cell.hidden_weight.grad.any() and w.grad.any()


def test_second_gradient_adds_to_the_bits_of_product_then_add(rng, monkeypatch):
    # each step's loss sums two sentences, so every weight's second gradient adds to its
    # first; a one-row sentence gives the hidden weight an empty product
    data = [[(rng.standard_normal((tau, 3)), rng.standard_normal((tau, 2))) for tau in taus]
            for taus in ((5, 1), (1, 6), (4, 3))]
    states = []
    for old_path in (True, False):
        if old_path:
            monkeypatch.setattr(Tensor, "accumulate_product", lambda self, a, b: self.accumulate(a @ b))
        cell, w, params, state = lstm_then_weight(np.random.default_rng(7))
        grads = []
        for sentences in data:
            sentences_loss(cell, w, sentences).backward()
            assert old_path or not grads or all(p.grad is g for p, g in zip(params, handed))
            grads.append([p.grad.copy() for p in params])
            handed = [p.grad for p in params]
            adam_step(params, state)
        states.append((grads, [p.data for p in params] + state.m + state.v))
        monkeypatch.undo()
    (old_grads, old_arrays), (new_grads, new_arrays) = states
    for a, b in zip(sum(old_grads, []) + old_arrays, sum(new_grads, []) + new_arrays):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_conv2d_oracle_randomized(seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((2, 4, 4))
    w = r.standard_normal((2, 2, 3, 3))
    got = conv(Tensor(last(x)), Parameter(w, name="w")).data
    assert np.allclose(got, last(conv2d_loops(x, w)), atol=1e-11)
