"""Layer ops against hand arithmetic and brute-force loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgn.gradcheck import grad_check
from fgn.ops import LstmCellParams, conv, dropout, init_lstm_params, lstm_step, pool
from fgn.tensor import Parameter, Tensor


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


@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("window,stride", POOL_SHAPES)
@pytest.mark.parametrize("r", [1, 2])
def test_pool_gradient_matches_scatter_bit_for_bit(rng, r, window, stride, mode):
    # few distinct values force max ties; overlapping windows give a cell several addends
    x = rng.integers(0, 3, (2,) + (9, 8)[-r:] + (2,)).astype(np.float64)
    t = Parameter(x, name="x")
    y = pool(t, window, stride, r, mode)
    g = rng.standard_normal(y.shape)
    (y * Tensor(g)).sum().backward()
    assert np.array_equal(t.grad, pool_scatter_grad(x, g, window, stride, r, mode))


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


def test_dropout_identity_paths(rng):
    x = Tensor(rng.random(20))
    assert dropout(x, 0.5, training=False, rng=None) is x
    assert dropout(x, 0.0, training=True, rng=rng) is x


def test_dropout_mask_reproducible(rng):
    x = Tensor(np.ones(100))
    a = dropout(x, 0.4, training=True, rng=np.random.default_rng(3)).data
    b = dropout(x, 0.4, training=True, rng=np.random.default_rng(3)).data
    assert np.array_equal(a, b)
    survivors = a[a != 0]
    assert survivors == pytest.approx(np.full(survivors.shape, 1.0 / 0.6))


def test_dropout_rejects_bad_rate(rng):
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 1.0, training=True, rng=rng)


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


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_conv2d_oracle_randomized(seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((2, 4, 4))
    w = r.standard_normal((2, 2, 3, 3))
    got = conv(Tensor(last(x)), Parameter(w, name="w")).data
    assert np.allclose(got, last(conv2d_loops(x, w)), atol=1e-11)
