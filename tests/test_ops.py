"""Layer ops against hand arithmetic and brute-force loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgn.gradcheck import grad_check
from fgn.ops import (LstmCellParams, conv2d, conv3d, dropout,
                     init_lstm_params, lstm_step, maxpool2d, pool1d)
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


def test_conv2d_delta_kernel_identity(rng):
    x = rng.random((1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = conv2d(Tensor(x), Parameter(w, name="w"))
    assert np.array_equal(y.data, x)


def test_conv2d_zero_kernel(rng):
    y = conv2d(Tensor(rng.random((2, 4, 4))), Parameter(np.zeros((3, 2, 3, 3)), name="w"))
    assert not y.data.any()


def test_conv2d_ones_on_ones():
    y = conv2d(Tensor(np.ones((1, 3, 3))), Parameter(np.ones((1, 1, 3, 3)), name="w")).data[0]
    # padded support: 4 cells reach a corner, all 9 reach the center
    assert y[0, 0] == 4.0 and y[1, 1] == 9.0
    assert y[0, 1] == 6.0


def test_conv2d_matches_loop_oracle(rng):
    x = rng.standard_normal((3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    y = conv2d(Tensor(x), Parameter(w, name="w"))
    assert np.allclose(y.data, conv2d_loops(x, w), atol=1e-12)


def test_conv2d_batched_matches_per_item(rng):
    x = rng.standard_normal((4, 2, 5, 5))
    w = Parameter(rng.standard_normal((3, 2, 3, 3)), name="w")
    yb = conv2d(Tensor(x), w).data
    for i in range(4):
        assert np.allclose(yb[i], conv2d(Tensor(x[i]), w).data, atol=1e-14)


def test_conv2d_rejects_bad_shapes(rng):
    with pytest.raises(ValueError):
        conv2d(Tensor(rng.random((2, 4, 4))), Parameter(np.zeros((1, 3, 3, 3)), name="w"))
    with pytest.raises(ValueError):
        conv2d(Tensor(rng.random((1, 4, 4))), Parameter(np.zeros((1, 1, 2, 2)), name="w"))


def test_conv3d_delta_kernel_identity(rng):
    x = rng.random((1, 3, 4, 4))
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0
    y = conv3d(Tensor(x), Parameter(w, name="w"))
    assert np.array_equal(y.data, x)


def test_conv3d_ones_center_value():
    # 3x3 spatial times the 2 frames that fall inside the padded support
    x = np.ones((1, 2, 3, 3))
    w = Parameter(np.ones((1, 1, 3, 3, 3)), name="w")
    y = conv3d(Tensor(x), w).data
    assert y[0, 0, 1, 1] == 18.0
    assert y[0, 1, 1, 1] == 18.0


def test_conv3d_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    y = conv3d(Tensor(x), Parameter(w, name="w"))
    assert np.allclose(y.data, conv3d_loops(x, w), atol=1e-12)


def test_conv3d_preserves_extent_tau1(rng):
    y = conv3d(Tensor(rng.random((1, 1, 4, 4))), Parameter(rng.random((2, 1, 3, 3, 3)), name="w"))
    assert y.data.shape == (2, 1, 4, 4)


def test_conv_gradients(rng):
    x = Parameter(rng.standard_normal((2, 2, 4, 4)), name="x")
    w = Parameter(rng.standard_normal((2, 2, 3, 3)), name="w")
    x3 = Parameter(rng.standard_normal((2, 3, 4, 4)), name="x3")
    w3 = Parameter(rng.standard_normal((2, 2, 3, 3, 3)), name="w3")
    d2 = rng.standard_normal((2, 2, 4, 4))
    d3 = rng.standard_normal((2, 3, 4, 4))

    def loss():
        return (conv2d(x, w) * Tensor(d2)).sum() + (conv3d(x3, w3) * Tensor(d3)).sum()

    assert grad_check(loss, [x, w, x3, w3]).passed


def test_maxpool2d_values():
    y = maxpool2d(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])), 2, 2)
    assert y.data.shape == (1, 1, 1) and y.data[0, 0, 0] == 4.0
    c = maxpool2d(Tensor(np.full((3, 6, 6), 7.0)), 2, 2)
    assert np.all(c.data == 7.0)


def test_maxpool2d_shape_arithmetic(rng):
    assert maxpool2d(Tensor(rng.random((1, 50, 50))), 2, 2).data.shape == (1, 25, 25)
    assert maxpool2d(Tensor(rng.random((1, 3, 3))), 2, 1).data.shape == (1, 2, 2)
    with pytest.raises(ValueError):
        maxpool2d(Tensor(rng.random((1, 3, 3))), 4, 1)


def test_maxpool2d_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 7, 5))
    y = maxpool2d(Tensor(x), 2, 2).data
    for c in range(2):
        for i in range(3):
            for j in range(2):
                assert y[c, i, j] == x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()


def test_maxpool2d_tie_gradient_goes_first():
    x = Parameter(np.array([[[5.0, 5.0], [5.0, 5.0]]]), name="x")
    maxpool2d(x, 2, 2).sum().backward()
    assert np.array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])


def test_maxpool2d_gradient(rng):
    x = Parameter(rng.standard_normal((2, 2, 6, 6)), name="x")
    d = rng.standard_normal((2, 2, 3, 3))

    def loss():
        return (maxpool2d(x, 2, 2) * Tensor(d)).sum()

    assert grad_check(loss, [x]).passed


def test_pool1d_examples():
    v = Tensor(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]))
    assert np.array_equal(pool1d(v, 4, 4, "max").data, [4.0, 9.0])
    assert np.array_equal(pool1d(v, 4, 4, "avg").data, [2.25, 5.5])


def test_pool1d_glyph_width(rng):
    assert pool1d(Tensor(rng.random(256)), 4, 4).data.shape == (64,)


def test_pool1d_rejects(rng):
    with pytest.raises(ValueError):
        pool1d(Tensor(rng.random(3)), 4, 4)
    with pytest.raises(ValueError):
        pool1d(Tensor(rng.random(8)), 2, 2, "median")


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=8, max_size=8))
def test_pool1d_max_dominates_avg(xs):
    v = Tensor(np.array(xs))
    assert np.all(pool1d(v, 4, 4, "max").data >= pool1d(v, 4, 4, "avg").data - 1e-12)


def test_pool1d_gradients(rng):
    x = Parameter(rng.standard_normal(12), name="x")
    d = rng.standard_normal(3)

    def loss():
        return (pool1d(x, 4, 4, "max") * Tensor(d)).sum() + (pool1d(x, 4, 4, "avg") * Tensor(d)).sum()

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
    got = conv2d(Tensor(x), Parameter(w, name="w")).data
    assert np.allclose(got, conv2d_loops(x, w), atol=1e-11)
