import numpy as np
import pytest

from fgn.gradcheck import grad_check
from fgn.ops import conv, pool
from fgn.tensor import Parameter, Tensor, sigmoid


def test_sigmoid_sum_tight(rng):
    x = Parameter(rng.standard_normal(8), name="x")
    report = grad_check(lambda: sigmoid(x).sum(), [x])
    assert report.max_rel_error < 1e-6


def test_conv3d_pool1d_stack(rng):
    x = Parameter(rng.standard_normal((2, 4, 4, 1)), name="x")
    w = Parameter(rng.standard_normal((2, 1, 3, 3, 3)) * 0.3, name="w")
    d = rng.standard_normal(16)

    def loss():
        y = conv(x, w)
        v = y.reshape((2 * 2 * 4 * 4, 1))
        return (pool(v, 4, 4, 1, "max") * Tensor(d[:, None])).sum()

    report = grad_check(loss, [x, w])
    assert report.max_rel_error < 1e-4


def test_non_scalar_loss_rejected(rng):
    x = Parameter(rng.standard_normal(3), name="x")
    with pytest.raises(ValueError):
        grad_check(lambda: sigmoid(x), [x])


def test_wrong_gradient_is_caught(rng):
    # sabotage: an op whose backward is off by a factor of two must fail
    x = Parameter(rng.standard_normal(4), name="x")

    def doubled_sum():
        out = Tensor(x.data.sum(), (x,))
        out._backward = lambda g, a=x: a.accumulate(2.0 * np.broadcast_to(g, a.data.shape))
        return out

    report = grad_check(doubled_sum, [x])
    assert not report.passed
    worst = report.worst()
    assert worst is not None and worst.name == "x"


def test_coordinate_sampling_bounds_work(rng):
    x = Parameter(rng.standard_normal(50), name="x")
    report = grad_check(lambda: sigmoid(x).sum(), [x],
                        rng=np.random.default_rng(0), max_coords_per_param=5)
    assert report.passed
    assert report.entries[0].coords_checked == 5
