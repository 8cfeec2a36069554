import numpy as np
import pytest

from fgn.optim import BETA1, BETA2, EPS, AdamState, adam_step, restore, snapshot, zero_grads
from fgn.tensor import Parameter


def make_param(rng, shape=(4,), name="p"):
    return Parameter(rng.standard_normal(shape), name=name)


def test_zero_gradient_leaves_param(rng):
    p = make_param(rng)
    before = p.data.copy()
    adam_step([p], AdamState([p]))
    assert np.array_equal(p.data, before)


def test_first_step_magnitude_is_learning_rate(rng):
    # with bias correction, step one moves each coordinate by almost exactly
    # lr * sign(g), independent of the gradient's scale as long as |g| >> eps
    for scale in (1e-3, 1.0, 1e4):
        p = make_param(rng, shape=(5,))
        g = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5) * scale
        state = AdamState([p], learning_rate=0.002)
        p.grad[:] = g
        before = p.data.copy()
        adam_step([p], state)
        step = p.data - before
        assert np.allclose(np.abs(step), 0.002, rtol=1e-4)
        assert np.array_equal(np.sign(step), -np.sign(g))


def test_zero_gradient_steps_are_exact_no_ops(rng):
    # a Parameter that no loss reaches, such as a frozen table, keeps a zero
    # gradient: over many steps its moments stay 0 and its value does not move,
    # while a Parameter beside it trains
    still = make_param(rng, shape=(3, 4), name="still")
    still.data[0, 0] = -0.0
    live = make_param(rng, name="live")
    before = still.data.copy()
    live_before = live.data.copy()
    state = AdamState([still, live], learning_rate=0.1)
    for _ in range(20):
        live.grad[:] = rng.standard_normal(live.shape)
        adam_step([still, live], state)
        assert np.array_equal(still.data.view(np.int64), before.view(np.int64))
        assert not state.m[0].any() and not state.v[0].any()
        assert not still.grad.any()
    assert not np.array_equal(live.data, live_before)


def test_grads_zeroed_after_step(rng):
    p = make_param(rng)
    state = AdamState([p])
    p.grad[:] = 3.0
    adam_step([p], state)
    assert not p.grad.any()


def test_state_gives_missing_gradients_and_keeps_present_ones(rng):
    # a Parameter has no gradient until one reaches it; the optimizer gives a zero
    # buffer to each that has none and keeps one that exists, bit for bit
    fresh, held = make_param(rng, shape=(3, 2), name="fresh"), make_param(rng, name="held")
    assert fresh.grad is None and held.grad is None
    g = rng.standard_normal(held.shape)
    g[0] = -0.0
    held.grad = g
    bits = g.copy().view(np.int64)
    AdamState([fresh, held])
    assert fresh.grad.shape == (3, 2) and fresh.grad.dtype == np.float64 and not fresh.grad.any()
    assert held.grad is g and np.array_equal(held.grad.view(np.int64), bits)


def test_repeated_steps_converge_quadratic(rng):
    # minimize (x - 1)^2 to sanity-check the moment updates over many steps
    p = Parameter(np.array([8.0]), name="x")
    state = AdamState([p], learning_rate=0.1)
    for _ in range(500):
        p.grad[:] = 2.0 * (p.data - 1.0)
        adam_step([p], state)
    assert p.data[0] == pytest.approx(1.0, abs=1e-3)


def reference_adam_step(params, state):
    """Adam written as whole-array expressions, the form adam_step must reproduce bit for bit."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p.grad[...] = 0.0


def test_matches_reference_bit_for_bit(rng):
    # small, multi-block, one row wider than a block, and scalar parameters; one never sees a gradient
    shapes = [(3, 5), (7,), (2, 3, 4), (300, 250), (2, 40000), ()]
    fast = [make_param(rng, s, name="p%d" % i) for i, s in enumerate(shapes)]
    ref = [Parameter(p.data.copy(), name=p.name) for p in fast]
    fast_state = AdamState(fast, learning_rate=0.01)
    ref_state = AdamState(ref, learning_rate=0.01)
    for _ in range(6):
        for i, (a, b) in enumerate(zip(fast, ref)):
            g = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-4, 4) * (i != 1)
            a.grad[...] = g
            b.grad[...] = g
        adam_step(fast, fast_state)
        reference_adam_step(ref, ref_state)
        for a, b, ma, mb, va, vb in zip(fast, ref, fast_state.m, ref_state.m,
                                        fast_state.v, ref_state.v):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(ma, mb)
            assert np.array_equal(va, vb)
            assert not a.grad.any()


def test_state_length_mismatch(rng):
    p, q = make_param(rng), make_param(rng, name="q")
    with pytest.raises(ValueError):
        adam_step([p, q], AdamState([p]))


def test_snapshot_restore_roundtrip(rng):
    p = make_param(rng)
    saved = snapshot([p])
    p.data[:] = 0.0
    restore([p], saved)
    assert np.array_equal(p.data, saved[p.name])
    zero_grads([p])
    assert not p.grad.any()
