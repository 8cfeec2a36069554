import sys
import threading

import numpy as np
import pytest

import fgn.optim as optim
import fgn.tensor as tensor_module
from fgn.optim import BETA1, BETA2, EPS, AdamState, adam_step, restore, snapshot, zero_grads
from fgn.tensor import Parameter, _openblas_threads

# adam_step threads only where it can stop OpenBLAS's workers
THREADS_RUN = _openblas_threads() is not None and _openblas_threads()[2] is not None


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
    # a Parameter that no loss reaches, such as a frozen table, has its zero buffer
    # from AdamState, then no gradient: over many steps its moments stay 0 and its
    # value does not move, while a Parameter beside it trains
    still = make_param(rng, shape=(3, 4), name="still")
    still.data[0, 0] = -0.0
    live = make_param(rng, name="live")
    before = still.data.copy()
    live_before = live.data.copy()
    state = AdamState([still, live], learning_rate=0.1)
    for _ in range(20):
        live.accumulate(rng.standard_normal(live.shape))
        adam_step([still, live], state)
        assert np.array_equal(still.data.view(np.int64), before.view(np.int64))
        assert not state.m[0].any() and not state.v[0].any()
        assert still.grad is None
    assert not np.array_equal(live.data, live_before)


def test_no_gradient_after_a_step(rng):
    # Adam hands the buffer it read back, and the next first gradient is written into it
    p = make_param(rng)
    state = AdamState([p])
    p.grad[:] = 3.0
    buffer = p.grad
    adam_step([p], state)
    assert p.grad is None
    p.accumulate(np.arange(4.0))
    assert p.grad is buffer and np.array_equal(p.grad, np.arange(4.0))
    p.accumulate(np.ones(4))
    assert p.grad is buffer and np.array_equal(p.grad, np.arange(4.0) + 1.0)


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
        p.accumulate(2.0 * (p.data - 1.0))
        adam_step([p], state)
    assert p.data[0] == pytest.approx(1.0, abs=1e-3)


def reference_adam_step(params, state):
    """Adam written as whole-array expressions, the form adam_step must reproduce bit for bit."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, m, v in zip(params, state.m, state.v):
        g = np.zeros(p.shape) if p.grad is None else p.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p.grad = None


def test_matches_reference_bit_for_bit(rng):
    # small, multi-block, one row wider than a block, and scalar parameters; p1 never sees a
    # gradient, so after its first step it has none, where the reference reads a zero array
    shapes = [(3, 5), (7,), (2, 3, 4), (300, 250), (2, 40000), ()]
    fast = [make_param(rng, s, name="p%d" % i) for i, s in enumerate(shapes)]
    ref = [Parameter(p.data.copy(), name=p.name) for p in fast]
    fast_state = AdamState(fast, learning_rate=0.01)
    ref_state = AdamState(ref, learning_rate=0.01)
    for _ in range(6):
        for i, (a, b) in enumerate(zip(fast, ref)):
            if i != 1:
                g = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-4, 4)
                a.accumulate(g)
                b.grad = g.copy()
        adam_step(fast, fast_state)
        reference_adam_step(ref, ref_state)
        for a, b, ma, mb, va, vb in zip(fast, ref, fast_state.m, ref_state.m,
                                        fast_state.v, ref_state.v):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(ma, mb)
            assert np.array_equal(va, vb)
            assert a.grad is None


def test_state_length_mismatch(rng):
    p, q = make_param(rng), make_param(rng, name="q")
    with pytest.raises(ValueError):
        adam_step([p, q], AdamState([p]))


@pytest.mark.parametrize("wrong", ["grad", "m", "v", "no grad"])
def test_shape_mismatch_raises_before_anything_changes(rng, wrong):
    # the last parameter is the bad one, so a check made as the update goes would
    # already have moved the first two
    params = [make_param(rng, shape, name) for shape, name in (((3, 4), "a"), ((5,), "b"), ((2, 3), "c"))]
    state = AdamState(params)
    for p in params:
        p.grad[...] = rng.standard_normal(p.shape)
    if wrong == "grad":
        params[2].grad = np.ones((3, 2))
    elif wrong == "no grad":
        params[2].grad = None
    else:
        getattr(state, wrong)[2] = np.zeros((6,))
    arrays = [p.data for p in params] + [p.grad for p in params[:2]] + state.m + state.v
    before = [a.copy() for a in arrays]
    if wrong == "no grad":
        # no mismatch: a missing gradient reads as zero, so c, whose m and v are 0, stays put
        adam_step(params, state)
        assert state.step_count == 1 and params[2].grad is None
        assert np.array_equal(params[2].data.view(np.int64), before[2].view(np.int64))
        assert not np.array_equal(params[0].data, before[0])
        return
    with pytest.raises(ValueError, match=r"parameter 2 \(c\)"):
        adam_step(params, state)
    assert state.step_count == 0
    for a, b in zip(arrays, before):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


update = optim._update
# every shape the blocks meet: 0-d, one row, odd row counts, a row wider than a block
THREAD_SHAPES = [(), (1, 7), (5, 3), (7,), (3, 5, 2), (13, 11), (2, 21)]


def twin_params(rng):
    first = [make_param(rng, s, name="p%d" % i) for i, s in enumerate(THREAD_SHAPES)]
    return first, [Parameter(p.data.copy(), name=p.name) for p in first]


def assert_same_bits(params, state, other, other_state):
    for a, b, ma, mb, va, vb in zip(params, other, state.m, other_state.m, state.v, other_state.v):
        for x, y in ((a.data, b.data), (ma, mb), (va, vb)):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))
        assert a.grad is None and b.grad is None


def on_cpus(monkeypatch, workers):
    """Let adam_step see `workers` CPUs and thread from 1 element a thread; returns the list of each run's thread."""
    threads = []
    monkeypatch.setattr(optim, "THREAD_ELEMENTS", 1)
    monkeypatch.setattr(optim, "usable_cpus", lambda: workers)
    monkeypatch.setattr(optim, "_update",
                        lambda *args: threads.append(threading.current_thread()) or update(*args))
    return threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_threaded_update_matches_serial_bit_for_bit(rng, monkeypatch, workers):
    # 8-element blocks cut (5, 3) into 2-row blocks and (13, 11) into single rows,
    # so every run boundary falls inside a parameter
    monkeypatch.setattr(optim, "ADAM_BLOCK", 8)
    threaded, serial = twin_params(rng)
    threaded_state, serial_state = AdamState(threaded, 0.01), AdamState(serial, 0.01)
    blocks = [b for p, m, v in zip(threaded, threaded_state.m, threaded_state.v)
              for b in optim._row_blocks(p.data, p.grad, m, v)]
    runs = optim._runs(blocks, workers)
    assert [b for run in runs for b in run] == blocks and len(runs) == workers
    assert all(a[-1][0].base is b[0][0].base for a, b in zip(runs, runs[1:]))
    for _ in range(3):
        for a, b in zip(threaded, serial):
            g = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-4, 4)
            a.accumulate(g)
            b.accumulate(g)
        threads = on_cpus(monkeypatch, workers)
        # a short switch interval interleaves the threads more than the cores would
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            adam_step(threaded, threaded_state)
        finally:
            sys.setswitchinterval(interval)
        serial_threads = on_cpus(monkeypatch, 1)
        adam_step(serial, serial_state)
        assert serial_threads == [threading.current_thread()]
        assert_same_bits(threaded, threaded_state, serial, serial_state)
        if workers > 1 and THREADS_RUN:
            assert len(threads) == workers and threading.current_thread() not in threads
        else:
            assert threads == [threading.current_thread()]


@pytest.mark.parametrize("workers", [1, 2])
def test_missing_gradient_steps_like_a_zero_one(rng, monkeypatch, workers):
    # after a first step with gradients everywhere, every other parameter gets none on one
    # side and a zero array on the other: with m and v nonzero, both still move, to the same bits
    monkeypatch.setattr(optim, "ADAM_BLOCK", 8)
    missing, zeros = twin_params(rng)
    missing_state, zeros_state = AdamState(missing, 0.01), AdamState(zeros, 0.01)
    for step in range(4):
        for i, (a, b) in enumerate(zip(missing, zeros)):
            if step == 0 or i % 2:
                g = rng.standard_normal(a.shape)
                a.accumulate(g)
                b.accumulate(g)
            else:
                b.grad = np.zeros(b.shape)
        threads = on_cpus(monkeypatch, workers)
        adam_step(missing, missing_state)
        if workers > 1 and THREADS_RUN:
            assert len(threads) == workers and threading.current_thread() not in threads
        on_cpus(monkeypatch, workers)
        adam_step(zeros, zeros_state)
        assert_same_bits(missing, missing_state, zeros, zeros_state)
    assert all(m.any() for m in missing_state.m)


@pytest.mark.parametrize("size", [127, 128])
def test_threads_start_at_two_threads_worth_of_elements(rng, monkeypatch, size):
    # the rule reads the model's size: at 64 elements a thread and 8 CPUs, 127 elements
    # take 1 worker and 128 take 2
    threads = on_cpus(monkeypatch, 8)
    monkeypatch.setattr(optim, "THREAD_ELEMENTS", 64)
    p = make_param(rng, (size,))
    adam_step([p], AdamState([p]))
    if size == 128 and THREADS_RUN:
        assert len(threads) == 2 and threading.current_thread() not in threads
    else:
        assert threads == [threading.current_thread()]


@pytest.mark.parametrize("control", ["no OpenBLAS", "no shutdown"])
def test_update_runs_serially_without_blas_control(rng, monkeypatch, control):
    # at a count of 2 the workers may spin, and without the shutdown symbol nothing stops them
    monkeypatch.setattr(tensor_module, "_openblas_threads",
                        lambda: None if control == "no OpenBLAS" else (lambda: 2, lambda count: None, None))
    fallback, serial = twin_params(rng)
    fallback_state, serial_state = AdamState(fallback, 0.01), AdamState(serial, 0.01)
    for a, b in zip(fallback, serial):
        a.grad[...] = b.grad[...] = rng.standard_normal(a.shape)
    threads = on_cpus(monkeypatch, 2)
    adam_step(fallback, fallback_state)
    # the fallback runs each of the two runs in turn
    assert threads == [threading.current_thread()] * 2
    on_cpus(monkeypatch, 1)
    adam_step(serial, serial_state)
    assert_same_bits(fallback, fallback_state, serial, serial_state)


@pytest.mark.skipif(not THREADS_RUN, reason="numpy bundles no OpenBLAS that exports blas_thread_shutdown_")
def test_exception_in_a_run_reaches_the_caller(rng, monkeypatch):
    # the second parameter's data is read-only, so `pb -= s1` raises inside the second run;
    # the pool has joined its threads and the BLAS thread count is back when it arrives
    get, put, _ = _openblas_threads()
    saved = get()
    put(2)
    try:
        params = [make_param(rng, (4, 3), name="a"), make_param(rng, (4, 3), name="frozen")]
        params[1].data.setflags(write=False)
        state = AdamState(params)
        for p in params:
            p.grad[...] = 1.0
        threads = on_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="read-only"):
            adam_step(params, state)
        assert get() == 2
        assert len(threads) == 2 and threading.current_thread() not in threads
        assert not any(t.is_alive() for t in threads)
    finally:
        put(saved)


def test_snapshot_restore_roundtrip(rng):
    p = make_param(rng)
    saved = snapshot([p])
    p.data[:] = 0.0
    restore([p], saved)
    assert np.array_equal(p.data, saved[p.name])
    zero_grads([p])
    assert not p.grad.any()
