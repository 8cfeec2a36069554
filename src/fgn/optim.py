"""Adam with bias correction at the published defaults (Kingma & Ba, arXiv:1412.6980).

Every Parameter takes the one update; frozen rows are graph constants, not
Parameters. A zero gradient keeps m = v = 0, so its step is 0 / EPS = 0, and
a missing one (None) reads as zero, with the same bits. adam_step hands each
gradient buffer it read back to its Parameter as the spare, so grad is None
between steps and the next backward writes its first gradient into that
buffer: nothing zeroes it, and no GEMM allocates a new one. AdamState gives
a zero buffer to each Parameter that has none when it is built, which a
caller may clear and accumulate into before the first step.

The update is bound by memory bandwidth, so a model of at least
2 * THREAD_ELEMENTS elements splits its row blocks across a thread per usable
CPU, each thread taking a contiguous run of about equal element count. Every
element still sees the same operations in the same order, so the result is
the same bits as in one thread. tensor.threaded_map runs the runs and says
when they may take the cores; a smaller model, such as the default one, runs
its one run in the calling thread.
"""

from __future__ import annotations

import numpy as np

from .tensor import threaded_map, usable_cpus


class AdamState:
    def __init__(self, params: list, learning_rate: float = 0.002):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive, got %r" % (learning_rate,))
        self.learning_rate = learning_rate
        self.step_count = 0
        for p in params:
            if p.grad is None:
                p.grad = np.zeros(p.data.shape)
        self.m = [np.zeros(p.data.shape) for p in params]
        self.v = [np.zeros(p.data.shape) for p in params]


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# elements per block: a block of p, grad, m, v and the two scratch buffers stays in a core's cache
ADAM_BLOCK = 1 << 15
# every thread takes at least this many elements, 8 MB of each of p, grad, m and v
THREAD_ELEMENTS = 1 << 20


def _row_blocks(*arrays):
    """Matching views of equal-shaped arrays, in slices of whole leading-axis rows of about ADAM_BLOCK elements."""
    if arrays[0].ndim == 0:
        arrays = tuple(a.reshape(1) for a in arrays)
    rows = arrays[0].shape[0]
    step = max(1, ADAM_BLOCK * rows // max(1, arrays[0].size))
    for r in range(0, rows, step):
        yield tuple(a[r:r + step] for a in arrays)


def _runs(blocks: list, workers: int) -> list:
    """blocks cut into `workers` contiguous runs of about equal element count; a run may be empty."""
    ends = np.cumsum([pb.size for pb, _, _, _ in blocks])
    cuts = [int(np.searchsorted(ends, ends[-1] * k / workers)) + 1 for k in range(1, workers)]
    return [blocks[a:b] for a, b in zip([0] + cuts, cuts + [len(blocks)])]


def _update(blocks: list, learning_rate: float, bc1: float, bc2: float) -> None:
    """Update each (p, grad, m, v) block of `blocks` in place."""
    for pb, g, mb, vb in blocks:
        s1 = np.multiply(g, 1.0 - BETA1)
        mb *= BETA1
        mb += s1
        np.multiply(g, 1.0 - BETA2, out=s1)
        s1 *= g
        vb *= BETA2
        vb += s1
        np.divide(mb, bc1, out=s1)
        s1 *= learning_rate
        s2 = np.divide(vb, bc2)
        np.sqrt(s2, out=s2)
        s2 += EPS
        s1 /= s2
        pb -= s1


def adam_step(params: list, state: AdamState) -> None:
    """Apply one update to every parameter, then hand each gradient buffer back as its spare.

    Bit-identical to m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) as whole-array expressions: the
    same operations run in the same order, but block by block, in place, with two
    block-sized scratch buffers, so no full-size temporary is made. A missing
    gradient reads as a zero array. A parameter whose gradient, m or v does not
    match its shape raises before anything changes.
    """
    if len(params) != len(state.m):
        raise ValueError("parameter list does not match optimizer state (%d vs %d)"
                         % (len(params), len(state.m)))
    for k, (p, m, v) in enumerate(zip(params, state.m, state.v)):
        grad_shape = p.data.shape if p.grad is None else p.grad.shape
        if not p.data.shape == grad_shape == m.shape == v.shape:
            raise ValueError("parameter %d (%s) has shape %r, but its gradient, m and v have %r, %r and %r"
                             % (k, p.name, p.data.shape, grad_shape, m.shape, v.shape))
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    grads = [np.broadcast_to(0.0, p.data.shape) if p.grad is None else p.grad for p in params]
    blocks = [b for p, g, m, v in zip(params, grads, state.m, state.v) for b in _row_blocks(p.data, g, m, v)]
    workers = max(1, min(usable_cpus(), sum(p.data.size for p in params) // THREAD_ELEMENTS))
    threaded_map(lambda run: _update(run, state.learning_rate, bc1, bc2), _runs(blocks, workers), workers)
    for p in params:
        if p.grad is not None:
            p._spare, p.grad = p.grad, None


def zero_grads(params: list) -> None:
    for p in params:
        if p.grad is None:
            p.grad = np.zeros(p.data.shape)
        else:
            p.grad[...] = 0.0


def snapshot(params: list) -> dict:
    return {p.name: p.data.copy() for p in params}


def restore(params: list, state: dict) -> None:
    for p in params:
        p.data[...] = state[p.name]
