"""Network layers built on the autodiff core.

One channels-last convolution and one pool, (..., *S, C) with any leading
batch axes, serve every rank; both read their windows from one strided view.
The conv runs as im2col + one matmul so the BLAS does the heavy lifting. Over
r > 2 spatial axes the im2col covers the last two only: the taps along the
outer axes are stacked as output channels of one 2-d correlation, and the
output sums shifted slices of its result, one per stacked tap (MEC, Cho &
Brand, arXiv:1706.06873), so the 3-d sequence convs copy k times fewer
columns. The weight gradient is one GEMM against the saved im2col rows (one
per stacked tap for a folded conv); the data gradient is the same correlation
with the kernel flipped on every spatial axis and in/out channels swapped,
exact for stride 1, odd kernels, same padding. Max-pool is a running maximum
over the strided slices of the window view, one per window offset, with no
window copied; the pool's backward is one strided slice add per offset. The
LSTM runs a whole sentence as one graph node with hand-written
backpropagation through time; the per-step cell stays as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Parameter, Tensor, _value, sigmoid, sigmoid_array, tanh, uniform_fan_init


def _windows(x: np.ndarray, r: int, k: int, stride: int = 1) -> np.ndarray:
    """Strided view of x (..., *S, C) as (..., *S_out, k, ..., k, C), S_out = (S - k) // stride + 1.

    Cell (..., *j, *o, c) reads x[..., *(stride * j + o), c]: the r axes before
    the channels are spatial, any before them are batch axes.
    """
    st = x.strides
    cells = tuple((s - k) // stride + 1 for s in x.shape[-r - 1:-1])
    return as_strided(x, x.shape[:-r - 1] + cells + (k,) * r + x.shape[-1:],
                      st[:-r - 1] + tuple(stride * s for s in st[-r - 1:-1]) + st[-r - 1:])


def _corr_same(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padding stride-1 correlation of channels-last x (..., *S, C_in) with w (C_out, C_in, k, ..., k).

    The r = w.ndim - 2 axes before the channels are spatial; any before them are
    batch axes. Returns (y, cols): y is (..., *S, C_out); cols, kept for the
    weight gradient, has one row per output cell ordered (k, ..., k, C_in), so
    the innermost copied run is a whole C_in-sized contiguous chunk.
    """
    r, k = w.ndim - 2, w.shape[-1]
    p = k // 2
    spatial = x.shape[-r - 1:-1]
    xp = np.zeros(x.shape[:-r - 1] + tuple(s + 2 * p for s in spatial) + x.shape[-1:])
    xp[(...,) + tuple(slice(p, p + s) for s in spatial) + (slice(None),)] = x
    cols = _windows(xp, r, k).reshape(-1, k ** r * x.shape[-1])
    wmat = np.moveaxis(w, 1, -1).reshape(w.shape[0], -1)
    return (cols @ wmat.T).reshape(x.shape[:-1] + w.shape[:1]), cols


def _tap_spans(extents: tuple, k: int):
    """Each tap of a k-wide kernel over the given axes: (its scan index, output rows, input rows).

    Along an axis of n cells, tap j adds input row t + j - k // 2 to output row t,
    for every t that keeps both rows in [0, n); the rest is zero padding.
    """
    p = k // 2
    for i, tap in enumerate(np.ndindex((k,) * len(extents))):
        # stop >= start: the span is empty when the tap reads no row (n < k)
        out = [slice(max(p - j, 0), max(min(n + p - j, n), p - j, 0)) for n, j in zip(extents, tap)]
        yield i, tuple(out), tuple(slice(o.start + j - p, o.stop + j - p) for o, j in zip(out, tap))


def _stack_taps(w: np.ndarray) -> np.ndarray:
    """w (C_out, C_in, k, ..., k) as (k^(r-2) C_out, C_in, k, k): its outer taps, in scan order, as output channels."""
    f, k = w.ndim - 4, w.shape[-1]
    return np.moveaxis(w, (0, 1), (f, f + 1)).reshape((k ** f * w.shape[0],) + w.shape[1:2] + w.shape[-2:])


def _corr_folded(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_corr_same with one im2col over the last two spatial axes, however many there are.

    For r > 2 the taps along the first r - 2 spatial axes are stacked as output
    channels: one 2-d correlation with a (k^(r-2) C_out, C_in, k, k) kernel, the
    outer axes as batch axes, gives z, and y sums the shifted slices of z, one
    per stacked tap (MEC, Cho & Brand, arXiv:1706.06873). The im2col is
    k^(r-2) times narrower. Returns (y, cols) with cols the 2-d im2col rows.
    """
    r, k, c_out = w.ndim - 2, w.shape[-1], w.shape[0]
    if r <= 2:
        return _corr_same(x, w)
    z, cols = _corr_same(x, _stack_taps(w))
    z = z.reshape(x.shape[:-1] + (k ** (r - 2), c_out))
    centre = k ** (r - 2) // 2                      # the tap that reads every row
    y = z[..., centre, :].copy()
    for i, out, src in _tap_spans(x.shape[-r - 1:-3], k):
        if i != centre:
            y[(...,) + out + (slice(None),) * 3] += z[(...,) + src + (slice(None),) * 2 + (i, slice(None))]
    return y, cols


def conv(x: Tensor | np.ndarray, kernels: Parameter) -> Tensor:
    """Convolution over r = kernels.ndim - 2 spatial axes: stride 1, same padding, odd cubic kernels, no bias.

    x: (..., *S, C_in), channels last, any leading batch axes; kernels: (C_out,
    C_in, k, ..., k). Returns (..., *S, C_out). A plain array x is a constant:
    it gets no data gradient, so backward computes only the kernel's. A kernel
    of r > 2 axes runs folded (_corr_folded); its weight gradient is one GEMM
    per stacked tap: the tap's input rows of the 2-d im2col against its output
    rows of g, taken a cache-sized block of rows at a time.
    """
    w = kernels.data
    r = w.ndim - 2
    xd = _value(x)
    if r < 1 or len(set(w.shape[2:])) != 1 or w.shape[-1] % 2 == 0:
        raise ValueError("conv kernels must be (C_out, C_in, k, ..., k) with odd k, got %r" % (w.shape,))
    if xd.ndim < r + 1:
        raise ValueError("conv input must be (..., %d spatial axes, C), got %r" % (r, xd.shape))
    if xd.shape[-1] != w.shape[1]:
        raise ValueError("conv channel mismatch: input has %d, kernels expect %d" % (xd.shape[-1], w.shape[1]))
    y, cols = _corr_folded(xd, w)

    def back(g):
        c_out, k, f = w.shape[0], w.shape[-1], r - 2
        if r <= 2:
            dw = (g.reshape(-1, c_out).T @ cols).reshape((c_out,) + w.shape[2:] + w.shape[1:2])
            kernels.accumulate(np.moveaxis(dw, -1, 1))
        else:
            # per stacked tap, its input rows of the 2-d im2col against its output rows
            # of g, a block of the first folded axis at a time: a block of <= ~1 MB stays
            # in cache for all k taps, where whole-axis GEMMs read it k times from memory
            rows = cols.reshape(xd.shape[:-1] + cols.shape[-1:])
            n, width = xd.shape[-r - 1], cols.shape[-1]
            block = max(2, (1 << 20) * n // max(rows.nbytes + g.nbytes, 1))
            spans = list(_tap_spans(xd.shape[-r - 1:-3], k))
            every = (slice(None),) * 3
            dw = np.zeros((k ** f, width, c_out))
            for a in range(0, n, block):
                for i, out, src in spans:
                    lo, hi = max(out[0].start, a), min(out[0].stop, a + block)
                    if lo < hi:
                        d = src[0].start - out[0].start
                        gi = g[(..., slice(lo, hi)) + out[1:] + every].reshape(-1, c_out)
                        dw[i] += rows[(..., slice(lo + d, hi + d)) + src[1:] + every].reshape(-1, width).T @ gi
            # (k, ..., k, C_in, C_out) -> (C_out, C_in, k, ..., k)
            kernels.accumulate(dw.reshape((k,) * r + w.shape[1:2] + (c_out,)).transpose((r + 1, r) + tuple(range(r))))
        if isinstance(x, Tensor):
            flipped = np.flip(w.swapaxes(0, 1), axis=tuple(range(2, w.ndim)))
            x.accumulate(_corr_folded(g, flipped)[0])

    return Tensor(y, (x, kernels), back)


def pool(x: Tensor, window: int, stride: int, r: int, mode: str = "max") -> Tensor:
    """Max or average pooling over the r axes before the channels of (..., *S, C).

    Cubic windows, no padding, any leading batch axes. Max is a running
    np.maximum over the window^r strided slices of the window view, one per
    offset, so no window is copied. Its backward routes each gradient to the
    first offset in scan order whose slice equals the max, the cell argmax
    would pick. The backward adds one strided slice per window offset, last
    offset first, so every input cell sums the gradients of its windows in
    output scan order. A max offset's slice is g times its routing, multiplied
    as int64 bits: exact like np.where, without its branch per cell.
    """
    if mode not in ("max", "avg"):
        raise ValueError("pool mode must be 'max' or 'avg', got %r" % (mode,))
    if r < 1 or x.data.ndim < r + 1:
        raise ValueError("pool over %r axes needs an input (..., *S, C) with them, got %r" % (r, x.shape))
    if window < 1 or stride < 1:
        raise ValueError("pool window and stride must be positive")
    if window > min(x.data.shape[-r - 1:-1]):
        raise ValueError("pool window %d exceeds input %r" % (window, x.shape))
    win = _windows(x.data, r, window, stride)
    cells = win.shape[:-r - 1]                      # (..., *S_out)
    offsets = list(np.ndindex((window,) * r))
    slices = [win[(...,) + at + (slice(None),)] for at in offsets]      # (..., *S_out, C) views
    if mode == "max":
        y = slices[0].copy()
        for s in slices[1:]:
            np.maximum(y, s, out=y)
    else:
        y = np.moveaxis(win, -1, len(cells)).reshape(cells + (x.data.shape[-1], -1)).mean(axis=-1)

    def back(g):
        if mode == "max":
            taken = np.zeros(y.shape, dtype=bool)
            hits = []
            for s in slices[:-1]:
                hit = s == y
                np.greater(hit, taken, out=hit)         # equal to the max, and no earlier offset was
                taken |= hit
                hits.append(hit)
            hits.append(~taken)                         # the max is somewhere in the window
            bits = g.view(np.int64)
        share = g / window ** r if mode == "avg" else None
        gx = np.zeros(x.shape)
        for o in range(len(offsets) - 1, -1, -1):
            span = tuple(slice(i, i + stride * (n - 1) + 1, stride) for i, n in zip(offsets[o], cells[-r:]))
            gx[(...,) + span + (slice(None),)] += share if share is not None else (hits[o] * bits).view(np.float64)
        x.accumulate(gx)

    return Tensor(y, (x,), back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with a mask drawn from rng; no generator, or rate 0, means no dropout."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1), got %r" % (rate,))
    if rng is None or rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return Tensor(x.data * mask, (x,), lambda g: x.accumulate(g * mask))


@dataclass
class LstmCellParams:
    input_weight: Parameter    # (4H, D_in), gate order i, f, g, o
    hidden_weight: Parameter   # (4H, H)
    bias: Parameter            # (4H,)

    def parameters(self) -> list:
        return [self.input_weight, self.hidden_weight, self.bias]

    @property
    def hidden_size(self) -> int:
        return self.hidden_weight.data.shape[1]


def init_lstm_params(d_in: int, d_hidden: int, rng: np.random.Generator, prefix: str) -> LstmCellParams:
    return LstmCellParams(
        input_weight=Parameter(uniform_fan_init(rng, (4 * d_hidden, d_in), d_in, d_hidden),
                               name=prefix + "/input_weight"),
        hidden_weight=Parameter(uniform_fan_init(rng, (4 * d_hidden, d_hidden), d_hidden, d_hidden),
                                name=prefix + "/hidden_weight"),
        bias=Parameter(np.zeros(4 * d_hidden), name=prefix + "/bias"),
    )


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmCellParams) -> tuple[Tensor, Tensor]:
    """One LSTM cell update; returns (h, c). The per-step reference for lstm_sequence."""
    hs = params.hidden_size
    z = params.input_weight @ x + params.hidden_weight @ h_prev + params.bias
    i = sigmoid(z[:hs])
    f = sigmoid(z[hs:2 * hs])
    g = tanh(z[2 * hs:3 * hs])
    o = sigmoid(z[3 * hs:])
    c = f * c_prev + i * g
    h = o * tanh(c)
    return h, c


def lstm_sequence(x: Tensor, cell: LstmCellParams, reverse: bool = False) -> Tensor:
    """LSTM from zero state over the rows of x (tau, D); returns the (tau, H) hidden states.

    The whole recurrence is one graph node. The input projection X @ W_ih^T + b
    is one GEMM for all timesteps, so only W_hh @ h runs per step (Appleyard et
    al. 2016, arXiv:1604.01946). Backpropagation through time collects the gate
    pre-activation gradients dZ (tau, 4H); then dW_ih = dZ^T X, dW_hh = dZ^T H_prev,
    db = sum(dZ) and dX = dZ W_ih are one GEMM each. With reverse=True the rows
    are read last to first, and row t of the result is still the state after row t.
    Equals a chain of lstm_step calls up to float rounding.
    """
    hs = cell.hidden_size
    w_ih = cell.input_weight.data
    if x.data.ndim != 2 or x.data.shape[0] == 0 or x.data.shape[1] != w_ih.shape[1]:
        raise ValueError("lstm_sequence input must be (tau>0, %d), got %r" % (w_ih.shape[1], x.shape))
    seq = x.data[::-1] if reverse else x.data
    tau = seq.shape[0]
    w_hh = cell.hidden_weight.data
    zx = seq @ w_ih.T + cell.bias.data
    gates = np.empty((tau, 4 * hs))     # activations i, f, g, o in processing order
    cells = np.empty((tau, hs))
    tanh_c = np.empty((tau, hs))
    hidden = np.empty((tau, hs))
    c = np.zeros(hs)
    for t in range(tau):
        z = zx[t] + w_hh @ hidden[t - 1] if t else zx[t]
        a = gates[t]
        a[:] = sigmoid_array(z)
        a[2 * hs:3 * hs] = np.tanh(z[2 * hs:3 * hs])
        c = cells[t] = a[hs:2 * hs] * c + a[:hs] * a[2 * hs:3 * hs]
        tanh_c[t] = np.tanh(c)
        hidden[t] = a[3 * hs:] * tanh_c[t]

    def back(g):
        g = g[::-1] if reverse else g
        dz = np.empty((tau, 4 * hs))
        dh_next = np.zeros(hs)
        dc_next = np.zeros(hs)
        for t in range(tau - 1, -1, -1):
            a = gates[t]
            i, f, gg, o = a[:hs], a[hs:2 * hs], a[2 * hs:3 * hs], a[3 * hs:]
            dh = g[t] + dh_next
            tc = tanh_c[t]
            dc = dh * o * (1.0 - tc * tc) + dc_next
            d = dz[t]
            d[:hs] = dc * gg * i * (1.0 - i)
            d[hs:2 * hs] = dc * cells[t - 1] * f * (1.0 - f) if t else 0.0
            d[2 * hs:3 * hs] = dc * i * (1.0 - gg * gg)
            d[3 * hs:] = dh * tc * o * (1.0 - o)
            if t:
                dc_next = dc * f
                dh_next = d @ w_hh
        cell.input_weight.accumulate_product(dz.T, seq)
        cell.hidden_weight.accumulate_product(dz[1:].T, hidden[:-1])
        cell.bias.accumulate(dz.sum(axis=0))
        dx = dz @ w_ih
        x.accumulate(dx[::-1] if reverse else dx)

    return Tensor(hidden[::-1] if reverse else hidden,
                  (x, cell.input_weight, cell.hidden_weight, cell.bias), back)
