"""Network layers built on the autodiff core.

One channels-last convolution and one pool, (..., *S, C) with any leading
batch axes, serve every rank; both read their windows from one strided view.
The conv runs as im2col + one matmul so the BLAS does the heavy lifting. The
weight gradient is one GEMM against the saved im2col rows; the data gradient
is the same correlation with the kernel flipped on every spatial axis and
in/out channels swapped, exact for stride 1, odd kernels, same padding. The
pool's backward is one strided slice add per window offset. The LSTM runs a
whole sentence as one graph node with hand-written backpropagation through
time; the per-step cell stays as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Parameter, Tensor, sigmoid, sigmoid_array, tanh, uniform_fan_init


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


def conv(x: Tensor | np.ndarray, kernels: Parameter) -> Tensor:
    """Convolution over r = kernels.ndim - 2 spatial axes: stride 1, same padding, odd cubic kernels, no bias.

    x: (..., *S, C_in), channels last, any leading batch axes; kernels: (C_out,
    C_in, k, ..., k). Returns (..., *S, C_out). A plain array x is a constant:
    it gets no data gradient, so backward computes only the kernel's.
    """
    w = kernels.data
    r = w.ndim - 2
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if r < 1 or len(set(w.shape[2:])) != 1 or w.shape[-1] % 2 == 0:
        raise ValueError("conv kernels must be (C_out, C_in, k, ..., k) with odd k, got %r" % (w.shape,))
    if xd.ndim < r + 1:
        raise ValueError("conv input must be (..., %d spatial axes, C), got %r" % (r, xd.shape))
    if xd.shape[-1] != w.shape[1]:
        raise ValueError("conv channel mismatch: input has %d, kernels expect %d" % (xd.shape[-1], w.shape[1]))
    y, cols = _corr_same(xd, w)
    out = Tensor(y, (x, kernels) if isinstance(x, Tensor) else (kernels,))

    def back(g, a=x, p=kernels, saved=cols):
        wd = p.data
        gmat = g.reshape(-1, wd.shape[0])
        dw = (gmat.T @ saved).reshape((wd.shape[0],) + wd.shape[2:] + wd.shape[1:2])
        p.accumulate(np.moveaxis(dw, -1, 1))
        if isinstance(a, Tensor):
            flipped = np.flip(wd.swapaxes(0, 1), axis=tuple(range(2, wd.ndim)))
            a.accumulate(_corr_same(g, flipped)[0])

    out._backward = back
    return out


def pool(x: Tensor, window: int, stride: int, r: int, mode: str = "max") -> Tensor:
    """Max or average pooling over the r axes before the channels of (..., *S, C).

    Cubic windows, no padding, any leading batch axes. Max ties route the
    gradient to the first cell of the window in scan order. The backward adds
    one strided slice per window offset, last offset first, so every input cell
    sums the gradients of its windows in output scan order.
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
    flat = np.moveaxis(win, -1, len(cells)).reshape(cells + (x.data.shape[-1], window ** r))
    am = np.argmax(flat, axis=-1) if mode == "max" else None
    y = flat.mean(axis=-1) if am is None else np.take_along_axis(flat, am[..., None], axis=-1)[..., 0]
    out = Tensor(y, (x,))

    def back(g, a=x, idx=am):
        gx = np.zeros(a.shape)
        share = g / window ** r if idx is None else None
        for o in range(window ** r - 1, -1, -1):
            at = np.unravel_index(o, (window,) * r)
            span = tuple(slice(i, i + stride * (n - 1) + 1, stride) for i, n in zip(at, cells[-r:]))
            gx[(...,) + span + (slice(None),)] += share if idx is None else np.where(idx == o, g, 0.0)
        a.accumulate(gx)

    out._backward = back
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1), got %r" % (rate,))
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask, (x,))
    out._backward = lambda g, a=x, m=mask: a.accumulate(g * m)
    return out


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
    out = Tensor(hidden[::-1] if reverse else hidden,
                 (x, cell.input_weight, cell.hidden_weight, cell.bias))

    def back(g, inp=x, p=cell, rev=reverse):
        g = g[::-1] if rev else g
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
        p.input_weight.accumulate(dz.T @ seq)
        p.hidden_weight.accumulate(dz[1:].T @ hidden[:-1])
        p.bias.accumulate(dz.sum(axis=0))
        dx = dz @ w_ih
        inp.accumulate(dx[::-1] if rev else dx)

    out._backward = back
    return out
