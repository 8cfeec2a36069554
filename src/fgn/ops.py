"""Network layers built on the autodiff core.

One channels-last convolution, (..., *S, C) with any leading batch axes,
serves every rank. It runs as im2col + one matmul so the BLAS does the heavy
lifting. The weight gradient is one GEMM against the saved im2col rows; the
data gradient is the same correlation with the kernel flipped on every spatial
axis and in/out channels swapped, exact for stride 1, odd kernels, same
padding. The LSTM runs a whole sentence as one graph node with hand-written
backpropagation through time; the per-step cell stays as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Parameter, Tensor, sigmoid, sigmoid_array, tanh, uniform_fan_init


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
    st = xp.strides
    windows = as_strided(xp, x.shape[:-1] + (k,) * r + x.shape[-1:], st[:-1] + st[-r - 1:])
    cols = windows.reshape(-1, k ** r * x.shape[-1])
    wmat = np.moveaxis(w, 1, -1).reshape(w.shape[0], -1)
    return (cols @ wmat.T).reshape(x.shape[:-1] + w.shape[:1]), cols


def conv(x: Tensor, kernels: Parameter) -> Tensor:
    """Convolution over r = kernels.ndim - 2 spatial axes: stride 1, same padding, odd cubic kernels, no bias.

    x: (..., *S, C_in), channels last, any leading batch axes; kernels: (C_out,
    C_in, k, ..., k). Returns (..., *S, C_out).
    """
    w = kernels.data
    r = w.ndim - 2
    if r < 1 or len(set(w.shape[2:])) != 1 or w.shape[-1] % 2 == 0:
        raise ValueError("conv kernels must be (C_out, C_in, k, ..., k) with odd k, got %r" % (w.shape,))
    if x.data.ndim < r + 1:
        raise ValueError("conv input must be (..., %d spatial axes, C), got %r" % (r, x.shape))
    if x.data.shape[-1] != w.shape[1]:
        raise ValueError("conv channel mismatch: input has %d, kernels expect %d"
                         % (x.data.shape[-1], w.shape[1]))
    y, cols = _corr_same(x.data, w)
    out = Tensor(y, (x, kernels))

    def back(g, a=x, p=kernels, saved=cols):
        wd = p.data
        gmat = g.reshape(-1, wd.shape[0])
        dw = (gmat.T @ saved).reshape((wd.shape[0],) + wd.shape[2:] + wd.shape[1:2])
        p.accumulate(np.moveaxis(dw, -1, 1))
        flipped = np.flip(wd.swapaxes(0, 1), axis=tuple(range(2, wd.ndim)))
        a.accumulate(_corr_same(g, flipped)[0])

    out._backward = back
    return out


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Max pooling over the two axes before the channels of (..., H, W, C).

    Ties route the gradient to the first cell in scan order.
    """
    if x.data.ndim < 3:
        raise ValueError("maxpool2d input must be (..., H, W, C), got %r" % (x.shape,))
    xd = x.data.reshape((-1,) + x.data.shape[-3:])
    n, h, w, c = xd.shape
    if window < 1 or stride < 1:
        raise ValueError("maxpool2d window and stride must be positive")
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("maxpool2d window %d exceeds input %dx%d" % (window, h, w))
    s0, s1, s2, s3 = xd.strides
    win = as_strided(xd, (n, ho, wo, c, window, window),
                     (s0, stride * s1, stride * s2, s3, s1, s2))
    flat = win.reshape(n, ho, wo, c, window * window)
    am = np.argmax(flat, axis=-1)
    y = np.take_along_axis(flat, am[..., None], axis=-1)[..., 0]
    out = Tensor(y.reshape(x.data.shape[:-3] + y.shape[1:]), (x,))

    def back(g, a=x, idx=am, wn=window, st=stride):
        rows = (np.arange(ho) * st)[None, :, None, None] + idx // wn
        cls = (np.arange(wo) * st)[None, None, :, None] + idx % wn
        flat_idx = ((np.arange(n)[:, None, None, None] * h + rows) * w + cls) * c + np.arange(c)
        gx = np.zeros(n * h * w * c)
        np.add.at(gx, flat_idx.reshape(-1), g.reshape(-1))
        a.accumulate(gx.reshape(a.shape))

    out._backward = back
    return out


def pool1d(x: Tensor, window: int, stride: int, mode: str = "max") -> Tensor:
    """1-d pooling along the last axis of a vector or matrix."""
    if mode not in ("max", "avg"):
        raise ValueError("pool1d mode must be 'max' or 'avg', got %r" % (mode,))
    single = x.data.ndim == 1
    xd = x.data[None] if single else x.data
    if xd.ndim != 2:
        raise ValueError("pool1d input must be a vector or matrix, got shape %r" % (x.shape,))
    n, d = xd.shape
    if window < 1 or stride < 1:
        raise ValueError("pool1d window and stride must be positive")
    do = (d - window) // stride + 1
    if do < 1:
        raise ValueError("pool1d window %d exceeds input length %d" % (window, d))
    s0, s1 = xd.strides
    win = as_strided(xd, (n, do, window), (s0, stride * s1, s1))
    if mode == "max":
        am = np.argmax(win, axis=-1)
        y = np.take_along_axis(win, am[..., None], axis=-1)[..., 0]
    else:
        am = None
        y = win.mean(axis=-1)
    out = Tensor(y[0] if single else y, (x,))

    def back(g, a=x, idx=am, was_single=single, nn=n, dd=d, wn=window, st=stride, od=do, md=mode):
        gd = g[None] if was_single else g
        gx = np.zeros(nn * dd)
        nidx = np.arange(nn)[:, None]
        if md == "max":
            src = np.arange(od)[None, :] * st + idx
            np.add.at(gx, (nidx * dd + src).reshape(-1), np.ascontiguousarray(gd).reshape(-1))
        else:
            src = np.arange(od)[None, :, None] * st + np.arange(wn)[None, None, :]
            flat_idx = (nidx[..., None] * dd + src).reshape(-1)
            contrib = np.broadcast_to(gd[..., None] / wn, (nn, od, wn)).reshape(-1)
            np.add.at(gx, flat_idx, contrib)
        gx = gx.reshape(nn, dd)
        a.accumulate(gx[0] if was_single else gx)

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
