"""Network layers built on the autodiff core.

Convolutions run as im2col + one matmul so the single-threaded BLAS does the
heavy lifting; the data gradient is another same-padding correlation with the
kernel flipped on every spatial axis and in/out channels swapped, which is
exact for stride 1, odd kernels, same padding. The LSTM runs a whole sentence
as one graph node with hand-written backpropagation through time; the
per-step cell stays as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Parameter, Tensor, sigmoid, sigmoid_array, tanh, uniform_fan_init


def _windows2d(xp: np.ndarray, k: int) -> np.ndarray:
    """(N,Hp,Wp,C) -> strided view (N,Ho,Wo,k,k,C) of all kxk patches."""
    n, hp, wp, c = xp.shape
    ho, wo = hp - k + 1, wp - k + 1
    s0, s1, s2, s3 = xp.strides
    return as_strided(xp, (n, ho, wo, k, k, c), (s0, s1, s2, s1, s2, s3))


def _corr2d_same(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padding stride-1 correlation; returns (y, cols) with cols kept for the weight gradient.

    Patches are gathered channels-last so the innermost copied run is a full
    C-sized contiguous chunk; cols rows are therefore ordered (k,k,C).
    """
    n, c, h, wd = x.shape
    co, ci, k, _ = w.shape
    p = k // 2
    xp = np.zeros((n, h + 2 * p, wd + 2 * p, c))
    xp[:, p:h + p, p:wd + p, :] = x.transpose(0, 2, 3, 1)
    cols = _windows2d(xp, k).reshape(n * h * wd, k * k * c)
    wmat = w.transpose(0, 2, 3, 1).reshape(co, -1)
    y = (cols @ wmat.T).reshape(n, h, wd, co).transpose(0, 3, 1, 2)
    return y, cols


def conv2d(x: Tensor, kernels: Parameter) -> Tensor:
    """2-d convolution, stride 1, same padding, odd square kernels, no bias.

    x: (C,H,W) or (N,C,H,W); kernels: (C_out,C_in,k,k).
    """
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    if xd.ndim != 4:
        raise ValueError("conv2d input must be (C,H,W) or (N,C,H,W), got %r" % (x.shape,))
    co, ci, kh, kw = kernels.data.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError("conv2d kernels must be square with odd extent, got %dx%d" % (kh, kw))
    if xd.shape[1] != ci:
        raise ValueError("conv2d channel mismatch: input has %d, kernels expect %d" % (xd.shape[1], ci))
    y, cols = _corr2d_same(xd, kernels.data)
    out = Tensor(y[0] if single else y, (x, kernels))

    def back(g, a=x, w=kernels, saved=cols, was_single=single):
        gd = g[None] if was_single else g
        n, _, h, wd_ = gd.shape
        co_, ci_, k, _ = w.data.shape
        gmat = gd.transpose(0, 2, 3, 1).reshape(n * h * wd_, -1)
        dw = (gmat.T @ saved).reshape(co_, k, k, ci_).transpose(0, 3, 1, 2)
        w.accumulate(dw)
        wswap = w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        gx, _ = _corr2d_same(gd, wswap)
        a.accumulate(gx[0] if was_single else gx)

    out._backward = back
    return out


def _windows3d(xp: np.ndarray, k: int) -> np.ndarray:
    """(Tp,Hp,Wp,C) -> strided view (To,Ho,Wo,k,k,k,C)."""
    tp, hp, wp, c = xp.shape
    to, ho, wo = tp - k + 1, hp - k + 1, wp - k + 1
    s0, s1, s2, s3 = xp.strides
    return as_strided(xp, (to, ho, wo, k, k, k, c), (s0, s1, s2, s0, s1, s2, s3))


def _corr3d_same(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, t, h, wd = x.shape
    co, ci, k, _, _ = w.shape
    p = k // 2
    xp = np.zeros((t + 2 * p, h + 2 * p, wd + 2 * p, c))
    xp[p:t + p, p:h + p, p:wd + p, :] = x.transpose(1, 2, 3, 0)
    cols = _windows3d(xp, k).reshape(t * h * wd, k * k * k * c)
    wmat = w.transpose(0, 2, 3, 4, 1).reshape(co, -1)
    y = (cols @ wmat.T).reshape(t, h, wd, co).transpose(3, 0, 1, 2)
    return y, cols


def conv3d(x: Tensor, kernels: Parameter) -> Tensor:
    """3-d convolution over (C,T,H,W), stride 1, same padding on all three axes, 3x3x3 kernels, no bias."""
    if x.data.ndim != 4:
        raise ValueError("conv3d input must be (C,T,H,W), got %r" % (x.shape,))
    co, ci, kt, kh, kw = kernels.data.shape
    if (kt, kh, kw) != (3, 3, 3):
        raise ValueError("conv3d kernels must be 3x3x3, got %dx%dx%d" % (kt, kh, kw))
    if x.data.shape[0] != ci:
        raise ValueError("conv3d channel mismatch: input has %d, kernels expect %d" % (x.data.shape[0], ci))
    y, cols = _corr3d_same(x.data, kernels.data)
    out = Tensor(y, (x, kernels))

    def back(g, a=x, w=kernels, saved=cols):
        _, t, h, wd_ = g.shape
        co_, ci_ = w.data.shape[:2]
        gmat = g.transpose(1, 2, 3, 0).reshape(t * h * wd_, -1)
        dw = (gmat.T @ saved).reshape(co_, 3, 3, 3, ci_).transpose(0, 4, 1, 2, 3)
        w.accumulate(dw)
        wswap = w.data.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
        gx, _ = _corr3d_same(g, wswap)
        a.accumulate(gx)

    out._backward = back
    return out


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Max pooling over (C,H,W) or (N,C,H,W); ties route the gradient to the first cell in scan order."""
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    n, c, h, w = xd.shape
    if window < 1 or stride < 1:
        raise ValueError("maxpool2d window and stride must be positive")
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("maxpool2d window %d exceeds input %dx%d" % (window, h, w))
    s0, s1, s2, s3 = xd.strides
    win = as_strided(xd, (n, c, ho, wo, window, window),
                     (s0, s1, stride * s2, stride * s3, s2, s3))
    flat = win.reshape(n, c, ho, wo, window * window)
    am = np.argmax(flat, axis=-1)
    y = np.take_along_axis(flat, am[..., None], axis=-1)[..., 0]
    out = Tensor(y[0] if single else y, (x,))

    def back(g, a=x, idx=am, was_single=single, shp=(n, c, h, w), wn=window, st=stride, oh=ho, ow=wo):
        gd = g[None] if was_single else g
        nn, cc, hh, ww = shp
        rows = (np.arange(oh) * st)[None, None, :, None] + idx // wn
        cls = (np.arange(ow) * st)[None, None, None, :] + idx % wn
        nidx = np.arange(nn)[:, None, None, None]
        cidx = np.arange(cc)[None, :, None, None]
        flat_idx = ((nidx * cc + cidx) * hh + rows) * ww + cls
        gx = np.zeros(nn * cc * hh * ww)
        np.add.at(gx, flat_idx.reshape(-1), np.ascontiguousarray(gd).reshape(-1))
        gx = gx.reshape(shp)
        a.accumulate(gx[0] if was_single else gx)

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
