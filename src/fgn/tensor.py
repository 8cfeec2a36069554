"""Reverse-mode autodiff over numpy float64 arrays.

Every Tensor wraps an ndarray and remembers how it was produced; backward()
runs the recorded closures in reverse topological order. Gradients accumulate
into .grad, which is allocated lazily for intermediate nodes and eagerly for
Parameters so optimizers can rely on it existing.
"""

from __future__ import annotations

import numpy as np


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = _as_f64(data)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        # grads are always C-ordered buffers of their own, whatever the data's
        # layout: g may be a view of another node's gradient
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.shape != ():
            raise ValueError("backward() starts from a scalar, got shape %r" % (self.shape,))
        # iterative topo sort: deep LSTM chains would blow the recursion limit
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate(np.ones(()))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ----

    def __add__(self, other):
        if not isinstance(other, Tensor):
            c = _as_f64(other)
            out = Tensor(self.data + c, (self,))
            out._backward = lambda g, a=self: a.accumulate(_unbroadcast(g, a.shape))
            return out
        out = Tensor(self.data + other.data, (self, other))

        def back(g, a=self, b=other):
            a.accumulate(_unbroadcast(g, a.shape))
            b.accumulate(_unbroadcast(g, b.shape))

        out._backward = back
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            c = _as_f64(other)
            out = Tensor(self.data * c, (self,))
            out._backward = lambda g, a=self: a.accumulate(_unbroadcast(g * c, a.shape))
            return out
        out = Tensor(self.data * other.data, (self, other))

        def back(g, a=self, b=other):
            a.accumulate(_unbroadcast(g * b.data, a.shape))
            b.accumulate(_unbroadcast(g * a.data, b.shape))

        out._backward = back
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -_as_f64(other))

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("division by a Tensor is not supported")
        return self * (1.0 / float(other))

    def __matmul__(self, other):
        """numpy matmul: a vector operand is a row (left) or column (right); leading axes broadcast."""
        if not isinstance(other, Tensor):
            other = Tensor(other)
        a, b = self.data, other.data
        if a.ndim == 0 or b.ndim == 0:
            raise ValueError("matmul needs operands of at least one axis, got %r @ %r" % (a.shape, b.shape))
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ValueError("matmul shape mismatch: %r @ %r" % (a.shape, b.shape))
        # a right operand shared by every leading index: one GEMM over all of them
        out_d = (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:]) if b.ndim <= 2 else a @ b
        out = Tensor(out_d, (self, other))

        def back(g, x=self, y=other):
            xd = x.data[None] if x.data.ndim == 1 else x.data        # (..., n, k)
            yd = y.data[:, None] if y.data.ndim == 1 else y.data     # (..., k, m)
            if y.data.ndim == 1:
                g = g[..., None]
            if x.data.ndim == 1:
                g = np.expand_dims(g, -2)                            # (..., n, m)
            if yd.ndim == 2:
                g2 = g.reshape(-1, g.shape[-1])
                gx = g2 @ yd.T
                gy = xd.reshape(-1, xd.shape[-1]).T @ g2
            else:
                gx = _unbroadcast(g @ np.swapaxes(yd, -1, -2), xd.shape)
                gy = _unbroadcast(np.swapaxes(xd, -1, -2) @ g, yd.shape)
            x.accumulate(gx.reshape(x.shape))
            y.accumulate(gy.reshape(y.shape))

        out._backward = back
        return out

    def __len__(self):
        return len(self.data)

    def __getitem__(self, index):
        """numpy basic and integer-array indexing; returns a copy. Repeated indices accumulate gradient."""
        data = self.data[index]
        out = Tensor(data.copy() if np.may_share_memory(data, self.data) else data, (self,))

        def back(g, a=self, ix=index):
            if a.grad is None:
                a.grad = np.zeros(a.data.shape)
            np.add.at(a.grad, ix, g)

        out._backward = back
        return out

    # ---- shape ----

    def reshape(self, shape):
        out = Tensor(self.data.reshape(shape), (self,))
        out._backward = lambda g, a=self: a.accumulate(g.reshape(a.shape))
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out = Tensor(self.data.transpose(axes), (self,))
        out._backward = lambda g, a=self: a.accumulate(g.transpose(inv))
        return out

    def sum(self):
        out = Tensor(self.data.sum(), (self,))
        out._backward = lambda g, a=self: a.accumulate(np.broadcast_to(g, a.shape).copy())
        return out

    def __repr__(self):
        return "Tensor(shape=%r)" % (self.shape,)


class Parameter(Tensor):
    """A named leaf tensor tracked by the optimizer.

    grad is always a real array (zeros between steps); trainable=False keeps
    the value fixed under optimization while gradients still flow through it.
    """

    __slots__ = ("name", "trainable")

    def __init__(self, data, name: str, trainable: bool = True):
        super().__init__(data)
        self.name = name
        self.trainable = trainable
        self.grad = np.zeros(self.data.shape)

    def __repr__(self):
        return "Parameter(%r, shape=%r, trainable=%r)" % (self.name, self.shape, self.trainable)


def uniform_fan_init(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---- elementwise / reduction ops ----


def sigmoid_array(xd: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function on a plain array."""
    out_d = np.empty_like(xd)
    pos = xd >= 0
    out_d[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out_d[~pos] = ex / (1.0 + ex)
    return out_d


def sigmoid(x: Tensor) -> Tensor:
    out_d = sigmoid_array(x.data)
    out = Tensor(out_d, (x,))
    out._backward = lambda g, a=x, o=out_d: a.accumulate(g * o * (1.0 - o))
    return out


def tanh(x: Tensor) -> Tensor:
    out_d = np.tanh(x.data)
    out = Tensor(out_d, (x,))
    out._backward = lambda g, a=x, o=out_d: a.accumulate(g * (1.0 - o * o))
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, (x,))

    def back(g, a=x, pv=p):
        a.accumulate(pv * (g - (g * pv).sum(axis=-1, keepdims=True)))

    out._backward = back
    return out


def logsumexp(x: Tensor, axis: int) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=axis, keepdims=True)
    out_d = np.squeeze(m + np.log(z), axis=axis)
    out = Tensor(out_d, (x,))

    def back(g, a=x, p=e / z, ax=axis):
        a.accumulate(p * np.expand_dims(g, ax))

    out._backward = back
    return out


def concat(parts: list) -> Tensor:
    """Concatenate along the last axis; the leading axes must agree."""
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1), tuple(parts))

    def back(g, ps=tuple(parts)):
        at = 0
        for p in ps:
            s = p.data.shape[-1]
            p.accumulate(g[..., at:at + s])
            at += s

    out._backward = back
    return out


def stack_rows(rows) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row; a Tensor passes through unchanged."""
    if isinstance(rows, Tensor):
        return rows
    out = Tensor(np.stack([r.data for r in rows]), tuple(rows))

    def back(g, rs=tuple(rows)):
        for i, r in enumerate(rs):
            r.accumulate(g[i])

    out._backward = back
    return out

