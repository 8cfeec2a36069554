"""Reverse-mode autodiff over numpy float64 arrays.

Tensors are differentiable; plain arrays (and scalars) are constants, and a
value held fixed, such as a frozen table's rows, is a plain array: every
Parameter is trained. Every op builds its output with Tensor(data, operands,
backward), the one place that makes graph edges: Tensor operands become the
parents and constants are dropped, so backward computes no gradient for them.
Any op takes a constant on either side; `ndarray <op> Tensor` defers to the
Tensor. backward() runs the recorded closures in reverse topological order,
accumulating into .grad, which a node allocates at its first gradient unless
it holds a spare, the buffer an optimizer read a Parameter's gradient from
and handed back: the first gradient is written into it, and
accumulate_product(a, b) runs the GEMM of a @ b with it as the output. Then
it spends the graph: every closure and parent link goes, freeing what they
hold, and each node that had them is marked spent, so it is never taken for
a leaf. A later backward() whose graph reaches a spent node raises before it
writes any gradient, whether from the same root (which would double the
gradients) or from another root sharing nodes with the spent graph (whose
gradient would stop there).

Inside a no_grad() scope nothing is recorded: every node the constructor
builds keeps no parents and no closure, so the buffers a backward would read
(im2col rows, gate activations) die with the op that made them. Decoding runs
there; backward() refuses to run inside the scope or from a node that has no
graph.

threaded_map() is the one place that runs threads of our own: the glyph
encoder's regions of a long sentence and Adam's row runs. They need the cores
to themselves, so it sets the thread count of numpy's bundled OpenBLAS to 1
for the map and restores it on exit. Setting the count is not enough on its
own: after a multi-threaded call, OpenBLAS's idle workers spin for about 2^28
cycles (~0.13 s) before they sleep, whatever the count is set to later. So
when the count it finds is above 1, as after the backward's last GEMM, it
first calls OpenBLAS's exported blas_thread_shutdown_, which makes the workers
exit at once; the next multi-threaded BLAS call starts them again (~0.1 ms).
The first restart allocates one more OpenBLAS buffer, about 34 MB of RSS once;
later restarts reuse it. The shutdown joins the workers and frees their
state, so it must not run while another thread is inside BLAS. Where that
symbol is missing, the items run in turn.

one_blas_thread() pins every BLAS call of a scope. A long decode runs in one
from its start, since its fusion and LSTM GEMMs would otherwise wake workers
to spin on the cores its encoder's threads need; so the encoder's map finds a
count of 1, stops no worker, and the decode pays for no restart.

usable_cpus() is the one count of the CPUs this process may run on.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

_recording = True

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_buffers() -> None:
    """Let malloc hand the buffers a dropped graph frees to the next step, not back to the kernel.

    A training step allocates tens of MB of im2col rows and activations and frees
    them when its graph goes. glibc's adaptive thresholds return much of that to
    the kernel at once (heap trim, one mmap per large buffer), so the next step
    page-faults it in again: 5000-9000 faults, up to a quarter of a default step.
    Fixed thresholds keep buffers of up to 32 MB (the most glibc allows) on the
    heap and up to 128 MB of free heap for reuse. One arena serves every thread:
    with an arena per thread, each region thread of the glyph encoder keeps its
    own freed buffers, and a long decode peaked a third higher or more. No-op off glibc.
    """
    try:
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "gnu_get_libc_version"):
            return
    except (OSError, TypeError):
        return
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    libc.mallopt(_M_ARENA_MAX, 1)


_keep_freed_buffers()

# (get, set) names of the thread-count functions, by OpenBLAS build: numpy's
# scipy-openblas wheels, other 64-bit-integer builds, plain builds
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set, shutdown) of numpy's bundled OpenBLAS, or None if there is none.

    get and set are the thread-count functions; shutdown is blas_thread_shutdown_,
    or None where the library does not export it.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)     # numpy has it loaded: this finds the same copy
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return get, put, shutdown
    return None


@contextmanager
def one_blas_thread():
    """Run the BLAS calls of the scope in the calling thread; the count returns on exit, also on an exception.

    Scopes nest; where no OpenBLAS is found, the scope changes nothing. The
    count is one for the whole process, not one per thread.
    """
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, put, _ = control
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def threaded_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a pool of `workers` threads with BLAS held to each one.

    Threads run only for workers > 1 with OpenBLAS thread control, and, where
    the count on entry is above 1, its blas_thread_shutdown_; otherwise the
    items run in turn in the calling thread. The count returns on exit, also on
    an exception, which reaches the caller once the pool has joined.
    """
    control = _openblas_threads() if workers > 1 else None
    if control is None:
        return [fn(item) for item in items]
    get, put, shutdown = control
    saved = get()
    if saved > 1 and shutdown is None:
        return [fn(item) for item in items]
    put(1)
    try:
        if saved > 1:
            shutdown()
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(fn, items))
    finally:
        put(saved)


@contextmanager
def no_grad():
    """Record no graph inside the scope; the previous state returns on exit, also on an exception.

    The state is one flag for the whole process, not one per thread.
    """
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def is_recording() -> bool:
    """False inside a no_grad() scope."""
    return _recording


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def _value(x) -> np.ndarray:
    """The array of a Tensor, or a constant as a float64 array."""
    return x.data if isinstance(x, Tensor) else _as_f64(x)


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
    __slots__ = ("data", "grad", "_spare", "_parents", "_backward", "_spent")
    # numpy operators return NotImplemented, so `ndarray <op> Tensor` runs the Tensor's reflected op
    __array_ufunc__ = None

    def __init__(self, data, operands=(), backward=None):
        """backward(g) accumulates the output gradient g into the Tensor operands."""
        self.data = _as_f64(data)
        self.grad = self._spare = None
        self._spent = False
        if _recording:
            self._parents = tuple(o for o in operands if isinstance(o, Tensor))
            self._backward = backward
        else:
            self._parents, self._backward = (), None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        # grads are always C-ordered buffers of their own, whatever the data's
        # layout: g may be a view of another node's gradient
        if self.grad is not None:
            self.grad += g
        elif self._spare is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad, self._spare = self._spare, None
            np.copyto(self.grad, g)

    def accumulate_product(self, a: np.ndarray, b: np.ndarray) -> None:
        """accumulate(a @ b) for 2-d a and b: a first gradient is the GEMM's own output, in the spare if any."""
        if self.grad is None:
            self.grad, self._spare = np.matmul(a, b, out=self._spare), None
        else:
            self.grad += a @ b

    def backward(self) -> None:
        if self.data.shape != ():
            raise ValueError("backward() starts from a scalar, got shape %r" % (self.shape,))
        if not _recording:
            raise RuntimeError("backward() inside a no_grad scope: no graph is recorded there")
        if not self._parents and self._backward is None:
            raise RuntimeError("backward() from a node with no graph: a constant, a value built under "
                               "no_grad, or a root an earlier backward() spent has none to propagate")
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
            if node._spent:
                raise RuntimeError("backward() reached a node an earlier backward() spent: build the "
                                   "graph anew for each backward()")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate(np.ones(()))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # spend the graph after the last closure: closures freed node by node, amid the
        # gradient allocations, left a heap on which each later decode page-faulted
        for node in order:
            if node._parents or node._backward is not None:
                node._backward, node._parents, node._spent = None, (), True

    # ---- arithmetic ----

    def __add__(self, other):
        b = _value(other)

        def back(g):
            self.accumulate(_unbroadcast(g, self.shape))
            if isinstance(other, Tensor):
                other.accumulate(_unbroadcast(g, b.shape))

        return Tensor(self.data + b, (self, other), back)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.data, _value(other)

        def back(g):
            self.accumulate(_unbroadcast(g * b, a.shape))
            if isinstance(other, Tensor):
                other.accumulate(_unbroadcast(g * a, b.shape))

        return Tensor(a * b, (self, other), back)

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
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, index):
        """numpy basic and integer-array indexing; returns a copy. Repeated indices accumulate gradient."""
        data = self.data[index]

        def back(g):
            if self.grad is None and self._spare is not None:
                self.grad, self._spare = self._spare, None
                self.grad.fill(0.0)
            elif self.grad is None:
                self.grad = np.zeros(self.data.shape)
            np.add.at(self.grad, index, g)

        return Tensor(data.copy() if np.may_share_memory(data, self.data) else data, (self,), back)

    # ---- shape ----

    def reshape(self, shape):
        return Tensor(self.data.reshape(shape), (self,), lambda g: self.accumulate(g.reshape(self.shape)))

    def transpose(self, axes):
        inv = tuple(np.argsort(axes))
        return Tensor(self.data.transpose(axes), (self,), lambda g: self.accumulate(g.transpose(inv)))

    def sum(self):
        return Tensor(self.data.sum(), (self,),
                      lambda g: self.accumulate(np.broadcast_to(g, self.shape).copy()))

    def __repr__(self):
        return "Tensor(shape=%r)" % (self.shape,)


class Parameter(Tensor):
    """A named leaf tensor, updated by every optimizer step.

    Like any node it has no gradient until one reaches it. The optimizer reads
    the gradient, then hands the buffer back as the spare: grad is None again,
    and the next step's first gradient is written into the spare, not into a new
    array. Adam reads a missing gradient as zero, so a Parameter no loss
    reaches stays where it is.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return "Parameter(%r, shape=%r)" % (self.name, self.shape)


def uniform_fan_init(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---- elementwise / reduction ops ----


def sigmoid_array(xd: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function on a plain array: exp(-|x|) never overflows."""
    e = np.exp(-np.abs(xd))
    return np.where(xd >= 0, 1.0, e) / (1.0 + e)


def matmul(x, y) -> Tensor:
    """numpy matmul: a vector operand is a row (left) or column (right); leading axes broadcast.

    Either operand may be a constant array; it gets no gradient.
    """
    a, b = _value(x), _value(y)
    if a.ndim == 0 or b.ndim == 0:
        raise ValueError("matmul needs operands of at least one axis, got %r @ %r" % (a.shape, b.shape))
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ValueError("matmul shape mismatch: %r @ %r" % (a.shape, b.shape))
    # a right operand shared by every leading index: one GEMM over all of them
    out_d = (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:]) if b.ndim <= 2 else a @ b

    def back(g):
        xd = a[None] if a.ndim == 1 else a            # (..., n, k)
        yd = b[:, None] if b.ndim == 1 else b         # (..., k, m)
        if b.ndim == 1:
            g = g[..., None]
        if a.ndim == 1:
            g = np.expand_dims(g, -2)                 # (..., n, m)
        if isinstance(x, Tensor):
            gx = (g.reshape(-1, g.shape[-1]) @ yd.T if yd.ndim == 2
                  else _unbroadcast(g @ np.swapaxes(yd, -1, -2), xd.shape))
            x.accumulate(gx.reshape(a.shape))
        if isinstance(y, Tensor) and b.ndim == 2:
            y.accumulate_product(xd.reshape(-1, xd.shape[-1]).T, g.reshape(-1, g.shape[-1]))
        elif isinstance(y, Tensor):
            gy = (xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, 1) if b.ndim == 1
                  else _unbroadcast(np.swapaxes(xd, -1, -2) @ g, yd.shape))
            y.accumulate(gy.reshape(b.shape))

    return Tensor(out_d, (x, y), back)


def sigmoid(x: Tensor) -> Tensor:
    o = sigmoid_array(x.data)
    return Tensor(o, (x,), lambda g: x.accumulate(g * o * (1.0 - o)))


def tanh(x: Tensor) -> Tensor:
    o = np.tanh(x.data)
    return Tensor(o, (x,), lambda g: x.accumulate(g * (1.0 - o * o)))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return Tensor(p, (x,), lambda g: x.accumulate(p * (g - (g * p).sum(axis=-1, keepdims=True))))


def concat(parts: list) -> Tensor:
    """Concatenate along the last axis; the leading axes must agree. Plain-array parts are constants."""
    parts = tuple(parts)
    datas = [_value(p) for p in parts]

    def back(g):
        at = 0
        for p, d in zip(parts, datas):
            if isinstance(p, Tensor):
                p.accumulate(g[..., at:at + d.shape[-1]])
            at += d.shape[-1]

    return Tensor(np.concatenate(datas, axis=-1), parts, back)


def stack_rows(rows) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row; a Tensor passes through unchanged."""
    if isinstance(rows, Tensor):
        return rows
    rows = tuple(rows)

    def back(g):
        for i, r in enumerate(rows):
            r.accumulate(g[i])

    return Tensor(np.stack([r.data for r in rows]), rows, back)
