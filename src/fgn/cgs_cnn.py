"""Character graph sequence encoder.

Two 3x3x3 convolutions mix each glyph with its neighbors along the sentence
axis (radius 2 total), then a per-glyph 2D pyramid compresses 50x50 down to a
2x2 four-quadrant structure with 64 channels; a channel-major flatten and 1D
pooling yield a (tau, 64) matrix, one glyph vector per character. tanh follows
every convolution to keep values bounded for the downstream outer product.
Activations stay channels-last, (tau, H, W, C), from the glyph stack to the
2x2 grid: the 3-d convolutions read tau as a spatial axis, the 2-d convs and
pools as a batch axis. Each 3-d conv runs as one 2-d im2col over (H, W) with
its three taps along tau stacked as output channels, then sums the shifted
rows (ops.conv), so its im2col has 9 C_in columns, not 27 C_in. The glyphs
enter as one constant (tau, 50, 50) array, so no gradient is computed for them.

While a graph is recorded (training, gradient checks) the whole sentence is
encoded at once, and so is a sentence of at most CHUNK glyphs. Under no_grad
(decoding) a longer sentence is cut into one contiguous region per thread,
run through tensor.threaded_map on one thread per CPU this process may use, at
most CHUNK // (4 * HALO) = 2. Each thread streams its region through the two
3-d convs (_SeqConv) one piece of rows at a time, so each row is mixed once: a
conv computes the stacked-tap output z of each input row once, and output row
t is z[t, centre] + z[t - 1, tap 0] + z[t + 1, tap 2], added in _corr_folded's
order. Between pieces it carries two planes: the last row's tap-0 plane, and
that row's output, which still waits for the next row's tap 2. Only the two
ends of a region read HALO = 2 extra input rows, whose mixed rows, having seen
zero padding in place of their true neighbours, are dropped; at the ends of
the sentence the zero padding is the whole-sentence conv's own. So the result
is the recorded encode's bit for bit, not an approximation.

The input pieces and the pyramid's pieces are near-equal runs of at most
CHUNK // workers = 8 rows, so no GEMM reads fewer than 4 glyphs unless the
region is shorter: OpenBLAS runs a GEMM of a few rows through another kernel,
whose bits can differ from the whole sentence's. The convs' lag shortens a
region's first mixed rows, so they wait in a small buffer, and the pyramid
runs on its own cuts of the region. In flight per thread: one piece and two
planes per conv. cgs_2d, which mixes nothing, feeds its regions' glyphs to the
pyramid in the same cuts. Each region writes its own rows of the output.
Dropout, given a generator, runs once on the assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glyphs import GLYPH_SIZE
from .ops import _corr_same, _stack_taps, conv, dropout, pool
from .tensor import Parameter, Tensor, is_recording, tanh, threaded_map, uniform_fan_init, usable_cpus

CNN_VARIANTS = ("cgs", "cgs_2d", "cgs_avg")
# Outside a recorded graph a sentence of more than CHUNK glyphs is encoded in
# pieces, which bounds the im2col buffers. Row t of the second sequence conv reads
# rows t-1..t+1 of the first, and each of those reads input rows one further out, so
# a region [a, b) is exact from input rows [a - HALO, b + HALO) with HALO = 2 convs x radius 1.
CHUNK = 16
HALO = 2


@dataclass(frozen=True)
class CgsCnnConfig:
    variant: str = "cgs"
    conv3d_channels: int = 8
    tianzige_channels: int = 64
    pyramid_channels: tuple[int, ...] = (16, 32, 64, 64)
    pool1d_window: int = 4
    pool1d_stride: int = 4
    dropout_rate: float = 0.2

    def __post_init__(self):
        if self.variant not in CNN_VARIANTS:
            raise ValueError("cnn variant must be one of %s, got %r" % (", ".join(CNN_VARIANTS), self.variant))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("cnn dropout_rate must be in [0, 1), got %r" % (self.dropout_rate,))
        if self.conv3d_channels < 1 or self.tianzige_channels < 1:
            raise ValueError("channel counts must be positive")
        if len(self.pyramid_channels) != 4:
            raise ValueError("the 2D pyramid has 4 conv+pool groups, got %d channel entries"
                             % len(self.pyramid_channels))
        if self.pyramid_channels[-1] != self.tianzige_channels:
            raise ValueError("last pyramid stage must emit tianzige_channels=%d, got %d"
                             % (self.tianzige_channels, self.pyramid_channels[-1]))
        flat = 2 * 2 * self.tianzige_channels
        if (flat - self.pool1d_window) % self.pool1d_stride != 0:
            raise ValueError("pool1d window/stride do not tile the %d-d flattened structure" % flat)
        if self.glyph_dim != 64:
            raise ValueError("glyph vectors must come out 64-d, got %d" % self.glyph_dim)

    @property
    def glyph_dim(self) -> int:
        flat = 2 * 2 * self.tianzige_channels
        return (flat - self.pool1d_window) // self.pool1d_stride + 1


def init_cgs_params(config: CgsCnnConfig, rng: np.random.Generator) -> dict:
    """Kernel parameters keyed by name, in a fixed creation order."""
    params: dict[str, Parameter] = {}

    def kernel(name, c_out, c_in, *extent):
        vol = int(np.prod(extent))
        p = Parameter(uniform_fan_init(rng, (c_out, c_in) + extent, c_in * vol, c_out * vol), name=name)
        params[name] = p
        return p

    if config.variant == "cgs_2d":
        c_in = 1
    else:
        kernel("cnn/seq_conv1", config.conv3d_channels, 1, 3, 3, 3)
        kernel("cnn/seq_conv2", config.conv3d_channels, config.conv3d_channels, 3, 3, 3)
        c_in = config.conv3d_channels
    for j, c_out in enumerate(config.pyramid_channels, start=1):
        kernel("cnn/plane_conv%d" % j, c_out, c_in, 3, 3)
        c_in = c_out
    return params


def _mix(x, config: CgsCnnConfig, params: dict):
    """The two 3-d convs that mix each glyph with its neighbours; cgs_2d mixes nothing."""
    if config.variant == "cgs_2d":
        return x
    x = tanh(conv(x, params["cnn/seq_conv1"]))
    return tanh(conv(x, params["cnn/seq_conv2"]))       # (n, 50, 50, 8)


def _glyph_vectors(x, config: CgsCnnConfig, params: dict) -> Tensor:
    """The per-glyph 2-d pyramid and 1-d pool: (n, 50, 50, C) -> (n, 64)."""
    n = x.shape[0]
    for j in range(1, len(config.pyramid_channels) + 1):
        x = pool(tanh(conv(x, params["cnn/plane_conv%d" % j])), 2, 2, 2)
    x = pool(x, 2, 1, 2)                                  # (n, 2, 2, 64)
    # channel-major, as the 1-d pool windows of every saved model expect
    x = x.transpose((0, 3, 1, 2)).reshape((n, 2 * 2 * config.tianzige_channels, 1))
    mode = "avg" if config.variant == "cgs_avg" else "max"
    return pool(x, config.pool1d_window, config.pool1d_stride, 1, mode).reshape((n, config.glyph_dim))


class _SeqConv:
    """One 3-d sequence conv and its tanh, fed the rows of a sentence a piece at a time.

    Row t of the output is z[t, centre] + z[t - 1, tap 0] + z[t + 1, tap 2],
    with z the stacked-tap output of _corr_folded, added in its order: tap 0,
    then tap 2. The first row fed sees zero padding in place of a tap 0.
    """

    def __init__(self, kernels: Parameter):
        self.kernel = _stack_taps(kernels.data)
        self.tap0 = self.waiting = None     # the last row's tap-0 plane, and its output without tap 2

    def feed(self, x: np.ndarray, ends: bool) -> np.ndarray:
        """The output rows x finishes: the one that waited, then x's own, but its last unless x ends the sentence."""
        z = _corr_same(x, self.kernel)[0]
        z = z.reshape(z.shape[:-1] + (3, -1))
        held = self.waiting is not None
        y = np.concatenate(([self.waiting] if held else []) + [z[..., 1, :]])
        if held:
            y[1] += self.tap0
        y[held + 1:] += z[:-1, ..., 0, :]
        y[:-1] += z[1 - held:, ..., 2, :]
        if not ends:
            self.tap0, self.waiting = z[-1, ..., 0, :].copy(), y[-1:].copy()
            y = y[:-1]
        return np.tanh(y, out=y)


def _cuts(a: int, b: int, most: int) -> list:
    """[a, b) as the fewest near-equal (start, stop) runs of at most `most` rows."""
    n = -(-(b - a) // most)
    return [(a + (b - a) * i // n, a + (b - a) * (i + 1) // n) for i in range(n)]


def long_sentence(tau: int) -> bool:
    """Whether a no-grad encode of tau glyphs runs on threads, so its decode keeps BLAS in the calling thread."""
    return tau > CHUNK


def encode_sequence(graphs, config: CgsCnnConfig, params: dict,
                    rng: np.random.Generator | None = None) -> Tensor:
    """(tau, 50, 50) glyphs -> (tau, 64) glyph vectors, one row per character; rng, if given, draws dropout."""
    graphs = np.asarray(graphs, dtype=np.float64)
    if graphs.shape[1:] != (GLYPH_SIZE, GLYPH_SIZE) or len(graphs) == 0:
        raise ValueError("glyphs have shape %r, need (tau > 0, %d, %d)" % (graphs.shape, GLYPH_SIZE, GLYPH_SIZE))
    tau = len(graphs)
    stacked = graphs[..., None]                           # (tau, 50, 50, 1)
    if is_recording() or not long_sentence(tau):
        x = _glyph_vectors(_mix(stacked, config, params), config, params)
    else:
        out = np.empty((tau, config.glyph_dim))
        workers = min(usable_cpus(), CHUNK // (4 * HALO))
        piece = CHUNK // workers
        halo = 0 if config.variant == "cgs_2d" else HALO

        def encode_region(span):
            a, b = span
            lo, hi = max(a - halo, 0), min(b + halo, tau)
            convs = [_SeqConv(params[name]) for name in ("cnn/seq_conv1", "cnn/seq_conv2") if halo]
            cuts, mixed, at = _cuts(a, b, piece), None, lo      # mixed holds the mixed rows from row `at` on
            for s, e in _cuts(lo, hi, piece):
                x = stacked[s:e]
                for c in convs:
                    x = c.feed(x, e == tau)
                mixed = x if mixed is None else np.concatenate((mixed, x))
                while cuts and cuts[0][1] <= at + len(mixed):
                    c0, c1 = cuts.pop(0)
                    out[c0:c1] = _glyph_vectors(mixed[c0 - at:c1 - at], config, params).data
                    mixed, at = mixed[c1 - at:], c1

        threaded_map(encode_region, _cuts(0, tau, -(-tau // workers)), workers)
        x = Tensor(out)
    return dropout(x, config.dropout_rate, rng)
