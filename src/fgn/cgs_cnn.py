"""Character graph sequence encoder.

Two 3x3x3 convolutions mix each glyph with its neighbors along the sentence
axis (radius 2 total), then a per-glyph 2D pyramid compresses 50x50 down to a
2x2 four-quadrant structure with 64 channels; a channel-major flatten and 1D
pooling yield a (tau, 64) matrix, one glyph vector per character. tanh follows
every convolution to keep values bounded for the downstream outer product.
Activations stay channels-last, (tau, H, W, C), from the glyph stack to the
2x2 grid: the 3-d convolutions read tau as a spatial axis, the 2-d convs and
pools as a batch axis. The glyph stack enters as a constant array, so no
gradient is computed for raw pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glyphs import GLYPH_SIZE
from .ops import conv, dropout, pool
from .tensor import Parameter, Tensor, tanh, uniform_fan_init

CNN_VARIANTS = ("cgs", "cgs_2d", "cgs_avg")


@dataclass(frozen=True)
class CgsCnnConfig:
    variant: str = "cgs"
    conv3d_channels: int = 8
    tianzige_channels: int = 64
    pyramid_channels: tuple = (16, 32, 64, 64)
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


def encode_sequence(graphs: list, config: CgsCnnConfig, params: dict, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
    """GraphSequence of tau glyphs -> (tau, 64) glyph vectors, one row per character."""
    if len(graphs) == 0:
        raise ValueError("encode_sequence needs at least one graph")
    for i, g in enumerate(graphs):
        if np.shape(g) != (GLYPH_SIZE, GLYPH_SIZE):
            raise ValueError("graph %d has shape %r, need (%d, %d)"
                             % (i, np.shape(g), GLYPH_SIZE, GLYPH_SIZE))
    tau = len(graphs)
    stacked = np.stack([np.asarray(g, dtype=np.float64) for g in graphs])
    x = stacked[..., None]                                # (tau, 50, 50, 1)
    if config.variant != "cgs_2d":
        x = tanh(conv(x, params["cnn/seq_conv1"]))
        x = tanh(conv(x, params["cnn/seq_conv2"]))        # (tau, 50, 50, 8)
    for j in range(1, len(config.pyramid_channels) + 1):
        x = pool(tanh(conv(x, params["cnn/plane_conv%d" % j])), 2, 2, 2)
    x = pool(x, 2, 1, 2)                                  # (tau, 2, 2, 64)
    # channel-major, as the 1-d pool windows of every saved model expect
    x = x.transpose((0, 3, 1, 2)).reshape((tau, 2 * 2 * config.tianzige_channels, 1))
    mode = "avg" if config.variant == "cgs_avg" else "max"
    x = pool(x, config.pool1d_window, config.pool1d_stride, 1, mode).reshape((tau, config.glyph_dim))
    if training and config.dropout_rate > 0.0:
        x = dropout(x, config.dropout_rate, training, rng)
    return x
