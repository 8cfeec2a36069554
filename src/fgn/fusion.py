"""Character/glyph fusion.

Both vectors are cut by an out-of-sync sliding window: different window sizes
and strides per stream, constrained so the two streams yield the same number
of slices. Each slice pair fuses by outer product; slice attention (or a
pooling ablation) combines the n fused vectors into one. Every operation acts
on the trailing axes, so one call fuses one character or a whole sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import pool
from .tensor import Parameter, Tensor, concat, sigmoid, softmax, stack_rows, uniform_fan_init

FUSION_VARIANTS = ("slice_attention", "avg_pool", "max_pool", "concat")


@dataclass(frozen=True)
class WindowSpec:
    d_char: int
    k_char: int
    s_char: int
    d_glyph: int
    k_glyph: int
    s_glyph: int


def validate_window(spec: WindowSpec) -> int:
    """Return the shared slice count n, or reject the spec."""
    for field in ("d_char", "k_char", "s_char", "d_glyph", "k_glyph", "s_glyph"):
        if getattr(spec, field) < 1:
            raise ValueError("window field %s must frame a positive size, got %r"
                             % (field, getattr(spec, field)))
    if spec.k_char > spec.d_char or spec.k_glyph > spec.d_glyph:
        raise ValueError("window size exceeds its vector: k_char %d over d_char %d, k_glyph %d over d_glyph %d"
                         % (spec.k_char, spec.d_char, spec.k_glyph, spec.d_glyph))
    qc, rc = divmod(spec.d_char - spec.k_char, spec.s_char)
    qg, rg = divmod(spec.d_glyph - spec.k_glyph, spec.s_glyph)
    nc = "%d+%d/%d" % (qc + 1, rc, spec.s_char) if rc else "%d" % (qc + 1)
    ng = "%d+%d/%d" % (qg + 1, rg, spec.s_glyph) if rg else "%d" % (qg + 1)
    if rc or rg or qc != qg:
        raise ValueError("sliding windows disagree: character stream yields %s slices, glyph stream yields %s"
                         % (nc, ng))
    return qc + 1


@dataclass
class FusionParams:
    score_weight: Parameter   # (D, D) over fused slices, D = k_char*k_glyph
    score_bias: Parameter     # (D,)
    query: Parameter          # (D,)

    def parameters(self) -> list:
        return [self.score_weight, self.score_bias, self.query]


def init_fusion_params(dim: int, rng: np.random.Generator) -> FusionParams:
    return FusionParams(
        score_weight=Parameter(uniform_fan_init(rng, (dim, dim), dim, dim), name="fusion/score_weight"),
        score_bias=Parameter(np.zeros(dim), name="fusion/score_bias"),
        query=Parameter(np.zeros(dim), name="fusion/query"),
    )


def slice_attention(slices, params: FusionParams) -> tuple:
    """Score each fused slice against a sigmoided query; softmax-average them.

    slices: a list of n D-vectors, or a (..., n, D) Tensor. Returns (fusion
    vector (..., D), attention weights (..., n) as a plain array).
    """
    dim = params.score_bias.data.shape[0]
    m = stack_rows(slices)                                    # (..., n, D)
    if m.data.ndim < 2 or m.data.shape[-1] != dim:
        raise ValueError("slices have shape %r, attention params expect (..., n, %d)" % (m.shape, dim))
    n = m.data.shape[-2]
    gates = sigmoid(m @ params.score_weight.transpose((1, 0)) + params.score_bias)
    weights = softmax(gates @ sigmoid(params.query))          # (..., n)
    fused = weights.reshape(weights.shape[:-1] + (1, n)) @ m  # (..., 1, D)
    return fused.reshape(m.shape[:-2] + (dim,)), weights.data.copy()


def fuse_character(c_v: Tensor | np.ndarray, g_v: Tensor, spec: WindowSpec, params: FusionParams | None,
                   variant: str = "slice_attention", include_parts: bool = True) -> Tensor:
    """Fused representation of one character, or of every character of a sentence at once.

    c_v (..., d_char) and g_v (..., d_glyph) share their leading axes: none for
    one character, (tau,) for a sentence; the output keeps them. A plain-array
    c_v (file-backed vectors) is a constant and gets no gradient. include_parts
    appends the raw character and glyph vectors around the fusion vector; with
    it off the output is the fusion vector alone. concat skips fusion entirely
    and returns [c_v, g_v].
    """
    if variant not in FUSION_VARIANTS:
        raise ValueError("fusion variant must be one of %s, got %r"
                         % (", ".join(FUSION_VARIANTS), variant))
    if variant == "concat":
        return concat([c_v, g_v])
    n = validate_window(spec)
    if c_v.shape[-1] != spec.d_char or g_v.shape[-1] != spec.d_glyph:
        raise ValueError("vectors of width %d (character) and %d (glyph) do not match the window spec's %d and %d"
                         % (c_v.shape[-1], g_v.shape[-1], spec.d_char, spec.d_glyph))
    windows = np.arange(n)[:, None]
    c_s = c_v[..., spec.s_char * windows + np.arange(spec.k_char)]     # (..., n, k_char)
    g_s = g_v[..., spec.s_glyph * windows + np.arange(spec.k_glyph)]   # (..., n, k_glyph)
    lead = c_s.shape[:-1]                                               # (..., n)
    # outer product of each slice pair, flattened row-major
    m = (c_s.reshape(lead + (spec.k_char, 1)) * g_s.reshape(lead + (1, spec.k_glyph))
         ).reshape(lead + (spec.k_char * spec.k_glyph,))                # (..., n, D)
    if variant == "slice_attention":
        if params is None:
            raise ValueError("slice_attention needs FusionParams")
        f_v, _ = slice_attention(m, params)
    elif variant == "avg_pool":
        f_v = (np.ones(n) / n) @ m
    else:   # max over the n slices: a pool whose one window spans axis -2
        f_v = pool(m, n, 1, 1).reshape(m.shape[:-2] + m.shape[-1:])
    if include_parts:
        return concat([c_v, g_v, f_v])
    return f_v
