"""Named gradient checks behind `fgn gradcheck`.

Every check builds a deterministic scalar loss over Parameters (inputs are
wrapped as Parameters so their gradients are verified too) and runs the
finite-difference comparison. Fixed random direction vectors mix gradient
signs so sign errors cannot cancel in the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgs_cnn import CgsCnnConfig, encode_sequence, init_cgs_params
from .config import default_config
from .corpus import TaggedSentence
from .fusion import WindowSpec, fuse_character, init_fusion_params
from .glyphs import GlyphAtlas
from .gradcheck import GradCheckReport, grad_check
from .model import FgnModel
from .ops import conv, dropout, lstm_sequence, lstm_step, pool
from .ops import init_lstm_params
from .tagger import (LabelScheme, TaggerParams, bilstm_encode, init_crf_params,
                     nll_loss)
from .tensor import Parameter, Tensor, sigmoid, softmax, tanh


@dataclass
class CheckSpec:
    name: str
    modules: tuple      # which CLI module selections include this check
    build: callable
    tolerance: float = 1e-4
    max_coords: int | None = None


def _p(rng, shape, name):
    return Parameter(rng.standard_normal(shape), name=name)


def _dot(x: Tensor, direction: np.ndarray) -> Tensor:
    return (x * Tensor(direction)).sum()


def _build_sigmoid():
    rng = np.random.default_rng(101)
    x = _p(rng, (5,), "x")
    return (lambda: sigmoid(x).sum()), [x]


def _build_tanh():
    rng = np.random.default_rng(102)
    x = _p(rng, (6,), "x")
    r = rng.standard_normal(6)
    return (lambda: _dot(tanh(x), r)), [x]


def _build_softmax():
    rng = np.random.default_rng(103)
    x = _p(rng, (5,), "x")
    r = rng.standard_normal(5)
    return (lambda: _dot(softmax(x), r)), [x]


def _build_getitem_gather():
    rng = np.random.default_rng(104)
    x = _p(rng, (4, 6), "x")
    windows = 2 * np.arange(3)[:, None] + np.arange(2)
    r1 = rng.standard_normal((4, 3, 2))
    r2 = rng.standard_normal((3, 6))
    r3 = rng.standard_normal(4)
    # strided windows, a row gather with a repeat, and one column
    return (lambda: _dot(x[..., windows], r1) + _dot(x[np.array([2, 0, 2])], r2)
            + _dot(x[:, 5], r3)), [x]


def _build_dropout():
    rng = np.random.default_rng(105)
    x = _p(rng, (4, 5), "x")
    r = rng.standard_normal((4, 5))
    return (lambda: _dot(dropout(x, 0.3, True, np.random.default_rng(77)), r)), [x]


def _build_conv(seed: int, rank: int):
    """Gradients of conv over `rank` spatial axes, with one leading batch axis."""
    def build():
        rng = np.random.default_rng(seed)
        shape = (2,) + (3, 6, 6)[-rank:]
        x = _p(rng, shape + (2,), "x")
        k = _p(rng, (3, 2) + (3,) * rank, "k")
        r = rng.standard_normal(shape + (3,))
        return (lambda: _dot(conv(x, k), r)), [x, k]
    return build


def _build_pool(seed: int, rank: int):
    """Gradients of pool over `rank` spatial axes: 4/3 max and avg for 1, overlapping 3/1 and 2/2 max for 2."""
    shape, cases = {1: ((11, 1), ((4, 3, "max"), (4, 3, "avg"))),
                    2: ((6, 6, 2), ((2, 2, "max"), (3, 1, "max")))}[rank]

    def build():
        rng = np.random.default_rng(seed)
        x = _p(rng, shape, "x")
        dirs = [rng.standard_normal(pool(x, w, s, rank, m).shape) for w, s, m in cases]
        return (lambda: sum(_dot(pool(x, w, s, rank, m), d) for (w, s, m), d in zip(cases, dirs))), [x]
    return build


def _build_encode_sequence():
    rng = np.random.default_rng(110)
    config = CgsCnnConfig(dropout_rate=0.0)
    params = init_cgs_params(config, np.random.default_rng(0))
    graphs = [rng.random((50, 50)) for _ in range(2)]
    dirs = rng.standard_normal((2, 64))
    return (lambda: _dot(encode_sequence(graphs, config, params, training=False), dirs)), \
        list(params.values())


def _build_lstm_step():
    rng = np.random.default_rng(111)
    cell = init_lstm_params(4, 4, np.random.default_rng(1), "cell")
    for p in cell.parameters():
        p.data[...] = rng.standard_normal(p.data.shape)
    x = _p(rng, (4,), "x")
    h0 = _p(rng, (4,), "h0")
    c0 = _p(rng, (4,), "c0")
    rh = rng.standard_normal(4)
    rc = rng.standard_normal(4)

    def loss():
        h, c = lstm_step(x, h0, c0, cell)
        return _dot(h, rh) + _dot(c, rc)

    return loss, cell.parameters() + [x, h0, c0]


def _build_lstm_sequence(reverse: bool):
    def build():
        rng = np.random.default_rng(115)
        cell = init_lstm_params(4, 3, np.random.default_rng(7), "cell")
        for p in cell.parameters():
            p.data[...] = rng.standard_normal(p.data.shape)
        x = _p(rng, (5, 4), "x")
        r = rng.standard_normal((5, 3))
        return (lambda: _dot(lstm_sequence(x, cell, reverse), r)), cell.parameters() + [x]
    return build


def _build_fusion(seed: int, lead: tuple):
    """Fusion of one character (lead ()) or of a sentence (lead (tau,)) in one call."""
    def build():
        rng = np.random.default_rng(seed)
        spec = WindowSpec(d_char=8, k_char=4, s_char=2, d_glyph=4, k_glyph=2, s_glyph=1)
        params = init_fusion_params(8, np.random.default_rng(2))
        for p in params.parameters():
            p.data[...] = rng.standard_normal(p.data.shape)
        c_v = _p(rng, lead + (8,), "c_v")
        g_v = _p(rng, lead + (4,), "g_v")
        r = rng.standard_normal(lead + (8 + 4 + 8,))

        def loss():
            return _dot(fuse_character(c_v, g_v, spec, params, "slice_attention"), r)

        return loss, params.parameters() + [c_v, g_v]
    return build


def _build_bilstm_crf():
    rng = np.random.default_rng(113)
    fwd = init_lstm_params(5, 4, np.random.default_rng(3), "fwd")
    bwd = init_lstm_params(5, 4, np.random.default_rng(4), "bwd")
    tg = TaggerParams(variant="bilstm", forward_cell=fwd, backward_cell=bwd)
    crf = init_crf_params(3, 4, np.random.default_rng(5))
    for p in tg.parameters() + crf.parameters():
        p.data[...] = 0.5 * rng.standard_normal(p.data.shape)
    x = _p(rng, (3, 5), "x")
    y = [1, 0, 2]

    def loss():
        return nll_loss([(bilstm_encode(x, tg), y)], crf)

    return loss, tg.parameters() + crf.parameters() + [x]


def _build_crf_passthrough():
    rng = np.random.default_rng(114)
    scheme = LabelScheme.from_entity_types(["PER"])
    crf = init_crf_params(scheme.label_count, 4, np.random.default_rng(6))
    for p in crf.parameters():
        p.data[...] = 0.5 * rng.standard_normal(p.data.shape)
    hs = [_p(rng, (4,), "h%d" % t) for t in range(3)]
    y = [scheme.label_index(lab) for lab in ("B-PER", "E-PER", "O")]
    return (lambda: nll_loss([(hs, y)], crf, scheme)), crf.parameters() + hs


def _build_full_fgn():
    from dataclasses import replace
    base = default_config()
    config = replace(base, cnn=replace(base.cnn, dropout_rate=0.0),
                     tagger=replace(base.tagger, dropout_rate=0.0))
    scheme = LabelScheme.from_entity_types(["PER"])
    atlas = GlyphAtlas(fallback_seed=5)   # fallback glyphs: continuous, no pooling ties
    sentence = TaggedSentence("甲乙丙", ("S-PER", "O", "O"), 0)
    model = FgnModel(config, scheme, tuple("甲乙丙"), atlas)

    def loss():
        return model.loss([sentence], training=False)

    return loss, model.parameters()


CHECKS = (
    CheckSpec("sigmoid_sum", (), _build_sigmoid, tolerance=1e-6),
    CheckSpec("tanh", (), _build_tanh),
    CheckSpec("softmax", (), _build_softmax),
    CheckSpec("getitem_gather", (), _build_getitem_gather),
    CheckSpec("dropout_fixed_mask", (), _build_dropout),
    CheckSpec("conv_2d_batched", ("cnn",), _build_conv(106, 2)),
    CheckSpec("conv_3d_batched", ("cnn",), _build_conv(107, 3)),
    CheckSpec("pool_1d_max_avg", ("cnn",), _build_pool(109, 1)),
    CheckSpec("pool_2d_max", ("cnn",), _build_pool(108, 2)),
    CheckSpec("encode_sequence", ("cnn",), _build_encode_sequence, max_coords=4),
    CheckSpec("lstm_step", ("tagger",), _build_lstm_step),
    CheckSpec("lstm_sequence", ("tagger",), _build_lstm_sequence(False)),
    CheckSpec("lstm_sequence_reverse", ("tagger",), _build_lstm_sequence(True)),
    CheckSpec("fuse_character_attention", ("fusion",), _build_fusion(112, ())),
    CheckSpec("fuse_sentence_attention", ("fusion",), _build_fusion(116, (3,))),
    CheckSpec("bilstm_crf_nll", ("tagger",), _build_bilstm_crf),
    CheckSpec("crf_passthrough_masked", ("tagger",), _build_crf_passthrough),
    CheckSpec("full_fgn_loss", ("full",), _build_full_fgn, max_coords=3),
)


def run_checks(module: str = "all") -> list:
    """Run the selected checks; returns (name, GradCheckReport) pairs."""
    if module not in ("all", "cnn", "fusion", "tagger"):
        raise ValueError("gradcheck module must be all, cnn, fusion or tagger, got %r" % (module,))
    results = []
    for spec in CHECKS:
        if module != "all" and module not in spec.modules:
            continue
        loss_fn, params = spec.build()
        report = grad_check(loss_fn, params, tolerance=spec.tolerance,
                            rng=np.random.default_rng(99),
                            max_coords_per_param=spec.max_coords)
        results.append((spec.name, report))
    return results


def format_report_line(name: str, report: GradCheckReport) -> str:
    state = "PASS" if report.passed else "FAIL"
    worst = report.worst()
    where = worst.name if worst is not None else "-"
    return "%s %-28s max_rel=%.3e (param %s, tol %.0e)" % (state, name, report.max_rel_error,
                                                           where, report.tolerance)
