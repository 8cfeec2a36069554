"""Training loop determinism, checkpoint restore, and the ablation grid."""

import importlib
import re

import numpy as np
import pytest

from fgn.config import EmbeddingConfig, FusionConfig, RunConfig
from fgn.corpus import TaggedSentence, evaluate
from fgn.glyphs import GlyphAtlas
from fgn.model import FgnModel
from fgn.tensor import Tensor
from fgn.train import (AblationCell, ablate, format_ablation_table,
                       format_cell, predict_labels, train)

TRAIN_SET = [
    TaggedSentence("北京好", ("B-LOC", "E-LOC", "O"), 0),
    TaggedSentence("我爱上海", ("O", "O", "B-LOC", "E-LOC"), 1),
    TaggedSentence("天安门", ("B-LOC", "M-LOC", "E-LOC"), 2),
    TaggedSentence("好我爱", ("O", "O", "O"), 3),
]
DEV_SET = [
    TaggedSentence("上海好", ("B-LOC", "E-LOC", "O"), 0),
    TaggedSentence("我爱北京", ("O", "O", "B-LOC", "E-LOC"), 1),
]


def tiny_config(**overrides):
    base = dict(
        seed=5,
        epochs=2,
        d_char=8,
        d_hidden=6,
        fusion=FusionConfig(k_char=4, s_char=2, k_glyph=32, s_glyph=16),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_zero_epochs_returns_initial_model():
    result = train(tiny_config(epochs=0), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))
    assert result.history == []
    assert result.best_epoch == 0
    assert result.best_f1 == 0.0
    # the untrained model still decodes
    assert len(result.model.decode("北京")) == 2


def test_history_and_log_lines():
    lines = []
    result = train(tiny_config(), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0),
                   log=lines.append)
    assert len(result.history) == 2
    assert [e.epoch for e in result.history] == [1, 2]
    assert lines == [e.line() for e in result.history]
    for line in lines:
        assert re.fullmatch(r"\d+,\d+\.\d{6},\d\.\d{4},\d\.\d{4},\d\.\d{4}", line)
    for e in result.history:
        assert np.isfinite(e.train_loss) and e.train_loss > 0.0


def test_training_is_deterministic():
    atlas = GlyphAtlas(fallback_seed=0)
    a = train(tiny_config(), TRAIN_SET, DEV_SET, atlas)
    b = train(tiny_config(), TRAIN_SET, DEV_SET, atlas)
    assert [e.line() for e in a.history] == [e.line() for e in b.history]
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_returned_model_reproduces_best_f1():
    # the best-epoch snapshot is restored, so re-scoring the dev set must
    # reproduce the reported numbers exactly
    result = train(tiny_config(epochs=3), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))
    p, r, f1 = evaluate(DEV_SET, predict_labels(result.model, DEV_SET))
    assert (p, r, f1) == (result.best_precision, result.best_recall, result.best_f1)
    assert result.best_f1 == max(e.f1 for e in result.history)


def test_checkpoint_written(tmp_path):
    out = tmp_path / "model.fgn"
    train(tiny_config(epochs=1), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0), out_path=out)
    assert out.exists()
    from fgn.model import FgnModel
    FgnModel.load(out)


def test_empty_sets_rejected():
    with pytest.raises(ValueError):
        train(tiny_config(), [], DEV_SET, GlyphAtlas())
    with pytest.raises(ValueError):
        train(tiny_config(), TRAIN_SET, [], GlyphAtlas())


# ---- ablation ----


def test_ablate_single_cell():
    cells = ablate(tiny_config(epochs=1), {"tagger": ["none"]},
                   TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))
    assert len(cells) == 1
    cell = cells[0]
    assert (cell.cnn, cell.fusion, cell.tagger) == ("cgs", "slice_attention", "none")
    assert cell.error is None
    assert 0.0 <= cell.f1 <= 1.0


def test_nan_parameter_stops_training(monkeypatch):
    class Poisoned(FgnModel):
        def __init__(self, *args):
            super().__init__(*args)
            self.crf.transitions.data[0, 0] = np.nan

    monkeypatch.setattr(importlib.import_module("fgn.train"), "FgnModel", Poisoned)
    with pytest.raises(ValueError, match=r"non-finite loss nan at epoch 1, sentence [0-3]$"):
        train(tiny_config(), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))


def test_nan_gradient_names_parameter(monkeypatch):
    class NanGradient(FgnModel):
        def loss(self, *args, **kwargs):
            # a node with a finite value and a NaN gradient, as sqrt has at 0
            p = self.crf.start_scores
            kink = Tensor(0.0, (p,))
            kink._backward = lambda g: p.accumulate(np.full(p.shape, np.nan))
            return super().loss(*args, **kwargs) + kink

    monkeypatch.setattr(importlib.import_module("fgn.train"), "FgnModel", NanGradient)
    with pytest.raises(ValueError, match=r"gradient in parameter crf/start_scores at epoch 1"):
        train(tiny_config(), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))


@pytest.mark.parametrize("value", [np.inf, 1e200])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_infinite_gradient_names_parameter_and_a_large_one_trains(monkeypatch, value):
    # the scan's sum of squares is inf for both; only a non-finite entry stops training
    class OneEntry(FgnModel):
        def loss(self, *args, **kwargs):
            p = self.crf.transitions
            g = np.zeros(p.shape)
            g[1, 0] = value
            kink = Tensor(0.0, (p,))
            kink._backward = lambda _: p.accumulate(g)
            return super().loss(*args, **kwargs) + kink

    monkeypatch.setattr(importlib.import_module("fgn.train"), "FgnModel", OneEntry)
    if value == np.inf:
        with pytest.raises(ValueError, match=r"non-finite gradient in parameter crf/transitions at epoch 1"):
            train(tiny_config(), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))
    else:
        assert len(train(tiny_config(), TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0)).history) == 2


def test_frozen_table_trains_two_epochs():
    # the frozen table's gradient is its zero buffer in the first step and None from
    # the second on: the finite scan skips it and Adam leaves the table where it is
    config = tiny_config(embedding=EmbeddingConfig(frozen=True))
    atlas = GlyphAtlas(fallback_seed=0)
    result = train(config, TRAIN_SET, DEV_SET, atlas)
    assert len(result.history) == 2
    assert result.model.provider.table.grad is None
    fresh = FgnModel(config, result.model.scheme, sorted({ch for s in TRAIN_SET for ch in s.chars}), atlas)
    assert np.array_equal(result.model.provider.table.data, fresh.provider.table.data)


def test_ablate_grid_order():
    cells = ablate(tiny_config(epochs=0), {"fusion": ["avg_pool", "concat"],
                                           "tagger": ["bilstm", "none"]},
                   TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))
    combos = [(c.fusion, c.tagger) for c in cells]
    assert combos == [("avg_pool", "bilstm"), ("avg_pool", "none"),
                      ("concat", "bilstm"), ("concat", "none")]


def test_ablate_rejects_unknown_axis_and_variant():
    with pytest.raises(ValueError, match="axis"):
        ablate(tiny_config(), {"optimizer": ["sgd"]}, TRAIN_SET, DEV_SET, GlyphAtlas())
    with pytest.raises(ValueError, match="cnn variant"):
        ablate(tiny_config(), {"cnn": ["resnet"]}, TRAIN_SET, DEV_SET, GlyphAtlas())


@pytest.mark.parametrize("values", [[], "cgs"], ids=["empty", "string"])
def test_ablate_refuses_empty_or_non_list_axis(values):
    # an empty axis would train no cell and report success; a string would be read letter by letter
    with pytest.raises(ValueError, match="ablation axis 'cnn' needs a non-empty list"):
        ablate(tiny_config(), {"cnn": values}, TRAIN_SET, DEV_SET, GlyphAtlas())


def test_ablate_captures_cell_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("window fell apart")

    monkeypatch.setattr(importlib.import_module("fgn.train"), "train", boom)
    cells = ablate(tiny_config(), {"tagger": ["bilstm", "none"]},
                   TRAIN_SET, DEV_SET, GlyphAtlas(fallback_seed=0))
    assert len(cells) == 2
    assert all(c.error == "window fell apart" for c in cells)
    assert all(c.f1 == 0.0 for c in cells)


def test_format_cell_and_table():
    ok = AblationCell("cgs", "avg_pool", "bilstm", 0.5, 1.0, 2.0 / 3.0)
    bad = AblationCell("cgs_2d", "concat", "none", error="no converge")
    assert "0.5000" in format_cell(ok)
    assert "failed: no converge" in format_cell(bad)
    table = format_ablation_table([ok, bad])
    lines = table.splitlines()
    assert len(lines) == 4                       # header, rule, two rows
    assert lines[0].split() == ["cnn", "fusion", "tagger", "P", "R", "F1"]
