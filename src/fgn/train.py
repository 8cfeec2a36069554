"""Training loop, dev-set evaluation, ablation grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cgs_cnn import CNN_VARIANTS
from .config import RunConfig, with_variants
from .corpus import evaluate
from .embedding import FileBackedEmbedding
from .fusion import FUSION_VARIANTS
from .glyphs import GlyphAtlas
from .model import FgnModel
from .optim import AdamState, adam_step, restore, snapshot
from .tagger import TAGGER_VARIANTS, LabelScheme


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    precision: float
    recall: float
    f1: float

    def line(self) -> str:
        return "%d,%.6f,%.4f,%.4f,%.4f" % (self.epoch, self.train_loss,
                                           self.precision, self.recall, self.f1)


@dataclass
class TrainResult:
    model: FgnModel
    history: list
    best_epoch: int
    best_precision: float
    best_recall: float
    best_f1: float


def _scheme_for(train_set: list, dev_set: list) -> LabelScheme:
    types = set()
    for s in list(train_set) + list(dev_set):
        for lab in s.labels:
            if lab != "O":
                types.add(lab[2:])
    return LabelScheme.from_entity_types(types)


def dev_provider(config: RunConfig):
    """The vectors to evaluate with: the dev file of a file_backed model, else None (the model's own)."""
    if config.embedding.kind != "file_backed":
        return None
    if config.embedding.dev_path is None:
        raise ValueError("file_backed embeddings need embedding.dev_path to evaluate the dev set")
    return FileBackedEmbedding.from_file(config.embedding.dev_path, config.d_char)


def predict_labels(model: FgnModel, sentences: list, provider=None) -> list:
    return [model.decode(s.chars, s.index, provider=provider) for s in sentences]


def train(config: RunConfig, train_set: list, dev_set: list, atlas: GlyphAtlas,
          out_path=None, log=None) -> TrainResult:
    """Seeded training with per-epoch dev evaluation and best-F1 checkpointing."""
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must both be non-empty")
    scheme = _scheme_for(train_set, dev_set)
    vocab = sorted({ch for s in train_set for ch in s.chars})
    model = FgnModel(config, scheme, vocab, atlas)
    dev_vectors = dev_provider(config)

    params = model.parameters()
    opt = AdamState(params, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    best = snapshot(params)
    best_epoch, best_p, best_r, best_f1 = 0, 0.0, 0.0, -1.0
    history: list[EpochLog] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            picked = order[start:start + config.batch_size]
            batch = [train_set[i] for i in picked]
            loss = model.loss(batch, training=True, rng=rng)
            where = "epoch %d, sentence %s" % (epoch, ", ".join(str(int(i)) for i in picked))
            if not np.isfinite(loss.item()):
                raise ValueError("non-finite loss %r at %s" % (loss.item(), where))
            loss.backward()
            for p in params:
                # the sum of squares is non-finite whenever an entry is, and is far cheaper than
                # np.isfinite; that runs only to tell a non-finite entry from an overflowing square
                g = p.grad
                if g is not None and not np.isfinite(np.vdot(g, g)) and not np.isfinite(g).all():
                    raise ValueError("non-finite gradient in parameter %s at %s" % (p.name, where))
            adam_step(params, opt)
            total += loss.item()
        entry = EpochLog(epoch, total / len(train_set),
                         *evaluate(dev_set, predict_labels(model, dev_set, dev_vectors)))
        history.append(entry)
        if log is not None:
            log(entry.line())
        if entry.f1 > best_f1:
            best_epoch, best_p, best_r, best_f1 = epoch, entry.precision, entry.recall, entry.f1
            best = snapshot(params)

    restore(params, best)
    if best_f1 < 0.0:   # epochs=0: the initial model stands, nothing was measured
        best_p = best_r = best_f1 = 0.0
    if out_path is not None:
        model.save(out_path)
    return TrainResult(model=model, history=history, best_epoch=best_epoch,
                       best_precision=best_p, best_recall=best_r, best_f1=best_f1)


# the ablation axes are the variant tuples the configs validate against
CNN_GRID, FUSION_GRID, TAGGER_GRID = CNN_VARIANTS, FUSION_VARIANTS, TAGGER_VARIANTS


@dataclass
class AblationCell:
    cnn: str
    fusion: str
    tagger: str
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    error: str | None = None


def ablate(config: RunConfig, grid: dict, train_set: list, dev_set: list,
           atlas: GlyphAtlas, log=None) -> list:
    """Train every (cnn, fusion, tagger) combination in the grid with the shared seed."""
    allowed = {"cnn": CNN_GRID, "fusion": FUSION_GRID, "tagger": TAGGER_GRID}
    for key, values in grid.items():
        if key not in allowed:
            raise ValueError("unknown ablation axis %r (have: cnn, fusion, tagger)" % key)
        for v in values:
            if v not in allowed[key]:
                raise ValueError("unknown %s variant %r" % (key, v))
    cnns = list(grid.get("cnn", [config.cnn.variant]))
    fusions = list(grid.get("fusion", [config.fusion.variant]))
    taggers = list(grid.get("tagger", [config.tagger.variant]))

    cells = []
    for cnn in cnns:
        for fusion in fusions:
            for tagger in taggers:
                cell = AblationCell(cnn=cnn, fusion=fusion, tagger=tagger)
                try:
                    cfg = with_variants(config, cnn=cnn, fusion=fusion, tagger=tagger)
                    result = train(cfg, train_set, dev_set, atlas)
                    cell.precision = result.best_precision
                    cell.recall = result.best_recall
                    cell.f1 = result.best_f1
                except Exception as exc:   # a failed cell must not sink the grid
                    cell.error = str(exc)
                cells.append(cell)
                if log is not None:
                    log(format_cell(cell))
    return cells


def format_cell(cell: AblationCell) -> str:
    if cell.error is not None:
        return "%-8s %-16s %-7s failed: %s" % (cell.cnn, cell.fusion, cell.tagger, cell.error)
    return "%-8s %-16s %-7s %6.4f %6.4f %6.4f" % (cell.cnn, cell.fusion, cell.tagger,
                                                  cell.precision, cell.recall, cell.f1)


def format_ablation_table(cells: list) -> str:
    lines = ["%-8s %-16s %-7s %6s %6s %6s" % ("cnn", "fusion", "tagger", "P", "R", "F1"),
             "-" * 60]
    lines.extend(format_cell(c) for c in cells)
    return "\n".join(lines)
