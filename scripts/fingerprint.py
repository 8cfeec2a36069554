"""Write or compare a numeric fingerprint of the model over the full variant grid.

The grid: cnn (cgs, cgs_2d, cgs_avg) x fusion (slice_attention, avg_pool,
max_pool, concat) x tagger (bilstm, lstm, none) x embedding (lookup_table,
frozen lookup_table, file_backed) x constrain_transitions off/on, 216 cells at
a small config. Each cell builds its model from one seed and takes 3 Adam
steps on 3 sentences with dropout on. The records of a cell are the loss and
every parameter gradient of each step, the parameters after the last step,
and the hidden states and decoded label indices of the 3 sentences. The
file-backed vectors are drawn from a seed and written by the script itself.

    PYTHONPATH=src python3 scripts/fingerprint.py --out new.fp
    PYTHONPATH=src python3 scripts/fingerprint.py --compare old.fp new.fp

--compare prints one line (arrays compared, how many differ, the largest
scaled difference), then one line per record kind that differs. An array's
scaled difference is its largest |a - b| divided by the largest magnitude in
either array, the scale on which a refactor must stay within 1e-10: a
per-element ratio would blow up on elements that cancel to near zero. It
exits 1 when any array differs. To compare two checkouts, run one copy of
the script with each checkout's src on PYTHONPATH.
"""

import argparse
import itertools
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from fgn.cgs_cnn import CNN_VARIANTS, CgsCnnConfig
from fgn.config import EmbeddingConfig, FusionConfig, RunConfig, TaggerConfig
from fgn.corpus import TaggedSentence
from fgn.embedding import write_embedding_file
from fgn.fusion import FUSION_VARIANTS
from fgn.glyphs import GlyphAtlas
from fgn.model import FgnModel
from fgn.optim import AdamState, adam_step
from fgn.serialize import read_records, write_records
from fgn.tagger import TAGGER_VARIANTS, LabelScheme

EMBEDDINGS = ("lookup_table", "frozen", "file_backed")
STEPS = 3
SENTENCES = (
    TaggedSentence("我爱北京天安门", ("O", "O", "B-LOC", "E-LOC", "B-LOC", "M-LOC", "E-LOC"), 0),
    TaggedSentence("京门在北", ("S-LOC", "O", "O", "S-LOC"), 1),
    TaggedSentence("天安我", ("B-LOC", "E-LOC", "O"), 2),
)
VOCAB = "我爱北京天安门"   # 在 is unseen: it takes the UNK row


def cell_config(cnn: str, fusion: str, tagger: str, embedding: str, constrain: bool, vectors: str) -> RunConfig:
    kind = "file_backed" if embedding == "file_backed" else "lookup_table"
    return RunConfig(
        seed=3, d_char=8, d_hidden=6, learning_rate=0.01,
        cnn=CgsCnnConfig(variant=cnn, conv3d_channels=2, tianzige_channels=16,
                         pyramid_channels=(4, 4, 8, 16), pool1d_window=1, pool1d_stride=1),
        fusion=FusionConfig(variant=fusion, k_char=4, s_char=2, k_glyph=32, s_glyph=16),
        tagger=TaggerConfig(variant=tagger, constrain_transitions=constrain),
        embedding=EmbeddingConfig(kind=kind, frozen=embedding != "lookup_table",
                                  path=vectors if kind == "file_backed" else None))


def cell_records(config: RunConfig, scheme: LabelScheme, atlas: GlyphAtlas) -> dict:
    """name -> array for one cell, names relative to the cell."""
    model = FgnModel(config, scheme, VOCAB, atlas)
    params = model.parameters()
    state = AdamState(params, learning_rate=config.learning_rate)
    rng = np.random.default_rng(11)
    out = {}
    for step in range(STEPS):
        loss = model.loss(list(SENTENCES), training=True, rng=rng)
        loss.backward()
        out["step%d/loss" % step] = loss.data.copy()
        for p in params:
            # a gradient no loss reached is None, which Adam reads as zero
            out["step%d/grad/%s" % (step, p.name)] = np.zeros(p.data.shape) if p.grad is None else p.grad.copy()
        adam_step(params, state)
    for p in params:
        out["param/" + p.name] = p.data.copy()
    for s in SENTENCES:
        out["hidden/%d" % s.index] = model.hidden_states(s.chars, s.index).data.copy()
        out["labels/%d" % s.index] = np.array([scheme.label_index(lab) for lab in
                                               model.decode(s.chars, s.index)], dtype=np.int64)
    return out


def write_fingerprint(path) -> int:
    scheme = LabelScheme.from_entity_types(("LOC",))
    atlas = GlyphAtlas(fallback_seed=3)
    rng = np.random.default_rng(5)
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        vectors = str(Path(tmp) / "vectors.emb")
        write_embedding_file(vectors, [rng.standard_normal((len(s.chars), 8)) for s in SENTENCES])
        grid = itertools.product(CNN_VARIANTS, FUSION_VARIANTS, TAGGER_VARIANTS, EMBEDDINGS, (False, True))
        for cnn, fusion, tagger, embedding, constrain in grid:
            cell = "%s-%s-%s-%s-%s" % (cnn, fusion, tagger, embedding, "constrained" if constrain else "free")
            config = cell_config(cnn, fusion, tagger, embedding, constrain, vectors)
            for name, arr in cell_records(config, scheme, atlas).items():
                records["%s/%s" % (cell, name)] = arr
    write_records(path, records)
    return len(records)


def scaled_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over the elements / the largest |a| or |b|; inf when the shapes or kinds differ."""
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return float("inf")
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff = np.max(np.abs(a - b), initial=0.0)
    return float(diff / max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))) if diff else 0.0


def compare(path_a, path_b) -> int:
    a, b = read_records(path_a), read_records(path_b)
    names = sorted(set(a) | set(b))
    kinds = {}     # record name without its cell -> (arrays that differ, largest scaled difference)
    for name in names:
        if name in a and name in b:
            if a[name].dtype == b[name].dtype and a[name].shape == b[name].shape \
                    and a[name].tobytes() == b[name].tobytes():
                continue
            rel = scaled_difference(a[name], b[name])
        else:
            rel = float("inf")
        kind = name.split("/", 1)[1]
        count, top = kinds.get(kind, (0, 0.0))
        kinds[kind] = (count + 1, max(top, rel))
    differ = sum(count for count, _ in kinds.values())
    worst = max((top for _, top in kinds.values()), default=0.0)
    print("compared %d arrays: %d differ, largest scaled difference %.3g (%d only in one file)"
          % (len(names), differ, worst, len(set(a) ^ set(b))))
    for kind, (count, top) in sorted(kinds.items()):
        print("  %s: %d differ, largest scaled difference %.3g" % (kind, count, top))
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write the fingerprint of this tree to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprint files")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    start = time.perf_counter()
    count = write_fingerprint(args.out)
    print("wrote %d arrays to %s in %.1fs" % (count, args.out, time.perf_counter() - start), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
