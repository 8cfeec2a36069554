"""Synthetic atlas/corpus generators used by the end-to-end checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fgn
from fgn.config import default_config, load_config
from fgn.corpus import decode_entities
from fgn.glyphs import load_atlas
from fgn.synth import (split_corpus, synthetic_atlas, synthetic_corpus,
                       write_atlas_dir)


def test_atlas_size_and_pools():
    atlas, pools = synthetic_atlas(per_pool=10, filler=10)
    assert len(atlas.entries) == 30
    assert len(pools["PER"]) == len(pools["LOC"]) == len(pools["O"]) == 10
    all_chars = pools["PER"] + pools["LOC"] + pools["O"]
    assert len(set(all_chars)) == 30
    for img in atlas.entries.values():
        assert img.shape == (50, 50) and img.dtype == np.uint8
        assert img.max() <= 230      # texture below 81, stripes 25 and 230


def test_pool_glyphs_share_quadrant_pattern():
    atlas, pools = synthetic_atlas()
    per_imgs = [atlas.lookup(c) for c in pools["PER"]]
    loc_imgs = [atlas.lookup(c) for c in pools["LOC"]]
    # the type-marker quadrant is identical within a pool...
    for img in per_imgs[1:]:
        np.testing.assert_array_equal(img[:25, :25], per_imgs[0][:25, :25])
    for img in loc_imgs[1:]:
        np.testing.assert_array_equal(img[25:, 25:], loc_imgs[0][25:, 25:])
    # ...but the rest of the image still varies per glyph
    assert not np.array_equal(per_imgs[0][25:, 25:], per_imgs[1][25:, 25:])


def test_atlas_is_seeded():
    a, _ = synthetic_atlas(seed=7)
    b, _ = synthetic_atlas(seed=7)
    c, _ = synthetic_atlas(seed=8)
    for cp in a.entries:
        np.testing.assert_array_equal(a.entries[cp], b.entries[cp])
    assert any(not np.array_equal(a.entries[cp], c.entries[cp]) for cp in a.entries)


def test_corpus_shape_and_labels():
    atlas, pools = synthetic_atlas()
    sentences = synthetic_corpus(pools, n_sentences=50)
    assert len(sentences) == 50
    vocab = set(pools["PER"] + pools["LOC"] + pools["O"])
    for i, s in enumerate(sentences):
        assert s.index == i
        assert 5 <= len(s.chars) <= 9
        assert set(s.chars) <= vocab
        assert len(decode_entities(list(s.labels))) >= 1


def test_corpus_entity_chars_come_from_their_pool():
    # the glyph pattern must actually predict the label, or the task is unlearnable
    atlas, pools = synthetic_atlas()
    sentences = synthetic_corpus(pools, n_sentences=50)
    for s in sentences:
        for span in decode_entities(list(s.labels)):
            for ch in s.chars[span.start:span.end + 1]:
                assert ch in pools[span.entity_type]
        for ch, lab in zip(s.chars, s.labels):
            if lab == "O":
                assert ch in pools["O"]


def test_corpus_is_seeded():
    _, pools = synthetic_atlas()
    a = synthetic_corpus(pools, seed=11)
    b = synthetic_corpus(pools, seed=11)
    c = synthetic_corpus(pools, seed=12)
    assert a == b
    assert a != c


def test_split_reindexes_both_halves():
    _, pools = synthetic_atlas()
    sentences = synthetic_corpus(pools, n_sentences=50)
    train, dev = split_corpus(sentences, dev_fraction=0.2)
    assert len(train) == 40 and len(dev) == 10
    assert [s.index for s in train] == list(range(40))
    assert [s.index for s in dev] == list(range(10))
    assert [s.chars for s in train] + [s.chars for s in dev] == [s.chars for s in sentences]


def test_split_keeps_at_least_one_dev_sentence():
    _, pools = synthetic_atlas()
    sentences = synthetic_corpus(pools, n_sentences=3)
    train, dev = split_corpus(sentences, dev_fraction=0.01)
    assert len(dev) == 1 and len(train) == 2


def test_atlas_dir_roundtrip(tmp_path):
    atlas, _ = synthetic_atlas(per_pool=2, filler=1)
    write_atlas_dir(atlas, tmp_path / "glyphs")
    back = load_atlas(tmp_path / "glyphs")
    assert set(back.entries) == set(atlas.entries)
    for cp in atlas.entries:
        # glyphs are 8-bit quantized, so the PGM round trip is exact
        np.testing.assert_array_equal(back.entries[cp], atlas.entries[cp])


def test_make_synthetic_data_script(tmp_path):
    # the one path from synthetic_atlas through write_pgm to disk
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_data.py"
    src = str(Path(fgn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(script), "--out", str(tmp_path), "--per-pool", "2"],
                   env=env, check=True, capture_output=True, timeout=120)
    expected, _ = synthetic_atlas(per_pool=2, filler=2, seed=7)
    back = load_atlas(tmp_path / "glyphs")
    assert list(back.entries) == list(expected.entries)
    assert back.images.dtype == np.uint8 and back.images.tobytes() == expected.images.tobytes()
    assert load_config(tmp_path / "config.json") == default_config()
