"""PGM parsing, the atlas, and fallback glyph generation."""

import numpy as np
import pytest

from fgn.glyphs import (GLYPH_SIZE, GlyphAtlas, load_atlas, read_pgm,
                        sentence_to_graphs, write_pgm)


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.random((50, 50))
    p = tmp_path / "U+4E00.pgm"
    write_pgm(p, img)
    back = read_pgm(p).astype(np.float64) / 255.0
    # one quantization trip through uint8
    assert back.shape == (50, 50)
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-9


def test_pgm_comment_and_whitespace_header(tmp_path):
    raw = b"P5 # format\n# a comment line\n 2 2\n255\n" + bytes([0, 128, 255, 64])
    p = tmp_path / "U+0041.pgm"
    p.write_bytes(raw)
    img = read_pgm(p)
    assert img.shape == (2, 2)
    assert img[0, 0] == 0 and img[1, 0] == 255


def test_pgm_rejects_non_p5(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError):
        read_pgm(p)


def test_pgm_rejects_truncated(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="x.pgm"):
        read_pgm(p)


def test_load_atlas_normalizes(tmp_path):
    write_pgm(tmp_path / "U+6211.pgm", np.ones((50, 50)))
    atlas = load_atlas(tmp_path)
    assert len(atlas) == 1
    assert np.array_equal(atlas.lookup("我"), np.ones((50, 50)))


def test_load_atlas_ignores_unrelated_files(tmp_path):
    write_pgm(tmp_path / "U+6211.pgm", np.zeros((50, 50)))
    (tmp_path / "README.txt").write_text("not a glyph")
    assert len(load_atlas(tmp_path)) == 1


def test_load_atlas_rejects_wrong_dims(tmp_path):
    write_pgm(tmp_path / "U+6211.pgm", np.zeros((40, 40)))
    with pytest.raises(ValueError, match="U\\+6211"):
        load_atlas(tmp_path)


def test_load_atlas_rejects_two_files_of_one_codepoint(tmp_path):
    # U+4E00 and U+04E00 both parse to 0x4E00; neither may silently replace the other
    write_pgm(tmp_path / "U+4E00.pgm", np.zeros((50, 50)))
    write_pgm(tmp_path / "U+04E00.pgm", np.ones((50, 50)))
    with pytest.raises(ValueError, match=r"U\+04E00\.pgm and U\+4E00\.pgm both name U\+4E00"):
        load_atlas(tmp_path)


def test_empty_atlas_fallback_works(tmp_path):
    atlas = load_atlas(tmp_path)
    assert len(atlas) == 0
    g = atlas.lookup("A")
    assert g.shape == (GLYPH_SIZE, GLYPH_SIZE)
    assert np.all((g >= 0.0) & (g <= 1.0))


def test_fallback_cached_and_distinct():
    atlas = GlyphAtlas(fallback_seed=9)
    a1 = atlas.lookup("A")
    a2 = atlas.lookup("A")
    b = atlas.lookup("B")
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_fallback_depends_on_seed():
    g0 = GlyphAtlas(fallback_seed=0).lookup("A")
    g1 = GlyphAtlas(fallback_seed=1).lookup("A")
    assert not np.array_equal(g0, g1)


def test_stored_glyph_bit_stable(tiny_atlas):
    first = tiny_atlas.lookup("我")
    again = tiny_atlas.lookup("我")
    assert first is again or np.array_equal(first, again)


def test_atlas_rejects_wrong_shape_add():
    atlas = GlyphAtlas()
    with pytest.raises(ValueError):
        atlas.add(0x41, np.zeros((10, 10)))


def test_sentence_to_graphs(tiny_atlas):
    graphs = sentence_to_graphs(tiny_atlas, "我A我")
    assert len(graphs) == 3
    assert np.array_equal(graphs[0], graphs[2])
    assert all(g.shape == (50, 50) for g in graphs)
    assert all(np.all((g >= 0) & (g <= 1)) for g in graphs)


def test_sentence_to_graphs_rejects_empty(tiny_atlas):
    with pytest.raises(ValueError):
        sentence_to_graphs(tiny_atlas, "")


def test_negative_fallback_seed_rejected():
    with pytest.raises(ValueError, match="fallback_seed"):
        GlyphAtlas(fallback_seed=-1)
