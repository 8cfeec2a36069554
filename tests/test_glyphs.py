"""PGM parsing, the atlas, and fallback glyph generation."""

import numpy as np
import pytest

from fgn.glyphs import (GLYPH_SIZE, GlyphAtlas, load_atlas, read_pgm,
                        sentence_to_graphs, write_pgm)


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(50, 40), dtype=np.uint8)
    p = tmp_path / "U+4E00.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)
    with pytest.raises(ValueError, match="float64"):     # no silent quantization of float pixels
        write_pgm(tmp_path / "U+4E01.pgm", img / 255.0)
    assert not (tmp_path / "U+4E01.pgm").exists()


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


@pytest.mark.parametrize("size", [b"-5 -5", b"0 4", b"4 0"])
def test_pgm_rejects_non_positive_size(tmp_path, size):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
    with pytest.raises(ValueError, match="x.pgm: PGM size"):
        read_pgm(p)


def test_load_atlas_normalizes(tmp_path):
    write_pgm(tmp_path / "U+6211.pgm", np.full((50, 50), 255, np.uint8))
    atlas = load_atlas(tmp_path)
    assert len(atlas) == 1
    assert np.array_equal(sentence_to_graphs(atlas, "我"), np.ones((1, 50, 50)))


def test_load_atlas_ignores_unrelated_files(tmp_path):
    write_pgm(tmp_path / "U+6211.pgm", np.zeros((50, 50), np.uint8))
    (tmp_path / "README.txt").write_text("not a glyph")
    assert len(load_atlas(tmp_path)) == 1


def test_load_atlas_rejects_wrong_dims(tmp_path):
    write_pgm(tmp_path / "U+6211.pgm", np.zeros((40, 40), np.uint8))
    with pytest.raises(ValueError, match="U\\+6211"):
        load_atlas(tmp_path)


def test_load_atlas_rejects_two_files_of_one_codepoint(tmp_path):
    # U+4E00 and U+04E00 both parse to 0x4E00; neither may silently replace the other
    write_pgm(tmp_path / "U+4E00.pgm", np.zeros((50, 50), np.uint8))
    write_pgm(tmp_path / "U+04E00.pgm", np.ones((50, 50), np.uint8))
    with pytest.raises(ValueError, match=r"U\+04E00\.pgm and U\+4E00\.pgm both name U\+4E00"):
        load_atlas(tmp_path)


def test_load_atlas_rejects_codepoint_past_unicode(tmp_path):
    # the file name regex admits six hex digits; no character has a codepoint past U+10FFFF
    write_pgm(tmp_path / "U+110000.pgm", np.zeros((50, 50), np.uint8))
    with pytest.raises(ValueError, match="0x110000"):
        load_atlas(tmp_path)


def test_empty_atlas_fallback_works(tmp_path):
    atlas = load_atlas(tmp_path)
    assert len(atlas) == 0
    g = sentence_to_graphs(atlas, "A")
    assert g.shape == (1, GLYPH_SIZE, GLYPH_SIZE)
    assert np.all((g >= 0.0) & (g <= 1.0))


def test_fallback_cached_and_distinct():
    atlas = GlyphAtlas(fallback_seed=9)
    a1, b = sentence_to_graphs(atlas, "AB")
    a2 = sentence_to_graphs(atlas, "A")[0]
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_fallback_depends_on_seed():
    g0 = sentence_to_graphs(GlyphAtlas(fallback_seed=0), "A")
    g1 = sentence_to_graphs(GlyphAtlas(fallback_seed=1), "A")
    assert not np.array_equal(g0, g1)


def test_stored_glyph_bit_stable(tiny_atlas):
    first = sentence_to_graphs(tiny_atlas, "我")
    again = sentence_to_graphs(tiny_atlas, "我")
    assert first.tobytes() == again.tobytes()


def test_atlas_holds_read_only_copies():
    cps, images = np.array([0x41, 0x42]), np.zeros((2, 50, 50), np.uint8)
    atlas = GlyphAtlas(cps, images)
    cps[0], images[:] = 0x43, 9     # the caller's arrays change; the atlas does not
    assert atlas.entries == {0x41: 0, 0x42: 1}
    assert not sentence_to_graphs(atlas, "A").any()
    with pytest.raises(ValueError, match="read-only"):
        atlas.images[0, 0, 0] = 1


GOOD_CPS = [0x41, 0x42]
GOOD_IMAGES = np.zeros((2, 50, 50), np.uint8)


@pytest.mark.parametrize("cps, images", [
    (GOOD_CPS, np.zeros((2, 10, 10), np.uint8)),
    (GOOD_CPS, GOOD_IMAGES.astype(np.float64)),
    (GOOD_CPS, GOOD_IMAGES[:1]),
    (GOOD_CPS, None),
    ([0x41, 0x41], GOOD_IMAGES),
    ([[0x41, 0x42]], GOOD_IMAGES[None]),
    ([65.0, 66.0], GOOD_IMAGES),
    (None, GOOD_IMAGES),
    ([-5, 0x42], GOOD_IMAGES),
    ([0x41, 0x110000], GOOD_IMAGES),
], ids=["10x10_images", "float_images", "one_image_short", "no_images", "repeated_codepoint",
        "2d_codepoints", "float_codepoints", "no_codepoints", "negative_codepoint", "codepoint_past_unicode"])
def test_atlas_rejects_bad_records(cps, images):
    GlyphAtlas(GOOD_CPS, GOOD_IMAGES)     # the good records build
    with pytest.raises(ValueError, match="atlas"):
        GlyphAtlas(cps, images)


def test_sentence_to_graphs(tiny_atlas):
    # stored, repeated and unseen characters: one float64 array, row by row the bits
    # of a stored glyph / 255 or of that character's seeded fallback draw
    sentence = "我A我爱BA"
    for atlas, stored in ((tiny_atlas, 3), (GlyphAtlas(fallback_seed=tiny_atlas.fallback_seed), 0)):
        graphs = sentence_to_graphs(atlas, sentence)
        assert graphs.dtype == np.float64 and graphs.flags.c_contiguous
        assert graphs.shape == (len(sentence), GLYPH_SIZE, GLYPH_SIZE)
        for ch, g in zip(sentence, graphs):
            row = atlas.entries.get(ord(ch))
            if row is None:
                want = np.random.default_rng((atlas.fallback_seed, ord(ch))).random((GLYPH_SIZE, GLYPH_SIZE))
            else:
                want = atlas.images[row].astype(np.float64) / 255.0
            assert g.tobytes() == want.tobytes()
        assert sum(ord(ch) in atlas.entries for ch in sentence) == stored
        assert np.all((graphs >= 0) & (graphs <= 1))


def test_sentence_to_graphs_rejects_empty(tiny_atlas):
    with pytest.raises(ValueError):
        sentence_to_graphs(tiny_atlas, "")


def test_negative_fallback_seed_rejected():
    with pytest.raises(ValueError, match="fallback_seed"):
        GlyphAtlas(fallback_seed=-1)
