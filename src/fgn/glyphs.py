"""Glyph atlas: one 50x50 8-bit grayscale image per character.

Images live on disk as binary PGM files named U+XXXX.pgm, in memory as one
uint8 (n, 50, 50) array; a sentence's glyphs are its rows over 255, one float64
(tau, 50, 50) array. A character without an image gets a pseudo-random matrix
seeded by (fallback_seed, codepoint), drawn anew into its row at each gather.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

GLYPH_SIZE = 50

_NAME_RE = re.compile(r"U\+([0-9A-F]{4,6})\.pgm")


def read_pgm(path) -> np.ndarray:
    """Parse a binary (P5) PGM with maxval 255 into a uint8 matrix."""
    path = Path(path)
    raw = path.read_bytes()
    pos = 0
    fields = []
    while len(fields) < 4:
        if pos >= len(raw):
            raise ValueError("%s: truncated PGM header" % path.name)
        ch = raw[pos:pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos:pos + 1].isspace() and raw[pos:pos + 1] != b"#":
                pos += 1
            fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError("%s: not a binary PGM (magic %r)" % (path.name, fields[0]))
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise ValueError("%s: non-numeric PGM header fields" % path.name) from None
    if width < 1 or height < 1:
        raise ValueError("%s: PGM size %d x %d is not positive" % (path.name, width, height))
    if maxval != 255:
        raise ValueError("%s: unsupported PGM maxval %d (need 255)" % (path.name, maxval))
    pos += 1  # single whitespace byte after maxval
    pixels = raw[pos:pos + width * height]
    if len(pixels) != width * height:
        raise ValueError("%s: truncated pixel payload" % path.name)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a uint8 matrix as binary PGM."""
    if image.dtype != np.uint8:
        raise ValueError("write_pgm takes uint8 pixels, got %s" % image.dtype)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


class GlyphAtlas:
    """codepoints[i] -> images[i], a uint8 50x50 glyph read as a [0,1] matrix, with deterministic fallbacks."""

    def __init__(self, codepoints=(), images=None, fallback_seed: int = 0):
        self.fallback_seed = int(fallback_seed)
        if self.fallback_seed < 0:
            raise ValueError("glyph fallback_seed must be >= 0, got %d" % self.fallback_seed)
        cps = np.asarray(codepoints)
        if cps.ndim != 1 or (cps.size and cps.dtype.kind not in "iu"):
            raise ValueError("atlas codepoints must be a 1-d integer array, got %s %r" % (cps.dtype, cps.shape))
        if cps.size and not 0 <= cps.min() <= cps.max() <= 0x10FFFF:
            raise ValueError("atlas codepoints span %#x..%#x, outside [0, 0x10ffff]" % (cps.min(), cps.max()))
        if len(np.unique(cps)) != len(cps):
            raise ValueError("atlas codepoints name some character more than once")
        images = np.zeros((0, GLYPH_SIZE, GLYPH_SIZE), np.uint8) if images is None else np.asarray(images)
        if images.dtype != np.uint8 or images.shape != (len(cps), GLYPH_SIZE, GLYPH_SIZE):
            raise ValueError("atlas images are %s %r, need uint8 (%d, %d, %d)"
                             % (images.dtype, images.shape, len(cps), GLYPH_SIZE, GLYPH_SIZE))
        self.codepoints = cps.astype(np.int64)
        self.images = images.copy()     # copies the caller cannot change
        self.codepoints.flags.writeable = self.images.flags.writeable = False
        self.entries: dict[int, int] = {cp: row for row, cp in enumerate(self.codepoints.tolist())}

    def __len__(self) -> int:
        return len(self.entries)


def load_atlas(path, fallback_seed: int = 0) -> GlyphAtlas:
    """Load every U+XXXX.pgm in a directory; other filenames are ignored, two of one codepoint refused."""
    root = Path(path)
    if not root.is_dir():
        raise OSError("atlas path %s is not a readable directory" % root)
    seen, images = {}, []
    for p in sorted(root.iterdir()):
        m = _NAME_RE.fullmatch(p.name)
        if not m:
            continue
        cp = int(m.group(1), 16)
        if seen.setdefault(cp, p.name) != p.name:     # U+4E00.pgm and U+04E00.pgm
            raise ValueError("%s and %s both name U+%04X" % (seen[cp], p.name, cp))
        img = read_pgm(p)
        if img.shape != (GLYPH_SIZE, GLYPH_SIZE):
            raise ValueError("%s: glyph image is %dx%d, need %dx%d"
                             % (p.name, img.shape[1], img.shape[0], GLYPH_SIZE, GLYPH_SIZE))
        images.append(img)
    return GlyphAtlas(list(seen), np.array(images, np.uint8).reshape((-1, GLYPH_SIZE, GLYPH_SIZE)),
                      fallback_seed)


def sentence_to_graphs(atlas: GlyphAtlas, sentence: str) -> np.ndarray:
    """The float64 (tau, 50, 50) glyphs of a sentence, row t that of character t."""
    if len(sentence) == 0:
        raise ValueError("cannot build a graph sequence from an empty sentence")
    rows = np.fromiter((atlas.entries.get(ord(ch), -1) for ch in sentence), np.int64, len(sentence))
    graphs = np.empty((len(sentence), GLYPH_SIZE, GLYPH_SIZE))
    graphs[rows >= 0] = atlas.images[rows[rows >= 0]] / 255.0
    for t in np.flatnonzero(rows < 0):     # a fresh seeded draw, kept nowhere
        np.random.default_rng((atlas.fallback_seed, ord(sentence[t]))).random(out=graphs[t])
    return graphs
