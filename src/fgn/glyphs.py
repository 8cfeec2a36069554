"""Glyph atlas: one 50x50 grayscale image per character.

Images live on disk as binary PGM files named U+XXXX.pgm. Characters without
an image get a pseudo-random matrix seeded by (fallback_seed, codepoint),
drawn anew at each lookup: every run sees the same values, and nothing grows.
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
    if maxval != 255:
        raise ValueError("%s: unsupported PGM maxval %d (need 255)" % (path.name, maxval))
    pos += 1  # single whitespace byte after maxval
    pixels = raw[pos:pos + width * height]
    if len(pixels) != width * height:
        raise ValueError("%s: truncated pixel payload" % path.name)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a [0,1] float or uint8 matrix as binary PGM."""
    if image.dtype != np.uint8:
        image = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


class GlyphAtlas:
    """Codepoint -> 50x50 matrix in [0,1], with deterministic fallbacks."""

    def __init__(self, entries: dict | None = None, fallback_seed: int = 0):
        self.fallback_seed = int(fallback_seed)
        if self.fallback_seed < 0:
            raise ValueError("glyph fallback_seed must be >= 0, got %d" % self.fallback_seed)
        self.entries: dict[int, np.ndarray] = {}
        for cp, img in (entries or {}).items():
            self.add(cp, img)

    def add(self, codepoint: int, image: np.ndarray) -> None:
        image = np.array(image, dtype=np.float64)     # a copy the caller cannot change
        if image.shape != (GLYPH_SIZE, GLYPH_SIZE):
            raise ValueError("glyph for U+%04X has shape %r, need (%d, %d)"
                             % (codepoint, image.shape, GLYPH_SIZE, GLYPH_SIZE))
        image.flags.writeable = False
        self.entries[int(codepoint)] = image

    def lookup(self, ch: str) -> np.ndarray:
        img = self.entries.get(ord(ch))
        if img is None:   # a fresh seeded draw, kept nowhere
            img = np.random.default_rng((self.fallback_seed, ord(ch))).random((GLYPH_SIZE, GLYPH_SIZE))
        return img

    def __len__(self) -> int:
        return len(self.entries)


def load_atlas(path, fallback_seed: int = 0) -> GlyphAtlas:
    """Load every U+XXXX.pgm in a directory; other filenames are ignored, two of one codepoint refused."""
    root = Path(path)
    if not root.is_dir():
        raise OSError("atlas path %s is not a readable directory" % root)
    atlas = GlyphAtlas(fallback_seed=fallback_seed)
    seen = {}
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
        atlas.add(cp, img.astype(np.float64) / 255.0)
    return atlas


def sentence_to_graphs(atlas: GlyphAtlas, sentence: str) -> list:
    """One 50x50 matrix per character, in order."""
    if len(sentence) == 0:
        raise ValueError("cannot build a graph sequence from an empty sentence")
    return [atlas.lookup(ch) for ch in sentence]
