"""Synthetic glyph atlas and corpus for end-to-end checks.

Entity type is carried by a shared quadrant pattern: every PER glyph has the
same striped top-left quadrant, every LOC glyph the same striped bottom-right
quadrant, and filler glyphs have neither; the rest of each image is per-glyph
texture. Glyphs are 8-bit, as a PGM file is, so a PGM round trip is exact.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .corpus import TaggedSentence
from .glyphs import GLYPH_SIZE, GlyphAtlas, write_pgm

FIRST_CODEPOINT = 0x4E00   # start of the main CJK block
ENTITY_TYPES = ("PER", "LOC")


def _glyph_image(rng: np.random.Generator, pool: str) -> np.ndarray:
    img = rng.integers(0, 81, size=(GLYPH_SIZE, GLYPH_SIZE)).astype(np.uint8)
    half = GLYPH_SIZE // 2
    stripes = np.fromfunction(lambda r, c: ((r + c) // 3) % 2, (half, half))
    block = np.where(stripes > 0, 230, 25).astype(np.uint8)
    if pool == "PER":
        img[:half, :half] = block
    elif pool == "LOC":
        img[half:, half:] = block.T
    return img


def synthetic_atlas(per_pool: int = 10, filler: int = 10, seed: int = 7,
                    fallback_seed: int = 0) -> tuple:
    """(atlas, pools) where pools maps PER/LOC/O to the characters carrying each pattern."""
    rng = np.random.default_rng(seed)
    images = []
    pools = {"PER": "", "LOC": "", "O": ""}
    for pool, count in (("PER", per_pool), ("LOC", per_pool), ("O", filler)):
        for _ in range(count):
            pools[pool] += chr(FIRST_CODEPOINT + len(images))
            images.append(_glyph_image(rng, pool))
    images = np.array(images, np.uint8).reshape((-1, GLYPH_SIZE, GLYPH_SIZE))
    return GlyphAtlas(FIRST_CODEPOINT + np.arange(len(images)), images, fallback_seed), pools


def _bmes(entity_type: str, length: int) -> list:
    if length == 1:
        return ["S-" + entity_type]
    return ["B-" + entity_type] + ["M-" + entity_type] * (length - 2) + ["E-" + entity_type]


def synthetic_corpus(pools: dict, n_sentences: int = 50, seed: int = 11,
                     min_len: int = 5, max_len: int = 9) -> list:
    """Sentences with at least one entity each and filler between entities."""
    rng = np.random.default_rng(seed)
    filler = pools["O"]
    sentences = []
    for idx in range(n_sentences):
        target = int(rng.integers(min_len, max_len + 1))
        chars: list[str] = []
        labels: list[str] = []

        def filler_run(lo, hi):
            for _ in range(int(rng.integers(lo, hi + 1))):
                if len(chars) < target:
                    chars.append(filler[int(rng.integers(len(filler)))])
                    labels.append("O")

        def entity_run():
            etype = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
            span = min(int(rng.integers(1, 4)), target - len(chars))
            pool = pools[etype]
            for _ in range(span):
                chars.append(pool[int(rng.integers(len(pool)))])
            labels.extend(_bmes(etype, span))

        filler_run(0, 1)
        entity_run()   # guarantees at least one entity per sentence
        while len(chars) < target:
            filler_run(1, 2)
            if len(chars) < target and rng.random() < 0.6:
                entity_run()
        sentences.append(TaggedSentence("".join(chars), tuple(labels), idx))
    return sentences


def split_corpus(sentences: list, dev_fraction: float = 0.2) -> tuple:
    """Deterministic tail split; both halves are re-indexed from 0."""
    n_dev = max(1, int(round(len(sentences) * dev_fraction)))
    cut = len(sentences) - n_dev
    train = [replace(s, index=i) for i, s in enumerate(sentences[:cut])]
    dev = [replace(s, index=i) for i, s in enumerate(sentences[cut:])]
    return train, dev


def write_atlas_dir(atlas: GlyphAtlas, path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for cp, img in zip(atlas.codepoints.tolist(), atlas.images):
        write_pgm(root / ("U+%04X.pgm" % cp), img)
