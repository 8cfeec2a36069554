import numpy as np
import pytest

from fgn.glyphs import GlyphAtlas


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_atlas():
    """Two stored glyphs plus deterministic fallbacks for everything else."""
    images = np.stack([np.full((50, 50), 64), np.linspace(0, 255, 2500).reshape(50, 50)]).astype(np.uint8)
    return GlyphAtlas([0x6211, 0x7231], images, fallback_seed=5)
