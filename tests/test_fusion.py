"""Out-of-sync sliding window, the outer-product slice fusion, and attention."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fgn.fusion import (FusionParams, WindowSpec, fuse_character,
                        init_fusion_params, slice_attention, validate_window)
from fgn.gradcheck import grad_check
from fgn.tensor import Parameter, Tensor, sigmoid


def spec(dc, kc, sc, dg, kg, sg):
    return WindowSpec(d_char=dc, k_char=kc, s_char=sc, d_glyph=dg, k_glyph=kg, s_glyph=sg)


def zero_params(dim):
    return FusionParams(
        score_weight=Parameter(np.zeros((dim, dim)), name="fusion/score_weight"),
        score_bias=Parameter(np.zeros(dim), name="fusion/score_bias"),
        query=Parameter(np.zeros(dim), name="fusion/query"),
    )


def test_validate_window_accepts():
    assert validate_window(spec(8, 4, 2, 4, 2, 1)) == 3
    assert validate_window(spec(768, 96, 12, 64, 8, 1)) == 57
    assert validate_window(spec(32, 8, 4, 64, 16, 8)) == 7
    assert validate_window(spec(4, 4, 1, 6, 6, 9)) == 1


def test_validate_window_rejects_mismatch():
    with pytest.raises(ValueError) as err:
        validate_window(spec(768, 96, 8, 64, 12, 1))
    assert "85" in str(err.value) and "53" in str(err.value)


def test_validate_window_rejects_ragged_stride():
    with pytest.raises(ValueError):
        validate_window(spec(10, 4, 4, 4, 2, 1))   # 6/4 leaves a remainder


def test_validate_window_rejects_oversize_and_nonpositive():
    with pytest.raises(ValueError):
        validate_window(spec(4, 8, 1, 4, 2, 1))
    with pytest.raises(ValueError):
        validate_window(spec(8, 4, 0, 4, 2, 1))


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 6), st.integers(1, 5))
def test_validate_window_accepts_all_constructed_specs(n, kc, sc, kg, sg):
    # build both streams from the same slice count, so the contract must hold
    s = spec(kc + sc * (n - 1), kc, sc, kg + sg * (n - 1), kg, sg)
    assert validate_window(s) == n


def char_windows(c, w):
    """The character windows of one vector. With glyph windows of width 1 at
    stride 1, the one-hot glyph vector e_j makes window j the only nonzero
    fused slice, so avg_pool returns it divided by n."""
    n = validate_window(w)
    return [n * fuse_character(Tensor(c), Tensor(np.eye(n)[j]), w, None, variant="avg_pool",
                               include_parts=False).data for j in range(n)]


def test_extract_slices_examples():
    v = np.array([10.0, 20.0, 30.0, 40.0])
    np.testing.assert_allclose(char_windows(v, spec(4, 2, 2, 2, 1, 1)), [[10.0, 20.0], [30.0, 40.0]])
    v5 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(char_windows(v5, spec(5, 3, 1, 3, 1, 1)),
                               [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
    whole = char_windows(v, spec(4, 4, 9, 1, 1, 1))
    assert len(whole) == 1 and np.array_equal(whole[0], v)


def test_extract_slices_rejects_bad_count():
    # the spec frames 3 slices of width 2 on a 6-d character vector; a 4-d or
    # 8-d vector cannot give them, nor can a glyph vector of the wrong width
    w = spec(6, 2, 2, 3, 1, 1)
    for c_width, g_width in ((4, 3), (8, 3), (6, 2), (6, 4)):
        with pytest.raises(ValueError, match="window spec"):
            fuse_character(Tensor(np.zeros(c_width)), Tensor(np.zeros(g_width)), w, None,
                           variant="avg_pool")
        with pytest.raises(ValueError, match="window spec"):
            fuse_character(Tensor(np.zeros((3, c_width))), Tensor(np.zeros((3, g_width))), w, None,
                           variant="avg_pool")


def test_fuse_pair_arithmetic():
    w = spec(2, 2, 1, 2, 2, 1)
    got = fuse_character(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0])), w, None,
                         variant="avg_pool", include_parts=False)
    assert got.data.tolist() == [3.0, 4.0, 6.0, 8.0]
    zero = fuse_character(Tensor(np.array([1.0, 2.0])), Tensor(np.zeros(2)), w, None,
                          variant="avg_pool", include_parts=False)
    assert not zero.data.any()


def test_fuse_pair_bilinear(rng):
    # one slice per stream: the fusion vector is the fused pair itself
    c = rng.standard_normal(3)
    g = rng.standard_normal(2)
    w = spec(3, 3, 1, 2, 2, 1)

    def pair(cv, gv):
        return fuse_character(Tensor(cv), Tensor(gv), w, None, variant="avg_pool", include_parts=False).data

    scaled = pair(2.5 * c, g)
    assert np.allclose(scaled, 2.5 * pair(c, g), atol=1e-12)
    assert np.allclose(pair(c, 2.5 * g), scaled, atol=1e-12)


def test_slice_attention_zero_params_is_mean(rng):
    slices = [Tensor(rng.standard_normal(6)) for _ in range(4)]
    fused, weights = slice_attention(slices, zero_params(6))
    assert np.allclose(weights, 0.25, atol=1e-15)
    mean = np.mean([s.data for s in slices], axis=0)
    assert np.allclose(fused.data, mean, atol=1e-12)


def test_slice_attention_singleton(rng):
    s = Tensor(rng.standard_normal(6))
    fused, weights = slice_attention([s], init_fusion_params(6, rng))
    assert weights.tolist() == [1.0]
    assert np.array_equal(fused.data, s.data)


def test_slice_attention_weights_and_hull(rng):
    slices = [Tensor(rng.standard_normal(8)) for _ in range(5)]
    params = init_fusion_params(8, rng)
    params.score_bias.data[:] = rng.standard_normal(8)
    params.query.data[:] = rng.standard_normal(8)
    fused, weights = slice_attention(slices, params)
    assert np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) < 1e-12
    stackd = np.stack([s.data for s in slices])
    assert np.all(fused.data <= stackd.max(axis=0) + 1e-12)
    assert np.all(fused.data >= stackd.min(axis=0) - 1e-12)


def test_slice_attention_shape_mismatch(rng):
    with pytest.raises(ValueError):
        slice_attention([Tensor(np.zeros(3))], init_fusion_params(4, rng))
    with pytest.raises(ValueError):
        slice_attention(Tensor(np.zeros(4)), init_fusion_params(4, rng))


def test_fuse_character_concat(rng):
    c = Tensor(rng.standard_normal(4))
    g = Tensor(rng.standard_normal(2))
    out = fuse_character(c, g, spec(8, 4, 2, 4, 2, 1), None, variant="concat")
    assert np.array_equal(out.data, np.concatenate([c.data, g.data]))


def test_fuse_character_zero_attention_equals_avg(rng):
    w = spec(8, 4, 2, 4, 2, 1)
    c = Tensor(rng.standard_normal(8))
    g = Tensor(rng.standard_normal(4))
    att = fuse_character(c, g, w, zero_params(8), variant="slice_attention")
    avg = fuse_character(c, g, w, None, variant="avg_pool")
    assert np.array_equal(att.data, avg.data)


def test_fuse_character_max_dominates_avg_on_nonnegative(rng):
    w = spec(8, 4, 2, 4, 2, 1)
    c = sigmoid(Tensor(rng.standard_normal(8)))
    g = sigmoid(Tensor(rng.standard_normal(4)))
    mx = fuse_character(c, g, w, None, variant="max_pool", include_parts=False)
    av = fuse_character(c, g, w, None, variant="avg_pool", include_parts=False)
    assert np.all(mx.data >= av.data - 1e-12)


def test_fuse_character_dimensions(rng):
    w = spec(8, 4, 2, 4, 2, 1)
    c = Tensor(rng.standard_normal(8))
    g = Tensor(rng.standard_normal(4))
    full = fuse_character(c, g, w, None, variant="avg_pool")
    bare = fuse_character(c, g, w, None, variant="avg_pool", include_parts=False)
    assert full.data.shape == (8 + 4 + 8,)
    assert bare.data.shape == (8,)
    assert np.array_equal(full.data[:8], c.data)
    assert np.array_equal(full.data[8:12], g.data)


def test_fuse_character_rejects_unknown_variant(rng):
    with pytest.raises(ValueError):
        fuse_character(Tensor(np.zeros(8)), Tensor(np.zeros(4)),
                       spec(8, 4, 2, 4, 2, 1), None, variant="sum")


def test_fusion_gradients(rng):
    w = spec(8, 4, 2, 4, 2, 1)
    c = Parameter(rng.standard_normal(8), name="c")
    g = Parameter(rng.standard_normal(4), name="g")
    params = init_fusion_params(8, rng)
    d = rng.standard_normal(20)

    def loss():
        out = fuse_character(c, g, w, params, variant="slice_attention")
        return (out * Tensor(d)).sum()

    assert grad_check(loss, [c, g] + params.parameters()).passed


@pytest.mark.parametrize("variant", ["slice_attention", "avg_pool", "max_pool"])
def test_sentence_fusion_gradients(rng, variant):
    w = spec(8, 4, 2, 4, 2, 1)
    c = Parameter(rng.standard_normal((3, 8)), name="c")
    g = Parameter(rng.standard_normal((3, 4)), name="g")
    params = init_fusion_params(8, rng)
    params.query.data[:] = rng.standard_normal(8)
    d = rng.standard_normal((3, 20))

    def loss():
        return (fuse_character(c, g, w, params, variant=variant) * Tensor(d)).sum()

    leaves = [c, g] + (params.parameters() if variant == "slice_attention" else [])
    assert grad_check(loss, leaves).passed
