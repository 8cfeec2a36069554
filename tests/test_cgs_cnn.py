"""Glyph sequence encoder: shapes, variants, and sequence-axis locality."""

import re
import sys
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fgn import cgs_cnn, ops
from fgn.cgs_cnn import CHUNK, CNN_VARIANTS, HALO, CgsCnnConfig, encode_sequence, init_cgs_params
from fgn.glyphs import sentence_to_graphs
from fgn.tensor import _openblas_threads, no_grad


def encode(graphs, variant="cgs", seed=3):
    config = CgsCnnConfig(variant=variant)
    params = init_cgs_params(config, np.random.default_rng(seed))
    return [v.data for v in encode_sequence(graphs, config, params)]


def random_graphs(rng, tau):
    return [rng.random((50, 50)) for _ in range(tau)]


@pytest.mark.parametrize("tau", [1, 3])
@pytest.mark.parametrize("variant", CNN_VARIANTS)
def test_output_shape(rng, tau, variant):
    vecs = encode(random_graphs(rng, tau), variant)
    assert len(vecs) == tau
    assert all(v.shape == (64,) for v in vecs)


def test_cgs_2d_is_per_glyph_local(rng):
    graphs = random_graphs(rng, 2)
    perturbed = [graphs[0], rng.random((50, 50))]
    base = encode(graphs, "cgs_2d")
    after = encode(perturbed, "cgs_2d")
    assert np.array_equal(base[0], after[0])
    assert not np.array_equal(base[1], after[1])


def test_cgs_mixes_neighbors(rng):
    graphs = random_graphs(rng, 2)
    perturbed = [graphs[0], rng.random((50, 50))]
    base = encode(graphs, "cgs")
    after = encode(perturbed, "cgs")
    # the sequence convolutions pull glyph 2 into vector 1
    assert not np.array_equal(base[0], after[0])


def test_cgs_influence_stops_at_radius_two(rng):
    graphs = random_graphs(rng, 4)
    near = list(graphs)
    near[2] = rng.random((50, 50))
    far = list(graphs)
    far[3] = rng.random((50, 50))
    base = encode(graphs, "cgs")
    assert not np.array_equal(base[0], encode(near, "cgs")[0])
    assert np.array_equal(base[0], encode(far, "cgs")[0])


def test_cgs_avg_differs_only_in_final_pool(rng):
    graphs = random_graphs(rng, 2)
    vmax = encode(graphs, "cgs")
    vavg = encode(graphs, "cgs_avg")
    for a, b in zip(vmax, vavg):
        assert np.all(a >= b - 1e-12)


def test_param_sets_by_variant(rng):
    full = init_cgs_params(CgsCnnConfig(variant="cgs"), rng)
    flat = init_cgs_params(CgsCnnConfig(variant="cgs_2d"), rng)
    assert "cnn/seq_conv1" in full and "cnn/seq_conv2" in full
    assert "cnn/seq_conv1" not in flat
    assert flat["cnn/plane_conv1"].data.shape[1] == 1
    assert full["cnn/plane_conv1"].data.shape[1] == 8


def test_dropout_only_in_training(rng):
    config = CgsCnnConfig()
    params = init_cgs_params(config, np.random.default_rng(3))
    graphs = random_graphs(rng, 2)
    plain = [v.data for v in encode_sequence(graphs, config, params)]
    dropped = [v.data for v in encode_sequence(graphs, config, params, rng=np.random.default_rng(0))]
    assert not all(np.array_equal(a, b) for a, b in zip(plain, dropped))


def test_config_validation():
    with pytest.raises(ValueError):
        CgsCnnConfig(variant="dense")
    with pytest.raises(ValueError):
        CgsCnnConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        CgsCnnConfig(pyramid_channels=(16, 32, 64))
    with pytest.raises(ValueError):
        CgsCnnConfig(pyramid_channels=(16, 32, 64, 32))
    with pytest.raises(ValueError):
        CgsCnnConfig(tianzige_channels=32)   # glyph vectors would shrink
    for channels in ((16, 0, 64, 64), (16, -2, 64, 64)):
        with pytest.raises(ValueError, match="pyramid_channels"):
            CgsCnnConfig(pyramid_channels=channels)


def test_rejects_bad_graphs(rng):
    config = CgsCnnConfig()
    params = init_cgs_params(config, rng)
    for graphs in ([], [np.zeros((10, 10))], np.zeros((1, 50, 40)), np.zeros((0, 50, 50))):
        with pytest.raises(ValueError, match="glyphs have shape " + re.escape(str(np.shape(graphs)))):
            encode_sequence(graphs, config, params)


@pytest.mark.parametrize("sentence", ["我A我爱B", "我A我爱B" * 4], ids=["one_chunk", "threaded_chunks"])
def test_glyph_array_and_its_rows_encode_alike(tiny_atlas, sentence):
    # the model passes sentence_to_graphs' one array; the acceptance checks pass lists of 50x50 matrices
    config = CgsCnnConfig()
    params = init_cgs_params(config, np.random.default_rng(4))
    graphs = sentence_to_graphs(tiny_atlas, sentence)
    with no_grad():
        from_array = encode_sequence(graphs, config, params).data
        from_rows = encode_sequence(list(graphs), config, params).data
    assert from_array.tobytes() == from_rows.tobytes()
    recorded = encode_sequence(graphs, config, params).data
    assert recorded.tobytes() == encode_sequence(list(graphs), config, params).data.tobytes()


def reference_encode(graphs, config, params):
    """The encoder channels-first, in numpy alone: (C, tau, H, W) through the 3-d stage,
    (tau, C, H, W) through the plane stage, then the channel-major flatten of (tau, C, 2, 2)."""

    def corr(x, w, subscripts):
        p = w.shape[-1] // 2
        r = w.ndim - 2
        xp = np.pad(x, [(0, 0)] * (x.ndim - r) + [(p, p)] * r)
        win = sliding_window_view(xp, w.shape[2:], axis=tuple(range(x.ndim - r, x.ndim)))
        return np.einsum(subscripts, win, w, optimize=True)

    def pool(x, window, stride):
        return sliding_window_view(x, (window, window), axis=(-2, -1))[
            ..., ::stride, ::stride, :, :].max(axis=(-2, -1))

    x = np.stack(graphs)[:, None]                                        # (tau, 1, 50, 50)
    if config.variant != "cgs_2d":
        x = x.transpose(1, 0, 2, 3)                                      # (1, tau, 50, 50)
        for name in ("cnn/seq_conv1", "cnn/seq_conv2"):
            x = np.tanh(corr(x, params[name].data, "ctijabd,ocabd->otij"))
        x = x.transpose(1, 0, 2, 3)                                      # (tau, 8, 50, 50)
    for j in range(1, 5):
        x = pool(np.tanh(corr(x, params["cnn/plane_conv%d" % j].data, "ncijab,ocab->noij")), 2, 2)
    x = pool(x, 2, 1).reshape(len(graphs), -1)                           # channel-major
    win = sliding_window_view(x, config.pool1d_window, axis=1)[:, ::config.pool1d_stride]
    return win.mean(axis=-1) if config.variant == "cgs_avg" else win.max(axis=-1)


@pytest.mark.parametrize("tau", [1, 2, 5])
@pytest.mark.parametrize("variant", CNN_VARIANTS)
def test_matches_channels_first_reference(rng, variant, tau):
    config = CgsCnnConfig(variant=variant)
    params = init_cgs_params(config, np.random.default_rng(7))
    graphs = random_graphs(rng, tau)
    got = encode_sequence(graphs, config, params).data
    want = reference_encode(graphs, config, params)
    assert got.shape == want.shape == (tau, 64)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant,data_grads", [("cgs", 5), ("cgs_2d", 3), ("cgs_avg", 5)])
def test_backward_skips_raw_pixel_gradient(rng, monkeypatch, variant, data_grads):
    # the forward is done before the wrap, so every counted call is one conv's data gradient
    config = CgsCnnConfig(variant=variant)
    params = init_cgs_params(config, np.random.default_rng(3))
    y = encode_sequence(random_graphs(rng, 2), config, params)
    inner, calls = ops._corr_same, []
    monkeypatch.setattr(ops, "_corr_same", lambda *args: calls.append(1) or inner(*args))
    y.sum().backward()
    assert len(calls) == data_grads
    assert all(p.grad.any() for p in params.values())


@pytest.mark.parametrize("tau", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2])
@pytest.mark.parametrize("variant", CNN_VARIANTS)
def test_no_grad_chunks_match_the_recorded_encode_bit_for_bit(rng, variant, tau):
    # outside a graph a long sentence streams through the encoder a region per thread;
    # the HALO rows at a region's ends make every kept row exact, not merely close
    config = CgsCnnConfig(variant=variant)
    params = init_cgs_params(config, np.random.default_rng(5))
    graphs = random_graphs(rng, tau)
    recorded = encode_sequence(graphs, config, params)
    with no_grad():
        chunked = encode_sequence(graphs, config, params)
    assert recorded._parents and not chunked._parents
    assert np.array_equal(chunked.data.view(np.int64), recorded.data.view(np.int64))


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("tau", [CHUNK + 1, 40, 96])
def test_pooled_chunks_match_the_serial_encode_bit_for_bit(rng, monkeypatch, tau, workers):
    # the region threads write disjoint rows of one output; 4 CPUs still take CHUNK // (4 * HALO)
    # = 2 threads; a short switch interval interleaves them more than the cores would
    config = CgsCnnConfig()
    params = init_cgs_params(config, np.random.default_rng(5))
    graphs = random_graphs(rng, tau)
    inner, threads = cgs_cnn._glyph_vectors, []
    monkeypatch.setattr(cgs_cnn, "_glyph_vectors",
                        lambda *args: threads.append(threading.get_ident()) or inner(*args))
    monkeypatch.setattr(cgs_cnn, "usable_cpus", lambda: 1)
    with no_grad():
        serial = encode_sequence(graphs, config, params).data
    assert set(threads) == {threading.get_ident()}
    threads.clear()
    monkeypatch.setattr(cgs_cnn, "usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with no_grad():
            pooled = encode_sequence(graphs, config, params).data
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled.view(np.int64), serial.view(np.int64))
    if _openblas_threads() is not None:     # without BLAS thread control the regions run in turn
        assert threads and threading.get_ident() not in threads


# the tiny cnn config of tests/test_model.py (small_cnn) and scripts/fingerprint.py
TINY_CNN = dict(conv3d_channels=2, tianzige_channels=16, pyramid_channels=(4, 4, 8, 16),
                pool1d_window=1, pool1d_stride=1)


@pytest.mark.parametrize("size,tau", [("tiny", tau) for tau in [*range(CHUNK + 1, 41), 49, 50, 97, 98]]
                         + [("default", tau) for tau in (17, 18, 25, 50)])
@pytest.mark.parametrize("variant", CNN_VARIANTS)
def test_no_grad_encode_is_exact_at_every_length(rng, variant, size, tau):
    # a GEMM of one or two glyphs can run through another OpenBLAS kernel than the
    # whole sentence's; at the tiny config its bits differ, so no piece may be that narrow
    config = CgsCnnConfig(variant=variant, **(TINY_CNN if size == "tiny" else {}))
    params = init_cgs_params(config, np.random.default_rng(5))
    graphs = rng.random((tau, 50, 50))
    recorded = encode_sequence(graphs, config, params).data
    with no_grad():
        streamed = encode_sequence(graphs, config, params).data
    assert np.array_equal(streamed.view(np.int64), recorded.view(np.int64))


def test_long_no_grad_encode_mixes_each_row_once(rng, monkeypatch):
    # each of 2 regions reads HALO rows past its inner end and no more, where 8-row
    # chunks with a halo on each side made each 3-d conv read 92 rows for 64; a 3-d
    # conv's GEMM is the one whose kernel stacks 3 taps of conv3d_channels outputs
    config = CgsCnnConfig()
    params = init_cgs_params(config, np.random.default_rng(5))
    tau, conv_rows, pyramid_rows = 64, [], []
    corr, vectors = ops._corr_same, cgs_cnn._glyph_vectors

    def count(x, w):
        if w.shape[0] == 3 * config.conv3d_channels:
            conv_rows.append((x.shape[-1], len(x)))
        return corr(x, w)

    monkeypatch.setattr(ops, "_corr_same", count)
    monkeypatch.setattr(cgs_cnn, "_glyph_vectors", lambda x, *args: pyramid_rows.append(len(x)) or vectors(x, *args))
    monkeypatch.setattr(cgs_cnn, "usable_cpus", lambda: 2)
    graphs = rng.random((tau, 50, 50))
    with no_grad():
        streamed = encode_sequence(graphs, config, params).data
    for c_in in (1, config.conv3d_channels):
        rows = [n for c, n in conv_rows if c == c_in]
        assert tau <= sum(rows) <= tau + 2 * HALO, (c_in, rows)
    assert sum(pyramid_rows) == tau and min(pyramid_rows) >= 4, pyramid_rows
    recorded = encode_sequence(graphs, config, params).data
    assert np.array_equal(streamed.view(np.int64), recorded.view(np.int64))
