"""End-to-end model assembly, decoding, and model files (records of fgn.serialize)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from fgn.cgs_cnn import CNN_VARIANTS, CgsCnnConfig, encode_sequence
from fgn.config import EmbeddingConfig, FusionConfig, RunConfig
from fgn.config import TaggerConfig
from fgn.corpus import TaggedSentence
from fgn.embedding import write_embedding_file
from fgn.fusion import FUSION_VARIANTS, fuse_character, validate_window
from fgn.glyphs import GlyphAtlas, sentence_to_graphs
from fgn.model import FgnModel
from fgn.serialize import read_records, write_records
from fgn.tagger import TAGGER_VARIANTS, LabelScheme, bilstm_encode, nll_loss
from fgn.tensor import Tensor, concat, max_axis0, sigmoid, softmax, stack_rows

VOCAB = "我爱北京天安门"


def tiny_config(**overrides):
    base = dict(
        seed=3,
        d_char=8,
        d_hidden=6,
        fusion=FusionConfig(k_char=4, s_char=2, k_glyph=32, s_glyph=16),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def model():
    scheme = LabelScheme.from_entity_types(("LOC",))
    return FgnModel(tiny_config(), scheme, VOCAB, GlyphAtlas(fallback_seed=3))


def test_loss_is_finite_scalar(model):
    sentences = [TaggedSentence("北京", ("B-LOC", "E-LOC"), 0),
                 TaggedSentence("我爱", ("O", "O"), 1)]
    loss = model.loss(sentences, training=False)
    assert loss.shape == ()
    assert np.isfinite(float(loss.data))
    assert float(loss.data) > 0.0


def test_loss_backward_reaches_every_parameter(model):
    sentences = [TaggedSentence("北京", ("B-LOC", "E-LOC"), 0)]
    params = model.parameters()
    for p in params:
        p.grad[...] = 0.0
    loss = model.loss(sentences, training=False)
    loss.backward()
    untouched = [p.name for p in params if not np.any(p.grad != 0.0)]
    assert untouched == []
    for p in params:
        p.grad[...] = 0.0


def test_decode_emits_scheme_labels(model):
    labels = model.decode("北京天安门")
    assert len(labels) == 5
    assert all(lab in model.scheme.labels for lab in labels)


def test_predict_sentence_alignment(model):
    pred = model.predict_sentence("我爱北京", sentence_index=4)
    assert isinstance(pred, TaggedSentence)
    assert pred.chars == "我爱北京"
    assert len(pred.labels) == 4
    assert pred.index == 4


def test_unseen_characters_are_total(model):
    # characters outside the vocab and atlas run through the UNK row and
    # fallback glyphs instead of failing
    labels = model.decode("鑫垚犇")
    assert len(labels) == 3


def test_same_config_builds_identical_parameters():
    scheme = LabelScheme.from_entity_types(("LOC",))
    atlas = GlyphAtlas(fallback_seed=3)
    a = FgnModel(tiny_config(), scheme, VOCAB, atlas)
    b = FgnModel(tiny_config(), scheme, VOCAB, atlas)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)


def test_save_load_roundtrip_is_bit_exact(model, tmp_path):
    path = tmp_path / "model.fgn"
    model.save(path)
    loaded = FgnModel.load(path)

    assert loaded.config == model.config
    assert loaded.scheme == model.scheme
    assert loaded.vocab == model.vocab
    for pa, pb in zip(model.parameters(), loaded.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    for sent in ("北京", "我爱北京天安门", "鑫垚犇"):
        assert loaded.decode(sent) == model.decode(sent)


def test_save_embeds_atlas(tmp_path):
    scheme = LabelScheme.from_entity_types(("LOC",))
    atlas = GlyphAtlas(fallback_seed=9)
    img = np.linspace(0.0, 1.0, 2500).reshape(50, 50)
    atlas.add(0x5317, img)
    model = FgnModel(tiny_config(), scheme, "北", atlas)
    path = tmp_path / "model.fgn"
    model.save(path)
    loaded = FgnModel.load(path)
    assert loaded.atlas.fallback_seed == 9
    assert set(loaded.atlas.entries) == {0x5317}
    np.testing.assert_array_equal(loaded.atlas.entries[0x5317], img)


def test_constrained_decode_respects_scheme(tmp_path):
    scheme = LabelScheme.from_entity_types(("LOC", "PER"))
    config = tiny_config(tagger=TaggerConfig(constrain_transitions=True))
    model = FgnModel(config, scheme, VOCAB, GlyphAtlas(fallback_seed=3))
    labels = model.decode("我爱北京天安门")
    assert scheme.is_valid_start(labels[0])
    for prev, nxt in zip(labels, labels[1:]):
        assert scheme.is_valid_transition(prev, nxt)


def test_file_backed_provider(tmp_path):
    emb_path = tmp_path / "vectors.emb"
    rng = np.random.default_rng(0)
    write_embedding_file(emb_path, [rng.normal(size=(2, 8)).astype(np.float32)])
    config = tiny_config(embedding=EmbeddingConfig(kind="file_backed", path=str(emb_path)))
    scheme = LabelScheme.from_entity_types(("LOC",))
    model = FgnModel(config, scheme, VOCAB, GlyphAtlas(fallback_seed=3))
    assert len(model.decode("北京", sentence_index=0)) == 2
    # stored vectors only cover sentence 0
    with pytest.raises(ValueError):
        model.decode("北京", sentence_index=1)


def test_file_backed_dim_mismatch(tmp_path):
    emb_path = tmp_path / "vectors.emb"
    write_embedding_file(emb_path, [np.zeros((2, 4), dtype=np.float32)])
    config = tiny_config(embedding=EmbeddingConfig(kind="file_backed", path=str(emb_path)))
    scheme = LabelScheme.from_entity_types(("LOC",))
    with pytest.raises(ValueError, match="d_char"):
        FgnModel(config, scheme, VOCAB, GlyphAtlas(fallback_seed=3))


def test_file_backed_requires_path():
    config = tiny_config(embedding=EmbeddingConfig(kind="file_backed"))
    scheme = LabelScheme.from_entity_types(("LOC",))
    with pytest.raises(ValueError, match="embedding.path"):
        FgnModel(config, scheme, VOCAB, GlyphAtlas(fallback_seed=3))


# ---- load failure modes ----


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.fgn"
    path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(OSError):
        FgnModel.load(path)


def test_load_rejects_missing_meta(tmp_path, model):
    path = tmp_path / "model.fgn"
    model.save(path)
    records = read_records(path)
    del records["meta/model"]
    write_records(path, records)
    with pytest.raises(OSError, match="meta"):
        FgnModel.load(path)


def test_load_rejects_missing_parameter(tmp_path, model):
    path = tmp_path / "model.fgn"
    model.save(path)
    records = read_records(path)
    del records["param/crf/transitions"]
    write_records(path, records)
    with pytest.raises(OSError, match="crf/transitions"):
        FgnModel.load(path)


def test_load_rejects_shape_mismatch(tmp_path, model):
    path = tmp_path / "model.fgn"
    model.save(path)
    records = read_records(path)
    records["param/crf/start_scores"] = np.zeros(17)
    write_records(path, records)
    with pytest.raises(OSError, match="crf/start_scores"):
        FgnModel.load(path)


def test_load_rejects_mismatched_atlas(tmp_path, model):
    path = tmp_path / "model.fgn"
    model.save(path)
    records = read_records(path)
    records["atlas/codepoints"] = np.append(records["atlas/codepoints"], 0x4E00)
    write_records(path, records)
    with pytest.raises(OSError, match="atlas"):
        FgnModel.load(path)


@pytest.mark.parametrize("meta", [
    1.5, "[1, 2]", '{"format": 2}', "not json", {"format": 1}, {"vocab": 7}, {"labels": "O"},
    {"labels": [0]}, {"fallback_seed": "1"}, {"config": []}, {"config": {"cnn": {"variant": "dense"}}},
    {"config": {"cnn": {"pyramid_channels": 4}}},
], ids=["float", "list", "format_only", "not_json", "format_1", "int_vocab", "string_labels",
        "int_label", "string_seed", "list_config", "bad_variant", "int_pyramid"])
def test_load_rejects_malformed_meta(tmp_path, model, meta):
    path = tmp_path / "model.fgn"
    model.save(path)
    records = read_records(path)
    if isinstance(meta, dict):      # the saved meta with one field replaced
        meta = json.dumps({**json.loads(str(records["meta/model"])), **meta})
    records["meta/model"] = np.array(meta)
    write_records(path, records)
    with pytest.raises(OSError, match="model.fgn"):
        FgnModel.load(path)


def test_load_adopts_writable_float64_records(tmp_path, model):
    path = tmp_path / "model.fgn"
    model.save(path)
    for p in FgnModel.load(path).parameters():
        assert p.data.dtype == np.float64 and p.data.flags.writeable and p.data.flags.c_contiguous
    records = read_records(path)
    records["param/crf/transitions"] = records["param/crf/transitions"].astype(np.int64)
    write_records(path, records)
    with pytest.raises(OSError, match="crf/transitions is int64"):
        FgnModel.load(path)


# ---- one matrix per sentence against the per-character pipeline ----


def reference_fuse(c_v, g_v, spec, params, variant, include_parts):
    """Per-character fusion: narrowed slices, one outer product per slice pair, stacked rows."""
    if variant == "concat":
        return concat([c_v, g_v])
    n = validate_window(spec)
    kc, kg = spec.k_char, spec.k_glyph
    c_slices = [c_v[spec.s_char * i:spec.s_char * i + kc] for i in range(n)]
    g_slices = [g_v[spec.s_glyph * i:spec.s_glyph * i + kg] for i in range(n)]
    m = stack_rows([(c.reshape((kc, 1)) * g.reshape((1, kg))).reshape((kc * kg,))
                    for c, g in zip(c_slices, g_slices)])
    if variant == "slice_attention":
        gates = sigmoid(m @ params.score_weight.transpose((1, 0)) + params.score_bias)
        f_v = softmax(gates @ sigmoid(params.query)) @ m
    elif variant == "avg_pool":
        f_v = Tensor(np.ones(n) / n) @ m
    else:
        f_v = max_axis0(m)
    return concat([c_v, g_v, f_v]) if include_parts else f_v


def reference_hidden_rows(model, sentence, training, rng):
    """The sentence as a list of per-character rows at every stage, stacked only for the LSTM."""
    table = model.provider.table
    char_rows = [table[model.provider.index.get(ch, model.provider.unk_row)] for ch in sentence]
    glyphs = encode_sequence(sentence_to_graphs(model.atlas, sentence), model.config.cnn,
                             model.cnn_params, training, rng)
    glyph_rows = [glyphs[t] for t in range(len(sentence))]
    xs = [reference_fuse(c, g, model.config.window_spec(), model.fusion_params,
                         model.config.fusion.variant, model.config.fusion.include_parts)
          for c, g in zip(char_rows, glyph_rows)]
    h = bilstm_encode(stack_rows(xs), model.tagger_params, training, rng)
    return [h[t] for t in range(len(sentence))]


def loss_and_grads(model, hidden, sentence, training, seed):
    params = model.parameters()
    for p in params:
        p.grad[...] = 0.0
    rng = np.random.default_rng(seed) if training else None
    hs = hidden(sentence.chars, training, rng)
    loss = nll_loss([(hs, [model.scheme.label_index(lab) for lab in sentence.labels])], model.crf)
    loss.backward()
    return np.stack([h.data for h in hs]), loss.item(), [p.grad.copy() for p in params]


def small_cnn(variant):
    return CgsCnnConfig(variant=variant, conv3d_channels=2, tianzige_channels=16,
                        pyramid_channels=(4, 4, 8, 16), pool1d_window=1, pool1d_stride=1)


@pytest.mark.parametrize("tagger", TAGGER_VARIANTS)
@pytest.mark.parametrize("fusion", FUSION_VARIANTS)
@pytest.mark.parametrize("cnn", CNN_VARIANTS)
def test_sentence_matrix_matches_per_character_pipeline(cnn, fusion, tagger):
    scheme = LabelScheme.from_entity_types(("LOC",))
    rng = np.random.default_rng([CNN_VARIANTS.index(cnn), FUSION_VARIANTS.index(fusion),
                                 TAGGER_VARIANTS.index(tagger)])
    for include_parts in (True, False):
        config = tiny_config(cnn=small_cnn(cnn), tagger=TaggerConfig(variant=tagger),
                             fusion=replace(tiny_config().fusion, variant=fusion,
                                            include_parts=include_parts))
        model = FgnModel(config, scheme, VOCAB, GlyphAtlas(fallback_seed=3))
        if model.fusion_params is not None:
            # nonzero query and bias, so the attention weights are not uniform
            for p in model.fusion_params.parameters()[1:]:
                p.data[...] = rng.normal(size=p.shape)

        def hidden(chars, training, rng_):
            return model.hidden_states(chars, training=training, rng=rng_)

        def reference(chars, training, rng_):
            return reference_hidden_rows(model, chars, training, rng_)

        # dropout off at three lengths; dropout on (cnn 0.2, tagger 0.5) with equal seeds at the longest
        for tau, training in ((1, False), (2, False), (7, False), (7, True)):
            labels = tuple(scheme.labels[int(v)] for v in rng.integers(0, scheme.label_count, size=tau))
            sentence = TaggedSentence(VOCAB[:tau], labels, 0)
            h_new, loss_new, grads_new = loss_and_grads(model, hidden, sentence, training, 5)
            h_ref, loss_ref, grads_ref = loss_and_grads(model, reference, sentence, training, 5)
            np.testing.assert_allclose(h_new, h_ref, rtol=1e-10, atol=1e-12)
            assert abs(loss_new - loss_ref) <= 1e-10 * max(1.0, abs(loss_ref))
            for p, g_new, g_ref in zip(model.parameters(), grads_new, grads_ref):
                np.testing.assert_allclose(g_new, g_ref, rtol=1e-10, atol=1e-12, err_msg=p.name)

        # fusing one character alone gives the row of the sentence call
        c = model.provider.embed(0, VOCAB)
        g = encode_sequence(sentence_to_graphs(model.atlas, VOCAB), config.cnn, model.cnn_params)
        spec = config.window_spec()
        whole = fuse_character(c, g, spec, model.fusion_params, fusion, include_parts).data
        for t in range(len(VOCAB)):
            one = fuse_character(c[t], g[t], spec, model.fusion_params, fusion, include_parts).data
            np.testing.assert_allclose(one, whole[t], rtol=0, atol=1e-12)


def graph_size(root) -> int:
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_graph_grows_only_with_the_crf_recursion(model):
    # the CRF forward recursion is the one part of the loss built per character
    def nodes(tau):
        chars = (VOCAB * 2)[:tau]
        return graph_size(model.loss([TaggedSentence(chars, ("O",) * tau, 0)], training=False))

    short, long = nodes(4), nodes(12)
    assert long - short <= 8 * (12 - 4), (short, long)
