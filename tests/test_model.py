"""End-to-end model assembly, decoding, and model files (records of fgn.serialize)."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fgn.tensor as tensor_module
from fgn import cgs_cnn
from fgn import model as model_module
from fgn.cgs_cnn import CNN_VARIANTS, CgsCnnConfig, encode_sequence
from fgn.config import EMBEDDING_KINDS, EmbeddingConfig, FusionConfig, RunConfig
from fgn.config import TaggerConfig
from fgn.corpus import TaggedSentence
from fgn.embedding import FileBackedEmbedding, write_embedding_file
from fgn.fusion import FUSION_VARIANTS, fuse_character, validate_window
from fgn.glyphs import GlyphAtlas, sentence_to_graphs
from fgn.model import FgnModel
from fgn.optim import AdamState, adam_step, zero_grads
from fgn.serialize import read_records, write_records
from fgn.synth import synthetic_atlas
from fgn.tagger import TAGGER_VARIANTS, LabelScheme, bilstm_encode, nll_loss
from fgn.tensor import (Parameter, Tensor, _openblas_threads, concat, is_recording, no_grad, sigmoid,
                        softmax, stack_rows)

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
    zero_grads(params)
    loss = model.loss(sentences, training=False)
    loss.backward()
    untouched = [p.name for p in params if not np.any(p.grad != 0.0)]
    assert untouched == []
    zero_grads(params)


def test_training_loss_needs_an_rng(model):
    with pytest.raises(ValueError, match="needs an rng"):
        model.loss([TaggedSentence("北京", ("B-LOC", "E-LOC"), 0)], training=True, rng=None)


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
    assert len(loaded.atlas) == 0 and loaded.atlas.images.shape == (0, 50, 50)   # an empty atlas round-trips
    for pa, pb in zip(model.parameters(), loaded.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    for sent in ("北京", "我爱北京天安门", "鑫垚犇"):
        assert loaded.decode(sent) == model.decode(sent)


def test_loaded_model_holds_no_gradients(model, tmp_path):
    # a model loaded to decode allocates no gradient buffer; an optimizer gives them
    path = tmp_path / "model.fgn"
    model.save(path)
    loaded = FgnModel.load(path)
    assert all(p.grad is None for p in loaded.parameters())
    loaded.decode("我爱北京")
    assert all(p.grad is None for p in loaded.parameters())


def test_save_embeds_atlas(tmp_path):
    scheme = LabelScheme.from_entity_types(("LOC",))
    img = np.linspace(0, 255, 2500).astype(np.uint8).reshape(50, 50)
    model = FgnModel(tiny_config(), scheme, "北", GlyphAtlas([0x5317], img[None], fallback_seed=9))
    path = tmp_path / "model.fgn"
    model.save(path)
    loaded = FgnModel.load(path)
    assert loaded.atlas.fallback_seed == 9
    assert set(loaded.atlas.entries) == {0x5317}
    np.testing.assert_array_equal(loaded.atlas.images[loaded.atlas.entries[0x5317]], img)


def test_saved_glyphs_are_bytes_the_loaded_model_reads_over_255(tmp_path):
    atlas, pools = synthetic_atlas(per_pool=2, filler=2)
    vocab = "".join(pools.values())
    path = tmp_path / "model.fgn"
    FgnModel(tiny_config(), LabelScheme.from_entity_types(("LOC", "PER")), vocab, atlas).save(path)
    records = read_records(path)
    assert json.loads(str(records["meta/model"]))["format"] == 3
    assert records["atlas/images"].dtype == np.uint8 and records["atlas/images"].shape == (6, 50, 50)
    loaded = FgnModel.load(path)
    assert list(loaded.atlas.entries) == list(atlas.entries)
    # bit for bit the float64 glyphs of the byte images: each byte over 255
    graphs = sentence_to_graphs(loaded.atlas, "".join(map(chr, atlas.entries)))
    assert graphs.tobytes() == (atlas.images.astype(np.float64) / 255.0).tobytes()


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
    1.5, "[1, 2]", '{"format": 3}', "not json", {"format": 1}, {"vocab": 7}, {"labels": "O"},
    {"labels": [0]}, {"fallback_seed": "1"}, {"fallback_seed": True}, {"config": []}, {"config": {"cnn": {"variant": "dense"}}},
    {"config": {"cnn": {"pyramid_channels": 4}}},
], ids=["float", "list", "format_only", "not_json", "format_1", "int_vocab", "string_labels",
        "int_label", "string_seed", "bool_fallback_seed", "list_config", "bad_variant", "int_pyramid"])
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


@pytest.fixture(scope="module")
def two_type_file(tmp_path_factory):
    """A saved LOC/PER model whose atlas holds one glyph, U+4E00."""
    atlas = GlyphAtlas([0x4E00], np.linspace(0, 255, 2500).astype(np.uint8).reshape(1, 50, 50), fallback_seed=3)
    path = tmp_path_factory.mktemp("two_type") / "model.fgn"
    FgnModel(tiny_config(), LabelScheme.from_entity_types(("LOC", "PER")), VOCAB, atlas).save(path)
    return path


def swap_b_per_b_loc(meta):
    labels = meta["labels"]
    i, j = labels.index("B-PER"), labels.index("B-LOC")
    labels[i], labels[j] = labels[j], labels[i]
    return meta


def edit_meta(edit):
    def apply(records):
        records["meta/model"] = np.array(json.dumps(edit(json.loads(str(records["meta/model"])))))
    return apply


def set_config_value(where, value):
    def edit(meta):
        *section, key = where.split(".")
        target = meta["config"][section[0]] if section else meta["config"]
        target[key] = value
        return meta
    return edit_meta(edit)


def edit_record(name, edit):
    def apply(records):
        records[name] = edit(records[name])
    return apply


def repeat_atlas_entry(records):
    records["atlas/codepoints"] = np.repeat(records["atlas/codepoints"], 2)
    records["atlas/images"] = np.repeat(records["atlas/images"], 2, axis=0)


def as_format_2(records):
    """The file as the float64-glyph format 2 wrote it."""
    edit_meta(lambda meta: {**meta, "format": 2})(records)
    records["atlas/images"] = records["atlas/images"] / 255.0


@pytest.mark.parametrize("change", [
    edit_meta(swap_b_per_b_loc),
    edit_meta(lambda meta: {**meta, "fallback_seed": -1}),
    edit_meta(lambda meta: {**meta, "vocab": "我我爱"}),
    edit_record("atlas/images", lambda a: a[:, :49, :49]),
    edit_record("atlas/images", lambda a: a / 255.0),
    as_format_2,
    lambda records: records.pop("atlas/codepoints"),
    lambda records: records.pop("atlas/images"),
    edit_record("atlas/codepoints", lambda a: a.astype(np.float64)),
    edit_record("atlas/codepoints", lambda a: a.reshape(1, -1)),
    repeat_atlas_entry,
    set_config_value("fusion.include_parts", "false"),
    set_config_value("tagger.constrain_transitions", "false"),
    set_config_value("embedding.frozen", "false"),
    set_config_value("seed", True),
    set_config_value("epochs", 2.5),
], ids=["swapped_labels", "negative_fallback_seed", "repeated_vocab", "49x49_images", "float_images",
        "format_2", "no_codepoints", "no_images", "float_codepoints", "2d_codepoints", "repeated_codepoint", "string_include_parts",
        "string_constrain_transitions", "string_frozen", "bool_config_seed", "float_epochs"])
def test_load_rejects_unusable_records(tmp_path, two_type_file, change):
    records = read_records(two_type_file)
    FgnModel.load(two_type_file)      # the file as saved loads
    change(records)
    path = tmp_path / "model.fgn"
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
    else:   # the first row holding each column's max
        f_v = m[np.argmax(m.data, axis=0), np.arange(kc * kg)]
    return concat([c_v, g_v, f_v]) if include_parts else f_v


def reference_hidden_rows(model, sentence, rng):
    """The sentence as a list of per-character rows at every stage, stacked only for the LSTM."""
    table = model.provider.table
    char_rows = [table[model.provider.index.get(ch, model.provider.unk_row)] for ch in sentence]
    glyphs = encode_sequence(sentence_to_graphs(model.atlas, sentence), model.config.cnn,
                             model.cnn_params, rng)
    glyph_rows = [glyphs[t] for t in range(len(sentence))]
    xs = [reference_fuse(c, g, model.config.window_spec(), model.fusion_params,
                         model.config.fusion.variant, model.config.fusion.include_parts)
          for c, g in zip(char_rows, glyph_rows)]
    h = bilstm_encode(stack_rows(xs), model.tagger_params, rng)
    return [h[t] for t in range(len(sentence))]


def loss_and_grads(model, hidden, sentence, dropout_seed):
    params = model.parameters()
    zero_grads(params)
    rng = np.random.default_rng(dropout_seed) if dropout_seed is not None else None
    hs = hidden(sentence.chars, rng)
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

        def hidden(chars, rng_):
            return model.hidden_states(chars, rng=rng_)

        def reference(chars, rng_):
            return reference_hidden_rows(model, chars, rng_)

        # dropout off at three lengths; dropout on (cnn 0.2, tagger 0.5) with equal seeds at the longest
        for tau, dropout_seed in ((1, None), (2, None), (7, None), (7, 5)):
            labels = tuple(scheme.labels[int(v)] for v in rng.integers(0, scheme.label_count, size=tau))
            sentence = TaggedSentence(VOCAB[:tau], labels, 0)
            h_new, loss_new, grads_new = loss_and_grads(model, hidden, sentence, dropout_seed)
            h_ref, loss_ref, grads_ref = loss_and_grads(model, reference, sentence, dropout_seed)
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


def graph_nodes(root) -> list:
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def graph_size(root) -> int:
    return len(graph_nodes(root))


def test_loss_graph_size_does_not_grow_with_the_sentence(model):
    # every layer, the CRF likelihood too, runs a sentence as a whole: no node is built per character
    def nodes(tau):
        chars = (VOCAB * 2)[:tau]
        return graph_size(model.loss([TaggedSentence(chars, ("O",) * tau, 0)], training=False))

    counts = [nodes(tau) for tau in (1, 4, 12)]
    assert counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("constrain", [False, True])
@pytest.mark.parametrize("kind", EMBEDDING_KINDS)
@pytest.mark.parametrize("fusion", FUSION_VARIANTS)
def test_every_loss_leaf_is_a_parameter(tmp_path, fusion, kind, constrain):
    # file-backed vectors, the BMES masks and the avg-pool weights enter as constants, not leaves
    path = tmp_path / "vectors.emb"
    write_embedding_file(path, [np.random.default_rng(0).normal(size=(4, 8))])
    config = tiny_config(cnn=small_cnn("cgs"), fusion=replace(tiny_config().fusion, variant=fusion),
                         tagger=TaggerConfig(constrain_transitions=constrain),
                         embedding=EmbeddingConfig(kind=kind, path=str(path) if kind == "file_backed" else None))
    model = FgnModel(config, LabelScheme.from_entity_types(("LOC",)), VOCAB, GlyphAtlas(fallback_seed=3))
    loss = model.loss([TaggedSentence("我爱北京", ("O", "O", "B-LOC", "E-LOC"), 0)],
                      training=True, rng=np.random.default_rng(1))
    leaves = [n for n in graph_nodes(loss) if not n._parents]
    assert [n.shape for n in leaves if not isinstance(n, Parameter)] == []
    assert {id(n) for n in leaves} <= {id(p) for p in model.parameters()}


@pytest.mark.parametrize("fusion", FUSION_VARIANTS)
def test_frozen_table_is_a_constant_of_the_loss(fusion):
    # a frozen table's rows enter as a plain-array gather: the table is no node of the
    # loss graph, and backward gives it no gradient
    config = tiny_config(cnn=small_cnn("cgs"), fusion=replace(tiny_config().fusion, variant=fusion),
                         embedding=EmbeddingConfig(frozen=True))
    model = FgnModel(config, LabelScheme.from_entity_types(("LOC",)), VOCAB, GlyphAtlas(fallback_seed=3))
    table = model.provider.table
    loss = model.loss([TaggedSentence("我爱北京", ("O", "O", "B-LOC", "E-LOC"), 0)],
                      training=True, rng=np.random.default_rng(1))
    assert id(table) not in {id(n) for n in graph_nodes(loss)}
    loss.backward()
    assert table.grad is None
    assert all(p.grad.any() for p in model.parameters() if p is not table)


# ---- forward-only decode ----


def test_decode_memory_does_not_grow_with_the_sentence():
    # decode keeps no graph and encodes glyphs in bounded chunks, so a sentence
    # 2.5x longer must not cost 2.5x the peak memory
    model = FgnModel(RunConfig(), LabelScheme.from_entity_types(("LOC",)), VOCAB,
                     GlyphAtlas(fallback_seed=3))

    def peak(tau):
        tracemalloc.start()
        try:
            model.decode((VOCAB * tau)[:tau])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the chunk threads overlap in most decodes, not all, so each length takes its largest of 3
    short, long = max(peak(32) for _ in range(3)), max(peak(80) for _ in range(3))
    assert long <= 1.3 * short, (short, long)


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy bundles no OpenBLAS with thread control")
def test_long_decode_keeps_blas_in_its_thread_and_restores_the_count(model, monkeypatch):
    # a sentence longer than the encoder's CHUNK decodes on one BLAS thread, Viterbi
    # included; a short one keeps the count it found; both leave it as they found it
    get, put, _ = _openblas_threads()
    saved = get()
    inner, seen = model_module.viterbi_decode, []
    monkeypatch.setattr(model_module, "viterbi_decode", lambda *args: seen.append(get()) or inner(*args))
    put(2)
    try:
        outer = get()
        assert len(model.decode((VOCAB * 6)[:40])) == 40
        assert get() == outer
        model.decode(VOCAB)
        assert get() == outer
        assert seen == [1, outer]
    finally:
        put(saved)


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy bundles no OpenBLAS with thread control")
def test_long_decode_stops_no_blas_worker(model, monkeypatch):
    # its pin holds the count at 1, so the encoder's chunk threads stop nothing; an unpinned
    # no-grad encode of the same sentence at a count of 2 stops the workers once
    get, put, _ = _openblas_threads()
    shutdowns = []
    monkeypatch.setattr(tensor_module, "_openblas_threads", lambda: (get, put, lambda: shutdowns.append(get())))
    monkeypatch.setattr(cgs_cnn, "usable_cpus", lambda: 2)
    saved = get()
    put(2)
    try:
        sentence = (VOCAB * 6)[:40]
        model.decode(sentence)
        assert shutdowns == []
        with no_grad():
            model.hidden_states(sentence)
        assert shutdowns == [1]
    finally:
        put(saved)


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy bundles no OpenBLAS with thread control")
@pytest.mark.parametrize("tau", [40, 96])
def test_pinned_long_decode_sees_the_recorded_hidden_states_bit_for_bit(monkeypatch, tau):
    # at the default config, the chunked, threaded encode of a decode held to one BLAS
    # thread gives Viterbi the same bits as a recorded whole-sentence forward on 2
    model = FgnModel(RunConfig(), LabelScheme.from_entity_types(("LOC",)), VOCAB,
                     GlyphAtlas(fallback_seed=3))
    get, put, _ = _openblas_threads()
    inner, seen = model_module.viterbi_decode, []
    monkeypatch.setattr(model_module, "viterbi_decode", lambda hs, *args: seen.append(hs) or inner(hs, *args))
    monkeypatch.setattr(cgs_cnn, "usable_cpus", lambda: 2)
    sentence = (VOCAB * 14)[:tau]
    saved = get()
    put(2)
    try:
        recorded = model.hidden_states(sentence).data
        model.decode(sentence)
    finally:
        put(saved)
    assert np.array_equal(seen[0].data.view(np.int64), recorded.view(np.int64))


@pytest.mark.parametrize("cnn", CNN_VARIANTS)
def test_no_grad_hidden_states_leave_no_graph(cnn):
    model = FgnModel(tiny_config(cnn=small_cnn(cnn)), LabelScheme.from_entity_types(("LOC",)), VOCAB,
                     GlyphAtlas(fallback_seed=3))
    recorded = model.hidden_states(VOCAB * 3)
    with no_grad():
        hs = model.hidden_states(VOCAB * 3)
    assert graph_size(recorded) > 1
    assert graph_size(hs) == 1
    assert np.array_equal(hs.data, recorded.data)


def train_losses(model, steps, between):
    """Losses of `steps` Adam steps, calling between(model) before each step."""
    params = model.parameters()
    state, rng = AdamState(params), np.random.default_rng(4)
    sentence = TaggedSentence("我爱北京", ("O", "O", "B-LOC", "E-LOC"), 0)
    losses = []
    for _ in range(steps):
        between(model)
        loss = model.loss([sentence], training=True, rng=rng)
        loss.backward()
        losses.append(loss.item())
        adam_step(params, state)
    return losses


@pytest.mark.parametrize("cnn", CNN_VARIANTS)
def test_decodes_do_not_perturb_training(cnn):
    config = tiny_config(cnn=small_cnn(cnn))
    scheme = LabelScheme.from_entity_types(("LOC",))
    missing = FileBackedEmbedding([np.zeros((4, config.d_char))], config.d_char)

    def decodes(model):
        # nonzero gradients, as if a loss were mid-accumulation, survive a decode untouched
        grads = []
        for i, p in enumerate(model.parameters()):
            p.accumulate(np.full(p.shape, i + 1.0))
            grads.append(p.grad.copy())
        model.decode(VOCAB * 3)
        with pytest.raises(ValueError, match="no stored vectors"):
            model.decode("我爱北京", 5, provider=missing)   # raises inside the no_grad scope
        assert is_recording()
        for p, g in zip(model.parameters(), grads):
            assert np.array_equal(p.grad, g)
            p.grad = None

    def fresh():
        return FgnModel(config, scheme, VOCAB, GlyphAtlas(fallback_seed=3))

    plain = train_losses(fresh(), 3, lambda m: None)
    interleaved = train_losses(fresh(), 3, decodes)
    assert np.array_equal(np.array(interleaved).view(np.int64), np.array(plain).view(np.int64))
