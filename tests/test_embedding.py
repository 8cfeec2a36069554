import numpy as np
import pytest

from fgn.config import EmbeddingConfig, FusionConfig, RunConfig
from fgn.corpus import TaggedSentence
from fgn.embedding import (FileBackedEmbedding, LookupTableEmbedding,
                           read_embedding_file, write_embedding_file)
from fgn.glyphs import GlyphAtlas
from fgn.model import FgnModel
from fgn.optim import AdamState, adam_step
from fgn.serialize import write_records
from fgn.tagger import LabelScheme


def test_lookup_same_char_same_row(rng):
    provider = LookupTableEmbedding(("我", "爱"), 16, rng)
    vecs = provider.embed(0, "我我")
    assert len(vecs) == 2
    assert np.array_equal(vecs[0].data, vecs[1].data)
    assert vecs[0].data.shape == (16,)


def test_lookup_unknown_shares_unk_row(rng):
    provider = LookupTableEmbedding(("我",), 8, rng)
    a, b = provider.embed(0, "XY")
    assert np.array_equal(a.data, b.data)
    known = provider.embed(0, "我")[0]
    assert not np.array_equal(a.data, known.data)


def test_lookup_rejects_duplicate_vocab(rng):
    with pytest.raises(ValueError):
        LookupTableEmbedding(("我", "我"), 8, rng)


def test_frozen_table_embeds_constant_rows(rng):
    provider = LookupTableEmbedding(("我",), 8, rng, frozen=True)
    rows = provider.embed(0, "我X")
    assert isinstance(rows, np.ndarray)
    assert np.array_equal(rows, provider.table.data[[0, 1]])


def test_frozen_table_survives_training():
    # every Parameter takes Adam's step; the frozen table's is zero, so after
    # training the table is bit-identical while the rest of the model moves
    config = RunConfig(seed=3, d_char=8, d_hidden=6, embedding=EmbeddingConfig(frozen=True),
                       fusion=FusionConfig(k_char=4, s_char=2, k_glyph=32, s_glyph=16))
    model = FgnModel(config, LabelScheme.from_entity_types(("LOC",)), "我爱北京", GlyphAtlas(fallback_seed=3))
    params = model.parameters()
    before = [p.data.copy() for p in params]
    state, rng = AdamState(params), np.random.default_rng(0)
    for _ in range(3):
        model.loss([TaggedSentence("我爱北京", ("O", "O", "B-LOC", "E-LOC"), 0)], training=True, rng=rng).backward()
        adam_step(params, state)
    assert params[0] is model.provider.table
    assert np.array_equal(params[0].data.view(np.int64), before[0].view(np.int64))
    assert all(not np.array_equal(p.data, b) for p, b in zip(params[1:], before[1:]))


def test_trainable_table_moves(rng):
    provider = LookupTableEmbedding(("我",), 8, rng)
    before = provider.table.data.copy()
    state = AdamState(provider.parameters())
    provider.embed(0, "我")[0].sum().backward()
    adam_step(provider.parameters(), state)
    assert not np.array_equal(provider.table.data[0], before[0])
    # the UNK row saw no gradient, so it stays put
    assert np.array_equal(provider.table.data[1], before[1])


def test_file_roundtrip(tmp_path, rng):
    records = [rng.standard_normal((3, 4)).astype(np.float32),
               rng.standard_normal((1, 4)).astype(np.float32)]
    path = tmp_path / "e.bin"
    write_embedding_file(path, records)
    back = read_embedding_file(path)
    assert len(back) == 2
    for got, want in zip(back, records):
        assert np.array_equal(got, want.astype(np.float64))


def test_file_backed_embed(tmp_path, rng):
    records = [rng.standard_normal((2, 4)).astype(np.float32)]
    path = tmp_path / "e.bin"
    write_embedding_file(path, records)
    provider = FileBackedEmbedding.from_file(path, 4)
    assert provider.dim == 4 and provider.frozen
    vecs = provider.embed(0, "我爱")
    # the stored vectors are a constant: a plain array, not a graph leaf
    assert isinstance(vecs, np.ndarray) and vecs.dtype == np.float64
    assert np.array_equal(vecs, records[0].astype(np.float64))


def test_file_backed_length_mismatch_names_sentence(tmp_path, rng):
    path = tmp_path / "e.bin"
    write_embedding_file(path, [rng.standard_normal((3, 4))])
    provider = FileBackedEmbedding.from_file(path, 4)
    with pytest.raises(ValueError, match="sentence 0"):
        provider.embed(0, "我爱")
    with pytest.raises(ValueError):
        provider.embed(5, "我")


def test_file_backed_rejects_empty(tmp_path):
    path = tmp_path / "e.bin"
    write_embedding_file(path, [])
    with pytest.raises(ValueError):
        FileBackedEmbedding.from_file(path, 4)


@pytest.mark.parametrize("dim", [3, 5])
def test_file_backed_rejects_vectors_of_another_width(tmp_path, rng, dim):
    path = tmp_path / "e.bin"
    write_embedding_file(path, [rng.standard_normal((2, 4))])
    with pytest.raises(ValueError, match=r"e\.bin holds 4-d vectors but the config says d_char=%d" % dim):
        FileBackedEmbedding.from_file(path, dim)


def test_truncated_file_rejected(tmp_path, rng):
    path = tmp_path / "e.bin"
    write_embedding_file(path, [rng.standard_normal((2, 3))])
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(OSError):
        read_embedding_file(path)


def test_writer_rejects_mixed_widths(tmp_path, rng):
    with pytest.raises(ValueError, match="record 1"):
        write_embedding_file(tmp_path / "e.bin", [rng.standard_normal((2, 4)), rng.standard_normal((3, 5))])
    with pytest.raises(ValueError, match="record 0"):
        write_embedding_file(tmp_path / "e.bin", [rng.standard_normal(4)])


def test_reader_checks_lengths_against_vectors(tmp_path, rng):
    path = tmp_path / "e.bin"
    vectors = rng.standard_normal((5, 4)).astype(np.float32)
    bad = [
        {"lengths": np.array([2, 2]), "vectors": vectors},             # sums to 4, not 5 rows
        {"lengths": np.array([6, -1]), "vectors": vectors},            # negative
        {"lengths": np.array([2.0, 3.0]), "vectors": vectors},         # not integer
        {"lengths": np.array([[2, 3]]), "vectors": vectors},           # not 1-d
        {"lengths": np.array([5]), "vectors": vectors.ravel()[:5]},    # vectors not 2-d
        {"lengths": np.array([5])},                                    # no vectors
    ]
    for records in bad:
        write_records(path, records)
        with pytest.raises(OSError, match="e.bin"):
            read_embedding_file(path)
    # the retired format: magic, sentence count 1, then one (1, 1) float32 record
    one = (1).to_bytes(4, "little")
    path.write_bytes(b"FGNEMB1" + one * 3 + np.float32(0.5).tobytes())
    with pytest.raises(OSError):
        read_embedding_file(path)
