import numpy as np
import pytest

from fgn.embedding import (FileBackedEmbedding, LookupTableEmbedding,
                           read_embedding_file, write_embedding_file)
from fgn.optim import AdamState, adam_step
from fgn.serialize import write_records


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


def test_frozen_table_survives_adam(rng):
    provider = LookupTableEmbedding(("我",), 8, rng, frozen=True)
    before = provider.table.data.copy()
    state = AdamState(provider.parameters())
    for _ in range(10):
        provider.embed(0, "我")[0].sum().backward()
        adam_step(provider.parameters(), state)
    assert np.array_equal(provider.table.data, before)


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
    provider = FileBackedEmbedding.from_file(path)
    assert provider.dim == 4 and provider.frozen
    vecs = provider.embed(0, "我爱")
    # the stored vectors are a constant: a plain array, not a graph leaf
    assert isinstance(vecs, np.ndarray) and vecs.dtype == np.float64
    assert np.array_equal(vecs, records[0].astype(np.float64))


def test_file_backed_length_mismatch_names_sentence(tmp_path, rng):
    path = tmp_path / "e.bin"
    write_embedding_file(path, [rng.standard_normal((3, 4))])
    provider = FileBackedEmbedding.from_file(path)
    with pytest.raises(ValueError, match="sentence 0"):
        provider.embed(0, "我爱")
    with pytest.raises(ValueError):
        provider.embed(5, "我")


def test_file_backed_rejects_empty(tmp_path):
    path = tmp_path / "e.bin"
    write_embedding_file(path, [])
    with pytest.raises(ValueError):
        FileBackedEmbedding.from_file(path)


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
