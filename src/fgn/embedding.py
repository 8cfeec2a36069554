"""Per-character distributed representations behind a provider contract.

Two providers: a lookup table (with a shared UNK row), trained or frozen, and
frozen file-backed vectors replayed from a vector file, so contextual
embeddings produced elsewhere need no encoder in this codebase. Trained rows
come back as a Tensor; frozen rows, a frozen table's or a file's, as a
constant float64 array, which every op takes without making it a graph leaf.
A vector file holds two `serialize` records: "lengths" (int64, one character
count per sentence, in dataset order) and "vectors" (float32, every
sentence's (tau, d) rows stacked in that order).
"""

from __future__ import annotations

import numpy as np

from .serialize import read_records, write_records
from .tensor import Parameter, Tensor, uniform_fan_init


class LookupTableEmbedding:
    """One row per known character plus a shared UNK row; a frozen table embeds as constants."""

    def __init__(self, vocab, dim: int, rng: np.random.Generator, frozen: bool = False):
        if dim < 1:
            raise ValueError("embedding dimension must be positive, got %d" % dim)
        self.vocab = tuple(vocab)
        self.index = {ch: i for i, ch in enumerate(self.vocab)}
        if len(self.index) != len(self.vocab):
            raise ValueError("embedding vocabulary contains duplicate characters")
        self.dim = dim
        self.frozen = frozen
        rows = len(self.vocab) + 1  # last row is UNK
        self.table = Parameter(uniform_fan_init(rng, (rows, dim), rows, dim), name="embed/table")

    @property
    def unk_row(self) -> int:
        return len(self.vocab)

    def embed(self, sentence_index: int, sentence: str) -> Tensor | np.ndarray:
        """(tau, dim) rows of the table, one per character; a constant array when frozen."""
        rows = np.array([self.index.get(ch, self.unk_row) for ch in sentence], dtype=np.int64)
        return self.table.data[rows] if self.frozen else self.table[rows]

    def parameters(self) -> list:
        return [self.table]


class FileBackedEmbedding:
    """Frozen contextual vectors stored per sentence, in dataset order."""

    def __init__(self, records: list, dim: int):
        self.records = records
        self.dim = dim
        self.frozen = True

    @classmethod
    def from_file(cls, path, dim: int) -> "FileBackedEmbedding":
        """The vectors of a vector file, which must be dim wide: the d_char of the model that reads them."""
        records = read_embedding_file(path)
        if not records:
            raise ValueError("embedding file %s holds no sentences" % path)
        if records[0].shape[1] != dim:
            raise ValueError("embedding file %s holds %d-d vectors but the config says d_char=%d"
                             % (path, records[0].shape[1], dim))
        return cls(records, dim)

    def embed(self, sentence_index: int, sentence: str) -> np.ndarray:
        """The stored (tau, dim) record of the sentence, as a constant array."""
        if not 0 <= sentence_index < len(self.records):
            raise ValueError("no stored vectors for sentence %d (provider holds %d)"
                             % (sentence_index, len(self.records)))
        rec = self.records[sentence_index]
        if rec.shape[0] != len(sentence):
            raise ValueError("sentence %d has %d characters but its stored record has %d vectors"
                             % (sentence_index, len(sentence), rec.shape[0]))
        return rec

    def parameters(self) -> list:
        return []


def write_embedding_file(path, records: list) -> None:
    """records: one (tau, d) float array per sentence, in dataset order, all of one width d."""
    records = [np.asarray(rec, dtype=np.float32) for rec in records]
    for i, rec in enumerate(records):
        if rec.ndim != 2 or rec.shape[1] != records[0].shape[1]:
            raise ValueError("embedding record %d has shape %r; records must be (tau, d) with one d "
                             "(record 0 is %r)" % (i, rec.shape, records[0].shape))
    lengths = np.array([len(rec) for rec in records], dtype=np.int64)
    vectors = np.concatenate(records) if records else np.zeros((0, 0), dtype=np.float32)
    write_records(path, {"lengths": lengths, "vectors": vectors})


def read_embedding_file(path) -> list:
    """One (tau, d) float64 array per sentence, in dataset order."""
    records = read_records(path)
    lengths, vectors = records.get("lengths"), records.get("vectors")
    if (lengths is None or vectors is None or lengths.ndim != 1 or lengths.dtype.kind not in "iu"
            or vectors.ndim != 2 or vectors.dtype.kind != "f" or (lengths < 0).any()
            or lengths.sum() != len(vectors)):
        raise OSError("%s is not a vector file: it needs 1-d non-negative integer lengths that sum "
                      "to the rows of 2-d float vectors" % path)
    vectors = vectors.astype(np.float64)
    ends = np.cumsum(lengths).tolist()
    return [vectors[end - n:end] for n, end in zip(lengths.tolist(), ends)]
