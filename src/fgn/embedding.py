"""Per-character distributed representations behind a provider contract.

Two providers: a trainable lookup table (with a shared UNK row), and frozen
file-backed vectors replayed from an FGNEMB1 file so contextual embeddings
produced elsewhere can be used without any encoder living in this codebase.
"""

from __future__ import annotations

import struct

import numpy as np

from .tensor import Parameter, Tensor, uniform_fan_init

EMBEDDING_MAGIC = b"FGNEMB1"


class LookupTableEmbedding:
    """Trainable table: one row per known character plus a shared UNK row."""

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
        self.table = Parameter(uniform_fan_init(rng, (rows, dim), rows, dim),
                               name="embed/table", trainable=not frozen)

    @property
    def unk_row(self) -> int:
        return len(self.vocab)

    def embed(self, sentence_index: int, sentence: str) -> Tensor:
        """(tau, dim) rows of the table, one per character."""
        return self.table[np.array([self.index.get(ch, self.unk_row) for ch in sentence], dtype=np.int64)]

    def parameters(self) -> list:
        return [self.table]


class FileBackedEmbedding:
    """Frozen contextual vectors stored per sentence, in dataset order."""

    def __init__(self, records: list, dim: int):
        self.records = records
        self.dim = dim
        self.frozen = True

    @classmethod
    def from_file(cls, path) -> "FileBackedEmbedding":
        records = read_embedding_file(path)
        if not records:
            raise ValueError("embedding file %s holds no sentences" % path)
        dims = {r.shape[1] for r in records}
        if len(dims) != 1:
            raise ValueError("embedding file %s mixes vector sizes %s" % (path, sorted(dims)))
        return cls(records, dims.pop())

    def embed(self, sentence_index: int, sentence: str) -> Tensor:
        """The stored (tau, dim) record of the sentence."""
        if not 0 <= sentence_index < len(self.records):
            raise ValueError("no stored vectors for sentence %d (provider holds %d)"
                             % (sentence_index, len(self.records)))
        rec = self.records[sentence_index]
        if rec.shape[0] != len(sentence):
            raise ValueError("sentence %d has %d characters but its stored record has %d vectors"
                             % (sentence_index, len(sentence), rec.shape[0]))
        return Tensor(rec)

    def parameters(self) -> list:
        return []


def write_embedding_file(path, records: list) -> None:
    """records: one (tau, d) float array per sentence, in dataset order."""
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<I", len(records)))
        for rec in records:
            rec = np.asarray(rec, dtype=np.float32)
            if rec.ndim != 2:
                raise ValueError("each embedding record must be (tau, d), got shape %r" % (rec.shape,))
            tau, d = rec.shape
            f.write(struct.pack("<II", tau, d))
            f.write(rec.astype("<f4").tobytes())


def read_embedding_file(path) -> list:
    with open(path, "rb") as f:
        magic = f.read(len(EMBEDDING_MAGIC))
        if magic != EMBEDDING_MAGIC:
            raise OSError("not an FGNEMB1 embedding file (bad magic %r)" % (magic[:8],))
        raw = f.read(4)
        if len(raw) != 4:
            raise OSError("truncated embedding file while reading the sentence count")
        (count,) = struct.unpack("<I", raw)
        records = []
        for i in range(count):
            head = f.read(8)
            if len(head) != 8:
                raise OSError("truncated embedding file at sentence %d header" % i)
            tau, d = struct.unpack("<II", head)
            payload = f.read(4 * tau * d)
            if len(payload) != 4 * tau * d:
                raise OSError("truncated embedding file at sentence %d payload" % i)
            records.append(np.frombuffer(payload, dtype="<f4").reshape(tau, d).astype(np.float64))
        return records
