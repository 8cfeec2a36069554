"""The assembled network: embed, glyph-encode, fuse, tag.

A model file carries everything needed to run stand-alone: parameters, the
config, the label scheme, the character vocabulary, and the glyph atlas, all
as the records of a `serialize` file: meta/model (a JSON string with
"format": 3), atlas/codepoints, atlas/images (uint8) and one param/<name> per
parameter. Loading builds the model with its parameters unset, drawing no
initial values, and then fills every parameter from the file, so a save/load
round trip is bit-exact. A sentence runs through the network as one (tau, d)
matrix per stage. Decoding is forward only: it runs under no_grad, so it keeps
no graph, and its memory does not grow with the sentence. A sentence the
encoder splits into region threads (cgs_cnn.long_sentence) decodes with BLAS
held to the calling thread, which leaves the cores to those threads.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np

from .cgs_cnn import encode_sequence, init_cgs_params, long_sentence
from .config import RunConfig, config_from_dict, config_to_dict
from .corpus import TaggedSentence
from .embedding import FileBackedEmbedding, LookupTableEmbedding
from .fusion import fuse_character, init_fusion_params
from .glyphs import GlyphAtlas, sentence_to_graphs
from .serialize import read_records, write_records
from .tagger import (LabelScheme, bilstm_encode, init_crf_params,
                     init_tagger_params, nll_loss, viterbi_decode)
from .tensor import no_grad, one_blas_thread


class _NoDraw:
    """The init generator of `FgnModel.load`: a read-only zero view in place of draws,
    since the file overwrites every parameter. The view takes no memory, so a load
    writes no initial values it then discards."""

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)


class FgnModel:
    def __init__(self, config: RunConfig, scheme: LabelScheme, vocab, atlas: GlyphAtlas,
                 provider=None, rng=None):
        """provider replaces the vectors of `embedding.path` for a file_backed model, and
        rng the init generator seeded by config.seed; `load` passes both."""
        self.config = config
        self.scheme = scheme
        self.vocab = tuple(vocab)
        self.atlas = atlas
        rng = np.random.default_rng(config.seed) if rng is None else rng
        # parameter creation order is fixed; it defines the init rng stream
        if config.embedding.kind == "lookup_table":
            self.provider = LookupTableEmbedding(self.vocab, config.d_char, rng,
                                                 frozen=bool(config.embedding.frozen))
        elif provider is not None:
            self.provider = provider
        else:
            if config.embedding.path is None:
                raise ValueError("file_backed embeddings need embedding.path in the config")
            self.provider = FileBackedEmbedding.from_file(config.embedding.path, config.d_char)
        self.cnn_params = init_cgs_params(config.cnn, rng)
        if config.fusion.variant == "slice_attention":
            self.fusion_params = init_fusion_params(config.fusion.k_char * config.fusion.k_glyph, rng)
        else:
            self.fusion_params = None
        self.tagger_params = init_tagger_params(config.tagger.variant, config.fused_dim(),
                                                config.d_hidden, rng, config.tagger.dropout_rate)
        self.crf = init_crf_params(scheme.label_count, config.tagger_output_dim(), rng)
        self.mask_scheme = scheme if config.tagger.constrain_transitions else None

    def parameters(self) -> list:
        params = list(self.provider.parameters())
        params.extend(self.cnn_params.values())
        if self.fusion_params is not None:
            params.extend(self.fusion_params.parameters())
        params.extend(self.tagger_params.parameters())
        params.extend(self.crf.parameters())
        return params

    def hidden_states(self, sentence: str, sentence_index: int = 0,
                      rng: np.random.Generator | None = None, provider=None):
        """The (tau, d_h) hidden states the CRF scores; dropout runs exactly when rng is given."""
        provider = provider if provider is not None else self.provider
        char_vecs = provider.embed(sentence_index, sentence)
        graphs = sentence_to_graphs(self.atlas, sentence)
        glyph_vecs = encode_sequence(graphs, self.config.cnn, self.cnn_params, rng)
        x = fuse_character(char_vecs, glyph_vecs, self.config.window_spec(), self.fusion_params,
                           variant=self.config.fusion.variant,
                           include_parts=self.config.fusion.include_parts)
        return bilstm_encode(x, self.tagger_params, rng)

    def loss(self, sentences: list, training: bool = True, rng: np.random.Generator | None = None):
        """Summed CRF loss of the batch; training draws dropout masks from rng, which it then needs."""
        if training and rng is None:
            raise ValueError("a training loss draws dropout masks and needs an rng")
        batch = []
        for s in sentences:
            hs = self.hidden_states(s.chars, s.index, rng if training else None)
            y = [self.scheme.label_index(lab) for lab in s.labels]
            batch.append((hs, y))
        return nll_loss(batch, self.crf, self.mask_scheme)

    def decode(self, sentence: str, sentence_index: int = 0, provider=None) -> list:
        # forward only, in bounded pieces; a long sentence pins all its BLAS calls (tensor.py tells why)
        with one_blas_thread() if long_sentence(len(sentence)) else nullcontext():
            with no_grad():
                hs = self.hidden_states(sentence, sentence_index, provider=provider)
            path = viterbi_decode(hs, self.crf, self.mask_scheme)
        return [self.scheme.labels[i] for i in path]

    def predict_sentence(self, sentence: str, sentence_index: int = 0) -> TaggedSentence:
        return TaggedSentence(sentence, tuple(self.decode(sentence, sentence_index)), sentence_index)

    # ---- persistence ----

    def save(self, path) -> None:
        meta = {
            "format": 3,
            "config": config_to_dict(self.config),
            "entity_types": list(self.scheme.entity_types),
            "labels": list(self.scheme.labels),
            "vocab": "".join(self.vocab),
            "fallback_seed": self.atlas.fallback_seed,
        }
        records = {
            "meta/model": np.array(json.dumps(meta)),
            "atlas/codepoints": self.atlas.codepoints,
            "atlas/images": self.atlas.images,
        }
        for p in self.parameters():
            records["param/" + p.name] = p.data
        write_records(path, records)

    @classmethod
    def load(cls, path) -> "FgnModel":
        records = read_records(path)
        config, meta = _read_meta(path, records)
        if "atlas/codepoints" not in records or "atlas/images" not in records:
            raise OSError("model file %s has no atlas/codepoints and atlas/images records" % path)
        scheme = LabelScheme.from_entity_types(meta["entity_types"])
        if tuple(meta["labels"]) != scheme.labels:
            raise OSError("model file %s: stored labels %s are not those of entity types %s, %s"
                          % (path, meta["labels"], list(scheme.entity_types), list(scheme.labels)))
        # a loaded file_backed model holds no training vectors: it embeds through the
        # provider given to decode, e.g. the vectors of embedding.dev_path
        no_vectors = None
        if config.embedding.kind == "file_backed":
            no_vectors = FileBackedEmbedding([], config.d_char)
        try:
            atlas = GlyphAtlas(records["atlas/codepoints"], records["atlas/images"], meta["fallback_seed"])
            model = cls(config, scheme, meta["vocab"], atlas, no_vectors, _NoDraw())
        except ValueError as err:
            raise OSError("model file %s: %s" % (path, err)) from None
        for p in model.parameters():
            key = "param/" + p.name
            if key not in records:
                raise OSError("model file %s is missing parameter %s" % (path, p.name))
            stored = records[key]
            if stored.shape != p.data.shape or stored.dtype != np.float64:
                raise OSError("model file %s: parameter %s is %s %r, expected float64 %r"
                              % (path, p.name, stored.dtype, stored.shape, p.data.shape))
            p.data = np.ascontiguousarray(stored)   # adopt the record: no second copy
        return model


_META_TYPES = {"config": dict, "entity_types": list, "labels": list, "vocab": str, "fallback_seed": int}


def _read_meta(path, records: dict) -> tuple:
    """(RunConfig, meta dict) from the meta/model record; OSError naming the file when malformed."""
    if "meta/model" not in records:
        raise OSError("model file %s has no meta record" % path)
    try:
        meta = json.loads(str(records["meta/model"]))
    except ValueError:
        raise OSError("model file %s: meta/model is not JSON" % path) from None
    if not isinstance(meta, dict):
        raise OSError("model file %s: meta/model is not a JSON object" % path)
    if meta.get("format") != 3:     # format 2 held float64 glyphs: refused, not converted
        raise OSError("model file %s has format %r; this version reads format 3" % (path, meta.get("format")))
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) is not kind:     # JSON true is no int seed
            raise OSError("model file %s: meta/model has no %s %s" % (path, kind.__name__, key))
    if not all(isinstance(s, str) for s in meta["entity_types"] + meta["labels"]):
        raise OSError("model file %s: meta/model entity_types and labels must be strings" % path)
    try:
        return config_from_dict(meta["config"]), meta
    except (ValueError, TypeError) as err:
        raise OSError("model file %s: bad config in meta/model: %s" % (path, err)) from None
