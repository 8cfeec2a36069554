"""Run configuration: dataclasses, presets, and their JSON form.

The dataclass fields are the JSON schema: loading walks them, rejecting
unknown keys and values of the wrong type.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .cgs_cnn import CgsCnnConfig
from .fusion import FUSION_VARIANTS, WindowSpec, validate_window
from .tagger import TAGGER_VARIANTS

EMBEDDING_KINDS = ("lookup_table", "file_backed")


@dataclass(frozen=True)
class FusionConfig:
    variant: str = "slice_attention"
    k_char: int = 8
    s_char: int = 4
    k_glyph: int = 16
    s_glyph: int = 8
    include_parts: bool = True

    def __post_init__(self):
        if self.variant not in FUSION_VARIANTS:
            raise ValueError("fusion variant must be one of %s, got %r"
                             % (", ".join(FUSION_VARIANTS), self.variant))


@dataclass(frozen=True)
class TaggerConfig:
    variant: str = "bilstm"
    dropout_rate: float = 0.5
    constrain_transitions: bool = False

    def __post_init__(self):
        if self.variant not in TAGGER_VARIANTS:
            raise ValueError("tagger variant must be one of %s, got %r"
                             % (", ".join(TAGGER_VARIANTS), self.variant))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("tagger dropout_rate must be in [0, 1), got %r" % (self.dropout_rate,))


@dataclass(frozen=True)
class EmbeddingConfig:
    kind: str = "lookup_table"
    frozen: bool | None = None
    path: str | None = None
    dev_path: str | None = None

    def __post_init__(self):
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError("embedding kind must be one of %s, got %r"
                             % (", ".join(EMBEDDING_KINDS), self.kind))
        if self.frozen is None:
            object.__setattr__(self, "frozen", self.kind == "file_backed")
        if self.kind == "file_backed" and not self.frozen:
            raise ValueError("file_backed embeddings are frozen by definition")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    epochs: int = 50
    batch_size: int = 1
    learning_rate: float = 0.002
    d_char: int = 32
    d_hidden: int = 128
    cnn: CgsCnnConfig = field(default_factory=CgsCnnConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    tagger: TaggerConfig = field(default_factory=TaggerConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0, got %d" % self.epochs)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %d" % self.batch_size)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive, got %r" % (self.learning_rate,))
        if self.d_char < 1 or self.d_hidden < 1:
            raise ValueError("d_char and d_hidden must be positive")
        if self.fusion.variant != "concat":
            validate_window(self.window_spec())

    def window_spec(self) -> WindowSpec:
        return WindowSpec(d_char=self.d_char, k_char=self.fusion.k_char, s_char=self.fusion.s_char,
                          d_glyph=self.cnn.glyph_dim, k_glyph=self.fusion.k_glyph,
                          s_glyph=self.fusion.s_glyph)

    def fused_dim(self) -> int:
        if self.fusion.variant == "concat":
            return self.d_char + self.cnn.glyph_dim
        pair = self.fusion.k_char * self.fusion.k_glyph
        if self.fusion.include_parts:
            return self.d_char + self.cnn.glyph_dim + pair
        return pair

    def tagger_output_dim(self) -> int:
        return self.fused_dim() if self.tagger.variant == "none" else self.d_hidden


def default_config() -> RunConfig:
    """Desk-scale defaults: small vectors, window 8/4 over 32-d chars and 16/8 over 64-d glyphs (7 slices)."""
    return RunConfig()


def full_scale_config() -> RunConfig:
    """Production-scale vector sizes; the window is 96/12 and 8/1 so both streams cut 57 slices."""
    return RunConfig(
        d_char=768,
        d_hidden=764,
        fusion=FusionConfig(k_char=96, s_char=12, k_glyph=8, s_glyph=1),
    )


# ---- JSON: the dataclass fields are the schema ----

# the one JSON quirk: these FusionConfig fields nest under "fusion": {"window": {...}}
_WINDOW_KEYS = ("k_char", "s_char", "k_glyph", "s_glyph")


def config_from_dict(data: dict) -> RunConfig:
    return _section(RunConfig, data, "the top level")


@cache
def _schema(cls) -> dict:
    """JSON key -> a section's dataclass, the nested fusion.window schema, or the value types the
    field accepts (a list [types] for a tuple field). Annotations are evaluated once per class."""
    schema = {k: _accepts(t) for k, t in get_type_hints(cls).items()}
    if cls is FusionConfig:
        schema["window"] = {k: schema.pop(k) for k in _WINDOW_KEYS}
    return schema


def _accepts(kind):
    if is_dataclass(kind):
        return kind
    if get_origin(kind) is tuple:
        return [_accepts(get_args(kind)[0])]
    kinds = get_args(kind) if isinstance(kind, UnionType) else (kind,)
    return kinds + (int,) if float in kinds else kinds    # a bool is no int: checked by exact type


def _section(cls, data, where: str):
    """cls built from the JSON object data: keys from its fields, values checked against their types."""
    return cls(**_fields(_schema(cls), data, where))


def _fields(schema: dict, data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError("config section %s must be an object" % where)
    kwargs = {}
    for key, value in data.items():
        if key not in schema:
            raise ValueError("unknown config key %r in %s" % (key, where))
        kind, path = schema[key], key if where == "the top level" else where + "." + key
        if isinstance(kind, dict):
            kwargs.update(_fields(kind, value, path))
        elif isinstance(kind, type):
            kwargs[key] = _section(kind, value, path)
        else:
            kwargs[key] = _value(kind, value, path)
    return kwargs


def _value(kinds, value, path: str):
    """value if JSON gave it one of kinds; a JSON list becomes a tuple for a tuple field."""
    if isinstance(kinds, list):
        if not isinstance(value, list):
            raise ValueError("config value %s must be a list, got %r" % (path, value))
        return tuple(_value(kinds[0], v, "%s[%d]" % (path, i)) for i, v in enumerate(value))
    if type(value) in kinds:
        return value
    names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
    raise ValueError("config value %s must be %s, got %r" % (path, names, value))


def config_to_dict(config: RunConfig) -> dict:
    out = asdict(config, dict_factory=lambda kv: {k: list(v) if isinstance(v, tuple) else v for k, v in kv})
    out["fusion"]["window"] = {k: out["fusion"].pop(k) for k in _WINDOW_KEYS}
    return out


def load_config(path) -> RunConfig:
    return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def with_variants(config: RunConfig, cnn: str | None = None, fusion: str | None = None,
                  tagger: str | None = None) -> RunConfig:
    """Copy of config with ablation switches applied."""
    out = config
    if cnn is not None:
        out = replace(out, cnn=replace(out.cnn, variant=cnn))
    if fusion is not None:
        out = replace(out, fusion=replace(out.fusion, variant=fusion))
    if tagger is not None:
        out = replace(out, tagger=replace(out.tagger, variant=tagger))
    return out
