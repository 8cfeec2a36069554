"""Configuration dataclasses, presets, and strict JSON loading."""

import json
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from fgn.cgs_cnn import CgsCnnConfig
from fgn.config import (EmbeddingConfig, FusionConfig, RunConfig, TaggerConfig,
                        config_from_dict, config_to_dict, default_config,
                        full_scale_config, load_config, with_variants)
from fgn.embedding import write_embedding_file
from fgn.fusion import validate_window
from fgn.glyphs import GlyphAtlas
from fgn.model import FgnModel
from fgn.tagger import LabelScheme


def test_default_window_cuts_seven_slices():
    config = default_config()
    assert validate_window(config.window_spec()) == 7


def test_full_scale_window_cuts_57_slices():
    config = full_scale_config()
    assert config.d_char == 768
    assert validate_window(config.window_spec()) == 57


def test_fused_dim_with_parts():
    config = default_config()
    # [char | glyph | fused outer-product slices]
    assert config.fused_dim() == 32 + 64 + 8 * 16


def test_fused_dim_variants():
    config = RunConfig(fusion=FusionConfig(include_parts=False))
    assert config.fused_dim() == 8 * 16
    concat = RunConfig(fusion=FusionConfig(variant="concat"))
    assert concat.fused_dim() == 32 + 64


def test_tagger_output_dim():
    assert default_config().tagger_output_dim() == 128
    passthrough = RunConfig(tagger=TaggerConfig(variant="none"))
    assert passthrough.tagger_output_dim() == passthrough.fused_dim()


def test_invalid_window_rejected_at_construction():
    with pytest.raises(ValueError, match="sliding windows disagree"):
        RunConfig(d_char=768, fusion=FusionConfig(k_char=96, s_char=8, k_glyph=64, s_glyph=12))


def test_concat_fusion_skips_window_check():
    # concat never slices, so any window numbers are fine
    RunConfig(d_char=768, fusion=FusionConfig(variant="concat", k_char=96, s_char=8,
                                              k_glyph=64, s_glyph=12))


def test_bad_variants_rejected():
    with pytest.raises(ValueError):
        FusionConfig(variant="gated")
    with pytest.raises(ValueError):
        TaggerConfig(variant="gru")
    with pytest.raises(ValueError):
        EmbeddingConfig(kind="word2vec")


def test_scalar_validation():
    with pytest.raises(ValueError):
        RunConfig(epochs=-1)
    with pytest.raises(ValueError):
        RunConfig(batch_size=0)
    with pytest.raises(ValueError):
        RunConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TaggerConfig(dropout_rate=1.0)


def test_file_backed_embeddings_are_frozen():
    assert EmbeddingConfig(kind="file_backed").frozen is True
    assert EmbeddingConfig(kind="lookup_table").frozen is False
    assert EmbeddingConfig(kind="lookup_table", frozen=True).frozen is True
    with pytest.raises(ValueError, match="frozen by definition"):
        EmbeddingConfig(kind="file_backed", frozen=False)


def test_dict_roundtrip():
    config = full_scale_config()
    assert config_from_dict(config_to_dict(config)) == config


def test_json_file_roundtrip(tmp_path):
    config = default_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    assert load_config(path) == config


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="'momentum'"):
        config_from_dict({"momentum": 0.9})
    with pytest.raises(ValueError, match="cnn"):
        config_from_dict({"cnn": {"kernel": 5}})
    with pytest.raises(ValueError, match="fusion.window"):
        config_from_dict({"fusion": {"window": {"k": 8}}})


def test_partial_dict_uses_defaults():
    config = config_from_dict({"seed": 7, "tagger": {"dropout_rate": 0.1}})
    assert config.seed == 7
    assert config.tagger.dropout_rate == 0.1
    assert config.epochs == default_config().epochs
    assert config.fusion == default_config().fusion


def test_with_variants():
    config = default_config()
    ablated = with_variants(config, cnn="cgs_2d", fusion="avg_pool", tagger="none")
    assert ablated.cnn.variant == "cgs_2d"
    assert ablated.fusion.variant == "avg_pool"
    assert ablated.tagger.variant == "none"
    # untouched fields survive, original is not mutated
    assert ablated.seed == config.seed
    assert config.cnn.variant == "cgs"
    assert with_variants(config) == config


# ---- the JSON layout of config files and of every model file's meta/model record ----

CNN_DICT = {"variant": "cgs", "conv3d_channels": 8, "tianzige_channels": 64,
            "pyramid_channels": [16, 32, 64, 64], "pool1d_window": 4, "pool1d_stride": 4,
            "dropout_rate": 0.2}
TAGGER_DICT = {"variant": "bilstm", "dropout_rate": 0.5, "constrain_transitions": False}
EMBEDDING_DICT = {"kind": "lookup_table", "frozen": False, "path": None, "dev_path": None}
DEFAULT_DICT = {
    "seed": 0, "epochs": 50, "batch_size": 1, "learning_rate": 0.002, "d_char": 32, "d_hidden": 128,
    "cnn": CNN_DICT,
    "fusion": {"variant": "slice_attention", "include_parts": True,
               "window": {"k_char": 8, "s_char": 4, "k_glyph": 16, "s_glyph": 8}},
    "tagger": TAGGER_DICT,
    "embedding": EMBEDDING_DICT,
}
FULL_SCALE_DICT = {
    "seed": 0, "epochs": 50, "batch_size": 1, "learning_rate": 0.002, "d_char": 768, "d_hidden": 764,
    "cnn": CNN_DICT,
    "fusion": {"variant": "slice_attention", "include_parts": True,
               "window": {"k_char": 96, "s_char": 12, "k_glyph": 8, "s_glyph": 1}},
    "tagger": TAGGER_DICT,
    "embedding": EMBEDDING_DICT,
}


@pytest.mark.parametrize("preset, expected", [(default_config, DEFAULT_DICT),
                                              (full_scale_config, FULL_SCALE_DICT)])
def test_config_dict_layout_is_pinned(preset, expected):
    out = config_to_dict(preset())
    assert out == expected
    # key order too, so a model file's meta/model record keeps its bytes
    assert json.dumps(out) == json.dumps(expected)


# one valid non-default value per field, with the companion fields its validation needs
FIELD_CASES = {
    "seed": RunConfig(seed=9),
    "epochs": RunConfig(epochs=3),
    "batch_size": RunConfig(batch_size=4),
    "learning_rate": RunConfig(learning_rate=0.01),
    "d_char": RunConfig(d_char=44, fusion=FusionConfig(s_char=6)),
    "d_hidden": RunConfig(d_hidden=12),
    "cnn.variant": RunConfig(cnn=CgsCnnConfig(variant="cgs_2d")),
    "cnn.conv3d_channels": RunConfig(cnn=CgsCnnConfig(conv3d_channels=4)),
    "cnn.tianzige_channels": RunConfig(cnn=CgsCnnConfig(tianzige_channels=32, pyramid_channels=(16, 32, 64, 32),
                                                        pool1d_window=2, pool1d_stride=2)),
    "cnn.pyramid_channels": RunConfig(cnn=CgsCnnConfig(pyramid_channels=(8, 16, 32, 64))),
    "cnn.pool1d_window": RunConfig(cnn=CgsCnnConfig(pool1d_window=67, pool1d_stride=3)),
    "cnn.pool1d_stride": RunConfig(cnn=CgsCnnConfig(pool1d_stride=2, pool1d_window=130)),
    "cnn.dropout_rate": RunConfig(cnn=CgsCnnConfig(dropout_rate=0.1)),
    "fusion.variant": RunConfig(fusion=FusionConfig(variant="max_pool")),
    "fusion.k_char": RunConfig(fusion=FusionConfig(k_char=20, s_char=2)),
    "fusion.s_char": RunConfig(fusion=FusionConfig(s_char=5, k_char=2)),
    "fusion.k_glyph": RunConfig(fusion=FusionConfig(k_glyph=40, s_glyph=4)),
    "fusion.s_glyph": RunConfig(fusion=FusionConfig(s_glyph=2, k_glyph=52)),
    "fusion.include_parts": RunConfig(fusion=FusionConfig(include_parts=False)),
    "tagger.variant": RunConfig(tagger=TaggerConfig(variant="lstm")),
    "tagger.dropout_rate": RunConfig(tagger=TaggerConfig(dropout_rate=0.25)),
    "tagger.constrain_transitions": RunConfig(tagger=TaggerConfig(constrain_transitions=True)),
    "embedding.kind": RunConfig(embedding=EmbeddingConfig(kind="file_backed", path="train.emb")),
    "embedding.frozen": RunConfig(embedding=EmbeddingConfig(frozen=True)),
    "embedding.path": RunConfig(embedding=EmbeddingConfig(path="train.emb")),
    "embedding.dev_path": RunConfig(embedding=EmbeddingConfig(dev_path="dev.emb")),
}


def field_names(config, prefix=""):
    for f in fields(config):
        value = getattr(config, f.name)
        yield from field_names(value, f.name + ".") if is_dataclass(value) else [prefix + f.name]


def field_value(config, name):
    for part in name.split("."):
        config = getattr(config, part)
    return config


def test_field_cases_cover_every_field():
    assert sorted(field_names(default_config())) == sorted(FIELD_CASES)


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_every_field_survives_json_and_model_files(name, tmp_path, monkeypatch):
    config = FIELD_CASES[name]
    assert field_value(config, name) != field_value(default_config(), name)
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config

    monkeypatch.chdir(tmp_path)       # the file_backed case reads ./train.emb
    write_embedding_file("train.emb", [np.zeros((2, config.d_char), dtype=np.float32)])
    model = FgnModel(config, LabelScheme.from_entity_types(("LOC",)), "我爱北京", GlyphAtlas())
    model.save("model.fgn")
    assert FgnModel.load("model.fgn").config == config


# ---- value types ----

@pytest.mark.parametrize("data, where", [
    ({"fusion": {"include_parts": "false"}}, "fusion.include_parts"),
    ({"tagger": {"constrain_transitions": "false"}}, "tagger.constrain_transitions"),
    ({"embedding": {"frozen": "false"}}, "embedding.frozen"),
    ({"seed": True}, "seed"),
    ({"epochs": 2.5}, "epochs"),
    ({"learning_rate": True}, "learning_rate"),
    ({"d_hidden": None}, "d_hidden"),
    ({"cnn": {"pyramid_channels": [16, 32, 64, 64.0]}}, "cnn.pyramid_channels[3]"),
    ({"cnn": {"pyramid_channels": "16,32,64,64"}}, "cnn.pyramid_channels"),
    ({"fusion": {"window": {"k_char": 8.0}}}, "fusion.window.k_char"),
    ({"embedding": {"path": 5}}, "embedding.path"),
], ids=["include_parts", "constrain_transitions", "frozen", "bool_seed", "float_epochs",
        "bool_learning_rate", "null_d_hidden", "float_pyramid_entry", "string_pyramid",
        "float_window", "int_path"])
def test_wrong_value_types_rejected(data, where):
    with pytest.raises(ValueError, match="config value %s must be" % re.escape(where)):
        config_from_dict(data)


def test_value_types_accepted():
    config = config_from_dict({"learning_rate": 1, "tagger": {"dropout_rate": 0},
                               "embedding": {"frozen": None, "path": None, "dev_path": None}})
    assert config.learning_rate == 1 and config.tagger.dropout_rate == 0
    assert config.embedding == EmbeddingConfig()
