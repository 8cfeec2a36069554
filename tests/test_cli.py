"""Command-line workflows: train, eval, predict, gradcheck, ablate."""

import json

import numpy as np
import pytest

from fgn.cli import main
from fgn.config import EmbeddingConfig, FusionConfig, RunConfig, config_to_dict
from fgn.corpus import evaluate, write_conll
from fgn.embedding import FileBackedEmbedding, write_embedding_file
from fgn.model import FgnModel
from fgn.train import predict_labels
from fgn.synth import (split_corpus, synthetic_atlas, synthetic_corpus,
                       write_atlas_dir)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Atlas dir, train/dev files, config file, and a trained model."""
    root = tmp_path_factory.mktemp("cli")
    atlas, pools = synthetic_atlas(per_pool=3, filler=3)
    write_atlas_dir(atlas, root / "glyphs")
    sentences = synthetic_corpus(pools, n_sentences=8, min_len=3, max_len=5)
    train_set, dev_set = split_corpus(sentences, dev_fraction=0.25)
    write_conll(train_set, root / "train.txt")
    write_conll(dev_set, root / "dev.txt")

    config = RunConfig(seed=1, epochs=1, d_char=8, d_hidden=6,
                       fusion=FusionConfig(k_char=4, s_char=2, k_glyph=32, s_glyph=16))
    (root / "config.json").write_text(json.dumps(config_to_dict(config)), encoding="utf-8")

    code = main(["train",
                 "--config", str(root / "config.json"),
                 "--train", str(root / "train.txt"),
                 "--dev", str(root / "dev.txt"),
                 "--atlas", str(root / "glyphs"),
                 "--out", str(root / "model.fgn")])
    assert code == 0
    assert (root / "model.fgn").exists()
    return root


@pytest.fixture(scope="module")
def file_backed_workspace(tmp_path_factory):
    """A file_backed model trained on the synthetic set, with separate train and dev vector files."""
    root = tmp_path_factory.mktemp("cli_file_backed")
    atlas, pools = synthetic_atlas(per_pool=3, filler=3)
    write_atlas_dir(atlas, root / "glyphs")
    sentences = synthetic_corpus(pools, n_sentences=8, seed=1, min_len=3, max_len=5)
    train_set, dev_set = split_corpus(sentences, dev_fraction=0.25)
    # a training record can never stand in for the dev sentence of the same index
    assert all(len(t.chars) != len(d.chars) for t, d in zip(train_set, dev_set))
    write_conll(train_set, root / "train.txt")
    write_conll(dev_set, root / "dev.txt")
    rng = np.random.default_rng(3)
    for name, data in (("train.emb", train_set), ("dev.emb", dev_set)):
        write_embedding_file(root / name, [rng.normal(size=(len(s.chars), 8)) for s in data])

    config = RunConfig(seed=1, epochs=1, d_char=8, d_hidden=6,
                       fusion=FusionConfig(k_char=4, s_char=2, k_glyph=32, s_glyph=16),
                       embedding=EmbeddingConfig(kind="file_backed", path=str(root / "train.emb"),
                                                 dev_path=str(root / "dev.emb")))
    (root / "config.json").write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    assert main(["train", "--config", str(root / "config.json"),
                 "--train", str(root / "train.txt"), "--dev", str(root / "dev.txt"),
                 "--atlas", str(root / "glyphs"), "--out", str(root / "model.fgn")]) == 0
    return root, dev_set


def test_file_backed_eval_and_predict_use_dev_vectors(file_backed_workspace, capsys):
    root, dev_set = file_backed_workspace
    capsys.readouterr()
    model = FgnModel.load(root / "model.fgn")
    want = predict_labels(model, dev_set, FileBackedEmbedding.from_file(root / "dev.emb", 8))

    code = main(["eval", "--model", str(root / "model.fgn"), "--data", str(root / "dev.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "precision=%.4f recall=%.4f f1=%.4f" % evaluate(dev_set, want)

    code = main(["predict", "--model", str(root / "model.fgn"), "--data", str(root / "dev.txt")])
    out = capsys.readouterr().out
    assert code == 0
    got = [[line.split("\t")[1] for line in block.splitlines() if "\t" in line]
           for block in out.split("\n\n")]
    assert got == want


def test_file_backed_predict_text_fails(file_backed_workspace, capsys):
    root, _ = file_backed_workspace
    code = main(["predict", "--model", str(root / "model.fgn"), "--text", "一丁七"])
    assert code == 1
    assert "file_backed" in capsys.readouterr().err


def test_file_backed_eval_needs_no_training_vectors(file_backed_workspace, capsys):
    root, _ = file_backed_workspace
    args = ["eval", "--model", str(root / "model.fgn"), "--data", str(root / "dev.txt")]
    capsys.readouterr()
    assert main(args) == 0
    before = capsys.readouterr().out
    (root / "train.emb").rename(root / "train.emb.away")
    try:
        code = main(args)
        captured = capsys.readouterr()
    finally:
        (root / "train.emb.away").rename(root / "train.emb")
    assert code == 0, captured.err
    assert captured.out == before


@pytest.mark.parametrize("width", [6, 10])
def test_file_backed_rejects_dev_vectors_of_the_wrong_width(file_backed_workspace, capsys, width):
    root, dev_set = file_backed_workspace
    rng = np.random.default_rng(4)
    (root / "dev.emb").rename(root / "dev.emb.away")
    try:
        write_embedding_file(root / "dev.emb", [rng.normal(size=(len(s.chars), width)) for s in dev_set])
        capsys.readouterr()
        for command in ("eval", "predict"):
            code = main([command, "--model", str(root / "model.fgn"), "--data", str(root / "dev.txt")])
            captured = capsys.readouterr()
            assert code == 1
            assert "%d-d vectors" % width in captured.err and "d_char=8" in captured.err
    finally:
        (root / "dev.emb.away").replace(root / "dev.emb")


def test_train_logs_epochs(workspace, capsys):
    code = main(["train",
                 "--config", str(workspace / "config.json"),
                 "--train", str(workspace / "train.txt"),
                 "--dev", str(workspace / "dev.txt"),
                 "--atlas", str(workspace / "glyphs"),
                 "--out", str(workspace / "model2.fgn")])
    out = capsys.readouterr().out
    assert code == 0
    assert "epoch,train_loss,dev_P,dev_R,dev_F1" in out
    assert "# best epoch" in out
    assert "# model written to" in out


def test_train_repeat_reports_mean(workspace, capsys):
    code = main(["train",
                 "--config", str(workspace / "config.json"),
                 "--train", str(workspace / "train.txt"),
                 "--dev", str(workspace / "dev.txt"),
                 "--atlas", str(workspace / "glyphs"),
                 "--out", str(workspace / "model3.fgn"),
                 "--repeat", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# run 1, seed 1" in out
    assert "# run 2, seed 2" in out
    assert "# mean of 2 runs:" in out


def test_eval(workspace, capsys):
    code = main(["eval", "--model", str(workspace / "model.fgn"),
                 "--data", str(workspace / "dev.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("precision=")
    assert "f1=" in out


def test_predict_text(workspace, capsys):
    code = main(["predict", "--model", str(workspace / "model.fgn"), "--text", "一丁七"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("一\t")
    assert len([l for l in out if "\t" in l]) == 3
    assert any(l.startswith("# entities:") for l in out)


def test_predict_long_text(workspace, capsys):
    # decode is forward only and encodes glyphs in bounded chunks, so a long text costs no more per character
    text = ("一丁七" * 67)[:200]
    code = main(["predict", "--model", str(workspace / "model.fgn"), "--text", text])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    labelled = [l for l in out if "\t" in l]
    assert len(labelled) == 200
    assert "".join(l.split("\t")[0] for l in labelled) == text


def test_predict_data(workspace, capsys):
    code = main(["predict", "--model", str(workspace / "model.fgn"),
                 "--data", str(workspace / "dev.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("# entities:") == 2


def test_predict_empty_text_fails(workspace, capsys):
    code = main(["predict", "--model", str(workspace / "model.fgn"), "--text", "  "])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: empty input text" in err


def test_gradcheck_command(capsys):
    code = main(["gradcheck", "--module", "fusion"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines
    assert all(l.startswith("PASS") and "max_rel=" in l for l in lines)


def test_ablate_with_files(workspace, capsys):
    grid = workspace / "grid.json"
    grid.write_text(json.dumps({"tagger": ["none"]}), encoding="utf-8")
    code = main(["ablate", "--config", str(workspace / "config.json"),
                 "--grid", str(grid),
                 "--train", str(workspace / "train.txt"),
                 "--dev", str(workspace / "dev.txt"),
                 "--atlas", str(workspace / "glyphs")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["cnn", "fusion", "tagger"]
    assert "none" in out


def test_ablate_partial_data_flags_rejected(workspace, capsys):
    grid = workspace / "grid.json"
    grid.write_text(json.dumps({"tagger": ["none"]}), encoding="utf-8")
    code = main(["ablate", "--config", str(workspace / "config.json"),
                 "--grid", str(grid),
                 "--train", str(workspace / "train.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert "must be given together" in err


def test_bad_paths_exit_nonzero(workspace, capsys):
    code = main(["eval", "--model", str(workspace / "nope.fgn"),
                 "--data", str(workspace / "dev.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
