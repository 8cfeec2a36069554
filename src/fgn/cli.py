"""Command line: train, eval, predict, gradcheck, ablate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .checks import format_report_line, run_checks
from .config import load_config
from .corpus import decode_entities, evaluate, load_conll
from .glyphs import load_atlas
from .model import FgnModel
from .train import (ablate, dev_provider, format_ablation_table, predict_labels,
                    train)


def _load_dataset(path):
    sentences, _ = load_conll(path)
    return sentences


def cmd_train(args) -> int:
    config = load_config(args.config)
    train_set = _load_dataset(args.train)
    dev_set = _load_dataset(args.dev)
    atlas = load_atlas(args.atlas)
    if args.repeat < 1:
        raise ValueError("--repeat must be >= 1")
    results = []
    for i in range(args.repeat):
        cfg = replace(config, seed=config.seed + i)
        if args.repeat > 1:
            print("# run %d, seed %d" % (i + 1, cfg.seed))
        print("epoch,train_loss,dev_P,dev_R,dev_F1")
        res = train(cfg, train_set, dev_set, atlas, log=print)
        print("# best epoch %d: P=%.4f R=%.4f F1=%.4f"
              % (res.best_epoch, res.best_precision, res.best_recall, res.best_f1))
        results.append(res)
    best = max(results, key=lambda r: r.best_f1)
    best.model.save(args.out)
    print("# model written to %s" % args.out)
    if args.repeat > 1:
        n = len(results)
        print("# mean of %d runs: P=%.4f R=%.4f F1=%.4f"
              % (n, sum(r.best_precision for r in results) / n,
                 sum(r.best_recall for r in results) / n,
                 sum(r.best_f1 for r in results) / n))
    return 0


def cmd_eval(args) -> int:
    model = FgnModel.load(args.model)
    data = _load_dataset(args.data)
    preds = predict_labels(model, data, dev_provider(model.config))
    p, r, f1 = evaluate(data, preds)
    print("precision=%.4f recall=%.4f f1=%.4f" % (p, r, f1))
    return 0


def cmd_predict(args) -> int:
    model = FgnModel.load(args.model)
    if args.text is not None:
        text = args.text.strip()
        if not text:
            raise ValueError("empty input text")
        if model.config.embedding.kind == "file_backed":
            raise ValueError("the model reads file_backed embeddings, which hold no vectors for "
                             "free text; use --data with the sentences of embedding.dev_path")
        sentences = [text]
        provider = None
    else:
        sentences = [s.chars for s in _load_dataset(args.data)]
        provider = dev_provider(model.config)
    for i, sentence in enumerate(sentences):
        if i:
            print()
        labels = model.decode(sentence, i, provider)
        for ch, lab in zip(sentence, labels):
            print("%s\t%s" % (ch, lab))
        spans = decode_entities(labels)
        print("# entities: %d" % len(spans))
        for span in spans:
            print("#   %d..%d %s %s" % (span.start, span.end, span.entity_type,
                                        sentence[span.start:span.end + 1]))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_checks(args.module)
    failed = 0
    for name, report in results:
        print(format_report_line(name, report))
        if not report.passed:
            failed += 1
    if failed:
        print("%d of %d checks failed" % (failed, len(results)), file=sys.stderr)
        return 1
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    if not isinstance(grid, dict):
        raise ValueError("the grid file must hold a JSON object of axis lists")
    if args.train and args.dev and args.atlas:
        train_set = _load_dataset(args.train)
        dev_set = _load_dataset(args.dev)
        atlas = load_atlas(args.atlas)
    elif args.train or args.dev or args.atlas:
        raise ValueError("--train, --dev and --atlas must be given together")
    else:
        # default: the built-in synthetic corpus, so the grid runs without external data
        from .synth import split_corpus, synthetic_atlas, synthetic_corpus
        atlas, pools = synthetic_atlas()
        train_set, dev_set = split_corpus(synthetic_corpus(pools))
    cells = ablate(config, grid, train_set, dev_set, atlas)
    print(format_ablation_table(cells))
    return 0 if all(c.error is None for c in cells) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fgn", description="Glyph-fused Chinese NER")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write the best-dev checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--atlas", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--repeat", type=int, default=1, help="number of seeded runs; reports mean metrics")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="entity-level P/R/F1 of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="tag text or a dataset")
    p.add_argument("--model", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--text")
    g.add_argument("--data")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--module", default="all", choices=["all", "cnn", "fusion", "tagger"])
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train a variant grid and print the results table")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--train")
    p.add_argument("--dev")
    p.add_argument("--atlas")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
