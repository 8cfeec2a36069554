"""The three seeded workloads, their timed loop and their metrics.

A run sets up (inputs from the seed, `FgnModel`, Adam state), checks a few
gradient coordinates by finite differences, then repeats one cycle until the
requested seconds are used: a round of training steps (`FgnModel.loss`,
`Tensor.backward`, `fgn.optim.adam_step`), `FgnModel.save`, `FgnModel.load`,
a round of decodes with the loaded model (`FgnModel.decode`), and a fresh
set-up that is timed and thrown away. Because the phases interleave, every
metric samples the whole run, and a slow spell of the machine moves them
alike. Work is done in whole rounds, each holding
one sentence of every length of its set, so every run sees the same mix of
lengths whatever its seed or length.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import fgn.model
import fgn.optim
from fgn import FgnModel, default_config, full_scale_config
from fgn.synth import synthetic_atlas, synthetic_corpus
from fgn.tagger import LabelScheme

import checks
from tracing import STEP_SPANS, Tracer

TRAIN_LENGTHS = (5, 6, 7, 8, 9)          # one training sentence of each length per round
TRAIN_PER_LENGTH = 10                    # training corpus: 50 sentences
DEV_PER_LENGTH = 2                       # dev set: 10 sentences
LONG_LENGTHS = tuple(range(32, 97, 8))   # one long sentence of each length per decode round
LONG_ROUNDS = 8                          # distinct long-sentence rounds; later cycles repeat them
UNSEEN_SHARE = 0.1                       # share of long-sentence characters outside atlas and vocabulary
UNSEEN_FIRST = 0x4E00 + 0x100            # unseen characters come from U+4F00..U+50F3
UNSEEN_COUNT = 500
SETUP_SECONDS = 0.1                      # each cycle sets up afresh at least once and for about this long
LOAD_SECONDS = 0.1                       # each cycle loads the saved model for about this long,
LOAD_MIN = 4                             # and at least this often
MIN_CYCLES = 2
IDENTITY_SENTENCES = 3                   # last-cycle sentences decoded again by the saved model


@dataclass(frozen=True)
class Workload:
    config: object     # preset function
    main: str          # the operation the workload is about, "train" or "decode"; it decodes
                       # long sentences when "decode", the short dev sentences otherwise


WORKLOADS = {
    "train_default": Workload(default_config, "train"),
    "train_full_scale": Workload(full_scale_config, "train"),
    "decode_long": Workload(default_config, "decode"),
}


@dataclass
class Inputs:
    atlas: object
    train: list      # TRAIN_PER_LENGTH lists, each one TaggedSentence per TRAIN_LENGTHS entry
    dev: list        # DEV_PER_LENGTH lists of strings, one per TRAIN_LENGTHS entry
    long: list       # LONG_ROUNDS lists of strings, one per LONG_LENGTHS entry
    vocab: list
    scheme: LabelScheme


def _with_unseen(sentence: str, rng: np.random.Generator) -> str:
    chars = list(sentence)
    for pos in rng.choice(len(chars), size=round(len(chars) * UNSEEN_SHARE), replace=False):
        chars[pos] = chr(UNSEEN_FIRST + int(rng.integers(UNSEEN_COUNT)))
    return "".join(chars)


def make_inputs(seed: int) -> Inputs:
    """Everything the workloads feed the program, a function of the seed alone."""
    rng = np.random.default_rng(seed)
    draw = lambda: int(rng.integers(2 ** 31))
    atlas, pools = synthetic_atlas(seed=draw(), fallback_seed=draw())

    def corpus(n, length):
        return synthetic_corpus(pools, n, seed=draw(), min_len=length, max_len=length)

    train_by_len = [corpus(TRAIN_PER_LENGTH, n) for n in TRAIN_LENGTHS]
    dev_by_len = [corpus(DEV_PER_LENGTH, n) for n in TRAIN_LENGTHS]
    long_by_len = [corpus(LONG_ROUNDS, n) for n in LONG_LENGTHS]
    train = [[replace(group[r], index=r * len(TRAIN_LENGTHS) + j) for j, group in enumerate(train_by_len)]
             for r in range(TRAIN_PER_LENGTH)]
    dev = [[group[r].chars for group in dev_by_len] for r in range(DEV_PER_LENGTH)]
    long = [[_with_unseen(group[r].chars, rng) for group in long_by_len] for r in range(LONG_ROUNDS)]
    vocab = sorted({ch for rnd in train for s in rnd for ch in s.chars})
    types = {lab[2:] for rnd in train for s in rnd for lab in s.labels if lab != "O"}
    return Inputs(atlas, train, dev, long, vocab, LabelScheme.from_entity_types(types))


def set_up(workload: Workload, seed: int):
    inputs = make_inputs(seed)
    config = replace(workload.config(), seed=seed)
    model = FgnModel(config, inputs.scheme, inputs.vocab, inputs.atlas)
    opt = fgn.optim.AdamState(model.parameters(), learning_rate=config.learning_rate)
    return inputs, model, opt


class EmissionRecorder:
    """Keeps a copy of the hidden states each decode hands to Viterbi, for the optimality check.

    Installed for the whole run, traced or not; it copies a (tau, d_h) matrix
    per decoded sentence.
    """

    def __init__(self):
        self.inner = fgn.model.viterbi_decode
        self.last = None

    def __call__(self, hs, crf, scheme=None):
        self.last = np.stack([h.data for h in hs])
        return self.inner(hs, crf, scheme)


@dataclass
class Phase:
    name: str
    ms: list = field(default_factory=list)   # per untraced operation
    chars: int = 0                           # characters in untraced operations
    seconds: float = 0.0                     # time in untraced operations
    attempted: int = 0
    failed: int = 0

    def run_round(self, items, op, tracer=None) -> None:
        """Run `op(item) -> characters` on every item; a failed operation is counted and the round goes on."""
        for item in items:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                chars = op(item)
            except Exception as exc:
                self.failed += 1
                print("# %s operation failed: %s: %s" % (self.name, type(exc).__name__, exc))
                chars = None
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(self.name, dt)
            elif chars is not None:
                self.ms.append(dt * 1000.0)
                self.chars += chars
                self.seconds += dt


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """One run of one workload; returns the result object printed as the last line."""
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    inputs, model, opt = set_up(workload, seed)
    setup_times = [time.perf_counter() - t0]
    params = model.parameters()
    rng = np.random.default_rng(seed)
    problems = []
    tracer = Tracer() if trace else None
    recorder = EmissionRecorder()
    fgn.model.viterbi_decode = recorder

    # gradient spot check on the first training sentence, before the first step
    rows = checks.gradient_spot_check(model, inputs.train[0][0], rng)
    problems += checks.gradient_problems(rows)

    losses = []
    decoded = []   # (sentence, labels, hidden states, CRF tables of the model that decoded it)
    path = os.path.join(work_dir, "model.fgn")
    loaded = None

    def train_op(sentence):
        loss = model.loss([sentence], training=True, rng=rng)
        loss.backward()
        fgn.optim.adam_step(params, opt)
        losses.append(loss.item())
        return len(sentence.chars)

    def decode_op(sentence):
        labels = loaded.decode(sentence)
        decoded.append((sentence, labels, recorder.last, tables))
        return len(sentence)

    decode_sets = inputs.long if workload.main == "decode" else inputs.dev
    train, decode = Phase("train"), Phase("decode")
    load_times = []
    start = time.perf_counter()
    cycle, last = 0, 0.0
    # traced runs trace every second cycle: the others are the same run's untraced baseline
    while cycle < MIN_CYCLES or time.perf_counter() + 0.5 * last < start + seconds:
        c0 = time.perf_counter()
        cycle_tracer = tracer if tracer is not None and cycle % 2 == 1 else None
        if cycle_tracer is not None:
            cycle_tracer.install()
            cycle_tracer.tag_nodes = True
        train_set = inputs.train[cycle % len(inputs.train)]
        train.run_round([train_set[i] for i in rng.permutation(len(train_set))], train_op, cycle_tracer)
        if cycle_tracer is not None:
            cycle_tracer.tag_nodes = False
        model.save(path)
        cycle_loads = []
        while len(cycle_loads) < LOAD_MIN or sum(cycle_loads) < LOAD_SECONDS:
            loaded = None   # let the previous copy go before the next load
            t0 = time.perf_counter()
            loaded = FgnModel.load(path)
            cycle_loads.append(time.perf_counter() - t0)
        load_times += cycle_loads
        tables = checks.crf_tables(loaded)
        decode_set = decode_sets[cycle % len(decode_sets)]
        decode.run_round([decode_set[i] for i in rng.permutation(len(decode_set))], decode_op, cycle_tracer)
        if cycle_tracer is not None:
            cycle_tracer.uninstall()
        loaded = None
        cycle_setups = []
        while not cycle_setups or sum(cycle_setups) < SETUP_SECONDS:
            t0 = time.perf_counter()
            built = set_up(workload, seed)
            cycle_setups.append(time.perf_counter() - t0)
            del built
        setup_times += cycle_setups
        cycle += 1
        last = time.perf_counter() - c0
    model_bytes = os.path.getsize(path)
    fgn.model.viterbi_decode = recorder.inner

    problems += checks.loss_problems(losses)
    for sentence, labels, hidden, tabs in decoded:
        problems += checks.viterbi_problems(hidden, labels, sentence, model.scheme, tabs)
    last_cycle = decoded[-len(decode_set):][:IDENTITY_SENTENCES]
    problems += checks.identity_problems([model.decode(s) for s, _, _, _ in last_cycle],
                                         [labels for _, labels, _, _ in last_cycle])

    main = {"train": train, "decode": decode}[workload.main]
    if trace:
        metrics = layer_metrics(tracer, workload.main, main)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_ms_per_sentence": (statistics.median(train.ms), "ms"),
            "train_chars_per_s": (train.chars / train.seconds, "1/s"),
            "decode_ms_per_sentence": (statistics.median(decode.ms), "ms"),
            "decode_chars_per_s": (decode.chars / decode.seconds, "1/s"),
            "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "load_s": (statistics.median(load_times), "s"),
            "model_file_mb": (model_bytes / 1e6, "MB"),
        }
    for p in problems:
        print("# check failed: %s" % p)
    print("# %s seed %d: %d cycles, %d train steps, %d decodes, %d gradient coordinates checked, "
          "%d check problems" % (name, seed, cycle, train.attempted, decode.attempted, len(rows), len(problems)))
    for key, (value, unit) in metrics.items():
        print("# %-34s %14.6f %s" % (key, value, unit))
    return {
        "correct": not problems,
        "attempted": train.attempted + decode.attempted,
        "failed": train.failed + decode.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# forward spans are per operation of the workload's own kind, training spans per
# training step, Viterbi per decoded sentence; each metric is the span's name + "_ms"
FORWARD_SPANS = ("glyphs.lookup", "embedding.embed", "cgs_cnn.forward", "fusion.forward",
                 "tagger.lstm_forward")
TRAIN_SPANS = ("cgs_cnn.backward", "fusion.backward", "tagger.lstm_backward", "tagger.crf_forward",
               "tagger.crf_backward", "tensor.backward", "optim.adam")


def layer_metrics(tracer: Tracer, main_name: str, main: Phase) -> dict:
    def per_op(phase, span):
        ops = tracer.ops[phase]
        return sum(spans.get(span, 0.0) for _, spans in ops) / len(ops)

    out = {}
    for span in FORWARD_SPANS:
        out[span + "_ms"] = (1000.0 * per_op(main_name, span), "ms")
    for span in TRAIN_SPANS:
        out[span + "_ms"] = (1000.0 * per_op("train", span), "ms")
    out["tagger.viterbi_ms"] = (1000.0 * per_op("decode", "tagger.viterbi"), "ms")
    out["tensor.graph_nodes_per_sentence"] = (per_op(main_name, "tensor.graph_nodes"), "count")
    ops = tracer.ops[main_name]
    out["cgs_cnn.forward_peak_mb"] = (max(s["cgs_cnn.forward_peak_bytes"] for _, s in ops) / 1e6, "MB")
    out["model.save_ms"] = (1000.0 * statistics.median(tracer.calls["model.save"]), "ms")
    out["model.load_ms"] = (1000.0 * statistics.median(tracer.calls["model.load"]), "ms")
    out["serialize.model_bytes"] = (float(tracer.model_bytes), "bytes")
    covered = sum(s.get(span, 0.0) for _, s in ops for span in STEP_SPANS)
    measured = sum(dt - s.get("trace.self", 0.0) for dt, s in ops)
    out["trace.layer_coverage_pct"] = (100.0 * covered / measured, "%")
    traced_ms = statistics.median(1000.0 * dt for dt, _ in ops)
    out["trace.overhead_pct"] = (100.0 * (traced_ms / statistics.median(main.ms) - 1.0), "%")
    return out
