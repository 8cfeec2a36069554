"""Per-layer tracing from outside the program.

The tracer swaps the layer entry points that `fgn.model`, `fgn.train` and
the benchmark call for timed wrappers, and puts the originals back on
`uninstall`. Backward time is attributed by tagging: after a layer call
returns, the graph is walked from the call's outputs back to its inputs, and
each node met on the way gets its backward closure replaced by a timed one
charged to that layer. Nothing under `src/` is edited.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

import fgn.embedding
import fgn.model
import fgn.optim
import fgn.tensor
import fgn.train

# the package re-exports the function train under the module's name
TRAIN_MODULE = sys.modules["fgn.train"]

# span -> (object holding the entry point, attribute, span charged with the backward
# closures of the graph nodes the call creates, or None)
ENTRY_POINTS = {
    "glyphs.lookup": (fgn.model, "sentence_to_graphs", None),
    "embedding.embed": (fgn.embedding.LookupTableEmbedding, "embed", None),
    "cgs_cnn.forward": (fgn.model, "encode_sequence", "cgs_cnn.backward"),
    "fusion.forward": (fgn.model, "fuse_character", "fusion.backward"),
    "tagger.lstm_forward": (fgn.model, "bilstm_encode", "tagger.lstm_backward"),
    "tagger.crf_forward": (fgn.model, "nll_loss", "tagger.crf_backward"),
    "tagger.viterbi": (fgn.model, "viterbi_decode", None),
}
# spans that together make up one operation; their sum over the operation's time is the coverage
STEP_SPANS = ("glyphs.lookup", "embedding.embed", "cgs_cnn.forward", "fusion.forward",
              "tagger.lstm_forward", "tagger.crf_forward", "tagger.viterbi",
              "tensor.backward", "optim.adam")


def _tensors(obj, out: list) -> list:
    if isinstance(obj, fgn.tensor.Tensor):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _tensors(item, out)
    return out


def count_nodes(roots: list) -> int:
    """Graph nodes reachable from `roots`, the set Tensor.backward sorts."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Collects span seconds per operation while installed."""

    def __init__(self):
        self.tag_nodes = False          # tag graph nodes for backward attribution (training only)
        self.op = defaultdict(float)    # span -> seconds within the current operation
        self.ops = {"train": [], "decode": []}   # phase -> [(operation seconds, spans)]
        self.calls = defaultdict(list)  # span -> seconds per call, for calls outside operations
        self.model_bytes = 0
        self._tagged = {}               # id -> node, alive for the current operation
        self._restore = []

    # ---- installation ----

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for span, (owner, attr, backward_span) in ENTRY_POINTS.items():
            self._swap(owner, attr, self._layer_wrapper(span, getattr(owner, attr), backward_span))
        backward = fgn.tensor.Tensor.backward
        self._swap(fgn.tensor.Tensor, "backward", self._backward_wrapper(backward))
        adam = self._timed(fgn.optim.adam_step, "optim.adam")
        self._swap(fgn.optim, "adam_step", adam)
        self._swap(TRAIN_MODULE, "adam_step", adam)
        save, load = fgn.model.FgnModel.save, vars(fgn.model.FgnModel)["load"].__func__
        self._swap(fgn.model.FgnModel, "save", self._call_timer(save, "model.save"))
        self._swap(fgn.model.FgnModel, "load", classmethod(self._call_timer(load, "model.load")))
        write = fgn.model.write_records

        def write_records(path, records):
            write(path, records)
            self.model_bytes = os.path.getsize(path)

        self._swap(fgn.model, "write_records", write_records)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _swap(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # ---- operations ----

    def end_op(self, phase: str, seconds: float) -> None:
        self.ops[phase].append((seconds, dict(self.op)))
        self.op.clear()
        self._tagged.clear()

    # ---- wrappers ----

    def _timed(self, fn, span):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.op[span] += time.perf_counter() - t0
            return out
        return wrapper

    def _call_timer(self, fn, span):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.calls[span].append(time.perf_counter() - t0)
            return out
        return wrapper

    def _layer_wrapper(self, span, fn, backward_span):
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            if span == "tagger.viterbi":
                self.op["tensor.graph_nodes"] += count_nodes(list(args[0]))
            peak = span == "cgs_cnn.forward"
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.op[span] += t1 - t0
            if peak:
                self.op["cgs_cnn.forward_peak_bytes"] = max(self.op["cgs_cnn.forward_peak_bytes"],
                                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            if backward_span is not None and self.tag_nodes:
                self._tag(_tensors(out, []), _tensors((args, list(kwargs.values())), []), backward_span)
            self.op["trace.self"] += (t0 - enter) + (time.perf_counter() - t1)
            return out
        return wrapper

    def _backward_wrapper(self, backward):
        def wrapper(root):
            t0 = time.perf_counter()
            self.op["tensor.graph_nodes"] += count_nodes([root])
            t1 = time.perf_counter()
            backward(root)
            self.op["tensor.backward"] += time.perf_counter() - t1
            self.op["trace.self"] += t1 - t0
        return wrapper

    def _tag(self, outputs: list, inputs: list, span: str) -> None:
        stop = {id(t) for t in inputs}
        stack = list(outputs)
        while stack:
            node = stack.pop()
            if id(node) in stop or id(node) in self._tagged:
                continue
            self._tagged[id(node)] = node
            if node._backward is not None:
                node._backward = self._timed_closure(node._backward, span)
            stack.extend(node._parents)

    def _timed_closure(self, closure, span):
        def timed(g):
            t0 = time.perf_counter()
            closure(g)
            self.op[span] += time.perf_counter() - t0
        return timed
