"""Span tracing at opfuse's public boundaries, installed from the benchmark only.

``Tracer.installed()`` replaces each boundary in ``BOUNDARIES`` with a
wrapper, at the place it is looked up (the calling module's global, or the
class for methods), and puts the originals back on exit.  A wrapper keeps
one span per call, ``[name, start, end, parent, run]``, in memory, and
counts work done at the same boundary.  A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _tokens(counts, args, result):
    counts["encoder.tokens"] += len(result[0])


def _graph(counts, args, result):
    counts["graphs.subgraphs"] += 1
    counts["graphs.nodes"] += result.num_nodes
    counts["graphs.fallback_nodes"] += sum(n.span is None for n in result.structure.nodes)


def _graph_failed(counts, exc):
    if type(exc).__name__ == "GraphEmpty":
        counts["graphs.opinions_skipped"] += 1


def _no_opinion(counts, args, result):
    counts["graphs.records_without_opinion"] += sum(result[1])


def _forward(counts, args, result):
    counts["model.forward_records"] += len(args[1])


def _predict(counts, args, result):
    counts["model.predict_records"] += len(args[1])


def _tape(counts, args, result):
    counts["autodiff.tape_nodes"] += len(args[0])


def _adam(counts, args, result):
    counts["optim.param_elems"] += sum(p.size for p in args[0].params.values())


def _file_bytes(counts, args, result):
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


# (owner, attribute, span name, counter on return, counter on exception).
# An owner is "module" or "module:Class".
BOUNDARIES = (
    ("opfuse.data", "load_corpus", "data.load_corpus", None, None),
    ("opfuse.train", "train_model", "train.train_model", None, None),
    ("opfuse.model:OpinionFusionModel", "forward_batch", "model.forward", _forward, None),
    ("opfuse.model:OpinionFusionModel", "predict", "model.predict", _predict, None),
    ("opfuse.encoder:ToyEncoder", "encode_record", "encoder.encode", _tokens, None),
    ("opfuse.encoder:FileEncoder", "encode_record", "encoder.encode", _tokens, None),
    ("opfuse.encoder", "read_encoder_states", "encoder.read_states", None, None),
    ("opfuse.model", "build_subgraph", "graphs.build", _graph, _graph_failed),
    ("opfuse.model", "gat_layer", "gat.layer", None, None),
    ("opfuse.model", "readout", "gat.readout", None, None),
    ("opfuse.model", "aggregate_sentences", "gat.aggregate", _no_opinion, None),
    ("opfuse.fusion:FusionParams", "project_graph", "fusion.project", None, None),
    ("opfuse.model", "fuse", "fusion.fuse", None, None),
    ("opfuse.model", "residual", "fusion.residual", None, None),
    ("opfuse.fusion:ClassifierHead", "__call__", "fusion.head", None, None),
    ("opfuse.autodiff:Tape", "backward", "autodiff.backward", _tape, None),
    ("opfuse.optim:Adam", "step", "optim.step", _adam, None),
    ("opfuse.train", "save_checkpoint", "checkpoint.save", _file_bytes, None),
    ("opfuse.checkpoint", "load_checkpoint", "checkpoint.load", _file_bytes, None),
    ("opfuse.checkpoint", "restore_into", "checkpoint.load", None, None),
    ("opfuse.train", "write_predictions", "evaluation.io", None, None),
    ("opfuse.evaluation", "write_predictions", "evaluation.io", None, None),
    ("opfuse.evaluation", "read_predictions", "evaluation.io", None, None),
    ("opfuse.train", "macro_f1", "evaluation.score", None, None),
    ("opfuse.evaluation", "f1_report", "evaluation.score", None, None),
    ("opfuse.evaluation", "aggregate", "evaluation.score", None, None),
    ("opfuse.stats", "pair_predictions", "stats.compare", None, None),
    ("opfuse.stats", "mcnemar", "stats.compare", None, None),
    ("opfuse.stats", "stuart_maxwell", "stats.compare", None, None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in BOUNDARIES))
# Counts reported per iteration, as they are kept.
COUNTS = ("autodiff.backward.calls", "optim.step.calls", "gat.layer.calls",
          "encoder.tokens", "graphs.subgraphs", "graphs.nodes", "graphs.fallback_nodes",
          "graphs.opinions_skipped", "graphs.records_without_opinion",
          "model.forward_records", "model.predict_records", "checkpoint.bytes")
# Spans a workload enters only while it sets up, before any iteration.
SETUP_SPANS = ("data.load_corpus", "checkpoint.load")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("loss"):
        return "nats"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory spans and counts, grouped by run id (``setup`` or an iteration)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run = "setup"
        self._stack: list[int] = []

    def _wrap(self, name, fn, on_return, on_error):
        def traced(*args, **kwargs):
            counts = self.counts[self.run]
            counts[f"{name}.calls"] += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.run]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if on_return is not None:
                on_return(counts, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary; a boundary that no longer exists is an error."""
        originals = []
        try:
            for owner_name, attr, name, on_return, on_error in BOUNDARIES:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, on_return, on_error))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _totals(self):
        """Per run: total duration and self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, Counter] = defaultdict(Counter)
        own: dict[str, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            total[run][name] += end - start
            own[run][name] += end - start - child_time[i]
        return total, own

    def metrics(self, runs: list[str]) -> dict[str, float]:
        """Per-layer figures: set-up once plus the median over ``runs``."""
        total, own = self._totals()

        def median(values) -> float:
            return statistics.median(list(values))

        def per_run(value) -> float:
            return value("setup") + median(value(r) for r in runs)

        def count(run: str, key: str) -> float:
            return float(self.counts[run][key])

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {f"{name}_s": per_run(lambda r: own[r][name]) for name in SPAN_NAMES}
        for key in COUNTS:
            out[key.replace(".calls", "_calls")] = per_run(lambda r: count(r, key))
        out["autodiff.tape_nodes_per_record"] = median(
            share(count(r, "autodiff.tape_nodes"), count(r, "model.forward_records"))
            for r in runs)
        out["optim.param_elems_per_step"] = median(
            share(count(r, "optim.param_elems"), count(r, "optim.step.calls")) for r in runs)
        out["graphs.build_success_ratio"] = median(
            share(count(r, "graphs.subgraphs"),
                  count(r, "graphs.subgraphs") + count(r, "graphs.opinions_skipped"))
            for r in runs)
        out["train.dev_predict_share"] = median(
            share(self._predict_inside_train(r), total[r]["train.train_model"])
            for r in runs)
        out["trace.spans_per_iteration"] = median(
            sum(1 for span in self.spans if span[4] == r) for r in runs)
        return out

    def _predict_inside_train(self, run: str) -> float:
        names = [s[0] for s in self.spans]
        return sum(end - start for name, start, end, parent, r in self.spans
                   if r == run and name == "model.predict" and parent >= 0
                   and names[parent] == "train.train_model")

    def hits(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
