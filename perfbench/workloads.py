"""The three benchmark workloads: set-up, one timed iteration, output checks.

All calls into opfuse go through module attributes (``op_train.train_model``
rather than a name imported here), so the traced run can wrap them.
Each iteration returns an ``Outcome``; ``signature`` holds the exact
outputs, which must be identical on every iteration of a run because
every iteration repeats the same seeded work.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import opfuse.checkpoint as op_ckpt
import opfuse.data as op_data
import opfuse.evaluation as op_eval
import opfuse.model as op_model
import opfuse.stats as op_stats
import opfuse.train as op_train

# Boundaries each workload must hit in a traced run, and those it must not.
TRAIN_SPANS = ("data.load_corpus", "train.train_model", "model.forward", "model.predict",
               "encoder.encode", "graphs.build", "gat.layer", "gat.readout",
               "gat.aggregate", "fusion.project", "fusion.fuse", "fusion.residual",
               "fusion.head", "autodiff.backward", "optim.step", "checkpoint.save",
               "evaluation.io", "evaluation.score")
PREDICT_SPANS = ("data.load_corpus", "checkpoint.load", "model.predict",
                 "encoder.encode", "graphs.build", "gat.layer", "gat.readout",
                 "gat.aggregate", "fusion.project", "fusion.fuse", "fusion.residual",
                 "fusion.head", "evaluation.io", "evaluation.score", "stats.compare")


@dataclass
class Outcome:
    records_per_s: float
    loss: float
    attempted: int
    failed: int
    signature: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path], dict]
    iterate: Callable[[dict, Path], Outcome]
    uses: tuple[str, ...]
    forbids: tuple[str, ...] = ()


def _field(pred, key):
    return pred[key] if isinstance(pred, dict) else getattr(pred, key)


def check_predictions(preds, records) -> int:
    """Count bad outputs: every id once, 12 finite logits, pred == argmax, gold kept."""
    gold = {r.id: r.emotion for r in records}
    seen = Counter(_field(p, "id") for p in preds)
    failed = sum(1 for rid in gold if seen[rid] != 1)
    for pred in preds:
        rid = _field(pred, "id")
        logits = np.asarray(_field(pred, "logits") or (), dtype=np.float64)
        ok = (rid in gold and logits.shape == (len(op_data.EMOTIONS),)
              and bool(np.all(np.isfinite(logits)))
              and _field(pred, "pred") == op_data.EMOTIONS[int(np.argmax(logits))]
              and _field(pred, "gold") == gold[rid])
        failed += not ok
    return failed


def _signature(preds) -> tuple:
    return tuple((_field(p, "id"), _field(p, "pred"), tuple(_field(p, "logits")))
                 for p in preds)


def _load_config(inputs: Path, name: str) -> op_model.ModelConfig:
    obj = json.loads((inputs / f"{name}.config.json").read_text(encoding="utf-8"))
    if obj["encoder"]["provider"] == "file":
        obj["encoder"]["states_path"] = str(inputs / obj["encoder"]["states_path"])
    return op_model.ModelConfig.from_json(obj)


def setup_train(inputs: Path) -> dict:
    return {"corpus": op_data.load_corpus(inputs / "corpus.jsonl"),
            "config": _load_config(inputs, "model")}


def train_iteration(state: dict, work: Path) -> Outcome:
    corpus, config = state["corpus"], state["config"]
    train, dev = corpus.split("train"), corpus.split("dev")
    start = time.perf_counter()
    result = op_train.train_model(config, corpus, out_dir=work)
    elapsed = time.perf_counter() - start
    epochs = len(result.log_rows)
    loss = result.log_rows[-1].loss
    failed = check_predictions(result.dev_predictions, dev)
    failed += not (math.isfinite(loss) and loss > 0.0)
    # patience >= epochs, so early stopping must never fire.
    failed += epochs != config.optimizer.epochs
    return Outcome(records_per_s=len(train) * epochs / elapsed, loss=loss,
                   attempted=len(dev) + 2, failed=failed,
                   signature=(repr(loss), _signature(result.dev_predictions)))


def setup_predict(inputs: Path) -> dict:
    state = {"corpus": op_data.load_corpus(inputs / "corpus.jsonl"),
             "maps": [op_data.default_label_map(n) for n in ("ekman6", "valence3")]}
    for name in ("fused", "text_only"):
        model = op_model.OpinionFusionModel(_load_config(inputs, name))
        values = op_ckpt.load_checkpoint(inputs / f"{name}.ckpt")
        op_ckpt.restore_into(model.parameters(), values)
        state[name] = model
    return state


def predict_iteration(state: dict, work: Path) -> Outcome:
    test = state["corpus"].split("test")
    paths = [work / "fused.jsonl", work / "text_only.jsonl"]
    start = time.perf_counter()
    for model, path in zip((state["fused"], state["text_only"]), paths):
        op_eval.write_predictions(path, model.predict(test))
    fused, text = (op_eval.read_predictions(path) for path in paths)
    reports = [op_eval.f1_report(preds) for preds in (fused, text)]
    reports += [op_eval.aggregate(preds, label_map)[1]
                for preds in (fused, text) for label_map in state["maps"]]
    paired = op_stats.pair_predictions(fused, text)
    mc = op_stats.mcnemar(paired)
    sm = op_stats.stuart_maxwell(paired)
    elapsed = time.perf_counter() - start

    failed = check_predictions(fused, test) + check_predictions(text, test)
    scores = [r.macro_f1 for r in reports]
    failed += sum(not (math.isfinite(s) and 0.0 <= s <= 100.0) for s in scores)
    # McNemar's asymptotic p-values are NaN by definition when no pair is
    # discordant; every p-value a test defines must be finite and in [0, 1].
    pvalues = [mc.pvalue_exact, sm.pvalue]
    if mc.asymptotic_defined:
        pvalues += [mc.pvalue, mc.pvalue_corrected]
    failed += sum(not (math.isfinite(p) and 0.0 <= p <= 1.0) for p in pvalues)
    logits = np.array([p.logits for p in fused])
    labels = np.array([op_data.EMOTIONS.index(p.gold) for p in fused])
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(len(labels)), labels].mean())
    failed += not (math.isfinite(loss) and loss > 0.0)
    return Outcome(records_per_s=len(test) / elapsed, loss=loss,
                   attempted=2 * len(test) + len(scores) + len(pvalues) + 1,
                   failed=failed,
                   signature=(_signature(fused), _signature(text), tuple(scores),
                              tuple(pvalues), mc.b, mc.c, sm.statistic))


WORKLOADS = {w.name: w for w in (
    Workload("train-toy",
             "README default config (toy encoder, GAT 96x2, gate fusion, batch 32): backward "
             "~50%, encoder and GAT ~17% each, dense Adam over 1.16 M params ~4%",
             setup_train, train_iteration, TRAIN_SPANS),
    Workload("train-frozen-graph",
             "frozen file encoder, GAT 4x192, attn, 0-4 opinions with fallbacks: GAT ~50%, "
             "encoder+Adam ~2%; GAT 8x384 at depth 2 was OOM-killed on 8 GB, so not used",
             setup_train, train_iteration, TRAIN_SPANS + ("encoder.read_states",)),
    Workload("predict-compare",
             "restore fused and text-only checkpoints, predict test, score, aggregate, "
             "McNemar, Stuart-Maxwell: forward only, so backward or Adam gains must not show",
             setup_predict, predict_iteration, PREDICT_SPANS,
             forbids=("autodiff.backward", "optim.step")),
)}
