"""Classification metrics, taxonomy aggregation, and prediction-file I/O.

F1 values are reported on a 0-100 scale.  Macro-F1 averages only over
classes present in the gold labels, so classes a model never had a chance
to hit cannot drag the mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import EMOTIONS, LabelMap, is_finite_number


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class Prediction:
    id: str
    gold: str
    pred: str
    logits: Optional[tuple[float, ...]] = None


def read_predictions(path: str | Path) -> list[Prediction]:
    """Read a JSON Lines prediction file ({id, gold, pred, logits?}); an id may appear once."""
    preds: list[Prediction] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                stripped = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise EvaluationError(f"{path} line {line_no}: not UTF-8 text ({exc.reason})")
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise EvaluationError(f"{path} line {line_no}: invalid JSON ({exc.msg})")
            except RecursionError:
                raise EvaluationError(f"{path} line {line_no}: invalid JSON (nested too deeply)")
            if not isinstance(obj, dict):
                raise EvaluationError(f"{path} line {line_no}: not a JSON object")
            for key in ("id", "gold", "pred"):
                if key not in obj:
                    raise EvaluationError(f"{path} line {line_no}: missing field '{key}'")
                if not isinstance(obj[key], str):
                    raise EvaluationError(f"{path} line {line_no}: field '{key}' must be a "
                                          f"string, got {type(obj[key]).__name__}")
            if obj["id"] in seen:
                raise EvaluationError(f"{path} line {line_no}: duplicate id {obj['id']!r}")
            seen.add(obj["id"])
            logits = obj.get("logits")
            if logits is not None and not isinstance(logits, list):
                raise EvaluationError(f"{path} line {line_no}: 'logits' must be a list")
            if logits is not None and not all(is_finite_number(x) for x in logits):
                raise EvaluationError(
                    f"{path} line {line_no}: every logit must be a finite number")
            preds.append(Prediction(
                id=obj["id"], gold=obj["gold"], pred=obj["pred"],
                logits=None if logits is None else tuple(float(x) for x in logits)))
    return preds


def write_predictions(path: str | Path, preds: Sequence[Prediction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in preds:
            obj = {"id": p.id, "gold": p.gold, "pred": p.pred}
            if p.logits is not None:
                obj["logits"] = list(p.logits)
            fh.write(json.dumps(obj))
            fh.write("\n")


@dataclass
class ConfusionMatrix:
    """Square count matrix; rows are gold labels, columns predictions."""

    labels: tuple[str, ...]
    counts: np.ndarray

    @classmethod
    def from_pairs(cls, golds: Sequence[str], preds: Sequence[str],
                   labels: Sequence[str]) -> "ConfusionMatrix":
        index = {label: i for i, label in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for gold, pred in zip(golds, preds):
            if gold not in index:
                raise EvaluationError(f"unknown gold label {gold!r}")
            if pred not in index:
                raise EvaluationError(f"unknown predicted label {pred!r}")
            counts[index[gold], index[pred]] += 1
        return cls(labels=tuple(labels), counts=counts)

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "counts": [[int(x) for x in row] for row in self.counts]}


@dataclass
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    labels: tuple[str, ...]              # scored classes, fixed order
    per_class: dict[str, ClassScore]
    macro_f1: float
    confusion: ConfusionMatrix
    n_records: int
    excluded_labels: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "n_records": self.n_records,
            "macro_f1": self.macro_f1,
            "per_class": {
                label: {
                    "precision": score.precision,
                    "recall": score.recall,
                    "f1": score.f1,
                    "support": score.support,
                }
                for label, score in self.per_class.items()
            },
            "excluded_labels": list(self.excluded_labels),
            "confusion": self.confusion.to_json(),
        }

    def to_text(self) -> str:
        lines = [f"{'class':<14}{'P':>8}{'R':>8}{'F1':>8}{'support':>9}"]
        for label in self.labels:
            s = self.per_class[label]
            lines.append(f"{label:<14}{s.precision:>8.2f}{s.recall:>8.2f}"
                         f"{s.f1:>8.2f}{s.support:>9d}")
        lines.append(f"{'macro-F1':<14}{'':>8}{'':>8}{self.macro_f1:>8.2f}"
                     f"{self.n_records:>9d}")
        if self.excluded_labels:
            lines.append(f"excluded from scoring: {', '.join(self.excluded_labels)}")
        return "\n".join(lines)

    def to_csv_rows(self, taxonomy: str) -> list[tuple[str, str, str]]:
        rows = [(taxonomy, label, repr(self.per_class[label].f1)) for label in self.labels]
        rows.append((taxonomy, "macro", repr(self.macro_f1)))
        return rows


def _score_classes(golds: list[str], preds: list[str], labels: Sequence[str],
                   excluded: Sequence[str] = ()) -> EvalReport:
    all_labels = tuple(labels) + tuple(x for x in excluded if x not in labels)
    confusion = ConfusionMatrix.from_pairs(golds, preds, all_labels)
    scored = tuple(labels)
    per_class: dict[str, ClassScore] = {}
    f1_for_macro: list[float] = []
    gold_set = set(golds)
    for label in scored:
        i = all_labels.index(label)
        tp = int(confusion.counts[i, i])
        fp = int(confusion.counts[:, i].sum()) - tp
        fn = int(confusion.counts[i, :].sum()) - tp
        precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        support = tp + fn
        per_class[label] = ClassScore(precision, recall, f1, support)
        if label in gold_set:
            f1_for_macro.append(f1)
    if not f1_for_macro:
        raise EvaluationError("no scored class appears in the gold labels")
    macro = float(np.mean(f1_for_macro))
    return EvalReport(labels=scored, per_class=per_class, macro_f1=macro,
                      confusion=confusion, n_records=len(golds),
                      excluded_labels=tuple(excluded))


def f1_report(preds: Sequence[Prediction]) -> EvalReport:
    """Per-emotion precision/recall/F1 plus macro-F1 over gold-present classes."""
    if not preds:
        raise EvaluationError("cannot evaluate an empty prediction list")
    for p in preds:
        if p.gold not in EMOTIONS:
            raise EvaluationError(f"record {p.id}: unknown gold label {p.gold!r}")
        if p.pred not in EMOTIONS:
            raise EvaluationError(f"record {p.id}: unknown predicted label {p.pred!r}")
    return _score_classes([p.gold for p in preds], [p.pred for p in preds], EMOTIONS)


def macro_f1(preds: Sequence[Prediction]) -> float:
    return f1_report(preds).macro_f1


def aggregate(preds: Sequence[Prediction],
              label_map: LabelMap) -> tuple[list[Prediction], EvalReport]:
    """Remap predictions onto a coarser taxonomy and rescore.

    Both gold and predicted labels are remapped.  Excluded labels keep
    their own name in the remapped records and form unscored sink groups:
    they get no per-class score and never enter the macro mean, but the
    records stay, so scored groups keep their exact precision accounting.
    """
    if not preds:
        raise EvaluationError("cannot aggregate an empty prediction list")
    remapped = [
        Prediction(id=p.id, gold=label_map.group_of(p.gold),
                   pred=label_map.group_of(p.pred), logits=p.logits)
        for p in preds
    ]
    groups = label_map.groups()
    excluded = tuple(sorted(label_map.excluded))
    report = _score_classes([p.gold for p in remapped], [p.pred for p in remapped],
                            groups, excluded=excluded)
    return remapped, report
