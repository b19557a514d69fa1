"""F1 reporting and taxonomy aggregation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfuse.data import EMOTIONS, LabelMap, default_label_map
from opfuse.evaluation import (EvaluationError, Prediction, aggregate,
                               f1_report, macro_f1, read_predictions,
                               write_predictions)

from fuzzing import FIELD_VALUES, mutate


def preds_from(pairs):
    return [Prediction(id=str(i), gold=g, pred=p) for i, (g, p) in enumerate(pairs)]


def test_perfect_predictions_score_100():
    report = f1_report(preds_from([(label, label) for label in EMOTIONS]))
    assert report.macro_f1 == 100.0
    for label in EMOTIONS:
        assert report.per_class[label].f1 == 100.0


def test_hand_computed_confusion():
    # gold [a, a, b], pred [a, b, b] with a=anger, b=panic
    report = f1_report(preds_from([("anger", "anger"), ("anger", "panic"),
                                   ("panic", "panic")]))
    assert abs(report.per_class["anger"].f1 - 200 / 3) < 1e-9
    assert abs(report.per_class["panic"].f1 - 200 / 3) < 1e-9
    assert abs(report.macro_f1 - 200 / 3) < 1e-9


def test_macro_excludes_classes_absent_from_gold():
    pairs = [("anger", "anger"), ("panic", "anger"), ("anger", "anger")]
    report = f1_report(preds_from(pairs))
    present = {"anger", "panic"}
    scores = [report.per_class[label].f1 for label in present]
    assert abs(report.macro_f1 - float(np.mean(scores))) < 1e-12
    # depression appears in neither gold nor pred: not in the macro
    assert report.per_class["depression"].support == 0


def test_f1_zero_when_precision_and_recall_zero():
    report = f1_report(preds_from([("anger", "panic"), ("panic", "anger")]))
    assert report.per_class["anger"].f1 == 0.0


def test_unknown_label_rejected():
    with pytest.raises(EvaluationError):
        f1_report([Prediction(id="0", gold="joy", pred="anger")])
    with pytest.raises(EvaluationError):
        f1_report([Prediction(id="0", gold="anger", pred="joy")])


def test_confusion_marginals():
    pairs = [("anger", "anger"), ("anger", "panic"), ("panic", "panic"),
             ("panic", "panic"), ("disgust", "anger")]
    report = f1_report(preds_from(pairs))
    cm = report.confusion
    golds = [g for g, _ in pairs]
    preds = [p for _, p in pairs]
    for i, label in enumerate(cm.labels):
        assert cm.counts[i, :].sum() == golds.count(label)
        assert cm.counts[:, i].sum() == preds.count(label)
    assert cm.counts.sum() == len(pairs)


def test_identity_map_preserves_report():
    identity = LabelMap(name="id", mapping={label: label for label in EMOTIONS})
    pairs = [("anger", "panic"), ("panic", "panic"), ("belief", "anger")]
    base = f1_report(preds_from(pairs))
    _, agg = aggregate(preds_from(pairs), identity)
    assert abs(agg.macro_f1 - base.macro_f1) < 1e-12
    for label in ("anger", "panic", "belief"):
        assert agg.per_class[label].f1 == base.per_class[label].f1


def test_single_group_map_degenerate_100():
    one = LabelMap(name="one", mapping={label: "all" for label in EMOTIONS})
    _, agg = aggregate(preds_from([("anger", "panic"), ("belief", "optimism")]), one)
    assert agg.macro_f1 == 100.0


def test_singleton_groups_preserve_f1_exactly():
    rng = np.random.default_rng(0)
    ekman = default_label_map("ekman6")
    pairs = [(EMOTIONS[rng.integers(12)], EMOTIONS[rng.integers(12)])
             for _ in range(500)]
    base = f1_report(preds_from(pairs))
    _, agg = aggregate(preds_from(pairs), ekman)
    assert abs(agg.per_class["anger"].f1 - base.per_class["anger"].f1) < 1e-9
    assert abs(agg.per_class["disgust"].f1 - base.per_class["disgust"].f1) < 1e-9
    assert abs(agg.per_class["sadness"].f1 - base.per_class["depression"].f1) < 1e-9


def test_singleton_preservation_with_excluded_gold_predicted_as_singleton():
    # Records whose gold label is excluded but whose prediction lands on a
    # singleton class stress the precision accounting: they must keep
    # counting as false positives after aggregation.
    pairs = ([("anger", "anger")] * 6 + [("anger", "optimism")] * 7 +
             [("ambiguous", "anger")] * 7)
    base = f1_report(preds_from(pairs))
    _, agg = aggregate(preds_from(pairs), default_label_map("ekman6"))
    # 13 gold anger, 13 predicted anger, 6 hits -> P = R = F1 = 6/13
    assert abs(base.per_class["anger"].f1 - 600 / 13) < 1e-9
    assert abs(agg.per_class["anger"].f1 - base.per_class["anger"].f1) < 1e-9
    assert round(agg.per_class["anger"].f1, 2) == 46.15


def test_excluded_group_not_in_macro():
    ekman = default_label_map("ekman6")
    pairs = [("ambiguous", "ambiguous"), ("anger", "anger"), ("panic", "panic")]
    _, agg = aggregate(preds_from(pairs), ekman)
    assert "ambiguous" not in agg.labels
    assert set(agg.excluded_labels) == {"ambiguous"}
    # macro over gold-present scored groups only: anger and fear
    expected = (agg.per_class["anger"].f1 + agg.per_class["fear"].f1) / 2
    assert abs(agg.macro_f1 - expected) < 1e-12


def test_valence_grouping():
    val = default_label_map("valence3")
    pairs = [("optimism", "excitement"), ("anger", "panic"),
             ("confusion", "surprise")]
    _, agg = aggregate(preds_from(pairs), val)
    assert agg.macro_f1 == 100.0  # every pair lands in its own valence group


def test_remapped_predictions_returned():
    ekman = default_label_map("ekman6")
    remapped, _ = aggregate(preds_from([("depression", "anxiety")]), ekman)
    assert remapped[0].gold == "sadness"
    assert remapped[0].pred == "fear"


def test_prediction_file_round_trip(tmp_path):
    preds = [Prediction(id="a", gold="anger", pred="panic",
                        logits=tuple(float(i) for i in range(12))),
             Prediction(id="b", gold="belief", pred="belief")]
    path = tmp_path / "preds.jsonl"
    write_predictions(path, preds)
    loaded = read_predictions(path)
    assert loaded == preds


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_prediction_files_raise_only_evaluation_error(tmp_path_factory, data):
    lines = [{"id": "a", "gold": "anger", "pred": "panic", "logits": [0.5] * 12},
             {"id": "b", "gold": "belief", "pred": "belief"}]
    if data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(lines) - 1))
        where = data.draw(st.sampled_from(["line", "field", "logit"]))
        if where == "line":
            lines[index] = data.draw(FIELD_VALUES)
        elif where == "field":
            key = data.draw(st.sampled_from(["id", "gold", "pred", "logits"]))
            lines[index][key] = data.draw(FIELD_VALUES)
        else:
            lines[0]["logits"][data.draw(st.integers(0, 11))] = data.draw(FIELD_VALUES)
        raw = "\n".join(json.dumps(line) for line in lines).encode("utf-8")
    else:
        raw = mutate(data, "\n".join(json.dumps(line) for line in lines).encode("utf-8"))
    path = tmp_path_factory.mktemp("fuzz") / "preds.jsonl"
    path.write_bytes(raw)
    try:
        read_predictions(path)
    except EvaluationError:
        pass


def test_macro_f1_helper():
    assert macro_f1(preds_from([("anger", "anger"), ("panic", "panic")])) == 100.0
