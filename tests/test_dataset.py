"""Corpus loading, validation, distribution checks, and label maps."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfuse.data import (EMOTIONS, SPAN_FIELDS, Corpus, CorpusError, LabelMap,
                         LabelMapError, OpinionAnnotation, Record, Span, default_label_map,
                         dump_corpus, load_corpus, load_label_map,
                         parse_corpus, validate_distribution)
from opfuse.synthetic import make_reference_corpus, reference_counts

from fuzzing import FIELD_VALUES, mutate


def make_line(**overrides):
    obj = {
        "id": "r1", "split": "train", "text": "Tesla to the moon", "emotion": "optimism",
        "opinions": [{
            "sentiment_expression": {"start": 9, "end": 17},
            "holder": None, "target": {"start": 0, "end": 5},
            "aspect_term": None, "qualifier": None,
            "polarity": "positive", "intensity": "strong",
            "aspect_category": "price", "target_entity": "Tesla",
        }],
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_span_invariants():
    with pytest.raises(ValueError):
        Span(3, 3)
    with pytest.raises(ValueError):
        Span(-1, 2)
    assert Span(0, 2).overlaps(Span(1, 5))
    assert not Span(0, 2).overlaps(Span(2, 4))


def test_opinion_requires_a_span():
    with pytest.raises(ValueError):
        OpinionAnnotation(polarity="positive")


def test_record_rejects_out_of_bounds_span():
    op = OpinionAnnotation(sentiment_expression=Span(0, 50), polarity="neutral")
    with pytest.raises(ValueError) as err:
        Record(id="x", split="train", text="short", emotion="anger", opinions=(op,))
    assert "x" in str(err.value)


def test_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 0


def test_unknown_emotion_rejected_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line() + "\n" + make_line(id="r2", emotion="joy") + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert any("line 2" in issue and "joy" in issue for issue in err.value.issues)


def test_invalid_json_reports_line_number():
    _, issues = parse_corpus([make_line(), "{broken"])
    assert any("line 2" in issue for issue in issues)


def test_duplicate_ids_rejected():
    _, issues = parse_corpus([make_line(), make_line(emotion="anger")])
    assert any("duplicate id" in issue for issue in issues)


def test_split_partition_property(tmp_path):
    corpus = make_reference_corpus()
    ids = [r.id for r in corpus.records]
    assert len(ids) == len(set(ids))
    assert sum(corpus.split_sizes().values()) == len(corpus)


def test_round_trip_serialization(tmp_path):
    corpus = make_reference_corpus()
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    dump_corpus(corpus, path_a)
    reloaded = load_corpus(path_a)
    assert reloaded.records == corpus.records
    dump_corpus(reloaded, path_b)
    assert path_a.read_text() == path_b.read_text()


def test_a_records_kept_graphs_are_not_part_of_its_value(tmp_path):
    """The kept graphs change no comparison, hash, dump or pickle."""
    (record,) = parse_corpus([make_line()])[0].records
    (other,) = parse_corpus([make_line()])[0].records
    dump_corpus(Corpus([record]), tmp_path / "before.jsonl")
    record.graphs[((0, 5),)] = ["no graph"] * len(record.opinions)
    assert record == other and hash(record) == hash(other) and repr(record) == repr(other)
    dump_corpus(Corpus([record]), tmp_path / "after.jsonl")
    assert (tmp_path / "after.jsonl").read_bytes() == (tmp_path / "before.jsonl").read_bytes()
    assert pickle.dumps(record) == pickle.dumps(other)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and "graphs" not in vars(twin)
        assert twin.graphs == {}
    assert list(record.graphs) == [((0, 5),)]


def test_reference_corpus_matches_published_splits():
    corpus = make_reference_corpus()
    assert corpus.split_sizes() == {"train": 8000, "dev": 1000, "test": 1000}
    report = validate_distribution(corpus)
    assert report.reference_sizes_match
    for split in ("train", "dev", "test"):
        assert report.splits[split].flagged == []


def test_reference_counts_round_cleanly():
    counts = reference_counts()
    assert sum(counts["train"].values()) == 8000
    assert counts["train"]["optimism"] == 1299
    assert counts["dev"]["optimism"] == 162
    assert counts["test"]["depression"] == 19


def test_published_percentages_reported():
    corpus = make_reference_corpus()
    report = validate_distribution(corpus)
    assert abs(report.splits["train"].percentages["optimism"] - 16.24) <= 0.01
    assert abs(report.splits["test"].percentages["depression"] - 1.90) <= 0.01


def test_uniform_corpus_flags_all_labels():
    # Near-uniform 12-label corpus at full split sizes: every label sits at
    # ~8.33%, far from the published skew, so every check trips.  The
    # rounding remainder goes to amusement first because a count of exactly
    # 83/1000 would reproduce its published 8.30%.
    records = []
    counter = 0
    from opfuse.data import Corpus
    for split, total in (("train", 8000), ("dev", 1000), ("test", 1000)):
        base, rem = divmod(total, 12)
        bonus = ["amusement"] + [l for l in EMOTIONS if l != "amusement"][:rem - 1]
        for label in EMOTIONS:
            for _ in range(base + (1 if label in bonus else 0)):
                records.append(Record(id=f"u{counter}", split=split, text="x y z",
                                      emotion=label))
                counter += 1
    report = validate_distribution(Corpus(records))
    for split in ("train", "dev", "test"):
        pct = report.splits[split].percentages
        assert all(abs(pct[label] - 100 / 12) < 0.2 for label in EMOTIONS)
        assert len(report.splits[split].flagged) == 12


def test_small_corpus_reports_without_flagging():
    from opfuse.data import Corpus
    records = [Record(id=f"s{i}", split="train", text="t", emotion="anger")
               for i in range(10)]
    records.append(Record(id="d0", split="dev", text="t", emotion="anger"))
    records.append(Record(id="t0", split="test", text="t", emotion="anger"))
    report = validate_distribution(Corpus(records))
    assert not report.reference_sizes_match
    assert report.splits["train"].flagged == []


def test_ekman6_mapping_contents():
    m = default_label_map("ekman6")
    assert m.group_of("anger") == "anger"
    assert m.group_of("depression") == "sadness"
    assert m.group_of("anxiety") == "fear" and m.group_of("panic") == "fear"
    for label in ("amusement", "belief", "excitement", "optimism"):
        assert m.group_of(label) == "joy"
    assert m.group_of("confusion") == "surprise"
    assert "ambiguous" in m.excluded
    assert m.groups() == ("joy", "fear", "disgust", "surprise", "anger", "sadness") \
        or set(m.groups()) == {"anger", "disgust", "fear", "joy", "sadness", "surprise"}


def test_valence3_mapping_contents():
    m = default_label_map("valence3")
    assert m.group_of("optimism") == "positive"
    assert m.group_of("confusion") == "ambiguous"
    assert m.group_of("depression") == "negative"
    assert set(m.groups()) == {"positive", "negative", "ambiguous"}
    assert not m.excluded


def test_label_map_totality_enforced(tmp_path):
    broken = {"name": "broken",
              "mapping": {label: "g" for label in EMOTIONS if label != "panic"}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    with pytest.raises(LabelMapError) as err:
        load_label_map(path)
    assert "panic" in str(err.value)


def test_label_map_rejects_mapped_and_excluded():
    with pytest.raises(LabelMapError):
        LabelMap(name="dup", mapping={label: "g" for label in EMOTIONS},
                 excluded=frozenset({"anger"}))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(EMOTIONS))
def test_label_map_application_is_pure(label):
    m = default_label_map("ekman6")
    assert m.group_of(label) == m.group_of(label)


@pytest.mark.parametrize("field", ["aspect_category", "target_entity"])
@pytest.mark.parametrize("value", [5, ["price"], {"a": 1}, True])
def test_non_string_opinion_labels_rejected_with_line(field, value):
    line = json.loads(make_line())
    line["opinions"][0][field] = value
    corpus, issues = parse_corpus([json.dumps(line)])
    assert len(corpus) == 0
    assert issues == [f"line 1 (record r1, opinion 0) field '{field}': "
                      "must be a string or null"]


@pytest.mark.parametrize("field", ["aspect_category", "target_entity"])
def test_lone_surrogate_in_opinion_label_rejected_with_line(tmp_path, field):
    # A label that UTF-8 cannot encode would load and then fail dump_corpus.
    line = json.loads(make_line())
    line["opinions"][0][field] = "Tesla \ud800"
    corpus, issues = parse_corpus([json.dumps(line)])
    assert len(corpus) == 0
    assert issues == [f"line 1 (record r1, opinion 0) field '{field}': "
                      "holds a lone surrogate, which UTF-8 cannot encode"]
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_null_opinion_labels_read_as_empty():
    line = json.loads(make_line())
    line["opinions"][0].update(aspect_category=None, target_entity=None)
    corpus, issues = parse_corpus([json.dumps(line)])
    assert issues == []
    assert corpus.records[0].opinions[0].aspect_category == ""


OPINION_FIELDS = SPAN_FIELDS + ("polarity", "intensity", "aspect_category", "target_entity")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_corpora_raise_only_corpus_error(tmp_path_factory, data):
    records = [json.loads(make_line()), json.loads(make_line(id="r2", split="dev"))]
    if data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(records) - 1))
        where = data.draw(st.sampled_from(["record", "field", "opinion", "span"]))
        if where == "record":
            records[index] = data.draw(FIELD_VALUES)
        elif where == "field":
            records[index][data.draw(st.sampled_from(list(records[index])))] = \
                data.draw(FIELD_VALUES)
        elif where == "opinion":
            records[index]["opinions"][0][data.draw(st.sampled_from(OPINION_FIELDS))] = \
                data.draw(FIELD_VALUES)
        else:
            span = records[index]["opinions"][0]["target"]
            span[data.draw(st.sampled_from(["start", "end"]))] = data.draw(FIELD_VALUES)
        raw = "\n".join(json.dumps(r) for r in records).encode("utf-8")
    else:
        raw = mutate(data, "\n".join(json.dumps(r) for r in records).encode("utf-8"))
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    path.write_bytes(raw)
    try:
        load_corpus(path)
    except CorpusError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_label_maps_raise_only_label_map_error(tmp_path_factory, data):
    ekman6 = default_label_map("ekman6")
    obj = {"name": ekman6.name, "mapping": dict(ekman6.mapping),
           "excluded": sorted(ekman6.excluded)}
    if data.draw(st.booleans()):
        where = data.draw(st.sampled_from(["map", "field", "group", "excluded"]))
        if where == "map":
            obj = data.draw(FIELD_VALUES)
        elif where == "field":
            obj[data.draw(st.sampled_from(["name", "mapping", "excluded"]))] = \
                data.draw(FIELD_VALUES)
        elif where == "group":
            obj["mapping"][data.draw(st.sampled_from(sorted(obj["mapping"])))] = \
                data.draw(FIELD_VALUES)
        else:
            obj["excluded"][0] = data.draw(FIELD_VALUES)
        raw = json.dumps(obj).encode("utf-8")
    else:
        raw = mutate(data, json.dumps(obj).encode("utf-8"))
    path = tmp_path_factory.mktemp("fuzz") / "map.json"
    path.write_bytes(raw)
    try:
        load_label_map(path)
    except LabelMapError:
        pass
