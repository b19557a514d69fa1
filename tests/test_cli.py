"""Command-line surface: exit codes, output mirroring, end-to-end flows."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opfuse.cli import main
from opfuse.data import (EMOTIONS, Corpus, OpinionAnnotation, Record, Span, dump_corpus,
                         load_corpus)
from opfuse.encoder import FileEncoder, tokenize, write_encoder_states
from opfuse.evaluation import Prediction, write_predictions
from opfuse.model import opinion_graphs
from opfuse.synthetic import make_reference_corpus

from oracles import raw_encoder_states


@pytest.fixture(scope="module")
def reference_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    dump_corpus(make_reference_corpus(), path)
    return path


def small_corpus_file(tmp_path, n_train=10, n_dev=4):
    records = []
    for i in range(n_train + n_dev):
        split = "train" if i < n_train else "dev"
        emotion = "optimism" if i % 2 == 0 else "anxiety"
        polarity = "positive" if i % 2 == 0 else "negative"
        text = "trader says market will crash soon"
        records.append(Record(
            id=f"r{i}", split=split, text=text, emotion=emotion,
            opinions=(OpinionAnnotation(holder=Span(0, 6),
                                        sentiment_expression=Span(24, 29),
                                        target=Span(12, 18),
                                        polarity=polarity),)))
    path = tmp_path / "corpus.jsonl"
    dump_corpus(Corpus(records), path)
    return path


def config_file(tmp_path, **overrides):
    config = {
        "architecture": "fused",
        "encoder": {"provider": "toy", "width": 8, "layers": 1, "heads": 2,
                    "vocab_buckets": 32},
        "gat": {"out_dim": 4, "heads": 2, "depth": 1},
        "fusion": {"type": "cat", "alpha_res": 0.5},
        "optimizer": {"learning_rate": 0.003, "batch_size": 8, "epochs": 2,
                      "patience": 5},
        "seed": 0,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_ingest_reference_corpus(reference_corpus_path, capsys):
    assert main(["ingest", "--data", str(reference_corpus_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("train 8000 / dev 1000 / test 1000") == 1


def test_ingest_missing_file(tmp_path, capsys):
    assert main(["ingest", "--data", str(tmp_path / "nope.jsonl")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_ingest_corrupt_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "split": "train", "text": "x", "emotion": "anger",
                       "opinions": []})
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    assert main(["ingest", "--data", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_ingest_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert main(["ingest", "--data", str(path)]) == 0
    assert "0 records" in capsys.readouterr().out


def test_stats_stdout_matches_out_file(tmp_path, reference_corpus_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["stats", "--data", str(reference_corpus_path),
                 "--out", str(out_file)]) == 0
    captured = capsys.readouterr().out
    assert captured == out_file.read_text()
    report = json.loads(captured)
    assert report["reference_sizes_match"] is True


def test_train_writes_artifacts_and_is_deterministic(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs_run"] == 2
    assert (out_a / "checkpoint.bin").exists()
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert ((out_a / "training_log.csv").read_bytes()
            == (out_b / "training_log.csv").read_bytes())
    assert ((out_a / "dev_predictions.jsonl").read_bytes()
            == (out_b / "dev_predictions.jsonl").read_bytes())
    assert ((out_a / "summary.json").read_text()
            == (out_b / "summary.json").read_text())


def test_train_seed_flag_overrides(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path)
    out = tmp_path / "s"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out), "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_train_invalid_config_names_field(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path, optimizer={"learning_rate": 0.003,
                                              "batch_size": 7, "epochs": 1,
                                              "patience": 1})
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 2
    assert "batch_size" in capsys.readouterr().err


def test_train_baseline_config_runs(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path, architecture="text_only")
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "base")]) == 0
    capsys.readouterr()


def write_prediction_files(tmp_path, b=10, c=2, both_right=30):
    """Two aligned prediction files with the given discordant counts."""
    preds_a, preds_b = [], []
    k = 0

    def push(gold, a_label, b_label):
        nonlocal k
        preds_a.append(Prediction(id=f"p{k}", gold=gold, pred=a_label))
        preds_b.append(Prediction(id=f"p{k}", gold=gold, pred=b_label))
        k += 1

    for _ in range(b):
        push("anger", "anger", "panic")
    for _ in range(c):
        push("anger", "panic", "anger")
    for _ in range(both_right):
        push("belief", "belief", "belief")
    path_a = tmp_path / "preds_a.jsonl"
    path_b = tmp_path / "preds_b.jsonl"
    write_predictions(path_a, preds_a)
    write_predictions(path_b, preds_b)
    return path_a, path_b


def test_compare_file_with_itself(tmp_path, capsys):
    path_a, _ = write_prediction_files(tmp_path)
    assert main(["compare", "--pred-a", str(path_a), "--pred-b", str(path_a)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[:out.index("\ntest")])
    assert payload["mcnemar"]["pvalue_exact"] == 1.0
    assert payload["stuart_maxwell"]["pvalue"] == 1.0


def test_compare_discordant_counts(tmp_path, capsys):
    path_a, path_b = write_prediction_files(tmp_path, b=10, c=2)
    out_file = tmp_path / "cmp.txt"
    assert main(["compare", "--pred-a", str(path_a), "--pred-b", str(path_b),
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert out == out_file.read_text()
    payload = json.loads(out[:out.index("\ntest")])
    assert abs(payload["mcnemar"]["statistic"] - 5.3333333) < 1e-3
    assert payload["mcnemar"]["b"] == 10 and payload["mcnemar"]["c"] == 2


def test_compare_disjoint_ids(tmp_path, capsys):
    path_a, _ = write_prediction_files(tmp_path)
    other = tmp_path / "other.jsonl"
    write_predictions(other, [Prediction(id="zzz", gold="anger", pred="anger")])
    assert main(["compare", "--pred-a", str(path_a), "--pred-b", str(other)]) == 2
    assert "only in model" in capsys.readouterr().err


def test_eval_and_aggregate(tmp_path, capsys):
    path_a, _ = write_prediction_files(tmp_path)
    out_file = tmp_path / "eval.json"
    csv_file = tmp_path / "eval.csv"
    assert main(["eval", "--pred", str(path_a), "--out", str(out_file),
                 "--csv", str(csv_file)]) == 0
    out = capsys.readouterr().out
    assert out == out_file.read_text()
    report = json.loads(out)
    assert "macro_f1" in report
    csv = csv_file.read_text().strip().split("\n")
    assert csv[0] == "taxonomy,label,f1"
    assert any(line.startswith("emotion12,anger,") for line in csv)

    assert main(["aggregate", "--pred", str(path_a), "--map", "ekman6",
                 "--csv", str(csv_file)]) == 0
    capsys.readouterr()
    assert any(line.startswith("ekman6,") for line in csv_file.read_text().split("\n"))


@pytest.mark.parametrize("command", ["eval", "aggregate"])
def test_eval_csv_quotes_names_holding_commas_and_quotes(tmp_path, capsys, command):
    path_a, _ = write_prediction_files(tmp_path)
    groups = ["good, calm", 'say "no"']
    label_map = tmp_path / "odd.json"
    label_map.write_text(json.dumps({"name": "val,2", "mapping": {
        label: groups[i % 2] for i, label in enumerate(EMOTIONS)}}))
    csv_file = tmp_path / "f1.csv"
    assert main([command, "--pred", str(path_a), "--map", str(label_map),
                 "--csv", str(csv_file)]) == 0
    capsys.readouterr()
    with open(csv_file, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["taxonomy", "label", "f1"]
    assert [row[:2] for row in rows[1:]] == [["val,2", g] for g in groups + ["macro"]]
    assert all(len(row) == 3 for row in rows)


def test_aggregate_remapped_output(tmp_path, capsys):
    path_a, _ = write_prediction_files(tmp_path, b=1, c=1, both_right=2)
    remapped = tmp_path / "remapped.jsonl"
    assert main(["aggregate", "--pred", str(path_a), "--map", "valence3",
                 "--remapped", str(remapped)]) == 0
    capsys.readouterr()
    lines = [json.loads(x) for x in remapped.read_text().strip().split("\n")]
    assert {l["gold"] for l in lines} <= {"positive", "negative", "ambiguous"}


def test_export_graphs_matches_golden_output(tmp_path, capsys):
    # The corpus mixes opinion-free records (one with empty text), dropped
    # role spans, pooled-fallback sentiment nodes, an opinion no token
    # anchors and multi-token spans; the expected file was written by the
    # per-opinion graph build that preceded batch packing.
    data = Path(__file__).parent / "data"
    out = tmp_path / "graphs.jsonl"
    assert main(["export-graphs", "--data", str(data / "export_corpus.jsonl"),
                 "--out", str(out)]) == 0
    expected = (data / "export_graphs.jsonl").read_bytes()
    assert out.read_bytes() == expected
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_export_graphs(tmp_path, capsys):
    data = small_corpus_file(tmp_path, n_train=3, n_dev=1)
    assert main(["export-graphs", "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    obj = json.loads(lines[0])
    graph = obj["graphs"][0]
    assert {n["role"] for n in graph["nodes"]} == {"holder", "sentiment", "target"}
    assert len(graph["edges"]) == 4
    assert graph["polarity"] in {"positive", "negative"}


def test_sweep_cli(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path, optimizer={"learning_rate": 0.003,
                                              "batch_size": 8, "epochs": 1,
                                              "patience": 1})
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"batch_size": [8], "gat_out_dim": [4],
                                 "gat_heads": [2], "fusion_type": ["cat"],
                                 "alpha_res": [0.5]}), encoding="utf-8")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--data", str(data),
                 "--out", str(out_dir), "--budget", "1",
                 "--space", str(space)]) == 0
    out = capsys.readouterr().out
    assert out == (out_dir / "sweep.csv").read_text()
    assert out.startswith("trial,config_json,dev_macro_f1,best_epoch")
    assert len(out.strip().split("\n")) == 2


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "opfuse.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ingest" in proc.stdout


def test_log_level_env_variable(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    for level in ("error", "info", "debug"):
        proc = subprocess.run(
            [sys.executable, "-m", "opfuse.cli", "ingest", "--data", str(path)],
            capture_output=True, text=True, env={**os.environ, "OPFUSE_LOG": level})
        assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "opfuse.cli", "ingest", "--data", str(path)],
        capture_output=True, text=True, env={**os.environ, "OPFUSE_LOG": "shout"})
    assert proc.returncode == 0
    assert "unknown OPFUSE_LOG level" in proc.stderr


@pytest.mark.parametrize("overrides, message", [
    ({"encoder": {"provider": "toy", "width": "64"}},
     "config field 'encoder.width': must be an integer, got str"),
    ({"seed": "abc"}, "config field 'seed': must be an integer, got str"),
    ({"gat": {"out_dim": 4, "heads": 2, "role_embedding": 1}},
     "config field 'gat.role_embedding': must be true or false, got int"),
    ({"fusion": {"type": "cat", "alpha_res": "0.5"}},
     "config field 'fusion.alpha_res': must be a finite number, got str"),
])
def test_train_wrongly_typed_config_field_exits_2(tmp_path, capsys, overrides, message):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path, **overrides)
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_train_non_object_config_exits_2(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = tmp_path / "config.json"
    config.write_text("[1]", encoding="utf-8")
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_train_config_probes_print_one_line_without_traceback(tmp_path):
    data = small_corpus_file(tmp_path)
    probes = ['{"encoder": {"width": "64"}}', '{"seed": "abc"}', "[1]",
              '{"encoder": {"heads": 0}}', '{"encoder": {"heads": -4}}',
              '{"encoder": {"layers": -1}}', '{"seed": "\xff"}'.encode("latin-1"),
              '{"seed": -1}']
    for index, text in enumerate(probes):
        config = tmp_path / f"probe{index}.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "opfuse.cli", "train", "--config", str(config),
             "--data", str(data), "--out", str(tmp_path / "x")],
            capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


def states_config(tmp_path, data, bad_id=None, value=1.0, repeat_id=None,
                  offsets_of=lambda record: tokenize(record.text), write=write_encoder_states):
    """A file-provider config with all-ones states, but ``value`` in record
    ``bad_id``, and record ``repeat_id``'s states written twice; each
    record's token offsets are ``offsets_of(record)``, and ``write`` writes
    the file."""
    entries = []
    for record in load_corpus(data).records:
        offsets = offsets_of(record)
        hidden = np.ones((len(offsets), 8))
        if record.id == bad_id:
            hidden[0, 0] = value
        entry = (record.id, offsets, hidden, np.ones(8))
        entries += [entry, entry] if record.id == repeat_id else [entry]
    states = tmp_path / "states.bin"
    write(states, entries)
    return config_file(tmp_path, encoder={"provider": "file", "width": 8,
                                          "states_path": str(states)},
                       gat={"out_dim": 96, "heads": 2, "depth": 1})


def truncated_states_config(tmp_path, data):
    """A file-provider config whose encoder-state file lost its last bytes."""
    config = states_config(tmp_path, data)
    states = tmp_path / "states.bin"
    states.write_bytes(states.read_bytes()[:-5])
    return config


def test_train_truncated_encoder_states_exits_2(tmp_path, capsys):
    data = small_corpus_file(tmp_path)
    config = truncated_states_config(tmp_path, data)
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err and err.count("\n") == 1


@pytest.mark.parametrize("blob", [b"", b"OPFUS"])
def test_train_on_an_empty_or_short_state_file_exits_2_with_one_line(tmp_path, capsys, blob):
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)
    config = states_config(tmp_path, data)
    states = tmp_path / "states.bin"
    states.write_bytes(blob)
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {states}: not an OPFUSE-ENC-1 state file\n"


def test_train_on_a_directory_as_state_file_exits_1_with_one_line(tmp_path, capsys):
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)
    config = states_config(tmp_path, data)
    states = tmp_path / "states.bin"
    states.unlink()
    states.mkdir()
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(states) in err and err.count("\n") == 1, err


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "opfuse.cli", *map(str, args)],
                          capture_output=True, text=True)


def test_train_non_finite_update_exits_2_naming_epoch_and_batch(tmp_path):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path, optimizer={"learning_rate": 1e308, "batch_size": 8,
                                              "epochs": 2, "patience": 5})
    proc = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "x")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: epoch 1, batch 1: "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("probe, message", [
    ("learning_rate", "error: epoch 1, dev predict: matmul produced non-finite values"),
    ("nan_dev_state", "error: {states}: non-finite states in record 'r11'"),
    ("inf_train_state", "error: {states}: non-finite states in record 'r0'"),
])
def test_train_non_finite_probes_exit_2_with_one_line(tmp_path, probe, message):
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)
    if probe == "learning_rate":
        # Training survives the one step; the dev predict then overflows.
        config = config_file(tmp_path, optimizer={"learning_rate": 1e100, "batch_size": 8,
                                                  "epochs": 1, "patience": 5})
    else:
        bad_id, value = ("r11", np.nan) if probe == "nan_dev_state" else ("r0", np.inf)
        # Unchecked bytes: the writer itself refuses non-finite states.
        config = states_config(tmp_path, data, bad_id, value, write=raw_encoder_states)
    proc = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "x")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == message.format(states=tmp_path / "states.bin") + "\n"


@pytest.mark.parametrize("offsets, message", [
    ((-1, 2), "token 1 of record 'r0' has invalid offsets [-1, 2)"),
    ((5, 3), "token 1 of record 'r0' has invalid offsets [5, 3)"),
    ((30, 40), "record 'r0' has a token ending at offset 40, past the end of its "
               "34-character text"),
])
def test_train_bad_token_offsets_exit_2_with_one_line(tmp_path, offsets, message):
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)

    def offsets_of(record):
        seq = list(tokenize(record.text))
        if record.id == "r0":
            seq[1] = offsets
        return seq

    # Unchecked bytes: the writer itself refuses the first two probes.
    config = states_config(tmp_path, data, offsets_of=offsets_of, write=raw_encoder_states)
    proc = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "x")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {tmp_path / 'states.bin'}: {message}\n"


def test_train_with_zero_width_special_tokens(tmp_path):
    """``(0, 0)`` and end-of-text tokens, as tokenizers export ``[CLS]`` and
    ``[SEP]``, train and hold no node's tokens."""
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)
    config = states_config(tmp_path, data, offsets_of=lambda record: (
        ((0, 0),) + tokenize(record.text) + ((len(record.text), len(record.text)),)))
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "checkpoint.bin").exists()
    records = load_corpus(data).records
    frozen = FileEncoder(tmp_path / "states.bin", width=8)
    for record in records:
        seq = frozen.encode_record(record)[0]
        graphs, _ = opinion_graphs([record], [seq])
        indices = [i for g in graphs for node in g.structure.nodes for i in node.token_indices]
        assert indices and 0 not in indices and len(seq) - 1 not in indices
        # The same nodes as live tokenization, each token one further on.
        live, _ = opinion_graphs([record], [tokenize(record.text)])
        assert indices == [i + 1 for g in live for node in g.structure.nodes
                           for i in node.token_indices]


def test_train_duplicate_state_id_exits_2_with_one_line(tmp_path):
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)
    config = states_config(tmp_path, data, repeat_id="r3", write=raw_encoder_states)
    proc = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "x")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {tmp_path / 'states.bin'}: duplicate record id 'r3'\n"


# probe -> the part of its one-line error after "error: <states file>: "
STATE_PROBES = {
    "truncated": "truncated pooled vector of record 'r11'",
    "duplicate_id": "duplicate record id 'r3'",
    "bad_offsets": "token 1 of record 'r0' has invalid offsets [5, 3)",
    "non_finite": "non-finite states in record 'r0'",
    "width": "has width 8, model configured for 16",
    "past_text": "record 'r0' has a token ending at offset 40, past the end of its "
                 "34-character text",
}


@pytest.mark.parametrize("probe", sorted(STATE_PROBES))
def test_state_file_probes_fail_alike_on_every_run_in_one_process(tmp_path, capsys, probe):
    """No failed parse is kept: a second run in the same process reads the
    file again and fails with the same line and exit code."""
    data = small_corpus_file(tmp_path, n_train=8, n_dev=4)
    bad_offsets = {"bad_offsets": (5, 3), "past_text": (30, 40)}

    def offsets_of(record):
        seq = list(tokenize(record.text))
        if record.id == "r0" and probe in bad_offsets:
            seq[1] = bad_offsets[probe]
        return seq

    config = states_config(tmp_path, data, bad_id="r0", value=np.nan if probe == "non_finite"
                           else 1.0, repeat_id="r3" if probe == "duplicate_id" else None,
                           offsets_of=offsets_of, write=raw_encoder_states)
    states = tmp_path / "states.bin"
    if probe == "truncated":
        states.write_bytes(states.read_bytes()[:-5])
    if probe == "width":
        obj = json.loads(config.read_text(encoding="utf-8"))
        obj["encoder"]["width"] = 16
        config.write_text(json.dumps(obj), encoding="utf-8")
    errors = []
    for _ in range(2):
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "x")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {states}: ") and errors[0].count("\n") == 1
    assert errors[0].endswith(STATE_PROBES[probe] + "\n"), errors[0]


@pytest.mark.parametrize("line, message", [
    ("[1]", "not a JSON object"),
    ('{"id": "a", "gold": "anger", "pred": "anger", "logits": 5}', "must be a list"),
    ('{"id": "a", "gold": "anger", "pred": "anger", "logits": ["x", 1]}', "finite number"),
    ('{"id": "a", "gold": "anger", "pred": "anger", "logits": [NaN, 1]}', "finite number"),
    pytest.param('{"id": "a", "gold": "anger", "pred": "anger", "logits": [1%s]}' % ("0" * 400),
                 "finite number", id="int-too-large-for-a-float"),
    pytest.param('{"id": "a", "gold": "anger\xff", "pred": "anger"}'.encode("latin-1"),
                 "not UTF-8", id="not-utf-8"),
    ('{"id": 5, "gold": "anger", "pred": "anger"}', "field 'id' must be a string, got int"),
    ('{"id": [1], "gold": "anger", "pred": "anger"}', "field 'id' must be a string, got list"),
    ('{"id": "a", "gold": 3, "pred": "anger"}', "field 'gold' must be a string, got int"),
    ('{"id": "a", "gold": "anger", "pred": null}',
     "field 'pred' must be a string, got NoneType"),
])
def test_malformed_prediction_fields_exit_2_with_one_line(tmp_path, line, message):
    good = json.dumps({"id": "z", "gold": "anger", "pred": "anger"})
    pred = tmp_path / "preds.jsonl"
    line = line if isinstance(line, bytes) else line.encode("utf-8")
    pred.write_bytes(good.encode("utf-8") + b"\n" + line + b"\n")
    for args in (["eval", "--pred", pred], ["aggregate", "--pred", pred, "--map", "ekman6"],
                 ["compare", "--pred-a", pred, "--pred-b", pred]):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {pred} line 2: "), proc.stderr
        assert message in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_malformed_label_maps_exit_2_with_one_line(tmp_path):
    pred, _ = write_prediction_files(tmp_path)
    mapping = {label: "g" for label in EMOTIONS if label != "anger"}
    probes = [({"mapping": ["anger"]}, "'mapping' must be an object"),
              ({"mapping": None}, "'mapping' must be an object"),
              ({"excluded": 5}, "'excluded' must be a list"),
              ({"mapping": {**mapping, "panic": ["g"]}}, "must be strings, got list"),
              ({"excluded": [7]}, "must be strings, got int"),
              ({"name": 3}, "must be strings, got int")]
    for index, (override, message) in enumerate(probes):
        label_map = tmp_path / f"map{index}.json"
        obj = {"name": "probe", "mapping": mapping, "excluded": ["anger"], **override}
        label_map.write_text(json.dumps(obj), encoding="utf-8")
        for command in ("eval", "aggregate"):
            proc = run_cli(command, "--pred", pred, "--map", label_map)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith(f"error: {label_map}: "), proc.stderr
            assert message in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_unknown_label_map_name_exits_2_with_one_line(tmp_path, capsys):
    pred, _ = write_prediction_files(tmp_path)
    for command in ("eval", "aggregate"):
        assert main([command, "--pred", str(pred), "--map", "ekman7"]) == 2
        assert capsys.readouterr().err == ("error: no default label map named 'ekman7'; "
                                           "available: ekman6, valence3\n")


def test_sweep_space_probes_exit_2_with_one_line(tmp_path):
    data = small_corpus_file(tmp_path)
    config = config_file(tmp_path)
    probes = [("{bad", "invalid JSON"), (b"\xff", "not UTF-8"),
              ('{"batch_size": [32.7]}', "must be an integer, got float"),
              ('{"gat_heads": [5]}', "config field 'gat.heads': must be one of")]
    for index, (text, message) in enumerate(probes):
        space = tmp_path / f"space{index}.json"
        space.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        proc = run_cli("sweep", "--config", config, "--data", data, "--out", tmp_path / "s",
                       "--budget", "1", "--space", space)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("command, extra, message", [
    ("train", [], "config field 'seed': must be >= 0"),
    ("sweep", ["--budget", "1"], "sweep seed must be >= 0, got -1"),
])
def test_negative_seed_flag_exits_2_with_one_line(tmp_path, command, extra, message):
    data = small_corpus_file(tmp_path)
    proc = run_cli(command, "--config", config_file(tmp_path), "--data", data,
                   "--out", tmp_path / "x", "--seed", "-1", *extra)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {message}\n"


def test_sweep_invalid_grid_point_exits_2_with_parallel_jobs(tmp_path):
    # A worker cannot send a ConfigError back, so the parent checks every point.
    data = small_corpus_file(tmp_path)
    space = tmp_path / "space.json"
    space.write_text('{"gat_heads": [5]}', encoding="utf-8")
    proc = run_cli("sweep", "--config", config_file(tmp_path), "--data", data,
                   "--out", tmp_path / "s", "--budget", "2", "--space", space, "--jobs", "2")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: config field 'gat.heads': must be one of " \
                          "(2, 3, 4, 6, 8)\n", proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_with_fewer_than_one_job_exits_2_with_one_line(tmp_path, jobs):
    proc = run_cli("sweep", "--config", config_file(tmp_path), "--data",
                   small_corpus_file(tmp_path), "--out", tmp_path / "s", "--budget", "1",
                   "--jobs", jobs)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: sweep jobs must be >= 1, got {jobs}\n"


def exit_policy_files(tmp_path):
    """Valid inputs for every command plus malformed inputs of each kind."""
    files = {"missing": tmp_path / "missing.jsonl", "data": small_corpus_file(tmp_path),
             "config": config_file(tmp_path), "space": tmp_path / "space.json",
             "bad_corpus": tmp_path / "bad.jsonl", "empty_corpus": tmp_path / "empty.jsonl",
             "bad_pred": tmp_path / "bad_preds.jsonl", "bad_map": tmp_path / "map.json",
             "deep": tmp_path / "deep.json"}
    files["pred"], _ = write_prediction_files(tmp_path)
    files["space"].write_text('{"batch_size": [8], "gat_out_dim": [96], "gat_heads": [2]}',
                              encoding="utf-8")
    # One JSON value nested past the parser's recursion limit, on one line.
    deep = "[" * 100_000 + "]" * 100_000
    # A text no UTF-8 writer or token hash can encode: a lone surrogate.
    surrogate = json.dumps({"id": "s", "split": "train", "text": "bulls \ud800 run",
                            "emotion": "anger"})
    files["bad_corpus"].write_text("\n".join(["{broken", "[1]", deep, surrogate]) + "\n",
                                   encoding="utf-8")
    files["empty_corpus"].write_text("", encoding="utf-8")
    files["bad_pred"].write_text('{"id": 5, "gold": "anger", "pred": "anger"}\n',
                                 encoding="utf-8")
    files["bad_map"].write_text('{"name": "m", "mapping": []}', encoding="utf-8")
    files["deep"].write_text(deep + "\n", encoding="utf-8")
    (tmp_path / "file").mkdir()
    files["states_config"] = truncated_states_config(tmp_path / "file", files["data"])
    return files


# The lines ``bad_corpus`` fails with: the header and one per malformed line.
BAD_CORPUS_LINES = ["error: corpus validation failed:",
                    "  line 1: invalid JSON (Expecting property name enclosed in double "
                    "quotes)",
                    "  line 2: record must be a JSON object",
                    "  line 3: invalid JSON (nested too deeply)",
                    "  line 4: field 'text' holds a lone surrogate, which UTF-8 cannot encode"]

# command -> (arguments naming one missing input, arguments naming each malformed input)
EXIT_POLICY_CASES = {
    "ingest": (["--data", "missing"], [["--data", "bad_corpus"]]),
    "stats": (["--data", "missing"], [["--data", "empty_corpus"], ["--data", "bad_corpus"]]),
    "train": (["--config", "config", "--data", "missing", "--out", "out"],
              [["--config", "states_config", "--data", "data", "--out", "out"],
               ["--config", "deep", "--data", "data", "--out", "out"],
               ["--config", "config", "--data", "bad_corpus", "--out", "out"]]),
    "eval": (["--pred", "missing"],
             [["--pred", "bad_pred"], ["--pred", "deep"], ["--pred", "pred", "--map", "deep"]]),
    "aggregate": (["--pred", "pred", "--map", "missing"],
                  [["--pred", "pred", "--map", "bad_map"], ["--pred", "pred", "--map", "deep"]]),
    "compare": (["--pred-a", "pred", "--pred-b", "missing"],
                [["--pred-a", "pred", "--pred-b", "bad_pred"],
                 ["--pred-a", "pred", "--pred-b", "deep"]]),
    "sweep": (["--config", "missing", "--data", "data", "--out", "out", "--budget", "1"],
              [["--config", "states_config", "--data", "data", "--out", "out", "--budget", "1",
                "--space", "space"],
               ["--config", "config", "--data", "data", "--out", "out", "--budget", "1",
                "--space", "deep"]]),
    "export-graphs": (["--data", "missing"], [["--data", "bad_corpus"]]),
}


@pytest.mark.parametrize("command", sorted(EXIT_POLICY_CASES))
def test_exit_code_policy(tmp_path, capsys, command):
    files = exit_policy_files(tmp_path)
    files["out"] = tmp_path / "out"
    missing, malformed = EXIT_POLICY_CASES[command]
    assert main([command, *(str(files.get(arg, arg)) for arg in missing)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot read or write {files['missing']}: " \
                  "No such file or directory\n", err
    for args in malformed:
        assert main([command, *(str(files.get(arg, arg)) for arg in args)]) == 2, args
        lines = capsys.readouterr().err.splitlines()
        if "bad_corpus" in args:
            assert lines == BAD_CORPUS_LINES
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


# Embedding tables of 466 TiB and 455 PiB: past any address space, so numpy
# refuses them before touching memory, whatever the kernel overcommits.
@pytest.mark.parametrize("buckets", [10**12, 10**15])
def test_exit_code_policy_allocation_failure(tmp_path, capsys, buckets):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"encoder": {"vocab_buckets": buckets}}), encoding="utf-8")
    assert main(["train", "--config", str(config), "--data", str(small_corpus_file(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate "), lines


@pytest.mark.parametrize("command", ["eval", "aggregate", "compare"])
def test_a_repeated_prediction_id_exits_2_naming_file_line_and_id(tmp_path, capsys, command):
    lines = [json.dumps({"id": f"p{k}", "gold": "anger", "pred": "panic"}) for k in range(3)]
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    once.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    twice.write_text("".join(f"{line}\n{line}\n" for line in lines), encoding="utf-8")
    args = {"eval": ["--pred", twice], "aggregate": ["--pred", twice, "--map", "valence3"],
            "compare": ["--pred-a", once, "--pred-b", twice]}[command]
    assert main([command, *map(str, args)]) == 2
    assert capsys.readouterr().err == f"error: {twice} line 2: duplicate id 'p0'\n"


@pytest.mark.parametrize("offset", ['"0"', "0.7", "true", "1e400", "null"])
def test_ingest_rejects_non_integer_span_offsets(tmp_path, offset):
    line = ('{"id": "a", "split": "train", "text": "bulls run", "emotion": "anger", '
            '"opinions": [{"holder": {"start": %s, "end": 5}}]}' % offset)
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    proc = run_cli("ingest", "--data", path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 1 (record a, opinion 0) field 'holder': span offsets must be integers" \
        in proc.stderr
