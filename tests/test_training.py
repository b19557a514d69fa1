"""Training loop behavior, determinism, and the sweep harness."""

import json
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfuse.autodiff as ad
import opfuse.sweep
import opfuse.train
from opfuse.autodiff import Tape, cross_entropy
from opfuse.checkpoint import CheckpointError, restore_into
from opfuse.data import Corpus, OpinionAnnotation, Record, Span, load_corpus
from opfuse.encoder import write_encoder_states
from opfuse.evaluation import read_predictions
from opfuse.model import (ConfigError, EncoderConfig, FusionConfig, GatConfig, ModelConfig,
                          OpinionFusionModel, OptimizerConfig)
from opfuse.optim import Adam
from opfuse.sweep import (DEFAULT_SPACE, SweepError, apply_point, load_space, run_sweep,
                          sweep_csv, trial_seed)
from opfuse.synthetic import make_gate_favoring_setup, make_planted_corpus
from opfuse.train import TrainingError, class_weights_from, train_model

from fuzzing import FIELD_VALUES, mutate


def quick_config(architecture="fused", fusion_type="cat", epochs=3,
                 lr=3e-3, patience=5, seed=0):
    return ModelConfig(
        architecture=architecture,
        encoder=EncoderConfig(provider="toy", width=8, layers=1, heads=2,
                              vocab_buckets=32),
        gat=GatConfig(out_dim=4, heads=2, depth=1),
        fusion=FusionConfig(type=fusion_type, alpha_res=0.5),
        optimizer=OptimizerConfig(learning_rate=lr, batch_size=8, epochs=epochs,
                                  patience=patience),
        seed=seed,
    )


def opinion_record(rid, split, emotion, polarity):
    text = "trader says market will crash soon"
    return Record(id=rid, split=split, text=text, emotion=emotion,
                  opinions=(OpinionAnnotation(holder=Span(0, 6),
                                              sentiment_expression=Span(24, 29),
                                              target=Span(12, 18),
                                              polarity=polarity),))


def small_corpus(n_train=12, n_dev=6):
    records = []
    for i in range(n_train):
        emotion = "optimism" if i % 2 == 0 else "anxiety"
        polarity = "positive" if i % 2 == 0 else "negative"
        records.append(opinion_record(f"tr{i}", "train", emotion, polarity))
    for i in range(n_dev):
        emotion = "optimism" if i % 2 == 0 else "anxiety"
        polarity = "positive" if i % 2 == 0 else "negative"
        records.append(opinion_record(f"dv{i}", "dev", emotion, polarity))
    return Corpus(records)


def test_single_record_memorization():
    corpus = Corpus([opinion_record("a", "train", "optimism", "positive"),
                     opinion_record("b", "dev", "optimism", "positive")])
    config = quick_config(epochs=200, patience=200, lr=1e-2)
    result = train_model(config, corpus)
    assert result.log_rows[-1].loss < 0.01


def readme_default_step():
    """Forward and backward of one README-default batch; returns the tape and the batch size."""
    config = ModelConfig(fusion=FusionConfig(type="gate"))   # the README config
    batch = [r for r in make_planted_corpus(n_train=32, n_dev=1, n_test=1, seed=2).records
             if r.split == "train"]
    assert len(batch) == config.optimizer.batch_size
    model = OpinionFusionModel(config, rng=np.random.default_rng(0))
    with Tape() as tape:
        loss = cross_entropy(model.forward_batch(batch), [r % 12 for r in range(len(batch))])
    tape.backward(loss)
    return tape, len(batch)


def test_a_readme_default_step_records_at_most_1_25_tape_nodes_per_record():
    """The encoder records two tape nodes per batch, not one per block per
    record, so the 32-record step's tape holds 39 nodes: the encoder's two
    and 37 from the graphs, fusion, head and loss."""
    tape, records = readme_default_step()
    assert len(tape) / records <= 1.25


def test_a_readme_default_step_runs_at_most_24_finiteness_passes_per_record(monkeypatch):
    """A value is checked where it can first turn non-finite, and each
    gradient once; checking every block intermediate and every gradient
    part ran 92 passes per record."""
    passes = []
    check = ad._check_finite

    def counted(*args):
        passes.append(args[0])
        check(*args)

    monkeypatch.setattr(ad, "_check_finite", counted)
    _, records = readme_default_step()
    assert len(passes) / records <= 24


def test_training_log_structure_and_determinism(tmp_path):
    corpus = small_corpus()
    config = quick_config(epochs=3)
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    train_model(config, corpus, out_dir=out_a)
    train_model(quick_config(epochs=3), corpus, out_dir=out_b)

    log_a = (out_a / "training_log.csv").read_bytes()
    log_b = (out_b / "training_log.csv").read_bytes()
    assert log_a == log_b
    preds_a = (out_a / "dev_predictions.jsonl").read_bytes()
    preds_b = (out_b / "dev_predictions.jsonl").read_bytes()
    assert preds_a == preds_b

    header, *rows = log_a.decode().strip().split("\n")
    assert header == "epoch,loss,dev_macro_f1"
    assert len(rows) == 3


def test_different_seed_changes_training(tmp_path):
    corpus = small_corpus()
    a = train_model(quick_config(epochs=2, seed=0), corpus)
    b = train_model(quick_config(epochs=2, seed=1), corpus)
    assert a.log_rows[0].loss != b.log_rows[0].loss


def test_best_checkpoint_is_restored():
    corpus = small_corpus()
    result = train_model(quick_config(epochs=4, lr=5e-3), corpus)
    assert result.best_dev_f1 == max(r.dev_macro_f1 for r in result.log_rows)
    from opfuse.evaluation import macro_f1
    restored = macro_f1(result.dev_predictions)
    assert abs(restored - result.best_dev_f1) < 1e-12


def test_steps_write_every_parameter_in_place_and_a_copied_snapshot_restores_it():
    # Adam and restore_into write into each parameter's own buffer, so
    # train_model keeps copies of the best epoch's parameters.
    model = OpinionFusionModel(quick_config(), rng=np.random.default_rng(0))
    params = model.parameters()
    buffers = {name: p.data for name, p in params.items()}
    snapshot = {name: p.data.copy() for name, p in params.items()}

    def kept(expected):
        return all(p.data is buffers[name] and not p.data.flags.writeable
                   and p.data.tobytes() == expected[name].tobytes()
                   for name, p in params.items())

    optimizer = Adam(params, lr=1e-2)
    records = small_corpus().split("train")
    for _ in range(3):
        with Tape() as tape:
            loss = cross_entropy(model.forward_batch(records), [0] * len(records))
        optimizer.step(tape.backward(loss))
    stepped = {name: p.data.copy() for name, p in params.items()}
    assert kept(stepped)
    assert all(stepped[name].tobytes() != snapshot[name].tobytes() for name in params)
    refused = dict(snapshot, **{"head.bias": np.full(params["head.bias"].shape, np.inf)})
    with pytest.raises(CheckpointError):
        restore_into(params, refused)
    assert kept(stepped)
    restore_into(params, snapshot)
    assert kept(snapshot)


def count_predict_calls(monkeypatch) -> list[list]:
    """Record every ``OpinionFusionModel.predict`` call's output, in order."""
    calls = []
    predict = OpinionFusionModel.predict

    def counted(self, records):
        calls.append(predict(self, records))
        return calls[-1]

    monkeypatch.setattr(OpinionFusionModel, "predict", counted)
    return calls


def prediction_bits(preds):
    return [(p.id, p.pred, np.array(p.logits).tobytes()) for p in preds]


def early_stop_config():
    # Dev F1 peaks at epoch 3 of 6 and early stopping ends the run at epoch
    # 5, so the returned model holds an older state than the last epoch's.
    return quick_config(fusion_type="gate", epochs=6, lr=3e-2, patience=2, seed=1)


def test_kept_dev_predictions_are_what_the_restored_model_predicts(monkeypatch):
    corpus = small_corpus()
    calls = count_predict_calls(monkeypatch)
    result = train_model(early_stop_config(), corpus)
    assert result.best_epoch == 3 and len(result.log_rows) == 5
    assert prediction_bits(calls[-1]) != prediction_bits(result.dev_predictions)
    oracle = result.model.predict(corpus.split("dev"))
    assert prediction_bits(result.dev_predictions) == prediction_bits(oracle)


@pytest.mark.parametrize("config, restores", [
    (early_stop_config(), 1),         # best epoch 3 of 5
    (quick_config(epochs=1), 0),      # the only epoch is the best
], ids=["early_stop", "last_epoch_best"])
def test_parameters_are_restored_only_when_a_later_epoch_ran(monkeypatch, config, restores):
    calls = []

    def counted(params, values):
        calls.append(values)
        restore_into(params, values)

    monkeypatch.setattr(opfuse.train, "restore_into", counted)
    result = train_model(config, small_corpus())
    assert len(calls) == restores
    assert (result.best_epoch < len(result.log_rows)) == bool(restores)


@pytest.mark.parametrize("config, epochs_run", [
    (early_stop_config(), 5),
    (quick_config(epochs=3), 3),
], ids=["early_stop", "every_epoch"])
def test_dev_is_predicted_once_per_epoch(monkeypatch, config, epochs_run):
    calls = count_predict_calls(monkeypatch)
    result = train_model(config, small_corpus())
    assert len(result.log_rows) == epochs_run
    assert len(calls) == epochs_run
    assert (prediction_bits(result.dev_predictions)
            == prediction_bits(calls[result.best_epoch - 1]))


def test_early_stopping_on_plateau():
    corpus = small_corpus()
    config = quick_config(epochs=30, patience=2, lr=1e-12)  # effectively frozen
    result = train_model(config, corpus)
    assert len(result.log_rows) == 1 + config.optimizer.patience


def test_empty_train_split_errors():
    corpus = Corpus([opinion_record("d", "dev", "optimism", "positive")])
    with pytest.raises(TrainingError):
        train_model(quick_config(), corpus)


def wide_frozen_setup(tmp_path):
    """Frozen 64-wide states of records with 2 to 4 three-role opinions, and
    a config for them with GAT 4x192, attn fusion and one batch of 64."""
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(14)]
    text = " ".join(words)
    ends = np.cumsum([len(w) + 1 for w in words]) - 1
    offsets = [(int(end) - len(w), int(end)) for w, end in zip(words, ends)]
    records, entries = [], []
    for split, count in (("train", 64), ("dev", 8)):
        for i in range(count):
            rid = f"{split}{i}"
            opinions = []
            for _ in range(2 + i % 3):
                a, b, c = (Span(*offsets[k]) for k in rng.choice(len(words), 3, replace=False))
                opinions.append(OpinionAnnotation(sentiment_expression=a, holder=b, target=c,
                                                  polarity=("positive", "negative")[i % 2]))
            records.append(Record(id=rid, split=split, text=text,
                                  emotion=("optimism", "anxiety")[i % 2],
                                  opinions=tuple(opinions)))
            hidden = rng.standard_normal((len(words), 64))
            entries.append((rid, offsets, hidden, hidden.mean(axis=0)))
    write_encoder_states(tmp_path / "states.bin", entries)
    config = ModelConfig(
        architecture="fused",
        encoder=EncoderConfig(provider="file", width=64,
                              states_path=str(tmp_path / "states.bin")),
        gat=GatConfig(out_dim=192, heads=4, depth=1),
        fusion=FusionConfig(type="attn", alpha_res=0.5),
        optimizer=OptimizerConfig(learning_rate=1e-4, batch_size=64, epochs=1, patience=1))
    return config, Corpus(records)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the freed-heap policy is set through glibc's mallopt")
def test_training_again_reuses_freed_heap(tmp_path):
    # A wide GAT step frees arrays of several MB.  Given back to the OS after
    # each step, they are faulted in again by the next: about 11,600 minor
    # faults for this one-step run.  Kept in the heap, a second run took 22
    # to 138.
    import resource  # POSIX only, as is glibc

    config, corpus = wide_frozen_setup(tmp_path)
    train_model(config, corpus)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_model(config, corpus)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 1000, faults


def test_dev_predictions_round_trip_through_the_file(tmp_path):
    out = tmp_path / "run"
    result = train_model(quick_config(epochs=1), small_corpus(), out_dir=out)
    assert read_predictions(out / "dev_predictions.jsonl") == result.dev_predictions


@pytest.mark.parametrize("obj, message", [
    ({"colour": 1}, "config field 'colour': unknown field"),
    ({"seed": 1, "zeta": 2, "alpha": 3}, "config field 'alpha': unknown field"),
    ({"gat": {"depht": 2}}, "config field 'gat.depht': unknown field"),
    ({"fusion": []}, "config field 'fusion': must be an object"),
    ({"encoder": None}, "config field 'encoder': must be an object"),
    ({"architecture": 5}, "config field 'architecture': must be a string, got int"),
    ({"optimizer": {"epochs": 0}}, "config field 'optimizer.epochs': must be >= 1"),
])
def test_config_errors_name_the_field(obj, message):
    with pytest.raises(ConfigError) as err:
        ModelConfig.from_json(obj)
    assert str(err.value) == message


def test_config_fields_left_out_keep_their_defaults():
    config = ModelConfig.from_json({"gat": {"depth": 2}, "seed": 4})
    assert config == ModelConfig(gat=GatConfig(depth=2), seed=4)
    assert ModelConfig.from_json({}) == ModelConfig()


def test_prediction_file_schema(tmp_path):
    corpus = small_corpus()
    out = tmp_path / "run"
    train_model(quick_config(epochs=1), corpus, out_dir=out)
    lines = (out / "dev_predictions.jsonl").read_text().strip().split("\n")
    assert len(lines) == 6
    obj = json.loads(lines[0])
    assert set(obj) == {"id", "gold", "pred", "logits"}
    assert len(obj["logits"]) == 12


def test_opinion_free_records_train_without_error():
    records = [Record(id=f"t{i}", split="train", text=f"note {i}",
                      emotion="ambiguous") for i in range(8)]
    records.append(Record(id="d0", split="dev", text="note", emotion="ambiguous"))
    result = train_model(quick_config(epochs=1), Corpus(records))
    assert len(result.log_rows) == 1


def test_class_weights_inverse_frequency():
    records = [opinion_record(f"r{i}", "train", "optimism", "positive")
               for i in range(3)]
    records.append(opinion_record("x", "train", "anxiety", "negative"))
    weights = class_weights_from(records)
    from opfuse.data import EMOTIONS
    w_opt = weights[EMOTIONS.index("optimism")]
    w_anx = weights[EMOTIONS.index("anxiety")]
    assert w_anx == 3 * w_opt
    assert weights[EMOTIONS.index("panic")] == 0.0


def test_weighted_loss_trains():
    config = quick_config(epochs=1)
    config.optimizer.weighted_loss = True
    result = train_model(config, small_corpus())
    assert len(result.log_rows) == 1


def test_trial_seed_stable():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_sweep_budget_one(tmp_path):
    corpus = small_corpus()
    base = quick_config(epochs=1)
    space = {"batch_size": [8], "gat_out_dim": [4], "gat_heads": [2],
             "fusion_type": ["cat"], "alpha_res": [0.5]}
    trials = run_sweep(base, space, corpus, budget=1, seed=0)
    assert len(trials) == 1
    csv = sweep_csv(trials)
    assert csv.startswith("trial,config_json,dev_macro_f1,best_epoch")


def test_sweep_trials_within_grid():
    corpus = small_corpus()
    base = quick_config(epochs=1)
    space = {"batch_size": [8, 16], "gat_out_dim": [4], "gat_heads": [2, 3],
             "fusion_type": ["cat", "attn"], "alpha_res": [0.25, 1.0]}
    trials = run_sweep(base, space, corpus, budget=5, seed=1)
    assert len(trials) == 5
    for tr in trials:
        for key, values in space.items():
            assert tr.point[key] in values
    # without-replacement sampling while the grid lasts
    seen = {json.dumps(tr.point, sort_keys=True) for tr in trials}
    assert len(seen) == 5


def test_sweep_budget_validation():
    with pytest.raises(SweepError):
        run_sweep(quick_config(), DEFAULT_SPACE, small_corpus(), budget=0)


def test_sweep_parallel_jobs_match_serial():
    corpus = small_corpus()
    base = quick_config(epochs=1)
    space = {"batch_size": [8], "gat_out_dim": [4], "gat_heads": [2],
             "fusion_type": ["cat", "gate"], "alpha_res": [0.5]}
    serial = run_sweep(base, space, corpus, budget=2, seed=3, jobs=1)
    parallel = run_sweep(base, space, corpus, budget=2, seed=3, jobs=2)
    assert [(t.trial, t.point, t.dev_macro_f1, t.best_epoch) for t in serial] == \
           [(t.trial, t.point, t.dev_macro_f1, t.best_epoch) for t in parallel]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_refuses_fewer_than_one_job(jobs):
    with pytest.raises(SweepError, match=f"sweep jobs must be >= 1, got {jobs}"):
        run_sweep(quick_config(), DEFAULT_SPACE, small_corpus(), budget=1, jobs=jobs)


def test_sweep_starts_at_most_one_worker_per_trial(monkeypatch):
    # A stand-in pool that records its size and runs the trials in this
    # process, so no worker is ever started.
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(opfuse.sweep, "ProcessPoolExecutor", InProcessPool)
    corpus = small_corpus()
    base = quick_config(epochs=1)
    space = {"batch_size": [8], "gat_out_dim": [4], "gat_heads": [2],
             "fusion_type": ["cat", "gate"], "alpha_res": [0.5]}
    serial = run_sweep(base, space, corpus, budget=2, seed=3, jobs=1)
    pooled = run_sweep(base, space, corpus, budget=2, seed=3, jobs=5000)
    assert started == [2]
    assert [(t.trial, t.point, t.dev_macro_f1, t.best_epoch) for t in serial] == \
           [(t.trial, t.point, t.dev_macro_f1, t.best_epoch) for t in pooled]


def test_load_space_rejects_unknown_dimension(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"nope": [1]}), encoding="utf-8")
    with pytest.raises(SweepError):
        load_space(path)


@pytest.mark.parametrize("text", ["{bad", '{"batch_size": ["x"]}', '{"batch_size": [32.7]}',
                                  '{"gat_heads": [true]}', '{"alpha_res": ["0.5"]}',
                                  '{"alpha_res": [NaN]}', '{"fusion_type": [1]}'])
def test_load_space_rejects_invalid_json_and_wrongly_typed_values(tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SweepError):
        load_space(path)


def test_load_space_keeps_value_types(tmp_path):
    # Nothing is coerced: values reach the config as the file wrote them.
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"batch_size": [8], "alpha_res": [1, 0.5]}), encoding="utf-8")
    space = load_space(path)
    assert space["batch_size"] == [8] and space["alpha_res"] == [1, 0.5]
    config = apply_point(quick_config(), {key: values[0] for key, values in space.items()})
    assert type(config.fusion.alpha_res) is int and config.optimizer.batch_size == 8


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_sweep_spaces_raise_only_sweep_error(tmp_path_factory, data):
    obj = {key: list(values) for key, values in DEFAULT_SPACE.items()}
    if data.draw(st.booleans()):
        where = data.draw(st.sampled_from(["space", "dimension", "value"]))
        key = data.draw(st.sampled_from(sorted(obj)))
        if where == "space":
            obj = data.draw(FIELD_VALUES)
        elif where == "dimension":
            obj[key] = data.draw(FIELD_VALUES)
        else:
            obj[key][data.draw(st.integers(0, len(obj[key]) - 1))] = data.draw(FIELD_VALUES)
        raw = json.dumps(obj).encode("utf-8")
    else:
        raw = mutate(data, json.dumps(obj).encode("utf-8"))
    path = tmp_path_factory.mktemp("fuzz") / "space.json"
    path.write_bytes(raw)
    try:
        load_space(path)
    except SweepError:
        pass


# Every config field as (section, name), with section None at the top level.
DEFAULT_CONFIG = ModelConfig().to_json()
CONFIG_FIELDS = [(None, key) for key, value in DEFAULT_CONFIG.items()
                 if not isinstance(value, dict)] + [
    (key, name) for key, value in DEFAULT_CONFIG.items() if isinstance(value, dict)
    for name in value]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_configs_raise_only_config_error(tmp_path_factory, data):
    obj = ModelConfig().to_json()
    if data.draw(st.booleans()):
        where = data.draw(st.sampled_from(["config", "section", "field"]))
        section, name = data.draw(st.sampled_from(CONFIG_FIELDS))
        if where == "config":
            obj = data.draw(FIELD_VALUES)
        elif where == "section" and section is not None:
            obj[section] = data.draw(FIELD_VALUES)
        else:
            (obj if section is None else obj[section])[name] = data.draw(FIELD_VALUES)
        raw = json.dumps(obj).encode("utf-8")
    else:
        raw = mutate(data, json.dumps(obj).encode("utf-8"))
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_bytes(raw)
    try:
        ModelConfig.load(path)
    except ConfigError:
        pass


def test_gate_ranks_first_on_xnor_corpus(tmp_path):
    # Labels are the XNOR of a pooled-text sign and a graph-borne sign.
    # The cat path is affine in both signals, capping it strictly below the
    # gate's multiplicative fusion, so the sweep must rank gate first.
    corpus_path, states_path = make_gate_favoring_setup(tmp_path, n_train=240,
                                                        n_dev=120, seed=5)
    corpus = load_corpus(corpus_path)
    base = ModelConfig(
        architecture="fused",
        encoder=EncoderConfig(provider="file", width=8,
                              states_path=str(states_path)),
        gat=GatConfig(out_dim=96, heads=2, depth=1),
        fusion=FusionConfig(type="cat", alpha_res=1.0),
        optimizer=OptimizerConfig(learning_rate=1e-2, batch_size=16, epochs=15,
                                  patience=15),
        seed=11,
    )
    space = {"batch_size": [16], "gat_out_dim": [96], "gat_heads": [2],
             "fusion_type": ["cat", "gate"], "alpha_res": [1.0]}
    trials = run_sweep(base, space, corpus, budget=2, seed=11)
    assert {tr.point["fusion_type"] for tr in trials} == {"cat", "gate"}
    assert trials[0].point["fusion_type"] == "gate"
    assert trials[0].dev_macro_f1 > trials[1].dev_macro_f1 + 10.0


def test_planted_corpus_generator_properties():
    corpus = make_planted_corpus(n_train=60, n_dev=20, n_test=20, seed=0)
    assert corpus.split_sizes() == {"train": 60, "dev": 20, "test": 20}
    from opfuse.synthetic import PLANTED_PATTERNS, planted_label
    for record in corpus.records:
        assert len(record.opinions) == 1
        op = record.opinions[0]
        present = tuple(sorted(op.spans()))
        match = [i for i, pattern in enumerate(PLANTED_PATTERNS)
                 if tuple(sorted(pattern)) == present]
        assert len(match) == 1
        from opfuse.data import POLARITIES
        assert record.emotion == planted_label(match[0], POLARITIES.index(op.polarity))
