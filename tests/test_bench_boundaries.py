"""Every boundary the benchmark's traced run wraps must still exist and be hit.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` in its
``BOUNDARIES`` table at run time.  A refactor that renames or drops one
(say ``opfuse.model.build_subgraph``), or a training loop that stops
calling one (say ``model.predict`` or ``checkpoint.save``), would
otherwise only show up as a failed ``--trace 1`` run.
"""

import gc
import importlib
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import opfuse.data
import opfuse.encoder
import opfuse.graphs
import opfuse.train
from opfuse.autodiff import Tape, cross_entropy
from opfuse.data import Corpus, OpinionAnnotation, Record, Span, dump_corpus
from opfuse.encoder import tokenize, write_encoder_states
from opfuse.model import (EncoderConfig, FusionConfig, GatConfig, ModelConfig,
                          OpinionFusionModel, OptimizerConfig)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

# Spans inside one forward, backward and predict; the rest belong to the
# training loop and its I/O.
MODEL_LAYERS = ("model", "encoder", "graphs", "gat", "fusion", "autodiff")


def resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, *_ in tracing.BOUNDARIES],
                         ids=[f"{o}.{a}" for o, a, *_ in tracing.BOUNDARIES])
def test_traced_boundary_exists(owner, attr):
    assert callable(getattr(resolve(owner), attr, None)), f"{owner} has no {attr}"


def small_config(fusion_type: str) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(width=8, layers=1, heads=2, vocab_buckets=32),
        gat=GatConfig(out_dim=4, heads=2), fusion=FusionConfig(type=fusion_type),
        optimizer=OptimizerConfig(batch_size=8, epochs=1))


def small_records(split: str, n: int = 3) -> list[Record]:
    text = "trader says market will crash soon"
    opinion = OpinionAnnotation(holder=Span(0, 6), sentiment_expression=Span(24, 29),
                                target=Span(12, 18), polarity="negative")
    return [Record(id=f"{split}{i}", split=split, text=text, emotion="anxiety",
                   opinions=(opinion,) * (i % 2)) for i in range(n)]


@pytest.mark.parametrize("fusion_type", ["gate", "attn"])
def test_one_step_and_predict_hit_every_model_span(fusion_type):
    config = small_config(fusion_type)
    records = small_records("train")
    tracer = tracing.Tracer()
    with tracer.installed():
        model = OpinionFusionModel(config, rng=np.random.default_rng(0))
        with Tape() as tape:
            loss = cross_entropy(model.forward_batch(records), [1, 1, 1])
        tape.backward(loss)
        model.predict(records)
    hits = tracer.hits()
    spans = [s for s in workloads.TRAIN_SPANS if s.split(".")[0] in MODEL_LAYERS]
    assert "fusion.fuse" in spans and "fusion.head" in spans
    assert [s for s in spans if not hits[s]] == []


def test_a_depth_2_forward_runs_two_gat_layers_and_one_readout():
    """The last layer's readout shares still pass through ``gat_layer`` and
    then ``readout``, so the ``gat.layer``/``gat.readout`` spans and the
    ``gat.layer_calls`` count read one per layer and one per forward."""
    config = small_config("gate")
    config.gat.depth = 2
    tracer = tracing.Tracer()
    with tracer.installed():
        model = OpinionFusionModel(config, rng=np.random.default_rng(0))
        tracer.run = "forward"
        model.forward_batch(small_records("train"))
    hits = tracer.hits()
    assert (hits["gat.layer"], hits["gat.readout"]) == (2, 1)
    assert tracer.metrics(["forward"])["gat.layer_calls"] == 2


def test_one_epoch_of_training_hits_every_train_span(tmp_path):
    path = tmp_path / "corpus.jsonl"
    dump_corpus(Corpus(small_records("train") + small_records("dev", 2)), path)
    tracer = tracing.Tracer()
    with tracer.installed():
        # Through the module attributes, which is where the tracer wraps them.
        corpus = opfuse.data.load_corpus(path)
        opfuse.train.train_model(small_config("gate"), corpus, out_dir=tmp_path / "run")
    hits = tracer.hits()
    assert [s for s in workloads.TRAIN_SPANS if not hits[s]] == []


def frozen_records() -> list[Record]:
    """Train and dev records mixing a full opinion, one without a sentiment span
    (a pooled fallback node), one whose holder span lies on whitespace (the
    node is dropped) and none at all."""
    texts = ("trader says market will crash soon", "i'm short $TSLA , big dump soon")
    full = OpinionAnnotation(holder=Span(0, 6), sentiment_expression=Span(24, 29),
                             target=Span(12, 18), polarity="negative")
    no_sentiment = OpinionAnnotation(holder=Span(0, 6), target=Span(12, 18),
                                     polarity="neutral")
    holder_on_space = OpinionAnnotation(holder=Span(6, 7), sentiment_expression=Span(24, 29),
                                        polarity="positive")
    patterns = ((full,), (no_sentiment, full), (holder_on_space,), ())
    return [Record(id=f"{split}{i}", split=split, text=texts[i % 2], emotion="anxiety",
                   opinions=patterns[i % 4])
            for split, n in (("train", 8), ("dev", 4)) for i in range(n)]


def file_config(records: list[Record], tmp_path, epochs: int) -> ModelConfig:
    """A file-provider config over random states for ``records``, tokenized live."""
    rng = np.random.default_rng(0)
    entries = []
    for record in records:
        offsets = tokenize(record.text)
        hidden = rng.standard_normal((len(offsets), 8))
        entries.append((record.id, offsets, hidden, hidden.mean(axis=0)))
    write_encoder_states(tmp_path / "states.bin", entries)
    return ModelConfig(
        encoder=EncoderConfig(provider="file", width=8,
                              states_path=str(tmp_path / "states.bin")),
        gat=GatConfig(out_dim=96, heads=2), fusion=FusionConfig(type="attn"),
        optimizer=OptimizerConfig(batch_size=8, epochs=epochs))


def test_one_epoch_on_the_file_provider_counts_tokens_and_nodes(tmp_path):
    records = frozen_records()
    config = file_config(records, tmp_path, epochs=1)
    path = tmp_path / "corpus.jsonl"
    dump_corpus(Corpus(records), path)
    tracer = tracing.Tracer()
    with tracer.installed():
        corpus = opfuse.data.load_corpus(path)
        opfuse.train.train_model(config, corpus, out_dir=tmp_path / "run")
    hits = tracer.hits()
    assert [s for s in ("encoder.read_states", "encoder.encode", "graphs.build")
            if not hits[s]] == []

    # One epoch encodes every train record once and predicts dev once.  A
    # role is a node when its span covers a non-space character; a missing
    # or uncovered sentiment span becomes the pooled fallback node.
    def covers(record, span):
        return span is not None and record.text[span.start:span.end].strip() != ""

    roles = ("holder", "target", "qualifier", "aspect_term")
    nodes = fallbacks = 0
    for record in records:
        for opinion in record.opinions:
            nodes += 1 + sum(covers(record, getattr(opinion, role)) for role in roles)
            fallbacks += not covers(record, opinion.sentiment_expression)
    counts = tracer.counts["setup"]
    assert (nodes, fallbacks) == (30, 3)
    assert counts["encoder.tokens"] == sum(len(tokenize(record.text)) for record in records)
    assert counts["graphs.nodes"] == nodes
    assert counts["graphs.fallback_nodes"] == fallbacks


def skipping_records() -> list[Record]:
    """``frozen_records()`` plus a train and a dev record with an opinion whose
    only span lies on whitespace, so its graph is empty (``GraphEmpty``)."""
    full, *_ = frozen_records()[0].opinions
    unanchored = OpinionAnnotation(holder=Span(6, 7), polarity="neutral")
    text = "trader says market will crash soon"
    return frozen_records() + [
        Record(id="train8", split="train", text=text, emotion="anger",
               opinions=(unanchored, full)),
        Record(id="dev4", split="dev", text=text, emotion="anger", opinions=(unanchored,))]


def counted(monkeypatch, module, name) -> list:
    """Arguments of every call of ``module.name`` from now on."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("provider", ["toy", "file"])
def test_a_second_run_on_the_same_corpus_reuses_its_graphs_and_states(tmp_path, monkeypatch,
                                                                       provider):
    """Graphs outlive the first model: the second ``train_model`` builds no
    structure, and maps and parses the state file once as the first did, yet
    crosses every traced boundary as often, with the same counts and artifacts."""
    records = skipping_records()
    if provider == "toy":
        config = small_config("attn")
        config.optimizer.epochs = 2
    else:
        config = file_config(records, tmp_path, epochs=2)
    corpus = Corpus(records)
    builds = counted(monkeypatch, opfuse.graphs, "build_structure")
    parses = counted(monkeypatch, opfuse.encoder, "_parse_encoder_states")
    tracer = tracing.Tracer()
    done = {}
    with tracer.installed():
        for run in ("first", "second"):
            tracer.run = run
            opfuse.train.train_model(config, corpus, out_dir=tmp_path / run)
            done[run] = (len(builds), len(parses))
    # 15 opinions on 14 records (9 train, 5 dev), two epochs; the first
    # epoch builds every graph, and each run parses the file once.
    file_reads = int(provider == "file")
    assert done == {"first": (15, file_reads), "second": (15, 2 * file_reads)}
    first, second = tracer.counts["first"], tracer.counts["second"]
    assert second == first
    assert (first["graphs.build.calls"], first["graphs.opinions_skipped"]) == (30, 4)
    assert first["encoder.encode.calls"] == 28
    assert first["encoder.read_states.calls"] == file_reads
    for name in ("checkpoint.bin", "training_log.csv", "dev_predictions.jsonl"):
        assert (tmp_path / "second" / name).read_bytes() == \
            (tmp_path / "first" / name).read_bytes(), name


def test_the_kept_graphs_do_not_keep_a_trained_model_alive(tmp_path):
    """A skipped opinion keeps its message, not the raised ``GraphEmpty``,
    whose traceback would pin ``train_model``'s frame: the model, the
    optimizer and the tape."""
    corpus = Corpus(skipping_records())
    result = opfuse.train.train_model(small_config("gate"), corpus, out_dir=tmp_path)
    model = weakref.ref(result.model)
    del result
    gc.collect()
    assert model() is None
    skipped = corpus.records[-1]
    assert list(skipped.graphs.values()) == [
        ["record dev4: no opinion span could be anchored to tokens"]]
    assert all(record.graphs for record in corpus.records if record.opinions)
