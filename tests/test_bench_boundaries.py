"""Every boundary the benchmark's traced run wraps must still exist and be hit.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` in its
``BOUNDARIES`` table at run time.  A refactor that renames or drops one
(say ``opfuse.model.build_subgraph``), or a training loop that stops
calling one (say ``model.predict`` or ``checkpoint.save``), would
otherwise only show up as a failed ``--trace 1`` run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import opfuse.data
import opfuse.train
from opfuse.autodiff import Tape, cross_entropy
from opfuse.data import Corpus, OpinionAnnotation, Record, Span, dump_corpus
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
