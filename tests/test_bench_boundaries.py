"""Every boundary the benchmark's traced run wraps must still exist and be hit.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` in its
``BOUNDARIES`` table at run time.  A refactor that renames or drops one
(say ``opfuse.model.build_subgraph``), or that stops calling it, would
otherwise only show up as a failed ``--trace 1`` run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from opfuse.autodiff import Tape, cross_entropy
from opfuse.data import OpinionAnnotation, Record, Span
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


@pytest.mark.parametrize("fusion_type", ["gate", "attn"])
def test_one_step_and_predict_hit_every_model_span(fusion_type):
    config = ModelConfig(
        encoder=EncoderConfig(width=8, layers=1, heads=2, vocab_buckets=32),
        gat=GatConfig(out_dim=4, heads=2), fusion=FusionConfig(type=fusion_type),
        optimizer=OptimizerConfig(batch_size=8))
    text = "trader says market will crash soon"
    opinion = OpinionAnnotation(holder=Span(0, 6), sentiment_expression=Span(24, 29),
                                target=Span(12, 18), polarity="negative")
    records = [Record(id=f"r{i}", split="train", text=text, emotion="anxiety",
                      opinions=(opinion,) * (i % 2)) for i in range(3)]
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
