"""The whole model against a tape-free reference written for clarity.

``oracles.reference_logits`` recomputes each record's logits from the
parameter arrays alone, so a rewrite of the batched forward is checked
against a fixed reference rather than against itself.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opfuse.checkpoint import load_checkpoint, restore_into, save_checkpoint
from opfuse.data import EMOTIONS, POLARITIES, SPAN_FIELDS, OpinionAnnotation, Record, Span
from opfuse.encoder import tokenize
from opfuse.model import (EncoderConfig, FusionConfig, GatConfig, ModelConfig,
                          OpinionFusionModel, OptimizerConfig)

from oracles import raw_encoder_states, reference_logits

WORDS = ("bulls", "$TSLA", "moon", "dump", "to", "the", "!!", "buy", "bears", "é")
WIDTH = 8


@st.composite
def opinions(draw, text: str):
    """0-3 opinions of short spans: a span on one space shares no character
    with a token, an opinion may leave out its sentiment, and it may repeat
    the one before."""
    spaces = [i for i, char in enumerate(text) if char == " "]
    found = []
    for _ in range(draw(st.integers(0, 3) if text else st.just(0))):
        if found and draw(st.booleans()):
            found.append(found[-1])
            continue
        spans = {}
        for name in draw(st.lists(st.sampled_from(SPAN_FIELDS), min_size=1, unique=True)):
            if spaces and draw(st.booleans()):
                start = draw(st.sampled_from(spaces))
                end = start + 1
            else:
                start = draw(st.integers(0, len(text) - 1))
                end = draw(st.integers(start + 1, min(start + 4, len(text))))
            spans[name] = Span(start, end)
        found.append(OpinionAnnotation(polarity=draw(st.sampled_from(POLARITIES)), **spans))
    return tuple(found)


@st.composite
def records(draw):
    """1-10 records of 0-8 words, with one or three spaces between them."""
    out = []
    for i in range(draw(st.integers(1, 10))):
        size = draw(st.integers(0, 8))
        words = draw(st.lists(st.sampled_from(WORDS), min_size=size, max_size=size))
        text = "".join(word + draw(st.sampled_from([" ", "   "])) for word in words).rstrip()
        out.append(Record(id=f"r{i}", split="train", text=text,
                          emotion=draw(st.sampled_from(EMOTIONS)),
                          opinions=draw(opinions(text))))
    return out


def write_states(path, recs, rng, draw):
    """A state file of the records' own tokens plus 0-2 zero-width ones,
    which anchor no span wherever they sit."""
    entries = []
    for record in recs:
        at = draw(st.lists(st.integers(0, len(record.text)), max_size=2))
        offsets = [(k, k) for k in at] + list(tokenize(record.text))
        entries.append((record.id, offsets, rng.standard_normal((len(offsets), WIDTH)),
                        rng.standard_normal(WIDTH)))
    raw_encoder_states(path, entries)


def draw_config(draw, states_path) -> ModelConfig:
    """Both providers, every fusion type and the text-only baseline, depth 1
    and 2, a last GAT layer narrower or wider than its input, role embedding
    on and off, and ``alpha_res`` 0."""
    file_provider = states_path is not None
    return ModelConfig(
        architecture=draw(st.sampled_from(["fused", "fused", "text_only"])),
        encoder=EncoderConfig(
            provider="file" if file_provider else "toy", width=WIDTH,
            layers=draw(st.integers(0, 2)), heads=draw(st.sampled_from([1, 2, 4])),
            vocab_buckets=draw(st.sampled_from([16, 64])),
            states_path=str(states_path) if file_provider else None),
        gat=GatConfig(out_dim=96 if file_provider else draw(st.sampled_from([4, 16])),
                      heads=draw(st.sampled_from([2, 3])), depth=draw(st.integers(1, 2)),
                      role_embedding=draw(st.booleans())),
        fusion=FusionConfig(type=draw(st.sampled_from(["cat", "gate", "attn"])),
                            alpha_res=draw(st.sampled_from([0.0, 0.5, 1.0]))),
        optimizer=OptimizerConfig(batch_size=8),
    )


def assert_close(logits, reference):
    assert logits.shape == reference.shape
    assert np.max(np.abs(logits - reference)) <= 1e-10 * np.max(np.abs(reference))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_forward_batch_and_predict_match_the_reference_model(tmp_path_factory, data):
    recs = data.draw(records())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    states_path = None
    if data.draw(st.booleans()):
        states_path = tmp_path_factory.mktemp("states") / "states.bin"
        write_states(states_path, recs, rng, data.draw)
    config = draw_config(data.draw, states_path)
    model = OpinionFusionModel(config, rng=rng)
    if data.draw(st.booleans()):
        # Restored into a model of other weights through a checkpoint file.
        path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
        save_checkpoint(path, model.parameters())
        model = OpinionFusionModel(config, rng=np.random.default_rng(rng.integers(2 ** 32)))
        restore_into(model.parameters(), load_checkpoint(path))
    reference = reference_logits(model, recs)
    assert_close(model.forward_batch(recs).data, reference)
    assert_close(np.array([pred.logits for pred in model.predict(recs)]), reference)
