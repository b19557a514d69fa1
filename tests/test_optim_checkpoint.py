"""Adam behavior and checkpoint round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfuse.autodiff as ad
from opfuse.autodiff import Tape, Tensor
from opfuse.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                               restore_into, save_checkpoint)
from opfuse.model import ModelConfig, OpinionFusionModel
from opfuse.optim import Adam
from opfuse.synthetic import make_planted_corpus

from fuzzing import FIELD_VALUES


def test_adam_minimizes_quadratic():
    x = Tensor([3.0, -2.0, 5.0], requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(300):
        with Tape() as tape:
            loss = ad.tsum(ad.mul(x, x))
        opt.step(tape.backward(loss))
    assert np.abs(x.data).max() < 1e-3


def test_adam_first_step_size_is_lr():
    # With bias correction the very first update has magnitude ~lr.
    x = Tensor([10.0], requires_grad=True)
    opt = Adam({"x": x}, lr=0.5)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(x, 3.0))
    opt.step(tape.backward(loss))
    assert abs(x.data[0] - (10.0 - 0.5)) < 1e-6


def test_adam_deterministic():
    def run():
        x = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"x": x}, lr=0.05)
        for _ in range(50):
            with Tape() as tape:
                loss = ad.tsum(ad.mul(ad.mul(x, x), [0.5, 2.0]))
            opt.step(tape.backward(loss))
        return x.data.tobytes()

    assert run() == run()


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    params = {
        "layer.weight": Tensor(rng.standard_normal((3, 5)), requires_grad=True),
        "layer.bias": Tensor(rng.standard_normal((1, 5)), requires_grad=True),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name, tensor in params.items():
        assert np.array_equal(loaded[name], tensor.data)


def test_checkpoint_magic_string(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": Tensor([1.0])})
    assert path.read_bytes().startswith(MAGIC)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_restore_into_validates_names_and_shapes(tmp_path):
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(CheckpointError):
        restore_into({"w": w}, {"other": np.zeros((2, 2))})
    with pytest.raises(CheckpointError):
        restore_into({"w": w}, {"w": np.zeros((3, 3))})
    restore_into({"w": w}, {"w": np.ones((2, 2))})
    assert np.array_equal(w.data, np.ones((2, 2)))


# Weights stored with a leading head axis; CKPT-1 files written before
# stacking hold one ``P.h{k}.N`` entry per head instead.
HEAD_STACKED = ("wq", "wk", "wv", "theta_s", "theta_t", "theta_e", "attn")


def small_model(seed):
    config = ModelConfig.from_json({
        "encoder": {"width": 8, "layers": 2, "heads": 4, "vocab_buckets": 32},
        "gat": {"out_dim": 4, "heads": 3, "depth": 2},
        "fusion": {"type": "attn"},
    })
    return OpinionFusionModel(config, rng=np.random.default_rng(seed))


def test_legacy_per_head_checkpoint_restores_byte_identical_logits(tmp_path):
    source = small_model(1)
    legacy = {}
    for name, tensor in source.parameters().items():
        prefix, _, leaf = name.rpartition(".")
        if leaf in HEAD_STACKED:
            legacy.update({f"{prefix}.h{k}.{leaf}": part for k, part in enumerate(tensor.data)})
        else:
            legacy[name] = tensor.data
    assert len(legacy) > len(source.parameters())
    path = tmp_path / "legacy.ckpt"
    save_checkpoint(path, legacy)
    target = small_model(2)
    restore_into(target.parameters(), load_checkpoint(path))
    records = make_planted_corpus(n_train=6, n_dev=0, n_test=0, seed=3).records
    assert (target.forward_batch(records).data.tobytes()
            == source.forward_batch(records).data.tobytes())


def checkpoint_bytes(manifest, payload=b""):
    return MAGIC + json.dumps({"params": manifest}).encode("utf-8") + b"\n" + payload


@pytest.mark.parametrize("header", [
    b"[1]",
    b'{"params": 5}',
    b'{"params": [7]}',
    b'{"params": [{"shape": [1]}]}',
    b'{"params": [{"name": 3, "shape": [1]}]}',
    b'{"params": [{"name": "w", "shape": "ab"}]}',
    b'{"params": [{"name": "w", "shape": [1.5]}]}',
    b'{"params": [{"name": "w", "shape": [true]}]}',
    b'{"params": [{"name": "w", "shape": [-1]}]}',
    b'{"params": [{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}]}',
])
def test_malformed_manifest_raises_checkpoint_error(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + header + b"\n" + np.zeros(2).tobytes())
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("entries", [
    [("p.h0.w", [2]), ("p.h2.w", [2])],   # gap in k
    [("p.h0.w", [2]), ("p.h1.w", [3])],   # ragged shapes
    [("p.h0.w", [2]), ("p.w", [1, 2])],   # stacked name twice
])
def test_bad_legacy_head_groups_raise_checkpoint_error(tmp_path, entries):
    path = tmp_path / "legacy.ckpt"
    size = sum(int(np.prod(shape)) for _, shape in entries)
    path.write_bytes(checkpoint_bytes([{"name": n, "shape": s} for n, s in entries],
                                      np.ones(size).tobytes()))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_bytes_and_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    manifest = [{"name": "w", "shape": [2]}]
    path.write_bytes(checkpoint_bytes(manifest, np.ones(3).tobytes()))
    with pytest.raises(CheckpointError, match="after the last payload"):
        load_checkpoint(path)
    path.write_bytes(checkpoint_bytes(manifest, np.array([1.0, np.nan]).tobytes()))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoints_raise_only_checkpoint_error(tmp_path_factory, data):
    manifest = [{"name": "enc.h0.wq", "shape": [2, 3]}, {"name": "enc.h1.wq", "shape": [2, 3]},
                {"name": "head.bias", "shape": [1, 4]}]
    raw = bytearray(checkpoint_bytes(manifest, np.arange(16.0).tobytes()))
    mutation = data.draw(st.sampled_from(["truncate", "flip", "retype"]))
    if mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    else:
        entry = data.draw(st.integers(-1, len(manifest) - 1))
        if entry < 0:
            manifest = data.draw(FIELD_VALUES)
        else:
            key = data.draw(st.sampled_from(["name", "shape"]))
            manifest[entry][key] = data.draw(FIELD_VALUES)
        raw = bytearray(checkpoint_bytes(manifest, np.arange(16.0).tobytes()))
    path = tmp_path_factory.mktemp("fuzz") / "ckpt"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
