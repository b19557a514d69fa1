"""Adam behavior and checkpoint round-trips."""

import json
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfuse.autodiff as ad
import opfuse.checkpoint
from opfuse.autodiff import NonFiniteError, ShapeError, Tape, Tensor
from opfuse.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                               restore_into, save_checkpoint)
from opfuse.model import ModelConfig, OpinionFusionModel
from opfuse.optim import Adam

from fuzzing import FIELD_VALUES
from oracles import checkpoint_bytes_reference, dense_adam_reference


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


def test_adam_refuses_a_parameter_without_rows():
    with pytest.raises(ShapeError, match="'s'"):
        Adam({"s": Tensor(1.0, requires_grad=True)}, lr=0.1)


def row_part(table, idx, rows):
    """A scalar whose backward hands ``rows`` to ``table``'s rows ``idx`` as they are."""
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        return (ad._RowGrad(idx, np.asarray(rows, dtype=np.float64)),)

    return ad.tsum(ad._apply("row_part", table.data[idx], (table,), backward))


def adam_moments(opt, name, shape):
    """Dense (m, v) of one parameter, laid out from the rows the optimizer keeps."""
    m, v = np.zeros(shape), np.zeros(shape)
    table = opt._touched.get(name)
    if table is not None:
        m[table.rows] = table.m[:table.rows.size]
        v[table.rows] = table.v[:table.rows.size]
    return m, v


# A step gives the table row parts ("rows"), nothing ("none"), row parts
# plus a dense part ("dense"), or row parts plus a row that sums to inf.
STEP_KINDS = ("rows", "none", "dense", "overflow")


def run_adam_against_reference(table_shape, steps, seed, lr=0.01):
    """Step Adam and the dense reference side by side; compare bytes after each step.

    A step of kind ``overflow`` sums two finite 1e308 rows to inf: both
    sides then give a non-finite row, Adam raises and writes nothing, and
    the sequence ends there.
    """
    rng = np.random.default_rng(seed)
    n, w = table_shape
    table = Tensor(rng.standard_normal((n, w)), requires_grad=True)
    other = Tensor(rng.standard_normal(3), requires_grad=True)
    # A per-head (heads, d_out, d_in) weight, without a gradient on "none"
    # steps, and a (1, d) bias, summed over a broadcast.
    weight = Tensor(rng.standard_normal((2, 3, w)), requires_grad=True)
    bias = Tensor(rng.standard_normal((1, w)), requires_grad=True)
    opt = Adam({"table": table, "other": other, "weight": weight, "bias": bias}, lr=lr)
    ref = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
           for name, p in opt.params.items()}
    for t, (kind, parts) in enumerate(steps, start=1):
        with Tape() as tape:
            loss = ad.tsum(ad.mul(other, rng.standard_normal(3)))
            loss = ad.add(loss, ad.tsum(ad.mul(ad.add(rng.standard_normal((4, w)), bias),
                                               rng.standard_normal((4, w)))))
            if kind != "none":
                loss = ad.add(loss, ad.tsum(ad.matmul(weight, rng.standard_normal((w, 2)))))
            for idx in parts:
                loss = ad.add(loss, row_part(table, idx, rng.standard_normal((len(idx), w))))
            if kind == "dense":
                loss = ad.add(loss, ad.tsum(ad.mul(table, rng.standard_normal((n, w)))))
            if kind == "overflow":
                row = int(rng.integers(n))
                loss = ad.add(loss, row_part(table, [row, row], np.full((2, w), 1e308)))
        with np.errstate(all="ignore"):
            grads = tape.backward(loss)
            if kind == "overflow":
                with pytest.raises(NonFiniteError):
                    opt.step(grads)
            else:
                opt.step(grads)
            # Read after the step, so Adam met the gradient as backward left it.
            new = {name: dense_adam_reference(*ref[name], grads.wrt(p), t, lr)
                   for name, p in opt.params.items()}
        if kind == "overflow":
            assert not np.isfinite(new["table"][0]).all()
            m, v = adam_moments(opt, "table", (n, w))
            assert table.data.tobytes() == ref["table"][0].tobytes()
            assert m.tobytes() == new["table"][1].tobytes()
            assert v.tobytes() == new["table"][2].tobytes()
            return
        ref = new
        for name, p in opt.params.items():
            m, v = adam_moments(opt, name, p.shape)
            assert p.data.tobytes() == ref[name][0].tobytes(), (t, name)
            assert m.tobytes() == ref[name][1].tobytes(), (t, name)
            assert v.tobytes() == ref[name][2].tobytes(), (t, name)


def test_a_step_on_a_few_rows_of_a_large_table_allocates_for_those_rows():
    """Moments grow with the touched rows and the rows are written in place, so
    one step on 10 rows of a (16384, 64) table allocates neither its 16.8 MB
    of dense moments nor an 8.4 MB copy of the table."""
    table = Tensor(np.zeros((16384, 64)), requires_grad=True)
    buffer = table.data
    opt = Adam({"table": table}, lr=0.1)
    rows = np.arange(10) * 1600
    with Tape() as tape:
        loss = row_part(table, rows, np.ones((10, 64)))
    grads = tape.backward(loss)
    tracemalloc.start()
    try:
        opt.step(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert table.data is buffer and not buffer.flags.writeable
    assert np.allclose(buffer[rows], -0.1) and not np.delete(buffer, rows, axis=0).any()
    assert len(opt._touched["table"].m) == 10


def test_moment_capacity_grows_geometrically_up_to_the_row_count():
    table = Tensor(np.zeros((6, 2)), requires_grad=True)
    opt = Adam({"table": table}, lr=0.1)
    capacities = []
    for rows in ([0], [1], [2], [3], [4], [0, 5]):
        with Tape() as tape:
            loss = row_part(table, rows, np.ones((len(rows), 2)))
        opt.step(tape.backward(loss))
        capacities.append(len(opt._touched["table"].m))
    assert capacities == [1, 2, 4, 4, 6, 6]


@st.composite
def adam_steps(draw):
    n = draw(st.integers(1, 9))
    w = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    steps = []
    for kind in draw(st.lists(st.sampled_from(STEP_KINDS), min_size=1, max_size=10)):
        parts = [] if kind == "none" else draw(
            st.lists(st.lists(index, min_size=1, max_size=6), max_size=3))
        steps.append((kind, parts))
    return (n, w), steps


@settings(max_examples=150, deadline=None)
@given(case=adam_steps(), seed=st.integers(0, 2**32 - 1))
def test_adam_is_byte_identical_to_dense_adam(case, seed):
    run_adam_against_reference(*case, seed)


def test_adam_fixed_sequence_is_byte_identical_to_dense_adam():
    run_adam_against_reference((6, 3), [
        ("rows", [[0, 0, 2], [2]]),     # repeated rows, in two parts
        ("rows", [[4]]),                # row 4 is touched once and never again
        ("none", []),                   # no gradient for the table at all
        ("rows", [[0, 5, 5, 5]]),
        ("none", []),
        ("dense", [[1, 1]]),            # dense and row parts: every row is touched
        ("rows", [[3]]),
        ("none", []),
        ("overflow", []),
    ], seed=7)


def test_a_table_touched_in_row_order_is_stepped_on_its_own_rows():
    """Every row touched with row r in slot r (a dense gradient, or rows that
    came in order) updates the parameter as a whole; rows first touched out
    of order keep their slots.  Both give dense Adam's bytes."""
    rng = np.random.default_rng(3)
    dense = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    shuffled = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    opt = Adam({"dense": dense, "shuffled": shuffled}, lr=0.1)
    ref = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
           for name, p in opt.params.items()}
    for t, rows in enumerate(([2], [0, 1], [1]), start=1):
        with Tape() as tape:
            loss = ad.add(ad.tsum(ad.mul(dense, rng.standard_normal((4, 2)))),
                          row_part(shuffled, rows, rng.standard_normal((len(rows), 2))))
        grads = tape.backward(loss)
        opt.step(grads)
        ref = {name: dense_adam_reference(*ref[name], grads.wrt(p), t, 0.1)
               for name, p in opt.params.items()}
        for name, p in opt.params.items():
            m, v = adam_moments(opt, name, p.shape)
            assert (p.data.tobytes(), m.tobytes(), v.tobytes()) == tuple(
                arr.tobytes() for arr in ref[name]), (t, name)
    assert opt._touched["dense"].in_order
    assert opt._touched["shuffled"].rows.tolist() == [2, 0, 1]
    assert not opt._touched["shuffled"].in_order


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


@pytest.mark.parametrize("fault", ["shape", "non_finite"])
def test_a_refused_restore_writes_no_parameter(fault):
    # Every name, shape and value is checked before the first write; the
    # faulty entry is the last of the 26 parameters.
    params = OpinionFusionModel(ModelConfig(), rng=np.random.default_rng(0)).parameters()
    assert list(params)[-1] == "head.bias"
    buffers = {name: p.data for name, p in params.items()}
    before = {name: p.data.tobytes() for name, p in params.items()}
    values = {name: np.ones(p.shape) for name, p in params.items()}
    if fault == "shape":
        values["head.bias"] = np.ones((1, 13))
    else:
        values["head.bias"][0, -1] = np.nan
    with pytest.raises(CheckpointError):
        restore_into(params, values)
    assert all(p.data is buffers[name] and p.data.tobytes() == before[name]
               for name, p in params.items())


# Weights stored with a leading head axis.
HEAD_STACKED = ("wq", "wk", "wv", "theta_s", "theta_t", "theta_e", "attn")


def small_model(seed):
    config = ModelConfig.from_json({
        "encoder": {"width": 8, "layers": 2, "heads": 4, "vocab_buckets": 32},
        "gat": {"out_dim": 4, "heads": 3, "depth": 2},
        "fusion": {"type": "attn"},
    })
    return OpinionFusionModel(config, rng=np.random.default_rng(seed))


def test_per_head_checkpoint_is_refused_by_restore_into(tmp_path):
    # One ``P.h{k}.N`` entry per head: the layout of files written before
    # weights were stacked.  It loads as plain names and does not match.
    source = small_model(1)
    per_head = {}
    for name, tensor in source.parameters().items():
        prefix, _, leaf = name.rpartition(".")
        if leaf in HEAD_STACKED:
            per_head.update({f"{prefix}.h{k}.{leaf}": part
                             for k, part in enumerate(tensor.data)})
        else:
            per_head[name] = tensor.data
    path = tmp_path / "per_head.ckpt"
    save_checkpoint(path, per_head)
    assert load_checkpoint(path).keys() == per_head.keys()
    target = small_model(2)
    before = {name: t.data.copy() for name, t in target.parameters().items()}
    with pytest.raises(CheckpointError) as err:
        restore_into(target.parameters(), load_checkpoint(path))
    message = str(err.value)
    assert "\n" not in message
    assert "missing=['encoder.block0.wk'" in message
    assert "unexpected=['encoder.block0.h0.wk'" in message
    assert all(np.array_equal(t.data, before[name])
               for name, t in target.parameters().items())


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
    [("p.h0.w", [2]), ("p.w", [1, 2])],   # a head name beside its stacked name
])
def test_per_head_names_load_as_written(tmp_path, entries):
    # The reader does not regroup ``P.h{k}.N`` names, so none of these is an error.
    path = tmp_path / "per_head.ckpt"
    size = sum(int(np.prod(shape)) for _, shape in entries)
    payload = np.arange(size, dtype=np.float64)
    path.write_bytes(checkpoint_bytes([{"name": n, "shape": s} for n, s in entries],
                                      payload.tobytes()))
    arrays = load_checkpoint(path)
    assert [(name, list(arr.shape)) for name, arr in arrays.items()] == entries
    assert np.array_equal(np.concatenate([arr.ravel() for arr in arrays.values()]), payload)


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


def test_checkpoint_bytes_match_the_reference_layout(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "table": Tensor(rng.standard_normal((7, 3)), requires_grad=True),
        "strided": rng.standard_normal((4, 6))[:, ::2],
        "fortran": np.asfortranarray(rng.standard_normal((3, 5))),
        "big_endian": rng.standard_normal((2, 3)).astype(">f8"),
        "float32": rng.standard_normal(4).astype(np.float32),
        "ints": np.arange(5),
        "empty": np.zeros((0, 4)),
        "scalar": np.float64(2.5),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    arrays = {name: value.data if isinstance(value, Tensor) else value
              for name, value in params.items()}
    assert path.read_bytes() == checkpoint_bytes_reference(arrays)


def test_zero_dim_parameter_round_trips_through_a_checkpoint(tmp_path):
    path = tmp_path / "scalar.ckpt"
    save_checkpoint(path, {"s": np.float64(2.5), "t": Tensor(np.array(-1.25))})
    stored = load_checkpoint(path)
    assert stored["s"].shape == () and stored["t"].shape == ()
    params = {"s": Tensor(0.0, requires_grad=True), "t": Tensor(0.0, requires_grad=True)}
    restore_into(params, stored)
    assert params["s"].data.shape == () and params["s"].item() == 2.5
    assert params["t"].item() == -1.25


@pytest.mark.parametrize("shape", [(), (0,), (0, 5), (3, 4)], ids=str)
def test_load_round_trips_every_shape(tmp_path, shape):
    path = tmp_path / "shape.ckpt"
    value = np.arange(float(np.prod(shape))).reshape(shape) - 1.5
    save_checkpoint(path, {"before": np.ones(2), "w": value, "after": np.full((1, 2), 7.0)})
    loaded = load_checkpoint(path)
    assert loaded["w"].shape == shape and loaded["w"].dtype == np.float64
    assert loaded["w"].tobytes() == value.tobytes()
    assert loaded["before"].tolist() == [1.0, 1.0] and loaded["after"].tolist() == [[7.0, 7.0]]


def test_short_read_raises_checkpoint_error(tmp_path, monkeypatch):
    # The file loses its last bytes between the size check and the read.
    path = tmp_path / "short.ckpt"
    path.write_bytes(checkpoint_bytes([{"name": "w", "shape": [2, 3]}], np.ones(5).tobytes()))
    real_fstat = os.fstat
    monkeypatch.setattr(opfuse.checkpoint.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(CheckpointError, match="truncated payload for w"):
        load_checkpoint(path)
