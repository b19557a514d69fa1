"""Tokenizer, toy encoder, precomputed-state provider, and the span-pooling oracle."""

import dataclasses
import gc
import io
import os
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfuse.autodiff as ad
import opfuse.encoder as encoder_mod
from opfuse.autodiff import Tape, Tensor
from opfuse.data import Record, Span
from opfuse.encoder import (ENC_MAGIC, EncoderError, EncoderOutput, FileEncoder, ToyEncoder,
                            _position_tensor, read_encoder_states, hash_bucket,
                            sinusoidal_positions, tokenize, write_encoder_states)

from fuzzing import mutate

from oracles import (NoTokenOverlap, composed_encode, max_rel_err, numeric_gradient,
                     raw_encoder_states, self_attention_reference, span_pool)


def test_tokenize_words_and_punctuation():
    text = "go Long at $190"
    seq = tokenize(text)
    assert [text[start:end] for start, end in seq] == ["go", "Long", "at", "$", "190"]
    assert seq == ((0, 2), (3, 7), (8, 10), (11, 12), (12, 15))


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_offsets_round_trip():
    text = "Tesla I'll buy back in and go Long at $190"
    assert [text[start:end] for start, end in tokenize(text)] == [
        "Tesla", "I", "'", "ll", "buy", "back", "in", "and", "go", "Long", "at", "$", "190"]


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=0, max_size=40))
def test_tokenize_round_trip_property(text):
    seq = tokenize(text)
    for start, end in seq:
        assert 0 <= start < end <= len(text)
        assert not any(ch.isspace() for ch in text[start:end])
    for (_, end), (start, _) in zip(seq, seq[1:]):
        assert end <= start  # ordered, non-overlapping


def make_encoder(**kw):
    defaults = dict(width=16, layers=2, heads=4, vocab_buckets=64,
                    rng=np.random.default_rng(0))
    defaults.update(kw)
    return ToyEncoder(**defaults)


def encode_text(enc, text):
    return enc.encode(text, tokenize(text))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_encode_matches_per_head_reference(heads):
    enc = make_encoder(heads=heads, rng=np.random.default_rng(heads))
    p = {name.removeprefix("encoder."): t.data for name, t in enc.parameters().items()}
    text = "short the dip , buy the rip ?"
    seq = tokenize(text)
    buckets = [hash_bucket(text[start:end].lower(), enc.vocab_buckets) for start, end in seq]
    x = p["embedding"][buckets] + sinusoidal_positions(len(seq), enc.width)
    for layer in range(enc.layers):
        w = {name: p[f"block{layer}.{name}"] for name in ("wq", "wk", "wv", "wo")}
        assert w["wq"].shape == (heads, enc.width, enc.width // heads)
        x = x + self_attention_reference(x, list(w["wq"]), list(w["wk"]), list(w["wv"]),
                                         w["wo"])
        h = x @ p[f"block{layer}.ffn_w1"] + p[f"block{layer}.ffn_b1"]
        h = np.where(h >= 0, h, 0.2 * h)
        x = x + h @ p[f"block{layer}.ffn_w2"] + p[f"block{layer}.ffn_b2"]
    out = enc.encode(text, seq)
    assert np.max(np.abs(out.hidden.data - x)) < 1e-12
    assert np.max(np.abs(out.pooled.data - x.mean(axis=0, keepdims=True))) < 1e-12


def probe_loss(hidden, pooled, probe_hidden, probe_pooled):
    """A scalar that weighs every hidden and pooled entry by its own probe."""
    return ad.add(ad.tsum(ad.mul(hidden, probe_hidden)), ad.tsum(ad.mul(pooled, probe_pooled)))


def close(got, want, rel=1e-12):
    """Every entry within ``rel`` of the largest magnitude in ``want``."""
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= rel * np.max(
        np.abs(want), initial=0.0)


@pytest.mark.parametrize("text", ["short the dip , buy the rip ?", "dip", ""],
                         ids=["sentence", "one-token", "empty"])
@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_encode_has_the_bits_of_the_composed_blocks(heads, layers, text):
    """The forward keeps the composed blocks' bits.  The batch backward sums
    each weight's products in one GEMM, so its gradients agree to 1e-12."""
    enc = make_encoder(heads=heads, layers=layers, rng=np.random.default_rng(heads + 7 * layers))
    params = enc.parameters()
    seq = tokenize(text)
    rng = np.random.default_rng(5)
    probe_hidden = Tensor(rng.standard_normal((max(len(seq), 1), enc.width)))
    probe_pooled = Tensor(rng.standard_normal((1, enc.width)))

    def run(forward):
        with Tape() as tape:
            hidden, pooled = forward()
            loss = probe_loss(hidden, pooled, probe_hidden, probe_pooled)
        grads = tape.backward(loss)
        return [hidden.data, pooled.data] + [grads.wrt(t) for t in params.values()]

    def fused():
        batch = enc.encode_batch([record(text)])
        return batch.hidden, batch.pooled

    got, want = run(fused), run(lambda: composed_encode(enc, text, seq))
    assert len(got) == 2 + len(params) == 2 + 1 + 8 * layers
    for name, a, b in zip(["hidden", "pooled"], got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name, a, b in zip(params, got[2:], want[2:]):
        assert close(a, b), name


# Records of 0 (one padding row), 1, 2 and 10 tokens, two of them sharing
# words, so embedding rows repeat within and across records.
FD_TEXTS = ("", "dip", "buy dip", "short the dip , buy the rip ? buy dip")


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_the_encoder_node_gradients_match_finite_differences(layers):
    enc = make_encoder(width=4, heads=2, layers=layers, vocab_buckets=8,
                       rng=np.random.default_rng(11 + layers))
    records = [record(text, rid=f"r{i}") for i, text in enumerate(FD_TEXTS)]
    assert [len(tokenize(r.text)) for r in records] == [0, 1, 2, 10]
    rng = np.random.default_rng(12)
    probe_hidden = Tensor(rng.standard_normal((14, 4)))
    probe_pooled = Tensor(rng.standard_normal((4, 4)))

    def scalar():
        batch = enc.encode_batch(records)
        return probe_loss(batch.hidden, batch.pooled, probe_hidden, probe_pooled)

    with Tape() as tape:
        loss = scalar()
    assert len(tape) == 2 + 5    # the encoder's two nodes, then the probe loss's five
    grads = tape.backward(loss)
    for name, t in enc.parameters().items():
        assert max_rel_err(grads.wrt(t), numeric_gradient(lambda: scalar().item(), t)) < 1e-4, name


WORDS = ("buy", "sell", "dip", "rip", "moon", "short", "long", ",", "?", "$")


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=6), data=st.data())
def test_batch_gradients_are_the_sum_of_one_record_batches(lengths, data):
    enc = make_encoder(width=8, heads=2, layers=2, vocab_buckets=16,
                       rng=np.random.default_rng(len(lengths)))
    words = np.random.default_rng(sum(lengths))
    records = [record(" ".join(words.choice(WORDS, size=n)), rid=f"r{i}")
               for i, n in enumerate(lengths)]
    rng = np.random.default_rng(3)
    probes = {r.id: (rng.standard_normal((max(n, 1), 8)), rng.standard_normal((1, 8)))
              for r, n in zip(records, lengths)}
    params = enc.parameters()

    def grads_of(batch_records):
        with Tape() as tape:
            batch = enc.encode_batch(batch_records)
            loss = probe_loss(batch.hidden, batch.pooled,
                              np.concatenate([probes[r.id][0] for r in batch_records]),
                              np.concatenate([probes[r.id][1] for r in batch_records]))
        grads = tape.backward(loss)
        return batch, [grads.wrt(t) for t in params.values()]

    order = data.draw(st.permutations(records))
    batch, got = grads_of(order)
    singles = {r.id: grads_of([r]) for r in records}
    want = [sum(parts) for parts in zip(*(g for _, g in singles.values()))]
    for name, a, b in zip(params, got, want):
        assert close(a, b), name
    rows = [singles[r.id][0].hidden.data for r in order]
    assert batch.hidden.data.tobytes() == np.concatenate(rows).tobytes()
    assert batch.pooled.data.tobytes() == np.concatenate(
        [singles[r.id][0].pooled.data for r in order]).tobytes()


def test_the_position_tensor_is_built_once_per_shape_with_the_table_bits():
    shapes = [(12, 64), (1, 64), (40, 64), (12, 8), (7, 6), (12, 64), (3, 8)]
    for length, width in shapes:
        positions = _position_tensor(length, width)
        assert _position_tensor(length, width) is positions
        assert positions.shape == (length, width)
        assert positions.data.tobytes() == sinusoidal_positions(length, width).tobytes()
        assert not positions.requires_grad and not positions.data.flags.writeable


def test_toy_encoder_output_shapes():
    enc = ToyEncoder(rng=np.random.default_rng(0))  # default config
    out = encode_text(enc, "buy the dip now")
    assert out.hidden.shape == (4, 64)
    assert out.pooled.shape == (1, 64)


def test_toy_encoder_empty_text_uses_padding_token():
    enc = make_encoder()
    out = enc.encode("", ())
    assert out.hidden.shape == (1, 16)
    assert out.pooled.shape == (1, 16)


def test_toy_encoder_position_sensitivity():
    enc = make_encoder()
    a = encode_text(enc, "alpha beta").pooled.data
    b = encode_text(enc, "beta alpha").pooled.data
    assert not np.allclose(a, b)


def test_toy_encoder_deterministic():
    a = encode_text(make_encoder(), "same seed same output").hidden.data
    b = encode_text(make_encoder(), "same seed same output").hidden.data
    assert np.array_equal(a, b)


def test_toy_encoder_hashes_lowercased_surface_forms():
    enc = make_encoder()
    assert (encode_text(enc, "Buy THE dip").hidden.data.tobytes()
            == encode_text(enc, "buy the dip").hidden.data.tobytes())


def test_toy_encoder_embedding_gradient_matches_finite_differences():
    enc = make_encoder(width=8, layers=1, heads=2, vocab_buckets=6)
    head_w = Tensor(np.random.default_rng(1).standard_normal((8, 4)))

    def forward():
        pooled = enc.encode_batch([record("aa bb aa")]).pooled
        logits = ad.matmul(pooled, head_w)
        return ad.cross_entropy(logits, [2])

    with Tape() as tape:
        loss = forward()
    grads = tape.backward(loss)
    table = enc.parameters()["encoder.embedding"]
    numeric = numeric_gradient(lambda: forward().item(), table)
    assert max_rel_err(grads.wrt(table), numeric) < 1e-4


def test_span_pool_single_token():
    enc = make_encoder()
    seq = tokenize("alpha beta gamma")
    out = enc.encode("alpha beta gamma", seq)
    pooled = span_pool(out, seq, Span(*seq[1]))
    assert np.allclose(pooled.data, out.hidden.data[1:2])


def test_span_pool_two_tokens_mean():
    enc = make_encoder()
    seq = tokenize("alpha beta gamma")
    out = enc.encode("alpha beta gamma", seq)
    span = Span(seq[0][0], seq[1][1])
    pooled = span_pool(out, seq, span)
    assert np.allclose(pooled.data, out.hidden.data[0:2].mean(axis=0, keepdims=True))


def test_span_pool_whitespace_gap_raises():
    seq = tokenize("ab  cd")  # tokens at [0,2) and [4,6); char 2..4 is gap
    out = EncoderOutput(hidden=Tensor(np.zeros((2, 4))), pooled=Tensor(np.zeros((1, 4))))
    with pytest.raises(NoTokenOverlap):
        span_pool(out, seq, Span(2, 4))


def test_span_pool_split_invariance():
    # When all covered hidden states are equal the split across tokens is moot.
    hidden = np.tile(np.arange(4.0), (3, 1))
    out = EncoderOutput(hidden=Tensor(hidden), pooled=Tensor(hidden[:1]))
    seq = tokenize("aa bb cc")
    one = span_pool(out, seq, Span(0, 2)).data
    all_three = span_pool(out, seq, Span(0, 8)).data
    assert np.allclose(one, all_three)


def record(text="Tesla up big", rid="r1"):
    return Record(id=rid, split="train", text=text, emotion="optimism")


def test_state_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    hidden = rng.standard_normal((3, 8))
    pooled = rng.standard_normal(8)
    path = tmp_path / "states.bin"
    write_encoder_states(path, [("r1", [(0, 5), (6, 8), (9, 12)], hidden, pooled)])
    stored = read_encoder_states(path)["r1"]
    assert stored.offsets == ((0, 5), (6, 8), (9, 12))
    assert stored.hidden.shape == (3, 8) and stored.pooled.shape == (1, 8)
    assert stored.hidden.data.tobytes() == hidden.tobytes()
    assert stored.pooled.data.tobytes() == pooled.tobytes()


def test_writer_bytes_match_the_raw_layout(tmp_path):
    entries = state_entries()
    write_encoder_states(tmp_path / "states.bin", entries)
    raw_encoder_states(tmp_path / "raw.bin", entries)
    assert (tmp_path / "states.bin").read_bytes() == (tmp_path / "raw.bin").read_bytes()
    (tmp_path / "link.bin").symlink_to(tmp_path / "raw.bin")
    write_encoder_states(tmp_path / "link.bin", entries[:1])    # written through the link
    assert (tmp_path / "link.bin").is_symlink()
    assert list(read_encoder_states(tmp_path / "raw.bin")) == ["r1"]


def test_file_encoder_serves_the_states_it_read_once(tmp_path):
    rng = np.random.default_rng(9)
    hidden, pooled = rng.standard_normal((3, 8)), rng.standard_normal(8)
    path = tmp_path / "states.bin"
    write_encoder_states(path, [("r1", [(0, 5), (6, 8), (9, 12)], hidden, pooled)])
    enc = FileEncoder(path, width=8)
    _, first = enc.encode_record(record())
    _, second = enc.encode_record(record())
    assert first.hidden.data is second.hidden.data
    assert first.pooled.data is second.pooled.data
    assert not first.hidden.data.flags.writeable and not first.pooled.data.flags.writeable
    assert first.hidden.data.tobytes() == hidden.tobytes()
    assert first.pooled.shape == (1, 8) and first.pooled.data.tobytes() == pooled.tobytes()


def test_file_encoder_missing_id(tmp_path):
    path = tmp_path / "states.bin"
    write_encoder_states(path, [("r1", [(0, 5)], np.zeros((1, 8)), np.zeros(8))])
    enc = FileEncoder(path, width=8)
    with pytest.raises(EncoderError) as err:
        enc.encode_record(record(rid="xyz"))
    assert "xyz" in str(err.value)


def test_file_encoder_width_mismatch(tmp_path):
    path = tmp_path / "states.bin"
    write_encoder_states(path, [("r1", [(0, 5)], np.zeros((1, 768)), np.zeros(768))])
    enc = FileEncoder(path, width=64)
    with pytest.raises(EncoderError) as err:
        enc.encode_record(record())
    assert "768" in str(err.value) and "64" in str(err.value)


def test_file_encoder_states_are_frozen(tmp_path):
    path = tmp_path / "states.bin"
    write_encoder_states(path, [("r1", [(0, 5)], np.ones((1, 4)), np.ones(4))])
    enc = FileEncoder(path, width=4)
    seq, out = enc.encode_record(record())
    assert not out.hidden.requires_grad and not out.pooled.requires_grad
    assert seq == ((0, 5),)


def test_provider_substitutability(tmp_path):
    # Exporting the toy encoder's states and reloading them through the file
    # provider must leave every downstream quantity unchanged.
    enc = make_encoder()
    rec = record("Tesla I'll buy back in")
    seq, out = enc.encode_record(rec)
    path = tmp_path / "states.bin"
    write_encoder_states(path, [(rec.id, seq, out.hidden.data, out.pooled.data.reshape(-1))])
    file_enc = FileEncoder(path, width=16)
    seq2, out2 = file_enc.encode_record(rec)
    assert seq2 == seq
    assert np.array_equal(out2.hidden.data, out.hidden.data)
    assert np.array_equal(out2.pooled.data, out.pooled.data)
    span = Span(*seq[0])
    assert np.array_equal(span_pool(out, seq, span).data,
                          span_pool(out2, seq2, span).data)


def test_rejects_non_state_file(tmp_path):
    path = tmp_path / "bogus.bin"
    # Another format, an empty file (which cannot be mapped), and a short one.
    for blob in (b"OPFUSE-CKPT-1\nnope", b"", b"OPFUS"):
        path.write_bytes(blob)
        with pytest.raises(EncoderError) as err:
            read_encoder_states(path)
        assert str(err.value) == f"{path}: not an OPFUSE-ENC-1 state file"


def test_truncated_state_file_raises_encoder_error(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "states.bin"
    write_encoder_states(path, [
        ("r1", [(0, 5), (6, 8)], rng.standard_normal((2, 4)), rng.standard_normal(4)),
        ("r2", [(0, 3), (4, 9), (10, 12)], rng.standard_normal((3, 4)),
         rng.standard_normal(4)),
    ])
    blob = path.read_bytes()
    header = len(b"OPFUSE-ENC-1\n") + 8
    r2 = header + 8 + 2 + 16 + 2 * 16 + 2 * 4 * 8 + 4 * 8   # start of record r2
    r2_offsets = r2 + 8 + 2 + 16
    r2_hidden = r2_offsets + 3 * 16
    r2_pooled = r2_hidden + 3 * 4 * 8
    assert r2_pooled + 4 * 8 == len(blob)
    cuts = {
        "in the record count": header - 3,
        "in an id length": r2 + 4,
        "in an id": r2 + 9,
        "in a shape": r2 + 8 + 2 + 5,
        "mid-offsets": r2_offsets + 20,
        "mid-hidden": r2_hidden + 40,
        "mid-pooled": r2_pooled + 12,
        "one byte short": len(blob) - 1,
    }
    for where, cut in cuts.items():
        truncated = tmp_path / "cut.bin"
        truncated.write_bytes(blob[:cut])
        with pytest.raises(EncoderError, match="truncated") as err:
            read_encoder_states(truncated)
        if cut > r2 + 10:
            assert "'r2'" in str(err.value), where


def state_entries():
    rng = np.random.default_rng(8)
    return [("r1", [(0, 5), (6, 8)], rng.standard_normal((2, 3)), rng.standard_normal(3)),
            ("r\u00e9", [(0, 2)], rng.standard_normal((1, 3)), rng.standard_normal(3))]


def int_field_positions(entries):
    """Byte offset of every int64 field (count, id length, shape, token offsets)."""
    pos = len(ENC_MAGIC)
    fields = [pos]
    pos += 8
    for rid, offsets, hidden, pooled in entries:
        fields.append(pos)
        pos += 8 + len(rid.encode("utf-8"))
        fields += [pos + 8 * k for k in range(2 + 2 * len(offsets))]
        pos += 16 + 16 * len(offsets) + 8 * (hidden.size + pooled.size)
    return fields


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_state_files_raise_only_encoder_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "states.bin"
    entries = state_entries()
    write_encoder_states(path, entries)
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans()):
        # A length, shape or offset field rewritten with any int64.
        field = data.draw(st.sampled_from(int_field_positions(entries)))
        struct.pack_into("<q", raw, field, data.draw(st.integers(-2**63, 2**63 - 1)))
    else:
        raw = mutate(data, bytes(raw))
    path.write_bytes(bytes(raw))
    try:
        read_encoder_states(path)
    except EncoderError:
        pass


def assert_reader_and_writer_refuse(path, entries, message):
    """The reader refuses the unchecked file with ``message``; the writer
    refuses the same entries with it before it creates the file."""
    raw_encoder_states(path, entries)
    with pytest.raises(EncoderError) as err:
        read_encoder_states(path)
    assert str(err.value) == message
    path.unlink()
    with pytest.raises(EncoderError) as err:
        write_encoder_states(path, entries)
    assert str(err.value) == message
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["hidden", "pooled"])
def test_non_finite_states_raise_encoder_error_naming_file_and_record(tmp_path, part, value):
    entries = state_entries()
    rid, offsets, hidden, pooled = entries[1]
    (hidden if part == "hidden" else pooled)[0] = value
    path = tmp_path / "states.bin"
    assert_reader_and_writer_refuse(path, entries,
                                    f"{path}: non-finite states in record 'r\u00e9'")


def test_duplicate_record_id_raises_encoder_error_naming_file_and_id(tmp_path):
    entries = state_entries()
    path = tmp_path / "states.bin"
    assert_reader_and_writer_refuse(path, entries + entries[1:],
                                    f"{path}: duplicate record id 'r\u00e9'")


@pytest.mark.parametrize("bad", [(-1, 3), (4, 2), (-5, -9)])
def test_negative_or_reversed_offsets_raise_encoder_error_naming_file_and_record(tmp_path,
                                                                                 bad):
    entries = state_entries()
    entries[0] = ("r1", [(0, 5), bad], *entries[0][2:])
    path = tmp_path / "states.bin"
    raw_encoder_states(path, entries)
    with pytest.raises(EncoderError) as err:
        read_encoder_states(path)
    assert str(err.value) == (f"{path}: token 1 of record 'r1' has invalid offsets "
                              f"[{bad[0]}, {bad[1]})")


@pytest.mark.parametrize("bad", [(-1, 3), (4, 2), (-5, -9)])
def test_writer_refuses_negative_or_reversed_offsets_before_writing(tmp_path, bad):
    entries = state_entries()
    entries[1] = (entries[1][0], [bad], *entries[1][2:])
    path = tmp_path / "states.bin"
    with pytest.raises(EncoderError) as err:
        write_encoder_states(path, entries)
    assert str(err.value) == (f"{path}: token 0 of record 'r\u00e9' has invalid offsets "
                              f"[{bad[0]}, {bad[1]})")
    assert not path.exists()


def test_zero_width_tokens_are_read_and_served(tmp_path):
    path = tmp_path / "states.bin"
    offsets = [(0, 0), (0, 5), (6, 8), (9, 12), (12, 12)]   # [CLS] ... [SEP]
    write_encoder_states(path, [("r1", offsets, np.ones((5, 4)), np.ones(4))])
    seq, out = FileEncoder(path, width=4).encode_record(record())
    assert seq == tuple(offsets) and out.hidden.shape == (5, 4)


def test_offset_past_the_text_raises_encoder_error_naming_file_and_record(tmp_path):
    path = tmp_path / "states.bin"
    write_encoder_states(path, [("r1", [(0, 5), (6, 13)], np.ones((2, 4)), np.ones(4))])
    enc = FileEncoder(path, width=4)
    with pytest.raises(EncoderError) as err:
        enc.encode_record(record())   # "Tesla up big" has 12 characters
    assert str(err.value) == (f"{path}: record 'r1' has a token ending at offset 13, "
                              "past the end of its 12-character text")


def test_toy_encoder_encodes_a_record_as_encode_does_its_tokens():
    rec = record("Tesla I'll buy back in")
    enc = make_encoder()
    seq, out = enc.encode_record(rec)
    assert seq == tokenize(rec.text)
    assert out.hidden.data.tobytes() == enc.encode(rec.text, seq).hidden.data.tobytes()


def count_parses(monkeypatch) -> list:
    """Paths ``read_encoder_states`` parses from now on."""
    parses = []
    parse = encoder_mod._parse_encoder_states
    monkeypatch.setattr(encoder_mod, "_parse_encoder_states",
                        lambda path, *rest: parses.append(path) or parse(path, *rest))
    return parses


def test_a_rewritten_state_file_is_parsed_again(tmp_path, monkeypatch):
    parses = count_parses(monkeypatch)
    path = tmp_path / "states.bin"
    entries = state_entries()
    write_encoder_states(path, entries)
    first = read_encoder_states(path)
    write_encoder_states(path, entries[:1])             # a new size
    second = read_encoder_states(path)
    assert list(first) == ["r1", "r\u00e9"] and list(second) == ["r1"]
    stat = path.stat()
    rid, offsets, hidden, pooled = entries[0]
    write_encoder_states(path, [(rid, offsets, hidden + 1.0, pooled)])
    # The same size and modification time: only the bytes tell.
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    again = path.stat()
    assert (again.st_size, again.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    third = read_encoder_states(path)
    assert third["r1"].hidden.data.tobytes() == (hidden + 1.0).tobytes()
    assert second["r1"].hidden.data.tobytes() == hidden.tobytes()
    assert len(parses) == 3


@pytest.mark.parametrize("damage", ["truncated", "non_finite"])
def test_a_state_file_that_fails_to_parse_fails_on_every_read(tmp_path, monkeypatch, damage):
    parses = count_parses(monkeypatch)
    path = tmp_path / "states.bin"
    entries = state_entries()
    write_encoder_states(path, entries)
    read_encoder_states(path)
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-1])
        message = f"{path}: truncated pooled vector of record 'r\u00e9'"
    else:
        entries[1][2][0, 0] = np.nan
        raw_encoder_states(path, entries)
        message = f"{path}: non-finite states in record 'r\u00e9'"
    for _ in range(2):
        with pytest.raises(EncoderError) as err:
            read_encoder_states(path)
        assert str(err.value) == message
        with pytest.raises(EncoderError) as err:
            FileEncoder(path, width=3)
        assert str(err.value) == message
    assert len(parses) == 5


def test_the_states_read_cannot_be_changed(tmp_path):
    path = tmp_path / "states.bin"
    write_encoder_states(path, state_entries())
    states = read_encoder_states(path)
    with pytest.raises(TypeError):
        states["r2"] = states["r1"]
    with pytest.raises(TypeError):
        del states["r1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        states["r1"].offsets = ()
    with pytest.raises(ValueError):
        states["r1"].hidden.data[0, 0] = 0.0
    assert list(read_encoder_states(path)) == ["r1", "r\u00e9"]


REWRITE_UNDER_VIEWS = """
import sys
import numpy as np
from opfuse.encoder import read_encoder_states, write_encoder_states

path = sys.argv[1]
rng = np.random.default_rng(4)
entries = [(f"r{i}", [(0, 1)] * 64, rng.standard_normal((64, 512)), rng.standard_normal(512))
           for i in range(8)]
write_encoder_states(path, entries)
views = read_encoder_states(path)
write_encoder_states(path, [("new", [(0, 1)], np.full((1, 512), 2.0), np.zeros(512))])
for rid, _, hidden, pooled in entries:
    assert views[rid].hidden.data.tobytes() == hidden.tobytes(), rid
    assert views[rid].pooled.data.tobytes() == pooled.tobytes(), rid
new = read_encoder_states(path)
assert list(new) == ["new"] and (new["new"].hidden.data == 2.0).all()
"""


def test_a_state_file_rewritten_under_its_views_leaves_them_whole(tmp_path):
    """A 2 MB file is rewritten at 4 KB while its views are alive.  Had the
    writer truncated it, touching a view past the new end would fault
    (SIGBUS), so the check runs in its own process."""
    proc = subprocess.run([sys.executable, "-c", REWRITE_UNDER_VIEWS,
                           str(tmp_path / "states.bin")], capture_output=True, text=True)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


class FullDisk(io.BufferedWriter):
    """A file that takes its first two writes, the magic and the record count."""

    def write(self, data):
        if self.tell() > 20:
            raise OSError(28, "No space left on device")
        return super().write(data)


def refuse_replace(*args):
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch, failing):
    path = tmp_path / "states.bin"
    entries = state_entries()
    write_encoder_states(path, entries)
    old = path.read_bytes()
    if failing == "write":
        monkeypatch.setattr(encoder_mod, "open", lambda file, mode: FullDisk(io.FileIO(file, mode)),
                            raising=False)
    else:
        monkeypatch.setattr(encoder_mod.os, "replace", refuse_replace)
    with pytest.raises(OSError):
        write_encoder_states(path, entries[:1])
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["states.bin"] and path.read_bytes() == old
    assert list(read_encoder_states(path)) == ["r1", "r\u00e9"]


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_state_files_map_lives_as_long_as_its_states(tmp_path):
    """Each live map holds a descriptor of its own; it goes with the last
    encoder, record or state that points into it."""
    path = tmp_path / "states.bin"
    write_encoder_states(path, state_entries())
    gc.collect()
    before = open_descriptors()
    for _ in range(20):
        enc = FileEncoder(path, width=3)
        assert open_descriptors() == before + 1
    kept = weakref.ref(enc._records["r1"])
    _, out = enc.encode_record(record(text="Tesla up"))
    del enc
    gc.collect()
    assert kept() is None and open_descriptors() == before + 1
    assert out.hidden.data.tobytes() == state_entries()[0][2].tobytes()
    del out
    gc.collect()
    assert open_descriptors() == before


def rss_anon_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("RssAnon:"))
    return int(kb) * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_reading_a_large_state_file_copies_no_states(tmp_path):
    """64 records of one reused (128, 1024) array make a 64 MB file, which a
    read must map rather than copy into anonymous memory."""
    hidden = np.random.default_rng(5).standard_normal((128, 1024))
    offsets = [(k, k + 1) for k in range(128)]
    path = tmp_path / "large.bin"
    write_encoder_states(path, [(f"r{i}", offsets, hidden, hidden[0]) for i in range(64)])
    size = path.stat().st_size
    assert size >= 64 << 20
    before = rss_anon_bytes()
    states = read_encoder_states(path)
    grown = rss_anon_bytes() - before
    path.unlink()                       # the map keeps the bytes
    assert grown < size / 10, (grown, size)
    assert len(states) == 64 and (states["r63"].hidden.data == hidden).all()
