"""Text encoders behind a provider boundary.

Both providers have two entry points.  ``encode_record(record)`` returns
one record's tokens and an ``EncoderOutput``: token-level hidden states
``(|T|, d)`` plus a pooled ``(1, d)`` sequence vector.  A token is just its
``(start, end)`` character offsets into the record text, the same space the
annotation spans use.  ``encode_batch(records)`` calls ``encode_record``
for each record and returns an ``EncodedBatch``: the records' hidden rows
packed one record after another, ``(N_tok, d)``, and their pooled rows
``(B, d)``.

* ``ToyEncoder``: trainable hashed-vocabulary embeddings (of each token's
  lowercased text), sinusoidal positions, and a small stack of residual
  self-attention and feed-forward blocks.  A record's forward records no
  tape node: it runs each block's numpy ops as the composed primitives run
  them, with their bits, and keeps the intermediates.  It checks the values
  a non-finite intermediate must reach, and on a failure replays the
  composed checks, so it still raises under the name of the op that made
  it.  ``encode_batch`` then records two nodes: one from the embedding
  table and every block weight to the packed hidden rows, and one from
  those rows to the pooled means.  The first node's backward runs the
  layers last to first on the packed rows: each row-wise product is one
  GEMM over all ``N_tok`` rows, and the softmax core runs once per group of
  equal-length records as stacked ``(G, H, T, T)`` arrays (sequence packing
  without cross-contamination, Krell et al. 2021).  The position table is
  one cached, read-only ``Tensor`` per shape.
* ``FileEncoder``: frozen per-record states exported from any external
  encoder, carried in an ``OPFUSE-ENC-1`` container together with the
  exporting tokenizer's offsets and looked up by record id.  A zero-width
  token, as tokenizers export ``[CLS]``, anchors no span.  The states
  served are read-only views into the file's map, not copies.

A record's tokens and hash buckets are computed again on every call;
nothing is kept per record.
"""

from __future__ import annotations

import functools
import mmap
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .data import Record

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class EncoderError(Exception):
    pass


# Each token's (start, end) character offsets into the record text.
TokenSequence = tuple[tuple[int, int], ...]


@dataclass
class EncoderOutput:
    hidden: Tensor   # (|T|, d); |T| >= 1 from the toy encoder, which pads empty
                     # input, while a state file may hold |T| = 0
    pooled: Tensor   # (1, d)
    saved: tuple | None = None   # the toy encoder's bucket ids and per-layer
                                 # intermediates, read by the batch backward


def tokenize(text: str) -> TokenSequence:
    """Split into word/punctuation tokens: each one's offsets into ``text``."""
    return tuple(m.span() for m in _TOKEN_RE.finditer(text))


def hash_bucket(token_text: str, buckets: int) -> int:
    """Stable vocabulary hash; identical across runs and processes."""
    return zlib.crc32(token_text.encode("utf-8")) % buckets


def sinusoidal_positions(length: int, width: int) -> np.ndarray:
    """(length, width) position table.

    Each shape is computed in full rather than sliced from a longer table,
    so a table's bits never depend on which lengths came before.
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    dim = np.arange(width, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(dim / 2.0)) / width)
    return np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))


@functools.lru_cache(maxsize=256)
def _position_tensor(length: int, width: int) -> Tensor:
    """``sinusoidal_positions`` as a constant, read-only Tensor, built and
    checked once per shape and kept for the 256 latest shapes."""
    return Tensor(sinusoidal_positions(length, width))


_SLOPE = 0.2    # the feed-forward block's leaky-ReLU slope


def _checked(name: str, arr: np.ndarray) -> np.ndarray:
    ad._check_finite(name, arr)
    return arr


def _unchecked(name: str, arr: np.ndarray) -> np.ndarray:
    return arr


def _attention_scores(x, wq, wk, wv, scale, check):
    """q, k, v and the scaled scores, each made and passed to ``check`` as its primitive does."""
    q, k, v = (check("matmul", x @ w) for w in (wq, wk, wv))
    return q, k, v, check("mul", check("matmul", q @ k.transpose(0, 2, 1)) * scale)


def _attention_mix(x, v, scores, wo, check):
    """The probabilities, the merged head rows and the block output, from the scores."""
    shifted = scores - scores.max(axis=2, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=2, keepdims=True)
    heads = check("matmul", probs @ v)
    merged = heads.transpose(1, 0, 2).reshape(x.shape[0], wo.shape[0])
    return probs, merged, check("add", x + check("matmul", merged @ wo))


def _attention_forward(x, wq, wk, wv, wo, scale):
    """One record's ``x + merge(softmax(q·kᵀ·scale)·v) @ wo``: (T, W), and (q, k, v, probs, merged).

    ``wq``, ``wk`` and ``wv`` are (H, W, d_h), so ``q = x @ wq`` is (H, T, d_h);
    ``wo`` is (H·d_h, W), and head ``k`` fills columns ``k·d_h:(k+1)·d_h`` of
    the merged rows.  Each numpy op runs as the composed primitives run it,
    in their order and on the same layouts, so the output has their bits.
    Two values are checked: the scaled scores, where the softmax would turn a
    -inf into a 0 weight, and the output.  When either check fails, the
    composed path's checks (q, k, v, the score product, its scale, the value
    mix, the output projection, the residual add) are replayed in order and
    the first to fail raises under its primitive's name.
    """
    def replay():
        _, _, v_checked, scores_checked = _attention_scores(x, wq, wk, wv, scale, _checked)
        _attention_mix(x, v_checked, scores_checked, wo, _checked)

    q, k, v, scores = _attention_scores(x, wq, wk, wv, scale, _unchecked)
    ad._check_finite("mul", scores, replay)
    probs, merged, out = _attention_mix(x, v, scores, wo, _unchecked)
    ad._check_finite("add", out, replay)
    return out, (q, k, v, probs, merged)


def _ffn_values(x, w1, b1, w2, b2, slope, check):
    """The hidden pre-activation, the activation and the block output."""
    hidden = check("add", check("matmul", x @ w1) + b1)
    act = np.maximum(hidden, slope * hidden)
    return hidden, act, check("add", x + check("add", check("matmul", act @ w2) + b2))


def _ffn_forward(x, w1, b1, w2, b2, slope):
    """One record's ``x + (leaky(x·w1 + b1)·w2 + b2)``: (T, W), and the pre-activation.

    Run as the composed primitives run it, with their bits.  Only the output
    is checked, as a non-finite intermediate always reaches it; on a failure
    the composed checks are replayed in order.
    """
    hidden, _, out = _ffn_values(x, w1, b1, w2, b2, slope, _unchecked)
    ad._check_finite("add", out, lambda: _ffn_values(x, w1, b1, w2, b2, slope, _checked))
    return out, hidden


def _ffn_backward(g, x, hidden, w1, w2, slope):
    """The feed-forward block's gradients over packed rows: d_x, d_w1, d_b1, d_w2, d_b2.

    The activation is made again from the pre-activation, with its forward bits.
    """
    act = np.maximum(hidden, slope * hidden)
    d_hidden = (g @ w2.T) * np.maximum(hidden >= 0.0, slope)
    return (g + d_hidden @ w1.T, x.T @ d_hidden, d_hidden.sum(axis=0, keepdims=True),
            act.T @ g, g.sum(axis=0, keepdims=True))


def _attention_backward(g, x, merged, groups, wq, wk, wv, wo, scale):
    """The attention block's gradients over packed rows: d_x, d_wq, d_wk, d_wv, d_wo.

    Every row-wise product is one GEMM over all rows, and d_x adds the
    residual, then the v, k and q terms, in the composed path's order.  The
    softmax core runs once per group of equal-length records: ``groups``
    holds each group's packed row ids, record after record, and its q, k, v
    and probabilities stacked as (G, H, T, ·).
    """
    heads, width, d_h = wq.shape
    d_merged = g @ wo.T
    d_qkv = np.empty((3, g.shape[0], heads, d_h))
    for rows, q, k, v, probs in groups:
        n, _, length, _ = q.shape
        d_heads = d_merged[rows].reshape(n, length, heads, d_h).transpose(0, 2, 1, 3)
        d_probs = d_heads @ v.swapaxes(-1, -2)
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True)) * scale
        for slot, d in enumerate((d_scores @ k, d_scores.swapaxes(-1, -2) @ q,
                                  probs.swapaxes(-1, -2) @ d_heads)):
            d_qkv[slot, rows] = d.transpose(0, 2, 1, 3).reshape(n * length, heads, d_h)
    d_qkv = d_qkv.reshape(3, g.shape[0], heads * d_h)
    d_x = g
    for slot, w in ((2, wv), (1, wk), (0, wq)):
        d_x = d_x + d_qkv[slot] @ w.transpose(1, 0, 2).reshape(width, -1).T
    d_w = (x.T @ d_qkv).reshape(3, width, heads, d_h).transpose(0, 2, 1, 3)
    return d_x, d_w[0], d_w[1], d_w[2], merged.T @ g


class _LayerSaved(NamedTuple):
    """What one record's block layer keeps for the batch backward."""

    x: np.ndarray       # (T, W) attention input
    q: np.ndarray       # (H, T, d_h), as are k and v
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray   # (H, T, T)
    merged: np.ndarray  # (T, W)
    mid: np.ndarray     # (T, W) attention output, the feed-forward input
    hidden: np.ndarray  # (T, 2W) feed-forward pre-activation


class EncodedBatch(NamedTuple):
    """A minibatch's encoder output, the records' token rows one record after another."""

    seqs: list[TokenSequence]
    hidden: Tensor           # (N_tok, d)
    pooled: Tensor           # (B, d)
    token_rows: np.ndarray   # (N_tok,): each hidden row's record


def _encode_each(encoder, records: Sequence[Record]):
    """Each record's tokens and output, and each hidden row's record."""
    encoded = [encoder.encode_record(record) for record in records]
    outs = [out for _, out in encoded]
    token_rows = np.repeat(np.arange(len(records)), [out.hidden.shape[0] for out in outs])
    return [seq for seq, _ in encoded], outs, token_rows


class ToyEncoder:
    """Small trainable transformer encoder over hashed token buckets."""

    def __init__(self, width: int = 64, layers: int = 2, heads: int = 4,
                 vocab_buckets: int = 16384, *, rng: np.random.Generator):
        if width % heads != 0:
            raise EncoderError(f"width {width} not divisible by heads {heads}")
        self.width = width
        self.layers = layers
        self.heads = heads
        self.head_dim = width // heads
        self.vocab_buckets = vocab_buckets
        self._params: dict[str, Tensor] = {}
        scale = 1.0 / np.sqrt(width)
        self._params["embedding"] = Tensor(
            0.1 * rng.standard_normal((vocab_buckets, width)), requires_grad=True)
        for layer in range(layers):
            # wq, wk, wv are (heads, width, head_dim), drawn head by head.
            qkv = scale * rng.standard_normal((heads, 3, width, self.head_dim))
            for index, name in enumerate(("wq", "wk", "wv")):
                self._params[f"block{layer}.{name}"] = Tensor(qkv[:, index], requires_grad=True)
            self._params[f"block{layer}.wo"] = Tensor(
                scale * rng.standard_normal((width, width)), requires_grad=True)
            self._params[f"block{layer}.ffn_w1"] = Tensor(
                scale * rng.standard_normal((width, 2 * width)), requires_grad=True)
            self._params[f"block{layer}.ffn_b1"] = Tensor(
                np.zeros((1, 2 * width)), requires_grad=True)
            self._params[f"block{layer}.ffn_w2"] = Tensor(
                (1.0 / np.sqrt(2 * width)) * rng.standard_normal((2 * width, width)),
                requires_grad=True)
            self._params[f"block{layer}.ffn_b2"] = Tensor(
                np.zeros((1, width)), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {f"encoder.{name}": p for name, p in self._params.items()}

    def _blocks(self) -> list[tuple[np.ndarray, ...]]:
        """Each layer's wq, wk, wv, wo, ffn_w1, ffn_b1, ffn_w2 and ffn_b2 arrays."""
        return [tuple(self._params[f"block{layer}.{name}"].data for name in
                      ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"))
                for layer in range(self.layers)]

    def encode(self, text: str, seq: TokenSequence) -> EncoderOutput:
        """One record's forward, recording no tape node; ``saved`` keeps its bucket
        ids and each layer's intermediates for ``encode_batch``'s backward."""
        buckets = np.array([hash_bucket(text[start:end].lower(), self.vocab_buckets)
                            for start, end in seq] or [0],   # a padding token for empty input
                           dtype=np.intp)
        x = _checked("add", self._params["embedding"].data[buckets]
                     + _position_tensor(len(buckets), self.width).data)
        scale = 1.0 / np.sqrt(self.head_dim)
        layers = []
        for wq, wk, wv, wo, w1, b1, w2, b2 in self._blocks():
            mid, (q, k, v, probs, merged) = _attention_forward(x, wq, wk, wv, wo, scale)
            out, hidden = _ffn_forward(mid, w1, b1, w2, b2, _SLOPE)
            layers.append(_LayerSaved(x, q, k, v, probs, merged, mid, hidden))
            x = out
        pooled = _checked("mean", x.mean(axis=0, keepdims=True))
        return EncoderOutput(hidden=ad._wrap(x, False), pooled=ad._wrap(pooled, False),
                             saved=(buckets, layers))

    def encode_record(self, record: Record) -> tuple[TokenSequence, EncoderOutput]:
        seq = tokenize(record.text)
        return seq, self.encode(record.text, seq)

    def encode_batch(self, records: Sequence[Record]) -> EncodedBatch:
        """Every record's forward through ``encode_record``, then two tape nodes.

        The first takes the embedding table and every block weight to the
        packed hidden rows; the second takes those rows to each record's mean.
        """
        seqs, outs, token_rows = _encode_each(self, records)
        blocks = self._blocks()
        lengths = np.bincount(token_rows, minlength=len(records))[:, None]

        def backward(g):
            return _blocks_backward(g, outs, blocks, 1.0 / np.sqrt(self.head_dim))

        hidden = ad.node(np.concatenate([out.hidden.data for out in outs]),
                         tuple(self._params.values()), backward)
        pooled = ad.node(np.concatenate([out.pooled.data for out in outs]), (hidden,),
                         lambda g: ((g / lengths)[token_rows],))
        return EncodedBatch(seqs, hidden, pooled, token_rows)


def _blocks_backward(g, outs: list[EncoderOutput], blocks, scale):
    """The gradients of the embedding table and of every block weight, in
    parameter order, from the packed hidden rows' gradient ``g``.

    The layers run last to first over the packed rows.  A non-finite value in
    between reaches a returned gradient, which ``Tape.backward`` checks.
    """
    lengths = [out.hidden.shape[0] for out in outs]
    starts = np.cumsum([0] + lengths[:-1])
    by_length: dict[int, list[int]] = {}
    for index, length in enumerate(lengths):
        by_length.setdefault(length, []).append(index)
    groups = [(members, (starts[members][:, None] + np.arange(length)).ravel())
              for length, members in by_length.items()]
    grads: list[np.ndarray] = []
    for layer in reversed(range(len(blocks))):
        wq, wk, wv, wo, w1, _, w2, _ = blocks[layer]
        saved = [out.saved[1][layer] for out in outs]
        x, merged, mid, hidden = (np.concatenate([getattr(s, name) for s in saved])
                                  for name in ("x", "merged", "mid", "hidden"))
        g, d_w1, d_b1, d_w2, d_b2 = _ffn_backward(g, mid, hidden, w1, w2, _SLOPE)
        stacked = [(rows, *(np.stack([getattr(saved[i], name) for i in members])
                            for name in ("q", "k", "v", "probs")))
                   for members, rows in groups]
        g, d_wq, d_wk, d_wv, d_wo = _attention_backward(g, x, merged, stacked,
                                                        wq, wk, wv, wo, scale)
        grads[:0] = (d_wq, d_wk, d_wv, d_wo, d_w1, d_b1, d_w2, d_b2)
    buckets = np.concatenate([out.saved[0] for out in outs])
    return (ad._RowGrad(buckets, g), *grads)


ENC_MAGIC = b"OPFUSE-ENC-1\n"


def _text_end(path, where: str, offsets) -> int:
    """The largest end offset (0 without tokens); raises for a negative or reversed one."""
    text_end = 0
    for token, (start, end) in enumerate(offsets):
        if start < 0 or end < start:
            raise EncoderError(f"{path}: token {token} of {where} has invalid "
                               f"offsets [{start}, {end})")
        text_end = max(text_end, end)
    return text_end


def write_encoder_states(path: str | Path,
                         entries: Sequence[tuple[str, Sequence[tuple[int, int]],
                                                 np.ndarray, np.ndarray]]) -> None:
    """Write per-record hidden states exported from an external encoder.

    Each entry is (record id, token offsets, hidden (T, d), pooled (d,) or (1, d)).
    Every entry is checked before the file is opened: a repeated record id,
    bad offsets and a non-finite hidden or pooled value are refused with the
    messages ``read_encoder_states`` gives for them.  The file is written
    beside ``path`` (through a symlink) and then replaces it, so a map of the
    old file keeps its bytes; truncating a mapped file would fault its reader.
    """
    seen = set()
    for rid, offsets, hidden, pooled in entries:
        n_tokens, width = np.shape(hidden)
        if len(offsets) != n_tokens:
            raise EncoderError(
                f"record {rid!r}: {len(offsets)} offsets for {n_tokens} hidden rows")
        if np.size(pooled) != width:
            raise EncoderError(f"record {rid!r}: pooled width {np.size(pooled)} != {width}")
        if rid in seen:
            raise EncoderError(f"{path}: duplicate record id {rid!r}")
        seen.add(rid)
        _text_end(path, f"record {rid!r}", offsets)
        if not (np.isfinite(hidden).all() and np.isfinite(pooled).all()):
            raise EncoderError(f"{path}: non-finite states in record {rid!r}")
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(ENC_MAGIC)
            fh.write(struct.pack("<q", len(entries)))
            for rid, offsets, hidden, pooled in entries:
                hidden = np.ascontiguousarray(hidden, dtype="<f8")
                rid_bytes = rid.encode("utf-8")
                fh.write(struct.pack("<q", len(rid_bytes)))
                fh.write(rid_bytes)
                fh.write(struct.pack("<qq", hidden.shape[1], hidden.shape[0]))
                for start, end in offsets:
                    fh.write(struct.pack("<qq", start, end))
                fh.write(hidden.tobytes())
                fh.write(np.ascontiguousarray(pooled, dtype="<f8").tobytes())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class StoredStates:
    offsets: TokenSequence
    text_end: int        # the largest end offset, so the least text length; 0 without tokens
    hidden: Tensor       # (|T|, d), a read-only view into the file's map
    pooled: Tensor       # (1, d), likewise


def read_encoder_states(path: str | Path) -> Mapping[str, StoredStates]:
    """The file's records by id, as a mapping that cannot be changed.

    The file is mapped read-only, and each record's hidden and pooled
    states are views into the map, which lives as long as any of them.
    """
    with open(path, "rb") as fh:
        # Checked before mapping, as an empty file cannot be mapped.
        if fh.read(len(ENC_MAGIC)) != ENC_MAGIC:
            raise EncoderError(f"{path}: not an OPFUSE-ENC-1 state file")
        view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    return MappingProxyType(_parse_encoder_states(path, view))


def _parse_encoder_states(path: str | Path, view: memoryview) -> dict[str, StoredStates]:
    """The records of a state file mapped as ``view``, past its magic."""
    records: dict[str, StoredStates] = {}
    pos = len(ENC_MAGIC)

    def read(n: int, what: str) -> memoryview:
        # Lengths come from the file: a corrupt one may be negative or
        # huge, so it is checked against what is left before reading.
        nonlocal pos
        if not 0 <= n <= len(view) - pos:
            raise EncoderError(f"{path}: truncated {what}")
        pos += n
        return view[pos - n:pos]

    (count,) = struct.unpack("<q", read(8, "record count"))
    for index in range(count):
        where = f"record #{index}"
        (rid_len,) = struct.unpack("<q", read(8, f"id length of {where}"))
        try:
            rid = str(read(rid_len, f"id of {where}"), "utf-8")
        except UnicodeDecodeError as exc:
            raise EncoderError(f"{path}: id of {where} is not UTF-8") from exc
        if rid in records:
            raise EncoderError(f"{path}: duplicate record id {rid!r}")
        where = f"record {rid!r}"
        width, n_tokens = struct.unpack("<qq", read(16, f"shape of {where}"))
        offsets = tuple(struct.iter_unpack("<qq", read(16 * n_tokens,
                                                       f"offsets of {where}")))
        text_end = _text_end(path, where, offsets)
        hidden = read(n_tokens * width * 8, f"hidden states of {where}")
        pooled = read(width * 8, f"pooled vector of {where}")
        hidden = np.frombuffer(hidden, dtype="<f8").reshape(n_tokens, width)
        pooled = np.frombuffer(pooled, dtype="<f8").reshape(1, width)
        try:
            hidden, pooled = ad._adopt(hidden), ad._adopt(pooled)
        except NonFiniteError as exc:
            raise EncoderError(f"{path}: non-finite states in {where}") from exc
        records[rid] = StoredStates(offsets=offsets, text_end=text_end,
                                    hidden=hidden, pooled=pooled)
    return records


class FileEncoder:
    """Frozen provider backed by an exported state file, keyed by record id.

    It maps the file once, read-only, and serves each record's states as
    views into that map, which lives as long as this encoder or any state it
    served.  A file rewritten by ``write_encoder_states`` is a new file: this
    map keeps the old bytes, and a new ``FileEncoder`` reads the new ones.
    """

    def __init__(self, path: str | Path, width: int):
        self.path = str(path)
        self.width = width
        self._records = read_encoder_states(path)

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def encode_record(self, record: Record) -> tuple[TokenSequence, EncoderOutput]:
        stored = self._records.get(record.id)
        if stored is None:
            raise EncoderError(f"{self.path}: no stored states for record id {record.id!r}")
        if stored.hidden.shape[1] != self.width:
            raise EncoderError(
                f"{self.path}: record {record.id!r} has width {stored.hidden.shape[1]}, "
                f"model configured for {self.width}")
        if stored.text_end > len(record.text):
            raise EncoderError(
                f"{self.path}: record {record.id!r} has a token ending at offset "
                f"{stored.text_end}, past the end of its {len(record.text)}-character text")
        return stored.offsets, EncoderOutput(hidden=stored.hidden, pooled=stored.pooled)

    def encode_batch(self, records: Sequence[Record]) -> EncodedBatch:
        """Every record's stored states through ``encode_record``, concatenated."""
        seqs, outs, token_rows = _encode_each(self, records)
        return EncodedBatch(seqs, ad.concat([out.hidden for out in outs]),
                            ad.concat([out.pooled for out in outs]), token_rows)
