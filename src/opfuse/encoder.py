"""Text encoders behind a provider boundary.

Both providers have one entry point, ``encode_record(record)``, which
returns the record's tokens and an ``EncoderOutput``: token-level hidden
states ``(|T|, d)`` plus a pooled ``(1, d)`` sequence vector.  A token is
just its ``(start, end)`` character offsets into the record text, the same
space the annotation spans use.

* ``ToyEncoder``: trainable hashed-vocabulary embeddings (of each token's
  lowercased text), sinusoidal positions, and a small stack of
  self-attention blocks.  Each block is two tape nodes,
  ``autodiff.attention_block`` and ``autodiff.ffn_block``, with the bits
  of the primitives they stand for.  They check the values a non-finite
  intermediate must reach, and on a failure replay the composed checks, so
  it still raises under the name of the op that made it.  The position
  table is one cached, read-only ``Tensor`` per shape.
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
from typing import Mapping, Sequence

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

    def encode(self, text: str, seq: TokenSequence) -> EncoderOutput:
        buckets = [hash_bucket(text[start:end].lower(), self.vocab_buckets)
                   for start, end in seq]
        if not buckets:
            buckets = [0]  # synthetic padding token for empty input
        x = ad.gather_rows(self._params["embedding"], buckets)
        x = ad.add(x, _position_tensor(len(buckets), self.width))
        scale = 1.0 / np.sqrt(self.head_dim)
        for layer in range(self.layers):
            wq, wk, wv, wo, w1, b1, w2, b2 = (
                self._params[f"block{layer}.{name}"]
                for name in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"))
            x = ad.attention_block(x, wq, wk, wv, wo, scale)
            x = ad.ffn_block(x, w1, b1, w2, b2, 0.2)
        pooled = ad.tmean(x, axis=0, keepdims=True)
        return EncoderOutput(hidden=x, pooled=pooled)

    def encode_record(self, record: Record) -> tuple[TokenSequence, EncoderOutput]:
        seq = tokenize(record.text)
        return seq, self.encode(record.text, seq)


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
