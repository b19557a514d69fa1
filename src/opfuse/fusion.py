"""Fusion of pooled text features with aggregated opinion-graph features.

Three strategies, searched as a hyperparameter:

* ``cat``  — linear projection of the concatenated pair back to width d.
* ``gate`` — sigmoid gate blending the two vectors elementwise.
* ``attn`` — dot-product attention with the graph vector as query and the
  token-level states as keys and values.

Every function takes a minibatch as stacked (B, ·) rows.

The fused vector is folded back through a scaled residual,
``H_R = H_seq + α_res · H_f``, before the classification head.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

FUSION_TYPES: tuple[str, ...] = ("cat", "gate", "attn")


class FusionParams:
    """Trainable weights for one fusion strategy at text width ``d``.

    Also owns the linear projection taking the graph readout width down
    to ``d`` (bias-free so opinion-free zero vectors stay exactly zero).
    """

    def __init__(self, fusion_type: str, d: int, graph_width: int, rng: np.random.Generator):
        if fusion_type not in FUSION_TYPES:
            raise ValueError(f"unknown fusion type {fusion_type!r}")
        self.fusion_type = fusion_type
        self.d = d
        self.graph_projection = Tensor(
            np.sqrt(2.0 / (graph_width + d)) * rng.standard_normal((graph_width, d)),
            requires_grad=True)
        self.weight: Tensor | None = None
        self.bias: Tensor | None = None
        if fusion_type in ("cat", "gate"):
            self.weight = Tensor(
                np.sqrt(2.0 / (3 * d)) * rng.standard_normal((2 * d, d)),
                requires_grad=True)
            self.bias = Tensor(np.zeros((1, d)), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        out = {"fusion.graph_projection": self.graph_projection}
        if self.weight is not None:
            out[f"fusion.{self.fusion_type}.weight"] = self.weight
            out[f"fusion.{self.fusion_type}.bias"] = self.bias
        return out

    def project_graph(self, graph_vec: Tensor) -> Tensor:
        return ad.matmul(graph_vec, self.graph_projection)


def fuse(h_seq: Tensor, h_graph: Tensor, h_tokens: Tensor,
         params: FusionParams, token_rows: Sequence[int]) -> Tensor:
    """Combine (B, d) text and graph rows into the fused (B, d) rows.

    ``h_tokens`` stacks the token states of every record in the batch and
    ``token_rows[t]`` names the record (row of ``h_seq``) that token ``t``
    belongs to.  Only ``attn`` reads them.
    """
    d = params.d
    if h_seq.data.ndim != 2 or h_seq.shape[1] != d or h_graph.shape != h_seq.shape:
        raise ShapeError(
            f"fuse expects (B, {d}) inputs, got {h_seq.shape} and {h_graph.shape}")
    if params.fusion_type == "cat":
        joined = ad.concat([h_seq, h_graph], axis=1)
        return ad.add(ad.matmul(joined, params.weight), params.bias)
    if params.fusion_type == "gate":
        joined = ad.concat([h_seq, h_graph], axis=1)
        gate = ad.sigmoid(ad.add(ad.matmul(joined, params.weight), params.bias))
        return ad.add(ad.mul(gate, h_seq), ad.mul(ad.sub(1.0, gate), h_graph))
    # attn: each record's graph row is the query over its own token states,
    # which are both keys and values; softmax and sum run per record.
    if h_tokens.shape[1] != d:
        raise ShapeError(f"token states width {h_tokens.shape[1]} != {d}")
    owner = np.asarray(token_rows, dtype=np.intp)
    queries = ad.gather_rows(h_graph, owner)
    scores = ad.mul(ad.tsum(ad.mul(h_tokens, queries), axis=1, keepdims=True),
                    1.0 / np.sqrt(d))
    alpha = ad.segment_softmax(scores, owner, h_seq.shape[0])
    return ad.segment_sum(ad.mul(h_tokens, alpha), owner, h_seq.shape[0])


def residual(h_seq: Tensor, h_fused: Tensor, alpha_res: float) -> Tensor:
    """H_R = H_seq + α_res · H_f."""
    if h_seq.shape != h_fused.shape:
        raise ShapeError(f"residual widths differ: {h_seq.shape} vs {h_fused.shape}")
    return ad.add(h_seq, ad.mul(h_fused, float(alpha_res)))


class ClassifierHead:
    """Affine map from the final representation to class logits."""

    def __init__(self, d: int, n_classes: int, rng: np.random.Generator):
        self.weight = Tensor(np.sqrt(1.0 / d) * rng.standard_normal((d, n_classes)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros((1, n_classes)), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"head.weight": self.weight, "head.bias": self.bias}

    def __call__(self, h: Tensor) -> Tensor:
        """Logits (B, C) for (B, d) rows.

        Each row is multiplied as its own (1, d) matrix, (B, 1, d) @ (d, C),
        so a record's logits have the same bits in any batch; a plain
        (B, d) @ (d, C) product may round a row differently by batch size.
        Bit-identical nesting at ``alpha_res = 0`` (a fused batch against
        text-only records one at a time) depends on it.
        """
        batch, width = h.shape
        rows = ad.matmul(ad.reshape(h, (batch, 1, width)), self.weight)
        return ad.add(ad.reshape(rows, (batch, self.weight.shape[1])), self.bias)
