"""Multi-head GATv2 message passing with polarity edge attributes.

Per head, the unnormalized score of node ``i`` attending to ``j`` is

    score(i, j) = aᵀ · LeakyReLU(Θ_s h_i + Θ_t h_j + Θ_e e_ij)

with the implicit self-loop ``j = i`` carrying a zero edge attribute.
Coefficients are softmax-normalized over ``N(i) ∪ {i}`` where
``N(i) = {j | (i, j) ∈ E}``, and messages are ``h'_i = Σ_j α_ij Θ_t h_j``.
Head outputs are concatenated.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .data import POLARITIES
from .graphs import GraphEmpty, OpinionGraph, PackedGraphs


class GatParams:
    """Weights for one GATv2 layer: per head Θ_s, Θ_t (d_out, d_in), Θ_e (d_out, 3), a."""

    def __init__(self, d_in: int, d_out: int, heads: int, leaky_slope: float = 0.2,
                 rng: np.random.Generator | None = None, prefix: str = "gat"):
        self.d_in = d_in
        self.d_out = d_out
        self.heads = heads
        self.leaky_slope = leaky_slope
        self.prefix = prefix
        rng = rng if rng is not None else np.random.default_rng(0)
        scale = np.sqrt(2.0 / (d_in + d_out))
        e_dim = len(POLARITIES)
        self.theta_s = [Tensor(scale * rng.standard_normal((d_out, d_in)), requires_grad=True)
                        for _ in range(heads)]
        self.theta_t = [Tensor(scale * rng.standard_normal((d_out, d_in)), requires_grad=True)
                        for _ in range(heads)]
        self.theta_e = [Tensor(scale * rng.standard_normal((d_out, e_dim)), requires_grad=True)
                        for _ in range(heads)]
        self.attn = [Tensor(rng.standard_normal((d_out, 1)) / np.sqrt(d_out),
                            requires_grad=True)
                     for _ in range(heads)]

    @property
    def out_width(self) -> int:
        return self.heads * self.d_out

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k in range(self.heads):
            out[f"{self.prefix}.h{k}.theta_s"] = self.theta_s[k]
            out[f"{self.prefix}.h{k}.theta_t"] = self.theta_t[k]
            out[f"{self.prefix}.h{k}.theta_e"] = self.theta_e[k]
            out[f"{self.prefix}.h{k}.attn"] = self.attn[k]
        return out


def gat_layer(graph: OpinionGraph | PackedGraphs, params: GatParams,
              collect_attention: list | None = None) -> Tensor:
    """One round of attention message passing; returns (|V|, heads * d_out).

    Runs on one graph or on a packed disjoint union alike: every node's
    neighborhood is its out-edges in edge order followed by its self-loop,
    scores are normalized with a segment softmax per source node, and
    messages are scatter-added back onto the source nodes.

    When ``collect_attention`` is given, the per-node coefficient arrays are
    appended to it as (node, head, neighborhood weights) triples.
    """
    n_nodes = graph.num_nodes
    if n_nodes == 0:
        raise GraphEmpty("gat_layer on an empty graph")
    if graph.features.shape[1] != params.d_in:
        raise ShapeError(
            f"node features have width {graph.features.shape[1]}, "
            f"layer expects {params.d_in}")

    # Self-loops go after the real edges, so a stable sort by source puts
    # each node's out-edges in edge order, then its self-loop.
    edges = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2)
    loops = np.arange(n_nodes)
    src = np.concatenate([edges[:, 0], loops])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.concatenate([edges[:, 1], loops])[order]
    attr = np.concatenate([graph.edge_attr.data,
                           np.zeros((n_nodes, graph.edge_attr.shape[1]))])[order]

    heads = []
    for k in range(params.heads):
        src_proj = ad.matmul(graph.features, ad.transpose(params.theta_s[k]))
        tgt_proj = ad.matmul(graph.features, ad.transpose(params.theta_t[k]))
        edge_proj = ad.matmul(attr, ad.transpose(params.theta_e[k]))
        messages = ad.gather_rows(tgt_proj, dst)
        pre = ad.leaky_relu(
            ad.add(ad.add(ad.gather_rows(src_proj, src), messages), edge_proj),
            params.leaky_slope)
        alpha = ad.segment_softmax(ad.matmul(pre, params.attn[k]), src, n_nodes)
        if collect_attention is not None:
            bounds = np.searchsorted(src, np.arange(n_nodes + 1))
            weights = alpha.data.reshape(-1)
            collect_attention.extend(
                (i, k, weights[bounds[i]:bounds[i + 1]].copy()) for i in range(n_nodes))
        heads.append(ad.segment_sum(ad.mul(alpha, messages), src, n_nodes))
    return ad.concat(heads, axis=1) if len(heads) > 1 else heads[0]


def readout(node_feats: Tensor, graph: OpinionGraph | PackedGraphs) -> Tensor:
    """Sum-pool node vectors into one (num_graphs, width) row per graph."""
    if graph.num_nodes == 0:
        raise GraphEmpty("readout on an empty graph")
    return ad.segment_sum(node_feats, graph.node_graph, graph.num_graphs)


def aggregate_sentences(readouts: Tensor, mapping: list[int],
                        num_sentences: int, width: int) -> tuple[list[Tensor], list[bool]]:
    """Mean of each sentence's graph readouts, one (1, width) vector per sentence.

    ``readouts`` stacks the (G, width) graph readouts and ``mapping[m]``
    assigns row ``m`` to its parent sentence.  Sentences with no graphs get
    a zero vector and are flagged.
    """
    if readouts.shape != (len(mapping), width):
        raise ShapeError(f"readouts of shape {readouts.shape} for {len(mapping)} "
                         f"mapping entries of width {width}")
    sums = ad.segment_sum(readouts, mapping, num_sentences)
    counts = np.bincount(np.asarray(mapping, dtype=np.intp), minlength=num_sentences)
    means = ad.mul(sums, 1.0 / np.maximum(counts, 1)[:, None])
    return ([ad.gather_rows(means, [i]) for i in range(num_sentences)],
            [bool(c == 0) for c in counts])
