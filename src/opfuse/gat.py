"""Multi-head GATv2 message passing with polarity edge attributes.

Per head ``k``, the unnormalized score of node ``i`` attending to ``j`` is

    score_k(i, j) = a_kᵀ · LeakyReLU(Θ_s[k] h_i + Θ_t[k] h_j + Θ_e[k] e_ij)

where ``e_ij`` is the one-hot vector of the edge's polarity id, so
``Θ_e[k] e_ij`` is a column of ``Θ_e[k]``, and is zero for the implicit
self-loop ``j = i``, whose id is ``len(POLARITIES)``.
Coefficients are softmax-normalized over ``N(i) ∪ {i}`` where
``N(i) = {j | (i, j) ∈ E}``, and messages are ``h'_i = Σ_j α_ij Θ_t[k] h_j``.
Head outputs are concatenated.  Each weight is one tensor with a leading
head axis, so every array op runs all heads at once.

The scores of every edge and head come from one primitive,
``autodiff.edge_scores``: it adds the gathered source and target
projections and each edge's Θ_e column into one buffer in place, and the
tape keeps only that pre-activation.

The message sum runs on whichever per-edge rows are narrower.  Since

    Σ_j α_ij Θ_t[k] h_j = Θ_t[k] Σ_j α_ij h_j   (per head k),

a layer whose input is narrower than one head's output (``d_in < d_out``,
as in the first layer of the README default, 64 < 96) weights and sums the
``(edges, heads, d_in)`` input rows and applies each head's Θ_t once per
node.  Otherwise, as in every deeper layer, whose input is ``heads · d_out``
wide, it gathers the projected ``(edges, heads · d_out)`` target rows once,
scores the edges on them and sums them as the messages.  The layer's shapes
pick the path.

The last layer feeds only ``readout``, which sums each graph's nodes, and a
message is linear in its attention weights, so per head

    Σ_{i∈g} h'_i = Σ_{j∈g} β_j Θ_t[k] h_j,   β_j = Σ_i α_ij,

where ``β_j`` is the attention mass node ``j`` receives.  That layer builds
no per-edge message: it sums α onto the targets into β and returns each
node's share of the readout, the same narrower rows weighted by β.  A narrow
layer returns ``β_j h_j`` per head, ``(|V|, heads · d_in)``, and ``readout``
applies each head's Θ_t once per pooled graph row; a wide one returns
``β_j Θ_t[k] h_j``, ``(|V|, heads · d_out)``.  Deeper models run every layer
before the last on the per-node path above.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .data import POLARITIES
from .graphs import GraphEmpty, PackedGraphs


class GatParams:
    """Weights for one GATv2 layer, each one tensor with the head axis first.

    Θ_s and Θ_t are (heads, d_out, d_in), Θ_e is (heads, d_out, 3) and a is
    (heads, d_out, 1).
    """

    def __init__(self, d_in: int, d_out: int, heads: int, leaky_slope: float = 0.2, *,
                 rng: np.random.Generator, prefix: str = "gat"):
        self.d_in = d_in
        self.d_out = d_out
        self.heads = heads
        self.leaky_slope = leaky_slope
        self.prefix = prefix
        scale = np.sqrt(2.0 / (d_in + d_out))
        e_dim = len(POLARITIES)
        self.theta_s = Tensor(scale * rng.standard_normal((heads, d_out, d_in)),
                              requires_grad=True)
        self.theta_t = Tensor(scale * rng.standard_normal((heads, d_out, d_in)),
                              requires_grad=True)
        self.theta_e = Tensor(scale * rng.standard_normal((heads, d_out, e_dim)),
                              requires_grad=True)
        self.attn = Tensor(rng.standard_normal((heads, d_out, 1)) / np.sqrt(d_out),
                           requires_grad=True)

    @property
    def out_width(self) -> int:
        return self.heads * self.d_out

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.prefix}.{name}": getattr(self, name)
                for name in ("theta_s", "theta_t", "theta_e", "attn")}


def gat_layer(graph: PackedGraphs, params: GatParams,
              collect_attention: list | None = None, *,
              readout_shares: bool = False) -> Tensor:
    """One round of attention message passing; returns (|V|, heads * d_out).

    Runs on the packed disjoint union as one edge list: every node's
    neighborhood is its out-edges in edge order followed by its self-loop,
    scores are normalized with a segment softmax per source node, and
    messages are scatter-added back onto the source nodes (see the module
    docstring for which rows are summed).

    With ``readout_shares``, for the last layer, it returns each node's
    share of its graph's readout instead: its narrower rows weighted by the
    attention mass it receives, (|V|, heads * d_in) for a narrow layer.
    ``readout(shares, graph, params)`` equals
    ``readout(gat_layer(graph, params), graph)``.

    When ``collect_attention`` is given, the per-node coefficient arrays are
    appended to it as (node, head, neighborhood weights) triples, head by head.
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
    loops = np.arange(n_nodes)
    src = np.concatenate([graph.edges[:, 0], loops])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.concatenate([graph.edges[:, 1], loops])[order]
    polarity = np.concatenate([graph.edge_polarity,
                               np.full(n_nodes, len(POLARITIES), dtype=np.intp)])[order]

    heads, d_out, n_edges = params.heads, params.d_out, len(src)
    # One (|V|, heads * d_out) projection per weight, heads in concatenation order.
    src_proj, tgt_proj = (
        ad.matmul(graph.features,
                  ad.transpose(ad.reshape(theta, (params.out_width, params.d_in))))
        for theta in (params.theta_s, params.theta_t))
    # The rows weighted per head and summed: the input rows when they are
    # the narrower ones, else the projected ones.  Projected messages are
    # gathered once per edge, for the scores and the messages alike; with no
    # message to build, ``edge_scores`` gathers the target rows itself.
    narrow = params.d_in < d_out
    node_rows, row_width = (graph.features, params.d_in) if narrow else (tgt_proj, d_out)
    if narrow or readout_shares:
        scores = ad.edge_scores(src_proj, tgt_proj, params.theta_e, params.attn, src, dst,
                                polarity, params.leaky_slope)
    else:
        rows = ad.gather_rows(tgt_proj, dst)
        scores = ad.edge_scores(src_proj, rows, params.theta_e, params.attn, src, None,
                                polarity, params.leaky_slope)
    alpha = ad.segment_softmax(scores, src, n_nodes)
    if collect_attention is not None:
        bounds = np.searchsorted(src, np.arange(n_nodes + 1))
        collect_attention.extend((i, k, alpha.data[bounds[i]:bounds[i + 1], k].copy())
                                 for k in range(heads) for i in range(n_nodes))
    if readout_shares:
        # β_j per head: the attention mass node j receives, (|V|, heads).
        mass = ad.segment_sum(alpha, dst, n_nodes)
        shares = ad.mul(ad.reshape(node_rows, (n_nodes, -1, row_width)),
                        ad.reshape(mass, (n_nodes, heads, 1)))
        return ad.reshape(shares, (n_nodes, heads * row_width))
    if narrow:
        rows = ad.gather_rows(node_rows, dst)
    weighted = ad.mul(ad.reshape(rows, (n_edges, -1, row_width)),
                      ad.reshape(alpha, (n_edges, heads, 1)))
    summed = ad.segment_sum(ad.reshape(weighted, (n_edges, heads * row_width)), src, n_nodes)
    return ad.project_heads(summed, params.theta_t) if narrow else summed


def readout(node_feats: Tensor, graph: PackedGraphs,
            last: GatParams | None = None) -> Tensor:
    """Sum-pool node vectors into one (num_graphs, width) row per graph.

    With ``last``, ``node_feats`` are that layer's readout shares
    (``gat_layer(..., readout_shares=True)``); a narrow layer's pooled
    (heads · d_in) rows then get each head's Θ_t here, once per graph.
    """
    if graph.num_nodes == 0:
        raise GraphEmpty("readout on an empty graph")
    pooled = ad.segment_sum(node_feats, graph.node_graph, graph.num_graphs)
    if last is None or last.d_in >= last.d_out:
        return pooled
    return ad.project_heads(pooled, last.theta_t)


def aggregate_sentences(readouts: Tensor, mapping: list[int],
                        num_sentences: int, width: int) -> tuple[Tensor, list[bool]]:
    """Mean of each sentence's graph readouts: (num_sentences, width), plus flags.

    ``readouts`` stacks the (G, width) graph readouts and ``mapping[m]``
    assigns row ``m`` to its parent sentence.  Sentences with no graphs get
    a zero row and are flagged.
    """
    if readouts.shape != (len(mapping), width):
        raise ShapeError(f"readouts of shape {readouts.shape} for {len(mapping)} "
                         f"mapping entries of width {width}")
    sums = ad.segment_sum(readouts, mapping, num_sentences)
    counts = np.bincount(np.asarray(mapping, dtype=np.intp), minlength=num_sentences)
    means = ad.mul(sums, 1.0 / np.maximum(counts, 1)[:, None])
    return means, [bool(c == 0) for c in counts]
