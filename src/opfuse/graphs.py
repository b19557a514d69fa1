"""Per-opinion sub-graphs: typed span nodes joined by polarity-carrying edges.

Topology is a sentiment-centered star: holder, target and qualifier attach
to the sentiment node; the aspect attaches to the target when present and
to the sentiment node otherwise.  All edges are bidirectional and carry the
opinion's polarity as its index in ``POLARITIES``; the implicit self-loop
added by the attention layer carries ``len(POLARITIES)``, for no attribute.

``build_subgraph`` resolves one opinion's spans to tokens, with no
parameter involved; ``PackedGraphs.pack`` collates a minibatch's graphs
and computes all their node features at once.

A graph is data, so ``build_subgraph`` builds it once per record object,
token sequence and opinion position, and keeps it in ``Record.graphs`` for
as long as the record object lives: its structure is frozen and its
arrays read-only.  A kept lookup is one dict get by token sequence and one
list index by position.  Only a second pass over the same record object
gains (a later epoch or dev predict, another ``train_model`` on the same
``Corpus``); a record loaded or unpickled anew starts with no graph.  An
opinion with no graph keeps only its ``GraphEmpty`` message.  The
warnings ``build_structure`` logs for a dropped node or a missing
sentiment span therefore appear once per record object and token
sequence, not once per forward.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import POLARITIES, OpinionAnnotation, Record, Span
from .encoder import TokenSequence

log = logging.getLogger(__name__)

ROLES: tuple[str, ...] = ("holder", "sentiment", "target", "qualifier", "aspect")

# Annotation field -> node role.
_FIELD_ROLE = {
    "holder": "holder",
    "sentiment_expression": "sentiment",
    "target": "target",
    "qualifier": "qualifier",
    "aspect_term": "aspect",
}

# Topology is data, not code: each entry is (role, partner, fallback partner),
# linked bidirectionally when both endpoints exist.
STAR_TOPOLOGY: tuple[tuple[str, str, Optional[str]], ...] = (
    ("holder", "sentiment", None),
    ("target", "sentiment", None),
    ("qualifier", "sentiment", None),
    ("aspect", "target", "sentiment"),
)


class GraphEmpty(Exception):
    """No span-backed node survived construction."""


@dataclass(frozen=True)
class GraphNode:
    role: str
    span: Optional[Span]                 # None for the pooled-sequence fallback
    token_indices: tuple[int, ...]       # empty for the fallback node


@dataclass(frozen=True)
class GraphStructure:
    """Feature-independent description of one opinion sub-graph."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[int, int], ...]
    polarity: str


@dataclass(frozen=True)
class OpinionGraph:
    """One opinion's structure and edge arrays; node features come at packing."""

    structure: GraphStructure
    edge_index: np.ndarray     # (|E|, 2) node indices
    edge_polarity: np.ndarray  # (|E|,) polarity ids, indices into POLARITIES

    @property
    def num_nodes(self) -> int:
        return len(self.structure.nodes)


@dataclass(frozen=True)
class PackedGraphs:
    """Disjoint union of a minibatch's opinion graphs, the graph type GAT reads.

    Graph ``g``'s nodes are a contiguous block of rows; its edges are
    offset to that block, and ``node_graph`` maps every node to ``g``.
    """

    features: Tensor           # (sum |V|, d)
    edges: np.ndarray          # (sum |E|, 2) node indices into the packed rows
    edge_polarity: np.ndarray  # (sum |E|,) polarity ids
    node_graph: np.ndarray     # (sum |V|,) owning graph of each node
    num_graphs: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_graph)

    @classmethod
    def pack(cls, graphs: Sequence[OpinionGraph], owners: Sequence[int], tokens: Tensor,
             pooled: Tensor, token_rows: np.ndarray,
             role_embedding: Tensor | None = None) -> "PackedGraphs":
        """Collate ``graphs``, the record of graph ``g`` being ``owners[g]``.

        ``tokens`` stacks the records' token states, row ``t`` belonging to
        record ``token_rows[t]``, and ``pooled`` has one row per record.  A
        span node's feature is the mean of its tokens' rows, a fallback
        node's its record's pooled row, plus its role's embedding if given.
        """
        starts = np.searchsorted(token_rows, owners)
        nodes = [(node, start, owner) for graph, start, owner in zip(graphs, starts, owners)
                 for node in graph.structure.nodes]
        # Source rows of each node: its tokens, or its record's pooled row,
        # which follows the token rows in the gathered table.
        sources = [[start + i for i in node.token_indices] or [len(token_rows) + owner]
                   for node, start, owner in nodes]
        counts = [len(rows) for rows in sources]
        weights = np.repeat(1.0 / np.array(counts), counts)[:, None]
        rows = ad.gather_rows(ad.concat([tokens, pooled]), np.concatenate(sources))
        features = ad.segment_sum(ad.mul(rows, weights),
                                  np.repeat(np.arange(len(nodes)), counts), len(nodes))
        if role_embedding is not None:
            features = ad.add(features, ad.gather_rows(
                role_embedding, [ROLES.index(node.role) for node, _, _ in nodes]))
        sizes = [graph.num_nodes for graph in graphs]
        offsets = np.cumsum([0] + sizes[:-1])
        return cls(features=features,
                   edges=np.concatenate([graph.edge_index + offset
                                         for graph, offset in zip(graphs, offsets)]),
                   edge_polarity=np.concatenate([graph.edge_polarity for graph in graphs]),
                   node_graph=np.repeat(np.arange(len(graphs)), sizes),
                   num_graphs=len(graphs))


def build_structure(record: Record, opinion: OpinionAnnotation,
                    seq: TokenSequence) -> GraphStructure:
    """Resolve spans to token indices and derive the edge topology.

    A span holds token ``(start, end)`` when the two share a character, the
    rule of ``Span.overlaps``; a zero-width token shares none.  Nodes whose
    span overlaps no token are dropped with a warning.  A
    missing or unresolvable sentiment span falls back to a pooled-sequence
    node so the hub always exists; GraphEmpty is raised only when no
    span-backed node survives at all.
    """
    resolved: dict[str, GraphNode] = {}
    for field, role in _FIELD_ROLE.items():
        span = getattr(opinion, field)
        if span is None:
            continue
        lo, hi = span.start, span.end
        indices = tuple(i for i, (start, end) in enumerate(seq)
                        if start < hi and lo < end and start < end)
        if not indices:
            log.warning("record %s: %s span [%d, %d) overlaps no token; node dropped",
                        record.id, role, span.start, span.end)
            continue
        resolved[role] = GraphNode(role=role, span=span, token_indices=indices)

    if not resolved:
        raise GraphEmpty(f"record {record.id}: no opinion span could be anchored to tokens")
    if "sentiment" not in resolved:
        log.info("record %s: sentiment span missing; using pooled sequence vector",
                 record.id)
        resolved["sentiment"] = GraphNode(role="sentiment", span=None, token_indices=())

    nodes = tuple(resolved[role] for role in ROLES if role in resolved)
    index = {node.role: i for i, node in enumerate(nodes)}

    edges: list[tuple[int, int]] = []
    for role, partner, fallback in STAR_TOPOLOGY:
        if role not in index:
            continue
        other = partner if partner in index else fallback
        if other is None or other not in index:
            continue
        edges.append((index[role], index[other]))
        edges.append((index[other], index[role]))

    return GraphStructure(nodes=nodes, edges=tuple(edges), polarity=opinion.polarity)


def build_subgraph(record: Record, index: int, seq: TokenSequence) -> OpinionGraph:
    """Opinion ``index``'s structure with its edge list and per-edge polarity ids.

    Built on the first call for this record object, ``seq`` and position;
    later calls return the same graph, or raise a new ``GraphEmpty`` with
    the first one's message.
    """
    kept = record.graphs.get(seq)
    if kept is None:
        kept = record.graphs[seq] = [None] * len(record.opinions)
    graph = kept[index]
    if graph is None:
        try:
            structure = build_structure(record, record.opinions[index], seq)
        except GraphEmpty as exc:
            graph = str(exc)  # the exception's traceback would pin its callers' frames
        else:
            edge_index = np.array(structure.edges, dtype=np.intp).reshape(-1, 2)
            polarity = np.full(len(edge_index), POLARITIES.index(structure.polarity), np.intp)
            edge_index.setflags(write=False)
            polarity.setflags(write=False)
            graph = OpinionGraph(structure, edge_index, polarity)
        kept[index] = graph
    if isinstance(graph, str):
        raise GraphEmpty(graph)
    return graph


def structure_to_json(record: Record, structures: list[GraphStructure]) -> dict:
    """Inspection/export form of a record's sub-graphs."""
    return {
        "id": record.id,
        "graphs": [
            {
                "polarity": s.polarity,
                "nodes": [
                    {
                        "role": n.role,
                        "span": None if n.span is None
                        else {"start": n.span.start, "end": n.span.end},
                        "token_indices": list(n.token_indices),
                    }
                    for n in s.nodes
                ],
                "edges": [list(e) for e in s.edges],
            }
            for s in structures
        ],
    }
