"""Per-opinion sub-graphs: typed span nodes joined by polarity-carrying edges.

Topology is a sentiment-centered star: holder, target and qualifier attach
to the sentiment node; the aspect attaches to the target when present and
to the sentiment node otherwise.  All edges are bidirectional and carry the
opinion's polarity as a one-hot attribute; the implicit self-loop added by
the attention layer carries a zero attribute instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import POLARITIES, OpinionAnnotation, Record, Span
from .encoder import EncoderOutput, TokenSequence

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
# linked bidirectionally when both endpoints exist.  Alternative schemas can
# be passed to build_structure/build_subgraph for experimentation.
EdgeSchema = tuple[tuple[str, str, Optional[str]], ...]
STAR_TOPOLOGY: EdgeSchema = (
    ("holder", "sentiment", None),
    ("target", "sentiment", None),
    ("qualifier", "sentiment", None),
    ("aspect", "target", "sentiment"),
)


class GraphEmpty(Exception):
    """No span-backed node survived construction."""


def polarity_one_hot(polarity: str) -> np.ndarray:
    vec = np.zeros(len(POLARITIES))
    vec[POLARITIES.index(polarity)] = 1.0
    return vec


@dataclass(frozen=True)
class GraphNode:
    role: str
    span: Optional[Span]                 # None for the pooled-sequence fallback
    token_indices: tuple[int, ...]       # empty for the fallback node


@dataclass
class GraphStructure:
    """Feature-independent description of one opinion sub-graph."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[int, int], ...]
    polarity: str

    def __post_init__(self):
        roles = [n.role for n in self.nodes]
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate roles in graph: {roles}")
        if "sentiment" not in roles:
            raise ValueError("every opinion graph needs a sentiment node")
        for src, dst in self.edges:
            if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
                raise ValueError(f"edge ({src}, {dst}) outside node range")


@dataclass
class OpinionGraph:
    structure: GraphStructure
    features: Tensor        # (|V|, d)
    edge_attr: Tensor       # (|E|, 3) polarity one-hots, constant

    num_graphs = 1

    @property
    def num_nodes(self) -> int:
        return len(self.structure.nodes)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.structure.edges

    @property
    def node_graph(self) -> np.ndarray:
        return np.zeros(self.num_nodes, dtype=np.intp)


@dataclass(frozen=True)
class PackedGraphs:
    """Disjoint union of opinion graphs, read by GAT like one ``OpinionGraph``.

    Graph ``g``'s nodes are a contiguous block of rows; its edges are
    offset to that block, and ``node_graph`` maps every node to ``g``.
    """

    features: Tensor        # (sum |V|, d)
    edges: np.ndarray       # (sum |E|, 2) node indices into the packed rows
    edge_attr: Tensor       # (sum |E|, 3)
    node_graph: np.ndarray  # (sum |V|,) owning graph of each node
    num_graphs: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_graph)

    @classmethod
    def pack(cls, graphs: Sequence[OpinionGraph]) -> "PackedGraphs":
        sizes = [g.num_nodes for g in graphs]
        offsets = np.cumsum([0] + sizes[:-1])
        edges = [np.asarray(g.edges, dtype=np.intp).reshape(-1, 2) + off
                 for g, off in zip(graphs, offsets)]
        return cls(features=ad.concat([g.features for g in graphs], axis=0),
                   edges=np.concatenate(edges, axis=0),
                   edge_attr=ad.concat([g.edge_attr for g in graphs], axis=0),
                   node_graph=np.repeat(np.arange(len(graphs)), sizes),
                   num_graphs=len(graphs))


def build_structure(record: Record, opinion: OpinionAnnotation,
                    seq: TokenSequence,
                    edge_schema: EdgeSchema = STAR_TOPOLOGY) -> GraphStructure:
    """Resolve spans to token indices and derive the edge topology.

    Nodes whose span overlaps no token are dropped with a warning.  A
    missing or unresolvable sentiment span falls back to a pooled-sequence
    node so the hub always exists; GraphEmpty is raised only when no
    span-backed node survives at all.
    """
    resolved: dict[str, GraphNode] = {}
    for field, role in _FIELD_ROLE.items():
        span = getattr(opinion, field)
        if span is None:
            continue
        indices = tuple(i for i, tok in enumerate(seq) if tok.span.overlaps(span))
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
    for role, partner, fallback in edge_schema:
        if role not in index:
            continue
        other = partner if partner in index else fallback
        if other is None or other not in index:
            continue
        edges.append((index[role], index[other]))
        edges.append((index[other], index[role]))

    return GraphStructure(nodes=nodes, edges=tuple(edges), polarity=opinion.polarity)


def build_subgraph(record: Record, opinion: OpinionAnnotation, enc: EncoderOutput,
                   seq: TokenSequence,
                   role_embedding: Tensor | None = None,
                   edge_schema: EdgeSchema = STAR_TOPOLOGY) -> OpinionGraph:
    """Attach span-pooled features (plus optional role embeddings) to the structure.

    A span node's feature is the mean hidden state over its token indices;
    the fallback node takes the pooled sequence vector, stored as the last
    row of the pooling source.
    """
    structure = build_structure(record, opinion, seq, edge_schema=edge_schema)
    n_tokens = enc.hidden.shape[0]
    pool = np.zeros((len(structure.nodes), n_tokens + 1))
    for row, node in zip(pool, structure.nodes):
        if node.span is None:
            row[n_tokens] = 1.0
        else:
            row[list(node.token_indices)] = 1.0 / len(node.token_indices)
    features = ad.matmul(pool, ad.concat([enc.hidden, enc.pooled], axis=0))
    if role_embedding is not None:
        features = ad.add(features, ad.gather_rows(
            role_embedding, [ROLES.index(node.role) for node in structure.nodes]))
    one_hot = polarity_one_hot(structure.polarity)
    edge_attr = Tensor(np.tile(one_hot, (len(structure.edges), 1))
                       if structure.edges else np.zeros((0, len(POLARITIES))))
    return OpinionGraph(structure=structure, features=features, edge_attr=edge_attr)


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
