"""Opinion sub-graph construction: topology, fallbacks, packed node features, export."""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import opfuse.autodiff as ad
from opfuse.autodiff import Tensor
from opfuse.data import POLARITIES, OpinionAnnotation, Record, Span, load_corpus
from opfuse.encoder import (EncoderOutput, FileEncoder, ToyEncoder, tokenize,
                            write_encoder_states)
from opfuse.graphs import (ROLES, GraphEmpty, PackedGraphs, build_structure, build_subgraph,
                           structure_to_json)
import opfuse.graphs as graphs_mod
from opfuse.model import opinion_graphs
from opfuse.synthetic import make_planted_corpus

from oracles import span_pool

EXPORT_CORPUS = Path(__file__).parent / "data" / "export_corpus.jsonl"


def encoder_output(n_tokens, width=8, seed=0):
    rng = np.random.default_rng(seed)
    hidden = rng.standard_normal((n_tokens, width))
    return EncoderOutput(hidden=Tensor(hidden),
                         pooled=Tensor(hidden.mean(axis=0, keepdims=True)))


def pack_one(rec, opinion, enc, seq, role_embedding=None):
    """One opinion's graph and its one-graph pack over a single record's rows."""
    graph = build_subgraph(dataclasses.replace(rec, opinions=(opinion,)), 0, seq)
    token_rows = np.zeros(enc.hidden.shape[0], dtype=np.intp)
    return graph, PackedGraphs.pack([graph], [0], enc.hidden, enc.pooled, token_rows,
                                    role_embedding)


def span_over(seq, lo, hi):
    """Character span covering tokens lo..hi-1."""
    return Span(seq[lo][0], seq[hi - 1][1])


def test_full_opinion_five_nodes_eight_edges():
    text = "he says tesla price pump will dump soon imo"
    rec = Record(id="r", split="train", text=text, emotion="disgust")
    seq = tokenize(text)
    opinion = OpinionAnnotation(
        holder=span_over(seq, 0, 1),
        sentiment_expression=span_over(seq, 4, 5),
        target=span_over(seq, 2, 3),
        aspect_term=span_over(seq, 3, 4),
        qualifier=span_over(seq, 8, 9),
        polarity="negative")
    s = build_structure(rec, opinion, seq)
    assert len(s.nodes) == 5
    assert len(s.edges) == 8
    roles = {n.role: i for i, n in enumerate(s.nodes)}
    undirected = {frozenset(e) for e in s.edges}
    assert undirected == {
        frozenset((roles["holder"], roles["sentiment"])),
        frozenset((roles["target"], roles["sentiment"])),
        frozenset((roles["qualifier"], roles["sentiment"])),
        frozenset((roles["aspect"], roles["target"])),
    }
    # every undirected pair appears in both directions
    for src, dst in s.edges:
        assert (dst, src) in s.edges


def test_sentiment_only_single_node_no_edges():
    text = "mooning hard"
    rec = Record(id="r", split="train", text=text, emotion="excitement")
    seq = tokenize(text)
    opinion = OpinionAnnotation(sentiment_expression=span_over(seq, 0, 1),
                                polarity="positive")
    s = build_structure(rec, opinion, seq)
    assert len(s.nodes) == 1 and s.nodes[0].role == "sentiment"
    assert s.edges == ()


def test_holder_target_sentiment_example():
    text = "Tesla I'll buy back in and go Long at $190"
    rec = Record(id="r", split="train", text=text, emotion="optimism")
    seq = tokenize(text)
    opinion = OpinionAnnotation(
        holder=Span(6, 7),                     # "I"
        target=Span(0, 5),                     # "Tesla"
        sentiment_expression=Span(27, 34),     # "go Long"
        polarity="positive")
    graph = build_subgraph(dataclasses.replace(rec, opinions=(opinion,)), 0, seq)
    assert graph.num_nodes == 3
    assert graph.edge_index.tolist() == [list(e) for e in graph.structure.edges]
    assert len(graph.edge_index) == 4
    assert graph.edge_polarity.tolist() == [0] * 4   # POLARITIES[0] == "positive"


def test_aspect_attaches_to_sentiment_without_target():
    text = "battery life feels great"
    rec = Record(id="r", split="train", text=text, emotion="optimism")
    seq = tokenize(text)
    opinion = OpinionAnnotation(
        aspect_term=span_over(seq, 0, 2),
        sentiment_expression=span_over(seq, 3, 4),
        polarity="positive")
    s = build_structure(rec, opinion, seq)
    roles = {n.role: i for i, n in enumerate(s.nodes)}
    assert frozenset((roles["aspect"], roles["sentiment"])) in {frozenset(e) for e in s.edges}


def test_missing_sentiment_falls_back_to_pooled():
    text = "cash gang checking in"
    rec = Record(id="r", split="train", text=text, emotion="belief")
    seq = tokenize(text)
    opinion = OpinionAnnotation(holder=span_over(seq, 0, 2), polarity="neutral")
    enc = encoder_output(len(seq))
    graph, packed = pack_one(rec, opinion, enc, seq)
    roles = {n.role: i for i, n in enumerate(graph.structure.nodes)}
    sent = graph.structure.nodes[roles["sentiment"]]
    assert sent.span is None and sent.token_indices == ()
    assert np.allclose(packed.features.data[roles["sentiment"]],
                       enc.pooled.data.reshape(-1))


def test_unanchorable_span_dropped_with_warning(caplog):
    text = "ab  cd"
    rec = Record(id="r", split="train", text=text, emotion="anger")
    seq = tokenize(text)
    opinion = OpinionAnnotation(sentiment_expression=span_over(seq, 0, 1),
                                holder=Span(2, 4),  # inter-token whitespace
                                polarity="negative")
    with caplog.at_level("WARNING"):
        s = build_structure(rec, opinion, seq)
    assert [n.role for n in s.nodes] == ["sentiment"]
    assert any("dropped" in m for m in caplog.messages)


def test_all_spans_unanchorable_raises_graph_empty():
    text = "ab  cd"
    rec = Record(id="r", split="train", text=text, emotion="anger")
    seq = tokenize(text)
    opinion = OpinionAnnotation(holder=Span(2, 4), polarity="negative")
    with pytest.raises(GraphEmpty):
        build_structure(rec, opinion, seq)


def test_node_features_are_span_pools():
    text = "alpha beta gamma delta"
    rec = Record(id="r", split="train", text=text, emotion="optimism")
    seq = tokenize(text)
    opinion = OpinionAnnotation(
        holder=span_over(seq, 0, 1),
        sentiment_expression=span_over(seq, 1, 3),
        polarity="positive")
    enc = encoder_output(len(seq))
    graph, packed = pack_one(rec, opinion, enc, seq)
    roles = {n.role: i for i, n in enumerate(graph.structure.nodes)}
    assert np.allclose(packed.features.data[roles["holder"]], enc.hidden.data[0])
    assert np.allclose(packed.features.data[roles["sentiment"]],
                       enc.hidden.data[1:3].mean(axis=0))


def test_role_embedding_addition():
    text = "alpha beta"
    rec = Record(id="r", split="train", text=text, emotion="optimism")
    seq = tokenize(text)
    opinion = OpinionAnnotation(sentiment_expression=span_over(seq, 0, 1),
                                polarity="positive")
    enc = encoder_output(len(seq))
    role_table = Tensor(np.arange(40.0).reshape(5, 8), requires_grad=True)
    _, plain = pack_one(rec, opinion, enc, seq)
    _, with_roles = pack_one(rec, opinion, enc, seq, role_embedding=role_table)
    delta = with_roles.features.data - plain.features.data
    assert np.allclose(delta, role_table.data[1])  # sentiment is ROLES[1]


def test_alternative_edge_schema_is_data_driven(monkeypatch):
    # a fully sentiment-centered schema (aspect loses its target chain)
    schema = (("holder", "sentiment", None),
              ("target", "sentiment", None),
              ("qualifier", "sentiment", None),
              ("aspect", "sentiment", None))
    text = "he says tesla price pump will dump soon imo"
    rec = Record(id="r", split="train", text=text, emotion="disgust")
    seq = tokenize(text)
    opinion = OpinionAnnotation(
        holder=span_over(seq, 0, 1),
        sentiment_expression=span_over(seq, 4, 5),
        target=span_over(seq, 2, 3),
        aspect_term=span_over(seq, 3, 4),
        qualifier=span_over(seq, 8, 9),
        polarity="negative")
    default = build_structure(rec, opinion, seq)
    assert graphs_mod.STAR_TOPOLOGY[3] == ("aspect", "target", "sentiment")
    monkeypatch.setattr(graphs_mod, "STAR_TOPOLOGY", schema)
    s = build_structure(rec, opinion, seq)
    roles = {n.role: i for i, n in enumerate(s.nodes)}
    undirected = {frozenset(e) for e in s.edges}
    assert frozenset((roles["aspect"], roles["sentiment"])) in undirected
    assert frozenset((roles["aspect"], roles["target"])) not in undirected
    # the default schema chains aspect through target
    assert default.edges != s.edges


@pytest.mark.parametrize("with_roles", [False, True])
def test_packed_node_features_match_span_pool_oracle(with_roles):
    # The fixed corpus mixes opinion-free records (one with empty text, so
    # its single padding row has no token), fallback sentiment nodes,
    # dropped roles, a skipped opinion and multi-token spans.
    records = load_corpus(EXPORT_CORPUS).records
    encoder = ToyEncoder(width=8, layers=1, heads=2, vocab_buckets=64,
                         rng=np.random.default_rng(3))
    encoded = [encoder.encode_record(r) for r in records]
    rng = np.random.default_rng(4)
    role_table = Tensor(rng.standard_normal((len(ROLES), 8))) if with_roles else None
    graphs, owners = [], []
    for index, (record, (seq, _)) in enumerate(zip(records, encoded)):
        for position in range(len(record.opinions)):
            try:
                graphs.append(build_subgraph(record, position, seq))
            except GraphEmpty:
                continue
            owners.append(index)
    token_rows = np.repeat(np.arange(len(records)),
                           [out.hidden.shape[0] for _, out in encoded])
    packed = PackedGraphs.pack(graphs, owners, ad.concat([out.hidden for _, out in encoded]),
                               ad.concat([out.pooled for _, out in encoded]), token_rows,
                               role_table)

    expected, fallbacks = [], 0
    for graph, owner in zip(graphs, owners):
        seq, out = encoded[owner]
        for node in graph.structure.nodes:
            if node.span is None:
                fallbacks += 1
                row = out.pooled.data
            else:
                row = span_pool(out, seq, node.span).data
            if with_roles:
                row = row + role_table.data[ROLES.index(node.role)]
            expected.append(row)
    assert (len(graphs), sum(len(r.opinions) for r in records), fallbacks) == (8, 10, 2)
    assert np.max(np.abs(packed.features.data - np.concatenate(expected))) <= 1e-12

    sizes = [g.num_nodes for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1])
    assert packed.num_graphs == len(graphs)
    assert packed.node_graph.tolist() == np.repeat(np.arange(len(graphs)), sizes).tolist()
    assert packed.edges.tolist() == [[src + off, dst + off] for g, off in zip(graphs, offsets)
                                     for src, dst in g.structure.edges]
    assert packed.edge_polarity.tolist() == [
        POLARITIES.index(g.structure.polarity) for g in graphs for _ in g.structure.edges]


def test_edge_polarity_ids():
    text = "he says tesla will pump"
    rec = Record(id="r", split="train", text=text, emotion="optimism")
    seq = tokenize(text)
    assert POLARITIES == ("positive", "negative", "neutral")
    for index, polarity in enumerate(POLARITIES):
        opinion = OpinionAnnotation(holder=span_over(seq, 0, 1),
                                    sentiment_expression=span_over(seq, 4, 5),
                                    target=span_over(seq, 2, 3), polarity=polarity)
        graph = build_subgraph(dataclasses.replace(rec, opinions=(opinion,)), 0, seq)
        assert graph.edge_polarity.dtype == np.intp
        assert graph.edge_polarity.tolist() == [index] * 4


def test_zero_width_tokens_anchor_no_span():
    text = "buy the dip"
    rec = Record(id="r", split="train", text=text, emotion="optimism")
    # [CLS] at 0, an empty token inside "the", [SEP] at the end.
    seq = ((0, 0), (0, 3), (5, 5), (4, 7), (8, 11), (11, 11))
    opinion = OpinionAnnotation(holder=Span(0, 3), sentiment_expression=Span(4, 11),
                                polarity="positive")
    s = build_structure(rec, opinion, seq)
    assert [(n.role, n.token_indices) for n in s.nodes] == [
        ("holder", (1,)), ("sentiment", (3, 4))]
    with pytest.raises(GraphEmpty):
        build_structure(rec, OpinionAnnotation(holder=Span(4, 7)), ((0, 0), (5, 5)))


@pytest.mark.parametrize("corpus", ["planted", "export"])
def test_file_and_toy_providers_are_interchangeable(tmp_path, corpus):
    """A state file written from ``tokenize`` offsets gives the toy encoder's
    tokens, so every record gets the same sub-graph structures."""
    records = (make_planted_corpus(n_train=24, n_dev=8, n_test=8, seed=5).records
               if corpus == "planted" else load_corpus(EXPORT_CORPUS).records)
    rng = np.random.default_rng(6)
    entries = []
    for record in records:
        offsets = tokenize(record.text)
        hidden = rng.standard_normal((len(offsets), 8))
        entries.append((record.id, offsets, hidden, hidden.sum(axis=0)))
    path = tmp_path / "states.bin"
    write_encoder_states(path, entries)
    toy = ToyEncoder(width=8, layers=1, heads=2, vocab_buckets=64,
                     rng=np.random.default_rng(7))
    frozen = FileEncoder(path, width=8)
    for record in records:
        seqs = [encoder.encode_record(record)[0] for encoder in (toy, frozen)]
        assert seqs[0] == seqs[1], record.id
        # A copy of the record starts with no kept graphs, so each export builds its own.
        exports = [structure_to_json(record, [g.structure for g in
                                              opinion_graphs([copy.copy(record)], [seq])[0]])
                   for seq in seqs]
        assert exports[0] == exports[1], record.id


def test_structure_export_shape():
    text = "Tesla going up"
    rec = Record(id="rx", split="dev", text=text, emotion="optimism")
    seq = tokenize(text)
    opinion = OpinionAnnotation(target=Span(0, 5),
                                sentiment_expression=span_over(seq, 1, 3),
                                polarity="positive")
    s = build_structure(rec, opinion, seq)
    obj = structure_to_json(rec, [s])
    assert obj["id"] == "rx"
    g = obj["graphs"][0]
    assert g["polarity"] == "positive"
    assert {n["role"] for n in g["nodes"]} == {"sentiment", "target"}
    for node in g["nodes"]:
        assert node["token_indices"]
    assert sorted(map(tuple, g["edges"])) == sorted([(0, 1), (1, 0)]) or len(g["edges"]) == 2


def logging_record():
    """A record whose opinions drop a node, fall back for a missing sentiment
    span, and (the last) anchor no span at all."""
    text = "ab  cd ef"
    seq = tokenize(text)
    opinions = (OpinionAnnotation(sentiment_expression=span_over(seq, 0, 1),
                                  holder=Span(2, 4), polarity="negative"),
                OpinionAnnotation(target=span_over(seq, 1, 2), polarity="neutral"),
                OpinionAnnotation(holder=Span(2, 4), polarity="positive"))
    return Record(id="r", split="train", text=text, emotion="anger", opinions=opinions)


def test_a_graph_is_built_once_per_record_object_and_sequence(monkeypatch):
    builds = []
    build = graphs_mod.build_structure
    monkeypatch.setattr(graphs_mod, "build_structure",
                        lambda *args: builds.append(args[0].id) or build(*args))
    rec = logging_record()
    seq = tokenize(rec.text)
    first, owners = opinion_graphs([rec], [seq])
    again, _ = opinion_graphs([rec], [tokenize(rec.text)])  # an equal sequence
    assert len(builds) == 3 and owners == [0, 0]
    assert all(a is b for a, b in zip(first, again))
    for graph in first:
        with pytest.raises(AttributeError):
            graph.structure.edges = ()
        assert not graph.edge_index.flags.writeable
        assert not graph.edge_polarity.flags.writeable
    # The skipped opinion raises a new GraphEmpty with the first one's message.
    errors = []
    for _ in range(2):
        with pytest.raises(GraphEmpty) as err:
            build_subgraph(rec, 2, seq)
        errors.append(err.value)
    assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])
    assert str(errors[0]) == "record r: no opinion span could be anchored to tokens"
    assert len(builds) == 3
    # Another token sequence, or another record object, builds anew.
    opinion_graphs([rec], [((0, 0),) + seq])
    opinion_graphs([Record(**{f: getattr(rec, f) for f in ("id", "split", "text",
                                                            "emotion", "opinions")})],
                   [seq])
    assert len(builds) == 9


def test_a_second_pass_hashes_no_opinion_and_builds_nothing(monkeypatch):
    """A kept graph is found by token sequence and opinion position alone."""
    rec = logging_record()
    seq = tokenize(rec.text)
    first, _ = opinion_graphs([rec], [seq])
    hashes, builds = [], []
    opinion_hash = OpinionAnnotation.__hash__
    monkeypatch.setattr(OpinionAnnotation, "__hash__",
                        lambda self: hashes.append(self) or opinion_hash(self))
    monkeypatch.setattr(graphs_mod, "build_structure", lambda *args: builds.append(args))
    again, owners = opinion_graphs([rec], [seq])
    assert owners == [0, 0] and all(a is b for a, b in zip(first, again))
    errors = []
    for _ in range(2):
        with pytest.raises(GraphEmpty) as err:
            build_subgraph(rec, 2, seq)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1]) == rec.graphs[seq][2] == (
        "record r: no opinion span could be anchored to tokens")
    assert hashes == [] and builds == []


def test_equal_opinions_keep_a_graph_each(monkeypatch):
    builds = []
    build = graphs_mod.build_structure
    monkeypatch.setattr(graphs_mod, "build_structure",
                        lambda *args: builds.append(args[1]) or build(*args))
    text = "tesla will pump"
    seq = tokenize(text)
    opinion = OpinionAnnotation(target=span_over(seq, 0, 1),
                                sentiment_expression=span_over(seq, 2, 3), polarity="positive")
    rec = Record(id="r", split="train", text=text, emotion="optimism",
                 opinions=(opinion, opinion))
    graphs, owners = opinion_graphs([rec], [seq])
    assert owners == [0, 0] and builds == [opinion, opinion]
    assert rec.graphs[seq] == graphs and graphs[0] is not graphs[1]
    assert graphs[0].structure == graphs[1].structure


def test_span_warnings_log_once_per_record_and_sequence_skips_on_every_forward(caplog):
    """The dropped-node warning and the missing-sentiment note come from the
    one build; the skipped opinion is reported by every forward."""
    rec = logging_record()
    seq = tokenize(rec.text)
    with caplog.at_level("INFO", logger="opfuse"):
        for _ in range(3):
            opinion_graphs([rec], [seq])
    messages = caplog.messages
    assert sum("overlaps no token; node dropped" in m for m in messages) == 2  # 2 opinions
    assert sum("sentiment span missing" in m for m in messages) == 1
    assert sum("skipping opinion graph" in m for m in messages) == 3
