"""GATv2 layer against trivial cases and a dense masked-attention oracle."""

from dataclasses import replace

import numpy as np
import pytest

import opfuse.autodiff as ad
from opfuse.autodiff import ShapeError, Tape, Tensor
from opfuse.data import POLARITIES
from opfuse.gat import GatParams, aggregate_sentences, gat_layer, readout
from opfuse.graphs import GraphEmpty, PackedGraphs

from oracles import dense_gat_reference, max_rel_err, numeric_gradient


def manual_graph(features, edges, edge_polarity, requires_grad=False):
    """A one-graph pack of the given node features, edge list and edge polarity ids."""
    return PackedGraphs(features=Tensor(features, requires_grad=requires_grad),
                        edges=np.asarray(edges, dtype=np.intp).reshape(-1, 2),
                        edge_polarity=np.asarray(edge_polarity, dtype=np.intp),
                        node_graph=np.zeros(len(features), dtype=np.intp), num_graphs=1)


def union(graphs):
    """The disjoint union of one-graph packs, nodes and edges offset block by block."""
    sizes = [g.num_nodes for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1])
    return PackedGraphs(features=Tensor(np.concatenate([g.features.data for g in graphs])),
                        edges=np.concatenate([g.edges + off for g, off in zip(graphs, offsets)]),
                        edge_polarity=np.concatenate([g.edge_polarity for g in graphs]),
                        node_graph=np.repeat(np.arange(len(graphs)), sizes),
                        num_graphs=len(graphs))


def random_graph(rng, n_nodes=None, d_in=4, requires_grad=False):
    n = int(n_nodes if n_nodes is not None else rng.integers(1, 6))
    features = rng.standard_normal((n, d_in))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    n_edges = int(rng.integers(0, len(pairs) + 1)) if pairs else 0
    edges = pairs[:n_edges]
    polarity = [rng.integers(3) for _ in edges]
    return manual_graph(features, edges, polarity, requires_grad=requires_grad)


def params_for(d_in=4, d_out=3, heads=2, seed=0):
    return GatParams(d_in=d_in, d_out=d_out, heads=heads,
                     rng=np.random.default_rng(seed))


def test_single_node_output_is_target_transform():
    rng = np.random.default_rng(1)
    graph = manual_graph(rng.standard_normal((1, 4)), [], [])
    params = params_for(heads=2)
    out = gat_layer(graph, params)
    expected = np.concatenate(
        [graph.features.data @ params.theta_t.data[k].T for k in range(2)], axis=1)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_symmetric_two_node_graph_attention_half():
    features = np.tile([[1.0, -0.5, 2.0, 0.3]], (2, 1))
    # Both edges without an attribute, like the self-loops.
    graph = manual_graph(features, [(0, 1), (1, 0)], [len(POLARITIES)] * 2)
    params = params_for(heads=2)
    attention = []
    gat_layer(graph, params, collect_attention=attention)
    for _, _, alpha in attention:
        assert np.allclose(alpha, [0.5, 0.5])


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        graph = random_graph(rng)
        params = params_for(heads=3, seed=int(rng.integers(1 << 30)))
        attention = []
        gat_layer(graph, params, collect_attention=attention)
        for _, _, alpha in attention:
            assert abs(alpha.sum() - 1.0) < 1e-9


def check_against_dense_oracle(rng, trials, d_in, d_out):
    for trial in range(trials):
        heads = int(rng.integers(1, 4))
        graph = random_graph(rng, d_in=d_in)
        params = params_for(d_in=d_in, d_out=d_out, heads=heads,
                            seed=int(rng.integers(1 << 30)))
        out = gat_layer(graph, params).data
        ref = dense_gat_reference(
            graph.features.data, list(graph.edges), graph.edge_polarity,
            list(params.theta_s.data), list(params.theta_t.data),
            list(params.theta_e.data), list(params.attn.data),
            params.leaky_slope)
        assert np.max(np.abs(out - ref)) < 1e-9, f"trial {trial}"


def test_matches_dense_oracle_on_200_random_graphs():
    # d_in >= d_out: the layer sums the projected messages.
    check_against_dense_oracle(np.random.default_rng(3), 200, d_in=4, d_out=3)


@pytest.mark.parametrize("d_in, d_out", [(3, 5), (1, 2)])
def test_narrow_aggregation_matches_dense_oracle(d_in, d_out):
    # d_in < d_out: the layer sums the input rows and projects each node once.
    check_against_dense_oracle(np.random.default_rng(15), 100, d_in=d_in, d_out=d_out)


def test_packed_union_matches_dense_oracle_per_graph():
    rng = np.random.default_rng(12)
    for trial in range(60):
        graphs = [random_graph(rng) for _ in range(int(rng.integers(1, 9)))]
        packed = union(graphs)
        params = params_for(heads=int(rng.integers(1, 4)), seed=int(rng.integers(1 << 30)))
        attention = []
        out = gat_layer(packed, params, collect_attention=attention).data
        start = 0
        for graph in graphs:
            ref = dense_gat_reference(
                graph.features.data, list(graph.edges), graph.edge_polarity,
                list(params.theta_s.data), list(params.theta_t.data),
                list(params.theta_e.data), list(params.attn.data),
                params.leaky_slope)
            block = out[start:start + graph.num_nodes]
            assert np.max(np.abs(block - ref)) < 1e-9, f"trial {trial}"
            start += graph.num_nodes
        assert len(attention) == params.heads * packed.num_nodes
        for _, _, alpha in attention:
            assert abs(alpha.sum() - 1.0) < 1e-9


def test_packed_readout_sums_each_graph():
    rng = np.random.default_rng(13)
    graphs = [random_graph(rng, n_nodes=n) for n in (2, 1, 3)]
    packed = union(graphs)
    feats = Tensor(rng.standard_normal((6, 4)))
    out = readout(feats, packed).data
    assert np.allclose(out, [feats.data[0:2].sum(0), feats.data[2], feats.data[3:6].sum(0)])


def readout_both_ways(packed, params):
    """Readout of the last layer's shares, and of its per-node states."""
    shares = gat_layer(packed, params, readout_shares=True)
    return readout(shares, packed, params), readout(gat_layer(packed, params), packed)


@pytest.mark.parametrize("d_in, d_out", [(3, 5), (1, 2), (4, 3), (4, 4)],
                         ids=["narrow", "narrow-1", "wide", "square"])
def test_readout_shares_match_the_per_node_readout(d_in, d_out):
    rng = np.random.default_rng(16)
    for trial in range(40):
        # One-node graphs among them: a self-loop is their only edge.
        graphs = [random_graph(rng, d_in=d_in) for _ in range(int(rng.integers(1, 7)))]
        packed = union(graphs)
        packed = replace(packed, features=Tensor(packed.features.data, requires_grad=True))
        params = params_for(d_in=d_in, d_out=d_out, heads=int(rng.integers(1, 4)),
                            seed=int(rng.integers(1 << 30)))
        probe = rng.standard_normal((packed.num_graphs, params.out_width))
        grads = []
        for pooled in readout_both_ways(packed, params):
            with Tape() as tape:
                loss = ad.tsum(ad.mul(pooled, probe))
            grads.append(tape.backward(loss))
        ours, ref = readout_both_ways(packed, params)
        assert ours.shape == ref.shape == (packed.num_graphs, params.out_width)
        assert np.max(np.abs(ours.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data)), trial
        for name, t in {"features": packed.features, **params.parameters()}.items():
            ours, ref = grads[0].wrt(t), grads[1].wrt(t)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref)), (trial, name)


def test_readout_refuses_shares_of_the_wrong_width():
    rng = np.random.default_rng(17)
    graph = random_graph(rng, n_nodes=3, d_in=3)
    params = params_for(d_in=3, d_out=5)
    with pytest.raises(ShapeError):
        readout(gat_layer(graph, params), graph, params)


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        graph = random_graph(rng, n_nodes=n)
        params = params_for(heads=2, seed=int(rng.integers(1 << 30)))
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        features_p = graph.features.data[inv]
        # permuted node i corresponds to original node inv[i]
        edges_p = [(int(perm[src]), int(perm[dst])) for src, dst in graph.edges]
        graph_p = manual_graph(features_p, edges_p, graph.edge_polarity)
        out = gat_layer(graph, params).data
        out_p = gat_layer(graph_p, params).data
        assert np.allclose(out_p, out[inv], atol=1e-12)


def test_polarity_sensitivity():
    rng = np.random.default_rng(5)
    features = rng.standard_normal((3, 4))
    edges = [(1, 0), (0, 1), (2, 0), (0, 2)]
    pos, neg = [0] * 4, [1] * 4
    params = params_for(heads=2, seed=6)
    out_pos = gat_layer(manual_graph(features, edges, pos), params).data
    out_neg = gat_layer(manual_graph(features, edges, neg), params).data
    assert not np.allclose(out_pos, out_neg)


def test_width_mismatch_raises():
    graph = manual_graph(np.zeros((2, 5)), [(0, 1), (1, 0)], [0, 0])
    with pytest.raises(ShapeError):
        gat_layer(graph, params_for(d_in=4))
    # Readout shares of a narrow last layer must be heads · d_in wide.
    with pytest.raises(ShapeError):
        readout(graph.features, graph, params_for(d_in=2, d_out=3))


def check_gradients_reach_all_parameters_and_features(d_in, d_out):
    rng = np.random.default_rng(7)
    graph = random_graph(rng, n_nodes=3, d_in=d_in, requires_grad=True)
    while not len(graph.edges):
        graph = random_graph(rng, n_nodes=3, d_in=d_in, requires_grad=True)
    params = params_for(d_in=d_in, d_out=d_out, heads=2, seed=8)
    probe = Tensor(rng.standard_normal((3, params.out_width)))

    def forward():
        return ad.tsum(ad.mul(gat_layer(graph, params), probe))

    with Tape() as tape:
        loss = forward()
    grads = tape.backward(loss)

    targets = {"features": graph.features}
    targets.update(params.parameters())
    for name, tensor in targets.items():
        numeric = numeric_gradient(lambda: forward().item(), tensor)
        analytic = grads.wrt(tensor)
        assert max_rel_err(analytic, numeric) < 1e-4, name
        assert np.abs(analytic).max() > 0, f"no gradient reached {name}"


def test_gradients_reach_all_parameters_and_features():
    check_gradients_reach_all_parameters_and_features(d_in=4, d_out=3)


@pytest.mark.parametrize("d_in, d_out", [(3, 5), (4, 4)])
def test_gradients_reach_all_parameters_on_both_aggregation_paths(d_in, d_out):
    check_gradients_reach_all_parameters_and_features(d_in=d_in, d_out=d_out)


def test_readout_single_node_identity():
    rng = np.random.default_rng(9)
    graph = random_graph(rng, n_nodes=1)
    feats = Tensor(rng.standard_normal((1, 6)))
    assert np.allclose(readout(feats, graph).data, feats.data)


def test_readout_sums_nodes_and_is_permutation_invariant():
    rng = np.random.default_rng(10)
    graph = random_graph(rng, n_nodes=2)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    a = readout(Tensor(np.stack([u, v])), graph).data
    b = readout(Tensor(np.stack([v, u])), graph).data
    assert np.allclose(a, u + v)
    assert np.allclose(a, b)


def test_aggregate_single_graph_unchanged():
    vec = Tensor(np.arange(4.0).reshape(1, 4))
    out, flags = aggregate_sentences(vec, [0], 1, 4)
    assert np.allclose(out.data[0:1], vec.data)
    assert flags == [False]


def test_aggregate_two_graphs_mean():
    u = Tensor(np.array([[1.0, 3.0]]))
    v = Tensor(np.array([[5.0, 7.0]]))
    out, flags = aggregate_sentences(ad.concat([u, v]), [0, 0], 1, 2)
    assert np.allclose(out.data[0:1], [[3.0, 5.0]])
    assert flags == [False]


def test_aggregate_zero_graphs_zero_vector_flagged():
    out, flags = aggregate_sentences(Tensor(np.zeros((0, 5))), [], 1, 5)
    assert np.array_equal(out.data[0:1], np.zeros((1, 5)))
    assert flags == [True]


def test_aggregate_routes_by_mapping():
    u = Tensor(np.array([[1.0]]))
    v = Tensor(np.array([[2.0]]))
    w = Tensor(np.array([[4.0]]))
    out, flags = aggregate_sentences(ad.concat([u, v, w]), [0, 2, 2], 3, 1)
    assert np.allclose(out.data[0:1], [[1.0]])
    assert flags == [False, True, False]
    assert np.allclose(out.data[1:2], [[0.0]])
    assert np.allclose(out.data[2:3], [[3.0]])


def test_empty_graph_readout_raises():
    empty = manual_graph(np.zeros((0, 4)), [], [])
    with pytest.raises(GraphEmpty):
        gat_layer(empty, params_for())
    with pytest.raises(GraphEmpty):
        readout(empty.features, empty)
    with pytest.raises(GraphEmpty):
        gat_layer(empty, params_for(), readout_shares=True)
    with pytest.raises(GraphEmpty):
        readout(empty.features, empty, params_for())
