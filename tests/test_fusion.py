"""Fusion strategies, residual, classifier head, and the nesting property."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfuse.autodiff as ad
from opfuse.autodiff import Tape, Tensor
from opfuse.checkpoint import load_checkpoint, restore_into, save_checkpoint
from opfuse.data import Record, Span, OpinionAnnotation
from opfuse.fusion import ClassifierHead, FusionParams, fuse, residual
from opfuse.gat import gat_layer, readout
from opfuse.graphs import PackedGraphs
from opfuse.model import (EncoderConfig, FusionConfig, GatConfig, ModelConfig,
                          OpinionFusionModel, OptimizerConfig, opinion_graphs)

from oracles import max_rel_err, numeric_gradient

D = 4


def make_params(fusion_type, seed=0):
    return FusionParams(fusion_type, d=D, graph_width=6,
                        rng=np.random.default_rng(seed))


def vec(values):
    return Tensor(np.asarray(values, dtype=float).reshape(1, -1))


def test_gate_zero_weights_averages_inputs():
    params = make_params("gate")
    params.weight.write_rows(..., np.zeros((2 * D, D)))
    params.bias.write_rows(..., np.zeros((1, D)))
    h_seq = vec([1.0, 2.0, 3.0, 4.0])
    h_graph = vec([5.0, 6.0, 7.0, 8.0])
    out = fuse(h_seq, h_graph, Tensor(np.zeros((2, D))), params, [0, 0])
    assert np.allclose(out.data, (h_seq.data + h_graph.data) / 2)


def test_cat_zero_weight_returns_bias():
    params = make_params("cat")
    params.weight.write_rows(..., np.zeros((2 * D, D)))
    params.bias.write_rows(..., np.array([[9.0, 8.0, 7.0, 6.0]]))
    out = fuse(vec([1, 2, 3, 4]), vec([5, 6, 7, 8]), Tensor(np.zeros((2, D))), params,
               [0, 0])
    assert np.allclose(out.data, [[9.0, 8.0, 7.0, 6.0]])


def test_attn_single_token_returns_that_token():
    params = make_params("attn")
    token = np.array([[0.5, -1.0, 2.0, 0.0]])
    out = fuse(vec([1, 1, 1, 1]), vec([3, 0, 0, 0]), Tensor(token), params, [0])
    assert np.allclose(out.data, token)


def test_attn_is_convex_combination_of_tokens():
    params = make_params("attn")
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((5, D))
    out = fuse(vec(rng.standard_normal(D)), vec(rng.standard_normal(D)),
               Tensor(tokens), params, [0] * 5).data.reshape(-1)
    lo = tokens.min(axis=0) - 1e-12
    hi = tokens.max(axis=0) + 1e-12
    assert ((out >= lo) & (out <= hi)).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gate_strictly_inside_unit_interval(seed):
    rng = np.random.default_rng(seed)
    params = FusionParams("gate", d=D, graph_width=6, rng=rng)
    h_seq = Tensor(rng.standard_normal((1, D)))
    h_graph = Tensor(rng.standard_normal((1, D)))
    joined = np.concatenate([h_seq.data, h_graph.data], axis=1)
    gate = 1.0 / (1.0 + np.exp(-(joined @ params.weight.data + params.bias.data)))
    assert (gate > 0.0).all() and (gate < 1.0).all()


def test_residual_formula():
    h_seq = vec([2.0])
    assert np.allclose(residual(h_seq, vec([7.0]), 0.0).data, [[2.0]])
    assert np.allclose(residual(h_seq, vec([0.0]), 1.0).data, [[2.0]])
    assert np.allclose(residual(vec([2.0]), vec([4.0]), 0.5).data, [[4.0]])


def test_classifier_head_affine():
    head = ClassifierHead(D, 12, rng=np.random.default_rng(0))
    head.weight.write_rows(..., np.zeros((D, 12)))
    head.bias.write_rows(..., np.arange(12.0).reshape(1, 12))
    assert np.allclose(head(vec([1, 2, 3, 4])).data, np.arange(12.0).reshape(1, 12))
    head.bias.write_rows(..., np.zeros((1, 12)))
    rng = np.random.default_rng(1)
    head.weight.write_rows(..., rng.standard_normal((D, 12)))
    h = vec(rng.standard_normal(D))
    assert np.allclose(head(ad.mul(h, 2.0)).data, 2.0 * head(h).data)


@pytest.mark.parametrize("batch", [1, 7, 32, 64])
def test_head_rows_match_single_row_calls_bit_for_bit(batch):
    rng = np.random.default_rng(batch)
    head = ClassifierHead(64, 12, rng=rng)
    head.bias.write_rows(..., rng.standard_normal((1, 12)))
    h = rng.standard_normal((batch, 64))
    rows = head(Tensor(h)).data
    single = np.concatenate([head(Tensor(h[i:i + 1])).data for i in range(batch)])
    assert rows.shape == (batch, 12)
    assert rows.tobytes() == single.tobytes()


def test_argmax_invariant_to_constant_logit_shift():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal(12)
    assert np.argmax(logits) == np.argmax(logits + 123.456)


def tiny_config(fusion_type="cat", architecture="fused", alpha_res=0.5, seed=0):
    return ModelConfig(
        architecture=architecture,
        encoder=EncoderConfig(provider="toy", width=8, layers=1, heads=2,
                              vocab_buckets=16),
        gat=GatConfig(out_dim=4, heads=2, depth=1),
        fusion=FusionConfig(type=fusion_type, alpha_res=alpha_res),
        optimizer=OptimizerConfig(learning_rate=1e-3, batch_size=8, epochs=1,
                                  patience=1),
        seed=seed,
    )


def tiny_records():
    # Spans are spread over distinct tokens so node features stay diverse;
    # near-identical features make Theta_s cancel out of the softmax and
    # leave it with a degenerate (zero) gradient.
    text_a = "bulls charge hard while bears panic sell everything today"
    rec_a = Record(
        id="a", split="train", text=text_a, emotion="optimism",
        opinions=(OpinionAnnotation(holder=Span(0, 5),
                                    sentiment_expression=Span(6, 17),
                                    target=Span(24, 29),
                                    qualifier=Span(30, 40),
                                    polarity="positive"),))
    text_b = "i dumped my shares because earnings looked grim regarding guidance"
    rec_b = Record(
        id="b", split="train", text=text_b, emotion="anxiety",
        opinions=(OpinionAnnotation(holder=Span(0, 1),
                                    sentiment_expression=Span(2, 8),
                                    target=Span(12, 18),
                                    aspect_term=Span(27, 35),
                                    qualifier=Span(44, 48),
                                    polarity="negative"),))
    return [rec_a, rec_b]


@pytest.mark.parametrize("fusion_type, role_embedding",
                         [("cat", False), ("gate", False), ("attn", False), ("gate", True)],
                         ids=["cat", "gate", "attn", "gate-role-embedding"])
def test_end_to_end_gradients_match_finite_differences(fusion_type, role_embedding):
    config = tiny_config(fusion_type)
    config.gat.role_embedding = role_embedding
    model = OpinionFusionModel(config, rng=np.random.default_rng(0))
    records = tiny_records()
    labels = [0, 1]

    def forward():
        return ad.cross_entropy(model.forward_batch(records), labels)

    with Tape() as tape:
        loss = forward()
    grads = tape.backward(loss)

    for name, tensor in model.parameters().items():
        analytic = grads.wrt(tensor)
        # guard against a degenerate instance: every parameter must
        # actually influence the loss here for the check to mean anything
        assert np.abs(analytic).max() > 1e-5, f"degenerate gradcheck for {name}"
        numeric = numeric_gradient(lambda: forward().item(), tensor)
        assert max_rel_err(analytic, numeric) < 1e-4, name


def test_nesting_alpha_zero_matches_text_only_bit_exact(tmp_path):
    records = tiny_records()
    fused = OpinionFusionModel(tiny_config("gate", alpha_res=0.0),
                               rng=np.random.default_rng(21))
    ckpt_path = tmp_path / "nesting.ckpt"
    save_checkpoint(ckpt_path, fused.parameters())
    baseline = OpinionFusionModel(tiny_config("gate", architecture="text_only"),
                                  rng=np.random.default_rng(99))
    stored = load_checkpoint(ckpt_path)
    baseline_params = baseline.parameters()
    restore_into(baseline_params, {name: stored[name] for name in baseline_params})
    fused_logits = fused.forward_batch(records).data
    baseline_logits = np.concatenate(
        [baseline.forward_batch([r]).data for r in records], axis=0)
    assert fused_logits.tobytes() == baseline_logits.tobytes()


def graph_vectors(model, records):
    """The model's graph vectors for ``records``."""
    encoded = [model.encoder.encode_record(r) for r in records]
    token_rows = np.repeat(np.arange(len(records)),
                           [out.hidden.shape[0] for _, out in encoded])
    return model.graph_vectors(records, [seq for seq, _ in encoded],
                               ad.concat([out.hidden for _, out in encoded]),
                               ad.concat([out.pooled for _, out in encoded]), token_rows)


def test_opinion_free_record_flows_through():
    config = tiny_config("cat")
    model = OpinionFusionModel(config, rng=np.random.default_rng(5))
    bare = Record(id="n", split="train", text="flat day nothing happening",
                  emotion="ambiguous")
    logits = model.forward_batch([bare])
    assert logits.shape == (1, 12)
    # zero graph vector: fused branch sees exactly zeros for the graph side
    graph_vecs = graph_vectors(model, [bare])
    assert np.array_equal(graph_vecs.data, np.zeros((1, model.graph_width)))


def mixed_batch():
    """Records with 0-3 opinions, pooled-fallback sentiment nodes, dropped
    roles, and one opinion that no token anchors (skipped)."""
    text = "he says tesla price pump will dump  soon imo"
    full = OpinionAnnotation(holder=Span(0, 2), sentiment_expression=Span(19, 23),
                             target=Span(8, 13), aspect_term=Span(14, 19),
                             qualifier=Span(41, 44), polarity="negative")
    fallback = OpinionAnnotation(holder=Span(3, 7), target=Span(8, 13),
                                 polarity="positive")
    dropped = OpinionAnnotation(holder=Span(34, 35), sentiment_expression=Span(29, 33),
                                polarity="neutral")
    unanchored = OpinionAnnotation(holder=Span(34, 35), polarity="negative")
    opinion_sets = [(full,), (), (fallback, dropped), (unanchored,),
                    (dropped, unanchored, full), (), (fallback,)]
    return [Record(id=f"m{i}", split="train", text=text, emotion="optimism",
                   opinions=ops) for i, ops in enumerate(opinion_sets)]


@pytest.mark.parametrize("fusion_type", ["cat", "gate", "attn"])
@pytest.mark.parametrize("depth", [1, 2])
def test_forward_batch_matches_single_record_forward(fusion_type, depth):
    config = tiny_config(fusion_type)
    config.gat.depth = depth
    config.gat.role_embedding = True
    model = OpinionFusionModel(config, rng=np.random.default_rng(17))
    records = mixed_batch()
    batch = model.forward_batch(records).data
    single = np.concatenate([model.forward_batch([r]).data for r in records], axis=0)
    assert np.max(np.abs(batch - single)) <= 1e-10 * np.max(np.abs(single))
    # Exactly the records without an anchored opinion get a zero graph vector.
    graph_vecs = graph_vectors(model, records)
    assert [not row.any() for row in graph_vecs.data] == [False, True, False, True,
                                                           False, True, False]


@pytest.mark.parametrize("depth", [1, 2])
def test_forward_batch_matches_single_record_forward_on_narrow_inputs(depth):
    # GAT 16 wide over width-8 tokens: layer 0 sums its narrower input rows,
    # layer 1 (32 wide in) its projected messages.
    config = tiny_config("gate")
    config.gat.out_dim, config.gat.depth, config.gat.role_embedding = 16, depth, True
    model = OpinionFusionModel(config, rng=np.random.default_rng(18))
    assert [layer.d_in < layer.d_out for layer in model.gat_layers] == [True, False][:depth]
    records = mixed_batch()
    batch = model.forward_batch(records).data
    single = np.concatenate([model.forward_batch([r]).data for r in records], axis=0)
    assert np.max(np.abs(batch - single)) <= 1e-10 * np.max(np.abs(single))


@pytest.mark.parametrize("architecture", ["fused", "text_only"])
def test_an_empty_batch_raises_shape_error_and_predicts_nothing(architecture):
    model = OpinionFusionModel(tiny_config(architecture=architecture),
                               rng=np.random.default_rng(0))
    with pytest.raises(ad.ShapeError, match="forward_batch needs at least one record"):
        model.forward_batch([])
    assert model.predict([]) == []


def graph_readouts(model, records, readout_shares):
    """Each opinion graph's readout after every GAT layer: the last layer run
    for its readout shares, or per node as every earlier layer is."""
    encoded = [model.encoder.encode_record(r) for r in records]
    graphs, owners = opinion_graphs(records, [seq for seq, _ in encoded])
    token_rows = np.repeat(np.arange(len(records)),
                           [out.hidden.shape[0] for _, out in encoded])
    packed = PackedGraphs.pack(graphs, owners, ad.concat([out.hidden for _, out in encoded]),
                               ad.concat([out.pooled for _, out in encoded]), token_rows,
                               model.role_embedding)
    *inner, last = model.gat_layers
    for layer in inner:
        packed = replace(packed, features=gat_layer(packed, layer))
    if readout_shares:
        return readout(gat_layer(packed, last, readout_shares=True), packed, last), graphs
    return readout(gat_layer(packed, last), packed), graphs


@pytest.mark.parametrize("role_embedding", [False, True], ids=["roles-off", "roles-on"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("out_dim", [16, 4], ids=["narrow-first", "wide"])
def test_last_layer_readout_shares_match_the_per_node_path(out_dim, depth, role_embedding):
    config = tiny_config("gate")
    config.gat.out_dim, config.gat.depth, config.gat.role_embedding = (out_dim, depth,
                                                                        role_embedding)
    model = OpinionFusionModel(config, rng=np.random.default_rng(19))
    # Width-8 tokens: a 16-wide layer 0 is narrow, every 4-wide layer and
    # every deeper layer wide.
    assert ([layer.d_in < layer.d_out for layer in model.gat_layers]
            == [out_dim > 8, False][:depth])
    records = mixed_batch()
    probe = np.random.default_rng(20).standard_normal((6, model.graph_width))
    results = []
    for shares in (True, False):
        with Tape() as tape:
            pooled, graphs = graph_readouts(model, records, shares)
            loss = ad.tsum(ad.mul(pooled, probe))
        results.append((pooled.data, tape.backward(loss)))
    # One-node graphs (a self-loop only) and pooled fallback nodes are in the batch.
    assert len(graphs) == 6 and min(g.num_nodes for g in graphs) == 1
    assert any(node.span is None for g in graphs for node in g.structure.nodes)
    (ours, our_grads), (ref, ref_grads) = results
    assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))
    for name, param in model.parameters().items():
        if name.startswith(("gat.", "role_embedding", "encoder.")):
            ours, ref = our_grads.wrt(param), ref_grads.wrt(param)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_exactly_one_fusion_branch_is_parameterized():
    for fusion_type in ("cat", "gate"):
        params = make_params(fusion_type)
        names = set(params.parameters())
        assert f"fusion.{fusion_type}.weight" in names
        assert len(names) == 3  # projection + weight + bias
    attn = make_params("attn")
    assert set(attn.parameters()) == {"fusion.graph_projection"}
