"""Acceptance gate: one test per acceptance criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a FAIL surfaces as an ordinary test failure).
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest

import opfuse.autodiff as ad
from opfuse.autodiff import Tape, Tensor
from opfuse.checkpoint import load_checkpoint, restore_into, save_checkpoint
from opfuse.cli import main as cli_main
from opfuse.data import EMOTIONS, OpinionAnnotation, Record, Span, default_label_map
from opfuse.evaluation import Prediction, aggregate, f1_report
from opfuse.gat import GatParams, gat_layer
from opfuse.graphs import PackedGraphs
from opfuse.model import (EncoderConfig, FusionConfig, GatConfig, ModelConfig,
                          OpinionFusionModel, OptimizerConfig)
from opfuse.stats import chi_square_sf, mcnemar, pair_predictions, stuart_maxwell_table
from opfuse.synthetic import chance_rate, make_planted_corpus, make_reference_corpus
from opfuse.train import train_model
from opfuse.data import dump_corpus

from oracles import dense_gat_reference, max_rel_err, numeric_gradient
from test_stats import paired_from_counts

mpmath.mp.dps = 30


def report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def grad_records():
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


def grad_config(fusion_type):
    return ModelConfig(
        architecture="fused",
        encoder=EncoderConfig(provider="toy", width=8, layers=1, heads=2,
                              vocab_buckets=16),
        gat=GatConfig(out_dim=4, heads=2, depth=1),
        fusion=FusionConfig(type=fusion_type, alpha_res=0.5),
        optimizer=OptimizerConfig(learning_rate=1e-3, batch_size=8, epochs=1,
                                  patience=1),
        seed=0,
    )


def manual_graph(features, edges, edge_polarity, requires_grad=False):
    return PackedGraphs(features=Tensor(features, requires_grad=requires_grad),
                        edges=np.asarray(edges, dtype=np.intp).reshape(-1, 2),
                        edge_polarity=np.asarray(edge_polarity, dtype=np.intp),
                        node_graph=np.zeros(len(features), dtype=np.intp), num_graphs=1)


def random_graph(rng, d_in=4, requires_grad=False):
    n = int(rng.integers(1, 6))
    features = rng.standard_normal((n, d_in))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    edges = pairs[:int(rng.integers(0, len(pairs) + 1))] if pairs else []
    polarity = [rng.integers(3) for _ in edges]
    return manual_graph(features, edges, polarity, requires_grad=requires_grad)


def test_acceptance_gradient_suite():
    """Core primitives, the GATv2 layer, all fusion types, and the full model
    match central finite differences within 1e-4 relative, in under 2 min."""
    started = time.time()
    rng = np.random.default_rng(0)

    # core primitives on randomized small shapes
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    probes = {}
    builders = {
        "matmul": lambda: ad.matmul(x, w),
        "add": lambda: ad.add(x, y),
        "mul": lambda: ad.mul(x, y),
        "leaky_relu": lambda: ad.leaky_relu(x, 0.2),
        "sigmoid": lambda: ad.sigmoid(x),
        "softmax": lambda: ad.softmax(x, axis=1),
        "mean": lambda: ad.tmean(x, axis=0, keepdims=True),
        "gather": lambda: ad.gather_rows(x, [1, 1, 2]),
        "concat": lambda: ad.concat([x, y], axis=0),
        "cross_entropy": lambda: ad.cross_entropy(ad.matmul(x, w), [0, 1, 1]),
    }
    for name, build in builders.items():
        probes[name] = Tensor(rng.standard_normal(build().shape))

        def scalar(build=build, probe=probes[name]):
            out = build()
            return out if out.shape == () else ad.tsum(ad.mul(out, probe))

        with Tape() as tape:
            loss = scalar()
        grads = tape.backward(loss)
        for t in (x, y, w):
            if t in grads:
                numeric = numeric_gradient(lambda: scalar().item(), t)
                assert max_rel_err(grads.wrt(t), numeric) < 1e-4, name

    # GATv2 layer: parameters and node features.  This instance is screened
    # to be non-degenerate: with unlucky draws, a whole neighborhood can
    # land on one LeakyReLU branch, cancelling Theta_s out of the softmax
    # and leaving a structurally zero gradient that finite differences
    # cannot resolve above their noise floor.
    gat_rng = np.random.default_rng(19)
    graph = manual_graph(gat_rng.standard_normal((3, 4)),
                         [(0, 1), (1, 0), (2, 0), (0, 2)],
                         [1] * 4, requires_grad=True)
    params = GatParams(4, 3, 2, rng=np.random.default_rng(119))
    probe = Tensor(gat_rng.standard_normal((3, params.out_width)))

    def gat_scalar():
        return ad.tsum(ad.mul(gat_layer(graph, params), probe))

    with Tape() as tape:
        loss = gat_scalar()
    grads = tape.backward(loss)
    for name, tensor in {"features": graph.features, **params.parameters()}.items():
        analytic = grads.wrt(tensor)
        assert np.abs(analytic).max() > 1e-5, f"degenerate instance: {name}"
        numeric = numeric_gradient(lambda: gat_scalar().item(), tensor)
        assert max_rel_err(analytic, numeric) < 1e-4, name

    # full model end to end, each fusion type, 2-example batch
    for fusion_type in ("cat", "gate", "attn"):
        model = OpinionFusionModel(grad_config(fusion_type),
                                   rng=np.random.default_rng(0))
        records = grad_records()

        def forward():
            return ad.cross_entropy(model.forward_batch(records), [0, 1])

        with Tape() as tape:
            loss = forward()
        grads = tape.backward(loss)
        for name, tensor in model.parameters().items():
            analytic = grads.wrt(tensor)
            assert np.abs(analytic).max() > 1e-5, f"degenerate instance: {name}"
            numeric = numeric_gradient(lambda: forward().item(), tensor)
            assert max_rel_err(analytic, numeric) < 1e-4, (fusion_type, name)

    elapsed = time.time() - started
    assert elapsed < 120.0
    report("gradient-suite", f"{elapsed:.1f}s")


def test_acceptance_gat_oracle():
    """gat_layer equals a dense masked-attention reference within 1e-9 on 200
    random graphs of <=5 nodes; attention rows sum to 1 within 1e-9."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        heads = int(rng.integers(1, 4))
        graph = random_graph(rng)
        params = GatParams(4, 3, heads, rng=np.random.default_rng(int(rng.integers(1 << 30))))
        attention = []
        out = gat_layer(graph, params, collect_attention=attention).data
        ref = dense_gat_reference(
            graph.features.data, list(graph.edges), graph.edge_polarity,
            list(params.theta_s.data), list(params.theta_t.data),
            list(params.theta_e.data), list(params.attn.data),
            params.leaky_slope)
        worst = max(worst, float(np.max(np.abs(out - ref))))
        assert np.max(np.abs(out - ref)) < 1e-9
        for _, _, alpha in attention:
            assert abs(alpha.sum() - 1.0) < 1e-9
    report("gat-oracle", f"max deviation {worst:.2e}")


def test_acceptance_nesting(tmp_path):
    """alpha_res = 0 makes the fused model's logits bit-identical to the
    text-only baseline on the same checkpointed encoder and head."""
    records = grad_records()
    config = grad_config("gate")
    config.fusion.alpha_res = 0.0
    fused = OpinionFusionModel(config, rng=np.random.default_rng(3))
    ckpt_path = tmp_path / "nesting.ckpt"
    save_checkpoint(ckpt_path, fused.parameters())

    text_config = grad_config("gate")
    text_config.architecture = "text_only"
    baseline = OpinionFusionModel(text_config, rng=np.random.default_rng(99))
    stored = load_checkpoint(ckpt_path)
    baseline_params = baseline.parameters()
    restore_into(baseline_params,
                 {name: stored[name] for name in baseline_params})

    fused_logits = fused.forward_batch(records).data
    baseline_logits = baseline.forward_batch(records).data
    assert fused_logits.tobytes() == baseline_logits.tobytes()
    report("nesting", "bit-identical logits")


MCNEMAR_P_MAX = 1e-6


def test_acceptance_planted_signal():
    """On >=2000 generated records whose label depends only on (polarity,
    role pattern), the fused model reaches >=95% dev accuracy while the
    text-only baseline stays within 10 points of chance; on the test split
    the fused model is right on more records than the baseline, with an
    exact McNemar p below MCNEMAR_P_MAX; under 10 min."""
    started = time.time()
    corpus = make_planted_corpus(n_train=2000, n_dev=400, n_test=400, seed=7)
    assert len(corpus) >= 2000
    chance = chance_rate(corpus, "dev")

    fused_config = ModelConfig(
        architecture="fused",
        encoder=EncoderConfig(provider="toy", width=32, layers=1, heads=2,
                              vocab_buckets=512),
        gat=GatConfig(out_dim=16, heads=2, depth=1),
        fusion=FusionConfig(type="cat", alpha_res=1.0),
        optimizer=OptimizerConfig(learning_rate=3e-3, batch_size=32, epochs=8,
                                  patience=8),
        seed=3,
    )
    fused = train_model(fused_config, corpus)
    fused_acc = float(np.mean([p.gold == p.pred for p in fused.dev_predictions]))

    text_config = ModelConfig(
        architecture="text_only",
        encoder=EncoderConfig(provider="toy", width=32, layers=1, heads=2,
                              vocab_buckets=512),
        optimizer=OptimizerConfig(learning_rate=3e-3, batch_size=32, epochs=6,
                                  patience=6),
        seed=3,
    )
    baseline = train_model(text_config, corpus)
    base_best_acc = max(
        float(np.mean([p.gold == p.pred for p in baseline.dev_predictions])),
        0.0)

    # The paper's comparison: both trained models on the held-out test split.
    test = corpus.split("test")
    compared = mcnemar(pair_predictions(fused.model.predict(test),
                                        baseline.model.predict(test)))

    elapsed = time.time() - started
    assert fused_acc >= 0.95, f"fused dev accuracy {fused_acc:.3f}"
    assert base_best_acc <= chance + 0.10, \
        f"baseline {base_best_acc:.3f} vs chance {chance:.3f}"
    assert compared.b > compared.c, f"fused-only {compared.b}, text-only {compared.c}"
    assert compared.pvalue_exact < MCNEMAR_P_MAX, f"McNemar exact p {compared.pvalue_exact:.3g}"
    assert elapsed < 600.0
    report("planted-signal",
           f"fused {fused_acc:.3f}, baseline {base_best_acc:.3f}, "
           f"chance {chance:.3f}, test McNemar b={compared.b} c={compared.c} "
           f"exact p {compared.pvalue_exact:.3g}, {elapsed:.0f}s")


def test_acceptance_aggregation_consistency():
    """The ekman6 map preserves singleton-group F1 exactly (1e-9) on any
    prediction file, including the published 46.15 anger identity."""
    ekman = default_label_map("ekman6")
    singleton_pairs = (("anger", "anger"), ("disgust", "disgust"),
                       ("depression", "sadness"))

    for seed in range(5):
        rng = np.random.default_rng(seed)
        preds = [Prediction(id=str(i), gold=EMOTIONS[rng.integers(12)],
                            pred=EMOTIONS[rng.integers(12)])
                 for i in range(400)]
        base = f1_report(preds)
        _, agg = aggregate(preds, ekman)
        for fine, coarse in singleton_pairs:
            assert abs(base.per_class[fine].f1 - agg.per_class[coarse].f1) < 1e-9

    # adversarial: excluded gold predicted as a singleton class
    pairs = ([("anger", "anger")] * 6 + [("anger", "optimism")] * 7 +
             [("ambiguous", "anger")] * 7)
    preds = [Prediction(id=str(i), gold=g, pred=p) for i, (g, p) in enumerate(pairs)]
    base = f1_report(preds)
    _, agg = aggregate(preds, ekman)
    assert abs(base.per_class["anger"].f1 - agg.per_class["anger"].f1) < 1e-9
    assert round(agg.per_class["anger"].f1, 2) == 46.15
    report("aggregation-consistency", "singleton F1 identities hold")


def test_acceptance_statistics_oracle():
    """McNemar, Stuart-Maxwell, and the chi-square tail match independent
    oracles at their stated tolerances."""
    # McNemar on b=10, c=2
    result = mcnemar(paired_from_counts(10, 2))
    assert abs(result.statistic - 5.333) < 1e-3
    oracle_p = math.erfc(math.sqrt(result.statistic / 2.0))
    assert abs(result.pvalue - oracle_p) < 1e-3

    # symmetric contingency table -> p = 1.0
    sym = stuart_maxwell_table(np.array([[9, 3, 7], [3, 14, 2], [7, 2, 22]], float))
    assert sym.pvalue == 1.0

    # 2x2 Stuart-Maxwell equals uncorrected McNemar within 1e-9
    sm2 = stuart_maxwell_table(np.array([[4, 10], [2, 6]], float))
    assert abs(sm2.statistic - (10 - 2) ** 2 / 12) < 1e-9

    # chi-square tail vs high-precision oracle, df 1..11
    worst = 0.0
    for df in range(1, 12):
        for stat in (0.01, 0.5, 1.0, 2.0, 3.841, 5.0, 10.0, 25.0, 60.0, 120.0):
            oracle = float(mpmath.gammainc(df / 2.0, a=stat / 2.0, b=mpmath.inf,
                                           regularized=True))
            err = abs(chi_square_sf(stat, df) - oracle)
            worst = max(worst, err)
            assert err < 1e-10, (df, stat)
    report("statistics-oracle", f"chi-square max abs err {worst:.1e}")


def test_acceptance_data_contract(tmp_path, capsys):
    """The reference-distribution corpus ingests as 8000/1000/1000 with every
    label within 0.01 points of the published table; schema violations exit
    with code 2 and line diagnostics."""
    corpus = make_reference_corpus()
    path = tmp_path / "corpus.jsonl"
    dump_corpus(corpus, path)

    assert cli_main(["ingest", "--data", str(path)]) == 0
    out = capsys.readouterr().out
    assert "train 8000 / dev 1000 / test 1000" in out
    assert "0 label(s) beyond 0.01 points" in out

    bad = tmp_path / "bad.jsonl"
    lines = path.read_text().strip().split("\n")
    lines[4] = '{"id": "x", "split": "train", "text": "y", "emotion": "joy"}'
    lines[7] = "{not json"
    bad.write_text("\n".join(lines), encoding="utf-8")
    assert cli_main(["ingest", "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "line 8" in err
    report("data-contract", "splits, percentages, and exit codes verified")


def test_acceptance_determinism(tmp_path, capsys):
    """Two train runs with identical config and seed produce byte-identical
    training logs and prediction files."""
    corpus = make_planted_corpus(n_train=40, n_dev=16, n_test=0, seed=1)
    path = tmp_path / "corpus.jsonl"
    dump_corpus(corpus, path)
    config = {
        "architecture": "fused",
        "encoder": {"provider": "toy", "width": 8, "layers": 1, "heads": 2,
                    "vocab_buckets": 32},
        "gat": {"out_dim": 4, "heads": 2, "depth": 1},
        "fusion": {"type": "gate", "alpha_res": 0.5},
        "optimizer": {"learning_rate": 0.003, "batch_size": 8, "epochs": 3,
                      "patience": 5},
        "seed": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", str(config_path), "--data", str(path),
                     "--out", str(out_a)]) == 0
    assert cli_main(["train", "--config", str(config_path), "--data", str(path),
                     "--out", str(out_b)]) == 0
    capsys.readouterr()
    log_a = (out_a / "training_log.csv").read_bytes()
    log_b = (out_b / "training_log.csv").read_bytes()
    preds_a = (out_a / "dev_predictions.jsonl").read_bytes()
    preds_b = (out_b / "dev_predictions.jsonl").read_bytes()
    assert log_a == log_b
    assert preds_a == preds_b
    report("determinism", "byte-identical logs and predictions")
