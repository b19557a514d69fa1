"""Seeded input generation for the benchmark workloads, cached per seed.

Every workload's inputs are a pure function of (workload, seed): a JSONL
corpus, a model config, and for some workloads a frozen encoder-state file
or trained checkpoints.  They are built once per seed in a child process
(so the measured process starts fresh) and kept under
``perfbench/.cache/``; generation is never inside a timed region.

Corpus layout: each record is ``n_tokens`` noise words ``w<k>`` separated
by single spaces.  Each opinion takes one of four role patterns (2 to 5
roles) and a polarity; every role span covers one word.  The label of a
record follows the planted rule of its first opinion (pattern x polarity
indexes the twelve emotions), so training has a signal to fit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
# Bump when a generator changes, so stale cached inputs are never reused.
GENERATOR_VERSION = "v5"

EMOTIONS = ("optimism", "anxiety", "excitement", "disgust", "belief", "ambiguous",
            "amusement", "confusion", "anger", "panic", "surprise", "depression")
POLARITIES = ("positive", "negative", "neutral")
PATTERNS = (
    ("sentiment_expression", "holder"),
    ("sentiment_expression", "holder", "target"),
    ("sentiment_expression", "holder", "target", "qualifier"),
    ("sentiment_expression", "holder", "target", "qualifier", "aspect_term"),
)
NOISE_VOCAB = 64

# Per-workload corpus shapes.  ``opinions`` lists the opinion counts a
# record may carry (in equal shares); the ``p_*`` fields are per-opinion
# probabilities of the fallback paths in graph construction.
CORPORA = {
    "train-toy": dict(n_train=64, n_dev=32, n_test=0, n_tokens=10, opinions=(1,),
                      p_no_sentiment=0.0, p_unanchored=0.0, p_dropped_role=0.0),
    "train-frozen-graph": dict(n_train=64, n_dev=32, n_test=0, n_tokens=14,
                               opinions=(0, 1, 2, 3, 4), p_no_sentiment=0.15,
                               p_unanchored=0.05, p_dropped_role=0.10),
    "predict-compare": dict(n_train=64, n_dev=32, n_test=192, n_tokens=10,
                            opinions=(1,), p_no_sentiment=0.0, p_unanchored=0.0,
                            p_dropped_role=0.0),
}

TOY_CONFIG = {
    "architecture": "fused",
    "encoder": {"provider": "toy", "width": 64, "layers": 2, "heads": 4,
                "vocab_buckets": 16384, "states_path": None},
    "gat": {"out_dim": 96, "heads": 2, "depth": 1, "leaky_slope": 0.2,
            "role_embedding": False},
    "fusion": {"type": "gate", "alpha_res": 0.5},
    "optimizer": {"learning_rate": 0.001, "batch_size": 32, "epochs": 2,
                  "patience": 2, "weighted_loss": False},
    "seed": 0,
}
FROZEN_CONFIG = {
    "architecture": "fused",
    "encoder": {"provider": "file", "width": 64, "layers": 2, "heads": 4,
                "vocab_buckets": 16384, "states_path": "states.bin"},
    "gat": {"out_dim": 192, "heads": 4, "depth": 1, "leaky_slope": 0.2,
            "role_embedding": False},
    "fusion": {"type": "attn", "alpha_res": 0.5},
    "optimizer": {"learning_rate": 0.0001, "batch_size": 64, "epochs": 1,
                  "patience": 1, "weighted_loss": False},
    "seed": 0,
}
# Model configs keep seed 0 for every workload seed: the workload seed
# draws the corpus, and a fixed initialisation keeps the loss comparable
# across seeds.  The models that predict-compare restores are trained for
# this many epochs on the corpus's train split while inputs are generated.
PREDICT_TRAIN_EPOCHS = 2


def input_dir(workload: str, seed: int) -> Path:
    return CACHE / GENERATOR_VERSION / f"{workload}-s{seed}"


def ensure_inputs(workload: str, seed: int, src: Path) -> Path:
    """Return the cached input directory, generating it in a child process."""
    target = input_dir(workload, seed)
    if (target / "inputs.json").exists():
        return target
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, str(Path(__file__)), workload, str(seed)],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=170)
    return target


def _word_spans(words: list[str]) -> list[tuple[int, int]]:
    spans, cursor = [], 0
    for word in words:
        spans.append((cursor, cursor + len(word)))
        cursor += len(word) + 1
    return spans


def _span(start: int, end: int) -> dict:
    return {"start": start, "end": end}


def make_records(rng: np.random.Generator, shape: dict) -> tuple[list[dict], dict]:
    """Corpus records as JSON objects, plus counts of the paths they exercise."""
    records: list[dict] = []
    facts = {"records": 0, "opinions_per_record": {}, "records_with_fallback": 0,
             "records_with_unanchored_opinion": 0, "records_with_dropped_role": 0}
    for split in ("train", "dev", "test"):
        # Opinion counts and role patterns come from balanced, shuffled pools,
        # so every seed gives a split nearly the same amount of graph work.
        n_records = shape[f"n_{split}"]
        counts = rng.permutation(np.resize(shape["opinions"], n_records))
        patterns = iter(rng.permutation(np.resize(np.arange(len(PATTERNS)),
                                                  int(counts.sum()))))
        for i in range(n_records):
            words = [f"w{int(rng.integers(NOISE_VOCAB))}" for _ in range(shape["n_tokens"])]
            text = " ".join(words)
            spans = _word_spans(words)
            n_opinions = int(counts[i])
            opinions, label = [], None
            flags = set()
            for _ in range(n_opinions):
                pattern = int(next(patterns))
                polarity = int(rng.integers(len(POLARITIES)))
                roles = list(PATTERNS[pattern])
                slots = rng.choice(len(words) - 1, size=len(roles), replace=False)
                fields = {role: _span(*spans[int(slot)]) for role, slot in zip(roles, slots)}
                if rng.random() < shape["p_unanchored"]:
                    # Every span covers only the space after its word, so no
                    # token overlaps it and the whole opinion graph is empty.
                    fields = {role: _span(spans[int(slot)][1], spans[int(slot)][1] + 1)
                              for role, slot in zip(roles, slots)}
                    flags.add("unanchored")
                else:
                    if rng.random() < shape["p_no_sentiment"]:
                        del fields["sentiment_expression"]
                        flags.add("fallback")
                    if len(fields) > 1 and rng.random() < shape["p_dropped_role"]:
                        end = spans[int(slots[1])][1]
                        fields["holder"] = _span(end, end + 1)
                        flags.add("dropped")
                    if label is None:
                        label = EMOTIONS[pattern * len(POLARITIES) + polarity]
                opinion = {name: fields.get(name) for name in
                           ("sentiment_expression", "holder", "target", "aspect_term",
                            "qualifier")}
                opinion.update(polarity=POLARITIES[polarity], intensity="average",
                               aspect_category="bench", target_entity="bench")
                opinions.append(opinion)
            if label is None:
                label = EMOTIONS[int(rng.integers(len(EMOTIONS)))]
            records.append({"id": f"{split}-{i:05d}", "split": split, "text": text,
                            "emotion": label, "opinions": opinions})
            facts["records"] += 1
            key = str(n_opinions)
            facts["opinions_per_record"][key] = facts["opinions_per_record"].get(key, 0) + 1
            facts["records_with_fallback"] += "fallback" in flags
            facts["records_with_unanchored_opinion"] += "unanchored" in flags
            facts["records_with_dropped_role"] += "dropped" in flags
    total = facts["records"]
    shares = {"opinion_count_share": {k: v / total for k, v in
                                      sorted(facts["opinions_per_record"].items())},
              "fallback_share": facts["records_with_fallback"] / total,
              "unanchored_share": facts["records_with_unanchored_opinion"] / total,
              "dropped_role_share": facts["records_with_dropped_role"] / total,
              "no_opinion_share": facts["opinions_per_record"].get("0", 0) / total}
    facts.update(shares)
    return records, facts


def write_states(path: Path, records: list[dict], width: int,
                 rng: np.random.Generator) -> None:
    """Frozen encoder states: one random hidden row per word token."""
    from opfuse.encoder import write_encoder_states

    entries = []
    for record in records:
        offsets = _word_spans(record["text"].split(" "))
        hidden = 0.5 * rng.standard_normal((len(offsets), width))
        entries.append((record["id"], offsets, hidden, hidden.mean(axis=0)))
    write_encoder_states(path, entries)


def _train_checkpoint(config_obj: dict, corpus_path: Path, out: Path) -> None:
    from opfuse.data import load_corpus
    from opfuse.model import ModelConfig
    from opfuse.train import train_model

    config = ModelConfig.from_json(config_obj)
    train_model(config, load_corpus(corpus_path), out_dir=out)


def generate(workload: str, seed: int) -> None:
    target = input_dir(workload, seed)
    staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    rng = np.random.default_rng([seed, sorted(CORPORA).index(workload)])
    records, facts = make_records(rng, CORPORA[workload])
    corpus_path = staging / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    configs = {}
    if workload == "train-toy":
        configs["model"] = TOY_CONFIG
    elif workload == "train-frozen-graph":
        configs["model"] = FROZEN_CONFIG
        write_states(staging / "states.bin", records,
                     FROZEN_CONFIG["encoder"]["width"], rng)
    else:
        optimizer = dict(TOY_CONFIG["optimizer"], epochs=PREDICT_TRAIN_EPOCHS,
                         patience=PREDICT_TRAIN_EPOCHS)
        configs["fused"] = dict(TOY_CONFIG, optimizer=optimizer)
        configs["text_only"] = dict(configs["fused"], architecture="text_only")
        for name, config_obj in configs.items():
            run_dir = staging / f"train_{name}"
            _train_checkpoint(config_obj, corpus_path, run_dir)
            (run_dir / "checkpoint.bin").rename(staging / f"{name}.ckpt")
            shutil.rmtree(run_dir)
    for name, config_obj in configs.items():
        (staging / f"{name}.config.json").write_text(json.dumps(config_obj, indent=1))
    # inputs.json is written last: its presence marks a complete input set.
    (staging / "inputs.json").write_text(json.dumps(facts, indent=1, sort_keys=True))
    if target.exists():
        shutil.rmtree(staging)
    else:
        staging.rename(target)


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]))
