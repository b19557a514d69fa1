"""Random hyperparameter search over the published grid."""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Corpus, load_json
from .model import (ALPHA_RES_VALUES, BATCH_SIZES, FIELD_KINDS, GAT_HEADS, GAT_OUT_DIMS,
                    ModelConfig)
from .train import train_model

log = logging.getLogger(__name__)

# Searchable dimensions and their published value sets.
DEFAULT_SPACE: dict[str, list] = {
    "batch_size": list(BATCH_SIZES),
    "gat_out_dim": list(GAT_OUT_DIMS),
    "gat_heads": list(GAT_HEADS),
    "fusion_type": ["cat", "attn", "gate"],
    "alpha_res": list(ALPHA_RES_VALUES),
}
# Type of the config field each dimension sets, checked as the config checks it.
_DIMENSION_TYPES = {"batch_size": "int", "gat_out_dim": "int", "gat_heads": "int",
                    "fusion_type": "str", "alpha_res": "float"}


class SweepError(Exception):
    pass


def load_space(path: str | Path | None) -> dict[str, list]:
    """Search space from JSON; keys restrict/override the default grid."""
    if path is None:
        return {k: list(v) for k, v in DEFAULT_SPACE.items()}
    obj = load_json(path, lambda message: SweepError(f"{path}: {message}"))
    if not isinstance(obj, dict):
        raise SweepError("sweep space must be a JSON object of lists")
    space = {k: list(v) for k, v in DEFAULT_SPACE.items()}
    for key, values in obj.items():
        if key not in DEFAULT_SPACE:
            raise SweepError(f"unknown sweep dimension {key!r}; "
                             f"known: {sorted(DEFAULT_SPACE)}")
        if not isinstance(values, list) or not values:
            raise SweepError(f"sweep dimension {key!r} needs a non-empty list")
        check, expected = FIELD_KINDS[_DIMENSION_TYPES[key]]
        for value in values:
            if not check(value):
                raise SweepError(f"sweep dimension {key!r}: every value must be {expected}, "
                                 f"got {type(value).__name__}")
        space[key] = list(values)
    return space


def apply_point(base: ModelConfig, point: dict) -> ModelConfig:
    """A copy of ``base`` set to the grid point; raises ConfigError if it is invalid."""
    config = ModelConfig.from_json(base.to_json())
    config.optimizer.batch_size = point["batch_size"]
    config.gat.out_dim = point["gat_out_dim"]
    config.gat.heads = point["gat_heads"]
    config.fusion.type = point["fusion_type"]
    config.fusion.alpha_res = point["alpha_res"]
    config.validate()
    return config


def trial_seed(base_seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{trial}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class TrialResult:
    trial: int
    point: dict
    dev_macro_f1: float
    best_epoch: int

    def config_json(self) -> str:
        return json.dumps(self.point, sort_keys=True)


def _run_trial(args: tuple[ModelConfig, Corpus]) -> tuple[float, int]:
    result = train_model(*args)
    return result.best_dev_f1, result.best_epoch


def run_sweep(base: ModelConfig, space: dict[str, list], corpus: Corpus,
              budget: int, seed: int = 0, jobs: int = 1) -> list[TrialResult]:
    """Train ``budget`` sampled grid points; returns trials ranked by dev macro-F1.

    Sampling is without replacement until the grid is exhausted, then
    uniform with replacement for any remaining budget.  ``jobs`` above 1
    trains trials in ``min(jobs, budget)`` worker processes.
    """
    if budget < 1:
        raise SweepError(f"sweep budget must be >= 1, got {budget}")
    if seed < 0:
        raise SweepError(f"sweep seed must be >= 0, got {seed}")
    if jobs < 1:
        raise SweepError(f"sweep jobs must be >= 1, got {jobs}")
    base.validate()
    if base.architecture != "fused":
        raise SweepError("sweep searches fusion hyperparameters; "
                         "base config must use the fused architecture")
    keys = sorted(space)
    grid = [dict(zip(keys, combo))
            for combo in itertools.product(*(space[k] for k in keys))]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(grid))
    points = [grid[i] for i in order[:min(budget, len(grid))]]
    while len(points) < budget:
        points.append(grid[int(rng.integers(len(grid)))])

    # Every trial's config is built and validated here, before any trial
    # trains: a ConfigError raised in a worker cannot be unpickled back.
    tasks = [(replace(apply_point(base, point), seed=trial_seed(seed, t)), corpus)
             for t, point in enumerate(points)]
    # The pool starts all its workers at once, so never more than there are trials.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks))
    else:
        outcomes = [_run_trial(task) for task in tasks]

    trials = [TrialResult(trial=t, point=point, dev_macro_f1=f1, best_epoch=epoch)
              for t, (point, (f1, epoch)) in enumerate(zip(points, outcomes))]
    trials.sort(key=lambda tr: (-tr.dev_macro_f1, tr.trial))
    return trials


def sweep_csv(trials: list[TrialResult]) -> str:
    lines = ["trial,config_json,dev_macro_f1,best_epoch"]
    for tr in trials:
        config = tr.config_json().replace('"', '""')
        lines.append(f'{tr.trial},"{config}",{tr.dev_macro_f1!r},{tr.best_epoch}')
    return "\n".join(lines) + "\n"
