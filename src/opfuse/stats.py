"""Paired significance tests and the chi-square tail probability they need.

``mcnemar`` works on the discordant correct/incorrect counts of two models
against the same gold labels; ``stuart_maxwell`` tests marginal homogeneity
of the inter-model label contingency table (model A's label vs model B's
on the same record).  Both read their asymptotic p-values from
``chi_square_sf``, a closed-form finite sum for integer degrees of freedom.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import EMOTIONS
from .evaluation import EvaluationError, Prediction


class StatsError(Exception):
    pass


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with integer ``df``.

    Q(df/2, x/2) as a finite sum (Abramowitz & Stegun 26.4.4-26.4.5): with
    h = x/2, the terms e^-h·h^(b-1)/Γ(b) over b = 1, 2, ..., df/2 for even
    ``df``, and erfc(√h) plus the terms over b = 3/2, 5/2, ..., df/2 for odd
    ``df``.  Each term is formed in log space, so none overflows.
    """
    if isinstance(df, bool) or not isinstance(df, numbers.Integral) or df < 1:
        raise StatsError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if math.isnan(x) or x < 0:
        raise StatsError(f"chi-square statistic must be a number >= 0, got {x}")
    half = x / 2.0
    if half == 0.0:  # including denormal x that halves to zero
        return 1.0
    if half == math.inf:  # the terms' 0·log(inf) would be NaN
        return 0.0
    odd = df % 2
    total = math.erfc(math.sqrt(half)) if odd else 0.0
    log_half = math.log(half)
    for i in range(df // 2):
        b = i + (1.5 if odd else 1.0)
        total += math.exp(-half + (b - 1.0) * log_half - math.lgamma(b))
    return min(1.0, total)


@dataclass(frozen=True)
class PairedPredictions:
    """Predictions of two models aligned record-by-record."""

    ids: tuple[str, ...]
    golds: tuple[str, ...]
    preds_a: tuple[str, ...]
    preds_b: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)


def pair_predictions(preds_a: Sequence[Prediction],
                     preds_b: Sequence[Prediction]) -> PairedPredictions:
    """Align two prediction lists by id; raises on the first divergent id."""
    by_id_b = {p.id: p for p in preds_b}
    if len(by_id_b) != len(preds_b):
        raise EvaluationError("model B predictions contain duplicate ids")
    seen_a = set()
    ids, golds, pa, pb = [], [], [], []
    for p in preds_a:
        if p.id in seen_a:
            raise EvaluationError("model A predictions contain duplicate ids")
        seen_a.add(p.id)
        other = by_id_b.get(p.id)
        if other is None:
            raise EvaluationError(f"id {p.id!r} present only in model A's predictions")
        if other.gold != p.gold:
            raise EvaluationError(
                f"id {p.id!r} has conflicting gold labels: {p.gold!r} vs {other.gold!r}")
        ids.append(p.id)
        golds.append(p.gold)
        pa.append(p.pred)
        pb.append(other.pred)
    extra = set(by_id_b) - seen_a
    if extra:
        raise EvaluationError(
            f"id {min(extra)!r} present only in model B's predictions")
    if not ids:
        raise EvaluationError("paired prediction set is empty")
    return PairedPredictions(tuple(ids), tuple(golds), tuple(pa), tuple(pb))


@dataclass
class McNemarResult:
    b: int                       # A correct, B wrong
    c: int                       # A wrong, B correct
    statistic: float             # uncorrected chi-square, NaN when b + c == 0
    pvalue: float
    statistic_corrected: float   # continuity-corrected variant
    pvalue_corrected: float
    pvalue_exact: float          # two-sided exact binomial
    asymptotic_defined: bool

    def to_json(self) -> dict:
        return {
            "b": self.b, "c": self.c,
            "statistic": self.statistic, "pvalue": self.pvalue,
            "statistic_corrected": self.statistic_corrected,
            "pvalue_corrected": self.pvalue_corrected,
            "pvalue_exact": self.pvalue_exact,
            "asymptotic_defined": self.asymptotic_defined,
        }


def _binom_cdf_half(k: int, n: int) -> float:
    """P(X <= k) for X ~ Binomial(n, 1/2), in log space for large n."""
    log_half_n = n * math.log(0.5)
    total = 0.0
    for i in range(k + 1):
        total += math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                          - math.lgamma(n - i + 1) + log_half_n)
    return min(1.0, total)


def mcnemar(paired: PairedPredictions) -> McNemarResult:
    """McNemar's test on discordant correct/incorrect pairs.

    Reports the uncorrected statistic, the continuity-corrected variant,
    and the exact two-sided binomial p-value.
    """
    b = sum(1 for g, a, bb in zip(paired.golds, paired.preds_a, paired.preds_b)
            if a == g and bb != g)
    c = sum(1 for g, a, bb in zip(paired.golds, paired.preds_a, paired.preds_b)
            if a != g and bb == g)
    n = b + c
    if n == 0:
        return McNemarResult(b=b, c=c, statistic=float("nan"), pvalue=float("nan"),
                             statistic_corrected=float("nan"),
                             pvalue_corrected=float("nan"),
                             pvalue_exact=1.0, asymptotic_defined=False)
    stat = (b - c) ** 2 / n
    stat_cc = max(0.0, (abs(b - c) - 1.0)) ** 2 / n
    exact = 1.0 if b == c else min(1.0, 2.0 * _binom_cdf_half(min(b, c), n))
    return McNemarResult(
        b=b, c=c,
        statistic=stat, pvalue=chi_square_sf(stat, 1),
        statistic_corrected=stat_cc, pvalue_corrected=chi_square_sf(stat_cc, 1),
        pvalue_exact=exact, asymptotic_defined=True)


@dataclass
class StuartMaxwellResult:
    statistic: float
    df: int
    pvalue: float
    rank_reduced: bool            # covariance was singular; solved on its rank
    collapsed_categories: tuple[str, ...]  # all-diagonal categories left out

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic, "df": self.df, "pvalue": self.pvalue,
            "rank_reduced": self.rank_reduced,
            "collapsed_categories": list(self.collapsed_categories),
        }


def stuart_maxwell_table(table: np.ndarray,
                         labels: Sequence[str] | None = None) -> StuartMaxwellResult:
    """Marginal-homogeneity statistic for a square paired contingency table."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise StatsError(f"contingency table must be square, got {table.shape}")
    if not np.isfinite(table).all():
        raise StatsError("contingency table entries must be finite")
    if (table < 0).any():
        raise StatsError("contingency table entries must be non-negative")
    size = table.shape[0]
    labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(size))

    # Categories whose off-diagonal mass is zero contribute nothing and
    # make the covariance singular; set them aside first.
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    keep = [k for k in range(size) if row[k] + col[k] - 2 * table[k, k] > 0]
    collapsed = tuple(labels[k] for k in range(size) if k not in keep)
    if len(keep) <= 1:
        return StuartMaxwellResult(statistic=0.0, df=0, pvalue=1.0,
                                   rank_reduced=False,
                                   collapsed_categories=collapsed)
    sub = table[np.ix_(keep, keep)]
    r = sub.sum(axis=1)[:-1]
    c = sub.sum(axis=0)[:-1]
    d = r - c
    core = sub[:-1, :-1]
    cov = -(core + core.T)
    np.fill_diagonal(cov, r + c - 2 * np.diag(core))

    rank_reduced = False
    try:
        solved = np.linalg.solve(cov, d)
        statistic = float(d @ solved)
        df = d.shape[0]
    except np.linalg.LinAlgError:
        rank_reduced = True
        solved, *_ = np.linalg.lstsq(cov, d, rcond=None)
        statistic = float(d @ solved)
        df = int(np.linalg.matrix_rank(cov))
    if df < 1:
        return StuartMaxwellResult(statistic=0.0, df=0, pvalue=1.0,
                                   rank_reduced=rank_reduced,
                                   collapsed_categories=collapsed)
    statistic = max(0.0, statistic)
    return StuartMaxwellResult(statistic=statistic, df=df,
                               pvalue=chi_square_sf(statistic, df),
                               rank_reduced=rank_reduced,
                               collapsed_categories=collapsed)


def stuart_maxwell(paired: PairedPredictions,
                   labels: Sequence[str] = EMOTIONS) -> StuartMaxwellResult:
    """Stuart-Maxwell test on the inter-model label contingency table."""
    index = {label: i for i, label in enumerate(labels)}
    table = np.zeros((len(labels), len(labels)))
    for a, b in zip(paired.preds_a, paired.preds_b):
        if a not in index:
            raise EvaluationError(f"unknown predicted label {a!r}")
        if b not in index:
            raise EvaluationError(f"unknown predicted label {b!r}")
        table[index[a], index[b]] += 1
    return stuart_maxwell_table(table, labels)
