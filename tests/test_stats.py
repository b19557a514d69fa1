"""Chi-square tail, McNemar, and Stuart-Maxwell against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfuse.data import EMOTIONS
from opfuse.evaluation import EvaluationError, Prediction
from opfuse.stats import (PairedPredictions, StatsError, chi_square_sf, mcnemar,
                          pair_predictions, stuart_maxwell, stuart_maxwell_table)

from oracles import fraction_stuart_maxwell

mpmath.mp.dps = 30


def mpmath_chi2_sf(x, df):
    return float(mpmath.gammainc(df / 2.0, a=x / 2.0, b=mpmath.inf, regularized=True))


def normal_identity_sf(x):
    """df=1 oracle: p = 2(1 - Phi(sqrt(x))) = erfc(sqrt(x/2))."""
    return math.erfc(math.sqrt(x / 2.0))


def test_chi_square_sf_at_zero():
    assert chi_square_sf(0.0, 1) == 1.0
    assert chi_square_sf(0.0, 11) == 1.0


def test_chi_square_sf_df1_matches_normal_identity():
    for x in (0.001, 0.5, 1.0, 3.841, 6.635, 15.0, 30.0):
        assert abs(chi_square_sf(x, 1) - normal_identity_sf(x)) < 1e-12


def test_chi_square_sf_critical_value():
    assert abs(chi_square_sf(3.841, 1) - 0.05) < 5e-4
    assert abs(chi_square_sf(3.841, 1) - normal_identity_sf(3.841)) < 1e-12


def test_chi_square_sf_matches_mpmath_across_dfs():
    for df in range(1, 12):
        for x in (0.01, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 120.0):
            assert abs(chi_square_sf(x, df) - mpmath_chi2_sf(x, df)) < 1e-10, (df, x)


def test_chi_square_sf_extreme_tail_no_overflow():
    p = chi_square_sf(80.0, 11)
    assert 0.0 < p < 1e-11
    assert abs(p - mpmath_chi2_sf(80.0, 11)) < 1e-10


def test_chi_square_sf_validates_inputs():
    with pytest.raises(StatsError):
        chi_square_sf(-1.0, 1)
    with pytest.raises(StatsError):
        chi_square_sf(1.0, 0)


def test_chi_square_sf_matches_mpmath_from_the_smallest_to_the_largest_statistic():
    """The finite sum against 40-digit mpmath, from x = 1e-300 to 1e308."""
    with mpmath.workdps(40):
        for df in [*range(1, 41), 64, 100, 1000]:
            for x in (1e-300, 1e-12, 0.01, 1.0, 3.841, float(df), 1.1 * df,
                      120.0, 1e3, 1e4, 1e308):
                assert abs(chi_square_sf(x, df) - mpmath_chi2_sf(x, df)) <= 1e-12, (df, x)


@pytest.mark.parametrize("df", [1, 2, 7, 64])
def test_a_nan_statistic_is_rejected_not_read_as_significant(df):
    with pytest.raises(StatsError, match="statistic must be a number >= 0"):
        chi_square_sf(float("nan"), df)


@pytest.mark.parametrize("df", [True, False, 2.5, 2.0, np.float64(3.0), "2"])
def test_degrees_of_freedom_must_be_an_integer_not_a_bool(df):
    with pytest.raises(StatsError, match="degrees of freedom must be an integer >= 1"):
        chi_square_sf(1.0, df)


def test_numpy_integer_degrees_of_freedom_are_accepted():
    for df in (np.int64(3), np.int32(4), np.uint8(1)):
        assert chi_square_sf(2.0, df) == chi_square_sf(2.0, int(df))


@pytest.mark.parametrize("df", [1, 2, 3, 1000])
def test_an_infinite_statistic_has_zero_tail(df):
    assert chi_square_sf(math.inf, df) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=500.0), st.integers(min_value=1, max_value=20))
def test_chi_square_sf_in_unit_interval(x, df):
    p = chi_square_sf(x, df)
    assert 0.0 <= p <= 1.0


def paired_from_counts(b, c, n_both_right=5, n_both_wrong=5):
    """Paired predictions with exactly b (A right, B wrong) and c (A wrong, B right)."""
    ids, golds, pa, pb = [], [], [], []
    k = 0

    def push(gold, a, bb):
        nonlocal k
        ids.append(f"r{k}")
        golds.append(gold)
        pa.append(a)
        pb.append(bb)
        k += 1

    for _ in range(b):
        push("anger", "anger", "panic")
    for _ in range(c):
        push("anger", "panic", "anger")
    for _ in range(n_both_right):
        push("belief", "belief", "belief")
    for _ in range(n_both_wrong):
        push("disgust", "anger", "panic")
    return PairedPredictions(tuple(ids), tuple(golds), tuple(pa), tuple(pb))


def test_mcnemar_b_equals_c_gives_p_one():
    result = mcnemar(paired_from_counts(4, 4))
    assert result.statistic == 0.0
    assert result.pvalue == 1.0
    assert result.pvalue_exact == 1.0


def test_mcnemar_frozen_example():
    result = mcnemar(paired_from_counts(10, 2))
    assert abs(result.statistic - 16 / 3) < 1e-9
    assert abs(result.statistic - 5.333) < 1e-3
    oracle_p = normal_identity_sf(16 / 3)
    assert abs(result.pvalue - oracle_p) < 1e-3
    assert abs(result.pvalue - 0.0209) < 1e-3


def test_mcnemar_no_discordant_pairs():
    result = mcnemar(paired_from_counts(0, 0))
    assert result.pvalue_exact == 1.0
    assert not result.asymptotic_defined
    assert math.isnan(result.statistic)


def test_mcnemar_exact_binomial_small_case():
    # b=5, c=1: two-sided exact p = 2 * P(X <= 1 | n=6, 1/2) = 14/64
    result = mcnemar(paired_from_counts(5, 1))
    assert abs(result.pvalue_exact - 14 / 64) < 1e-12


def test_mcnemar_antisymmetric():
    fwd = paired_from_counts(7, 3)
    rev = PairedPredictions(fwd.ids, fwd.golds, fwd.preds_b, fwd.preds_a)
    a, b = mcnemar(fwd), mcnemar(rev)
    assert (a.b, a.c) == (b.c, b.b)
    assert a.statistic == b.statistic
    assert a.pvalue == b.pvalue


def test_continuity_correction_smaller_statistic():
    result = mcnemar(paired_from_counts(10, 2))
    assert result.statistic_corrected == (abs(10 - 2) - 1) ** 2 / 12
    assert result.pvalue_corrected > result.pvalue


def test_stuart_maxwell_symmetric_table_p_one():
    table = np.array([[10, 4, 6], [4, 20, 2], [6, 2, 30]], dtype=float)
    result = stuart_maxwell_table(table)
    assert abs(result.statistic) < 1e-12
    assert result.pvalue == 1.0


def test_stuart_maxwell_frozen_3x3_oracle():
    # Exact rational solve (tests/oracles.py) gives 1200/719 for this table.
    table = [[20, 10, 5], [3, 30, 15], [6, 9, 40]]
    exact = fraction_stuart_maxwell(table)
    assert exact == __import__("fractions").Fraction(1200, 719)
    result = stuart_maxwell_table(np.array(table, dtype=float))
    assert abs(result.statistic - float(exact)) < 1e-9
    assert result.df == 2
    assert abs(result.pvalue - mpmath_chi2_sf(float(exact), 2)) < 1e-10
    assert abs(result.pvalue - 0.4340947935) < 1e-6


def test_stuart_maxwell_2x2_equals_uncorrected_mcnemar():
    b, c = 10, 2
    table = np.array([[5, b], [c, 7]], dtype=float)
    result = stuart_maxwell_table(table)
    assert abs(result.statistic - (b - c) ** 2 / (b + c)) < 1e-9
    assert result.df == 1


def test_stuart_maxwell_all_diagonal_p_one():
    table = np.diag([5.0, 8.0, 2.0])
    result = stuart_maxwell_table(table)
    assert result.statistic == 0.0 and result.pvalue == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_stuart_maxwell_refuses_non_finite_entries(bad):
    # A NaN passes a `< 0` check and an infinite category used to collapse
    # or cancel, both answering p = 1.0.
    table = np.array([[1, bad, 2], [3, 4, 5], [0, 7, 1]], dtype=float)
    with pytest.raises(StatsError, match="contingency table entries must be finite"):
        stuart_maxwell_table(table)


def test_stuart_maxwell_collapses_inactive_categories():
    # category 2 sits entirely on the diagonal; it must be set aside, and
    # the remaining 2x2 reduces to McNemar
    table = np.array([[5, 10, 0], [2, 7, 0], [0, 0, 9]], dtype=float)
    result = stuart_maxwell_table(table, labels=("a", "b", "c"))
    assert result.collapsed_categories == ("c",)
    assert abs(result.statistic - 16 / 3) < 1e-9
    assert result.df == 1


def test_stuart_maxwell_label_permutation_invariant():
    rng = np.random.default_rng(3)
    table = rng.integers(0, 30, size=(4, 4)).astype(float)
    base = stuart_maxwell_table(table)
    for _ in range(5):
        perm = rng.permutation(4)
        permuted = table[np.ix_(perm, perm)]
        result = stuart_maxwell_table(permuted)
        assert abs(result.statistic - base.statistic) < 1e-9
        assert result.df == base.df


def test_stuart_maxwell_from_paired_predictions():
    paired = paired_from_counts(10, 2, n_both_right=3, n_both_wrong=0)
    result = stuart_maxwell(paired, labels=EMOTIONS)
    assert abs(result.statistic - 16 / 3) < 1e-9
    assert result.df == 1


def test_pair_predictions_alignment():
    pa = [Prediction(id="x", gold="anger", pred="anger"),
          Prediction(id="y", gold="panic", pred="anger")]
    pb = [Prediction(id="y", gold="panic", pred="panic"),
          Prediction(id="x", gold="anger", pred="anger")]
    paired = pair_predictions(pa, pb)
    assert paired.ids == ("x", "y")
    assert paired.preds_b == ("anger", "panic")


def test_pair_predictions_reports_divergent_id():
    pa = [Prediction(id="x", gold="anger", pred="anger")]
    pb = [Prediction(id="z", gold="anger", pred="anger")]
    with pytest.raises(EvaluationError) as err:
        pair_predictions(pa, pb)
    assert "x" in str(err.value) or "z" in str(err.value)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_mcnemar_pvalues_in_unit_interval(b, c):
    result = mcnemar(paired_from_counts(b, c))
    assert 0.0 <= result.pvalue_exact <= 1.0
    if result.asymptotic_defined:
        assert 0.0 <= result.pvalue <= 1.0
        assert 0.0 <= result.pvalue_corrected <= 1.0
