import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamset import ulam_sequence
from ulamset.onedim import Sequence1D
from ulamset.signal import (
    _TWO_PI,
    _grid_sums,
    _reduced_args,
    alpha_scan,
    cosine_sum,
    sign_exception_set,
)


def test_cosine_sum_alternating_cancellation():
    seq = Sequence1D((1, 2), (1, 2, 3, 4))
    assert abs(cosine_sum(seq, math.pi)) < 1e-12


def test_cosine_sum_at_zero_is_count():
    seq = Sequence1D((1, 2), (1, 2, 3, 4, 5))
    assert cosine_sum(seq, 0) == 5.0


def test_sign_exceptions_trivial():
    seq = Sequence1D((1, 2), (1, 2, 3))
    assert sign_exception_set(seq, 0) == [1, 2, 3]
    odd = Sequence1D((1, 3), (1, 3, 5, 7, 9))
    assert sign_exception_set(odd, math.pi) == []


def test_periodicity_and_reflection_symmetry():
    seq = ulam_sequence((1, 2), 2000)
    n = len(seq.terms)
    a = Fraction("1.234567")
    two_pi = Fraction(
        "6.28318530717958647692528676655900576839433879875021164194989"
    )
    assert abs(cosine_sum(seq, a) - cosine_sum(seq, two_pi - a)) <= 1e-9 * n
    assert abs(cosine_sum(seq, a) - cosine_sum(seq, a + two_pi)) <= 1e-9 * n


def test_reduction_matches_direct_evaluation_small_terms():
    seq = Sequence1D((1, 2), tuple(range(1, 40)))
    alpha = 2.5714474995
    direct = float(np.cos(alpha * np.arange(1, 40)).sum())
    assert abs(cosine_sum(seq, alpha) - direct) < 1e-9


def test_scan_constant_gap_all_odd_terms():
    # terms 3*(2n+1): every cosine hits -1 at alpha = pi/3 (and at pi)
    terms = tuple(3 * (2 * n + 1) for n in range(400))
    seq = Sequence1D(terms[:2], terms)
    scan = alpha_scan(seq)
    assert scan.best_value <= -0.999
    assert min(abs(scan.best_alpha - math.pi / 3), abs(scan.best_alpha - math.pi)) < 1e-4


def test_scan_refinement_never_loses():
    seq = ulam_sequence((1, 2), 4000)
    scan = alpha_scan(seq)
    assert scan.best_value <= float(scan.sums.min()) + 1e-12
    assert 0 < scan.best_alpha <= math.pi + scan.alpha_step


def test_scan_rejects_coarse_grid():
    seq = ulam_sequence((1, 2), 100)
    with pytest.raises(ValueError):
        alpha_scan(seq, grid_step=1e-3)


@pytest.mark.parametrize("grid_step", [0.0, -1e-5, math.nan])
def test_scan_rejects_nonpositive_grid_step(grid_step):
    seq = ulam_sequence((1, 2), 100)
    with pytest.raises(ValueError):
        alpha_scan(seq, grid_step=grid_step)


def test_other_initials_show_the_phenomenon():
    # regression constants computed by this scan, frozen
    seq = ulam_sequence((2, 3), 10000)
    scan = alpha_scan(seq)
    assert scan.best_value < -0.5
    assert abs(scan.best_alpha - 1.1650129) < 1e-4


def _direct_sums(terms: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """S(alpha) for a batch of alphas, one float64 cosine per term and alpha.

    Error bound: float64 rounds alpha*a with error at most half an ulp of
    alpha*a_max, and cos is 1-Lipschitz, so each term of the sum is off by
    at most ulp(alpha*a_max)/2, plus cos's own sub-ulp rounding.
    """
    return np.cos(np.outer(alphas, terms)).sum(axis=1)


def _loop_reduced_args(terms, alpha: Fraction) -> np.ndarray:
    """The reduction one term at a time, with an explicit floor quotient."""
    num, den = alpha.numerator, alpha.denominator
    pn, pd = _TWO_PI.numerator, _TWO_PI.denominator
    qn = den * pn
    scale = den * pd
    out = np.empty(len(terms), dtype=np.float64)
    for i, a in enumerate(terms):
        xn = num * a * pd
        k = xn // qn
        out[i] = (xn - k * qn) / scale
    return out


def _exact_grid(terms, centre: float, step: float, ks) -> np.ndarray:
    """S(centre + k*step)/N with centre and step taken as exact rationals."""
    c, d = Fraction(centre), Fraction(step)
    return np.array([np.cos(_reduced_args(terms, c + k * d)).mean() for k in ks])


def test_direct_sums_agree_with_exact_reduction():
    # the refinement grid is off by about ulp(alpha*a_max)/2 per term, as a
    # direct float64 cosine would be: about 1.2e-10 here
    seq = ulam_sequence((1, 2), 50_000)
    terms = np.asarray(seq.terms, dtype=np.int64)
    step = 2 * math.pi / 2**20 / 10  # the first refinement step of this scan
    ks = range(-20, 21)
    for alpha in [2.5714474995, 1.0, math.pi - 1e-3]:
        grid = _grid_sums(terms, alpha, step, -20, 20) / terms.size
        exact = _exact_grid(seq.terms, alpha, step, ks)
        assert np.max(np.abs(grid - exact)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=200, unique=True),
    st.floats(1e-3, math.pi),
    st.floats(1e-9, 1e-5),
    st.integers(-20, 0),
    st.integers(0, 20),
)
def test_grid_sums_within_the_error_bound(terms, centre, step, k_lo, k_hi):
    terms = sorted(terms)
    a = np.asarray(terms, dtype=np.int64)
    ks = range(k_lo, k_hi + 1)
    exact = _exact_grid(terms, centre, step, ks)
    # half an ulp of alpha*a_max per term, doubled for the rounding of cos
    # and sin; the walk of |k| <= 20 complex multiplies adds below 1e-13
    tol = math.ulp((centre + 20 * step) * terms[-1]) + 1e-13
    grid = _grid_sums(a, centre, step, k_lo, k_hi) / a.size
    assert np.max(np.abs(grid - exact)) <= tol
    # the float alphas are within ulp(pi)/2 of centre + k*step (all below 4)
    alphas = np.array([float(Fraction(centre) + k * Fraction(step)) for k in ks])
    direct = _direct_sums(a, alphas) / a.size
    assert np.max(np.abs(direct - exact)) <= tol + math.ulp(math.pi) * terms[-1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 10**12), max_size=40),
    st.fractions(max_denominator=10**30).filter(lambda f: f != 0)
    | st.floats(-100, 100, allow_nan=False).map(Fraction),
)
def test_reduced_args_match_the_term_loop(terms, alpha):
    assert np.array_equal(_reduced_args(terms, alpha), _loop_reduced_args(terms, alpha))


def test_reduced_args_match_the_term_loop_at_50000_terms():
    terms = ulam_sequence((1, 2), 50_000).terms
    for alpha in ["2.5714474995", 1.0, math.pi - 1e-3]:
        a = Fraction(alpha)
        assert np.array_equal(_reduced_args(terms, a), _loop_reduced_args(terms, a))


# (best_alpha, best_value) of the scan on the seq1d benchmark inputs, as
# computed by the former refinement (one float64 cosine per term and alpha)
FROZEN_SCANS = {
    ((1, 2), 50_000): (2.5714477083820504, -0.7972970462607534),
    ((1, 3), 20_000): (2.833497470508054, -0.7952596373196902),
    ((2, 3), 20_000): (1.1650129530729745, -0.8286393193700562),
    ((2, 5), 20_000): (3.141592653589793, -0.9998),
    ((2, 7), 20_000): (3.141592653589793, -0.9998),
    ((2, 9), 20_000): (3.141592653589793, -0.9998),
    ((2, 11), 20_000): (3.141592653589793, -0.9998),
    ((2, 13), 20_000): (3.141592653589793, -0.9998),
}


@pytest.mark.parametrize("initials,n_terms", list(FROZEN_SCANS))
def test_scan_matches_the_former_refinement(initials, n_terms):
    scan = alpha_scan(ulam_sequence(initials, n_terms))
    best_alpha, best_value = FROZEN_SCANS[initials, n_terms]
    assert scan.best_alpha == best_alpha
    assert abs(scan.best_value - best_value) <= 1e-12
