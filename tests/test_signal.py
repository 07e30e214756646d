import math
from fractions import Fraction

import numpy as np
import pytest

from ulamset import ulam_sequence
from ulamset.onedim import Sequence1D
from ulamset.signal import (
    _direct_sums,
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


def test_other_initials_show_the_phenomenon():
    # regression constants computed by this scan, frozen
    seq = ulam_sequence((2, 3), 10000)
    scan = alpha_scan(seq)
    assert scan.best_value < -0.5
    assert abs(scan.best_alpha - 1.1650129) < 1e-4


def test_direct_sums_agree_with_exact_reduction():
    # the float64 refinement is off by at most ulp(alpha*a_max)/2 per term
    seq = ulam_sequence((1, 2), 50_000)
    terms = np.asarray(seq.terms, dtype=np.int64)
    alphas = np.array([2.5714474995, 1.0, math.pi - 1e-3])
    direct = _direct_sums(terms, alphas) / terms.size
    exact = [np.cos(_reduced_args(seq.terms, Fraction(a))).mean() for a in alphas]
    assert np.max(np.abs(direct - exact)) < 1e-9
