import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulamset import cli, consecutive_gaps, core, fibonacci_bound_check, ulam_sequence
from ulamset.errors import GridTooLarge, TooShort
from ulamset.onedim import Sequence1D
from ulamset.signal import (
    _TWO_PI,
    _grid_sums,
    _reduced_args,
    _scan_bytes,
    alpha_scan,
    cosine_sum,
    sign_exception_set,
)


def test_cosine_sum_alternating_cancellation():
    seq = Sequence1D((1, 2), (1, 2, 3, 4))
    assert abs(cosine_sum(seq, math.pi)) < 1e-12


def test_scan_repr_shows_the_minimiser_and_grid():
    scan = alpha_scan(ulam_sequence((1, 2), 200))
    assert re.fullmatch(r"SignalScan\(best_alpha=2\.571\d{6}, best_value=-0\.\d{4}, "
                        r"grid=524288\)", repr(scan))


def test_scans_compare_and_hash_by_value():
    seq = ulam_sequence((1, 2), 300)
    scan, again = alpha_scan(seq), alpha_scan(seq)
    assert scan == again and hash(scan) == hash(again) and len({scan, again}) == 1
    assert scan != alpha_scan(seq, 1e-4)
    assert scan != alpha_scan(ulam_sequence((1, 2), 301))
    assert scan != repr(scan)
    with pytest.raises(ValueError, match="read-only"):
        scan.sums[0] = 0.0


def test_the_scan_holds_only_its_indicator_spectrum_and_sums():
    """The indicator stops at the largest term: (2, 5) at 2000 terms tops
    out at 7855, on a grid of M = 2**20 values.  The transform's working
    buffer is allocated outside numpy, so tracemalloc does not see it."""
    seq = ulam_sequence((2, 5), 2000)
    alpha_scan(seq)  # first-call caches
    tracemalloc.start()
    try:
        scan = alpha_scan(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, top = 2 * scan.sums.size, int(seq.array[-1])
    arrays = 16 * (m // 2 + 1) + 8 * (m // 2) + 8 * (top + 1)
    assert (m, top) == (2**20, 7855)
    assert _scan_bytes(top, 1e-5) == arrays + 16 * m
    assert peak < arrays + 1_000_000


def _no_allocation(*args, **kwargs):
    raise AssertionError("the scan allocated")


@pytest.mark.parametrize("terms, step", [([1, 10**12], 1e-5), ([1, 2, 3], 1e-9)])
def test_an_oversized_scan_is_refused_before_it_allocates(monkeypatch, terms, step):
    """A largest term of 10**12 needs M = 2**40, and the step 1e-9 needs
    M = 2**33: both are refused before the indicator or the transform."""
    seq = Sequence1D((1,), terms)
    monkeypatch.setattr(np, "zeros", _no_allocation)
    monkeypatch.setattr(np.fft, "rfft", _no_allocation)
    with pytest.raises(GridTooLarge, match=f"^a scan of {len(terms)} terms up to "
                                           f"{max(terms)} at step {step:g}: "):
        alpha_scan(seq, step)


def test_a_scan_is_served_up_to_its_statement(monkeypatch):
    seq = ulam_sequence((2, 5), 2000)
    stated = _scan_bytes(7855, 1e-5)
    monkeypatch.setattr(core, "_MAX_BYTES", stated)
    assert alpha_scan(seq).sums.size == 2**19
    monkeypatch.setattr(core, "_MAX_BYTES", stated - 1)
    with pytest.raises(GridTooLarge, match=f": {stated} bytes, over the limit of {stated - 1}$"):
        alpha_scan(seq)


def test_cosine_sum_at_zero_is_count():
    seq = Sequence1D((1, 2), (1, 2, 3, 4, 5))
    assert cosine_sum(seq, 0) == 5.0


def test_sign_exceptions_trivial():
    seq = Sequence1D((1, 2), (1, 2, 3))
    assert sign_exception_set(seq, 0) == [1, 2, 3]
    odd = Sequence1D((1, 3), (1, 3, 5, 7, 9))
    assert sign_exception_set(odd, math.pi) == []


def _no_derivation(seq):
    raise AssertionError("the terms tuple of a sequence was derived")


def test_no_library_path_derives_the_terms_tuple(monkeypatch, capsys):
    """Every reader of a sequence takes its int64 array: the tuple of
    Python ints is built only for a caller that asks for ``terms``."""
    monkeypatch.setattr(vars(Sequence1D)["terms"], "func", _no_derivation)
    seq = ulam_sequence((1, 2), 300)
    alpha_scan(seq)
    cosine_sum(seq, 2.5)
    sign_exception_set(seq, 2.5)
    consecutive_gaps(seq)
    fibonacci_bound_check(seq)
    for fmt in ("csv", "json"):
        assert cli.run(["generate", "--init", "1,2", "--terms", "30", "--format", fmt]) == 0
    for source in (["--init", "1,2", "--terms", "300"],
                   ["--set-init", "(2,0),(3,0),(0,1)", "--box", "30,400", "--row", "1"]):
        assert cli.run(["signal", *source]) == 0
        assert cli.run(["signal", *source, "--alpha", "2.5"]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="derived"):
        seq.terms


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


def test_scan_refuses_an_empty_sequence():
    with pytest.raises(TooShort):
        alpha_scan(Sequence1D((1, 2), []))


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


def _odd_multiples_of_three() -> Sequence1D:
    """The terms 3*(2n+1) of ``test_scan_constant_gap_all_odd_terms``."""
    terms = tuple(3 * (2 * n + 1) for n in range(400))
    return Sequence1D(terms[:2], terms)


_SCAN_INPUTS = {
    "(1,2)": lambda: ulam_sequence((1, 2), 20_000),
    "(1,3)": lambda: ulam_sequence((1, 3), 5000),
    "(2,3)": lambda: ulam_sequence((2, 3), 5000),
    "(2,5)": lambda: ulam_sequence((2, 5), 5000),
    "3(2n+1)": _odd_multiples_of_three,
}

# (sha256 of sums.tobytes(), alpha_step, best_alpha, best_value) of each
# scan, as computed with an indicator of all M values zero-filled up front
FROZEN_SCAN_DIGESTS = {
    ("(1,2)", 1e-5): ("54cd8b28969a15894d9215ccd28d6114b2e0d9f4f297259f285fd7f46557fad4",
                      5.992112452678286e-06, 2.5714481275902377, -0.7971867111899975),
    ("(1,2)", 1e-4): ("3bad40f3d6269e35f9b7546f40f88a3dc9ddea519d7eb8ceed68e35b2ce6cbe0",
                      1.1984224905356572e-05, 2.571448127650159, -0.7971867111886315),
    ("(1,3)", 1e-5): ("3295d7b2eae8dd3f23d2271e25c354f06df1d2c003105c6453c9f9e5a27ed8ee",
                      5.992112452678286e-06, 2.8334970360199803, -0.7948209360572536),
    ("(1,3)", 1e-4): ("d0b456444b3180c46e43f504e233f05619b93820b6ec6cd894eff884923e4642",
                      9.587379924285257e-05, 2.8334970359600593, -0.7948209360567291),
    ("(2,3)", 1e-5): ("9e808a494cec4b2928835bcc3c0e1a3e3b52bbe2dc3115c10ec1e6a25bbcb075",
                      5.992112452678286e-06, 1.165013390257499, -0.8270079878215524),
    ("(2,3)", 1e-4): ("9fab7949ae80ecbae00aaea623e4d8b7b1e998074ac7818739bd4b77a42b7937",
                      9.587379924285257e-05, 1.165013389897972, -0.8270079877823846),
    ("(2,5)", 1e-5): ("cf3ddcdb49b41f575f8fd2ab2048b7d59b8a63550feb7558bd7138de2d3892b1",
                      5.992112452678286e-06, 3.141592653589793, -0.9992),
    ("(2,5)", 1e-4): ("f62ab49d52f178b2094df0df344a6c8488dc4bd66262b094a9bbe8b6ed8aa762",
                      9.587379924285257e-05, 3.141592653589793, -0.9992),
    ("3(2n+1)", 1e-5): ("ae0794698967c69b17284877a65142cc27b057558a6d8da0ab0c2cd947f55744",
                        5.992112452678286e-06, 3.141592653589793, -1.0),
    ("3(2n+1)", 1e-4): ("03730389cd3b434d8ecf5a2a30b03830e52fe91c8c5d8d72fc89ec2f74f2575f",
                        9.587379924285257e-05, 3.141592653589793, -1.0),
}


@pytest.mark.parametrize("name,grid_step", list(FROZEN_SCAN_DIGESTS))
def test_scan_matches_its_frozen_digest(name, grid_step):
    scan = alpha_scan(_SCAN_INPUTS[name](), grid_step)
    digest = hashlib.sha256(scan.sums.tobytes()).hexdigest()
    assert (digest, scan.alpha_step, scan.best_alpha, scan.best_value) == (
        FROZEN_SCAN_DIGESTS[name, grid_step])


def _full_indicator_sums(terms: list[int], grid_step: float) -> tuple[float, np.ndarray]:
    """The coarse grid of a scan from an indicator of all M values: M is the
    smallest power of two above the largest term whose step is at most
    ``grid_step``."""
    m = 1
    while m <= terms[-1] or 2 * math.pi / m > grid_step:
        m *= 2
    indicator = np.zeros(m, dtype=np.float64)
    indicator[terms] = 1.0
    return 2 * math.pi / m, np.fft.rfft(indicator).real[1:] / len(terms)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2**17), min_size=1, max_size=300, unique=True).map(sorted))
@example([1])
@example([2**16 - 1])  # top = M - 1
@example([1, 2, 2**16 - 1])
def test_scan_matches_a_full_length_indicator(terms):
    """At grid 1e-4 M stays at most 2**18, so the full indicator is small."""
    scan = alpha_scan(Sequence1D(terms[:1], terms), 1e-4)
    step, sums = _full_indicator_sums(terms, 1e-4)
    assert scan.alpha_step == step
    assert scan.sums.tobytes() == sums.tobytes()
    assert scan.best_value <= float(sums.min())
