import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulamset import (
    Bound,
    consecutive_gaps,
    fibonacci_bound_check,
    generate,
    onedim,
    ulam_sequence,
    validate_config,
)
from ulamset.errors import InvalidInitials, TooShort

CLASSIC_25 = (
    1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26, 28, 36, 38, 47, 48, 53, 57, 62,
    69, 72, 77, 82, 87, 97,
)


def brute_force_sequence(initials, n_terms):
    """Definition-faithful oracle: recount all pairwise sums every step.

    Returns the first n_terms members in increasing order.  With more than
    two initials a later admission can be smaller than an initial, so the
    admissions go on until there are n_terms members and the latest one
    exceeds every initial: no smaller member can follow it."""
    terms = sorted(initials)
    have = set(terms)
    latest = 0
    while len(terms) < n_terms or latest < max(initials):
        counts = {}
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                s = terms[i] + terms[j]
                counts[s] = counts.get(s, 0) + 1
        latest = min(v for v, c in counts.items() if c == 1 and v not in have)
        terms.append(latest)
        have.add(latest)
    return sorted(terms)[:n_terms]


def test_classic_prefix():
    assert ulam_sequence((1, 2), 25).terms == CLASSIC_25


def test_first_five_terms():
    assert ulam_sequence((1, 2), 5).terms == (1, 2, 3, 4, 6)  # 5 = 1+4 = 2+3


def test_2_3_matches_brute_force():
    fast = ulam_sequence((2, 3), 10).terms
    assert list(fast) == brute_force_sequence([2, 3], 10)
    assert list(ulam_sequence((1, 3), 14).terms) == brute_force_sequence([1, 3], 14)
    assert list(ulam_sequence((1, 2, 5), 12).terms) == brute_force_sequence(
        [1, 2, 5], 12
    )


def test_invalid_initials():
    for bad in [(1,), (1, 1), (0, 2), (-1, 2)]:
        with pytest.raises(InvalidInitials):
            ulam_sequence(bad, 10)
    with pytest.raises(InvalidInitials):
        ulam_sequence((1, 2), 1)


def test_gaps_basic():
    seq = ulam_sequence((1, 2), 5)
    assert consecutive_gaps(seq) == [1, 1, 1, 2]


def test_gaps_too_short():
    seq = ulam_sequence((1, 2), 2)
    assert consecutive_gaps(seq) == [1]
    with pytest.raises(TooShort):
        consecutive_gaps(type(seq)((1, 2), (1,)))


def test_gaps_positive_and_terms_increasing():
    seq = ulam_sequence((2, 5), 400)
    gaps = consecutive_gaps(seq)
    assert all(g > 0 for g in gaps)
    assert all(a < b for a, b in zip(seq.terms, seq.terms[1:]))


def test_fibonacci_bound_small():
    assert fibonacci_bound_check(ulam_sequence((1, 2), 25))
    # a_5 = 6 <= F_6 = 8
    assert ulam_sequence((1, 2), 5).terms[4] == 6


def test_cross_validation_against_lattice_generator():
    seq = ulam_sequence((1, 2), 200)
    top = seq.terms[-1]
    cfg = validate_config([(1,), (2,)], 1)
    lattice = generate(cfg, Bound.box((top,)))
    assert tuple(p[0] for p in lattice.points) == seq.terms


def test_common_factor_scales_the_sequence():
    assert ulam_sequence((18, 36), 3000).terms == tuple(
        18 * t for t in ulam_sequence((1, 2), 3000).terms
    )


def test_prefix_consistency():
    long = ulam_sequence((1, 2), 300).terms
    short = ulam_sequence((1, 2), 120).terms
    assert long[:120] == short


# sha256 of ",".join(terms) for the first 2*10**4 terms, as computed by the
# former engine, which kept the full representation count of every value
FULL_COUNT_SHA256 = {
    (1, 2): "0bdae96fe4ca2b257f266d7d68b2ab4710f5ae0f8cbc6ab4c478b154cde32d3f",
    (1, 3): "31e3a187a02e35e1519b865ce6b86d1aa11a7280eb4f82dbf15292188c4a5e26",
    (2, 3): "ec2169c2d4f2d6c70d5683e42a1b9517657b36474cfa9ab2996e3f4f060f64ac",
    (2, 5): "bd1ec8415499c57eedd9220d6f2d459c290c202e21b8bcfc822f973b92c5c2be",
    (2, 13): "6837da2daa7b6ed794f3d76a28dd06a87cecf79fc6c69235fbfa2aace3743aad",
    (1, 2, 5): "c30fc08ba138cc588ee0d1dd00820e3b9325d2990ffb0c7b12ffdc53be16bb51",
    (3, 4): "17d9708882cf62641d534d1afafd2dc79a08a6defc6cb7c12ec47cbd9384f2aa",
    (1, 4): "6e51823955c2257d0a02f99e2f13ec40d3fb350695633b6d3ba57a18a8fd75c4",
}


@pytest.mark.parametrize("initials", list(FULL_COUNT_SHA256))
def test_matches_full_count_engine_at_20000_terms(initials):
    terms = ulam_sequence(initials, 20_000).terms
    digest = hashlib.sha256(",".join(map(str, terms)).encode()).hexdigest()
    assert digest == FULL_COUNT_SHA256[initials]


# Estimate the frequency after 16 members instead of 2000 and never fall
# back to full counts, so that short sequences run the outlier phase; track
# only two members of J and pull in heads of four, so that both stages of
# the pull count run as well.
_SMALL_PHASES = dict(
    _FIRST_ESTIMATE=16, _TRACKED_J=2, _PULL_HEAD=4, _MAX_OUTLIER_SHARE=1.0
)
_INITIALS = st.lists(st.integers(1, 30), min_size=2, max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(_INITIALS, st.integers(3, 80))
@example([1, 2, 4], 3)  # 3 = 1 + 2 precedes the initial 4
def test_outlier_phase_matches_brute_force(initials, n_terms):
    with mock.patch.multiple(onedim, **_SMALL_PHASES):
        fast = ulam_sequence(initials, n_terms).terms
    assert list(fast) == brute_force_sequence(initials, n_terms)


_FREQUENCIES = st.lists(
    st.just(0) | st.integers(1, onedim._M - 1), min_size=3, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(_INITIALS, _FREQUENCIES)
def test_any_frequency_gives_the_same_terms(initials, estimates):
    # The frequency affects the speed only: force an arbitrary one at each of
    # the estimates after 16, 32 and 64 members.  j = 0 after a nonzero j
    # turns every member back into an outlier.
    forced = iter(estimates)
    with mock.patch.multiple(
        onedim, _estimate=lambda members, j: next(forced), **_SMALL_PHASES
    ):
        fast = ulam_sequence(initials, 80).terms
    assert list(fast) == brute_force_sequence(initials, 80)


def test_class_sums_miss_the_class_exhaustively():
    m = 128
    residues = np.arange(m)  # a*j mod m depends only on a mod m
    with mock.patch.multiple(onedim, _M=m, _MASK=np.uint64(m - 1)):
        for j in range(m):
            inside = residues[onedim._in_class(onedim._residues(residues, j))]
            sums = np.add.outer(inside, inside).ravel()
            assert not onedim._in_class(onedim._residues(sums, j)).any()


@given(st.integers(1, 2**40), st.integers(0, onedim._M - 1))
def test_wrapped_residue_is_exact(a, j):
    # a*j mostly overflows 64 bits here; the residue mod 2**48 survives
    r = a * j % onedim._M
    assert onedim._residues(np.array([a]), j)[0] == r


# frequencies spread over the circle (small integers put no early value in J)
_TURNS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
    lambda t: max(1, int(t * onedim._M))
)


@settings(max_examples=80, deadline=None)
@given(_INITIALS, _TURNS, st.integers(3, 8))
def test_first_untracked_member_of_the_class_inside_a_block(initials, j, first):
    # Tracking every member of J at each estimate leaves no untracked one, so
    # the counts are complete until a member of J is admitted, inside the
    # block that follows; from then on values outside J need pull counts.
    # Early estimates let sums of two such members fall before the next one.
    with mock.patch.multiple(
        onedim,
        _estimate=lambda members, _: j,
        **{**_SMALL_PHASES, "_FIRST_ESTIMATE": first, "_TRACKED_J": 10**9},
    ):
        fast = ulam_sequence(initials, 40).terms
    assert list(fast) == brute_force_sequence(initials, 40)
