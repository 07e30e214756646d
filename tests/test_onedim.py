import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulamset import (
    Bound,
    Sequence1D,
    consecutive_gaps,
    core,
    fibonacci_bound_check,
    generate,
    onedim,
    signal,
    ulam_sequence,
    validate_config,
)
from ulamset.errors import GridTooLarge, InvalidInitials, TooShort

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


@pytest.mark.parametrize("terms", [
    (1.5, 2),  # a fraction
    (1.0, 2.0),  # floats, even integral ones
    ((1, 2), (3, 4)),  # not 1-D
    7,  # not a sequence
    (1, 2**70),  # beyond int64
    (0, 1),  # below 1
    (1, 2, -(1 << 21)),  # an index below the scan's grid
    (5, -(2**20 - 5)),  # 5's cell on a scan grid of 2**20 points
])
def test_sequence_refuses_terms_that_are_not_integers_in_one_dimension(terms):
    with pytest.raises(InvalidInitials):
        Sequence1D((1, 2), terms)


def test_sequence_holds_one_read_only_array():
    listed = Sequence1D((1, 2), [1, 2, 3])
    source = np.array([1, 2, 3])
    held = Sequence1D((1, 2), source)
    source[0] = 5  # the constructor copied it
    assert listed == held and hash(listed) == hash(held)
    assert held.array.dtype == np.int64 and not held.array.flags.writeable
    assert held.terms == (1, 2, 3)
    assert held != Sequence1D((1, 3), [1, 2, 3])


def test_terms_beyond_int64_are_refused():
    """(2**61, 2**62) is 2**61 times (1, 2): its 4th term is 2**63."""
    assert ulam_sequence((2**61, 2**62), 3).terms == (2**61, 2**62, 3 * 2**61)
    with pytest.raises(InvalidInitials, match="int64"):
        ulam_sequence((2**61, 2**62), 4)


def test_sequence_repr_shows_initials_length_and_head():
    assert repr(ulam_sequence((1, 2), 10)) == (
        "Sequence1D(initials=(1, 2), n=10, [1, 2, 3, 4, 6, 8, 11, 13, ...])")


def test_the_up_front_bytes_are_held_to_the_budget(monkeypatch):
    """(1, 2) at 10 terms states 1024 member slots at 8 B, a count window
    of 5 values (1.25 times 2*2) at 4 B and the 6 flags of ``in_j`` (values
    0..5) at 1 B; (2, 4) states the same after the common factor is taken
    out."""
    need = 8 * 1024 + 4 * 5 + 6
    monkeypatch.setattr(core, "_MAX_BYTES", need - 1)
    for initials in ((1, 2), (2, 4)):
        with pytest.raises(GridTooLarge, match=f"10 terms from the initials \\(1, 2\\): {need} bytes"):
            ulam_sequence(initials, 10)


def _no_allocation(*args, **kwargs):
    raise AssertionError("allocated before the byte check")


@pytest.mark.parametrize("initials", [(2**40, 3), (10**15, 10**15 + 1)])
def test_an_impossible_request_is_refused_before_it_allocates(monkeypatch, initials):
    monkeypatch.setattr(np, "zeros", _no_allocation)
    monkeypatch.setattr(np, "empty", _no_allocation)
    with pytest.raises(GridTooLarge):
        ulam_sequence(initials, 10)


class _Started(Exception):
    pass


def _started(*args, **kwargs):
    raise _Started


@pytest.mark.parametrize("n_terms", [10**6, 10**7])
def test_long_runs_of_one_two_pass_the_byte_check(monkeypatch, n_terms):
    """8 MB and 80 MB up front: the run gets as far as its first allocation."""
    monkeypatch.setattr(np, "empty", _started)
    with pytest.raises(_Started):
        ulam_sequence((1, 2), n_terms)


def _record_statements(monkeypatch) -> list[int]:
    """The bytes of every statement the engine makes, in order; the budget
    still applies to each."""
    stated = []

    def record(nbytes, request):
        stated.append(nbytes)
        core._check_bytes(nbytes, request)

    monkeypatch.setattr(onedim, "_check_bytes", record)
    return stated


def test_a_window_that_outgrows_the_budget_is_refused(monkeypatch):
    """With the limit 1 KB above the up-front statement, (1, 2) at 3000
    terms passes it and is refused when its count window grows past it."""
    stated = _record_statements(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(np, "empty", _started)
        with pytest.raises(_Started):
            ulam_sequence((1, 2), 3000)
    assert len(stated) == 1
    monkeypatch.setattr(core, "_MAX_BYTES", stated[0] + 1024)
    with pytest.raises(GridTooLarge, match=r"3000 terms from the initials \(1, 2\)"):
        ulam_sequence((1, 2), 3000)
    assert len(stated) > 2 and stated[-1] > stated[0] + 1024


def test_a_growth_over_the_budget_only_by_its_headroom_is_served(monkeypatch):
    """(1, 2) at 1900 terms, before its first estimate, ends with a growth
    of its count window to 1.25 times the values it must cover.  With the
    limit one byte below that statement, those values still fit: the growth
    takes the headroom that fits, to within one 4 B count, and the run is
    served."""
    stated = _record_statements(monkeypatch)
    expected = ulam_sequence((1, 2), 1900)
    limit = stated[-1] - 1
    monkeypatch.setattr(core, "_MAX_BYTES", limit)
    stated.clear()
    assert ulam_sequence((1, 2), 1900) == expected
    assert limit - 4 < stated[-1] <= limit


def test_the_traced_peak_stays_within_the_stated_bytes(monkeypatch):
    """The arrays the engine states are all it holds that grow with the
    values covered.  Besides them it allocates the classes of one block
    (under 64 B per value) and, for each new term, the indices and counts
    of its sums with the tracked members (16 B per member).  A block of
    256 values keeps the first to a few KB; with no frequency estimate
    every member is tracked and no FFT grid is allocated.  So the peak is
    at most the largest statement plus those two."""
    stated = _record_statements(monkeypatch)
    monkeypatch.setattr(onedim, "_BLOCK", 256)
    monkeypatch.setattr(onedim, "_FIRST_ESTIMATE", 10**9)
    n_terms = 3000
    tracemalloc.start()
    try:
        ulam_sequence((1, 2), n_terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= max(stated) + 64 * onedim._BLOCK + 16 * n_terms


def test_the_frequency_estimates_stay_small():
    """The first estimate scans 2000 members on the coarsest grid of
    alpha_scan, 65536 points; a grid of eight times the largest member
    (262144 points) would take the peak above 4 MB."""
    ulam_sequence((1, 2), 100)  # imports and first-call caches
    tracemalloc.start()
    try:
        ulam_sequence((1, 2), 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def _no_transform(*args, **kwargs):
    raise AssertionError("the transform ran before the byte check")


def test_an_estimate_from_zero_states_its_scan_before_the_transform(monkeypatch):
    """The first estimate of (1, 2), at 2000 members, states the engine's
    arrays, 8 B per member for the copy it scans and the scan's indicator,
    spectrum and sums.  With the limit 1 KB above the engine's own arrays
    there, the run is refused before the transform runs."""
    top = int(ulam_sequence((1, 2), 2000).array[-1])
    scan = signal._scan_bytes(top, signal._MAX_GRID_STEP)
    stated = _record_statements(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(np.fft, "rfft", _started)
        with pytest.raises(_Started):
            ulam_sequence((1, 2), 3000)
    assert stated[-1] == stated[-2] + 8 * 2000 + scan
    monkeypatch.setattr(np.fft, "rfft", _no_transform)
    monkeypatch.setattr(core, "_MAX_BYTES", stated[-2] + 1024)
    with pytest.raises(GridTooLarge, match=r"3000 terms from the initials \(1, 2\)"):
        ulam_sequence((1, 2), 3000)


def _former_start(members: np.ndarray) -> int:
    """The start of an estimate from j = 0 before it came from alpha_scan:
    the argmin over (0, pi] of the FFT grid of sum(cos(alpha*a)) whose step
    is at most max(1e-5, pi/(4*top)), at least 8*top points, unrefined."""
    top = int(members.max())
    step = max(1e-5, math.pi / (4 * top))
    m = 1
    while 2 * math.pi / m > step or m <= top:
        m *= 2
    indicator = np.zeros(m)
    indicator[members] = 1.0
    sums = np.fft.rfft(indicator).real
    return (1 + int(np.argmin(sums[1:]))) * (onedim._M // m)


@pytest.mark.parametrize("initials", [(1, 2), (1, 3), (2, 3), (2, 5)])
def test_the_first_estimate_fits_to_the_former_one(initials):
    """The members at the first estimate are the first 2000 terms; from
    the scan's start and from the former grid start the fit ends at the
    same numerator, so the engine takes the same path on these inputs."""
    members = ulam_sequence(initials, 2000).array
    assert onedim._estimate(members, 0) == onedim._estimate(members, _former_start(members))


# The numerators of the frequency estimates, at 2000 members and at each
# doubling, along the runs of five initials; the engine takes the same path
# wherever they are the same.
FROZEN_ESTIMATES = {
    ((1, 2), 200_000): [
        115196085671023, 115196060833030, 115196060927868, 115196058425729,
        115196049305438, 115196049195463, 115196049608264,
    ],
    ((2, 3), 50_000): [
        52190613358841, 52190463624453, 52190406469657, 52190405744070, 52190403200146,
    ],
    ((1, 3), 50_000): [
        126935410715091, 126935366640348, 126935386553934, 126935398139541, 126935399656750,
    ],
    ((2, 9), 50_000): [1 << 47] * 5,
    ((241, 277), 9000): [89930791248006, 89930788739670, 89930306799446],
}


@pytest.mark.parametrize("initials, n_terms", list(FROZEN_ESTIMATES))
def test_the_frequency_estimates_are_frozen(monkeypatch, initials, n_terms):
    estimates = []
    fit = onedim._estimate

    def record(members, j):
        estimates.append(fit(members, j))
        return estimates[-1]

    monkeypatch.setattr(onedim, "_estimate", record)
    ulam_sequence(initials, n_terms)
    assert estimates == FROZEN_ESTIMATES[initials, n_terms]


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


def _fibonacci_bound_every_term(terms) -> bool:
    """a_n <= F_(n+1) tested at every n, with F_1 = F_2 = 1."""
    a, b = 1, 1
    for t in terms:
        if t > b:
            return False
        a, b = b, a + b
    return True


def test_fibonacci_bound_same_answer_as_testing_every_term():
    holds = ulam_sequence((1, 2), 3000)
    fails = ulam_sequence((1, 3), 3000)  # a_2 = 3 > F_3 = 2
    assert fibonacci_bound_check(holds) and _fibonacci_bound_every_term(holds.terms)
    assert not fibonacci_bound_check(fails) and not _fibonacci_bound_every_term(fails.terms)


@given(st.lists(st.integers(1, 3), max_size=40))
@example([1, 1, 1, 2, 94])  # 1, 2, 3, 4, 6, 100 fails only at its last term
def test_fibonacci_bound_stops_early_with_the_same_answer(gaps):
    terms = list(itertools.accumulate([1, *gaps]))  # increasing, often within the bound
    seq = onedim.Sequence1D((1, 2), tuple(terms))
    assert fibonacci_bound_check(seq) == _fibonacci_bound_every_term(terms)


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


# the same for the other inputs of the benchmark's seq1d workload, as computed
# by the outlier engine when it still scanned for candidates value by value
SEQ1D_SHA256 = {
    ((1, 2), 50_000): "1f36a200bafc5bef36c983dcc4ae9e4489901b76da26cb45b2fae937e7640147",
    ((2, 7), 20_000): "dfb1624e5b6d87c7a2f49b39ded307ae999d4779297cf4cb042413890a0113ba",
    ((2, 9), 20_000): "7e4a5611b1b080ebafc10a04436e706cf1a0b51cdb90040c4e19d3813e51f3f1",
    ((2, 11), 20_000): "9dcec490c6d78534e8f2f5530aeaa14b07a95bce26110c8572757294e568ec4a",
}


@pytest.mark.parametrize("initials", list(FULL_COUNT_SHA256))
def test_matches_full_count_engine_at_20000_terms(initials):
    terms = ulam_sequence(initials, 20_000).terms
    digest = hashlib.sha256(",".join(map(str, terms)).encode()).hexdigest()
    assert digest == FULL_COUNT_SHA256[initials]


@pytest.mark.parametrize("initials, n_terms", list(SEQ1D_SHA256))
def test_matches_the_value_by_value_scan_on_the_seq1d_inputs(initials, n_terms):
    terms = ulam_sequence(initials, n_terms).terms
    digest = hashlib.sha256(",".join(map(str, terms)).encode()).hexdigest()
    assert digest == SEQ1D_SHA256[initials, n_terms]


# Estimate the frequency after 16 members instead of 2000 and never fall
# back to full counts, so that short sequences run the outlier phase; track
# only two members of J, so that pull counts run as well.
_SMALL_PHASES = dict(_FIRST_ESTIMATE=16, _TRACKED_J=2, _MAX_OUTLIER_SHARE=1.0)
_INITIALS = st.lists(st.integers(1, 30), min_size=2, max_size=3, unique=True)
# one initial up to 500: its sums start the count window far above the first
# terms, and it may wait while dozens of terms come before it
_ONE_WIDE_INITIAL = st.builds(
    lambda small, wide: [*small, wide],
    st.lists(st.integers(1, 30), min_size=1, max_size=2, unique=True),
    st.integers(1, 500),
).filter(lambda initials: len(set(initials)) == len(initials))


@settings(max_examples=60, deadline=None)
@given(_ONE_WIDE_INITIAL, st.integers(3, 80))
@example([1, 2, 4], 3)  # 3 = 1 + 2 precedes the initial 4
@example([1, 2], 80)  # the count window slides 22 times and grows 20 times
# 21 terms precede the pending initial 90; then the window slides 7 times
# and grows 6 times
@example([7, 11, 90], 80)
def test_outlier_phase_matches_brute_force(initials, n_terms):
    with mock.patch.multiple(onedim, **_SMALL_PHASES):
        fast = ulam_sequence(initials, n_terms).terms
    assert list(fast) == brute_force_sequence(initials, n_terms)


# frequencies spread over the circle: hypothesis draws integers of (0, M)
# near its ends, which put almost no small value in J
_TURNS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
    lambda t: max(1, int(t * onedim._M))
)


_SPREAD_FREQUENCIES = st.lists(st.just(0) | _TURNS, min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_INITIALS, _SPREAD_FREQUENCIES)
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


@settings(max_examples=60, deadline=None)
@given(_ONE_WIDE_INITIAL, _SPREAD_FREQUENCIES, st.integers(2, 8), st.sampled_from([0, 2]))
@example([1, 2, 5], [0, 0, 0], 4, 2)  # the pending initial 5 ends the window [3, 5)
# the count window slides 25 times and grows 24 times
@example([1, 2], [109722824127411] * 3, 8, 2)
# 21 terms precede the pending initial 90; then the window slides 9 times
# and grows 8 times, across estimates that move it to the next value
@example([7, 11, 90], [0, 193081596755779, 0], 7, 0)
# the engine's window width and two wider ones, on the two cases above
@example([1, 2], [109722824127411] * 3, 128, 2)
@example([1, 2], [109722824127411] * 3, 256, 2)
@example([1, 2], [109722824127411] * 3, 1024, 2)
@example([7, 11, 90], [0, 193081596755779, 0], 128, 0)
@example([7, 11, 90], [0, 193081596755779, 0], 256, 0)
@example([7, 11, 90], [0, 193081596755779, 0], 1024, 0)
# at this frequency one window admits 135 and 137, in J, and then the
# outlier 139: the two wait in the batch until 139 is admitted
@example([2, 5], [109722824127411] * 3, 8, 2)
# here a sum of two untracked members of J lands in the window of the later
@example([5, 11, 30], [0, 193081596755779, 0], 7, 0)
def test_any_window_gives_the_same_terms(initials, estimates, window, tracked_j):
    # with _TRACKED_J = 0, the tracked members of J are those below the window
    forced = iter(estimates)
    with mock.patch.multiple(
        onedim,
        _estimate=lambda members, j: next(forced),
        **{**_SMALL_PHASES, "_WINDOW": window, "_TRACKED_J": tracked_j},
    ):
        fast = ulam_sequence(initials, 80).terms
    assert list(fast) == brute_force_sequence(initials, 80)


def test_weak_signal_falls_back_to_full_counts():
    # (67, 279) has a weak hidden signal: more than _MAX_OUTLIER_SHARE of the
    # members are outliers at every estimate (2000, 4000 and 8000 members),
    # so each estimate falls back to j = 0 and the counts stay complete
    terms = ulam_sequence((67, 279), 9000).terms
    with mock.patch.object(onedim, "_estimate", lambda members, j: 0):
        assert terms == ulam_sequence((67, 279), 9000).terms
    for m in (2000, 4000, 8000):
        # every term after the initials exceeds 279: the first m are the members
        members = np.array(terms[:m], dtype=np.int64)
        estimate = onedim._estimate(members, 0)
        outliers = np.count_nonzero(~onedim._in_class(onedim._residues(members, estimate)))
        assert outliers > onedim._MAX_OUTLIER_SHARE * m
