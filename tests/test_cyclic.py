import dataclasses
import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamset import cli, core
from ulamset.cyclic import CyclicPoint, finiteness_certificate, generate_cyclic
from ulamset.errors import (
    BoundTooSmall,
    DuplicateVector,
    GridTooLarge,
    InconclusiveBound,
    InvalidInitials,
)
from ulamset.onedim import ulam_sequence

# Plotted points of the mod-6 set from {(1,3), (3,4)} up to x = 20
FIG_MOD6_PREFIX = sorted(
    [
        (1, 3), (3, 4), (4, 1), (5, 4), (6, 1), (7, 4), (7, 5), (8, 1), (9, 4),
        (10, 1), (10, 3), (11, 4), (12, 1), (12, 3), (13, 1), (13, 4), (14, 1),
        (14, 3), (15, 4), (16, 1), (16, 3), (16, 5), (17, 4), (18, 1), (18, 3),
        (18, 5), (19, 3), (19, 4), (20, 1), (20, 3), (20, 5),
    ]
)


def brute_force_cyclic(initials, modulus, x_bound, sequential=False):
    """Definition-faithful oracle.  With sequential=True, candidates are
    admitted one at a time ordered by modulus*x + r instead of per-x
    batches; the resulting set must not change."""
    current = set(initials)
    while True:
        counts = {}
        for u, v in combinations(sorted(current), 2):
            s = (u[0] + v[0], (u[1] + v[1]) % modulus)
            if s[0] <= x_bound:
                counts[s] = counts.get(s, 0) + 1
        eligible = [s for s, c in counts.items() if c == 1 and s not in current]
        if not eligible:
            return current
        fmin = min(s[0] for s in eligible)
        batch = [s for s in eligible if s[0] == fmin]
        if sequential:
            current.add(min(batch, key=lambda s: modulus * s[0] + s[1]))
        else:
            current.update(batch)


def test_mod6_matches_plotted_points_up_to_20():
    s = generate_cyclic([(1, 3), (3, 4)], 6, 20)
    assert sorted(s.points) == FIG_MOD6_PREFIX


def test_cyclic_repr_shows_modulus_bound_and_size():
    assert repr(generate_cyclic([(1, 0), (2, 1)], 7, 12)) == "CyclicUlamSet(mod=7, x<=12, n=18)"


def test_mod6_avoided_residues_empirical():
    s = generate_cyclic([(1, 3), (3, 4)], 6, 100)
    assert {r for _, r in s.points} == {1, 3, 4, 5}  # 0 and 2 never appear


def test_mod11_growth():
    s = generate_cyclic([(1, 0), (1, 1)], 11, 12)
    for p in [(2, 1), (3, 1), (3, 2), (12, 0)]:
        assert p in s


def test_matches_brute_force_oracle():
    cases = [
        ([(1, 3), (3, 4)], 6, 30),
        ([(1, 0), (1, 1)], 11, 15),
        ([(1, 0), (1, 1), (1, 2)], 3, 33),
        ([(2, 1), (3, 2)], 4, 30),
    ]
    for initials, n, bound in cases:
        fast = set(generate_cyclic(initials, n, bound).points)
        assert fast == brute_force_cyclic(initials, n, bound)


def test_tie_order_does_not_change_the_set():
    # batch admission (size x) vs sequential admission (size n*x + r)
    for initials, n, bound in [([(1, 3), (3, 4)], 6, 25), ([(1, 0), (1, 1)], 5, 20)]:
        batch = brute_force_cyclic(initials, n, bound)
        seq = brute_force_cyclic(initials, n, bound, sequential=True)
        assert batch == seq
        assert batch == set(generate_cyclic(initials, n, bound).points)


def test_validation():
    with pytest.raises(InvalidInitials):
        generate_cyclic([(0, 1)], 3, 10)  # x must be positive
    with pytest.raises(InvalidInitials):
        generate_cyclic([(1, 5)], 3, 10)  # residue outside Z_3
    with pytest.raises(BoundTooSmall):
        generate_cyclic([(1, 0), (15, 0)], 2, 10)


@pytest.mark.parametrize("bad", [(1,), (1, 2, 0), 1, "12x"])
def test_initials_must_be_pairs(bad):
    with pytest.raises(InvalidInitials, match="not an \\(x, residue\\) pair"):
        generate_cyclic([(1, 0), bad], 3, 10)


@pytest.mark.parametrize("initials,exc,message", [
    ([(1, 0), (1, 0)], DuplicateVector, "initial (1, 0) appears twice"),
    ([], InvalidInitials, "at least one initial element is required"),
])
def test_duplicate_or_missing_initials_are_refused(initials, exc, message):
    with pytest.raises(exc) as info:
        generate_cyclic(initials, 3, 10)
    assert str(info.value) == message


def test_single_initial_certified_finite():
    s = generate_cyclic([(1, 0)], 2, 10)
    assert s.points == ((1, 0),)
    assert finiteness_certificate(s)


def test_nontrivial_certified_finite_set():
    # {(1,0),(1,1),(1,3)} mod 7 closes after 12 elements (computed, frozen)
    frozen = [
        (1, 0), (1, 1), (1, 3), (2, 1), (2, 3), (2, 4),
        (3, 0), (3, 1), (3, 2), (3, 3), (3, 5), (3, 6),
    ]
    s = generate_cyclic([(1, 0), (1, 1), (1, 3)], 7, 60)
    assert sorted(s.points) == frozen
    assert finiteness_certificate(s)
    # soundness: doubling the bound adds nothing
    s2 = generate_cyclic([(1, 0), (1, 1), (1, 3)], 7, 120)
    assert sorted(s2.points) == frozen


def test_mod3_all_residue_initials_keep_growing():
    """The three-initial mod-3 configuration is not finite: each power of
    two admits a fresh residue triple, so the completeness certificate can
    never be established."""
    s = generate_cyclic([(1, 0), (1, 1), (1, 2)], 3, 64)
    xs = sorted({x for x, _ in s.points})
    assert xs == [1, 2, 4, 8, 16, 32, 64]
    assert all(
        {r for x, r in s.points if x == v} == {0, 1, 2} for v in xs
    )
    with pytest.raises(InconclusiveBound):
        finiteness_certificate(s)  # the newest triple sits at the bound


def test_growing_set_never_certifies():
    # a set that keeps growing occupies its bound, so the certificate
    # precondition 2 * max_x <= x_bound cannot hold
    s = generate_cyclic([(1, 3), (3, 4)], 6, 100)
    assert 2 * s.max_x > 100
    with pytest.raises(InconclusiveBound):
        finiteness_certificate(s)


def test_certificate_false_on_incomplete_set():
    # fault injection: drop one element of a certified-finite set; some
    # pairwise sum becomes uniquely representable and the check fails
    import dataclasses

    s = generate_cyclic([(1, 0), (1, 1), (1, 3)], 7, 60)
    pts = tuple(p for p in s.points if p != (3, 0))
    broken = dataclasses.replace(s, points=pts)
    assert not finiteness_certificate(broken)


def test_members_follow_the_points_of_a_replaced_set():
    s = generate_cyclic([(1, 3), (3, 4)], 6, 40)
    t = dataclasses.replace(s, points=s.points[:2])
    assert t.members == frozenset(s.points[:2]) and s.points[2] not in t


def test_norm_independence_x_vs_scaled():
    """Ordering by x alone and by modulus*x + r admit identical sets."""
    for initials, n, bound in [([(1, 3), (3, 4)], 6, 40), ([(1, 1), (2, 2)], 4, 30)]:
        assert brute_force_cyclic(initials, n, bound) == brute_force_cyclic(
            initials, n, bound, sequential=True
        )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=2, max_size=3, unique=True))
def test_modulus_one_is_the_sequence(initials):
    x = 150
    cset = generate_cyclic([(a, 0) for a in initials], 1, x)
    terms = ulam_sequence(initials, x + 1).terms  # x + 1 distinct terms pass x
    assert [p[0] for p in cset.points] == [t for t in terms if t <= x]


def pairwise_certificate(points, modulus, x_bound):
    """The certificate by its definition, pair by pair: None when x_bound is
    below twice the largest x, else whether no pairwise sum of distinct
    points is a non-member with exactly one representation."""
    if 2 * max(x for x, _ in points) > x_bound:
        return None
    reps = {}
    for u, v in combinations(points, 2):
        s = (u[0] + v[0], (u[1] + v[1]) % modulus)
        reps[s] = reps.get(s, 0) + 1
    members = set(points)
    return all(c != 1 or s in members for s, c in reps.items())


@st.composite
def _cyclic_inputs(draw):
    """A modulus 1-12, 1-4 distinct initials with x <= 6 and an x_bound <= 30."""
    n = draw(st.integers(1, 12))
    initials = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, n - 1)),
                             min_size=1, max_size=4, unique=True))
    return initials, n, draw(st.integers(max(x for x, _ in initials), 30))


@settings(max_examples=300, deadline=None)
@given(_cyclic_inputs())
def test_generate_matches_the_brute_force_oracle_on_random_inputs(case):
    initials, n, x_bound = case
    s = generate_cyclic(initials, n, x_bound)
    assert s.points == tuple(sorted(brute_force_cyclic(initials, n, x_bound)))


@settings(max_examples=100, deadline=None)
@given(_cyclic_inputs(), st.integers(1, 3))
def test_generate_matches_the_brute_force_oracle_with_frequent_clamps(case, every):
    """Clamping the counts before every one to three admissions, where the
    random inputs above rarely reach the 253 that run a clamp at all."""
    initials, n, x_bound = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CLAMP_EVERY", every)
        s = generate_cyclic(initials, n, x_bound)
    assert s.points == tuple(sorted(brute_force_cyclic(initials, n, x_bound)))


@settings(max_examples=300, deadline=None)
@given(_cyclic_inputs(), st.integers(0, 10**6))
def test_certificate_matches_the_pairwise_definition(case, drop):
    initials, n, x_bound = case
    s = generate_cyclic(initials, n, x_bound)
    sets = [s]
    if len(s) > 1:  # the same set with one point removed
        i = drop % len(s)
        pts = s.points[:i] + s.points[i + 1:]
        sets.append(dataclasses.replace(s, points=pts))
    # and each with the least bound that decides it
    sets += [dataclasses.replace(t, x_bound=2 * t.max_x) for t in sets]
    for t in sets:
        expected = pairwise_certificate(t.points, n, t.x_bound)
        if expected is None:
            with pytest.raises(InconclusiveBound):
                finiteness_certificate(t)
        else:
            assert finiteness_certificate(t) == expected


# sha256 of the standard output of two cyclic command lines (the README
# figure line, written to standard output), recorded with the former
# dict-based engine
CYCLIC_OUTPUT_SHA256 = [
    (["--cyclic", "6", "--init", "(1,3),(3,4)", "--x-bound", "92", "--format", "svg"], 5295,
     "8b7ef49227c90d6e807d8facbe4da9e4fbcffbfd3bc64416cff26c2b335fed70"),
    (["--cyclic", "7", "--init", "(1,0),(2,1)", "--x-bound", "4000"], 21539,
     "031a1e1b1f8ee1d1706517ef9e9860ca0fa1cc1e043d6417014dc921cca19969"),
]


@pytest.mark.parametrize("argv,size,digest", CYCLIC_OUTPUT_SHA256)
def test_cyclic_outputs_match_frozen_checksums(capsys, argv, size, digest):
    assert cli.run(["generate"] + argv) == 0
    out = capsys.readouterr().out
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _no_allocation(*args, **kwargs):
    raise AssertionError("a grid was allocated")


def test_a_grid_over_the_cell_limit_fails_before_allocating(monkeypatch, capsys):
    for name in ("zeros", "zeros_like", "full", "empty"):
        monkeypatch.setattr(np, name, _no_allocation)
    with pytest.raises(GridTooLarge, match="over the limit"):
        generate_cyclic([(1, 0), (2, 1)], 7, 10**9)
    with pytest.raises(GridTooLarge):  # one cell, 2 bytes, over the limit
        generate_cyclic([(1, 0)], 1, core._MAX_BYTES // 2)
    argv = ["generate", "--cyclic", "7", "--init", "(1,0),(2,1)", "--x-bound", "1000000000"]
    assert cli.run(argv) == 2
    assert "over the limit" in capsys.readouterr().err


def test_a_grid_at_the_byte_limit_is_allocated(monkeypatch):
    # x_bound 10 mod 7 takes an 11 x 13 grid of uint8 counts and members
    for name in ("zeros", "zeros_like", "full", "empty"):
        monkeypatch.setattr(np, name, _no_allocation)
    monkeypatch.setattr(core, "_MAX_BYTES", 2 * 11 * 13)
    with pytest.raises(AssertionError, match="allocated"):
        generate_cyclic([(1, 0), (2, 1)], 7, 10)
    monkeypatch.setattr(core, "_MAX_BYTES", 2 * 11 * 13 - 1)
    with pytest.raises(GridTooLarge, match="286 bytes, over the limit of 285"):
        generate_cyclic([(1, 0), (2, 1)], 7, 10)


def test_the_fold_does_not_wrap():
    # initials that fill rows 1..69 mod 11 are 3 x 253 admissions.  The last
    # clamp keeps 2 in both halves of each cell (70, r), r < 10, and each of
    # the 253 admissions after it adds one representation to one half: 257,
    # which wraps to 1 in uint8.  Every residue at x = 70 has many.
    rows = [(x, r) for x in range(1, 70) for r in range(11)]
    s = generate_cyclic(rows, 11, 140)
    assert s.points == tuple(rows)
    assert finiteness_certificate(s)
