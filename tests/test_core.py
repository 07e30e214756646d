import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ulamset import (
    Bound,
    SizeFunction,
    generate,
    generate_reference,
    representation_count,
    ulam_sequence,
    validate_config,
)
from ulamset import cli, columns, core, verify
from ulamset.algebra import PrimeProductSize
from ulamset.errors import (
    BoundTooSmall,
    DimensionMismatch,
    DuplicateVector,
    EmptyConfig,
    GridTooLarge,
    NegativeCoordinate,
    ZeroVector,
)
from ulamset.onedim import Sequence1D


# ---------------------------------------------------------------------------
# validation


def test_validate_config_accepts_figure_config():
    cfg = validate_config([(1, 0), (2, 0), (0, 1)], 2)
    assert cfg.k == 3 and cfg.dim == 2


def test_validate_config_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        validate_config([(0, 0), (1, 1)], 2)


def test_validate_config_rejects_duplicates():
    with pytest.raises(DuplicateVector):
        validate_config([(1, 0), (1, 0)], 2)


def test_validate_config_rejects_negatives_and_empty():
    with pytest.raises(NegativeCoordinate):
        validate_config([(1, -1)], 2)
    with pytest.raises(EmptyConfig):
        validate_config([], 2)
    with pytest.raises(DimensionMismatch):
        validate_config([(1, 0, 0)], 2)


_PLANE = validate_config([(1, 0), (0, 1)], 2)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: Bound.box([3, -1]), ValueError, "box limits must be nonnegative integers"),
    (lambda: Bound.level(-1), ValueError, "level cap must be nonnegative"),
    (lambda: validate_config([(1,)], 0), DimensionMismatch, "dimension must be >= 1, got 0"),
    (lambda: generate(_PLANE, Bound.box((3, 3, 3))), DimensionMismatch,
     "box has 3 limits for dimension 2"),
    (lambda: generate(_PLANE, Bound.box((3, 3)), SizeFunction.weighted_sum((1, 2, 3))),
     DimensionMismatch, "3 weights for dimension 2"),
    (lambda: SizeFunction.weighted_sum((1, 0)), ValueError,
     "weighted-sum requires positive rational weights"),
    (lambda: SizeFunction("max").value((1, 2)), ValueError, "unknown size function kind 'max'"),
])
def test_bound_config_and_weight_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# generation: pinned membership examples


def test_two_generators_box7_membership():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((7, 7)))
    for p in [(1, 5), (5, 1), (3, 3), (3, 5), (5, 5), (7, 7)]:
        assert p in s
    for p in [(2, 2), (2, 5), (4, 3), (6, 6)]:
        assert p not in s


def test_axes_2_3_columns():
    s = generate(validate_config([(2, 0), (0, 1), (3, 1)], 2), Bound.box((10, 10)))
    assert sorted(p for p in s.points if p[0] == 2) == [(2, y) for y in range(11)]
    assert [p for p in s.points if p[0] == 4] == [(4, 1)]


def test_unit3d_level8():
    s = generate(
        validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3), Bound.level(8)
    )
    assert (2, 0, 1) in s and (2, 1, 0) in s and (2, 3, 3) in s
    assert not any(p[0] == p[1] == p[2] for p in s.points)


def test_bound_too_small():
    cfg = validate_config([(1, 0), (5, 5)], 2)
    with pytest.raises(BoundTooSmall):
        generate(cfg, Bound.box((3, 3)))
    with pytest.raises(BoundTooSmall):
        generate(cfg, Bound.level(4))


def test_points_sorted_by_level_then_lex():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((9, 9)))
    keys = [(l, p) for l, p in zip(s.levels, s.points)]
    assert keys == sorted(keys)
    assert all(l == sum(p) for l, p in keys)


# ---------------------------------------------------------------------------
# representation counts


def test_representation_count_pinned():
    members = {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}
    assert representation_count((2, 2), members) == 2
    assert representation_count((1, 1), {(1, 0), (0, 1)}) == 1


def test_representation_count_from_generated_set():
    s = generate(validate_config([(2, 0), (0, 1), (3, 1)], 2), Bound.box((6, 6)))
    assert representation_count((6, 1), s) == 1  # only (4,1) + (2,0)


def test_representation_count_rejects_zero():
    with pytest.raises(ZeroVector):
        representation_count((0, 0), {(1, 0)})


@pytest.mark.parametrize("p", [(2, 2, 5), (2,)])
def test_representation_count_rejects_another_dimension(p):
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 5)))
    assert representation_count((2, 2), s) == 2
    for members in (s, s.points):
        with pytest.raises(DimensionMismatch, match="dimension"):
            representation_count(p, members)


# ---------------------------------------------------------------------------
# the engine and the reference oracle agree


_SMALL_CONFIGS = [
    ([(1, 0), (0, 1)], (12, 12)),
    ([(1, 0), (2, 0), (0, 1)], (20, 20)),
    ([(2, 0), (0, 1), (3, 1)], (15, 15)),
    ([(9, 0), (0, 9), (1, 13)], (40, 40)),
    ([(2, 5), (3, 1)], (40, 40)),
    ([(1, 0), (0, 1), (2, 3)], (18, 18)),
    ([(1, 1), (2, 0), (3, 1)], (16, 16)),
    ([(3, 0), (0, 1), (1, 1)], (14, 14)),
]


@pytest.mark.parametrize("raw,box", _SMALL_CONFIGS)
def test_generate_matches_reference(raw, box):
    cfg = validate_config(raw, 2)
    a = generate(cfg, Bound.box(box))
    b = generate_reference(cfg, Bound.box(box))
    assert a.points == b.points


def test_box_post_filter_matches_reference():
    sizefn = SizeFunction.weighted_sum((2, "1/3"))
    for raw, box in _SMALL_CONFIGS[:4]:
        cfg = validate_config(raw, 2)
        a = generate(cfg, Bound.box(box), sizefn)
        b = generate_reference(cfg, Bound.box(box), sizefn)
        assert (a.points, a.levels) == (b.points, b.levels)


def test_reference_agrees_on_level_bound_3d():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    a = generate(cfg, Bound.level(12))
    b = generate_reference(cfg, Bound.level(12))
    assert a.points == b.points


# ---------------------------------------------------------------------------
# invariants


def _final_set_invariants(s):
    """Final-set uniqueness: members (non-initial) have exactly one
    representation, in-bound non-members never exactly one."""
    initials = set(s.config.initials)
    for p in s.points:
        if p in initials:
            continue
        assert representation_count(p, s) == 1, p
    if s.bound.kind == "box":
        cells = itertools.product(*[range(l + 1) for l in s.bound.limits])
    else:
        cap = int(s.bound.cap)
        cells = (
            c
            for c in itertools.product(range(cap + 1), repeat=s.dim)
            if sum(c) <= cap
        )
    for p in cells:
        if all(c == 0 for c in p) or p in s.members or p in initials:
            continue
        assert representation_count(p, s) != 1, p


def test_final_set_uniqueness_small_boxes():
    for raw, box in [(_SMALL_CONFIGS[0][0], (10, 10)), (_SMALL_CONFIGS[1][0], (14, 14))]:
        s = generate(validate_config(raw, 2), Bound.box(box))
        _final_set_invariants(s)


def test_monotone_growth_under_doubling():
    cfg = validate_config([(1, 0), (2, 0), (0, 1)], 2)
    small = generate(cfg, Bound.box((10, 10)))
    big = generate(cfg, Bound.box((20, 20)))
    assert set(small.points) <= set(big.points)
    assert len(big) > len(small)
    # exact truncation: the big set restricted to the small box is the small set
    inside = {p for p in big.points if p[0] <= 10 and p[1] <= 10}
    assert inside == set(small.points)


def test_permutation_symmetry_unit_vectors():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    s = generate(cfg, Bound.box((9, 9, 9)))
    pts = set(s.points)
    for perm in itertools.permutations(range(3)):
        assert {tuple(p[i] for i in perm) for p in pts} == pts


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_growth_commutes_with_permuting_coordinates(data):
    """Asymmetric initials: the set grown from permuted initials in the
    permuted bound is the permuted set, re-sorted by (level, lex)."""
    dim = data.draw(st.integers(2, 4), label="dim")
    raw = data.draw(_points_strategy(dim, max_coord=3), label="initials")
    perm = data.draw(st.permutations(range(dim)), label="perm")

    def swap(p):
        return tuple(p[i] for i in perm)

    assume(set(map(swap, raw)) != set(raw))
    if data.draw(st.booleans(), label="box"):
        extra = 12 if dim == 2 else 4
        bound = Bound.box([max(v[k] for v in raw) + data.draw(st.integers(0, extra))
                           for k in range(dim)])
        swapped = Bound.box(swap(bound.limits))
    else:
        bound = swapped = Bound.level(
            max(map(sum, raw)) + data.draw(st.integers(0, 14 if dim == 2 else 6)))
    s = generate(validate_config(raw, dim), bound)
    t = generate(validate_config(list(map(swap, raw)), dim), swapped)
    assert t.points == tuple(sorted(map(swap, s.points), key=lambda p: (sum(p), p)))


def test_scaling_maps_pointwise():
    cfg = validate_config([(1, 0), (2, 0), (0, 1)], 2)
    base = generate(cfg, Bound.box((12, 12)))
    for c in (2, 3):
        scaled_cfg = validate_config([(c * x, c * y) for x, y in cfg.initials], 2)
        scaled = generate(scaled_cfg, Bound.box((12 * c, 12 * c)))
        assert set(scaled.points) == {(c * x, c * y) for x, y in base.points}


# ---------------------------------------------------------------------------
# norm independence (property-based)


def _points_strategy(dim, max_coord=4):
    return st.lists(
        st.tuples(*[st.integers(0, max_coord)] * dim).filter(lambda p: any(p)),
        min_size=2,
        max_size=4,
        unique=True,
    )


@settings(max_examples=20, deadline=None)
@given(_points_strategy(2))
def test_norm_independence_2d(raw):
    cfg = validate_config(raw, 2)
    box = Bound.box((14, 14))
    base = generate(cfg, box, SizeFunction.coordinate_sum())
    euc = generate(cfg, box, SizeFunction.euclidean_norm_squared())
    wts = generate(cfg, box, SizeFunction.weighted_sum(("1/2", 3)))
    assert set(base.points) == set(euc.points) == set(wts.points)


@settings(max_examples=12, deadline=None)
@given(_points_strategy(2, max_coord=3))
def test_oracle_equivalence_random(raw):
    cfg = validate_config(raw, 2)
    box = Bound.box((12, 12))
    assert generate(cfg, box).points == generate_reference(cfg, box).points


@settings(max_examples=10, deadline=None)
@given(_points_strategy(1, max_coord=6))
def test_oracle_equivalence_random_1d(raw):
    cfg = validate_config(raw, 1)
    box = Bound.box((60,))
    assert generate(cfg, box).points == generate_reference(cfg, box).points


# ---------------------------------------------------------------------------
# engine corners: level bounds, asymmetric boxes, higher dimensions


def test_level_bound_dense_vs_reference_2d():
    cfg = validate_config([(1, 0), (2, 0), (0, 1)], 2)
    bound = Bound.level(25)
    assert generate(cfg, bound).points == generate_reference(cfg, bound).points


def test_level_bound_engines_agree_3d():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3)
    bound = Bound.level(14)
    assert generate(cfg, bound).points == generate_reference(cfg, bound).points


def test_asymmetric_box_mask_correctness():
    # tall thin and wide flat boxes exercise the padding of the dense
    # engine's flat grid on either axis
    cfg = validate_config([(1, 0), (2, 0), (0, 1)], 2)
    for box in [(5, 60), (60, 5), (3, 80)]:
        a = generate(cfg, Bound.box(box))
        b = generate_reference(cfg, Bound.box(box))
        assert a.points == b.points, box


def test_four_dimensional_unit_vectors():
    cfg = validate_config(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4
    )
    a = generate(cfg, Bound.level(7))
    b = generate_reference(cfg, Bound.level(7))
    assert a.points == b.points
    # permutation symmetry carries over
    pts = set(a.points)
    assert {(p[1], p[0], p[3], p[2]) for p in pts} == pts


def test_euclidean_level_truncation():
    cfg = validate_config([(1, 0), (0, 1)], 2)
    sizefn = SizeFunction.euclidean_norm_squared()
    bound = Bound.level(50)
    a = generate(cfg, bound, sizefn)
    b = generate_reference(cfg, bound, sizefn)
    assert a.points == b.points
    assert all(x * x + y * y <= 50 for x, y in a.points)
    # same membership as the box-bounded set, restricted to the disk
    big = generate(cfg, Bound.box((8, 8)))
    disk = {p for p in big.points if p[0] ** 2 + p[1] ** 2 <= 50}
    assert set(a.points) == disk


# ---------------------------------------------------------------------------
# dense engine: saturating counts and the two box updates


def _random_bound(data, raw, dim):
    """A box or level bound that holds every initial, kept small enough for
    the reference generator."""
    if data.draw(st.booleans(), label="box"):
        top = 12 if dim == 2 else 6
        return Bound.box(
            [data.draw(st.integers(max(p[i] for p in raw), top)) for i in range(dim)]
        )
    top = 16 if dim == 2 else 9
    return Bound.level(data.draw(st.integers(max(sum(p) for p in raw), top)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_dense_engine_exact_with_frequent_clamps(dim, data):
    """Clamping the counts after every one to three admissions, with either
    box update forced or the usual choice, changes no point."""
    raw = data.draw(_points_strategy(dim, max_coord=3), label="initials")
    cfg = validate_config(raw, dim)
    bound = _random_bound(data, raw, dim)
    want = generate_reference(cfg, bound).points
    with pytest.MonkeyPatch.context() as mp:
        clamp = data.draw(st.integers(1, 3), label="clamp")
        mp.setattr(core, "_CLAMP_EVERY", clamp)
        mp.setattr(
            core, "_SLICE_PER_MEMBER",
            data.draw(st.sampled_from([0, core._SLICE_PER_MEMBER, 10**9]), label="c"),
        )
        assert generate(cfg, bound).points == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_padded_layout_exact_on_elongated_boxes(dim, data):
    """One long axis among short ones, in any position, with the contiguous
    add or the gather forced on every member: an inner axis longer than the
    others gets the radix lmax + 1, so its carries land on cells of levels
    already selected, and the result still matches the reference."""
    raw = data.draw(_points_strategy(dim, max_coord=2), label="initials")
    cfg = validate_config(raw, dim)
    long_axis = data.draw(st.integers(0, dim - 1), label="long axis")
    k = data.draw(st.integers(3, {2: 30, 3: 12, 4: 7}[dim]), label="k")
    limits = [
        k if i == long_axis
        else data.draw(st.integers(max(p[i] for p in raw), 2), label=f"l{i}")
        for i in range(dim)
    ]
    bound = Bound.box(limits)
    want = generate_reference(cfg, bound).points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_SLICE_PER_MEMBER",
                   data.draw(st.sampled_from([0, 10**9]), label="c"))
        assert generate(cfg, bound).points == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_level_engine_exact_on_2d_boxes_with_frequent_clamps(data):
    """The level engine alone on 2-D boxes, which generate now sweeps by
    columns where it can, under the clamp and update patches of
    test_dense_engine_exact_with_frequent_clamps."""
    raw = data.draw(_points_strategy(2, max_coord=3), label="initials")
    cfg = validate_config(raw, 2)
    bound = Bound.box([data.draw(st.integers(max(p[i] for p in raw), 12)) for i in range(2)])
    want = generate_reference(cfg, bound).points
    with pytest.MonkeyPatch.context() as mp:
        clamp = data.draw(st.integers(1, 3), label="clamp")
        mp.setattr(core, "_CLAMP_EVERY", clamp)
        mp.setattr(
            core, "_SLICE_PER_MEMBER",
            data.draw(st.sampled_from([0, core._SLICE_PER_MEMBER, 10**9]), label="c"),
        )
        assert core._generate_levels(cfg, bound).points == want


def _initials_on_axes(data):
    """2-D initials with 0, 1 or 2 points on each axis and up to two off
    them, at least one in all."""
    on_y_axis = st.integers(1, 4).map(lambda b: (0, b))
    on_x_axis = st.integers(1, 4).map(lambda a: (a, 0))
    off = st.tuples(st.integers(1, 3), st.integers(1, 3))
    raw = []
    for points, label in ((on_y_axis, "x = 0"), (on_x_axis, "y = 0"), (off, "off the axes")):
        raw += data.draw(st.lists(points, max_size=2, unique=True), label=label)
    assume(raw)
    return raw


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_column_sweep_matches_reference_on_tall_and_wide_boxes(data):
    """generate sweeps a 2-D box along its shorter axis (axis 0 on a tie)
    when at most one initial is 0 on that axis, and runs the level engine
    otherwise; on tall, wide and square boxes every choice gives the
    reference's points."""
    raw = _initials_on_axes(data)
    cfg = validate_config(raw, 2)
    short = data.draw(st.integers(max(max(p) for p in raw), 6), label="short side")
    long = data.draw(st.integers(short, 22), label="long side")
    tall = data.draw(st.booleans(), label="tall")
    bound = Bound.box((short, long) if tall else (long, short))
    x = 0 if tall or short == long else 1
    want = x if sum(p[x] == 0 for p in raw) <= 1 else None
    assert core._sweep_axis(cfg, bound) == want
    assert generate(cfg, bound).points == generate_reference(cfg, bound).points


def test_longer_axis_is_never_swept(monkeypatch):
    """Two initials with y = 0 bar the sweep along the shorter axis y of a
    wide box; the longer axis x would qualify, but the level engine runs."""
    cfg = validate_config([(2, 0), (3, 0), (0, 1)], 2)
    bound = Bound.box((24, 5))
    want = generate_reference(cfg, bound).points
    assert core._sweep_axis(cfg, bound) is None

    def no_sweep(*args):
        raise AssertionError("the column sweep ran")

    monkeypatch.setattr(core, "_generate_columns", no_sweep)
    assert generate(cfg, bound).points == want


def test_column_sweep_refuses_an_inexact_pair_count(monkeypatch):
    """A pair count a quarter or more off an integer raises an internal
    error instead of being rounded."""
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    cfg = validate_config([(2, 0), (3, 0), (0, 1)], 2)
    with pytest.raises(RuntimeError, match="internal error"):
        generate(cfg, Bound.box((10, 40)))


def _chains_by_loop(counts, initials, delta):
    """The word transform along each chain Y = r mod delta, one chain and
    one point at a time; with delta = 0, each point on its own."""
    out = [bool(i or c == 1) for c, i in zip(counts, initials)]
    for r in range(delta):
        prev = 0
        for y in range(r, len(counts), delta):
            prev = 1 if initials[y] or counts[y] + prev == 1 else 0
            out[y] = bool(prev)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=200),
       st.sampled_from([np.uint8, np.float64]))
def test_chain_transform_matches_a_per_chain_loop(delta, points, dtype):
    counts = [c for c, _ in points]
    initials = [i for _, i in points]
    got = core._transform_chains(np.array(counts, dtype=dtype), np.array(initials, dtype=bool), delta)
    assert got.tolist() == _chains_by_loop(counts, initials, delta)


def test_clamp_interval_is_dtype_max_minus_two():
    """The box branch clamps its uint8 counts every max - 2 admissions."""
    assert core._COUNT_DTYPE is np.uint8
    assert core._CLAMP_EVERY == np.iinfo(np.uint8).max - 2


# sha256 of ";".join(",".join(coordinates)) over the points in output order,
# as computed by the dense engine with uint32 counts and a bool member grid
DENSE_SHA256 = [
    ([(1, 0), (2, 0), (0, 1)], Bound.box((60, 2000)), 14029,
     "2517fac583bd53ec0beb34006ca4268c134bbd796f15ec9b38a3ad2fdc3d9db2"),
    ([(2, 0), (3, 0), (0, 1)], Bound.box((70, 3000)), 30779,
     "112b83cdda6e596010a6d89f94fa7a53b2bd407f4795ba63259bc0ccccc10ede"),
    ([(1, 0), (0, 1), (6, 7)], Bound.box((200, 200)), 10106,
     "2b029c1ce55d5eb6030e21aa299c1b585968ecc1ff0ec8fc7a6a69bb4ab4b344"),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], Bound.level(60), 2817,
     "71162734343985e8ab8e02aca6d8a7fdfab6aa3299d95e67dd2e8393a9889354"),
    # level bounds, recorded with uint16 counts clamped every 65 533 admissions
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], Bound.level(200), 31092,
     "f541bd3516c50a2fe3826923deb60b21dbaa3aa7addba5560825a8306d8e9744"),
    ([(1, 0), (0, 1), (6, 7)], Bound.level(600), 45457,
     "8ea42c21d4792a88b0879372fe727ff3d029006424700007a25b759b1b3b41bd"),
]


@pytest.mark.parametrize("raw,bound,size,digest", DENSE_SHA256)
def test_dense_engine_matches_frozen_checksums(raw, bound, size, digest):
    s = generate(validate_config(raw, len(raw[0])), bound)
    text = ";".join(",".join(map(str, p)) for p in s.points)
    assert len(s) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_column_box_140_12000_matches_its_frozen_checksum():
    """sha256 as in DENSE_SHA256, computed by the level engine before 2-D
    boxes were swept by columns."""
    s = generate(validate_config([(2, 0), (3, 0), (0, 1)], 2), Bound.box((140, 12000)))
    text = ";".join(",".join(map(str, p)) for p in s.points)
    assert len(s) == 190550
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c9f277fae03186c81755830a2ade453f7357d2cddc7f57b9942b9fda1042216c")


def test_level_counts_saturate_past_255_representations():
    """The (1, 2) sequence to 40000 on a level bound: 1841 values up to
    40000 have more than 255 representations, and 17 of them a count of
    1 mod 256 (20999 has 257), so counts that wrapped at 256 would admit
    them."""
    want = [t for t in ulam_sequence((1, 2), 3104).terms if t <= 40000]
    assert want[-1] == 39988 and len(want) == 3103
    s = generate(validate_config([(1,), (2,)], 1), Bound.level(40000))
    assert s.coords[:, 0].tolist() == want


_UNITS_3D = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
_UNITS_4D = [tuple(int(i == j) for j in range(4)) for i in range(4)]

# sha256 of ";".join("x,y,...:level") over the points in output order, as
# computed by the hash-map engine that served these inputs before every
# size function became a filter over the dense box
SIZEFN_SHA256 = [
    (_UNITS_3D, Bound.level(2500), SizeFunction.euclidean_norm_squared(), 3117,
     "5619ea3feb4760337bac851fb381500f0d22d55a4f95c9874b3289d3040069fd"),
    ([(1, 0), (2, 0), (0, 1)], Bound.level(90), SizeFunction.weighted_sum((3, "1/2")),
     515, "c4e473934b18c3c39c7dbde4466555f5d932b06fd0a1dcb3f43301df72bc1b47"),
    (_UNITS_4D, Bound.level(40), None, 5386,
     "73c2f39403a682d8508075bc6398f2d05ccb090ad2b1454fca08139b1dee8e53"),
    ([(1, 0), (0, 1)], Bound.box((9, 9)), PrimeProductSize(2), 35,
     "6583151e0cc6fba7807ccb7308518fd3259ca6c49fe54b682c7441101aeded68"),
]


@pytest.mark.parametrize("raw,bound,sizefn,size,digest", SIZEFN_SHA256)
def test_size_functions_match_frozen_checksums(raw, bound, sizefn, size, digest):
    s = generate(validate_config(raw, len(raw[0])), bound, sizefn)
    text = ";".join(
        ",".join(map(str, p)) + ":" + str(l) for p, l in zip(s.points, s.levels)
    )
    assert len(s) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_size_function_post_filter_matches_reference(dim, data):
    """Any admissible f, on a box or a level bound, gives the reference's
    points and levels: the level bound is served by the box of the axis
    limits found by search, filtered to f <= c."""
    raw = data.draw(_points_strategy(dim, max_coord=3), label="initials")
    cfg = validate_config(raw, dim)
    weights = st.lists(st.fractions(Fraction(1, 4), 4), min_size=dim, max_size=dim)
    sizefn = data.draw(st.one_of(
        st.just(SizeFunction.euclidean_norm_squared()),
        weights.map(SizeFunction.weighted_sum),
        st.just(PrimeProductSize(dim)),
    ), label="f")
    if data.draw(st.booleans(), label="box"):
        top = 10 if dim == 2 else 5
        bound = Bound.box(
            [data.draw(st.integers(max(p[i] for p in raw), top)) for i in range(dim)]
        )
    else:
        # the level of a random point a little beyond the initials
        far = data.draw(st.tuples(*[st.integers(0, 8 if dim == 2 else 4)] * dim))
        bound = Bound.level(max(sizefn.value(p) for p in raw + [far]))
    a = generate(cfg, bound, sizefn)
    b = generate_reference(cfg, bound, sizefn)
    assert (a.points, a.levels) == (b.points, b.levels)


@pytest.mark.parametrize("bound,sizefn", [
    (Bound.box((3, 4)), None),
    (Bound.level(6), None),
    (Bound.level(40), SizeFunction.euclidean_norm_squared()),
    (Bound.level(10**30), PrimeProductSize(2)),
])
def test_grid_over_the_cell_limit_raises_before_allocating(monkeypatch, bound, sizefn):
    cfg = validate_config([(1, 0), (0, 1)], 2)
    monkeypatch.setattr(core, "_MAX_BYTES", 38)

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(core.np, "zeros", no_grid)
    with pytest.raises(GridTooLarge):
        generate(cfg, bound, sizefn)


def test_grid_at_the_cell_limit_is_generated(monkeypatch):
    # the 4 x 5 box takes a 4 x 8 padded grid, radix min(2 * 5 - 1, 3 + 4 + 1),
    # of 2 B per cell: uint8 counts and members
    cfg = validate_config([(1, 0), (0, 1)], 2)
    monkeypatch.setattr(core, "_MAX_BYTES", 64)
    want = generate_reference(cfg, Bound.box((3, 4))).points
    assert generate(cfg, Bound.box((3, 4))).points == want
    monkeypatch.setattr(core, "_MAX_BYTES", 62)
    with pytest.raises(GridTooLarge):
        generate(cfg, Bound.box((3, 4)))


def test_a_refused_level_bound_names_itself():
    """Level 669 is the first refused cube level, at 1 B per cell."""
    units = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    with pytest.raises(GridTooLarge) as err:
        generate(units, Bound.level(669))
    assert str(err.value) == ("level 669 in dimension 3, a 670x670x670 grid: "
                              "300763000 bytes, over the limit of 300000000")


class _Started(Exception):
    pass


def test_the_last_served_cube_level_passes_the_byte_check(monkeypatch):
    """Level 668, a 669x669x669 grid of 299418309 bytes, gets as far as its
    first allocation."""
    monkeypatch.setattr(np, "zeros", mock.Mock(side_effect=_Started))
    with pytest.raises(_Started):
        generate(validate_config(_UNITS_3D, 3), Bound.level(668))


def test_a_refused_box_of_another_size_function_names_the_box(monkeypatch):
    monkeypatch.setattr(core, "_MAX_BYTES", 38)
    with pytest.raises(GridTooLarge) as err:
        generate(_PLANE, Bound.box((3, 4)), SizeFunction.euclidean_norm_squared())
    assert str(err.value) == "the 4x5 box, a 4x8 grid: 64 bytes, over the limit of 38"


def test_column_spectra_over_the_byte_cap_fall_back_to_the_level_engine(monkeypatch):
    """The 5 x 12 box's level grid has 6 x 18 = 108 cells, 216 bytes at
    2 B per cell, and its column spectra 16 * 6 * (25 // 2 + 1) = 1248
    bytes.  With room for the grid alone the level engine runs; the sweep
    needs a limit of 1248 bytes."""
    cfg = validate_config([(1, 0), (0, 1)], 2)
    bound = Bound.box((5, 12))
    want = generate_reference(cfg, bound).points
    sweep = core._generate_columns
    ran = []

    def recording(*args):
        ran.append(True)
        return sweep(*args)

    monkeypatch.setattr(core, "_generate_columns", recording)
    for limit, swept in ((216, False), (1246, False), (1248, True)):
        monkeypatch.setattr(core, "_MAX_BYTES", limit)
        ran.clear()
        assert generate(cfg, bound).points == want
        assert bool(ran) == swept, limit


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_2d_box_is_refused_exactly_when_its_level_grid_is_over_budget(data):
    """Whichever engine a 2-D box goes to, generate refuses it exactly when
    the level grid, 2 (l_0 + 1) min(2 l_1 + 1, l_0 + l_1 + 1) bytes, takes
    more than _MAX_BYTES, and otherwise gives the reference's points."""
    raw = _initials_on_axes(data)
    cfg = validate_config(raw, 2)
    least = max(max(p) for p in raw)
    l0, l1 = (data.draw(st.integers(least, 14), label=f"l{i}") for i in range(2))
    limit = data.draw(st.integers(1, 4000), label="_MAX_BYTES")
    bound = Bound.box((l0, l1))
    with mock.patch.object(core, "_MAX_BYTES", limit):
        if 2 * (l0 + 1) * min(2 * l1 + 1, l0 + l1 + 1) > limit:
            assert core._sweep_axis(cfg, bound) is None
            with pytest.raises(GridTooLarge):
                generate(cfg, bound)
        else:
            assert generate(cfg, bound).points == generate_reference(cfg, bound).points


@pytest.mark.parametrize("dim,cap", [(2, 9), (3, 6), (4, 4)])
def test_level_bound_allocates_exactly_its_cells(monkeypatch, dim, cap):
    """A level bound's grid has no padding: (cap + 1)^d count cells."""
    sizes = []
    zeros = np.zeros

    def recording(shape, *args, **kwargs):
        sizes.append(int(np.prod(shape)))
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(core.np, "zeros", recording)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    generate(validate_config(units, dim), Bound.level(cap))
    assert max(sizes) == (cap + 1) ** dim


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=2, max_size=3, unique=True))
def test_dimension_one_box_matches_sequence(initials):
    x = 200
    s = generate(validate_config([(a,) for a in initials], 1), Bound.box((x,)))
    terms = ulam_sequence(initials, x + 1).terms  # x + 1 distinct terms pass x
    assert [p[0] for p in s.points] == [t for t in terms if t <= x]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_level_bound_is_the_box_filtered_to_the_level(dim, data):
    """The dense level branch equals the dense box branch over (c,)*d kept
    to coordinate sum <= c: a box is downward closed, so its slice is exact."""
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    with_units = _points_strategy(dim, max_coord=4).map(
        lambda extra: units + [p for p in extra if p not in units][:2]
    )  # the unit vectors give dense sets, which reach every level
    raw = data.draw(_points_strategy(dim, max_coord=4) | with_units, label="initials")
    cfg = validate_config(raw, dim)
    c = data.draw(
        st.integers(max(sum(p) for p in raw), {2: 40, 3: 14, 4: 16}[dim]), label="c"
    )
    level = generate(cfg, Bound.level(c))
    box = generate(cfg, Bound.box((c,) * dim))
    kept = [(p, f) for p, f in zip(box.points, box.levels) if f <= c]
    assert list(zip(level.points, level.levels)) == kept


# ---------------------------------------------------------------------------
# the coordinate array


@pytest.mark.parametrize("raw,bound,sizefn", [
    ([(1, 0), (2, 0), (0, 1)], Bound.box((8, 40)), None),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], Bound.level(9), None),
    ([(1, 0), (0, 1)], Bound.level(30), SizeFunction.euclidean_norm_squared()),
])
def test_coords_hold_the_points_in_order(raw, bound, sizefn):
    s = generate(validate_config(raw, len(raw[0])), bound, sizefn)
    assert s.coords.dtype == np.int64 and s.coords.shape == (len(s), s.dim)
    assert [tuple(r) for r in s.coords.tolist()] == list(s.points)
    assert not s.coords.flags.writeable
    with pytest.raises(ValueError):
        s.coords[0, 0] = 5


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_grid_is_membership_over_any_box(dim, data):
    """Negative corners, an axis with hi < lo and the empty set included."""
    pts = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), unique=True), label="pts")
    s = core.UlamSet(validate_config([(1,) * dim], dim), SizeFunction.coordinate_sum(),
                     Bound.box((6,) * dim), pts)
    lo = data.draw(st.tuples(*[st.integers(-3, 7)] * dim), label="lo")
    hi = data.draw(st.tuples(*[st.integers(-4, 8)] * dim), label="hi")
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    want = np.array([p in s for p in itertools.product(*ranges)], dtype=bool)
    got = s.grid(lo, hi)
    assert got.dtype == bool and got.shape == tuple(map(len, ranges))
    assert got.ravel().tolist() == want.tolist()


@pytest.mark.parametrize("lo,hi", [
    ((0, 0, 0), (5, 5, 5)),  # each member would be smeared along z
    ((0, 0), (5,)),  # hi would be broadcast to (5, 5)
    ((0,), (5,)),  # an IndexError from the fill
    (0, (5, 5)),
])
def test_grid_refuses_corners_of_another_dimension(lo, hi):
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 5)))
    assert s.grid((0, 0), (5, 5)).sum() == len(s) == 15
    with pytest.raises(DimensionMismatch, match="for dimension 2"):
        s.grid(lo, hi)


@pytest.mark.parametrize("bound,dim", [
    (Bound.box((3, 0, 5)), 3), (Bound.box((4,)), 1), (Bound.level(0), 2),
    (Bound.level(5), 1), (Bound.level(5), 3), (Bound.level(Fraction(7, 2)), 2),
    (Bound.level(Fraction(1, 3)), 3),
])
def test_reach_is_the_largest_coordinate_per_axis(bound, dim):
    pts = [p for p in itertools.product(range(8), repeat=dim) if bound.contains(p, sum(p))]
    assert bound.reach(dim) == tuple(max(p[i] for p in pts) for i in range(dim))


def test_coords_of_a_replaced_set_follow_its_points():
    assert [f.name for f in dataclasses.fields(core.UlamSet)] == ["config", "sizefn", "bound", "coords"]
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((6, 6)))
    assert len(s.points) == len(s.members) == len(s)  # cached before the copy is made
    pts = s.points[:3] + ((2, 2),)
    t = dataclasses.replace(s, coords=pts)
    assert t.coords.tolist() == [list(p) for p in pts]
    assert (len(t), t.points, t.levels) == (4, pts, tuple(map(sum, pts)))
    assert t.members == frozenset(pts) and (2, 2) in t and s.points[3] not in t
    empty = dataclasses.replace(s, coords=())
    assert empty.coords.shape == (0, 2) and empty.points == () and not empty.members
    assert generate_reference(s.config, s.bound).coords.tolist() == s.coords.tolist()
    # a writeable array is copied, so a later write to it leaves the set as it was
    a = np.array(pts, dtype=np.int64)
    u = dataclasses.replace(s, coords=a)
    assert u.points == pts
    a[0] = (5, 5)
    assert u.coords.tolist() == [list(p) for p in pts] and not u.coords.flags.writeable
    assert u == t and hash(u) == hash(t) and u != s and (5, 5) not in u
    # the engine's read-only array is kept as it is
    assert dataclasses.replace(s, coords=s.coords).coords is s.coords


def test_points_given_by_keyword_take_the_place_of_coords():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((6, 6)))
    pts = s.points[:3] + ((2, 2),)
    t = dataclasses.replace(s, points=pts, levels=tuple(map(sum, pts)), members=frozenset(pts))
    assert t == dataclasses.replace(s, coords=pts)
    assert (len(t), len(t.levels), len(t.members)) == (4, 4, 4) and (2, 2) in t
    with pytest.raises(ValueError, match="disagree"):
        dataclasses.replace(s, points=pts, members=frozenset(s.points))
    with pytest.raises(ValueError, match="disagree"):
        dataclasses.replace(s, points=pts, levels=s.levels)
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(s, points=((1, 2, 3),))


@pytest.mark.parametrize("coords", [
    ((1, 2, 3), (4, 5, 6)),
    ((1,), (2,)),
    [1, 2],
    np.zeros((0, 3), dtype=np.int64),
    np.zeros((1, 2, 2), dtype=np.int64),
])
def test_points_of_the_wrong_width_are_refused(coords):
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((6, 6)))
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(s, coords=coords)
    with pytest.raises(DimensionMismatch):
        core.UlamSet(s.config, s.sizefn, s.bound, coords)


_BASES = {d: generate(validate_config([(1,) * d], d), Bound.box((6,) * d)) for d in range(1, 5)}


@st.composite
def _point_lists(draw):
    """A size function and a list of 0 to 20 distinct points of dimension
    1 to 4, in a random order."""
    dim = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), max_size=20, unique=True))
    sizefn = draw(st.sampled_from([
        SizeFunction.coordinate_sum(),
        SizeFunction.euclidean_norm_squared(),
        SizeFunction.weighted_sum([Fraction(i + 1, 2) for i in range(dim)]),
    ]))
    return dim, pts, sizefn


@settings(max_examples=200, deadline=None)
@given(_point_lists())
def test_a_set_agrees_with_its_point_list(case):
    dim, pts, sizefn = case
    s = dataclasses.replace(_BASES[dim], sizefn=sizefn, coords=pts)
    assert len(s) == len(pts) and s.coords.shape == (len(pts), dim)
    assert s.points == tuple(pts)
    assert s.levels == tuple(map(sizefn.value, pts))
    assert s.members == frozenset(pts)
    assert all(p in s and list(p) in s for p in pts)
    assert (7,) * dim not in s
    t = core.UlamSet(s.config, sizefn, s.bound, np.array(pts, dtype=np.int64).reshape(-1, dim))
    assert s == t and hash(s) == hash(t)
    assert (s == dataclasses.replace(s, coords=pts[::-1])) == (len(pts) < 2)
    assert s != dataclasses.replace(s, coords=pts + [(7,) * dim])
    assert (s == dataclasses.replace(s, sizefn=SizeFunction.coordinate_sum())) == (
        sizefn == SizeFunction.coordinate_sum()
    )


def _fully_built(s):
    """A copy of ``s`` built from its points as tuples, as the reference engine builds sets."""
    return core.UlamSet(s.config, s.sizefn, s.bound, s.points)


@pytest.mark.parametrize("raw,bound", [
    ([(1, 0), (2, 0), (0, 1)], Bound.box((8, 40))),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], Bound.level(9)),
    ([(2,), (3,)], Bound.box((30,))),
])
def test_a_set_built_from_coords_agrees_with_its_fully_built_copy(raw, bound):
    cfg = validate_config(raw, len(raw[0]))
    s = generate(cfg, bound)
    assert repr(s) and len(s)
    assert not {"points", "levels", "members"} & vars(s).keys()  # nothing derived yet
    full = _fully_built(generate(cfg, bound))
    assert (len(s), repr(s)) == (len(full), repr(full))
    outside = [tuple(c + 1 for c in p) for p in full.points[-3:]] + [(0,) * s.dim]
    for p in full.points[:5] + tuple(outside):
        assert (p in s) == (p in full)
    assert s == full and hash(s) == hash(full)
    assert s.levels == tuple(map(sum, s.points))
    assert s == generate_reference(cfg, bound)


def test_a_set_is_unequal_to_what_is_not_a_set():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((3, 3)))
    assert s.__eq__(s.points) is NotImplemented
    assert s != s.points and s != 0 and s not in [None, "x"]


def _no_derivation(s):
    raise AssertionError("a derived field of a generated set was read")


def test_the_plane_ops_read_only_the_coordinate_array(monkeypatch, capsys):
    # the ops of the benchmark's plane workload, on smaller boxes
    for name in ("points", "levels", "members"):
        monkeypatch.setattr(vars(core.UlamSet)[name], "func", _no_derivation)
    for raw, box in (([(1, 0), (2, 0), (0, 1)], (20, 400)), ([(2, 0), (3, 0), (0, 1)], (30, 400))):
        s = generate(validate_config(raw, 2), Bound.box(box))
        assert columns.columns_report(s).nonempty_indices()
        assert cli.set_to_csv(s).count("\n") == len(s) + 1
    box = Bound.box((60, 60))
    s = generate(validate_config([(1, 0), (0, 1), (6, 4)], 2), box)
    assert verify.compare_set_to_oracle(s, "extra-vector", box, 6, 4).ok
    assert cli.run(["generate", "--init", "(2,0),(3,0),(0,1)", "--box", "30,400"]) == 0
    assert capsys.readouterr().out.startswith("x,y\n")
    # the size-function filter and the angle ranking of the whole set
    cfg = validate_config([(1, 0), (0, 1), (6, 4)], 2)
    for sizefn, bound in ((SizeFunction.weighted_sum([1, Fraction(3, 2)]), Bound.level(16)),
                          (SizeFunction.euclidean_norm_squared(), Bound.level(150))):
        assert generate(cfg, bound, sizefn) == generate_reference(cfg, bound, sizefn)
    ranked = verify.angle_ranking(s)
    assert sorted(p for p, _ in ranked) == sorted(map(tuple, s.coords.tolist()))
    angles = [a for _, a in ranked]
    assert angles == sorted(angles, reverse=True)
    with pytest.raises(AssertionError, match="derived field"):
        s.points


def test_signal_row_mode_reads_only_the_coordinate_array(monkeypatch):
    s = generate(validate_config([(2, 0), (3, 0), (0, 1)], 2), Bound.box((30, 400)))
    walks = [tuple(sorted(p[0] for p in s.points if p[1] == y and p[0] > 0)) for y in (0, 1, 7)]
    for name in ("points", "levels", "members"):
        monkeypatch.setattr(vars(core.UlamSet)[name], "func", _no_derivation)
    scanned = []

    def record(initials, terms):
        scanned.append(terms)
        return Sequence1D(initials, terms)

    monkeypatch.setattr(cli, "Sequence1D", record)
    for y in (0, 1, 7):
        assert cli.run(["signal", "--set-init", "(2,0),(3,0),(0,1)", "--box", "30,400",
                        "--row", str(y), "--alpha", "2.5"]) == 0
    assert scanned == walks
