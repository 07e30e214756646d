import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
from ulamset import core
from ulamset.algebra import PrimeProductSize
from ulamset.core import _generate_dense
from ulamset.errors import (
    BoundTooSmall,
    DimensionMismatch,
    DuplicateVector,
    EmptyConfig,
    GridTooLarge,
    NegativeCoordinate,
    ZeroVector,
)


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
    assert _generate_dense(cfg, bound).points == generate_reference(cfg, bound).points


def test_level_bound_engines_agree_3d():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3)
    bound = Bound.level(14)
    assert _generate_dense(cfg, bound).points == generate_reference(cfg, bound).points


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
    """Clamping the counts after every one to three admissions, in chunks of
    one to seven cells, with either box update forced or the usual choice,
    changes no point."""
    raw = data.draw(_points_strategy(dim, max_coord=3), label="initials")
    cfg = validate_config(raw, dim)
    bound = _random_bound(data, raw, dim)
    want = generate_reference(cfg, bound).points
    with pytest.MonkeyPatch.context() as mp:
        clamp = data.draw(st.integers(1, 3), label="clamp")
        mp.setattr(core, "_CLAMP_EVERY", {"box": clamp, "level": clamp})
        mp.setattr(core, "_CLAMP_CHUNK", data.draw(st.integers(1, 7), label="chunk"))
        mp.setattr(
            core, "_SLICE_PER_MEMBER",
            data.draw(st.sampled_from([0, core._SLICE_PER_MEMBER, 10**9]), label="c"),
        )
        assert _generate_dense(cfg, bound).points == want


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
        assert _generate_dense(cfg, bound).points == want


def test_clamp_interval_is_dtype_max_minus_two():
    """Each branch clamps its saturating counts every max - 2 admissions:
    uint8 counts on a box, uint16 on a level bound."""
    assert core._COUNT_DTYPE == {"box": np.uint8, "level": np.uint16}
    for kind, dtype in core._COUNT_DTYPE.items():
        assert core._CLAMP_EVERY[kind] == np.iinfo(dtype).max - 2


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
]


@pytest.mark.parametrize("raw,bound,size,digest", DENSE_SHA256)
def test_dense_engine_matches_frozen_checksums(raw, bound, size, digest):
    s = generate(validate_config(raw, len(raw[0])), bound)
    text = ";".join(",".join(map(str, p)) for p in s.points)
    assert len(s) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    monkeypatch.setattr(core, "_DENSE_CELL_LIMIT", 19)

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(core.np, "zeros", no_grid)
    with pytest.raises(GridTooLarge):
        generate(cfg, bound, sizefn)


def test_grid_at_the_cell_limit_is_generated(monkeypatch):
    # the 4 x 5 box takes a 4 x 8 padded grid: radix min(2 * 5 - 1, 3 + 4 + 1)
    cfg = validate_config([(1, 0), (0, 1)], 2)
    monkeypatch.setattr(core, "_DENSE_CELL_LIMIT", 32)
    want = generate_reference(cfg, Bound.box((3, 4))).points
    assert generate(cfg, Bound.box((3, 4))).points == want
    monkeypatch.setattr(core, "_DENSE_CELL_LIMIT", 31)
    with pytest.raises(GridTooLarge):
        generate(cfg, Bound.box((3, 4)))


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
    _generate_dense(validate_config(units, dim), Bound.level(cap))
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


def test_coords_of_a_replaced_set_follow_its_points():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((6, 6)))
    assert len(s.coords) == len(s)  # cached before the copy is made
    pts = s.points[:3] + ((5, 5),)
    t = dataclasses.replace(s, points=pts, members=frozenset(pts))
    assert t.coords.tolist() == [list(p) for p in pts]
    empty = dataclasses.replace(s, points=(), members=frozenset())
    assert empty.coords.shape == (0, 2)
    assert generate_reference(s.config, s.bound).coords.tolist() == s.coords.tolist()
