import dataclasses
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamset import Bound, SizeFunction, core, generate, validate_config
from ulamset.errors import BadParameters, BoundTooSmall, RegionExceedsBound, UnknownOracle
from ulamset.verify import (
    MismatchReport,
    angle_ranking,
    compare_set_to_oracle,
    diagonal_absent,
    extra_vector_oracle,
    get_oracle,
    interior_members,
    oracle_membership,
    two_generator_member,
)


# ---------------------------------------------------------------------------
# reference oracles: the scalar predicates and the point-by-point diff that
# the array forms in ulamset.verify replaced, kept as written then


def ref_two_generator_member(x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    return x == 1 or y == 1 or (x >= 3 and y >= 3 and x % 2 == 1 and y % 2 == 1)


def ref_axes_2_3_member(x: int, y: int) -> bool:
    if (x, y) in ((2, 0), (0, 1)):
        return True
    if y == 1 and x >= 2:
        return True
    return x in (2, 3) and y >= 2


def ref_axes_2_3_extra_member(x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    if x == 1 or y == 1:
        return True
    if (x, y) == (2, 3):
        return True
    return x >= 4 and x % 2 == 0 and y >= 3 and y % 2 == 1


def ref_case1_member(m: int, n: int, x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    if x == 1 or y == 1:
        return True
    if (x, y) == (m, n):
        return True
    if x % 2 == 0 or y % 2 == 0:
        return False
    if 3 <= x <= m - 1:          # transient band along the y-axis
        return True
    if 3 <= y <= n - 1:          # transient band along the x-axis
        return True
    jx = (x - 1) // (2 * m)
    if jx >= 1 and x <= 2 * m * jx + m - 1 and y >= 2 * n * jx + 1:
        return True
    jy = (y - 1) // (2 * n)
    return jy >= 1 and y <= 2 * n * jy + n - 1 and x >= 2 * m * jy + 1


def ref_case2_member(m: int, n: int, x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    if x == m:
        return y == 1 or y == n
    if x == m + 1:
        return y == 1 or (y % 2 == 1 and 3 <= y < n)
    return ref_two_generator_member(x, y)


def ref_case3_member(m: int, x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    if x < m:
        return ref_two_generator_member(x, y)
    if x == m:
        return y in (1, 3)
    if x == m + 1:
        return y == 1
    return y == 1 or (x % 2 == 0 and y % 2 == 1 and y >= 3)


def ref_unit3d_plane_member(p) -> bool:
    x, y, z = p
    if (y, z) in ((0, 1), (1, 0)):
        return True
    return y >= 3 and z >= 3 and y % 2 == 1 and z % 2 == 1


@dataclasses.dataclass(frozen=True)
class RefOracle:
    oracle_id: str
    member: object          # callable point -> bool
    scope: object = None    # callable point -> bool; None means everywhere

    def in_scope(self, p) -> bool:
        return self.scope is None or self.scope(p)


REF_FIXED = {
    "two-generators": RefOracle("two-generators", lambda p: ref_two_generator_member(*p)),
    "config-2_0-0_1-3_1": RefOracle("config-2_0-0_1-3_1", lambda p: ref_axes_2_3_member(*p)),
    "config-1_0-0_1-2_3": RefOracle(
        "config-1_0-0_1-2_3", lambda p: ref_axes_2_3_extra_member(*p)),
    "unit3d-hyperplane": RefOracle(
        "unit3d-hyperplane", ref_unit3d_plane_member, scope=lambda p: p[0] == 2),
}


def ref_extra_vector_oracle(m: int, n: int) -> RefOracle:
    """The classification of extra_vector_oracle, over the scalar predicates."""
    if m < 1 or n < 1:
        raise BadParameters(f"extra vector ({m},{n}) must be positive")
    if ref_two_generator_member(m, n):
        return REF_FIXED["two-generators"]
    if m % 2 == 1:
        inner = ref_extra_vector_oracle(n, m)
        return RefOracle(inner.oracle_id + "-transposed",
                         lambda p: inner.member((p[1], p[0])))
    if n % 2 == 0:
        if m < 4 or n < 4:
            raise BadParameters(f"even-even shape needs m, n >= 4, got ({m},{n})")
        return RefOracle("extra-vector-even-even", lambda p: ref_case1_member(m, n, p[0], p[1]))
    if n == 3:
        if m < 4:
            raise BadParameters(f"shifted-lattice shape needs m >= 4, got ({m},{n})")
        return RefOracle("extra-vector-shifted", lambda p: ref_case3_member(m, p[0], p[1]))
    if m < 4:
        raise BadParameters(f"truncated-column shape needs m >= 4, got ({m},{n})")
    return RefOracle("extra-vector-truncated", lambda p: ref_case2_member(m, n, p[0], p[1]))


def ref_region_points(region: Bound, dim: int):
    if region.kind == "box":
        if len(region.limits) != dim:
            raise RegionExceedsBound("region dimension mismatch")
        ranges = [range(l + 1) for l in region.limits]
        yield from product(*ranges)
    else:
        cap = int(region.cap)
        yield from (
            p for p in product(range(cap + 1), repeat=dim) if sum(p) <= cap
        )


def ref_compare_set_to_oracle(uset, oracle, region: Bound) -> MismatchReport:
    dim = uset.dim
    missing = []
    extra = []
    checked = 0
    skipped = 0
    bound = uset.bound
    fval = uset.sizefn.value
    for p in ref_region_points(region, dim):
        if not bound.contains(p, fval(p)):
            raise RegionExceedsBound(
                f"region point {p} is outside the generated bound"
            )
        if all(c == 0 for c in p):
            continue
        if not oracle.in_scope(p):
            skipped += 1
            continue
        checked += 1
        want = bool(oracle.member(p))
        got = p in uset.members
        if want and not got:
            missing.append(p)
        elif got and not want:
            extra.append(p)
    return MismatchReport(
        oracle.oracle_id, region, tuple(missing), tuple(extra), checked, skipped
    )


# ---------------------------------------------------------------------------
# closed-form membership


def test_two_generators_membership():
    assert oracle_membership("two-generators", (3, 5))
    assert not oracle_membership("two-generators", (2, 2))
    assert oracle_membership("two-generators", (1, 7))


def test_axes_2_3_membership():
    oid = "config-2_0-0_1-3_1"
    assert oracle_membership(oid, (4, 1))
    assert not oracle_membership(oid, (4, 2))
    assert oracle_membership(oid, (3, 9))


def test_axes_2_3_extra_membership():
    oid = "config-1_0-0_1-2_3"
    assert oracle_membership(oid, (4, 3))
    assert oracle_membership(oid, (2, 3))
    assert not oracle_membership(oid, (5, 5))


@pytest.mark.parametrize("call,message", [
    (lambda: get_oracle("case1", 4, 3),
     "parameters (4,3) classify as 'extra-vector-shifted', not 'extra-vector-even-even'"),
    (lambda: oracle_membership("theorem1", (1, 2, 3)),
     "point (1, 2, 3) has wrong arity for two-generators"),
    (lambda: oracle_membership("theorem1", (-1, 2)), "point (-1, 2) has negative coordinates"),
    (lambda: extra_vector_oracle(0, 3), "extra vector (0,3) must be positive"),
])
def test_oracle_refusals(call, message):
    with pytest.raises(BadParameters) as info:
        call()
    assert str(info.value) == message


def test_unknown_oracle_and_bad_parameters():
    with pytest.raises(UnknownOracle):
        get_oracle("nope")
    with pytest.raises(BadParameters):
        get_oracle("extra-vector")  # needs m, n
    with pytest.raises(BadParameters):
        extra_vector_oracle(2, 4)  # below the classified thresholds


# ---------------------------------------------------------------------------
# diffs against generated sets


def test_two_generators_diff_clean():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((25, 25)))
    rep = compare_set_to_oracle(s, "two-generators", Bound.box((25, 25)))
    assert rep.ok and rep.checked == 26 * 26 - 1


@pytest.mark.parametrize(
    "raw,oracle_id",
    [
        ([(2, 0), (0, 1), (3, 1)], "config-2_0-0_1-3_1"),
        ([(1, 0), (0, 1), (2, 3)], "config-1_0-0_1-2_3"),
    ],
)
def test_special_case_diffs_clean(raw, oracle_id):
    s = generate(validate_config(raw, 2), Bound.box((40, 40)))
    rep = compare_set_to_oracle(s, oracle_id, Bound.box((40, 40)))
    assert rep.ok


@pytest.mark.parametrize(
    "mn", [(6, 4), (8, 4), (4, 6), (6, 6), (10, 9), (6, 5), (10, 3), (6, 3)]
)
def test_extra_vector_oracles_clean(mn):
    m, n = mn
    s = generate(validate_config([(1, 0), (0, 1), (m, n)], 2), Bound.box((52, 52)))
    rep = compare_set_to_oracle(s, "extra-vector", Bound.box((52, 52)), m=m, n=n)
    assert rep.ok, (rep.missing[:5], rep.extra[:5])


def test_degenerate_extra_vector_falls_back_to_lattice():
    oracle = get_oracle("extra-vector", m=5, n=7)  # (5,7) is a lattice member
    assert oracle.degenerate and oracle.oracle_id == "two-generators"
    s = generate(validate_config([(1, 0), (0, 1), (5, 7)], 2), Bound.box((30, 30)))
    rep = compare_set_to_oracle(s, oracle, Bound.box((30, 30)))
    assert rep.ok


@pytest.mark.parametrize(
    "oracle_id,m,n,initials",
    [
        ("two-generators", None, None, ((1, 0), (0, 1))),
        ("config-2_0-0_1-3_1", None, None, ((2, 0), (0, 1), (3, 1))),
        ("config-1_0-0_1-2_3", None, None, ((1, 0), (0, 1), (2, 3))),
        ("unit3d-hyperplane", None, None, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ("extra-vector", 6, 4, ((1, 0), (0, 1), (6, 4))),
        ("extra-vector", 5, 6, ((1, 0), (0, 1), (5, 6))),    # transposed
        ("extra-vector", 5, 7, ((1, 0), (0, 1), (5, 7))),    # degenerate
        ("extra-vector", 3, 10, ((1, 0), (0, 1), (3, 10))),  # transposed
    ],
)
def test_oracle_carries_its_initial_configuration(oracle_id, m, n, initials):
    oracle = get_oracle(oracle_id, m, n)
    assert oracle.initials == initials
    assert len(initials[0]) == oracle.dim


def test_fault_injection_detected():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((20, 20)))
    pts = tuple(p for p in s.points if p != (3, 5))
    corrupt = dataclasses.replace(s, points=pts, members=frozenset(pts))
    rep = compare_set_to_oracle(corrupt, "two-generators", Bound.box((20, 20)))
    assert rep.missing == ((3, 5),) and not rep.extra


def test_region_exceeding_bound_rejected():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((10, 10)))
    with pytest.raises(RegionExceedsBound):
        compare_set_to_oracle(s, "two-generators", Bound.box((12, 12)))


# ---------------------------------------------------------------------------
# three-dimensional checks


@pytest.fixture(scope="module")
def unit3d_level30():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    return generate(cfg, Bound.level(30))


def test_diagonal_absent(unit3d_level30):
    assert diagonal_absent(unit3d_level30)
    pts = unit3d_level30.points + ((2, 2, 2),)
    fake = dataclasses.replace(
        unit3d_level30, points=pts, members=frozenset(pts)
    )
    assert not diagonal_absent(fake)


def test_hyperplane_oracle(unit3d_level30):
    rep = compare_set_to_oracle(
        unit3d_level30, "unit3d-hyperplane", Bound.level(30)
    )
    assert rep.ok
    assert rep.out_of_scope > 0  # oracle only covers the x=2 plane


def test_angle_ranking_max_is_4_6_10(unit3d_level30):
    ranked = angle_ranking(unit3d_level30, interior_only=True)
    top = {p for p, _ in ranked[:6]}
    assert top == {
        (4, 6, 10), (4, 10, 6), (6, 4, 10), (6, 10, 4), (10, 4, 6), (10, 6, 4)
    }
    angles = [a for _, a in ranked]
    assert angles == sorted(angles, reverse=True)


def test_angle_ranking_permutation_invariant(unit3d_level30):
    ranked = angle_ranking(unit3d_level30)
    swapped_pts = tuple(sorted(
        (p[1], p[0], p[2]) for p in unit3d_level30.points
    ))
    swapped = dataclasses.replace(
        unit3d_level30, points=swapped_pts, members=frozenset(swapped_pts)
    )
    ranked_sw = angle_ranking(swapped)
    assert [a for _, a in ranked] == [a for _, a in ranked_sw]


def test_interior_excludes_characterized_families(unit3d_level30):
    interior = interior_members(unit3d_level30)
    assert all(min(p) >= 1 and 2 not in p for p in interior)
    assert (2, 3, 3) not in interior
    assert (4, 6, 10) in interior


@st.composite
def _point_sets(draw):
    """A set of 0 to 30 points of dimension 1 to 4 with coordinates 0 to 4,
    in a random order, built from its points."""
    dim = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim), max_size=30, unique=True))
    cfg = validate_config([(1,) * dim], dim)
    return core.UlamSet(cfg, SizeFunction.coordinate_sum(), Bound.box((4,) * dim),
                        tuple(pts), tuple(map(sum, pts)), frozenset(pts))


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_array_walks_match_the_former_point_walks(s):
    pts = s.points
    assert diagonal_absent(s) == (not any(len(set(p)) == 1 for p in pts))
    interior = [p for p in pts if min(p) >= 1 and 2 not in p]
    assert interior_members(s) == interior
    assert [p for p, _ in angle_ranking(s, interior_only=True)] == sorted(
        interior, key=lambda p: (Fraction(sum(p) ** 2, s.dim * sum(c * c for c in p)), p)
    )


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_angle_ranking_matches_the_former_two_key_walk(s):
    pts = tuple(p for p in s.points if any(p))  # the angle needs a nonzero point
    s = dataclasses.replace(s, points=pts, levels=tuple(map(sum, pts)), members=frozenset(pts))

    def key(p):
        return Fraction(sum(p) ** 2, s.dim * sum(c * c for c in p))

    former = [(p, math.acos(min(1.0, math.sqrt(float(key(p))))))
              for p in sorted(pts, key=lambda p: (key(p), p))]
    assert angle_ranking(s) == former


# ---------------------------------------------------------------------------
# the array predicates and the grid diff against the references

FIXED_2D = ("two-generators", "config-2_0-0_1-3_1", "config-1_0-0_1-2_3")
MN = [(m, n) for m in range(1, 13) for n in range(1, 13)]
_coord = st.integers(0, 120)


def _oracle_pair(oracle_id, m=None, n=None):
    """(oracle, reference) for a fixed id or an extra vector (m, n)."""
    if m is None:
        return get_oracle(oracle_id), REF_FIXED[oracle_id]
    return extra_vector_oracle(m, n), ref_extra_vector_oracle(m, n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIXED_2D + ("unit3d-hyperplane",)), _coord, _coord, _coord)
def test_fixed_predicates_match_reference(oracle_id, x, y, z):
    oracle, ref = _oracle_pair(oracle_id)
    for p in ((x, y, z)[:oracle.dim], (0,) * oracle.dim):
        assert oracle_membership(oracle_id, p) == bool(ref.member(p))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MN), _coord, _coord)
def test_extra_vector_predicates_match_reference(mn, x, y):
    m, n = mn
    try:
        ref = ref_extra_vector_oracle(m, n)
    except BadParameters:
        with pytest.raises(BadParameters):
            extra_vector_oracle(m, n)
        return
    oracle = extra_vector_oracle(m, n)
    assert oracle.oracle_id == ref.oracle_id
    for p in ((x, y), (0, 0), (m, n), (n, m)):
        assert oracle_membership("extra-vector", p, m, n) == bool(ref.member(p))


@pytest.mark.parametrize("mn", MN)
def test_extra_vector_grid_predicates_match_reference(mn):
    """Every (m, n) up to 12, on a whole window at once, as the diff calls it."""
    m, n = mn
    try:
        ref = ref_extra_vector_oracle(m, n)
    except BadParameters:
        with pytest.raises(BadParameters):
            extra_vector_oracle(m, n)
        return
    x, y = np.ogrid[0:61, 0:61]
    got = np.broadcast_to(extra_vector_oracle(m, n).member(x, y), (61, 61))
    want = [[ref.member((i, j)) for j in range(61)] for i in range(61)]
    assert got.tolist() == want


def test_fixed_grid_predicates_match_reference():
    x, y, z = np.ogrid[0:41, 0:41, 0:41]
    for oracle_id in FIXED_2D:
        oracle, ref = _oracle_pair(oracle_id)
        want = [[ref.member((i, j)) for j in range(41)] for i in range(41)]
        assert np.broadcast_to(oracle.member(x[:, :, 0], y[:, :, 0]), (41, 41)).tolist() == want
    oracle, ref = _oracle_pair("unit3d-hyperplane")
    got = np.broadcast_to(oracle.member(x, y, z), (41, 41, 41))
    assert got.tolist() == [[[ref.member((i, j, k)) for k in range(41)]
                             for j in range(41)] for i in range(41)]


def _corrupt(s, rng, k):
    """``s`` with k members dropped and k non-members of its bound added."""
    limits = s.bound.limits if s.bound.kind == "box" else (int(s.bound.cap),) * s.dim
    pts = list(s.points)
    for _ in range(k):
        if len(pts) > 1:
            pts.pop(rng.randrange(len(pts)))
        p = tuple(rng.randint(0, l) for l in limits)
        if p not in pts and s.bound.contains(p, s.sizefn.value(p)):
            pts.append(p)
    return dataclasses.replace(s, points=tuple(pts), members=frozenset(pts))


def _outcome(fn):
    try:
        return fn()
    except (RegionExceedsBound, BadParameters) as exc:
        return type(exc)


def _assert_same_diff(s, oracle_id, region, m=None, n=None):
    oracle, ref = _oracle_pair(oracle_id, m, n)
    got = _outcome(lambda: compare_set_to_oracle(s, oracle_id, region, m, n))
    assert got == _outcome(lambda: ref_compare_set_to_oracle(s, ref, region))
    return got


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(st.sampled_from([(o, None, None) for o in FIXED_2D]),
              st.sampled_from([("extra-vector", m, n) for m, n in MN
                               if m >= 4 or n >= 4 or (m % 2 and n % 2)])),
    st.tuples(st.integers(4, 30), st.integers(4, 30)),
    st.sampled_from(["box", "level"]),
    st.integers(0, 34),
    st.integers(0, 34),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
def test_grid_diff_matches_reference(oracle, limits, kind, a, b, corrupt, rng):
    oracle_id, m, n = oracle
    try:
        initials = _oracle_pair(oracle_id, m, n)[0].initials
    except BadParameters:
        return
    bound = Bound.box(limits) if kind == "box" else Bound.level(sum(limits) // 2)
    try:
        s = generate(validate_config(initials, 2), bound)
    except BoundTooSmall:
        return
    s = _corrupt(s, rng, corrupt)
    for region in (Bound.box((a, b)), Bound.level(a), s.bound):
        _assert_same_diff(s, oracle_id, region, m, n)


@pytest.mark.parametrize("bound", [Bound.level(14), Bound.box((5, 7, 6)), Bound.box((1, 9, 9))])
def test_slab_diff_matches_reference(bound):
    s = generate(validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3), bound)
    corrupt = _corrupt(s, random.Random(3), 8)
    regions = [Bound.level(c) for c in range(0, 16)]
    regions += [Bound.box(t) for t in ((1, 7, 6), (2, 7, 6), (5, 7, 6), (3, 0, 2), (2, 2))]
    for uset in (s, corrupt):
        for region in regions:
            _assert_same_diff(uset, "unit3d-hyperplane", region)


def test_diff_of_a_corrupt_set_reads_its_new_points():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((20, 20)))
    assert s.coords.shape == (len(s), 2)  # the generated array, now cached
    pts = tuple(p for p in s.points if p != (3, 5)) + ((2, 2),)
    corrupt = dataclasses.replace(s, points=pts, members=frozenset(pts))
    rep = compare_set_to_oracle(corrupt, "two-generators", Bound.box((20, 20)))
    assert rep.missing == ((3, 5),) and rep.extra == ((2, 2),)


def test_oracle_of_another_dimension_rejected():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((6, 6)))
    with pytest.raises(BadParameters):
        compare_set_to_oracle(s, "unit3d-hyperplane", Bound.box((6, 6)))


def test_diff_allocates_no_index_grid(monkeypatch):
    """The diff works on open grids; a full index grid would hold one
    integer per region cell."""

    class NoGrid:
        def __getitem__(self, key):
            raise AssertionError("a full index grid was built")

    def no_indices(*args, **kwargs):
        raise AssertionError("a full index grid was built")

    monkeypatch.setattr(np, "indices", no_indices)
    monkeypatch.setattr(np, "mgrid", NoGrid())
    s = generate(validate_config([(1, 0), (0, 1), (6, 5)], 2), Bound.box((60, 60)))
    assert compare_set_to_oracle(s, "extra-vector", Bound.box((60, 60)), 6, 5).ok
    assert compare_set_to_oracle(s, "extra-vector", Bound.level(60), 6, 5).ok
    s3 = generate(validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3), Bound.level(20))
    assert compare_set_to_oracle(s3, "unit3d-hyperplane", Bound.level(20)).ok


# ---------------------------------------------------------------------------
# the region must lie inside the bound: one check per call, exact for every
# size function kind

SIZES = {
    "sum": SizeFunction.coordinate_sum(),
    "weighted": SizeFunction.weighted_sum((3, Fraction(1, 2))),
    "euclidean": SizeFunction.euclidean_norm_squared(),
}
LEVEL_CAPS = {"sum": 16, "weighted": Fraction(41, 2), "euclidean": 90}


def _regions_near(s):
    """Regions touching the bound of ``s`` and one cell or level past it."""
    f = s.sizefn.value
    if s.bound.kind == "box":
        l0, l1 = s.bound.limits
        inside = [Bound.box((l0, l1)), Bound.box((l0, 0)), Bound.level(min(l0, l1))]
        outside = [Bound.box((l0 + 1, l1)), Bound.box((l0, l1 + 1)),
                   Bound.box((l0 + 1, 0)), Bound.level(min(l0, l1) + 1)]
        return inside, outside
    cap = s.bound.cap
    c = max(c for c in range(200) if f((c, 0)) <= cap and f((0, c)) <= cap)
    inside, outside = [Bound.level(c)], [Bound.level(c + 1)]
    for a in range(0, 30):
        if f((a, 0)) > cap:
            break
        b = max(b for b in range(200) if f((a, b)) <= cap)
        inside.append(Bound.box((a, b)))
        outside.append(Bound.box((a, b + 1)))
    return inside, outside


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("kind", ["box", "level"])
def test_region_inside_bound_is_exact(size, kind):
    """Box in box, box in level, level in box and level in level: a region
    that touches the bound passes, one cell or one level over it raises,
    exactly when the point-by-point check of the reference raises."""
    bound = Bound.box((9, 6)) if kind == "box" else Bound.level(LEVEL_CAPS[size])
    s = generate(validate_config([(1, 0), (0, 1)], 2), bound, SIZES[size])
    inside, outside = _regions_near(s)
    for region in inside:
        assert isinstance(_assert_same_diff(s, "two-generators", region), MismatchReport)
    for region in outside:
        assert _assert_same_diff(s, "two-generators", region) is RegionExceedsBound


class CornerHeavySize:
    """Admissible but not convex: the coordinate sum, plus 100 once both
    coordinates are positive, so the axis corners are not the largest."""

    kind = "corner-heavy"

    def value(self, p):
        return sum(p) + (100 if min(p) >= 1 else 0)

    def check_dim(self, dim):
        assert dim == 2


def test_region_inside_a_non_convex_level_bound_is_exact():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.level(102), CornerHeavySize())
    # (1, 1) has size 102 and (1, 2) size 103; every axis corner is far below
    assert isinstance(_assert_same_diff(s, "two-generators", Bound.level(2)), MismatchReport)
    assert _assert_same_diff(s, "two-generators", Bound.level(3)) is RegionExceedsBound
