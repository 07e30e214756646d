"""Closed-form membership oracles and set-vs-oracle diffing.

Each oracle captures a proven or empirically frozen characterization of the
set generated by one family of initial configurations.  Oracles expose
exact membership plus an optional slab (some characterizations only cover
one coordinate hyperplane), and :func:`compare_set_to_oracle` diffs a
generated set against an oracle over an explicit region, reporting every
disagreement.

The extra-vector family {(1,0), (0,1), (m,n)} splits into three classified
shapes (plus a degenerate case where (m,n) already belongs to the
two-generator lattice and contributes nothing).  The L-shape anchors for
the even-even case were inferred from computed sets and are validated
exhaustively in the test suite: the j-th L sits at (2mj+1, 2nj+1) with m/2
vertical columns and n/2 horizontal rows, next to two transient bands
hugging the axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import Bound, UlamSet
from .errors import BadParameters, RegionExceedsBound, UnknownOracle


# Every membership predicate below uses only ==, %, //, <=, & and | on its
# coordinates (x < y is written x + 1 <= y), so one function serves both a
# point of Python ints and numpy coordinate grids that broadcast together.


def two_generator_member(x, y):
    """Membership for nonparallel {v1, v2} in coefficient coordinates.

    The set consists of v1 + n*v2 and n*v1 + v2 for all n >= 0, plus
    m*v1 + n*v2 with m, n >= 3 both odd.
    """
    return (x == 1) | (y == 1) | (
        (3 <= x) & (3 <= y) & (x % 2 == 1) & (y % 2 == 1)
    )


def _axes_2_3_member(x, y):
    """Closed form for {(2,0), (0,1), (3,1)}: the initial points plus
    (n,1), (2,n), (3,n) for n >= 2."""
    return (
        ((x == 2) & (y == 0)) | ((x == 0) & (y == 1))
        | ((y == 1) & (2 <= x)) | (((x == 2) | (x == 3)) & (2 <= y))
    )


def _case1_member(m: int, n: int, x, y):
    jx = (x - 1) // (2 * m)
    jy = (y - 1) // (2 * n)
    odd = (
        ((3 <= x) & (x <= m - 1))           # transient band along the y-axis
        | ((3 <= y) & (y <= n - 1))         # transient band along the x-axis
        | ((1 <= jx) & (x <= 2 * m * jx + m - 1) & (2 * n * jx + 1 <= y))
        | ((1 <= jy) & (y <= 2 * n * jy + n - 1) & (2 * m * jy + 1 <= x))
    )
    return (
        (x == 1) | (y == 1) | ((x == m) & (y == n))
        | ((x % 2 == 1) & (y % 2 == 1) & odd)
    )


def _case2_member(m: int, n: int, x, y):
    return (
        ((x == m) & ((y == 1) | (y == n)))
        | ((x == m + 1) & ((y == 1) | ((y % 2 == 1) & (3 <= y) & (y + 1 <= n))))
        | (((x + 1 <= m) | (m + 2 <= x)) & two_generator_member(x, y))
    )


def _case3_member(m: int, x, y):
    return (
        ((x + 1 <= m) & two_generator_member(x, y))
        | ((x == m) & ((y == 1) | (y == 3)))
        | ((m + 1 <= x) & (y == 1))
        | ((m + 2 <= x) & (x % 2 == 0) & (y % 2 == 1) & (3 <= y))
    )


def _unit3d_plane_member(x, y, z):
    return (
        ((y == 0) & (z == 1)) | ((y == 1) & (z == 0))
        | ((3 <= y) & (3 <= z) & (y % 2 == 1) & (z % 2 == 1))
    )


@dataclass(frozen=True)
class Oracle:
    """Exact membership over a scope, for one characterized configuration."""

    oracle_id: str
    dim: int
    member: object          # callable (x, y[, z]) -> bool, on ints or grids
    slab: tuple | None = None  # (axis, value): covers only x_axis = value
    degenerate: bool = False
    params: tuple = ()
    initials: tuple = ()    # the configuration the oracle characterizes


def extra_vector_oracle(m: int, n: int) -> Oracle:
    """Classified oracle for {(1,0), (0,1), (m,n)}.

    When (m, n) already lies in the two-generator lattice the extra vector
    contributes nothing; the returned oracle is the plain lattice, marked
    degenerate.  Small edge cases outside the classified shapes are
    rejected.
    """
    if m < 1 or n < 1:
        raise BadParameters(f"extra vector ({m},{n}) must be positive")
    initials = ((1, 0), (0, 1), (m, n))
    if two_generator_member(m, n):
        return Oracle(
            "two-generators", 2, two_generator_member,
            degenerate=True, params=(m, n), initials=initials,
        )
    if m % 2 == 1:
        # mirror of an even-m shape; normalize by swapping axes
        inner = extra_vector_oracle(n, m)
        return Oracle(
            inner.oracle_id + "-transposed", 2,
            lambda x, y: inner.member(y, x),
            degenerate=inner.degenerate, params=(m, n), initials=initials,
        )
    if n % 2 == 0:
        if m < 4 or n < 4:
            raise BadParameters(f"even-even shape needs m, n >= 4, got ({m},{n})")
        return Oracle(
            "extra-vector-even-even", 2,
            lambda x, y: _case1_member(m, n, x, y), params=(m, n),
            initials=initials,
        )
    if n == 3:
        if m < 4:
            raise BadParameters(f"shifted-lattice shape needs m >= 4, got ({m},{n})")
        return Oracle(
            "extra-vector-shifted", 2,
            lambda x, y: _case3_member(m, x, y), params=(m, n),
            initials=initials,
        )
    if m < 4:
        raise BadParameters(f"truncated-column shape needs m >= 4, got ({m},{n})")
    return Oracle(
        "extra-vector-truncated", 2,
        lambda x, y: _case2_member(m, n, x, y), params=(m, n),
        initials=initials,
    )


_FIXED_ORACLES = {
    "two-generators": lambda: Oracle(
        "two-generators", 2, two_generator_member, initials=((1, 0), (0, 1)),
    ),
    "config-2_0-0_1-3_1": lambda: Oracle(
        "config-2_0-0_1-3_1", 2, _axes_2_3_member,
        initials=((2, 0), (0, 1), (3, 1)),
    ),
    # the shifted-lattice shape at m = 2, below the classified m >= 4
    "config-1_0-0_1-2_3": lambda: Oracle(
        "config-1_0-0_1-2_3", 2, lambda x, y: _case3_member(2, x, y),
        initials=((1, 0), (0, 1), (2, 3)),
    ),
    "unit3d-hyperplane": lambda: Oracle(
        "unit3d-hyperplane", 3, _unit3d_plane_member,
        slab=(0, 2), initials=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ),
}

_ALIASES = {
    "theorem1": "two-generators",
    "lattice": "two-generators",
    "case1": "extra-vector-even-even",
    "case2": "extra-vector-truncated",
    "case3": "extra-vector-shifted",
    "hyperplane-x2": "unit3d-hyperplane",
}

_PARAMETRIC = {
    "extra-vector",
    "extra-vector-even-even",
    "extra-vector-truncated",
    "extra-vector-shifted",
}


def get_oracle(oracle_id: str, m: int | None = None, n: int | None = None) -> Oracle:
    """Look up an oracle by id (aliases accepted), with (m, n) parameters
    for the extra-vector family."""
    oid = _ALIASES.get(oracle_id, oracle_id)
    if oid in _FIXED_ORACLES:
        return _FIXED_ORACLES[oid]()
    if oid in _PARAMETRIC:
        if m is None or n is None:
            raise BadParameters(f"oracle {oracle_id!r} needs parameters m and n")
        oracle = extra_vector_oracle(m, n)
        if oid != "extra-vector" and oracle.oracle_id != oid and not oracle.degenerate:
            raise BadParameters(
                f"parameters ({m},{n}) classify as {oracle.oracle_id!r}, "
                f"not {oid!r}"
            )
        return oracle
    raise UnknownOracle(f"no oracle named {oracle_id!r}")


def oracle_membership(oracle_id: str, p, m: int | None = None, n: int | None = None) -> bool:
    """Closed-form membership of a point under the named characterization."""
    oracle = get_oracle(oracle_id, m, n)
    p = tuple(p)
    if len(p) != oracle.dim:
        raise BadParameters(f"point {p} has wrong arity for {oracle.oracle_id}")
    if any(c < 0 for c in p):
        raise BadParameters(f"point {p} has negative coordinates")
    if oracle.slab is not None and p[oracle.slab[0]] != oracle.slab[1]:
        axis, value = oracle.slab
        raise BadParameters(f"point {p} is off the {'xyz'[axis]} = {value} slab "
                            f"that {oracle.oracle_id} covers")
    return bool(oracle.member(*p))


@dataclass(frozen=True)
class MismatchReport:
    """Exhaustive diff between a generated set and an oracle over a region."""

    oracle_id: str
    region: Bound
    missing: tuple          # in oracle, not in set
    extra: tuple            # in set, not in oracle
    checked: int
    out_of_scope: int       # region points the oracle does not cover

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def _check_region_in_bound(uset: UlamSet, region: Bound) -> None:
    """Raise unless every lattice point of ``region`` lies in the set's bound.

    Only the region's maximal points are checked: the far corner of a box
    region, and the points of coordinate sum exactly c of a level region
    (coordinate sum <= c).  That is exact for every size function: each
    other point lies coordinatewise below one of them, a box bound is
    coordinatewise, and an admissible f grows with each unit step.
    """
    dim = uset.dim
    if region.kind == "box":
        if len(region.limits) != dim:
            raise RegionExceedsBound("region dimension mismatch")
        tops = [region.limits]
    else:
        cap = int(region.cap)
        heads = (p for p in product(range(cap + 1), repeat=dim - 1) if sum(p) <= cap)
        tops = ((*p, cap - sum(p)) for p in heads)
    for p in tops:
        if not uset.bound.contains(p, uset.sizefn.value(p)):
            raise RegionExceedsBound(f"region point {p} is outside the generated bound")


def _points(mask: np.ndarray, lo: np.ndarray) -> tuple:
    """The cells set in ``mask`` as points, in lexicographic order."""
    return tuple(map(tuple, (np.argwhere(mask) + lo).tolist()))


def compare_set_to_oracle(uset: UlamSet, oracle, region: Bound,
                          m: int | None = None, n: int | None = None) -> MismatchReport:
    """Diff every in-scope lattice point of ``region`` against the oracle.

    The region must lie inside the set's generation bound, otherwise absent
    points would be truncation artifacts rather than disagreements.  The
    oracle is evaluated once on open coordinate grids over the region's
    bounding box (over the slab alone for a slab oracle) and compared with
    the set's member grid there, :meth:`UlamSet.grid`; the origin is
    skipped.
    """
    if isinstance(oracle, str):
        oracle = get_oracle(oracle, m, n)
    dim = uset.dim
    if oracle.dim != dim:
        raise BadParameters(f"oracle {oracle.oracle_id} is {oracle.dim}-D, the set {dim}-D")
    _check_region_in_bound(uset, region)
    hi = list(region.reach(dim))
    if region.kind == "box":
        cells = math.prod(c + 1 for c in hi)
    else:
        cap = hi[0]
        cells = math.comb(cap + dim, dim)
    lo = [0] * dim
    if oracle.slab is not None:
        axis, value = oracle.slab
        lo[axis] = value
        hi[axis] = min(hi[axis], value)  # an empty slab when value is past it
    grids = np.ogrid[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
    got = uset.grid(lo, hi)
    lo = np.array(lo, dtype=np.int64)
    want = np.broadcast_to(oracle.member(*grids), got.shape)
    missing = want > got
    extra = got > want
    if region.kind == "box":
        checked = got.size
    else:
        # coordinate sum <= cap, built up without an integer array per cell
        inside = grids[-1] <= cap - sum(grids[:-1])
        missing &= inside
        extra &= inside
        checked = int(np.count_nonzero(inside))
    if checked and not lo.any():
        origin = (0,) * dim
        missing[origin] = extra[origin] = False
        checked -= 1
    return MismatchReport(
        oracle.oracle_id, region, _points(missing, lo), _points(extra, lo),
        checked, cells - 1 - checked,
    )


def diagonal_absent(uset: UlamSet) -> bool:
    """True iff no member has all coordinates equal."""
    c = uset.coords
    return not (c == c[:, :1]).all(axis=1).any()


def interior_members(uset: UlamSet) -> list:
    """Members beyond the characterized hyperplane families.

    For the three-dimensional unit-vector set, the fully described
    families live in the hyperplanes x_i = 0 (pairwise lattices) and
    x_i = 2; interior points have every coordinate >= 1 and none equal
    to 2.
    """
    return list(map(tuple, _interior_rows(uset.coords).tolist()))


def _interior_rows(c: np.ndarray) -> np.ndarray:
    return c[((c >= 1) & (c != 2)).all(axis=1)]


def angle_ranking(uset: UlamSet, interior_only: bool = False) -> list:
    """Members sorted by descending angle to the all-ones direction.

    Angles are compared exactly through the squared cosine
    s^2 / (d |p|^2), s = sum p_i, a rational in the coordinates, with ties
    in lexicographic order; the returned angle is a float in radians for
    reporting only, from the correctly rounded quotient.  While every
    d |p|^2 < 2^26, two distinct such rationals in (0, 1] differ by more
    than 2^-52, more than an ulp, and IEEE division rounds correctly, so
    the float quotients sort them exactly.  Above that bound they are
    sorted by floor(s^2 2^K / (d |p|^2)) with 2^K > max(d |p|^2)^2, in
    Python integers: distinct quotients differ by at least
    1 / (den_1 den_2) > 2^-K, so their floors differ.
    """
    c = _interior_rows(uset.coords) if interior_only else uset.coords
    small = np.abs(c).max(initial=0) < 1 << 13  # the int64 squares do not overflow
    w = c if small else c.astype(object)
    num = w.sum(axis=1) ** 2
    den = uset.dim * (w * w).sum(axis=1)
    if small and den.min(initial=1) > 0 and den.max(initial=0) < 1 << 26:
        key = num / den
    else:
        # a zero row makes the floor division raise ZeroDivisionError
        num, den = num.astype(object), den.astype(object)
        key = (num << 2 * int(den.max()).bit_length()) // den
    order = np.lexsort(tuple(c[:, ::-1].T) + (key,))
    ranked = zip(map(tuple, c[order].tolist()), (num[order] / den[order]).tolist())
    return [(p, math.acos(min(1.0, math.sqrt(k)))) for p, k in ranked]
