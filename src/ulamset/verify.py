"""Closed-form membership oracles and set-vs-oracle diffing.

Each oracle captures a proven or empirically frozen characterization of the
set generated by one family of initial configurations.  Oracles expose
exact membership plus a scope predicate (some characterizations only cover
part of the lattice, such as a single hyperplane), and
:func:`compare_set_to_oracle` diffs a generated set against an oracle over
an explicit region, reporting every disagreement.

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
from fractions import Fraction
from itertools import product

from .core import Bound, UlamSet
from .errors import BadParameters, RegionExceedsBound, UnknownOracle


def two_generator_member(x: int, y: int) -> bool:
    """Membership for nonparallel {v1, v2} in coefficient coordinates.

    The set consists of v1 + n*v2 and n*v1 + v2 for all n >= 0, plus
    m*v1 + n*v2 with m, n >= 3 both odd.
    """
    if (x, y) == (0, 0):
        return False
    return x == 1 or y == 1 or (x >= 3 and y >= 3 and x % 2 == 1 and y % 2 == 1)


def _axes_2_3_member(x: int, y: int) -> bool:
    """Closed form for {(2,0), (0,1), (3,1)}: the initial points plus
    (n,1), (2,n), (3,n) for n >= 2."""
    if (x, y) in ((2, 0), (0, 1)):
        return True
    if y == 1 and x >= 2:
        return True
    return x in (2, 3) and y >= 2


def _axes_2_3_extra_member(x: int, y: int) -> bool:
    """Closed form for {(1,0), (0,1), (2,3)}: both unit rows, the extra
    initial, and the even-odd block (2n+4, 2m+3)."""
    if (x, y) == (0, 0):
        return False
    if x == 1 or y == 1:
        return True
    if (x, y) == (2, 3):
        return True
    return x >= 4 and x % 2 == 0 and y >= 3 and y % 2 == 1


def _case1_member(m: int, n: int, x: int, y: int) -> bool:
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


def _case2_member(m: int, n: int, x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    if x == m:
        return y == 1 or y == n
    if x == m + 1:
        return y == 1 or (y % 2 == 1 and 3 <= y < n)
    return two_generator_member(x, y)


def _case3_member(m: int, x: int, y: int) -> bool:
    if (x, y) == (0, 0):
        return False
    if x < m:
        return two_generator_member(x, y)
    if x == m:
        return y in (1, 3)
    if x == m + 1:
        return y == 1
    return y == 1 or (x % 2 == 0 and y % 2 == 1 and y >= 3)


def _unit3d_plane_member(p) -> bool:
    x, y, z = p
    if (y, z) in ((0, 1), (1, 0)):
        return True
    return y >= 3 and z >= 3 and y % 2 == 1 and z % 2 == 1


@dataclass(frozen=True)
class Oracle:
    """Exact membership over a scope, for one characterized configuration."""

    oracle_id: str
    dim: int
    member: object          # callable point -> bool
    scope: object = None    # callable point -> bool; None means everywhere
    degenerate: bool = False
    params: tuple = ()
    initials: tuple = ()    # the configuration the oracle characterizes

    def in_scope(self, p) -> bool:
        return self.scope is None or self.scope(p)


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
            "two-generators", 2, lambda p: two_generator_member(*p),
            degenerate=True, params=(m, n), initials=initials,
        )
    if m % 2 == 1:
        # mirror of an even-m shape; normalize by swapping axes
        inner = extra_vector_oracle(n, m)
        return Oracle(
            inner.oracle_id + "-transposed", 2,
            lambda p: inner.member((p[1], p[0])),
            degenerate=inner.degenerate, params=(m, n), initials=initials,
        )
    if n % 2 == 0:
        if m < 4 or n < 4:
            raise BadParameters(f"even-even shape needs m, n >= 4, got ({m},{n})")
        return Oracle(
            "extra-vector-even-even", 2,
            lambda p: _case1_member(m, n, p[0], p[1]), params=(m, n),
            initials=initials,
        )
    if n == 3:
        if m < 4:
            raise BadParameters(f"shifted-lattice shape needs m >= 4, got ({m},{n})")
        return Oracle(
            "extra-vector-shifted", 2,
            lambda p: _case3_member(m, p[0], p[1]), params=(m, n),
            initials=initials,
        )
    if m < 4:
        raise BadParameters(f"truncated-column shape needs m >= 4, got ({m},{n})")
    return Oracle(
        "extra-vector-truncated", 2,
        lambda p: _case2_member(m, n, p[0], p[1]), params=(m, n),
        initials=initials,
    )


_FIXED_ORACLES = {
    "two-generators": lambda: Oracle(
        "two-generators", 2, lambda p: two_generator_member(*p),
        initials=((1, 0), (0, 1)),
    ),
    "config-2_0-0_1-3_1": lambda: Oracle(
        "config-2_0-0_1-3_1", 2, lambda p: _axes_2_3_member(*p),
        initials=((2, 0), (0, 1), (3, 1)),
    ),
    "config-1_0-0_1-2_3": lambda: Oracle(
        "config-1_0-0_1-2_3", 2, lambda p: _axes_2_3_extra_member(*p),
        initials=((1, 0), (0, 1), (2, 3)),
    ),
    "unit3d-hyperplane": lambda: Oracle(
        "unit3d-hyperplane", 3, _unit3d_plane_member,
        scope=lambda p: p[0] == 2, initials=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
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
    return bool(oracle.member(p))


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


def _region_points(region: Bound, dim: int):
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


def compare_set_to_oracle(uset: UlamSet, oracle, region: Bound,
                          m: int | None = None, n: int | None = None) -> MismatchReport:
    """Diff every in-scope lattice point of ``region`` against the oracle.

    The region must lie inside the set's generation bound, otherwise absent
    points would be truncation artifacts rather than disagreements.
    """
    if isinstance(oracle, str):
        oracle = get_oracle(oracle, m, n)
    dim = uset.dim
    missing = []
    extra = []
    checked = 0
    skipped = 0
    bound = uset.bound
    fval = uset.sizefn.value
    for p in _region_points(region, dim):
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


def diagonal_absent(uset: UlamSet) -> bool:
    """True iff no member has all coordinates equal."""
    return not any(len(set(p)) == 1 for p in uset.points)


def interior_members(uset: UlamSet) -> list:
    """Members beyond the characterized hyperplane families.

    For the three-dimensional unit-vector set, the fully described
    families live in the hyperplanes x_i = 0 (pairwise lattices) and
    x_i = 2; interior points have every coordinate >= 1 and none equal
    to 2.
    """
    return [p for p in uset.points if min(p) >= 1 and 2 not in p]


def angle_ranking(uset: UlamSet, interior_only: bool = False) -> list:
    """Members sorted by descending angle to the all-ones direction.

    Angles are compared exactly through the squared cosine
    (sum p_i)^2 / (d * |p|^2), a rational in the coordinates, so ties are
    decided without floating point; the returned angle is a float in
    radians for reporting only.
    """
    pts = interior_members(uset) if interior_only else list(uset.points)
    d = uset.dim

    def key(p):
        s = sum(p)
        return Fraction(s * s, d * sum(c * c for c in p))

    ranked = sorted(pts, key=lambda p: (key(p), p))
    out = []
    for p in ranked:
        c2 = key(p)
        angle = math.acos(min(1.0, math.sqrt(float(c2))))
        out.append((p, angle))
    return out
