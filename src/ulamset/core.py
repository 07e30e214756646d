"""Greedy growth of uniquely-representable lattice point sets.

Starting from a finite set of nonzero initial vectors in Z_{>=0}^d, the
generated set repeatedly adjoins every smallest point (measured by an
admissible size function) that can be written as the sum of two distinct
current members in exactly one way.  A size function f is admissible when
f(u+v) > max(f(u), f(v)) for nonzero u, v and every sublevel set is finite;
the resulting point set does not depend on which admissible f is used, so
the coordinate sum is the canonical choice here (integer levels, exact
arithmetic).

One fast engine and one oracle are provided: :func:`generate` (incremental
representation counting on a dense numpy grid, coordinate-sum levels, any
other size function as a filter over a box that holds the bound) and
:func:`generate_reference` (definition-faithful brute force, recounting all
pairwise sums from scratch at every step, for any size function).  They must
agree on every input; the test suite checks this on many small instances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod

import numpy as np

from .errors import (
    BoundTooSmall,
    DimensionMismatch,
    DuplicateVector,
    EmptyConfig,
    GridTooLarge,
    NegativeCoordinate,
    ZeroVector,
)

Point = tuple[int, ...]

# Largest dense grid, in allocated cells.  A box grid is padded (see
# _generate_dense): a square 2-D box allocates about 2x its cells, a d-D cube
# up to 2^(d-1)x; a level bound allocates exactly its (c+1)^d cells.  The
# counts take 1 B per cell on a box and 2 B on a level bound, and the box
# branch's member grid 1 B more, so the limit is 300 MB; a larger request
# raises GridTooLarge before anything is allocated.
_DENSE_CELL_LIMIT = 150_000_000

# Count dtype of the dense engine per bound kind.  The counts saturate (see
# _generate_dense), so a clamp every max - 2 admissions keeps them exact.
# uint8 halves the bytes each box slice-add streams (0.06 against 0.10 ns per
# cell over a whole 71 x 3001 grid), and a uint8 clamp of that grid costs
# about 15 us, well under 1 us per admission.  The level branch keeps uint16:
# a uint8 clamp of the 471^3 grid costs about 15 ms, and a level-470 run would
# clamp 670 times (10 s, against two clamps with uint16).
_COUNT_DTYPE = {"box": np.uint8, "level": np.uint16}

# Admissions between two clamps, per bound kind, and the cells per numpy call
# of one clamp.
_CLAMP_EVERY = {kind: int(np.iinfo(dt).max) - 2 for kind, dt in _COUNT_DTYPE.items()}
_CLAMP_CHUNK = 1 << 16

# The dense box branch updates the counts for a new member at flat index f by
# one contiguous add of the member grid over [f, last] when those are fewer
# than this many cells per earlier member, and by gathering the members
# otherwise.  Measured with uint8 counts (2-vCPU Xeon, numpy 2.4, timeit): the
# add costs about 1.8 us plus 0.06 ns per cell, the gather (an add, a compare,
# a masked take, a scatter) about 6 us plus 6.6 ns per member once n is in the
# thousands; 6.6 / 0.06 is about 110.  Median of four interleaved runs: from
# 128 to 2048 the 2-D column boxes and (200,200) time within 7 %, 32 is 27 %
# slower on (60,2000); on the 3-D (50,50,50) box 128 is fastest, 512 is 10 %
# and adds alone 30 % slower.
_SLICE_PER_MEMBER = 128


@dataclass(frozen=True)
class SizeFunction:
    """Admissible size function on Z_{>=0}^d.

    Kinds: ``coordinate-sum`` (canonical), ``weighted-sum`` with positive
    rational weights, and ``euclidean-norm-squared``.  All three return
    exact values (int or Fraction), so level comparisons never touch
    floating point.
    """

    kind: str
    weights: tuple[Fraction, ...] | None = None

    @staticmethod
    def coordinate_sum() -> "SizeFunction":
        return SizeFunction("coordinate-sum")

    @staticmethod
    def euclidean_norm_squared() -> "SizeFunction":
        return SizeFunction("euclidean-norm-squared")

    @staticmethod
    def weighted_sum(weights) -> "SizeFunction":
        ws = tuple(Fraction(w) for w in weights)
        if not ws or any(w <= 0 for w in ws):
            raise ValueError("weighted-sum requires positive rational weights")
        return SizeFunction("weighted-sum", ws)

    def value(self, p: Point):
        if self.kind == "coordinate-sum":
            return sum(p)
        if self.kind == "euclidean-norm-squared":
            return sum(c * c for c in p)
        if self.kind == "weighted-sum":
            return sum(w * c for w, c in zip(self.weights, p))
        raise ValueError(f"unknown size function kind {self.kind!r}")

    def check_dim(self, dim: int) -> None:
        if self.kind == "weighted-sum" and len(self.weights) != dim:
            raise DimensionMismatch(
                f"{len(self.weights)} weights for dimension {dim}"
            )


@dataclass(frozen=True)
class Bound:
    """Finite truncation of the (always infinite) generated set.

    ``box`` bounds every coordinate, ``level`` bounds the f-value.  Both are
    exact truncations: every summand of an in-bound point is itself in
    bound, so the generated slice equals the infinite set intersected with
    the bound.
    """

    kind: str
    limits: tuple[int, ...] = ()
    cap: object = 0  # int or Fraction

    @classmethod
    def box(cls, limits) -> "Bound":
        lims = tuple(operator.index(c) for c in limits)
        if not lims or any(c < 0 for c in lims):
            raise ValueError("box limits must be nonnegative integers")
        return cls("box", limits=lims)

    @classmethod
    def level(cls, cap) -> "Bound":
        if cap < 0:
            raise ValueError("level cap must be nonnegative")
        return cls("level", cap=cap)

    def contains(self, p: Point, fval=None) -> bool:
        if self.kind == "box":
            return all(c <= l for c, l in zip(p, self.limits))
        return fval <= self.cap


@dataclass(frozen=True)
class InitialConfig:
    """Validated initial vectors: nonzero, distinct, nonnegative, fixed dim."""

    dim: int
    initials: tuple[Point, ...]

    @property
    def k(self) -> int:
        return len(self.initials)


def validate_config(raw, dim: int) -> InitialConfig:
    """Check and freeze a raw list of integer tuples as an initial config."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    vectors = list(raw)
    if not vectors:
        raise EmptyConfig("at least one initial vector is required")
    pts: list[Point] = []
    seen: set[Point] = set()
    for v in vectors:
        t = tuple(operator.index(c) for c in v)
        if len(t) != dim:
            raise DimensionMismatch(f"vector {t} does not have dimension {dim}")
        if any(c < 0 for c in t):
            raise NegativeCoordinate(f"vector {t} has a negative coordinate")
        if all(c == 0 for c in t):
            raise ZeroVector("the zero vector is not a valid initial element")
        if t in seen:
            raise DuplicateVector(f"vector {t} appears twice")
        seen.add(t)
        pts.append(t)
    return InitialConfig(dim, tuple(pts))


class _Derived:
    """An init field of :class:`UlamSet` that a set built from ``coords``
    alone derives from that array on first read, then keeps.

    A non-data descriptor: a value the constructor stores in the instance
    ``__dict__`` hides it.  Class access raises, so the field has no default.
    """

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name] = self.derive(obj)
        return value


@dataclass(frozen=True)
class UlamSet:
    """A generated set truncated to a bound.

    A set is its ``coords``: the points as a read-only (n, d) int64 array,
    sorted by (f-level, lexicographic).  ``points`` holds them as tuples,
    ``levels`` the f-value of each and ``members`` their frozenset, for
    O(1) membership via ``in``.  The dense engine builds a set from
    ``coords`` alone (:meth:`_from_coords`), and the other three fields are
    derived on first read; a set built from points, as by
    ``dataclasses.replace``, derives ``coords`` from its own points.
    """

    config: InitialConfig
    sizefn: SizeFunction
    bound: Bound
    points: tuple[Point, ...] = _Derived(lambda s: tuple(map(tuple, s.coords.tolist())))
    # only coordinate-sum sets are built from coords: the level is the row sum
    levels: tuple = _Derived(lambda s: tuple(s.coords.sum(axis=1).tolist()))
    members: frozenset = _Derived(lambda s: frozenset(s.points))

    @classmethod
    def _from_coords(cls, config, bound, coords: np.ndarray) -> "UlamSet":
        """The coordinate-sum set whose points are the rows of ``coords``, a
        read-only int64 array sorted by (level, lex)."""
        s = cls.__new__(cls)
        s.__dict__.update(config=config, sizefn=SizeFunction.coordinate_sum(),
                          bound=bound, coords=coords)
        return s

    def __contains__(self, p) -> bool:
        return tuple(p) in self.members

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return (
            f"UlamSet(k={self.config.k}, dim={self.config.dim}, "
            f"bound={self.bound.kind}, n={len(self)})"
        )

    @property
    def dim(self) -> int:
        return self.config.dim

    @cached_property
    def coords(self) -> np.ndarray:
        """The points as a read-only (n, d) int64 array, rows in the same order."""
        a = np.array(self.points, dtype=np.int64).reshape(-1, self.dim)
        a.flags.writeable = False
        return a


def _assemble(config, sizefn, bound, points, levels) -> UlamSet:
    order = sorted(range(len(points)), key=lambda i: (levels[i], points[i]))
    pts = tuple(points[i] for i in order)
    lvs = tuple(levels[i] for i in order)
    return UlamSet(config, sizefn, bound, pts, lvs, frozenset(pts))


def _check_initials_in_bound(config, bound, sizefn) -> None:
    for v in config.initials:
        if not bound.contains(v, sizefn.value(v)):
            raise BoundTooSmall(f"bound excludes initial vector {v}")


def _check_bound_dim(dim, bound) -> None:
    if bound.kind == "box" and len(bound.limits) != dim:
        raise DimensionMismatch(
            f"box has {len(bound.limits)} limits for dimension {dim}"
        )


def generate(config: InitialConfig, bound: Bound, sizefn: SizeFunction | None = None) -> UlamSet:
    """Generate the set truncated to ``bound``.

    Points are processed in nondecreasing f-level; a point is admitted iff
    its number of representations as a sum of two distinct earlier members
    is exactly one, and all ties at one level are admitted together.  The
    result is exactly the infinite set intersected with the bound.

    The set does not depend on the admissible f, and a box is downward
    closed, so any f is served by the coordinate-sum engine over a box that
    holds the bound, followed by a filter on f.  Raises
    :class:`GridTooLarge` before allocating when the grid for that box
    (padded, see :func:`_generate_dense`) has more than
    ``_DENSE_CELL_LIMIT`` cells.
    """
    sizefn = sizefn or SizeFunction.coordinate_sum()
    sizefn.check_dim(config.dim)
    _check_bound_dim(config.dim, bound)
    _check_initials_in_bound(config, bound, sizefn)
    if sizefn.kind == "coordinate-sum":
        return _generate_dense(config, bound)
    box = bound
    if bound.kind == "level":
        box = Bound.box([_axis_limit(sizefn, config.dim, i, bound.cap) for i in range(config.dim)])
    pts = _generate_dense(config, box).points
    fvals = [sizefn.value(p) for p in pts]
    kept = [i for i, f in enumerate(fvals) if bound.contains(pts[i], f)]
    return _assemble(config, sizefn, bound, [pts[i] for i in kept], [fvals[i] for i in kept])


def _axis_limit(sizefn, dim: int, axis: int, cap) -> int:
    """Largest x with f(x e_axis) <= cap, by doubling then bisection.

    Admissibility gives f(p) > f(p_axis e_axis) whenever p has another
    nonzero coordinate, so every point of {f <= cap} lies in the box of
    these limits; it also makes f(x e_axis) increasing in x >= 1.
    """

    def fits(x):
        return sizefn.value(tuple(x if i == axis else 0 for i in range(dim))) <= cap

    lo, hi = 0, 1  # fits(lo), and hi is the candidate above it
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# Dense engine: numpy grids, coordinate-sum levels.


def _clamp(counts, twos) -> None:
    """Map every count >= 2 to 2, in place, in chunks of ``twos.size``.

    numpy 2.4 has no SIMD loop for the minimum of an integer array and a
    scalar: it runs at about 1 ns per cell, against 0.07 ns for the minimum
    of two arrays, so the counts are clamped chunk by chunk against ``twos``.
    """
    step = twos.size
    for i in range(0, counts.size, step):
        part = counts[i:i + step]
        np.minimum(part, twos[:part.size], out=part)


def _generate_dense(config: InitialConfig, bound: Bound) -> UlamSet:
    """Coordinate-sum engine: representation counts on one flat numpy grid.

    Axis 0 keeps its n_0 = l_0 + 1 rows; every inner axis k gets the radix
    R_k = min(2 n_k - 1, lmax + 1), where lmax is the top level (the sum of
    the box limits, or the cap).  A level bound has n_k = lmax + 1, so
    R_k = n_k there.  On a box, a new member u at flat index f adds the
    member grid to the counts by one contiguous add,
    ``counts[f:last + 1] += member[:last + 1 - f]`` (``last`` is the far
    corner), or adds 1 at ``f + g`` for each earlier member's flat index
    g <= last - f.  Both are exact.  The padding cells of ``member`` are 0.
    A member w lands on u + w whenever u + w is in the box; otherwise it
    lands either on a padding cell, which nothing reads, or, after a carry
    out of an axis with R_k = lmax + 1, on a cell of level at most
    L + L_w - (R_k - 1) <= L, where L and L_w are the levels of u and w (a
    carry out of an axis with R_k = 2 n_k - 1 needs a carry in, since
    u_k + w_k <= 2 n_k - 2).  Level L's batch is selected before its
    updates, so no count of level <= L is read again.  On a level bound u
    adds 1 at ``f + g`` for the members of level <= cap - L only, whose sums
    with u all lie in the bound.
    """
    d = config.dim
    if bound.kind == "box":
        limits = bound.limits
        lmax = sum(limits)
        cap = None
    else:
        cap = int(bound.cap)
        limits = (cap,) * d
        lmax = cap
    dims = tuple(l + 1 for l in limits)
    radix = dims[:1] + tuple(min(2 * n - 1, lmax + 1) for n in dims[1:])
    cells = prod(radix)
    if cells > _DENSE_CELL_LIMIT:
        raise GridTooLarge(
            f"the {'x'.join(map(str, dims))} box takes a {'x'.join(map(str, radix))} "
            f"grid of {cells} cells, over the limit of {_DENSE_CELL_LIMIT}"
        )
    stride_list = [prod(radix[i + 1:]) for i in range(d)]
    last = sum(map(operator.mul, limits, stride_list))

    # Level enumeration: along the longest axis j, every cell with coordinate
    # sum L is a prefix over the other axes with sum s in [L - limits[j], L],
    # completed by L - s along j.  With the prefixes sorted by s, those are
    # one contiguous slice.
    j = max(range(d), key=lambda i: limits[i])
    psum = np.zeros(1, dtype=np.int64)
    poff = np.zeros(1, dtype=np.int64)
    for i in range(d):
        if i != j:
            psum = (psum[:, None] + np.arange(dims[i])).ravel()
            poff = (poff[:, None] + np.arange(dims[i]) * stride_list[i]).ravel()
    order = np.argsort(psum)
    psum = psum[order]
    pbase = poff[order] - psum * stride_list[j]  # flat index at level L: + L * stride
    starts = np.searchsorted(psum, np.arange(lmax + 2)).tolist()
    sj = stride_list[j]

    def cells_at(L):
        return pbase[starts[max(L - limits[j], 0)]:starts[L + 1]] + L * sj

    # Saturating counts: only the states 0, 1 and >= 2 matter.  Each
    # admission adds at most 1 to any cell (its targets f + g are distinct),
    # and after a clamp every value is <= 2, so no cell can pass the dtype's
    # maximum within _CLAMP_EVERY admissions of the last clamp.  A clamp maps
    # every value >= 2 to 2, so the test counts == 1 never changes.
    dtype = _COUNT_DTYPE[bound.kind]
    clamp_every = _CLAMP_EVERY[bound.kind]
    counts = np.zeros(cells, dtype=dtype)
    twos = np.full(min(cells, _CLAMP_CHUNK), 2, dtype=dtype)
    if cap is None:
        # the member grid has the counts' dtype, so the add never casts
        member = np.zeros(cells, dtype=dtype)

    # flat indices of the members in admission order; below[L] counts the
    # members of level < L
    mflats = np.empty(1024, dtype=np.int64)
    below: list[int] = []
    n = 0
    since_clamp = 0

    init_by_level: dict[int, list[int]] = {}
    for v in config.initials:
        fl = sum(map(operator.mul, v, stride_list))
        init_by_level.setdefault(sum(v), []).append(fl)

    for L in range(lmax + 1):
        below.append(n)
        flats_l = cells_at(L)
        if L in init_by_level:
            # initials are admitted whatever their count; no later step
            # reads a cell of level L
            counts[init_by_level[L]] = 1
        # counts == 1 needs no "not a member" test: level L's batch,
        # initials included, is admitted only after this selection.  Flat
        # order is lex order (mixed radix), so the points come out sorted.
        batch = np.sort(flats_l[counts[flats_l] == 1])
        m = batch.size
        if not m:
            continue

        # record the whole level first; each update below reads only the
        # first n records, so it still sees only earlier members
        if n + m > mflats.size:
            mflats = np.concatenate([mflats[:n], np.empty(n + m, dtype=np.int64)])
        mflats[n:n + m] = batch

        if cap is not None:
            # members the level's points pair with: level <= cap - L
            pe_level = below[cap - L + 1] if cap - L < L else n + m
        for fl in batch.tolist():
            if since_clamp == clamp_every:
                _clamp(counts, twos)
                since_clamp = 0
            since_clamp += 1
            if cap is None:
                # two equivalent updates; pick the cheaper one per point
                if last - fl < _SLICE_PER_MEMBER * n:
                    counts[fl:last + 1] += member[:last + 1 - fl]
                else:
                    idx = mflats[:n] + fl
                    counts[idx[idx <= last]] += 1  # targets distinct for fixed f
                member[fl] = 1
            else:
                idx = mflats[:min(pe_level, n)] + fl
                if idx.size:
                    counts[idx] += 1
            n += 1

    # admission order is (level, lex) order, so no sort is needed
    coords = np.empty((n, d), dtype=np.int64)
    rest = mflats[:n]
    for i, s in enumerate(stride_list):
        coords[:, i], rest = np.divmod(rest, s)
    coords.flags.writeable = False
    return UlamSet._from_coords(config, bound, coords)


# ---------------------------------------------------------------------------
# Brute-force reference generator (independent oracle).


def generate_reference(config: InitialConfig, bound: Bound, sizefn: SizeFunction | None = None) -> UlamSet:
    """Definition-faithful generator for small bounds.

    At every step, re-enumerate all pairwise sums of the current set, count
    every candidate's representations from scratch, and admit the minimal-f
    candidates with exactly one representation.  No state is shared with
    :func:`generate`; this is the oracle the fast engine is tested against.
    """
    sizefn = sizefn or SizeFunction.coordinate_sum()
    sizefn.check_dim(config.dim)
    _check_bound_dim(config.dim, bound)
    _check_initials_in_bound(config, bound, sizefn)
    fval = sizefn.value

    if bound.kind == "box":
        limits = bound.limits

        def in_bound(p):
            return all(c <= l for c, l in zip(p, limits))
    else:

        def in_bound(p):
            return fval(p) <= bound.cap

    current: set[Point] = set(config.initials)
    while True:
        cnt: dict[Point, int] = {}
        for u, v in combinations(current, 2):
            s = tuple(a + b for a, b in zip(u, v))
            if in_bound(s):
                cnt[s] = cnt.get(s, 0) + 1
        best = None
        batch: list[Point] = []
        for s, c in cnt.items():
            if c != 1 or s in current:
                continue
            fs = fval(s)
            if best is None or fs < best:
                best, batch = fs, [s]
            elif fs == best:
                batch.append(s)
        if not batch:
            break
        current.update(batch)

    pts = sorted(current, key=lambda p: (fval(p), p))
    return _assemble(config, sizefn, bound, pts, [fval(p) for p in pts])


def representation_count(p, members) -> int:
    """Number of unordered pairs {u, v} of distinct members with u + v = p."""
    p = tuple(p)
    if all(c == 0 for c in p):
        raise ZeroVector("representation counts are defined for nonzero points")
    mset = members.members if isinstance(members, UlamSet) else frozenset(
        tuple(m) for m in members
    )
    ordered = 0
    for u in mset:
        v = tuple(a - b for a, b in zip(p, u))
        if any(c < 0 for c in v) or v == u:
            continue
        if v in mset:
            ordered += 1
    return ordered // 2
