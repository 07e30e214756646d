"""Greedy growth of uniquely-representable lattice point sets.

Starting from a finite set of nonzero initial vectors in Z_{>=0}^d, the
generated set repeatedly adjoins every smallest point (measured by an
admissible size function) that can be written as the sum of two distinct
current members in exactly one way.  A size function f is admissible when
f(u+v) > max(f(u), f(v)) for nonzero u, v and every sublevel set is finite;
the resulting point set does not depend on which admissible f is used, so
the coordinate sum is the canonical choice here (integer levels, exact
arithmetic).

:func:`generate` counts representations by coordinate sum, and serves any
other size function as a filter over a box that holds the bound.  It picks
one of two engines from the bound and the initials alone.  A 2-D box is
swept column by column along its shorter axis x (axis 0 on a tie) when at
most one initial has x = 0 and the column spectra fit in ``_MAX_BYTES``
(:func:`_generate_columns`: cross-column counts from FFT spectra,
in-column counts from a two-state scan).  Every other bound (d != 2, a
level bound, a box that fails the rule) goes to the level engine
(:func:`_generate_levels`: saturating counts on one flat numpy grid,
level by level).  Both are exact: every summand of a point lies below it
in each coordinate, so any order that reaches a point after all points
below it admits the same set.  :func:`generate_reference` is the
definition-faithful brute force, recounting all pairwise sums from scratch
at every step, for any size function; the engines must agree with it on
every input, and the test suite checks this on many small instances.
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

# Most bytes a count grid may take.  The level grid and the cyclic grid state
# their bytes to _check_bytes before they allocate; the column sweep runs only
# when its spectra, which take more than 4x the level grid, fit.
_MAX_BYTES = 300_000_000

# Count dtype of the level engine and of the cyclic grid.  Only the states 0,
# 1 and >= 2 matter.  A level-bound update saturates each count at 2 itself;
# the contiguous add of a box (and of the cyclic grid) cannot, so those are
# clamped back to 2 every max - 2 admissions (:func:`_clamp`).  uint8 halves
# the bytes each box slice-add streams (0.04-0.05 against 0.06-0.10 ns per
# cell over the whole 3001 x 141 grid of the (3000,70) box, best of seven in
# three runs, 2-vCPU Xeon, numpy 2.4), and a clamp of that grid costs about
# 16 us (best of seven, same machine), under 0.1 us per admission.
_COUNT_DTYPE = np.uint8

# Admissions between two clamps.
_CLAMP_EVERY = int(np.iinfo(_COUNT_DTYPE).max) - 2

# The dense box branch updates the counts for a new member at flat index f by
# one contiguous add of the member grid over [f, last] when those are fewer
# than this many cells per earlier member, and by gathering the members
# otherwise.  Measured with uint8 counts (2-vCPU Xeon, numpy 2.4, timeit): the
# add costs about 1.8 us plus 0.06 ns per cell, the gather (an add, a compare,
# a masked take, a scatter) about 6 us plus 6.6 ns per member once n is in the
# thousands; 6.6 / 0.06 is about 110.  Median of four interleaved runs on the
# 3-D (50,50,50) box: 128 is fastest, 512 is 10 % and adds alone 30 % slower.
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

    def reach(self, dim: int) -> tuple[int, ...]:
        """Largest coordinate on each of ``dim`` axes under the coordinate
        sum: a box's limits, or the floor of the cap on every axis of a
        level bound."""
        return self.limits if self.kind == "box" else (int(self.cap),) * dim


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


@dataclass(frozen=True, eq=False, init=False)
class UlamSet:
    """A generated set truncated to a bound.

    A set is its ``coords``, the only data it stores: the points as a
    read-only (n, d) int64 array, sorted by (f-level, lexicographic).  Any
    sequence of points becomes such an array, copied unless it is one
    already; the wrong width raises :class:`DimensionMismatch`.  ``points``
    (rows as tuples), ``levels`` (f of each) and ``members`` (their
    frozenset, for ``in``) are derived on first read.  Sets are equal when
    config, size function, bound and coordinate bytes are.  ``points=``
    may stand for ``coords``, as ``dataclasses.replace(s, points=...)``
    passes it; ``levels=`` and ``members=`` must then agree with it.
    """

    config: InitialConfig
    sizefn: SizeFunction
    bound: Bound
    coords: np.ndarray

    def __init__(self, config, sizefn, bound, coords, *, points=None, levels=None, members=None):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "sizefn", sizefn)
        object.__setattr__(self, "bound", bound)
        a = np.asarray(coords if points is None else points, dtype=np.int64)
        if a.shape == (0,):
            a = a.reshape(0, self.dim)
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise DimensionMismatch(f"points of shape {a.shape} for dimension {self.dim}")
        a = a.copy() if a.flags.writeable else a  # the caller may still write to it
        a.flags.writeable = False
        object.__setattr__(self, "coords", a)
        if (levels is not None and tuple(levels) != self.levels
                or members is not None and frozenset(members) != self.members):
            raise ValueError("levels or members disagree with the points")

    def __contains__(self, p) -> bool:
        return tuple(p) in self.members

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UlamSet):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (f"UlamSet(k={self.config.k}, dim={self.dim}, "
                f"bound={self.bound.kind}, n={len(self)})")

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def _key(self) -> tuple:
        return (self.config, self.sizefn, self.bound, self.coords.tobytes())

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def levels(self) -> tuple:
        return tuple(map(self.sizefn.value, self.points))

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.points)

    def grid(self, lo, hi) -> np.ndarray:
        """Bool array over the box lo <= p <= hi, True exactly at the set's
        points in it.

        ``lo`` and ``hi`` give any integer per axis of the set, and a corner
        of another length raises :class:`DimensionMismatch`; an axis with
        hi < lo is empty.  Cells outside the set's bound read False, not
        unknown, so a caller that reads False as "not a member" checks its
        box against the bound first.
        """
        lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise DimensionMismatch(f"corners {lo.tolist()} and {hi.tolist()} for dimension {self.dim}")
        out = np.zeros(np.maximum(hi + 1 - lo, 0), dtype=bool)
        # one axis at a time: scalar compares and 1-D masks beat the (n, dim) ones
        keep = np.logical_and.reduce([(c >= a) & (c <= b) for c, a, b in zip(self.coords.T, lo, hi)])
        at = [c[keep] for c in self.coords.T]
        for c, a in zip(at, lo):
            c -= a  # each masked column is a copy, shifted in place
        out[tuple(at)] = True
        return out


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
    :class:`GridTooLarge` before allocating when the level engine's grid
    for that bound (see :func:`_generate_levels`) takes more than
    ``_MAX_BYTES``; a refused level bound of another f names its level.
    """
    sizefn = sizefn or SizeFunction.coordinate_sum()
    sizefn.check_dim(config.dim)
    _check_bound_dim(config.dim, bound)
    _check_initials_in_bound(config, bound, sizefn)
    box = bound
    if bound.kind == "level" and sizefn.kind != "coordinate-sum":
        box = Bound.box([_axis_limit(sizefn, config.dim, i, bound.cap) for i in range(config.dim)])
    x = _sweep_axis(config, box)
    try:
        uset = _generate_levels(config, box) if x is None else _generate_columns(config, box, x)
    except GridTooLarge as err:
        if box is bound:
            raise
        raise GridTooLarge(f"{sizefn.kind} level {bound.cap} in dimension {config.dim}, {err}") from None
    if sizefn.kind == "coordinate-sum":
        return uset
    coords = uset.coords
    rows = coords.tolist()
    fvals = [sizefn.value(p) for p in rows]
    kept = [i for i, f in enumerate(fvals) if bound.contains(rows[i], f)]
    kept.sort(key=lambda i: (fvals[i], rows[i]))
    return UlamSet(config, sizefn, bound, coords[kept])


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


def _clamp(counts, n: int) -> None:
    """Map every count >= 2 to 2, in place, when ``n`` admissions came
    before and n is a positive multiple of ``_CLAMP_EVERY``.

    numpy 2.4 takes its SIMD loop for ``clip`` only when both bounds are
    scalars of the array's dtype: about 16 us on the 3001 x 141 grid of
    the (3000,70) box, against 270-300 us for ``clip`` with Python-int
    bounds or ``minimum`` with a scalar (best of seven, 2-vCPU Xeon).
    """
    if n and n % _CLAMP_EVERY == 0:
        np.clip(counts, _COUNT_DTYPE(0), _COUNT_DTYPE(2), out=counts)


def _check_bytes(nbytes: int, request: str) -> None:
    """Raise :class:`GridTooLarge`, naming ``request``, if ``nbytes`` > ``_MAX_BYTES``."""
    if nbytes > _MAX_BYTES:
        raise GridTooLarge(f"{request}: {nbytes} bytes, over the limit of {_MAX_BYTES}")


def _generate_levels(config: InitialConfig, bound: Bound) -> UlamSet:
    """Level engine: representation counts on one flat numpy grid.

    Axis 0 of the grid keeps its n_0 = l_0 + 1 rows; every inner axis k
    gets the radix R_k = min(2 n_k - 1, lmax + 1), where lmax is the top
    level (the sum of the box limits, or the cap), so R_k = n_k on a level
    bound.  Raises :class:`GridTooLarge` when the grid takes more than
    ``_MAX_BYTES``, before allocating.  On a box, a new member u at flat
    index f adds the member grid to the counts by one contiguous add,
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
    adds 1, saturating at 2, at ``f + g`` for the members of level
    <= cap - L only, whose sums with u all lie in the bound.
    """
    d = config.dim
    limits = bound.reach(d)
    if bound.kind == "box":
        lmax = sum(limits)
        request = f"the {'x'.join(str(l + 1) for l in limits)} box"
    else:
        lmax = limits[0]
        request = f"level {bound.cap} in dimension {d}"
    dims = tuple(l + 1 for l in limits)
    radix = dims[:1] + tuple(min(2 * n - 1, lmax + 1) for n in dims[1:])
    # one byte for the count, and on a box one for the member grid
    per_cell = 1 + (bound.kind == "box")
    _check_bytes(per_cell * prod(radix), f"{request}, a {'x'.join(map(str, radix))} grid")
    cap = None if bound.kind == "box" else lmax
    cells = prod(radix)
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

    # Saturating counts: only the states 0, 1 and >= 2 matter, and the
    # targets f + g of one admission are distinct.  On a level bound each
    # update writes min(count, 1) + 1, so every count stays <= 2.  On a box
    # an admission adds at most 1 to any cell, and after a clamp every value
    # is <= 2, so no cell can pass the dtype's maximum within _CLAMP_EVERY
    # admissions of the last clamp.  A clamp maps every value >= 2 to 2, so
    # the test counts == 1 never changes.
    counts = np.zeros(cells, dtype=_COUNT_DTYPE)
    if cap is None:
        # the member grid has the counts' dtype, so the add never casts
        member = np.zeros(cells, dtype=_COUNT_DTYPE)

    # flat indices of the members in admission order; below[L] counts the
    # members of level < L
    mflats = np.empty(1024, dtype=np.int64)
    below: list[int] = []
    n = 0

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
            if cap is None:
                _clamp(counts, n)
                # two equivalent updates; pick the cheaper one per point
                if last - fl < _SLICE_PER_MEMBER * n:
                    counts[fl:last + 1] += member[:last + 1 - fl]
                else:
                    idx = mflats[:n] + fl
                    counts[idx[idx <= last]] += 1  # targets distinct for fixed f
                member[fl] = 1
            else:
                idx = mflats[:min(pe_level, n)] + fl
                counts[idx] = np.minimum(counts[idx], 1) + 1
            n += 1

    # admission order is (level, lex) order, so no sort is needed
    coords = np.stack(np.unravel_index(mflats[:n], radix), axis=1)
    coords.flags.writeable = False
    return UlamSet(config, SizeFunction.coordinate_sum(), bound, coords)


def _sweep_axis(config: InitialConfig, bound: Bound) -> int | None:
    """The axis x that :func:`_generate_columns` sweeps, or None.

    Only a 2-D box is swept, only along its shorter axis (axis 0 on a tie),
    and only when at most one initial has x = 0 and the column spectra,
    16 (l_x + 1)(N/2 + 1) bytes, fit in ``_MAX_BYTES``.  Sweeping the
    longer axis is exact too, but slower than the level engine:
    (2,0),(3,0),(0,1) on the (3000,70) box took 1.31 s against 0.12 s
    (in-process, 2-vCPU Xeon).  The spectra take over 4x the level grid of
    the same box, 2 (l_0 + 1) min(2 l_1 + 1, l_0 + l_1 + 1) bytes, so only
    the level engine ever refuses a request, and this choice never changes
    which are.
    """
    if config.dim != 2 or bound.kind != "box":
        return None
    x = int(bound.limits[1] < bound.limits[0])
    lx, ly = bound.limits[x], bound.limits[1 - x]
    if (sum(p[x] == 0 for p in config.initials) > 1
            or 16 * (lx + 1) * (_fft_size(ly) // 2 + 1) > _MAX_BYTES):
        return None
    return x


def _fft_size(ly: int) -> int:
    """FFT length N for columns y = 0..ly: the least 2^a 3^b 5^c above 2 ly,
    so a circular convolution of two columns wraps nothing onto y <= ly.
    pocketfft is fast on such lengths, and they store up to a quarter less
    than a power of two."""
    best = 1 << (2 * ly).bit_length()
    p5 = 1
    while p5 < best:
        p3 = p5
        while p3 < best:
            best = min(best, p3 << max(0, (2 * ly // p3).bit_length()))
            p3 *= 3
        p5 *= 5
    return best


def _generate_columns(config: InitialConfig, bound: Bound, x: int) -> UlamSet:
    """Column sweep of a 2-D box: columns x = X in turn, each upward in y.

    Every summand of a point p lies below p in each coordinate, so any
    order that reaches p after every point below it admits the same set as
    the levels do.  Column 0 holds only its initial, if any: a sum has
    x = 0 only if both summands do, and at most one initial has x = 0.
    A pair u + v = (X, Y), u != v, either crosses columns, x_1 + x_2 = X
    with 0 < x_1 <= x_2, or joins the column-0 member (0, delta) to
    (X, Y - delta).

    Cross pairs come from the rfft spectra S_x of the finished nonempty
    columns (an empty column has none): the inverse transform of
    sum_{x_1 < x_2} S_x1 S_x2 + S_h^2 / 2 (h = X / 2, X even), minus half
    the member bit of (h, Y / 2) at even Y, counts them.  The rounding is
    exact: the float64 FFT-convolution error is about
    u log2(N) (l_x / 2)(l_y + 1) (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 24.1), below 1e-5 on every box that
    :func:`_sweep_axis` admits, and a count 1/4 or more off an integer
    raises RuntimeError, an internal error.

    With the cross count c, (X, Y) is a member iff it is an initial or
    c + [(X, Y - delta) is a member] == 1: the word transform T along the
    chains of lag delta, :func:`_transform_chains`, with delta = 0 when
    column 0 has no member.
    """
    y = 1 - x
    lx, ly = bound.limits[x], bound.limits[y]
    n = ly + 1
    size = _fft_size(ly)
    grid = np.zeros((lx + 1, n), dtype=bool)  # members, one row per column
    for p in config.initials:
        grid[p[x], p[y]] = True
    spectra = [None] * lx  # of columns 1..lx-1, kept for the nonempty ones
    zero = np.flatnonzero(grid[0])
    delta = int(zero[0]) if zero.size else 0

    for X in range(1, lx + 1):
        pairs = np.zeros(size // 2 + 1, dtype=np.complex128)
        for x1 in range(1, (X + 1) // 2):
            s1, s2 = spectra[x1], spectra[X - x1]
            if s1 is not None and s2 is not None:
                pairs += s1 * s2
        if X % 2 == 0 and spectra[X // 2] is not None:
            pairs += 0.5 * spectra[X // 2] ** 2
        a = np.fft.irfft(pairs, size)[:n]
        if X % 2 == 0:
            a[::2] -= 0.5 * grid[X // 2, :(n + 1) // 2]
        c = np.rint(a)
        off = np.abs(a - c).max()
        if off >= 0.25:
            raise RuntimeError(
                f"internal error: a pair count of column {X} is {off} off an integer"
            )
        grid[X] = _transform_chains(c, grid[X], delta)
        if X < lx and grid[X].any():
            spectra[X] = np.fft.rfft(grid[X], size)

    del spectra  # freed before the coordinates are built, so the two peaks do not add
    cx, cy = np.nonzero(grid)
    coords = np.empty((cx.size, 2), dtype=np.int64)
    coords[:, x], coords[:, y] = cx, cy
    coords = coords[np.lexsort((coords[:, 1], coords[:, 0], cx + cy))]
    coords.flags.writeable = False
    return UlamSet(config, SizeFunction.coordinate_sum(), bound, coords)


def _transform_chains(counts: np.ndarray, initials: np.ndarray, delta: int) -> np.ndarray:
    """Membership of a column from its counts: the word transform T along
    each chain Y = r mod delta.

    A point is a member iff it is an initial or its count c plus
    [the point delta below it is a member] is 1; below Y = 0 nothing is a
    member, and delta = 0 means there is no chain, so a point is a member
    iff it is an initial or c == 1.  Along a chain that is a two-state
    recurrence: c = 0 keeps the state of Y - delta, c = 1 flips it, and
    c >= 2 (state 0) or an initial (state 1) resets it.  A row of count 2,
    a reset to 0, is put before the column, and each state is its last
    reset's value XOR the parity of the flips since, for every chain at
    once by one cumsum and one maximum.accumulate.  At delta = 1 with no
    initials this is Kravitz-Steinerberger's T of a count word over
    {0,1,2}, :func:`ulamset.columns.transform_t`.
    """
    if not delta:
        return initials | (counts == 1)
    n = counts.size
    rows = -(-n // delta) + 1
    c = np.full((rows, delta), 2, dtype=counts.dtype)
    i = np.zeros((rows, delta), dtype=bool)
    c.ravel()[delta:delta + n] = counts
    i.ravel()[delta:delta + n] = initials
    reset = (c >= 2) | i
    par = np.cumsum((c == 1) & ~reset, axis=0, dtype=np.uint8) & 1
    flat = np.arange(c.size).reshape(rows, delta)
    # each chain's last reset, by flat index: it grows down a chain
    last = np.maximum.accumulate(np.where(reset, flat, 0), axis=0)
    state = (i ^ par).ravel()[last] ^ par
    return state.ravel()[delta:delta + n]


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

    return UlamSet(config, sizefn, bound, sorted(current, key=lambda p: (fval(p), p)))


def representation_count(p, members) -> int:
    """Number of unordered pairs {u, v} of distinct members with u + v = p.

    A ``p`` of another dimension than a member raises :class:`DimensionMismatch`.
    """
    p = tuple(p)
    if all(c == 0 for c in p):
        raise ZeroVector("representation counts are defined for nonzero points")
    mset = members.members if isinstance(members, UlamSet) else frozenset(
        tuple(m) for m in members
    )
    if any(len(u) != len(p) for u in mset):
        raise DimensionMismatch(f"point {p} does not have the members' dimension")
    ordered = 0
    for u in mset:
        v = tuple(a - b for a, b in zip(p, u))
        if any(c < 0 for c in v) or v == u:
            continue
        if v in mset:
            ordered += 1
    return ordered // 2
