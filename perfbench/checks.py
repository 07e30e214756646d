"""Output checks and work counts, written independently of the program.

Nothing here calls into ``ulamset``; the checks read the program's result
objects (points, levels, terms, CSV text) and recompute what they must be
from the definition.  The central one is the representation check: a
non-initial point p of the bound is a member iff it is the sum of two
distinct members in exactly one way.  Every summand of an in-bound point is
itself in bound and has a strictly smaller size, so the check holds for a
truncated set exactly as for the infinite one.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

# exhaustive representation counts use an FFT over a grid of twice the
# bounding box per axis; above this many cells the check samples instead
FFT_CELL_LIMIT = 1 << 23
SAMPLE_POINTS = 256


class Region:
    """The set of lattice points a bound admits, with exact size arithmetic.

    ``kind`` and ``weights`` mirror the program's size function by name
    only; values are computed here, scaled to integers so comparisons are
    exact (weighted sums are multiplied by the weights' common denominator).
    """

    def __init__(self, dim: int, bound_kind: str, limits=(), cap=0,
                 size_kind: str = "coordinate-sum", weights=None):
        self.dim = dim
        self.bound_kind = bound_kind
        self.size_kind = size_kind
        if size_kind == "weighted-sum":
            ws = [Fraction(w) for w in weights]
            self.scale = math.lcm(*(w.denominator for w in ws))
            self.int_weights = np.array([int(w * self.scale) for w in ws], dtype=np.int64)
        else:
            self.scale = 1
            self.int_weights = None
        if bound_kind == "box":
            self.limits = tuple(int(c) for c in limits)
            self.scaled_cap = None
        else:
            self.scaled_cap = math.floor(Fraction(cap) * self.scale)
            self.limits = self._level_limits(Fraction(cap), weights)

    @classmethod
    def of(cls, bound, sizefn, dim: int) -> "Region":
        """Region of a program ``Bound`` under a program ``SizeFunction``."""
        kind = sizefn.kind if sizefn is not None else "coordinate-sum"
        weights = sizefn.weights if sizefn is not None else None
        return cls(dim, bound.kind, bound.limits, bound.cap, kind, weights)

    def _level_limits(self, cap: Fraction, weights) -> tuple[int, ...]:
        """Per-axis maximum coordinate of {f <= cap}: its bounding box."""
        if self.size_kind == "coordinate-sum":
            return (math.floor(cap),) * self.dim
        if self.size_kind == "euclidean-norm-squared":
            return (math.isqrt(math.floor(cap)),) * self.dim
        if self.size_kind == "weighted-sum":
            return tuple(math.floor(cap / Fraction(w)) for w in weights)
        raise ValueError(f"unknown size function {self.size_kind!r}")

    @property
    def cells(self) -> int:
        return math.prod(c + 1 for c in self.limits)

    def scaled_size(self, coords: np.ndarray) -> np.ndarray:
        """f(p) * scale for each row of ``coords`` (int64, exact)."""
        if self.size_kind == "coordinate-sum":
            return coords.sum(axis=-1)
        if self.size_kind == "euclidean-norm-squared":
            return (coords * coords).sum(axis=-1)
        return coords @ self.int_weights

    def contains(self, coords: np.ndarray) -> np.ndarray:
        inside = (coords >= 0).all(axis=-1) & (coords <= np.array(self.limits)).all(axis=-1)
        if self.scaled_cap is not None:
            inside &= self.scaled_size(coords) <= self.scaled_cap
        return inside

    def grid_mask(self) -> np.ndarray:
        """Boolean grid over the bounding box, True where the bound admits."""
        shape = tuple(c + 1 for c in self.limits)
        if self.scaled_cap is None:
            return np.ones(shape, dtype=bool)
        coords = np.indices(shape).reshape(self.dim, -1).T
        return (self.scaled_size(coords) <= self.scaled_cap).reshape(shape)


def same_output(a, b) -> bool:
    """Exact equality of two op results, array fields included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(same_output(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def as_coords(points, dim: int) -> np.ndarray:
    return np.array(points, dtype=np.int64).reshape(-1, dim)


def set_problems(points, levels, members, initials, region: Region) -> list[str]:
    """Shape of a generated set: in bound, no duplicates, levels equal f,
    sorted by (f, lex), initials present, ``members`` equal to ``points``."""
    out = []
    coords = as_coords(points, region.dim)
    if len(set(points)) != len(points):
        out.append("duplicate points")
    if frozenset(points) != members:
        out.append("members differ from points")
    if not region.contains(coords).all():
        out.append("point outside the bound")
    missing = [v for v in initials if v not in members]
    if missing:
        out.append(f"initial vectors missing: {missing[:3]}")
    scaled = region.scaled_size(coords).tolist()
    if [lv * region.scale for lv in levels] != scaled:
        out.append("levels differ from the size function")
    keys = list(zip(scaled, points))
    if any(a >= b for a, b in zip(keys, keys[1:])):
        out.append("points not strictly sorted by (size, lex)")
    return out


def representation_problems(points, initials, region: Region, rng) -> list[str]:
    """Member iff exactly one representation, for non-initial points.

    Exhaustive over the whole bound when the FFT grid is small enough,
    otherwise over ``SAMPLE_POINTS`` points drawn with ``rng``, half of
    them members and half uniform over the bound.
    """
    coords = as_coords(points, region.dim)
    fft_cells = math.prod(2 * (c + 1) for c in region.limits)
    if fft_cells <= FFT_CELL_LIMIT:
        return _exhaustive_reps(coords, initials, region)
    return _sampled_reps(coords, initials, region, rng)


def _exhaustive_reps(coords, initials, region: Region) -> list[str]:
    shape = tuple(c + 1 for c in region.limits)
    ind = np.zeros(shape, dtype=np.float64)
    ind[tuple(coords.T)] = 1.0
    fshape = tuple(2 * n for n in shape)  # no wrap-around below the box
    axes = tuple(range(region.dim))
    spec = np.fft.rfftn(ind, s=fshape, axes=axes)
    conv = np.fft.irfftn(spec * spec, s=fshape, axes=axes)[tuple(slice(0, n) for n in shape)]
    ordered = np.rint(conv)
    if np.abs(conv - ordered).max() > 0.25:
        return ["FFT representation counts are not integral"]
    twice = 2 * coords
    twice = twice[(twice <= np.array(region.limits)).all(axis=1)]
    ordered[tuple(twice.T)] -= 1  # drop u + u
    reps = ordered.astype(np.int64) // 2
    checked = region.grid_mask()
    checked[(0,) * region.dim] = False
    for v in initials:
        checked[v] = False
    bad = np.argwhere(checked & ((ind == 1.0) != (reps == 1)))
    if bad.size:
        return [f"{len(bad)} points break member-iff-one-representation, "
                f"first {[tuple(map(int, p)) for p in bad[:3]]}"]
    return []


def _sampled_reps(coords, initials, region: Region, rng) -> list[str]:
    n, d = coords.shape
    strides = np.array([math.prod(c + 1 for c in region.limits[i + 1:]) for i in range(d)],
                       dtype=np.int64)
    enc = np.sort(coords @ strides)

    def is_member(codes):
        pos = np.minimum(np.searchsorted(enc, codes), n - 1)
        return enc[pos] == codes

    half = SAMPLE_POINTS // 2
    picks = [coords[rng.choice(n, size=min(half, n), replace=False)]]
    drawn = 0
    lim = np.array(region.limits)
    while drawn < half:
        cand = rng.integers(0, lim + 1, size=(4 * half, d))
        cand = cand[region.contains(cand) & cand.any(axis=1)][: half - drawn]
        picks.append(cand)
        drawn += len(cand)
    init = {tuple(v) for v in initials}
    bad = []
    for p in np.concatenate(picks):
        if tuple(p.tolist()) in init:
            continue
        below = coords[(coords <= p).all(axis=1)] @ strides
        ordered = int(is_member(int(p @ strides) - below).sum())
        if not (p % 2).any() and is_member(np.array([(p // 2) @ strides]))[0]:
            ordered -= 1
        member = bool(is_member(np.array([p @ strides]))[0])
        if member != (ordered // 2 == 1):
            bad.append(tuple(p.tolist()))
    if bad:
        return [f"{len(bad)} sampled points break member-iff-one-representation, "
                f"first {bad[:3]}"]
    return []


def pair_sums(coords: np.ndarray, region: Region) -> int:
    """Unordered pairs of distinct members whose sum lies in the bound.

    This is the number of representation increments an incremental engine
    must record for the set.
    """
    n = len(coords)
    if region.bound_kind == "box":
        shape = tuple(c + 1 for c in region.limits)
        below = np.zeros(shape, dtype=np.int64)
        below[tuple(coords.T)] = 1
        for axis in range(region.dim):
            np.cumsum(below, axis=axis, out=below)  # members <= q componentwise
        ordered = int(below[tuple((np.array(region.limits) - coords).T)].sum())
        own = int((2 * coords <= np.array(region.limits)).all(axis=1).sum())
    elif region.size_kind == "coordinate-sum":
        lv = np.sort(coords.sum(axis=1))
        ordered = int(np.searchsorted(lv, region.scaled_cap - lv, side="right").sum())
        own = int((2 * lv <= region.scaled_cap).sum())
    else:
        ordered = 0
        for i in range(0, n, 256):
            sums = coords[i:i + 256, None, :] + coords[None, :, :]
            ordered += int((region.scaled_size(sums) <= region.scaled_cap).sum())
        own = int((region.scaled_size(2 * coords) <= region.scaled_cap).sum())
    return (ordered - own) // 2


def csv_problems(text, points, dim: int) -> list[str]:
    """The CSV has an x,y[,z] header and one row per point, in order."""
    if not isinstance(text, str):
        return ["CSV output is not text"]
    lines = text.split("\n")
    header = ",".join("xyz"[:dim])
    if lines[0] != header:
        return [f"CSV header {lines[0]!r}, expected {header!r}"]
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    rows = [tuple(int(c) for c in ln.split(",")) for ln in lines[1:-1]]
    if rows != list(points):
        return ["CSV rows differ from the generated points"]
    return []


def sequence_problems(terms, initials, n_terms: int) -> list[str]:
    """Length, order, initials, and member iff one representation over
    every value up to the last term (exhaustive, by FFT)."""
    if len(terms) != n_terms:
        return [f"{len(terms)} terms, expected {n_terms}"]
    arr = np.array(terms, dtype=np.int64)
    if (np.diff(arr) <= 0).any():
        return ["terms not strictly increasing"]
    if tuple(terms[:len(initials)]) != tuple(sorted(initials)):
        return ["sequence does not start with its initial terms"]
    region = Region(1, "box", (int(arr[-1]),))
    return _exhaustive_reps(arr[:, None], [(a,) for a in initials], region)
