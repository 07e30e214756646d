"""Unique-sum growth over the half-infinite cylinder Z_{>=1} x Z_n.

Addition acts componentwise with the residue coordinate reduced mod n, and
size is the x-coordinate alone (admissible because every element has x >= 1,
so f(u+v) = x_u + x_v > max(x_u, x_v), and each sublevel set is finite).
Ties across residues at one x are admitted in a single batch, and the
representations are counted on one flat grid, as in :mod:`ulamset.core`.

A generated slice can sometimes be certified complete: once every pairwise
sum of distinct members either is a member already or has two or more
representations, no element can ever be added again, so the full infinite
process stops at the computed set.  :func:`finiteness_certificate` performs
that check from scratch, by growing the set again from all its points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _CLAMP_CHUNK, _CLAMP_EVERY, _COUNT_DTYPE, _DENSE_CELL_LIMIT, _clamp
from .errors import BoundTooSmall, DuplicateVector, GridTooLarge, InconclusiveBound, InvalidInitials

CyclicPoint = tuple[int, int]  # (x, residue)


@dataclass(frozen=True)
class CyclicUlamSet:
    modulus: int
    initials: tuple[CyclicPoint, ...]
    x_bound: int
    points: tuple[CyclicPoint, ...]
    members: frozenset

    def __contains__(self, p) -> bool:
        return tuple(p) in self.members

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"CyclicUlamSet(mod={self.modulus}, x<={self.x_bound}, n={len(self.points)})"

    @property
    def max_x(self) -> int:
        return max(p[0] for p in self.points)


def generate_cyclic(initials, modulus: int, x_bound: int) -> CyclicUlamSet:
    """Row-by-row generation over x up to ``x_bound`` inclusive.

    The counts live on a flat grid of rows x = 0..x_bound and 2n - 1
    columns, member (x, r) at cell x (2n - 1) + r.  Residues sum to at most
    2n - 2, so a new member at flat index f counts its sums with all earlier
    ones by one carry-free contiguous add of the member grid (0 past the
    last member; sums past x_bound fall off).  The count of (x, r) is the
    fold c[x, r] + c[x, r + n].  This is exact:

    1. The counts saturate as in :func:`ulamset.core._generate_dense`, so a
       cell is 0, 1 or >= 2 as its true count is.  Between clamps a cell
       reaches 255, and 255 + 2 wraps to 1 in uint8, so the fold adds the
       halves as uint16, and it is 1 iff the true count is 1.
    2. Every member has x >= 1, so its add lands on later rows only, and
       row x is selected before its members add: the row is complete when
       read, and none of its cells is a member yet.  Initials join their
       row's batch whatever their count, as in core.
    3. No pair sum reaches a row above 2 top, top the largest x among the
       initials and the members so far, so growth stops at x > 2 top.

    Raises :class:`GridTooLarge` before allocating over ``_DENSE_CELL_LIMIT`` cells.
    """
    if modulus < 1:
        raise InvalidInitials(f"modulus must be >= 1, got {modulus}")
    pts: dict[CyclicPoint, None] = {}  # insertion-ordered set
    for v in initials:
        try:
            x, r = v
        except (TypeError, ValueError):
            raise InvalidInitials(f"initial {v!r} is not an (x, residue) pair") from None
        x, r = int(x), int(r)
        if x < 1:
            raise InvalidInitials(f"initial {v} must have x >= 1")
        if not 0 <= r < modulus:
            raise InvalidInitials(f"residue of {v} outside Z_{modulus}")
        if (x, r) in pts:
            raise DuplicateVector(f"initial {(x, r)} appears twice")
        pts[x, r] = None
    if not pts:
        raise InvalidInitials("at least one initial element is required")
    inits = tuple(pts)
    top = max(x for x, _ in inits)
    if top > x_bound:
        raise BoundTooSmall(f"x_bound {x_bound} excludes initial {max(inits)}")
    width = 2 * modulus - 1
    cells = (x_bound + 1) * width
    if cells > _DENSE_CELL_LIMIT:
        raise GridTooLarge(f"x_bound {x_bound} mod {modulus} takes a {x_bound + 1}x{width} "
                           f"grid of {cells} cells, over the limit of {_DENSE_CELL_LIMIT}")
    counts = np.zeros(cells, dtype=_COUNT_DTYPE["box"])
    member = np.zeros_like(counts)
    twos = np.full(min(cells, _CLAMP_CHUNK), 2, dtype=counts.dtype)
    rows = counts.reshape(x_bound + 1, width)
    init_by_x: dict[int, list[int]] = {}
    for x, r in inits:
        init_by_x.setdefault(x, []).append(r)
    flats: list[int] = []  # members in admission order, which is (x, r) order
    x = 1
    while x <= min(x_bound, 2 * top):
        fold = rows[x, :modulus].astype(np.uint16)
        fold[:modulus - 1] += rows[x, modulus:]
        batch = fold == 1
        batch[init_by_x.get(x, [])] = True
        for f in (x * width + np.flatnonzero(batch)).tolist():
            # every earlier add ended at or before this one's end
            end = min(cells, f + (flats[-1] + 1 if flats else 0))
            if flats and len(flats) % _CLAMP_EVERY["box"] == 0:
                _clamp(counts[:end], twos)
            counts[f:end] += member[:end - f]
            member[f] = 1
            flats.append(f)
            top = max(top, x)
        x += 1
    pts = tuple(divmod(f, width) for f in flats)
    return CyclicUlamSet(modulus, inits, x_bound, pts, frozenset(pts))


def finiteness_certificate(cset: CyclicUlamSet) -> bool:
    """Sound completeness check for a generated cyclic set.

    Requires x_bound >= 2 max_x, so every pairwise sum of members was
    decided.  Grows the set again from all its points and returns True iff
    that adds nothing: until growth admits a point, each row's counts come
    from the points alone, so it adds nothing iff no pairwise sum of
    distinct members is a uniquely-representable non-member.  Then the
    infinite process never adds another element: the set is complete.
    """
    if 2 * cset.max_x > cset.x_bound:
        raise InconclusiveBound(f"x_bound {cset.x_bound} < twice the largest member x {cset.max_x}")
    grown = generate_cyclic(cset.points, cset.modulus, 2 * cset.max_x)
    return len(grown) == len(cset.points)
