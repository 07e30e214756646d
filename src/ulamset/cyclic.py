"""Unique-sum growth over the half-infinite cylinder Z_{>=1} x Z_n.

Addition acts componentwise with the residue coordinate reduced mod n, and
size is the x-coordinate alone (admissible because every element has x >= 1,
so f(u+v) = x_u + x_v > max(x_u, x_v), and each sublevel set is finite).
Ties across residues at one x are admitted in a single batch.

A generated slice can sometimes be certified complete: once every pairwise
sum of distinct members either is a member already or has two or more
representations, no element can ever be added again, so the full infinite
process stops at the computed set.  :func:`finiteness_certificate` performs
that check from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BoundTooSmall, DuplicateVector, InconclusiveBound, InvalidInitials

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
        return (
            f"CyclicUlamSet(mod={self.modulus}, x<={self.x_bound}, "
            f"n={len(self.points)})"
        )

    @property
    def max_x(self) -> int:
        return max(p[0] for p in self.points)


def _validate_cyclic_initials(initials, modulus: int) -> tuple[CyclicPoint, ...]:
    if modulus < 1:
        raise InvalidInitials(f"modulus must be >= 1, got {modulus}")
    pts = []
    seen = set()
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
        p = (x, r)
        if p in seen:
            raise DuplicateVector(f"initial {p} appears twice")
        seen.add(p)
        pts.append(p)
    if not pts:
        raise InvalidInitials("at least one initial element is required")
    return tuple(pts)


def generate_cyclic(initials, modulus: int, x_bound: int) -> CyclicUlamSet:
    """Level-by-level generation over x up to ``x_bound`` inclusive."""
    inits = _validate_cyclic_initials(initials, modulus)
    for p in inits:
        if p[0] > x_bound:
            raise BoundTooSmall(f"x_bound {x_bound} excludes initial {p}")

    init_by_x: dict[int, list[CyclicPoint]] = {}
    for p in inits:
        init_by_x.setdefault(p[0], []).append(p)

    members: list[CyclicPoint] = []
    member_set: set[CyclicPoint] = set()
    counts: dict[CyclicPoint, int] = {}

    for level in range(1, x_bound + 1):
        batch = {p for p in init_by_x.get(level, ())}
        for r in range(modulus):
            p = (level, r)
            if counts.get(p) == 1 and p not in member_set:
                batch.add(p)
        for w in sorted(batch):
            for u in members:
                x = u[0] + w[0]
                if x > x_bound:
                    continue
                s = (x, (u[1] + w[1]) % modulus)
                c = counts.get(s, 0)
                if c < 2:
                    counts[s] = c + 1
            members.append(w)
            member_set.add(w)

    pts = tuple(sorted(members))
    return CyclicUlamSet(modulus, inits, x_bound, pts, frozenset(pts))


def finiteness_certificate(cset: CyclicUlamSet) -> bool:
    """Sound completeness check for a generated cyclic set.

    Requires the generation bound to reach twice the largest member x, so
    every pairwise sum of members was conclusively decided.  Returns True
    iff no pairwise sum of distinct members is a uniquely-representable
    non-member, in which case the infinite process can never add another
    element and the computed set is the entire set.
    """
    n = cset.modulus
    pts = cset.points
    if 2 * cset.max_x > cset.x_bound:
        raise InconclusiveBound(
            f"x_bound {cset.x_bound} < twice the largest member x {cset.max_x}"
        )
    reps: dict[CyclicPoint, int] = {}
    for u, v in combinations(pts, 2):
        s = (u[0] + v[0], (u[1] + v[1]) % n)
        reps[s] = reps.get(s, 0) + 1
    return all(c != 1 or s in cset.members for s, c in reps.items())
