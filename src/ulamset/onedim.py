"""Exact generator for one-dimensional Ulam sequences.

The sequence starts from two or more distinct positive integers; every
subsequent term is the smallest integer expressible as the sum of two
distinct earlier terms in exactly one way.

The engine restricts its work to *outliers*, after Steinerberger's hidden
signal ("A hidden signal in the Ulam sequence", Exp. Math. 2017) and
Gibbs' method ("An efficient method for computing Ulam numbers", 2015):

Classes.  A frequency is alpha = 2*pi*j/M with M = 2**48 and an integer j.
The residue of a value a is the integer r(a) = a*j mod M; it is computed
in wrapping 64-bit arithmetic, which is exact because M divides 2**64.
The class J holds the values with M < 3r < 2M, that is, alpha*a mod 2*pi
in the open middle third of the circle.  J + J misses J exactly: for r1
and r2 in J, r1 + r2 lies in (2M/3, 4M/3), so 3*((r1 + r2) mod M) lies in
(2M, 3M) or in [0, M), never in (M, 2M).  A member outside J is an
*outlier*.

Counts.  The *tracked* members are the outliers, the ``_TRACKED_J``
smallest members of J and every member below ``_WINDOW``; the members are
stored once, in one int64 array that holds the tracked members from its
front and the untracked members of J from its back, and that becomes the
terms at the end.  The count of v holds the number of member pairs
{a, b}, a != b, a + b = v, with at least one tracked summand.  Admitting
an untracked member of J adds its sums with the tracked members;
admitting a tracked member adds its sums with all members.

Candidates.  Values are decided in increasing order, in windows [lo, end)
of at most ``_WINDOW`` values.  A window reads its counts once, at its start;
counts only rise, so its candidates are the values whose count is then at
most 1.  A value in J has no representation by two members of J, so its
count is its number of representations, and it is a term iff that is 1.
A value outside J is rejected when its count is at least 2; otherwise the
pairs of untracked members of J that sum to it are counted from scratch,
in one pass over those members.  Tracking the smallest members of J as
well as the outliers makes that count rare: the counts already hold most
pairs that reject a value outside J.

Inside a window, an admission x adds 1 at x + a < end for each member a
it is counted with; since x >= lo, only the members below ``_WINDOW`` can
land there, and those are all tracked, so every admission has them as its
partners.  Their pairs go to two bit sets of the window, which saturate
at two: bit v - lo of ``once`` is set when they add at least one pair at
v, and of ``twice`` when they add at least two.  No such pair is also in
a pull count, which pairs two untracked members of J: the later one is
at least lo and the earlier at least ``_WINDOW``, so their sum is at
least lo + ``_WINDOW`` >= end.  The scatter of an untracked member of J
into ``counts`` waits for the end of the window, or for the next tracked
admission, whose own scatter over all members then counts each pair
once, under the tracked set of its later summand.  The count read for a
value v is thus c, its ``counts`` entry at the start of the window, plus
min(h, 2), where h is the number of pairs whose later summand was
admitted in the window and whose sum is v; c + h is the count of a
value-by-value scan.  The saturation is exact: c <= 1, so c + min(h, 2)
is 1 iff c + h is 1 and exceeds 1 iff c + h does, and those are the only
questions the admission rule asks of a count.  Pairs that land at or
beyond end are in ``counts`` before the next window reads it.

Frequency.  Until the member count reaches ``_FIRST_ESTIMATE``, j = 0:
no value is in J, every member is an outlier, and the counts are the full
representation counts.  At that member count, and again each time it
doubles, j is estimated from the members (from j = 0, starting at the
minimiser of ``signal.alpha_scan``), and the counts are rebuilt from
the tracked members alone, for the sums at or above the next undecided
value only: values are decided in increasing order, so the scan never
reads a count below that value again.  When more than
``_MAX_OUTLIER_SHARE`` of the members are outliers, the signal is too weak
to pay for the pull counts; j goes back to 0 until the next estimate.
Every step above is exact for any j, so the frequency affects the speed
only, never the output.  For (1, 2) about 100 of the first 5e4 members are
outliers, and 5e4 terms come at 117 000 to 210 000 terms per second,
with the host's speed (``onedim.terms_per_s`` of the benchmark's seq1d
workload, on a shared 2-vCPU Xeon).

Memory.  The counts are held only for the live values: a uint32 window
from ``base`` <= lo past twice the largest member, which slides up to lo
when a new term needs room above it and then grows to ``_HEADROOM`` times
the values it must cover if it has less.  ``in_j`` flags the untracked
members of J up to the end of the block being decided, which bounds every
value a pull count reads, and grows the same way.  A growth that would
pass the budget only by its headroom takes the part of it that fits.  So
a run holds 8 B per member slot, 4 B per live count and 1 B per value
below the frontier; the first allocation and every growth state that
total to ``core._check_bytes``, which raises :class:`GridTooLarge` over
the budget.  Each estimate from j = 0 states that total plus 8 B per
member and ``signal._scan_bytes`` of its scan, the transform's working
buffers included, before it allocates them.  Not stated: the fits'
temporaries.

Initials with a common factor g give g times the sequence of the initials
divided by g, which is computed instead.

All initial terms are members from the very start, so with more than two
initials a new term may be smaller than the largest initial (for initials
1, 2, 5 the next term is 3).  The sweep therefore walks values upward and
merges pending initials in order, rather than scanning past the last
admitted term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core
from .core import _KeyedEq, _check_bytes
from .errors import InvalidInitials, TooShort
from .signal import _MAX_GRID_STEP, _scan_bytes, alpha_scan

_M = 1 << 48  # modulus of the residues; a power of two, so it divides 2**64
_MASK = np.uint64(_M - 1)
_FIRST_ESTIMATE = 2000  # member count of the first frequency estimate
_FIT_ROUNDS = 8  # least-squares rounds; each one re-selects the residues in J
_BLOCK = 1 << 14  # values per block of classes
_WINDOW = 128  # values per window of counts read at once
_TRACKED_J = 64  # smallest members of J whose pairs are counted like outliers
_MAX_OUTLIER_SHARE = 0.05  # above it, pull counts cost more than full counts
_HEADROOM = 1.25  # a growing array's length over the values it must cover


@dataclass(frozen=True, eq=False, init=False)
class Sequence1D(_KeyedEq):
    """A computed prefix of a one-dimensional Ulam sequence.

    A sequence stores its ``initials`` and ``array``, its terms as a
    read-only 1-D int64 array.  Any sequence of positive integers becomes
    such an array, copied unless it is a read-only int64 array already;
    anything else (a float, a nested sequence, an integer beyond int64, a
    term below 1) raises :class:`InvalidInitials`.  ``terms`` (a tuple) is
    derived on first read.  Sequences are equal when initials and term
    bytes are.
    """

    initials: tuple[int, ...]
    array: np.ndarray = field(init=False)

    def __init__(self, initials, terms):
        a = np.asarray(terms)
        if a.ndim != 1 or a.size and not (np.can_cast(a.dtype, np.int64) and a.min() > 0):
            raise InvalidInitials(f"terms must be a 1-D sequence of positive integers, "
                                  f"not {a.dtype} of shape {a.shape}")
        a = a.astype(np.int64, copy=a.flags.writeable)  # the caller may still write to it
        a.flags.writeable = False
        object.__setattr__(self, "initials", tuple(initials))
        object.__setattr__(self, "array", a)

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:
        head = ", ".join(map(str, self.array[:8].tolist()))
        return f"Sequence1D(initials={self.initials}, n={len(self)}, [{head}, ...])"

    @property
    def _key(self) -> tuple:
        return (self.initials, self.array.tobytes())

    @cached_property
    def terms(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())


def _residues(values: np.ndarray, j: int) -> np.ndarray:
    """r(a) = a*j mod M; the uint64 product wraps mod 2**64, a multiple of M."""
    return (values.astype(np.uint64) * np.uint64(j)) & _MASK


def _in_class(r: np.ndarray) -> np.ndarray:
    """Mask of the residues in J."""
    return (3 * r > _M) & (3 * r < 2 * _M)


def _estimate(members: np.ndarray, j: int) -> int:
    """Numerator of the frequency alpha = 2*pi*j/M of the members.

    An estimate from j = 0 starts from the minimiser of sum(cos(alpha*a))
    that ``signal.alpha_scan`` finds on its coarsest grid and refines to a
    step of at most 1e-9; later ones start from the previous estimate.
    Either start is refined by least-squares fits of the drift of the
    residues in J: with alpha off by e, alpha*a drifts by e*a.  ``members``
    are scanned in place if they are a read-only int64 array, and copied
    otherwise.
    """
    if j == 0:
        alpha = alpha_scan(Sequence1D((), members), _MAX_GRID_STEP).best_alpha
        j = round(alpha * _M / (2 * math.pi))
    x = members.astype(np.float64)
    for _ in range(_FIT_ROUNDS):
        # position of alpha*a on the circle, in turns from pi
        d = _residues(members, j) / _M - 0.5
        inside = np.abs(d) < 1 / 6
        if np.count_nonzero(inside) < 2:
            break
        xs = x[inside] - x[inside].mean()
        # turns per unit value; einsum, not a BLAS dot: from 16 000 members
        # the dot may wake worker threads, and an estimate then took 60-66
        # ms on a 2-vCPU Xeon instead of 1-3 ms
        drift = float(np.einsum("i,i->", xs, d[inside]) / np.einsum("i,i->", xs, xs))
        shift = round(drift * _M)
        if shift == 0:
            break
        j = (j - shift) % _M
    return j


def _pull_count(v: int, in_j: np.ndarray, j_members: np.ndarray) -> int:
    """Pairs of members of J that sum to v."""
    return int(np.count_nonzero(in_j[v - j_members[2 * j_members < v]]))


def _candidates(window: np.ndarray, lo: int, cls: np.ndarray) -> zip:
    """(value, count, in J) for the values of [lo, lo + window.size) with
    count <= 1, as Python objects: counts only rise, so no other value of
    the window can be a term.  ``window`` holds their counts and ``cls``
    their classes.  Nothing returned is a view of ``window``, so the count
    window can be moved or resized while the result is read."""
    at = np.flatnonzero(window <= 1)
    return zip((at + lo).tolist(), window[at].tolist(), cls[at].tolist())


def _scatter(counts: np.ndarray, batch: np.ndarray, tracked: np.ndarray, base: int) -> None:
    """Count the pairs of each untracked member of J in ``batch`` with the
    tracked members, in the count window from ``base``; sums of different
    members may coincide, hence ``np.add.at``."""
    sums = ((batch - base)[:, None] + tracked).ravel()
    np.add.at(counts, sums, np.uint32(1))  # with a Python 1 it takes about 30x as long


def _covering(values: int) -> int:
    """Length of an array that must cover ``values`` values, with room to grow."""
    return int(_HEADROOM * values)


def ulam_sequence(initials, n_terms: int) -> Sequence1D:
    """First ``n_terms`` terms (in increasing order) of the sequence."""
    inits = tuple(int(a) for a in initials)
    if len(inits) < 2:
        raise InvalidInitials("need at least two initial terms")
    if any(a <= 0 for a in inits):
        raise InvalidInitials("initial terms must be positive")
    if len(set(inits)) != len(inits):
        raise InvalidInitials("initial terms must be distinct")
    if n_terms < len(inits):
        raise InvalidInitials(
            f"n_terms={n_terms} is smaller than the {len(inits)} initial terms"
        )

    g = math.gcd(*inits)
    if g > 1:
        # sums of multiples of g are multiples of g: the sequence scales
        terms = ulam_sequence([a // g for a in inits], n_terms).array
        if g * int(terms[-1]) > np.iinfo(np.int64).max:
            raise InvalidInitials(f"the terms of the initials {inits} exceed the int64 range")
        terms = g * terms
        terms.flags.writeable = False
        return Sequence1D(tuple(sorted(inits)), terms)

    inits = tuple(sorted(inits))
    k = len(inits)
    request = f"{n_terms} terms from the initials {inits}"
    slots = max(1024, n_terms + k)

    def check(n_counts: int, n_in_j: int, scan: int = 0) -> None:
        """State the arrays held with a count window of ``n_counts`` values
        and an ``in_j`` of ``n_in_j``: 8 B per member slot, 4 B per count,
        1 B per flag, plus ``scan`` bytes of a frequency estimate."""
        _check_bytes(8 * slots + 4 * n_counts + n_in_j + scan, request)

    def grown(need: int, per: int, other: int) -> int:
        """Length of an array of ``per`` B a value that must cover ``need``
        values, beside ``other`` bytes of the other grown array: the headroom
        of ``_covering``, cut to what fits in the budget, never below need."""
        fits = (core._MAX_BYTES - 8 * slots - other) // per
        return max(need, min(_covering(need), fits))

    # counts[v - base] for the values v of [base, base + counts.size); base
    # <= lo and base + counts.size > 2 * (largest member) hold throughout,
    # so the window holds every count still to be read or added to
    base = 1
    n_counts = _covering(2 * inits[-1])
    check(n_counts, base + n_counts)

    # The members, each once: the tracked ones (outliers and the smallest
    # members of J) from the front, the other members of J from the back.
    # j = 0 until the first estimate: every member is an outlier.
    j = 0
    members = np.empty(slots, dtype=np.int64)
    members[:k] = inits
    nt = k
    nj = 0
    next_estimate = _FIRST_ESTIMATE

    counts = np.zeros(n_counts, dtype=np.uint32)
    # in_j[v]: v is an untracked member of J; it covers every value that a
    # pull count can read, below the block's end, and the initials
    in_j = np.zeros(base + n_counts, dtype=bool)
    for i in range(k):
        for i2 in range(i + 1, k):
            counts[inits[i] + inits[i2] - base] += 1

    decided = 0  # terms so far
    pi = 0  # initials merged into the terms so far
    lo = 1  # next undecided value
    # bit a: a is a member below _WINDOW, and so tracked
    small = sum(1 << a for a in inits if a < _WINDOW)

    while decided < n_terms:
        if pi < k and inits[pi] == lo:
            # the initial comes first; it is already a member
            decided += 1
            pi += 1
            lo += 1
            continue
        # One block [start, hi) of values with their classes.  The next term
        # is at most the sum of the two largest members, which is inside the
        # count window.
        start = lo
        hi = min(lo + _BLOCK, base + counts.size, inits[pi] if pi < k else lo + _BLOCK)
        if hi > in_j.size:
            n_in_j = grown(hi, 1, 4 * counts.size)
            check(counts.size, n_in_j)
            in_j.resize(n_in_j, refcheck=False)  # zero-filled; no view of in_j is held
        cls = _in_class(_residues(np.arange(lo, hi, dtype=np.int64), j))

        while lo < hi and nt + nj < next_estimate and decided < n_terms:
            end = min(lo + _WINDOW, hi)  # one window [lo, end)
            # bit v - lo: this window's admissions added at least one pair
            # at v (once), at least two (twice)
            once = twice = 0
            # members[slots - nj:slots - nj0] are the members of J admitted
            # in it, not yet in counts
            nj0 = nj
            found = _candidates(counts[lo - base:end - base], lo, cls[lo - start:end - start])
            for x, c, in_cls in found:
                c += (once >> (x - lo) & 1) + (twice >> (x - lo) & 1)
                if in_cls or nj == 0:
                    if c != 1:
                        continue
                elif c > 1 or c + _pull_count(x, in_j, members[slots - nj:]) != 1:
                    continue

                decided += 1
                # x is the largest member unless it is below an initial
                if 2 * x >= base + counts.size:
                    # Slide the window to start at lo: no count below lo is
                    # read again, and every sum still to come is above x.
                    # Grow it when less than the headroom would be left.
                    live = base + counts.size - lo
                    counts[:live] = counts[lo - base:]
                    counts[live:] = 0
                    base = lo
                    n_counts = grown(2 * x + 1 - lo, 4, in_j.size)
                    if n_counts > counts.size:
                        check(n_counts, in_j.size)
                        # zero-filled, in place where realloc can; no view
                        # of counts is held
                        counts.resize(n_counts, refcheck=False)
                if in_cls and x >= _WINDOW:  # an untracked member of J
                    in_j[x] = True
                    nj += 1
                    members[slots - nj] = x
                else:
                    if nj > nj0:  # with members[:nt] before x joins them
                        _scatter(counts, members[slots - nj:slots - nj0], members[:nt], base)
                        nj0 = nj
                    # sums are distinct for a fixed new term
                    counts[members[:nt] + (x - base)] += 1
                    if nj:
                        counts[members[slots - nj:] + (x - base)] += 1
                    members[nt] = x
                    nt += 1
                hit = small << (x - lo)  # before x joins small: no pair x + x
                once, twice = once | hit, twice | once & hit
                if x < _WINDOW:
                    small |= 1 << x
                if nt + nj >= next_estimate or decided == n_terms:
                    end = x + 1
                    break
            if nj > nj0:
                _scatter(counts, members[slots - nj:slots - nj0], members[:nt], base)
            lo = end

        if nt + nj >= next_estimate and decided < n_terms:
            if j == 0:
                # every member is tracked; the estimate holds their copy and
                # the arrays of its scan
                top = int(members[:nt].max())
                check(counts.size, in_j.size, 8 * nt + _scan_bytes(top, _MAX_GRID_STEP))
            # member order reaches _estimate only through float rounding
            mem = np.concatenate((members[:nt], members[slots - nj:]))
            mem.flags.writeable = False  # so the scan does not copy it
            next_estimate = 2 * mem.size
            estimate = _estimate(mem, j)
            cls_m = _in_class(_residues(mem, estimate))
            if np.count_nonzero(~cls_m) > _MAX_OUTLIER_SHARE * mem.size:
                estimate = 0  # a weak signal: pull counts would cost more
                cls_m[:] = False
            if estimate == j == 0:
                continue  # the counts are complete already
            j = estimate
            in_class = np.sort(mem[cls_m])
            n_tracked_j = max(_TRACKED_J, int(np.searchsorted(in_class, _WINDOW)))
            now_tracked = np.sort(np.concatenate((mem[~cls_m], in_class[:n_tracked_j])))
            nt = now_tracked.size
            members[:nt] = now_tracked
            untracked = in_class[n_tracked_j:]
            nj = untracked.size
            members[slots - nj:] = untracked
            in_j[:] = False
            in_j[untracked] = True
            # sums >= lo only (see "Frequency" above), so the window can
            # start at lo; both partner arrays are sorted, so a tracked
            # member's live partners are one slice
            counts[:] = 0
            base = lo
            j_first = np.searchsorted(untracked, lo - now_tracked).tolist()
            t_first = np.searchsorted(now_tracked, lo - now_tracked).tolist()
            for i, t in enumerate(now_tracked.tolist()):
                counts[untracked[j_first[i]:] + (t - base)] += 1
                counts[now_tracked[max(i + 1, t_first[i]):] + (t - base)] += 1

    # The terms are the members below every pending initial; gather the
    # members at the front and sort them in place
    members[nt:nt + nj] = members[slots - nj:]
    terms = members[:nt + nj]
    terms.sort()
    terms = terms[:n_terms]
    terms.flags.writeable = False
    return Sequence1D(inits, terms)


def consecutive_gaps(seq: Sequence1D) -> list[int]:
    """Differences between successive terms, gaps[i] = terms[i+1] - terms[i]."""
    if len(seq) < 2:
        raise TooShort("need at least two terms to form gaps")
    return np.diff(seq.array).tolist()


def fibonacci_bound_check(seq: Sequence1D) -> bool:
    """True iff the n-th term is at most the (n+1)-st Fibonacci number.

    Indexing is 1-based with F_1 = F_2 = 1; the bound holds for the
    sequence seeded by (1, 2).
    """
    largest = int(seq.array.max(initial=0))
    a, b = 1, 1  # F_1, F_2; for the n-th term, b holds F_{n+1}
    for t in map(int, seq.array):
        if t > b:
            return False
        if b > largest:
            return True  # every later term is at most largest < F_{n+1}
        a, b = b, a + b
    return True
