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

Counts.  The *tracked* members are the outliers and the ``_TRACKED_J``
smallest members of J.  ``counts[v]`` holds the number of member pairs
{a, b}, a != b, a + b = v, with at least one tracked summand.  Admitting
an untracked member of J adds its sums with the tracked members;
admitting an outlier adds its sums with all members.

Candidates.  Values are decided in increasing order, in windows [lo, end)
of at most ``_WINDOW`` values.  A window reads its counts once, at its start;
counts only rise, so its candidates are the values whose count is then at
most 1.  A value in J has no representation by two members of J, so its
count is its number of representations, and it is a term iff that is 1.
A value outside J is rejected when its count is at least 2; otherwise the
pairs of untracked members of J that sum to it are counted from scratch,
stopping as soon as the total reaches two.  Tracking the smallest members
of J as well as the outliers makes that count rare: the counts already
hold most pairs that reject a value outside J.

Inside a window, an admission x adds 1 at x + a < end for every partner a
it is counted with (the tracked members if x is in J, all members if it
is an outlier); since x >= lo, only the partners below ``_WINDOW`` can
land there.  Those additions go to a tally of the window, one bit field
per value.  The scatter of a member of J into ``counts`` waits for the
end of the window, or for the next outlier admission, whose own scatter
over all members then counts each pair once, under the tracked set of its
later summand.  The count read for a value v is thus ``counts`` at the
start of the window plus every pair whose later summand was admitted in
the window and whose sum is v: exactly the count of a value-by-value
scan.  Pairs that land at or beyond end are in ``counts`` before the next
window reads it.

Frequency.  Until the member count reaches ``_FIRST_ESTIMATE``, j = 0:
no value is in J, every member is an outlier, and the counts are the full
representation counts.  At that member count, and again each time it
doubles, j is estimated from the members, and the counts are rebuilt from
the tracked members alone, for the sums at or above the next undecided
value only: values are decided in increasing order, so the scan never
reads a count below that value again.  When more than
``_MAX_OUTLIER_SHARE`` of the members are outliers, the signal is too weak
to pay for the pull counts; j goes back to 0 until the next estimate.
Every step above is exact for any j, so the frequency affects the speed
only, never the output.  For (1, 2) about 100 of the first 5e4 members are
outliers, and 5e4 terms come at about 114 000 terms per second
(``onedim.terms_per_s`` of the benchmark's seq1d workload, on a 2-vCPU
Xeon).

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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInitials, TooShort
from .signal import _COARSE_STEP, fourier_sums

# value-array headroom when growing (factor on the largest needed index)
_GROWTH = 2
_M = 1 << 48  # modulus of the residues; a power of two, so it divides 2**64
_MASK = np.uint64(_M - 1)
_FIRST_ESTIMATE = 2000  # member count of the first frequency estimate
_FIT_ROUNDS = 8  # least-squares rounds; each one re-selects the residues in J
_BLOCK = 1 << 14  # values per block of classes
_WINDOW = 128  # values per window of counts read at once
_TRACKED_J = 64  # smallest members of J whose pairs are counted like outliers
_PULL_HEAD = 256  # members of J tried before a full pull count
_MAX_OUTLIER_SHARE = 0.05  # above it, pull counts cost more than full counts


@dataclass(frozen=True)
class Sequence1D:
    """A computed prefix of a one-dimensional Ulam sequence."""

    initials: tuple[int, ...]
    terms: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        head = ", ".join(map(str, self.terms[:8]))
        return f"Sequence1D(initials={self.initials}, n={len(self.terms)}, [{head}, ...])"


def _residues(values: np.ndarray, j: int) -> np.ndarray:
    """r(a) = a*j mod M; the uint64 product wraps mod 2**64, a multiple of M."""
    return (values.astype(np.uint64) * np.uint64(j)) & _MASK


def _in_class(r: np.ndarray) -> np.ndarray:
    """Mask of the residues in J."""
    return (3 * r > _M) & (3 * r < 2 * _M)


def _estimate(members: np.ndarray, j: int) -> int:
    """Numerator of the frequency alpha = 2*pi*j/M of the members.

    The first estimate (j = 0) starts from the minimiser of
    sum(cos(alpha*a)) on the FFT grid of ``signal.fourier_sums``; later ones
    start from the previous estimate, which is far closer than a grid
    point.  Either start is refined by least-squares fits of the drift of
    the residues in J: with alpha off by e, alpha*a drifts by e*a.
    """
    if j == 0:
        # fine enough that alpha*a drifts by at most 1/16 turn over the
        # members, but never finer than alpha_scan's default grid
        step = max(_COARSE_STEP, math.pi / (4 * int(members.max())))
        m, sums = fourier_sums(members, step)
        j = (1 + int(np.argmin(sums[1:]))) * (_M // m)  # grid point in (0, pi]
    x = members.astype(np.float64)
    for _ in range(_FIT_ROUNDS):
        # position of alpha*a on the circle, in turns from pi
        d = _residues(members, j) / _M - 0.5
        inside = np.abs(d) < 1 / 6
        if np.count_nonzero(inside) < 2:
            break
        xs = x[inside] - x[inside].mean()
        drift = float(xs @ d[inside]) / float(xs @ xs)  # turns per unit value
        shift = round(drift * _M)
        if shift == 0:
            break
        j = (j - shift) % _M
    return j


def _pull_count(v: int, need: int, in_j: np.ndarray, j_members: np.ndarray) -> int:
    """Pairs of members of J that sum to v, counted until ``need`` are found."""
    head = j_members[:_PULL_HEAD]
    found = int(np.count_nonzero(in_j[v - head[2 * head < v]]))
    if found >= need or j_members.size <= _PULL_HEAD:
        return found
    rest = j_members[_PULL_HEAD:]
    return found + int(np.count_nonzero(in_j[v - rest[2 * rest < v]]))


def _window_partners(values: np.ndarray, width: int) -> int:
    """The values a below ``_WINDOW``, as 1 in field a of ``width`` bits of
    one integer: the only partners whose sums with a new term land in the
    window it was admitted in.  Shifted by x - lo fields, it is the tally
    of the pairs of x."""
    return sum(1 << (width * a) for a in values[values < _WINDOW].tolist())


def _candidates(counts: np.ndarray, lo: int, end: int, cls: np.ndarray) -> zip:
    """(value, count, in J) for the values of [lo, end) with count <= 1, as
    Python objects: counts only rise, so no other value of the window can
    be a term.  ``cls`` holds the classes of [lo, end).  No view of
    ``counts`` outlives the call, so a rebuild can free it."""
    window = counts[lo:end]
    at = np.flatnonzero(window <= 1)
    return zip((at + lo).tolist(), window[at].tolist(), cls[at].tolist())


def _scatter(counts: np.ndarray, batch: list[int], tracked: np.ndarray) -> None:
    """Count the pairs of each member of J in ``batch`` with the tracked
    members; sums of different members may coincide, hence ``np.add.at``."""
    sums = (np.array(batch, dtype=np.int64)[:, None] + tracked).ravel()
    np.add.at(counts, sums, np.uint32(1))  # with a Python 1 it takes about 30x as long


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
        seq = ulam_sequence([a // g for a in inits], n_terms)
        return Sequence1D(tuple(sorted(inits)), tuple(g * t for t in seq.terms))

    inits = tuple(sorted(inits))
    k = len(inits)
    members = np.empty(max(1024, n_terms + k), dtype=np.int64)
    members[:k] = inits
    m = k
    top = inits[-1]  # largest member value so far

    # j = 0 until the first estimate: every member is an outlier
    j = 0
    tracked = np.empty_like(members)  # outliers and a few members of J
    tracked[:k] = inits
    nt = k
    j_members = np.empty_like(members)  # the other members of J
    nj = 0
    next_estimate = _FIRST_ESTIMATE

    size = _GROWTH * (2 * top + 1)
    counts = np.zeros(size, dtype=np.uint32)
    in_j = np.zeros(size, dtype=bool)  # value is in j_members
    for i in range(k):
        for i2 in range(i + 1, k):
            counts[inits[i] + inits[i2]] += 1

    out: list[int] = []
    pending = list(inits)  # initials not yet merged into the output
    pi = 0
    lo = 1  # next undecided value
    # bits per value of a window tally: fewer than 2**width admissions add
    # to one field, so no field carries into the next
    width = _WINDOW.bit_length()
    field = (1 << width) - 1
    # members below _WINDOW, all of them and the tracked ones
    small = _window_partners(members[:m], width)
    small_tracked = _window_partners(tracked[:nt], width)

    while len(out) < n_terms:
        if pi < k and pending[pi] == lo:
            # the pending initial comes first; it is already a member
            out.append(lo)
            pi += 1
            lo += 1
            continue
        # One block [start, hi) of values with their classes.  The next term
        # is at most the sum of the two largest members, which is below the
        # array size.
        start = lo
        hi = min(lo + _BLOCK, size, pending[pi] if pi < k else size)
        cls = _in_class(_residues(np.arange(lo, hi, dtype=np.int64), j))

        while lo < hi and m < next_estimate and len(out) < n_terms:
            end = min(lo + _WINDOW, hi)  # one window [lo, end)
            added = 0  # pairs of this window's admissions, a field per value
            batch = []  # members of J admitted in it, not yet in counts
            for x, c, in_cls in _candidates(counts, lo, end, cls[lo - start:end - start]):
                c += added >> (width * (x - lo)) & field
                if in_cls or nj == 0:
                    if c != 1:
                        continue
                elif c > 1 or c + _pull_count(x, 2 - c, in_j, j_members[:nj]) != 1:
                    continue

                out.append(x)
                if x > top:
                    top = x
                    if 2 * top >= size:
                        grow = _GROWTH * (2 * top + 1) - size
                        counts = np.concatenate((counts, np.zeros(grow, dtype=np.uint32)))
                        in_j = np.concatenate((in_j, np.zeros(grow, dtype=bool)))
                        size = counts.size
                if in_cls:
                    batch.append(x)
                    in_j[x] = True
                    j_members[nj] = x
                    nj += 1
                    partners = small_tracked
                else:
                    if batch:  # with tracked[:nt] before x joins it
                        _scatter(counts, batch, tracked[:nt])
                        batch = []
                    counts[members[:m] + x] += 1  # sums are distinct for a fixed new term
                    tracked[nt] = x
                    nt += 1
                    partners = small
                added += partners << (width * (x - lo))
                members[m] = x
                m += 1
                if x < _WINDOW:
                    small |= 1 << (width * x)
                    if not in_cls:
                        small_tracked |= 1 << (width * x)
                if m >= next_estimate or len(out) == n_terms:
                    end = x + 1
                    break
            if batch:
                _scatter(counts, batch, tracked[:nt])
            lo = end

        if m >= next_estimate and len(out) < n_terms:
            next_estimate = 2 * m
            mem = members[:m]
            estimate = _estimate(mem, j)
            cls_m = _in_class(_residues(mem, estimate))
            if np.count_nonzero(~cls_m) > _MAX_OUTLIER_SHARE * m:
                estimate = 0  # a weak signal: pull counts would cost more
                cls_m[:] = False
            if estimate == j == 0:
                continue  # the counts are complete already
            j = estimate
            del counts  # freed before its replacement is allocated
            in_class = np.sort(mem[cls_m])
            now_tracked = np.sort(np.concatenate((mem[~cls_m], in_class[:_TRACKED_J])))
            nt = now_tracked.size
            tracked[:nt] = now_tracked
            small_tracked = _window_partners(now_tracked, width)
            untracked = in_class[_TRACKED_J:]
            nj = untracked.size
            j_members[:nj] = untracked
            in_j[:] = False
            in_j[j_members[:nj]] = True
            # sums >= lo only (see "Frequency" above); both partner arrays
            # are sorted, so a tracked member's live partners are one slice
            counts = np.zeros(size, dtype=np.uint32)
            j_first = np.searchsorted(untracked, lo - now_tracked).tolist()
            t_first = np.searchsorted(now_tracked, lo - now_tracked).tolist()
            for i, t in enumerate(now_tracked.tolist()):
                counts[untracked[j_first[i]:] + t] += 1
                counts[now_tracked[max(i + 1, t_first[i]):] + t] += 1

    return Sequence1D(inits, tuple(out))


def consecutive_gaps(seq: Sequence1D) -> list[int]:
    """Differences between successive terms, gaps[i] = terms[i+1] - terms[i]."""
    if len(seq.terms) < 2:
        raise TooShort("need at least two terms to form gaps")
    return np.diff(np.asarray(seq.terms, dtype=np.int64)).tolist()


def fibonacci_bound_check(seq: Sequence1D) -> bool:
    """True iff the n-th term is at most the (n+1)-st Fibonacci number.

    Indexing is 1-based with F_1 = F_2 = 1; the bound holds for the
    sequence seeded by (1, 2).
    """
    largest = max(seq.terms, default=0)
    a, b = 1, 1  # F_1, F_2; for the n-th term, b holds F_{n+1}
    for t in seq.terms:
        if t > b:
            return False
        if b > largest:
            return True  # every later term is at most largest < F_{n+1}
        a, b = b, a + b
    return True
