"""Column periodicity analysis for planar sets.

A column x = const is the membership pattern along y at that x.  For
configurations containing (0, a) and no other vector on the y-axis, every
column is eventually periodic with period a * 2^n, so membership words are
scanned per residue class of y modulo the step and minimal periods are
compared against the power-of-two and doubling-lineage predictions.
Growth commutes with swapping the two coordinates, so the report of a row
y = const is the column report of the set grown from the swapped initials
in the swapped box.  Detection from a finite window is always
labeled empirical: the height at which periodicity sets in carries no
useful a-priori bound.

The word transform underlying the doubling mechanism maps a count word
over {0,1,2} to a membership word over {0,1}; it preserves eventual
periodicity and doubles the period exactly when one period of the input
contains an odd number of ones and no twos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UlamSet, _transform_chains
from .errors import BadAlphabet, RangeExceedsBound

DEFAULT_MAX_PERIOD = 64
DEFAULT_MIN_EVIDENCE = 3


def _check_word(word: str, alphabet: str) -> None:
    if not word:
        raise BadAlphabet("empty word")
    if any(ch not in alphabet for ch in word):
        raise BadAlphabet(f"word uses symbols outside {{{alphabet}}}")


def transform_t(word: str) -> str:
    """Apply the two-case recurrence mapping {0,1,2} words to {0,1} words.

    Output symbol i is 1 exactly when the input symbol plus the previous
    output symbol equals 1: the column sweep's chain transform at lag 1
    with no initials.
    """
    _check_word(word, "012")
    counts = np.frombuffer(word.encode("ascii"), dtype=np.uint8) - ord("0")
    out = _transform_chains(counts, np.zeros(counts.size, dtype=bool), 1)
    return (out.view(np.uint8) + ord("0")).tobytes().decode("ascii")


def classify_period_doubling(pattern: str) -> str:
    """``doubles`` iff the pattern has an odd number of ones and no twos."""
    _check_word(pattern, "012")
    if "2" not in pattern and pattern.count("1") % 2 == 1:
        return "doubles"
    return "preserves"


@dataclass(frozen=True)
class PeriodFit:
    """Eventual periodicity detected in a finite word."""

    preperiod: int
    period: int
    pattern: str
    evidence: int  # number of full periods observed in the suffix

    @property
    def empty(self) -> bool:
        return set(self.pattern) == {"0"}


def check_column_args(max_period: int, min_evidence: int, step: int = 1) -> None:
    """Refuse a step, period bound or evidence count that no detection takes."""
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if max_period < 1:
        raise ValueError(f"max_period must be at least 1, got {max_period}")
    if min_evidence < 3:
        raise ValueError(f"min_evidence must be at least 3, got {min_evidence}")


def detect_eventual_period(
    word: str,
    max_period: int = DEFAULT_MAX_PERIOD,
    min_evidence: int = DEFAULT_MIN_EVIDENCE,
) -> PeriodFit | None:
    """Smallest (preperiod, period) pair consistent with the whole word.

    For each candidate period the minimal preperiod is the position after
    the last violation; among candidates with enough evidence the fit with
    the smallest preperiod wins, ties broken by the smaller period.  The
    preperiod-first ordering matters: a long-period column can end in a
    run of zeros at the box edge, which a period-one "empty" fit would
    otherwise swallow.  A fit needs the periodic suffix to cover at least
    ``min_evidence`` full periods.  Returns None when inconclusive.
    """
    _check_word(word, "01")
    check_column_args(max_period, min_evidence)
    words = np.frombuffer(word.encode("ascii"), dtype=np.uint8)[None]
    starts, periods = _grid_periods(words, max_period, min_evidence)
    return _fit(words[0], int(starts[0]), int(periods[0]))


def _grid_periods(words: np.ndarray, max_period: int, needed_periods: int):
    """The rule of :func:`detect_eventual_period` on every row of a word array.

    ``needed_periods`` is the evidence a fit needs, in full periods.
    Returns the (preperiod, period) arrays, period 0 where a row is
    inconclusive.  Each candidate period p takes one compare of the whole
    array with itself shifted by p; a row's minimal preperiod for p is the
    position after its last break, the first break of the reversed row.
    """
    rows, n = words.shape
    best_t = np.full(rows, n + 1)
    best_p = np.zeros(rows, dtype=np.int64)
    every = np.arange(rows)
    rev = np.ascontiguousarray(words[:, ::-1])  # argmax scans contiguous rows
    for p in range(1, max_period + 1):
        needed = needed_periods * p
        if n < needed:
            break  # needed grows with p
        breaks = rev[:, p:] != rev[:, :-p]  # column j: the break at n - p - 1 - j
        first = np.argmax(breaks, axis=1)
        t = np.where(breaks[every, first], n - p - first, 0)
        better = (t <= n - needed) & (t < best_t)  # ascending p: first hit is minimal
        best_t[better] = t[better]
        best_p[better] = p
    return best_t, best_p


def _fit(word: np.ndarray, t: int, p: int) -> PeriodFit | None:
    """The fit (preperiod t, period p) of an ASCII word array; None if p is 0."""
    if not p:
        return None
    return PeriodFit(t, p, word[t:t + p].tobytes().decode("ascii"), (len(word) - t) // p)


def column_word(uset: UlamSet, index: int, lo: int, hi: int, step: int = 1) -> str:
    """Membership word of the column x = ``index``.

    Symbol j reports membership of the point (index, lo + j*step), so the
    word stays within the residue class of ``lo`` modulo the step.
    """
    if uset.dim != 2:
        raise RangeExceedsBound("column words are defined for planar sets")
    if step < 1 or lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi and step >= 1")
    far = (index, hi)
    if not uset.bound.contains(far, uset.sizefn.value(far)):
        raise RangeExceedsBound(f"column {index} up to {hi} leaves the bound")
    word = uset.grid((index, lo), (index, hi))[0, ::step].view(np.uint8) + ord("0")
    return word.tobytes().decode("ascii")


@dataclass(frozen=True)
class ColumnProfile:
    """Per-column eventual-periodicity report.

    ``period`` is measured in units of the step; ``doubling_source`` names
    the nearest earlier column whose period this one equals or, when even,
    doubles.
    """

    index: int
    residue: int
    preperiod: int
    period: int
    pattern: str
    empty: bool
    evidence: int
    doubling_source: int | None = None


@dataclass(frozen=True)
class ColumnsReport:
    step: int
    profiles: tuple[ColumnProfile, ...]
    inconclusive: tuple[tuple[int, int], ...]  # (index, residue) pairs
    violations: tuple[str, ...]

    def nonempty_indices(self) -> list[int]:
        return sorted({p.index for p in self.profiles if not p.empty})


def columns_report(
    uset: UlamSet,
    step: int = 1,
    max_period: int = DEFAULT_MAX_PERIOD,
    min_evidence: int = DEFAULT_MIN_EVIDENCE,
) -> ColumnsReport:
    """Detect eventual periods for every column of a box-bounded planar set.

    Each column is swept along y, its words built per residue class of y
    modulo the step, and the periods of all columns of one residue class
    are detected together on the member grid, by the rule of
    :func:`detect_eventual_period` with one more period of evidence, a
    guard against the box edge.  Two checks run over the conclusive
    profiles, and every failure is reported rather than dropped: the
    detected minimal period p (in units of the step) must be a power of
    two, which is the same as the odd part of p * step dividing the step,
    and each period above 1 must equal the period of some earlier column
    or, when even, double it (the empty column over index 0 anchors the
    lineage with period 1).
    """
    if uset.dim != 2 or uset.bound.kind != "box":
        raise RangeExceedsBound("column reports need a box-bounded planar set")
    check_column_args(max_period, min_evidence, step)
    hi_index, hi_sweep = uset.bound.limits

    profiles: list[ColumnProfile] = []
    inconclusive: list[tuple[int, int]] = []
    violations: list[str] = []
    last_with: dict[int, int] = {}  # period -> last column with it
    grid = uset.grid((0, 0), uset.bound.limits).view(np.uint8)
    grid += ord("0")  # one row of ASCII "0"/"1" per column
    classes = []  # per residue: the words of every column, preperiods, periods
    for residue in range(min(step, hi_sweep + 1)):
        words = np.ascontiguousarray(grid[:, residue::step])
        classes.append((words, *_grid_periods(words, max_period, min_evidence + 1)))

    for index in range(hi_index + 1):
        for residue, (words, starts, periods) in enumerate(classes):
            fit = _fit(words[index], int(starts[index]), int(periods[index]))
            if fit is None:
                inconclusive.append((index, residue))
                continue
            source = None
            if fit.period > 1:
                lineage = (fit.period, fit.period // 2) if fit.period % 2 == 0 else (fit.period,)
                # the nearest earlier column
                source = max((last_with[p] for p in lineage if p in last_with), default=None)
                if source is None:
                    violations.append(
                        f"column {index} (residue {residue}): period "
                        f"{fit.period} neither matches nor doubles an earlier one"
                    )
            if fit.period & (fit.period - 1):
                violations.append(
                    f"column {index} (residue {residue}): period {fit.period} "
                    f"(in units of {step}) is not a power of two"
                )
            profiles.append(
                ColumnProfile(
                    index=index,
                    residue=residue,
                    preperiod=fit.preperiod,
                    period=fit.period,
                    pattern=fit.pattern,
                    empty=fit.empty,
                    evidence=fit.evidence,
                    doubling_source=source,
                )
            )
            last_with[fit.period] = index

    return ColumnsReport(
        step=step,
        profiles=tuple(profiles),
        inconclusive=tuple(inconclusive),
        violations=tuple(violations),
    )
