"""Column periodicity analysis for planar sets.

A column is the membership pattern along one axis with the other
coordinate fixed.  For configurations containing (0, a) and no other
vector on the swept axis, every column is eventually periodic with period
a * 2^n, so membership words are scanned per residue class modulo the step
and minimal periods are compared against the power-of-two and
doubling-lineage predictions.  Detection from a finite window is always
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

from .core import UlamSet
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
    output symbol equals 1.
    """
    _check_word(word, "012")
    out = []
    prev = 0
    for ch in word:
        prev = 1 if int(ch) + prev == 1 else 0
        out.append("1" if prev else "0")
    return "".join(out)


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


def detect_eventual_period(
    word: str,
    max_period: int = DEFAULT_MAX_PERIOD,
    min_evidence: int = DEFAULT_MIN_EVIDENCE,
    edge_guard: bool = False,
) -> PeriodFit | None:
    """Smallest (preperiod, period) pair consistent with the whole word.

    For each candidate period the minimal preperiod is the position after
    the last violation; among candidates with enough evidence the fit with
    the smallest preperiod wins, ties broken by the smaller period.  The
    preperiod-first ordering matters: a long-period column can end in a
    run of zeros at the box edge, which a period-one "empty" fit would
    otherwise swallow.  A fit needs the periodic suffix to cover at least
    ``min_evidence`` full periods, plus one more when ``edge_guard`` is
    set.  Returns None when inconclusive.
    """
    _check_word(word, "01")
    if min_evidence < 3:
        raise ValueError("min_evidence must be at least 3")
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    words = np.frombuffer(word.encode("ascii"), dtype=np.uint8)[None]
    starts, periods = _grid_periods(words, max_period, min_evidence + edge_guard)
    return _fit(words[0], int(starts[0]), int(periods[0]))


def _grid_periods(words: np.ndarray, max_period: int, needed_periods: int):
    """The rule of :func:`detect_eventual_period` on every row of a word array.

    ``needed_periods`` is the evidence a fit needs, in full periods.
    Returns the (preperiod, period) arrays, period 0 where a row is
    inconclusive.  Each candidate period p takes one compare of the whole
    array with itself shifted by p; a row's minimal preperiod for p is the
    position after its last break.
    """
    rows, n = words.shape
    best_t = np.full(rows, n + 1)
    best_p = np.zeros(rows, dtype=np.int64)
    every = np.arange(rows)
    for p in range(1, max_period + 1):
        needed = needed_periods * p
        if n < needed:
            break  # needed grows with p
        breaks = words[:, :-p] != words[:, p:]
        last = n - p - 1 - np.argmax(breaks[:, ::-1], axis=1)
        t = np.where(breaks[every, last], last + 1, 0)
        better = (t <= n - needed) & (t < best_t)  # ascending p: first hit is minimal
        best_t[better] = t[better]
        best_p[better] = p
    return best_t, best_p


def _fit(word: np.ndarray, t: int, p: int) -> PeriodFit | None:
    """The fit (preperiod t, period p) of an ASCII word array; None if p is 0."""
    if not p:
        return None
    return PeriodFit(t, p, word[t:t + p].tobytes().decode("ascii"), (len(word) - t) // p)


def column_word(
    uset: UlamSet,
    axis: int,
    index: int,
    lo: int,
    hi: int,
    step: int = 1,
) -> str:
    """Membership word of one column.

    ``axis`` is the swept coordinate (0 or 1); ``index`` fixes the other
    coordinate.  Symbol j reports membership of the point whose swept
    coordinate is lo + j*step, so the word stays within the residue class
    of ``lo`` modulo the step.
    """
    if uset.dim != 2:
        raise RangeExceedsBound("column words are defined for planar sets")
    if step < 1 or lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi and step >= 1")
    other = 1 - axis
    far = [0, 0]
    far[axis], far[other] = hi, index
    bound = uset.bound
    if not bound.contains(tuple(far), uset.sizefn.value(tuple(far))):
        raise RangeExceedsBound(
            f"column (axis={axis}, index={index}) up to {hi} leaves the bound"
        )
    if index < 0:  # no member has a negative coordinate
        return "0" * len(range(lo, hi + 1, step))
    shape = [0, 0]
    shape[axis], shape[other] = hi + 1, index + 1
    return _grid_word(_member_grid(uset, shape), axis, index, lo, hi, step)


def _member_grid(uset: UlamSet, shape) -> np.ndarray:
    """uint8 grid over [0, shape): ASCII "1" at the members, "0" elsewhere."""
    grid = np.full(shape, ord("0"), dtype=np.uint8)
    pts = uset.coords
    pts = pts[(pts < np.array(shape)).all(axis=1)]
    grid[pts[:, 0], pts[:, 1]] = ord("1")
    return grid


def _grid_word(grid: np.ndarray, axis: int, index: int, lo: int, hi: int, step: int) -> str:
    """Symbols lo, lo + step, ... <= hi of one column of a member grid."""
    line = grid[:, index] if axis == 0 else grid[index]
    return line[lo:hi + 1:step].tobytes().decode("ascii")


@dataclass(frozen=True)
class ColumnProfile:
    """Per-column eventual-periodicity report.

    ``period`` is measured in units of the step; ``doubling_source`` names
    the nearest earlier column whose period this one equals or doubles.
    """

    axis: int
    index: int
    residue: int
    step: int
    preperiod: int
    period: int
    pattern: str
    empty: bool
    evidence: int
    doubling_source: int | None = None


@dataclass(frozen=True)
class ColumnsReport:
    axis: int
    step: int
    profiles: tuple[ColumnProfile, ...]
    inconclusive: tuple[tuple[int, int], ...]  # (index, residue) pairs
    violations: tuple[str, ...]

    def nonempty_indices(self) -> list[int]:
        return sorted({p.index for p in self.profiles if not p.empty})

    def periods(self) -> dict[int, int]:
        """Largest conclusive per-residue period for each column index."""
        out: dict[int, int] = {}
        for p in self.profiles:
            out[p.index] = max(out.get(p.index, 0), p.period)
        return out


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def columns_report(
    uset: UlamSet,
    axis: int = 1,
    step: int = 1,
    max_period: int = DEFAULT_MAX_PERIOD,
    min_evidence: int = DEFAULT_MIN_EVIDENCE,
) -> ColumnsReport:
    """Detect eventual periods for every column of a box-bounded planar set.

    Column words are built per residue class modulo the step, and the
    periods of all columns of one residue class are detected together on
    the member grid, by the rule of :func:`detect_eventual_period` with its
    edge guard.  Two checks run over the conclusive profiles, and every
    failure is reported rather than dropped: the odd part of the detected minimal period (in swept
    units) must divide the step, and each period must equal or double the
    period of some earlier column (the empty column over index 0 anchors
    the lineage with period 1).
    """
    if uset.dim != 2 or uset.bound.kind != "box":
        raise RangeExceedsBound("column reports need a box-bounded planar set")
    if step < 1:
        raise ValueError("need step >= 1")
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    if min_evidence < 3:
        raise ValueError("min_evidence must be at least 3")
    other = 1 - axis
    hi_sweep = uset.bound.limits[axis]
    hi_index = uset.bound.limits[other]

    profiles: list[ColumnProfile] = []
    inconclusive: list[tuple[int, int]] = []
    violations: list[str] = []
    seen_periods: list[tuple[int, int]] = []  # (index, period) lineage
    grid = _member_grid(uset, [l + 1 for l in uset.bound.limits])
    if axis == 0:
        grid = grid.T  # one row per column index
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
                candidates = [
                    i for i, p in seen_periods if p in (fit.period, fit.period // 2)
                ]
                if candidates:
                    source = max(candidates)  # nearest earlier column
                else:
                    violations.append(
                        f"column {index} (residue {residue}): period "
                        f"{fit.period} neither matches nor doubles an earlier one"
                    )
            actual = fit.period * step
            if _odd_part(actual) > step or step % _odd_part(actual) != 0:
                violations.append(
                    f"column {index} (residue {residue}): period {fit.period} "
                    f"(in units of {step}) is not a power of two"
                )
            profiles.append(
                ColumnProfile(
                    axis=axis,
                    index=index,
                    residue=residue,
                    step=step,
                    preperiod=fit.preperiod,
                    period=fit.period,
                    pattern=fit.pattern,
                    empty=fit.empty,
                    evidence=fit.evidence,
                    doubling_source=source,
                )
            )
            seen_periods.append((index, fit.period))

    return ColumnsReport(
        axis=axis,
        step=step,
        profiles=tuple(profiles),
        inconclusive=tuple(inconclusive),
        violations=tuple(violations),
    )
