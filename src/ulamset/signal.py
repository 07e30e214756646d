"""Cosine-sum frequency scan over integer sequences.

For a sequence (a_n) and a frequency alpha, the object of interest is
S(alpha) = sum_n cos(alpha * a_n).  A random integer sequence keeps S at
scale sqrt(N); certain greedily-built sequences instead admit a frequency
where S(alpha)/N approaches a strongly negative constant, with the cosine
negative for all but finitely many terms.

The coarse scan evaluates S exactly on the Fourier grid alpha = 2*pi*j/M via
one FFT of the sequence's indicator vector (integer frequencies make this
exact), then refines the minimizer locally by repeated grid shrinking.  By
periodicity and the alpha <-> 2*pi - alpha symmetry of integer sequences,
the interval (0, pi] covers all frequencies.

Reported values at a single alpha reduce alpha * a_n modulo 2*pi exactly,
with alpha held as a rational and 2*pi to 60 digits, so the evaluation
error does not grow with a_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # onedim imports this module for its frequency estimate
    from .onedim import Sequence1D

# 2*pi to 60 significant digits, as an exact rational
_TWO_PI = Fraction(
    "6.28318530717958647692528676655900576839433879875021164194989"
)

_COARSE_STEP = 1e-5  # default coarse grid resolution over (0, pi]
_REFINE_ROUNDS = 5   # each round shrinks the local grid step 10x
_REFINE_POINTS = 41  # grid points per refinement round


def _as_fraction(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, str):
        return Fraction(alpha)
    return Fraction(alpha)  # float: exact binary value


def _reduced_args(terms, alpha: Fraction) -> np.ndarray:
    """alpha * a_n reduced into [0, 2*pi), exactly, then rounded to float."""
    num, den = alpha.numerator, alpha.denominator
    pn, pd = _TWO_PI.numerator, _TWO_PI.denominator
    qn = den * pn
    scale = den * pd
    out = np.empty(len(terms), dtype=np.float64)
    for i, a in enumerate(terms):
        xn = num * a * pd
        k = xn // qn
        out[i] = (xn - k * qn) / scale  # int/int division rounds correctly
    return out


def cosine_sum(seq: Sequence1D, alpha) -> float:
    """Sum of cos(alpha * a_n) over the sequence, exact argument reduction."""
    if not seq.terms:
        return 0.0
    a = _as_fraction(alpha)
    if a == 0:
        return float(len(seq.terms))
    return float(np.cos(_reduced_args(seq.terms, a)).sum())


def sign_exception_set(seq: Sequence1D, alpha) -> list[int]:
    """All terms a_n with cos(alpha * a_n) >= 0."""
    a = _as_fraction(alpha)
    if a == 0:
        return list(seq.terms)
    args = _reduced_args(seq.terms, a)
    keep = np.cos(args) >= 0.0
    return [int(t) for t, k in zip(seq.terms, keep) if k]


@dataclass(frozen=True)
class SignalScan:
    """Result of a frequency scan: coarse grid plus refined minimizer."""

    alpha_lo: float
    alpha_hi: float
    alpha_step: float
    sums: np.ndarray  # normalized S(alpha)/N on the coarse grid
    best_alpha: float
    best_value: float  # normalized S(best_alpha)/N

    def coarse_alpha(self, j: int) -> float:
        return self.alpha_lo + j * self.alpha_step

    def __repr__(self) -> str:
        return (
            f"SignalScan(best_alpha={self.best_alpha:.9f}, "
            f"best_value={self.best_value:.4f}, grid={len(self.sums)})"
        )


def fourier_sums(terms: np.ndarray, grid_step: float) -> tuple[int, np.ndarray]:
    """S(2*pi*k/m) for k = 0..m/2, exactly, by one FFT of the indicator vector.

    ``m`` is the smallest power of two whose step 2*pi/m is at most
    ``grid_step`` and which exceeds every term (so no two terms alias).
    Returns ``(m, sums)``.
    """
    m = 1
    top = int(terms.max())
    while 2 * math.pi / m > grid_step or m <= top:
        m *= 2
    indicator = np.zeros(m, dtype=np.float64)
    indicator[terms] = 1.0
    return m, np.fft.rfft(indicator).real


def _direct_sums(terms: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """S(alpha) for a batch of alphas (vectorized float64 evaluation).

    Error bound: float64 rounds alpha*a with error at most half an ulp of
    alpha*a_max, and cos is 1-Lipschitz, so each term of the sum is off by
    at most ulp(alpha*a_max)/2, plus cos's own sub-ulp rounding.  For (1,2)
    at 5e4 terms alpha*a_max is about 1.7e6 < 2**21, whose ulp is 2**-32,
    so each term is off by at most about 1.2e-10, and so is S/N.
    """
    out = np.empty(alphas.size, dtype=np.float64)
    block = max(1, 20_000_000 // max(terms.size, 1))
    for i in range(0, alphas.size, block):
        chunk = alphas[i:i + block]
        out[i:i + chunk.size] = np.cos(np.outer(chunk, terms)).sum(axis=1)
    return out


def alpha_scan(seq: Sequence1D, grid_step: float = _COARSE_STEP) -> SignalScan:
    """Locate the minimizer of S(alpha)/N over (0, pi].

    Coarse stage: exact evaluation on the Fourier grid 2*pi*j/M (FFT of the
    term indicator vector) with M chosen so the step is at most
    ``grid_step``.  Refinement: five rounds of 10x local grid shrinking
    around the running minimizer, so the final step is below 1e-9.  The
    refined value never exceeds the coarse minimum.
    """
    if grid_step > 1e-4:
        raise ValueError("grid step must be at most 1e-4")
    terms = np.asarray(seq.terms, dtype=np.int64)
    n = terms.size
    m, spectrum = fourier_sums(terms, grid_step)
    step = 2 * math.pi / m
    sums = spectrum[1:] / n  # drop alpha=0; grid covers (0, pi]
    j_best = int(np.argmin(sums))
    alpha_best = (j_best + 1) * step
    value_best = float(sums[j_best])

    local_step = step
    for _ in range(_REFINE_ROUNDS):
        local_step /= 10.0
        span = np.arange(-(_REFINE_POINTS // 2), _REFINE_POINTS // 2 + 1)
        alphas = alpha_best + span * local_step
        alphas = alphas[(alphas > 0) & (alphas <= math.pi + step)]
        vals = _direct_sums(terms, alphas) / n
        j = int(np.argmin(vals))
        if vals[j] <= value_best:
            alpha_best = float(alphas[j])
            value_best = float(vals[j])

    return SignalScan(
        alpha_lo=step,
        alpha_hi=len(sums) * step,
        alpha_step=step,
        sums=sums,
        best_alpha=alpha_best,
        best_value=value_best,
    )
