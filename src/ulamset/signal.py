"""Cosine-sum frequency scan over integer sequences.

For a sequence (a_n) and a frequency alpha, the object of interest is
S(alpha) = sum_n cos(alpha * a_n).  A random integer sequence keeps S at
scale sqrt(N); certain greedily-built sequences instead admit a frequency
where S(alpha)/N approaches a strongly negative constant, with the cosine
negative for all but finitely many terms.

The coarse scan evaluates S exactly on the Fourier grid alpha = 2*pi*j/M via
one FFT of the sequence's indicator vector (integer frequencies make this
exact; the transform pads the indicator, which stops at a_max, with zeros
to M), then refines the minimizer locally by repeated grid shrinking.  Each
refinement grid c + k*d, |k| <= 20, is evaluated by angle addition: the
phases exp(i*c*a) and exp(i*d*a) are computed once, and the other points
take one complex multiply per term each.  Each term is off by about half an
ulp of c*a_max, as a direct float64 cosine would be: about 1.2e-10 for
(1,2) at 5e4 terms.  By periodicity and the alpha <-> 2*pi - alpha symmetry
of integer sequences, the interval (0, pi] covers all frequencies.

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

from .core import _check_bytes
from .errors import TooShort

if TYPE_CHECKING:  # onedim imports this module for its frequency estimate
    from .onedim import Sequence1D

# 2*pi to 60 significant digits, as an exact rational
_TWO_PI = Fraction(
    "6.28318530717958647692528676655900576839433879875021164194989"
)

_COARSE_STEP = 1e-5  # default coarse grid resolution over (0, pi]
_MAX_GRID_STEP = 1e-4  # the coarsest grid a scan accepts
_REFINE_ROUNDS = 5   # each round shrinks the local grid step 10x
_REFINE_POINTS = 41  # grid points per refinement round


def _reduced_args(terms, alpha: Fraction) -> np.ndarray:
    """alpha * a_n reduced into [0, 2*pi), exactly, then rounded to float.

    The terms become Python ints one at a time, so an int64 array is never
    held as a list of them."""
    num, den = alpha.numerator, alpha.denominator
    pn, pd = _TWO_PI.numerator, _TWO_PI.denominator
    qn = den * pn
    scale = den * pd
    c = num * pd
    # int/int division rounds correctly
    return np.fromiter(((c * a) % qn / scale for a in map(int, terms)), np.float64, len(terms))


def cosine_sum(seq: Sequence1D, alpha) -> float:
    """Sum of cos(alpha * a_n) over the sequence, exact argument reduction."""
    return float(np.cos(_reduced_args(seq.array, Fraction(alpha))).sum())


def sign_exception_set(seq: Sequence1D, alpha) -> list[int]:
    """All terms a_n with cos(alpha * a_n) >= 0."""
    keep = np.cos(_reduced_args(seq.array, Fraction(alpha))) >= 0.0
    return seq.array[keep].tolist()


@dataclass(frozen=True, eq=False)
class SignalScan:
    """Result of a frequency scan: coarse grid (read-only ``sums``) plus
    refined minimizer.  Equal scans have equal fields and sums bytes."""

    alpha_step: float  # the coarse grid is alpha_step * (1, 2, ...)
    sums: np.ndarray  # normalized S(alpha)/N on the coarse grid
    best_alpha: float
    best_value: float  # normalized S(best_alpha)/N

    def coarse_alpha(self, j: int) -> float:
        return self.alpha_step + j * self.alpha_step

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignalScan):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def _key(self) -> tuple:
        return (self.alpha_step, self.sums.tobytes(), self.best_alpha, self.best_value)

    def __repr__(self) -> str:
        return (
            f"SignalScan(best_alpha={self.best_alpha:.9f}, "
            f"best_value={self.best_value:.4f}, grid={len(self.sums)})"
        )


def _grid_sums(
    terms: np.ndarray, centre: float, step: float, k_lo: int, k_hi: int
) -> np.ndarray:
    """S(centre + k*step) for k = k_lo..k_hi, with k_lo <= 0 <= k_hi.

    Angle addition: z = exp(i*centre*a) and w = exp(i*step*a) are computed
    once, then z*w**k and z*conj(w)**k are walked outward from the centre,
    one complex multiply per k, summing real parts.

    Error bound, per term: float64 rounds centre*a with error at most half
    an ulp of centre*a_max, and cos and sin are 1-Lipschitz, so z is off by
    about ulp(centre*a_max)/2, as a direct cos(alpha*a) would be.  The same
    holds for w with step*a, which ``alpha_scan`` keeps below pi/5 (its FFT
    length exceeds a_max, and its steps are at most a tenth of the FFT
    step), so w**k adds at most |k|*ulp(1)/2 to the phase; each complex
    multiply adds a relative error of a few ulp of 1.  For (1,2) at 5e4
    terms centre*a_max is about 1.7e6 < 2**21, whose ulp is 2**-32, so with
    |k| <= 20 each term is off by at most about 1.2e-10, and so is S/N.

    The sums are taken at centre + k*step as a real number; its float
    rounding, which ``alpha_scan`` reports, is within ulp(alpha)/2 of it and
    moves each term by at most another ulp(alpha)*a_max/2, about 1.5e-10
    in the example above.
    """
    x = terms.astype(np.float64)
    z = np.empty(x.size, dtype=np.complex128)
    w = np.empty_like(z)
    phase = centre * x
    np.cos(phase, out=z.real)
    np.sin(phase, out=z.imag)
    np.multiply(step, x, out=phase)
    np.cos(phase, out=w.real)
    np.sin(phase, out=w.imag)
    out = np.empty(k_hi - k_lo + 1, dtype=np.float64)
    out[-k_lo] = z.real.sum()
    up = z.copy()
    for k in range(1, k_hi + 1):
        up *= w
        out[k - k_lo] = up.real.sum()
    np.conjugate(w, out=w)
    for k in range(1, 1 - k_lo):
        z *= w
        out[-k - k_lo] = z.real.sum()
    return out


def check_grid_step(grid_step: float) -> None:
    """Refuse a coarse grid step outside (0, ``_MAX_GRID_STEP``]; a scan
    checks it first."""
    if not 0 < grid_step <= _MAX_GRID_STEP:
        raise ValueError(f"grid step must be in (0, {_MAX_GRID_STEP:g}], got {grid_step}")


def _fft_length(top: int, grid_step: float) -> int:
    """M: the smallest power of two above ``top``, so no two terms alias,
    whose step 2*pi/M is at most ``grid_step``."""
    m = 1 << top.bit_length()
    while 2 * math.pi / m > grid_step:
        m *= 2
    return m


def _scan_bytes(top: int, grid_step: float) -> int:
    """Bytes a scan holds at once: its float64 indicator of 0..top, complex
    spectrum of M/2 + 1 values, M/2 float64 sums, and 16 B per value of M
    for the transform's scratch copy and cached plan, which pocketfft
    allocates outside numpy."""
    m = _fft_length(top, grid_step)
    return 8 * (top + 1) + 16 * (m // 2 + 1) + 8 * (m // 2) + 16 * m


def alpha_scan(seq: Sequence1D, grid_step: float = _COARSE_STEP) -> SignalScan:
    """Locate the minimizer of S(alpha)/N over (0, pi].

    Coarse stage: exact evaluation on the Fourier grid 2*pi*j/M (FFT of the
    term indicator vector, padded to M by the transform) with M chosen so
    the step is at most ``grid_step``.  Refinement: five rounds of 10x local
    grid shrinking around the running minimizer, so the final step is below
    1e-9, each round evaluated by ``_grid_sums``.  The refined value never
    exceeds the coarse minimum.  An empty sequence raises
    :class:`TooShort`; a scan whose ``_scan_bytes`` exceed the budget
    raises :class:`GridTooLarge` before it allocates.
    """
    check_grid_step(grid_step)
    terms = seq.array
    n = terms.size
    if n == 0:
        raise TooShort("need at least one term to scan")
    top = int(terms.max())
    _check_bytes(_scan_bytes(top, grid_step),
                 f"a scan of {n} terms up to {top} at step {grid_step:g}")
    m = _fft_length(top, grid_step)
    step = 2 * math.pi / m
    spectrum = np.zeros(top + 1, dtype=np.float64)
    spectrum[terms] = 1.0  # the indicator vector, up to top
    # S(2*pi*k/M) for k = 0..M/2; rebinding frees the indicator before the
    # sums are allocated
    spectrum = np.fft.rfft(spectrum, m).real
    sums = spectrum[1:] / n  # drop alpha=0; grid covers (0, pi]
    j_best = int(np.argmin(sums))
    alpha_best = (j_best + 1) * step
    value_best = float(sums[j_best])

    local_step = step
    span = np.arange(-(_REFINE_POINTS // 2), _REFINE_POINTS // 2 + 1)
    for _ in range(_REFINE_ROUNDS):
        local_step /= 10.0
        alphas = alpha_best + span * local_step
        keep = np.flatnonzero((alphas > 0) & (alphas <= math.pi + step))
        vals = _grid_sums(
            terms, alpha_best, local_step, int(span[keep[0]]), int(span[keep[-1]])
        ) / n
        j = int(np.argmin(vals))
        if vals[j] <= value_best:
            alpha_best = float(alphas[keep[j]])
            value_best = float(vals[j])

    # only now: numpy's argmin copies a read-only array
    sums.flags.writeable = False
    return SignalScan(
        alpha_step=step,
        sums=sums,
        best_alpha=alpha_best,
        best_value=value_best,
    )
