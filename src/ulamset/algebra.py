"""Exact rational structure analysis for initial configurations.

The integer solutions a of a_1 v_1 + ... + a_k v_k = 0 form a lattice (the
characteristic lattice) that determines the generated set up to structural
equivalence: two configurations with the same solution lattice realize the
same coefficient tuples.  Everything here is exact: kernels are computed
over the rationals, canonicalized in Hermite normal form, and compared as
integer matrices.

Irrational coordinates are modeled as opaque symbols with declared
Q-linear independence; a coordinate is a rational linear combination over
the basis {1, s_1, ..., s_r}.  Numeric symbol values are used only for sign
decisions (nonnegativity, direction searches), never for kernel membership.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import InitialConfig, validate_config
from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    IndependenceViolated,
    MismatchedArity,
    NonPositiveDirection,
    ZeroVector,
)

_SIGN_TOL = 1e-9  # numeric tolerance for symbol-valued sign checks


# ---------------------------------------------------------------------------
# Symbolic vectors


@dataclass(frozen=True)
class SymbolicVector:
    """Vector whose coordinates are rational combinations of {1, s_1..s_r}.

    ``entries[i]`` is the coefficient tuple of coordinate i: the rational
    part first, then one coefficient per declared symbol.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    symbols: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.entries for c in row)

    def coordinate_value(self, i: int, symbol_values) -> float:
        row = self.entries[i]
        return float(row[0]) + sum(
            float(c) * symbol_values[s] for c, s in zip(row[1:], self.symbols)
        )

    def component_sum_value(self, symbol_values) -> float:
        return sum(self.coordinate_value(i, symbol_values) for i in range(self.dim))


def sym_vector(coords, symbols: tuple[str, ...] = ()) -> SymbolicVector:
    """Build a SymbolicVector.

    Each coordinate is either a rational number or a tuple of coefficients
    over (1, s_1, ..., s_r).  Plain numbers get zero symbol coefficients.
    """
    entries = []
    width = 1 + len(symbols)
    for c in coords:
        if isinstance(c, (int, Fraction)):
            row = (Fraction(c),) + (Fraction(0),) * len(symbols)
        else:
            row = tuple(Fraction(x) for x in c)
            if len(row) != width:
                raise DimensionMismatch(
                    f"coordinate {c} has {len(row)} coefficients, expected {width}"
                )
        entries.append(row)
    return SymbolicVector(tuple(entries), tuple(symbols))


def _coerce_vectors(config) -> list[SymbolicVector]:
    """Accept an InitialConfig, integer tuples, or SymbolicVectors."""
    if isinstance(config, InitialConfig):
        vecs = [sym_vector(p) for p in config.initials]
    else:
        vecs = []
        for v in config:
            if isinstance(v, SymbolicVector):
                vecs.append(v)
            elif isinstance(v, (int, Fraction)):
                vecs.append(sym_vector((v,)))
            else:
                vecs.append(sym_vector(tuple(v)))
    if not vecs:
        raise MismatchedArity("empty configuration")
    symbols = ()
    for v in vecs:
        if v.symbols:
            if symbols and v.symbols != symbols:
                raise DimensionMismatch("vectors declare different symbol tables")
            symbols = v.symbols
    dim = vecs[0].dim
    if dim == 0:
        raise DimensionMismatch("vectors have no coordinates")
    out = []
    for v in vecs:
        if v.dim != dim:
            raise DimensionMismatch("vectors have mixed dimensions")
        if v.symbols == symbols:
            out.append(v)
        else:  # pad a symbol-free vector to the shared table
            rows = tuple(
                row + (Fraction(0),) * (len(symbols) - len(row) + 1)
                for row in v.entries
            )
            out.append(SymbolicVector(rows, symbols))
    return out


# ---------------------------------------------------------------------------
# Hermite normal form and integer kernels


def row_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of an integer matrix.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero
    rows are dropped.  Two row sets span the same integer lattice iff their
    forms are identical.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return ()
    m, k = len(mat), len(mat[0])
    r = 0
    for c in range(k):
        # clear column c below row r with unimodular operations
        while True:
            nz = [i for i in range(r, m) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, m):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        done = False
            if done:
                break
        if r < m and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-a for a in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
            if r == m:
                break
    return tuple(tuple(row) for row in mat[:r] if any(row))


def integer_kernel(rows) -> tuple[tuple[int, ...], ...]:
    """HNF basis of {x in Z^k : M x = 0} for an integer matrix M (rows).

    Row-reduce [M^T | I_k]: the rows whose M^T part vanishes span the
    kernel, and in the HNF of the whole matrix they already form its HNF.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return ()
    m, k = len(rows), len(rows[0])
    aug = [[r[i] for r in rows] + [int(i == t) for t in range(k)] for i in range(k)]
    return tuple(row[m:] for row in row_hnf(aug) if not any(row[:m]))


@dataclass(frozen=True)
class CharacteristicLattice:
    """Canonical basis of the integer solutions of the defining equation."""

    k: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return not self.basis


def characteristic_lattice(config) -> CharacteristicLattice:
    """Integer kernel {a : sum a_i v_i = 0} of a configuration, in HNF.

    The defining equation is homogeneous, so rational and integer kernels
    determine each other; the computation stays exact throughout.
    """
    vecs = _coerce_vectors(config)
    k = len(vecs)
    width = 1 + len(vecs[0].symbols)
    dim = vecs[0].dim
    # one constraint row per (coordinate, basis element of {1, symbols});
    # an all-zero row leaves the kernel unchanged
    rows = []
    for i in range(dim):
        for t in range(width):
            frs = [v.entries[i][t] for v in vecs]
            lcm = math.lcm(*(f.denominator for f in frs))
            rows.append([int(f * lcm) for f in frs])
    return CharacteristicLattice(k, integer_kernel(rows))


def structurally_equivalent(a, b) -> bool:
    """True iff the two configurations have identical characteristic lattices."""
    la = characteristic_lattice(a)
    lb = characteristic_lattice(b)
    if la.k != lb.k:
        raise MismatchedArity(f"configurations have arity {la.k} and {lb.k}")
    return la.basis == lb.basis


def is_generic(config) -> bool:
    """True iff the defining equation has no nonzero integer solution.

    Generic configurations all behave like the k unit vectors.
    """
    return characteristic_lattice(config).is_trivial()


# ---------------------------------------------------------------------------
# One-dimensional embedding via prime logarithms


@functools.lru_cache(maxsize=None)
def _first_primes(n: int) -> tuple[int, ...]:
    primes: list[int] = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return tuple(primes)


def _prime_product(exponents):
    """prod p_i^e_i over the first primes: the exact order of the embedding."""
    return math.prod(p ** e for p, e in zip(_first_primes(len(exponents)), exponents))


@dataclass(frozen=True)
class PrimeLogReal:
    """The formal real log(2^e1 * 3^e2 * ... * p_d^ed).

    Ordering is decided exactly by comparing the integer products; equality
    holds iff the exponent vectors agree (unique factorization).
    """

    exponents: tuple[int, ...]

    def __lt__(self, other) -> bool:
        return _prime_product(self.exponents) < _prime_product(other.exponents)

    def __le__(self, other) -> bool:
        return _prime_product(self.exponents) <= _prime_product(other.exponents)

    def __add__(self, other) -> "PrimeLogReal":
        return PrimeLogReal(
            tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def value(self) -> float:
        primes = _first_primes(len(self.exponents))
        return sum(e * math.log(p) for p, e in zip(primes, self.exponents))

    def __repr__(self) -> str:
        primes = _first_primes(len(self.exponents))
        parts = [f"{p}^{e}" for p, e in zip(primes, self.exponents) if e]
        return "log(" + ("*".join(parts) or "1") + ")"


def embed_one_dimensional(config) -> list[PrimeLogReal]:
    """Map integer vectors to formal reals log(prod p_i^{x_i}).

    The map is additive, strictly monotone in every coordinate, and
    injective on lattice points, so the one-dimensional greedy process on
    the images replays the lattice process exactly.
    """
    if isinstance(config, InitialConfig):
        pts = config.initials
    else:
        pts = [tuple(int(c) for c in v) for v in config]
    return [PrimeLogReal(tuple(p)) for p in pts]


class PrimeProductSize:
    """Size function ordering lattice points by prod p_i^{x_i}.

    This is the exact comparison behind the one-dimensional embedding; it
    is admissible (the product at least doubles under addition of a nonzero
    point) and induces the same order as the formal real images.
    """

    kind = "prime-product"

    def __init__(self, dim: int):
        self.dim = dim

    def value(self, p):
        return _prime_product(p)

    def check_dim(self, dim: int) -> None:
        if dim != self.dim:
            raise DimensionMismatch(f"size function built for dimension {self.dim}")


# ---------------------------------------------------------------------------
# Integer-lattice embedding


def _rref(mat: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (matrix, pivot columns)."""
    mat = [row[:] for row in mat]
    m = len(mat)
    k = len(mat[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat, pivots


def _span_coordinates(flat):
    """Greedy input-order spanning subset Q of the vectors, and the rational
    coordinates of every vector over Q.

    One RREF of the matrix whose columns are the vectors: its pivot columns
    are the vectors outside the span of the earlier ones, and the first
    len(Q) entries of column i are the coordinates of vector i.
    """
    red, q_idx = _rref([list(col) for col in zip(*flat)])
    return q_idx, [[red[j][i] for j in range(len(q_idx))] for i in range(len(flat))]


def embed_integer_lattice(config, symbol_values=None) -> InitialConfig:
    """Replace a nonnegative real configuration by an integer one with the
    same characteristic lattice.

    Constructive: pick a minimal spanning subset Q greedily in input order,
    express every vector by its rational coordinates over Q, then push the
    coordinate vectors into the open positive orthant with the shift
    x -> x + M (x . u') * (1,...,1), where u' is a rational vector close to
    the component-sum direction of Q chosen so all dot products are
    positive, and M clears the most negative coordinate.  Denominators are
    scaled away at the end and the kernel equality is verified exactly.
    """
    vecs = _coerce_vectors(config)
    symbol_values = dict(symbol_values or {})
    symbols = vecs[0].symbols
    for s in symbols:
        if s not in symbol_values:
            raise ValueError(
                f"symbol {s!r} needs a numeric value for sign decisions"
            )
    for v in vecs:
        if v.is_zero():
            raise ZeroVector("zero vector in configuration")
        for i in range(v.dim):
            val = v.coordinate_value(i, symbol_values)
            if val < -_SIGN_TOL:
                raise NonPositiveDirection(
                    f"coordinate {i} of {v.entries} evaluates to {val} < 0"
                )
        if abs(v.component_sum_value(symbol_values)) < _SIGN_TOL:
            # symbolically nonzero but numerically zero: the declared
            # independence is contradicted by the supplied values
            raise IndependenceViolated(
                f"vector {v.entries} is nonzero symbolically but its "
                "coordinates evaluate to zero"
            )

    q_idx, u = _span_coordinates([[c for row in v.entries for c in row] for v in vecs])
    l = len(q_idx)  # u[i] in Q^l, with u[q_idx[j]] = e_j

    # component-sum direction of Q, approximated by a rational vector with
    # power-of-two denominators until all dot products are exactly positive
    b_num = [vecs[qi].component_sum_value(symbol_values) for qi in q_idx]
    uperp = None
    for t in range(0, 80):
        cand = [Fraction(round(b * (1 << t)), 1 << t) for b in b_num]
        dots = [sum(ci * wi for ci, wi in zip(ui, cand)) for ui in u]
        if all(d > 0 for d in dots):
            uperp = cand
            break
    if uperp is None:
        raise NonPositiveDirection("no rational positive direction found")

    m_min = min(dots)
    omega = min(c for ui in u for c in ui)
    m_shift = 1 if omega + m_min > 0 else int(-omega / m_min) + 1
    # the shift matrix I + M * ones * u'^T is singular only when its single
    # nontrivial eigenvalue 1 + M * sum(u') vanishes
    while 1 + m_shift * sum(uperp) == 0:
        m_shift += 1

    ys = [[ci + m_shift * d for ci in ui] for ui, d in zip(u, dots)]
    assert all(c > 0 for y in ys for c in y)

    denom = math.lcm(*(c.denominator for y in ys for c in y))
    w = [tuple(int(c * denom) for c in y) for y in ys]
    out = validate_config(w, l)

    got = characteristic_lattice(out)
    want = characteristic_lattice(vecs)
    assert got.basis == want.basis, "kernel not preserved (internal error)"
    return out


# ---------------------------------------------------------------------------
# Two-dimensional axis normalization


@dataclass(frozen=True)
class AxisNormalization:
    """An axis-touching integer configuration plus the exact linear map.

    ``matrix`` (row-major, Fractions) maps original points to transformed
    points; members of the original set map bijectively onto members of the
    transformed set.
    """

    config: InitialConfig
    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def apply(self, p) -> tuple[int, int]:
        (a, b), (c, d) = self.matrix
        x = a * p[0] + b * p[1]
        y = c * p[0] + d * p[1]
        if x.denominator != 1 or y.denominator != 1:
            raise ValueError(f"image of {p} is not integral")
        return (int(x), int(y))

    def apply_inverse(self, q) -> tuple[Fraction, Fraction]:
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        return (
            (d * q[0] - b * q[1]) / det,
            (a * q[1] - c * q[0]) / det,
        )


def normalize_axes_2d(config: InitialConfig) -> AxisNormalization:
    """Shear a planar integer configuration so it touches both axes.

    Two rational shears, (x, y) -> (x, y - c1 x) with c1 the minimal slope
    and then (x, y) -> (x - c2 y, y) with c2 the minimal inverse ratio,
    keep all vectors in the closed positive quadrant, land one vector on
    each axis, and preserve the characteristic lattice; scaling by the
    common denominator returns the result to integer coordinates.
    """
    pts = config.initials
    if config.dim != 2:
        raise DimensionMismatch("axis normalization is two-dimensional")
    if config.k < 2 or all(
        pts[0][0] * p[1] - pts[0][1] * p[0] == 0 for p in pts[1:]
    ):
        raise DegenerateSpan("configuration does not span the plane")

    with_x = [p for p in pts if p[0] > 0]
    c1 = min(Fraction(p[1], p[0]) for p in with_x) if with_x else Fraction(0)
    sheared = [(Fraction(x), Fraction(y) - c1 * x) for x, y in pts]
    with_y = [p for p in sheared if p[1] > 0]
    c2 = min(p[0] / p[1] for p in with_y) if with_y else Fraction(0)
    final = [(x - c2 * y, y) for x, y in sheared]

    denom = math.lcm(*(c.denominator for p in final for c in p))
    ints = [(int(x * denom), int(y * denom)) for x, y in final]
    out = validate_config(ints, 2)

    # composed map: denom * shear2 @ shear1
    matrix = (
        (denom * (1 + c1 * c2), Fraction(-denom) * c2),
        (Fraction(-denom) * c1, Fraction(denom)),
    )

    assert characteristic_lattice(out).basis == characteristic_lattice(
        config
    ).basis, "kernel not preserved (internal error)"
    return AxisNormalization(out, matrix)
