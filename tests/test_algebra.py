import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamset import Bound, generate, validate_config
from ulamset.algebra import (
    AxisNormalization,
    PrimeLogReal,
    PrimeProductSize,
    _span_coordinates,
    characteristic_lattice,
    embed_integer_lattice,
    embed_one_dimensional,
    integer_kernel,
    is_generic,
    normalize_axes_2d,
    row_hnf,
    structurally_equivalent,
    sym_vector,
)
from ulamset.errors import (
    DegenerateSpan,
    DimensionMismatch,
    MismatchedArity,
    NonPositiveDirection,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
PI = math.pi


# ---------------------------------------------------------------------------
# characteristic lattices


def test_kernel_of_dependent_triple():
    assert characteristic_lattice([(1, 0), (0, 1), (1, 1)]).basis == ((1, 1, -1),)


def test_kernel_trivial_for_unit_vectors():
    assert characteristic_lattice([(1, 0), (0, 1)]).basis == ()


def test_kernel_trivial_with_symbolic_coordinate():
    v1 = sym_vector([1, 0], ("sqrt2",))
    v2 = sym_vector([1, (0, 1)], ("sqrt2",))
    assert characteristic_lattice([v1, v2]).is_trivial()


def test_hnf_canonical_under_generator_shuffle():
    gens = [(2, 4, -6, 0), (1, 1, -1, 1), (3, 5, -7, 1), (0, 2, -4, -2)]
    want = row_hnf(gens)
    rng = random.Random(7)
    for _ in range(20):
        rng.shuffle(gens)
        assert row_hnf(gens) == want


# The former kernel routine: a second HNF pass that stops after the M^T
# columns, then a separate HNF of the rows whose M^T part vanished.
def _former_hnf_full(mat, ncols_left):
    mat = [list(r) for r in mat]
    m = len(mat)
    r = 0
    for c in range(ncols_left):
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
            r += 1
            if r == m:
                break
    return mat


def _former_integer_kernel(rows):
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return ()
    m, k = len(rows), len(rows[0])
    aug = [[rows[j][i] for j in range(m)] + [int(i == t) for t in range(k)]
           for i in range(k)]
    red = _former_hnf_full(aug, m)
    return row_hnf([row[m:] for row in red if not any(row[:m])])


def _former_characteristic_basis(vecs):
    """Kernel of the integer vectors with zero constraint rows skipped and
    the identity lattice when no row is left."""
    k = len(vecs)
    rows = [list(col) for col in zip(*vecs) if any(col)]
    if not rows:
        return row_hnf([[int(i == j) for j in range(k)] for i in range(k)])
    return _former_integer_kernel(rows)


_small_matrices = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.one_of(
            st.lists(st.integers(-6, 6), min_size=k, max_size=k),
            st.just([0] * k),
        ),
        min_size=1,
        max_size=5,
    )
)


@settings(max_examples=400, deadline=None)
@given(_small_matrices)
def test_integer_kernel_matches_former_routine(rows):
    got = integer_kernel(rows)
    assert got == _former_integer_kernel(rows)
    assert row_hnf(got) == got  # canonical as returned
    for x in got:
        assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)


def test_integer_kernel_of_zero_rows_is_the_identity():
    for k in range(1, 5):
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        assert integer_kernel([[0] * k]) == identity
        assert integer_kernel([[0] * k, [0] * k]) == identity


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 4), min_size=d, max_size=d), min_size=1, max_size=5
    )
))
def test_characteristic_lattice_keeps_zero_rows(vecs):
    # zero coordinates (and all-zero vectors) give all-zero constraint rows
    got = characteristic_lattice([tuple(v) for v in vecs]).basis
    assert got == _former_characteristic_basis(vecs)


def test_zero_dimensional_vectors_rejected():
    with pytest.raises(DimensionMismatch):
        characteristic_lattice([()])


def test_hnf_pivots_positive_and_reduced():
    h = row_hnf([(-2, 1, 0), (0, -3, 6), (4, 1, 2)])
    pivots = []
    for row in h:
        j = next(i for i, c in enumerate(row) if c)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots)


# ---------------------------------------------------------------------------
# structural equivalence


def test_equivalence_under_scaling():
    assert structurally_equivalent([(1, 0), (0, 1), (1, 1)], [(2, 0), (0, 2), (2, 2)])


def test_inequivalence_of_different_kernels():
    assert not structurally_equivalent(
        [(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1), (1, 2)]
    )


def test_symbolic_triple_equivalent_to_unit_vectors():
    w1 = sym_vector([1, 0, 0], ("sqrt2", "sqrt3"))
    w2 = sym_vector([1, (0, 1, 0), 0], ("sqrt2", "sqrt3"))
    w3 = sym_vector([1, 1, (0, 0, 1)], ("sqrt2", "sqrt3"))
    assert structurally_equivalent([w1, w2, w3], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_arity_mismatch():
    with pytest.raises(MismatchedArity):
        structurally_equivalent([(1, 0)], [(1, 0), (0, 1)])


def test_equivalence_is_an_equivalence_relation():
    configs = [
        [(1, 0), (0, 1), (1, 1)],
        [(2, 0), (0, 2), (2, 2)],
        [(1, 1), (2, 0), (3, 1)],
        [(1, 0), (0, 1), (1, 2)],
        [(3, 0), (0, 3), (3, 6)],
    ]
    for a in configs:
        assert structurally_equivalent(a, a)
        for b in configs:
            ab = structurally_equivalent(a, b)
            assert ab == structurally_equivalent(b, a)
            for c in configs:
                if ab and structurally_equivalent(b, c):
                    assert structurally_equivalent(a, c)


def test_kernel_sharing_triple_realizes_same_coefficient_tuples():
    # same kernel span{(1,1,-1)}; membership must agree tuple by tuple
    a = [(1, 0), (0, 1), (1, 1)]
    b = [(1, 1), (2, 0), (3, 1)]
    assert structurally_equivalent(a, b)
    sa = generate(validate_config(a, 2), Bound.level(14))
    sb = generate(validate_config(b, 2), Bound.level(40))
    for a1 in range(7):
        for a2 in range(7):
            for a3 in range(7):
                if a1 == a2 == a3 == 0:
                    continue
                pa = (a1 + a3, a2 + a3)
                pb = (a1 + 2 * a2 + 3 * a3, a1 + a3)
                if sum(pa) > 14 or sum(pb) > 40:
                    continue
                assert (pa in sa) == (pb in sb), (a1, a2, a3)


# ---------------------------------------------------------------------------
# genericity


def test_generic_one_dimensional_symbolic():
    a = sym_vector([3], ("sqrt5", "pi"))
    b = sym_vector([(0, 1, 0)], ("sqrt5", "pi"))
    c = sym_vector([(2, 0, 1)], ("sqrt5", "pi"))
    assert is_generic([a, b, c])


def test_generic_unit_vectors_and_nongeneric_collinear():
    assert is_generic([(1, 0), (0, 1)])
    assert not is_generic([(1, 0), (2, 0), (0, 1)])


# ---------------------------------------------------------------------------
# one-dimensional embedding


def test_prime_log_images():
    images = embed_one_dimensional([(1, 0), (0, 1)])
    assert [f.exponents for f in images] == [(1, 0), (0, 1)]
    assert images[0] < images[1]  # log 2 < log 3
    images = embed_one_dimensional([(2, 0), (3, 0), (0, 1)])
    assert [round(f.value(), 10) for f in images] == [
        round(2 * math.log(2), 10),
        round(3 * math.log(2), 10),
        round(math.log(3), 10),
    ]


def test_prime_log_ordering_is_exact():
    # 2^19 < 3^12 but floats of the logs are close: 19 log 2 = 13.1687...,
    # 12 log 3 = 13.1833...
    assert PrimeLogReal((19, 0)) < PrimeLogReal((0, 12))
    assert not PrimeLogReal((0, 12)) < PrimeLogReal((19, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(*[st.lists(st.integers(0, 12), min_size=d, max_size=d)] * 2)
))
def test_prime_log_order_is_the_prime_product_order(pair):
    a, b = (tuple(e) for e in pair)
    size = PrimeProductSize(len(a))
    pa, pb = size.value(a), size.value(b)
    assert pa == math.prod(p ** e for p, e in zip((2, 3, 5, 7), a))
    assert (PrimeLogReal(a) < PrimeLogReal(b)) == (pa < pb)
    assert (PrimeLogReal(a) <= PrimeLogReal(b)) == (pa <= pb)


def test_embedded_order_replays_lattice_generation():
    cfg = validate_config([(1, 0), (0, 1)], 2)
    ordered = generate(cfg, Bound.box((9, 9)), PrimeProductSize(2))
    plain = generate(cfg, Bound.box((9, 9)))
    assert set(ordered.points) == set(plain.points)
    first100 = ordered.points[:100]
    assert list(first100) == sorted(first100, key=lambda p: 2 ** p[0] * 3 ** p[1])


# ---------------------------------------------------------------------------
# integer-lattice embedding


EMBED_CASES = [
    ([sym_vector([1, 0], ("sqrt2",)), sym_vector([1, (0, 1)], ("sqrt2",))],
     {"sqrt2": SQRT2}),
    ([sym_vector([3], ("sqrt5", "pi")), sym_vector([(0, 1, 0)], ("sqrt5", "pi")),
      sym_vector([(2, 0, 1)], ("sqrt5", "pi"))], {"sqrt5": SQRT5, "pi": PI}),
    ([sym_vector([1, 0, 0], ("sqrt2", "sqrt3")),
      sym_vector([1, (0, 1, 0), 0], ("sqrt2", "sqrt3")),
      sym_vector([1, 1, (0, 0, 1)], ("sqrt2", "sqrt3"))],
     {"sqrt2": SQRT2, "sqrt3": SQRT3}),
    ([(2,), (3,), (5,)], None),
    ([(1, 0), (0, 1), (1, 1)], None),
    ([(2, 0), (0, 2), (2, 2)], None),
    ([(1, 2), (2, 1), (3, 3)], None),
    ([(1, 0), (2, 0), (0, 1)], None),
    ([(9, 0), (0, 9), (1, 13)], None),
    ([(2, 5), (3, 1)], None),
    ([(1, 2, 3), (2, 4, 6), (1, 0, 0)], None),
]


@pytest.mark.parametrize("vecs,values", EMBED_CASES)
def test_embed_integer_lattice_preserves_kernel(vecs, values):
    out = embed_integer_lattice(vecs, values)
    assert 1 <= out.dim <= len(vecs)
    assert characteristic_lattice(out).basis == characteristic_lattice(vecs).basis
    assert all(all(c > 0 for c in p) for p in out.initials)


# Outputs of the former embedding (a greedy spanning loop plus one solve
# per vector), frozen for EMBED_CASES in order.
FORMER_EMBED_OUTPUTS = [
    ((2, 1), (2, 3)),
    ((4, 3, 3), (2, 3, 2), (5, 5, 6)),
    ((2, 1, 1), (2, 3, 2), (4, 4, 5)),
    ((6,), (9,), (15,)),
    ((2, 1), (1, 2), (3, 3)),
    ((3, 2), (2, 3), (5, 5)),
    ((4, 3), (3, 4), (7, 7)),
    ((2, 1), (4, 2), (1, 2)),
    ((90, 81), (81, 90), (127, 139)),
    ((8, 7), (4, 5)),
    ((7, 6), (14, 12), (1, 2)),
]


def test_embed_outputs_unchanged():
    for (vecs, values), want in zip(EMBED_CASES, FORMER_EMBED_OUTPUTS, strict=True):
        assert embed_integer_lattice(vecs, values).initials == want


def _former_rref(mat):
    mat = [row[:] for row in mat]
    m = len(mat)
    k = len(mat[0]) if m else 0
    pivots = []
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


def _former_span_coordinates(flat):
    """Greedy input-order spanning subset, then one solve per vector."""
    q_idx, basis = [], []
    for i, fv in enumerate(flat):
        resid = fv[:]
        for b in basis:
            piv = next(j for j, c in enumerate(b) if c != 0)
            if resid[piv] != 0:
                f = resid[piv] / b[piv]
                resid = [a - f * c for a, c in zip(resid, b)]
        if any(c != 0 for c in resid):
            basis.append(resid)
            q_idx.append(i)
    l = len(q_idx)
    qmat = [[flat[qi][row] for qi in q_idx] for row in range(len(flat[0]))]
    sols = []
    for fv in flat:
        red, pivots = _former_rref([qrow + [fv[row]] for row, qrow in enumerate(qmat)])
        coeff = [Fraction(0)] * l
        for r, c in enumerate(pivots):
            assert c != l, "vector outside the span of the chosen subset"
            coeff[c] = red[r][l]
        sols.append(coeff)
    return q_idx, sols


_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.lists(_fractions, min_size=n, max_size=n),
            st.lists(st.integers(-2, 2).map(Fraction), min_size=n, max_size=n),
        ),
        min_size=1,
        max_size=5,
    )
))
def test_span_coordinates_match_former_routine(flat):
    q_idx, u = _span_coordinates(flat)
    want_idx, want_u = _former_span_coordinates(flat)
    assert q_idx == want_idx
    assert u == want_u
    for fv, ui in zip(flat, u):  # every vector is rebuilt from Q exactly
        assert fv == [sum(c * flat[qi][r] for c, qi in zip(ui, q_idx))
                      for r in range(len(fv))]


def test_embed_generic_input_gives_trivial_kernel():
    out = embed_integer_lattice(
        [sym_vector([1, 0], ("sqrt2",)), sym_vector([1, (0, 1)], ("sqrt2",))],
        {"sqrt2": SQRT2},
    )
    assert out.dim == 2 and characteristic_lattice(out).is_trivial()


def test_embed_one_dim_family():
    out = embed_integer_lattice([(2,), (3,), (5,)])
    assert out.dim == 1
    assert characteristic_lattice(out).basis == characteristic_lattice(
        [(2,), (3,), (5,)]
    ).basis


def test_embed_rejects_negative_direction():
    with pytest.raises(NonPositiveDirection):
        embed_integer_lattice(
            [sym_vector([(1, -1)], ("sqrt2",)), sym_vector([1], ("sqrt2",))],
            {"sqrt2": SQRT2},
        )


# ---------------------------------------------------------------------------
# axis normalization


def test_normalize_axis_touching_is_fixed():
    res = normalize_axes_2d(validate_config([(1, 0), (0, 1), (2, 3)], 2))
    assert res.config.initials == ((1, 0), (0, 1), (2, 3))


def test_normalize_places_vectors_on_both_axes():
    res = normalize_axes_2d(validate_config([(1, 0), (1, 1), (5, 3)], 2))
    pts = res.config.initials
    assert any(p[1] == 0 and p[0] > 0 for p in pts)
    assert any(p[0] == 0 and p[1] > 0 for p in pts)
    assert characteristic_lattice(pts).basis == characteristic_lattice(
        [(1, 0), (1, 1), (5, 3)]
    ).basis


def test_normalize_outputs_unchanged():
    # frozen outputs of the former routine
    res = normalize_axes_2d(validate_config([(3, 7), (5, 2), (4, 4)], 2))
    assert res.config.initials == ((0, 841), (725, 0), (400, 348))
    assert res.matrix == ((175, -75), (-58, 145))
    res = normalize_axes_2d(validate_config([(2, 5), (3, 1)], 2))
    assert res.config.initials == ((0, 13), (9, 0))
    assert res.matrix == ((Fraction(45, 13), Fraction(-18, 13)), (-1, 3))


def test_normalize_degenerate_span():
    with pytest.raises(DegenerateSpan):
        normalize_axes_2d(validate_config([(1, 1), (2, 2)], 2))


def _correspondence(raw, box):
    cfg = validate_config(raw, 2)
    res = normalize_axes_2d(cfg)
    a = generate(cfg, Bound.box((box, box)))
    images = [res.apply(p) for p in a.points]
    bx = max(q[0] for q in images)
    by = max(q[1] for q in images)
    b = generate(res.config, Bound.box((bx, by)))
    for q in images:
        assert q in b
    back = 0
    for q in b.points:
        pre = res.apply_inverse(q)
        if all(c.denominator == 1 and 0 <= c <= box for c in pre):
            back += 1
            assert (int(pre[0]), int(pre[1])) in a
    assert back == len(images)


def test_normalized_sets_correspond_pointwise():
    _correspondence([(2, 5), (3, 1)], 25)
    _correspondence([(1, 0), (1, 1), (5, 3)], 20)
