import dataclasses
import math

import pytest

from ulamset import Bound, generate, validate_config
from ulamset.errors import BadParameters, RegionExceedsBound, UnknownOracle
from ulamset.verify import (
    angle_ranking,
    compare_set_to_oracle,
    diagonal_absent,
    extra_vector_oracle,
    get_oracle,
    interior_members,
    oracle_membership,
    two_generator_member,
)


# ---------------------------------------------------------------------------
# closed-form membership


def test_two_generators_membership():
    assert oracle_membership("two-generators", (3, 5))
    assert not oracle_membership("two-generators", (2, 2))
    assert oracle_membership("two-generators", (1, 7))


def test_axes_2_3_membership():
    oid = "config-2_0-0_1-3_1"
    assert oracle_membership(oid, (4, 1))
    assert not oracle_membership(oid, (4, 2))
    assert oracle_membership(oid, (3, 9))


def test_axes_2_3_extra_membership():
    oid = "config-1_0-0_1-2_3"
    assert oracle_membership(oid, (4, 3))
    assert oracle_membership(oid, (2, 3))
    assert not oracle_membership(oid, (5, 5))


def test_unknown_oracle_and_bad_parameters():
    with pytest.raises(UnknownOracle):
        get_oracle("nope")
    with pytest.raises(BadParameters):
        get_oracle("extra-vector")  # needs m, n
    with pytest.raises(BadParameters):
        extra_vector_oracle(2, 4)  # below the classified thresholds


# ---------------------------------------------------------------------------
# diffs against generated sets


def test_two_generators_diff_clean():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((25, 25)))
    rep = compare_set_to_oracle(s, "two-generators", Bound.box((25, 25)))
    assert rep.ok and rep.checked == 26 * 26 - 1


@pytest.mark.parametrize(
    "raw,oracle_id",
    [
        ([(2, 0), (0, 1), (3, 1)], "config-2_0-0_1-3_1"),
        ([(1, 0), (0, 1), (2, 3)], "config-1_0-0_1-2_3"),
    ],
)
def test_special_case_diffs_clean(raw, oracle_id):
    s = generate(validate_config(raw, 2), Bound.box((40, 40)))
    rep = compare_set_to_oracle(s, oracle_id, Bound.box((40, 40)))
    assert rep.ok


@pytest.mark.parametrize(
    "mn", [(6, 4), (8, 4), (4, 6), (6, 6), (10, 9), (6, 5), (10, 3), (6, 3)]
)
def test_extra_vector_oracles_clean(mn):
    m, n = mn
    s = generate(validate_config([(1, 0), (0, 1), (m, n)], 2), Bound.box((52, 52)))
    rep = compare_set_to_oracle(s, "extra-vector", Bound.box((52, 52)), m=m, n=n)
    assert rep.ok, (rep.missing[:5], rep.extra[:5])


def test_degenerate_extra_vector_falls_back_to_lattice():
    oracle = get_oracle("extra-vector", m=5, n=7)  # (5,7) is a lattice member
    assert oracle.degenerate and oracle.oracle_id == "two-generators"
    s = generate(validate_config([(1, 0), (0, 1), (5, 7)], 2), Bound.box((30, 30)))
    rep = compare_set_to_oracle(s, oracle, Bound.box((30, 30)))
    assert rep.ok


@pytest.mark.parametrize(
    "oracle_id,m,n,initials",
    [
        ("two-generators", None, None, ((1, 0), (0, 1))),
        ("config-2_0-0_1-3_1", None, None, ((2, 0), (0, 1), (3, 1))),
        ("config-1_0-0_1-2_3", None, None, ((1, 0), (0, 1), (2, 3))),
        ("unit3d-hyperplane", None, None, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ("extra-vector", 6, 4, ((1, 0), (0, 1), (6, 4))),
        ("extra-vector", 5, 6, ((1, 0), (0, 1), (5, 6))),    # transposed
        ("extra-vector", 5, 7, ((1, 0), (0, 1), (5, 7))),    # degenerate
        ("extra-vector", 3, 10, ((1, 0), (0, 1), (3, 10))),  # transposed
    ],
)
def test_oracle_carries_its_initial_configuration(oracle_id, m, n, initials):
    oracle = get_oracle(oracle_id, m, n)
    assert oracle.initials == initials
    assert len(initials[0]) == oracle.dim


def test_fault_injection_detected():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((20, 20)))
    pts = tuple(p for p in s.points if p != (3, 5))
    corrupt = dataclasses.replace(s, points=pts, members=frozenset(pts))
    rep = compare_set_to_oracle(corrupt, "two-generators", Bound.box((20, 20)))
    assert rep.missing == ((3, 5),) and not rep.extra


def test_region_exceeding_bound_rejected():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((10, 10)))
    with pytest.raises(RegionExceedsBound):
        compare_set_to_oracle(s, "two-generators", Bound.box((12, 12)))


# ---------------------------------------------------------------------------
# three-dimensional checks


@pytest.fixture(scope="module")
def unit3d_level30():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    return generate(cfg, Bound.level(30))


def test_diagonal_absent(unit3d_level30):
    assert diagonal_absent(unit3d_level30)
    pts = unit3d_level30.points + ((2, 2, 2),)
    fake = dataclasses.replace(
        unit3d_level30, points=pts, members=frozenset(pts)
    )
    assert not diagonal_absent(fake)


def test_hyperplane_oracle(unit3d_level30):
    rep = compare_set_to_oracle(
        unit3d_level30, "unit3d-hyperplane", Bound.level(30)
    )
    assert rep.ok
    assert rep.out_of_scope > 0  # oracle only covers the x=2 plane


def test_angle_ranking_max_is_4_6_10(unit3d_level30):
    ranked = angle_ranking(unit3d_level30, interior_only=True)
    top = {p for p, _ in ranked[:6]}
    assert top == {
        (4, 6, 10), (4, 10, 6), (6, 4, 10), (6, 10, 4), (10, 4, 6), (10, 6, 4)
    }
    angles = [a for _, a in ranked]
    assert angles == sorted(angles, reverse=True)


def test_angle_ranking_permutation_invariant(unit3d_level30):
    ranked = angle_ranking(unit3d_level30)
    swapped_pts = tuple(sorted(
        (p[1], p[0], p[2]) for p in unit3d_level30.points
    ))
    swapped = dataclasses.replace(
        unit3d_level30, points=swapped_pts, members=frozenset(swapped_pts)
    )
    ranked_sw = angle_ranking(swapped)
    assert [a for _, a in ranked] == [a for _, a in ranked_sw]


def test_interior_excludes_characterized_families(unit3d_level30):
    interior = interior_members(unit3d_level30)
    assert all(min(p) >= 1 and 2 not in p for p in interior)
    assert (2, 3, 3) not in interior
    assert (4, 6, 10) in interior
