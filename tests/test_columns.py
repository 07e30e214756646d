import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamset import Bound, generate, validate_config
from ulamset.columns import (
    DEFAULT_MAX_PERIOD,
    DEFAULT_MIN_EVIDENCE,
    ColumnProfile,
    ColumnsReport,
    PeriodFit,
    _grid_word,
    _member_grid,
    _odd_part,
    classify_period_doubling,
    column_word,
    columns_report,
    detect_eventual_period,
    transform_t,
)
from ulamset.errors import BadAlphabet, RangeExceedsBound


# ---------------------------------------------------------------------------
# the word transform


def test_transform_pinned_words():
    assert transform_t("110011001") == "100010001"
    assert transform_t("010101010") == "011001100"
    assert transform_t("000000") == "000000"


def test_transform_rejects_bad_alphabet():
    with pytest.raises(BadAlphabet):
        transform_t("0120x")
    with pytest.raises(BadAlphabet):
        transform_t("")


def test_classify_pinned():
    assert classify_period_doubling("1100") == "preserves"
    assert classify_period_doubling("01") == "doubles"
    assert classify_period_doubling("12") == "preserves"


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=2, max_size=40), st.data())
def test_flip_property(word, data):
    """Flipping one input symbol flips every output symbol from there on."""
    l = data.draw(st.integers(0, len(word) - 1))
    flipped = word[:l] + ("1" if word[l] == "0" else "0") + word[l + 1:]
    a, b = transform_t(word), transform_t(flipped)
    assert a[:l] == b[:l]
    assert all(x != y for x, y in zip(a[l:], b[l:]))


def _tail_min_period(pattern: str, entry_state: int) -> int:
    """Exact minimal eventual period of the transform of pattern^infinity,
    entered with the given carry state; independent of transform_t's
    internals (direct simulation plus a window scan)."""
    p = len(pattern)
    reps = 10
    out = []
    prev = entry_state
    for ch in pattern * reps:
        prev = 1 if int(ch) + prev == 1 else 0
        out.append(prev)
    tail = out[4 * p:]  # state is cycling from the second repetition on
    for d in range(1, 2 * p + 1):
        if tail[d:] == tail[:-d]:
            return d
    raise AssertionError("no period within 2p")


def _exhaustive_transform_check(max_len: int) -> None:
    for p in range(1, max_len + 1):
        for pattern in itertools.product("012", repeat=p):
            pattern = "".join(pattern)
            doubles = classify_period_doubling(pattern) == "doubles"
            for state in (0, 1):
                d = _tail_min_period(pattern, state)
                assert (2 * p) % d == 0, (pattern, state, d)
                assert (p % d != 0) == doubles, (pattern, state, d)


def test_transform_period_law_exhaustive_small():
    _exhaustive_transform_check(6)


def test_transform_period_law_with_explicit_preperiods():
    rng = random.Random(11)
    for _ in range(150):
        p = rng.randint(1, 8)
        pattern = "".join(rng.choice("012") for _ in range(p))
        prefix = "".join(rng.choice("012") for _ in range(rng.randint(0, 4)))
        word = prefix + pattern * 12
        out = transform_t(word)
        tail = out[len(prefix) + 4 * p:]
        doubles = classify_period_doubling(pattern) == "doubles"
        d = next(
            d for d in range(1, 2 * p + 1) if tail[d:] == tail[:-d]
        )
        assert (2 * p) % d == 0
        assert (p % d != 0) == doubles


# ---------------------------------------------------------------------------
# period detection


def test_detect_pinned():
    fit = detect_eventual_period("0101010101")
    assert (fit.preperiod, fit.period, fit.pattern) == (0, 2, "01")
    fit = detect_eventual_period("1110001000100010")
    assert (fit.preperiod, fit.period, fit.pattern) == (2, 4, "1000")
    fit = detect_eventual_period("0000000000")
    assert (fit.period, fit.empty) == (1, True)


def test_detect_inconclusive():
    assert detect_eventual_period("0110", max_period=1) is None


def test_detect_requires_min_evidence():
    with pytest.raises(ValueError):
        detect_eventual_period("0101", min_evidence=2)


@pytest.mark.parametrize("max_period", [0, -1])
def test_max_period_below_one_is_rejected(max_period):
    with pytest.raises(ValueError, match="max_period"):
        detect_eventual_period("0101010101", max_period=max_period)
    uset = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 20)))
    with pytest.raises(ValueError, match="max_period"):
        columns_report(uset, max_period=max_period)


def test_detect_rejects_bad_alphabet():
    for word in ("", "0120", "01\u00e9"):
        with pytest.raises(BadAlphabet):
            detect_eventual_period(word)


def _scan_oracle(word, max_period, min_evidence):
    """Exhaustive (t, p) scan in lexicographic order."""
    n = len(word)
    best = None
    for t in range(n):
        for p in range(1, max_period + 1):
            if n - t < min_evidence * p:
                continue
            if all(word[j] == word[j + p] for j in range(t, n - p)):
                return (t, p)
    return best


def _string_scan(word, max_period, min_evidence, edge_guard):
    """The per-character loop detect_eventual_period replaced."""
    n = len(word)
    best = None
    for p in range(1, max_period + 1):
        t = 0
        for j in range(n - p - 1, -1, -1):
            if word[j] != word[j + p]:
                t = j + 1
                break
        needed = (min_evidence + (1 if edge_guard else 0)) * p
        if n - t >= needed and (best is None or t < best[0]):
            best = (t, p)
    if best is None:
        return None
    t, p = best
    return (t, p, word[t:t + p], (n - t) // p)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="01", min_size=1, max_size=120),
        # a random preperiod followed by a repeated random pattern
        st.builds(
            lambda head, pat, reps: head + pat * reps,
            st.text(alphabet="01", max_size=30),
            st.text(alphabet="01", min_size=1, max_size=12),
            st.integers(1, 12),
        ),
    ),
    st.integers(1, 20),
    st.integers(3, 5),
    st.booleans(),
)
def test_detect_matches_string_scan(word, max_period, min_evidence, edge_guard):
    fit = detect_eventual_period(word, max_period, min_evidence, edge_guard)
    want = _string_scan(word, max_period, min_evidence, edge_guard)
    if want is None:
        assert fit is None
    else:
        assert (fit.preperiod, fit.period, fit.pattern, fit.evidence) == want


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="01", min_size=3, max_size=64))
def test_detect_matches_exhaustive_scan(word):
    got = detect_eventual_period(word, max_period=16, min_evidence=3)
    want = _scan_oracle(word, 16, 3)
    if want is None:
        assert got is None
    else:
        assert got is not None and (got.preperiod, got.period) == want


# ---------------------------------------------------------------------------
# column words on generated sets


def test_column_word_two_generators():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((11, 10)))
    w = column_word(s, axis=1, index=3, lo=0, hi=10)
    assert w == "01010101010"
    assert {y for y, ch in enumerate(w) if ch == "1"} == {1, 3, 5, 7, 9}


def test_column_word_range_guard():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((11, 10)))
    with pytest.raises(RangeExceedsBound):
        column_word(s, axis=1, index=3, lo=0, hi=50)


def test_column_word_single_symbol():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((11, 10)))
    assert column_word(s, axis=1, index=1, lo=4, hi=4) == "1"


def test_column_word_honors_the_sets_own_size_function():
    from ulamset import SizeFunction

    s = generate(
        validate_config([(1, 0), (0, 1)], 2),
        Bound.level(50),
        SizeFunction.euclidean_norm_squared(),
    )
    # (2,6) has squared norm 40 <= 50, but (2,7) has 53 > 50
    assert column_word(s, axis=1, index=2, lo=0, hi=6) == "0100000"
    with pytest.raises(RangeExceedsBound):
        column_word(s, axis=1, index=2, lo=0, hi=7)


def test_empty_column_in_axes_2_3_config():
    s = generate(validate_config([(2, 0), (0, 1), (3, 1)], 2), Bound.box((8, 20)))
    assert column_word(s, axis=1, index=5, lo=2, hi=20) == "0" * 19


def _lookup_word(uset, axis, index, lo, hi, step):
    """Column word by one set lookup per symbol."""
    out = []
    p = [0, 0]
    p[1 - axis] = index
    for v in range(lo, hi + 1, step):
        p[axis] = v
        out.append("1" if tuple(p) in uset.members else "0")
    return "".join(out)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    st.integers(0, 1),
    st.data(),
)
def test_column_words_match_set_lookups(raw, axis, data):
    limits = (data.draw(st.integers(4, 20)), data.draw(st.integers(4, 30)))
    s = generate(validate_config(raw, 2), Bound.box(limits))
    index = data.draw(st.integers(-1, limits[1 - axis]), label="index")
    hi = data.draw(st.integers(0, limits[axis]), label="hi")
    lo = data.draw(st.integers(0, hi), label="lo")
    step = data.draw(st.integers(1, 4), label="step")
    want = _lookup_word(s, axis, index, lo, hi, step)
    assert column_word(s, axis, index, lo, hi, step) == want
    if index >= 0:
        grid = _member_grid(s, [l + 1 for l in limits])
        assert _grid_word(grid, axis, index, lo, hi, step) == want


# ---------------------------------------------------------------------------
# full reports


def test_columns_report_two_generator_closed_form():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((13, 100)))
    rep = columns_report(s)
    assert not rep.violations
    for prof in rep.profiles:
        if prof.index >= 3 and prof.index % 2 == 1:
            assert prof.period == 2 and prof.pattern in ("01", "10")
        elif prof.index >= 2 and prof.index % 2 == 0:
            assert prof.empty
        elif prof.index == 1:
            assert prof.period == 1 and not prof.empty  # solid column


def test_columns_report_classic_augmented_moderate_box():
    s = generate(validate_config([(1, 0), (2, 0), (0, 1)], 2), Bound.box((30, 400)))
    rep = columns_report(s)
    assert not rep.violations and not rep.inconclusive
    assert rep.nonempty_indices() == [1, 4, 6, 9, 14, 20, 23, 25, 30]
    assert max(p.period for p in rep.profiles) <= 2


def test_parity_observation_fixed_x():
    """Each column of the augmented classic set keeps one y-parity above
    the two base rows (empirical, box-limited).  Rows y = 0 (the classical
    sequence itself) and y = 1 do not follow the column parity: (4,0) sits
    under the odd column over x = 4."""
    s = generate(validate_config([(1, 0), (2, 0), (0, 1)], 2), Bound.box((40, 500)))
    cols = {}
    for x, y in s.points:
        if x >= 2 and y >= 2:
            cols.setdefault(x, set()).add(y % 2)
    assert cols and all(len(par) == 1 for par in cols.values())


def test_columns_report_step_two():
    s = generate(validate_config([(1, 0), (2, 0), (0, 2)], 2), Bound.box((20, 300)))
    rep = columns_report(s, step=2)
    assert rep.profiles  # per-residue profiles exist
    for prof in rep.profiles:
        assert prof.residue in (0, 1)


@pytest.mark.parametrize("step", [0, -2])
def test_columns_report_rejects_step_below_one(step):
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 20)))
    with pytest.raises(ValueError):
        columns_report(s, step=step)


# ---------------------------------------------------------------------------
# whole-grid period detection against a per-column scan


def ref_columns_report(uset, axis=1, step=1, max_period=DEFAULT_MAX_PERIOD,
                       min_evidence=DEFAULT_MIN_EVIDENCE):
    """columns_report as one per-character scan per column word."""
    other = 1 - axis
    hi_sweep = uset.bound.limits[axis]
    hi_index = uset.bound.limits[other]

    profiles = []
    inconclusive = []
    violations = []
    seen_periods = []  # (index, period) lineage
    grid = _member_grid(uset, [l + 1 for l in uset.bound.limits])

    for index in range(hi_index + 1):
        for residue in range(step):
            if residue > hi_sweep:
                continue
            word = _grid_word(grid, axis, index, residue, hi_sweep, step)
            scan = _string_scan(word, max_period, min_evidence, edge_guard=True)
            if scan is None:
                inconclusive.append((index, residue))
                continue
            fit = PeriodFit(*scan)
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


_BASE = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((1, 1)))


def _grid_set(rows):
    """A planar set whose member grid is ``rows`` (row x, column y)."""
    pts = tuple((x, y) for x, row in enumerate(rows) for y, bit in enumerate(row) if bit)
    return dataclasses.replace(
        _BASE, bound=Bound.box((len(rows) - 1, len(rows[0]) - 1)),
        points=pts, levels=tuple(map(sum, pts)), members=frozenset(pts),
    )


def _random_rows(rng, n_rows, length):
    """Rows of random bits, or a random prefix followed by a repeated pattern."""
    rows = []
    for _ in range(n_rows):
        if rng.random() < 0.3:
            rows.append([rng.randint(0, 1) for _ in range(length)])
        else:
            pattern = [rng.randint(0, 1) for _ in range(rng.randint(1, 9))]
            prefix = [rng.randint(0, 1) for _ in range(rng.randint(0, 12))]
            rows.append((prefix + pattern * length)[:length])
    return rows


_report_args = dict(
    step=st.integers(1, 4),
    max_period=st.integers(1, 70),
    min_evidence=st.integers(3, 5),
    axis=st.sampled_from([0, 1]),
)


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(1, 14), length=st.integers(1, 90),
       rng=st.randoms(use_true_random=False), **_report_args)
def test_whole_grid_periods_match_per_column_detection(
        n_rows, length, rng, step, max_period, min_evidence, axis):
    """Random 0/1 grids, from one-symbol words (every residue but 0 past the
    sweep) to words shorter than max_period."""
    uset = _grid_set(_random_rows(rng, n_rows, length))
    args = dict(axis=axis, step=step, max_period=max_period, min_evidence=min_evidence)
    assert columns_report(uset, **args) == ref_columns_report(uset, **args)


@pytest.fixture(scope="module")
def column_sets():
    return [
        generate(validate_config(init, 2), Bound.box(box))
        for init, box in (
            ([(1, 0), (2, 0), (0, 1)], (20, 300)),
            ([(2, 0), (3, 0), (0, 1)], (30, 400)),
            ([(1, 0), (0, 1)], (13, 100)),
            ([(1, 0), (2, 0), (0, 2)], (3, 2)),
        )
    ]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 3), **_report_args)
def test_whole_grid_periods_match_on_generated_sets(
        column_sets, which, step, max_period, min_evidence, axis):
    uset = column_sets[which]
    args = dict(axis=axis, step=step, max_period=max_period, min_evidence=min_evidence)
    assert columns_report(uset, **args) == ref_columns_report(uset, **args)


def test_columns_report_requires_min_evidence():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 20)))
    with pytest.raises(ValueError, match="min_evidence"):
        columns_report(s, min_evidence=2)
