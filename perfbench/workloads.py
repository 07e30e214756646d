"""The four workloads: inputs from a seed, one timed pass, output checks.

A pass is a fixed list of ops, each one call into the program through a
runner (see ``spans.py``).  The headline inputs are the paper's objects
and never change; the seed picks only the secondary inputs and the points
the sampled representation check draws.  Each workload also has a smoke
size that runs in seconds, used by the benchmark's own tests.

Checks run after the pass, outside the timed region.  Each failed check is
attached to the op whose output it reads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

import checks
from checks import Region

# Known answers from the paper and its companion computations.
ALPHA_12 = "2.5714474995"
ALPHA_12_BEST = 2.571447
SIGNAL_RANGE = (-0.81, -0.77)
SIGN_EXCEPTIONS_12 = [2, 3, 47, 69]
GAPS_12 = {4953: 262, 18858: 315}  # 1-based n: a_n - a_(n-1)
NONEMPTY_COLUMNS_10 = [1, 4, 6, 9, 14, 20, 23, 25, 30, 33, 49, 56, 60]
TOP_CLASS = (4, 6, 10)
SECOND_CLASS = (94, 136, 230)
# point count of the 3-D unit-vector set at level <= 470, as computed by the
# dense engine and cross-checked by the representation check
UNIT3D_POINTS_470 = 170322

NONREGULAR_PAIRS = ((1, 3), (2, 3))
REGULAR_V = (5, 7, 9, 11, 13)  # (2, v) is regular with frequency pi
# classified extra-vector shapes; (m, n) both odd is the degenerate lattice
EXTRA_VECTORS = tuple(
    (m, n) for m in range(4, 10) for n in range(4, 10) if m % 2 == 0 or n % 2 == 0
)
UNIT3D = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
COLUMNS_1 = ((1, 0), (2, 0), (0, 1))
COLUMNS_2 = ((2, 0), (3, 0), (0, 1))


def _perms(triple) -> set:
    a, b, c = triple
    return {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}


@dataclass
class Inputs:
    seed: int
    smoke: bool
    params: dict


class Workload:
    name = ""
    why = ""

    def inputs(self, seed: int, smoke: bool) -> Inputs:
        raise NotImplementedError

    def warmup(self, lib) -> None:
        """One small call, so lazy set-up finishes before timing."""
        raise NotImplementedError

    def run_pass(self, run, inp: Inputs) -> None:
        raise NotImplementedError

    def check(self, run, inp: Inputs) -> None:
        """Attach problems to the ops whose outputs fail a check."""
        raise NotImplementedError


def _flag(op, problems) -> None:
    if op.error is None:
        op.problems.extend(problems)


def _check_set(op, rng, initials) -> None:
    """Shape and representation checks of a ``core.generate`` result."""
    if op.error is not None:
        return
    uset = op.result
    region = generate_region(op)
    _flag(op, checks.set_problems(uset.points, uset.levels, uset.members, initials, region))
    _flag(op, checks.representation_problems(uset.points, initials, region, rng))


def generate_region(op) -> Region:
    """Region of a ``core.generate(config, bound[, sizefn])`` op."""
    config, bound = op.args[0], op.args[1]
    sizefn = op.args[2] if len(op.args) > 2 else None
    return Region.of(bound, sizefn, config.dim)


# ---------------------------------------------------------------------------


class Seq1D(Workload):
    name = "seq1d"
    why = ("the (1,2) sequence at 5e4 terms and its hidden frequency, plus two "
           "seed-drawn pairs; onedim does almost all the work, core none")

    def inputs(self, seed, smoke):
        rng = random.Random(seed)
        return Inputs(seed, smoke, {
            "n_main": 2_000 if smoke else 50_000,
            "n_pair": 1_000 if smoke else 20_000,
            "nonregular": rng.choice(NONREGULAR_PAIRS),
            "regular": (2, rng.choice(REGULAR_V)),
        })

    def warmup(self, lib):
        lib.onedim.ulam_sequence((1, 2), 100)

    def run_pass(self, run, inp):
        p = inp.params
        seq = run.call("seq(1,2)", "onedim.ulam_sequence", (1, 2), p["n_main"])
        run.call("scan(1,2)", "signal.alpha_scan", seq)
        run.call("cos(1,2)", "signal.cosine_sum", seq, ALPHA_12)
        run.call("exceptions(1,2)", "signal.sign_exception_set", seq, ALPHA_12)
        for pair in (p["nonregular"], p["regular"]):
            s = run.call(f"seq{pair}", "onedim.ulam_sequence", pair, p["n_pair"])
            run.call(f"scan{pair}", "signal.alpha_scan", s)

    def check(self, run, inp):
        p = inp.params
        main = run.op("seq(1,2)")
        if main.error is None:
            _flag(main, checks.sequence_problems(main.result.terms, (1, 2), p["n_main"]))
        if main.failed:
            return  # the signal checks below read this sequence
        terms = main.result.terms
        for n, gap in GAPS_12.items():
            if n <= len(terms) and terms[n - 1] - terms[n - 2] != gap:
                _flag(main, [f"gap({n}) = {terms[n - 1] - terms[n - 2]}, expected {gap}"])
        if not _fibonacci_bound(terms):
            _flag(main, ["a_n > F_(n+1) for some n"])
        arr = np.array(terms, dtype=np.float64)

        cos = run.op("cos(1,2)")
        if cos.error is None:
            ratio = cos.result / len(terms)
            direct = float(np.cos(float(ALPHA_12) * arr).mean())
            if not SIGNAL_RANGE[0] <= ratio <= SIGNAL_RANGE[1] or abs(ratio - direct) > 1e-6:
                _flag(cos, [f"S/N = {ratio}, direct {direct}, expected in {SIGNAL_RANGE}"])
        exc = run.op("exceptions(1,2)")
        if exc.error is None and list(exc.result) != SIGN_EXCEPTIONS_12:
            _flag(exc, [f"sign exceptions {list(exc.result)[:8]}, expected {SIGN_EXCEPTIONS_12}"])
        _check_scan(run.op("scan(1,2)"), arr, ALPHA_12_BEST)

        for pair, want in ((p["nonregular"], None), (p["regular"], math.pi)):
            seq = run.op(f"seq{pair}")
            if seq.error is None:
                _flag(seq, checks.sequence_problems(seq.result.terms, pair, p["n_pair"]))
            if not seq.failed:
                _check_scan(run.op(f"scan{pair}"),
                            np.array(seq.result.terms, dtype=np.float64), want)


def _fibonacci_bound(terms) -> bool:
    """a_n <= F_(n+1) with F_1 = F_2 = 1, for every n."""
    a, b = 1, 1
    for t in terms:
        if t > b:
            return False
        if b > terms[-1]:
            return True  # every later F_(n+1) is larger still
        a, b = b, a + b
    return True


def _check_scan(op, terms: np.ndarray, want_alpha) -> None:
    """The minimizer is in (0, pi], its value matches a direct evaluation
    and does not exceed the coarse minimum, and it sits at the known
    frequency when there is one."""
    if op.error is not None:
        return
    scan = op.result
    alpha, value = scan.best_alpha, scan.best_value
    direct = float(np.cos(alpha * terms).mean())
    problems = []
    if not 0 < alpha <= math.pi + 1e-12:
        problems.append(f"alpha {alpha} outside (0, pi]")
    if abs(direct - value) > 1e-6:
        problems.append(f"S(alpha)/N = {value}, direct evaluation {direct}")
    if value > float(np.min(scan.sums)) + 1e-12:
        problems.append("refined value exceeds the coarse minimum")
    if want_alpha is not None and abs(alpha - want_alpha) > 1e-4:
        problems.append(f"alpha {alpha}, expected within 1e-4 of {want_alpha}")
    _flag(op, problems)


# ---------------------------------------------------------------------------


class Plane2D(Workload):
    name = "plane2d"
    why = ("criterion-10 column boxes on the dense box branch, plus a seed-drawn "
           "extra-vector set diffed against its oracle; columns gets a real share")

    def inputs(self, seed, smoke):
        rng = random.Random(seed)
        return Inputs(seed, smoke, {
            "box1": (20, 400) if smoke else (60, 2000),
            "box2": (30, 400) if smoke else (70, 3000),
            "periods2": {1, 2, 4} if smoke else {1, 2, 4, 8},
            "extra": rng.choice(EXTRA_VECTORS),
            "box_extra": (60, 60) if smoke else (200, 200),
        })

    def warmup(self, lib):
        lib.core.generate(lib.core.validate_config(COLUMNS_1, 2), lib.core.Bound.box((5, 5)))

    def run_pass(self, run, inp):
        p, core = inp.params, run.lib.core
        for tag, init, box in (("1", COLUMNS_1, p["box1"]), ("2", COLUMNS_2, p["box2"])):
            s = run.call(f"gen{tag}", "core.generate",
                         core.validate_config(init, 2), core.Bound.box(box))
            run.call(f"columns{tag}", "columns.columns_report", s)
            run.call(f"csv{tag}", "cli.set_to_csv", s)
        m, n = p["extra"]
        box = core.Bound.box(p["box_extra"])
        s = run.call("gen_extra", "core.generate",
                     core.validate_config(((1, 0), (0, 1), (m, n)), 2), box)
        run.call("oracle_extra", "verify.compare_set_to_oracle", s, "extra-vector", box, m, n)

    def check(self, run, inp):
        p = inp.params
        rng = np.random.default_rng(inp.seed)
        for tag, init in (("1", COLUMNS_1), ("2", COLUMNS_2)):
            gen = run.op(f"gen{tag}")
            _check_set(gen, rng, init)
            csv = run.op(f"csv{tag}")
            if gen.error is None and csv.error is None:
                _flag(csv, checks.csv_problems(csv.result, gen.result.points, 2))
        width = p["box1"][0]
        rep1 = run.op("columns1")
        if rep1.error is None:
            want = [i for i in NONEMPTY_COLUMNS_10 if i <= width]
            got = rep1.result.nonempty_indices()
            if got != want or rep1.result.violations:
                _flag(rep1, [f"nonempty columns {got}, expected {want}; "
                             f"violations {list(rep1.result.violations)[:2]}"])
        rep2 = run.op("columns2")
        if rep2.error is None:
            found = {prof.period for prof in rep2.result.profiles}
            if not p["periods2"] <= found or rep2.result.violations:
                _flag(rep2, [f"periods {sorted(found)} must include {sorted(p['periods2'])}; "
                             f"violations {list(rep2.result.violations)[:2]}"])
        gen = run.op("gen_extra")
        _check_set(gen, rng, ((1, 0), (0, 1), p["extra"]))
        diff = run.op("oracle_extra")
        if diff.error is None:
            bx, by = p["box_extra"]
            want = (bx + 1) * (by + 1) - 1
            rep = diff.result
            if not rep.ok or rep.checked != want:
                _flag(diff, [f"oracle diff: {len(rep.missing)} missing, {len(rep.extra)} "
                             f"extra, {rep.checked} checked of {want}"])


# ---------------------------------------------------------------------------


class Lattice3D(Workload):
    name = "lattice3d"
    why = ("3-D unit vectors at level 470 on the dense level branch; its 418 MB count "
           "grid is 4x a 105 MB LLC, so memory layout shows (criterion 12s)")

    def inputs(self, seed, smoke):
        return Inputs(seed, smoke, {
            "level": 60 if smoke else 470,
            "plane_level": 40 if smoke else 120,
        })

    def warmup(self, lib):
        lib.core.generate(lib.core.validate_config(UNIT3D, 3), lib.core.Bound.level(5))

    def run_pass(self, run, inp):
        p, core = inp.params, run.lib.core
        s = run.call("gen", "core.generate",
                     core.validate_config(UNIT3D, 3), core.Bound.level(p["level"]))
        run.call("ranking", "verify.angle_ranking", s, interior_only=True)
        run.call("hyperplane", "verify.compare_set_to_oracle", s, "unit3d-hyperplane",
                 core.Bound.level(p["plane_level"]))
        run.call("csv", "cli.set_to_csv", s)

    def check(self, run, inp):
        p = inp.params
        gen = run.op("gen")
        _check_set(gen, np.random.default_rng(inp.seed), UNIT3D)
        if gen.error is not None:
            return
        pts = gen.result.points
        if any(x == y == z for x, y, z in pts):
            _flag(gen, ["a diagonal point is a member"])
        if not inp.smoke and len(pts) != UNIT3D_POINTS_470:
            _flag(gen, [f"{len(pts)} points, expected {UNIT3D_POINTS_470}"])

        rank = run.op("ranking")
        if rank.error is None:
            ranked = rank.result
            interior = [q for q in pts if min(q) >= 1 and 2 not in q]
            angles = [a for _, a in ranked]
            problems = []
            if sorted(q for q, _ in ranked) != sorted(interior):
                problems.append("ranking does not cover exactly the interior members")
            if any(a < b for a, b in zip(angles, angles[1:])):
                problems.append("angles not in descending order")
            if {q for q, _ in ranked[:6]} != _perms(TOP_CLASS):
                problems.append(f"top class {[q for q, _ in ranked[:6]]}")
            if not inp.smoke and {q for q, _ in ranked[6:12]} != _perms(SECOND_CLASS):
                problems.append(f"second class {[q for q, _ in ranked[6:12]]}")
            _flag(rank, problems)

        plane = run.op("hyperplane")
        if plane.error is None:
            lv = p["plane_level"]
            want = (lv - 1) * lv // 2  # (2, y, z) with y + z <= level - 2
            rep = plane.result
            if not rep.ok or rep.checked != want:
                _flag(plane, [f"hyperplane diff: {len(rep.missing)} missing, "
                              f"{len(rep.extra)} extra, {rep.checked} checked of {want}"])
        csv = run.op("csv")
        if csv.error is None:
            _flag(csv, checks.csv_problems(csv.result, pts, 3))


# ---------------------------------------------------------------------------


class SizeFn(Workload):
    name = "sizefn"
    why = ("core.generate under non-canonical size functions, the sparse engine "
           "measured nowhere else; output must equal the filtered dense box")

    def inputs(self, seed, smoke):
        return Inputs(seed, smoke, {
            "euclid_cap": 200 if smoke else 2500,
            "weighted_level": 30 if smoke else 90,
        })

    def warmup(self, lib):
        core = lib.core
        core.generate(core.validate_config(UNIT3D, 3), core.Bound.level(10),
                      core.SizeFunction.euclidean_norm_squared())

    def _configs(self, inp, core):
        return (
            ("euclid", core.validate_config(UNIT3D, 3),
             core.Bound.level(inp.params["euclid_cap"]),
             core.SizeFunction.euclidean_norm_squared()),
            ("weighted", core.validate_config(COLUMNS_1, 2),
             core.Bound.level(inp.params["weighted_level"]),
             core.SizeFunction.weighted_sum((3, "1/2"))),
        )

    def run_pass(self, run, inp):
        for tag, cfg, bound, size in self._configs(inp, run.lib.core):
            run.call(tag, "core.generate", cfg, bound, size)

    def check(self, run, inp):
        core = run.lib.core
        rng = np.random.default_rng(inp.seed)
        for tag, cfg, bound, size in self._configs(inp, core):
            op = run.op(tag)
            _check_set(op, rng, cfg.initials)
            if op.error is not None:
                continue
            # norm independence: the dense box generation over the bounding
            # box of {f <= c}, filtered by f and sorted by (f, lex)
            region = generate_region(op)
            box = core.generate(cfg, core.Bound.box(region.limits))
            coords = checks.as_coords(box.points, cfg.dim)
            keep = region.contains(coords)
            sizes = region.scaled_size(coords).tolist()
            kept = sorted((f, q) for f, q, k in zip(sizes, box.points, keep) if k)
            kept = [q for _, q in kept]
            if list(op.result.points) != kept:
                _flag(op, [f"{len(op.result.points)} points differ from the "
                           f"{len(kept)} of the filtered dense box"])


WORKLOADS = {w.name: w for w in (Seq1D(), Plane2D(), Lattice3D(), SizeFn())}


# Exact work counts per op, and where each comes from.
COUNT_SOURCES = {
    "core.generate.points": "read from output: len(points)",
    "core.grid_cells": "computed from the bound: cells of its bounding box",
    "core.pair_sums": "computed from output: member pairs whose sum is in bound",
    "signal.grid_points": "read from output: len(scan.sums)",
    "columns.symbols": "computed from the box: column-word symbols",
    "verify.points_checked": "read from output: report.checked",
    "cli.csv_bytes": "read from output: len(csv text)",
}


def op_counts(op) -> dict[str, int]:
    if op.error is not None:
        return {}
    r = op.result
    if op.name == "core.generate":
        region = generate_region(op)
        coords = checks.as_coords(r.points, region.dim)
        return {
            "core.generate.points": len(r.points),
            "core.grid_cells": region.cells,
            "core.pair_sums": checks.pair_sums(coords, region),
        }
    if op.name == "signal.alpha_scan":
        return {"signal.grid_points": len(r.sums)}
    if op.name == "columns.columns_report":
        return {"columns.symbols": math.prod(c + 1 for c in op.args[0].bound.limits)}
    if op.name == "verify.compare_set_to_oracle":
        return {"verify.points_checked": r.checked}
    if op.name == "cli.set_to_csv":
        return {"cli.csv_bytes": len(r.encode())}
    return {}
