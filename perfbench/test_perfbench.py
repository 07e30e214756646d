"""Tests of the benchmark itself: smoke sizes pass, tampered outputs fail.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import fcntl
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from spans import Runner, Tracer
from workloads import WORKLOADS

LIB = run.load_program()
HERE = Path(__file__).resolve().parent


def _tally(workload, runner_cls=Runner, seed=3, known=None):
    inp = workload.inputs(seed, smoke=True)
    runner = runner_cls(LIB)
    workload.run_pass(runner, inp)
    tally = run.Tally(workload, inp, {} if known is None else known)
    tally.add(runner)
    return runner, tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_is_correct(name):
    runner, tally = _tally(WORKLOADS[name], Tracer)
    assert tally.attempted == len(runner.ops) > 0
    assert tally.failed == 0, tally.problems


def _drop_point(result):
    if hasattr(result, "terms"):
        terms = result.terms
        return dataclasses.replace(result, terms=terms[:100] + terms[101:])
    i = len(result.points) // 2
    points = result.points[:i] + result.points[i + 1:]
    levels = result.levels[:i] + result.levels[i + 1:]
    return dataclasses.replace(result, points=points, levels=levels,
                               members=frozenset(points))


def _add_point(result):
    """Insert the smallest in-bound non-member at its sorted position."""
    if hasattr(result, "terms"):
        extra = next(v for v in itertools.count(1) if v not in result.terms)
        return dataclasses.replace(result, terms=tuple(sorted(result.terms + (extra,))))
    limits = checks.Region.of(result.bound, result.sizefn, result.dim).limits
    for p in itertools.product(*(range(c + 1) for c in limits)):
        level = result.sizefn.value(p)
        if any(p) and p not in result.members and result.bound.contains(p, level):
            break
    pairs = sorted(zip(result.levels, result.points))
    pairs.append((level, p))
    pairs.sort()
    points = tuple(q for _, q in pairs)
    return dataclasses.replace(result, points=points, levels=tuple(lv for lv, _ in pairs),
                               members=frozenset(points))


TAMPER_CASES = [
    ("seq1d", "seq(1,2)"),
    ("plane2d", "gen1"),
    ("plane2d", "gen_extra"),
    ("lattice3d", "gen"),
    ("sizefn", "euclid"),
    ("sizefn", "weighted"),
]


@pytest.mark.parametrize("change", [_drop_point, _add_point])
@pytest.mark.parametrize("name,key", TAMPER_CASES)
def test_tampered_output_is_a_failed_op(name, key, change):
    class Tamper(Runner):
        def _invoke(self, op, fn):
            result = fn(*op.args, **op.kwargs)
            return change(result) if op.key == key else result

    runner, tally = _tally(WORKLOADS[name], Tamper)
    assert runner.op(key).failed
    assert tally.failed >= 1


def test_sampled_representation_check_can_fail(monkeypatch):
    monkeypatch.setattr(checks, "FFT_CELL_LIMIT", 0)  # force the sampled path

    class Tamper(Runner):
        def _invoke(self, op, fn):
            result = fn(*op.args, **op.kwargs)
            return _add_point(result) if op.key == "gen" else result

    _, clean = _tally(WORKLOADS["lattice3d"])
    runner, tally = _tally(WORKLOADS["lattice3d"], Tamper)
    assert clean.failed == 0 and runner.op("gen").failed


def test_later_pass_is_checked_when_its_output_changes():
    class Tamper(Runner):
        def _invoke(self, op, fn):
            result = fn(*op.args, **op.kwargs)
            return _drop_point(result) if op.key == "euclid" else result

    workload = WORKLOADS["sizefn"]
    inp = workload.inputs(3, smoke=True)
    tally = run.Tally(workload, inp, {})
    for runner_cls in (Runner, Tracer, Tamper):
        runner = runner_cls(LIB)
        workload.run_pass(runner, inp)
        tally.add(runner)
    assert tally.attempted == 6 and tally.failed == 1
    assert runner.op("euclid").failed


def test_raising_op_is_a_failed_op():
    class Broken(Runner):
        def _invoke(self, op, fn):
            if op.key == "scan(1,2)":
                raise ValueError("broken on purpose")
            return fn(*op.args, **op.kwargs)

    runner, tally = _tally(WORKLOADS["seq1d"], Broken)
    assert runner.op("scan(1,2)").error.startswith("ValueError")
    assert tally.failed == 1


def test_counts_must_repeat_exactly():
    known = {}
    _, first = _tally(WORKLOADS["plane2d"], known=known)
    assert first.failed == 0 and known["gen1"]["core.pair_sums"] > 0
    known["gen1"]["core.pair_sums"] += 1
    runner, again = _tally(WORKLOADS["plane2d"], known=known)
    assert runner.op("gen1").failed and again.failed == 1


def test_pair_sums_match_brute_force():
    core = LIB.core
    cfg = core.validate_config(((1, 0), (2, 0), (0, 1)), 2)
    for bound, size in ((core.Bound.box((9, 12)), None),
                        (core.Bound.level(14), None),
                        (core.Bound.level(40), core.SizeFunction.euclidean_norm_squared())):
        s = core.generate(cfg, bound, size)
        region = checks.Region.of(bound, size, 2)
        want = sum(
            1 for u, v in itertools.combinations(s.points, 2)
            if region.contains(checks.as_coords([tuple(a + b for a, b in zip(u, v))], 2))[0]
        )
        assert checks.pair_sums(checks.as_coords(s.points, 2), region) == want


def test_cli_prints_result_line_and_refuses_overlap():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "sizefn", "--seed", "1",
           "--seconds", "0.1", "--trace", "0", "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END) and result["correct"]
    record = json.loads((run.STATE_DIR / "sizefn-seed1-smoke-trace0.json").read_text())
    assert len(record["reference_samples_s"]) == len(record["setup_samples_s"]) == run.PROBES
    for key, measured in record["measured_s"].items():
        assert result["metrics"][key]["value"] == pytest.approx(measured / record["host_slowdown"])

    run.STATE_DIR.mkdir(exist_ok=True)
    with open(run.STATE_DIR / "lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3 and not done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "seq1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()
    # the reference needs no program: its time follows the host only
    done = subprocess.run([sys.executable, f"{HERE.name}/reference.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
