"""ulamset benchmark: one workload per run, one op at a time.

    python3 perfbench/run.py --workload seq1d --seed 1 --seconds 30 --trace 0

Workloads: seq1d, plane2d, lattice3d, sizefn (see perfbench/README.md;
BENCHMARK.json lists seq1d and plane2d).
The run imports the program from ``src/`` of the checkout it sits in, sets
up, then repeats untraced passes of the workload's ops until ``--seconds``
of pass time have been spent (at least one pass).  Every pass is checked
after it ends, outside the timed region.  Set-up is timed in fresh
interpreters, half before the first pass and the rest after the passes;
each set-up probe is followed by a probe of ``reference.py``, a fixed
computation that does not touch the program.  ``wall_s`` and ``setup_s``
are given at the reference speed of the host: the measured seconds times
``REFERENCE_S`` over the run's mean reference time (see perfbench/README.md).
With ``--trace 1`` one more pass runs with a span around every op; it gives
the per-layer metrics.

Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` ops, and the metrics (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  The lines before it give every metric computed in the
run with its unit, the check failure ratio and the machine record.  State
(a lock, the exact counts seen so far, one result file per run) goes to
``.perfbench/`` in the checkout.  Exit status: 0 when every op passed its
checks, 1 when one failed, 2 when the program cannot be loaded, 3 when
another run holds the lock.
"""

from __future__ import annotations

import argparse
import fcntl
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
from machine import machine_record
from spans import Runner, Tracer
from workloads import COUNT_SOURCES, WORKLOADS, op_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
LAYERS = ("onedim", "signal", "core", "columns", "verify", "cli")
# Probes per run: each is one set-up and one reference computation.  The
# host alternates between a fast and a ~1.5x slower state for seconds to
# minutes, so a single probe reads one of two values; the mean of probes
# spread over the run moves with the share of slow time, where a median
# would jump between the two values when that share crosses one half.
PROBES = 6
PROBES_BEFORE = 3  # of them before the first pass
# Mean time of one reference probe on the tuning machine (2-vCPU Xeon, its
# usual state).  Times are reported at this reference speed, so that a
# drift of the shared host between runs cancels out of the metrics.
REFERENCE_S = 0.40

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TIMED_CALLS = (
    "onedim.ulam_sequence",
    "signal.alpha_scan",
    "signal.cosine_sum",
    "signal.sign_exception_set",
    "core.generate",
    "columns.columns_report",
    "verify.compare_set_to_oracle",
    "verify.angle_ranking",
    "cli.set_to_csv",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_CALLS},
    "onedim.terms_per_s": "1/s",
    "core.pair_sums_per_s": "1/s",
    **{name: "count" for name in COUNT_SOURCES},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import the layers from this checkout's ``src/``, and only from there."""
    src = ROOT / "src"
    if not (src / "ulamset" / "__init__.py").is_file():
        raise ProgramMissing(f"no ulamset package under {src}")
    sys.path.insert(0, str(src))
    lib = SimpleNamespace(
        **{layer: importlib.import_module(f"ulamset.{layer}") for layer in LAYERS}
    )
    if src not in Path(lib.core.__file__).resolve().parents:
        raise ProgramMissing(f"ulamset was imported from {lib.core.__file__}, not {src}")
    return lib


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs that run in seconds (the benchmark's tests)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up and exit; the parent times this from outside")
    return ap.parse_args(argv)


def time_child(cmd: list[str]) -> float:
    """Seconds a child interpreter takes, from start to exit."""
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:]} failed: {done.stderr.strip()[-500:]}")
    return elapsed


class Probes:
    """Set-up and reference probes of one run.

    A set-up probe is a fresh interpreter that imports the program, makes
    one warm-up call and generates the inputs.  A reference probe runs
    ``reference.py``, which does not touch the program; it follows each
    set-up probe, so the two sample the host in the same moments.
    """

    def __init__(self, args):
        self.setup_cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                          "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.setup_cmd.append("--smoke")
        self.setup: list[float] = []
        self.reference: list[float] = []

    def take(self) -> None:
        self.setup.append(time_child(self.setup_cmd))
        self.reference.append(time_child([sys.executable, str(HERE / "reference.py")]))

    def fill(self, n: int) -> None:
        while len(self.setup) < n:
            self.take()

    def slowdown(self) -> float:
        """How much slower the host ran than at ``REFERENCE_S``."""
        return statistics.fmean(self.reference) / REFERENCE_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tally:
    """Checks every pass, counts ops, and holds counts to repeat exactly.

    A pass whose outputs equal, op by op, those of an earlier pass that
    passed every check is correct without checking it again; this keeps the
    cost of checks from growing with the number of passes.
    """

    def __init__(self, workload, inp, known: dict):
        self.workload = workload
        self.inp = inp
        self.known = known  # op key -> counts, from earlier passes and runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked: dict | None = None  # op key -> result of a clean pass
        self.checked_counts: dict = {}

    def _same_as_checked(self, runner) -> bool:
        return (
            self.checked is not None
            and len(runner.ops) == len(self.checked)
            and all(op.error is None and op.key in self.checked
                    and checks.same_output(op.result, self.checked[op.key])
                    for op in runner.ops)
        )

    def add(self, runner) -> dict[str, dict[str, int]]:
        self.attempted += len(runner.ops)
        if self._same_as_checked(runner):
            return self.checked_counts
        try:
            self.workload.check(runner, self.inp)
        except Exception as exc:  # a malformed output can break a check
            for op in runner.ops:
                op.problems.append(f"check raised {type(exc).__name__}: {exc}")
        counts = {}
        for op in runner.ops:
            try:
                counts[op.key] = op_counts(op)
            except Exception as exc:
                op.problems.append(f"count raised {type(exc).__name__}: {exc}")
                continue
            seen = self.known.setdefault(op.key, counts[op.key])
            if seen != counts[op.key]:
                op.problems.append(f"counts {counts[op.key]} differ from earlier {seen}")
        failed = [op for op in runner.ops if op.failed]
        for op in failed:
            self.failed += 1
            self.problems.append(f"{op.key} ({op.name}): {op.error or '; '.join(op.problems)}")
        if not failed and self.checked is None:
            self.checked = {op.key: op.result for op in runner.ops}
            self.checked_counts = counts
        return counts


def layer_metrics(tracer: Tracer, counts, inp, untraced_wall: float) -> dict[str, float]:
    own = tracer.self_seconds()
    wall = tracer.pass_seconds()
    out = {f"{name}.s": own.get(name, 0.0) for name in TIMED_CALLS}
    main = [s for s in tracer.spans if s.op_id is not None
            and tracer.ops[s.op_id].key == "seq(1,2)"]
    out["onedim.terms_per_s"] = inp.params["n_main"] / main[0].seconds if main else 0.0
    for name in COUNT_SOURCES:
        out[name] = sum(c.get(name, 0) for c in counts.values())
    gen = out["core.generate.s"]
    out["core.pair_sums_per_s"] = out["core.pair_sums"] / gen if gen > 0 else 0.0
    for layer in LAYERS:
        layer_s = sum(v for k, v in own.items() if k.startswith(layer + "."))
        out[f"{layer}.share"] = layer_s / wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    return {name: out[name] for name in PER_LAYER}


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def run(args, lib) -> int:
    workload = WORKLOADS[args.workload]
    machine = machine_record(ROOT)
    probes = Probes(args)
    probes.fill(PROBES_BEFORE)
    workload.warmup(lib)
    inp = workload.inputs(args.seed, args.smoke)

    counts_path = STATE_DIR / "counts.json"
    all_known = _load_json(counts_path)
    run_key = f"{workload.name}/seed={args.seed}/{'smoke' if args.smoke else 'full'}"
    tally = Tally(workload, inp, all_known.setdefault(run_key, {}))

    walls: list[float] = []
    peak = None
    while not walls or sum(walls) < args.seconds:
        runner = Runner(lib)
        t0 = time.perf_counter()
        workload.run_pass(runner, inp)
        walls.append(time.perf_counter() - t0)
        if peak is None:
            peak = peak_rss_mb()  # before any check allocates
        counts = tally.add(runner)
        del runner
        if len(probes.setup) < PROBES:
            probes.take()
    probes.fill(PROBES)
    slowdown = probes.slowdown()
    measured = {"wall_s": statistics.median(walls),
                "setup_s": statistics.fmean(probes.setup)}
    end_to_end = {
        "wall_s": measured["wall_s"] / slowdown,
        "peak_rss_mb": peak,
        "setup_s": measured["setup_s"] / slowdown,
    }

    per_layer = spans = None
    if args.trace:
        tracer = Tracer(lib)
        tracer.begin_pass()
        workload.run_pass(tracer, inp)
        tracer.end_pass()
        counts = tally.add(tracer)
        per_layer = layer_metrics(tracer, counts, inp, measured["wall_s"])
        spans = tracer.to_json()
        del tracer

    counts_path.write_text(json.dumps(all_known, indent=1, sort_keys=True))
    correct = tally.failed == 0
    record = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "seconds": args.seconds, "machine": machine,
        "inputs": {k: sorted(v) if isinstance(v, set) else v for k, v in inp.params.items()},
        "setup_samples_s": probes.setup, "reference_samples_s": probes.reference,
        "host_slowdown": slowdown, "pass_walls_s": walls,
        "measured_s": measured, "end_to_end": end_to_end, "per_layer": per_layer, "counts": counts,
        "count_sources": COUNT_SOURCES, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems, "spans": spans,
    }
    name = f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}-trace{args.trace}"
    (STATE_DIR / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"perfbench {workload.name} seed={args.seed} passes={len(walls)} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(machine))
    for key, value in end_to_end.items():
        note = f"  (measured {measured[key]:.6g} s)" if key in measured else ""
        print(f"end_to_end {key} = {value:.6g} {END_TO_END[key]}{note}")
    print(f"host slowdown = {slowdown:.4g} (mean reference probe over {REFERENCE_S} s)")
    print(f"end_to_end check_fail_ratio = {tally.failed}/{tally.attempted} ops")
    for key, value in (per_layer or {}).items():
        source = f"  ({COUNT_SOURCES[key]})" if key in COUNT_SOURCES else ""
        print(f"per_layer {key} = {value:.6g} {PER_LAYER[key]}{source}")
    for line in tally.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    chosen, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload].warmup(lib)
        WORKLOADS[args.workload].inputs(args.seed, args.smoke)
        return 0
    STATE_DIR.mkdir(exist_ok=True)
    with open(STATE_DIR / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("perfbench: another workload is running in this checkout; "
                  "runs must not overlap", file=sys.stderr)
            return 3
        return run(args, lib)


if __name__ == "__main__":
    sys.exit(main())
