"""Op runners: every call into the program goes through one of these.

``Runner`` makes the call and records the op (its name, arguments, result
or exception) so the checks and counts can run after the timed pass.  It
takes no timestamps.  ``Tracer`` also keeps one span per op in memory:
name, start, end, parent span and op id.  Spans are written out when the
run ends; layer self times come from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Op:
    """One call into the program, the unit counted by ``attempted``."""

    op_id: int
    key: str  # unique within a pass, e.g. "seq(1,2)"
    name: str  # "<module>.<function>", e.g. "onedim.ulam_sequence"
    args: tuple
    kwargs: dict
    result: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)  # failed checks

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Runner:
    """Untraced runner: calls the function and keeps the op record.

    ``lib`` holds the program's modules by layer name; ``call`` looks the
    function up there, so an op's name is also what it calls.
    """

    def __init__(self, lib):
        self.lib = lib
        self.ops: list[Op] = []

    def call(self, key: str, name: str, *args, **kwargs):
        op = Op(len(self.ops), key, name, args, kwargs)
        self.ops.append(op)
        layer, func = name.split(".")
        fn = getattr(getattr(self.lib, layer), func)
        try:
            op.result = self._invoke(op, fn)
        except Exception as exc:  # a raising op counts as failed, the pass goes on
            op.error = f"{type(exc).__name__}: {exc}"
        return op.result

    def _invoke(self, op: Op, fn):
        return fn(*op.args, **op.kwargs)

    def op(self, key: str) -> Op:
        return next(o for o in self.ops if o.key == key)


@dataclass(frozen=True)
class Span:
    span_id: int
    op_id: int | None  # None for the pass span itself
    parent: int | None
    name: str
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer(Runner):
    """Runner that records a span around every op, under one pass span."""

    def __init__(self, lib):
        super().__init__(lib)
        self.spans: list[Span] = []
        self._pass_start: int | None = None

    def begin_pass(self) -> None:
        self._pass_start = time.perf_counter_ns()

    def end_pass(self) -> None:
        end = time.perf_counter_ns()
        self.spans.append(Span(0, None, None, "pass", self._pass_start, end))

    def _invoke(self, op: Op, fn):
        start = time.perf_counter_ns()
        try:
            return fn(*op.args, **op.kwargs)
        finally:
            end = time.perf_counter_ns()
            self.spans.append(Span(len(self.spans) + 1, op.op_id, 0, op.name, start, end))

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children.

        Spans of one pass run one at a time, so the children of a span do
        not overlap and their durations add up to the covered time.
        """
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
        out: dict[str, float] = {}
        for s in self.spans:
            own = s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)
            out[s.name] = out.get(s.name, 0.0) + own / 1e9
        return out

    def pass_seconds(self) -> float:
        return next(s.seconds for s in self.spans if s.name == "pass")

    def to_json(self) -> list[dict]:
        t0 = min(s.start_ns for s in self.spans)
        return [
            {
                "id": s.span_id,
                "op": s.op_id,
                "parent": s.parent,
                "name": s.name,
                "start_s": (s.start_ns - t0) / 1e9,
                "end_s": (s.end_ns - t0) / 1e9,
            }
            for s in sorted(self.spans, key=lambda s: s.start_ns)
        ]
