"""Spans around calls into dqp's public functions, recorded from outside the package.

``install`` replaces each traced function at every module attribute that
holds it, so a caller that imported the name (``le_engine`` keeps its own
``intersection_number_ring``) is traced as well as one that goes through
the module.  Spans stay in memory as ``[name, start, end, parent, op,
work]`` lists and are written out once, when the run ends.

Each thread keeps its own stack of open spans.  A span opened on a
thread with an empty stack (a ``count_nonzero_y_slice`` worker) takes as
parent the innermost open span of the client thread, which is blocked
waiting for it.  Self time is a span's duration minus the union of its
children's intervals, so parallel children are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from math import comb

NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_labels: dict[int, str] = {}
        self.op: int | None = None
        self.op_span: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, parent, work=0) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, start, end, parent, self.op, work])
        return sid

    def begin(self, name: str, work: int = 0) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._client[-1] if self._client else None
        sid = self.add(name, time.perf_counter(), None, parent, work)
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op: int, label: str) -> int:
        self.op = op
        self.op_labels[op] = label
        self._client = self._stack()
        self.op_span = self.begin("op")
        return self.op_span

    def write(self, path, head: dict) -> None:
        """A first line holding `head`, then one JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(head) + "\n")
            fields = ("name", "start", "end", "parent", "op", "work")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def _wrap(tracer: Tracer, name: str, fn, work=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name, work(*args, **kwargs) if work else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return traced


def _ring_cells(system, *_, **__):
    return len(system.classes) * (system.ambient_n + 1) * (system.ambient_m + 1)


def _fulton_subsets(system, *_, **__):
    return comb(system.ambient_n + system.ambient_m, system.ambient_n)


def _grid_points(spec, prime, *_, **__):
    # Nonzero y-vectors times the x-grid each one sweeps.
    return (prime**spec.p - 1) * prime**spec.matrix_variable_count


# (module, attribute, span name, work derived from the call's inputs)
TARGETS = [
    ("dqp.cli", "main", "cli.main", None),
    ("dqp.cli", "build_parser", "cli.build_parser", None),
    ("dqp.cli", "cmd_invariants", "cli.handler", None),
    ("dqp.cli", "cmd_lecycles", "cli.handler", None),
    ("dqp.cli", "cmd_chow", "cli.handler", None),
    ("dqp.cli", "cmd_closure", "cli.handler", None),
    ("dqp.cli", "cmd_count", "cli.handler", None),
    ("dqp.cli", "cmd_verify", "cli.handler", None),
    ("dqp.verify", "run_verify", "verify.run_verify", None),
    ("dqp.verify", "core_checks", "verify.core", None),
    ("dqp.verify", "chow_checks", "verify.chow", None),
    ("dqp.verify", "closure_checks", "verify.closure", None),
    ("dqp.verify", "ffcount_checks", "verify.ffcount", None),
    ("dqp.le_engine", "det_multiplicity", "le_engine.det_multiplicity", None),
    ("dqp.le_engine", "le_number_via_chow", "le_engine.le_number_via_chow", None),
    ("dqp.le_engine", "underlying_multiplicity_via_chow",
     "le_engine.underlying_multiplicity_via_chow", None),
    ("dqp.chow", "intersection_number_ring", "chow.intersection_number_ring",
     _ring_cells),
    ("dqp.chow", "intersection_number_fulton", "chow.intersection_number_fulton",
     _fulton_subsets),
    ("dqp.integral_closure", "in_integral_closure_newton",
     "integral_closure.in_integral_closure_newton", None),
    ("dqp.integral_closure", "in_integral_closure_facets",
     "integral_closure.in_integral_closure_facets", None),
    ("dqp.integral_closure", "in_integral_closure_valuative",
     "integral_closure.in_integral_closure_valuative", None),
    ("dqp.integral_closure", "default_witnesses",
     "integral_closure.default_witnesses", None),
    ("dqp.integral_closure", "is_reduction", "integral_closure.is_reduction", None),
    ("dqp.ffcount", "count_points", "ffcount.count_points", _grid_points),
    ("dqp.ffcount", "count_nonzero_y_slice", "ffcount.count_nonzero_y_slice", None),
    ("dqp.ffcount", "counting_polynomial", "ffcount.counting_polynomial", None),
]

CORE_FUNCTIONS = [
    "validate_params",
    "minimal_params",
    "milnor_sphere_dimension",
    "reduced_euler_characteristic",
    "le_numbers",
    "polar_multiplicities_sigma1",
    "euler_obstruction_sigma1",
    "euler_obstruction_hypersurface",
    "verify_massey_identity",
]

REPORT_METHODS = ["render_json", "render_table", "render_csv"]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function at each dqp module attribute bound to it.

    Returns what ``restore`` needs to put the originals back.
    """
    import dqp.cli  # noqa: F401  (loads every dqp module)

    targets = TARGETS + [("dqp.core", f, "core." + f, None) for f in CORE_FUNCTIONS]
    modules = [m for n, m in list(sys.modules.items()) if n == "dqp" or n.startswith("dqp.")]
    undo = []
    for module_name, attr, name, work in targets:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(tracer, name, original, work)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    report_cls = sys.modules["dqp.report"].Report
    for method in REPORT_METHODS:
        original = getattr(report_cls, method)
        undo.append((report_cls, method, original))
        setattr(report_cls, method, _wrap(tracer, "report.render", original))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, key, original in undo:
        setattr(owner, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


SUITES = ["core", "chow", "closure", "ffcount"]
# Spans the traced cli-mix child adds around its own start-up and exit.
CLI_PHASES = ["cli.interpreter", "cli.import", "cli.exit"]


def _function_names() -> list[str]:
    """Traced functions reported by self time and calls; suites report totals too."""
    suites = {"verify." + s for s in SUITES}
    names = [name for _, _, name, _ in TARGETS if name not in suites]
    return list(dict.fromkeys(names + ["report.render"]))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [
        ("cli.interpreter_floor_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.import_numpy_ms", "ms"),
    ]
    for phase in CLI_PHASES:
        names.append((phase + ".self_ms", "ms"))
    for fn in _function_names():
        names += [(fn + ".self_ms", "ms"), (fn + ".calls", "count")]
    names += [("core.self_ms", "ms"), ("core.calls", "count")]
    for suite in SUITES:
        names += [(f"verify.{suite}.total_ms", "ms"), (f"verify.{suite}.self_ms", "ms")]
    names += [
        ("chow.ring_cells_per_s", "cells/s"),
        ("chow.fulton_subsets_per_s", "subsets/s"),
        ("ffcount.points_per_s", "points/s"),
        ("le_engine.det_multiplicity.p8_share", "ratio"),
        ("cli.lecycles.ring_calls_per_index", "ratio"),
        ("op.total_ms", "ms"),
        ("op.self_ms", "ms"),
        ("trace.ops", "count"),
        ("trace.accounted_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-op self times and call counts by layer, and rates of computed work.

    Times and calls are means per traced op.  The three rates divide work
    derived from each call's inputs (not counted inside dqp) by the
    calls' inclusive time.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops = len(tracer.op_labels)
    self_ms: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        name = span[NAME]
        key = "core" if name.startswith("core.") else name
        self_ms[key] += own * 1e3
        total[key] += (span[END] - span[START]) * 1e3
        calls[key] += 1
        work[key] += span[WORK]
    values: dict[str, float] = {}
    for phase in CLI_PHASES:
        values[phase + ".self_ms"] = _ratio(self_ms[phase], ops)
    for fn in _function_names() + ["core"]:
        values[fn + ".self_ms"] = _ratio(self_ms[fn], ops)
        values[fn + ".calls"] = _ratio(calls[fn], ops)
    for suite in SUITES:
        values[f"verify.{suite}.total_ms"] = _ratio(total["verify." + suite], ops)
        values[f"verify.{suite}.self_ms"] = _ratio(self_ms["verify." + suite], ops)
    for metric, fn in (
        ("chow.ring_cells_per_s", "chow.intersection_number_ring"),
        ("chow.fulton_subsets_per_s", "chow.intersection_number_fulton"),
        ("ffcount.points_per_s", "ffcount.count_points"),
    ):
        values[metric] = _ratio(work[fn], total[fn] / 1e3)

    labels = tracer.op_labels
    p8_ops = {op for op, label in labels.items() if label == "verify-p8"}
    det_ms = sum(
        (s[END] - s[START]) * 1e3
        for s in spans
        if s[NAME] == "le_engine.det_multiplicity" and s[OP] in p8_ops
    )
    p8_ms = sum(
        (s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "op" and s[OP] in p8_ops
    )
    values["le_engine.det_multiplicity.p8_share"] = _ratio(det_ms, p8_ms)
    indices = {
        op: int(label.split(":")[1])
        for op, label in labels.items()
        if label.startswith("lecycles:")
    }
    ring_in_lecycles = sum(
        1 for s in spans if s[NAME] == "chow.intersection_number_ring" and s[OP] in indices
    )
    values["cli.lecycles.ring_calls_per_index"] = _ratio(
        ring_in_lecycles, sum(indices.values())
    )
    values["op.total_ms"] = _ratio(total["op"], ops)
    values["op.self_ms"] = _ratio(self_ms["op"], ops)
    values["trace.ops"] = float(ops)
    values["trace.accounted_share"] = 1.0 - _ratio(self_ms["op"], total["op"])
    return values
