"""Per-layer tracing from outside the package.

``Tracer`` replaces public functions and methods of each ``aircell``
module with timing wrappers while it is active, and puts the originals
back when it exits. Nothing under ``src/`` knows it is being traced.

Each wrapped call is a span with a name, start, end and parent. Every
span feeds per-name totals (calls, inclusive seconds, self seconds, direct
wrapped children) as it ends; self time is the span's duration minus the
time its child spans cover. Raw (id, name, start, end, parent) records are
kept for the coarse spans only: the hot leaves (``ClientCache.tick`` alone
runs once per client per slot, millions of times a run) are totalled but
not stored, so a traced run stays small in memory. A stored span's parent
is the nearest enclosing stored span.

A child covers its parent from the wrapper's first statement to its last,
so the wrapper's own bookkeeping (stack, totals, span records, counters)
is charged to no span. What the stamps cannot see, the call into the
wrapper and back and the timer calls themselves, is a fixed cost per call;
``Tracer.calibrate`` measures it on an empty method as the tracer is
entered and again as it exits, since the host's speed drifts, and
``self_s`` and ``inclusive_s`` take it off: the part outside the child's
stamps from the parent, the part inside from the child.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = (
    "sim", "freshness", "cache", "p2p", "broadcast_plan", "air_schedule",
    "retrieval", "fidelity",
)


def _count_insert(counts, result, args):
    counts["cache.insert.admitted"] += result.admitted
    counts["cache.evictions"] += result.evicted is not None


def _count_tick(counts, result, args):
    counts["cache.tick.actions"] += len(result)


def _count_resolve(counts, result, args):
    counts["p2p.tier." + result.resolution.value] += 1


def _count_answer(counts, result, args):
    counts["p2p.neighbor_query.answered"] += result is not None


def _count_partition(counts, result, args):
    counts["broadcast_plan.partition.feasible"] += result.feasible


def _count_advance(counts, result, args):
    counts["broadcast_plan.batch.saved"] += sum(m.saved_transmissions for m in result)


def _count_feasible(counts, result, args):
    models, domain, available, points = args
    counts["fidelity.feasible_configs.kept"] += len(result)
    counts["fidelity.feasible_configs.grid"] += len(domain.grid(points))


def _count_selection(counts, result, args):
    counts["fidelity.suppliers.offered"] += len(args[0])
    counts["fidelity.suppliers.visited"] += len(result.evaluated_suppliers)


# (module, class or None, attribute, span name, store raw spans, counter)
TARGETS = (
    ("sim", None, "scenario_from_dict", "sim.scenario_from_dict", True, None),
    ("sim", None, "run", "sim.run", True, None),
    ("sim", None, "generate_workload", "sim.generate_workload", True, None),
    ("sim", "Metrics", "to_json_bytes", "sim.to_json_bytes", True, None),
    ("freshness", "SourceObject", "read", "freshness.read", False, None),
    ("freshness", "SourceObject", "write", "freshness.write", False, None),
    ("freshness", "UpdateLog", "stats", "freshness.stats", False, None),
    ("freshness", None, "p_not_modified_or_zero", "freshness.p_nm", False, None),
    ("cache", "ClientCache", "insert", "cache.insert", True, _count_insert),
    ("cache", "ClientCache", "score", "cache.score", False, None),
    ("cache", "ReadTracker", "stats_for", "cache.stats_for", False, None),
    ("cache", "ClientCache", "tick", "cache.tick", False, _count_tick),
    ("p2p", "InformationManager", "resolve_query", "p2p.resolve", True, _count_resolve),
    ("p2p", "InformationManager", "handle_neighbor_query", "p2p.neighbor_query",
     False, _count_answer),
    ("broadcast_plan", None, "partition_objects", "broadcast_plan.partition",
     True, _count_partition),
    ("broadcast_plan", None, "optimize_bandwidth_split", "broadcast_plan.split",
     False, None),
    ("broadcast_plan", "BatchingServer", "submit", "broadcast_plan.batch.submit",
     False, None),
    ("broadcast_plan", "BatchingServer", "advance", "broadcast_plan.batch.advance",
     True, _count_advance),
    ("air_schedule", None, "build_program", "air_schedule.build_program", True, None),
    ("air_schedule", None, "next_index_read_end", "air_schedule.next_index_read_end",
     False, None),
    ("retrieval", None, "row_scan", "retrieval.row_scan", True, None),
    ("retrieval", None, "next_object_access", "retrieval.next_object_access",
     True, None),
    ("retrieval", None, "tsp_order", "retrieval.tsp_order", True, None),
    ("retrieval", None, "brute_force", "retrieval.brute_force", True, None),
    ("retrieval", None, "simulate_order", "retrieval.simulate_order", False, None),
    ("fidelity", None, "fit_models", "fidelity.fit_models", True, None),
    ("fidelity", None, "feasible_configs", "fidelity.feasible_configs",
     True, _count_feasible),
    ("fidelity", None, "maximize_utility", "fidelity.maximize_utility",
     True, _count_selection),
    ("fidelity", None, "config_utility", "fidelity.config_utility", False, None),
)


CALIBRATION_CALLS = 20_000
CALIBRATION_TRIALS = 5


class _CalibrationTarget:
    """What calibration calls: most hot targets are methods with one argument."""

    def method(self, arg):
        return arg


_RAISED = object()


def _wrapper(fn, index, keep, counter, totals, stack, spans, ids, counts, root_s):
    """``fn`` timed as span ``index``; see the module docstring."""

    def traced(*args, **kwargs):
        entered = perf_counter()
        parent = stack[-1][1] if stack else -1
        frame = [0.0, next(ids) if keep else parent, 0, 0, 0.0]
        stack.append(frame)
        result = _RAISED
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            took = end - start
            totals[0] += 1
            totals[1] += took
            totals[2] += took - frame[0]
            totals[3] += frame[2]
            totals[4] += frame[3]
            totals[5] += frame[4]
            if keep:
                spans.append((frame[1], index, start, end, parent, frame[3], frame[4]))
            if counter is not None and result is not _RAISED:
                counter(counts, result, args)
            if stack:
                outer = stack[-1]
                covered = perf_counter() - entered
                outer[0] += covered
                outer[2] += 1
                outer[3] += 1 + frame[3]
                outer[4] += covered - took + frame[4]
            else:
                root_s[0] += took
        return result

    return traced


class Tracer:
    """Context manager that traces every target while active."""

    def __init__(self, aircell):
        self.aircell = aircell
        self.names = [t[3] for t in TARGETS]
        # calls, inclusive s, uncorrected self s, direct wrapped children,
        # all wrapped descendants, descendants' measured bookkeeping s
        self.totals = {name: [0, 0.0, 0.0, 0, 0, 0.0] for name in self.names}
        self.counts: Counter[str] = Counter()
        # (id, name index, start, end, parent, descendants, their bookkeeping s)
        self.spans: list[tuple[int, int, float, float, int, int, float]] = []
        self.root_s = [0.0]  # seconds inside spans that have no parent span
        # per-call wrapper seconds: the mean of the calibrations on entry and exit
        self.outside_s = self.inside_s = 0.0
        self._calibrations: list[tuple[float, float]] = []
        # one frame per open span, fields as in ``totals`` from the third on:
        # [child seconds, nearest stored span id, children, descendants,
        #  descendants' bookkeeping seconds]
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.calibrate()
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [getattr(self.aircell, name) for name in LAYERS]
        for index, (layer, owner, attr, _, keep, counter) in enumerate(TARGETS):
            module = getattr(self.aircell, layer)
            if owner is None:
                original = getattr(module, attr)
                wrapper = self._wrap(original, index, keep, counter)
                # also rebind copies made by ``from .module import name``
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
            else:
                cls = getattr(module, owner)
                original = vars(cls)[attr]
                self._patch(cls, attr, self._wrap(original, index, keep, counter))

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        self.calibrate()

    def _patch(self, holder, key, value) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def _wrap(self, fn, index, keep, counter):
        return _wrapper(fn, index, keep, counter, self.totals[self.names[index]],
                        self._stack, self.spans, self._ids, self.counts, self.root_s)

    def calibrate(self) -> None:
        """Measure the per-call wrapper cost the span stamps miss, in seconds.

        Times an empty method called plainly and through a wrapper that has
        a parent frame, each loop less an empty loop, and keeps the median
        of ``CALIBRATION_TRIALS`` trials of each share.
        """
        totals, stack = [0, 0.0, 0.0, 0, 0, 0.0], [[0.0, -1, 0, 0, 0.0]]
        plain = _CalibrationTarget()
        traced = type("_TracedTarget", (), {"method": _wrapper(
            _CalibrationTarget.method, -1, False, None, totals, stack, [],
            itertools.count(), Counter(), [0.0])})()
        calls = range(CALIBRATION_CALLS)
        outside, inside = [], []
        for _ in range(CALIBRATION_TRIALS):
            covered, took = stack[0][0], totals[1]
            t0 = perf_counter()
            for _ in calls:
                pass
            t1 = perf_counter()
            for _ in calls:
                plain.method(None)
            t2 = perf_counter()
            for _ in calls:
                traced.method(None)
            t3 = perf_counter()
            loop = t1 - t0
            outside.append((t3 - t2 - loop - (stack[0][0] - covered)) / len(calls))
            inside.append((totals[1] - took - (t2 - t1 - loop)) / len(calls))
        self._calibrations.append(
            (statistics.median(outside), statistics.median(inside)))
        self.outside_s = statistics.fmean(c[0] for c in self._calibrations)
        self.inside_s = statistics.fmean(c[1] for c in self._calibrations)

    # -- results ----------------------------------------------------------

    def self_s(self, name: str) -> float:
        """Self seconds of one span name, less the calibrated wrapper cost."""
        calls, _, own, children, _, _ = self.totals[name]
        return own - calls * self.inside_s - children * self.outside_s

    def inclusive_s(self, name: str) -> float:
        """Inclusive seconds of one span name, less every wrapper's cost in it."""
        calls, took, _, _, descendants, bookkeeping = self.totals[name]
        return (took - bookkeeping - calls * self.inside_s
                - descendants * (self.inside_s + self.outside_s))

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name in self.totals:
            out[name.split(".", 1)[0]] += self.self_s(name)
        return out

    def span_durations(self, name: str) -> list[float]:
        """Durations of one name's stored spans less wrapper cost, in start order."""
        index = self.names.index(name)
        per_descendant = self.inside_s + self.outside_s
        return [
            end - start - bookkeeping - self.inside_s - descendants * per_descendant
            for _, _, start, end, _, descendants, bookkeeping in sorted(
                (s for s in self.spans if s[1] == index), key=lambda s: s[2])
        ]

    def write(self, path: Path, origin: float) -> None:
        """Stored spans (raw stamps relative to ``origin``), corrected totals, counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [
                [sid, idx, start - origin, end - origin, parent]
                for sid, idx, start, end, parent, _, _ in self.spans
            ],
            "totals": {
                name: {"calls": t[0], "s": self.inclusive_s(name),
                       "self_s": self.self_s(name)}
                for name, t in self.totals.items()
            },
            "wrapper_s_per_call": {"outside": self.outside_s, "inside": self.inside_s},
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))


def late_over_early(durations: list[float]) -> float:
    """Mean of the last quarter of durations over the mean of the first."""
    quarter = len(durations) // 4
    if quarter == 0:
        return 0.0
    early = statistics.fmean(durations[:quarter])
    late = statistics.fmean(durations[-quarter:])
    return late / early


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, duration_slots: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; 0 where a layer is not reached.

    Seconds are multiplied by ``scale``; counts and ratios are not.
    """
    t, c = tracer.totals, tracer.counts
    calls = {name: v[0] for name, v in t.items()}
    secs = {name: tracer.inclusive_s(name) * scale for name in t}
    self_s = {name: tracer.self_s(name) * scale for name in t}
    out: dict[str, float] = {}

    for name in ("sim.generate_workload", "sim.to_json_bytes", "sim.scenario_from_dict"):
        out[name + ".s"] = secs[name]
    out["sim.run.self_s"] = self_s["sim.run"]
    out["sim.run.self_us_per_slot"] = _ratio(self_s["sim.run"] * 1e6, duration_slots)

    for name in ("freshness.read", "freshness.stats", "freshness.p_nm",
                 "cache.insert", "cache.score", "cache.stats_for", "cache.tick",
                 "broadcast_plan.partition", "broadcast_plan.split",
                 "broadcast_plan.batch.advance", "air_schedule.build_program",
                 "air_schedule.next_index_read_end", "retrieval.row_scan",
                 "retrieval.next_object_access", "retrieval.tsp_order",
                 "retrieval.brute_force"):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = secs[name]
    for name in ("freshness.write", "broadcast_plan.batch.submit",
                 "retrieval.simulate_order", "fidelity.config_utility",
                 "p2p.neighbor_query", "p2p.resolve"):
        out[name + ".calls"] = calls[name]
    out["freshness.writes_per_read"] = _ratio(calls["freshness.write"],
                                              calls["freshness.read"])

    out["cache.admit_ratio"] = _ratio(c["cache.insert.admitted"], calls["cache.insert"])
    out["cache.evictions"] = c["cache.evictions"]
    out["cache.tick.actions"] = c["cache.tick.actions"]

    out["p2p.resolve.self_s"] = self_s["p2p.resolve"]
    for tier in ("local_cache", "local_provider", "neighbor_cache",
                 "neighbor_provider", "source", "unresolved"):
        out["p2p.tier." + tier] = c["p2p.tier." + tier]
    out["p2p.neighbor_answer_ratio"] = _ratio(
        c["p2p.neighbor_query.answered"], calls["p2p.neighbor_query"])
    out["p2p.resolve.late_over_early"] = late_over_early(
        tracer.span_durations("p2p.resolve"))

    out["broadcast_plan.partition.feasible_ratio"] = _ratio(
        c["broadcast_plan.partition.feasible"], calls["broadcast_plan.partition"])
    out["broadcast_plan.batch.saved_ratio"] = _ratio(
        c["broadcast_plan.batch.saved"], calls["broadcast_plan.batch.submit"])

    for name in ("fidelity.fit_models", "fidelity.feasible_configs",
                 "fidelity.maximize_utility"):
        out[name + ".s"] = secs[name]
    out["fidelity.feasible_ratio"] = _ratio(
        c["fidelity.feasible_configs.kept"], c["fidelity.feasible_configs.grid"])
    out["fidelity.suppliers_skipped_ratio"] = 1.0 - _ratio(
        c["fidelity.suppliers.visited"], c["fidelity.suppliers.offered"]
    ) if c["fidelity.suppliers.offered"] else 0.0

    for layer, seconds in tracer.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = seconds * scale
    return out
