"""Outside-in tracer: spans around the package's public layer functions.

``install`` replaces public functions of the ``dumbbell_averager`` modules
with wrappers, in the benchmark's child process only; nothing under the
package's source changes.  A wrapped call records one span: name, start,
end, parent span, iteration id, self time (duration minus the time child
spans cover) and the exception type it raised, if any.

Hot leaf callables -- the right-hand sides and the torque coefficient
closures, called millions of times per run -- are rolled up instead: one
record per (name, enclosing span) holding the call count, total and self
time.  A span per call would hold ~5M records in memory on corollary2.
Their time still counts as child time of the enclosing span.

Spans stay in memory and are written as JSON lines when the run ends.
Layer metrics are counts and times derived from the spans afterwards.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: per_layer metric names in BENCHMARK.json, in order, with units.
LAYER_METRICS = {
    "torques.setup_s": "s",
    "torques.coeff_calls_scalar": "count",
    "torques.coeff_calls_array": "count",
    "torques.coeff_s": "s",
    "torques.self_s": "s",
    "averaging.field_calls": "count",
    "averaging.field_points": "count",
    "averaging.quad_samples": "count",
    "averaging.quad_nodes_max": "count",
    "averaging.field_s": "s",
    "averaging.self_s": "s",
    "zeros.multistart_s": "s",
    "zeros.newton_solves": "count",
    "zeros.newton_ok": "count",
    "zeros.newton_failed": "count",
    "zeros.newton_failed.SingularJacobianError": "count",
    "zeros.newton_failed.NoConvergenceError": "count",
    "zeros.newton_iters": "count",
    "zeros.zeros_kept": "count",
    "zeros.useful_ratio": "ratio",
    "zeros.self_s": "s",
    "dynamics.rhs_full_calls": "count",
    "dynamics.rhs_lin_calls": "count",
    "dynamics.rhs_s": "s",
    "dynamics.self_s": "s",
    "shooting.integrate_calls": "count",
    "shooting.integrate_s": "s",
    "shooting.integrate_failed": "count",
    "shooting.integrate_failed_s": "s",
    "shooting.fdjac_s": "s",
    "shooting.shots": "count",
    "shooting.shot_newton_iters": "count",
    "shooting.ladders": "count",
    "shooting.ladders_pass": "count",
    "shooting.ladders_s": "s",
    "shooting.self_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "B",
    "reports.self_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: metrics that must repeat exactly between two traced runs of one input
COUNTERS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "B", "ratio")
)

LAYERS = ("torques", "averaging", "zeros", "dynamics", "shooting", "reports", "cli")

# span record fields
_ID, _PARENT, _NAME, _START, _END, _SELF, _ERROR, _NOTE = range(8)


class Tracer:
    """Span recorder for one child process (one benchmark iteration)."""

    def __init__(self, iteration: int) -> None:
        self.iteration = iteration
        self.spans: List[list] = []
        # open frames: [span id, time covered by children]
        self._stack: List[list] = []
        # (name, parent span id) -> [calls, total_s, self_s, samples]
        self.rollups: Dict[tuple, list] = {}
        self._next_id = 0

    def span(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``note(args, result)``
        stores one extra value with it."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append([sid, parent, name, start, end, end - start - frame[1], error, None])
            if note is not None:
                spans[-1][_NOTE] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def rollup(self, name: str, fn: Callable, samples: Optional[Callable] = None) -> Callable:
        """Wrap a hot leaf callable; ``samples(args)`` adds to a per-record sum."""
        stack, rollups, clock = self._stack, self.rollups, time.perf_counter

        def wrapper(*args):
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][1] += dur
                key = (name, frame[0])
                agg = rollups.get(key)
                if agg is None:
                    agg = rollups[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if samples is not None:
                    agg[3] += samples(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Write spans and rolled-up records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"iter": self.iteration, "span": s}) + "\n")
            for (name, parent), (calls, total, self_s, samples) in self.rollups.items():
                rec = [name, parent, calls, total, self_s, samples]
                fh.write(json.dumps({"iter": self.iteration, "rollup": rec}) + "\n")

    def layer_metrics(self, report_bytes: int) -> dict:
        """Per-layer counts and times of this run (``trace.overhead_s`` is
        filled in by run.py, which also has the untraced runs).

        ``torques.setup_s`` is the torque time inside the ``bench.setup``
        span, the part of the benchmark's set-up phase spent in torques."""
        count: Counter = Counter()
        total: Dict[str, float] = defaultdict(float)
        notes: Dict[str, list] = defaultdict(list)
        failed: Counter = Counter()
        failed_s: Dict[str, float] = defaultdict(float)
        self_by_layer: Dict[str, float] = defaultdict(float)
        names = {s[_ID]: s[_NAME] for s in self.spans}
        setup_ids = {sid for sid, name in names.items() if name == "bench.setup"}
        torques_setup = 0.0
        for s in self.spans:
            name, dur = s[_NAME], s[_END] - s[_START]
            count[name] += 1
            total[name] += dur
            self_by_layer[name.split(".")[0]] += s[_SELF]
            if s[_NOTE] is not None:
                notes[name].append(s[_NOTE])
            if s[_ERROR] is not None:
                failed[(name, s[_ERROR])] += 1
                failed_s[name] += dur
            if s[_PARENT] in setup_ids and name.startswith("torques."):
                torques_setup += dur
        r_calls: Counter = Counter()
        r_total: Dict[str, float] = defaultdict(float)
        quad_samples = 0
        for (name, parent), (calls, tot, self_s, samples) in self.rollups.items():
            r_calls[name] += calls
            r_total[name] += tot
            self_by_layer[name.split(".")[0]] += self_s
            if names.get(parent) == "averaging.AveragedField.evaluate":
                quad_samples += samples

        def failures(name: str, error: Optional[str] = None) -> int:
            return sum(
                n for (nm, err), n in failed.items() if nm == name and error in (None, err)
            )

        field_notes = notes["averaging.AveragedField.evaluate"]
        solves = count["zeros.newton2d"]
        kept = sum(notes["zeros.multistart_zeros"])
        writes = [n for n in total if n.startswith("reports.write_")]
        m = {
            "torques.setup_s": torques_setup,
            "torques.coeff_calls_scalar": r_calls["torques.coeff.scalar"],
            "torques.coeff_calls_array": r_calls["torques.coeff.array"],
            "torques.coeff_s": r_total["torques.coeff.scalar"] + r_total["torques.coeff.array"],
            "averaging.field_calls": count["averaging.AveragedField.evaluate"],
            "averaging.field_points": sum(n[0] for n in field_notes),
            "averaging.quad_samples": quad_samples,
            "averaging.quad_nodes_max": max((n[1] for n in field_notes), default=0),
            "averaging.field_s": total["averaging.AveragedField.evaluate"],
            "zeros.multistart_s": total["zeros.multistart_zeros"],
            "zeros.newton_solves": solves,
            "zeros.newton_ok": solves - failures("zeros.newton2d"),
            "zeros.newton_failed": failures("zeros.newton2d"),
            "zeros.newton_failed.SingularJacobianError": failures(
                "zeros.newton2d", "SingularJacobianError"
            ),
            "zeros.newton_failed.NoConvergenceError": failures(
                "zeros.newton2d", "NoConvergenceError"
            ),
            "zeros.newton_iters": count["zeros.jacobian2d"],
            "zeros.zeros_kept": kept,
            "zeros.useful_ratio": kept / solves if solves else 0.0,
            "dynamics.rhs_full_calls": r_calls["dynamics.full_rhs"],
            "dynamics.rhs_lin_calls": r_calls["dynamics.first_order_rhs"],
            "dynamics.rhs_s": r_total["dynamics.full_rhs"] + r_total["dynamics.first_order_rhs"],
            "shooting.integrate_calls": count["shooting.integrate"],
            "shooting.integrate_s": total["shooting.integrate"],
            "shooting.integrate_failed": failures("shooting.integrate"),
            "shooting.integrate_failed_s": failed_s["shooting.integrate"],
            "shooting.fdjac_s": total["shooting.displacement_jacobian"],
            "shooting.shots": count["shooting.shoot_periodic"],
            "shooting.shot_newton_iters": count["shooting.displacement_jacobian"],
            "shooting.ladders": count["shooting.epsilon_continuation"],
            "shooting.ladders_pass": notes["shooting.epsilon_continuation"].count("PASS"),
            "shooting.ladders_s": total["shooting.epsilon_continuation"],
            "reports.write_s": sum(total[n] for n in writes),
            "reports.bytes": report_bytes,
            "trace.spans": len(self.spans),
            "trace.wall_s": total["cli.main"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        return m


def install(tracer: Tracer, package) -> None:
    """Wrap the public layer functions of the imported ``package``.

    Every module that imported a function by name gets the wrapper too, so
    internal calls through that name are traced.
    """
    cli, torques, averaging = package.cli, package.torques, package.averaging
    zeros, dynamics, shooting, reports = (
        package.zeros,
        package.dynamics,
        package.shooting,
        package.reports,
    )

    def patch(name: str, modules, attr: str, **kw) -> None:
        wrapped = tracer.span(name, getattr(modules[0], attr), **kw)
        for mod in modules:
            setattr(mod, attr, wrapped)

    ndarray = np.ndarray

    def wrap_coefficients(lin):
        # The coefficient closures take the same scalar/array branch.
        def coefficient(fn):
            scalar = tracer.rollup("torques.coeff.scalar", fn)
            array = tracer.rollup(
                "torques.coeff.array", fn, samples=lambda args: max(np.size(a) for a in args)
            )

            def dispatch(t, v1, v2):
                if isinstance(t, ndarray) or isinstance(v1, ndarray) or isinstance(v2, ndarray):
                    return array(t, v1, v2)
                return scalar(t, v1, v2)

            return dispatch

        return torques.LinearizedTorque(*map(coefficient, (lin.f1, lin.f2, lin.f3, lin.f4)))

    extract = tracer.span("torques.extract_linearized", torques.extract_linearized)
    traced_extract = lambda f1, f2: wrap_coefficients(extract(f1, f2))  # noqa: E731
    for mod in (torques, cli, package):
        mod.extract_linearized = traced_extract
    patch("torques.parse_torque", (torques, cli, package), "parse_torque")
    patch("torques.validate_equilibrium", (torques, cli), "validate_equilibrium")

    averaging.AveragedField.evaluate = tracer.span(
        "averaging.AveragedField.evaluate",
        averaging.AveragedField.evaluate,
        note=lambda args, _: [
            int(np.atleast_2d(np.asarray(args[1])).shape[0]),
            args[0].max_nodes_used,
        ],
    )

    patch("zeros.multistart_zeros", (zeros, cli), "multistart_zeros", note=lambda _, r: len(r))
    patch("zeros.newton2d", (zeros,), "newton2d")
    patch("zeros.jacobian2d", (zeros,), "jacobian2d")
    patch("zeros.field_scale_on", (zeros,), "field_scale_on")
    patch("zeros.group_orbit_classes", (zeros, cli), "group_orbit_classes")

    dynamics.full_rhs = tracer.rollup("dynamics.full_rhs", dynamics.full_rhs)
    dynamics.first_order_rhs = tracer.rollup("dynamics.first_order_rhs", dynamics.first_order_rhs)

    patch("shooting.integrate", (shooting,), "integrate")
    patch("shooting.displacement_jacobian", (shooting,), "displacement_jacobian")
    patch("shooting.shoot_periodic", (shooting,), "shoot_periodic")
    patch(
        "shooting.epsilon_continuation",
        (shooting, cli),
        "epsilon_continuation",
        note=lambda _, r: r.status,
    )

    for kind in ("field_csv", "zeros_csv", "continuation_csv", "text_report"):
        patch(f"reports.write_{kind}", (reports,), f"write_{kind}")
    patch("cli.load_config", (cli,), "load_config")


def merge(runs: List[dict]) -> dict:
    """Combine the layer metrics of several traced runs: counters from the
    first (the caller checks they repeat), times as minima, like wall_s."""
    out = dict(runs[0])
    for name, unit in LAYER_METRICS.items():
        if unit == "s" and name in out:
            out[name] = min(r[name] for r in runs)
    return out
