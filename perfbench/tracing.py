"""Spans around gridlink's public functions, recorded from outside the package.

A traced op replaces the module attributes listed in HOOKS with wrappers that
record one span per call: (id, parent id, name, start, end, value).  The
parent is the innermost open span on the calling thread; a planner worker
thread, which has none of its own, takes the span open on the thread that
installed the hooks.  ``value`` is a count read from the call's result, for
example power-flow iterations.  Spans stay in memory until the op ends, then
fold into per-layer numbers for that op.

An attribute that no longer exists is reported as absent and its metrics read
zero; the trace never fails because the code under it was refactored.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter


def _text_bytes(result) -> int | None:
    if isinstance(result, str):
        return len(result) if result.isascii() else len(result.encode("utf-8"))
    return None


_RENDERERS = (
    "plan_table",
    "plan_document",
    "spectrum_table",
    "spectrum_document",
    "trajectory_table",
    "trajectory_document",
    "reduction_document",
    "render_json",
)

# (module, attribute, span name, value read from the result)
HOOKS = [
    ("gridlink.cli", "parse_case", "case.parse", None),
    ("gridlink.cli", "build_system", "model.build", None),
    ("gridlink.model", "solve_powerflow", "powerflow.solve", lambda r: r.iterations),
    ("gridlink.model", "reduce_case", "reduction.reduce", None),
    ("gridlink.cli", "greedy_plan", "planner.plan", lambda r: len(r.iterations)),
    ("gridlink.planner", "greedy_plan", "planner.plan", lambda r: len(r.iterations)),
    ("gridlink.planner", "alpha_for_links", "linearization.alpha", None),
    ("gridlink.linearization", "jacobian_blocks", "linearization.jacobian", None),
    ("gridlink.cli", "jacobian_blocks", "linearization.jacobian", None),
    ("gridlink.linearization", "spectral_abscissa", "linearization.spectrum", lambda r: int(r.deflated)),
    ("gridlink.cli", "spectral_abscissa", "linearization.spectrum", lambda r: int(r.deflated)),
    ("gridlink.cli", "simulate", "dynamics.simulate", lambda r: r.times.size - 1),
    ("gridlink.cli", "decay_rate", "dynamics.decay_fit", None),
    ("gridlink.dynamics", "electrical_power", "dynamics.electrical_power", None),
    ("gridlink.dynamics", "mechanical_power", "dynamics.mechanical_power", None),
] + [("gridlink.reports", name, "reports.render", _text_bytes) for name in _RENDERERS]

# Per-layer metric names, in report order.  Times are seconds per op, counts
# are per op; a layer the workload does not reach reads 0.
LAYER_METRICS = [
    ("case.parse_s", "s"),
    ("powerflow.solve_s", "s"),
    ("powerflow.iterations", "count"),
    ("reduction.reduce_s", "s"),
    ("model.build_s", "s"),
    ("linearization.alpha_calls", "count"),
    ("linearization.alpha_s", "s"),
    ("linearization.spectrum_s", "s"),
    ("linearization.jacobian_s", "s"),
    ("linearization.deflated_ratio", "ratio"),
    ("planner.plan_s", "s"),
    ("planner.self_s", "s"),
    ("planner.useful_ratio", "ratio"),
    ("planner.busy_ratio", "ratio"),
    ("dynamics.simulate_s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.rhs_calls", "count"),
    ("dynamics.step_s", "s"),
    ("dynamics.electrical_power_s", "s"),
    ("dynamics.mechanical_power_s", "s"),
    ("dynamics.decay_fit_s", "s"),
    ("reports.render_s", "s"),
    ("reports.doc_bytes", "bytes"),
    ("cli.self_s", "s"),
]


class Tracer:
    """Installs the hooks around one op and keeps that op's spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, value=None):
        spans, ids, owner_stack = self.spans, self._ids, self._owner_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (owner_stack[-1] if owner_stack else None)
            sid = next(ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = value(result) if value is not None and result is not None else None
                spans.append((sid, parent, name, start, end, count))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every hook that exists; return the hooks that do not."""
        absent = []
        for module_name, attr, name, value in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, value))
        return absent

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[tuple], workers: int) -> dict[str, float]:
    """Per-layer numbers of one op from its spans."""
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))

    def has_ancestor(s, name):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    def outermost(name, under=None):
        # Spans of this name not nested in another of the same name, so a
        # renderer calling another renderer is not counted twice.
        return [
            s
            for s in by_name[name]
            if not has_ancestor(s, name) and (under is None or has_ancestor(s, under))
        ]

    def total(selected):
        return sum(s[4] - s[3] for s in selected)

    def self_time(selected):
        return sum(s[4] - s[3] - _covered(s[3], s[4], children[s[0]]) for s in selected)

    def values(selected):
        return sum(s[5] or 0 for s in selected)

    spectrum = outermost("linearization.spectrum")
    plans = outermost("planner.plan")
    plan_s = total(plans)
    plan_alphas = outermost("linearization.alpha", under="planner.plan")
    simulations = outermost("dynamics.simulate")
    simulate_s = total(simulations)
    steps = values(simulations)
    electrical = outermost("dynamics.electrical_power", under="dynamics.simulate")
    renders = outermost("reports.render")
    return {
        "case.parse_s": total(outermost("case.parse")),
        "powerflow.solve_s": total(outermost("powerflow.solve")),
        "powerflow.iterations": values(outermost("powerflow.solve")),
        "reduction.reduce_s": total(outermost("reduction.reduce")),
        "model.build_s": total(outermost("model.build")),
        "linearization.alpha_calls": len(outermost("linearization.alpha")),
        "linearization.alpha_s": total(outermost("linearization.alpha")),
        "linearization.spectrum_s": total(spectrum),
        "linearization.jacobian_s": total(outermost("linearization.jacobian")),
        "linearization.deflated_ratio": values(spectrum) / len(spectrum) if spectrum else 0.0,
        "planner.plan_s": plan_s,
        "planner.self_s": self_time(plans),
        "planner.useful_ratio": values(plans) / len(plan_alphas) if plan_alphas else 0.0,
        "planner.busy_ratio": total(plan_alphas) / (workers * plan_s) if plan_s else 0.0,
        "dynamics.simulate_s": simulate_s,
        "dynamics.steps": steps,
        "dynamics.rhs_calls": len(electrical),
        "dynamics.step_s": simulate_s / steps if steps else 0.0,
        "dynamics.electrical_power_s": total(electrical),
        "dynamics.mechanical_power_s": total(
            outermost("dynamics.mechanical_power", under="dynamics.simulate")
        ),
        "dynamics.decay_fit_s": total(outermost("dynamics.decay_fit")),
        "reports.render_s": total(renders),
        "reports.doc_bytes": values(renders),
        "cli.self_s": self_time(outermost("cli.main")),
    }
