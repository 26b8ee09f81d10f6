"""Document rendering and parsing for CLI outputs.

Two views exist for most reports: a human table rounded to 4 significant
digits and a structured JSON document carrying full round-trip double
precision.  Every document starts with a provenance header (tool version,
configuration echo, case checksum) and is byte-deterministic for identical
inputs.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from typing import IO, Any

import numpy as np

from gridlink.dynamics import Trajectory, row_blocks
from gridlink.linearization import SpectrumReport
from gridlink.planner import PlanResult
from gridlink.reduction import OperatingPoint, ReducedNetwork


def sig4(value: float) -> str:
    return f"{value:.4g}"


# tolist() gives the same Python floats as float() per value, without a numpy scalar each.
def _complex_pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _reals(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def header_lines(meta: dict[str, Any]) -> list[str]:
    return [f"# {key}: {value}" for key, value in meta.items()]


def render_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --- spectrum ---------------------------------------------------------------


def spectrum_document(report: SpectrumReport, meta: dict[str, Any]) -> dict[str, Any]:
    return {
        "meta": meta,
        "alpha_max": report.alpha_max,
        "deflated": report.deflated,
        "deflated_magnitude": report.deflated_magnitude,
        "eigenvalues": _complex_pairs(report.eigenvalues),
    }


def spectrum_table(report: SpectrumReport, meta: dict[str, Any]) -> str:
    lines = header_lines(meta)
    lines.append(f"alpha_max: {sig4(report.alpha_max)}")
    lines.append(f"deflated_zero_mode: true (|lambda| = {sig4(report.deflated_magnitude)})")
    lines.append("eigenvalue_re,eigenvalue_im")
    for v in report.eigenvalues:
        lines.append(f"{sig4(v.real)},{sig4(v.imag)}")
    return "\n".join(lines) + "\n"


# --- plan -------------------------------------------------------------------


_PLAN_COLUMNS = ("iteration", "gen_i", "gen_k", "alpha_max", "marginal_gain")


def _plan_rows(result: PlanResult) -> list[tuple]:
    # Iterations are numbered from 1 and link endpoints reported 1-based,
    # matching generator numbering in the human tables; row 0 is the
    # uncontrolled baseline.  A row's marginal gain is the previous row's
    # alpha_max minus its own, the subtraction the planners decide by.
    rows: list[tuple] = [(0, "", "", result.baseline_alpha, 0.0)]
    before = result.baseline_alpha
    for index, it in enumerate(result.iterations, start=1):
        rows.append((index, it.link[0] + 1, it.link[1] + 1, it.alpha_max_after, before - it.alpha_max_after))
        before = it.alpha_max_after
    return rows


def plan_meta(result: PlanResult, meta: dict[str, Any]) -> dict[str, Any]:
    out = dict(meta)
    out["baseline_alpha"] = repr(result.baseline_alpha)
    out["final_alpha"] = repr(result.final_alpha)
    out["improvement"] = repr(result.baseline_alpha - result.final_alpha)
    out["links_installed"] = len(result.iterations)
    out["stopped_early"] = str(result.stopped_early).lower()
    if result.stop_reason:
        out["stop_reason"] = result.stop_reason
    return out


def plan_table(result: PlanResult, meta: dict[str, Any]) -> str:
    lines = header_lines(plan_meta(result, meta))
    lines.append(",".join(_PLAN_COLUMNS))
    for index, gi, gk, alpha, gain in _plan_rows(result):
        lines.append(f"{index},{gi},{gk},{sig4(alpha)},{sig4(gain)}")
    return "\n".join(lines) + "\n"


def plan_document(result: PlanResult, meta: dict[str, Any]) -> dict[str, Any]:
    return {
        "meta": plan_meta(result, meta),
        "baseline_alpha": result.baseline_alpha,
        "final_alpha": result.final_alpha,
        "improvement": result.baseline_alpha - result.final_alpha,
        "stopped_early": result.stopped_early,
        "stop_reason": result.stop_reason,
        "iterations": [dict(zip(_PLAN_COLUMNS, row)) for row in _plan_rows(result)[1:]],
    }


# --- reduction --------------------------------------------------------------


def reduction_document(net: ReducedNetwork, op: OperatingPoint, meta: dict[str, Any]) -> dict[str, Any]:
    return {
        "meta": meta,
        "n": net.n,
        "e_mag": _reals(net.e_mag),
        "y_g": _complex_pairs(net.y_g),
        "c": _reals(net.c),
        "d": _reals(net.d),
        "delta_s": _reals(op.delta_s),
        "omega_s": float(op.omega_s),
        "p_m_const": _reals(op.p_m_const),
    }


# --- trajectory -------------------------------------------------------------
#
# write_table and write_document write a trajectory document up to its footer, which is rendered
# once the decay fit is done.  They call ready(stop) before they read rows [0, stop), and it returns
# once those rows are final.  The CLI's _TrajectoryWriter runs them, in a forked process or inline.


def write_table(out: IO[str], traj: Trajectory, meta: dict[str, Any], ready: Callable[[int], None]) -> None:
    """Write the delimited table to out: the header, the column line, then the rows, a block at a time."""
    n = traj.delta.shape[1]
    columns = ["time"] + [f"delta_{i + 1}" for i in range(n)] + [f"omega_{i + 1}" for i in range(n)]
    out.write("\n".join(header_lines(meta) + [",".join(columns)]) + "\n")
    for rows in row_blocks(traj.times.size):
        ready(rows.stop)
        # tolist() gives Python floats without a numpy scalar per value.
        values = np.column_stack((traj.times[rows], traj.delta[rows], traj.omega[rows])).tolist()
        out.write("".join(",".join(map(repr, row)) + "\n" for row in values))


def table_footer(footer: dict[str, Any]) -> str:
    return "".join(line + "\n" for line in header_lines(footer))


def _json_members(doc: dict[str, Any]) -> str:
    """The members of a non-empty doc as render_json lays them out, without the enclosing braces."""
    return json.dumps(doc, indent=2)[2:-2]


def write_document(out: IO[str], traj: Trajectory, meta: dict[str, Any], ready: Callable[[int], None]) -> None:
    """Write the structured trajectory to out: meta, dt, times, delta and omega, up to the summary.

    The layout is render_json's, except that each row of times, delta and
    omega sits on one line.  Times are ready from the start; the rows of
    delta and omega are rendered ROWS_PER_BLOCK at a time.
    """
    out.write("{\n" + _json_members({"meta": meta, "dt": float(traj.dt)}) + ",\n")
    for key, values, wait in (("times", traj.times, False), ("delta", traj.delta, True), ("omega", traj.omega, True)):
        out.write(f'  "{key}": [')
        for rows in row_blocks(values.shape[0]):
            ready(rows.stop if wait else 0)
            prefix = ",\n    " if rows.start else "\n    "
            out.write(prefix + ",\n    ".join(map(json.dumps, values[rows].tolist())))
        out.write("\n  ],\n")


def document_footer(footer: dict[str, Any]) -> str:
    return _json_members({"summary": footer}) + "\n}\n"
