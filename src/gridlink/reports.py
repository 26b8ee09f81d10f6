"""Document rendering and parsing for CLI outputs.

Two views exist for most reports: a human table rounded to 4 significant
digits and a structured JSON document carrying full round-trip double
precision.  Every document starts with a provenance header (tool version,
configuration echo, case checksum) and is byte-deterministic for identical
inputs.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import Any

import numpy as np

from gridlink.dynamics import Trajectory
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


def _plan_rows(result: PlanResult) -> list[tuple]:
    # Link endpoints are reported 1-based, matching generator numbering in
    # the human tables; row 0 is the uncontrolled baseline.
    rows: list[tuple] = [(0, "", "", result.baseline_alpha, 0.0)]
    for it in result.iterations:
        rows.append((it.index, it.link[0] + 1, it.link[1] + 1, it.alpha_max_after, it.marginal_gain))
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
    lines.append("iteration,gen_i,gen_k,alpha_max,marginal_gain")
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
        "iterations": [
            {
                "iteration": it.index,
                "gen_i": it.link[0] + 1,
                "gen_k": it.link[1] + 1,
                "alpha_max": it.alpha_max_after,
                "marginal_gain": it.marginal_gain,
            }
            for it in result.iterations
        ],
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

# Rows rendered per text block of a trajectory document; a block is about 0.4 MB of text at n = 10.
ROWS_PER_BLOCK = 1024


def _row_blocks(rows: int) -> Iterator[slice]:
    return (slice(start, start + ROWS_PER_BLOCK) for start in range(0, rows, ROWS_PER_BLOCK))


def trajectory_table(traj: Trajectory, meta: dict[str, Any], footer: dict[str, Any]) -> Iterator[str]:
    """Delimited table: time, delta_1..delta_n, omega_1..omega_n, full precision.

    Yields text blocks, to be written in order: the header and column line,
    then ROWS_PER_BLOCK rows at a time, then the footer.  Their concatenation
    is the whole document, so no more than one block of rows is held as text.
    """
    n = traj.delta.shape[1]
    columns = ["time"] + [f"delta_{i + 1}" for i in range(n)] + [f"omega_{i + 1}" for i in range(n)]
    yield "\n".join(header_lines(meta) + [",".join(columns)]) + "\n"
    for rows in _row_blocks(traj.times.size):
        # tolist() gives Python floats without a numpy scalar per value.
        block = zip(traj.times[rows].tolist(), traj.delta[rows].tolist(), traj.omega[rows].tolist())
        yield "".join(",".join(map(repr, [t, *delta, *omega])) + "\n" for t, delta, omega in block)
    yield "".join(line + "\n" for line in header_lines(footer))


def _json_members(doc: dict[str, Any]) -> str:
    """The members of a non-empty doc as render_json lays them out, without the enclosing braces."""
    return json.dumps(doc, indent=2)[2:-2]


def trajectory_document(traj: Trajectory, meta: dict[str, Any], footer: dict[str, Any]) -> Iterator[str]:
    """Structured trajectory: meta, dt, times, delta, omega and summary, as text blocks.

    The layout is render_json's, except that each row of times, delta and
    omega sits on one line; as in trajectory_table, the rows are rendered
    ROWS_PER_BLOCK at a time.
    """
    yield "{\n" + _json_members({"meta": meta, "dt": float(traj.dt)}) + ",\n"
    for key, values in (("times", traj.times), ("delta", traj.delta), ("omega", traj.omega)):
        separator = "\n    "
        yield f'  "{key}": ['
        for rows in _row_blocks(values.shape[0]):
            yield separator + ",\n    ".join(map(json.dumps, values[rows].tolist()))
            separator = ",\n    "
        yield "\n  ],\n"
    yield _json_members({"summary": footer}) + "\n}\n"
