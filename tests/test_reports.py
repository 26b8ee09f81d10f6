import argparse
import io
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import _per_value_table, _per_value_trajectory_document, _rows_on_one_line
from gridlink import cli, reports
from gridlink.case import case_path
from gridlink.cli import main
from gridlink.dynamics import (
    ROWS_PER_BLOCK,
    ControlConfig,
    DisturbanceSpec,
    equilibrium_state,
    integrate,
    row_blocks,
)
from gridlink.planner import exhaustive_plan, greedy_plan
from gridlink.reports import render_json


def _written_inline(monkeypatch, states, dt, fmt, meta, footer):
    """The document the CLI's writer writes for the stacked states at times k dt, their blocks handed over as
    integrate yields them, inline."""
    monkeypatch.delattr(os, "fork", raising=False)
    if fmt == "table":
        write, closing = reports.write_table, reports.table_footer
    else:
        write, closing = reports.write_document, reports.document_footer
    out = io.StringIO()
    with cli._TrajectoryWriter(out, write, len(states), dt, meta) as writer:
        writer.write_blocks((rows, states[rows]) for rows in row_blocks(len(states)))
        writer.finish(closing(footer))
    return out.getvalue()


def test_trajectory_table_matches_per_value_renderer(monkeypatch):
    # rows of stacked [delta, omega] states, as simulate returns them
    states = np.array(
        [
            [-0.0, 5e-324, 1e-300, 376.99111843077515, 377.0, 376.9911184307752],
            [0.1, -1e-300, 1.0 / 3.0, 376.99111843077515 + 1e-9, -0.0, 1e300],
            [3.141592653589793, 2.0**-1074, -123456.789, 376.9911184307751, 5e-324, 0.0],
        ]
    )
    meta, footer = {"tool": "gridlink", "links": 2}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}
    text = _written_inline(monkeypatch, states, 1e-3, "table", meta, footer)
    assert text == _per_value_table(states, 1e-3, meta, footer)
    assert "\n0.0,-0.0,5e-324,1e-300,376.99111843077515," in text


# The structured-document builders the tolist() versions replaced: one numpy scalar -> float per value.
def _per_value_reduction_document(net, op, meta):
    return {
        "meta": meta,
        "n": net.n,
        "e_mag": [float(v) for v in net.e_mag],
        "y_g": [[[float(v.real), float(v.imag)] for v in row] for row in net.y_g],
        "c": [[float(v) for v in row] for row in net.c],
        "d": [[float(v) for v in row] for row in net.d],
        "delta_s": [float(v) for v in op.delta_s],
        "omega_s": float(op.omega_s),
        "p_m_const": [float(v) for v in op.p_m_const],
    }


@pytest.mark.parametrize(
    "builder, argv, oracle",
    [
        ("reduction_document", ["reduce"], _per_value_reduction_document),
        (
            "trajectory_document",
            ["simulate", "--tmax", "2", "--perturb", "gen=1,ddelta=0.05", "--format", "structured"],
            _per_value_trajectory_document,
        ),
    ],
)
def test_structured_document_matches_per_value_renderer(tmp_path, monkeypatch, builder, argv, oracle):
    # the CLI document for ne39, byte for byte, against the per-value builder on the same inputs; the CLI
    # writes a trajectory document by write_document(out, blocks, dt, meta) and
    # document_footer(footer), here inline, so that the calls are seen in this process
    monkeypatch.delattr(os, "fork")
    names = ["write_document", "document_footer"] if builder == "trajectory_document" else [builder]
    seen = {name: [] for name in names}
    for name in names:

        def spy(*args, name=name, real=getattr(reports, name), **kwargs):
            if name != "write_document":
                seen[name].append(args)
                return real(*args, **kwargs)
            out, blocks, dt, meta = args
            passed = []  # a copy of each block as it passes: the trajectory that was written
            real(out, ((rows, passed.append(block.copy()) or block) for rows, block in blocks), dt, meta)
            seen[name].append((np.vstack(passed), dt, meta))

        monkeypatch.setattr(reports, name, spy)
    out = tmp_path / "doc.json"
    assert main([argv[0], "--case", str(case_path("newengland39")), "--out", str(out), *argv[1:]]) == 0
    assert [len(calls) for calls in seen.values()] == [1] * len(names)
    expected = render_json(oracle(*(arg for name in names for arg in seen[name][0])))
    if builder == "trajectory_document":
        expected = _rows_on_one_line(expected)
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("rows", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 2 * ROWS_PER_BLOCK + 1])
def test_trajectory_blocks_join_to_per_row_documents(monkeypatch, rows):
    # each writer reads a block before it asks for the next, which overwrites it with NaN, so a block read
    # late shows; it asks for each block once, in order.  Both documents are written a block of rows at a
    # time, each row with its time, and keep none: each write holds at most ROWS_PER_BLOCK rows.  The footer
    # is rendered apart, once the decay fit is done
    values = np.random.default_rng(rows).standard_normal((rows, 4)) * 10.0 ** np.arange(-2, 2)
    meta, footer = {"tool": "gridlink", "links": 1}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}

    def blocks():
        buffer = np.empty((ROWS_PER_BLOCK, 4))
        for block_rows in row_blocks(rows):
            asked.append(block_rows.stop)
            block = buffer[: block_rows.stop - block_rows.start]
            block[:] = values[block_rows]
            yield block_rows, block
            buffer[:] = np.nan

    for write, closing, expected in (
        (reports.write_table, reports.table_footer, _per_value_table(values, 1e-3, meta, footer)),
        (
            reports.write_document,
            reports.document_footer,
            _rows_on_one_line(render_json(_per_value_trajectory_document(values, 1e-3, meta, footer))),
        ),
    ):
        writes, asked = [], []
        write(SimpleNamespace(write=writes.append), blocks(), 1e-3, meta)
        assert asked == [block.stop for block in row_blocks(rows)]
        assert max(text.count("\n") for text in writes) <= ROWS_PER_BLOCK
        assert "".join(writes) + closing(footer) == expected
    table = _per_value_table(values, 1e-3, meta, footer)
    assert _written_inline(monkeypatch, values, 1e-3, "table", meta, footer) == table
    assert _written_inline(monkeypatch, values, 1e-3, "structured", meta, footer) == expected


def test_trajectory_table_is_written_one_block_at_a_time(tmp_path, monkeypatch, ne39_model):
    # the CLI's writer, rendering inline the blocks integrate yields, holds about one block of ne39's 20 s
    # table, not the document, nor the trajectory
    monkeypatch.delattr(os, "fork")
    model = ne39_model
    init, dist = equilibrium_state(model), DisturbanceSpec(target=0, d_delta=0.05)
    times = np.arange(20001) * 1e-3
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        with cli._output(argparse.Namespace(out=str(out))) as f:
            with cli._TrajectoryWriter(f, reports.write_table, times.size, 1e-3, {"tool": "gridlink"}) as writer:
                writer.write_blocks(integrate(init, model, ControlConfig(), dist, t_max=20.0, dt=1e-3))
                writer.finish(reports.table_footer({"alpha_max": "-0.09"}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8").count("\n") == 20001 + 3
    assert peak < out.stat().st_size / 4
    assert peak < times.size * 2 * model.n * 8 / 2  # half the trajectory's floats


def test_early_stopped_plan_documents_carry_the_stop_reason(toy4_model):
    # toy4's fourth link would raise alpha_max, so a budget of six stops after three
    result = greedy_plan(toy4_model, budget=6, gain_h=-1.0)
    reason = "best marginal gain -6.932e-03 counts as nonpositive (not above TIE_TOL = 1e-12) at iteration 4"
    assert result.stop_reason == reason
    table = reports.plan_table(result, {}).splitlines()
    assert "# stopped_early: true" in table and f"# stop_reason: {reason}" in table
    assert len([line for line in table if not line.startswith("#")]) == 1 + 1 + 3
    doc = reports.plan_document(result, {})
    assert doc["stopped_early"] is True and doc["stop_reason"] == reason
    assert doc["meta"]["stopped_early"] == "true" and doc["meta"]["stop_reason"] == reason
    assert len(doc["iterations"]) == 3


@pytest.mark.parametrize("plan", [greedy_plan, exhaustive_plan])
def test_plan_documents_number_iterations_and_links_from_one(toy4_model, plan):
    result = plan(toy4_model, budget=3, gain_h=-1.0)
    assert len(result.iterations) >= 2
    expected = [(i, a + 1, b + 1) for i, (a, b) in enumerate(result.links, start=1)]
    table = [line for line in reports.plan_table(result, {}).splitlines() if not line.startswith("#")]
    assert table[0] == "iteration,gen_i,gen_k,alpha_max,marginal_gain"
    assert table[1].startswith("0,,,")
    assert [tuple(map(int, row.split(",")[:3])) for row in table[2:]] == expected
    doc = reports.plan_document(result, {})
    assert [(it["iteration"], it["gen_i"], it["gen_k"]) for it in doc["iterations"]] == expected
    assert [it["alpha_max"] for it in doc["iterations"]] == [it.alpha_max_after for it in result.iterations]
    alphas = [result.baseline_alpha] + [it.alpha_max_after for it in result.iterations]
    assert [it["marginal_gain"] for it in doc["iterations"]] == [a - b for a, b in zip(alphas, alphas[1:])]


# --- repr_rows against repr ---------------------------------------------------


def per_value_rows(block, sep):
    return "".join(sep.join(map(repr, row)) + "\n" for row in block.tolist())


def _from_bits(bits):
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def _bulk_values():
    """About 1.1 million seeded doubles by kind, each kind half negative, for the bulk check against repr."""
    rng = np.random.default_rng(20240601)
    low, high = np.array([1e-4, 1e16]).view(np.uint64)
    trajectory = rng.standard_normal((10_000, 21)) * np.array([3e-1] * 10 + [1e-3] * 10 + [20.0])
    trajectory += np.array([0.0] * 10 + [376.99111843077515] * 10 + [10.0])
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{k}") for k in range(-323, 309)]])
    steps = np.concatenate([np.arange(-2_000, 2_000)] * 2)
    kinds = {
        "positional bit patterns": rng.integers(low, high, 250_000, dtype=np.uint64).view(np.float64),
        "finite bit patterns": _from_bits(rng.integers(0, 2**64, 150_000, dtype=np.uint64, endpoint=False)),
        "trajectory-like": trajectory.ravel(),
        "short decimals": np.concatenate([np.round(rng.uniform(-1e4, 1e4, 20_000), d) for d in range(8)]),
        "1e-3 time grid": np.arange(200_001) * 1e-3,
        "2**-7 time grid": np.arange(100_001) * 2.0**-7,
        "powers of 2 and 10 with neighbours": np.concatenate(
            [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        ),
        "the 1e-4 and 1e16 edges": (np.repeat([1e-4, 1e16], 4_000).view(np.int64) + steps).view(np.float64),
    }
    return {kind: np.where(np.arange(v.size) % 2, -v, v) for kind, v in kinds.items()}


def test_repr_rows_matches_repr_in_bulk():
    # each kind of value in rows of 21 with one separator and of 3 with the other, under the floating-point
    # error settings the CLI runs with (a forked writer inherits them)
    checked = 0
    for index, (kind, values) in enumerate(_bulk_values().items()):
        cols, sep = (21, ",") if index % 2 else (3, ", ")
        block = values[: values.size // cols * cols].reshape(-1, cols)
        with np.errstate(all="raise"):
            text = reports.repr_rows(block, sep)
        assert text == per_value_rows(block, sep), kind
        checked += block.size
    assert checked >= 10**6


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))).filter(np.isfinite),
)


@given(st.lists(_finite, min_size=1, max_size=8), st.sampled_from([",", ", "]))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308], ",")
@example([1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.1, 0.5, 376.99111843077515], ", ")
def test_repr_rows_matches_repr_on_any_finite_row(row, sep):
    block = np.array([row, row[::-1]])
    with np.errstate(all="raise"):
        text = reports.repr_rows(block, sep)
    assert text == per_value_rows(block, sep)


def test_repr_rows_renders_empty_and_non_finite_blocks():
    assert reports.repr_rows(np.zeros((0, 3)), ",") == ""
    block = np.array([[np.inf, -np.inf, np.nan, 1.5]])
    assert reports.repr_rows(block, ", ") == "inf, -inf, nan, 1.5\n"
    with pytest.raises(ValueError, match="longer than"):
        reports.repr_rows(block, " ; " * 3)
