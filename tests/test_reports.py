import argparse
import io
import tracemalloc

import numpy as np
import pytest

from conftest import _per_value_table, _per_value_trajectory_document, _rows_on_one_line
from gridlink import cli, reports
from gridlink.case import case_path
from gridlink.cli import main
from gridlink.dynamics import (
    ROWS_PER_BLOCK,
    ControlConfig,
    DisturbanceSpec,
    MachineState,
    Trajectory,
    row_blocks,
    simulate,
)
from gridlink.reports import render_json


def _written_inline(monkeypatch, traj, fmt, meta, footer):
    """The document the CLI's writer writes for traj, its blocks handed over as simulate hands them, one usable CPU."""
    monkeypatch.setattr(cli, "usable_cpu_count", lambda: 1)
    if fmt == "table":
        parts, closing = reports.table_parts, reports.table_footer
    else:
        parts, closing = reports.document_parts, reports.document_footer
    out = io.StringIO()
    with cli._TrajectoryWriter(out, parts, meta) as writer:
        for rows in row_blocks(traj.times.size):
            writer.on_block(traj, rows.stop)
        writer.finish(closing(footer))
    return out.getvalue()


def test_trajectory_table_matches_per_value_renderer(monkeypatch):
    # delta and omega are views of one stacked array, as simulate returns them
    states = np.array(
        [
            [-0.0, 5e-324, 1e-300, 376.99111843077515, 377.0, 376.9911184307752],
            [0.1, -1e-300, 1.0 / 3.0, 376.99111843077515 + 1e-9, -0.0, 1e300],
            [3.141592653589793, 2.0**-1074, -123456.789, 376.9911184307751, 5e-324, 0.0],
        ]
    )
    traj = Trajectory(times=np.arange(3) * 1e-3, delta=states[:, :3], omega=states[:, 3:], dt=1e-3)
    meta, footer = {"tool": "gridlink", "links": 2}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}
    text = _written_inline(monkeypatch, traj, "table", meta, footer)
    assert text == _per_value_table(traj, meta, footer)
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
    # the CLI document for ne39, byte for byte, against the per-value builder on the same inputs; the
    # CLI builds a trajectory document from document_parts(traj, meta) and document_footer(footer)
    names = ["document_parts", "document_footer"] if builder == "trajectory_document" else [builder]
    seen = []
    for name in names:
        real = getattr(reports, name)
        monkeypatch.setattr(reports, name, lambda *args, real=real: seen.append(args) or real(*args))
    out = tmp_path / "doc.json"
    assert main([argv[0], "--case", str(case_path("newengland39")), "--out", str(out), *argv[1:]]) == 0
    assert len(seen) == len(names)
    expected = render_json(oracle(*(arg for args in seen for arg in args)))
    if builder == "trajectory_document":
        expected = _rows_on_one_line(expected)
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("rows", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 2 * ROWS_PER_BLOCK + 1])
def test_trajectory_blocks_join_to_per_row_documents(monkeypatch, rows):
    # a header and ceil(rows / ROWS_PER_BLOCK) tasks of rows, for the table and for each of the
    # structured document's three arrays; the footer is rendered apart, once the decay fit is done
    states = np.random.default_rng(rows).standard_normal((rows, 4)) * 10.0 ** np.arange(-2, 2)
    traj = Trajectory(times=np.arange(rows) * 1e-3, delta=states[:, :2], omega=states[:, 2:], dt=1e-3)
    meta, footer = {"tool": "gridlink", "links": 1}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}
    blocks = -(-rows // ROWS_PER_BLOCK)
    header, *tasks = reports.table_parts(traj, meta)
    assert isinstance(header, str) and len(tasks) == blocks
    assert max(renderer(*args).count("\n") for _, renderer, args in tasks) <= ROWS_PER_BLOCK
    assert _written_inline(monkeypatch, traj, "table", meta, footer) == _per_value_table(traj, meta, footer)
    document = list(reports.document_parts(traj, meta))
    assert len(document) == 3 * (blocks + 2) + 1
    assert sum(not isinstance(part, str) for part in document) == 3 * blocks
    expected = _rows_on_one_line(render_json(_per_value_trajectory_document(traj, meta, footer)))
    assert _written_inline(monkeypatch, traj, "structured", meta, footer) == expected


def test_trajectory_table_is_written_one_block_at_a_time(tmp_path, monkeypatch, ne39_model):
    # the CLI's writer, rendering inline, holds about one block of ne39's 20 s table, not the document
    monkeypatch.setattr(cli, "usable_cpu_count", lambda: 1)
    model = ne39_model
    init = MachineState(model.op.delta_s.copy(), np.full(model.n, model.op.omega_s))
    dist = DisturbanceSpec(kind="state-offset", target=0, d_delta=0.05)
    traj = simulate(init, model, ControlConfig(), dist, t_max=20.0, dt=1e-3)
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        with cli._output(argparse.Namespace(out=str(out))) as f:
            with cli._TrajectoryWriter(f, reports.table_parts, {"tool": "gridlink"}) as writer:
                for rows in row_blocks(traj.times.size):
                    writer.on_block(traj, rows.stop)
                writer.finish(reports.table_footer({"alpha_max": "-0.09"}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8").count("\n") == 20001 + 3
    assert peak < out.stat().st_size / 4
