import argparse
import re
import tracemalloc

import numpy as np
import pytest

from gridlink import cli, reports
from gridlink.case import case_path
from gridlink.cli import main
from gridlink.dynamics import ControlConfig, DisturbanceSpec, MachineState, Trajectory, simulate
from gridlink.reports import ROWS_PER_BLOCK, header_lines, render_json, trajectory_document, trajectory_table


def _per_value_table(traj, meta, footer):
    # the renderer trajectory_table replaced: one numpy scalar -> float -> repr per value
    n = traj.delta.shape[1]
    lines = header_lines(meta)
    lines.append(",".join(["time"] + [f"delta_{i + 1}" for i in range(n)] + [f"omega_{i + 1}" for i in range(n)]))
    for k in range(traj.times.size):
        values = [repr(float(traj.times[k]))]
        values += [repr(float(v)) for v in traj.delta[k]]
        values += [repr(float(v)) for v in traj.omega[k]]
        lines.append(",".join(values))
    lines += header_lines(footer)
    return "\n".join(lines) + "\n"


def test_trajectory_table_matches_per_value_renderer():
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
    text = "".join(trajectory_table(traj, meta, footer))
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


def _per_value_trajectory_document(traj, meta, footer):
    return {
        "meta": meta,
        "dt": float(traj.dt),
        "times": [float(v) for v in traj.times],
        "delta": [[float(v) for v in row] for row in traj.delta],
        "omega": [[float(v) for v in row] for row in traj.omega],
        "summary": footer,
    }


def _rows_on_one_line(text):
    # a render_json document with each row of delta and omega on one line: trajectory_document's layout
    row = re.compile(r"\n    \[\n      ([^\]]*)\n    \]")
    return row.sub(lambda m: "\n    [" + m[1].replace(",\n      ", ", ") + "]", text)


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
    # the CLI document for ne39, byte for byte, against the per-value builder on the same inputs
    seen = []
    real = getattr(reports, builder)
    monkeypatch.setattr(reports, builder, lambda *args: seen.append(args) or real(*args))
    out = tmp_path / "doc.json"
    assert main([argv[0], "--case", str(case_path("newengland39")), "--out", str(out), *argv[1:]]) == 0
    (args,) = seen
    expected = render_json(oracle(*args))
    if builder == "trajectory_document":
        expected = _rows_on_one_line(expected)
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("rows", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 2 * ROWS_PER_BLOCK + 1])
def test_trajectory_blocks_join_to_per_row_documents(rows):
    # header, ceil(rows / ROWS_PER_BLOCK) blocks of rows and footer, for the table and for each
    # of the structured document's three arrays
    states = np.random.default_rng(rows).standard_normal((rows, 4)) * 10.0 ** np.arange(-2, 2)
    traj = Trajectory(times=np.arange(rows) * 1e-3, delta=states[:, :2], omega=states[:, 2:], dt=1e-3)
    meta, footer = {"tool": "gridlink", "links": 1}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}
    row_blocks = -(-rows // ROWS_PER_BLOCK)
    table = list(trajectory_table(traj, meta, footer))
    assert len(table) == row_blocks + 2
    assert max(block.count("\n") for block in table[1:-1]) <= ROWS_PER_BLOCK
    assert "".join(table) == _per_value_table(traj, meta, footer)
    document = list(trajectory_document(traj, meta, footer))
    assert len(document) == 3 * (row_blocks + 2) + 2
    assert "".join(document) == _rows_on_one_line(render_json(_per_value_trajectory_document(traj, meta, footer)))


def test_trajectory_table_is_written_one_block_at_a_time(tmp_path, ne39_model):
    # rendering and writing ne39's 20 s table holds about one block of rows, not the document
    model = ne39_model
    init = MachineState(model.op.delta_s.copy(), np.full(model.n, model.op.omega_s))
    dist = DisturbanceSpec(kind="state-offset", target=0, d_delta=0.05)
    traj = simulate(init, model, ControlConfig(), dist, t_max=20.0, dt=1e-3)
    out = tmp_path / "traj.csv"
    blocks = trajectory_table(traj, {"tool": "gridlink"}, {"alpha_max": "-0.09"})
    tracemalloc.start()
    try:
        cli._write(argparse.Namespace(out=str(out)), blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8").count("\n") == 20001 + 3
    assert peak < out.stat().st_size / 4
