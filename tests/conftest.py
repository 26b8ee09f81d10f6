import json
import os
import re

import numpy as np
import pytest

from gridlink.case import load_case, parse_case
from gridlink.model import build_system
from gridlink.powerflow import solve_powerflow
from gridlink.reports import header_lines

TWO_MACHINE_OSCILLATOR = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [
    {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
    {"id": 2, "kind": "pv", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}
  ],
  "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.5}],
  "generators": [
    {"bus": 1, "p_gen": 0.0, "h": 4.0, "d": 0.0, "xd_prime": 0.1},
    {"bus": 2, "p_gen": 0.0, "h": 4.0, "d": 0.0, "xd_prime": 0.1}
  ]
}"""


def two_bus_feeder(p_load: float) -> str:
    return f"""{{
      "base_mva": 100.0, "f0": 60.0,
      "buses": [
        {{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}},
        {{"id": 2, "kind": "pq", "p_load": {p_load}, "q_load": 0.0}}
      ],
      "branches": [{{"from": 1, "to": 2, "r": 0.0, "x": 0.1}}],
      "generators": [{{"bus": 1, "p_gen": {p_load}, "h": 4.0}}]
    }}"""


def serialize_case(case) -> str:
    """Render a case back to its JSON document form (parse round-trips exactly)."""
    doc: dict = {"base_mva": case.base_mva, "f0": case.f0, "buses": [], "branches": [], "generators": []}
    for bus in case.buses:
        entry: dict = {"id": bus.id, "kind": bus.kind, "p_load": bus.p_load, "q_load": bus.q_load}
        if bus.v_set is not None:
            entry["v_set"] = bus.v_set
        entry["shunt_g"] = bus.shunt_g
        entry["shunt_b"] = bus.shunt_b
        doc["buses"].append(entry)
    for br in case.branches:
        doc["branches"].append(
            {"from": br.from_bus, "to": br.to_bus, "r": br.r, "x": br.x, "b": br.b_charging, "tap": br.tap}
        )
    for gen in case.generators:
        doc["generators"].append(
            {"bus": gen.bus, "p_gen": gen.p_gen, "h": gen.inertia_h, "d": gen.damping_d, "xd_prime": gen.xd_prime}
        )
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped: a forked trajectory writer,
    say, or a worker that planner.sweep forked."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process")


@pytest.fixture(scope="session")
def toy3_case():
    return load_case("toy3")


@pytest.fixture(scope="session")
def toy4_case():
    return load_case("toy4")


@pytest.fixture(scope="session")
def ne39_case():
    return load_case("newengland39")


@pytest.fixture(scope="session")
def toy3_model(toy3_case):
    return build_system(toy3_case)


@pytest.fixture(scope="session")
def toy4_model(toy4_case):
    return build_system(toy4_case)


@pytest.fixture(scope="session")
def ne39_model(ne39_case):
    return build_system(ne39_case)


@pytest.fixture(scope="session")
def ne39_pf(ne39_case):
    return solve_powerflow(ne39_case)


@pytest.fixture(scope="session")
def oscillator_model():
    return build_system(parse_case(TWO_MACHINE_OSCILLATOR))


def equilibrium_state(model):
    from gridlink.dynamics import MachineState

    return MachineState(delta=model.op.delta_s.copy(), omega=np.full(model.n, model.op.omega_s))


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every process os.fork starts from this one."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def sweep_forks(monkeypatch, forks):
    """The number of processes each call of planner.sweep forks, in call order."""
    from gridlink import planner

    counts, real_sweep = [], planner.sweep

    def sweep(*args, **kwargs):
        before = len(forks)
        try:
            return real_sweep(*args, **kwargs)
        finally:
            counts.append(len(forks) - before)

    monkeypatch.setattr(planner, "sweep", sweep)
    return counts


def one_short_line(err, *paths):
    """The one line of the diagnostic err, checked to hold at most 160 characters besides the file paths it
    names: a long input is not echoed whole."""
    [line] = err.splitlines()
    rest = line
    for path in paths:
        rest = rest.replace(str(path), "")
    assert len(rest) <= 160, line
    return line


# Independent oracles of the trajectory documents: one numpy scalar -> float -> repr per value.  Both hold the
# same rows, [time, delta_1..delta_n, omega_1..omega_n], under the same column names.
def _columns(n):
    return ["time"] + [f"delta_{i + 1}" for i in range(n)] + [f"omega_{i + 1}" for i in range(n)]


def _per_value_table(traj, meta, footer):
    lines = header_lines(meta)
    lines.append(",".join(_columns(traj.delta.shape[1])))
    for k in range(traj.times.size):
        values = [repr(float(traj.times[k]))]
        values += [repr(float(v)) for v in traj.delta[k]]
        values += [repr(float(v)) for v in traj.omega[k]]
        lines.append(",".join(values))
    lines += header_lines(footer)
    return "\n".join(lines) + "\n"


def _per_value_trajectory_document(traj, meta, footer):
    return {
        "meta": meta,
        "columns": _columns(traj.delta.shape[1]),
        "rows": [
            [float(traj.times[k])] + [float(v) for v in traj.delta[k]] + [float(v) for v in traj.omega[k]]
            for k in range(traj.times.size)
        ],
        "summary": footer,
    }


def _rows_on_one_line(text):
    # a render_json document with each of its rows on one line: the structured trajectory's layout
    row = re.compile(r"\n    \[\n      ([^\]]*)\n    \]")
    return row.sub(lambda m: "\n    [" + m[1].replace(",\n      ", ", ") + "]", text)
