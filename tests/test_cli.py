import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridlink
from conftest import two_bus_feeder
from gridlink.case import case_path
from gridlink.cli import main, parse_perturb
from gridlink.reports import read_reduction_document

SINGLE_MACHINE = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}],
  "branches": [],
  "generators": [{"bus": 1, "p_gen": 0.0, "h": 4.0}]
}"""

UNSTABLE_PAIR = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [
    {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
    {"id": 2, "kind": "pv", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}
  ],
  "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.5}],
  "generators": [
    {"bus": 1, "p_gen": 0.0, "h": 0.5, "d": 0.0, "xd_prime": 0.1},
    {"bus": 2, "p_gen": 0.0, "h": 0.5, "d": 0.0, "xd_prime": 0.1}
  ]
}"""


def run(args):
    return main([str(a) for a in args])


def test_analyze_toy3(tmp_path):
    out = tmp_path / "spectrum.json"
    code = run(["analyze", "--case", case_path("toy3"), "--out", out, "--format", "structured"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["deflated"] is True
    assert np.isfinite(doc["alpha_max"])
    assert len(doc["eigenvalues"]) == 6
    assert doc["meta"]["case_sha256"]


def test_analyze_table_format(tmp_path):
    out = tmp_path / "spectrum.txt"
    assert run(["analyze", "--case", case_path("toy3"), "--out", out]) == 0
    text = out.read_text()
    assert text.startswith("# tool: gridlink")
    assert "alpha_max:" in text
    assert "deflated_zero_mode: true" in text


def test_analyze_unreadable_path(tmp_path, capsys):
    code = run(["analyze", "--case", tmp_path / "missing.json", "--out", tmp_path / "o"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_diverging_powerflow(tmp_path, capsys):
    case = tmp_path / "bad.json"
    case.write_text(two_bus_feeder(20.0))
    code = run(["analyze", "--case", case, "--out", tmp_path / "o"])
    assert code == 1
    assert "power flow did not converge" in capsys.readouterr().err


def test_analyze_with_links_file(tmp_path):
    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 2]]}')
    out = tmp_path / "spectrum.json"
    code = run(["analyze", "--case", case_path("toy3"), "--out", out, "--links", links, "--format", "structured"])
    assert code == 0
    assert json.loads(out.read_text())["meta"]["links"] == 1


def test_bad_links_file(tmp_path, capsys):
    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 99]]}')
    code = run(["analyze", "--case", case_path("toy3"), "--out", tmp_path / "o", "--links", links])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_plan_full_budget(tmp_path):
    out = tmp_path / "plan.json"
    code = run(["plan", "--case", case_path("newengland39"), "--out", out, "--budget", 15, "--gain", -1.0, "--format", "structured"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["iterations"]) == 15
    alphas = [doc["baseline_alpha"]] + [row["alpha_max"] for row in doc["iterations"]]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    assert doc["improvement"] > 0
    assert float(doc["meta"]["improvement"]) > 0


def test_plan_table_mirrors_iteration_layout(tmp_path):
    out = tmp_path / "plan.csv"
    assert run(["plan", "--case", case_path("newengland39"), "--out", out, "--budget", 3]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "iteration,gen_i,gen_k,alpha_max,marginal_gain"
    assert lines[1].startswith("0,,,")  # baseline row has empty link columns
    assert len(lines) == 1 + 1 + 3
    header = [l for l in out.read_text().splitlines() if l.startswith("# improvement:")]
    assert len(header) == 1 and float(header[0].split(":")[1]) > 0


def test_plan_budget_zero(tmp_path):
    out = tmp_path / "plan.json"
    assert run(["plan", "--case", case_path("toy4"), "--out", out, "--budget", 0, "--format", "structured"]) == 0
    doc = json.loads(out.read_text())
    assert doc["iterations"] == []
    assert doc["final_alpha"] == doc["baseline_alpha"]


def test_plan_budget_clamped(tmp_path, capsys):
    out = tmp_path / "plan.json"
    with pytest.warns(UserWarning, match="clamped"):
        code = run(["plan", "--case", case_path("newengland39"), "--out", out, "--budget", 10**6,
                    "--allow-nonpositive", "--format", "structured"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["iterations"]) == 45


def test_plan_rejects_nonnegative_gain(tmp_path, capsys):
    code = run(["plan", "--case", case_path("toy4"), "--out", tmp_path / "o", "--gain", 1.0])
    assert code == 2
    assert "negative gain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [("plan", "--gain", "nan"), ("simulate", "--dt", "nan"), ("simulate", "--tmax", "inf")],
)
def test_non_finite_number_is_input_error(tmp_path, capsys, subcommand, flag, value):
    code = run([subcommand, "--case", case_path("toy3"), "--out", tmp_path / "o", f"{flag}={value}"])
    assert code == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, links_text",
    [
        (["--perturb", "gen=1.7,ddelta=0.1"], None),
        (["--perturb", "gen=inf,ddelta=0.1"], None),
        (["--perturb", "gen=1,ddelta=0.1,at=inf"], None),
        (["--perturb", "gen=nan,ddelta=0.1"], None),
        (["--perturb", "gen=1,ddelta=nan"], None),
        ([], '{"links": [[true, 2]]}'),
        (["--tmax", "1e9", "--dt", "1e-3"], None),
        (["--perturb", "gen=1,gen=2,ddelta=0.1"], None),
    ],
    ids=["gen-fraction", "gen-inf", "at-inf", "gen-nan", "ddelta-nan", "bool-link", "step-cap", "gen-twice"],
)
def test_malformed_simulate_input_is_input_error(tmp_path, capsys, extra, links_text):
    argv = ["simulate", "--case", case_path("toy3"), "--out", tmp_path / "o", *extra]
    if links_text is not None:
        (tmp_path / "links.json").write_text(links_text)
        argv += ["--links", tmp_path / "links.json"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "input error" in err


@pytest.mark.parametrize("which", ["links-missing", "links-directory", "links-not-utf8", "case-not-utf8"])
def test_unreadable_input_file_is_input_error(tmp_path, capsys, which):
    bad = tmp_path / "bad.json"
    if which == "links-directory":
        bad.mkdir()
    elif which.endswith("not-utf8"):
        bad.write_bytes(b'{"links": [[1, 2]]} \xff')
    case = bad if which == "case-not-utf8" else case_path("toy3")
    argv = ["analyze", "--case", case, "--out", tmp_path / "o"]
    if which.startswith("links"):
        argv += ["--links", bad]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "input error: cannot read" in err


def test_overflowing_gain_prints_one_line(tmp_path, capfd):
    # worker processes print numpy warnings straight to the inherited stderr
    env = {**os.environ, "PYTHONPATH": str(Path(gridlink.__file__).parents[1])}
    argv = ["plan", "--case", str(case_path("newengland39")), "--out", str(tmp_path / "o"), "--gain=-1e308",
            "--workers", "2", "--budget", "1"]
    proc = subprocess.run([sys.executable, "-m", "gridlink", *argv], env=env, timeout=60)
    assert proc.returncode == 1
    err = capfd.readouterr().err
    assert err.splitlines() == ["gridlink: computation error: Jacobian has non-finite entries"]


def test_plan_worker_error_exit_code(tmp_path, capsys):
    # a finite gain so large that every candidate's control block overflows
    code = run(["plan", "--case", case_path("toy4"), "--out", tmp_path / "o", "--gain=-1e308", "--budget", 2,
                "--workers", 2])
    assert code == 1
    assert "computation error: Jacobian has non-finite entries" in capsys.readouterr().err


def test_plan_echoes_requested_workers(tmp_path, monkeypatch, inline_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    out = tmp_path / "plan.json"
    assert run(["plan", "--case", case_path("toy4"), "--out", out, "--budget", 2, "--workers", 64,
                "--format", "structured"]) == 0
    assert json.loads(out.read_text())["meta"]["workers"] == 64
    assert inline_pool == [4]


def test_plan_final_alpha_equals_analyze(tmp_path):
    plan = tmp_path / "plan.json"
    assert run(["plan", "--case", case_path("newengland39"), "--out", plan, "--budget", 15,
                "--format", "structured"]) == 0
    doc = json.loads(plan.read_text())
    links = tmp_path / "links.json"
    links.write_text(json.dumps({"links": [[row["gen_i"], row["gen_k"]] for row in doc["iterations"]]}))
    spectrum = tmp_path / "spectrum.json"
    assert run(["analyze", "--case", case_path("newengland39"), "--out", spectrum, "--links", links,
                "--format", "structured"]) == 0
    assert json.loads(spectrum.read_text())["alpha_max"] == doc["final_alpha"]


def test_plan_byte_identical_and_parallel(tmp_path):
    def plan_bytes(name, workers):
        out = tmp_path / f"{name}.json"
        args = ["plan", "--case", case_path("newengland39"), "--out", out, "--budget", 5,
                "--workers", workers, "--format", "structured"]
        assert run(args) == 0
        return out.read_bytes()

    serial_a, serial_b = plan_bytes("a", 1), plan_bytes("b", 1)
    parallel_a, parallel_b = plan_bytes("c", 4), plan_bytes("d", 4)
    assert serial_a == serial_b
    assert parallel_a == parallel_b
    # the parallel sweep must select the identical link sequence
    rows_serial = json.loads(serial_a)["iterations"]
    rows_parallel = json.loads(parallel_a)["iterations"]
    assert rows_serial == rows_parallel


def test_simulate_equilibrium_constant(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--case", case_path("toy3"), "--out", out, "--tmax", 1.0, "--dt", 0.001])
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if l.startswith("time,"))
    assert header == "time,delta_1,delta_2,delta_3,omega_1,omega_2,omega_3"
    rows = [l for l in lines if not l.startswith("#") and not l.startswith("time,")]
    first = np.array([float(v) for v in rows[0].split(",")])
    last = np.array([float(v) for v in rows[-1].split(",")])
    assert np.abs(first[1:] - last[1:]).max() <= 1e-10


def test_simulate_fit_matches_alpha(tmp_path):
    # small speed offset on a stable configuration
    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 2]]}')
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--case", case_path("toy3"), "--out", out, "--links", links,
                "--tmax", 5.0, "--perturb", "gen=1,domega=0.05"])
    assert code == 0
    text = out.read_text()
    fitted = float(next(l for l in text.splitlines() if l.startswith("# fitted_decay_rate:")).split(":")[1])
    alpha = float(next(l for l in text.splitlines() if l.startswith("# alpha_max:")).split(":")[1])
    assert fitted == pytest.approx(alpha, rel=0.15)


@pytest.mark.parametrize(
    "subcommand, extra",
    [
        ("analyze", ["--no-deflate"]),
        ("plan", ["--no-deflate"]),
        ("reduce", ["--format", "table"]),
        ("reduce", ["--links", "x"]),
    ],
)
def test_undeclared_flag_is_usage_error(tmp_path, capsys, subcommand, extra):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--case", case_path("toy3"), "--out", tmp_path / "o", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_structured_document(tmp_path):
    out = tmp_path / "traj.json"
    code = run(["simulate", "--case", case_path("toy3"), "--out", out, "--tmax", 0.1,
                "--perturb", "gen=2,ddelta=0.01,domega=0", "--format", "structured"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["times"]) == 101
    assert doc["delta"][0][1] - doc["delta"][0][0] == pytest.approx(0.01, abs=1e-12)


def test_simulate_blowup_exit_code(tmp_path, capsys):
    case = tmp_path / "unstable.json"
    case.write_text(UNSTABLE_PAIR)
    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 2]]}')
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--case", case, "--out", out, "--links", links, "--gain", 50.0,
                "--perturb", "gen=1,ddelta=0.001", "--tmax", 20.0])
    assert code == 1
    assert "non-finite at t =" in capsys.readouterr().err


def test_simulate_pm_step(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--case", case_path("toy3"), "--out", out, "--tmax", 1.0,
                "--perturb", "pm-step gen=1,dpm=0.05,at=0.2"])
    assert code == 0


def test_perturb_parsing_errors():
    from gridlink.cli import InputError

    with pytest.raises(InputError):
        parse_perturb("gen=1,dpm=0.5")  # dpm not valid for state-offset
    with pytest.raises(InputError):
        parse_perturb("pm-step gen=1,ddelta=0.1")
    with pytest.raises(InputError):
        parse_perturb("ddelta=0.1")  # missing gen
    spec = parse_perturb("pm-step gen=3,dpm=0.1,at=1.5")
    assert spec.kind == "mechanical-step" and spec.target == 2 and spec.t_apply == 1.5


def test_reduce_new_england(tmp_path):
    out = tmp_path / "reduced.json"
    assert run(["reduce", "--case", case_path("newengland39"), "--out", out]) == 0
    net, op = read_reduction_document(out.read_text())
    assert net.y_g.shape == (10, 10)
    assert op.delta_s.shape == (10,)


def test_reduce_single_machine(tmp_path):
    case = tmp_path / "one.json"
    case.write_text(SINGLE_MACHINE)
    out = tmp_path / "reduced.json"
    assert run(["reduce", "--case", case, "--out", out]) == 0
    net, _ = read_reduction_document(out.read_text())
    assert net.y_g.shape == (1, 1)


def test_reduce_round_trip_full_precision(tmp_path, ne39_model):
    out = tmp_path / "reduced.json"
    assert run(["reduce", "--case", case_path("newengland39"), "--out", out]) == 0
    net, op = read_reduction_document(out.read_text())
    assert np.array_equal(net.y_g, ne39_model.net.y_g)
    assert np.array_equal(net.e_mag, ne39_model.net.e_mag)
    assert np.array_equal(net.c, ne39_model.net.c)
    assert np.array_equal(net.d, ne39_model.net.d)
    assert np.array_equal(op.delta_s, ne39_model.op.delta_s)
    assert op.omega_s == ne39_model.op.omega_s
    assert np.array_equal(op.p_m_const, ne39_model.op.p_m_const)


def test_analyze_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["analyze", "--case", case_path("toy4"), "--out", out, "--format", "structured"]) == 0
    assert a.read_bytes() == b.read_bytes()
