import argparse
import contextlib
import copy
import io
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridlink
from conftest import (
    _per_value_table,
    _per_value_trajectory_document,
    _rows_on_one_line,
    one_short_line,
    two_bus_feeder,
)
from gridlink import cli, planner, reports
from gridlink.case import case_path, parse_case, validate
from gridlink.cli import main, parse_perturb
from gridlink.dynamics import (
    ROWS_PER_BLOCK,
    ControlConfig,
    DisturbanceSpec,
    decay_rate,
    equilibrium_state,
    horizon_steps,
    link_laplacian,
    normalize_link,
    row_blocks,
    simulate,
)
from gridlink.linearization import alpha_for_links

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


HORIZON_RULE = "dt must be a finite number > 0 and tmax a finite number >= dt"
STEPS_RULE = "tmax / dt exceeds 1000000 steps"
GAIN_RULE = "gain must be a finite number below zero"


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


@pytest.mark.parametrize("factor, code", [(2.0, 0), (3.0, 1)])
def test_analyze_load_scaling_past_nose_point(tmp_path, capsys, factor, code):
    # ne39 with every load and dispatch scaled: x3 is past the voltage-collapse point
    doc = json.loads(Path(case_path("newengland39")).read_text())
    for bus in doc["buses"]:
        bus["p_load"] *= factor
        bus["q_load"] *= factor
    for gen in doc["generators"]:
        gen["p_gen"] *= factor
    case = tmp_path / "scaled.json"
    case.write_text(json.dumps(doc))
    assert run(["analyze", "--case", case, "--out", tmp_path / "o"]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and "power flow did not converge" in err


def test_analyze_with_links_file(tmp_path):
    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 2]]}')
    out = tmp_path / "spectrum.json"
    code = run(["analyze", "--case", case_path("toy3"), "--out", out, "--links", links, "--format", "structured"])
    assert code == 0
    assert json.loads(out.read_text())["meta"]["links"] == 1


def test_bad_links_file(tmp_path, capsys):
    links = tmp_path / "links.json"
    for pair, problem in [("[1, 99]", "out of range for 3 generators"), ("[1, 1]", "joins a generator to itself")]:
        links.write_text(f'{{"links": [{pair}]}}')
        code = run(["analyze", "--case", case_path("toy3"), "--out", tmp_path / "o", "--links", links])
        assert code == 2
        line = f"gridlink: input error: links file {links}: link {pair} {problem}"
        assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("subcommand", ["analyze", "plan", "simulate"])
@pytest.mark.parametrize("pairs", ["[1, 2], [1, 2]", "[1, 2], [2, 1]"], ids=["same", "reversed"])
def test_links_file_with_a_repeated_link_is_input_error(tmp_path, capsys, subcommand, pairs):
    links = tmp_path / "links.json"
    links.write_text(f'{{"links": [{pairs}]}}')
    code = run([subcommand, "--case", case_path("toy3"), "--out", tmp_path / "o", "--links", links])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"gridlink: input error: links file {links}: duplicate links"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["analyze", "plan", "simulate"])
@pytest.mark.parametrize("key, shown", [("gain", "'gain'"), ("k" * 400, f"'{'k' * 12}...{'k' * 13}'")],
                         ids=["gain", "long-key"])
def test_links_file_with_an_unknown_key_is_input_error(tmp_path, capsys, subcommand, key, shown):
    # a key the reader does not read is refused, not ignored: a "gain" here never set the control's gain
    links = tmp_path / "links.json"
    links.write_text(json.dumps({"links": [[1, 2]], key: -5}))
    code = run([subcommand, "--case", case_path("toy3"), "--out", tmp_path / "o", "--links", links])
    assert code == 2
    line = one_short_line(capsys.readouterr().err, links)
    assert line == f"gridlink: input error: links file {links}: unknown field(s) {shown}"
    assert not (tmp_path / "o").exists()


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
    assert capsys.readouterr().err.splitlines() == [f"gridlink: input error: {GAIN_RULE}"]


def test_plan_one_generator_is_input_error(tmp_path, capsys):
    # gridlink plan and validate both report planner.candidate_links's message
    case = tmp_path / "feeder.json"
    case.write_text(two_bus_feeder(0.5))
    rule = "need at least two generators to form links, got 1"
    with pytest.raises(ValueError, match=f"^{rule}$"):
        planner.candidate_links(1)
    for subcommand in ("plan", "validate"):
        assert run([subcommand, "--case", case, "--out", tmp_path / "o"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"gridlink: input error: {rule}"] and captured.out == ""
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [("plan", "--gain", "nan"), ("simulate", "--dt", "nan"), ("simulate", "--tmax", "inf")],
)
def test_non_finite_number_is_input_error(tmp_path, capsys, subcommand, flag, value):
    code = run([subcommand, "--case", case_path("toy3"), "--out", tmp_path / "o", f"{flag}={value}"])
    assert code == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, links_text, problem",
    [
        (["--perturb", "gen=1.7,ddelta=0.1"], None, "not an integer"),
        (["--perturb", "gen=inf,ddelta=0.1"], None, "not an integer"),
        (["--perturb", "gen=1,ddelta=0.1,at=inf"], None, "must be a finite number"),
        (["--perturb", "gen=nan,ddelta=0.1"], None, "not an integer"),
        (["--perturb", "gen=1,ddelta=nan"], None, "must be a finite number"),
        ([], '{"links": [[true, 2]]}', "must be a pair of integers"),
        (["--tmax", "1e9", "--dt", "1e-3"], None, "steps"),
        (["--perturb", "gen=1,gen=2,ddelta=0.1"], None, "given more than once"),
        (["--perturb", f"gen={10**400},ddelta=0.1"], None, "generator '100000000000...0000000000000' out of range"),
        # more digits than int() converts
        (["--perturb", f"gen=1{'0' * 5000},ddelta=0.1"], None, "generator '100000000000...0000000000000' out of range"),
        (["--perturb", f"gen=-{10**400},ddelta=0.1"], None, "generator '-10000000000...0000000000000' out of range"),
        ([], f'{{"links": [[{10**400}, 2]]}}',
         "link [100000000000000000...0000000000000000000, 2] out of range for 3 generators"),
        ([], f'{{"links": [[1, 2, {10**400}]]}}', "got [1, 2, 100000000000000000...0000000000000000000]"),
        # a long term or key is abridged in every message that echoes it
        (["--perturb", f"gen=1,ddelta=1{'0' * 400}"], None, "term 'ddelta=10000...0000000000000': must be a finite"),
        (["--perturb", f"gen=1,ddelta=x{'0' * 400}"], None, "term 'ddelta=x0000...0000000000000': not a number"),
        (["--perturb", f"gen=1,{'k' * 400}=0.1"], None, "fields ['kkkkkkkkkkkk...kkkkkkkkkkkkk'] not valid"),
        (["--perturb", f"gen=1,at={'9' * 400}"], None, "term 'at=999999999...9999999999999': must be a finite"),
        (["--perturb", f"gen=1,{'k' * 400}"], None, "malformed perturbation term 'kkkkkkkkkkkk...kkkkkkkkkkkkk'"),
        (["--perturb", f"gen=1,{'k' * 400}=1,{'k' * 400}=2"], None, "field 'kkkkkkkkkkkk...kkkkkkkkkkkkk' given"),
        (["--perturb", "gen=1,dp=0.1"], None, "fields ['dp'] not valid; the keys are gen, ddelta, domega, dpm, at"),
        # pm-step is a word of its own, and no number takes the "_" digit separators int() and float() read
        (["--perturb", "pm-stepgen=1,dpm=0.1"], None, "fields ['pm-stepgen'] not valid"),
        (["--perturb", "gen=1_0,ddelta=0.1"], None, "term 'gen=1_0': not an integer"),
        (["--perturb", "gen=1,ddelta=0_1"], None, "term 'ddelta=0_1': not a number"),
        # nor other scripts' digits, which they read too
        (["--perturb", "gen=\u0661,ddelta=0.1"], None, "term 'gen=\u0661': not an integer"),
        (["--perturb", "gen=1,ddelta=0.\u0661"], None, "term 'ddelta=0.\u0661': not a number"),
    ],
    ids=["gen-fraction", "gen-inf", "at-inf", "gen-nan", "ddelta-nan", "bool-link", "step-cap", "gen-twice",
         "gen-huge", "gen-beyond-int-digits", "gen-huge-negative", "link-huge", "link-long", "ddelta-long",
         "ddelta-long-text", "key-long", "at-long", "term-long", "key-long-twice", "key-unknown", "pm-step-glued",
         "gen-separator", "ddelta-separator", "gen-arabic-indic", "ddelta-arabic-indic"],
)
def test_malformed_simulate_input_is_input_error(tmp_path, capsys, extra, links_text, problem):
    argv = ["simulate", "--case", case_path("toy3"), "--out", tmp_path / "o", *extra]
    if links_text is not None:
        (tmp_path / "links.json").write_text(links_text)
        argv += ["--links", tmp_path / "links.json"]
    assert run(argv) == 2
    line = one_short_line(capsys.readouterr().err, tmp_path / "links.json")
    assert line.startswith("gridlink: input error: ") and problem in line


@pytest.mark.parametrize(
    "argv, line",
    [
        (["plan", "--budget", "-1"], "budget must be nonnegative"),
        (["plan", "--workers", "0"], "workers must be at least 1"),
        (["simulate", "--dt", "0"], HORIZON_RULE),
        (["simulate", "--tmax", "0.0005", "--dt", "0.001"], HORIZON_RULE),
        (["simulate", "--perturb", "gen=4,ddelta=0.1"], "perturbation generator 4 out of range for 3 generators"),
        # a disturbance time is rounded up to a grid time, which must be within the run
        (["simulate", "--tmax", "2", "--perturb", "gen=1,ddelta=0.1,at=5"],
         "disturbance time 5 s outside the run, 0 to 2 s"),
        (["simulate", "--tmax", "2", "--perturb", "pm-step gen=1,dpm=0.1,at=2.5"],
         "disturbance time 2.5 s outside the run, 0 to 2 s"),
        (["simulate", "--tmax", "2", "--perturb", "gen=1,ddelta=0.1,at=-3"],
         "disturbance time -3 s outside the run, 0 to 2 s"),
    ],
    ids=["budget-negative", "workers-zero", "dt-zero", "tmax-below-dt", "gen-out-of-range",
         "at-after-run", "pm-step-at-after-run", "at-negative"],
)
def test_flag_out_of_range_is_input_error(tmp_path, capsys, argv, line):
    # each rule is checked before --out is opened, so an earlier file there is left as it was
    earlier = tmp_path / "o"
    earlier.write_bytes(b"an earlier document\n")
    assert run([*argv, "--case", case_path("toy3"), "--out", earlier]) == 2
    assert capsys.readouterr().err.splitlines() == [f"gridlink: input error: {line}"]
    assert earlier.read_bytes() == b"an earlier document\n"


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


@pytest.mark.parametrize(
    "kind, rule",
    [
        ("bogus", "bus 2: unknown kind 'bogus'"),
        ([1], "buses[1].kind: expected a string, got list"),
        ("k" * 400, f"bus 2: unknown kind '{'k' * 12}...{'k' * 13}'"),
    ],
    ids=["unknown-name", "not-a-string", "long-name"],
)
def test_unknown_bus_kind_is_input_error(tmp_path, capsys, kind, rule):
    # the case's own rule names the bus, and the reader a kind that is no string, from analyze and
    # validate, in one line and without a traceback
    doc = json.loads(case_path("toy3").read_text())
    doc["buses"][1]["kind"] = kind
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    for subcommand in ("analyze", "validate"):
        assert run([subcommand, "--case", case, "--out", tmp_path / "o"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"gridlink: input error: {rule}"] and captured.out == ""


@pytest.mark.parametrize(
    "field, location",
    [(["base_mva"], "top level.base_mva"), (["generators", 1, "h"], "generators[1].h"),
     (["buses", 2, "p_load"], "buses[2].p_load")],
    ids=["base_mva", "h", "p_load"],
)
def test_integer_too_large_for_a_float_is_input_error(tmp_path, capsys, field, location):
    doc = json.loads(case_path("toy3").read_text())
    *parents, key = field
    node = doc
    for step in parents:
        node = node[step]
    node[key] = 10**400
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert run(["analyze", "--case", case, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"gridlink: input error: {location}: expected a finite number\n"


HUGE = f"1{'0' * 17}...{'0' * 19}"  # 10**400 as reprlib.repr abridges it


@pytest.mark.parametrize(
    "entry, rule",
    [
        (("branches", 0, "from"), f"branch 0 ({HUGE}-2): references nonexistent bus {HUGE}"),
        (("branches", 0, "to"), f"branch 0 (1-{HUGE}): references nonexistent bus {HUGE}"),
        (("generators", 0, "bus"), f"generator 0 (bus {HUGE}): references nonexistent bus {HUGE}"),
    ],
    ids=["from", "to", "generator-bus"],
)
def test_huge_bus_reference_is_one_short_input_error(tmp_path, capsys, entry, rule):
    # an integer bus reference of 401 digits breaks one case rule, whose message abridges it
    records, index, key = entry
    doc = json.loads(case_path("toy3").read_text())
    doc[records][index][key] = 10**400
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert run(["analyze", "--case", case, "--out", tmp_path / "o"]) == 2
    assert one_short_line(capsys.readouterr().err) == f"gridlink: input error: {rule}"


@pytest.mark.parametrize("reader", ["case", "links"])
@pytest.mark.parametrize(
    "text, message",
    [("[" * 100_000 + "]" * 100_000, "recursion depth"), ('{"links": [[1, 2' + "0" * 10_000 + "]]}", "digits")],
    ids=["deep-nesting", "long-integer"],
)
def test_json_the_parser_refuses_is_input_error(tmp_path, capsys, reader, text, message):
    # json.loads raises RecursionError for deep nesting, and ValueError for an integer of more digits
    # than int() converts: neither is a JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = ["analyze", "--case", bad if reader == "case" else case_path("toy3"), "--out", tmp_path / "o"]
    if reader == "links":
        argv += ["--links", bad]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gridlink: input error: ") and message in err


@pytest.mark.parametrize(
    "cut, islanded",
    [((2, 30), "30"), ((16, 19), "19, 20, 33, 34"), ((6, 31), "1, 2, 3, 4, 5, 6, ...")],
    ids=["2-30", "16-19", "6-31"],
)
def test_islanded_case_is_input_error(tmp_path, capsys, cut, islanded):
    # ne39 without one branch: before the connectivity check these failed the power flow (exit 1); of the
    # 38 buses cut off by 6-31, the first six are named
    doc = json.loads(case_path("newengland39").read_text())
    doc["branches"] = [br for br in doc["branches"] if {br["from"], br["to"]} != set(cut)]
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert run(["analyze", "--case", case, "--out", tmp_path / "o"]) == 2
    line = f"gridlink: input error: no branch path from slack bus 31 to bus(es) {islanded}"
    assert capsys.readouterr().err.splitlines() == [line]
    assert not (tmp_path / "o").exists()


def test_case_with_many_broken_rules_is_one_short_input_error(tmp_path, capsys):
    # ne39 with every branch's r and x zero breaks 47 rules: the line names two and counts the rest
    doc = json.loads(case_path("newengland39").read_text())
    for branch in doc["branches"]:
        branch["r"] = branch["x"] = 0
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert run(["analyze", "--case", case, "--out", tmp_path / "o"]) == 2
    assert one_short_line(capsys.readouterr().err) == (
        "gridlink: input error: branch 0 (1-2): r and x are both zero; branch 1 (1-39): r and x are both zero;"
        " ... and 45 more"
    )
    assert not (tmp_path / "o").exists()
    full = parse_case(case_path("newengland39").read_text())
    full.branches[:] = [replace(branch, r=0.0, x=0.0) for branch in full.branches]
    assert len(validate(full)) == 47  # validate still reports every entry


@pytest.mark.parametrize(
    "bus, values",
    [(2, {"p_load": 1e-160, "v_set": 5e-324}), (0, {"v_set": 6.7e185})],
    ids=["v_set-underflows", "v_set-overflows"],
)
def test_extreme_case_value_is_one_line_computation_error(tmp_path, capsys, bus, values):
    # finite values whose arithmetic overflows or divides by zero stop the run with one line, not
    # a traceback (a ZeroDivisionError) or a run of numpy warnings
    doc = json.loads(case_path("toy3").read_text())
    doc["buses"][bus].update(values)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert run(["analyze", "--case", case, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gridlink: computation error: ")
    assert not (tmp_path / "o").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@st.composite
def perturbed(draw, doc):
    """doc with one to three members, at any depth, replaced by a number or another JSON value, or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(st.floats() | st.integers() | JSON_VALUES)
            break
    return doc


TOY3_DOC = json.loads(case_path("toy3").read_text())
TOY3_LINKS = {"links": [[1, 2], [2, 3]]}


def _json_documents(base):
    return (JSON_VALUES | perturbed(base)).map(json.dumps)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def _exit_and_stderr(argv):
    """main's exit code and stderr; anything main raises but SystemExit fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(text=_json_documents(TOY3_DOC))
@example(text=json.dumps({**TOY3_DOC, "base_mva": 10**400}))
@example(text="[" * 100_000 + "]" * 100_000)
@example(text=json.dumps({"\n": None}))
def test_no_case_document_makes_main_raise(scratch_dir, text):
    case = scratch_dir / "case.json"
    case.write_text(text)
    code, err = _exit_and_stderr(["analyze", "--case", case, "--out", scratch_dir / "o"])
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1


@settings(max_examples=60, deadline=None)
@given(text=_json_documents(TOY3_LINKS))
@example(text="[" * 100_000 + "]" * 100_000)
def test_no_links_document_makes_main_raise(scratch_dir, text):
    links = scratch_dir / "links.json"
    links.write_text(text)
    code, err = _exit_and_stderr(["analyze", "--case", case_path("toy3"), "--links", links, "--out", scratch_dir / "o"])
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1


@pytest.mark.parametrize("case, available", [("toy3", 3), ("toy4", 6)])
def test_plan_clamped_budget_warns_in_one_line(tmp_path, capfd, case, available):
    # a subprocess, so the warning reaches stderr the way a user sees it
    env = {**os.environ, "PYTHONPATH": str(Path(gridlink.__file__).parents[1])}
    argv = ["plan", "--case", str(case_path(case)), "--out", str(tmp_path / "plan.txt"), "--budget", "15"]
    proc = subprocess.run([sys.executable, "-m", "gridlink", *argv], env=env, timeout=60)
    assert proc.returncode == 0
    assert capfd.readouterr().err.splitlines() == [
        f"gridlink: warning: budget 15 exceeds the {available} available links; clamped"
    ]


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


def test_plan_echoes_requested_workers(tmp_path, monkeypatch, sweep_forks):
    monkeypatch.setattr("gridlink.planner.usable_cpu_count", lambda: 4)
    out = tmp_path / "plan.json"
    assert run(["plan", "--case", case_path("toy4"), "--out", out, "--budget", 2, "--workers", 64,
                "--format", "structured"]) == 0
    assert json.loads(out.read_text())["meta"]["workers"] == 64
    assert sweep_forks == [0, 4, 4]  # the baseline, then each sweep of the candidates


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
    # simulate's footer reports the same alpha_max, bit for bit
    traj = tmp_path / "traj.csv"
    assert run(["simulate", "--case", case_path("newengland39"), "--out", traj, "--links", links,
                "--tmax", 0.01]) == 0
    footer = next(l for l in traj.read_text().splitlines() if l.startswith("# alpha_max: "))
    assert float(footer.split(": ", 1)[1]) == doc["final_alpha"]


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


@pytest.mark.parametrize("dt, tmax, samples", [(0.3, 1.05, 4), (0.001, 0.0015, 2), (0.1, 0.3, 4)])
def test_simulate_ends_at_last_grid_time_within_tmax(tmp_path, dt, tmax, samples):
    # the last sample is the last k dt <= tmax; 0.3 / 0.1 rounds below 3 and still takes 3 steps
    out = tmp_path / "traj.json"
    code = run(["simulate", "--case", case_path("toy3"), "--out", out, "--dt", dt, "--tmax", tmax,
                "--format", "structured"])
    assert code == 0
    times = [row[0] for row in json.loads(out.read_text())["rows"]]
    assert len(times) == samples
    assert times[-1] <= tmax + 1e-9 * dt


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


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_simulate_fit_is_the_library_decay_rate_bit_for_bit(tmp_path, toy4_model, ne39_model, fmt):
    # simulate and validate add each block's deviation norms to the fit as the block passes, as decay_rate
    # adds them, with the fit from tmax / 4 on: simulate's footer holds the repr of decay_rate on simulate's
    # trajectory, and validate's header that of a run of the planned links at the default horizon and the
    # repr of its mismatch with the plan's alpha_max
    def line(key, value):
        return f'"{key}": "{value!r}"' if fmt == "structured" else f"# {key}: {value!r}\n"

    out = tmp_path / "doc"
    assert run(["simulate", "--case", case_path("newengland39"), "--out", out, "--tmax", 3.0,
                "--perturb", "gen=1,ddelta=0.05", "--format", fmt]) == 0
    states = simulate(equilibrium_state(ne39_model), ne39_model, ControlConfig((), -1.0),
                      DisturbanceSpec(target=0, d_delta=0.05), t_max=3.0)
    assert line("fitted_decay_rate", decay_rate(states, ne39_model.op, 1e-3, 0.75)) in out.read_text(encoding="utf-8")
    for case, model, budget in [("toy4", toy4_model, 1), ("newengland39", ne39_model, 3)]:
        assert run(["validate", "--case", case_path(case), "--out", out, "--budget", budget, "--format", fmt]) == 0
        plan = planner.greedy_plan(model, budget, -1.0, allow_nonpositive=True)
        alpha, tmax = plan.final_alpha, max(cli.MIN_HORIZON, 4.0 / abs(plan.final_alpha))
        states = simulate(equilibrium_state(model), model, ControlConfig(plan.links, -1.0),
                          DisturbanceSpec(target=0, d_delta=0.01), t_max=tmax)
        fitted = decay_rate(states, model.op, 1e-3, tmax / 4.0)
        text = out.read_text(encoding="utf-8")
        assert line("fitted_decay_rate", fitted) in text
        assert line("mismatch", abs(fitted - alpha) / abs(alpha)) in text


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize(
    "extra, reason",
    [
        (["--tmax", 1.0], "deviation underflow: all norms in the fit window are below 1e-13"),
        (["--tmax", 0.001, "--perturb", "gen=1,ddelta=0.01"], "fewer than two usable samples in the fit window"),
    ],
    ids=["at-rest", "one-sample"],
)
def test_simulate_footer_says_why_no_decay_rate_was_fitted(tmp_path, toy3_model, fmt, extra, reason):
    # a run that stays at rest, or whose fit window holds one row, still succeeds; its footer gives the
    # fit's reason in place of the rate
    out = tmp_path / "traj"
    assert run(["simulate", "--case", case_path("toy3"), "--out", out, "--format", fmt, *extra]) == 0
    fitted, alpha = f"unavailable ({reason})", repr(alpha_for_links(toy3_model, (), -1.0))
    if fmt == "table":
        footer = f"# fitted_decay_rate: {fitted}\n# alpha_max: {alpha}\n"
    else:
        footer = f'  "summary": {{\n    "fitted_decay_rate": "{fitted}",\n    "alpha_max": "{alpha}"\n  }}\n}}\n'
    assert out.read_text(encoding="utf-8").endswith(footer)


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


LONG_INT, LONG_FLOAT = "1" + "0" * 5000, "x" + "0" * 5000


@pytest.mark.parametrize(
    "subcommand, flag, kind, value, shown",
    [
        ("plan", "--budget", "int", LONG_INT, "'100000000000...0000000000000'"),
        ("plan", "--workers", "int", LONG_INT, "'100000000000...0000000000000'"),
        ("analyze", "--gain", "float", LONG_FLOAT, "'x00000000000...0000000000000'"),
        ("simulate", "--dt", "float", LONG_FLOAT, "'x00000000000...0000000000000'"),
        ("simulate", "--tmax", "float", LONG_FLOAT, "'x00000000000...0000000000000'"),
        # a value of up to 28 characters is echoed whole, as argparse echoes it
        ("plan", "--budget", "int", "12x", "'12x'"),
        ("plan", "--workers", "int", "2.5", "'2.5'"),
        ("analyze", "--gain", "float", "1,5", "'1,5'"),
        ("simulate", "--dt", "float", "1e-3s", "'1e-3s'"),
        ("simulate", "--tmax", "float", "abcdefghijklmnopqrstuvwxyz01", "'abcdefghijklmnopqrstuvwxyz01'"),
        # int() and float() read "_" digit separators; no flag takes them
        ("plan", "--budget", "int", "1_5", "'1_5'"),
        ("simulate", "--tmax", "float", "2_0.5", "'2_0.5'"),
        # nor other scripts' digits (Arabic-Indic two, fullwidth one), nor whitespace around the number
        ("plan", "--budget", "int", "\u0662", "'\u0662'"),
        ("plan", "--gain", "float", "-\uff11", "'-\uff11'"),
        ("plan", "--workers", "int", " 2", "' 2'"),
        ("simulate", "--dt", "float", "1e-3\n", "'1e-3\\n'"),
    ],
    ids=["budget-long", "workers-long", "gain-long", "dt-long", "tmax-long", "budget", "workers", "gain", "dt",
         "tmax-28", "budget-separator", "tmax-separator", "budget-arabic-indic", "gain-fullwidth",
         "workers-padded", "dt-padded"],
)
def test_bad_flag_value_is_one_short_usage_error(tmp_path, capsys, subcommand, flag, kind, value, shown):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--case", case_path("toy3"), "--out", tmp_path / "o", flag, value])
    assert exc.value.code == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert line == f"gridlink {subcommand}: error: argument {flag}: invalid {kind} value: {shown}"
    assert len(line) <= 160


@pytest.mark.parametrize(
    "subcommand, case, flag, value, shown",
    [("plan", "toy4", "--gain", "-1e-3", "-0.001"), ("plan", "toy4", "--gain", "-1.", "-1.0"),
     ("plan", "toy4", "--gain", "-1E+2", "-100.0"), ("plan", "toy4", "--gain", "-.5", "-0.5"),
     ("validate", "toy3", "--ddelta", "-1e-3", "-0.001")],
)
def test_negative_float_after_a_space_is_the_flag_value(tmp_path, subcommand, case, flag, value, shown):
    # argparse's own pattern of a negative number reads neither an exponent nor a trailing point, and would
    # take these for options: "argument --gain: expected one argument"
    out = tmp_path / "doc.csv"
    assert run([subcommand, "--case", case_path(case), "--out", out, "--budget", "1", flag, value]) == 0
    assert f"# {flag[2:]}: {shown}\n" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "flag, kind, value, shown",
    [("--budget", "int", LONG_INT, "'100000000000...0000000000000'"), ("--budget", "int", "1.5", "'1.5'"),
     ("--ddelta", "float", LONG_FLOAT, "'x00000000000...0000000000000'"), ("--tmax", "float", "5s", "'5s'")],
    ids=["budget-long", "budget", "ddelta-long", "tmax"],
)
def test_validate_decay_bad_flag_value_is_one_short_usage_error(tmp_path, capsys, flag, kind, value, shown):
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--case", case_path("toy3"), "--out", tmp_path / "o", flag, value])
    assert exc.value.code == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert line == f"gridlink validate: error: argument {flag}: invalid {kind} value: {shown}"
    assert len(line) <= 160


def test_simulate_structured_document(tmp_path):
    out = tmp_path / "traj.json"
    code = run(["simulate", "--case", case_path("toy3"), "--out", out, "--tmax", 0.1,
                "--perturb", "gen=2,ddelta=0.01,domega=0", "--format", "structured"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 101
    assert doc["columns"][1:3] == ["delta_1", "delta_2"]
    assert doc["rows"][0][2] - doc["rows"][0][1] == pytest.approx(0.01, abs=1e-12)


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


def warn_at_fork(monkeypatch):
    """Make os.fork act as Python 3.12 on has it in a multi-threaded process: the child starts, then the
    parent is warned."""
    recorded_fork = os.fork

    def warning_fork():
        pid = recorded_fork()
        if pid:
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks"
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)


def assert_reaped(pid):
    # waitpid of a child that was reaped, or of no child, raises ChildProcessError
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once seconds have passed, rather than hang on a wait."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def streamed(values, before_each=None):
    """(rows, block) for each row_blocks slice of values, as integrate yields them: from one reused buffer,
    filled with NaN once the next block is asked for, so a writer that reads a block late reads NaN."""
    buffer = np.empty((ROWS_PER_BLOCK, values.shape[1]))
    for rows in row_blocks(len(values)):
        if before_each is not None:
            before_each()
        block = buffer[: rows.stop - rows.start]
        block[:] = values[rows]
        yield rows, block
        buffer[:] = np.nan


def trajectory_writer(fmt):
    """The write and footer functions run_simulate hands _TrajectoryWriter for --format fmt."""
    if fmt == "table":
        return reports.write_table, reports.table_footer
    return reports.write_document, reports.document_footer


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("rows", [1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 3 * ROWS_PER_BLOCK + 1])
def test_trajectory_writer_forked_and_inline_write_the_same_bytes(tmp_path, monkeypatch, forks, fmt, rows):
    # blocks handed on as integrate hands them on, from a buffer that the next block overwrites; a forked
    # writer, started only for more than one block where os.fork exists, reads each block from the pipe into
    # a real file, and writes the bytes the inline writer writes
    values = np.random.default_rng(rows).standard_normal((rows, 6)) * 10.0 ** np.arange(-3, 3)
    meta, footer = {"tool": "gridlink", "links": 2}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}
    write, closing = trajectory_writer(fmt)
    if fmt == "table":
        expected = _per_value_table(values, 1e-3, meta, footer)
    else:
        expected = _rows_on_one_line(reports.render_json(_per_value_trajectory_document(values, 1e-3, meta, footer)))

    def written(forked):
        path = tmp_path / f"traj-{forked}"
        with monkeypatch.context() as patch, time_limit(60), open(path, "w", encoding="utf-8") as out:
            if not forked:
                patch.delattr(os, "fork")
            with cli._TrajectoryWriter(out, write, rows, 1e-3, meta) as writer:
                # a pause before each block, so that the forked writer waits on an empty pipe
                writer.write_blocks(streamed(values, lambda: time.sleep(0.05)))
                writer.finish(closing(footer))
        return path.read_text(encoding="utf-8")

    inline = written(False)
    assert forks == []
    forked = written(True)
    assert forked == inline == expected
    assert len(forks) == (rows > ROWS_PER_BLOCK)
    for pid in forks:
        assert_reaped(pid)


def test_trajectory_writer_reaps_its_child_when_the_run_fails(tmp_path, forks):
    # an exception after the first block closes the pipe: the child reads its end and exits, and is reaped
    def failing():
        yield slice(0, ROWS_PER_BLOCK), np.zeros((ROWS_PER_BLOCK, 4))
        raise ValueError("after the first block")

    with time_limit(60), pytest.raises(ValueError, match="after the first block"):
        with open(tmp_path / "traj.csv", "w", encoding="utf-8") as out:
            writer = cli._TrajectoryWriter(out, reports.write_table, 3 * ROWS_PER_BLOCK, 1e-3, {"tool": "gridlink"})
            with writer:
                writer.write_blocks(failing())
    (pid,) = forks
    assert_reaped(pid)


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_forked_writer_cut_off_inside_a_block_writes_no_partial_row(tmp_path, forks, fmt):
    # the pipe ends half way through the second block: the child exits by _CRASHED, having written the
    # first block's rows whole (its file is line buffered, so they are on disk) and none of the second's
    values = np.random.default_rng(7).standard_normal((3 * ROWS_PER_BLOCK, 4))
    times = np.arange(len(values)) * 1e-3
    meta = {"tool": "gridlink"}
    write, _ = trajectory_writer(fmt)
    path = tmp_path / "traj"
    with time_limit(60), open(path, "w", encoding="utf-8", buffering=1) as out:
        writer = cli._TrajectoryWriter(out, write, len(values), 1e-3, meta)
        writer.write_blocks(streamed(values[:ROWS_PER_BLOCK]))
        half = values[ROWS_PER_BLOCK : ROWS_PER_BLOCK + ROWS_PER_BLOCK // 2]
        os.write(writer.pipe, np.ascontiguousarray(half).tobytes()[:-4])  # and not even the last row whole
        with pytest.raises(cli.WriterFailed, match="exit status 255"):
            writer.finish("")
    text = path.read_text(encoding="utf-8")
    if fmt == "table":
        expected = "".join(f"# {key}: {value}\n" for key, value in meta.items())
        expected += "time,delta_1,delta_2,omega_1,omega_2\n"
        expected += reports.repr_rows(np.column_stack((times[:ROWS_PER_BLOCK], values[:ROWS_PER_BLOCK])), ",")
        assert text == expected
    else:
        # the rows member stops after the first block's rows, each row whole
        assert text.endswith("]") and text.count("\n    [") == ROWS_PER_BLOCK
    (pid,) = forks
    assert_reaped(pid)


def _write_case(tmp_path):
    case = tmp_path / "unstable.json"
    case.write_text(UNSTABLE_PAIR)
    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 2]]}')
    return case, links


@pytest.mark.parametrize("gain, code", [(-1.0, 0), (50.0, 1)])
def test_simulate_leaves_no_worker_process_and_no_failed_output(tmp_path, capsys, forks, gain, code):
    # 3,701 rows, four blocks; at gain +50 the state blows up at 3.636 s, in the last block
    case, links = _write_case(tmp_path)
    out = tmp_path / "traj.csv"
    out.write_text("an earlier run\n")
    with time_limit(60):
        assert run(["simulate", "--case", case, "--out", out, "--links", links, "--gain", gain,
                    "--perturb", "gen=1,ddelta=0.001", "--tmax", 3.7]) == code
    (pid,) = forks
    assert_reaped(pid)
    if code:
        assert capsys.readouterr().err == "gridlink: computation error: state became non-finite at t = 3.636000 s\n"
        assert not out.exists()
    else:
        assert sum(not line.startswith("#") for line in out.read_text().splitlines()) == 1 + 3701


@pytest.mark.parametrize("tmax, line", [(3.6, "overflow encountered in square"),
                                         (3.7, "state became non-finite at t = 3.636000 s")])
def test_norm_overflow_is_reported_only_if_no_later_block_blows_up(tmp_path, capsys, forks, tmax, line):
    # at gain +50 the state passes 1e154 at 1.843 s, in the second block, where a deviation norm overflows,
    # and is non-finite at 3.636 s, in the fourth: a run that ends first fails on the overflow, once the
    # integration is done, a run that does not fails on the blow-up; either leaves one line, no output and
    # no child
    case, links = _write_case(tmp_path)
    out = tmp_path / "traj.csv"
    with time_limit(60):
        assert run(["simulate", "--case", case, "--out", out, "--links", links, "--gain", 50.0,
                    "--perturb", "gen=1,ddelta=0.001", "--tmax", tmax]) == 1
    assert capsys.readouterr().err == f"gridlink: computation error: {line}\n"
    assert not out.exists()
    (pid,) = forks
    assert_reaped(pid)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize(
    "argv, warm_tmax",
    [
        (["simulate", "--perturb", "gen=1,ddelta=0.05", "--format", "table"], 2),
        (["simulate", "--perturb", "gen=1,ddelta=0.05", "--format", "structured"], 2),
        (["validate", "--budget", "1"], 5),  # the shortest whole-second horizon whose fit passes the gate
    ],
    ids=["table", "structured", "validate"],
)
def test_simulate_holds_no_trajectory_in_the_parent(argv, warm_tmax):
    # in a fresh interpreter, after a short run that loads and warms everything, a 40 s ne39 run raises the
    # peak resident size by less than half of its (steps + 1) x 2n floats, and a 160 s run by no more than
    # the 40 s run, give or take 512 KiB: the parent keeps a block of rows, its times and norms and the
    # fit's partial sums, nothing that grows with the rows, whether it writes the trajectory (simulate) or
    # only fits it (validate).  The forked writer writes to os.devnull, so the 160 s documents take no disk.
    # The peak is VmHWM, which starts afresh at exec: ru_maxrss would start at the peak of this (pytest's)
    # process, which a fork hands on and exec keeps, and read no growth at all.  Nor does the forked writer
    # keep a row: its peak, the largest ru_maxrss of the children, is no higher for 160 s than for 40 s, give
    # or take 512 KiB.  Only that difference counts, as a child's ru_maxrss starts at its parent's peak at the
    # fork; validate forks no writer
    argv = [*argv, "--case", str(case_path("newengland39")), "--out", os.devnull]

    def peaks_kib(tmax):
        """The growth of the run's peak over the warm run's, and the largest peak of the forked writers."""
        code = f"""
import resource
from gridlink import cli

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

assert cli.main({argv!r} + ["--tmax", "{warm_tmax}"]) == 0
before = peak_kib()
assert cli.main({argv!r} + ["--tmax", "{tmax}"]) == 0
print(peak_kib() - before, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return tuple(map(int, proc.stdout.split()))

    trajectory_bytes = 40001 * 2 * 10 * 8
    growth_40, writer_40 = peaks_kib(40)
    assert growth_40 * 1024 < trajectory_bytes / 2
    growth_160, writer_160 = peaks_kib(160)
    assert growth_160 <= growth_40 + 512
    if argv[0] == "simulate":
        assert writer_160 <= writer_40 + 512


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("writer", ["forked", "inline"])
def test_simulate_write_failure_is_input_error(monkeypatch, capsys, forks, writer):
    # every write to /dev/full fails; a forked writer's failure is reported as the inline writer's is,
    # whether the parent finds it by a broken pipe or by the child's exit status
    if writer == "inline":
        monkeypatch.delattr(os, "fork")
    with time_limit(60):
        assert run(["simulate", "--case", case_path("toy3"), "--out", "/dev/full", "--tmax", 10.0]) == 2
    assert capsys.readouterr().err == (
        "gridlink: input error: cannot write output file /dev/full: No space left on device\n"
    )
    assert len(forks) == (writer == "forked")
    for pid in forks:
        assert_reaped(pid)


@pytest.mark.parametrize(
    "fault, line",
    [("raise", "failed with exit status 255"), ("kill", f"killed by signal {int(signal.SIGKILL)}")],
)
def test_crashed_writer_is_a_computation_error(tmp_path, monkeypatch, capsys, forks, fault, line):
    # a forked writer that fails other than by an OSError, after it has read its first block, is a failed
    # computation: one line naming the writer and its status, no output file, and the child reaped
    def crashing(out, blocks, dt, meta):
        next(blocks)
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise KeyError("a fault in the renderer")

    monkeypatch.setattr(reports, "write_table", crashing)
    out = tmp_path / "traj.csv"
    with time_limit(60):
        assert run(["simulate", "--case", case_path("newengland39"), "--out", out, "--tmax", 3.0]) == 1
    assert capsys.readouterr().err == f"gridlink: computation error: trajectory writer {line}\n"
    assert not out.exists()
    (pid,) = forks
    assert_reaped(pid)


def test_forked_writer_leaves_stdout_to_its_parent(tmp_path):
    # a line buffered on stdout before a forked simulate is written once: the forked writer ends by
    # os._exit, not through interpreter shutdown, which would flush its copy of the buffer too
    argv = ["simulate", "--case", str(case_path("toy3")), "--out", str(tmp_path / "traj.csv"), "--tmax", "3"]
    code = (
        "import sys; from gridlink import cli; "
        "sys.stdout.write('a result line\\n'); "
        f"sys.exit(cli.main({argv!r}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a result line\n"
    assert sum(not line.startswith("#") for line in (tmp_path / "traj.csv").read_text().splitlines()) == 1 + 3001


def test_forked_writer_with_blas_threads_running(tmp_path):
    # numpy's OpenBLAS at two threads, so the writer forks from a process with more than one OS thread,
    # which Python 3.12 on warns about in the parent; with that warning an error, the run still exits 0,
    # writes the inline writer's bytes and leaves no child unreaped
    argv = ["simulate", "--case", str(case_path("toy3")), "--out", str(tmp_path / "forked.csv"), "--tmax", "3"]
    inline = [*argv[:4], str(tmp_path / "inline.csv"), *argv[5:]]
    code = f"""
import os, sys
from gridlink import cli
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
assert cli.main({argv!r}) == 0
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("the forked writer was left unreaped")
del os.fork
assert cli.main({inline!r}) == 0
print(threads)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None" or int(proc.stdout) > 1  # OS threads when the writer forked
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


def test_forked_writer_survives_the_fork_deprecation_warning(tmp_path, monkeypatch, forks):
    # with os.fork warning as Python 3.12 on does in a multi-threaded process, and warnings as errors, the
    # run still exits 0 with the bytes of an unwarned run, and every writer child is reaped
    argv = ["simulate", "--case", case_path("toy3"), "--out", tmp_path / "plain.csv", "--tmax", 3.0]
    assert run(argv) == 0
    warn_at_fork(monkeypatch)
    with time_limit(60):
        assert run([*argv[:4], tmp_path / "warned.csv", *argv[5:]]) == 0
    assert (tmp_path / "warned.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert len(forks) == 2
    for pid in forks:
        assert_reaped(pid)


def test_forked_pool_survives_the_fork_deprecation_warning(ne39_model, monkeypatch, forks):
    # each sweep of the candidates forks its workers; with os.fork warning as the writer's test has it,
    # and warnings as errors, the pooled plan is the serial one and every worker is reaped.  A worker
    # forked before the warning broke the sweep would not be reaped: it is killed here, and the test fails
    serial = gridlink.greedy_plan(ne39_model, budget=2, gain_h=-1.0)
    monkeypatch.setattr(planner, "usable_cpu_count", lambda: 2)
    warn_at_fork(monkeypatch)
    orphans = []
    try:
        with time_limit(60):
            pooled = gridlink.greedy_plan(ne39_model, budget=2, gain_h=-1.0, workers=2)
    finally:
        for pid in forks:
            with contextlib.suppress(ChildProcessError):  # the sweep reaped it
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                orphans.append(pid)
    assert pooled == serial
    assert len(forks) == 2 * 2 and orphans == []  # two workers for each of the two sweeps


def test_forked_pool_with_blas_threads_running():
    # numpy's OpenBLAS at two threads, so each sweep forks its workers from a process with more than one OS
    # thread, and each worker then calls eigvals; with the fork warning an error, the pooled plan is the
    # serial one and no worker is left unreaped
    code = """
import os, sys
import gridlink
from gridlink import planner
planner.usable_cpu_count = lambda: 2
model = gridlink.build_system(gridlink.load_case("newengland39"))
serial = gridlink.greedy_plan(model, budget=2, gain_h=-1.0)
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
assert gridlink.greedy_plan(model, budget=2, gain_h=-1.0, workers=2) == serial
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("a sweep worker was left unreaped")
print(threads)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None" or int(proc.stdout) > 1  # OS threads when the sweeps forked


def test_failed_simulate_leaves_a_symlinked_output_in_place(tmp_path):
    # only a regular file at --out is removed; a symlink (or a device such as /dev/null) is not
    case, links = _write_case(tmp_path)
    target = tmp_path / "target.csv"
    target.write_text("")
    out = tmp_path / "traj.csv"
    out.symlink_to(target)
    assert run(["simulate", "--case", case, "--out", out, "--links", links, "--gain", 50.0,
                "--perturb", "gen=1,ddelta=0.001", "--tmax", 3.7]) == 1
    assert out.is_symlink() and target.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_simulate_output_is_input_error_before_integrating(tmp_path, monkeypatch, capsys, where):
    # integrate's own checks run when it is called; --out cannot be opened, so any block asked of it is asked
    # for before --out is opened
    real_integrate = cli.integrate

    def integrate(*args, **kwargs):
        blocks = real_integrate(*args, **kwargs)

        def unopened():
            pytest.fail("simulate asked for a block before opening --out")
            yield from blocks

        return unopened()

    monkeypatch.setattr(cli, "integrate", integrate)
    out = tmp_path / "missing" / "traj.csv" if where == "missing-directory" else tmp_path
    assert run(["simulate", "--case", case_path("toy3"), "--out", out, "--tmax", 1.0]) == 2
    assert capsys.readouterr().err.startswith(f"gridlink: input error: cannot write output file {out}: ")
    assert tmp_path.is_dir()


def test_failed_write_leaves_no_output_file(tmp_path):
    # a document whose rendering fails part way is removed, not left half written
    out = tmp_path / "doc.txt"
    with pytest.raises(ValueError, match="rendering failed"):
        with cli._output(argparse.Namespace(out=str(out))) as f:
            f.write("a first block\n")
            f.flush()
            assert out.read_text() == "a first block\n"
            raise ValueError("rendering failed")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_simulate_pm_step_forked_and_inline_bytes_agree(tmp_path, monkeypatch, forks, fmt):
    # a forked writer and the inline writer write the same document
    def simulate_bytes(forked):
        out = tmp_path / f"traj-{forked}"
        with monkeypatch.context() as patch:
            if not forked:
                patch.delattr(os, "fork")
            assert run(["simulate", "--case", case_path("newengland39"), "--out", out, "--tmax", 3.0,
                        "--perturb", "pm-step gen=3,dpm=0.2,at=0.5", "--format", fmt]) == 0
        return out.read_bytes()

    assert simulate_bytes(True) == simulate_bytes(False)
    (pid,) = forks
    assert_reaped(pid)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_usable_cpu_makes_no_pool(tmp_path, monkeypatch, forks, toy4_model):
    # under an affinity of one CPU, as taskset or a cpuset sets it, os.cpu_count() still counts every CPU;
    # the planner's sweeps fork nothing there, while simulate still forks its writer, which writes the same
    # bytes
    argv = ["simulate", "--case", case_path("toy3"), "--out", tmp_path / "forked.csv", "--tmax", 3.0]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        assert planner.usable_cpu_count() == 1
        with time_limit(60):
            assert run(argv) == 0
        plan = gridlink.greedy_plan(toy4_model, budget=2, gain_h=-1.0, workers=2)
    finally:
        os.sched_setaffinity(0, allowed)
    assert plan == gridlink.greedy_plan(toy4_model, budget=2, gain_h=-1.0)
    (pid,) = forks  # the writer's: the plan forked nothing
    assert_reaped(pid)
    monkeypatch.delattr(os, "fork")
    assert run(argv[:4] + [tmp_path / "inline.csv"] + argv[5:]) == 0
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


def test_perturb_parsing_errors():
    from gridlink.cli import InputError

    # every key may appear with or without the prefix: a dpm without it, a ddelta after it
    assert parse_perturb("gen=1,dpm=0.5") == DisturbanceSpec(target=0, d_pm=0.5)
    assert parse_perturb("pm-step gen=1,ddelta=0.1") == DisturbanceSpec(target=0, d_delta=0.1)
    with pytest.raises(InputError, match=r"fields \['kick'\] not valid"):
        parse_perturb("gen=1,kick=0.5")
    with pytest.raises(InputError, match=r"fields \['pm-step gen'\] not valid"):
        parse_perturb("gen=1,pm-step gen=1")  # the prefix may only lead the spec
    with pytest.raises(InputError):
        parse_perturb("ddelta=0.1")  # missing gen
    spec = parse_perturb("pm-step gen=3,dpm=0.1,at=1.5")
    assert spec == DisturbanceSpec(target=2, d_pm=0.1, t_apply=1.5)
    assert parse_perturb("gen=2,ddelta=0.1,domega=-0.2") == DisturbanceSpec(target=1, d_delta=0.1, d_omega=-0.2)


@pytest.mark.parametrize(
    "perturb, spec",
    [
        ("gen=1,ddelta=0.001", DisturbanceSpec(0, d_delta=0.001)),
        ("gen=1,ddelta=0.05", DisturbanceSpec(0, d_delta=0.05)),
        ("gen=2,ddelta=0.05", DisturbanceSpec(1, d_delta=0.05)),
        ("gen=1,domega=0.05", DisturbanceSpec(0, d_omega=0.05)),
        ("gen=2,ddelta=0.01,domega=0", DisturbanceSpec(1, d_delta=0.01)),
        ("gen=2,ddelta=0.1,domega=-0.2", DisturbanceSpec(1, d_delta=0.1, d_omega=-0.2)),
        ("gen=1,ddelta=0.1,at=5", DisturbanceSpec(0, d_delta=0.1, t_apply=5.0)),
        ("pm-step gen=1,dpm=0.05,at=0.2", DisturbanceSpec(0, d_pm=0.05, t_apply=0.2)),
        ("pm-step gen=3,dpm=0.1,at=1.5", DisturbanceSpec(2, d_pm=0.1, t_apply=1.5)),
        ("pm-step gen=3,dpm=0.2,at=0.5", DisturbanceSpec(2, d_pm=0.2, t_apply=0.5)),
        ("pm-step gen=2,at=0.005", DisturbanceSpec(1, t_apply=0.005)),
        (" pm-step  gen = 2 , at = 0.005 ", DisturbanceSpec(1, t_apply=0.005)),
        ("pm-step\tgen=2,dpm=1e-3", DisturbanceSpec(1, d_pm=0.001)),  # whitespace ends the prefix; glued, it is a key
        ("gen=+02,domega=-0,at=0", DisturbanceSpec(1, d_omega=-0.0)),
        # the terms combine: an angle kick and a power step on one generator, with or without the prefix
        ("gen=2,ddelta=0.05,dpm=0.1,at=0.5", DisturbanceSpec(1, 0.05, 0.0, 0.1, 0.5)),
        ("pm-step gen=2,ddelta=0.05,dpm=0.1,at=0.5", DisturbanceSpec(1, 0.05, 0.0, 0.1, 0.5)),
    ],
)
def test_perturb_spec_builds_its_record(perturb, spec):
    # the rows above the combined ones are specs of the two earlier forms, state offset and pm-step, each
    # with the record it built then; the reprs compare each field's type and a zero's sign too
    assert repr(parse_perturb(perturb)) == repr(spec)


def test_simulate_combined_perturbation_writes_simulates_rows(tmp_path, toy3_model):
    # a spec of both kinds of term writes the rows of simulate() given its record, named by its nonzero dpm;
    # the structured document holds the table's columns and rows
    argv = ["simulate", "--case", case_path("toy3"), "--tmax", 3.0, "--perturb", "gen=2,ddelta=0.05,dpm=0.1,at=0.5"]
    out, table = tmp_path / "traj.json", tmp_path / "traj.csv"
    assert run([*argv, "--out", out, "--format", "structured"]) == 0
    assert run([*argv, "--out", table]) == 0
    doc = json.loads(out.read_text())
    states = simulate(equilibrium_state(toy3_model), toy3_model, ControlConfig((), -1.0),
                      DisturbanceSpec(1, 0.05, 0.0, 0.1, 0.5), t_max=3.0, dt=1e-3)
    assert doc["meta"]["disturbance"] == "mechanical-step"
    assert ",".join(doc["columns"]) in table.read_text().splitlines()
    assert np.array(doc["rows"]).tobytes() == np.column_stack((np.arange(3001) * 1e-3, states)).tobytes()


@pytest.mark.parametrize(
    "perturb, label",
    [
        (None, "none"),
        ("gen=2,ddelta=0.05", "state-offset"),
        ("pm-step gen=3,dpm=0.2,at=0.005", "mechanical-step"),
        ("pm-step gen=2,at=0.005", "state-offset"),  # a zero step changes no drive, so it is labelled as an offset
        ("gen=2,ddelta=0.05,dpm=0.2,at=0.005", "mechanical-step"),  # a nonzero dpm names a combined spec
    ],
)
def test_simulate_header_names_the_disturbance(tmp_path, perturb, label):
    out = tmp_path / "traj.csv"
    extra = [] if perturb is None else ["--perturb", perturb]
    assert run(["simulate", "--case", case_path("toy3"), "--out", out, "--tmax", "0.01"] + extra) == 0
    assert [l for l in out.read_text().splitlines() if l.startswith("# disturbance:")] == [f"# disturbance: {label}"]


def _reduced_y_g(doc):
    """The reduce document's y_g, rebuilt from its [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in doc["y_g"]])


def test_reduce_new_england(tmp_path):
    out = tmp_path / "reduced.json"
    assert run(["reduce", "--case", case_path("newengland39"), "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert _reduced_y_g(doc).shape == (10, 10)
    assert np.array(doc["delta_s"]).shape == (10,)


def test_reduce_single_machine(tmp_path):
    case = tmp_path / "one.json"
    case.write_text(SINGLE_MACHINE)
    out = tmp_path / "reduced.json"
    assert run(["reduce", "--case", case, "--out", out]) == 0
    assert _reduced_y_g(json.loads(out.read_text())).shape == (1, 1)


def test_reduce_round_trip_full_precision(tmp_path, ne39_model):
    out = tmp_path / "reduced.json"
    assert run(["reduce", "--case", case_path("newengland39"), "--out", out]) == 0
    doc = json.loads(out.read_text())
    net, op = ne39_model.net, ne39_model.op
    assert np.array_equal(_reduced_y_g(doc), net.y_g)
    assert np.array_equal(np.array(doc["e_mag"], dtype=float), net.e_mag)
    assert np.array_equal(np.array(doc["c"], dtype=float), net.c)
    assert np.array_equal(np.array(doc["d"], dtype=float), net.d)
    assert np.array_equal(np.array(doc["delta_s"], dtype=float), op.delta_s)
    assert float(doc["omega_s"]) == op.omega_s
    assert np.array_equal(np.array(doc["p_m_const"], dtype=float), op.p_m_const)


def test_analyze_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["analyze", "--case", case_path("toy4"), "--out", out, "--format", "structured"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_decay_default_horizon_covers_slowest_mode(tmp_path, capsys):
    # toy4's slowest mode decays at about 0.11 /s; a 5 s horizon fits the faster ones
    out = tmp_path / "validate.txt"
    assert run(["validate", "--case", case_path("toy4"), "--out", out, "--budget", 1]) == 0
    assert "# t_max: 36.8404094720145" in out.read_text().splitlines()
    out.unlink()
    assert run(["validate", "--case", case_path("toy4"), "--out", out, "--budget", 1, "--tmax", 5]) == 1
    assert capsys.readouterr().err == "gridlink: computation error: mismatch 91.91% exceeds 15%\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["--gain", "1.0"], 2, GAIN_RULE),
        (["--budget", "-1"], 2, "budget must be nonnegative"),
        (["--case", "nosuch"], 2, "cannot read case file nosuch: No such file or directory"),
        (["--dt", "0"], 2, HORIZON_RULE),
        (["--tmax", "0.0001"], 2, HORIZON_RULE),
        (["--ddelta", "nan"], 2, "--ddelta must be a finite number"),
        (["--tmax", "1e9"], 2, STEPS_RULE),
        (["--dt", "1e-9"], 2, STEPS_RULE),  # every default horizon has too many steps
        # a case file that is not UTF-8; LATIN1 stands for the file's path
        (["--case", "LATIN1"], 2, "cannot read case file LATIN1: not UTF-8 text (invalid start byte)"),
        # toy3 with every d = 1e-4: stable, alpha_max -0.002356, so the default horizon is 4 / |alpha_max|
        (["--case", "LIGHT", "--budget", "1"], 1,
         "derived horizon 1697.65 s: tmax / dt exceeds 1000000 steps; --tmax sets the horizon"),
        # the kicked angle stays finite, so no block blows up, but its deviation norm overflows: the fit
        # keeps that error and raises it once the integration is done, as simulate's does
        (["--budget", "1", "--ddelta", "1e200"], 1, "overflow encountered in square"),
    ],
)
def test_validate_decay_failures_print_one_line(tmp_path, capsys, argv, code, line):
    # a bad argument or case exits 2, a run that fails exits 1, each with one stderr line and no traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff")
    light = tmp_path / "light.json"
    doc = json.loads(case_path("toy3").read_text())
    for gen in doc["generators"]:
        gen["d"] = 1e-4
    light.write_text(json.dumps(doc))
    argv = [{"LATIN1": str(latin1), "LIGHT": str(light)}.get(a, a) for a in argv]
    line = line.replace("LATIN1", str(latin1))
    # a later --case takes the place of toy3
    assert run(["validate", "--case", case_path("toy3"), "--out", tmp_path / "o", *argv]) == code
    captured = capsys.readouterr()
    kind = "input error" if code == 2 else "computation error"
    assert captured.err == f"gridlink: {kind}: {line}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "gridlink_argv, validate_argv, check, rule",
    [
        (["simulate", "--dt", "0"], ["--dt", "0"], lambda: horizon_steps(20.0, 0.0), HORIZON_RULE),
        (["simulate", "--tmax", "5e-4"], ["--tmax", "5e-4"], lambda: horizon_steps(5e-4, 1e-3), HORIZON_RULE),
        (["simulate", "--tmax", "1e9"], ["--tmax", "1e9"], lambda: horizon_steps(1e9, 1e-3), STEPS_RULE),
        # validate's default horizon on toy3 is 5 s
        (["simulate", "--dt", "1e-9"], ["--dt", "1e-9"], lambda: horizon_steps(5.0, 1e-9), STEPS_RULE),
        (["plan", "--budget", "-1"], ["--budget", "-1"], lambda: planner.check_plan_args(-1, -1.0),
         "budget must be nonnegative"),
        (["plan", "--gain", "0"], ["--gain", "0"], lambda: planner.check_plan_args(1, 0.0), GAIN_RULE),
        (["plan", "--gain", "nan"], ["--gain", "nan"], lambda: planner.check_plan_args(1, float("nan")), GAIN_RULE),
        (["plan", "--workers", "0"], None, lambda: planner.check_plan_args(1, -1.0, 0), "workers must be at least 1"),
    ],
    ids=["dt-zero", "tmax-below-dt", "step-cap", "dt-tiny", "budget-negative", "gain-zero", "gain-nan",
         "workers-zero"],
)
def test_run_argument_rule_is_the_library_check(tmp_path, capsys, gridlink_argv, validate_argv, check, rule):
    # plan or simulate, and validate (which has no --workers), state each rule by the library check that holds it
    with pytest.raises(ValueError) as exc_info:
        check()
    assert str(exc_info.value) == rule
    assert run([*gridlink_argv, "--case", case_path("toy3"), "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"gridlink: input error: {rule}"]
    if validate_argv is not None:
        assert run(["validate", *validate_argv, "--case", case_path("toy3"), "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"gridlink: input error: {rule}"]


def _simulate_toy3(target):
    """A 10 ms toy3 run from equilibrium with a zero disturbance on generator target (0-based)."""
    def run_it(model):
        return simulate(equilibrium_state(model), model, ControlConfig(), DisturbanceSpec(target), t_max=0.01, dt=1e-3)
    return run_it


@pytest.mark.parametrize(
    "rule, message",
    [
        (lambda model: normalize_link((1, 1)), "self-link (1, 1)"),
        (lambda model: ControlConfig(((0, 1), (1, 0))), "duplicate links"),
        (lambda model: DisturbanceSpec(0, t_apply=5.0).apply_index(1.0, 2),
         "disturbance time 5 s outside the run, 0 to 2 s"),
        (lambda model: horizon_steps(1.0, 0.0), HORIZON_RULE),
        (lambda model: horizon_steps(1e9, 1e-3), STEPS_RULE),
        (lambda model: link_laplacian(ControlConfig(((0, 3),), -1.0), 3), "link (0, 3) has an endpoint outside 0..2"),
        (_simulate_toy3(3), "target 3 out of range 0..2"),
        (lambda model: planner.candidate_links(1), "need at least two generators to form links, got 1"),
        (lambda model: planner.check_plan_args(-1, -1.0), "budget must be nonnegative"),
        (lambda model: planner.check_plan_args(1, 0.0), GAIN_RULE),
        (lambda model: planner.check_plan_args(1, -1.0, 0), "workers must be at least 1"),
    ],
    ids=["self-link", "duplicate-links", "disturbance-time", "horizon", "step-cap", "link-endpoint",
         "simulate-target", "one-generator", "budget", "gain", "workers"],
)
def test_library_argument_rule_raises_input_error(toy3_model, rule, message):
    # the type says it is a caller's error (exit 2); it is still a ValueError, and a CaseError is one too
    with pytest.raises(gridlink.InputError) as exc_info:
        rule(toy3_model)
    assert str(exc_info.value) == message
    assert issubclass(gridlink.InputError, ValueError) and issubclass(gridlink.CaseError, gridlink.InputError)


def test_run_guarded_decides_the_exit_code_by_the_error_type(capsys, toy3_model):
    # an InputError raised deep in the library exits 2; a failed computation's ValueError still exits 1
    assert cli.run_guarded(lambda: _simulate_toy3(3)(toy3_model)) == 2
    assert capsys.readouterr().err == "gridlink: input error: target 3 out of range 0..2\n"
    assert cli.run_guarded(lambda: alpha_for_links(toy3_model, [(0, 1)], -1e308)) == 1
    assert capsys.readouterr().err == "gridlink: computation error: Jacobian has non-finite entries\n"


def test_validate_decay_clamped_budget_warns_in_one_line(tmp_path, capfd):
    # a subprocess, so the warning reaches stderr the way a user sees it
    env = {**os.environ, "PYTHONPATH": str(Path(gridlink.__file__).parents[1])}
    out = tmp_path / "validate.txt"
    argv = ["validate", "--case", str(case_path("toy3")), "--out", str(out), "--budget", "5"]
    proc = subprocess.run([sys.executable, "-m", "gridlink", *argv], env=env, timeout=60)
    assert proc.returncode == 0
    captured = capfd.readouterr()
    assert captured.err.splitlines() == ["gridlink: warning: budget 5 exceeds the 3 available links; clamped"]
    assert captured.out == ""
    meta = dict(line[2:].split(": ", 1) for line in out.read_text().splitlines() if line.startswith("# "))
    assert (meta["links_installed"], meta["t_max"], meta["final_alpha"][:9]) == ("3", "5.0", "-1.178097")
    assert f"{float(meta['fitted_decay_rate']):.6e}" == "-1.193536e+00"
    assert f"{float(meta['mismatch']):.2%}" == "1.31%"
    rows = [line.split(",")[1:3] for line in out.read_text().splitlines()[-3:]]
    assert rows == [["1", "2"], ["1", "3"], ["2", "3"]]


def test_validate_without_decay_is_one_line_computation_error(tmp_path, capsys):
    # undamped, toy3's alpha_max is zero up to rounding, of either sign on another host
    doc = json.loads(case_path("toy3").read_text())
    for gen in doc["generators"]:
        gen["d"] = 0.0
    case = tmp_path / "undamped.json"
    case.write_text(json.dumps(doc))
    assert run(["validate", "--case", case, "--out", tmp_path / "o", "--budget", 0]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("gridlink: computation error: ")
    assert not (tmp_path / "o").exists()


def test_validate_simulates_the_links_file_and_the_planned_links(tmp_path):
    # greedy picks (1, 3) on toy4, so preinstalling it with no budget must validate the same system
    def validate_meta(*extra):
        out = tmp_path / "validate.json"
        assert run(["validate", "--case", case_path("toy4"), "--out", out, "--format", "structured", *extra]) == 0
        return json.loads(out.read_text())["meta"]

    links = tmp_path / "links.json"
    links.write_text('{"links": [[1, 3]]}')
    planned, preinstalled = validate_meta("--budget", 1), validate_meta("--budget", 0, "--links", links)
    assert preinstalled["final_alpha"] == planned["final_alpha"]
    assert preinstalled["fitted_decay_rate"] == planned["fitted_decay_rate"]


def test_validate_document_is_the_plan_document(tmp_path):
    def document(subcommand):
        out = tmp_path / f"{subcommand}.json"
        assert run([subcommand, "--case", case_path("newengland39"), "--out", out, "--budget", 3,
                    "--format", "structured"]) == 0
        return json.loads(out.read_text())

    plan, validate = document("plan"), document("validate")
    for key in ("iterations", "baseline_alpha", "final_alpha"):
        assert validate[key] == plan[key], key
