import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serialize_case
from gridlink.case import (
    DEFAULT_H_PER_PU,
    BranchRecord,
    BusRecord,
    CaseSchemaError,
    CaseSyntaxError,
    GeneratorRecord,
    PowerCase,
    build_ybus,
    case_path,
    parse_case,
    validate,
)

MINIMAL = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}],
  "branches": [],
  "generators": [{"bus": 1, "p_gen": 1.0}]
}"""


def test_parse_minimal_case():
    case = parse_case(MINIMAL)
    assert len(case.buses) == 1
    assert len(case.generators) == 1
    gen = case.generators[0]
    # defaults: H proportional to dispatch, d and xd_prime fixed
    assert gen.inertia_h == 4.0
    assert gen.damping_d == 0.05
    assert gen.xd_prime == 0.1


def test_parse_missing_slack_is_schema_error():
    doc = json.loads(MINIMAL)
    doc["buses"][0]["kind"] = "pv"
    with pytest.raises(CaseSchemaError, match="no slack bus"):
        parse_case(json.dumps(doc))


def test_parse_malformed_json_reports_location():
    with pytest.raises(CaseSyntaxError, match=r"line \d+"):
        parse_case("{ not json }")


def test_parse_rejects_unknown_fields():
    doc = json.loads(MINIMAL)
    doc["buses"][0]["voltage"] = 1.0
    with pytest.raises(CaseSchemaError, match=r"buses\[0\].*unknown"):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("where", ["top level", "buses[0]", "branches[0]", "generators[0]"])
def test_parse_rejects_non_object_with_location(where):
    doc = json.loads(MINIMAL)
    if where == "top level":
        doc = [doc]
    else:
        doc[where.removesuffix("[0]")] = [[]]
    with pytest.raises(CaseSchemaError, match=rf"^{re.escape(where)}: expected an object$"):
        parse_case(json.dumps(doc))


def test_parse_reports_missing_field_with_location():
    doc = json.loads(MINIMAL)
    del doc["buses"][0]["p_load"]
    with pytest.raises(CaseSchemaError, match=r"buses\[0\]: missing required field 'p_load'"):
        parse_case(json.dumps(doc))


def test_parse_wrong_type_with_location():
    doc = json.loads(MINIMAL)
    doc["generators"][0]["p_gen"] = "big"
    with pytest.raises(CaseSchemaError, match=r"generators\[0\].p_gen: expected a number"):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize(
    "table, key, value, message",
    [
        ("branches", "from", None, ": missing required field 'from'"),
        ("branches", "to", None, ": missing required field 'to'"),
        ("branches", "from", 1.5, ".from: expected an integer, got float"),
        ("branches", "to", "2", ".to: expected an integer, got str"),
        ("branches", "b", "0.1", ".b: expected a number, got str"),
        ("generators", "h", [4.0], ".h: expected a number, got list"),
        ("generators", "d", True, ".d: expected a number, got bool"),
    ],
)
def test_renamed_field_is_named_by_its_json_key(table, key, value, message):
    # a record field stored under another name (from_bus, b_charging, inertia_h, ...) is reported by its key;
    # value None drops the key
    doc = json.loads(case_path("toy3").read_text())
    if value is None:
        del doc[table][0][key]
    else:
        doc[table][0][key] = value
    with pytest.raises(CaseSchemaError) as exc:
        parse_case(json.dumps(doc))
    assert str(exc.value) == f"{table}[0]{message}"


def test_omitted_inertia_is_four_seconds_per_pu_of_dispatch():
    doc = json.loads(MINIMAL)
    doc["generators"][0]["p_gen"] = 0.37
    assert parse_case(json.dumps(doc)).generators[0].inertia_h == 4 * 0.37 == DEFAULT_H_PER_PU * 0.37
    # the record fills it in, so a generator built by hand gets the same value
    assert GeneratorRecord(bus=1, p_gen=0.5).inertia_h == 4 * 0.5
    assert GeneratorRecord(bus=1, p_gen=0.5, inertia_h=3.0).inertia_h == 3.0


@pytest.mark.parametrize("kind", [[1], None, 3, {"slack": 1}, True])
def test_parse_refuses_a_kind_that_is_no_string(kind):
    doc = json.loads(MINIMAL)
    doc["buses"][0]["kind"] = kind
    with pytest.raises(CaseSchemaError, match=rf"^buses\[0\]\.kind: expected a string, got {type(kind).__name__}$"):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("where", ["top level", "buses[0]"])
def test_unknown_field_names_are_quoted_and_long_ones_abridged(where):
    def refused(*names):
        doc = json.loads(MINIMAL)
        entry = doc if where == "top level" else doc["buses"][0]
        entry.update(dict.fromkeys(names, 1))
        with pytest.raises(CaseSchemaError) as exc:
            parse_case(json.dumps(doc))
        return str(exc.value)

    # names are quoted as reprlib.repr quotes them, so a line break stays on the one line
    assert refused("voltage", "a\nb") == f"{where}: unknown field(s) 'a\\nb', 'voltage'"
    assert refused("z" * 400) == f"{where}: unknown field(s) '{'z' * 12}...{'z' * 13}'"
    assert refused(*(f"u{i}" for i in range(9))) == (
        f"{where}: unknown field(s) 'u0', 'u1', 'u2', 'u3', 'u4', 'u5', ..."
    )


def test_parse_new_england(ne39_case):
    assert len(ne39_case.buses) == 39
    assert len(ne39_case.generators) == 10
    assert len(ne39_case.branches) == 47
    loads = [bus for bus in ne39_case.buses if bus.p_load != 0.0 or bus.q_load != 0.0]
    assert len(loads) == 17


def test_validate_valid_case_is_empty(ne39_case, toy3_case, toy4_case):
    for case in (ne39_case, toy3_case, toy4_case):
        assert validate(case) == []


def test_validate_zero_inertia():
    case = parse_case(MINIMAL)
    with pytest.raises(CaseSchemaError, match="inertia_h must be positive"):
        PowerCase(
            base_mva=case.base_mva,
            f0=case.f0,
            buses=case.buses,
            branches=case.branches,
            generators=[GeneratorRecord(bus=1, p_gen=1.0, inertia_h=0.0)],
        )


def test_validate_dangling_branch_reference():
    case = parse_case(MINIMAL)
    with pytest.raises(CaseSchemaError, match="nonexistent bus 99"):
        PowerCase(
            base_mva=case.base_mva,
            f0=case.f0,
            buses=case.buses,
            branches=[BranchRecord(from_bus=1, to_bus=99, r=0.0, x=0.1)],
            generators=case.generators,
        )


def test_validate_islanded_buses():
    # buses 3 and 4 are tied to each other, but no branch path joins them to the slack bus
    buses = [BusRecord(id=1, kind="slack", p_load=0.0, q_load=0.0, v_set=1.0)]
    buses += [BusRecord(id=i, kind="pq", p_load=0.0, q_load=0.0) for i in (2, 3, 4)]
    branches = [BranchRecord(from_bus=2, to_bus=1, r=0.0, x=0.1), BranchRecord(from_bus=4, to_bus=3, r=0.0, x=0.1)]
    with pytest.raises(CaseSchemaError, match=r"^no branch path from slack bus 1 to bus\(es\) 3, 4$"):
        PowerCase(100.0, 60.0, buses, branches, [GeneratorRecord(bus=1, p_gen=0.0, inertia_h=4.0)])


@pytest.mark.parametrize("digits, shown", [(40, str(10**39)), (41, f"1{'0' * 17}...{'0' * 19}")])
def test_validate_writes_bus_ids_of_up_to_40_digits_whole(digits, shown):
    # a longer id is abridged by reprlib.repr wherever the report names it
    case = parse_case(MINIMAL)
    bus = 10 ** (digits - 1)
    with pytest.raises(CaseSchemaError) as exc:
        PowerCase(100.0, 60.0, case.buses, [BranchRecord(from_bus=1, to_bus=bus, r=0.0, x=0.1)], case.generators)
    assert str(exc.value) == f"branch 0 (1-{shown}): references nonexistent bus {shown}"


def test_validate_duplicate_ids_and_pq_generator():
    buses = [
        BusRecord(id=1, kind="slack", p_load=0.0, q_load=0.0, v_set=1.0),
        BusRecord(id=1, kind="pq", p_load=0.0, q_load=0.0),
    ]
    with pytest.raises(CaseSchemaError, match="duplicate bus id 1"):
        PowerCase(
            base_mva=100.0,
            f0=60.0,
            buses=buses,
            branches=[],
            generators=[GeneratorRecord(bus=1, p_gen=0.0, inertia_h=1.0)],
        )


# --- build_ybus ---------------------------------------------------------------


def _two_bus_case(r=0.0, x=0.1, b=0.0, tap=1.0, shunts=((0.0, 0.0), (0.0, 0.0))):
    return PowerCase(
        base_mva=100.0,
        f0=60.0,
        buses=[
            BusRecord(id=1, kind="slack", p_load=0.0, q_load=0.0, v_set=1.0, shunt_g=shunts[0][0], shunt_b=shunts[0][1]),
            BusRecord(id=2, kind="pq", p_load=0.0, q_load=0.0, shunt_g=shunts[1][0], shunt_b=shunts[1][1]),
        ],
        branches=[BranchRecord(from_bus=1, to_bus=2, r=r, x=x, b_charging=b, tap=tap)],
        generators=[GeneratorRecord(bus=1, p_gen=0.0, inertia_h=4.0)],
    )


def test_ybus_no_branches_is_zero():
    case = PowerCase(
        base_mva=100.0,
        f0=60.0,
        buses=[BusRecord(id=1, kind="slack", p_load=0.0, q_load=0.0, v_set=1.0)],
        branches=[],
        generators=[GeneratorRecord(bus=1, p_gen=0.0, inertia_h=4.0)],
    )
    assert np.all(build_ybus(case) == 0)


def test_ybus_single_reactive_branch():
    # y = 1/(j 0.1) = -10j by hand
    y = build_ybus(_two_bus_case())
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(y, expected, atol=1e-14)


def test_ybus_half_charging_on_diagonals():
    y_plain = build_ybus(_two_bus_case())
    y_charged = build_ybus(_two_bus_case(b=0.2))
    diff = y_charged - y_plain
    assert np.allclose(np.diag(diff), [0.1j, 0.1j], atol=1e-15)
    assert diff[0, 1] == 0 and diff[1, 0] == 0


def test_ybus_tap_model():
    y = build_ybus(_two_bus_case(x=0.1, tap=1.05))
    ys = 1 / 0.1j
    assert np.isclose(y[0, 0], ys / 1.05**2)
    assert np.isclose(y[1, 1], ys)
    assert np.isclose(y[0, 1], -ys / 1.05)
    assert np.isclose(y[1, 0], -ys / 1.05)


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def random_cases(draw):
    n_bus = draw(st.integers(min_value=1, max_value=6))
    ids = list(range(1, n_bus + 1))
    buses = []
    for i, bus_id in enumerate(ids):
        kind = "slack" if i == 0 else draw(st.sampled_from(["pv", "pq"]))
        buses.append(
            BusRecord(
                id=bus_id,
                kind=kind,
                p_load=draw(finite),
                q_load=draw(finite),
                v_set=draw(positive) if kind in ("slack", "pv") else None,
                shunt_g=draw(finite),
                shunt_b=draw(finite),
            )
        )
    # a chain through every bus keeps the case connected, as a PowerCase requires; random branches follow
    chain = draw(st.permutations(ids))
    ends = list(zip(chain, chain[1:]))
    for _ in range(draw(st.integers(min_value=0, max_value=8)) if n_bus > 1 else 0):
        a = draw(st.sampled_from(ids))
        ends.append((a, draw(st.sampled_from([i for i in ids if i != a]))))
    branches = [
        BranchRecord(
            from_bus=a,
            to_bus=b,
            r=draw(positive),
            x=draw(positive),
            b_charging=draw(st.floats(min_value=0.0, max_value=2.0)),
            tap=1.0,
        )
        for a, b in ends
    ]
    gen_buses = [b.id for b in buses if b.kind in ("slack", "pv")]
    generators = [
        GeneratorRecord(
            bus=draw(st.sampled_from(gen_buses)),
            p_gen=draw(finite),
            inertia_h=draw(positive),
            damping_d=draw(st.floats(min_value=0.0, max_value=1.0)),
            xd_prime=draw(positive),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return PowerCase(base_mva=100.0, f0=60.0, buses=buses, branches=branches, generators=generators)


@settings(max_examples=60, deadline=None)
@given(random_cases())
def test_ybus_symmetric_for_unity_taps(case):
    y = build_ybus(case)
    scale = max(np.abs(y).max(), 1.0)
    assert np.abs(y - y.T).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(random_cases())
def test_ybus_row_sums_equal_shunt_plus_charging(case):
    y = build_ybus(case)
    index = case.bus_index()
    expected = np.zeros(len(case.buses), dtype=complex)
    for bus in case.buses:
        expected[index[bus.id]] += complex(bus.shunt_g, bus.shunt_b)
    for br in case.branches:
        half = 0.5j * br.b_charging
        expected[index[br.from_bus]] += half
        expected[index[br.to_bus]] += half
    scale = max(np.abs(y).max(), 1.0)
    assert np.abs(y.sum(axis=1) - expected).max() <= 1e-12 * scale


@st.composite
def one_broken_rule(draw):
    """(a valid random case, fields that break one drawn rule in it, a pattern of that rule's report entry)."""
    case = draw(random_cases())
    slack = case.buses[0]  # random_cases puts the slack bus first
    on = draw(st.sampled_from([bus.id for bus in case.buses]))
    new = max(bus.id for bus in case.buses) + 1
    pq_bus = BusRecord(id=new, kind="pq", p_load=0.0, q_load=0.0)
    branch_to_new = BranchRecord(from_bus=on, to_bus=new, r=0.0, x=0.1)
    gen_on_new = GeneratorRecord(bus=new, p_gen=0.0, inertia_h=1.0)
    gen = len(case.generators)
    first = case.generators[0]
    inertia = draw(st.floats(min_value=-10.0, max_value=0.0))
    mutations = {
        "no slack bus": ({"buses": [replace(slack, kind="pv"), *case.buses[1:]]}, "no slack bus"),
        "branch on a missing bus": (
            {"branches": [*case.branches, branch_to_new]},
            rf"branch {len(case.branches)} \({on}-{new}\): references nonexistent bus {new}",
        ),
        "generator on a missing bus": (
            {"generators": [*case.generators, gen_on_new]},
            rf"generator {gen} \(bus {new}\): references nonexistent bus {new}",
        ),
        "generator on a pq bus": (
            {"buses": [*case.buses, pq_bus], "branches": [*case.branches, branch_to_new],
             "generators": [*case.generators, gen_on_new]},
            rf"generator {gen} \(bus {new}\): generator bus must be slack or pv",
        ),
        "inertia not positive": (
            {"generators": [replace(first, inertia_h=inertia), *case.generators[1:]]},
            rf"generator 0 \(bus {first.bus}\): inertia_h must be positive",
        ),
        "duplicate bus id": ({"buses": [*case.buses, replace(pq_bus, id=on)]}, f"duplicate bus id {on}"),
        "bus with no branch": (
            {"buses": [*case.buses, pq_bus]},
            rf"no branch path from slack bus {slack.id} to bus\(es\) {new}",
        ),
    }
    changes, rule = mutations[draw(st.sampled_from(sorted(mutations)))]
    return case, changes, rule


@settings(max_examples=60, deadline=None)
@given(one_broken_rule())
def test_no_invalid_case_can_be_built(broken):
    # dataclasses.replace re-runs the check: the drawn rule is named, never a KeyError or IndexError
    case, changes, rule = broken
    with pytest.raises(CaseSchemaError, match=rule):
        replace(case, **changes)


@pytest.mark.parametrize("broken, rest", [(2, ""), (3, "; ... and 1 more")])
def test_report_names_two_violations_and_counts_the_rest(ne39_case, broken, rest):
    branches = [replace(br, r=0.0, x=0.0) if i < broken else br for i, br in enumerate(ne39_case.branches)]
    with pytest.raises(CaseSchemaError) as exc:
        replace(ne39_case, branches=branches)
    assert str(exc.value) == f"branch 0 (1-2): r and x are both zero; branch 1 (1-39): r and x are both zero{rest}"


def test_outage_that_islands_a_bus_is_refused_at_replace(ne39_case):
    branches = [br for br in ne39_case.branches if {br.from_bus, br.to_bus} != {2, 30}]
    assert len(branches) == len(ne39_case.branches) - 1
    with pytest.raises(CaseSchemaError, match=r"^no branch path from slack bus 31 to bus\(es\) 30$"):
        replace(ne39_case, branches=branches)


@settings(max_examples=60, deadline=None)
@given(random_cases())
def test_serialize_parse_round_trip(case):
    assert parse_case(serialize_case(case)) == case


def test_bundled_cases_round_trip(ne39_case, toy3_case, toy4_case):
    for case in (ne39_case, toy3_case, toy4_case):
        assert parse_case(serialize_case(case)) == case
