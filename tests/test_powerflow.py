import math

import numpy as np
import pytest

from conftest import two_bus_feeder
from gridlink import powerflow
from gridlink.case import parse_case
from gridlink.powerflow import (
    TOL,
    PowerFlowError,
    bus_partition,
    build_ybus,
    mismatch,
    newton_jacobian,
    solve_powerflow,
)

ZERO_LOAD = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [
    {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
    {"id": 2, "kind": "pv", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
    {"id": 3, "kind": "pq", "p_load": 0.0, "q_load": 0.0}
  ],
  "branches": [
    {"from": 1, "to": 2, "r": 0.0, "x": 0.2},
    {"from": 2, "to": 3, "r": 0.0, "x": 0.2}
  ],
  "generators": [{"bus": 1, "p_gen": 0.0, "h": 4.0}]
}"""


def test_zero_load_flat_solution():
    pf = solve_powerflow(parse_case(ZERO_LOAD))
    assert pf.iterations <= 1
    assert np.allclose(pf.v_mag, 1.0, atol=1e-12)
    assert np.allclose(pf.v_ang, 0.0, atol=1e-12)


def test_two_bus_against_closed_form():
    # Independent oracle: lossless feeder with Q2 = 0 gives V2 = V1 cos(d),
    # P x = V2 sin(d); eliminating d yields u^2 - u + (Px)^2 = 0 for u = V2^2.
    pf = solve_powerflow(parse_case(two_bus_feeder(0.5)))
    px = 0.5 * 0.1
    v2 = math.sqrt((1.0 + math.sqrt(1.0 - 4.0 * px * px)) / 2.0)
    ang2 = -math.asin(px / v2)
    assert pf.v_mag[1] == pytest.approx(v2, abs=1e-9)
    assert pf.v_ang[1] == pytest.approx(ang2, abs=1e-9)
    assert pf.v_mag[0] == 1.0 and pf.v_ang[0] == 0.0


def test_two_bus_beyond_loadability_fails():
    # static transfer limit of the feeder is well below 20 pu
    with pytest.raises(PowerFlowError, match="did not converge"):
        solve_powerflow(parse_case(two_bus_feeder(20.0)))


def test_newton_gives_up_after_max_iter(monkeypatch, ne39_case):
    needed = solve_powerflow(ne39_case).iterations
    monkeypatch.setattr(powerflow, "MAX_ITER", needed - 1)
    with pytest.raises(PowerFlowError, match=f"did not converge within {needed - 1} iterations"):
        solve_powerflow(ne39_case)


def test_generation_balances_load_plus_losses(ne39_case, toy4_case):
    # independent loss computation from branch currents and bus shunts
    for case in (ne39_case, toy4_case):
        pf = solve_powerflow(case)
        index = case.bus_index()
        v = pf.v_mag * np.exp(1j * pf.v_ang)
        losses = 0.0
        for br in case.branches:
            vf, vt = v[index[br.from_bus]], v[index[br.to_bus]]
            y_series = 1.0 / complex(br.r, br.x)
            i_series = (vf / br.tap - vt) * y_series
            losses += br.r * abs(i_series) ** 2
        for bus in case.buses:
            losses += bus.shunt_g * pf.v_mag[index[bus.id]] ** 2
        assert losses >= -10 * TOL
        # sum of net injections = generation - load, which must equal losses
        assert abs(pf.p_inj.sum() - losses) <= 10 * TOL


def test_deterministic_bitwise(ne39_case):
    a = solve_powerflow(ne39_case)
    b = solve_powerflow(ne39_case)
    assert a.iterations == b.iterations
    assert np.array_equal(a.v_mag, b.v_mag)
    assert np.array_equal(a.v_ang, b.v_ang)


def test_invalid_case_rejected():
    from gridlink.case import CaseSchemaError

    doc = parse_case(ZERO_LOAD)
    with pytest.raises(CaseSchemaError):
        doc.__class__(
            base_mva=doc.base_mva,
            f0=doc.f0,
            buses=doc.buses,
            branches=doc.branches,
            generators=[],
        )


# --- mismatch -----------------------------------------------------------------


def test_mismatch_small_at_solution(ne39_case):
    pf = solve_powerflow(ne39_case)
    res = mismatch(ne39_case, pf.v_mag, pf.v_ang)
    assert np.abs(res).max() <= TOL


def test_mismatch_flat_equals_negated_load():
    case = parse_case(two_bus_feeder(0.5))
    res = mismatch(case, np.ones(2), np.zeros(2))
    n = 2
    # pq bus residual = scheduled (-load) - computed (0 at flat, no shunts)
    assert res[1] == pytest.approx(-0.5, abs=1e-14)
    assert res[n + 1] == pytest.approx(0.0, abs=1e-14)
    # slack entries are free variables, reported as zero
    assert res[0] == 0.0 and res[n] == 0.0


def test_mismatch_dimension_check(ne39_case):
    with pytest.raises(ValueError, match="length"):
        mismatch(ne39_case, np.ones(5), np.zeros(5))


def test_mismatch_matches_jacobian_to_first_order(ne39_case):
    # central finite differences of the residual reproduce the analytic
    # Newton Jacobian column for an angle perturbation
    pf = solve_powerflow(ne39_case)
    ybus = build_ybus(ne39_case)
    slack, pv, pq = bus_partition(ne39_case)
    pvpq = pv + pq
    v = pf.v_mag * np.exp(1j * pf.v_ang)
    jac = newton_jacobian(ybus, v, pvpq, pq)

    n = len(ne39_case.buses)
    h = 1e-6
    target = pvpq[3]
    col = pvpq.index(target)
    ang_p, ang_m = pf.v_ang.copy(), pf.v_ang.copy()
    ang_p[target] += h
    ang_m[target] -= h
    df = (mismatch(ne39_case, pf.v_mag, ang_p) - mismatch(ne39_case, pf.v_mag, ang_m)) / (2 * h)
    # mismatch = spec - computed, so d(mismatch)/dx = -J
    fd_col = -np.concatenate([df[:n][pvpq], df[n:][pq]])
    scale = np.abs(jac[:, col]).max()
    assert np.abs(fd_col - jac[:, col]).max() <= 1e-6 * max(scale, 1.0)
