import cmath
import math

import numpy as np
import pytest

from gridlink.case import parse_case
from gridlink.dynamics import electrical_power
from gridlink.powerflow import solve_powerflow
from gridlink.reduction import (
    KronReductionError,
    augment_internal_nodes,
    coupling_coefficients,
    equilibrium,
    kron_reduce,
    reduce_case,
)

SINGLE_MACHINE = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}],
  "branches": [],
  "generators": [{"bus": 1, "p_gen": 0.0, "h": 4.0, "xd_prime": 0.1}]
}"""

LOADED_MACHINE = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [
    {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
    {"id": 2, "kind": "pq", "p_load": 1.0, "q_load": 0.0}
  ],
  "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 1e-6}],
  "generators": [{"bus": 1, "p_gen": 1.0, "h": 4.0, "xd_prime": 0.1}]
}"""


def test_internal_emf_zero_current():
    case = parse_case(SINGLE_MACHINE)
    pf = solve_powerflow(case)
    _, e_mag, delta_s = augment_internal_nodes(case, pf)
    assert e_mag[0] == pytest.approx(1.0, abs=1e-12)
    assert delta_s[0] == pytest.approx(0.0, abs=1e-12)


def test_internal_emf_unit_power():
    # E = 1 + j*0.1*1 for p=1, q=0 at V=1<0: |E|=sqrt(1.01), angle=atan(0.1)
    case = parse_case(LOADED_MACHINE)
    pf = solve_powerflow(case)
    _, e_mag, delta_s = augment_internal_nodes(case, pf)
    expected = cmath.polar(1 + 0.1j)
    assert e_mag[0] == pytest.approx(expected[0], abs=1e-5)
    assert delta_s[0] == pytest.approx(expected[1], abs=1e-5)


def test_load_becomes_shunt_admittance():
    # y_L = (p - jq)/v^2 by hand: (1 - 0.5j)/0.9025
    case = parse_case(
        """{
      "base_mva": 100.0, "f0": 60.0,
      "buses": [
        {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
        {"id": 2, "kind": "pq", "p_load": 1.0, "q_load": 0.5}
      ],
      "branches": [{"from": 1, "to": 2, "r": 0.01, "x": 0.1}],
      "generators": [{"bus": 1, "p_gen": 1.0, "h": 4.0}]
    }"""
    )
    pf = solve_powerflow(case)
    pf_mod = pf.__class__(
        v_mag=np.array([1.0, 0.95]),
        v_ang=pf.v_ang,
        p_inj=pf.p_inj,
        q_inj=pf.q_inj,
        iterations=pf.iterations,
        max_mismatch=pf.max_mismatch,
    )
    from gridlink.case import build_ybus

    aug, _, _ = augment_internal_nodes(case, pf_mod)
    added = aug[1, 1] - build_ybus(case)[1, 1]
    assert added == pytest.approx((1.0 - 0.5j) / 0.9025, abs=1e-12)


# --- kron_reduce ----------------------------------------------------------------


def test_kron_retain_all_is_identity():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y = y + y.T
    assert np.array_equal(kron_reduce(y, [0, 1, 2, 3]), y)


def test_kron_three_node_star():
    # two legs of -10j each into an eliminated center: series combination
    # gives a single branch of -5j between the outer nodes
    y0 = -10j
    y = np.array(
        [
            [y0, 0, -y0],
            [0, y0, -y0],
            [-y0, -y0, 2 * y0],
        ]
    )
    reduced = kron_reduce(y, [0, 1])
    expected = np.array([[-5j, 5j], [5j, -5j]])
    assert np.allclose(reduced, expected, atol=1e-12)


def _random_connected_network(rng, n):
    y = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        y_series = 1.0 / complex(rng.uniform(0.001, 0.05), rng.uniform(0.05, 0.5))
        _add_branch(y, i, i + 1, y_series)
    for _ in range(n):
        i, k = rng.integers(0, n, 2)
        if i != k:
            y_series = 1.0 / complex(rng.uniform(0.001, 0.05), rng.uniform(0.05, 0.5))
            _add_branch(y, i, k, y_series)
    for i in range(n):
        y[i, i] += complex(rng.uniform(0.01, 1.0), rng.uniform(-1.0, 1.0))
    return y


def _add_branch(y, i, k, y_series):
    y[i, i] += y_series
    y[k, k] += y_series
    y[i, k] -= y_series
    y[k, i] -= y_series


def test_kron_terminal_equivalence_random_network():
    # full linear solve as oracle: voltages at retained nodes must agree
    rng = np.random.default_rng(42)
    y = _random_connected_network(rng, 6)
    retained = [0, 2]
    reduced = kron_reduce(y, retained)
    for _ in range(20):
        inj = np.zeros(6, dtype=complex)
        inj[retained] = rng.normal(size=2) + 1j * rng.normal(size=2)
        v_full = np.linalg.solve(y, inj)
        v_red = np.linalg.solve(reduced, inj[retained])
        scale = np.abs(v_full[retained]).max()
        assert np.abs(v_full[retained] - v_red).max() <= 1e-9 * max(scale, 1e-12)


def test_kron_associative_one_at_a_time():
    rng = np.random.default_rng(3)
    y = _random_connected_network(rng, 6)
    wholesale = kron_reduce(y, [0, 1, 2])
    stepwise = y
    # eliminate nodes 5, 4, 3 one at a time (indices shift as rows vanish)
    for drop in (5, 4, 3):
        stepwise = kron_reduce(stepwise, list(range(drop)))
    assert np.abs(wholesale - stepwise).max() <= 1e-9 * np.abs(wholesale).max()


def test_kron_singular_block_raises():
    y = np.zeros((3, 3), dtype=complex)
    _add_branch(y, 0, 1, 1.0 + 0j)  # node 2 isolated: eliminated block singular
    with pytest.raises(KronReductionError):
        kron_reduce(y, [0, 1])


def test_reduced_symmetry_and_diagonal_conductance(ne39_case, ne39_pf, ne39_model):
    y_g = ne39_model.net.y_g
    assert np.abs(y_g - y_g.T).max() <= 1e-10 * np.abs(y_g).max()
    assert np.all(np.diag(y_g).real >= 0)


# --- coupling coefficients -------------------------------------------------------


def test_coupling_unit_magnitudes():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c, d = coupling_coefficients(y, np.ones(3))
    assert np.array_equal(c, y.imag)
    assert np.array_equal(d, y.real)


def test_coupling_zero_network():
    c, d = coupling_coefficients(np.zeros((2, 2), dtype=complex), np.array([1.0, 2.0]))
    assert np.all(c == 0) and np.all(d == 0)


def test_coupling_hand_values():
    y = np.zeros((2, 2), dtype=complex)
    y[0, 1] = y[1, 0] = 0.5 + 0.3j
    c, d = coupling_coefficients(y, np.array([2.0, 1.0]))
    assert c[0, 1] == pytest.approx(0.6)
    assert d[0, 1] == pytest.approx(1.0)


def test_coupling_consistency_invariant(ne39_model):
    net = ne39_model.net
    outer = np.outer(net.e_mag, net.e_mag)
    assert np.allclose(net.c, outer * net.y_g.imag, atol=0, rtol=1e-12)
    assert np.allclose(net.d, outer * net.y_g.real, atol=0, rtol=1e-12)
    assert np.abs(net.c - net.c.T).max() <= 1e-10 * np.abs(net.c).max()
    assert np.abs(net.d - net.d.T).max() <= 1e-10 * max(np.abs(net.d).max(), 1e-12)


# --- equilibrium -----------------------------------------------------------------


def test_equilibrium_is_exact_fixed_point(ne39_model):
    from conftest import equilibrium_state
    from gridlink.dynamics import ControlConfig, swing_rhs

    state = equilibrium_state(ne39_model)
    ddelta, domega = swing_rhs(state, ne39_model, ControlConfig())
    assert np.abs(ddelta).max() <= 1e-10
    assert np.abs(domega).max() <= 1e-10


def test_equilibrium_single_machine_self_conductance():
    case = parse_case(SINGLE_MACHINE)
    pf = solve_powerflow(case)
    net, op = reduce_case(case, pf)
    expected = net.e_mag[0] ** 2 * net.y_g[0, 0].real
    assert op.p_m_const[0] == pytest.approx(expected, abs=1e-14)
    assert op.omega_s == pytest.approx(2 * math.pi * 60.0)


def test_equilibrium_total_includes_losses(toy4_case):
    # sum of dispatch = total electrical power of the reduced model at delta_s
    pf = solve_powerflow(toy4_case)
    net, op = reduce_case(toy4_case, pf)
    p_e = electrical_power(op.delta_s, net)
    assert np.allclose(op.p_m_const, p_e, atol=1e-14)
    assert p_e.sum() > 0  # transfer-conductance + load-shunt dissipation


def test_equilibrium_signature_matches_reduce(toy4_case):
    pf = solve_powerflow(toy4_case)
    net, op = reduce_case(toy4_case, pf)
    _, _, delta_s = augment_internal_nodes(toy4_case, pf)
    op2 = equilibrium(delta_s, op.omega_s, net)
    assert np.array_equal(op.delta_s, op2.delta_s)
    assert np.array_equal(op.p_m_const, op2.p_m_const)
