import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink.case import parse_case
from gridlink.dynamics import ControlConfig, control_matrix, equilibrium_state, swing_rhs
from gridlink import linearization
from gridlink.linearization import (
    alpha_for_links,
    coupling_matrix,
    jacobian,
    relative_angle_jacobian,
    spectral_abscissa,
    uncontrolled_jacobian,
)
from gridlink.model import SystemModel, build_system
from gridlink.planner import greedy_plan
from gridlink.reduction import ReducedNetwork, coupling_coefficients, equilibrium
from test_dynamics import NE39_PLAN_15


def _network(y):
    """The reduced network of admittance y with unit EMFs."""
    c, d = coupling_coefficients(y, np.ones(y.shape[0]))
    return ReducedNetwork(y_g=y, e_mag=np.ones(y.shape[0]), c=c, d=d)


def _pair_network(c12=1.0):
    y = np.zeros((2, 2), dtype=complex)
    y[0, 1] = y[1, 0] = c12 * 1j
    return _network(y)


def _hand_model(y, d):
    """Unit-inertia machines at zero angles on admittance y: coupling Im(y_ik) off the diagonal."""
    n = y.shape[0]
    net = _network(y)
    return SystemModel(net=net, op=equilibrium(np.zeros(n), 1.0, net), m=np.ones(n), d=np.asarray(d, dtype=float))


def independent_alpha(net, delta_s, m, d, links, gain, deflate=True):
    """From-scratch spectrum computation used as the cross-check oracle."""
    n = m.size
    t = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            dik = delta_s[i] - delta_s[k]
            t[i, k] = (net.c[i, k] * math.cos(dik) - net.d[i, k] * math.sin(dik)) / m[i]
    for i in range(n):
        t[i, i] = -sum(t[i, k] for k in range(n) if k != i)
    k_mat = np.zeros((n, n))
    for (i, j) in links:
        k_mat[i, j] -= gain / m[i]
        k_mat[j, i] -= gain / m[j]
        k_mat[i, i] += gain / m[i]
        k_mat[j, j] += gain / m[j]
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, n:] = np.eye(n)
    jac[n:, :n] = t + k_mat
    jac[n:, n:] = np.diag(-d / m)
    eigvals = np.linalg.eigvals(jac)
    if deflate:
        eigvals = np.delete(eigvals, int(np.argmin(np.abs(eigvals))))
    return float(eigvals.real.max())


def test_coupling_matrix_single_machine():
    net = ReducedNetwork(
        y_g=np.array([[0.3 + 0.2j]]),
        e_mag=np.array([1.0]),
        c=np.array([[0.2]]),
        d=np.array([[0.3]]),
    )
    assert np.array_equal(coupling_matrix(net, np.zeros(1), np.ones(1)), np.zeros((1, 1)))


def test_coupling_matrix_two_machines_hand():
    t = coupling_matrix(_pair_network(), np.zeros(2), np.ones(2))
    assert np.allclose(t, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_coupling_matrix_matches_finite_differences(ne39_model):
    model = ne39_model
    t = coupling_matrix(model.net, model.op.delta_s, model.m)
    n = model.n
    h = 1e-6
    ctl = ControlConfig()
    fd = np.zeros((n, n))
    for k in range(n):
        xp = equilibrium_state(model)
        xm = equilibrium_state(model)
        xp[k] += h
        xm[k] -= h
        dw_p = swing_rhs(xp, model, ctl)[n:]
        dw_m = swing_rhs(xm, model, ctl)[n:]
        fd[:, k] = (dw_p - dw_m) / (2 * h)
    assert np.abs(fd - t).max() <= 1e-6 * max(np.abs(t).max(), 1.0)


def test_coupling_matrix_rows_sum_to_zero(ne39_model):
    t = coupling_matrix(ne39_model.net, ne39_model.op.delta_s, ne39_model.m)
    assert np.abs(t.sum(axis=1)).max() <= 1e-10 * np.abs(t).max()


def test_control_matrix_empty():
    assert np.array_equal(control_matrix(ControlConfig(), np.ones(3)), np.zeros((3, 3)))


def test_control_matrix_single_link_hand():
    ctl = ControlConfig([(0, 1)], -1.0)
    k = control_matrix(ctl, np.ones(2))
    assert np.allclose(k, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_control_matrix_mass_weighted_symmetry():
    m = np.array([0.5, 2.0, 1.5])
    ctl = ControlConfig([(0, 1), (1, 2)], -0.7)
    k = control_matrix(ctl, m)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert m[i] * k[i, j] == pytest.approx(m[j] * k[j, i], abs=1e-15)
    assert np.abs(k.sum(axis=1)).max() <= 1e-15


def test_assemble_single_machine():
    model = _hand_model(np.zeros((1, 1), dtype=complex), [1.0])
    assert np.array_equal(jacobian(model, ControlConfig()), [[0.0, 1.0], [0.0, -1.0]])


def test_assemble_block_structure(ne39_model):
    n = ne39_model.n
    j = jacobian(ne39_model, ControlConfig())
    assert np.array_equal(j[:n, :n], np.zeros((n, n)))
    assert np.array_equal(j[:n, n:], np.eye(n))
    assert np.array_equal(j[n:, n:], np.diag(-ne39_model.d / ne39_model.m))


def test_assembled_annihilates_uniform_shift(ne39_model):
    ctl = ControlConfig([(0, 3), (2, 5)], -1.0)
    j = jacobian(ne39_model, ctl)
    n = ne39_model.n
    shift = np.concatenate([np.ones(n), np.zeros(n)])
    assert np.abs(j @ shift).max() <= 1e-10 * np.abs(j).max()


# --- spectral_abscissa ------------------------------------------------------------


def test_spectrum_single_machine_damped():
    # m = d = 1, no coupling: the Jacobian [[0,1],[0,-1]] has characteristic polynomial lambda (lambda + 1)
    report = spectral_abscissa(_hand_model(np.zeros((1, 1), dtype=complex), [1.0]), ControlConfig())
    assert report.deflated
    assert report.alpha_max == pytest.approx(-1.0, abs=1e-12)
    assert sorted(report.eigenvalues.real) == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_spectrum_unit_stiffness_pair():
    # two machines, coupling 1/2 each way, damping 1: the angle difference obeys
    # lambda^2 + lambda + 1 = 0 -> -0.5 +/- j sqrt(3)/2; the angle sum gives 0 and -1
    y = np.zeros((2, 2), dtype=complex)
    y[0, 1] = y[1, 0] = 0.5j
    report = spectral_abscissa(_hand_model(y, [1.0, 1.0]), ControlConfig())
    assert report.alpha_max == pytest.approx(-0.5, abs=1e-12)
    expected = [-0.5 + 1j * math.sqrt(3) / 2, -0.5 - 1j * math.sqrt(3) / 2, 0.0, -1.0]
    assert np.allclose(np.sort_complex(report.eigenvalues), np.sort_complex(expected), atol=1e-12)
    assert report.deflated_magnitude == pytest.approx(0.0, abs=1e-12)


def test_spectrum_block_diagonal_union():
    # two uncoupled pairs with coupling k each way and damping d: the angle
    # difference obeys lambda^2 + d lambda + 2k = 0, the angle sum gives 0 and -d
    y = np.zeros((4, 4), dtype=complex)
    y[0, 1] = y[1, 0] = 2.0j
    y[2, 3] = y[3, 2] = 4.5j
    union = [-1 + 1j * math.sqrt(3), -1 - 1j * math.sqrt(3), 0.0, -2.0]
    union += [-0.25 + 1j * math.sqrt(8.9375), -0.25 - 1j * math.sqrt(8.9375), 0.0, -0.5]
    report = spectral_abscissa(_hand_model(y, [2.0, 2.0, 0.5, 0.5]), ControlConfig())
    assert np.allclose(np.sort_complex(report.eigenvalues), np.sort_complex(union), atol=1e-9)
    # one zero mode is structural; the second, of the other pair's rigid rotation, stays
    assert report.alpha_max == pytest.approx(0.0, abs=1e-12)


def test_spectrum_conjugate_pairing(ne39_model, toy4_model):
    for model in (ne39_model, toy4_model):
        report = spectral_abscissa(model, ControlConfig())
        eigs = sorted(report.eigenvalues, key=lambda z: (z.real, abs(z.imag), z.imag))
        remaining = list(eigs)
        while remaining:
            z = remaining.pop()
            if abs(z.imag) < 1e-12:
                continue
            partner = min(remaining, key=lambda w: abs(w - z.conjugate()))
            assert abs(partner - z.conjugate()) <= 1e-9 * max(abs(z), 1.0)
            remaining.remove(partner)


@pytest.mark.parametrize("link", [(-1, 0), (0, 10), (10, 11)])
def test_alpha_rejects_link_endpoint_out_of_range(ne39_model, link):
    # numpy would wrap a negative endpoint around: (-1, 0) would be evaluated as (0, 9)
    with pytest.raises(ValueError, match=r"outside 0\.\.9"):
        alpha_for_links(ne39_model, [link], -1.0)


def test_spectrum_rejects_overflowing_gain(toy3_model):
    # two links at a machine sum the gain twice on its diagonal, which overflows
    ctl = ControlConfig([(0, 1), (0, 2)], -1e308)
    with pytest.raises(ValueError, match="non-finite"):
        spectral_abscissa(toy3_model, ctl)
    # with unit inertias only the last machine's diagonal overflows, an entry the relative-angle Jacobian leaves out
    y = np.zeros((3, 3), dtype=complex)
    y[0, 1] = y[1, 0] = y[1, 2] = y[2, 1] = 0.5j
    model = _hand_model(y, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        spectral_abscissa(model, ControlConfig([(0, 2), (1, 2)], -1e308))
    # the planner's path refuses the same control
    with pytest.raises(ValueError, match="non-finite"):
        alpha_for_links(model, [(0, 2), (1, 2)], -1e308)
    with pytest.raises(ValueError, match="non-finite"):
        greedy_plan(model, 0, -1e308, preinstalled=[(0, 2), (1, 2)])


# --- relative-angle Jacobian ---------------------------------------------------------


def _heuristic_alpha(j):
    """The former deflation, kept as an oracle: drop the smallest eigenvalue after
    checking it is below 1e-8 ||j||_2 with an eigenvector along the uniform angle
    shift (cosine >= 0.99)."""
    n = j.shape[0] // 2
    vals, vecs = np.linalg.eig(j)
    idx = int(np.argmin(np.abs(vals)))
    shift = np.zeros(2 * n)
    shift[:n] = 1.0 / np.sqrt(n)
    cosine = abs(np.vdot(vecs[:, idx], shift)) / np.linalg.norm(vecs[:, idx])
    assert abs(vals[idx]) <= 1e-8 * np.linalg.norm(j, 2) and cosine >= 0.99
    return float(np.delete(vals, idx).real.max())


def _check_relative_angle_spectrum(model, links, gain):
    ctl = ControlConfig(links, gain)
    j = jacobian(model, ctl)
    reduced = relative_angle_jacobian(model, links, gain)
    n = model.n
    assert reduced.shape == (2 * n - 1, 2 * n - 1)
    # both builders write the same coupling + control and damping entries
    assert np.array_equal(reduced[n - 1 :, : n - 1], j[n:, : n - 1])
    assert np.array_equal(reduced[n - 1 :, n - 1 :], j[n:, n:])
    full = list(np.linalg.eigvals(j))
    tol = 1e-9 * max(1.0, max(abs(z) for z in full))
    # the reduced spectrum plus {0} is the full spectrum, matched one to one
    for z in np.append(np.linalg.eigvals(reduced), 0.0):
        k = int(np.argmin([abs(w - z) for w in full]))
        assert abs(full.pop(k) - z) <= tol
    alpha = alpha_for_links(model, links, gain)
    assert abs(alpha - _heuristic_alpha(j)) <= 1e-12 * max(1.0, abs(alpha))
    report = spectral_abscissa(model, ctl)
    assert report.deflated
    assert report.alpha_max == alpha  # analyze and the planner agree bitwise
    assert report.deflated_magnitude == np.min(np.abs(report.eigenvalues))


@pytest.mark.parametrize(
    "name, links",
    [
        ("toy3", []),
        ("toy3", [(0, 1)]),
        ("toy4", []),
        ("toy4", [(0, 2), (1, 3)]),
        ("ne39", []),
        ("ne39", [(0, 8), (0, 2), (0, 1), (0, 5), (0, 7)]),
    ],
)
def test_relative_angle_spectrum_bundled(request, name, links):
    _check_relative_angle_spectrum(request.getfixturevalue(f"{name}_model"), links, -1.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_relative_angle_spectrum_drawn_links(ne39_model, toy4_model, data):
    model = data.draw(st.sampled_from([ne39_model, toy4_model]))
    pairs = [(i, k) for i in range(model.n) for k in range(i + 1, model.n)]
    links = sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=12)))
    gain = data.draw(st.floats(min_value=-5.0, max_value=-0.05))
    _check_relative_angle_spectrum(model, links, gain)


@pytest.mark.parametrize("planned", [False, True])
@pytest.mark.parametrize("name", ["toy3", "toy4", "ne39"])
def test_alpha_max_and_listed_spectrum_differ_by_rounding(request, name, planned):
    # analyze reports alpha_max from the relative-angle eigensolve but lists the full Jacobian's spectrum,
    # whose largest real part without the zero mode differs in the last digits (ne39 without links:
    # -0.09227532702435155 against -0.0922753270243517).  The links are ne39's 15-link plan, or on a toy
    # case every link in greedy order, since toy3's plan at -1 installs none
    model = request.getfixturevalue(f"{name}_model")
    links = []
    if planned and name == "ne39":
        links = [(i - 1, k - 1) for i, k in NE39_PLAN_15]
    elif planned:
        links = greedy_plan(model, model.n * (model.n - 1) // 2, -1.0, allow_nonpositive=True).links
    report = spectral_abscissa(model, ControlConfig(links, -1.0))
    listed = np.delete(report.eigenvalues, np.argmin(np.abs(report.eigenvalues)))  # the zero mode removed
    assert abs(report.alpha_max - listed.real.max()) <= 1e-13 * max(1.0, abs(report.alpha_max))


# --- alpha_for_links ---------------------------------------------------------------


def test_alpha_empty_equals_uncontrolled(toy4_model):
    baseline = spectral_abscissa(toy4_model, ControlConfig()).alpha_max
    assert alpha_for_links(toy4_model, [], -1.0) == pytest.approx(baseline, abs=1e-15)


def test_alpha_zero_gain_equals_empty(toy4_model):
    base = alpha_for_links(toy4_model, [], -1.0)
    for links in ([(0, 1)], [(0, 1), (2, 3)]):
        assert alpha_for_links(toy4_model, links, 0.0) == pytest.approx(base, abs=1e-12)


def test_alpha_matches_independent_script(toy3_model):
    model = toy3_model
    for links in ([], [(0, 1)], [(1, 2)]):
        expected = independent_alpha(model.net, model.op.delta_s, model.m, model.d, links, -1.0)
        got = alpha_for_links(model, links, -1.0)
        assert got == pytest.approx(expected, abs=1e-10)


# --- the uncontrolled Jacobian cached per model ---------------------------------------

NE39_LINK_SETS = ([], [(0, 8)], [(0, 8), (0, 2), (0, 1), (0, 5), (0, 7)])


def test_alpha_after_pickle_round_trip_is_bitwise_equal(ne39_model):
    # a spawn worker receives the model pickled and rebuilds the cache itself
    expected = [alpha_for_links(ne39_model, links, -1.0) for links in NE39_LINK_SETS]
    copy = pickle.loads(pickle.dumps(ne39_model))
    assert [alpha_for_links(copy, links, -1.0) for links in NE39_LINK_SETS] == expected
    assert not uncontrolled_jacobian(copy).flags.writeable
    assert uncontrolled_jacobian(copy) is not uncontrolled_jacobian(ne39_model)


def test_replaced_model_does_not_reuse_cached_blocks(ne39_model):
    alpha_for_links(ne39_model, [(0, 8)], -1.0)
    heavier = replace(ne39_model, m=2 * ne39_model.m)
    fresh = SystemModel(net=ne39_model.net, op=ne39_model.op, m=2 * ne39_model.m, d=ne39_model.d)
    for links in NE39_LINK_SETS:
        assert alpha_for_links(heavier, links, -1.0) == alpha_for_links(fresh, links, -1.0)
        assert alpha_for_links(heavier, links, -1.0) != alpha_for_links(ne39_model, links, -1.0)


def test_stored_coupling_coefficients_move_no_alpha(ne39_model):
    # the Jacobian reads y_g, the network the right-hand side reads, so stored
    # c and d that disagree with it change no alpha
    net = ne39_model.net
    for changed in (replace(net, c=2 * net.c), replace(net, d=2 * net.d)):
        model = replace(ne39_model, net=changed)
        for links in NE39_LINK_SETS:
            assert alpha_for_links(model, links, -1.0) == alpha_for_links(ne39_model, links, -1.0)


def test_cached_blocks_are_read_only_and_shared(ne39_model):
    cached = uncontrolled_jacobian(ne39_model)
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0
    assert uncontrolled_jacobian(ne39_model) is cached
    # the projection of the full uncontrolled Jacobian: drop delta_n, subtract its row from the other angle rows
    n = ne39_model.n
    full = np.delete(jacobian(ne39_model, ControlConfig()), n - 1, axis=1)
    full[: n - 1] -= full[n - 1]
    assert np.array_equal(cached, np.delete(full, n - 1, axis=0))



def test_cached_jacobian_lives_as_long_as_its_model(ne39_model):
    # models hash and compare by identity, so equal arrays in two models are two cache entries
    model = replace(ne39_model)
    assert model != ne39_model and len({model, ne39_model}) == 2
    alpha_for_links(model, [], -1.0)
    assert model in linearization._UNCONTROLLED
    entries = len(linearization._UNCONTROLLED)
    del model
    assert len(linearization._UNCONTROLLED) == entries - 1

# --- physics invariants ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_link_control_adds_no_damping(ne39_model, toy4_model, data):
    # link control adds stiffness L_h / m to the angle block and never touches
    # the damping diagonal, so the trace is -sum(d / m) for every link set and
    # gain; the 2n - 1 retained eigenvalues sum to it, so alpha_max is at
    # least their mean
    model = data.draw(st.sampled_from([ne39_model, toy4_model]))
    n = model.n
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    links = sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    gain = data.draw(st.floats(min_value=-100.0, max_value=-0.1))
    damping = -np.sum(model.d / model.m)
    trace = np.trace(relative_angle_jacobian(model, links, gain))
    assert abs(trace - damping) <= 1e-12 * abs(damping)
    assert alpha_for_links(model, links, gain) >= damping / (2 * n - 1) - 1e-12


def test_monotone_stabilization_against_closed_form():
    # symmetric pair, weak coupling, heavy damping: overdamped quotient mode;
    # alpha must follow the quadratic root and decrease with |h| up to the
    # overdamping crossover, then sit at -gamma/2
    case = parse_case(
        """{
      "base_mva": 100.0, "f0": 60.0,
      "buses": [
        {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
        {"id": 2, "kind": "pv", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}
      ],
      "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 50.0}],
      "generators": [
        {"bus": 1, "p_gen": 0.0, "h": 1.0, "d": 0.3, "xd_prime": 0.5},
        {"bus": 2, "p_gen": 0.0, "h": 1.0, "d": 0.3, "xd_prime": 0.5}
      ]
    }"""
    )
    model = build_system(case)
    m = model.m[0]
    gamma = model.d[0] / m
    c = model.net.c[0, 1]

    def closed_form(h_abs):
        mu = -2.0 * (c + h_abs) / m
        disc = gamma * gamma + 4.0 * mu
        lam = (-gamma + math.sqrt(disc)) / 2.0 if disc >= 0 else -gamma / 2.0
        return max(lam, -gamma)

    gains = [0.5, 1.0, 2.0, 4.0]
    alphas = [alpha_for_links(model, [(0, 1)], -h) for h in gains]
    for h_abs, alpha in zip(gains, alphas):
        assert alpha == pytest.approx(closed_form(h_abs), rel=1e-9)
    for a, b in zip(alphas, alphas[1:]):
        assert b <= a + 1e-12


def test_full_jacobian_matches_rhs_finite_differences(toy3_model):
    model = toy3_model
    ctl = ControlConfig([(0, 1)], -1.0)
    j = jacobian(model, ctl)
    n = model.n
    x0 = equilibrium_state(model)

    def f(x):
        return swing_rhs(x, model, ctl)

    h = 1e-6
    fd = np.zeros_like(j)
    for col in range(2 * n):
        xp, xm = x0.copy(), x0.copy()
        xp[col] += h
        xm[col] -= h
        fd[:, col] = (f(xp) - f(xm)) / (2 * h)
    scale = np.abs(j).max()
    assert np.all(np.abs(fd - j) <= 1e-6 * np.abs(j) + 1e-9 * scale)
