import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink.case import parse_case
from gridlink.dynamics import MachineState, empty_control, swing_rhs, uniform_control
from gridlink.linearization import (
    alpha_for_links,
    assemble_jacobian,
    control_matrix,
    coupling_matrix,
    jacobian_blocks,
    relative_angle_jacobian,
    spectral_abscissa,
)
from gridlink.model import build_system
from gridlink.reduction import ReducedNetwork, coupling_coefficients


def _pair_network(c12=1.0):
    y = np.zeros((2, 2), dtype=complex)
    y[0, 1] = y[1, 0] = c12 * 1j
    c, d = coupling_coefficients(y, np.ones(2))
    return ReducedNetwork(y_g=y, e_mag=np.ones(2), c=c, d=d)


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
    ctl = empty_control(n)
    fd = np.zeros((n, n))
    for k in range(n):
        dp = model.op.delta_s.copy()
        dm = model.op.delta_s.copy()
        dp[k] += h
        dm[k] -= h
        omega = np.full(n, model.op.omega_s)
        _, dw_p = swing_rhs(MachineState(dp, omega), model, ctl)
        _, dw_m = swing_rhs(MachineState(dm, omega), model, ctl)
        fd[:, k] = (dw_p - dw_m) / (2 * h)
    assert np.abs(fd - t).max() <= 1e-6 * max(np.abs(t).max(), 1.0)


def test_coupling_matrix_rows_sum_to_zero(ne39_model):
    t = coupling_matrix(ne39_model.net, ne39_model.op.delta_s, ne39_model.m)
    assert np.abs(t.sum(axis=1)).max() <= 1e-10 * np.abs(t).max()


def test_control_matrix_empty():
    assert np.array_equal(control_matrix(empty_control(3), np.ones(3)), np.zeros((3, 3)))


def test_control_matrix_single_link_hand():
    ctl = uniform_control([(0, 1)], -1.0, np.zeros(2))
    k = control_matrix(ctl, np.ones(2))
    assert np.allclose(k, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_control_matrix_mass_weighted_symmetry():
    m = np.array([0.5, 2.0, 1.5])
    ctl = uniform_control([(0, 1), (1, 2)], -0.7, np.zeros(3))
    k = control_matrix(ctl, m)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert m[i] * k[i, j] == pytest.approx(m[j] * k[j, i], abs=1e-15)
    assert np.abs(k.sum(axis=1)).max() <= 1e-15


def test_assemble_single_machine():
    j = assemble_jacobian(np.zeros((1, 1)), np.zeros((1, 1)), np.array([[-1.0]]))
    assert np.array_equal(j, [[0.0, 1.0], [0.0, -1.0]])


def test_assemble_block_structure(ne39_model):
    blocks = jacobian_blocks(ne39_model, empty_control(ne39_model.n))
    n = ne39_model.n
    j = blocks.assembled
    assert np.array_equal(j[:n, :n], np.zeros((n, n)))
    assert np.array_equal(j[:n, n:], np.eye(n))
    assert np.array_equal(j[n:, n:], blocks.damping)
    assert np.allclose(np.diag(blocks.damping), -ne39_model.d / ne39_model.m)


def test_assembled_annihilates_uniform_shift(ne39_model):
    ctl = uniform_control([(0, 3), (2, 5)], -1.0, ne39_model.op.delta_s)
    j = jacobian_blocks(ne39_model, ctl).assembled
    n = ne39_model.n
    shift = np.concatenate([np.ones(n), np.zeros(n)])
    assert np.abs(j @ shift).max() <= 1e-10 * np.abs(j).max()


# --- spectral_abscissa ------------------------------------------------------------


def test_spectrum_single_machine_damped():
    # characteristic polynomial of [[0,1],[0,-1]]: lambda (lambda + 1)
    report = spectral_abscissa(np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert report.deflated
    assert report.alpha_max == pytest.approx(-1.0, abs=1e-12)
    assert sorted(report.eigenvalues.real) == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_spectrum_unit_stiffness_pair():
    # lambda^2 + lambda + 1 = 0 -> -0.5 +/- j sqrt(3)/2
    report = spectral_abscissa(np.array([[0.0, 1.0], [-1.0, -1.0]]))
    assert report.alpha_max == pytest.approx(-0.5, abs=1e-12)
    assert np.sort(report.eigenvalues.imag) == pytest.approx([-math.sqrt(3) / 2, math.sqrt(3) / 2], abs=1e-12)


def test_spectrum_block_diagonal_union():
    a = np.array([[0.0, 1.0], [-4.0, -2.0]])
    b = np.array([[0.0, 1.0], [-9.0, -0.5]])
    j = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
    union = np.sort_complex(np.concatenate([np.linalg.eigvals(a), np.linalg.eigvals(b)]))
    got = np.sort_complex(spectral_abscissa(j).eigenvalues)
    assert np.allclose(got, union, atol=1e-9)


def test_spectrum_no_qualifying_zero_reported_not_fatal():
    # well-separated spectrum with no zero mode: deflation must decline
    j = np.array([[0.0, 1.0], [-1.0, -1.0]])
    report = spectral_abscissa(j)
    assert not report.deflated
    assert report.alpha_max == pytest.approx(-0.5, abs=1e-12)


def test_spectrum_zero_mode_without_swing_structure_kept():
    # eigenvalues 0 and -1, but the top-right block is not I: no deflation
    report = spectral_abscissa(np.array([[0.0, 2.0], [0.0, -1.0]]))
    assert not report.deflated
    assert report.deflated_magnitude is None
    assert report.alpha_max == pytest.approx(0.0, abs=1e-12)


def test_spectrum_conjugate_pairing(ne39_model, toy4_model):
    for model in (ne39_model, toy4_model):
        report = spectral_abscissa(jacobian_blocks(model, empty_control(model.n)).assembled)
        eigs = sorted(report.eigenvalues, key=lambda z: (z.real, abs(z.imag), z.imag))
        remaining = list(eigs)
        while remaining:
            z = remaining.pop()
            if abs(z.imag) < 1e-12:
                continue
            partner = min(remaining, key=lambda w: abs(w - z.conjugate()))
            assert abs(partner - z.conjugate()) <= 1e-9 * max(abs(z), 1.0)
            remaining.remove(partner)


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_abscissa(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        spectral_abscissa(np.zeros((3, 3)))


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
    blocks = jacobian_blocks(model, uniform_control(links, gain, model.op.delta_s))
    reduced = relative_angle_jacobian(blocks.coupling + blocks.control, blocks.damping)
    assert reduced.shape == (2 * model.n - 1, 2 * model.n - 1)
    full = list(np.linalg.eigvals(blocks.assembled))
    tol = 1e-9 * max(1.0, max(abs(z) for z in full))
    # the reduced spectrum plus {0} is the full spectrum, matched one to one
    for z in np.append(np.linalg.eigvals(reduced), 0.0):
        k = int(np.argmin([abs(w - z) for w in full]))
        assert abs(full.pop(k) - z) <= tol
    alpha = alpha_for_links(model, links, gain)
    assert abs(alpha - _heuristic_alpha(blocks.assembled)) <= 1e-12 * max(1.0, abs(alpha))
    report = spectral_abscissa(blocks.assembled)
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


# --- alpha_for_links ---------------------------------------------------------------


def test_alpha_empty_equals_uncontrolled(toy4_model):
    baseline = spectral_abscissa(jacobian_blocks(toy4_model, empty_control(4)).assembled).alpha_max
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
    ctl = uniform_control([(0, 1)], -1.0, model.op.delta_s)
    j = jacobian_blocks(model, ctl).assembled
    n = model.n
    x0 = np.concatenate([model.op.delta_s, np.full(n, model.op.omega_s)])

    def f(x):
        dd, dw = swing_rhs(MachineState(x[:n], x[n:]), model, ctl)
        return np.concatenate([dd, dw])

    h = 1e-6
    fd = np.zeros_like(j)
    for col in range(2 * n):
        xp, xm = x0.copy(), x0.copy()
        xp[col] += h
        xm[col] -= h
        fd[:, col] = (f(xp) - f(xm)) / (2 * h)
    scale = np.abs(j).max()
    assert np.all(np.abs(fd - j) <= 1e-6 * np.abs(j) + 1e-9 * scale)
