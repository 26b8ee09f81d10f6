import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_MACHINE_OSCILLATOR, equilibrium_state
from gridlink.case import parse_case
from gridlink.dynamics import (
    ControlConfig,
    DisturbanceSpec,
    MachineState,
    SimulationBlowUp,
    SwingOperator,
    Trajectory,
    control_matrix,
    decay_rate,
    electrical_power,
    link_laplacian,
    simulate,
    swing_matrix,
    swing_rhs,
)
from gridlink.linearization import jacobian
from gridlink.model import build_system
from gridlink.reduction import OperatingPoint, ReducedNetwork, coupling_coefficients


def _lossless_pair(c12=1.0):
    y = np.zeros((2, 2), dtype=complex)
    y[0, 1] = y[1, 0] = c12 * 1j
    c, d = coupling_coefficients(y, np.ones(2))
    return ReducedNetwork(y_g=y, e_mag=np.ones(2), c=c, d=d)


def test_electrical_power_single_machine_constant():
    y = np.array([[0.25 + 0.5j]])
    c, d = coupling_coefficients(y, np.array([1.2]))
    net = ReducedNetwork(y_g=y, e_mag=np.array([1.2]), c=c, d=d)
    for angle in (0.0, 0.3, -1.2):
        p = electrical_power(np.array([angle]), net)
        assert p[0] == pytest.approx(1.2**2 * 0.25, abs=1e-14)


def test_electrical_power_lossless_sums_to_zero():
    net = _lossless_pair()
    rng = np.random.default_rng(0)
    for _ in range(10):
        delta = rng.normal(size=2)
        assert electrical_power(delta, net).sum() == pytest.approx(0.0, abs=1e-14)


def test_electrical_power_two_machine_hand_value():
    net = _lossless_pair(c12=1.0)
    p = electrical_power(np.array([0.1, 0.0]), net)
    assert p[0] == pytest.approx(math.sin(0.1), abs=1e-14)
    assert p[1] == pytest.approx(-math.sin(0.1), abs=1e-14)


def test_link_laplacian_empty_links():
    assert np.array_equal(link_laplacian(ControlConfig(), 3), np.zeros((3, 3)))


def test_link_laplacian_single_link_hand_value():
    ctl = ControlConfig([(2, 0)], -1.0)
    assert ctl.links == ((0, 2),)
    assert np.array_equal(link_laplacian(ctl, 3), [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])


def test_mechanical_power_zero_at_reference(toy3_model):
    # the control adds L_h (delta - delta_s), which vanishes at the operating point's angles
    op = OperatingPoint(delta_s=np.array([0.2, -0.1]), omega_s=377.0, p_m_const=np.array([1.0, 2.0]))
    ctl = ControlConfig([(0, 1)], -3.0)
    assert np.array_equal(op.p_m_const + link_laplacian(ctl, 2) @ (op.delta_s - op.delta_s), op.p_m_const)

    # off the power-flow equilibrium, at the operating point's angles the
    # controlled swing equations equal the uncontrolled ones
    ref = toy3_model.op.delta_s + np.array([0.3, -0.2, 0.1])
    model = replace(toy3_model, op=replace(toy3_model.op, delta_s=ref))
    state = MachineState(ref, model.op.omega_s + np.array([0.5, -1.0, 0.25]))
    free = swing_rhs(state, model, ControlConfig())
    ctl = ControlConfig([(0, 1), (1, 2), (0, 2)], -3.0)
    for got, want in zip(swing_rhs(state, model, ctl), free):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _per_link_mechanical_power(delta, op, ctl):
    p_m = op.p_m_const.copy()
    angles = delta - op.delta_s
    for link in ctl.links:
        i, k = link
        dev = angles[i] - angles[k]
        p_m[i] += ctl.gain * dev
        p_m[k] -= ctl.gain * dev
    return p_m


def _per_link_control_matrix(ctl, m):
    k_mat = np.zeros((m.size, m.size))
    for link in ctl.links:
        i, j = link
        h = ctl.gain
        k_mat[i, j] += -h / m[i]
        k_mat[j, i] += -h / m[j]
        k_mat[i, i] += h / m[i]
        k_mat[j, j] += h / m[j]
    return k_mat


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_link_laplacian_matches_per_link_oracles(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    links = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    gain = data.draw(st.floats(min_value=-50.0, max_value=-1e-3))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ref = rng.uniform(-1.0, 1.0, n)
    delta = ref + rng.uniform(-0.5, 0.5, n)
    m = rng.uniform(0.01, 0.2, n)
    op = OperatingPoint(delta_s=ref, omega_s=377.0, p_m_const=rng.normal(size=n))
    ctl = ControlConfig(tuple(links), gain)

    expected = _per_link_mechanical_power(delta, op, ctl)
    scale = np.abs(op.p_m_const) + 2.0 * len(links) * abs(gain) * np.abs(delta - ref).max()
    p_m = op.p_m_const + link_laplacian(ctl, n) @ (delta - ref)
    assert np.all(np.abs(p_m - expected) <= 1e-13 * np.maximum(scale, 1.0))

    expected = _per_link_control_matrix(ctl, m)
    row_scale = np.abs(expected).sum(axis=1, keepdims=True)
    assert np.all(np.abs(control_matrix(ctl, m) - expected) <= 1e-14 * row_scale)


def _cos_sin_electrical_power(delta, net):
    dd = delta[:, None] - delta[None, :]
    return np.sum(net.d * np.cos(dd) + net.c * np.sin(dd), axis=1)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_electrical_power_matches_cos_sin_oracle(ne39_model, seed):
    net = ne39_model.net
    if seed is None:
        delta = ne39_model.op.delta_s
    else:
        delta = np.random.default_rng(seed).uniform(-math.pi, math.pi, net.n)
    expected = _cos_sin_electrical_power(delta, net)
    assert np.all(np.abs(electrical_power(delta, net) - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_rhs_zero_at_equilibrium_any_control(toy3_model):
    state = equilibrium_state(toy3_model)
    for links in ([], [(0, 1)], [(0, 1), (1, 2), (0, 2)]):
        ctl = ControlConfig(links, -1.0)
        ddelta, domega = swing_rhs(state, toy3_model, ctl)
        assert np.abs(ddelta).max() <= 1e-10
        assert np.abs(domega).max() <= 1e-10


def test_rhs_isolated_damping_response(toy3_model):
    model = toy3_model
    omega = np.full(model.n, model.op.omega_s)
    omega[1] += 1.0
    ddelta, domega = swing_rhs(MachineState(model.op.delta_s.copy(), omega), model, ControlConfig())
    assert ddelta[1] == pytest.approx(1.0, abs=1e-14)
    assert domega[1] == pytest.approx(-model.d[1] / model.m[1], rel=1e-12)
    assert ddelta[0] == 0.0 and ddelta[2] == 0.0


def test_rhs_matches_flow_derivative(toy3_model):
    # central finite differences of the integrated flow as the oracle
    model = toy3_model
    ctl = ControlConfig([(0, 2)], -1.0)
    rng = np.random.default_rng(11)
    state = MachineState(
        model.op.delta_s + rng.uniform(-0.2, 0.2, model.n),
        model.op.omega_s + rng.uniform(-0.5, 0.5, model.n),
    )
    h = 1e-5
    traj = simulate(state, model, ctl, None, t_max=2 * h, dt=h)
    mid = MachineState(traj.delta[1], traj.omega[1])
    fd_delta = (traj.delta[2] - traj.delta[0]) / (2 * h)
    fd_omega = (traj.omega[2] - traj.omega[0]) / (2 * h)
    ddelta, domega = swing_rhs(mid, model, ctl)
    assert np.abs(fd_delta - ddelta).max() <= 1e-6 * max(np.abs(ddelta).max(), 1.0)
    assert np.abs(fd_omega - domega).max() <= 1e-6 * max(np.abs(domega).max(), 1.0)


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_rhs_translation_covariance(shift):
    # shifting all angles and the operating point's angles together changes nothing
    net = _lossless_pair()
    op = OperatingPoint(delta_s=np.array([0.1, -0.1]), omega_s=377.0, p_m_const=np.zeros(2))
    from gridlink.model import SystemModel

    model = SystemModel(net=net, op=op, m=np.array([0.02, 0.03]), d=np.array([0.05, 0.02]))
    state = MachineState(np.array([0.4, -0.2]), np.array([377.5, 376.8]))
    ctl = ControlConfig([(0, 1)], -1.0)
    base = swing_rhs(state, model, ctl)
    shifted_model = replace(model, op=replace(op, delta_s=op.delta_s + shift))
    shifted = swing_rhs(MachineState(state.delta + shift, state.omega), shifted_model, ctl)
    assert np.allclose(base[0], shifted[0], atol=1e-12)
    assert np.allclose(base[1], shifted[1], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_uniform_angle_shift_leaves_rhs_unchanged(ne39_model, data):
    # L_h annihilates the all-ones vector and P_e sees only angle differences,
    # so shifting every angle (operating point fixed) changes no rate
    model, op = ne39_model, ne39_model.op
    n = model.n
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    links = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    gain = data.draw(st.floats(min_value=-50.0, max_value=-1e-3))
    shift = data.draw(st.floats(min_value=-10.0, max_value=10.0))
    angles = st.floats(min_value=-math.pi, max_value=math.pi)
    delta = op.delta_s + np.array(data.draw(st.lists(angles, min_size=n, max_size=n)))
    omega = op.omega_s + np.array(data.draw(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=n, max_size=n)))
    ctl = ControlConfig(links, gain)

    ddelta, domega = swing_rhs(MachineState(delta, omega), model, ctl)
    shifted_ddelta, shifted_domega = swing_rhs(MachineState(delta + shift, omega), model, ctl)
    net, omega_dev = model.net, np.abs(omega - op.omega_s)
    scale = (
        np.abs(op.p_m_const)
        + np.abs(link_laplacian(ctl, n)) @ (np.abs(delta - op.delta_s) + abs(shift))
        + model.d * omega_dev
        + net.e_mag * (np.abs(net.y_g) @ net.e_mag)
    ) / model.m
    assert np.array_equal(shifted_ddelta, ddelta)
    assert np.all(np.abs(shifted_domega - domega) <= 1e-12 * scale)


# The two-array right-hand side that SwingOperator replaced, kept as an oracle.
def _two_array_rhs(delta, omega, model, ctl):
    omega_dev = omega - model.op.omega_s
    p_m = model.op.p_m_const + link_laplacian(ctl, model.n) @ (delta - model.op.delta_s)
    p_e = electrical_power(delta, model.net)
    return omega_dev, (p_m - model.d * omega_dev - p_e) / model.m


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_swing_rhs_matches_two_array_oracle(ne39_model, data):
    n = ne39_model.n
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    links = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    gain = data.draw(st.floats(min_value=-50.0, max_value=-1e-3))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    op = ne39_model.op
    # the operating point's angles and mechanical power both moved off the power-flow equilibrium
    p_m_const = op.p_m_const + rng.normal(size=n)
    model = replace(ne39_model, op=replace(op, delta_s=op.delta_s + rng.uniform(-0.1, 0.1, n), p_m_const=p_m_const))
    ctl = ControlConfig(tuple(links), gain)
    delta = op.delta_s + rng.uniform(-math.pi, math.pi, n)
    omega = op.omega_s + rng.normal(scale=2.0, size=n)

    ddelta, domega = swing_rhs(MachineState(delta, omega), model, ctl)
    exp_ddelta, exp_domega = _two_array_rhs(delta, omega, model, ctl)
    net, omega_dev = model.net, np.abs(omega - op.omega_s)
    scale = (
        np.abs(model.op.p_m_const)
        + np.abs(link_laplacian(ctl, n)) @ np.abs(delta - model.op.delta_s)
        + model.d * omega_dev
        + net.e_mag * (np.abs(net.y_g) @ net.e_mag)
    ) / model.m
    assert np.all(np.abs(ddelta - exp_ddelta) <= 1e-12 * np.maximum(omega_dev, 1.0))
    assert np.all(np.abs(domega - exp_domega) <= 1e-12 * scale)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_swing_operator_power_term_is_electrical_power(ne39_model, seed):
    # no links, omega at synchronous speed and c = 0 leave only -P_e / m
    model = ne39_model
    n = model.n
    delta = model.op.delta_s if seed is None else np.random.default_rng(seed).uniform(-math.pi, math.pi, n)
    op = SwingOperator(model, ControlConfig())
    rate = op(np.concatenate([delta, np.full(n, model.op.omega_s)]), np.zeros(2 * n), np.empty(2 * n))
    expected = electrical_power(delta, model.net)
    assert np.all(rate[:n] == 0.0)
    assert np.all(np.abs(-model.m * rate[n:] - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_swing_operator_finite_differences_match_jacobian(ne39_model):
    # central differences of the operator at the operating point give the
    # assembled Jacobian, on the 39-bus case with the 15-link plan installed
    model = ne39_model
    n = model.n
    ctl = ControlConfig([(i - 1, k - 1) for i, k in NE39_PLAN_15], -1.0)
    j = jacobian(model, ctl)
    op = SwingOperator(model, ctl)
    x0 = np.concatenate([model.op.delta_s, np.full(n, model.op.omega_s)])
    h = 1e-5
    fd = np.empty_like(j)
    for col in range(2 * n):
        xp, xm = x0.copy(), x0.copy()
        xp[col] += h
        xm[col] -= h
        fd[:, col] = (op(xp, op.c, np.empty(2 * n)) - op(xm, op.c, np.empty(2 * n))) / (2 * h)
    assert np.all(np.abs(fd - j) <= 1e-6 * np.abs(j) + 1e-9 * np.abs(j).max())


# --- simulate -------------------------------------------------------------------


def test_simulate_holds_equilibrium(toy3_model):
    traj = simulate(equilibrium_state(toy3_model), toy3_model, ControlConfig(), None, t_max=2.0, dt=1e-3)
    assert np.abs(traj.delta - toy3_model.op.delta_s).max() <= 1e-10
    assert np.abs(traj.omega - toy3_model.op.omega_s).max() <= 1e-10
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), traj.dt)


def test_simulate_stable_deviation_shrinks(toy3_model):
    model = toy3_model
    init = MachineState(model.op.delta_s + np.array([0.01, -0.005, 0.0]), np.full(3, model.op.omega_s))
    traj = simulate(init, model, ControlConfig(), None, t_max=5.0, dt=1e-3)
    from gridlink.dynamics import deviation_norms

    norms = deviation_norms(traj, model.op)
    assert norms[-1] < norms[0]


def test_simulate_rk4_order(oscillator_model):
    model = oscillator_model
    init = MachineState(model.op.delta_s + np.array([0.25, -0.25]), np.full(2, model.op.omega_s))

    def terminal(dt):
        t = simulate(init, model, ControlConfig(), None, t_max=1.0, dt=dt)
        return np.concatenate([t.delta[-1], t.omega[-1]])

    ref = terminal(0.0005)
    err_coarse = np.linalg.norm(terminal(0.004) - ref)
    err_fine = np.linalg.norm(terminal(0.002) - ref)
    assert 12.0 <= err_coarse / err_fine <= 20.0


def test_simulate_energy_conservation(oscillator_model):
    # lossless undamped pair: kinetic + potential - dispatch work is invariant
    model = oscillator_model
    assert np.abs(model.net.d).max() <= 1e-9
    init = MachineState(model.op.delta_s + np.array([0.25, -0.25]), np.full(2, model.op.omega_s))
    traj = simulate(init, model, ControlConfig(), None, t_max=10.0, dt=1e-3)

    d_omega = traj.omega - model.op.omega_s
    kinetic = 0.5 * (model.m * d_omega**2).sum(axis=1)
    potential = -model.net.c[0, 1] * np.cos(traj.delta[:, 0] - traj.delta[:, 1])
    potential -= traj.delta @ model.op.p_m_const
    energy = kinetic + potential
    assert np.abs(energy - energy[0]).max() <= 1e-3 * abs(energy[0])


def test_simulate_bitwise_deterministic(toy3_model):
    model = toy3_model
    init = MachineState(model.op.delta_s + 0.01, np.full(3, model.op.omega_s))
    ctl = ControlConfig([(0, 1)], -1.0)
    a = simulate(init, model, ctl, None, t_max=1.0, dt=1e-3)
    b = simulate(init, model, ctl, None, t_max=1.0, dt=1e-3)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.omega, b.omega)


def test_simulate_state_offset_applied_at_time(toy3_model):
    model = toy3_model
    dist = DisturbanceSpec(kind="state-offset", target=1, d_delta=0.02, t_apply=0.5)
    traj = simulate(equilibrium_state(model), model, ControlConfig(), dist, t_max=1.0, dt=1e-3)
    k = int(round(0.5 / 1e-3))
    assert np.abs(traj.delta[k - 1] - model.op.delta_s).max() <= 1e-12
    assert traj.delta[k, 1] - model.op.delta_s[1] == pytest.approx(0.02, abs=1e-12)


def test_simulate_mechanical_step_shifts_equilibrium(toy3_model):
    model = toy3_model
    dist = DisturbanceSpec(kind="mechanical-step", target=0, d_pm=0.05, t_apply=0.0)
    traj = simulate(equilibrium_state(model), model, ControlConfig(), dist, t_max=8.0, dt=1e-3)
    # extra drive on machine 0 must advance its angle relative to the others
    rel = (traj.delta[:, 0] - traj.delta[:, 2]) - (model.op.delta_s[0] - model.op.delta_s[2])
    assert rel[-1] > 1e-4


def test_simulate_mechanical_step_is_swing_rhs_plus_step(toy3_model):
    # RK4 driven by swing_rhs on a model whose constant mechanical power holds
    # the step, from the apply index on, reproduces simulate bit for bit
    model = toy3_model
    ctl = ControlConfig([(0, 2)], -1.5)
    dt, apply_index, steps = 2.0**-7, 10, 40
    dist = DisturbanceSpec(kind="mechanical-step", target=1, d_pm=0.05, t_apply=apply_index * dt)
    init = MachineState(model.op.delta_s + np.array([0.01, 0.0, -0.01]), np.full(3, model.op.omega_s))
    traj = simulate(init, model, ctl, dist, t_max=steps * dt, dt=dt)

    step = np.zeros(3)
    step[1] = 0.05
    stepped = replace(model, op=replace(model.op, p_m_const=model.op.p_m_const + step))
    d, w = init.delta.copy(), init.omega.copy()
    for k in range(steps + 1):
        assert np.array_equal(traj.delta[k], d) and np.array_equal(traj.omega[k], w)
        if k == steps:
            break
        rhs_model = stepped if k >= apply_index else model

        def f(x_d, x_w):
            return swing_rhs(MachineState(x_d, x_w), rhs_model, ctl)

        k1d, k1w = f(d, w)
        k2d, k2w = f(d + 0.5 * dt * k1d, w + 0.5 * dt * k1w)
        k3d, k3w = f(d + 0.5 * dt * k2d, w + 0.5 * dt * k2w)
        k4d, k4w = f(d + dt * k3d, w + dt * k3w)
        d = d + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)


# 15-link ne39 plan, 1-based, as gridlink plan --budget 15 --gain -1 installs it
NE39_PLAN_15 = [(1, 9), (1, 3), (1, 2), (1, 6), (1, 8), (1, 10), (1, 7), (9, 10), (8, 9), (2, 9), (3, 10), (3, 9),
                (3, 8), (2, 10), (6, 7)]


def test_swing_operator_and_jacobian_share_the_swing_matrix(ne39_model):
    # the RK4 operator's linear part is swing_matrix itself; the Jacobian adds coupling to its lower-left block only
    n = ne39_model.n
    ctl = ControlConfig([(i - 1, k - 1) for i, k in NE39_PLAN_15], -1.0)
    g = swing_matrix(ne39_model, ctl)
    assert np.array_equal(SwingOperator(ne39_model, ctl).h[:, : 2 * n], g)
    j = jacobian(ne39_model, ctl)
    lower_left = np.zeros((2 * n, 2 * n), dtype=bool)
    lower_left[n:, :n] = True
    assert np.array_equal(j[~lower_left], g[~lower_left])
    assert not np.array_equal(j[n:, :n], g[n:, :n])


def test_simulate_matches_two_array_rk4_loop(ne39_model):
    model = ne39_model
    ctl = ControlConfig([(i - 1, k - 1) for i, k in NE39_PLAN_15], -1.0)
    init = MachineState(model.op.delta_s.copy(), np.full(model.n, model.op.omega_s))
    dist = DisturbanceSpec(kind="state-offset", target=0, d_delta=0.05)
    dt, steps = 1e-3, 2000
    traj = simulate(init, model, ctl, dist, t_max=steps * dt, dt=dt)

    def f(x_d, x_w):
        return _two_array_rhs(x_d, x_w, model, ctl)

    d, w = init.delta.copy(), init.omega.copy()
    d[0] += 0.05
    delta, omega = [d], [w]
    for _ in range(steps):
        k1d, k1w = f(d, w)
        k2d, k2w = f(d + 0.5 * dt * k1d, w + 0.5 * dt * k1w)
        k3d, k3w = f(d + 0.5 * dt * k2d, w + 0.5 * dt * k2w)
        k4d, k4w = f(d + dt * k3d, w + dt * k3w)
        d = d + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        delta.append(d)
        omega.append(w)
    assert np.abs(traj.delta - np.array(delta)).max() <= 1e-9
    assert np.abs(traj.omega - np.array(omega)).max() <= 1e-9


def test_simulate_trajectory_shapes_and_halves(toy3_model):
    model = toy3_model
    init = MachineState(model.op.delta_s + np.array([0.01, 0.0, -0.01]), np.full(3, model.op.omega_s + 0.5))
    traj = simulate(init, model, ControlConfig(), None, t_max=0.1, dt=1e-3)
    assert traj.delta.shape == traj.omega.shape == (101, 3)
    assert np.array_equal(traj.delta[0], init.delta) and np.array_equal(traj.omega[0], init.omega)
    assert np.abs(traj.delta - model.op.delta_s).max() < 0.1
    assert np.abs(traj.omega - model.op.omega_s).max() < 1.0


def test_simulate_disturbance_after_horizon_never_applies(toy3_model):
    dist = DisturbanceSpec(kind="state-offset", target=1, d_delta=0.02, t_apply=math.inf)
    traj = simulate(equilibrium_state(toy3_model), toy3_model, ControlConfig(), dist, t_max=0.01, dt=1e-3)
    assert np.abs(traj.delta - toy3_model.op.delta_s).max() <= 1e-12


def test_simulate_rejects_step_count_above_cap(toy3_model):
    with pytest.raises(ValueError, match="steps"):
        simulate(equilibrium_state(toy3_model), toy3_model, ControlConfig(), None, t_max=1e9, dt=1e-3)


def test_simulate_rejects_mixed_disturbance(toy3_model):
    dist = DisturbanceSpec(kind="state-offset", target=0, d_delta=0.1, d_pm=0.1)
    with pytest.raises(ValueError, match="d_pm"):
        simulate(equilibrium_state(toy3_model), toy3_model, ControlConfig(), dist, t_max=1.0, dt=1e-3)


def test_simulate_blowup_reports_time():
    model = build_system(parse_case(TWO_MACHINE_OSCILLATOR.replace('"h": 4.0', '"h": 0.5')))
    ctl = ControlConfig([(0, 1)], +50.0)  # destabilizing diagnostic gain
    init = MachineState(model.op.delta_s + np.array([1e-3, 0.0]), np.full(2, model.op.omega_s))
    with pytest.raises(SimulationBlowUp) as exc_info:
        simulate(init, model, ctl, None, t_max=20.0, dt=1e-3)
    assert 0.0 < exc_info.value.time <= 20.0


@pytest.mark.parametrize(
    "gain, t_max, time", [(5000.0, 20.0, 0.371), (500.0, 20.0, 1.147), (50.0, 3.7, 3.636), (5.0, 20.0, 11.558)]
)
def test_simulate_blowup_time_matches_per_step_loop(gain, t_max, time):
    # simulate checks finiteness a block of rows at a time; it reports the first non-finite row, as RK4 on
    # one SwingOperator that stops there does: in the first block, in a later one, or in a last partial one
    model = build_system(parse_case(TWO_MACHINE_OSCILLATOR.replace('"h": 4.0', '"h": 0.5')))
    ctl = ControlConfig([(0, 1)], gain)
    init = MachineState(model.op.delta_s + np.array([1e-3, 0.0]), np.full(2, model.op.omega_s))
    with pytest.raises(SimulationBlowUp) as exc_info:
        simulate(init, model, ctl, None, t_max=t_max, dt=1e-3)

    op, dt = SwingOperator(model, ctl), 1e-3
    x, rate = np.concatenate([init.delta, init.omega]), np.empty((4, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(round(t_max / dt) + 1):
            if not np.isfinite(x).all():
                break
            k1 = op(x, op.c, rate[0])
            k2 = op(x + 0.5 * dt * k1, op.c, rate[1])
            k3 = op(x + 0.5 * dt * k2, op.c, rate[2])
            k4 = op(x + dt * k3, op.c, rate[3])
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert exc_info.value.time == k * dt
    assert round(k * dt, 9) == time


# --- decay_rate -----------------------------------------------------------------


def _synthetic_trajectory(rate, freq, t_max=10.0, dt=1e-3, omega_s=377.0):
    times = np.arange(int(round(t_max / dt)) + 1) * dt
    envelope = np.exp(rate * times)
    osc = np.cos(2 * math.pi * freq * times) if freq else 1.0
    delta = np.zeros((times.size, 2))
    delta[:, 0] = 0.01 * envelope * osc
    omega = np.full((times.size, 2), omega_s)
    omega[:, 0] += 0.01 * envelope * (osc if freq else 1.0)
    return Trajectory(times=times, delta=delta, omega=omega, dt=dt)


def test_decay_rate_pure_exponential():
    traj = _synthetic_trajectory(rate=-0.5, freq=0.0)
    op = OperatingPoint(delta_s=np.zeros(2), omega_s=377.0, p_m_const=np.zeros(2))
    assert decay_rate(traj, op, t_start=0.0) == pytest.approx(-0.5, abs=1e-6)


def test_decay_rate_oscillatory_envelope():
    # fit window spans many periods; expect the envelope rate within 15%
    traj = _synthetic_trajectory(rate=-0.3, freq=1.0)
    op = OperatingPoint(delta_s=np.zeros(2), omega_s=377.0, p_m_const=np.zeros(2))
    fitted = decay_rate(traj, op, t_start=0.0)
    assert fitted == pytest.approx(-0.3, rel=0.15)


def test_decay_rate_cross_module(toy3_model):
    from gridlink.linearization import spectral_abscissa

    model = toy3_model
    ctl = ControlConfig([(0, 1)], -1.0)
    alpha = spectral_abscissa(model, ctl).alpha_max
    init = MachineState(model.op.delta_s + np.array([0.01, 0.0, 0.0]), np.full(3, model.op.omega_s))
    traj = simulate(init, model, ctl, None, t_max=5.0, dt=1e-3)
    fitted = decay_rate(traj, model.op, t_start=1.0)
    assert fitted == pytest.approx(alpha, rel=0.15)


def test_decay_rate_underflow_error(toy3_model):
    traj = simulate(equilibrium_state(toy3_model), toy3_model, ControlConfig(), None, t_max=1.0, dt=1e-3)
    with pytest.raises(ValueError, match="underflow"):
        decay_rate(traj, toy3_model.op, t_start=0.0)
