"""Controlled nonlinear swing dynamics and fixed-step time integration.

Per machine: m * dw/dt = P_m(delta) - d*(w - w_s) - P_e(delta), with the
communication-link control entering mechanical power as phase-difference
feedback.  SwingOperator evaluates the whole right-hand side on the stacked
state x = [delta, omega] as dx/dt = H z + c: one matrix-vector product with a
vector z that holds x, the electrical power terms w * (W w) with
w = [cos delta, sin delta], and a constant 1.  Integration is classical
fixed-step RK4, bitwise deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from gridlink.model import SystemModel
from gridlink.reduction import OperatingPoint, ReducedNetwork

Link = tuple[int, int]

# Cap on the RK4 steps of one simulate call, which stores one (steps + 1) x 2n array.
MAX_STEPS = 10**6
# simulate checks its rows for a blow-up this many at a time, not after every step.
_CHECK_ROWS = 1024


class SimulationBlowUp(RuntimeError):
    """Trajectory left the finite range; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time:.6f} s")
        self.time = time


def normalize_link(link: Link) -> Link:
    i, k = int(link[0]), int(link[1])
    if i == k:
        raise ValueError(f"self-link {link}")
    return (i, k) if i < k else (k, i)


@dataclass(frozen=True)
class MachineState:
    delta: np.ndarray  # rotor angles, rad
    omega: np.ndarray  # rotor speeds, rad/s


@dataclass(frozen=True)
class ControlConfig:
    """Communication links with one common feedback gain, acting about the operating point.

    The links are stored normalized (i < k) and sorted.  The gain is pu power
    per radian and must be negative for stabilizing feedback.  Nothing here
    checks the links' range or the gain: read_links_file and check_args
    reject bad ones at the CLI boundary, and the planner refuses a
    nonnegative gain.  The control adds L_h (delta - model.op.delta_s) to the
    mechanical power, L_h being the gain-weighted link Laplacian (see
    link_laplacian), so it vanishes at the operating point and (delta_s,
    omega_s) stays a fixed point for every link set and gain.
    """

    links: tuple[Link, ...] = ()
    gain: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(sorted(normalize_link(l) for l in self.links)))


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: Literal["state-offset", "mechanical-step"]
    target: int  # generator index, 0-based
    d_delta: float = 0.0  # rad
    d_omega: float = 0.0  # rad/s
    d_pm: float = 0.0  # pu power
    t_apply: float = 0.0  # s

    def validate(self, n: int) -> list[str]:
        report = []
        if not 0 <= self.target < n:
            report.append(f"target {self.target} out of range 0..{n - 1}")
        if self.kind == "state-offset" and self.d_pm != 0.0:
            report.append("state-offset disturbance must have d_pm = 0")
        elif self.kind == "mechanical-step" and (self.d_delta != 0.0 or self.d_omega != 0.0):
            report.append("mechanical-step disturbance must have d_delta = d_omega = 0")
        elif self.kind not in ("state-offset", "mechanical-step"):
            report.append(f"unknown disturbance kind {self.kind!r}")
        return report


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # (T,), uniform spacing, times[0] = 0
    delta: np.ndarray  # (T, n) rad
    omega: np.ndarray  # (T, n) rad/s
    dt: float


def link_laplacian(ctl: ControlConfig, n: int) -> np.ndarray:
    """Gain-weighted Laplacian L_h of the link graph on n machines, (n, n).

    With h the common gain, L_h[i, i] is h times the number of links at i and
    L_h[i, k] = -h for each link (i, k), so the control adds
    L_h (delta - model.op.delta_s) to the mechanical power and L_h / m is the
    Jacobian's control block.  An overflowing gain is left as an infinite
    entry without a warning; callers check finiteness.
    """
    lap = np.zeros((n, n))
    h = ctl.gain
    with np.errstate(over="ignore"):
        for i, k in ctl.links:
            lap[i, i] += h
            lap[k, k] += h
            lap[i, k] -= h
            lap[k, i] -= h
    return lap


def control_matrix(ctl: ControlConfig, m: np.ndarray) -> np.ndarray:
    """Link-feedback block L_h / m_i: -h_ik/m_i off-diagonal, row-sum-zero diagonal.

    With a negative gain this is a weighted Laplacian scaled by 1/m_i:
    negative diagonal, positive off-diagonals.  An overflowing gain gives
    infinite entries, which spectral evaluation rejects.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        return link_laplacian(ctl, m.size) / m[:, None]


def swing_matrix(model: SystemModel, ctl: ControlConfig) -> np.ndarray:
    """G = [[0, I], [L_h / m, -diag(d / m)]], the linear part of the swing equations, (2n, 2n)."""
    n = model.n
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = np.eye(n)
    g[n:, :n] = control_matrix(ctl, model.m)
    g[n:, n:] = np.diag(-model.d / model.m)
    return g


def electrical_power(delta: np.ndarray, net: ReducedNetwork) -> np.ndarray:
    """P_e[i] = sum_k d[i,k] cos(delta_i - delta_k) + c[i,k] sin(delta_i - delta_k).

    Evaluated as Re(E_i conj((y_g E)_i)) with E = e_mag e^{j delta}: n complex
    exponentials instead of n^2 cosines and sines.  The k = i term contributes
    the self-conductance power e_i^2 Re(y_g[i,i]).
    """
    e = net.e_mag * np.exp(1j * np.asarray(delta, dtype=float))
    return (e * np.conj(net.y_g @ e)).real


class SwingOperator:
    """The controlled swing equations on the stacked state x = [delta, omega] (2n floats).

    dx/dt = H z + c on one vector z = [x, w * (W w), 1] with w = [cos delta, sin delta] and
      H = [G, -F, -G x_ref],  G = swing_matrix(model, ctl),  F = [[0, 0], [I, I]],
      W = [[Re Y, -Im Y], [Im Y, Re Y]],  Y = diag(e_mag / m) y_g diag(e_mag),
      x_ref = [model.op.delta_s, omega_s ... omega_s],  c = [0, p_m_const / m].
    The two halves of w * (W w) sum to electrical_power / m, so
    H z = G (x - x_ref) - [0, P_e / m]: the link control acts about the
    operating point.  The state is read from ``state``, the view z[:2n]; one
    evaluation is six numpy calls on preallocated buffers, which makes an
    instance not reentrant.
    """

    def __init__(self, model: SystemModel, ctl: ControlConfig):
        n = model.n
        m, e_mag = model.m, model.net.e_mag
        self.n = n
        self.m = m
        self.h = np.zeros((2 * n, 4 * n + 1))
        self.h[:, : 2 * n] = g = swing_matrix(model, ctl)
        self.h[n:, 2 * n : 3 * n] = self.h[n:, 3 * n : 4 * n] = -np.eye(n)
        x_ref = np.concatenate([model.op.delta_s, np.full(n, model.op.omega_s)])
        # An overflowing gain leaves a non-finite entry, which simulate reports as a blow-up.
        with np.errstate(over="ignore", invalid="ignore"):
            self.h[:, -1] = -(g @ x_ref)
        self.c = self.drive(model.op.p_m_const)
        y = (e_mag / m)[:, None] * model.net.y_g * e_mag[None, :]
        self.w_matrix = np.block([[y.real, -y.imag], [y.imag, y.real]])
        self.z = np.zeros(4 * n + 1)
        self.z[-1] = 1.0
        self.state = self.z[: 2 * n]
        self._delta, self._power = self.z[:n], self.z[2 * n : 4 * n]
        self._w = np.empty(2 * n)
        self._cos, self._sin = self._w[:n], self._w[n:]

    def drive(self, p_m_const: np.ndarray) -> np.ndarray:
        """The constant term c for the constant mechanical power p_m_const."""
        return np.concatenate([np.zeros(self.n), p_m_const / self.m])

    def rate(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write dx/dt at ``state``, with constant term c, into out (2n floats) and return it."""
        w, power = self._w, self._power
        np.cos(self._delta, out=self._cos)
        np.sin(self._delta, out=self._sin)
        self.w_matrix.dot(w, power)
        power *= w
        self.h.dot(self.z, out)
        out += c
        return out

    def __call__(self, x: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write dx/dt at x, with constant term c, into out (2n floats) and return it."""
        np.copyto(self.state, x)
        return self.rate(c, out)


def swing_rhs(
    state: MachineState, model: SystemModel, ctl: ControlConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(d delta/dt, d omega/dt) of the controlled swing equations, by the SwingOperator simulate uses."""
    op = SwingOperator(model, ctl)
    rate = op(np.concatenate([state.delta, state.omega], dtype=float), op.c, np.empty(2 * model.n))
    return rate[: model.n], rate[model.n :]


def simulate(
    initial: MachineState,
    model: SystemModel,
    ctl: ControlConfig,
    disturbance: DisturbanceSpec | None,
    t_max: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate with classical RK4 at fixed step dt over [0, t_max].

    The last sample is the last grid time k dt <= t_max (within 1e-9 steps).

    The stacked state [delta, omega] is stepped by one SwingOperator, built
    once per call, with stage buffers reused across steps; each step is
    written straight into one (steps + 1, 2n) array, of which the returned
    delta and omega are views.  Stage inputs x + (0.5 dt) k are written
    straight into the operator's state, and the update is
    x + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4), with the scalar factors held in
    0-d arrays, so the result equals RK4 driven by swing_rhs bit for bit.

    A state-offset disturbance is added to the recorded state at the first
    grid time >= t_apply; a mechanical-step is added to the constant
    mechanical power from that grid time onward.  Raises ValueError beyond
    MAX_STEPS steps.  The rows are checked for finiteness _CHECK_ROWS at a
    time, as each block of them is complete; a non-finite row raises
    SimulationBlowUp at the time of the first one, after at most one block
    of further steps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < dt:
        raise ValueError("t_max must be at least dt")
    if t_max / dt > MAX_STEPS:
        raise ValueError(f"t_max / dt exceeds {MAX_STEPS} steps")
    n = model.n
    steps = int(np.floor(t_max / dt + 1e-9))
    # No disturbance is a zero state offset; validate() leaves zero the terms a kind does not use.
    dist = disturbance or DisturbanceSpec(kind="state-offset", target=0)
    problems = dist.validate(n)
    if problems:
        raise ValueError("; ".join(problems))
    unit = np.zeros(n)
    unit[dist.target] = 1.0
    offset = np.concatenate([dist.d_delta * unit, dist.d_omega * unit])
    apply_index = int(np.clip(np.ceil(dist.t_apply / dt - 1e-9), 0, steps + 1))

    op = SwingOperator(model, ctl)
    z, c = op.state, op.c
    stepped_c = op.drive(model.op.p_m_const + dist.d_pm * unit)
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, 2 * n))
    states[0, :n] = initial.delta
    states[0, n:] = initial.omega
    k1, k2, k3, k4, stage, total = np.empty((6, 2 * n))
    # 0-d arrays: numpy converts a Python float operand on every call.
    half, full, two, sixth = (np.array(f) for f in (0.5 * dt, dt, 2.0, dt / 6.0))
    # Overflow here is the blow-up signal, not a numerics bug to warn about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            x = states[k]
            if k == apply_index:
                x += offset
                c = stepped_c
            if k % _CHECK_ROWS == _CHECK_ROWS - 1 or k == steps:
                first = k - k % _CHECK_ROWS
                finite = np.isfinite(states[first : k + 1]).all(axis=1)
                if not finite.all():
                    raise SimulationBlowUp(times[first + finite.argmin()])
            if k == steps:
                break
            op(x, c, k1)
            np.multiply(k1, half, out=stage)
            np.add(x, stage, out=z)
            op.rate(c, k2)
            np.multiply(k2, half, out=stage)
            np.add(x, stage, out=z)
            op.rate(c, k3)
            np.multiply(k3, full, out=stage)
            np.add(x, stage, out=z)
            op.rate(c, k4)
            np.multiply(k2, two, out=total)
            total += k1
            np.multiply(k3, two, out=stage)
            total += stage
            total += k4
            total *= sixth
            np.add(x, total, out=states[k + 1])
    return Trajectory(times=times, delta=states[:, :n], omega=states[:, n:], dt=dt)


def deviation_norms(traj: Trajectory, op: OperatingPoint) -> np.ndarray:
    """Per-sample 2-norm of the state deviation with the uniform angle shift removed.

    Angles are measured relative to the last machine, which projects out the
    rigid rotation that the dynamics cannot damp.
    """
    d_delta = traj.delta - op.delta_s[None, :]
    d_delta = d_delta - d_delta[:, [-1]]
    d_omega = traj.omega - op.omega_s
    return np.sqrt(np.sum(d_delta**2, axis=1) + np.sum(d_omega**2, axis=1))


def decay_rate(traj: Trajectory, op: OperatingPoint, t_start: float) -> float:
    """Least-squares slope of log of the deviation norm over [t_start, end], 1/s.

    Samples whose norm is below 1e-13 are dropped; if every sample in the
    window is below that, there is nothing to fit and a ValueError is raised.
    """
    if t_start > traj.times[-1]:
        raise ValueError(f"t_start {t_start} beyond trajectory end {traj.times[-1]}")
    norms = deviation_norms(traj, op)
    window = traj.times >= t_start - 1e-12
    usable = window & (norms >= 1e-13)
    if not np.any(usable):
        raise ValueError("deviation underflow: all norms in the fit window are below 1e-13")
    if np.count_nonzero(usable) < 2:
        raise ValueError("fewer than two usable samples in the fit window")
    t_sel = traj.times[usable]
    slope, _ = np.polyfit(t_sel, np.log(norms[usable]), 1)
    return float(slope)
