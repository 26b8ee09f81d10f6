"""Controlled nonlinear swing dynamics and fixed-step time integration.

Per machine: m * dw/dt = P_m(delta) - d*(w - w_s) - P_e(delta), with the
communication-link control entering mechanical power as phase-difference
feedback.  Integration is classical fixed-step RK4, bitwise deterministic for
fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from gridlink.model import SystemModel
from gridlink.reduction import OperatingPoint, ReducedNetwork

Link = tuple[int, int]

# Cap on the RK4 steps of one simulate call, which stores two (steps + 1) x n arrays.
MAX_STEPS = 10**6


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
    """Communication links with per-link feedback gains.

    Gains are pu power per radian and must be negative for stabilizing
    feedback; nonnegative values are tolerated for diagnostics (``validate``
    flags them, the planner refuses them).  The control adds L_h (delta -
    reference_angles) to the mechanical power, L_h being the gain-weighted link
    Laplacian (see link_laplacian), so it vanishes at the reference angles.
    """

    links: tuple[Link, ...]
    gains: dict[Link, float]
    reference_angles: np.ndarray

    def validate(self, n: int | None = None) -> list[str]:
        report = []
        seen = set()
        for link in self.links:
            i, k = link
            if i == k:
                report.append(f"self-link {link}")
            if (min(link), max(link)) in seen:
                report.append(f"duplicate link {link}")
            seen.add((min(link), max(link)))
            if link not in self.gains:
                report.append(f"link {link} has no gain")
            elif self.gains[link] >= 0:
                report.append(f"link {link}: gain must be negative, got {self.gains[link]}")
            if n is not None and not (0 <= i < n and 0 <= k < n):
                report.append(f"link {link}: generator index out of range 0..{n - 1}")
        return report


def uniform_control(links, gain: float, reference_angles: np.ndarray) -> ControlConfig:
    """ControlConfig with one common gain on every link."""
    normalized = tuple(sorted(normalize_link(l) for l in links))
    return ControlConfig(
        links=normalized,
        gains={l: gain for l in normalized},
        reference_angles=np.asarray(reference_angles, dtype=float),
    )


def empty_control(n: int) -> ControlConfig:
    return ControlConfig(links=(), gains={}, reference_angles=np.zeros(n))


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

    def state_at(self, index: int) -> MachineState:
        return MachineState(delta=self.delta[index], omega=self.omega[index])


def link_laplacian(ctl: ControlConfig) -> np.ndarray:
    """Gain-weighted Laplacian L_h of the link graph, one row per reference angle.

    L_h[i, i] sums the gains of the links at i and L_h[i, k] = -h_ik, so the
    control adds L_h (delta - reference_angles) to the mechanical power and
    L_h / m is the Jacobian's control block.  An overflowing gain is left as
    an infinite entry without a warning; callers check finiteness.
    """
    n = ctl.reference_angles.size
    lap = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for link in ctl.links:
            i, k = link
            h = ctl.gains[link]
            lap[i, i] += h
            lap[k, k] += h
            lap[i, k] -= h
            lap[k, i] -= h
    return lap


def electrical_power(delta: np.ndarray, net: ReducedNetwork) -> np.ndarray:
    """P_e[i] = sum_k d[i,k] cos(delta_i - delta_k) + c[i,k] sin(delta_i - delta_k).

    Evaluated as Re(E_i conj((y_g E)_i)) with E = e_mag e^{j delta}: n complex
    exponentials instead of n^2 cosines and sines.  The k = i term contributes
    the self-conductance power e_i^2 Re(y_g[i,i]).
    """
    e = net.e_mag * np.exp(1j * np.asarray(delta, dtype=float))
    return (e * np.conj(net.y_g @ e)).real


def mechanical_power(delta: np.ndarray, op: OperatingPoint, ctl: ControlConfig) -> np.ndarray:
    """Constant dispatch plus phase-difference feedback over the link set."""
    return op.p_m_const + link_laplacian(ctl) @ (np.asarray(delta, dtype=float) - ctl.reference_angles)


def _rhs(delta, omega, model, p_m_const, lap, reference_angles):
    """Swing right-hand side with mechanical power p_m_const + lap (delta - reference_angles)."""
    omega_dev = omega - model.op.omega_s
    p_m = p_m_const + lap @ (delta - reference_angles)
    p_e = electrical_power(delta, model.net)
    return omega_dev, (p_m - model.d * omega_dev - p_e) / model.m


def swing_rhs(
    state: MachineState, model: SystemModel, ctl: ControlConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(d delta/dt, d omega/dt) of the controlled swing equations."""
    return _rhs(state.delta, state.omega, model, model.op.p_m_const, link_laplacian(ctl), ctl.reference_angles)


def simulate(
    initial: MachineState,
    model: SystemModel,
    ctl: ControlConfig,
    disturbance: DisturbanceSpec | None,
    t_max: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate with classical RK4 at fixed step dt over [0, t_max].

    A state-offset disturbance is added to the recorded state at the first
    grid time >= t_apply; a mechanical-step is added to the constant
    mechanical power from that grid time onward.  Raises ValueError beyond
    MAX_STEPS steps and SimulationBlowUp when the state leaves the finite range.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < dt:
        raise ValueError("t_max must be at least dt")
    if t_max / dt > MAX_STEPS:
        raise ValueError(f"t_max / dt exceeds {MAX_STEPS} steps")
    n = model.n
    steps = int(round(t_max / dt))
    # No disturbance is a zero state offset; validate() leaves zero the terms a kind does not use.
    dist = disturbance or DisturbanceSpec(kind="state-offset", target=0)
    problems = dist.validate(n)
    if problems:
        raise ValueError("; ".join(problems))
    unit = np.zeros(n)
    unit[dist.target] = 1.0
    apply_index = int(np.clip(np.ceil(dist.t_apply / dt - 1e-9), 0, steps + 1))

    times = np.arange(steps + 1) * dt
    delta = np.zeros((steps + 1, n))
    omega = np.zeros((steps + 1, n))
    lap = link_laplacian(ctl)
    ref = ctl.reference_angles
    p_m = model.op.p_m_const
    cur_d = np.asarray(initial.delta, dtype=float).copy()
    cur_w = np.asarray(initial.omega, dtype=float).copy()
    # Overflow here is the blow-up signal, not a numerics bug to warn about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if k == apply_index:
                cur_d = cur_d + dist.d_delta * unit
                cur_w = cur_w + dist.d_omega * unit
                p_m = model.op.p_m_const + dist.d_pm * unit
            delta[k] = cur_d
            omega[k] = cur_w
            if not (np.all(np.isfinite(cur_d)) and np.all(np.isfinite(cur_w))):
                raise SimulationBlowUp(times[k])
            if k == steps:
                break
            k1d, k1w = _rhs(cur_d, cur_w, model, p_m, lap, ref)
            k2d, k2w = _rhs(cur_d + 0.5 * dt * k1d, cur_w + 0.5 * dt * k1w, model, p_m, lap, ref)
            k3d, k3w = _rhs(cur_d + 0.5 * dt * k2d, cur_w + 0.5 * dt * k2w, model, p_m, lap, ref)
            k4d, k4w = _rhs(cur_d + dt * k3d, cur_w + dt * k3w, model, p_m, lap, ref)
            cur_d = cur_d + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            cur_w = cur_w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return Trajectory(times=times, delta=delta, omega=omega, dt=dt)


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
