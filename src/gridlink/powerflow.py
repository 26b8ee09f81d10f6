"""Full-Newton AC power flow in polar coordinates.

Establishes the pre-disturbance operating voltages around which the swing
dynamics are linearized.  Flat start, dense Jacobian, no reactive-limit
switching; deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridlink.case import PowerCase, build_ybus


# solve_powerflow's mismatch tolerance (pu) and its cap on Newton iterations.
TOL = 1e-8
MAX_ITER = 20


class PowerFlowError(RuntimeError):
    """Power flow did not converge or hit a singular Jacobian iterate."""


@dataclass(frozen=True)
class PowerFlowSolution:
    v_mag: np.ndarray  # per-bus voltage magnitude, pu
    v_ang: np.ndarray  # per-bus voltage angle, rad
    p_inj: np.ndarray  # realized net active injection, pu
    q_inj: np.ndarray  # realized net reactive injection, pu
    iterations: int
    max_mismatch: float


def bus_partition(case: PowerCase) -> tuple[int, list[int], list[int]]:
    """(slack index, pv indices, pq indices) in bus-list order; a PowerCase has exactly one slack bus."""
    slack = next(i for i, bus in enumerate(case.buses) if bus.kind == "slack")
    pv = [i for i, bus in enumerate(case.buses) if bus.kind == "pv"]
    pq = [i for i, bus in enumerate(case.buses) if bus.kind == "pq"]
    return slack, pv, pq


def scheduled_injections(case: PowerCase) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus scheduled net (P, Q) injections: generation minus load."""
    n = len(case.buses)
    index = case.bus_index()
    p = np.zeros(n)
    q = np.zeros(n)
    for i, bus in enumerate(case.buses):
        p[i] -= bus.p_load
        q[i] -= bus.q_load
    for gen in case.generators:
        p[index[gen.bus]] += gen.p_gen
    return p, q


def _complex_injections(ybus: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v * np.conj(ybus @ v)


def newton_jacobian(ybus: np.ndarray, v: np.ndarray, pvpq: list[int], pq: list[int]) -> np.ndarray:
    """Polar power-flow Jacobian d[P_pvpq; Q_pq] / d[theta_pvpq; |V|_pq]."""
    i_bus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(i_bus)
    diag_vnorm = np.diag(v / np.abs(v))
    ds_dang = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dmag = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    return np.block(
        [
            [ds_dang[np.ix_(pvpq, pvpq)].real, ds_dmag[np.ix_(pvpq, pq)].real],
            [ds_dang[np.ix_(pq, pvpq)].imag, ds_dmag[np.ix_(pq, pq)].imag],
        ]
    )


def solve_powerflow(case: PowerCase) -> PowerFlowSolution:
    """Solve the AC power flow from a flat start.

    Convergence means every pv/pq active and pq reactive mismatch is <= TOL
    within MAX_ITER Newton iterations; the slack bus absorbs the residual.
    The case is valid by construction, so the only failure is PowerFlowError:
    non-convergence, divergence, or a singular Jacobian iterate.
    """
    ybus = build_ybus(case)
    slack, pv, pq = bus_partition(case)
    pvpq = pv + pq
    p_spec, q_spec = scheduled_injections(case)

    v_mag = np.array([bus.v_set if bus.v_set is not None else 1.0 for bus in case.buses])
    v_ang = np.zeros(len(case.buses))

    for iterations in range(MAX_ITER + 1):
        v = v_mag * np.exp(1j * v_ang)
        s = _complex_injections(ybus, v)
        f = np.concatenate([p_spec[pvpq] - s.real[pvpq], q_spec[pq] - s.imag[pq]])
        max_f = float(np.max(np.abs(f))) if f.size else 0.0
        if not np.isfinite(max_f):
            raise PowerFlowError(f"power flow did not converge: diverged after {iterations} iterations")
        if max_f <= TOL:
            return PowerFlowSolution(
                v_mag=v_mag,
                v_ang=v_ang,
                p_inj=s.real.copy(),
                q_inj=s.imag.copy(),
                iterations=iterations,
                max_mismatch=max_f,
            )
        if iterations == MAX_ITER:
            break
        jac = newton_jacobian(ybus, v, pvpq, pq)
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {iterations + 1}") from exc
        n_ang = len(pvpq)
        v_ang[pvpq] += dx[:n_ang]
        v_mag[pq] += dx[n_ang:]
        if np.any(v_mag <= 0):
            raise PowerFlowError(
                f"power flow did not converge: voltage collapsed at iteration {iterations + 1}"
            )
    raise PowerFlowError(f"power flow did not converge within {MAX_ITER} iterations (mismatch {max_f:.3e})")


def mismatch(case: PowerCase, v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """Per-bus power residuals (specified minus computed) at given voltages.

    Returns a 2N vector [dP_1..dP_N, dQ_1..dQ_N] in bus-list order.  Entries
    that are free variables of the flow (P and Q at the slack, Q at pv buses)
    are reported as zero.
    """
    n = len(case.buses)
    v_mag = np.asarray(v_mag, dtype=float)
    v_ang = np.asarray(v_ang, dtype=float)
    if v_mag.shape != (n,) or v_ang.shape != (n,):
        raise ValueError(f"expected vectors of length {n}, got {v_mag.shape} and {v_ang.shape}")
    ybus = build_ybus(case)
    slack, pv, pq = bus_partition(case)
    p_spec, q_spec = scheduled_injections(case)
    s = _complex_injections(ybus, v_mag * np.exp(1j * v_ang))
    dp = p_spec - s.real
    dq = q_spec - s.imag
    dp[slack] = 0.0
    dq[slack] = 0.0
    dq[pv] = 0.0
    return np.concatenate([dp, dq])
