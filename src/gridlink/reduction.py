"""Kron reduction to generator internal nodes.

Each generator becomes a constant EMF behind its transient reactance, every
load becomes a constant shunt admittance at the solved voltage, and all
terminal buses are eliminated by Schur complement.  What remains is the n x n
generator-to-generator admittance matrix together with the equilibrium rotor
angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridlink.case import PowerCase, build_ybus
from gridlink.powerflow import PowerFlowSolution


class KronReductionError(RuntimeError):
    """The eliminated block is singular (isolated or degenerate subnetwork)."""


@dataclass(frozen=True)
class ReducedNetwork:
    """Generator-to-generator network after Kron reduction.

    c[i, k] = e_mag[i] * e_mag[k] * Im(y_g[i, k]) and
    d[i, k] = e_mag[i] * e_mag[k] * Re(y_g[i, k]) are the sine/cosine coupling
    coefficients of the electrical power, in pu.
    """

    y_g: np.ndarray  # (n, n) complex admittance
    e_mag: np.ndarray  # (n,) internal EMF magnitudes
    c: np.ndarray  # (n, n) real
    d: np.ndarray  # (n, n) real

    @property
    def n(self) -> int:
        return self.e_mag.size


@dataclass(frozen=True)
class OperatingPoint:
    delta_s: np.ndarray  # equilibrium rotor angles, rad
    omega_s: float  # synchronous speed, rad/s
    p_m_const: np.ndarray  # constant mechanical powers, pu


def _internal_emfs(case: PowerCase, pf: PowerFlowSolution) -> np.ndarray:
    """Complex internal EMF E = V + j*xd' * I for every generator record.

    Generator terminal power is the realized generation at the bus
    (net injection plus local load); buses hosting several generators split
    it in proportion to scheduled output.
    """
    index = case.bus_index()
    p_sched_at_bus: dict[int, float] = {}
    for gen in case.generators:
        p_sched_at_bus[gen.bus] = p_sched_at_bus.get(gen.bus, 0.0) + gen.p_gen

    emfs = np.zeros(len(case.generators), dtype=complex)
    for g, gen in enumerate(case.generators):
        b = index[gen.bus]
        if pf.v_mag[b] <= 0 or not np.isfinite(pf.v_mag[b]):
            raise ValueError(f"generator at bus {gen.bus}: zero or invalid terminal voltage")
        bus = case.buses[b]
        s_gen_bus = complex(pf.p_inj[b] + bus.p_load, pf.q_inj[b] + bus.q_load)
        total = p_sched_at_bus[gen.bus]
        share = gen.p_gen / total if total != 0.0 else 1.0 / sum(1 for g2 in case.generators if g2.bus == gen.bus)
        s_gen = s_gen_bus * share
        v = pf.v_mag[b] * np.exp(1j * pf.v_ang[b])
        current = np.conj(s_gen / v)
        emfs[g] = v + 1j * gen.xd_prime * current
    return emfs


def augment_internal_nodes(
    case: PowerCase, pf: PowerFlowSolution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Admittance matrix over the N terminal buses plus n internal nodes.

    Loads are converted to shunts y_L = (p - jq) / v_mag^2, and each internal
    node couples to its terminal bus through 1/(j*xd').  Returns
    (augmented matrix, e_mag, delta_s); internal nodes occupy indices
    N .. N+n-1 in generator-list order.
    """
    index = case.bus_index()
    n_bus = len(case.buses)
    n_gen = len(case.generators)
    emfs = _internal_emfs(case, pf)

    aug = np.zeros((n_bus + n_gen, n_bus + n_gen), dtype=complex)
    aug[:n_bus, :n_bus] = build_ybus(case)
    for i, bus in enumerate(case.buses):
        if bus.p_load != 0.0 or bus.q_load != 0.0:
            aug[i, i] += complex(bus.p_load, -bus.q_load) / pf.v_mag[i] ** 2
    for g, gen in enumerate(case.generators):
        t = index[gen.bus]
        k = n_bus + g
        y_int = 1.0 / complex(0.0, gen.xd_prime)
        aug[t, t] += y_int
        aug[k, k] += y_int
        aug[t, k] -= y_int
        aug[k, t] -= y_int
    return aug, np.abs(emfs), np.angle(emfs)


def kron_reduce(y: np.ndarray, retained: list[int] | np.ndarray) -> np.ndarray:
    """Schur-complement elimination of every node not in ``retained``.

    Y_rr - Y_re Y_ee^{-1} Y_er; terminal behavior at the retained nodes is
    preserved exactly.  Raises KronReductionError if the eliminated block is
    singular.
    """
    n = y.shape[0]
    retained = np.asarray(sorted(retained), dtype=int)
    eliminated = np.delete(np.arange(n), retained)
    if eliminated.size == 0:
        return y.copy()
    y_rr = y[np.ix_(retained, retained)]
    y_re = y[np.ix_(retained, eliminated)]
    y_er = y[np.ix_(eliminated, retained)]
    y_ee = y[np.ix_(eliminated, eliminated)]
    try:
        solved = np.linalg.solve(y_ee, y_er)
    except np.linalg.LinAlgError as exc:
        raise KronReductionError("eliminated block is singular") from exc
    if not np.all(np.isfinite(solved)):
        raise KronReductionError("eliminated block is numerically singular")
    return y_rr - y_re @ solved


def coupling_coefficients(y_g: np.ndarray, e_mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, d) with c = |E_i||E_k| Im(y_g), d = |E_i||E_k| Re(y_g), all entries."""
    e_mag = np.asarray(e_mag, dtype=float)
    if y_g.shape != (e_mag.size, e_mag.size):
        raise ValueError(f"shape mismatch: y_g {y_g.shape} vs e_mag {e_mag.shape}")
    outer = np.outer(e_mag, e_mag)
    return outer * y_g.imag, outer * y_g.real


def equilibrium(delta_s: np.ndarray, omega_s: float, net: ReducedNetwork) -> OperatingPoint:
    """Operating point with constant mechanical power balancing electrical power.

    p_m_const is set to the reduced model's electrical power at delta_s, so
    (delta_s, omega_s) is a fixed point of the swing dynamics up to rounding
    (swing_rhs there is of order 1e-14 on ne39), with zero control offset.
    """
    from gridlink.dynamics import electrical_power

    return OperatingPoint(delta_s=delta_s, omega_s=omega_s, p_m_const=electrical_power(delta_s, net))


def reduce_case(case: PowerCase, pf: PowerFlowSolution) -> tuple[ReducedNetwork, OperatingPoint]:
    """Full reduction pipeline: augment, eliminate terminal buses, couple, balance."""
    aug, e_mag, delta_s = augment_internal_nodes(case, pf)
    n_bus = len(case.buses)
    retained = list(range(n_bus, n_bus + len(case.generators)))
    y_g = kron_reduce(aug, retained)
    c, d = coupling_coefficients(y_g, e_mag)
    net = ReducedNetwork(y_g=y_g, e_mag=e_mag, c=c, d=d)
    return net, equilibrium(delta_s, case.omega_s, net)
