"""Bundled reduced model: network, operating point, and machine constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridlink.case import PowerCase
from gridlink.powerflow import solve_powerflow
from gridlink.reduction import OperatingPoint, ReducedNetwork, reduce_case


@dataclass(frozen=True)
class SystemModel:
    """Everything the dynamics, linearization, and planner need."""

    net: ReducedNetwork
    op: OperatingPoint
    m: np.ndarray  # rotor inertia 2H/omega_s per generator, pu s^2/rad
    d: np.ndarray  # damping per generator, pu power per rad/s

    @property
    def n(self) -> int:
        return self.m.size


def machine_constants(case: PowerCase) -> tuple[np.ndarray, np.ndarray]:
    """(m, d) arrays in generator-list order; m = 2*inertia_h/omega_s."""
    omega_s = case.omega_s
    m = np.array([2.0 * gen.inertia_h / omega_s for gen in case.generators])
    d = np.array([gen.damping_d for gen in case.generators])
    return m, d


def build_system(case: PowerCase) -> SystemModel:
    """Case -> power flow (default tolerance) -> reduction -> SystemModel."""
    pf = solve_powerflow(case)
    net, op = reduce_case(case, pf)
    m, d = machine_constants(case)
    return SystemModel(net=net, op=op, m=m, d=d)
