"""Bundled reduced model: network, operating point, and machine constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridlink.case import PowerCase
from gridlink.powerflow import solve_powerflow
from gridlink.reduction import OperatingPoint, ReducedNetwork, reduce_case


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Everything the dynamics, linearization, and planner need.

    Models compare and hash by identity.  linearization caches the
    uncontrolled relative-angle Jacobian per model object on its first
    stability evaluation, so a model's arrays must not be mutated after
    that; dataclasses.replace gives a new model with a fresh cache.
    """

    net: ReducedNetwork
    op: OperatingPoint
    m: np.ndarray  # rotor inertia 2H/omega_s per generator, pu s^2/rad
    d: np.ndarray  # damping per generator, pu power per rad/s

    @property
    def n(self) -> int:
        return self.m.size


def build_system(case: PowerCase) -> SystemModel:
    """Case -> power flow (default tolerance) -> reduction -> SystemModel, m and d in generator-list order."""
    net, op = reduce_case(case, solve_powerflow(case))
    m = np.array([2.0 * gen.inertia_h / case.omega_s for gen in case.generators])
    d = np.array([gen.damping_d for gen in case.generators])
    return SystemModel(net=net, op=op, m=m, d=d)
