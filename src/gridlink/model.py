"""Bundled reduced model: network, operating point, and machine constants."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gridlink.case import PowerCase
from gridlink.powerflow import solve_powerflow
from gridlink.reduction import OperatingPoint, ReducedNetwork, reduce_case


@dataclass(frozen=True)
class SystemModel:
    """Everything the dynamics, linearization, and planner need.

    The relative-angle Jacobian without control is computed on the first
    stability evaluation and cached on the instance, so its arrays must not
    be mutated after that; dataclasses.replace gives a new model with a
    fresh cache.
    """

    net: ReducedNetwork
    op: OperatingPoint
    m: np.ndarray  # rotor inertia 2H/omega_s per generator, pu s^2/rad
    d: np.ndarray  # damping per generator, pu power per rad/s

    @property
    def n(self) -> int:
        return self.m.size

    @cached_property
    def uncontrolled_jacobian(self) -> np.ndarray:
        """linearization.relative_angle_jacobian without links, read-only: the full Jacobian projected."""
        from gridlink.dynamics import ControlConfig  # both modules import this one
        from gridlink.linearization import jacobian

        n = self.n
        full = jacobian(self, ControlConfig())
        keep = np.r_[: n - 1, n : 2 * n]  # drop delta_n; d(delta_i - delta_n)/dt subtracts its row
        j = full[np.ix_(keep, keep)]
        j[: n - 1] -= full[n - 1, keep]
        j.flags.writeable = False
        return j

    def __getstate__(self):
        # Unpickled arrays are writeable, so a copy rebuilds its read-only cache on first use.
        state = dict(self.__dict__)
        state.pop("uncontrolled_jacobian", None)
        return state


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
