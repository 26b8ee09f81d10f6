"""Seeded synthetic 35-generator reduced model for the plan-synth35 workload.

Built the same way as the acceptance suite's criterion-9 model, from public
gridlink constructors only, so the planner sees nothing but a SystemModel.
The same seed gives the same model.
"""

from __future__ import annotations

import numpy as np

import gridlink

N_GENERATORS = 35


def synthetic_model(seed: int) -> gridlink.SystemModel:
    rng = np.random.default_rng(seed)
    n = N_GENERATORS
    omega_s = 2.0 * np.pi * 60.0
    b_off = rng.uniform(0.5, 4.0, (n, n))
    b_off = (b_off + b_off.T) / 2.0
    g_off = rng.uniform(-0.4, -0.02, (n, n))
    g_off = (g_off + g_off.T) / 2.0
    y = -(g_off + 1j * b_off)
    np.fill_diagonal(y, 0.0)
    y += np.diag(-y.sum(axis=1) + rng.uniform(0.05, 0.5, n) + 1j * rng.uniform(-2.0, -0.5, n))
    e_mag = rng.uniform(0.95, 1.15, n)
    c, d = gridlink.coupling_coefficients(y, e_mag)
    net = gridlink.ReducedNetwork(y_g=y, e_mag=e_mag, c=c, d=d)
    delta_s = rng.uniform(-0.3, 0.3, n)
    op = gridlink.OperatingPoint(
        delta_s=delta_s, omega_s=omega_s, p_m_const=gridlink.electrical_power(delta_s, net)
    )
    m = 2.0 * rng.uniform(20.0, 60.0, n) / omega_s
    return gridlink.SystemModel(net=net, op=op, m=m, d=np.full(n, 0.05))
