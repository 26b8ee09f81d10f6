#!/usr/bin/env python3
"""Cross-check the linear stability index against the nonlinear dynamics.

Plans a few links, perturbs one rotor angle, integrates the controlled swing
equations, and compares the fitted decay rate of the deviation norm with the
predicted alpha_max.  Without --tmax the horizon is max(5, 4 / |alpha_max|) s,
four time constants of the slowest mode, so the fit from tmax / 4 on sees that
mode rather than the faster ones.  Exits 1 with one line on stderr when
alpha_max >= 0 or the mismatch exceeds MAX_MISMATCH.
"""

import argparse
import sys

import numpy as np

from gridlink.case import load_case
from gridlink.dynamics import ControlConfig, MachineState, decay_rate, simulate
from gridlink.model import build_system
from gridlink.planner import greedy_plan

# Relative mismatch allowed between fitted decay rate and alpha_max (acceptance criterion 6).
MAX_MISMATCH = 0.15


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="toy3", help="bundled case name or path")
    parser.add_argument("--budget", type=int, default=1)
    parser.add_argument("--gain", type=float, default=-1.0)
    parser.add_argument("--ddelta", type=float, default=0.01, help="angle offset on generator 1, rad")
    parser.add_argument("--tmax", type=float, default=None, help="horizon, s (default max(5, 4 / |alpha_max|))")
    parser.add_argument("--dt", type=float, default=1e-3)
    args = parser.parse_args(argv)

    model = build_system(load_case(args.case))
    plan = greedy_plan(model, budget=args.budget, gain_h=args.gain, allow_nonpositive=True)
    links = list(plan.links)
    ctl = ControlConfig(links, args.gain)
    alpha = plan.final_alpha
    if alpha >= 0:
        print(f"validate_decay: alpha_max = {alpha:.6e} >= 0, no decay to validate", file=sys.stderr)
        return 1
    tmax = args.tmax if args.tmax is not None else max(5.0, 4.0 / abs(alpha))

    offset = np.zeros(model.n)
    offset[0] = args.ddelta
    initial = MachineState(model.op.delta_s + offset, np.full(model.n, model.op.omega_s))
    traj = simulate(initial, model, ctl, None, t_max=tmax, dt=args.dt)
    fitted = decay_rate(traj, model.op, t_start=tmax / 4.0)
    mismatch = abs(fitted - alpha) / abs(alpha)

    print(f"links installed:   {[(i + 1, k + 1) for i, k in links]}")
    print(f"horizon:           {tmax:.6g} s")
    print(f"alpha_max:         {alpha:.6e}")
    print(f"fitted decay rate: {fitted:.6e}")
    print(f"relative mismatch: {mismatch:.2%}")
    if mismatch > MAX_MISMATCH:
        print(f"validate_decay: mismatch {mismatch:.2%} exceeds {MAX_MISMATCH:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
