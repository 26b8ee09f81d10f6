#!/usr/bin/env python3
"""Cross-check the linear stability index against the nonlinear dynamics.

Plans a few links, perturbs one rotor angle, integrates the controlled swing
equations, and compares the fitted decay rate of the deviation norm with the
predicted alpha_max.  Without --tmax the horizon is max(5, 4 / |alpha_max|) s,
four time constants of the slowest mode, so the fit from tmax / 4 on sees that
mode rather than the faster ones.  Exits as gridlink does, through its
run_guarded, with one line on stderr for a failure or a warning: 2 for a bad
argument (by the library's planning and horizon rules), a case that cannot
be read or one with fewer than two generators (by greedy_plan's own check),
1 for a run that fails, for alpha_max >= 0, or for a mismatch above
MAX_MISMATCH.
"""

import argparse
import math
import sys

import numpy as np

from gridlink.case import InputError, load_case
from gridlink.cli import number, reading, run_guarded
from gridlink.dynamics import ControlConfig, DisturbanceSpec, MachineState, decay_rate, horizon_steps, simulate
from gridlink.model import build_system
from gridlink.planner import check_plan_args, greedy_plan

# Relative mismatch allowed between fitted decay rate and alpha_max (acceptance criterion 6).
MAX_MISMATCH = 0.15
MIN_HORIZON = 5.0  # the shortest default horizon, s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="toy3", help="bundled case name or path")
    parser.add_argument("--budget", type=number(int), default=1)
    parser.add_argument("--gain", type=number(float), default=-1.0)
    parser.add_argument("--ddelta", type=number(float), default=0.01, help="angle offset on generator 1, rad")
    parser.add_argument("--tmax", type=number(float), default=None, help="horizon, s (default max(5, 4 / |alpha_max|))")
    parser.add_argument("--dt", type=number(float), default=1e-3)
    args = parser.parse_args(argv)
    return run_guarded("validate_decay", lambda: validate(args))


def check_arguments(args) -> None:
    """Raise InputError for a bad argument before any model work; a default horizon is at least max(MIN_HORIZON, dt)."""
    if not math.isfinite(args.ddelta):
        raise InputError("--ddelta must be a finite number")
    check_plan_args(args.budget, args.gain)
    horizon_steps(max(MIN_HORIZON, args.dt) if args.tmax is None else args.tmax, args.dt)


def validate(args) -> int:
    check_arguments(args)
    with reading("case", args.case):
        case = load_case(args.case)
    model = build_system(case)
    plan = greedy_plan(model, budget=args.budget, gain_h=args.gain, allow_nonpositive=True)
    ctl = ControlConfig(plan.links, args.gain)
    alpha = plan.final_alpha
    if alpha >= 0:
        print(f"validate_decay: alpha_max = {alpha:.6e} >= 0, no decay to validate", file=sys.stderr)
        return 1
    tmax = args.tmax if args.tmax is not None else max(MIN_HORIZON, 4.0 / abs(alpha))
    horizon_steps(tmax, args.dt)

    initial = MachineState(model.op.delta_s, np.full(model.n, model.op.omega_s))
    kick = DisturbanceSpec(target=0, d_delta=args.ddelta)
    traj = simulate(initial, model, ctl, kick, t_max=tmax, dt=args.dt)
    fitted = decay_rate(traj, model.op, t_start=tmax / 4.0)
    mismatch = abs(fitted - alpha) / abs(alpha)

    print(f"links installed:   {[(i + 1, k + 1) for i, k in plan.links]}")
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
