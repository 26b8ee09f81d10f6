#!/usr/bin/env python3
"""Cross-check the linear stability index against the nonlinear dynamics.

Plans a few links, perturbs one rotor angle, integrates the controlled swing
equations, and compares the fitted decay rate of the deviation norm with the
predicted alpha_max.  Without --tmax the horizon is max(5, 4 / |alpha_max|) s,
four time constants of the slowest mode, so the fit from tmax / 4 on sees that
mode rather than the faster ones.  Exits as gridlink does, with one line on
stderr for a failure: 2 for a bad argument or a case that cannot be read, 1
for a run that fails, for alpha_max >= 0, or for a mismatch above
MAX_MISMATCH.
"""

import argparse
import math
import sys

import numpy as np

from gridlink.case import CaseError, load_case
from gridlink.dynamics import MAX_STEPS, ControlConfig, MachineState, SimulationBlowUp, decay_rate, simulate
from gridlink.model import build_system
from gridlink.planner import greedy_plan
from gridlink.powerflow import PowerFlowError
from gridlink.reduction import KronReductionError

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
    problem = bad_argument(args)
    if problem:
        print(f"validate_decay: {problem}", file=sys.stderr)
        return 2
    try:
        case = load_case(args.case)
    except (OSError, CaseError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"validate_decay: cannot read case {args.case}: {reason}", file=sys.stderr)
        return 2
    try:
        # Floating-point trouble no step expects is a failed run, as in gridlink.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return validate(case, args)
    except (PowerFlowError, KronReductionError, SimulationBlowUp, ValueError, ArithmeticError) as exc:
        print(f"validate_decay: {exc}", file=sys.stderr)
        return 1


def bad_argument(args) -> str | None:
    """What is wrong with the numeric arguments, or None."""
    for name in ("gain", "ddelta", "dt", "tmax"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            return f"--{name} must be a finite number"
    if args.gain >= 0:
        return "--gain must be negative"
    if args.budget < 0:
        return "--budget must be nonnegative"
    if args.dt <= 0:
        return "--dt must be positive"
    if args.tmax is not None and args.tmax < args.dt:
        return "--tmax must be at least --dt"
    if args.tmax is not None and args.tmax / args.dt > MAX_STEPS:
        return f"--tmax / --dt exceeds {MAX_STEPS} steps"
    return None


def validate(case, args) -> int:
    model = build_system(case)
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
