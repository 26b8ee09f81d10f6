#!/usr/bin/env python3
"""Cross-check the linear stability index against the nonlinear dynamics.

Plans a few links, perturbs one rotor angle, integrates the controlled swing
equations, and compares the fitted decay rate of the deviation norm with the
predicted alpha_max.  Without --tmax the horizon is max(5, 4 / |alpha_max|) s,
four time constants of the slowest mode, so the fit from tmax / 4 on sees that
mode rather than the faster ones.  Exits as gridlink does, through its
run_guarded, with one line on stderr for a failure or a warning: 2 for a bad
argument or a case that cannot be read, 1 for a run that fails, for
alpha_max >= 0, or for a mismatch above MAX_MISMATCH.
"""

import argparse
import math
import sys

import numpy as np

from gridlink.case import load_case
from gridlink.cli import InputError, run_guarded
from gridlink.dynamics import MAX_STEPS, ControlConfig, MachineState, decay_rate, simulate
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
    return run_guarded("validate_decay", lambda: validate(args))


def check_arguments(args) -> None:
    """Raise InputError for a bad numeric argument."""
    for name in ("gain", "ddelta", "dt", "tmax"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise InputError(f"--{name} must be a finite number")
    if args.gain >= 0:
        raise InputError("--gain must be negative")
    if args.budget < 0:
        raise InputError("--budget must be nonnegative")
    if args.dt <= 0:
        raise InputError("--dt must be positive")
    if args.tmax is not None and args.tmax < args.dt:
        raise InputError("--tmax must be at least --dt")
    if args.tmax is not None and args.tmax / args.dt > MAX_STEPS:
        raise InputError(f"--tmax / --dt exceeds {MAX_STEPS} steps")


def validate(args) -> int:
    check_arguments(args)
    try:
        case = load_case(args.case)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read case {args.case}: {getattr(exc, 'strerror', None) or exc}") from exc
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
