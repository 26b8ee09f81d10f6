"""Command-line front end: case -> power flow -> reduction -> analysis.

Subcommands: analyze (spectrum report), plan (greedy link planning), simulate
(time-domain validation), reduce (reduced network + operating point).  Exit
codes: 0 success, 1 computation failure, 2 input or configuration failure;
failures print a single-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import warnings
from collections.abc import Iterable
from pathlib import Path

import numpy as np

import gridlink
from gridlink.case import CaseError, parse_case
from gridlink.dynamics import (
    MAX_STEPS,
    ControlConfig,
    DisturbanceSpec,
    MachineState,
    SimulationBlowUp,
    decay_rate,
    normalize_link,
    simulate,
)
from gridlink.linearization import spectral_abscissa
from gridlink.model import SystemModel, build_system
from gridlink.planner import PlannerGuardError, greedy_plan
from gridlink.powerflow import PowerFlowError
from gridlink.reduction import KronReductionError
from gridlink import reports


class InputError(Exception):
    """Bad input file or configuration (exit code 2)."""


def parse_perturb(spec: str) -> DisturbanceSpec:
    """Parse '--perturb gen=I,ddelta=X,domega=Y[,at=T]' or 'pm-step gen=I,dpm=Z,at=T'.

    Generator numbers are 1-based on the command line.
    """
    spec = spec.strip()
    kind = "state-offset"
    if spec.startswith("pm-step"):
        kind = "mechanical-step"
        spec = spec[len("pm-step") :].strip()
    fields: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"malformed perturbation term {part!r}; expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise InputError(f"perturbation field {key!r} given more than once")
        try:
            fields[key] = int(value) if key == "gen" else float(value)
        except ValueError as exc:
            raise InputError(f"perturbation term {part!r}: not {'an integer' if key == 'gen' else 'a number'}") from exc
        if not math.isfinite(fields[key]):
            raise InputError(f"perturbation term {part!r}: must be a finite number")
    allowed = {"gen", "ddelta", "domega", "at"} if kind == "state-offset" else {"gen", "dpm", "at"}
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise InputError(f"perturbation fields {unknown} not valid for kind {kind}")
    if "gen" not in fields:
        raise InputError("perturbation requires gen=I")
    if fields["gen"] < 1:
        raise InputError("perturbation generator numbers are 1-based")
    return DisturbanceSpec(
        kind=kind,
        target=fields["gen"] - 1,
        d_delta=fields.get("ddelta", 0.0),
        d_omega=fields.get("domega", 0.0),
        d_pm=fields.get("dpm", 0.0),
        t_apply=fields.get("at", 0.0),
    )


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file; any failure to read it is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from exc


def read_links_file(path: str, n: int) -> list[tuple[int, int]]:
    """Read a JSON links file {"links": [[i, k], ...]} with 1-based numbers."""
    import json

    try:
        doc = json.loads(_read_text(path, "links file"))
    except json.JSONDecodeError as exc:
        raise InputError(f"links file {path}: {exc.msg} at line {exc.lineno}") from exc
    if not isinstance(doc, dict) or "links" not in doc or not isinstance(doc["links"], list):
        raise InputError(f"links file {path}: expected an object with a 'links' array")
    links = []
    for entry in doc["links"]:
        if not (isinstance(entry, list) and len(entry) == 2 and all(type(v) is int for v in entry)):
            raise InputError(f"links file {path}: each link must be a pair of integers, got {entry!r}")
        i, k = entry
        if not (1 <= i <= n and 1 <= k <= n) or i == k:
            raise InputError(f"links file {path}: link {entry} out of range for {n} generators")
        links.append(normalize_link((i - 1, k - 1)))
    if len(set(links)) != len(links):
        raise InputError(f"links file {path}: duplicate links")
    return sorted(links)


def _load(args: argparse.Namespace) -> tuple[SystemModel, dict]:
    text = _read_text(args.case, "case file")
    case = parse_case(text)
    meta = {
        "tool": f"gridlink {gridlink.__version__}",
        "subcommand": args.subcommand,
        "case": args.case,
        "case_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
    return build_system(case), meta


def _write(args: argparse.Namespace, blocks: Iterable[str]) -> None:
    """Write the text blocks to --out in order through one open file, each as it is rendered.

    A document rendered in one piece is passed as a single block.
    """
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(blocks)
    except OSError as exc:
        raise InputError(f"cannot write output file {args.out}: {exc.strerror}") from exc


def run_analyze(args: argparse.Namespace) -> int:
    model, meta = _load(args)
    links = read_links_file(args.links, model.n) if args.links else []
    ctl = ControlConfig(links, args.gain)
    report = spectral_abscissa(model, ctl)
    meta.update({"gain": args.gain, "links": len(links)})
    if args.format == "structured":
        _write(args, [reports.render_json(reports.spectrum_document(report, meta))])
    else:
        _write(args, [reports.spectrum_table(report, meta)])
    return 0


def run_plan(args: argparse.Namespace) -> int:
    model, meta = _load(args)
    if model.n < 2:
        raise InputError(f"plan needs at least two generators to form links; the case has {model.n}")
    preinstalled = read_links_file(args.links, model.n) if args.links else []
    result = greedy_plan(
        model,
        budget=args.budget,
        gain_h=args.gain,
        allow_nonpositive=args.allow_nonpositive,
        workers=args.workers,
        preinstalled=preinstalled,
    )
    meta.update(
        {
            "budget": args.budget,
            "gain": args.gain,
            "allow_nonpositive": str(args.allow_nonpositive).lower(),
            "preinstalled": len(preinstalled),
            "workers": args.workers,
        }
    )
    if args.format == "structured":
        _write(args, [reports.render_json(reports.plan_document(result, meta))])
    else:
        _write(args, [reports.plan_table(result, meta)])
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    model, meta = _load(args)
    links = read_links_file(args.links, model.n) if args.links else []
    ctl = ControlConfig(links, args.gain)
    disturbance = args.perturb
    if disturbance is not None:
        problems = disturbance.validate(model.n)
        if problems:
            raise InputError("; ".join(problems))
    initial = MachineState(delta=model.op.delta_s.copy(), omega=np.full(model.n, model.op.omega_s))
    traj = simulate(initial, model, ctl, disturbance, t_max=args.tmax, dt=args.dt)

    alpha = spectral_abscissa(model, ctl).alpha_max
    try:
        fitted = decay_rate(traj, model.op, t_start=args.tmax / 4.0)
        fitted_text = repr(fitted)
    except ValueError as exc:
        fitted_text = f"unavailable ({exc})"
    meta.update(
        {
            "gain": args.gain,
            "links": len(links),
            "dt": args.dt,
            "t_max": args.tmax,
            "disturbance": disturbance.kind if disturbance else "none",
        }
    )
    footer = {"fitted_decay_rate": fitted_text, "alpha_max": repr(alpha)}
    if args.format == "structured":
        _write(args, reports.trajectory_document(traj, meta, footer))
    else:
        _write(args, reports.trajectory_table(traj, meta, footer))
    return 0


def run_reduce(args: argparse.Namespace) -> int:
    model, meta = _load(args)
    _write(args, [reports.render_json(reports.reduction_document(model.net, model.op, meta))])
    return 0


_RUNNERS = {"analyze": run_analyze, "plan": run_plan, "simulate": run_simulate, "reduce": run_reduce}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlink",
        description="Steady-state stability analysis and communication-link planning for power grids.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "analyze": "eigenvalue spectrum and alpha_max of the linearized system",
        "plan": "greedily place budgeted communication links to minimize alpha_max",
        "simulate": "integrate the nonlinear swing dynamics and fit the decay rate",
        "reduce": "emit the Kron-reduced network and operating point",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--case", required=True, help="case document path")
        p.add_argument("--out", required=True, help="output document path")
        if name == "reduce":
            continue
        p.add_argument("--links", default=None, help="JSON file with pre-installed links (1-based pairs)")
        p.add_argument("--gain", type=float, default=-1.0, help="common link gain h (pu power per rad)")
        p.add_argument("--format", choices=("table", "structured"), default="table")
        if name == "plan":
            p.add_argument("--budget", type=int, default=15, help="number of links to install")
            p.add_argument("--allow-nonpositive", action="store_true", help="keep installing when no link helps")
            p.add_argument("--workers", type=int, default=1, help="worker processes for the candidate sweep")
        if name == "simulate":
            p.add_argument("--dt", type=float, default=1e-3, help="integration step, seconds")
            p.add_argument("--tmax", type=float, default=20.0, help="horizon, seconds")
            p.add_argument(
                "--perturb",
                default=None,
                help="'gen=I,ddelta=X,domega=Y[,at=T]' or 'pm-step gen=I,dpm=Z,at=T' (1-based generators)",
            )
    return parser


def check_args(args: argparse.Namespace) -> None:
    """Reject bad flag values before any model work; replaces --perturb by its DisturbanceSpec."""
    for name in ("gain", "dt", "tmax"):
        if not math.isfinite(getattr(args, name, 0.0)):
            raise InputError(f"{name} must be a finite number")
    if args.subcommand == "plan":
        if args.budget < 0:
            raise InputError("budget must be nonnegative")
        if args.workers < 1:
            raise InputError("workers must be at least 1")
        if args.gain >= 0:
            raise InputError("plan requires a negative gain")
    if args.subcommand == "simulate":
        if args.dt <= 0 or args.tmax < args.dt:
            raise InputError("require dt > 0 and tmax >= dt")
        if args.tmax / args.dt > MAX_STEPS:
            raise InputError(f"tmax / dt exceeds {MAX_STEPS} steps")
        if args.perturb is not None:
            args.perturb = parse_perturb(args.perturb)


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"gridlink: warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A library warning (a clamped budget) prints as one plain line, like every other diagnostic.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        check_args(args)
        return _RUNNERS[args.subcommand](args)
    except (InputError, CaseError) as exc:
        print(f"gridlink: input error: {exc}", file=sys.stderr)
        return 2
    except (
        PowerFlowError,
        KronReductionError,
        SimulationBlowUp,
        PlannerGuardError,
        np.linalg.LinAlgError,
        ValueError,
    ) as exc:
        print(f"gridlink: computation error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
