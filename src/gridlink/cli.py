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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gridlink
from gridlink.case import CaseError, parse_case
from gridlink.dynamics import (
    DisturbanceSpec,
    MachineState,
    SimulationBlowUp,
    decay_rate,
    normalize_link,
    simulate,
    uniform_control,
)
from gridlink.linearization import jacobian_blocks, spectral_abscissa
from gridlink.model import SystemModel, build_system
from gridlink.planner import PlannerGuardError, greedy_plan
from gridlink.powerflow import PowerFlowError
from gridlink.reduction import KronReductionError
from gridlink import reports


class InputError(Exception):
    """Bad input file or configuration (exit code 2)."""


@dataclass
class RunConfig:
    subcommand: str
    case_path: str
    output_path: str
    links_path: str | None = None
    gain_h: float = -1.0
    budget: int = 15
    dt: float = 1e-3
    t_max: float = 20.0
    deflate: bool = True
    allow_nonpositive: bool = False
    disturbance: DisturbanceSpec | None = None
    format: str = "table"
    workers: int = 1


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
        try:
            fields[key.strip()] = float(value)
        except ValueError as exc:
            raise InputError(f"perturbation term {part!r}: not a number") from exc
    allowed = {"gen", "ddelta", "domega", "at"} if kind == "state-offset" else {"gen", "dpm", "at"}
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise InputError(f"perturbation fields {unknown} not valid for kind {kind}")
    if "gen" not in fields:
        raise InputError("perturbation requires gen=I")
    gen = int(fields["gen"])
    if gen < 1:
        raise InputError("perturbation generator numbers are 1-based")
    return DisturbanceSpec(
        kind=kind,
        target=gen - 1,
        d_delta=fields.get("ddelta", 0.0),
        d_omega=fields.get("domega", 0.0),
        d_pm=fields.get("dpm", 0.0),
        t_apply=fields.get("at", 0.0),
    )


def read_links_file(path: str, n: int) -> list[tuple[int, int]]:
    """Read a JSON links file {"links": [[i, k], ...]} with 1-based numbers."""
    import json

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"links file {path}: {exc.msg} at line {exc.lineno}") from exc
    if not isinstance(doc, dict) or "links" not in doc or not isinstance(doc["links"], list):
        raise InputError(f"links file {path}: expected an object with a 'links' array")
    links = []
    for entry in doc["links"]:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(v, int) for v in entry)):
            raise InputError(f"links file {path}: each link must be a pair of integers, got {entry!r}")
        i, k = entry
        if not (1 <= i <= n and 1 <= k <= n) or i == k:
            raise InputError(f"links file {path}: link {entry} out of range for {n} generators")
        links.append(normalize_link((i - 1, k - 1)))
    if len(set(links)) != len(links):
        raise InputError(f"links file {path}: duplicate links")
    return sorted(links)


def _case_meta(cfg: RunConfig, text: str) -> dict:
    return {
        "tool": f"gridlink {gridlink.__version__}",
        "subcommand": cfg.subcommand,
        "case": cfg.case_path,
        "case_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def _load(cfg: RunConfig) -> tuple[SystemModel, dict]:
    try:
        text = Path(cfg.case_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read case file {cfg.case_path}: {exc.strerror}") from exc
    case = parse_case(text)
    meta = _case_meta(cfg, text)
    model = build_system(case)
    return model, meta


def _write(cfg: RunConfig, text: str) -> None:
    try:
        Path(cfg.output_path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write output file {cfg.output_path}: {exc.strerror}") from exc


def run_analyze(cfg: RunConfig) -> int:
    model, meta = _load(cfg)
    links = read_links_file(cfg.links_path, model.n) if cfg.links_path else []
    ctl = uniform_control(links, cfg.gain_h, model.op.delta_s)
    report = spectral_abscissa(jacobian_blocks(model, ctl).assembled, deflate=cfg.deflate)
    meta.update({"gain": cfg.gain_h, "links": len(links), "deflate": str(cfg.deflate).lower()})
    if cfg.format == "structured":
        _write(cfg, reports.render_json(reports.spectrum_document(report, meta)))
    else:
        _write(cfg, reports.spectrum_table(report, meta))
    return 0


def run_plan(cfg: RunConfig) -> int:
    model, meta = _load(cfg)
    preinstalled = read_links_file(cfg.links_path, model.n) if cfg.links_path else []
    result = greedy_plan(
        model,
        budget=cfg.budget,
        gain_h=cfg.gain_h,
        allow_nonpositive=cfg.allow_nonpositive,
        deflate=cfg.deflate,
        workers=cfg.workers,
        preinstalled=preinstalled,
    )
    meta.update(
        {
            "budget": cfg.budget,
            "gain": cfg.gain_h,
            "deflate": str(cfg.deflate).lower(),
            "allow_nonpositive": str(cfg.allow_nonpositive).lower(),
            "preinstalled": len(preinstalled),
            "workers": cfg.workers,
        }
    )
    if cfg.format == "structured":
        _write(cfg, reports.render_json(reports.plan_document(result, meta)))
    else:
        _write(cfg, reports.plan_table(result, meta))
    return 0


def run_simulate(cfg: RunConfig) -> int:
    model, meta = _load(cfg)
    links = read_links_file(cfg.links_path, model.n) if cfg.links_path else []
    ctl = uniform_control(links, cfg.gain_h, model.op.delta_s)
    if cfg.disturbance is not None:
        problems = cfg.disturbance.validate(model.n)
        if problems:
            raise InputError("; ".join(problems))
    initial = MachineState(delta=model.op.delta_s.copy(), omega=np.full(model.n, model.op.omega_s))
    traj = simulate(initial, model, ctl, cfg.disturbance, t_max=cfg.t_max, dt=cfg.dt)

    alpha = spectral_abscissa(jacobian_blocks(model, ctl).assembled, deflate=cfg.deflate).alpha_max
    try:
        fitted = decay_rate(traj, model.op, t_start=cfg.t_max / 4.0)
        fitted_text = repr(fitted)
    except ValueError as exc:
        fitted_text = f"unavailable ({exc})"
    meta.update(
        {
            "gain": cfg.gain_h,
            "links": len(links),
            "dt": cfg.dt,
            "t_max": cfg.t_max,
            "disturbance": cfg.disturbance.kind if cfg.disturbance else "none",
        }
    )
    footer = {"fitted_decay_rate": fitted_text, "alpha_max": repr(alpha)}
    if cfg.format == "structured":
        _write(cfg, reports.render_json(reports.trajectory_document(traj, meta, footer)))
    else:
        _write(cfg, reports.trajectory_table(traj, meta, footer))
    return 0


def run_reduce(cfg: RunConfig) -> int:
    model, meta = _load(cfg)
    _write(cfg, reports.render_json(reports.reduction_document(model.net, model.op, meta)))
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
        p.add_argument("--links", default=None, help="JSON file with pre-installed links (1-based pairs)")
        p.add_argument("--gain", type=float, default=-1.0, help="common link gain h (pu power per rad)")
        p.add_argument("--no-deflate", action="store_true", help="keep the structural zero mode in alpha_max")
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand, case_path=args.case, output_path=args.out)
    if not math.isfinite(args.gain):
        raise InputError("gain must be a finite number")
    cfg.links_path = args.links
    cfg.gain_h = args.gain
    cfg.deflate = not args.no_deflate
    cfg.format = args.format
    if args.subcommand == "plan":
        if args.budget < 0:
            raise InputError("budget must be nonnegative")
        if args.workers < 1:
            raise InputError("workers must be at least 1")
        cfg.budget = args.budget
        cfg.allow_nonpositive = args.allow_nonpositive
        cfg.workers = args.workers
    if args.subcommand == "simulate":
        for name in ("dt", "tmax"):
            if not math.isfinite(getattr(args, name)):
                raise InputError(f"{name} must be a finite number")
        if args.dt <= 0 or args.tmax < args.dt:
            raise InputError("require dt > 0 and tmax >= dt")
        cfg.dt = args.dt
        cfg.t_max = args.tmax
        if args.perturb is not None:
            cfg.disturbance = parse_perturb(args.perturb)
    if args.subcommand == "plan" and cfg.gain_h >= 0:
        raise InputError("plan requires a negative gain")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _RUNNERS[cfg.subcommand](cfg)
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


if __name__ == "__main__":
    sys.exit(main())
