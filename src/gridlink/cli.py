"""Command-line front end: case -> power flow -> reduction -> analysis.

Subcommands: analyze (spectrum report), plan (greedy link planning), simulate
(nonlinear swing trajectory), validate (planned alpha_max against the fitted
decay rate), reduce (reduced network + operating point).  Exit codes: 0
success, 1 computation failure, 2 input or configuration failure; failures
print a single-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import reprlib
import stat
import sys
import warnings
from collections.abc import Callable, Iterator
from itertools import chain
from pathlib import Path
from typing import IO

import numpy as np

import gridlink
from gridlink.case import InputError, parse_case
from gridlink.dynamics import (
    ROWS_PER_BLOCK,
    ControlConfig,
    DecayFit,
    DisturbanceSpec,
    SimulationBlowUp,
    equilibrium_state,
    horizon_steps,
    integrate,
    row_blocks,
    streamed_decay_rate,
)
from gridlink.linearization import alpha_for_links, spectral_abscissa
from gridlink.model import SystemModel, build_system
from gridlink.planner import PlanResult, check_plan_args, fork, greedy_plan
from gridlink.powerflow import PowerFlowError
from gridlink.reduction import KronReductionError
from gridlink import reports

# Relative mismatch validate allows between the fitted decay rate and alpha_max (acceptance criterion 6).
MAX_MISMATCH = 0.15
MIN_HORIZON = 5.0  # validate's shortest default horizon, s


class WriterFailed(Exception):
    """The forked trajectory writer ended other than by an OSError (exit code 1)."""


def _plain_number(kind: type[int] | type[float], text: str) -> int | float:
    """kind(text) of a plain ASCII number: "_" separators, other scripts' digits or padding are a ValueError."""
    if "_" in text or not text.isascii() or text != text.strip():
        raise ValueError("not a plain number")
    return kind(text)


# What argparse takes for a negative number, a value and not an option, in place of its -\d+ and -\d*\.\d+: any
# float number(float) reads (-1e-3, -1., -inf), or other scripts' digits, which it refuses.  No flag looks like one.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?\Z|-(inf|infinity|nan)\Z", re.IGNORECASE)


def number(kind: type[int] | type[float]) -> Callable[[str], int | float]:
    """The argparse type of an int or float flag: argparse's own check, with a bad value echoed through reprlib.repr."""

    def convert(text: str) -> int | float:
        try:
            return _plain_number(kind, text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {reprlib.repr(text)}") from None

    return convert


# The --perturb value keys and the DisturbanceSpec fields they set; gen=I, 1-based, sets the target.
PERTURB_KEYS = {"ddelta": "d_delta", "domega": "d_omega", "dpm": "d_pm", "at": "t_apply"}


def parse_perturb(spec: str) -> DisturbanceSpec:
    """Parse '--perturb [pm-step] gen=I[,ddelta=X][,domega=Y][,dpm=Z][,at=T]' into one DisturbanceSpec.

    The terms combine, an omitted one is zero, and the prefix 'pm-step', a word of its own, sets nothing.
    """
    fields: dict[str, float] = {}
    terms = spec.strip()
    if terms.startswith("pm-step") and not terms[7:8].strip():  # the end of the spec or whitespace follows
        terms = terms[7:]
    for part in terms.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"malformed perturbation term {reprlib.repr(part)}; expected key=value")
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()  # whitespace may surround a term's key and value
        if key in fields:
            raise InputError(f"perturbation field {reprlib.repr(key)} given more than once")
        # No case has 10**20 generators, and int() refuses more than 4300 digits; the message abridges them.
        if key == "gen" and len(digits := value.lstrip("+-").lstrip("0")) > 20 and digits.isdecimal():
            raise InputError(f"perturbation generator {reprlib.repr(value)} out of range")
        try:
            fields[key] = _plain_number(int if key == "gen" else float, value)
        except ValueError as exc:
            problem = "an integer" if key == "gen" else "a number"
            raise InputError(f"perturbation term {reprlib.repr(part)}: not {problem}") from exc
        if key != "gen" and not math.isfinite(fields[key]):  # gen is an int: its range is checked below
            raise InputError(f"perturbation term {reprlib.repr(part)}: must be a finite number")
    if unknown := sorted(set(fields) - {"gen", *PERTURB_KEYS}):
        keys = ", ".join(["gen", *PERTURB_KEYS])
        raise InputError(f"perturbation fields {reprlib.repr(unknown)} not valid; the keys are {keys}")
    if "gen" not in fields:
        raise InputError("perturbation requires gen=I")
    if fields["gen"] < 1:
        raise InputError("perturbation generator numbers are 1-based")
    return DisturbanceSpec(fields.pop("gen") - 1, **{PERTURB_KEYS[key]: value for key, value in fields.items()})


@contextlib.contextmanager
def reading(what: str, path: str) -> Iterator[None]:
    """Raise a failure to read the input file `path` (as UTF-8 text) inside the block as one InputError."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from exc


def read_links_file(path: str, n: int) -> tuple[tuple[int, int], ...]:
    """Read a JSON links file {"links": [[i, k], ...]} of 1-based pairs into ControlConfig's 0-based links."""
    with reading("links file", path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("links"), list)):
            raise ValueError("expected an object with a 'links' array")
        if unknown := sorted(set(doc) - {"links"}):
            raise ValueError(f"unknown field(s) {reprlib.repr(unknown)[1:-1]}")  # as the case reader names them
        links = []
        for entry in doc["links"]:
            if not (isinstance(entry, list) and len(entry) == 2 and all(type(v) is int for v in entry)):
                raise ValueError(f"each link must be a pair of integers, got {reprlib.repr(entry)}")
            i, k = entry
            if i == k or not (1 <= i <= n and 1 <= k <= n):
                problem = "joins a generator to itself" if i == k else f"out of range for {n} generators"
                raise ValueError(f"link {reprlib.repr(entry)} {problem}")  # a long number abridged
            links.append((i - 1, k - 1))
        return ControlConfig(links).links  # an InputError, so a ValueError, for a pair given twice
    except json.JSONDecodeError as exc:
        raise InputError(f"links file {path}: {exc.msg} at line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:  # also an integer of too many digits, or nesting too deep
        raise InputError(f"links file {path}: {exc}") from exc


def _load(args: argparse.Namespace) -> tuple[SystemModel, dict, tuple[tuple[int, int], ...]]:
    """The case's model, the provenance meta and the --links file's links (() without one)."""
    with reading("case file", args.case):
        text = Path(args.case).read_text(encoding="utf-8")
    case = parse_case(text)
    meta = {
        "tool": f"gridlink {gridlink.__version__}",
        "subcommand": args.subcommand,
        "case": args.case,
        "case_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
    model = build_system(case)
    return model, meta, read_links_file(args.links, model.n) if getattr(args, "links", None) else ()


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[IO[str]]:
    """--out, open for writing; failing to open or write it is an InputError.

    If the block raises, the partial file is removed, so a failed run leaves
    no output file (a path that is not a regular file, /dev/null say, is only
    closed), and the exception propagates.
    """
    try:
        out = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write output file {args.out}: {exc.strerror}") from exc
    try:
        with out:
            yield out
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(args.out).st_mode):
                os.remove(args.out)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write output file {args.out}: {exc.strerror}") from exc
        raise


def _write(args: argparse.Namespace, text: str) -> None:
    """Write a document rendered in one piece to --out."""
    with _output(args) as out:
        out.write(text)


def run_analyze(args: argparse.Namespace) -> int:
    model, meta, links = _load(args)
    ctl = ControlConfig(links, args.gain)
    report = spectral_abscissa(model, ctl)
    meta.update({"gain": args.gain, "links": len(links)})
    if args.format == "structured":
        _write(args, reports.render_json(reports.spectrum_document(report, meta)))
    else:
        _write(args, reports.spectrum_table(report, meta))
    return 0


def _write_plan(args: argparse.Namespace, result: PlanResult, meta: dict) -> None:
    """Write the plan document, in --format, to --out."""
    if args.format == "structured":
        _write(args, reports.render_json(reports.plan_document(result, meta)))
    else:
        _write(args, reports.plan_table(result, meta))


def run_plan(args: argparse.Namespace) -> int:
    model, meta, preinstalled = _load(args)
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
    _write_plan(args, result, meta)
    return 0


class _TrajectoryWriter(contextlib.AbstractContextManager):
    """Writes a trajectory document of count rows, dt apart, to out as its blocks are integrated:
    write(out, blocks, dt, meta) is reports.write_table or write_document, over the (rows, block) pairs that
    write_blocks is given.  count decides whether to fork and how many rows the child reads.

    With more than one block, the first block starts a child by planner.fork that runs write into the
    inherited out, over blocks it reads from a pipe: the parent writes each block's bytes there as it comes
    and keeps none of them.  A child that reads the end of the pipe before a whole block ends with no partial
    row written.  Its exit status is the errno of a failed write, or 255 if it failed otherwise.  Otherwise
    write runs here, over the blocks as they come; so it does, with the same bytes and no message, where no
    process can be started (no os.fork, or a process or open-file limit).
    """

    def __init__(self, out: IO[str], write: Callable[..., None], count: int, dt: float, meta: dict):
        self.out, self.write, self.count, self.dt, self.meta = out, write, count, dt, meta
        self.pid: int | None = None  # the forked writer, until it is reaped
        self.pipe = -1  # the parent's end of the pipe

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:  # the run failed: the child reads the end of the pipe and exits
            os.close(self.pipe)
            os.waitpid(self.pid, 0)

    def write_blocks(self, blocks: Iterator[tuple[slice, np.ndarray]]) -> None:
        """Write the rows of blocks, which yields (rows, block) for consecutive slices of range(count)."""
        if self.count <= ROWS_PER_BLOCK:
            self.write(self.out, blocks, self.dt, self.meta)
            return
        for rows, block in blocks:
            if self.pid is None and not self._fork(block.shape[1]):  # no process: this block on is written here
                self.write(self.out, chain([(rows, block)], blocks), self.dt, self.meta)
                return
            data = memoryview(block).cast("B")
            try:
                while data:
                    data = data[os.write(self.pipe, data) :]
            except BrokenPipeError:
                self._reap()  # the child failed first: raise its error, not this one

    def _fork(self, width: int) -> bool:
        self.out.flush()
        try:
            received, self.pipe = os.pipe()
        except OSError:
            return False
        self.pid = fork(lambda: self._write_received(received, width))
        os.close(received)
        if self.pid is None:
            os.close(self.pipe)
        return self.pid is not None

    def _write_received(self, received: int, width: int) -> int:
        """The child: write the blocks read from the pipe; 0, or the errno of a failed write."""
        os.close(self.pipe)
        with open(received, "rb") as pipe:
            try:
                self.write(self.out, self._received(pipe, width), self.dt, self.meta)
                self.out.flush()
            except OSError as exc:
                return exc.errno or 255
        return 0

    def _received(self, pipe: IO[bytes], width: int) -> Iterator[tuple[slice, np.ndarray]]:
        """The child's blocks: each read whole from the pipe into one reused buffer of width columns."""
        buffer = np.empty((ROWS_PER_BLOCK, width))
        for rows in row_blocks(self.count):
            block = buffer[: rows.stop - rows.start]
            if pipe.readinto(block) < block.nbytes:
                raise EOFError("the run ended before every row was final")
            yield rows, block

    def _reap(self) -> None:
        """Close the pipe and wait for the child; raise the OSError it ended with, or WriterFailed."""
        os.close(self.pipe)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise WriterFailed(f"trajectory writer killed by signal {-code}")
        if code == 255:  # planner.fork's status for a child that raised
            raise WriterFailed(f"trajectory writer failed with exit status {code}")
        if code:
            raise OSError(code, os.strerror(code))

    def finish(self, footer: str) -> None:
        """Wait for a forked writer to write every row, then write the footer."""
        if self.pid is not None:
            self._reap()
        self.out.write(footer)


def run_simulate(args: argparse.Namespace) -> int:
    """Integrate, fit the decay rate and write the trajectory document to --out.

    The arguments are checked, and --out is opened, before the integration,
    so a bad one fails without integrating.  Each block of rows passes
    through the decay fit (DecayFit.feed) to the writer, which renders it as
    it is integrated (see _TrajectoryWriter); no process holds the whole
    trajectory, and this one keeps no array that grows with the rows.  The
    footer is written once the fit is done.  A failed run, a blow-up say,
    leaves no output file.
    """
    model, meta, links = _load(args)
    ctl = ControlConfig(links, args.gain)
    disturbance = args.perturb  # parse_perturb has checked all but its generator's range
    # checked here, not left to integrate, so that the message names the 1-based --perturb generator
    if disturbance is not None and disturbance.target >= model.n:
        raise InputError(f"perturbation generator {disturbance.target + 1} out of range for {model.n} generators")
    meta.update(
        {
            "gain": args.gain,
            "links": len(links),
            "dt": args.dt,
            "t_max": args.tmax,
            "disturbance": "none" if disturbance is None
            else "mechanical-step" if disturbance.d_pm != 0.0 else "state-offset",
        }
    )
    if args.format == "structured":
        write, footer_text = reports.write_document, reports.document_footer
    else:
        write, footer_text = reports.write_table, reports.table_footer
    blocks = integrate(equilibrium_state(model), model, ctl, disturbance, t_max=args.tmax, dt=args.dt)
    count = horizon_steps(args.tmax, args.dt) + 1
    fit = DecayFit(t_start=args.tmax / 4.0)
    with _output(args) as out, _TrajectoryWriter(out, write, count, args.dt, meta) as writer:
        writer.write_blocks(fit.feed(blocks, model.op, args.dt))
        alpha = alpha_for_links(model, ctl.links, ctl.gain)
        try:  # a norm that overflowed is raised here, not caught
            fitted_text = repr(fit.rate())
        except ValueError as exc:
            fitted_text = f"unavailable ({exc})"
        writer.finish(footer_text({"fitted_decay_rate": fitted_text, "alpha_max": repr(alpha)}))
    return 0


def run_validate(args: argparse.Namespace) -> int:
    """Plan, kick generator 1 by --ddelta, integrate, and gate the fitted decay rate against alpha_max.

    Each block is fitted as it is integrated and then dropped (streamed_decay_rate, simulate's fit), so
    no process holds the trajectory.  Without --tmax the horizon is max(MIN_HORIZON, 4 / |alpha_max|) s,
    four time constants of the slowest mode, so the fit from tmax / 4 on sees that mode rather than the
    faster ones.  The plan runs with allow_nonpositive, and the simulated control is the --links links plus
    the planned ones.  alpha_max >= 0 and a mismatch above MAX_MISMATCH are computation errors; on success
    the plan document is written, its meta holding the run and the fit.
    """
    model, meta, preinstalled = _load(args)
    result = greedy_plan(model, args.budget, args.gain, allow_nonpositive=True, preinstalled=preinstalled)
    alpha = result.final_alpha
    if alpha >= 0:
        raise ValueError(f"alpha_max = {alpha:.6e} >= 0, no decay to validate")
    tmax = args.tmax if args.tmax is not None else max(MIN_HORIZON, 4.0 / abs(alpha))
    ctl = ControlConfig(preinstalled + result.links, args.gain)
    try:  # of integrate's rules, only the horizon's can fail here, and check_args has checked a given --tmax
        blocks = integrate(equilibrium_state(model), model, ctl, DisturbanceSpec(0, args.ddelta), tmax, args.dt)
    except InputError as exc:  # not the user's flag: the horizon the plan gives
        raise ValueError(f"derived horizon {tmax:.6g} s: {exc}; --tmax sets the horizon") from None
    fitted = streamed_decay_rate(blocks, model.op, args.dt, t_start=tmax / 4.0)
    mismatch = abs(fitted - alpha) / abs(alpha)
    if mismatch > MAX_MISMATCH:
        raise ValueError(f"mismatch {mismatch:.2%} exceeds {MAX_MISMATCH:.0%}")
    meta.update(budget=args.budget, gain=args.gain, preinstalled=len(preinstalled), ddelta=args.ddelta, dt=args.dt,
                t_max=tmax, fitted_decay_rate=repr(fitted), mismatch=repr(mismatch))
    _write_plan(args, result, meta)
    return 0


def run_reduce(args: argparse.Namespace) -> int:
    model, meta, _ = _load(args)
    _write(args, reports.render_json(reports.reduction_document(model.net, model.op, meta)))
    return 0


_RUNNERS = {
    "analyze": run_analyze,
    "plan": run_plan,
    "simulate": run_simulate,
    "validate": run_validate,
    "reduce": run_reduce,
}


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
        "validate": "plan links, then check alpha_max against the decay rate of a kicked simulation",
        "reduce": "emit the Kron-reduced network and operating point",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER  # so that --gain -1e-3 reads the number
        p.add_argument("--case", required=True, help="case document path")
        p.add_argument("--out", required=True, help="output document path")
        if name == "reduce":
            continue
        p.add_argument("--links", default=None, help="JSON file with pre-installed links (1-based pairs)")
        p.add_argument("--gain", type=number(float), default=-1.0, help="common link gain h (pu power per rad)")
        p.add_argument("--format", choices=("table", "structured"), default="table")
        if name in ("plan", "validate"):
            p.add_argument("--budget", type=number(int), default=15, help="number of links to install")
        if name == "plan":
            p.add_argument("--allow-nonpositive", action="store_true", help="keep installing when no link helps")
            p.add_argument("--workers", type=number(int), default=1, help="worker processes for the candidate sweep")
        if name in ("simulate", "validate"):
            p.add_argument("--dt", type=number(float), default=1e-3, help="integration step, seconds")
        if name == "validate":
            p.add_argument("--tmax", type=number(float), default=None,
                           help="horizon, seconds (default max(5, 4 / |alpha_max|))")
            p.add_argument("--ddelta", type=number(float), default=0.01, help="angle kick on generator 1, rad")
        if name == "simulate":
            p.add_argument("--tmax", type=number(float), default=20.0, help="horizon, seconds")
            p.add_argument(
                "--perturb",
                default=None,
                help="'[pm-step] gen=I[,ddelta=X][,domega=Y][,dpm=Z][,at=T]', terms combined (1-based generators)",
            )
    return parser


def check_args(args: argparse.Namespace) -> None:
    """Reject bad flag values before any model work; replaces --perturb by its DisturbanceSpec."""
    if args.subcommand == "plan":
        check_plan_args(args.budget, args.gain, args.workers)
    elif args.subcommand == "validate":
        if not math.isfinite(args.ddelta):
            raise InputError("--ddelta must be a finite number")
        check_plan_args(args.budget, args.gain)
        # a default horizon is at least max(MIN_HORIZON, dt); run_validate checks the one the plan gives
        horizon_steps(max(MIN_HORIZON, args.dt) if args.tmax is None else args.tmax, args.dt)
    elif args.subcommand in ("analyze", "simulate") and not math.isfinite(args.gain):
        raise InputError("gain must be a finite number")
    if args.subcommand == "simulate":
        steps = horizon_steps(args.tmax, args.dt)
        if args.perturb is not None:
            args.perturb = parse_perturb(args.perturb)
            args.perturb.apply_index(args.dt, steps)


def run_guarded(run: Callable[[], int]) -> int:
    """run()'s exit code, or 2 for an InputError and 1 for a failed computation, each with one stderr line.

    Floating-point trouble no step expects (an extreme case value) and a crashed trajectory writer are
    computation errors, and a library warning (a clamped budget) prints as one `gridlink: warning: ...` line.
    """
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_, line=None: f"gridlink: warning: {message}\n"
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return run()
    except InputError as exc:
        print(f"gridlink: input error: {exc}", file=sys.stderr)
        return 2
    except (PowerFlowError, KronReductionError, SimulationBlowUp, WriterFailed, ValueError, ArithmeticError) as exc:
        print(f"gridlink: computation error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def run() -> int:
        check_args(args)
        return _RUNNERS[args.subcommand](args)

    return run_guarded(run)


if __name__ == "__main__":
    sys.exit(main())
