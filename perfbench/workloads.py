"""The three benchmark workloads: inputs, one op, and the check of its output.

An op runs from the input to the written output document.  ``op()`` raises
OpFailed on a non-zero exit code; ``check()`` raises OpFailed when the output
is wrong and otherwise returns the op's decay-rate error (None for plans).
Every module attribute is looked up at call time, so a traced op sees the
wrappers that tracing.Tracer installs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import gridlink
import gridlink.cli
from gridlink import planner, reports
from synth import synthetic_model

# Criterion 6 of the acceptance suite: fitted decay within 15% of alpha_max.
MAX_DECAY_REL_ERR = 0.15
GAIN = -1.0


class OpFailed(Exception):
    pass


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class _ByteIdentical:
    """Remembers the first output's digest and fails any op that differs."""

    first_digest: str | None = None

    def same_bytes(self, path: Path) -> None:
        digest = _digest(path)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            raise OpFailed("output bytes differ from the first op")


def _run_cli(argv: list[str]) -> None:
    try:
        code = gridlink.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise OpFailed(f"gridlink {argv[0]} exited with code {code}")


def _read_plan_table(path: Path) -> tuple[list[list[int]], float]:
    """(1-based links in install order, final_alpha) from a plan table."""
    links, final_alpha = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# final_alpha: "):
            final_alpha = float(line.split(": ", 1)[1])
        elif line and line[0].isdigit():
            index, gen_i, gen_k = line.split(",")[:3]
            if index != "0":
                links.append([int(gen_i), int(gen_k)])
    if final_alpha is None:
        raise OpFailed("plan table has no final_alpha")
    return links, final_alpha


class PlanNe39(_ByteIdentical):
    """`gridlink plan` on the bundled 39-bus case, budget 15, table format."""

    name = "plan-ne39"
    workers = 1
    root_span = "cli.main"

    def __init__(self, tmp: Path, seed: int, reference: dict):
        self.ref = reference[self.name]
        self.out = tmp / "plan.csv"
        self.argv = ["plan", "--case", str(gridlink.case_path("newengland39")), "--out", str(self.out),
                     "--budget", "15", "--gain", str(GAIN)]

    def op(self) -> None:
        _run_cli(self.argv)

    def check(self) -> None:
        links, final_alpha = _read_plan_table(self.out)
        if links != self.ref["links"]:
            raise OpFailed(f"plan links {links} differ from the reference")
        if _rel(final_alpha, self.ref["final_alpha"]) > 1e-9:
            raise OpFailed(f"final_alpha {final_alpha!r} differs from {self.ref['final_alpha']!r}")
        self.same_bytes(self.out)


class PlanSynth35(_ByteIdentical):
    """greedy_plan on a seeded 35-generator model, budget 3, two workers."""

    name = "plan-synth35"
    workers = 2
    root_span = "op"
    budget = 3

    def __init__(self, tmp: Path, seed: int, reference: dict):
        self.model = synthetic_model(seed)
        self.ref = reference[self.name]["plans"].get(str(seed))
        self.out = tmp / "plan.csv"
        self.meta = {"tool": f"gridlink {gridlink.__version__}", "subcommand": "plan",
                     "case": f"synthetic-35 seed {seed}", "budget": self.budget, "gain": GAIN,
                     "workers": self.workers}
        self.links = None
        self.result = None

    def op(self) -> None:
        self.result = None
        self.result = planner.greedy_plan(self.model, budget=self.budget, gain_h=GAIN,
                                          allow_nonpositive=True, workers=self.workers)
        self.out.write_text(reports.plan_table(self.result, self.meta), encoding="utf-8")

    def check(self) -> None:
        result = self.result
        links = [[i + 1, k + 1] for i, k in result.links]
        if len(links) != self.budget:
            raise OpFailed(f"plan installed {len(links)} of {self.budget} links")
        if self.links is None:
            self.links = links
        elif links != self.links:
            raise OpFailed(f"plan links {links} differ from the first op's {self.links}")
        if self.ref is not None:
            if links != self.ref["links"]:
                raise OpFailed(f"plan links {links} differ from the reference {self.ref['links']}")
            if _rel(result.final_alpha, self.ref["final_alpha"]) > 1e-9:
                raise OpFailed(f"final_alpha {result.final_alpha!r} differs from the reference")
        # The parallel sweep must agree exactly with one serial evaluation.
        serial = gridlink.alpha_for_links(self.model, list(result.links), GAIN)
        if serial != result.final_alpha:
            raise OpFailed(f"final_alpha {result.final_alpha!r} != serial evaluation {serial!r}")
        self.same_bytes(self.out)


class SimulateNe39:
    """`gridlink simulate` on the 39-bus case with the 15-link reference plan."""

    name = "simulate-ne39"
    workers = 1
    root_span = "cli.main"

    def __init__(self, tmp: Path, seed: int, reference: dict):
        self.ref = reference[self.name]
        case = str(gridlink.case_path("newengland39"))
        links_file = tmp / "links.json"
        links_file.write_text(json.dumps({"links": reference["plan-ne39"]["links"]}), encoding="utf-8")
        self.out = tmp / "traj.csv"
        self.argv = ["simulate", "--case", case, "--out", str(self.out), "--links", str(links_file),
                     "--perturb", "gen=1,ddelta=0.05"]
        spectrum = tmp / "spectrum.json"
        _run_cli(["analyze", "--case", case, "--out", str(spectrum), "--links", str(links_file),
                  "--format", "structured"])
        self.analyze_alpha = json.loads(spectrum.read_text(encoding="utf-8"))["alpha_max"]

    def op(self) -> None:
        _run_cli(self.argv)

    def check(self) -> float:
        rows, footer = -1, {}  # -1: the column header line is not a row
        with self.out.open(encoding="utf-8") as lines:
            for line in lines:
                if line.startswith("# "):
                    key, _, value = line[2:].rstrip("\n").partition(": ")
                    footer[key] = value
                else:
                    rows += 1
        if rows != self.ref["rows"]:
            raise OpFailed(f"trajectory has {rows} rows, expected {self.ref['rows']}")
        try:
            alpha = float(footer["alpha_max"])
            fitted = float(footer["fitted_decay_rate"])
        except (KeyError, ValueError) as exc:
            raise OpFailed(f"trajectory footer unreadable: {exc}") from exc
        if alpha != self.analyze_alpha:
            raise OpFailed(f"footer alpha_max {alpha!r} != analyze alpha_max {self.analyze_alpha!r}")
        err = _rel(fitted, alpha)
        if not math.isfinite(err) or err > MAX_DECAY_REL_ERR:
            raise OpFailed(f"decay_rel_err {err:.4g} exceeds {MAX_DECAY_REL_ERR}")
        return err


WORKLOADS = {w.name: w for w in (PlanNe39, PlanSynth35, SimulateNe39)}
