"""gridlink benchmark: one workload as a closed loop with one client in one process.

    python3 perfbench/run.py --workload plan-synth35 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from the repository root; the program is imported from ./src.  Each op
starts when the previous one has finished, and its output is checked after
the clock stops.  BLAS and OpenMP run single-threaded, so the planner's own
``workers`` are the only parallelism.

--trace 0 reports the end-to-end metrics: op_s (median seconds per op),
op_s.tail, setup_s (fresh interpreter to a ready SystemModel, median of
several) and peak_rss_mb.  --trace 1 alternates untraced and traced ops and
reports the per-layer metrics of the traced ones (tracing.py) with the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A record with the environment, the
machine-speed probe and every sample goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("plan-ne39", "plan-synth35", "simulate-ne39")
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Printed for the reader but kept out of the result line: a correct commit
# reads 0 or a constant there, and `failed` already carries the failures.
PRINTED_ONLY = ("fail_ratio", "decay_rel_err")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- environment record and machine-speed probe -------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    package = SRC / "gridlink"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def machine_probe() -> float:
    """Median seconds of eigvals on a fixed 70x70 matrix; diagnostic only."""
    import numpy as np

    a = np.random.default_rng(1410).standard_normal((70, 70))
    times = []
    for _ in range(40):
        start = perf_counter()
        np.linalg.eigvals(a)
        times.append(perf_counter() - start)
    return statistics.median(times)


# --- measurement ---------------------------------------------------------------


class SetupProbe:
    """setup_s samples: spawn to ready SystemModel in fresh interpreters.

    The samples are taken one at a time between the ops of a run, spread over
    its whole length, so that their median sees the same spells of a slow or
    fast host as op_s does rather than the few seconds after the loop.
    """

    def __init__(self, workload_name: str, seed: int):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, str(HERE / "setup_child.py"), workload_name, str(seed)]
        self.samples: list[float] = []
        self.sample()  # the first one writes bytecode caches
        self.samples.clear()

    def sample(self) -> None:
        start = time.monotonic()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        self.samples.append(float(proc.stdout.split()[0]) - start)


class Run:
    """The closed loop of one run: every attempted op, its failures and samples."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.decay_errors: list[float] = []
        self.plain: list[float] = []  # seconds per untraced op
        self.traced: list[float] = []  # seconds per traced op
        self.layers: list[dict] = []  # per-layer numbers per traced op
        self.absent: list[str] = []
        self.last_spans: list[tuple] = []

    def one(self, traced: bool = False) -> None:
        """Run one op, then check its output with the hooks removed."""
        self.attempted += 1
        op = self.workload.op
        if traced:
            self.absent = self.tracer.install()
            op = self.tracer.wrap(self.workload.root_span, op)
        try:
            start = perf_counter()
            op()
            elapsed = perf_counter() - start
        except Exception:  # any failure of the program is a failed op
            self.failures.append(traceback.format_exc(limit=3))
            return
        finally:
            if traced:
                self.tracer.uninstall()
                spans = self.tracer.take()
        try:
            decay_error = self.workload.check()
        except Exception:  # a wrong output is a failed op too
            self.failures.append(traceback.format_exc(limit=3))
            return
        if decay_error is not None:
            self.decay_errors.append(decay_error)
        if traced:
            self.traced.append(elapsed)
            self.layers.append(layer_metrics(spans, self.workload.workers))
            self.last_spans = spans
        else:
            self.plain.append(elapsed)

    def loop(self, seconds: float, setup: SetupProbe | None = None) -> None:
        """Ops back to back for about ``seconds`` after one warm-up op.

        With a tracer, untraced and traced ops alternate; the untraced ones
        are the baseline of the tracing overhead.  An op starts only when a
        cycle as long as the last one would still end within ``seconds``,
        or while no op of a needed kind has succeeded yet (up to twice
        ``seconds``).  With ``setup``, SETUP_REPEATS set-up samples are taken
        between ops at even intervals, and any still missing after the loop.

        The scheduler places the process; it is never pinned to one CPU.
        Moving to the other CPU before every op made plan-ne39 up to 1.6x
        slower than free placement during busy spells on a 2-vCPU VM, and no
        steadier when the host was quiet.
        """
        self.one()  # warm-up: lazy imports and first-touch allocations
        self.plain.clear()
        start = perf_counter()
        setup_due = [start + (k + 0.5) * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS if setup else 0)]
        while True:
            cycle_start = perf_counter()
            if setup_due and cycle_start >= setup_due[0]:
                setup_due.pop(0)
                setup.sample()
            self.one(traced=self.tracer is not None and len(self.plain) > len(self.traced))
            now = perf_counter()
            elapsed, cycle = now - start, now - cycle_start
            enough = bool(self.plain) and (self.tracer is None or bool(self.traced))
            if (enough and elapsed + cycle > seconds) or elapsed > 2 * seconds:
                break
        for _ in setup_due:
            setup.sample()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the op-time tail.

    The highest percentile with at least TAIL_BEYOND ops beyond it, but never
    below p90: with fewer than 100 ops that rule would fall to the median or
    lower, so the nearest-rank p90 is reported instead (the maximum for nine
    ops or fewer).
    """
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, math.ceil(0.9 * n) - 1)
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# --- reporting -----------------------------------------------------------------


def end_to_end_rows(run: Run, setup: list[float]) -> list[tuple]:
    n = len(run.plain)
    tail_value, tail_pct = tail(run.plain)
    failed = len(run.failures)
    rows = [
        ("op_s", statistics.median(run.plain), "s", f"median of n={n} ops"),
        ("op_s.tail", tail_value, "s", f"p{tail_pct:.1f} of n={n} ops"),
        ("setup_s", statistics.median(setup), "s", f"median of n={len(setup)} fresh processes"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "n=1 (this process)"),
        ("fail_ratio", failed / run.attempted, "ratio", f"{failed} of {run.attempted} ops"),
    ]
    if run.decay_errors:
        rows.append(("decay_rel_err", statistics.median(run.decay_errors), "ratio",
                     f"median of n={len(run.decay_errors)} ops"))
    return rows


def layer_rows(run: Run) -> list[tuple]:
    note = f"median of {len(run.traced)} traced ops"
    rows = [(name, statistics.median(op[name] for op in run.layers), unit, note) for name, unit in LAYER_METRICS]
    decay = statistics.median(run.decay_errors) if run.decay_errors else 0.0
    overhead = statistics.median(run.traced) / statistics.median(run.plain)
    return rows + [
        ("dynamics.decay_rel_err", decay, "ratio", f"median of {len(run.decay_errors)} ops"),
        ("trace.overhead", overhead, "ratio", f"traced {statistics.median(run.traced):.6g} s (n={len(run.traced)})"
         f" / untraced {statistics.median(run.plain):.6g} s (n={len(run.plain)})"),
        ("trace.absent_hooks", len(run.absent), "count", ", ".join(run.absent) or "none"),
    ]


def write_spans(path: Path, spans: list[tuple]) -> None:
    """One JSON line per span of one op, times in seconds from the op's start."""
    t0 = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, _ in sorted(spans, key=lambda s: s[3]):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start - t0,
                                 "end": end - t0}) + "\n")


def run_one(args) -> int:
    from workloads import WORKLOADS  # imports gridlink, so only after the BLAS settings

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    env = environment(args.seed)
    probe_start = machine_probe()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp), args.seed, reference)
        run = Run(workload, Tracer() if args.trace else None)
        setup = None if args.trace else SetupProbe(args.workload, args.seed)
        run.loop(args.seconds, setup)
    probe_end = machine_probe()
    failed = len(run.failures)
    for failure in run.failures[:3]:
        print(f"op failed:\n{failure}", file=sys.stderr)
    if not run.plain or (args.trace and not run.traced):
        print(f"run.py: {failed} of {run.attempted} ops failed; nothing left to measure", file=sys.stderr)
        return 1

    rows = layer_rows(run) if args.trace else end_to_end_rows(run, setup.samples)
    print(f"== gridlink benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env))
    print(f"{'metric':<30} {'value':>14} {'unit':<6} samples")
    for name, value, unit, note in rows:
        print(f"{name:<30} {value:>14.6g} {unit:<6} {note}")
    print(f"machine probe (eigvals 70x70, diagnostic only): start {probe_start:.6g} s, end {probe_end:.6g} s")

    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name not in PRINTED_ONLY}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "probe_s": {"start": probe_start, "end": probe_end}, "metrics": metrics,
              "attempted": run.attempted, "failed": failed, "failures": run.failures,
              "op_s_samples": run.plain, "traced_op_s_samples": run.traced, "absent_hooks": run.absent}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        write_spans(OUT / f"spans-{args.workload}.jsonl", run.last_spans)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: benchmark exited with code {proc.returncode}", file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            metrics.update({f"{name}/{key}": value for key, value in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridlink" / "__init__.py").is_file():
        print(f"run.py: no gridlink sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Before numpy loads: OpenBLAS reads its thread count once, at load time.
    os.environ.update(SINGLE_THREADED_BLAS)
    sys.path.insert(0, str(SRC))
    import gridlink

    if Path(gridlink.__file__).resolve().parent != (SRC / "gridlink").resolve():
        print(f"run.py: imported gridlink from {gridlink.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
