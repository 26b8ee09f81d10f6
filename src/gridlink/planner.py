"""Greedy budgeted selection of communication links.

Each iteration evaluates the marginal gain (drop in alpha_max) of every
remaining candidate link, installs the best one, and repeats until the budget
is spent or no link helps.  An exhaustive planner over all budget-sized
subsets serves as a small-instance oracle.  Both planners evaluate link sets
only through ``sweep``, which forks min(workers, usable CPUs, link sets)
worker processes for each sweep of a greedy plan.  Where that is 1, or where
``fork`` can start none (no os.fork, a process or open-file limit), the
calling process evaluates them all, with the same result and no message.
"""

from __future__ import annotations

import math
import mmap
import os
import select
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from gridlink.case import InputError
from gridlink.dynamics import ControlConfig, Link, normalize_link
from gridlink.linearization import alpha_for_links
from gridlink.model import SystemModel

# Gains closer than this are treated as tied and broken lexicographically by
# (min index, max index), which keeps the selection independent of candidate
# evaluation order.
TIE_TOL = 1e-12

# A forked sweep hands each worker at most this many contiguous chunks of the
# candidates, so a worker slowed by the host does not hold up the sweep by a
# whole half of it.
CHUNKS_PER_WORKER = 8

# exhaustive_plan refuses to scan more link subsets than this.
EXHAUSTIVE_GUARD = 10**6


class PlannerGuardError(RuntimeError):
    """Exhaustive search would exceed the combinatorial guard."""


@dataclass(frozen=True)
class PlanIteration:
    link: Link
    alpha_max_after: float  # 1/s


@dataclass(frozen=True)
class PlanResult:
    """A plan's iterations in install order; stop_reason is None unless a greedy plan stopped early."""

    baseline_alpha: float  # alpha_max before any planned link
    iterations: tuple[PlanIteration, ...]
    stop_reason: str | None = None

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason is not None

    @property
    def final_alpha(self) -> float:
        return self.iterations[-1].alpha_max_after if self.iterations else self.baseline_alpha

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(it.link for it in self.iterations)


def candidate_links(n: int, installed=()) -> list[Link]:
    """All unordered generator pairs over 0..n-1 minus the installed set, sorted; InputError if n < 2."""
    if n < 2:
        raise InputError(f"need at least two generators to form links, got {n}")
    taken = {normalize_link(l) for l in installed}
    return [(i, k) for i in range(n) for k in range(i + 1, n) if (i, k) not in taken]


def usable_cpu_count() -> int:
    """CPUs this process may run on: under taskset or a cpuset, fewer than os.cpu_count()."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13 on
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_plan_args(budget: int, gain_h: float, workers: int = 1) -> None:
    """The planning rule: InputError unless budget >= 0, gain_h is finite and negative, and workers >= 1."""
    if budget < 0:
        raise InputError("budget must be nonnegative")
    if not -math.inf < gain_h < 0:
        raise InputError("gain must be a finite number below zero")
    if workers < 1:
        raise InputError("workers must be at least 1")


def _plan_args(budget: int, gain_h: float, n: int, preinstalled=(), workers=1) -> tuple[list[Link], list[Link], int]:
    """The planners' argument checks: (the preinstalled links as ControlConfig stores them, the candidate
    links they leave, in candidate_links order, and the budget, clamped to their number with a warning)."""
    check_plan_args(budget, gain_h, workers)
    installed = list(ControlConfig(preinstalled).links)
    remaining = candidate_links(n, installed)
    if budget > len(remaining):
        warnings.warn(f"budget {budget} exceeds the {len(remaining)} available links; clamped", stacklevel=3)
        budget = len(remaining)
    return installed, remaining, budget


def fork(child: Callable[[], int]) -> int | None:
    """The fork rule: start a process (sweep's workers, the CLI's trajectory writer) that runs child().

    The child ends by os._exit with the status child() returns, 255 if it raised, so it never returns into
    the caller or flushes a stream it shares.  Returns its pid, or None, with no process started, where
    os.fork is missing or raises OSError (a process or memory limit): the caller then does child's work.

    Python 3.12 on warns in the parent when it forks with threads running, as numpy's BLAS threads are once
    started.  Raised as an error, that warning comes after the child has started and loses its pid, so
    nothing would reap or stop the child; it is ignored.  What it warns of, a lock held by another thread
    at the fork, holds up neither child: the writer starts no thread and makes no BLAS call, and numpy's
    OpenBLAS stops its threads in a fork handler and starts new ones in a child that calls it, as sweep's
    workers do.  Other BLAS builds are unverified.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            pid = os.fork()
        except (AttributeError, OSError):  # a platform without os.fork, or a process or memory limit
            return None
    if pid:
        return pid
    try:
        os._exit(child())
    finally:  # child() raised, or returned no status
        os._exit(255)


def sweep(model: SystemModel, link_sets: list[list[Link]], gain_h: float, workers: int = 1) -> list[float]:
    """alpha_for_links of each link set, in input order, bitwise the same for every ``workers``.

    alpha_for_links is looked up here at each call.  With size = min(workers, usable CPUs, link sets) above 1
    and a pipe to be had, up to size children started by ``fork`` read the starts of contiguous chunks, at
    most CHUNKS_PER_WORKER per child, from that pipe, filled by one atomic write, and write the alphas into an
    anonymous shared mapping.  A slot no child wrote (it raised or was killed, or none could be started) is
    evaluated here in input order, so an error is the serial sweep's.  Otherwise the sweep is serial.
    """
    size = min(workers, usable_cpu_count(), len(link_sets))
    if size > 1:
        try:
            received, sent = os.pipe()
        except OSError:  # no descriptor to spare
            size = 1
    if size <= 1:
        return [alpha_for_links(model, links, gain_h) for links in link_sets]
    alphas = np.frombuffer(mmap.mmap(-1, len(link_sets) * 8))
    alphas.fill(math.nan)
    # fewer, larger chunks where their starts would not fit in one atomic write
    chunk = math.ceil(len(link_sets) / min(CHUNKS_PER_WORKER * size, select.PIPE_BUF // 8))
    with open(sent, "wb", buffering=0) as pipe:  # closed before the fork, so each child reads to EOF
        pipe.write(b"".join(start.to_bytes(8, "little") for start in range(0, len(link_sets), chunk)))

    def work() -> int:
        while message := os.read(received, 8):
            start = int.from_bytes(message, "little")
            for i in range(start, min(start + chunk, len(link_sets))):
                alphas[i] = alpha_for_links(model, link_sets[i], gain_h)
        return 0

    pids = []
    try:
        while len(pids) < size and (pid := fork(work)) is not None:
            pids.append(pid)
    finally:
        os.close(received)
        for pid in pids:
            os.waitpid(pid, 0)
    return [alpha_for_links(model, links, gain_h) if math.isnan(alpha) else alpha
            for links, alpha in zip(link_sets, alphas.tolist())]


def greedy_plan(
    model: SystemModel,
    budget: int,
    gain_h: float,
    allow_nonpositive: bool = False,
    workers: int = 1,
    preinstalled=(),
) -> PlanResult:
    """Install up to ``budget`` links, each the argmax of marginal gain.

    Every alpha_max comes from alpha_for_links, without the structural zero
    mode, so no gain is decided by the eigensolver's rounding of that mode.
    Stops early, with the reason in stop_reason, when the best remaining gain
    is nonpositive, unless ``allow_nonpositive`` is set; a gain within
    TIE_TOL of zero ties with installing nothing and counts as nonpositive.
    Ties within TIE_TOL go to the lexicographically smallest pair.  A budget
    larger than the number of candidate links is clamped with a warning.
    Arguments that break check_plan_args's rule, a model with fewer than two
    generators, or ``preinstalled`` links that ControlConfig or link_laplacian
    refuses raise InputError (a ValueError).  Each sweep of the candidates
    forks up to ``workers`` processes; the plan is the same for every value.
    """
    installed, remaining, budget = _plan_args(budget, gain_h, model.n, preinstalled, workers)
    alpha_before = baseline = sweep(model, [installed], gain_h)[0]
    iterations: list[PlanIteration] = []
    stop_reason = None
    for it in range(1, budget + 1):
        alphas = sweep(model, [installed + [link] for link in remaining], gain_h, workers)
        best_link, best_alpha, best_gain = None, math.inf, -math.inf
        for link, alpha in zip(remaining, alphas):
            gain = alpha_before - alpha
            if gain > best_gain + TIE_TOL:
                best_link, best_alpha, best_gain = link, alpha, gain
        if best_gain <= TIE_TOL and not allow_nonpositive:
            stop_reason = (f"best marginal gain {best_gain:.3e} counts as nonpositive"
                           f" (not above TIE_TOL = {TIE_TOL:g}) at iteration {it}")
            break
        installed.append(best_link)  # unsorted: ControlConfig sorts each link set a sweep evaluates
        remaining.remove(best_link)
        iterations.append(PlanIteration(link=best_link, alpha_max_after=best_alpha))
        alpha_before = best_alpha
    return PlanResult(baseline_alpha=baseline, iterations=tuple(iterations), stop_reason=stop_reason)


def exhaustive_plan(model: SystemModel, budget: int, gain_h: float) -> PlanResult:
    """Global optimum over every link subset within the budget (small instances).

    Scans all subsets of size 0..budget in lexicographic order, so the result
    never exceeds the budget and is always at least as good as any greedy
    outcome.  Strictly better means the final alpha_max drops by more than
    TIE_TOL; ties resolve to the smaller, lexicographically first subset,
    matching the greedy tie-break.  Raises PlannerGuardError when the subset
    count exceeds EXHAUSTIVE_GUARD.  It sweeps serially, len(candidates)
    subsets at a time, so no size's subsets are all held at once.
    """
    _, candidates, budget = _plan_args(budget, gain_h, model.n)
    count = sum(math.comb(len(candidates), size) for size in range(budget + 1))
    if count > EXHAUSTIVE_GUARD:
        raise PlannerGuardError(f"{count} subsets exceed the exhaustive-search guard of {EXHAUSTIVE_GUARD}")

    baseline = sweep(model, [[]], gain_h)[0]
    best_subset, best_final = [], baseline
    subsets = chain.from_iterable(combinations(candidates, size) for size in range(1, budget + 1))
    while batch := [list(subset) for subset in islice(subsets, len(candidates))]:
        for subset, final in zip(batch, sweep(model, batch, gain_h)):
            if final < best_final - TIE_TOL:
                best_subset, best_final = subset, final

    alphas = sweep(model, [best_subset[:i] for i in range(1, len(best_subset) + 1)], gain_h)
    return PlanResult(baseline_alpha=baseline, iterations=tuple(map(PlanIteration, best_subset, alphas)))
