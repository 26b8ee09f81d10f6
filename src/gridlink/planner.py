"""Greedy budgeted selection of communication links.

Each iteration evaluates the marginal gain (drop in alpha_max) of every
remaining candidate link, installs the best one, and repeats until the budget
is spent or no link helps.  An exhaustive planner over all budget-sized
subsets serves as a small-instance oracle.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from itertools import combinations

from gridlink.dynamics import Link, normalize_link
from gridlink.linearization import alpha_for_links
from gridlink.model import SystemModel

# Gains closer than this are treated as tied and broken lexicographically by
# (min index, max index), which keeps the selection independent of candidate
# evaluation order.
TIE_TOL = 1e-12


class PlannerGuardError(RuntimeError):
    """Exhaustive search would exceed the combinatorial guard."""


@dataclass(frozen=True)
class PlanIteration:
    index: int  # 1-based iteration number
    link: Link
    alpha_max_after: float  # 1/s
    marginal_gain: float  # alpha before minus alpha after; positive = improvement


@dataclass(frozen=True)
class PlanResult:
    baseline_alpha: float  # alpha_max before any planned link
    iterations: tuple[PlanIteration, ...]
    stopped_early: bool
    stop_reason: str | None = None

    @property
    def final_alpha(self) -> float:
        return self.iterations[-1].alpha_max_after if self.iterations else self.baseline_alpha

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(it.link for it in self.iterations)


def candidate_links(n: int, installed=()) -> list[Link]:
    """All unordered generator pairs over 0..n-1 minus the installed set, sorted."""
    if n < 2:
        raise ValueError("need at least two generators to form links")
    taken = {normalize_link(l) for l in installed}
    return [(i, k) for i in range(n) for k in range(i + 1, n) if (i, k) not in taken]


def marginal_gain(link: Link, installed, model: SystemModel, gain_h: float) -> float:
    """alpha(installed) - alpha(installed + link); positive means improved stability."""
    if gain_h >= 0:
        raise ValueError("gain_h must be negative")
    link = normalize_link(link)
    base = [normalize_link(l) for l in installed]
    if link in base:
        raise ValueError(f"link {link} already installed")
    before = alpha_for_links(model, base, gain_h)
    after = alpha_for_links(model, base + [link], gain_h)
    return before - after


def _sweep(model: SystemModel, installed: list[Link], remaining: list[Link], gain_h: float):
    """alpha_max after each candidate, in candidate order."""
    return [alpha_for_links(model, installed + [link], gain_h) for link in remaining]


# Set once in each sweep worker process by _init_worker.
_worker_args: tuple[SystemModel, float] | None = None


def _init_worker(model: SystemModel, gain_h: float) -> None:
    global _worker_args
    _worker_args = (model, gain_h)


def _sweep_chunk(installed: list[Link], chunk: list[Link]) -> list[float]:
    model, gain_h = _worker_args
    return _sweep(model, installed, chunk, gain_h)


def _chunks(items: list, parts: int) -> list[list]:
    """``parts`` contiguous runs of ``items``, lengths differing by at most one."""
    size, extra = divmod(len(items), parts)
    bounds = [i * size + min(i, extra) for i in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _pool_sweep(pool, pool_size: int, installed: list[Link], remaining: list[Link]) -> list[float]:
    """_sweep over contiguous chunks in the worker processes, in candidate order."""
    chunks = _chunks(remaining, min(pool_size, len(remaining)))
    return [alpha for part in pool.map(_sweep_chunk, [installed] * len(chunks), chunks) for alpha in part]


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
    Stops early (with the reason recorded) when the best remaining gain is
    nonpositive, unless ``allow_nonpositive`` is set; a gain within TIE_TOL
    of zero ties with installing nothing and counts as nonpositive.  Ties
    within TIE_TOL go to the lexicographically smallest pair.  A budget
    larger than the number of candidate links is clamped with a warning.

    With ``workers`` > 1 each sweep runs in one pool of worker processes,
    min(workers, CPU count, candidates in the first sweep) of them, started
    once per call; each gets a contiguous chunk of the candidates.  The
    result is identical to the serial sweep.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if gain_h >= 0:
        raise ValueError("gain_h must be negative")
    installed = sorted(normalize_link(l) for l in preinstalled)
    if len(set(installed)) != len(installed):
        raise ValueError("duplicate links in preinstalled set")

    available = len(candidate_links(model.n, installed))
    if budget > available:
        warnings.warn(f"budget {budget} exceeds the {available} available links; clamped", stacklevel=2)
        budget = available

    alpha_before = alpha_for_links(model, installed, gain_h)
    baseline = alpha_before
    iterations: list[PlanIteration] = []
    stopped_early = False
    stop_reason = None

    pool_size = min(workers, os.cpu_count() or 1, available)
    pool = None
    if budget and pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(pool_size, initializer=_init_worker, initargs=(model, gain_h))
    try:
        for it in range(1, budget + 1):
            remaining = candidate_links(model.n, installed)
            if pool is None:
                alphas = _sweep(model, installed, remaining, gain_h)
            else:
                alphas = _pool_sweep(pool, pool_size, installed, remaining)
            best_link = None
            best_alpha = math.inf
            best_gain = -math.inf
            for link, alpha in zip(remaining, alphas):
                gain = alpha_before - alpha
                if gain > best_gain + TIE_TOL:
                    best_link, best_alpha, best_gain = link, alpha, gain
            if best_gain <= TIE_TOL and not allow_nonpositive:
                stopped_early = True
                stop_reason = f"best marginal gain {best_gain:.3e} is nonpositive at iteration {it}"
                break
            installed.append(best_link)
            installed.sort()
            iterations.append(
                PlanIteration(index=it, link=best_link, alpha_max_after=best_alpha, marginal_gain=best_gain)
            )
            alpha_before = best_alpha
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return PlanResult(
        baseline_alpha=baseline,
        iterations=tuple(iterations),
        stopped_early=stopped_early,
        stop_reason=stop_reason,
    )


def exhaustive_plan(
    model: SystemModel,
    budget: int,
    gain_h: float,
    guard: int = 10**6,
) -> PlanResult:
    """Global optimum over every link subset within the budget (small instances).

    Scans all subsets of size 0..budget in lexicographic order, so the result
    never exceeds the budget and is always at least as good as any greedy
    outcome.  Strictly better means the final alpha_max drops by more than
    TIE_TOL; ties resolve to the smaller, lexicographically first subset,
    matching the greedy tie-break.  Raises PlannerGuardError when the subset
    count exceeds ``guard``.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if gain_h >= 0:
        raise ValueError("gain_h must be negative")
    pool = candidate_links(model.n)
    if budget > len(pool):
        warnings.warn(f"budget {budget} exceeds the {len(pool)} available links; clamped", stacklevel=2)
        budget = len(pool)
    count = sum(math.comb(len(pool), size) for size in range(budget + 1))
    if count > guard:
        raise PlannerGuardError(f"{count} subsets exceed the exhaustive-search guard of {guard}")

    baseline = alpha_for_links(model, [], gain_h)
    best_subset: tuple[Link, ...] = ()
    best_final = baseline
    for size in range(1, budget + 1):
        for subset in combinations(pool, size):
            final = alpha_for_links(model, list(subset), gain_h)
            if final < best_final - TIE_TOL:
                best_subset, best_final = subset, final

    iterations = []
    prev_alpha = baseline
    for i, link in enumerate(best_subset, start=1):
        alpha = alpha_for_links(model, list(best_subset[:i]), gain_h)
        iterations.append(PlanIteration(index=i, link=link, alpha_max_after=alpha, marginal_gain=prev_alpha - alpha))
        prev_alpha = alpha
    return PlanResult(baseline_alpha=baseline, iterations=tuple(iterations), stopped_early=False)
