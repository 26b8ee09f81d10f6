import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from gridlink import planner
from gridlink.dynamics import normalize_link
from gridlink.linearization import alpha_for_links
from gridlink.model import SystemModel
from gridlink.planner import (
    PlannerGuardError,
    candidate_links,
    exhaustive_plan,
    greedy_plan,
    marginal_gain,
)
from gridlink.reduction import OperatingPoint, ReducedNetwork
from test_linearization import independent_alpha


def test_candidate_links_enumeration():
    assert candidate_links(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(candidate_links(10)) == 45
    assert candidate_links(3, installed=[(0, 1)]) == [(0, 2), (1, 2)]
    assert candidate_links(3, installed=[(1, 0)]) == [(0, 2), (1, 2)]


def test_candidate_links_requires_two_generators():
    with pytest.raises(ValueError):
        candidate_links(1)


def test_marginal_gain_is_alpha_difference(ne39_model):
    link = (0, 8)
    gain = marginal_gain(link, [], ne39_model, gain_h=-1.0)
    before = alpha_for_links(ne39_model, [], -1.0)
    after = alpha_for_links(ne39_model, [link], -1.0)
    assert gain == pytest.approx(before - after, abs=1e-15)
    assert gain > 0  # installing a helpful link must come out positive


def test_gain_sign_convention_matches_iteration_tables():
    # a drop from -0.1899e-2 to -0.1963e-2 is an improvement of 0.64e-4
    before, after = -0.1899e-2, -0.1963e-2
    gain = before - after
    assert gain == pytest.approx(0.636e-4, abs=0.005e-4)
    assert gain > 0


def test_marginal_gain_zero_when_alpha_pinned(toy3_model):
    # uniform damping/inertia: every mode decays at -d/(2m) so links cannot
    # move alpha_max at all
    for link in candidate_links(3):
        assert abs(marginal_gain(link, [], toy3_model, gain_h=-1.0)) <= 1e-12


def test_marginal_gain_validates_inputs(toy3_model):
    with pytest.raises(ValueError):
        marginal_gain((0, 1), [], toy3_model, gain_h=1.0)
    with pytest.raises(ValueError):
        marginal_gain((0, 1), [(0, 1)], toy3_model, gain_h=-1.0)


def test_marginal_gain_against_independent_eigensolves(toy4_model):
    model = toy4_model
    link = (0, 2)
    expected = independent_alpha(model.net, model.op.delta_s, model.m, model.d, [], -1.0) - independent_alpha(
        model.net, model.op.delta_s, model.m, model.d, [link], -1.0
    )
    assert marginal_gain(link, [], model, gain_h=-1.0) == pytest.approx(expected, abs=1e-10)


# --- greedy_plan ------------------------------------------------------------------


def test_greedy_budget_zero(toy4_model):
    result = greedy_plan(toy4_model, budget=0, gain_h=-1.0)
    assert result.iterations == ()
    assert not result.stopped_early
    assert result.final_alpha == result.baseline_alpha


def test_greedy_first_pick_is_single_link_argmax(toy4_model):
    result = greedy_plan(toy4_model, budget=1, gain_h=-1.0)
    assert len(result.iterations) == 1
    # exhaustive enumeration oracle over all single links
    best = min(
        candidate_links(4),
        key=lambda l: (alpha_for_links(toy4_model, [l], -1.0), l),
    )
    assert result.iterations[0].link == best


def test_greedy_symmetric_tie_breaks_lexicographically(toy3_model):
    # perfect symmetry forces a three-way tie; the smallest pair must win
    result = greedy_plan(toy3_model, budget=1, gain_h=-1.0, allow_nonpositive=True)
    assert result.iterations[0].link == (0, 1)


def test_greedy_stops_early_on_nonpositive_gain(toy3_model):
    result = greedy_plan(toy3_model, budget=2, gain_h=-1.0)
    assert result.stopped_early
    assert "nonpositive" in result.stop_reason
    assert result.iterations == ()


def test_greedy_budget_clamped_with_warning(toy4_model):
    with pytest.warns(UserWarning, match="clamped"):
        result = greedy_plan(toy4_model, budget=10**6, gain_h=-1.0, allow_nonpositive=True)
    assert len(result.iterations) == 6  # C(4,2)


def test_greedy_rejects_bad_arguments(toy4_model):
    with pytest.raises(ValueError):
        greedy_plan(toy4_model, budget=-1, gain_h=-1.0)
    with pytest.raises(ValueError):
        greedy_plan(toy4_model, budget=1, gain_h=0.0)


def test_greedy_links_distinct_and_bounded(ne39_model):
    result = greedy_plan(ne39_model, budget=6, gain_h=-1.0)
    assert len(result.iterations) <= 6
    assert len(set(result.links)) == len(result.links)


def test_greedy_strict_decrease_on_positive_gains(ne39_model):
    result = greedy_plan(ne39_model, budget=6, gain_h=-1.0)
    previous = result.baseline_alpha
    for it in result.iterations:
        assert it.marginal_gain > 0
        assert it.alpha_max_after < previous
        assert it.marginal_gain == pytest.approx(previous - it.alpha_max_after, abs=1e-15)
        previous = it.alpha_max_after


def test_greedy_parallel_sweep_identical(ne39_model):
    serial = greedy_plan(ne39_model, budget=4, gain_h=-1.0, workers=1)
    parallel = greedy_plan(ne39_model, budget=4, gain_h=-1.0, workers=4)
    assert serial.links == parallel.links
    assert serial.baseline_alpha == parallel.baseline_alpha
    for a, b in zip(serial.iterations, parallel.iterations):
        assert a.alpha_max_after == b.alpha_max_after
        assert a.marginal_gain == b.marginal_gain


def test_pool_sweep_bitwise_equals_serial(ne39_model):
    installed = []
    initargs = (ne39_model, -1.0)
    with ProcessPoolExecutor(2, initializer=planner._init_worker, initargs=initargs) as pool:
        for link in [(0, 8), (0, 2), (0, 1)]:
            remaining = candidate_links(ne39_model.n, installed)
            serial = planner._sweep(ne39_model, installed, remaining, -1.0)
            assert planner._pool_sweep(pool, 2, installed, remaining) == serial
            installed = sorted(installed + [link])


def test_worker_error_reaches_caller(ne39_model):
    # the baseline has no links and is finite; every candidate's control
    # block overflows, so the error is raised inside the worker processes
    with pytest.raises(ValueError, match="non-finite"):
        greedy_plan(ne39_model, budget=2, gain_h=-1e308, workers=2)


@pytest.mark.parametrize(
    "workers, cores, budget, preinstalled, expected",
    [
        (64, 3, 2, [], [3]),  # clamped to the core count
        (64, 16, 2, [], [6]),  # clamped to the C(4,2) candidates
        (64, 16, 1, [(0, 1), (0, 2), (0, 3)], [3]),  # candidates left after preinstalled links
        (2, 16, 2, [], [2]),  # as asked
        (64, 1, 2, [], []),  # one core: serial sweep, no pool
        (1, 16, 2, [], []),
        (64, 16, 0, [], []),  # nothing to sweep
    ],
)
def test_pool_size_clamped(monkeypatch, inline_pool, toy4_model, workers, cores, budget, preinstalled, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    kwargs = dict(budget=budget, gain_h=-1.0, allow_nonpositive=True, preinstalled=preinstalled)
    result = greedy_plan(toy4_model, workers=workers, **kwargs)
    assert inline_pool == expected
    assert result == greedy_plan(toy4_model, **kwargs)


def test_import_loads_no_pool_modules():
    # the process pool is imported only when a plan asks for workers
    code = (
        "import sys, gridlink; "
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(planner.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_plan_follows_generator_relabelling(ne39_model, seed):
    # generator j of the relabelled model is generator order[j] of ne39
    order = np.random.default_rng(seed).permutation(ne39_model.n)
    rank = np.argsort(order)
    net, op = ne39_model.net, ne39_model.op
    relabelled = SystemModel(
        net=ReducedNetwork(
            y_g=net.y_g[np.ix_(order, order)],
            e_mag=net.e_mag[order],
            c=net.c[np.ix_(order, order)],
            d=net.d[np.ix_(order, order)],
        ),
        op=OperatingPoint(delta_s=op.delta_s[order], omega_s=op.omega_s, p_m_const=op.p_m_const[order]),
        m=ne39_model.m[order],
        d=ne39_model.d[order],
    )
    plan = greedy_plan(ne39_model, budget=4, gain_h=-1.0)
    permuted = greedy_plan(relabelled, budget=4, gain_h=-1.0)
    assert permuted.links == tuple(normalize_link((rank[i], rank[k])) for i, k in plan.links)
    assert abs(permuted.final_alpha - plan.final_alpha) <= 1e-12 * max(1.0, abs(plan.final_alpha))


def test_greedy_preinstalled_links_excluded(toy4_model):
    result = greedy_plan(toy4_model, budget=1, gain_h=-1.0, allow_nonpositive=True, preinstalled=[(0, 2)])
    assert result.iterations[0].link != (0, 2)


# --- exhaustive_plan --------------------------------------------------------------


def test_exhaustive_budget_one_matches_greedy(toy4_model):
    greedy = greedy_plan(toy4_model, budget=1, gain_h=-1.0)
    exhaustive = exhaustive_plan(toy4_model, budget=1, gain_h=-1.0)
    assert greedy.links == exhaustive.links
    assert greedy.final_alpha == pytest.approx(exhaustive.final_alpha, abs=1e-15)


def test_exhaustive_no_worse_than_greedy(toy4_model):
    greedy = greedy_plan(toy4_model, budget=2, gain_h=-1.0)
    exhaustive = exhaustive_plan(toy4_model, budget=2, gain_h=-1.0)
    assert exhaustive.final_alpha <= greedy.final_alpha + 1e-15


def test_exhaustive_matches_scripted_enumeration(toy4_model):
    model = toy4_model
    result = exhaustive_plan(model, budget=2, gain_h=-1.0)

    def scripted(links):
        return independent_alpha(model.net, model.op.delta_s, model.m, model.d, list(links), -1.0)

    best_final = scripted([])
    best_set: tuple = ()
    for size in (1, 2):
        for subset in combinations(candidate_links(4), size):
            final = scripted(subset)
            if final < best_final - 1e-12:
                best_final, best_set = final, subset
    assert set(result.links) == set(best_set)
    assert result.final_alpha == pytest.approx(best_final, abs=1e-10)


def test_exhaustive_iterations_are_prefix_alphas(toy4_model):
    result = exhaustive_plan(toy4_model, budget=2, gain_h=-1.0)
    previous = result.baseline_alpha
    for i, it in enumerate(result.iterations, start=1):
        assert it.index == i
        expected = alpha_for_links(toy4_model, list(result.links[:i]), -1.0)
        assert it.alpha_max_after == pytest.approx(expected, abs=1e-15)
        assert it.marginal_gain == pytest.approx(previous - it.alpha_max_after, abs=1e-15)
        previous = it.alpha_max_after


def test_exhaustive_guard(toy4_model):
    with pytest.raises(PlannerGuardError):
        exhaustive_plan(toy4_model, budget=3, gain_h=-1.0, guard=5)
