import json
import math
import os
import signal
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from gridlink import planner
from gridlink.case import case_path, parse_case
from gridlink.dynamics import electrical_power, normalize_link
from gridlink.linearization import alpha_for_links
from gridlink.model import SystemModel, build_system
from gridlink.planner import (
    TIE_TOL,
    PlannerGuardError,
    candidate_links,
    exhaustive_plan,
    greedy_plan,
)
from gridlink.reduction import OperatingPoint, ReducedNetwork, coupling_coefficients
from gridlink.reports import plan_document
from test_acceptance import _random_35_generator_model
from test_linearization import independent_alpha


def test_candidate_links_enumeration():
    assert candidate_links(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(candidate_links(10)) == 45
    assert candidate_links(3, installed=[(0, 1)]) == [(0, 2), (1, 2)]
    assert candidate_links(3, installed=[(1, 0)]) == [(0, 2), (1, 2)]


def test_candidate_links_requires_two_generators():
    with pytest.raises(ValueError):
        candidate_links(1)


def test_gain_sign_convention_matches_iteration_tables():
    # a drop from -0.1899e-2 to -0.1963e-2 is an improvement of 0.64e-4
    before, after = -0.1899e-2, -0.1963e-2
    gain = before - after
    assert gain == pytest.approx(0.636e-4, abs=0.005e-4)
    assert gain > 0


def test_marginal_gain_zero_when_alpha_pinned(toy3_model):
    # uniform damping/inertia: every mode decays at -d/(2m) so links cannot
    # move alpha_max at all
    baseline = alpha_for_links(toy3_model, [], -1.0)
    for link in candidate_links(3):
        assert abs(baseline - alpha_for_links(toy3_model, [link], -1.0)) <= 1e-12


def test_marginal_gain_against_independent_eigensolves(toy4_model):
    model = toy4_model
    link = (0, 2)
    expected = independent_alpha(model.net, model.op.delta_s, model.m, model.d, [], -1.0) - independent_alpha(
        model.net, model.op.delta_s, model.m, model.d, [link], -1.0
    )
    gain = alpha_for_links(model, [], -1.0) - alpha_for_links(model, [link], -1.0)
    assert gain == pytest.approx(expected, abs=1e-10)


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


def test_greedy_rejects_bad_arguments(toy4_model, monkeypatch):
    # check_plan_args's rule holds before any alpha_max is computed
    monkeypatch.setattr(planner, "alpha_for_links", lambda *args: pytest.fail("alpha_for_links called"))
    for kwargs, rule in [
        ({"budget": -1}, "budget must be nonnegative"),
        ({"gain_h": 0.0}, "gain must be a finite number below zero"),
        ({"gain_h": math.nan}, "gain must be a finite number below zero"),
        ({"gain_h": -math.inf}, "gain must be a finite number below zero"),
        ({"workers": 0}, "workers must be at least 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{rule}$"):
            greedy_plan(toy4_model, **{"budget": 1, "gain_h": -1.0, **kwargs})


def test_greedy_links_distinct_and_bounded(ne39_model):
    result = greedy_plan(ne39_model, budget=6, gain_h=-1.0)
    assert len(result.iterations) <= 6
    assert len(set(result.links)) == len(result.links)


def test_greedy_strict_decrease_on_positive_gains(ne39_model):
    result = greedy_plan(ne39_model, budget=6, gain_h=-1.0)
    previous = result.baseline_alpha
    for it, row in zip(result.iterations, plan_document(result, {})["iterations"]):
        assert it.alpha_max_after < previous
        assert row["marginal_gain"] == previous - it.alpha_max_after > 0
        previous = it.alpha_max_after


def test_greedy_parallel_sweep_identical(ne39_model):
    serial = greedy_plan(ne39_model, budget=4, gain_h=-1.0, workers=1)
    parallel = greedy_plan(ne39_model, budget=4, gain_h=-1.0, workers=4)
    assert parallel == serial


def test_pool_sweep_bitwise_equals_serial(monkeypatch, sweep_forks, ne39_model):
    # two forked workers fill the candidates' alphas in chunks of several, in candidate order
    monkeypatch.setattr(planner, "usable_cpu_count", lambda: 2)
    synth35 = [(_random_35_generator_model(seed), [(0, 1)]) for seed in range(4)]
    for model, picks in [(ne39_model, [(0, 8), (0, 2), (0, 1)]), *synth35]:
        installed = []
        for link in picks:
            candidates = [installed + [l] for l in candidate_links(model.n, installed)]
            pooled, serial = planner.sweep(model, candidates, -1.0, 2), planner.sweep(model, candidates, -1.0)
            assert np.array(pooled).tobytes() == np.array(serial).tobytes()
            assert sweep_forks[-2:] == [2, 0]
            installed = sorted(installed + [link])


def test_killed_worker_costs_time_not_the_plan(monkeypatch, forks, ne39_model):
    # a worker killed part way through its chunk leaves its slots to the parent, which evaluates them
    # serially: the alphas are the serial sweep's, and both workers are reaped
    candidates = [[link] for link in candidate_links(ne39_model.n)]
    serial = planner.sweep(ne39_model, candidates, -1.0)
    parent = os.getpid()

    def killed_on_one_link_set(model, links, gain):
        if os.getpid() != parent and links == candidates[17]:
            os.kill(os.getpid(), signal.SIGKILL)
        return alpha_for_links(model, links, gain)

    monkeypatch.setattr(planner, "usable_cpu_count", lambda: 2)
    monkeypatch.setattr(planner, "alpha_for_links", killed_on_one_link_set)
    pooled = planner.sweep(ne39_model, candidates, -1.0, workers=2)
    assert np.array(pooled).tobytes() == np.array(serial).tobytes()
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_worker_error_reaches_caller(monkeypatch, forks, ne39_model):
    # the baseline has no links and is finite; every candidate's control block overflows, so the error is
    # raised inside the worker processes, and the parent raises the serial sweep's error
    monkeypatch.setattr(planner, "usable_cpu_count", lambda: 2)
    with pytest.raises(ValueError) as serial:
        greedy_plan(ne39_model, budget=2, gain_h=-1e308)
    with pytest.raises(ValueError) as pooled:
        greedy_plan(ne39_model, budget=2, gain_h=-1e308, workers=2)
    assert (type(pooled.value), str(pooled.value)) == (type(serial.value), "Jacobian has non-finite entries")
    assert len(forks) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count descriptors in")
def test_pooled_plan_leaves_no_descriptor_open(monkeypatch, ne39_model):
    monkeypatch.setattr(planner, "usable_cpu_count", lambda: 2)
    before = len(os.listdir("/proc/self/fd"))
    greedy_plan(ne39_model, budget=2, gain_h=-1.0, workers=2)
    assert len(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ValueError, match="non-finite"):
        greedy_plan(ne39_model, budget=2, gain_h=-1e308, workers=2)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize(
    "workers, cores, budget, preinstalled, expected",
    [
        (64, 3, 2, [], [0, 3, 3]),  # clamped to the core count
        (64, 16, 2, [], [0, 6, 5]),  # clamped to each sweep's C(4,2) - i candidates
        (64, 16, 1, [(0, 1), (0, 2), (0, 3)], [0, 3]),  # candidates left after preinstalled links
        (2, 16, 2, [], [0, 2, 2]),  # as asked
        (64, 1, 2, [], [0, 0, 0]),  # one core: serial sweeps
        (1, 16, 2, [], [0, 0, 0]),
        (64, 16, 0, [], [0]),  # nothing to sweep but the baseline
    ],
)
def test_pool_size_clamped(monkeypatch, sweep_forks, toy4_model, workers, cores, budget, preinstalled, expected):
    # the forks of each sweep, the baseline's first
    monkeypatch.setattr(planner, "usable_cpu_count", lambda: cores)
    kwargs = dict(budget=budget, gain_h=-1.0, allow_nonpositive=True, preinstalled=preinstalled)
    result = greedy_plan(toy4_model, workers=workers, **kwargs)
    assert sweep_forks == expected
    assert result == greedy_plan(toy4_model, **kwargs)


def test_import_loads_no_pool_modules():
    # a plan that forks its sweeps' workers imports neither concurrent.futures nor multiprocessing, and no
    # plan imports scipy
    code = (
        "import sys, gridlink, gridlink.cli; "
        "gridlink.planner.usable_cpu_count = lambda: 2; "
        "model = gridlink.build_system(gridlink.load_case('toy4')); "
        "gridlink.greedy_plan(model, budget=2, gain_h=-1.0); "
        "gridlink.greedy_plan(model, budget=2, gain_h=-1.0, workers=2); "
        "gridlink.exhaustive_plan(model, budget=2, gain_h=-1.0); "
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing', 'scipy'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(planner.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_model_set_up_loads_no_report_or_cli_module():
    # the path the benchmark's set-up probe times, from import to a model, leaves out gridlink.reports (whose
    # float formatter builds its tables on import) and gridlink.cli, which imports it
    code = (
        "import sys, gridlink; "
        "gridlink.build_system(gridlink.load_case('newengland39')); "
        "print(sorted(m for m in sys.modules if m in ('gridlink.reports', 'gridlink.cli')))"
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_plan_ignores_bus_and_branch_order(ne39_model, seed):
    # the same network with its bus and branch entries listed in another order
    doc = json.loads(Path(case_path("newengland39")).read_text())
    rng = np.random.default_rng(seed)
    doc["buses"] = [doc["buses"][i] for i in rng.permutation(len(doc["buses"]))]
    doc["branches"] = [doc["branches"][i] for i in rng.permutation(len(doc["branches"]))]
    shuffled = build_system(parse_case(json.dumps(doc)))
    plan = greedy_plan(ne39_model, budget=4, gain_h=-1.0)
    permuted = greedy_plan(shuffled, budget=4, gain_h=-1.0)
    assert permuted.links == plan.links
    assert abs(permuted.final_alpha - plan.final_alpha) <= 1e-12 * max(1.0, abs(plan.final_alpha))


@pytest.mark.parametrize("link", [(-1, 0), (0, 4), (4, 5)])
def test_greedy_rejects_preinstalled_link_out_of_range(toy4_model, link):
    # wrapped around, (-1, 0) would plan as if (0, 3) were installed while still offering (0, 3)
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        greedy_plan(toy4_model, budget=1, gain_h=-1.0, preinstalled=[link])


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


def _stable_five_generator_model(seed: int) -> SystemModel:
    # inductive coupling: off-diagonal admittance -(g - j b) with g, b > 0
    rng = np.random.default_rng(seed)
    n, omega_s = 5, 2.0 * np.pi * 60.0
    b = rng.uniform(0.5, 4.0, (n, n))
    g = rng.uniform(0.02, 0.4, (n, n))
    y = -((g + g.T) / 2.0 - 1j * (b + b.T) / 2.0)
    np.fill_diagonal(y, 0.0)
    y += np.diag(-y.sum(axis=1) + rng.uniform(0.05, 0.5, n) + 1j * rng.uniform(-2.0, -0.5, n))
    e_mag = rng.uniform(0.95, 1.15, n)
    c, d = coupling_coefficients(y, e_mag)
    net = ReducedNetwork(y_g=y, e_mag=e_mag, c=c, d=d)
    delta_s = rng.uniform(-0.3, 0.3, n)
    op = OperatingPoint(delta_s=delta_s, omega_s=omega_s, p_m_const=electrical_power(delta_s, net))
    return SystemModel(net=net, op=op, m=2.0 * rng.uniform(20.0, 60.0, n) / omega_s, d=np.full(n, 0.05))


@pytest.mark.parametrize("seed", range(12))
def test_exhaustive_no_worse_than_greedy_on_stable_models(seed):
    model = _stable_five_generator_model(seed)
    assert alpha_for_links(model, [], -1.0) < 0.0
    greedy = greedy_plan(model, budget=2, gain_h=-1.0)
    exhaustive = exhaustive_plan(model, budget=2, gain_h=-1.0)
    assert exhaustive.final_alpha <= greedy.final_alpha + TIE_TOL


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
    for i, it in enumerate(result.iterations, start=1):
        expected = alpha_for_links(toy4_model, list(result.links[:i]), -1.0)
        assert it.alpha_max_after == pytest.approx(expected, abs=1e-15)


def test_exhaustive_evaluates_each_subset_once_through_the_planner_module(monkeypatch, toy4_model):
    # like criterion 9: the serial sweep looks alpha_for_links up in the planner module at each call
    calls = []

    def counting(model, links, gain):
        calls.append(tuple(links))
        return alpha_for_links(model, links, gain)

    monkeypatch.setattr(planner, "alpha_for_links", counting)
    result = exhaustive_plan(toy4_model, budget=2, gain_h=-1.0)
    pairs = candidate_links(4)
    prefixes = [result.links[:i] for i in range(1, len(result.links) + 1)]
    assert len(calls) == 1 + math.comb(6, 1) + math.comb(6, 2) + len(result.links)
    assert calls == [()] + [(l,) for l in pairs] + list(combinations(pairs, 2)) + prefixes


def test_exhaustive_guard(monkeypatch, toy4_model):
    monkeypatch.setattr(planner, "EXHAUSTIVE_GUARD", 5)
    with pytest.raises(PlannerGuardError):
        exhaustive_plan(toy4_model, budget=3, gain_h=-1.0)
