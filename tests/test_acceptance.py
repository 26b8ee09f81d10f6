"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import gridlink.planner
from gridlink.case import case_path
from gridlink.cli import main
from gridlink.dynamics import ControlConfig, decay_rate, equilibrium_state, simulate, swing_rhs
from gridlink.linearization import jacobian, spectral_abscissa
from gridlink.model import SystemModel
from gridlink.planner import exhaustive_plan, greedy_plan
from gridlink.reduction import OperatingPoint, ReducedNetwork, augment_internal_nodes, coupling_coefficients


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def ne39_plan_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan") / "plan39.json"
    args = ["plan", "--case", str(case_path("newengland39")), "--out", str(out),
            "--budget", "15", "--gain", "-1", "--format", "structured"]
    started = time.perf_counter()
    assert main(args) == 0
    elapsed = time.perf_counter() - started
    return json.loads(out.read_text()), elapsed


def _fd_jacobian(model, ctl, h=1e-6):
    n = model.n
    x0 = equilibrium_state(model)

    def f(x):
        return swing_rhs(x, model, ctl)

    fd = np.zeros((2 * n, 2 * n))
    for col in range(2 * n):
        xp, xm = x0.copy(), x0.copy()
        xp[col] += h
        xm[col] -= h
        fd[:, col] = (f(xp) - f(xm)) / (2 * h)
    return fd


def test_criterion_1_jacobian_finite_difference_oracle(toy3_model, ne39_model):
    with criterion(1, "assembled Jacobian matches rhs finite differences to 1e-6"):
        started = time.perf_counter()
        for model, links in ((toy3_model, [(0, 1)]), (ne39_model, [])):
            ctl = ControlConfig(links, -1.0) if links else ControlConfig()
            jac = jacobian(model, ctl)
            fd = _fd_jacobian(model, ctl)
            scale = np.abs(jac).max()
            assert np.all(np.abs(fd - jac) <= 1e-6 * np.abs(jac) + 1e-9 * scale)
        assert time.perf_counter() - started < 5.0


def test_criterion_2_kron_terminal_equivalence(ne39_case, ne39_pf):
    with criterion(2, "Kron reduction preserves terminal behavior to 1e-9 over 100 injections"):
        started = time.perf_counter()
        aug, e_mag, _ = augment_internal_nodes(ne39_case, ne39_pf)
        n_bus = len(ne39_case.buses)
        retained = list(range(n_bus, n_bus + len(ne39_case.generators)))
        from gridlink.reduction import kron_reduce

        y_g = kron_reduce(aug, retained)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            inj_red = rng.normal(size=10) + 1j * rng.normal(size=10)
            inj_full = np.zeros(aug.shape[0], dtype=complex)
            inj_full[retained] = inj_red
            v_full = np.linalg.solve(aug, inj_full)[retained]
            v_red = np.linalg.solve(y_g, inj_red)
            assert np.abs(v_full - v_red).max() <= 1e-9 * max(np.abs(v_full).max(), 1e-12)
        assert time.perf_counter() - started < 5.0


def test_criterion_3_monotone_stabilization(ne39_plan_doc):
    with criterion(3, "39-bus plan: alpha strictly decreases and gains diminish >= 10x"):
        doc, elapsed = ne39_plan_doc
        iterations = doc["iterations"]
        assert len(iterations) == 15
        alphas = [doc["baseline_alpha"]] + [row["alpha_max"] for row in iterations]
        assert all(after < before for before, after in zip(alphas, alphas[1:]))
        gains = [row["marginal_gain"] for row in iterations]
        assert gains[0] / gains[-1] >= 10.0
        assert elapsed < 30.0


def test_criterion_4_controlled_improvement_reported(ne39_plan_doc):
    with criterion(4, "15 links strictly improve on the uncontrolled 39-bus system"):
        doc, _ = ne39_plan_doc
        assert doc["final_alpha"] < doc["baseline_alpha"]
        margin = float(doc["meta"]["improvement"])
        assert margin > 0.0
        assert margin == pytest.approx(doc["baseline_alpha"] - doc["final_alpha"], rel=1e-12)


def test_criterion_5_greedy_first_pick_oracle(toy4_model):
    with criterion(5, "greedy first pick equals exhaustive optimum; exhaustive never worse"):
        started = time.perf_counter()
        greedy1 = greedy_plan(toy4_model, budget=1, gain_h=-1.0)
        exhaustive1 = exhaustive_plan(toy4_model, budget=1, gain_h=-1.0)
        assert greedy1.links == exhaustive1.links
        assert len(greedy1.links) == 1
        greedy2 = greedy_plan(toy4_model, budget=2, gain_h=-1.0)
        exhaustive2 = exhaustive_plan(toy4_model, budget=2, gain_h=-1.0)
        assert exhaustive2.final_alpha <= greedy2.final_alpha
        assert time.perf_counter() - started < 10.0


def test_criterion_6_decay_rate_consistency(toy3_model):
    with criterion(6, "fitted trajectory decay rate within 15% of alpha_max"):
        started = time.perf_counter()
        model = toy3_model
        ctl = ControlConfig([(0, 1)], -1.0)
        alpha = spectral_abscissa(model, ctl).alpha_max
        offset = np.zeros(model.n)
        offset[0] = 0.01  # infinity norm of the angle perturbation
        init = equilibrium_state(model)
        init[: model.n] += offset
        states = simulate(init, model, ctl, None, t_max=5.0, dt=1e-3)
        fitted = decay_rate(states, model.op, dt=1e-3, t_start=1.0)
        assert fitted == pytest.approx(alpha, rel=0.15)
        assert time.perf_counter() - started < 10.0


def test_criterion_7_integrator_order(oscillator_model):
    with criterion(7, "halving dt improves RK4 terminal error by 12x-20x"):
        model = oscillator_model
        init = equilibrium_state(model)
        init[:2] += np.array([0.25, -0.25])

        def terminal(dt):
            return simulate(init, model, ControlConfig(), None, t_max=1.0, dt=dt)[-1]

        dt = 0.004
        reference = terminal(dt / 8.0)
        err_coarse = np.linalg.norm(terminal(dt) - reference)
        err_half = np.linalg.norm(terminal(dt / 2.0) - reference)
        assert 12.0 <= err_coarse / err_half <= 20.0


def test_criterion_8_structural_zero_mode(toy3_model, toy4_model, ne39_model):
    with criterion(8, "every bundled case has exactly one deflatable zero mode"):
        for model in (toy3_model, toy4_model, ne39_model):
            jac = jacobian(model, ControlConfig())
            norm = np.linalg.norm(jac, 2)
            eigvals, eigvecs = np.linalg.eig(jac)
            small = np.abs(eigvals) <= 1e-10 * norm
            assert np.count_nonzero(small) == 1
            idx = int(np.argmin(np.abs(eigvals)))
            n = model.n
            shift = np.zeros(2 * n)
            shift[:n] = 1.0 / np.sqrt(n)
            cosine = abs(np.vdot(eigvecs[:, idx], shift)) / np.linalg.norm(eigvecs[:, idx])
            assert cosine >= 0.99
            report = spectral_abscissa(model, ControlConfig())
            assert report.deflated
            assert report.deflated_magnitude <= 1e-10 * norm


def _random_35_generator_model(seed=7):
    rng = np.random.default_rng(seed)
    n = 35
    omega_s = 2.0 * np.pi * 60.0
    b_off = rng.uniform(0.5, 4.0, (n, n))
    b_off = (b_off + b_off.T) / 2.0
    g_off = rng.uniform(-0.4, -0.02, (n, n))
    g_off = (g_off + g_off.T) / 2.0
    y = -(g_off + 1j * b_off)
    np.fill_diagonal(y, 0.0)
    y += np.diag(-y.sum(axis=1) + rng.uniform(0.05, 0.5, n) + 1j * rng.uniform(-2.0, -0.5, n))
    e_mag = rng.uniform(0.95, 1.15, n)
    c, d = coupling_coefficients(y, e_mag)
    net = ReducedNetwork(y_g=y, e_mag=e_mag, c=c, d=d)
    delta_s = rng.uniform(-0.3, 0.3, n)
    from gridlink.dynamics import electrical_power

    op = OperatingPoint(delta_s=delta_s, omega_s=omega_s, p_m_const=electrical_power(delta_s, net))
    m = 2.0 * rng.uniform(20.0, 60.0, n) / omega_s
    return SystemModel(net=net, op=op, m=m, d=np.full(n, 0.05))


def test_criterion_9_planner_scalability(monkeypatch):
    with criterion(9, "35-generator budget-15 plan sweeps all candidates in < 60 s"):
        model = _random_35_generator_model()
        calls = []
        real = gridlink.planner.alpha_for_links

        def counting(model_arg, links, gain):
            calls.append(len(links))
            return real(model_arg, links, gain)

        monkeypatch.setattr(gridlink.planner, "alpha_for_links", counting)
        started = time.perf_counter()
        result = greedy_plan(model, budget=15, gain_h=-1.0, allow_nonpositive=True, workers=1)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        assert len(result.iterations) == 15
        # one baseline evaluation, then full sweeps of 595 down to 581
        sweep_sizes = [595 - i for i in range(15)]
        assert len(calls) == 1 + sum(sweep_sizes)


def test_criterion_10_plan_determinism(tmp_path):
    with criterion(10, "identical plan invocations are byte-identical, serial and parallel"):
        def plan_bytes(name, workers):
            out = tmp_path / f"{name}.json"
            args = ["plan", "--case", str(case_path("newengland39")), "--out", str(out),
                    "--budget", "15", "--gain", "-1", "--workers", str(workers),
                    "--format", "structured"]
            assert main(args) == 0
            return out.read_bytes()

        serial = [plan_bytes(f"s{i}", 1) for i in range(2)]
        parallel = [plan_bytes(f"p{i}", 2) for i in range(2)]
        assert serial[0] == serial[1]
        assert parallel[0] == parallel[1]
        links_serial = [tuple(r["gen_i"] for r in json.loads(serial[0])["iterations"]),
                        tuple(r["gen_k"] for r in json.loads(serial[0])["iterations"])]
        links_parallel = [tuple(r["gen_i"] for r in json.loads(parallel[0])["iterations"]),
                          tuple(r["gen_k"] for r in json.loads(parallel[0])["iterations"])]
        assert links_serial == links_parallel
