import numpy as np
import pytest

from gridlink.case import load_case, parse_case
from gridlink.model import build_system
from gridlink.powerflow import solve_powerflow

TWO_MACHINE_OSCILLATOR = """{
  "base_mva": 100.0, "f0": 60.0,
  "buses": [
    {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0},
    {"id": 2, "kind": "pv", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}
  ],
  "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.5}],
  "generators": [
    {"bus": 1, "p_gen": 0.0, "h": 4.0, "d": 0.0, "xd_prime": 0.1},
    {"bus": 2, "p_gen": 0.0, "h": 4.0, "d": 0.0, "xd_prime": 0.1}
  ]
}"""


def two_bus_feeder(p_load: float) -> str:
    return f"""{{
      "base_mva": 100.0, "f0": 60.0,
      "buses": [
        {{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0, "v_set": 1.0}},
        {{"id": 2, "kind": "pq", "p_load": {p_load}, "q_load": 0.0}}
      ],
      "branches": [{{"from": 1, "to": 2, "r": 0.0, "x": 0.1}}],
      "generators": [{{"bus": 1, "p_gen": {p_load}, "h": 4.0}}]
    }}"""


@pytest.fixture(scope="session")
def toy3_case():
    return load_case("toy3")


@pytest.fixture(scope="session")
def toy4_case():
    return load_case("toy4")


@pytest.fixture(scope="session")
def ne39_case():
    return load_case("newengland39")


@pytest.fixture(scope="session")
def toy3_model(toy3_case):
    return build_system(toy3_case)


@pytest.fixture(scope="session")
def toy4_model(toy4_case):
    return build_system(toy4_case)


@pytest.fixture(scope="session")
def ne39_model(ne39_case):
    return build_system(ne39_case)


@pytest.fixture(scope="session")
def ne39_pf(ne39_case):
    return solve_powerflow(ne39_case)


@pytest.fixture(scope="session")
def oscillator_model():
    return build_system(parse_case(TWO_MACHINE_OSCILLATOR))


def equilibrium_state(model):
    from gridlink.dynamics import MachineState

    return MachineState(delta=model.op.delta_s.copy(), omega=np.full(model.n, model.op.omega_s))


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the planner's worker pool in this process; returns the pool sizes requested.

    No process is started, so a test can ask for any worker count.
    """
    import concurrent.futures

    from gridlink import planner

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(planner, "_worker_args", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes
