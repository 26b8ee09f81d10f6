"""Power-system case records, validation, and bus admittance construction.

Cases are plain JSON documents (see ``parse_case``) holding per-unit bus,
branch and generator data.  Everything downstream works in per-unit on the
system base; ``base_mva`` and ``f0`` are kept only for unit conversion at the
I/O boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

BUS_KINDS = ("slack", "pv", "pq")

# Defaults applied when a case omits dynamic machine data.
DEFAULT_DAMPING = 0.05
DEFAULT_XD_PRIME = 0.1
DEFAULT_H_PER_PU = 4.0  # seconds of inertia per pu of scheduled output


class CaseError(ValueError):
    """Base class for case-document failures."""


class CaseSyntaxError(CaseError):
    """The case document is not well-formed JSON."""


class CaseSchemaError(CaseError):
    """The case document violates the schema or a case invariant."""


@dataclass(frozen=True)
class BusRecord:
    id: int
    kind: str  # "slack" | "pv" | "pq"
    p_load: float
    q_load: float
    v_set: float | None = None  # required for slack/pv
    shunt_g: float = 0.0
    shunt_b: float = 0.0


@dataclass(frozen=True)
class BranchRecord:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0  # total line charging, split half per end
    tap: float = 1.0  # off-nominal turns ratio on the from side


@dataclass(frozen=True)
class GeneratorRecord:
    bus: int
    p_gen: float
    inertia_h: float  # seconds, on the system base
    damping_d: float = DEFAULT_DAMPING  # pu power per rad/s
    xd_prime: float = DEFAULT_XD_PRIME


@dataclass(frozen=True)
class PowerCase:
    """A case that holds every ``validate`` rule: building or replacing one that breaks a rule raises
    CaseSchemaError with the joined report.  Do not mutate its lists afterwards."""

    base_mva: float
    f0: float
    buses: list[BusRecord]
    branches: list[BranchRecord]
    generators: list[GeneratorRecord]

    def __post_init__(self) -> None:
        report = validate(self)
        if report:
            raise CaseSchemaError("; ".join(report))

    @property
    def omega_s(self) -> float:
        """Synchronous speed in rad/s."""
        return 2.0 * math.pi * self.f0

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> position in the bus list."""
        return {bus.id: i for i, bus in enumerate(self.buses)}


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise CaseSchemaError(f"{path}: missing required field '{key}'")
    return obj[key]


def _number(obj: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in obj and default is not None:
        return default
    value = _require(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseSchemaError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the largest float
        value = math.inf
    if not math.isfinite(value):
        raise CaseSchemaError(f"{path}.{key}: expected a finite number")
    return value


def _integer(obj: dict, key: str, path: str) -> int:
    value = _require(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CaseSchemaError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    return value


def _check_object(obj, allowed: set[str], path: str) -> None:
    """CaseSchemaError unless obj is a JSON object whose fields are all in allowed."""
    if not isinstance(obj, dict):
        raise CaseSchemaError(f"{path}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        # quoted as JSON strings, so a name holding a line break stays on the diagnostic's one line
        raise CaseSchemaError(f"{path}: unknown field(s) {', '.join(map(json.dumps, unknown))}")


def parse_case(text: str) -> PowerCase:
    """Parse a JSON case document into a PowerCase, which validates itself.

    Raises CaseSyntaxError for malformed JSON and CaseSchemaError for
    missing/ill-typed fields (with the offending location in the message) or
    violated case invariants (``validate``'s report).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer of too many digits, or nesting too deep
        raise CaseSyntaxError(str(exc)) from exc
    _check_object(doc, {"base_mva", "f0", "buses", "branches", "generators"}, "top level")

    base_mva = _number(doc, "base_mva", "top level")
    f0 = _number(doc, "f0", "top level")

    for key in ("buses", "branches", "generators"):
        if not isinstance(_require(doc, key, "top level"), list):
            raise CaseSchemaError(f"top level.{key}: expected an array")

    buses = []
    for i, entry in enumerate(doc["buses"]):
        path = f"buses[{i}]"
        _check_object(entry, {"id", "kind", "p_load", "q_load", "v_set", "shunt_g", "shunt_b"}, path)
        buses.append(
            BusRecord(
                id=_integer(entry, "id", path),
                kind=_require(entry, "kind", path),
                p_load=_number(entry, "p_load", path),
                q_load=_number(entry, "q_load", path),
                v_set=_number(entry, "v_set", path) if "v_set" in entry else None,
                shunt_g=_number(entry, "shunt_g", path, default=0.0),
                shunt_b=_number(entry, "shunt_b", path, default=0.0),
            )
        )

    branches = []
    for i, entry in enumerate(doc["branches"]):
        path = f"branches[{i}]"
        _check_object(entry, {"from", "to", "r", "x", "b", "tap"}, path)
        branches.append(
            BranchRecord(
                from_bus=_integer(entry, "from", path),
                to_bus=_integer(entry, "to", path),
                r=_number(entry, "r", path),
                x=_number(entry, "x", path),
                b_charging=_number(entry, "b", path, default=0.0),
                tap=_number(entry, "tap", path, default=1.0),
            )
        )

    generators = []
    for i, entry in enumerate(doc["generators"]):
        path = f"generators[{i}]"
        _check_object(entry, {"bus", "p_gen", "h", "d", "xd_prime"}, path)
        p_gen = _number(entry, "p_gen", path)
        generators.append(
            GeneratorRecord(
                bus=_integer(entry, "bus", path),
                p_gen=p_gen,
                inertia_h=_number(entry, "h", path, default=DEFAULT_H_PER_PU * p_gen),
                damping_d=_number(entry, "d", path, default=DEFAULT_DAMPING),
                xd_prime=_number(entry, "xd_prime", path, default=DEFAULT_XD_PRIME),
            )
        )

    return PowerCase(base_mva=base_mva, f0=f0, buses=buses, branches=branches, generators=generators)


def validate(case: PowerCase) -> list[str]:
    """Check every case invariant; returns one entry per violation (empty = valid)."""
    report: list[str] = []
    if case.base_mva <= 0:
        report.append("base_mva must be positive")
    if case.f0 <= 0:
        report.append("f0 must be positive")

    ids = [bus.id for bus in case.buses]
    seen: set[int] = set()
    for bus_id in ids:
        if bus_id in seen:
            report.append(f"duplicate bus id {bus_id}")
        seen.add(bus_id)

    slack_count = sum(1 for bus in case.buses if bus.kind == "slack")
    if slack_count == 0:
        report.append("no slack bus")
    elif slack_count > 1:
        report.append(f"{slack_count} slack buses, expected exactly one")

    kind_by_id = {bus.id: bus.kind for bus in case.buses}
    for bus in case.buses:
        if bus.kind not in BUS_KINDS:
            report.append(f"bus {bus.id}: unknown kind {bus.kind!r}")
        if bus.kind in ("slack", "pv") and bus.v_set is None:
            report.append(f"bus {bus.id}: {bus.kind} bus requires v_set")
        if bus.v_set is not None and bus.v_set <= 0:
            report.append(f"bus {bus.id}: v_set must be positive")

    for i, br in enumerate(case.branches):
        where = f"branch {i} ({br.from_bus}-{br.to_bus})"
        if br.from_bus == br.to_bus:
            report.append(f"{where}: from_bus equals to_bus")
        for end in (br.from_bus, br.to_bus):
            if end not in kind_by_id:
                report.append(f"{where}: references nonexistent bus {end}")
        if br.r == 0.0 and br.x == 0.0:
            report.append(f"{where}: r and x are both zero")
        if br.tap <= 0:
            report.append(f"{where}: tap must be positive")

    if slack_count == 1:
        # breadth-first search over the branches from the slack bus
        neighbours: dict[int, list[int]] = {bus_id: [] for bus_id in kind_by_id}
        for br in case.branches:
            if br.from_bus in neighbours and br.to_bus in neighbours:
                neighbours[br.from_bus].append(br.to_bus)
                neighbours[br.to_bus].append(br.from_bus)
        queue = [next(bus.id for bus in case.buses if bus.kind == "slack")]
        reached = set(queue)
        for bus_id in queue:  # the queue grows while it is read
            for other in neighbours[bus_id]:
                if other not in reached:
                    reached.add(other)
                    queue.append(other)
        islanded = sorted(set(neighbours) - reached)
        if islanded:
            report.append(f"no branch path from slack bus {queue[0]} to bus(es) {', '.join(map(str, islanded))}")

    if not case.generators:
        report.append("case has no generators")
    for i, gen in enumerate(case.generators):
        where = f"generator {i} (bus {gen.bus})"
        kind = kind_by_id.get(gen.bus)
        if kind is None:
            report.append(f"{where}: references nonexistent bus {gen.bus}")
        elif kind == "pq":
            report.append(f"{where}: generator bus must be slack or pv")
        if gen.inertia_h <= 0:
            report.append(f"{where}: inertia_h must be positive")
        if gen.damping_d < 0:
            report.append(f"{where}: damping_d must be nonnegative")
        if gen.xd_prime <= 0:
            report.append(f"{where}: xd_prime must be positive")
    return report


def build_ybus(case: PowerCase) -> np.ndarray:
    """Dense N x N complex bus admittance matrix (pi-model branches, bus shunts).

    Off-nominal taps sit on the from side: the series admittance enters the
    from diagonal as y/tap^2 and both off-diagonals as -y/tap, so the matrix
    stays complex-symmetric for any tap.
    """
    index = case.bus_index()
    n = len(case.buses)
    y = np.zeros((n, n), dtype=complex)
    for bus in case.buses:
        y[index[bus.id], index[bus.id]] += complex(bus.shunt_g, bus.shunt_b)
    for br in case.branches:
        f, t = index[br.from_bus], index[br.to_bus]
        y_series = 1.0 / complex(br.r, br.x)
        y_half = 0.5j * br.b_charging
        a = br.tap
        y[f, f] += (y_series + y_half) / (a * a)
        y[t, t] += y_series + y_half
        y[f, t] -= y_series / a
        y[t, f] -= y_series / a
    return y


def case_path(name: str) -> Path:
    """Filesystem path of a bundled case ('toy3', 'toy4', 'newengland39')."""
    return Path(str(resources.files("gridlink").joinpath("cases", f"{name}.json")))


def load_case(name_or_path: str | Path) -> PowerCase:
    """Load a case from a bundled name or a filesystem path."""
    path = Path(name_or_path)
    if not path.exists() and not str(name_or_path).endswith(".json"):
        path = case_path(str(name_or_path))
    return parse_case(path.read_text(encoding="utf-8"))
