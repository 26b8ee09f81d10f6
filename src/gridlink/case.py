"""Power-system case records, validation, and bus admittance construction.

Cases are plain JSON documents (see ``parse_case``) holding per-unit bus,
branch and generator data.  Everything downstream works in per-unit on the
system base; ``base_mva`` and ``f0`` are kept only for unit conversion at the
I/O boundary.
"""

from __future__ import annotations

import json
import math
import reprlib
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

BUS_KINDS = ("slack", "pv", "pq")

# Defaults applied when a case omits dynamic machine data.
DEFAULT_DAMPING = 0.05
DEFAULT_XD_PRIME = 0.1
DEFAULT_H_PER_PU = 4.0  # seconds of inertia per pu of scheduled output


class InputError(ValueError):
    """A caller's argument or input document breaks a rule (the CLI's exit code 2)."""


class CaseError(InputError):
    """Base class for case-document failures."""


class CaseSyntaxError(CaseError):
    """The case document is not well-formed JSON."""


class CaseSchemaError(CaseError):
    """The case document violates the schema or a case invariant."""


# A field is read from the JSON key of its name, or from metadata["key"]; a field with a default may be
# omitted, and each value is checked against the field's annotation (see _record).


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
    from_bus: int = field(metadata={"key": "from"})
    to_bus: int = field(metadata={"key": "to"})
    r: float
    x: float
    b_charging: float = field(default=0.0, metadata={"key": "b"})  # total line charging, split half per end
    tap: float = 1.0  # off-nominal turns ratio on the from side


@dataclass(frozen=True)
class GeneratorRecord:
    bus: int
    p_gen: float
    # seconds, on the system base; None (omitted) stores DEFAULT_H_PER_PU * p_gen
    inertia_h: float | None = field(default=None, metadata={"key": "h"})
    damping_d: float = field(default=DEFAULT_DAMPING, metadata={"key": "d"})  # pu power per rad/s
    xd_prime: float = DEFAULT_XD_PRIME

    def __post_init__(self) -> None:
        if self.inertia_h is None:
            object.__setattr__(self, "inertia_h", DEFAULT_H_PER_PU * self.p_gen)


@dataclass(frozen=True)
class PowerCase:
    """A case that holds every ``validate`` rule: building or replacing one that breaks a rule raises
    CaseSchemaError with the joined report, its first two entries and a count of the rest.  Do not
    mutate its lists afterwards."""

    base_mva: float
    f0: float
    buses: list[BusRecord]
    branches: list[BranchRecord]
    generators: list[GeneratorRecord]

    def __post_init__(self) -> None:
        report = validate(self)
        if report:
            shown = report if len(report) <= 2 else [*report[:2], f"... and {len(report) - 2} more"]
            raise CaseSchemaError("; ".join(shown))

    @property
    def omega_s(self) -> float:
        """Synchronous speed in rad/s."""
        return 2.0 * math.pi * self.f0

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> position in the bus list."""
        return {bus.id: i for i, bus in enumerate(self.buses)}


def _field_table(cls: type) -> dict[str, tuple[str, type, bool]]:
    """JSON key -> (field name, value type, required) for each field of cls, in field order."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in fields(cls):
        kind = hints[f.name]
        if isinstance(kind, types.UnionType):  # float | None: None only as the default
            kind = typing.get_args(kind)[0]
        elif typing.get_origin(kind) is list:  # list[BusRecord], say: kept as the record type
            [kind] = typing.get_args(kind)
        table[f.metadata.get("key", f.name)] = (f.name, kind, f.default is MISSING)
    return table


_FIELDS = {cls: _field_table(cls) for cls in (PowerCase, BusRecord, BranchRecord, GeneratorRecord)}
_EXPECTED = {int: "an integer", float: "a number", str: "a string"}


def _value(value, kind, key: str, path: str):
    """value checked against kind: a finite float, an int, a str, or (kind a record) an array of records."""
    if kind in _FIELDS:
        if not isinstance(value, list):
            raise CaseSchemaError(f"{path}.{key}: expected an array")
        return [_record(kind, entry, f"{key}[{i}]") for i, entry in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise CaseSchemaError(f"{path}.{key}: expected {_EXPECTED[kind]}, got {type(value).__name__}")
    if kind is not float:
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the largest float
        value = math.inf
    if not math.isfinite(value):
        raise CaseSchemaError(f"{path}.{key}: expected a finite number")
    return value


def _record(cls: type, entry, path: str):
    """cls built from the JSON object entry, its fields read in field order; CaseSchemaError names path."""
    table = _FIELDS[cls]
    if not isinstance(entry, dict):
        raise CaseSchemaError(f"{path}: expected an object")
    if unknown := sorted(set(entry) - table.keys()):
        raise CaseSchemaError(f"{path}: unknown field(s) {reprlib.repr(unknown)[1:-1]}")  # without the brackets
    values = {}
    for key, (name, kind, required) in table.items():
        if key in entry:
            values[name] = _value(entry[key], kind, key, path)
        elif required:
            raise CaseSchemaError(f"{path}: missing required field '{key}'")
    return cls(**values)


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
    return _record(PowerCase, doc, "top level")


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
            report.append(f"duplicate bus id {reprlib.repr(bus_id)}")
        seen.add(bus_id)

    slack_count = sum(1 for bus in case.buses if bus.kind == "slack")
    if slack_count == 0:
        report.append("no slack bus")
    elif slack_count > 1:
        report.append(f"{slack_count} slack buses, expected exactly one")

    kind_by_id = {bus.id: bus.kind for bus in case.buses}
    for bus in case.buses:
        where = f"bus {reprlib.repr(bus.id)}"
        if bus.kind not in BUS_KINDS:
            report.append(f"{where}: unknown kind {reprlib.repr(bus.kind)}")
        if bus.kind in ("slack", "pv") and bus.v_set is None:
            report.append(f"{where}: {bus.kind} bus requires v_set")
        if bus.v_set is not None and bus.v_set <= 0:
            report.append(f"{where}: v_set must be positive")

    for i, br in enumerate(case.branches):
        where = f"branch {i} ({reprlib.repr(br.from_bus)}-{reprlib.repr(br.to_bus)})"
        if br.from_bus == br.to_bus:
            report.append(f"{where}: from_bus equals to_bus")
        for end in (br.from_bus, br.to_bus):
            if end not in kind_by_id:
                report.append(f"{where}: references nonexistent bus {reprlib.repr(end)}")
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
            slack = reprlib.repr(queue[0])
            report.append(f"no branch path from slack bus {slack} to bus(es) {reprlib.repr(islanded)[1:-1]}")

    if not case.generators:
        report.append("case has no generators")
    for i, gen in enumerate(case.generators):
        where = f"generator {i} (bus {reprlib.repr(gen.bus)})"
        kind = kind_by_id.get(gen.bus)
        if kind is None:
            report.append(f"{where}: references nonexistent bus {reprlib.repr(gen.bus)}")
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
    return Path(__file__).with_name("cases") / f"{name}.json"


def load_case(name_or_path: str | Path) -> PowerCase:
    """Load a case from a bundled name or a filesystem path."""
    path = Path(name_or_path)
    if not path.exists() and not str(name_or_path).endswith(".json"):
        path = case_path(str(name_or_path))
    return parse_case(path.read_text(encoding="utf-8"))
