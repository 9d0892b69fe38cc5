"""Scenario documents (YAML) and gains files (JSON).

Scenario documents are versioned, schema-checked on load (unknown keys are
rejected), and round-trip exactly through ``scenario_to_dict`` /
``scenario_from_dict``.  Each section backed by a config dataclass is read
and written from that dataclass's fields: its keys are the field names, an
absent key takes the field's default and a field without a default is a
required key.  Gains files round-trip bitwise: floats are written with
Python's shortest-repr JSON encoding, which preserves every bit of an IEEE
double.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import yaml

from .collision import AvoidanceConfig
from .controllers import ControllerConfig, PerturbationConfig, ScaleConfig
from .dynamics import ActuatorParams
from .errors import ConfigurationError
from .gains import GainMatrix, SolveInfo, SpectrumReport
from .geometry import FormationSpec, SensingGraph
from .sim import AgentModel, InitSpec, Scenario, SimConfig

SCENARIO_VERSION = 1
GAINS_VERSION = 1


def _typed(value, kind: type, where: str):
    """``value`` if it is a ``kind``; a tuple passes for a list."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ConfigurationError(f"{where} must be of type {kind.__name__}; got {value!r}")
    return value


def _number(value, where: str, kind=float):
    """``kind(value)``, refusing a value that is not a finite number.

    YAML booleans and strings are refused, although ``float`` takes them."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        number = kind(value)
        if kind is int and number != value:  # int() truncates 1.7
            raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"{where} must be of type {kind.__name__}; got {value!r}"
        ) from exc
    if not math.isfinite(number):
        raise ConfigurationError(f"{where} must be finite; NaN or infinity found")
    return number


def _numbers(values, where: str, kind=float) -> tuple:
    return tuple(_number(v, where, kind) for v in _typed(values, list, where))


def _check_keys(d: dict, allowed: set[str], where: str, required=()) -> None:
    unknown = set(_typed(d, dict, where)) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )
    missing = [key for key in required if key not in d]
    if missing:
        raise ConfigurationError(f"{where} missing required key(s) {missing}")


def _row(entry, size: int, where: str):
    """``entry`` if it is a list of exactly ``size`` items."""
    if not isinstance(entry, (list, tuple)) or len(entry) != size:
        raise ConfigurationError(f"bad {where} entry {entry!r}; expected {size} items")
    return entry


def _finite(value, field: str) -> np.ndarray:
    """``value`` as a float array, refusing NaN and infinities anywhere in it."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{field} must be numbers; got {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{field} must be finite; NaN or infinity found")
    return arr


def _plain(value):
    """Plain YAML/JSON data: a dataclass becomes a mapping of its fields that
    are not None, ``ActuatorParams`` a row of four numbers, tuples and arrays
    lists, edge-keyed mappings ``"i-j"`` keys and numpy scalars Python ones."""
    if isinstance(value, ActuatorParams):
        return _plain(dataclasses.astuple(value))
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, dict):
        return {f"{i}-{j}": _plain(v) for (i, j), v in sorted(value.items())}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


# ---------------------------------------------------------------------------
# Scenario documents


def _as_is(value, where: str):
    """Strings go to the dataclass unchanged; its own check names a bad value."""
    return value


def _int(value, where: str) -> int:
    return _number(value, where, int)


def _bool(value, where: str) -> bool:
    return _typed(value, bool, where)


def _pair(value, where: str) -> tuple:
    return _numbers(_row(value, 2, where), where)


def _actuators(value, where: str) -> tuple[ActuatorParams, ...]:
    return tuple(ActuatorParams(*_numbers(_row(row, 4, where), where))
                 for row in _typed(value, list, where))


def _parse_edge_key(key) -> tuple[int, int]:
    try:
        i, j = str(key).split("-")
        return (int(i), int(j))
    except ValueError as exc:
        raise ConfigurationError(f"bad edge key {key!r}; expected 'i-j'") from exc


def _edge_values(value, where: str) -> dict[tuple[int, int], float]:
    return {_parse_edge_key(k): _number(v, f"{where}.{k}")
            for k, v in _typed(value, dict, where).items()}


def _section(value, where: str):
    """The dataclass of section ``where`` built from the mapping ``value``."""
    cls, parsers = _SECTIONS[where]
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    _check_keys(value, {f.name for f in fields}, where, required)
    return cls(**{key: parsers[key](v, f"{where}.{key}") for key, v in value.items()})


# Section -> (config dataclass, parser per field).
_SECTIONS = {
    "agents": (AgentModel, {
        "dynamics": _as_is, "chain_order": _int, "kinematic_only": _bool,
        "actuators": _actuators, "wheelbase": _number, "drive": _as_is,
    }),
    "controller": (ControllerConfig, {
        "u_max": _number, "v_max": _number, "omega_max": _number, "phi_max": _number,
        "k_chain": _numbers, "chain_variant": _as_is, "k0_int": _number,
        "k1_int": _number, "k_s": _number, "actuator_mode": _as_is,
        "scale": _section, "perturbation": _section,
    }),
    "controller.scale": (ScaleConfig, {
        "d_star": _edge_values, "f_kind": _as_is, "k_f": _number,
    }),
    "controller.perturbation": (PerturbationConfig, {"c": _numbers, "alpha": _numbers}),
    "avoidance": (AvoidanceConfig, {"r": _number, "d_c": _number, "margin": _number}),
    "sim": (SimConfig, {
        "dt": _number, "t_final": _number, "seed": _int, "init": _section,
        "convergence_threshold": _number, "measurement_noise": _number,
    }),
    "sim.init": (InitSpec, {"kind": _as_is, "low": _pair, "high": _pair, "states": _finite}),
}
# Scenario fields written and read through _plain and _section, in file order.
_CONFIG_SECTIONS = ("agents", "controller", "avoidance", "sim")


def scenario_to_dict(scenario: Scenario, graph_names: list[str] | None = None) -> dict:
    """Plain-data form of a scenario, suitable for YAML serialization."""
    if graph_names is None:
        graph_names = [f"g{k}" for k in range(len(scenario.topologies))]
    if len(graph_names) != len(scenario.topologies):
        raise ConfigurationError("one graph name per topology required")
    doc: dict = {"version": SCENARIO_VERSION}
    doc["formation"] = {
        "coordinates": [[float(x), float(y)] for x, y in scenario.formation.points()],
        "center": scenario.formation.centered,
    }
    doc["graphs"] = {
        name: [[i, j] for i, j in g.edge_list]
        for name, g in zip(graph_names, scenario.topologies)
    }
    doc["schedule"] = [[float(t), graph_names[k]] for t, k in scenario.schedule]
    for name in (*_CONFIG_SECTIONS, "frame_angles"):
        if getattr(scenario, name) is not None:
            doc[name] = _plain(getattr(scenario, name))
    return doc


def scenario_from_dict(doc: dict) -> tuple[Scenario, list[str]]:
    """Build a Scenario from plain data; returns it with the graph name order."""
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a mapping")
    _check_keys(
        doc,
        {"version", "formation", "graphs", "schedule", *_CONFIG_SECTIONS, "frame_angles"},
        "scenario",
        ("formation", "graphs", "schedule"),
    )
    if doc.get("version") != SCENARIO_VERSION:
        raise ConfigurationError(
            f"unsupported scenario version {doc.get('version')!r}"
        )
    formation_doc = doc["formation"]
    _check_keys(formation_doc, {"coordinates", "center"}, "formation", ("coordinates",))
    coords = _finite(formation_doc["coordinates"], "formation.coordinates")
    formation = FormationSpec.from_coordinates(
        coords, center=_bool(formation_doc.get("center", True), "formation.center")
    )
    n = formation.n

    graphs_doc = doc["graphs"]
    if not isinstance(graphs_doc, dict) or not graphs_doc:
        raise ConfigurationError("graphs must be a nonempty mapping of name -> edges")
    graph_names = list(graphs_doc)
    topologies = []
    for name, edges in graphs_doc.items():
        where = f"graphs.{name}"
        pairs = [_row(e, 2, where) for e in _typed(edges, list, where)]
        topologies.append(SensingGraph(n, [_numbers(p, where, int) for p in pairs]))

    schedule = []
    for entry in _typed(doc["schedule"], list, "schedule"):
        t, name = _row(entry, 2, "schedule")
        if name not in graph_names:
            raise ConfigurationError(f"schedule references unknown graph {name!r}")
        schedule.append((_number(t, "schedule time"), graph_names.index(name)))

    sections = {name: _section(doc[name], name) for name in _CONFIG_SECTIONS if name in doc}
    if "frame_angles" in doc:
        sections["frame_angles"] = _numbers(doc["frame_angles"], "frame_angles")
    scenario = Scenario(
        formation=formation,
        topologies=tuple(topologies),
        schedule=tuple(schedule),
        **sections,
    )
    return scenario, graph_names


class _ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that also reads the YAML 1.2 floats with an exponent that
    YAML 1.1 leaves as strings: no decimal point (``1e-2``) or no exponent
    sign (``2.5e3``)."""


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_scenario(path: str) -> tuple[Scenario, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_ScenarioLoader)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse scenario {path}: {exc}") from exc
    return scenario_from_dict(doc)


def save_scenario(
    path: str, scenario: Scenario, graph_names: list[str] | None = None
) -> None:
    doc = scenario_to_dict(scenario, graph_names)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


# ---------------------------------------------------------------------------
# Gains files


def save_gains(
    path: str,
    matrices: list[GainMatrix],
    info: SolveInfo,
    reports: list[SpectrumReport],
    trace_budget: float,
) -> None:
    """Persist gain matrices with solver metadata and spectrum reports."""
    doc = {
        "version": GAINS_VERSION,
        "n": int(matrices[0].n),
        "trace_budget": float(trace_budget),
        "matrices": [
            {
                "edges": [[i, j, a, b] for (i, j), (a, b)
                          in zip(gm.graph.edge_list, gm.params.tolist())],
                "spectrum": {**_plain(rep), "passed": bool(rep.passed)},
            }
            for gm, rep in zip(matrices, reports)
        ],
        "solver": _plain(info),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_gains(path: str) -> tuple[list[GainMatrix], dict]:
    """Load gain matrices; returns them with the full metadata document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"cannot parse gains file {path}: {exc}") from exc
    _check_keys(doc, {"version", "n", "trace_budget", "matrices", "solver"}, "gains",
                ("n", "matrices"))
    if doc.get("version") != GAINS_VERSION:
        raise ConfigurationError(f"unsupported gains version {doc.get('version')!r}")
    n = _int(doc["n"], "gains.n")
    matrices = []
    where = "gains.matrices[].edges"
    for entry in _typed(doc["matrices"], list, "gains.matrices"):
        _check_keys(entry, {"edges", "spectrum"}, "gains.matrices[]", ("edges",))
        rows = [_row(e, 4, where) for e in _typed(entry["edges"], list, where)]
        edges = [_numbers(row[:2], where, int) for row in rows]
        values = np.array([_numbers(row[2:], where) for row in rows]).reshape(-1, 2)
        if any(i >= j for i, j in edges):
            raise ConfigurationError(f"every {where} row [i, j, a, b] needs i < j")
        graph = SensingGraph(n, edges)
        if len(graph.edge_list) < len(edges):
            twice = next(e for k, e in enumerate(edges) if e in edges[:k])
            raise ConfigurationError(f"{where} has two rows for edge {twice}")
        i, j = np.array(edges, dtype=np.intp).reshape(-1, 2).T  # rows go in (i, j) order
        matrices.append(GainMatrix(graph, values[np.lexsort((j, i))]))
    return matrices, doc
