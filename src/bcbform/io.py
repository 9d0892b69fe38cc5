"""Scenario documents (YAML) and gains files (JSON).

Scenario documents are versioned, schema-checked on load (unknown keys are
rejected), and round-trip exactly through ``scenario_to_dict`` /
``scenario_from_dict``.  Gains files round-trip bitwise: floats are written
with Python's shortest-repr JSON encoding, which preserves every bit of an
IEEE double.
"""

from __future__ import annotations

import json

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


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _finite(value, field: str) -> np.ndarray:
    """``value`` as a float array, refusing NaN and infinities anywhere in it."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{field} must be finite; NaN or infinity found")
    return arr


# ---------------------------------------------------------------------------
# Scenario documents


def scenario_to_dict(scenario: Scenario, graph_names: list[str] | None = None) -> dict:
    """Plain-data form of a scenario, suitable for YAML serialization."""
    if graph_names is None:
        graph_names = [f"g{k}" for k in range(len(scenario.topologies))]
    if len(graph_names) != len(scenario.topologies):
        raise ConfigurationError("one graph name per topology required")
    doc: dict = {"version": SCENARIO_VERSION}
    doc["formation"] = {
        "coordinates": [[float(x), float(y)] for x, y in scenario.formation.points()]
    }
    doc["graphs"] = {
        name: [[i, j] for i, j in g.edge_list]
        for name, g in zip(graph_names, scenario.topologies)
    }
    doc["schedule"] = [[float(t), graph_names[k]] for t, k in scenario.schedule]
    model = scenario.agents
    agents: dict = {"dynamics": model.dynamics}
    if model.dynamics == "chain":
        agents["chain_order"] = model.chain_order
    if model.dynamics in ("unicycle", "car"):
        agents["kinematic_only"] = model.kinematic_only
    if model.actuators is not None:
        agents["actuators"] = [
            [float(p.a), float(p.b), float(p.c), float(p.d)]
            for p in model.actuators
        ]
    if model.dynamics == "car":
        agents["wheelbase"] = model.wheelbase
        agents["drive"] = model.drive
    doc["agents"] = agents

    cfg = scenario.controller
    controller: dict = {}
    for name in ("u_max", "v_max", "omega_max", "phi_max", "k0_int", "k1_int", "k_s"):
        val = getattr(cfg, name)
        if val is not None:
            controller[name] = float(val)
    if model.dynamics == "chain":
        controller["k_chain"] = [float(v) for v in cfg.k_chain]
        controller["chain_variant"] = cfg.chain_variant
    if cfg.actuator_mode != "direct":
        controller["actuator_mode"] = cfg.actuator_mode
    if cfg.scale is not None:
        controller["scale"] = {
            "d_star": {f"{i}-{j}": float(d) for (i, j), d in sorted(cfg.scale.d_star.items())},
            "f_kind": cfg.scale.f_kind,
            "k_f": float(cfg.scale.k_f),
        }
    if cfg.perturbation is not None:
        controller["perturbation"] = {
            "c": [float(v) for v in cfg.perturbation.c],
            "alpha": [float(v) for v in cfg.perturbation.alpha],
        }
    doc["controller"] = controller

    if scenario.avoidance is not None:
        doc["avoidance"] = {"r": float(scenario.avoidance.r),
                            "d_c": float(scenario.avoidance.d_c)}
        if scenario.avoidance.margin:
            doc["avoidance"]["margin"] = float(scenario.avoidance.margin)

    sim = scenario.sim
    init: dict = {"kind": sim.init.kind}
    if sim.init.kind == "box":
        init["low"] = [float(v) for v in sim.init.low]
        init["high"] = [float(v) for v in sim.init.high]
    else:
        init["states"] = [[float(v) for v in row] for row in np.asarray(sim.init.states)]
    doc["sim"] = {
        "dt": float(sim.dt),
        "t_final": float(sim.t_final),
        "seed": int(sim.seed),
        "convergence_threshold": float(sim.convergence_threshold),
        "measurement_noise": float(sim.measurement_noise),
        "init": init,
    }
    if scenario.frame_angles is not None:
        doc["frame_angles"] = [float(v) for v in scenario.frame_angles]
    return doc


def _parse_edge_key(key: str) -> tuple[int, int]:
    try:
        i, j = key.split("-")
        return (int(i), int(j))
    except ValueError as exc:
        raise ConfigurationError(f"bad edge key {key!r}; expected 'i-j'") from exc


def scenario_from_dict(doc: dict) -> tuple[Scenario, list[str]]:
    """Build a Scenario from plain data; returns it with the graph name order."""
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a mapping")
    _check_keys(
        doc,
        {"version", "formation", "graphs", "schedule", "agents", "controller",
         "avoidance", "sim", "frame_angles"},
        "scenario",
    )
    if doc.get("version") != SCENARIO_VERSION:
        raise ConfigurationError(
            f"unsupported scenario version {doc.get('version')!r}"
        )
    for section in ("formation", "graphs", "schedule"):
        if section not in doc:
            raise ConfigurationError(f"scenario missing required section {section!r}")

    formation_doc = doc["formation"]
    _check_keys(formation_doc, {"coordinates", "center"}, "formation")
    coords = _finite(formation_doc["coordinates"], "formation.coordinates")
    formation = FormationSpec.from_coordinates(
        coords, center=formation_doc.get("center", True)
    )
    n = formation.n

    graphs_doc = doc["graphs"]
    if not isinstance(graphs_doc, dict) or not graphs_doc:
        raise ConfigurationError("graphs must be a nonempty mapping of name -> edges")
    graph_names = list(graphs_doc)
    topologies = tuple(
        SensingGraph(n, [(int(i), int(j)) for i, j in edges])
        for edges in graphs_doc.values()
    )

    schedule = []
    for entry in doc["schedule"]:
        t, name = entry
        if name not in graph_names:
            raise ConfigurationError(f"schedule references unknown graph {name!r}")
        schedule.append((float(t), graph_names.index(name)))

    agents_doc = doc.get("agents", {})
    _check_keys(
        agents_doc,
        {"dynamics", "chain_order", "kinematic_only", "actuators",
         "wheelbase", "drive"},
        "agents",
    )
    actuators = None
    if "actuators" in agents_doc:
        actuators = tuple(
            ActuatorParams(*[float(v) for v in row]) for row in agents_doc["actuators"]
        )
    model = AgentModel(
        dynamics=agents_doc.get("dynamics", "single_integrator"),
        chain_order=int(agents_doc.get("chain_order", 3)),
        kinematic_only=bool(agents_doc.get("kinematic_only", True)),
        actuators=actuators,
        wheelbase=float(agents_doc.get("wheelbase", 1.0)),
        drive=agents_doc.get("drive", "front"),
    )

    ctl_doc = doc.get("controller", {})
    _check_keys(
        ctl_doc,
        {"u_max", "v_max", "omega_max", "phi_max", "k_chain", "chain_variant",
         "k0_int", "k1_int", "k_s", "actuator_mode", "scale", "perturbation"},
        "controller",
    )
    scale = None
    if "scale" in ctl_doc:
        sdoc = ctl_doc["scale"]
        _check_keys(sdoc, {"d_star", "f_kind", "k_f"}, "controller.scale")
        scale = ScaleConfig(
            d_star={_parse_edge_key(k): float(v) for k, v in sdoc["d_star"].items()},
            f_kind=sdoc.get("f_kind", "tanh"),
            k_f=float(sdoc.get("k_f", 1.0)),
        )
    perturbation = None
    if "perturbation" in ctl_doc:
        pdoc = ctl_doc["perturbation"]
        _check_keys(pdoc, {"c", "alpha"}, "controller.perturbation")
        perturbation = PerturbationConfig(
            c=tuple(float(v) for v in pdoc["c"]),
            alpha=tuple(float(v) for v in pdoc["alpha"]),
        )

    def opt_float(key):
        if key not in ctl_doc:
            return None
        return float(_finite(ctl_doc[key], f"controller.{key}"))

    controller = ControllerConfig(
        u_max=opt_float("u_max"),
        v_max=opt_float("v_max"),
        omega_max=opt_float("omega_max"),
        phi_max=opt_float("phi_max"),
        k_chain=tuple(float(v) for v in ctl_doc.get("k_chain", (1.0,))),
        chain_variant=ctl_doc.get("chain_variant", "identity_derivatives"),
        k0_int=opt_float("k0_int"),
        k1_int=opt_float("k1_int"),
        k_s=opt_float("k_s"),
        actuator_mode=ctl_doc.get("actuator_mode", "direct"),
        scale=scale,
        perturbation=perturbation,
    )

    avoidance = None
    if "avoidance" in doc:
        adoc = doc["avoidance"]
        _check_keys(adoc, {"r", "d_c", "margin"}, "avoidance")
        avoidance = AvoidanceConfig(
            r=float(adoc["r"]), d_c=float(adoc["d_c"]),
            margin=float(adoc.get("margin", 0.0)),
        )

    sim_doc = doc.get("sim", {})
    _check_keys(
        sim_doc,
        {"dt", "t_final", "seed", "convergence_threshold", "measurement_noise",
         "init"},
        "sim",
    )
    init_doc = sim_doc.get("init", {"kind": "box"})
    _check_keys(init_doc, {"kind", "low", "high", "states"}, "sim.init")
    kind = init_doc.get("kind", "box")
    if kind == "explicit":
        init = InitSpec(
            kind="explicit",
            states=_finite(init_doc["states"], "sim.init.states"),
        )
    else:
        low = _finite(init_doc.get("low", (-5.0, -5.0)), "sim.init.low")
        high = _finite(init_doc.get("high", (5.0, 5.0)), "sim.init.high")
        init = InitSpec(
            kind=kind,
            low=tuple(float(v) for v in low),
            high=tuple(float(v) for v in high),
        )
    sim = SimConfig(
        dt=float(_finite(sim_doc.get("dt", 0.01), "sim.dt")),
        t_final=float(_finite(sim_doc.get("t_final", 60.0), "sim.t_final")),
        seed=int(sim_doc.get("seed", 42)),
        init=init,
        convergence_threshold=float(sim_doc.get("convergence_threshold", 1e-3)),
        measurement_noise=float(sim_doc.get("measurement_noise", 0.0)),
    )

    frame_angles = None
    if "frame_angles" in doc:
        angles = _finite(doc["frame_angles"], "frame_angles")
        frame_angles = tuple(float(v) for v in angles)

    scenario = Scenario(
        formation=formation,
        topologies=topologies,
        schedule=tuple(schedule),
        agents=model,
        controller=controller,
        avoidance=avoidance,
        sim=sim,
        frame_angles=frame_angles,
    )
    return scenario, graph_names


def load_scenario(path: str) -> tuple[Scenario, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
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


def _spectrum_to_dict(report: SpectrumReport) -> dict:
    return {
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "zero_count": int(report.zero_count),
        "spectral_gap": float(report.spectral_gap),
        "kernel_residual": float(report.kernel_residual),
        "zero_tolerance": float(report.zero_tolerance),
        "passed": bool(report.passed),
    }


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
                "edges": [
                    [int(i), int(j), float(a), float(b)]
                    for (i, j), (a, b) in sorted(gm.blocks.items())
                    if i < j
                ],
                "spectrum": _spectrum_to_dict(rep),
            }
            for gm, rep in zip(matrices, reports)
        ],
        "solver": {
            "algorithm": info.algorithm,
            "iterations": int(info.iterations),
            "gamma": float(info.gamma),
            "primal_residual": float(info.primal_residual),
            "dual_residual": float(info.dual_residual),
            "converged": bool(info.converged),
        },
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
    _check_keys(doc, {"version", "n", "trace_budget", "matrices", "solver"}, "gains")
    if doc.get("version") != GAINS_VERSION:
        raise ConfigurationError(f"unsupported gains version {doc.get('version')!r}")
    n = int(doc["n"])
    matrices = []
    for entry in doc["matrices"]:
        _check_keys(entry, {"edges", "spectrum"}, "gains.matrices[]")
        edges = [(int(i), int(j)) for i, j, _, _ in entry["edges"]]
        params = {
            (int(i), int(j)): (float(a), float(b)) for i, j, a, b in entry["edges"]
        }
        graph = SensingGraph(n, edges)
        matrices.append(GainMatrix.from_edge_params(graph, params))
    return matrices, doc
