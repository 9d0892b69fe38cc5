"""Scenario YAML and gains JSON serialization."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
import yaml

from bcbform.collision import AvoidanceConfig
from bcbform.controllers import ControllerConfig, PerturbationConfig, ScaleConfig
from bcbform.cli import DEMO_NAMES, demo_scenario
from bcbform.dynamics import ActuatorParams
from bcbform.errors import ConfigurationError
from bcbform.gains import design_gains, verify_gains
from bcbform.geometry import FormationSpec, SensingGraph, build_kernel_basis
from bcbform.io import (
    _SECTIONS,
    load_gains,
    load_scenario,
    save_gains,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from bcbform.sim import AgentModel, InitSpec, Scenario, SimConfig

HEX_POINTS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def rich_scenario():
    spec = FormationSpec.from_coordinates(HEX_POINTS)
    cycle = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    full = SensingGraph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
    return Scenario(
        formation=spec,
        topologies=(cycle, full),
        schedule=((0.0, 0), (10.0, 1)),
        agents=AgentModel(
            dynamics="unicycle",
            kinematic_only=False,
            actuators=tuple(ActuatorParams(5.0 + i, 6.0, 7.0, 8.0) for i in range(6)),
        ),
        controller=ControllerConfig(
            v_max=3.0,
            omega_max=math.pi / 4,
            k_s=5.0,
            actuator_mode="velocity_feedback",
            perturbation=PerturbationConfig(c=(1.0,) * 6, alpha=(0.1,) * 6),
        ),
        avoidance=AvoidanceConfig(r=0.1, d_c=0.25, margin=0.01),
        sim=SimConfig(dt=0.005, t_final=80.0, seed=7,
                      convergence_threshold=1e-2),
        frame_angles=tuple(0.1 * k for k in range(6)),
    )


class TestScenarioRoundTrip:
    def test_dict_round_trip_identity(self):
        scenario = rich_scenario()
        doc = scenario_to_dict(scenario, ["cycle", "full"])
        back, names = scenario_from_dict(doc)
        assert names == ["cycle", "full"]
        doc2 = scenario_to_dict(back, names)
        # Re-centering on load is not bitwise idempotent; everything else is.
        assert np.allclose(doc2.pop("formation")["coordinates"],
                           doc.pop("formation")["coordinates"], atol=1e-15)
        assert doc2 == doc

    def test_uncentered_formation_round_trip(self):
        spec = FormationSpec.from_coordinates([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)],
                                              center=False)
        scenario = Scenario(formation=spec, topologies=(SensingGraph(3, [(1, 2), (2, 3)]),),
                            schedule=((0.0, 0),))
        back, _ = scenario_from_dict(scenario_to_dict(scenario))
        assert not back.formation.centered
        assert np.array_equal(back.formation.q_star, spec.q_star)

    def test_file_round_trip(self, tmp_path):
        scenario = rich_scenario()
        path = tmp_path / "scenario.yaml"
        save_scenario(str(path), scenario, ["cycle", "full"])
        back, names = load_scenario(str(path))
        assert np.allclose(back.formation.q_star, scenario.formation.q_star)
        assert back.topologies == scenario.topologies
        assert back.schedule == scenario.schedule
        assert back.agents == scenario.agents
        assert back.controller == scenario.controller
        assert back.avoidance == scenario.avoidance
        assert back.frame_angles == scenario.frame_angles
        assert back.sim.dt == scenario.sim.dt

    def test_scale_and_explicit_init_round_trip(self, tmp_path):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        cycle = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        d_star = {(min(i, i % 6 + 1), max(i, i % 6 + 1)): 1.5 for i in range(1, 7)}
        states = np.arange(12.0).reshape(6, 2)
        scenario = Scenario(
            formation=spec,
            topologies=(cycle,),
            schedule=((0.0, 0),),
            controller=ControllerConfig(scale=ScaleConfig(d_star=d_star, k_f=2.0)),
            sim=SimConfig(init=InitSpec(kind="explicit", states=states)),
        )
        path = tmp_path / "s.yaml"
        save_scenario(str(path), scenario)
        back, _ = load_scenario(str(path))
        assert back.controller.scale.d_star == d_star
        assert back.controller.scale.k_f == 2.0
        assert np.array_equal(np.asarray(back.sim.init.states), states)


def assert_same_scenario(a, b, atol=0.0):
    """Section-by-section equality; ``atol`` covers re-centering on load."""
    assert np.allclose(a.formation.q_star, b.formation.q_star, rtol=0.0, atol=atol)
    for name in ("topologies", "schedule", "agents", "controller", "avoidance", "sim",
                 "frame_angles"):
        assert getattr(a, name) == getattr(b, name), name


# Documents as the previous writer saved the car9 and triangle demos; it left
# out fields that did not apply to the dynamics class and most defaults.  The
# car9 actuator rows are cut down to one repeated row.
OLD_CAR9 = """
version: 1
formation:
  coordinates: [[-4.0, 4.0], [0.0, 4.0], [4.0, 4.0], [-4.0, 0.0], [0.0, 0.0], [4.0, 0.0],
    [-4.0, -4.0], [0.0, -4.0], [4.0, -4.0]]
graphs:
  complete9: [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [1, 9], [2, 3],
    [2, 4], [2, 5], [2, 6], [2, 7], [2, 8], [2, 9], [3, 4], [3, 5], [3, 6], [3, 7],
    [3, 8], [3, 9], [4, 5], [4, 6], [4, 7], [4, 8], [4, 9], [5, 6], [5, 7], [5, 8],
    [5, 9], [6, 7], [6, 8], [6, 9], [7, 8], [7, 9], [8, 9]]
schedule:
- [0.0, complete9]
agents:
  dynamics: car
  kinematic_only: false
  actuators: [[5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0],
    [5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0],
    [5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0]]
  wheelbase: 1.0
  drive: front
controller: {v_max: 3.0, omega_max: 0.7853981633974483, phi_max: 0.7853981633974483, k_s: 5.0,
  actuator_mode: velocity_feedback}
sim:
  dt: 0.01
  t_final: 80.0
  seed: 42
  convergence_threshold: 0.01
  measurement_noise: 0.0
  init:
    kind: box
    low: [-8.0, -8.0]
    high: [8.0, 8.0]
"""

OLD_TRIANGLE = """
version: 1
formation:
  coordinates:
  - [2.5199069945433693e-16, 2.0000000000000004]
  - [-0.8660254037844384, 0.5000000000000002]
  - [-1.732050807568877, -0.9999999999999999]
  - [-9.25185853854297e-17, -1.0]
  - [1.732050807568877, -1.0000000000000004]
  - [0.8660254037844386, 0.4999999999999999]
graphs:
  triangle6: [[1, 2], [1, 3], [1, 5], [1, 6], [2, 3], [3, 4], [3, 5], [4, 5], [5, 6]]
schedule:
- [0.0, triangle6]
agents: {dynamics: single_integrator}
controller: {}
sim:
  dt: 0.01
  t_final: 40.0
  seed: 42
  convergence_threshold: 0.001
  measurement_noise: 0.0
  init:
    kind: box
    low: [-5.0, -5.0]
    high: [5.0, 5.0]
"""


class TestScenarioSchemaTable:
    @pytest.mark.parametrize("section", sorted(_SECTIONS))
    def test_every_field_has_a_parser(self, section):
        cls, parsers = _SECTIONS[section]
        assert set(parsers) == {f.name for f in dataclasses.fields(cls)}

    def test_absent_sections_take_dataclass_defaults(self):
        doc = scenario_to_dict(demo_scenario("triangle")[0])
        minimal = {key: doc[key] for key in ("version", "formation", "graphs", "schedule")}
        scenario, _ = scenario_from_dict(minimal)
        assert scenario.agents == AgentModel()
        assert scenario.controller == ControllerConfig()
        assert scenario.sim == SimConfig()
        assert scenario.avoidance is None and scenario.frame_angles is None

    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_demo_round_trip(self, name):
        scenario, names, _ = demo_scenario(name)
        doc = scenario_to_dict(scenario, names)
        for key in ("agents", "controller", "sim"):
            section = getattr(scenario, key)
            assert list(doc[key]) == [f.name for f in dataclasses.fields(section)
                                      if getattr(section, f.name) is not None]
        back, back_names = scenario_from_dict(doc)
        assert back_names == names
        assert_same_scenario(back, scenario, atol=1e-15)

    @pytest.mark.parametrize("old, name", [(OLD_CAR9, "car9"), (OLD_TRIANGLE, "triangle")])
    def test_previously_written_documents_load_unchanged(self, old, name):
        scenario, names, _ = demo_scenario(name)
        if scenario.agents.actuators is not None:
            rows = (ActuatorParams(5.0, 6.0, 7.0, 8.0),) * scenario.formation.n
            scenario = dataclasses.replace(
                scenario, agents=dataclasses.replace(scenario.agents, actuators=rows)
            )
        written, _ = scenario_from_dict(scenario_to_dict(scenario, names))
        loaded, loaded_names = scenario_from_dict(yaml.safe_load(old))
        assert loaded_names == names
        assert_same_scenario(loaded, written)


class TestScenarioSchema:
    def test_unknown_top_level_key_rejected(self):
        doc = scenario_to_dict(rich_scenario())
        doc["extra"] = 1
        with pytest.raises(ConfigurationError):
            scenario_from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = scenario_to_dict(rich_scenario())
        doc["sim"]["warp"] = True
        with pytest.raises(ConfigurationError):
            scenario_from_dict(doc)

    def test_bad_version_rejected(self):
        doc = scenario_to_dict(rich_scenario())
        doc["version"] = 99
        with pytest.raises(ConfigurationError):
            scenario_from_dict(doc)

    def test_schedule_must_reference_known_graph(self):
        doc = scenario_to_dict(rich_scenario(), ["cycle", "full"])
        doc["schedule"][0][1] = "ghost"
        with pytest.raises(ConfigurationError):
            scenario_from_dict(doc)

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("version: [1\n")
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))


def edited_sim_section(tmp_path, **values):
    """The rich scenario saved to YAML with the given ``sim`` values spelled
    as written here."""
    path = tmp_path / "edited.yaml"
    save_scenario(str(path), rich_scenario())
    text = path.read_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^(  {key}:) .*$", rf"\g<1> {value}", text)
        assert count == 1
    path.write_text(text)
    return str(path)


class TestExponentFloats:
    """YAML 1.2 reads 1e-2 as a float; PyYAML's YAML 1.1 resolver does not."""

    def test_exponents_without_point_load_as_floats(self, tmp_path):
        path = edited_sim_section(tmp_path, dt="1e-2", convergence_threshold="1E-3")
        scenario, _ = load_scenario(path)
        assert scenario.sim.dt == 0.01
        assert scenario.sim.convergence_threshold == 0.001

    def test_every_exponent_spelling_loads(self, tmp_path):
        path = edited_sim_section(tmp_path, t_final="2e+3", measurement_noise="2.5e-2",
                                  dt="+.5e-2")
        sim = load_scenario(path)[0].sim
        assert (sim.t_final, sim.measurement_noise, sim.dt) == (2000.0, 0.025, 0.005)

    def test_quoted_exponent_is_still_a_string(self, tmp_path):
        path = edited_sim_section(tmp_path, dt='"1e-2"')
        with pytest.raises(ConfigurationError, match="sim.dt must be of type float"):
            load_scenario(path)

    def test_global_loaders_unchanged(self):
        assert yaml.safe_load("dt: 1e-2") == {"dt": "1e-2"}


NON_FINITE_FIELDS = {
    "formation.coordinates": lambda doc: doc["formation"]["coordinates"][2],
    "sim.init.low": lambda doc: doc["sim"]["init"]["low"],
    "sim.init.high": lambda doc: doc["sim"]["init"]["high"],
    "frame_angles": lambda doc: doc["frame_angles"],
    "controller.v_max": None,
    "controller.omega_max": None,
    "sim.dt": None,
    "sim.t_final": None,
}


class TestNonFiniteValues:
    @pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_with_field_name(self, field, bad):
        doc = scenario_to_dict(rich_scenario())
        container = NON_FINITE_FIELDS[field]
        if container is None:
            section, key = field.split(".")
            doc[section][key] = bad
        else:
            container(doc)[0] = bad
        with pytest.raises(ConfigurationError, match=field):
            scenario_from_dict(doc)

    def test_explicit_start_rejected(self):
        doc = scenario_to_dict(rich_scenario())
        doc["sim"]["init"] = {"kind": "explicit",
                              "states": [[0.0, 0.0]] * 5 + [[math.nan, 1.0]]}
        with pytest.raises(ConfigurationError, match="sim.init.states"):
            scenario_from_dict(doc)


class TestGainsRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, info = design_gains(graph, spec)
        report = verify_gains(gm, build_kernel_basis(spec))
        path = tmp_path / "gains.json"
        save_gains(str(path), [gm], info, [report], trace_budget=-8.0)
        matrices, doc = load_gains(str(path))
        assert len(matrices) == 1
        # Shortest-repr JSON floats preserve every bit of the parameters.
        assert matrices[0].graph == gm.graph
        assert matrices[0].params.tobytes() == gm.params.tobytes()
        assert np.array_equal(matrices[0].assembled, gm.assembled)
        assert doc["trace_budget"] == -8.0
        assert doc["solver"]["converged"] is True
        assert doc["matrices"][0]["spectrum"]["zero_count"] == 4

    def saved_hexagon(self, path):
        """The designed hexagon-cycle gains, and their saved document."""
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, info = design_gains(graph, spec)
        report = verify_gains(gm, build_kernel_basis(spec))
        save_gains(str(path), [gm], info, [report], trace_budget=-8.0)
        return gm, json.loads(path.read_text())

    def test_rows_load_in_edge_order(self, tmp_path):
        path = tmp_path / "gains.json"
        gm, doc = self.saved_hexagon(path)
        assert [row[:2] for row in doc["matrices"][0]["edges"]] == [
            list(e) for e in gm.graph.edge_list]
        doc["matrices"][0]["edges"].reverse()
        path.write_text(json.dumps(doc))
        (loaded,), _ = load_gains(str(path))
        assert loaded.params.tobytes() == gm.params.tobytes()

    def test_duplicate_edge_row_rejected(self, tmp_path):
        path = tmp_path / "gains.json"
        _, doc = self.saved_hexagon(path)
        i, j, a, b = doc["matrices"][0]["edges"][0]
        doc["matrices"][0]["edges"].append([i, j, a + 5.0, b])
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"gains.matrices[].edges has two rows for edge ({i}, {j})")):
            load_gains(str(path))

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_gains(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, info = design_gains(graph, spec)
        report = verify_gains(gm, build_kernel_basis(spec))
        path = tmp_path / "gains.json"
        save_gains(str(path), [gm], info, [report], trace_budget=-8.0)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            load_gains(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, info = design_gains(graph, spec)
        report = verify_gains(gm, build_kernel_basis(spec))
        path = tmp_path / "gains.json"
        save_gains(str(path), [gm], info, [report], trace_budget=-8.0)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            load_gains(str(path))
