"""Scenario YAML and gains JSON serialization."""

import json
import math

import numpy as np
import pytest

from bcbform.collision import AvoidanceConfig
from bcbform.controllers import ControllerConfig, PerturbationConfig, ScaleConfig
from bcbform.dynamics import ActuatorParams
from bcbform.errors import ConfigurationError
from bcbform.gains import design_gains, verify_gains
from bcbform.geometry import FormationSpec, SensingGraph, build_kernel_basis
from bcbform.io import (
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
        assert matrices[0].blocks == gm.blocks
        assert np.array_equal(matrices[0].assembled, gm.assembled)
        assert doc["trace_budget"] == -8.0
        assert doc["solver"]["converged"] is True
        assert doc["matrices"][0]["spectrum"]["zero_count"] == 4

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
