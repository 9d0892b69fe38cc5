"""Command-line interface: exit-code contract and artifact outputs."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import bcbform
from bcbform import cli as cli_module
from bcbform import gains as gains_module
from bcbform import sim as sim_module
from bcbform.cli import (
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    demo_scenario,
    main,
)
from bcbform.geometry import FormationSpec, SensingGraph
from bcbform.io import load_gains, load_scenario, save_scenario
from bcbform.sim import Scenario, SimConfig


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_triangle(path, edges=((1, 2), (2, 3), (1, 3)), **sim_kw):
    spec = FormationSpec.from_coordinates([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])
    scenario = Scenario(
        formation=spec,
        topologies=(SensingGraph(3, list(edges)),),
        schedule=((0.0, 0),),
        sim=SimConfig(**sim_kw) if sim_kw else SimConfig(),
    )
    save_scenario(str(path), scenario)


def rewrite(path, mutate, loader=yaml.safe_load, dumper=yaml.safe_dump):
    """Apply ``mutate`` to the document stored at ``path``."""
    doc = loader(path.read_text())
    mutate(doc)
    path.write_text(dumper(doc))


# Each malformed document, the command that reads it, and the key or entry
# its one error line must name.
MALFORMED = {
    "init_without_states": (
        "scenario", lambda d: d["sim"].update(init={"kind": "explicit"}), "'states'"),
    "formation_without_coordinates": (
        "scenario", lambda d: d["formation"].pop("coordinates"), "'coordinates'"),
    "avoidance_without_r": (
        "scenario", lambda d: d.update(avoidance={"d_c": 0.25}), "'r'"),
    "scale_without_d_star": (
        "scenario", lambda d: d["controller"].update(scale={"k_f": 1.0}), "'d_star'"),
    "one_element_schedule_entry": (
        "scenario", lambda d: d.update(schedule=[[0.0]]), "schedule entry [0.0]"),
    "three_element_graph_edge": (
        "scenario", lambda d: d["graphs"]["g0"].__setitem__(0, [1, 2, 3]),
        "graphs.g0 entry [1, 2, 3]"),
    "gains_without_n": ("gains", lambda d: d.pop("n"), "'n'"),
    "matrix_without_edges": (
        "gains", lambda d: d["matrices"][0].pop("edges"), "'edges'"),
    "three_element_gain_edge": (
        "gains", lambda d: d["matrices"][0]["edges"].__setitem__(0, [1, 2, 0.5]),
        "edges entry [1, 2, 0.5]"),
    "duplicate_gain_edge": (
        "gains", lambda d: d["matrices"][0]["edges"].append(
            [1, 2, d["matrices"][0]["edges"][0][2] + 5.0, d["matrices"][0]["edges"][0][3]]),
        "gains.matrices[].edges has two rows for edge (1, 2)"),
    "formation_not_a_mapping": (
        "scenario", lambda d: d.update(formation=5), "formation must be of type dict; got 5"),
    "schedule_not_a_list": (
        "scenario", lambda d: d.update(schedule=3), "schedule must be of type list; got 3"),
    "non_integer_graph_vertex": (
        "scenario", lambda d: d["graphs"]["g0"].__setitem__(0, ["a", 2]),
        "graphs.g0 must be of type int; got 'a'"),
    "fractional_graph_vertex": (
        "scenario", lambda d: d["graphs"]["g0"].__setitem__(0, [1.7, 2]),
        "graphs.g0 must be of type int; got 1.7"),
    "three_element_box_bound": (
        "scenario", lambda d: d["sim"].update(init={"kind": "box", "low": [1.0, 2.0, 3.0]}),
        "sim.init.low entry [1.0, 2.0, 3.0]"),
    "non_numeric_dt": (
        "scenario", lambda d: d["sim"].update(dt="fast"),
        "sim.dt must be of type float; got 'fast'"),
    "boolean_dt": (
        "scenario", lambda d: d["sim"].update(dt=True),
        "sim.dt must be of type float; got True"),
    "boolean_seed": (
        "scenario", lambda d: d["sim"].update(seed=True),
        "sim.seed must be of type int; got True"),
    "numeric_string_dt": (
        "scenario", lambda d: d["sim"].update(dt="0.02"),
        "sim.dt must be of type float; got '0.02'"),
    "two_actuator_rows_for_three_agents": (
        "scenario", lambda d: d["agents"].update(actuators=[[5.0, 6.0, 7.0, 8.0]] * 2),
        "agents.actuators has 2 entries; expected 3"),
    "two_perturbation_gains_for_three_agents": (
        "scenario", lambda d: d["controller"].update(
            perturbation={"c": [1.0, 1.0], "alpha": [0.1, 0.1, 0.1]}),
        "controller.perturbation.c has 2 entries; expected 3"),
    "two_perturbation_angles_for_three_agents": (
        "scenario", lambda d: d["controller"].update(
            perturbation={"c": [1.0, 1.0, 1.0], "alpha": [0.1, 0.1]}),
        "controller.perturbation.alpha has 2 entries; expected 3"),
    "two_frame_angles_for_three_agents": (
        "scenario", lambda d: d.update(frame_angles=[0.1, 0.2]),
        "frame_angles has 2 entries; expected 3"),
    "unknown_drive": (
        "scenario", lambda d: d["agents"].update(dynamics="car", drive="sideways"),
        "unknown drive type 'sideways'"),
    "misspelt_actuator_mode": (
        "scenario", lambda d: d["controller"].update(actuator_mode="velocity_feedbak"),
        "unknown actuator mode 'velocity_feedbak'"),
    "velocity_feedback_without_k_s": (
        "scenario", lambda d: d["controller"].update(actuator_mode="velocity_feedback"),
        "velocity_feedback mode requires k_s"),
    "dynamic_car_without_actuators": (
        "scenario", lambda d: d["agents"].update(dynamics="car", kinematic_only=False),
        "a dynamic car (kinematic_only false) needs agents.actuators"),
    "string_kinematic_only": (
        "scenario", lambda d: d["agents"].update(dynamics="car", kinematic_only="false"),
        "agents.kinematic_only must be of type bool; got 'false'"),
    "string_formation_center": (
        "scenario", lambda d: d["formation"].update(center="no"),
        "formation.center must be of type bool; got 'no'"),
    "k0_int_without_k1_int": (
        "scenario", lambda d: d["controller"].update(k0_int=1.0),
        "controller.k1_int is not set"),
    "k1_int_without_k0_int": (
        "scenario", lambda d: d["controller"].update(k1_int=0.5),
        "controller.k0_int is not set"),
    "negative_k0_int_alone": (
        "scenario", lambda d: d["controller"].update(k0_int=-1.0),
        "controller.k1_int is not set"),
    "zero_k0_int": (
        "scenario", lambda d: d["controller"].update(k0_int=0.0, k1_int=0.5),
        "controller.k0_int > 0"),
    "scale_with_integral_gains": (
        "scenario", lambda d: d["controller"].update(
            k0_int=1.0, k1_int=0.5, scale={"d_star": {"1-2": 2.0, "1-3": 2.0, "2-3": 2.0}}),
        "controller.scale and the integral gains controller.k0_int/k1_int"),
    "chain_with_scale": (
        "scenario", lambda d: (d["agents"].update(dynamics="chain"), d["controller"].update(
            scale={"d_star": {"1-2": 2.0, "1-3": 2.0, "2-3": 2.0}})),
        "chain dynamics have no scale or integral law; remove controller.scale"),
    "chain_with_integral_gains": (
        "scenario", lambda d: (d["agents"].update(dynamics="chain"),
                               d["controller"].update(k0_int=1.0, k1_int=0.5)),
        "remove controller.k0_int, controller.k1_int"),
    "short_k_chain": (
        "scenario", lambda d: d["agents"].update(dynamics="chain"),
        "controller.k_chain has 1 gains; agents.chain_order 3 needs 4"),
    "v_max_on_single_integrator": (
        "scenario", lambda d: d["controller"].update(v_max=3.0),
        "single_integrator dynamics never read these settings; remove controller.v_max"),
    "omega_max_and_phi_max_on_single_integrator": (
        "scenario", lambda d: d["controller"].update(omega_max=0.7, phi_max=0.5),
        "remove controller.omega_max, controller.phi_max"),
    "k_s_on_chain": (
        "scenario", lambda d: (d["agents"].update(dynamics="chain", chain_order=1),
                               d["controller"].update(k_chain=[1.0, 2.0], k_s=5.0)),
        "chain dynamics never read these settings; remove controller.k_s"),
    "u_max_on_unicycle": (
        "scenario", lambda d: (d["agents"].update(dynamics="unicycle"),
                               d["controller"].update(u_max=1.0)),
        "unicycle dynamics never read these settings; remove controller.u_max"),
    "phi_max_on_unicycle": (
        "scenario", lambda d: (d["agents"].update(dynamics="unicycle"),
                               d["controller"].update(phi_max=0.5)),
        "unicycle dynamics never read these settings; remove controller.phi_max"),
    "u_max_on_car": (
        "scenario", lambda d: (d["agents"].update(dynamics="car"),
                               d["controller"].update(u_max=1.0)),
        "car dynamics never read these settings; remove controller.u_max"),
    "actuator_law_on_kinematic_unicycle": (
        "scenario", lambda d: (d["agents"].update(dynamics="unicycle"), d["controller"].update(
            actuator_mode="velocity_feedback", k_s=5.0)),
        "kinematic unicycle dynamics never read these settings; "
        "remove controller.k_s, controller.actuator_mode"),
    "k_s_on_kinematic_car": (
        "scenario", lambda d: (d["agents"].update(dynamics="car"),
                               d["controller"].update(k_s=5.0)),
        "kinematic car dynamics never read these settings; remove controller.k_s"),
    "chain_law_on_single_integrator": (
        "scenario", lambda d: d["controller"].update(k_chain=[5.0, 1.0],
                                                     chain_variant="full_A"),
        "single_integrator dynamics never read these settings; "
        "remove controller.k_chain, controller.chain_variant"),
    "chain_variant_on_unicycle": (
        "scenario", lambda d: (d["agents"].update(dynamics="unicycle"),
                               d["controller"].update(chain_variant="full_A")),
        "unicycle dynamics never read these settings; remove controller.chain_variant"),
    "kinematic_only_on_single_integrator": (
        "scenario", lambda d: d["agents"].update(kinematic_only=False),
        "single_integrator dynamics never read these settings; remove agents.kinematic_only"),
    "drive_on_single_integrator": (
        "scenario", lambda d: d["agents"].update(drive="rear"),
        "single_integrator dynamics never read these settings; remove agents.drive"),
    "wheelbase_on_single_integrator": (
        "scenario", lambda d: d["agents"].update(wheelbase=7.0),
        "single_integrator dynamics never read these settings; remove agents.wheelbase"),
    "chain_order_on_single_integrator": (
        "scenario", lambda d: d["agents"].update(chain_order=5),
        "single_integrator dynamics never read these settings; remove agents.chain_order"),
    "actuators_on_single_integrator": (
        "scenario", lambda d: d["agents"].update(actuators=[[5.0, 6.0, 7.0, 8.0]] * 3),
        "single_integrator dynamics never read these settings; remove agents.actuators"),
    "kinematic_only_on_chain": (
        "scenario", lambda d: (d["agents"].update(dynamics="chain", chain_order=1,
                                                  kinematic_only=False),
                               d["controller"].update(k_chain=[1.0, 2.0])),
        "chain dynamics never read these settings; remove agents.kinematic_only"),
    "wheelbase_and_drive_on_unicycle": (
        "scenario", lambda d: d["agents"].update(dynamics="unicycle", wheelbase=7.0,
                                                 drive="rear"),
        "kinematic unicycle dynamics never read these settings; "
        "remove agents.wheelbase, agents.drive"),
    "chain_order_on_car": (
        "scenario", lambda d: d["agents"].update(dynamics="car", chain_order=5),
        "kinematic car dynamics never read these settings; remove agents.chain_order"),
    "actuators_on_kinematic_unicycle": (
        "scenario", lambda d: d["agents"].update(dynamics="unicycle",
                                                 actuators=[[5.0, 6.0, 7.0, 8.0]] * 3),
        "kinematic unicycle dynamics never read these settings; remove agents.actuators"),
    "actuators_on_kinematic_car": (
        "scenario", lambda d: d["agents"].update(dynamics="car",
                                                 actuators=[[5.0, 6.0, 7.0, 8.0]] * 3),
        "kinematic car dynamics never read these settings; remove agents.actuators"),
}

# Controller and agent settings that a run would drop without a word.
DROPPED_SETTINGS = [
    "k0_int_without_k1_int", "k1_int_without_k0_int", "negative_k0_int_alone",
    "zero_k0_int", "scale_with_integral_gains", "chain_with_scale",
    "chain_with_integral_gains", "v_max_on_single_integrator",
    "omega_max_and_phi_max_on_single_integrator", "k_s_on_chain", "u_max_on_unicycle",
    "phi_max_on_unicycle", "u_max_on_car", "actuator_law_on_kinematic_unicycle",
    "k_s_on_kinematic_car", "chain_law_on_single_integrator", "chain_variant_on_unicycle",
    "kinematic_only_on_single_integrator", "drive_on_single_integrator",
    "wheelbase_on_single_integrator", "chain_order_on_single_integrator",
    "actuators_on_single_integrator", "kinematic_only_on_chain",
    "wheelbase_and_drive_on_unicycle", "chain_order_on_car",
    "actuators_on_kinematic_unicycle", "actuators_on_kinematic_car",
]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_one_line_parse_error(workdir, capsys, case):
    target, mutate, named = MALFORMED[case]
    write_triangle(workdir / "tri.yaml")
    assert main(["design", "tri.yaml", "-o", "g.json", "--quiet"]) == EXIT_OK
    if target == "scenario":
        rewrite(workdir / "tri.yaml", mutate)
    else:
        rewrite(workdir / "g.json", mutate, json.loads, json.dumps)
    capsys.readouterr()
    assert main(["verify", "g.json", "tri.yaml", "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


def assert_refused_before_stepping(workdir, capsys, mutate, named):
    """After ``mutate``, design and simulate both exit 1 with one error line
    naming ``named``, and neither writes its output."""
    write_triangle(workdir / "tri.yaml")
    assert main(["design", "tri.yaml", "-o", "g.json", "--quiet"]) == EXIT_OK
    rewrite(workdir / "tri.yaml", mutate)
    capsys.readouterr()
    assert main(["design", "tri.yaml", "-o", "h.json", "--quiet"]) == EXIT_PARSE
    assert main(["simulate", "tri.yaml", "g.json", "-o", "out.csv",
                 "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") and named in line
                                 for line in err)
    assert not (workdir / "h.json").exists() and not (workdir / "out.csv").exists()


@pytest.mark.parametrize("case", [
    "two_actuator_rows_for_three_agents", "two_perturbation_gains_for_three_agents",
    "two_frame_angles_for_three_agents", "unknown_drive", "misspelt_actuator_mode",
    "velocity_feedback_without_k_s", "dynamic_car_without_actuators", "short_k_chain",
])
def test_vehicle_and_per_agent_errors_refused_before_stepping(workdir, capsys, case):
    _, mutate, named = MALFORMED[case]
    assert_refused_before_stepping(workdir, capsys, mutate, named)


@pytest.mark.parametrize("case", DROPPED_SETTINGS)
def test_dropped_controller_settings_refused_before_stepping(workdir, capsys, case):
    _, mutate, named = MALFORMED[case]
    assert_refused_before_stepping(workdir, capsys, mutate, named)


@pytest.mark.parametrize("init, named", [
    ({"kind": "explicit", "states": [[0.0, 0.0, 0.0]] * 3}, "(3, 3)"),
    ({"kind": "grid"}, "'grid'"),
], ids=["explicit_3x3", "grid"])
def test_malformed_init_refused_at_load(workdir, capsys, init, named):
    assert_refused_before_stepping(
        workdir, capsys, lambda d: d["sim"].update(init=init), named)


class TestDesign:
    def test_design_writes_gains(self, workdir):
        write_triangle(workdir / "tri.yaml")
        assert main(["design", "tri.yaml", "-o", "tri.gains.json", "--quiet"]) == EXIT_OK
        doc = json.loads((workdir / "tri.gains.json").read_text())
        assert doc["version"] == 1
        assert len(doc["matrices"]) == 1

    def test_missing_scenario_is_parse_error(self, workdir):
        assert main(["design", "nope.yaml", "--quiet"]) == EXIT_PARSE

    def test_malformed_scenario_is_parse_error(self, workdir):
        (workdir / "bad.yaml").write_text("version: [1\n")
        assert main(["design", "bad.yaml", "--quiet"]) == EXIT_PARSE

    def test_nan_coordinate_is_parse_error(self, workdir, capsys):
        write_triangle(workdir / "tri.yaml")
        doc = yaml.safe_load((workdir / "tri.yaml").read_text())
        doc["formation"]["coordinates"][1][0] = math.nan
        (workdir / "nan.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
        assert ".nan" in (workdir / "nan.yaml").read_text()
        assert main(["design", "nan.yaml", "--quiet"]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "formation.coordinates" in err[0]

    def test_disconnected_graph_is_infeasible(self, workdir, capsys):
        spec = FormationSpec.from_coordinates(
            [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        )
        scenario = Scenario(
            formation=spec,
            topologies=(SensingGraph(6, [(1, 2), (2, 3), (1, 3),
                                         (4, 5), (5, 6), (4, 6)]),),
            schedule=((0.0, 0),),
        )
        save_scenario(str(workdir / "two.yaml"), scenario)
        assert main(["design", "two.yaml", "--quiet"]) == EXIT_INFEASIBLE
        assert "disconnected" in capsys.readouterr().err

    def test_path_graph_is_infeasible(self, workdir):
        write_triangle(workdir / "path.yaml", edges=((1, 2), (2, 3)))
        assert main(["design", "path.yaml", "--quiet"]) == EXIT_INFEASIBLE


class TestVerify:
    def test_designed_gains_verify_clean(self, workdir):
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        assert main(["verify", "g.json", "tri.yaml", "--quiet"]) == EXIT_OK

    def test_gains_without_certificate_keys_verify(self, workdir):
        write_triangle(workdir / "tri.yaml")
        assert main(["design", "tri.yaml", "-o", "g.json", "--quiet"]) == EXIT_OK
        keys = ("upper_bound", "bound_residual")
        assert set(keys) <= set(json.loads((workdir / "g.json").read_text())["solver"])
        rewrite(workdir / "g.json", lambda d: [d["solver"].pop(k) for k in keys],
                json.loads, json.dumps)
        assert main(["verify", "g.json", "tri.yaml", "--quiet"]) == EXIT_OK

    def test_gains_for_other_agent_count_refused(self, workdir, capsys):
        write_triangle(workdir / "tri.yaml")
        assert main(["design", "tri.yaml", "-o", "g.json", "--quiet"]) == EXIT_OK
        scenario, names, _ = demo_scenario("hexagon")
        save_scenario("hex.yaml", scenario, names)
        capsys.readouterr()
        assert main(["verify", "g.json", "hex.yaml", "--quiet"]) == EXIT_INFEASIBLE
        assert main(["simulate", "hex.yaml", "g.json", "-o", "out.csv",
                     "--quiet"]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error:") and "3 agents" in line and "has 6" in line
                   for line in err)
        assert not (workdir / "out.csv").exists()

    def test_gains_for_other_graph_refused(self, workdir, capsys):
        # Gains designed on K6 for the triangle formation, which senses on
        # triangle6: the first edge of K6 that triangle6 lacks is (1, 4).
        scenario, names, _ = demo_scenario("triangle")
        save_scenario("triangle.yaml", scenario, names)
        complete = SensingGraph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
        other = dataclasses.replace(scenario, topologies=(complete,))
        save_scenario("k6.yaml", other, ["complete6"])
        assert main(["design", "k6.yaml", "-o", "k6.gains.json", "--quiet"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "k6.gains.json", "triangle.yaml", "--quiet"]) == EXIT_INFEASIBLE
        assert main(["simulate", "triangle.yaml", "k6.gains.json", "-o", "out.csv",
                     "--quiet"]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: topology 0: the gains have a block for edge (1, 4), "
                       "which is not in the scenario's graph"] * 2
        assert not (workdir / "out.csv").exists()

    def test_asymmetric_gains_fail_verification(self, workdir, capsys):
        # b of edge (1, 2) moves agent 1's signed sum_j b_ij off 0 by 1e-3, and
        # agent 2's by -1e-3: the first of the two is named.
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        rewrite(workdir / "g.json", lambda d: d["matrices"][0]["edges"][0].__setitem__(
            3, d["matrices"][0]["edges"][0][3] + 1e-3), json.loads, json.dumps)
        capsys.readouterr()
        assert main(["verify", "g.json", "tri.yaml"]) == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out.rstrip().endswith("FAIL")
        assert "assembled gain matrix is not symmetric" in err
        assert "agent 1 has signed sum_j b_ij = 1.000e-03, not 0" in err

    def test_corrupt_gains_file_is_parse_error(self, workdir):
        write_triangle(workdir / "tri.yaml")
        (workdir / "g.json").write_text("{broken")
        assert main(["verify", "g.json", "tri.yaml", "--quiet"]) == EXIT_PARSE

    def test_tampered_gains_fail_verification(self, workdir):
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        doc = json.loads((workdir / "g.json").read_text())
        doc["matrices"][0]["edges"][0][2] += 0.5
        (workdir / "g.json").write_text(json.dumps(doc))
        assert main(["verify", "g.json", "tri.yaml", "--quiet"]) == EXIT_INFEASIBLE

    def test_unstable_chain_gains_rejected(self, workdir):
        path = workdir / "chain.yaml"
        write_triangle(path)
        doc = yaml.safe_load(path.read_text())
        doc["agents"] = {"dynamics": "chain", "chain_order": 1}
        doc["controller"] = {"k_chain": [1.0, -1.0],
                             "chain_variant": "identity_derivatives"}
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        main(["design", "chain.yaml", "-o", "g.json", "--quiet"])
        assert main(["verify", "g.json", "chain.yaml", "--quiet"]) == EXIT_INFEASIBLE


class TestSimulate:
    def test_simulate_writes_csv_and_svg(self, workdir):
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        code = main(["simulate", "tri.yaml", "g.json", "-o", "out.csv",
                     "--svg", "out.svg", "--quiet"])
        assert code == EXIT_OK
        header = (workdir / "out.csv").read_text().splitlines()[0]
        assert header.startswith("t,x_1,y_1")
        svg = (workdir / "out.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_no_convergence_exit_code(self, workdir):
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        code = main(["simulate", "tri.yaml", "g.json", "-o", "out.csv",
                     "--t-final", "0.05", "--quiet"])
        assert code == EXIT_NO_CONVERGENCE
        # The trajectory is still written for inspection.
        assert (workdir / "out.csv").exists()

    def test_tampered_gains_refused_before_stepping(self, workdir):
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        doc = json.loads((workdir / "g.json").read_text())
        doc["matrices"][0]["edges"][0][3] += 1.0
        (workdir / "g.json").write_text(json.dumps(doc))
        code = main(["simulate", "tri.yaml", "g.json", "-o", "out.csv", "--quiet"])
        assert code == EXIT_INFEASIBLE
        assert not (workdir / "out.csv").exists()

    def test_nan_start_refused_before_stepping(self, workdir, capsys):
        write_triangle(workdir / "tri.yaml")
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        doc = yaml.safe_load((workdir / "tri.yaml").read_text())
        doc["sim"]["init"] = {"kind": "explicit",
                              "states": [[0.0, 0.0], [1.0, math.nan], [2.0, 2.0]]}
        (workdir / "nan.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
        code = main(["simulate", "nan.yaml", "g.json", "-o", "out.csv", "--quiet"])
        assert code == EXIT_PARSE
        assert "sim.init.states" in capsys.readouterr().err
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--t-final", "inf", "sim.t_final"),
        ("--dt", "nan", "sim.dt"),
    ])
    def test_non_finite_override_is_parse_error(self, workdir, capsys, flag, value, field):
        write_triangle(workdir / "tri.yaml", t_final=1.0)
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        capsys.readouterr()
        code = main(["simulate", "tri.yaml", "g.json", "-o", "out.csv", flag, value,
                     "--quiet"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
        assert not (workdir / "out.csv").exists()

    def test_gains_checked_once_per_topology(self, workdir, monkeypatch):
        scenario, names, _ = demo_scenario("switching9")
        save_scenario("sw.yaml", scenario, names)
        assert main(["design", "sw.yaml", "-o", "g.json", "--quiet"]) == EXIT_OK
        calls = []
        real = gains_module.verify_gains

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (cli_module, sim_module, gains_module):
            monkeypatch.setattr(module, "verify_gains", counted)
        code = main(["simulate", "sw.yaml", "g.json", "-o", "out.csv",
                     "--t-final", "0.5", "--quiet"])
        assert code == EXIT_NO_CONVERGENCE
        assert len(calls) == len(scenario.topologies) == 4

    def test_seed_override_changes_initial_row(self, workdir):
        write_triangle(workdir / "tri.yaml", t_final=1.0)
        main(["design", "tri.yaml", "-o", "g.json", "--quiet"])
        main(["simulate", "tri.yaml", "g.json", "-o", "a.csv", "--seed", "1",
              "--t-final", "1.0", "--quiet"])
        main(["simulate", "tri.yaml", "g.json", "-o", "b.csv", "--seed", "1",
              "--t-final", "1.0", "--quiet"])
        main(["simulate", "tri.yaml", "g.json", "-o", "c.csv", "--seed", "2",
              "--t-final", "1.0", "--quiet"])
        a = (workdir / "a.csv").read_text().splitlines()[1]
        b = (workdir / "b.csv").read_text().splitlines()[1]
        c = (workdir / "c.csv").read_text().splitlines()[1]
        assert a == b
        assert a != c


class TestDemo:
    def test_unknown_demo_is_parse_error(self, workdir):
        assert main(["demo", "mystery", "--quiet"]) == EXIT_PARSE

    def test_demo_catalog_builds_valid_scenarios(self):
        for name in ("triangle", "hexagon", "grid9", "switching9",
                     "unicycle9", "car9"):
            scenario, names, _ = demo_scenario(name)
            assert len(names) == len(scenario.topologies)

    def test_design_and_simulate_load_no_scipy(self, tmp_path):
        # switching9's joint design runs ADMM; the demo then simulates it.
        # A fresh process, so that no other test's imports count.
        script = (
            "import sys\n"
            "from bcbform.cli import main\n"
            "assert main(['demo', 'switching9', '--quiet']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(bcbform.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "switching9.csv").exists()

    def test_dt_beyond_stability_bound_refused_before_stepping(self, workdir, capsys):
        # The hexagon gains have spectral radius 4/3: dt must stay below 1.5.
        assert main(["demo", "hexagon", "--dt", "1.6", "--quiet"]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "sim.dt" in err[0] and "1.5" in err[0] and "topology 0" in err[0]
        assert not (workdir / "hexagon.csv").exists()

    def test_dt_below_stability_bound_steps(self, workdir):
        code = main(["demo", "hexagon", "--dt", "1.4", "--quiet"])
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert (workdir / "hexagon.csv").exists()

    def test_triangle_demo_end_to_end(self, workdir):
        assert main(["demo", "triangle", "--quiet"]) == EXIT_OK
        for suffix in (".yaml", ".gains.json", ".csv", ".svg"):
            assert (workdir / f"triangle{suffix}").exists()


# The writers as first written, one value or point formatted at a time; the
# writers must give the same bytes.
def per_value_csv(log, path):
    n = log.states.shape[1]
    cols = sim_module.state_column_names(log.agents)
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"{c}_{i}" for c in cols]
    header += ["subspace_error", "lyapunov_value", "min_pairwise_distance"]
    steps = log.t.size
    data = np.column_stack([log.t, log.states.reshape(steps, -1), log.subspace_error,
                            log.lyapunov, log.min_distance])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def per_point_svg(path, log, scenario):
    size = 640
    pos = log.positions()
    n = pos.shape[1]
    xs, ys = pos[:, :, 0], pos[:, :, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = 0.05 * span
    x_lo, y_lo, span = x_lo - pad, y_lo - pad, span + 2 * pad

    def sx(x):
        return (x - x_lo) / span * size

    def sy(y):
        return size - (y - y_lo) / span * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    final = pos[-1]
    graph = scenario.topologies[int(log.topology_index[-1])]
    for i, j in graph.edge_list:
        parts.append(
            f'<line x1="{sx(final[i - 1, 0]):.2f}" y1="{sy(final[i - 1, 1]):.2f}" '
            f'x2="{sx(final[j - 1, 0]):.2f}" y2="{sy(final[j - 1, 1]):.2f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    stride = max(1, pos.shape[0] // 2000)
    for i in range(n):
        color = cli_module._PALETTE[i % len(cli_module._PALETTE)]
        points = " ".join(f"{sx(xs[k, i]):.2f},{sy(ys[k, i]):.2f}"
                          for k in range(0, pos.shape[0], stride))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     'stroke-width="1.2"/>')
        parts.append(f'<circle cx="{sx(xs[0, i]):.2f}" cy="{sy(ys[0, i]):.2f}" r="4" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<circle cx="{sx(xs[-1, i]):.2f}" cy="{sy(ys[-1, i]):.2f}" r="3" '
                     f'fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


class TestWriters:
    # Both logs span many CSV blocks and end in a partial one.
    @pytest.mark.parametrize("name, t_final", [("car9", "2"), ("triangle", None)])
    def test_bytes_equal_per_value_writers(self, workdir, name, t_final):
        argv = ["demo", name, "--quiet"] + (["--t-final", t_final] if t_final else [])
        assert main(argv) in (EXIT_OK, EXIT_NO_CONVERGENCE)
        scenario, _ = load_scenario(f"{name}.yaml")
        if t_final:
            scenario = dataclasses.replace(
                scenario, sim=dataclasses.replace(scenario.sim, t_final=float(t_final)))
        log = sim_module.run(scenario, load_gains(f"{name}.gains.json")[0])
        per_value_csv(log, "ref.csv")
        per_point_svg("ref.svg", log, scenario)
        assert (workdir / f"{name}.csv").read_bytes() == (workdir / "ref.csv").read_bytes()
        assert (workdir / f"{name}.svg").read_bytes() == (workdir / "ref.svg").read_bytes()
