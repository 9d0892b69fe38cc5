"""Command-line interface: exit-code contract and artifact outputs."""

import json
import math

import pytest
import yaml

from bcbform.cli import (
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    demo_scenario,
    main,
)
from bcbform.geometry import FormationSpec, SensingGraph
from bcbform.io import save_scenario
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

    def test_triangle_demo_end_to_end(self, workdir):
        assert main(["demo", "triangle", "--quiet"]) == EXIT_OK
        for suffix in (".yaml", ".gains.json", ".csv", ".svg"):
            assert (workdir / f"triangle{suffix}").exists()
