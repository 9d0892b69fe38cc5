"""Tests of the benchmark itself:  python3 -m pytest perfbench

They run shortened copies of real workload ops, traced, in this process.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, round_ops

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_COUNTS = ("gains.iterations", "sim.steps", "dynamics.deriv_calls",
                "collision.cones_built")


def short_ops():
    """A triangle, a grid9 with avoidance and a sparse design, all quick."""
    ops = [round_ops("holonomic", 0)[0], round_ops("avoidance", 0)[0],
           round_ops("design", 0)[1]]
    out = []
    for op in ops:
        op = copy.deepcopy(op)
        op.doc["sim"]["t_final"] = 3.0
        out.append(op)
    return out


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    cli = worker.import_program()
    ops = short_ops()
    runs = []
    for k in range(2):
        workdir = tmp_path_factory.mktemp(f"run{k}")
        for i, op in enumerate(ops):
            op.write(workdir / f"op{i}.yaml")
        runs.append(worker.run_workload(cli, ops, "test", seed=1, seconds=0.0,
                                        trace=True, workdir=workdir))
    return runs


def test_metric_names_are_well_formed(traced_runs):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(traced_runs[0]["trace"]["metrics"]) + ["trace.overhead_frac"]
    assert all(NAME.fullmatch(name) for name in names)
    traced = set(traced_runs[0]["trace"]["metrics"]) | {"trace.overhead_frac"}
    assert traced == {m["name"] for m in bench["per_layer"]}


def test_traced_outputs_match_untraced(traced_runs):
    for result in traced_runs:
        assert [op["problems"] for op in result["ops"]] == [[]] * len(result["ops"])


def test_counts_repeat_exactly(traced_runs):
    first, second = (r["trace"]["metrics"] for r in traced_runs)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["sim.steps"][0] == 2 * 301 / 3
    assert first["collision.cones_calls"][0] > 0


def test_layer_self_times_sum_to_op_time(traced_runs):
    for result in traced_runs:
        trace = result["trace"]
        traced_wall = sum(op["traced_op_s"] for op in result["ops"])
        assert trace["self_sum_s"] == pytest.approx(trace["traced_s"], rel=1e-9)
        # Root spans cover each op except the benchmark's timing code around it.
        assert 0.95 * traced_wall <= trace["traced_s"] <= traced_wall
        shares = [trace["metrics"][f"{layer}.share"][0] for layer in LAYERS]
        assert sum(shares) == pytest.approx(1.0, rel=1e-9)


def test_uninstall_restores_every_function():
    import bcbform.cli
    import bcbform.controllers
    import bcbform.sim

    before = (bcbform.cli.run, bcbform.sim.build_cones, bcbform.controllers.consensus_term)
    tracer = Tracer()
    tracer.install()
    assert bcbform.sim.build_cones is not before[1]
    tracer.uninstall()
    assert (bcbform.cli.run, bcbform.sim.build_cones,
            bcbform.controllers.consensus_term) == before


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert [op.doc for op in round_ops(workload, 7)] == \
            [op.doc for op in round_ops(workload, 7)]
        assert [op.doc for op in round_ops(workload, 7)] != \
            [op.doc for op in round_ops(workload, 8)]


def test_tail_percentile():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "holonomic",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
