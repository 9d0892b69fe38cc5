"""Shared test plumbing: access to the capture manager for gate reporting, and
the gain sets on which the array code is compared with its edge-by-edge
references."""

import numpy as np
import pytest

from bcbform.cli import DEMO_NAMES, demo_scenario
from bcbform.gains import GainMatrix, SolverOptions, design_joint_gains
from bcbform.geometry import FormationSpec, SensingGraph

CAPTURE = {}


def pytest_configure(config):
    CAPTURE["manager"] = config.pluginmanager.getplugin("capturemanager")


@pytest.fixture(scope="session", params=DEMO_NAMES + ("complete50",))
def array_form_case(request):
    """Topologies, formation and gain matrices of a demo, or of a random
    formation sensed on the complete 50-agent graph: the designed gains, then
    per topology random parameters with +0.0 and -0.0 mixed in, and the same
    with every b a signed zero, so that each sum_j b_ij is zero."""
    name = request.param
    if name == "complete50":
        rng = np.random.default_rng(50)
        spec = FormationSpec.from_coordinates(rng.uniform(-1.0, 1.0, size=(50, 2)))
        graphs = [SensingGraph(50, [(i, j) for i in range(1, 51) for j in range(i + 1, 51)])]
        opts = SolverOptions()
    else:
        scenario, _, opts = demo_scenario(name)
        graphs, spec = list(scenario.topologies), scenario.formation
    mats, _ = design_joint_gains(graphs, spec, opts)
    rng = np.random.default_rng(len(name))
    for g in graphs:
        params = rng.normal(size=(len(g.edge_list), 2))
        params[::5, 0] = -0.0
        params[1::5, 1] = -0.0
        params[2::5] = 0.0
        mats.append(GainMatrix(g, params))
        params[:, 1] = np.where(rng.random(len(params)) < 0.5, 0.0, -0.0)
        mats.append(GainMatrix(g, params))
    return graphs, spec, mats
