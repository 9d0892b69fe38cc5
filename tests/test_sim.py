"""Closed-loop simulation engine: determinism, schedules, logs, monitoring."""

import dataclasses
import math

import numpy as np
import pytest

from bcbform.collision import AvoidanceConfig
from bcbform.controllers import (
    ControllerConfig,
    IntegralState,
    PerturbationConfig,
    ScaleConfig,
    consensus_term,
    higher_order_control,
    integral_control,
    perturb_control,
    rotation,
    scale_augmented_control,
)
from bcbform.errors import ConfigurationError, GuaranteeViolationError
from bcbform.gains import GainMatrix, design_gains
from bcbform.geometry import FormationSpec, SensingGraph, min_pairwise_distance
from bcbform.sim import (
    AgentModel,
    InitSpec,
    Scenario,
    SimConfig,
    active_topology,
    lyapunov_monitor,
    run,
    state_column_names,
    write_csv,
)

HEX_POINTS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def hexagon_scenario(**overrides):
    spec = FormationSpec.from_coordinates(HEX_POINTS)
    graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    sim = overrides.pop("sim", SimConfig(t_final=30.0))
    return Scenario(
        formation=spec,
        topologies=(graph,),
        schedule=((0.0, 0),),
        sim=sim,
        **overrides,
    ), graph


@pytest.fixture(scope="module")
def hex_gains():
    spec = FormationSpec.from_coordinates(HEX_POINTS)
    graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    gm, _ = design_gains(graph, spec)
    return [gm]


class TestActiveTopology:
    SCHEDULE = ((0.0, 0), (5.0, 1), (10.0, 0))

    def test_closed_on_the_left(self):
        assert active_topology(self.SCHEDULE, 0.0) == 0
        assert active_topology(self.SCHEDULE, 4.999) == 0
        assert active_topology(self.SCHEDULE, 5.0) == 1
        assert active_topology(self.SCHEDULE, 9.999) == 1
        assert active_topology(self.SCHEDULE, 10.0) == 0
        assert active_topology(self.SCHEDULE, 1e6) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(Exception):
            active_topology(self.SCHEDULE, -0.1)


class TestScenarioValidation:
    def test_schedule_must_start_at_zero(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        with pytest.raises(ConfigurationError):
            Scenario(formation=spec, topologies=(g,), schedule=((1.0, 0),))

    def test_schedule_index_in_range(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        with pytest.raises(ConfigurationError):
            Scenario(formation=spec, topologies=(g,), schedule=((0.0, 3),))

    def test_sim_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.0)
        with pytest.raises(ConfigurationError):
            SimConfig(dt=1.0, t_final=0.5)


class TestRun:
    def test_single_integrator_hexagon_converges(self, hex_gains):
        scenario, _ = hexagon_scenario()
        log = run(scenario, hex_gains)
        assert log.summary.converged
        assert log.summary.final_subspace_error < 1e-3

    def test_deterministic_bitwise(self, hex_gains):
        scenario, _ = hexagon_scenario()
        a = run(scenario, hex_gains)
        b = run(scenario, hex_gains)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.commands, b.commands)
        assert a.summary.convergence_time == b.summary.convergence_time

    def test_different_seed_differs(self, hex_gains):
        s1, _ = hexagon_scenario(sim=SimConfig(t_final=5.0, seed=1))
        s2, _ = hexagon_scenario(sim=SimConfig(t_final=5.0, seed=2))
        assert not np.array_equal(run(s1, hex_gains).states[0],
                                  run(s2, hex_gains).states[0])

    def test_start_on_target_stays_on_target(self, hex_gains):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        init = InitSpec(kind="explicit", states=spec.points().copy())
        scenario, _ = hexagon_scenario(sim=SimConfig(t_final=2.0, init=init))
        log = run(scenario, hex_gains)
        assert log.subspace_error[-1] < 1e-10
        assert np.allclose(log.states[-1], log.states[0], atol=1e-9)

    def test_bad_gain_refused(self, hex_gains):
        scenario, graph = hexagon_scenario()
        params = dict(hex_gains[0].edge_params())
        (i, j), (a, b) = next(iter(params.items()))
        params[(i, j)] = (a + 0.5, b)
        with pytest.raises(GuaranteeViolationError):
            run(scenario, [GainMatrix.from_edge_params(graph, params)])

    def test_gain_count_must_match_topologies(self, hex_gains):
        scenario, _ = hexagon_scenario()
        with pytest.raises(ConfigurationError):
            run(scenario, hex_gains + hex_gains)

    def test_local_frames_do_not_change_trajectories(self, hex_gains):
        # Each agent measuring in its own rotated frame but commanding in that
        # same frame yields the identical world-frame closed loop.
        base, _ = hexagon_scenario(sim=SimConfig(t_final=5.0))
        rotated, _ = hexagon_scenario(
            sim=SimConfig(t_final=5.0),
            frame_angles=(0.3, -1.2, 2.0, 0.0, -0.7, 1.5),
        )
        log_a = run(base, hex_gains)
        log_b = run(rotated, hex_gains)
        assert np.max(np.abs(log_a.states - log_b.states)) < 1e-9

    def test_lyapunov_monitor_clean_descent(self, hex_gains):
        scenario, _ = hexagon_scenario()
        log = run(scenario, hex_gains)
        report = lyapunov_monitor(log, hex_gains)
        assert report.violations == 0

    def test_scale_augmentation_fixes_size(self, hex_gains):
        # Unit-edge target distances pin the hexagon to circumradius 1.
        d_star = {(min(i, i % 6 + 1), max(i, i % 6 + 1)): 1.0 for i in range(1, 7)}
        scenario, _ = hexagon_scenario(
            controller=ControllerConfig(scale=ScaleConfig(d_star=d_star)),
            sim=SimConfig(t_final=120.0, init=InitSpec(low=(-2, -2), high=(2, 2))),
        )
        log = run(scenario, hex_gains)
        pos = log.positions()[-1]
        edges = [np.linalg.norm(pos[i % 6] - pos[i - 1]) for i in range(1, 7)]
        assert max(abs(d - 1.0) for d in edges) < 0.01

    def test_avoidance_respects_radius(self, hex_gains):
        scenario, _ = hexagon_scenario(
            avoidance=AvoidanceConfig(r=0.1, d_c=0.25, margin=0.01),
            sim=SimConfig(t_final=30.0, init=InitSpec(low=(-1, -1), high=(1, 1))),
        )
        log = run(scenario, hex_gains)
        assert float(np.min(log.min_distance)) >= 0.1
        assert log.summary.converged


    def test_missing_gain_block_or_distance_refused(self, hex_gains):
        scenario, _ = hexagon_scenario(
            controller=ControllerConfig(scale=ScaleConfig(d_star={}))
        )
        with pytest.raises(ConfigurationError, match="desired distance"):
            run(scenario, hex_gains)
        complete = SensingGraph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
        scenario = dataclasses.replace(scenario, topologies=(complete,),
                                       controller=ControllerConfig())
        with pytest.raises(ConfigurationError, match="no gain block"):
            run(scenario, hex_gains)

    def test_measurement_noise_perturbs_reproducibly(self, hex_gains):
        clean, _ = hexagon_scenario(sim=SimConfig(t_final=5.0, seed=3))
        noisy, _ = hexagon_scenario(
            sim=SimConfig(t_final=5.0, seed=3, measurement_noise=0.05)
        )
        a = run(noisy, hex_gains)
        b = run(noisy, hex_gains)
        assert not np.array_equal(a.states, run(clean, hex_gains).states)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.commands, b.commands)


CHAIN_K = (2.0, 2.0, 3.0, 3.0)
HEX_D_STAR = {(min(i, i % 6 + 1), max(i, i % 6 + 1)): 1.0 for i in range(1, 7)}
TEAM_LAWS = {
    "consensus": (AgentModel(), ControllerConfig()),
    "chain_full_A": (AgentModel(dynamics="chain", chain_order=3),
                     ControllerConfig(k_chain=CHAIN_K, chain_variant="full_A")),
    "chain_identity": (AgentModel(dynamics="chain", chain_order=3),
                       ControllerConfig(k_chain=CHAIN_K)),
    "scale": (AgentModel(), ControllerConfig(scale=ScaleConfig(d_star=HEX_D_STAR))),
    "integral": (AgentModel(), ControllerConfig(k0_int=1.0, k1_int=0.5)),
    "perturbation": (AgentModel(), ControllerConfig(perturbation=PerturbationConfig(
        c=(0.5, 1.0, 2.0, 3.0, 0.7, 1.2), alpha=(0.3, -1.0, 1.4, 0.0, -0.2, 0.9)))),
}


def reference_commands(scenario, gm, states, integrals, rng):
    """Per-agent laws evaluated in each agent's rotated frame, rotated back.

    This is the order in which the simulator has always drawn measurement
    noise: agent by agent, positions first, then each derivative order.
    """
    cfg, model, sim = scenario.controller, scenario.agents, scenario.sim
    graph = scenario.topologies[0]
    us = np.zeros((6, 2))
    for i in range(1, 7):
        R = rotation(scenario.frame_angles[i - 1])
        blocks = gm.block_row(i)
        neighbors = sorted(graph.neighbors(i))

        def measure(part):
            out = []
            for j in neighbors:
                v = part[j - 1] - part[i - 1]
                if sim.measurement_noise > 0.0:
                    v = v + rng.uniform(-sim.measurement_noise,
                                        sim.measurement_noise, size=2)
                out.append((j, R.T @ v))
            return out

        rel = measure(states[:, :2])
        if model.dynamics == "chain":
            parts = [states[:, 2 * o : 2 * o + 2] for o in range(1, 4)]
            if cfg.chain_variant == "full_A":
                rel_terms = [consensus_term(measure(p), blocks) for p in parts]
                u = higher_order_control(consensus_term(rel, blocks), rel_terms, [],
                                         cfg.k_chain, "full_A")
            else:
                own = [R.T @ p[i - 1] for p in parts]
                u = higher_order_control(consensus_term(rel, blocks), None, own,
                                         cfg.k_chain, "identity_derivatives")
        elif cfg.scale is not None:
            u = scale_augmented_control(i, rel, blocks, cfg.scale)
        elif cfg.k0_int is not None:
            u, integrals[i - 1] = integral_control(rel, blocks, integrals[i - 1],
                                                   sim.dt, cfg.k0_int, cfg.k1_int)
        else:
            u = consensus_term(rel, blocks)
        u = R @ u
        if cfg.perturbation is not None:
            u = perturb_control(u, cfg.perturbation.c[i - 1],
                                cfg.perturbation.alpha[i - 1])
        us[i - 1] = u
    return us


class TestTeamStep:
    @pytest.mark.parametrize("law", sorted(TEAM_LAWS))
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_matches_per_agent_laws_in_local_frames(self, hex_gains, law, noise):
        model, controller = TEAM_LAWS[law]
        rng = np.random.default_rng(11)
        states = rng.uniform(-2.0, 2.0, size=(6, model.state_dim()))
        scenario, _ = hexagon_scenario(
            agents=model,
            controller=controller,
            frame_angles=tuple(rng.uniform(-math.pi, math.pi, size=6)),
            sim=SimConfig(t_final=0.03, seed=5, measurement_noise=noise,
                          init=InitSpec(kind="explicit", states=states)),
        )
        log = run(scenario, hex_gains)
        # Explicit starts draw nothing, so noise is the generator's first use.
        draws = np.random.default_rng(5)
        integrals = [IntegralState() for _ in range(6)]
        for k in range(log.t.size):
            want = reference_commands(scenario, hex_gains[0], log.states[k],
                                      integrals, draws)
            assert np.max(np.abs(log.commands[k] - want)) < 1e-12


class TestSwitching:
    def test_switch_times_honored_in_log(self, hex_gains):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        cycle = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm_a = hex_gains[0]
        gm_b, _ = design_gains(cycle, spec)
        scenario = Scenario(
            formation=spec,
            topologies=(cycle, cycle),
            schedule=((0.0, 0), (2.0, 1), (4.0, 0)),
            sim=SimConfig(t_final=6.0),
        )
        log = run(scenario, [gm_a, gm_b])
        t = log.t
        assert np.all(log.topology_index[t < 2.0] == 0)
        assert np.all(log.topology_index[(t >= 2.0) & (t < 4.0)] == 1)
        assert np.all(log.topology_index[t >= 4.0] == 0)


class TestCsv:
    def test_schema_and_round_trip_values(self, hex_gains, tmp_path):
        scenario, _ = hexagon_scenario(sim=SimConfig(t_final=1.0))
        log = run(scenario, hex_gains)
        path = tmp_path / "out.csv"
        write_csv(log, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[1:3] == ["x_1", "y_1"]
        assert header[-3:] == ["subspace_error", "lyapunov_value",
                               "min_pairwise_distance"]
        assert len(lines) == log.t.size + 1
        # repr round-trips every float exactly.
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == log.t[0]
        assert first[1] == log.states[0, 0, 0]
        assert first[-1] == log.min_distance[0]

    def test_column_names_per_model(self):
        assert state_column_names(AgentModel()) == ("x", "y")
        assert state_column_names(AgentModel(dynamics="chain", chain_order=2)) == (
            "x", "y", "x_d1", "y_d1", "x_d2", "y_d2"
        )
        assert state_column_names(
            AgentModel(dynamics="unicycle", kinematic_only=False)
        ) == ("x", "y", "theta", "v", "omega")
        assert state_column_names(AgentModel(dynamics="car")) == (
            "x", "y", "theta", "phi"
        )


class TestLogConsistency:
    def test_min_distance_matches_positions(self, hex_gains):
        scenario, _ = hexagon_scenario(sim=SimConfig(t_final=2.0))
        log = run(scenario, hex_gains)
        for k in (0, len(log.t) // 2, -1):
            assert log.min_distance[k] == pytest.approx(
                min_pairwise_distance(log.positions()[k]), abs=1e-12
            )
