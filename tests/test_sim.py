"""Closed-loop simulation engine: determinism, schedules, logs, monitoring."""

import dataclasses
import math
import re

import numpy as np
import pytest

from reference_laws import (
    IntegralState,
    active_topology,
    avoidance,
    block_row,
    consensus_term,
    higher_order_control,
    integral_control,
    local_frame_run,
    scale_augmented_control,
)

from bcbform import gains as gains_mod
from bcbform import sim as sim_module
from bcbform.cli import DEMO_NAMES, demo_scenario
from bcbform.collision import (
    AvoidanceConfig,
    activation_candidates,
    adjust_control,
    build_cones,
)
from bcbform.controllers import (
    ControllerConfig,
    PerturbationConfig,
    ScaleConfig,
    _edge_arrays,
    perturb_control,
    rotation,
)
from bcbform.dynamics import heading_vector
from bcbform.errors import ConfigurationError, GuaranteeViolationError
from bcbform.gains import GainMatrix, design_gains, design_joint_gains, verify_gains
from bcbform.geometry import (
    FormationSpec,
    SensingGraph,
    build_kernel_basis,
    min_pairwise_distance,
)
from bcbform.sim import (
    AgentModel,
    InitSpec,
    Scenario,
    SimConfig,
    check_gains,
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
        t = np.array([0.0, 4.999, 5.0, 9.999, 10.0, 1e6])
        index = sim_module._topology_indices(self.SCHEDULE, t)
        assert index.tolist() == [0, 0, 1, 1, 0, 0]
        assert index.tolist() == [active_topology(self.SCHEDULE, x) for x in t]

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

    def test_init_checked_when_built(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        with pytest.raises(ConfigurationError, match="init kind"):
            InitSpec(kind="grid")
        bad = SimConfig(init=InitSpec(kind="explicit", states=np.zeros((6, 3))))
        with pytest.raises(ConfigurationError, match=r"\(6, 3\)"):
            Scenario(formation=spec, topologies=(g,), schedule=((0.0, 0),), sim=bad)

    @pytest.mark.parametrize("controller, named", [
        (ControllerConfig(scale=ScaleConfig(d_star={(1, 2): 1.0})), "controller.scale"),
        (ControllerConfig(k0_int=1.0, k1_int=0.5), "controller.k0_int, controller.k1_int"),
    ], ids=["scale", "integral"])
    def test_chain_refuses_laws_it_has_not(self, controller, named):
        # A chain runs its own law; these settings would be dropped.
        with pytest.raises(ConfigurationError, match=f"remove {named}"):
            hexagon_scenario(agents=AgentModel(dynamics="chain"), controller=controller)

    @pytest.mark.parametrize("k_chain", [(1.0,), (1.0, 4.0, 6.0), (1.0, 4.0, 6.0, 4.0, 1.0)])
    def test_chain_refuses_gains_of_the_wrong_length(self, k_chain):
        # The root check covers only the polynomial of the gains' length.
        with pytest.raises(ConfigurationError, match=(
                f"controller.k_chain has {len(k_chain)} gains; "
                "agents.chain_order 3 needs 4")):
            hexagon_scenario(agents=AgentModel(dynamics="chain"),
                             controller=ControllerConfig(k_chain=k_chain))

    @pytest.mark.parametrize("dynamics, setting", [
        ("single_integrator", "v_max"), ("single_integrator", "omega_max"),
        ("single_integrator", "phi_max"), ("single_integrator", "k_s"),
        ("chain", "v_max"), ("chain", "phi_max"), ("unicycle", "u_max"),
        ("unicycle", "phi_max"), ("car", "u_max"),
    ])
    def test_refuses_projection_settings_its_dynamics_never_read(self, dynamics, setting):
        chain = {"k_chain": CHAIN_K} if dynamics == "chain" else {}
        controller = ControllerConfig(**chain, **{setting: 0.5})
        with pytest.raises(ConfigurationError, match=(
                f"{dynamics} dynamics never read these settings; "
                f"remove controller.{setting}$")):
            hexagon_scenario(agents=AgentModel(dynamics=dynamics), controller=controller)

    @pytest.mark.parametrize("agents", [AgentModel(), AgentModel(dynamics="unicycle")],
                             ids=["single_integrator", "kinematic_unicycle"])
    @pytest.mark.parametrize("k_chain", [[1.0], np.array([1.0])], ids=["list", "array"])
    def test_default_chain_and_actuator_settings_load_anywhere(self, agents, k_chain):
        # Scenario files name every field, so defaults are never refused.
        hexagon_scenario(agents=agents, controller=ControllerConfig(
            k_chain=k_chain, chain_variant="identity_derivatives", actuator_mode="direct"))

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

    @pytest.mark.parametrize("t_final", [0.3, 0.7])
    def test_whole_horizon_keeps_its_last_sample(self, hex_gains, t_final):
        # t_final / dt rounds below the whole number of steps in both cases.
        assert t_final / 0.1 < round(t_final / 0.1)
        scenario, _ = hexagon_scenario(sim=SimConfig(dt=0.1, t_final=t_final))
        log = run(scenario, hex_gains)
        assert log.t.size == round(t_final / 0.1) + 1
        assert log.t[-1] == pytest.approx(t_final)

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
        params = hex_gains[0].params.copy()
        params[0, 0] += 0.5
        with pytest.raises(GuaranteeViolationError):
            run(scenario, [GainMatrix(graph, params)])

    def test_gains_for_other_edge_set_refused(self, hex_gains):
        # Both name the first edge in which the two graphs differ: one the
        # gains lack, or one they have and the scenario's graph does not.
        scenario, _ = hexagon_scenario()
        basis = build_kernel_basis(scenario.formation)
        complete = SensingGraph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
        path = SensingGraph(6, [(i, i + 1) for i in range(1, 6)])
        for graph, named in ((complete, "the gains have no gain block for edge (1, 3)"),
                             (path, "the gains have a block for edge (1, 6), which is "
                                    "not in the scenario's graph")):
            other = dataclasses.replace(scenario, topologies=(graph,))
            with pytest.raises(ConfigurationError, match=re.escape(f"topology 0: {named}")):
                check_gains(other, hex_gains, basis)
            with pytest.raises(ConfigurationError, match=re.escape(named)):
                run(other, hex_gains)

    def test_asymmetric_gains_refused(self):
        # A change of b that keeps A q* = 0 but not sum_j b_ij = 0 skews the
        # diagonal blocks.  eigvalsh reads one triangle, so the spectrum check
        # alone passes it.
        scenario, _, _ = demo_scenario("triangle")
        graph, spec = scenario.topologies[0], scenario.formation
        gm, _ = design_gains(graph, spec)
        G, _ = gains_mod._constraints(gains_mod._VariablePool([graph]), spec, -1.0)
        kernel, symmetry = G[:12], G[12:18]  # two kernel rows, one symmetry row per agent
        _, S, Vt = np.linalg.svd(kernel)
        N = Vt[np.count_nonzero(S > 1e-10 * S[0]):].T
        delta = N @ (N.T @ symmetry[0])
        delta *= 1e-6 / np.max(np.abs(delta))
        tampered = GainMatrix(graph, gm.params + delta.reshape(-1, 2))
        basis = build_kernel_basis(spec)
        report = verify_gains(tampered, basis)
        A = tampered.assembled
        assert report.passed
        assert np.max(np.abs(A - A.T)) > 2 * report.zero_tolerance
        ((_, _, failure),) = check_gains(scenario, [tampered], basis)
        assert failure.startswith("topology 0: assembled gain matrix is not symmetric")
        assert "agent 1 has signed sum_j b_ij = 1.000e-06, not 0" in failure
        with pytest.raises(GuaranteeViolationError, match="not symmetric"):
            run(scenario, [tampered])

    def test_unstable_chain_gains_refused(self, hex_gains):
        # On the hexagon spectrum {-2/3, -4/3} these chain gains put a
        # closed-loop root in the right half-plane.
        scenario, _ = hexagon_scenario(
            agents=AgentModel(dynamics="chain", chain_order=3),
            controller=ControllerConfig(k_chain=(2.0, 2.0, 3.0, 3.0)),
        )
        with pytest.raises(GuaranteeViolationError) as exc:
            run(scenario, hex_gains)
        msg = str(exc.value)
        assert "topology 0" in msg and "mu=-1.33333" in msg
        assert float(msg.rsplit("real part ", 1)[1].rstrip(")")) > 0.0

    def test_gain_count_must_match_topologies(self, hex_gains):
        scenario, _ = hexagon_scenario()
        with pytest.raises(ConfigurationError):
            run(scenario, hex_gains + hex_gains)

    def test_local_frames_do_not_change_trajectories(self):
        # The engine steps the team in the world frame and never reads
        # frame_angles.  Agents that each measure and command in their own
        # rotated frame move the same, because the blocks a I + b K commute
        # with rotations.  Over 5 s both demos agree to 8.1e-14.
        for name in ("hexagon", "triangle"):
            scenario, _, opts = demo_scenario(name)
            scenario = dataclasses.replace(
                scenario, frame_angles=(0.3, -1.2, 2.0, 0.0, -0.7, 1.5),
                sim=dataclasses.replace(scenario.sim, t_final=5.0))
            gains, _ = design_joint_gains(list(scenario.topologies), scenario.formation, opts)
            log = run(scenario, gains)
            want = local_frame_run(scenario, gains, log.states[0], log.t.size)
            assert np.max(np.abs(log.states - want)) <= 5e-13, name

    def test_lyapunov_monitor_clean_descent(self, hex_gains):
        scenario, _ = hexagon_scenario()
        log = run(scenario, hex_gains)
        report = lyapunov_monitor(log, hex_gains)
        assert report.violations == 0

    @pytest.mark.parametrize("agents, controller", [
        (AgentModel(dynamics="chain", chain_order=3),
         ControllerConfig(k_chain=(1.0, 4.0, 6.0, 4.0))),
        (AgentModel(), ControllerConfig(k0_int=1.0, k1_int=0.5)),
    ], ids=["chain", "integral"])
    def test_lyapunov_monitor_skips_chain_and_integral(self, hex_gains, agents, controller):
        # The position-only quadratic is not the theorem's candidate here.
        scenario, _ = hexagon_scenario(agents=agents, controller=controller)
        log = run(scenario, hex_gains)
        assert log.summary.lyapunov_violations is None
        report = lyapunov_monitor(log, hex_gains)
        assert report.violations is None and report.flagged_steps == []

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

    def test_kinematic_rear_drive_car_moves_front_axle_at_full_speed(self, hex_gains):
        # The rear wheels turn at cos(phi) g^T u, which drives the front axle
        # at g^T u; one step moves it by dt g^T u along the steering direction.
        rng = np.random.default_rng(7)
        states = np.column_stack([rng.uniform(-2.0, 2.0, size=(6, 2)),
                                  rng.uniform(-math.pi, math.pi, size=6),
                                  np.full(6, math.pi / 4)])
        sim = SimConfig(dt=0.01, t_final=0.02,
                        init=InitSpec(kind="explicit", states=states))
        car, _ = hexagon_scenario(agents=AgentModel(dynamics="car", drive="rear"),
                                  sim=sim)
        holonomic, _ = hexagon_scenario(sim=dataclasses.replace(
            sim, init=InitSpec(kind="explicit", states=states[:, :2])))
        u = run(holonomic, hex_gains).commands[0]
        g = heading_vector(states[:, 2] + states[:, 3])
        log = run(car, hex_gains)
        moved = log.states[1, :, :2] - log.states[0, :, :2]
        assert np.allclose(np.sum(moved * g, axis=1), 0.01 * np.sum(g * u, axis=1),
                           rtol=1e-4, atol=0.0)

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


CHAIN_K = (1.0, 4.0, 6.0, 4.0)  # root-stable on the hexagon spectrum
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
    """The per-agent laws of ``reference_laws``, evaluated in each agent's
    rotated frame and rotated back.

    This is the order in which the simulator has always drawn measurement
    noise: agent by agent, positions first, then each derivative order.
    """
    cfg, model, sim = scenario.controller, scenario.agents, scenario.sim
    graph = scenario.topologies[0]
    us = np.zeros((6, 2))
    for i in range(1, 7):
        R = rotation(scenario.frame_angles[i - 1])
        blocks = block_row(gm, i)
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

    def test_perturbation_bound_once_is_per_step_perturb_control(self, hex_gains, monkeypatch):
        """A perturbed unicycle run, with c and R(alpha) bound once, logs the
        bytes of the run that calls perturb_control on every step."""
        pert = TEAM_LAWS["perturbation"][1].perturbation
        scenario, _ = hexagon_scenario(agents=AgentModel(dynamics="unicycle"),
                                       controller=ControllerConfig(perturbation=pert),
                                       sim=SimConfig(t_final=2.0, seed=3))
        log = run(scenario, hex_gains)
        unperturbed = sim_module._command(
            dataclasses.replace(scenario, controller=ControllerConfig()))

        def per_step(scenario):
            def command(edges, states, integral, rng):
                u, integral = unperturbed(edges, states, integral, rng)
                return perturb_control(u, pert.c, pert.alpha), integral
            return command

        monkeypatch.setattr(sim_module, "_command", per_step)
        ref = run(scenario, hex_gains)
        assert np.any(log.commands != 0.0)
        assert log.states.tobytes() == ref.states.tobytes()
        assert log.commands.tobytes() == ref.commands.tobytes()


GRID9 = [(c, -r) for r in range(3) for c in range(3)]
AVOID = AvoidanceConfig(r=0.1, d_c=0.25, margin=0.01)


def reference_candidates(positions, cfg):
    """The candidate mask of one (n, 2) state as the per-step loop took it."""
    diff = positions[None, :, :] - positions[:, None, :]
    near = ~(np.einsum("ijk,ijk->ij", diff, diff) > (cfg.d_c * (1.0 + 1e-9)) ** 2)
    np.fill_diagonal(near, False)
    return near


class TestAvoidancePrefilter:
    # Agents 1-2 coincide; 3-4 are exactly d_c apart by build_cones' norm,
    # while their squared distance rounds one ulp above d_c**2; 5-6 are
    # inside r; 7-8 are 1e-12 beyond d_c, inside the candidate slack; 9 is
    # alone.
    CROWDED = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0 + 2.0**-28, 0.25],
                        [4.0, 0.0], [4.05, 0.0], [6.0, 0.0], [6.25 + 1e-12, 0.0],
                        [10.0, 10.0]])

    @pytest.fixture(scope="class")
    def grid9(self):
        spec = FormationSpec.from_coordinates(GRID9)
        graph = SensingGraph(9, [(i, j) for i in range(1, 10) for j in range(i + 1, 10)])
        gm, _ = design_gains(graph, spec)
        return spec, graph, [gm]

    def scenario(self, grid9, t_final):
        spec, graph, _ = grid9
        return Scenario(
            formation=spec, topologies=(graph,), schedule=((0.0, 0),), avoidance=AVOID,
            sim=SimConfig(t_final=t_final,
                          init=InitSpec(kind="explicit", states=self.CROWDED)),
        )

    def check_steps(self, scenario, gains, log):
        """Each logged command equals the reference applied to that step's
        unadjusted command: bitwise on steps with candidates, which run the
        law, and to 1e-12 on the others, which take the one-step map.
        Returns how many commands avoidance changed."""
        command, _, _ = sim_module._build_step(scenario)
        edges = _edge_arrays(gains[0], None, 1)
        changed = 0
        for k in range(log.t.size):
            u, _ = command(edges, log.states[k], None, None)
            want = avoidance(u, log.states[k], scenario.avoidance)
            if activation_candidates(log.states[k], scenario.avoidance).any():
                assert np.array_equal(log.commands[k], want)
            else:
                assert np.max(np.abs(log.commands[k] - want)) <= 1e-12
            changed += int(np.sum(np.any(want != u, axis=1)))
        return changed

    def test_crowded_step_matches_per_agent_reference(self, grid9):
        near = activation_candidates(self.CROWDED, AVOID)
        assert near[0, 1] and near[2, 3] and near[4, 5] and near[6, 7]
        assert not near[8].any() and not near.diagonal().any()
        scenario = self.scenario(grid9, t_final=0.02)
        log = run(scenario, grid9[2])
        assert self.check_steps(scenario, grid9[2], log) > 0

    def test_stacked_masks_are_each_states_own(self):
        with_nan = self.CROWDED.copy()
        with_nan[4, 1] = np.nan
        states = [self.CROWDED, with_nan, np.array(GRID9, dtype=float), self.CROWDED[::-1]]
        # Positions as the simulator passes them: a view of wider states.
        stack = np.zeros((4, 9, 4))
        stack[:, :, :2] = states
        masks = activation_candidates(stack[:, :, :2], AVOID)
        assert masks.shape == (4, 9, 9)
        for state, mask in zip(states, masks):
            assert np.array_equal(mask, activation_candidates(state, AVOID))
            assert np.array_equal(mask, reference_candidates(state, AVOID))
        # A NaN coordinate keeps every pair of its agent.
        assert masks[1, 4].sum() == masks[1, :, 4].sum() == 8
        nested = activation_candidates(np.reshape(states, (2, 2, 9, 2)), AVOID)
        assert np.array_equal(nested, masks.reshape(2, 2, 9, 9))

    def test_run_matches_per_agent_reference(self, grid9):
        scenario = self.scenario(grid9, t_final=1.995)
        log = run(scenario, grid9[2])
        assert log.t.size == 200
        assert self.check_steps(scenario, grid9[2], log) > 0


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


HEX_CYCLE = [(i, i % 6 + 1) for i in range(1, 7)]
HEX_CHORDS = HEX_CYCLE + [(1, 4), (2, 5), (3, 6)]
SWITCHING = ((0.0, 0), (0.5, 1), (1.23, 0), (1.5, 1))


@pytest.fixture(scope="module")
def hex_switching():
    """The hexagon on its cycle and on the cycle with its long diagonals."""
    spec = FormationSpec.from_coordinates(HEX_POINTS)
    graphs = (SensingGraph(6, HEX_CYCLE), SensingGraph(6, HEX_CHORDS))
    return graphs, [design_gains(g, spec)[0] for g in graphs]


def stepwise_pieces(scenario, gains):
    """(commands, advance) of the step that run builds: ``commands(topo,
    states, integral, rng)`` runs the law, avoidance and projection into a
    new array and also returns the integral law's next state."""
    model, cfg = scenario.agents, scenario.controller
    full_A = model.dynamics == "chain" and cfg.chain_variant == "full_A"
    orders = model.chain_order + 1 if full_A else 1
    edges = [_edge_arrays(gm, cfg.scale, orders) for gm in gains]
    command, project, advance = sim_module._build_step(scenario)
    avoid = scenario.avoidance

    def commands(topo, states, integral, rng):
        us, next_integral = command(edges[topo], states, integral, rng)
        if avoid is not None:
            positions = states[:, :2]
            near = activation_candidates(positions, avoid)
            us = adjust_control(us, build_cones(positions, near, avoid), avoid)
        return project(states, us, np.empty((len(states), 2))), next_integral

    return commands, advance


def stepwise(scenario, gains):
    """States and commands of a plain per-step loop over the step that run
    builds: one command, avoidance, projection and advance per step, each
    into a new array, with the topology looked up per step."""
    dt = scenario.sim.dt
    commands, advance = stepwise_pieces(scenario, gains)
    integral = None
    rng = np.random.default_rng(scenario.sim.seed)
    states = sim_module._initial_states(scenario, rng)
    steps = int(math.floor(scenario.sim.t_final / dt)) + 1
    states_log, cmds_log = [], []
    for k in range(steps):
        topo = active_topology(scenario.schedule, k * dt)
        cmds, next_integral = commands(topo, states, integral, rng)
        states_log.append(states)
        cmds_log.append(cmds)
        if k + 1 < steps:
            states = advance(states, cmds, np.empty_like(states))
            integral = next_integral
    return np.array(states_log), np.array(cmds_log)


def switching_scenario(graphs, switching, model, controller):
    rng = np.random.default_rng(21)
    init = InitSpec(kind="explicit", states=rng.uniform(-3.0, 3.0, size=(6, model.state_dim())))
    return Scenario(
        formation=FormationSpec.from_coordinates(HEX_POINTS),
        topologies=graphs if switching else graphs[:1],
        schedule=SWITCHING if switching else ((0.0, 0),),
        agents=model,
        controller=controller,
        sim=SimConfig(t_final=2.0, init=init),
    )


def count_commands(monkeypatch):
    """(commands built, commands computed) over the steps run builds."""
    builds, calls = [], []
    build = sim_module._command

    def counting(scenario):
        command = build(scenario)
        builds.append(1)
        return lambda *a: calls.append(1) or command(*a)

    monkeypatch.setattr(sim_module, "_command", counting)
    return builds, calls


class TestOneStepMap:
    LINEAR = ("consensus", "perturbation", "chain_identity", "chain_full_A")

    @pytest.mark.parametrize("switching", [False, True], ids=["fixed", "switching"])
    @pytest.mark.parametrize("law", LINEAR)
    def test_matches_stage_by_stage_step(self, hex_switching, monkeypatch, law, switching):
        graphs, gains = hex_switching
        model, controller = TEAM_LAWS[law]
        scenario = switching_scenario(graphs, switching, model, controller)
        gains = gains[: len(scenario.topologies)]
        builds, calls = count_commands(monkeypatch)
        log = run(scenario, gains)
        # One step per run, and commands only for its probes: one per unit
        # state and topology.
        assert len(builds) == 1
        assert len(calls) == len(gains) * 6 * model.state_dim()
        states, cmds = stepwise(scenario, gains)
        assert log.t.size == 201
        assert np.max(np.abs(log.states - states)) <= 1e-12
        assert np.max(np.abs(log.commands - cmds)) <= 1e-12
        if switching:
            assert set(log.topology_index.tolist()) == {0, 1}

    BYPASS = {
        "u_max_avoidance": dict(avoidance=AVOID, controller=ControllerConfig(u_max=0.5),
                                sim=SimConfig(t_final=2.0, init=InitSpec(low=(-1, -1),
                                                                         high=(1, 1)))),
        "u_max": dict(controller=ControllerConfig(u_max=0.5)),
        "scale": dict(controller=TEAM_LAWS["scale"][1]),
        "integral": dict(controller=TEAM_LAWS["integral"][1]),
        "noise": dict(sim=SimConfig(t_final=2.0, seed=4, measurement_noise=0.05)),
        "unicycle": dict(agents=AgentModel(dynamics="unicycle")),
        "car": dict(agents=AgentModel(dynamics="car", drive="rear")),
    }

    @pytest.mark.parametrize("case", sorted(BYPASS))
    def test_other_runs_keep_the_stage_by_stage_step(self, hex_gains, monkeypatch, case):
        scenario, _ = hexagon_scenario(**{"sim": SimConfig(t_final=2.0), **self.BYPASS[case]})
        builds, calls = count_commands(monkeypatch)
        log = run(scenario, hex_gains)
        assert len(builds) == 1 and len(calls) == log.t.size
        states, cmds = stepwise(scenario, hex_gains)
        assert np.array_equal(log.states, states)
        assert np.array_equal(log.commands, cmds)

    def check_cone_steps(self, scenario, gains, monkeypatch):
        """Run ``scenario``: the law runs on the steps with candidates and in
        the probes, and nowhere else.  States and the map steps' commands
        match ``stepwise`` to 1e-12.  A cone step's command is bitwise the
        step's own on its logged state: against ``stepwise`` the cone rule's
        arcsin can amplify a 1e-14 state difference past 1e-12.  Returns
        how many steps had candidates."""
        builds, calls = count_commands(monkeypatch)
        log = run(scenario, gains)
        cone = np.array([activation_candidates(p, scenario.avoidance).any()
                         for p in log.positions()])
        assert len(builds) == 1
        n, dim = scenario.formation.n, scenario.agents.state_dim()
        assert len(calls) == cone.sum() + len(gains) * n * dim
        states, cmds = stepwise(scenario, gains)
        assert np.max(np.abs(log.states - states)) <= 1e-12
        assert np.max(np.abs(log.commands[~cone] - cmds[~cone])) <= 1e-12
        commands, _ = stepwise_pieces(scenario, gains)
        for k in np.flatnonzero(cone):
            want, _ = commands(log.topology_index[k], log.states[k], None, None)
            assert want.tobytes() == log.commands[k].tobytes()
        return int(cone.sum())

    def test_avoidance_takes_the_map_between_cone_steps(self, hex_gains, monkeypatch):
        scenario, _ = hexagon_scenario(avoidance=AVOID, sim=SimConfig(
            t_final=2.0, init=InitSpec(low=(-1, -1), high=(1, 1))))
        assert 0 < self.check_cone_steps(scenario, hex_gains, monkeypatch) < 201

    @pytest.mark.parametrize("switching", [False, True], ids=["fixed", "switching"])
    @pytest.mark.parametrize("law", ("perturbation", "chain_identity", "chain_full_A"))
    def test_avoidance_with_other_linear_laws(self, hex_switching, monkeypatch, law,
                                              switching):
        graphs, gains = hex_switching
        model, controller = TEAM_LAWS[law]
        scenario = dataclasses.replace(
            switching_scenario(graphs, switching, model, controller),
            avoidance=AvoidanceConfig(r=0.2, d_c=0.6, margin=0.01),
        )
        gains = gains[: len(scenario.topologies)]
        assert 0 < self.check_cone_steps(scenario, gains, monkeypatch) < 201

    def test_avoidance_never_engaged_is_the_plain_map_run(self, hex_gains):
        scenario, _ = hexagon_scenario(avoidance=AVOID, sim=SimConfig(t_final=2.0))
        log = run(scenario, hex_gains)
        assert not any(activation_candidates(p, AVOID).any() for p in log.positions())
        plain = run(dataclasses.replace(scenario, avoidance=None), hex_gains)
        assert np.array_equal(log.states, plain.states)
        assert np.array_equal(log.commands, plain.commands)


def map_stepwise(scenario, gains):
    """States and commands of a per-step map loop over the step run builds:
    each step tests its own state, and takes x+ = T x with the command F x
    when no pair is within d_c, else the law, avoidance, projection and RK4."""
    n, dim, dt = scenario.formation.n, scenario.agents.state_dim(), scenario.sim.dt
    step = sim_module._build_step(scenario)
    command, project, advance = step
    cfg = scenario.avoidance
    edges = [_edge_arrays(gm, None, 1) for gm in gains]
    maps = [sim_module._one_step_map(step, e, n, dim) for e in edges]
    steps = int(math.floor(scenario.sim.t_final / dt)) + 1
    states, cmds = np.zeros((steps, n, dim)), np.zeros((steps, n, 2))
    states[0] = sim_module._initial_states(scenario, np.random.default_rng(scenario.sim.seed))
    for k in range(steps):
        topo, x = active_topology(scenario.schedule, k * dt), states[k]
        near = activation_candidates(x[:, :2], cfg)
        if near.any():
            us, _ = command(edges[topo], x, None, None)
            project(x, adjust_control(us, build_cones(x[:, :2], near, cfg), cfg), cmds[k])
            if k + 1 < steps:
                advance(x, cmds[k], states[k + 1])
        else:
            T, F = maps[topo]
            cmds[k] = (F @ x.ravel()).reshape(n, 2)
            if k + 1 < steps:
                states[k + 1] = (T @ x.ravel()).reshape(n, dim)
    return states, cmds


class TestBlockSteps:
    """Map-stepped runs step cone-free stretches in blocks, with one stacked
    candidate test and one stacked command product per block."""

    def test_close_pass_mid_stretch_takes_the_cone_step_in_place(self, hex_gains,
                                                                  monkeypatch):
        # Seed 48 brings two agents within d_c once, well inside the run.
        scenario, _ = hexagon_scenario(avoidance=AVOID, sim=SimConfig(
            t_final=6.0, seed=48, init=InitSpec(low=(-2, -2), high=(2, 2))))
        states, cmds = map_stepwise(scenario, hex_gains)
        builds, calls = count_commands(monkeypatch)
        sizes = []
        test = sim_module.activation_candidates
        monkeypatch.setattr(sim_module, "activation_candidates",
                            lambda p, cfg: sizes.append(len(p)) or test(p, cfg))
        log = run(scenario, hex_gains)
        cone = np.flatnonzero([activation_candidates(p, AVOID).any()
                               for p in log.positions()])
        assert 150 < cone[0] and cone[-1] < 450 and np.all(np.diff(cone) == 1)
        assert np.array_equal(log.states, states)
        assert np.array_equal(log.commands, cmds)
        # One step built, the law on the cone steps and the 12 probes only.
        assert len(builds) == 1 and len(calls) == cone.size + 12
        assert sim_module.BLOCK_CAP in sizes and len(sizes) < log.t.size - cone.size

    def test_blocks_stop_at_switches_and_the_last_step(self, monkeypatch):
        # Three agents circle the origin at radii 1, 1.1 and 5, each turned by
        # its own angle per step; the first two pass within d_c once, near
        # step 50.  Topology 1 turns them by other angles, so a block that
        # crossed a switch would step with the wrong map.  Cone steps push
        # the agents outward, so a speculative row left in place shows, and
        # log part of the mask they were given.
        def turns(*angles):
            T = np.zeros((6, 6))
            for i, angle in enumerate(angles):
                T[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation(angle)
            return T

        rng = np.random.default_rng(5)
        maps = [(turns(0.010, 0.004, 0.02), rng.standard_normal((6, 6))),
                (turns(0.012, 0.003, -0.01), rng.standard_normal((6, 6)))]
        steps, switches = 400, (150, 230)
        topo = np.zeros(steps, dtype=np.int64)
        topo[switches[0] : switches[1]] = 1
        start = np.array([[1.0, 0.0], [1.1 * math.cos(0.5), 1.1 * math.sin(0.5)],
                          [0.0, 5.0]])

        def logs():
            states, cmds = np.zeros((steps, 3, 2)), np.zeros((steps, 3, 2))
            states[0] = start
            taken = []

            def cone_step(k, topo_idx, near):
                taken.append(k)
                cmds[k] = near[:, :2]
                if k + 1 < steps:
                    T = maps[topo_idx][0]
                    states[k + 1] = 1.001 * (T @ states[k].ravel()).reshape(3, 2)

            return states, cmds, taken, cone_step

        want, want_cmds, want_taken, cone_step = logs()
        for k in range(steps):
            near = activation_candidates(want[k], AVOID)
            if near.any():
                cone_step(k, topo[k], near)
                continue
            T, F = maps[topo[k]]
            want_cmds[k] = (F @ want[k].ravel()).reshape(3, 2)
            if k + 1 < steps:
                want[k + 1] = (T @ want[k].ravel()).reshape(3, 2)

        states, cmds, taken, cone_step = logs()
        blocks = []
        test = sim_module.activation_candidates

        def spying(positions, cfg):
            first = (positions.ctypes.data - states.ctypes.data) // states.strides[0]
            blocks.append((first, first + len(positions)))
            return test(positions, cfg)

        monkeypatch.setattr(sim_module, "activation_candidates", spying)
        sim_module._map_steps(states, cmds, topo, maps, AVOID, cone_step)
        assert 40 < want_taken[0] and want_taken[-1] < 140
        assert taken == want_taken
        assert np.array_equal(states, want) and np.array_equal(cmds, want_cmds)
        assert all(topo[a] == topo[b - 1] for a, b in blocks)
        ends = {b for a, b in blocks if b - a > 1}
        assert {*switches, steps} <= ends

    @pytest.mark.parametrize("n, dim", [(9, 2), (6, 8), (9, 8)])
    def test_stacked_command_product_is_per_step(self, n, dim):
        rng = np.random.default_rng(n * dim)
        F = rng.standard_normal((2 * n, n * dim))
        X = rng.standard_normal((1000, n * dim))
        stacked = np.empty((1000, 2 * n))
        np.matmul(F, X[:, :, None], out=stacked[:, :, None])
        per_step = np.array([F @ x for x in X])
        assert np.array_equal(stacked, per_step), (
            "this BLAS rounds the stacked command product differently from "
            "per-step F @ x; map-stepped commands would not be F_k x_k bitwise")


def bisect_bound(radius, lo, hi):
    """The dt in [lo, hi] at which radius(dt) reaches 1."""
    assert radius(lo) < 1.0 <= radius(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < 1.0 else (lo, mid)
    return lo


def chain_mode_radius(mus, k, variant, dt):
    """Spectral radius of the chain's zero-order-hold step, mode by mode.

    Per eigenvalue mu of A the state (q, q', ..., q^(m)) takes
    q_i+ = sum_j q_j dt^(j-i)/(j-i)! + u dt^(m+1-i)/(m+1-i)!, which RK4
    reproduces exactly for m <= 3.  A zero mu contributes its derivative
    levels under identity_derivatives and nothing under full_A, where those
    modes drift along the similarity modes.
    """
    m = len(k) - 1
    shift = [[dt ** (j - i) / math.factorial(j - i) if j >= i else 0.0
              for j in range(m + 1)] for i in range(m + 1)]
    held = [dt ** (m + 1 - i) / math.factorial(m + 1 - i) for i in range(m + 1)]
    worst = 0.0
    for mu in mus:
        if variant == "full_A":
            if mu == 0.0:
                continue
            gain = [kj * mu for kj in k]
        else:
            gain = [k[0] * mu] + [-kj for kj in k[1:]]
        T = np.array(shift) + np.outer(held, gain)
        if mu == 0.0:
            T = T[1:, 1:]
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(T)))))
    return worst


class TestDiscreteStabilityGuard:
    """Loops stepped by their one-step map are refused at spectral radius 1."""

    def check_bound(self, hex_gains, bound, **overrides):
        for factor, refused in ((1.001, True), (0.999, False)):
            dt = bound * factor
            scenario, _ = hexagon_scenario(sim=SimConfig(dt=dt, t_final=10 * dt), **overrides)
            if refused:
                with pytest.raises(ConfigurationError) as exc:
                    run(scenario, hex_gains)
                msg = str(exc.value)
                assert "topology 0" in msg and f"sim.dt={dt:g}" in msg
                assert float(msg.split("spectral radius ")[1].split()[0]) >= 1.0
            else:
                assert run(scenario, hex_gains).t.size == 11

    @pytest.mark.parametrize("variant", ["identity_derivatives", "full_A"])
    def test_chain_refused_beyond_bound(self, hex_gains, variant):
        eig = np.linalg.eigvalsh(hex_gains[0].assembled)
        mus = [0.0 if abs(mu) < 1e-9 else float(mu) for mu in eig]
        bound = bisect_bound(lambda dt: chain_mode_radius(mus, CHAIN_K, variant, dt),
                             1e-3, 10.0)
        model = AgentModel(dynamics="chain", chain_order=3)
        controller = ControllerConfig(k_chain=CHAIN_K, chain_variant=variant)
        self.check_bound(hex_gains, bound, agents=model, controller=controller)

    def test_perturbation_refused_beyond_bound(self, hex_gains):
        # u = P A q with P = diag(c_i R(alpha_i)): q+ = (I + dt P A) q, and
        # |1 + dt lam| < 1 for an eigenvalue lam != 0 of P A while
        # dt < -2 Re(lam) / |lam|^2.
        pert = TEAM_LAWS["perturbation"][1].perturbation
        P = np.zeros((12, 12))
        for i, (c, a) in enumerate(zip(pert.c, pert.alpha)):
            P[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = c * rotation(a)
        lam = np.linalg.eigvals(P @ hex_gains[0].assembled)
        lam = lam[np.abs(lam) > 1e-9]
        assert lam.size == 8
        bound = float(np.min(-2.0 * lam.real / np.abs(lam) ** 2))
        self.check_bound(hex_gains, bound, controller=TEAM_LAWS["perturbation"][1])


def add_at_consensus(edges, part, n, draws):
    """sum_j A_ij (x_j - x_i) per agent by np.add.at over the edge sources,
    as the team step first summed it."""
    rel = part[edges.dst] - part[edges.src]
    if draws is not None:
        rel = rel + draws
    total = np.zeros((n, 2))
    np.add.at(total, edges.src, np.matmul(edges.blocks, rel[:, :, None])[:, :, 0])
    return total


def add_at_command(scenario, edges, states, rng):
    """The consensus and full_A chain command, summed by np.add.at."""
    n, cfg = scenario.formation.n, scenario.controller
    noise = scenario.sim.measurement_noise
    orders, n_edges = edges.draw_rows.shape
    draws = [None] * orders
    if noise > 0.0:
        draws = rng.uniform(-noise, noise, size=(orders * n_edges, 2))[edges.draw_rows]
    u = add_at_consensus(edges, states[:, :2], n, draws[0])
    if scenario.agents.dynamics == "chain":
        k = cfg.k_chain
        u = k[0] * u
        for order in range(1, len(k)):
            part = states[:, 2 * order : 2 * order + 2]
            u = u + k[order] * add_at_consensus(edges, part, n, draws[order])
    return u


class TestEdgeSum:
    """The per-agent edge sum is one np.bincount; it must round exactly like
    np.add.at, which adds each agent's edges in the same order."""

    LAWS = {
        "consensus": TEAM_LAWS["consensus"],
        "chain_full_A": TEAM_LAWS["chain_full_A"],
    }

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["exact", "noisy"])
    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_bitwise_equal_to_add_at(self, name, law, noise):
        demo, _, _ = demo_scenario(name)
        model, controller = self.LAWS[law]
        scenario = dataclasses.replace(
            demo, agents=model, controller=controller, avoidance=None,
            sim=SimConfig(measurement_noise=noise),
        )
        n, dim = scenario.formation.n, model.state_dim()
        orders = model.chain_order + 1 if law == "chain_full_A" else 1
        command, _, _ = sim_module._build_step(scenario)
        rng = np.random.default_rng([len(name), orders])
        degrees = set()
        for graph in scenario.topologies:
            gm = GainMatrix(graph, rng.normal(size=(len(graph.edge_list), 2)))
            edges = _edge_arrays(gm, None, orders)
            degrees.update(np.bincount(edges.src).tolist())
            for seed in range(200):
                states = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, dim))
                got, _ = command(edges, states, None, np.random.default_rng(seed))
                want = add_at_command(scenario, edges, states, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes()
        if name == "switching9":
            assert len(degrees) > 1
