"""Acceptance gate: one criterion per test, one pass/fail line each.

Each test prints ``criterion NN <name>: PASS/FAIL`` on the real stdout so the
gate's verdict is visible regardless of capture settings.  Later criteria
reuse recorded results from earlier ones via module-level stores; a skipped
or failed prerequisite simply leaves its record empty.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from conftest import CAPTURE

from bcbform.cli import demo_scenario
from bcbform.collision import (
    AvoidanceConfig,
    activation_candidates,
    adjust_control,
    build_cones,
)
from reference_laws import star_edges

from bcbform.controllers import (
    ControllerConfig,
    PerturbationConfig,
    ScaleConfig,
    _edge_arrays,
    consensus_term,
    rotation,
    saturate_norm,
    saturate_scalar,
    unicycle_control,
)
from bcbform.gains import (
    SolverOptions,
    design_gains,
    design_joint_gains,
    verify_gains,
    verify_higher_order_gains,
)
from bcbform.geometry import (
    FormationSpec,
    SensingGraph,
    build_kernel_basis,
    rotate90,
)
from bcbform.sim import (
    AgentModel,
    InitSpec,
    Scenario,
    SimConfig,
    _initial_states,
    lyapunov_monitor,
    run,
)

HEX_POINTS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
GRID9 = [(c, -r) for r in range(3) for c in range(3)]

# (label, min_distance, protected_radius_or_None, holonomic) recorded by the
# convergence criteria and aggregated by the collision-safety criterion.
DISTANCE_RECORDS: list[tuple[str, float, float | None, bool]] = []


def _uncaptured():
    manager = CAPTURE.get("manager")
    if manager is None:
        return contextlib.nullcontext()
    return manager.global_and_fixture_disabled()


def report(num: int, name: str, passed: bool) -> None:
    with _uncaptured():
        print(f"\ncriterion {num:02d} {name}: {'PASS' if passed else 'FAIL'}",
              flush=True)
    assert passed, f"criterion {num} ({name}) failed"


def hexagon_scenario(**overrides):
    sim = overrides.pop("sim", SimConfig(t_final=60.0))
    return Scenario(
        formation=FormationSpec.from_coordinates(HEX_POINTS),
        topologies=(SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)]),),
        schedule=((0.0, 0),),
        sim=sim,
        **overrides,
    )


@pytest.fixture(scope="module")
def hex_gains():
    spec = FormationSpec.from_coordinates(HEX_POINTS)
    gm, _ = design_gains(SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)]), spec)
    return [gm]


def projector_gain_oracle(spec):
    q = spec.q_star
    qbar = rotate90(q)
    ones_x = np.zeros(q.size)
    ones_x[0::2] = 1.0
    ones_y = np.zeros(q.size)
    ones_y[1::2] = 1.0
    Qo, _ = np.linalg.qr(np.column_stack([q, qbar, ones_x, ones_y]))
    return -(np.eye(q.size) - Qo @ Qo.T)


class TestCriterion01SpectrumContract:
    def test_demo_designs_have_exact_kernel_and_negative_rest(self):
        ok = True
        for name in ("triangle", "hexagon", "grid9"):
            scenario, _, opts = demo_scenario(name)
            start = time.perf_counter()
            gm, _ = design_gains(scenario.topologies[0], scenario.formation, opts)
            elapsed = time.perf_counter() - start
            eig = np.linalg.eigvalsh(gm.assembled)
            tol = 1e-6 * np.max(np.abs(eig))
            zero = np.abs(eig) <= tol
            rest_negative = bool(np.all(eig[~zero] < 0))
            rep = verify_gains(gm, build_kernel_basis(scenario.formation))
            ok &= (
                int(np.sum(zero)) == 4
                and rest_negative
                and rep.kernel_residual <= 1e-7
                and elapsed <= 5.0
            )
        report(1, "kernel dimension and negative spectrum", ok)


class TestCriterion02CompleteGraphOracle:
    def test_solver_matches_projector_construction(self):
        ok = True
        for n in range(3, 9):
            rng = np.random.default_rng(100 + n)
            spec = FormationSpec.from_coordinates(rng.uniform(-5, 5, size=(n, 2)))
            g = SensingGraph(n, [(i, j) for i in range(1, n + 1)
                                 for j in range(i + 1, n + 1)])
            gm, _ = design_gains(g, spec)
            oracle = projector_gain_oracle(spec)
            scale = np.trace(oracle) / np.trace(gm.assembled)
            ok &= np.linalg.norm(gm.assembled * scale - oracle, 2) < 1e-4
        report(2, "complete-graph closed form", ok)


class TestCriterion03SolverScaling:
    def test_fifty_agent_instance_within_time_budget(self):
        rng = np.random.default_rng(3)
        n = 50
        spec = FormationSpec.from_coordinates(rng.uniform(-10, 10, size=(n, 2)))
        g = SensingGraph(n, [(i, j) for i in range(1, n + 1)
                             for j in range(i + 1, n + 1)])
        start = time.perf_counter()
        gm, info = design_gains(g, spec)
        elapsed = time.perf_counter() - start
        rep = verify_gains(gm, build_kernel_basis(spec))
        report(3, "50-agent design under 60 s",
               elapsed < 60.0 and rep.passed and info.converged)


class TestCriterion04SingleIntegratorConvergence:
    def test_twenty_seeds_converge_with_clean_descent(self, hex_gains):
        ok = True
        for seed in range(20):
            scenario = hexagon_scenario(sim=SimConfig(t_final=60.0, seed=seed))
            log = run(scenario, hex_gains)
            mon = lyapunov_monitor(log, hex_gains)
            ok &= log.summary.converged and log.summary.final_subspace_error < 1e-3
            ok &= mon.violations == 0
            DISTANCE_RECORDS.append(
                ("hexagon", float(np.min(log.min_distance)), None, True)
            )
        report(4, "20-seed convergence, zero Lyapunov violations", ok)


class TestCriterion05Robustness:
    def test_perturbed_controls_converge(self, hex_gains):
        ok = True
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            pert = PerturbationConfig(
                c=tuple(rng.uniform(0.2, 5.0, size=6)),
                alpha=tuple(rng.uniform(-0.49 * math.pi, 0.49 * math.pi, size=6)),
            )
            scenario = hexagon_scenario(
                controller=ControllerConfig(perturbation=pert),
                sim=SimConfig(t_final=60.0, seed=seed),
            )
            log = run(scenario, hex_gains)
            mon = lyapunov_monitor(log, hex_gains)
            ok &= log.summary.converged and mon.violations == 0
            DISTANCE_RECORDS.append(
                ("hexagon_perturbed", float(np.min(log.min_distance)), None, True)
            )
        report(5, "rotation/scaling and saturation robustness", ok)

    def test_saturated_controls_converge(self, hex_gains):
        ok = True
        for seed in range(20):
            base = hexagon_scenario(sim=SimConfig(t_final=60.0, seed=seed))
            states = _initial_states(base, np.random.default_rng(seed))
            edges = _edge_arrays(hex_gains[0], None, 1)
            u0 = float(np.max(np.linalg.norm(consensus_term(edges, states)[0], axis=1)))
            scenario = hexagon_scenario(
                controller=ControllerConfig(u_max=0.1 * u0),
                sim=SimConfig(t_final=60.0, seed=seed),
            )
            log = run(scenario, hex_gains)
            mon = lyapunov_monitor(log, hex_gains)
            ok &= log.summary.converged and mon.violations == 0
            DISTANCE_RECORDS.append(
                ("hexagon_saturated", float(np.min(log.min_distance)), None, True)
            )
        report(5, "10%-saturation robustness", ok)


def chain_switching_scenario(seed: int = 42):
    from bcbform.cli import BORDER_CHORDS, DIAG_ALL, DIAG_ANTI, DIAG_MAIN, GRID_EDGES

    spacing = 10.0
    points = [(c * spacing, -r * spacing) for r in range(3) for c in range(3)]
    spec = FormationSpec.from_coordinates(points)
    topos = (
        SensingGraph(9, GRID_EDGES + DIAG_ALL),
        SensingGraph(9, GRID_EDGES + DIAG_MAIN),
        SensingGraph(9, GRID_EDGES + DIAG_ANTI),
        SensingGraph(9, GRID_EDGES + BORDER_CHORDS),
    )
    rng = np.random.default_rng(seed)
    positions = np.asarray(points) + rng.uniform(-3.0, 3.0, size=(9, 2))
    states = np.zeros((9, 8))
    states[:, :2] = positions
    return Scenario(
        formation=spec,
        topologies=topos,
        schedule=tuple((10.0 * k, k % 4) for k in range(30)),
        agents=AgentModel(dynamics="chain", chain_order=3),
        controller=ControllerConfig(k_chain=(2.0, 2.0, 3.0, 3.0),
                                    chain_variant="identity_derivatives"),
        avoidance=AvoidanceConfig(r=4.0, d_c=8.0, margin=1.0),
        sim=SimConfig(t_final=300.0, seed=seed,
                      init=InitSpec(kind="explicit", states=states)),
    )


class TestCriterion06HigherOrder:
    def test_chain_switching_with_avoidance(self):
        scenario = chain_switching_scenario()
        mats, info = design_joint_gains(
            list(scenario.topologies), scenario.formation,
            SolverOptions(trace_budget=-2.0),
        )
        root_ok = True
        for gm in mats:
            eig = np.linalg.eigvalsh(gm.assembled)
            mus = eig[np.abs(eig) > 1e-9]
            rep = verify_higher_order_gains(mus, [2.0, 2.0, 3.0, 3.0],
                                            "identity_derivatives")
            root_ok &= rep.passed
        log = run(scenario, mats)
        min_dist = float(np.min(log.min_distance))
        DISTANCE_RECORDS.append(("chain_switching", min_dist, 4.0, True))
        report(6, "fourth-order chain with switching and avoidance",
               root_ok and log.summary.converged and min_dist >= 4.0)


def unicycle_scenario(kinematic: bool, seed: int):
    rng = np.random.default_rng(42)
    from bcbform.dynamics import ActuatorParams

    actuators = tuple(
        ActuatorParams(*row) for row in rng.uniform(5.0, 10.0, size=(9, 4))
    )
    spec = FormationSpec.from_coordinates([(4 * c, -4 * r)
                                           for r in range(3) for c in range(3)])
    g = SensingGraph(9, [(i, j) for i in range(1, 10) for j in range(i + 1, 10)])
    if kinematic:
        agents = AgentModel(dynamics="unicycle", kinematic_only=True)
        controller = ControllerConfig(v_max=3.0, omega_max=math.pi / 4)
    else:
        agents = AgentModel(dynamics="unicycle", kinematic_only=False,
                            actuators=actuators)
        controller = ControllerConfig(v_max=3.0, omega_max=math.pi / 4,
                                      actuator_mode="velocity_feedback", k_s=5.0)
    return Scenario(
        formation=spec, topologies=(g,), schedule=((0.0, 0),),
        agents=agents, controller=controller,
        sim=SimConfig(t_final=80.0, seed=seed,
                      init=InitSpec(low=(-8.0, -8.0), high=(8.0, 8.0)),
                      convergence_threshold=1e-2),
    )


def car_scenario(kinematic: bool, drive: str, seed: int):
    base = unicycle_scenario(kinematic=False, seed=seed)
    agents = AgentModel(dynamics="car", kinematic_only=kinematic,
                        actuators=None if kinematic else base.agents.actuators,
                        wheelbase=1.0, drive=drive)
    if kinematic:
        controller = ControllerConfig(v_max=3.0, omega_max=math.pi / 4,
                                      phi_max=math.pi / 4)
    else:
        controller = ControllerConfig(v_max=3.0, omega_max=math.pi / 4,
                                      phi_max=math.pi / 4,
                                      actuator_mode="velocity_feedback", k_s=5.0)
    return Scenario(
        formation=base.formation, topologies=base.topologies,
        schedule=base.schedule, agents=agents, controller=controller,
        sim=base.sim,
    )


@pytest.fixture(scope="module")
def grid9_gains_t56():
    spec = FormationSpec.from_coordinates([(4 * c, -4 * r)
                                           for r in range(3) for c in range(3)])
    g = SensingGraph(9, [(i, j) for i in range(1, 10) for j in range(i + 1, 10)])
    gm, _ = design_gains(g, spec, SolverOptions(trace_budget=-56.0))
    return [gm]


class TestCriterion07Unicycle:
    def test_kinematic_and_dynamic_teams_converge(self, grid9_gains_t56):
        kin = run(unicycle_scenario(kinematic=True, seed=42), grid9_gains_t56)
        dyn = run(unicycle_scenario(kinematic=False, seed=42), grid9_gains_t56)
        mon = lyapunov_monitor(dyn, grid9_gains_t56)
        for label, log in (("unicycle_kin", kin), ("unicycle_dyn", dyn)):
            DISTANCE_RECORDS.append(
                (label, float(np.min(log.min_distance)), None, False)
            )
        report(
            7, "unicycle teams within 1e-2 in 80 s",
            kin.summary.converged and kin.summary.final_subspace_error < 1e-2
            and dyn.summary.converged and dyn.summary.final_subspace_error < 1e-2
            and mon.violations == 0,
        )


class TestCriterion08Car:
    def test_three_car_variants_converge(self, grid9_gains_t56):
        ok = True
        for label, kinematic, drive in (
            ("car_kin_front", True, "front"),
            ("car_kin_rear", True, "rear"),
            ("car_dyn_front", False, "front"),
        ):
            log = run(car_scenario(kinematic, drive, seed=4), grid9_gains_t56)
            ok &= log.summary.converged and log.summary.final_subspace_error < 1e-2
            DISTANCE_RECORDS.append(
                (label, float(np.min(log.min_distance)), None, False)
            )
        report(8, "car teams within 1e-2 in 80 s", ok)

    def test_rear_drive_speed_pinned_at_perpendicular_steering(self):
        from bcbform.controllers import car_control
        from bcbform.dynamics import rear_to_front_speed

        ok = True
        for phi in (math.pi / 2, -math.pi / 2):
            g = np.array([math.cos(phi), math.sin(phi)])
            v, _ = car_control(g, np.array([10.0, -3.0]), drive="rear", phi=phi)
            ok &= abs(v) < 1e-12
            ok &= rear_to_front_speed(5.0, phi) == 0.0
        report(8, "rear drive stops at perpendicular steering", ok)


class TestCriterion09CollisionSafety:
    def test_protected_radius_never_violated(self, hex_gains):
        spec = FormationSpec.from_coordinates(GRID9)
        g = SensingGraph(9, [(i, j) for i in range(1, 10)
                             for j in range(i + 1, 10)])
        gm, _ = design_gains(g, spec)
        ok = True
        for seed in range(50):
            scenario = Scenario(
                formation=spec, topologies=(g,), schedule=((0.0, 0),),
                avoidance=AvoidanceConfig(r=0.1, d_c=0.25, margin=0.01),
                sim=SimConfig(t_final=40.0, seed=seed,
                              init=InitSpec(low=(-3.0, -3.0), high=(3.0, 3.0))),
            )
            log = run(scenario, [gm])
            ok &= float(np.min(log.min_distance)) >= 0.1
        # Recorded runs from criteria 4-8: hard assertion wherever a
        # protected radius was configured and the agents are holonomic;
        # nonholonomic runs are recorded only (avoidance is heuristic there).
        for label, dist, radius, holonomic in DISTANCE_RECORDS:
            print(f"  recorded min distance {label}: {dist:.4f}"
                  + (f" (r={radius})" if radius is not None else ""))
            if radius is not None and holonomic:
                ok &= dist >= radius
        report(9, "minimum pairwise distance above safety radius", ok)


class TestCriterion10Switching:
    def test_joint_gains_and_random_schedules(self):
        from bcbform.cli import BORDER_CHORDS, DIAG_ALL, DIAG_ANTI, DIAG_MAIN, GRID_EDGES

        spec = FormationSpec.from_coordinates(GRID9)
        topos = [
            SensingGraph(9, GRID_EDGES + DIAG_ALL),
            SensingGraph(9, GRID_EDGES + DIAG_MAIN),
            SensingGraph(9, GRID_EDGES + DIAG_ANTI),
            SensingGraph(9, GRID_EDGES + BORDER_CHORDS),
        ]
        mats, info = design_joint_gains(topos, spec)
        basis = build_kernel_basis(spec)
        ok = info.converged and all(verify_gains(m, basis).passed for m in mats)
        # Tie rule: agents whose neighbor sets coincide across two topologies
        # share bitwise-identical gain blocks on their common edges.
        for a in range(4):
            for b in range(a + 1, 4):
                tied = {i for i in range(1, 10)
                        if topos[a].neighbors(i) == topos[b].neighbors(i)}
                for (i, j) in set(topos[a].edges) & set(topos[b].edges):
                    if i in tied and j in tied:
                        row_a = mats[a].graph.edge_list.index((i, j))
                        row_b = mats[b].graph.edge_list.index((i, j))
                        ok &= mats[a].params[row_a].tobytes() == mats[b].params[row_b].tobytes()
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            times = np.sort(rng.uniform(1.0, 40.0, size=6))
            schedule = ((0.0, int(rng.integers(4))),) + tuple(
                (float(t), int(rng.integers(4))) for t in times
            )
            scenario = Scenario(
                formation=spec, topologies=tuple(topos), schedule=schedule,
                sim=SimConfig(t_final=60.0, seed=seed,
                              init=InitSpec(low=(-2.0, -2.0), high=(2.0, 2.0))),
            )
            log = run(scenario, mats)
            mon = lyapunov_monitor(log, mats)
            ok &= log.summary.converged and mon.violations == 0
        report(10, "joint design ties and switched convergence", ok)


class TestCriterion11Scale:
    def test_unit_side_lengths_within_one_percent(self, hex_gains):
        d_star = {(min(i, i % 6 + 1), max(i, i % 6 + 1)): 1.0 for i in range(1, 7)}
        scenario = hexagon_scenario(
            controller=ControllerConfig(scale=ScaleConfig(d_star=d_star)),
            sim=SimConfig(t_final=120.0,
                          init=InitSpec(low=(-2.0, -2.0), high=(2.0, 2.0))),
        )
        log = run(scenario, hex_gains)
        pos = log.positions()[-1]
        edges = [np.linalg.norm(pos[i % 6] - pos[i - 1]) for i in range(1, 7)]
        worst = max(abs(d - 1.0) for d in edges)
        report(11, "edge lengths within 1% of target",
               log.summary.converged and worst < 0.01)


class TestCriterion12GoldenVector:
    def test_reference_command_is_exact(self):
        gains = {
            2: np.array([[2.0, -1.0], [1.0, 2.0]]),
            3: np.array([[-1.0, 3.0], [-3.0, -1.0]]),
        }
        # Agent 1 at the origin measures agents 2 and 3 at (2, 3) and (3, 1).
        positions = np.array([[0.0, 0.0], [2.0, 3.0], [3.0, 1.0]])
        u = consensus_term(star_edges(gains), positions)[0][0]
        report(12, "reference two-neighbor command",
               u[0] == 1.0 and u[1] == -2.0)


class TestCriterion13PropertySuites:
    CASES = 10_000

    def test_frame_equivariance(self):
        # Rotation-scaled blocks commute with frame rotations, so rotating all
        # measurements rotates the command by the same angle.
        rng = np.random.default_rng(13)
        ok = True
        for _ in range(self.CASES):
            a, b = rng.normal(size=2)
            edges = star_edges({2: np.array([[a, b], [-b, a]])})
            rel = rng.normal(size=2)
            theta = rng.uniform(-math.pi, math.pi)
            R = rotation(theta)
            # Agent 1 at the origin measures agent 2 at rel, then at R rel.
            u = consensus_term(edges, np.array([[0.0, 0.0], rel]))[0][0]
            u_rot = consensus_term(edges, np.array([[0.0, 0.0], R @ rel]))[0][0]
            ok &= np.allclose(u_rot, R @ u, atol=1e-10)
        report(13, "frame equivariance", ok)

    def test_projection_energy(self):
        rng = np.random.default_rng(14)
        ok = True
        for _ in range(self.CASES):
            theta = rng.uniform(-math.pi, math.pi)
            h = np.array([math.cos(theta), math.sin(theta)])
            u = rng.normal(scale=5.0, size=2)
            v, omega = unicycle_control(h, u)
            ok &= abs(v * v + omega * omega - float(u @ u)) < 1e-9 * max(
                1.0, float(u @ u)
            )
        report(13, "projection energy identity", ok)

    def test_saturation_idempotence(self):
        rng = np.random.default_rng(15)
        ok = True
        for _ in range(self.CASES):
            u = rng.normal(scale=10.0, size=2)
            bound = rng.uniform(0.01, 5.0)
            once = saturate_norm(u, bound)
            # Rescaling can land one ulp above the bound, so a second pass may
            # multiply by (1 - eps); idempotent to the last bit, not bitwise.
            ok &= np.allclose(saturate_norm(once, bound), once, rtol=1e-14, atol=0.0)
            ok &= float(np.linalg.norm(once)) <= bound * (1.0 + 1e-12)
            x = rng.normal(scale=10.0)
            sx = saturate_scalar(x, bound)
            ok &= saturate_scalar(sx, bound) == sx
        report(13, "saturation idempotence", ok)

    def test_quarter_turn_isometry(self):
        rng = np.random.default_rng(16)
        ok = True
        for _ in range(self.CASES):
            v = rng.normal(scale=10.0, size=2 * rng.integers(1, 6))
            w = rotate90(v)
            ok &= abs(float(v @ v) - float(w @ w)) < 1e-9 * max(1.0, float(v @ v))
            ok &= abs(float(v @ w)) < 1e-9 * max(1.0, float(v @ v))
        report(13, "quarter-turn isometry", ok)

    def test_avoidance_norm_preservation(self):
        rng = np.random.default_rng(17)
        cfg = AvoidanceConfig(r=1.0, d_c=4.0)
        ok = True
        for _ in range(self.CASES):
            u = rng.normal(scale=3.0, size=2)
            pts = rng.uniform(-5.0, 5.0, size=(rng.integers(0, 5), 2))
            # The agent at the origin among still neighbors at ``pts``.
            positions = np.vstack([[0.0, 0.0], pts])
            us = np.zeros_like(positions)
            us[0] = u
            cones = build_cones(positions, activation_candidates(positions, cfg), cfg)
            out = adjust_control(us, cones, cfg)[0]
            n_in, n_out = float(np.linalg.norm(u)), float(np.linalg.norm(out))
            ok &= n_out == 0.0 or abs(n_out - n_in) < 1e-9 * max(1.0, n_in)
        report(13, "avoidance norm preservation", ok)
