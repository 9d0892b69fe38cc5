"""Deterministic fixed-step closed-loop simulation of formation scenarios.

One engine covers all dynamics classes.  Each step evaluates the whole team
at once: the gain blocks times the relative measurements over the sensing
edges, summed per agent, plus the chain, scale, integral and perturbation
terms; avoidance per agent; projection and saturation; and one classical
RK4 step of the (n, state_dim) state under zero-order-hold commands.  The
metrics are computed once from the stored log.  Per-agent measurement
frames (``Scenario.frame_angles``) do not enter the step: the blocks
a*I + b*K commute with every rotation, so no common orientation is needed.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import controllers as ctl
from .collision import AvoidanceConfig, adjust_control, build_cones
from .controllers import ControllerConfig, ScaleConfig
from .dynamics import (
    ActuatorParams,
    deriv_car,
    deriv_chain,
    deriv_single_integrator,
    deriv_unicycle,
    heading_vector,
)
from .errors import ConfigurationError, DimensionError, GuaranteeViolationError
from .gains import GainMatrix, verify_gains
from .geometry import (
    FormationSpec,
    SensingGraph,
    build_kernel_basis,
    formation_error,
    lyapunov_value,
    min_pairwise_distance,
    row_norms,
)

DYNAMICS_CLASSES = ("single_integrator", "chain", "unicycle", "car")

CONVERGENCE_THRESHOLD = 1e-3
CONVERGENCE_SUSTAIN = 1.0  # seconds below threshold before declaring success


@dataclass(frozen=True)
class AgentModel:
    """Dynamics class and physical parameters shared by the team."""

    dynamics: str = "single_integrator"
    chain_order: int = 3
    kinematic_only: bool = True
    actuators: tuple[ActuatorParams, ...] | None = None
    wheelbase: float = 1.0
    drive: str = "front"

    def __post_init__(self):
        if self.dynamics not in DYNAMICS_CLASSES:
            raise ConfigurationError(f"unknown dynamics class {self.dynamics!r}")

    def state_dim(self) -> int:
        if self.dynamics == "single_integrator":
            return 2
        if self.dynamics == "chain":
            return 2 * (self.chain_order + 1)
        if self.dynamics == "unicycle":
            return 3 if self.kinematic_only else 5
        return 4 if self.kinematic_only else 6


@dataclass(frozen=True)
class InitSpec:
    """Initial condition: explicit states or a seeded uniform position box."""

    kind: str = "box"  # "box" or "explicit"
    low: tuple[float, float] = (-5.0, -5.0)
    high: tuple[float, float] = (5.0, 5.0)
    states: NDArray[np.float64] | None = None


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_final: float = 60.0
    seed: int = 42
    init: InitSpec = field(default_factory=InitSpec)
    convergence_threshold: float = CONVERGENCE_THRESHOLD
    measurement_noise: float = 0.0

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= self.dt:
            raise ConfigurationError("need dt > 0 and t_final > dt")


@dataclass(frozen=True)
class Scenario:
    """Everything that determines a reproducible closed-loop run."""

    formation: FormationSpec
    topologies: tuple[SensingGraph, ...]
    schedule: tuple[tuple[float, int], ...]
    agents: AgentModel = field(default_factory=AgentModel)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    avoidance: AvoidanceConfig | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    frame_angles: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.topologies:
            raise ConfigurationError("scenario needs at least one topology")
        times = [t for t, _ in self.schedule]
        if not self.schedule or times[0] != 0.0 or sorted(set(times)) != times:
            raise ConfigurationError(
                "schedule times must be strictly increasing and start at 0"
            )
        for _, idx in self.schedule:
            if not (0 <= idx < len(self.topologies)):
                raise ConfigurationError(f"schedule topology index {idx} out of range")


def active_topology(schedule, t: float) -> int:
    """Index of the topology active at time ``t`` (closed on the left)."""
    if t < 0:
        raise DimensionError("time must be nonnegative")
    idx = schedule[0][1]
    for t_k, k in schedule:
        if t_k <= t:
            idx = k
        else:
            break
    return idx


@dataclass
class RunSummary:
    final_subspace_error: float
    min_distance: float
    lyapunov_violations: int
    converged: bool
    convergence_time: float | None
    wall_clock: float
    seed: int


@dataclass
class TrajectoryLog:
    """Complete record of one run: states, commands, metrics per step."""

    t: NDArray[np.float64]
    states: NDArray[np.float64]  # (steps, n, state_dim)
    commands: NDArray[np.float64]  # (steps, n, 2)
    subspace_error: NDArray[np.float64]
    lyapunov: NDArray[np.float64]
    min_distance: NDArray[np.float64]
    topology_index: NDArray[np.int64]
    agents: AgentModel
    summary: RunSummary

    def positions(self) -> NDArray[np.float64]:
        return self.states[:, :, :2]


def _initial_states(scenario: Scenario, rng: np.random.Generator) -> NDArray[np.float64]:
    n = scenario.formation.n
    model = scenario.agents
    dim = model.state_dim()
    init = scenario.sim.init
    states = np.zeros((n, dim))
    if init.kind == "explicit":
        given = np.asarray(init.states, dtype=np.float64)
        if given.shape == (n, 2):
            states[:, :2] = given
        elif given.shape == (n, dim):
            states = given.copy()
        else:
            raise ConfigurationError(
                f"explicit init shape {given.shape} matches neither (n,2) nor (n,{dim})"
            )
    elif init.kind == "box":
        low = np.asarray(init.low, dtype=np.float64)
        high = np.asarray(init.high, dtype=np.float64)
        states[:, :2] = rng.uniform(low, high, size=(n, 2))
    else:
        raise ConfigurationError(f"unknown init kind {init.kind!r}")
    if model.dynamics in ("unicycle", "car") and init.kind != "explicit":
        states[:, 2] = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return states


@dataclass(frozen=True)
class _EdgeArrays:
    """Directed sensing edges of one topology, built once per run.

    Edges are agent-major with neighbors sorted, the order in which
    ``controllers.consensus_term`` adds them.  ``np.add.at`` adds rows edge
    by edge in array order, so per-agent sums over these arrays round
    exactly like the per-agent law.
    """

    src: NDArray[np.intp]  # measuring agent (0-based)
    dst: NDArray[np.intp]  # measured neighbor (0-based)
    blocks: NDArray[np.float64]  # (E, 2, 2) gain blocks A_src,dst
    d_star: NDArray[np.float64] | None  # (E,) desired distances, scale law only
    draw_rows: NDArray[np.intp]  # (orders, E) rows of one step's noise draw


def _edge_arrays(
    graph: SensingGraph, gm: GainMatrix, scale: ScaleConfig | None, orders: int
) -> _EdgeArrays:
    """Edge arrays for ``graph``; ``orders`` relative measurements per edge."""
    src, dst, blocks, d_star = [], [], [], []
    for i in range(1, graph.n + 1):
        row = gm.block_row(i)
        for j in sorted(graph.neighbors(i)):
            if j not in row:
                raise ConfigurationError(f"no gain block for neighbor {j}")
            src.append(i - 1)
            dst.append(j - 1)
            blocks.append(row[j])
            if scale is not None:
                key = (min(i, j), max(i, j))
                if key not in scale.d_star:
                    raise ConfigurationError(f"no desired distance for edge {key}")
                d_star.append(scale.d_star[key])
    src = np.array(src, dtype=np.intp)
    # Noise is drawn agent by agent: all position measurements of an agent,
    # then each derivative order's, before the next agent's.
    first = np.searchsorted(src, src)
    degree = np.bincount(src, minlength=graph.n)[src]
    draw_rows = (
        orders * first + np.arange(orders)[:, None] * degree + np.arange(src.size) - first
    )
    return _EdgeArrays(
        src=src,
        dst=np.array(dst, dtype=np.intp),
        blocks=np.array(blocks).reshape(-1, 2, 2),
        d_star=np.array(d_star) if scale is not None else None,
        draw_rows=draw_rows,
    )


def _team_command(
    scenario: Scenario,
    edges: _EdgeArrays,
    states: NDArray[np.float64],
    integral: tuple | None,
    dt: float,
    rng: np.random.Generator,
):
    """Planar command u per agent, before projection, for the whole team.

    Returns the (n, 2) commands and the integral state for the next step.
    """
    cfg = scenario.controller
    model = scenario.agents
    n = scenario.formation.n
    noise = scenario.sim.measurement_noise
    draws = None
    if noise > 0.0:
        orders, n_edges = edges.draw_rows.shape
        draws = rng.uniform(-noise, noise, size=(orders * n_edges, 2))[edges.draw_rows]

    def consensus(part, order):
        """sum_j A_ij (x_j - x_i) per agent, and the relative measurements."""
        rel = part[edges.dst] - part[edges.src]
        if draws is not None:
            rel = rel + draws[order]
        total = np.zeros((n, 2))
        np.add.at(total, edges.src, np.matmul(edges.blocks, rel[:, :, None])[:, :, 0])
        return total, rel

    u, rel = consensus(states[:, :2], 0)
    if model.dynamics == "chain":
        k = cfg.k_chain
        u = k[0] * u
        for order in range(1, len(k)):
            part = states[:, 2 * order : 2 * order + 2]
            if cfg.chain_variant == "full_A":
                u = u + k[order] * consensus(part, order)[0]
            else:
                u = u - k[order] * part
    elif edges.d_star is not None:
        gain = cfg.scale.f(row_norms(rel) - edges.d_star)
        np.add.at(u, edges.src, gain[:, None] * rel)
    elif integral is not None:
        acc, last = integral
        if last is not None:
            acc = acc + 0.5 * dt * (last + u)
        integral = (acc, u)
        u = cfg.k0_int * u + cfg.k1_int * acc
    if cfg.perturbation is not None:
        u = ctl.perturb_control(u, cfg.perturbation.c, cfg.perturbation.alpha)

    # Collision avoidance sees every other agent's position, not just
    # sensing-graph neighbors.
    if scenario.avoidance is not None:
        positions = states[:, :2]
        adjusted = np.empty_like(u)
        for i in range(n):
            others = np.delete(positions, i, axis=0)
            cones = build_cones(positions[i], others, scenario.avoidance)
            adjusted[i] = adjust_control(u[i], cones, scenario.avoidance)
        u = adjusted
    return u, integral


def _project_commands(
    scenario: Scenario, states: NDArray[np.float64], us: NDArray[np.float64]
):
    """Per-dynamics-class projection/saturation of the planar commands."""
    cfg = scenario.controller
    model = scenario.agents
    if model.dynamics in ("single_integrator", "chain"):
        return us if cfg.u_max is None else ctl.saturate_norm(us, cfg.u_max)
    # A unicycle projects like a front-drive car that never steers.
    car = model.dynamics == "car"
    phi = states[:, 3] if car else 0.0
    drive = model.drive if car else "front"
    h = heading_vector(states[:, 2] + phi)
    if model.kinematic_only:
        v, omega = ctl.car_control(h, us, drive, phi)
    else:
        v, omega = ctl.unicycle_actuator_control(
            h, us, states[:, -2], cfg.actuator_mode, cfg.k_s, drive, phi
        )
    return np.stack(
        [ctl.saturate_scalar(v, cfg.v_max), ctl.saturate_scalar(omega, cfg.omega_max)],
        axis=-1,
    )


def _rk4_step(deriv, state: NDArray[np.float64], dt: float) -> NDArray[np.float64]:
    k1 = deriv(state)
    k2 = deriv(state + 0.5 * dt * k1)
    k3 = deriv(state + 0.5 * dt * k2)
    k4 = deriv(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(
    scenario: Scenario,
    states: NDArray[np.float64],
    cmds: NDArray[np.float64],
    dt: float,
    params: ActuatorParams | None,
) -> NDArray[np.float64]:
    """One RK4 step of the whole team under zero-order-hold commands."""
    model = scenario.agents
    kinematic = model.kinematic_only
    phi_max = scenario.controller.phi_max
    if model.dynamics == "single_integrator":
        return _rk4_step(lambda s: deriv_single_integrator(cmds), states, dt)
    if model.dynamics == "chain":
        return _rk4_step(lambda s: deriv_chain(s, cmds, model.chain_order), states, dt)
    if model.dynamics == "unicycle":
        return _rk4_step(lambda s: deriv_unicycle(s, cmds, params, kinematic), states, dt)
    out = _rk4_step(
        lambda s: deriv_car(s, cmds, model.wheelbase, params, kinematic, phi_max),
        states,
        dt,
    )
    if phi_max is not None:
        out[:, 3] = np.clip(out[:, 3], -phi_max, phi_max)
    return out


def _convergence_time(t: NDArray[np.float64], err: NDArray[np.float64], threshold: float):
    """Start of the first stretch of steps with ``err < threshold`` whose
    last step is at least CONVERGENCE_SUSTAIN after its first, else None."""
    below = np.concatenate([[False], err < threshold, [False]])
    flips = np.flatnonzero(below[1:] != below[:-1])
    first, last = flips[0::2], flips[1::2] - 1
    lasting = t[last] - t[first] >= CONVERGENCE_SUSTAIN
    return float(t[first[lasting][0]]) if lasting.any() else None


def _quadratic_values(q: NDArray[np.float64], topo: NDArray[np.int64], gains):
    """-1/2 q^T A q per row of ``q``, with A the gain of that row's topology,
    taken one stretch of constant topology at a time so rows are not copied."""
    out = np.empty(len(q))
    cuts = np.flatnonzero(np.diff(topo)) + 1
    for first, end in zip(np.r_[0, cuts], np.r_[cuts, len(q)]):
        out[first:end] = lyapunov_value(q[first:end], gains[topo[first]].assembled)
    return out


def run(scenario: Scenario, gains: list[GainMatrix]) -> TrajectoryLog:
    """Simulate the scenario; deterministic for fixed (scenario, gains)."""
    start = _time.perf_counter()
    n = scenario.formation.n
    if len(gains) != len(scenario.topologies):
        raise ConfigurationError(
            f"{len(gains)} gain matrices for {len(scenario.topologies)} topologies"
        )
    basis = build_kernel_basis(scenario.formation)
    for k, gm in enumerate(gains):
        report = verify_gains(gm, basis)
        if not report.passed:
            raise GuaranteeViolationError(
                f"gain matrix for topology {k} fails spectrum verification "
                f"(zero_count={report.zero_count}, "
                f"kernel_residual={report.kernel_residual:.2e})"
            )
    cfg = scenario.controller
    model = scenario.agents
    chain = model.dynamics == "chain"
    scale = cfg.scale if not chain else None
    orders = model.chain_order + 1 if chain and cfg.chain_variant == "full_A" else 1
    edges = [
        _edge_arrays(g, gm, scale, orders) for g, gm in zip(scenario.topologies, gains)
    ]
    integral = None
    if not chain and scale is None and cfg.k0_int is not None and cfg.k1_int is not None:
        if cfg.k0_int <= 0 or cfg.k1_int < 0:
            raise GuaranteeViolationError("integral control requires k0 > 0 and k1 >= 0")
        integral = (np.zeros((n, 2)), None)
    params = None
    if model.actuators:
        params = ActuatorParams(
            *np.array([[p.a, p.b, p.c, p.d] for p in model.actuators]).T
        )

    rng = np.random.default_rng(scenario.sim.seed)
    states = _initial_states(scenario, rng)
    dt = scenario.sim.dt
    steps = int(math.floor(scenario.sim.t_final / dt)) + 1

    t_arr = np.arange(steps) * dt
    states_log = np.zeros((steps, n, states.shape[1]))
    cmds_log = np.zeros((steps, n, 2))
    topo_log = np.zeros(steps, dtype=np.int64)

    for k in range(steps):
        topo_idx = active_topology(scenario.schedule, t_arr[k])
        us, next_integral = _team_command(
            scenario, edges[topo_idx], states, integral, dt, rng
        )
        states_log[k] = states
        cmds_log[k] = _project_commands(scenario, states, us)
        topo_log[k] = topo_idx
        if k + 1 < steps:
            states = _advance(scenario, states, cmds_log[k], dt, params)
            integral = next_integral

    positions = states_log[:, :, :2]
    q = positions.reshape(steps, -1)
    err_log = np.ones(steps)
    nonzero = row_norms(q) > 0
    err_log[nonzero] = formation_error(q if nonzero.all() else q[nonzero], basis)
    lyap_log = _quadratic_values(q, topo_log, gains)
    dist_log = min_pairwise_distance(positions)
    convergence_time = _convergence_time(
        t_arr, err_log, scenario.sim.convergence_threshold
    )

    monitor = lyapunov_monitor_arrays(states_log, topo_log, gains, model, dt)
    summary = RunSummary(
        final_subspace_error=float(err_log[-1]),
        min_distance=float(dist_log.min()),
        lyapunov_violations=int(monitor.violations),
        converged=convergence_time is not None,
        convergence_time=convergence_time,
        wall_clock=_time.perf_counter() - start,
        seed=scenario.sim.seed,
    )
    return TrajectoryLog(
        t=t_arr,
        states=states_log,
        commands=cmds_log,
        subspace_error=err_log,
        lyapunov=lyap_log,
        min_distance=dist_log,
        topology_index=topo_log,
        agents=model,
        summary=summary,
    )


@dataclass
class MonitorReport:
    violations: int
    worst_increment: float
    flagged_steps: list[int]


def lyapunov_monitor_arrays(
    states_log: NDArray[np.float64],
    topo_log: NDArray[np.int64],
    gains: list[GainMatrix],
    model: AgentModel,
    dt: float,
    tol_scale: float = 1e-7,
) -> MonitorReport:
    """Flag steps where the active theorem's Lyapunov candidate increases.

    Within each integration interval the comparison uses the topology active
    during that interval, so switches do not create spurious flags.  Dynamic
    unicycle/car runs use the composite candidate with the true actuator
    gains; everything else uses the quadratic formation candidate.
    """
    steps = states_log.shape[0]
    use_composite = (
        model.dynamics in ("unicycle", "car")
        and not model.kinematic_only
        and model.actuators is not None
    )
    v_index = 3 if model.dynamics == "unicycle" else 4
    q = states_log[:, :, :2].reshape(steps, -1)
    interval_topo = topo_log[:-1]

    def candidate(rows: slice):
        val = _quadratic_values(q[rows], interval_topo, gains)
        if use_composite:
            bs = np.array([p.b for p in model.actuators])
            val = val + 0.5 * np.sum(states_log[rows, :, v_index] ** 2 / bs, axis=1)
        return val

    before = candidate(slice(0, steps - 1))
    inc = candidate(slice(1, steps)) - before
    # Integrator-order slack grows with dt^4 truncation plus command-hold error.
    tol = tol_scale * max(float(before[0]), 1.0) + 1e-9
    flagged = np.flatnonzero(inc > tol)
    return MonitorReport(
        violations=int(flagged.size),
        worst_increment=float(np.fmax.reduce(inc, initial=-np.inf)),
        flagged_steps=flagged.tolist(),
    )


def lyapunov_monitor(
    log: TrajectoryLog, gains: list[GainMatrix], tol_scale: float = 1e-7
) -> MonitorReport:
    """Post-hoc Lyapunov descent check over a finished trajectory log."""
    return lyapunov_monitor_arrays(
        log.states, log.topology_index, gains, log.agents, float(log.t[1] - log.t[0]),
        tol_scale,
    )


STATE_COLUMNS = {
    "single_integrator": ("x", "y"),
    "unicycle_kin": ("x", "y", "theta"),
    "unicycle_dyn": ("x", "y", "theta", "v", "omega"),
    "car_kin": ("x", "y", "theta", "phi"),
    "car_dyn": ("x", "y", "theta", "phi", "v", "omega"),
}


def state_column_names(model: AgentModel) -> tuple[str, ...]:
    if model.dynamics == "single_integrator":
        return STATE_COLUMNS["single_integrator"]
    if model.dynamics == "chain":
        names = ["x", "y"]
        for j in range(1, model.chain_order + 1):
            names += [f"x_d{j}", f"y_d{j}"]
        return tuple(names)
    key = f"{model.dynamics}_{'kin' if model.kinematic_only else 'dyn'}"
    return STATE_COLUMNS[key]


def write_csv(log: TrajectoryLog, path: str) -> None:
    """Stable CSV schema: t, per-agent state columns, then the three metrics."""
    n = log.states.shape[1]
    cols = state_column_names(log.agents)
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"{c}_{i}" for c in cols]
    header += ["subspace_error", "lyapunov_value", "min_pairwise_distance"]
    steps = log.t.size
    flat_states = log.states.reshape(steps, -1)
    data = np.column_stack(
        [log.t, flat_states, log.subspace_error, log.lyapunov, log.min_distance]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
