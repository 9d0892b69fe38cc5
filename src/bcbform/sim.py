"""Deterministic fixed-step closed-loop simulation of formation scenarios.

One engine covers all dynamics classes.  ``run`` builds the step once, with
the configuration bound: the command (the laws of ``controllers`` on the
sensing edges of each topology, held as arrays), the projection and
saturation of the dynamics class, and one classical RK4 step of the
(n, state_dim) state under zero-order-hold commands.  One stage step
(``_stage_step``) runs them on the whole team, with the cone rule of
``collision`` over the whole team between command and projection.  When
the law's step is linear in the team state, it is probed once per topology
into its one-step matrix and applied as one matrix-vector product per step;
with avoidance, only on the steps where no pair of agents is within d_c,
the others taking the stage step.  Such runs go in blocks of steps: one
stacked product logs a block's commands, and with avoidance one stacked
candidate test finds the first step of the block that needs the stage step
(``_map_steps``).  The metrics are computed once from the stored log.
Per-agent measurement frames (``Scenario.frame_angles``) do not enter the
step: the blocks a*I + b*K commute with every rotation, so no common
orientation is needed.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import controllers as ctl
from .collision import (
    AvoidanceConfig,
    activation_candidates,
    adjust_control,
    build_cones,
)
from .controllers import ControllerConfig
from .dynamics import (
    ActuatorParams,
    deriv_car,
    deriv_chain,
    deriv_single_integrator,
    deriv_unicycle,
    heading_vector,
    rear_to_front_speed,
)
from .errors import ConfigurationError, GuaranteeViolationError
from .gains import GainMatrix, verify_gains, verify_higher_order_gains
from .geometry import (
    FormationSpec,
    KernelBasis,
    SensingGraph,
    build_kernel_basis,
    formation_error,
    lyapunov_value,
    min_pairwise_distance,
    row_norms,
)

DYNAMICS_CLASSES = ("single_integrator", "chain", "unicycle", "car")
# Controller settings each dynamics class never reads: holonomic agents
# saturate the planar command (u_max), vehicles their speed and turn rate,
# only a car steers (phi_max), and only chains run the chain law (k_chain,
# chain_variant).  Kinematic vehicles have no actuators, so they also never
# read the actuator law (_KINEMATIC_UNREAD).  A setting is refused when it
# differs from its default: scenario files name every field.
_UNREAD_SETTINGS = {
    "single_integrator": ("v_max", "omega_max", "phi_max", "k_s", "k_chain",
                          "chain_variant"),
    "chain": ("v_max", "omega_max", "phi_max", "k_s"),
    "unicycle": ("u_max", "phi_max", "k_chain", "chain_variant"),
    "car": ("u_max", "k_chain", "chain_variant"),
}
_KINEMATIC_UNREAD = ("k_s", "actuator_mode")
_CONTROLLER_DEFAULTS = ControllerConfig()
# Agent settings each dynamics class never reads, refused in the same way:
# only chains have an order, only vehicles a kinematic_only switch, and only
# cars a wheelbase and a drive (a unicycle projects like a front-drive car).
# Only dynamic vehicles read actuators.
_UNREAD_AGENT_SETTINGS = {
    "single_integrator": ("chain_order", "kinematic_only", "actuators", "wheelbase", "drive"),
    "chain": ("kinematic_only", "actuators", "wheelbase", "drive"),
    "unicycle": ("chain_order", "wheelbase", "drive"),
    "car": ("chain_order",),
}

CONVERGENCE_THRESHOLD = 1e-3
CONVERGENCE_SUSTAIN = 1.0  # seconds below threshold before declaring success
MONITOR_REL_TOL = 1e-7  # Lyapunov monitor slack, relative to the first value
CSV_BLOCK_ROWS = 64  # log rows formatted per write
# Map-stepped avoidance runs test blocks of states for candidate pairs.  A
# block grows only after this many clean single steps in a row: on a
# cone-dense run, blocks cut short by near passes cost more than they save.
BLOCK_STREAK = 8
BLOCK_CAP = 64  # most states a block steps ahead


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
        ctl._check_drive(self.drive)

    def state_dim(self) -> int:
        if self.dynamics == "single_integrator":
            return 2
        if self.dynamics == "chain":
            return 2 * (self.chain_order + 1)
        if self.dynamics == "unicycle":
            return 3 if self.kinematic_only else 5
        return 4 if self.kinematic_only else 6


_AGENT_DEFAULTS = AgentModel()


@dataclass(frozen=True)
class InitSpec:
    """Initial condition: explicit states or a seeded uniform position box."""

    kind: str = "box"  # "box" or "explicit"
    low: tuple[float, float] = (-5.0, -5.0)
    high: tuple[float, float] = (5.0, 5.0)
    states: NDArray[np.float64] | None = None

    def __post_init__(self):
        if self.kind not in ("box", "explicit"):
            raise ConfigurationError(
                f"unknown init kind {self.kind!r}; expected 'box' or 'explicit'"
            )
        if self.kind == "explicit" and self.states is None:
            raise ConfigurationError("sim.init of kind 'explicit' needs 'states'")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_final: float = 60.0
    seed: int = 42
    init: InitSpec = field(default_factory=InitSpec)
    convergence_threshold: float = CONVERGENCE_THRESHOLD
    measurement_noise: float = 0.0

    def __post_init__(self):
        for name in ("dt", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"sim.{name} must be finite; NaN or infinity found")
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
        n, model, cfg = self.formation.n, self.agents, self.controller
        pert = cfg.perturbation
        per_agent = {
            "agents.actuators": model.actuators,
            "controller.perturbation.c": pert and pert.c,
            "controller.perturbation.alpha": pert and pert.alpha,
            "frame_angles": self.frame_angles,
        }
        for name, values in per_agent.items():
            if values is not None and len(values) != n:
                raise ConfigurationError(
                    f"{name} has {len(values)} entries; expected {n}, one per agent"
                )
        if model.dynamics == "chain":
            unused = [f"controller.{name}" for name in ("scale", "k0_int", "k1_int")
                      if getattr(cfg, name) is not None]
            if unused:
                raise ConfigurationError(
                    f"chain dynamics have no scale or integral law; remove {', '.join(unused)}"
                )
        vehicle = model.dynamics in ("unicycle", "car")
        kinematic = vehicle and model.kinematic_only
        names = _UNREAD_SETTINGS[model.dynamics] + (_KINEMATIC_UNREAD if kinematic else ())
        agent_names = _UNREAD_AGENT_SETTINGS[model.dynamics] + (
            ("actuators",) if kinematic else ())
        unread = [f"controller.{name}" for name in names if not np.array_equal(
            getattr(cfg, name), getattr(_CONTROLLER_DEFAULTS, name))]
        unread += [f"agents.{name}" for name in agent_names if not np.array_equal(
            getattr(model, name), getattr(_AGENT_DEFAULTS, name))]
        if unread:
            raise ConfigurationError(
                f"{'kinematic ' if kinematic else ''}{model.dynamics} dynamics never read "
                f"these settings; remove {', '.join(unread)}"
            )
        if model.dynamics == "chain" and len(cfg.k_chain) != model.chain_order + 1:
            raise ConfigurationError(
                f"controller.k_chain has {len(cfg.k_chain)} gains; agents.chain_order "
                f"{model.chain_order} needs {model.chain_order + 1}, one per state level"
            )
        if vehicle and not model.kinematic_only and model.actuators is None:
            raise ConfigurationError(
                f"a dynamic {model.dynamics} (kinematic_only false) needs agents.actuators"
            )
        if self.sim.init.kind == "explicit":
            shape = np.shape(self.sim.init.states)
            dim = model.state_dim()
            if shape not in ((n, 2), (n, dim)):
                raise ConfigurationError(
                    f"sim.init.states has shape {shape}; expected ({n}, 2) or ({n}, {dim})"
                )


@dataclass
class RunSummary:
    final_subspace_error: float
    min_distance: float
    lyapunov_violations: int | None  # None: no theorem candidate for this run
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
        # Scenario has checked the shape: (n, 2) positions or full states.
        states[:, : np.shape(init.states)[1]] = init.states
        return states
    low = np.asarray(init.low, dtype=np.float64)
    high = np.asarray(init.high, dtype=np.float64)
    states[:, :2] = rng.uniform(low, high, size=(n, 2))
    if model.dynamics in ("unicycle", "car"):
        states[:, 2] = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return states


def _build_step(scenario: Scenario):
    """One time step with the configuration bound, built once per run, as
    (command, project, advance).  ``command(edges, states, integral, rng)``
    gives the law's (n, 2) planar commands and the integral law's next
    state; ``project(states, us, out)`` writes the inputs of the agents'
    dynamics into ``out``; ``advance(states, cmds, out)`` writes the RK4
    step into ``out``.  ``_stage_step`` runs them with avoidance between
    command and projection; map-stepped runs probe them for their maps."""
    return _command(scenario), _projection(scenario), _rk4_advance(scenario)


def _command(scenario: Scenario):
    """The law the configuration selects (the chain law of its variant, else
    the scale or the integral law, else consensus) on this step's
    measurements, then the perturbation."""
    cfg, model, dt = scenario.controller, scenario.agents, scenario.sim.dt
    if model.dynamics == "chain":
        chain = ctl.chain_full_a if cfg.chain_variant == "full_A" else ctl.chain_identity
        k = cfg.k_chain
        law = lambda edges, x, integral, draws: (chain(edges, x, k, draws), None)
    elif cfg.scale is not None:
        scale, f = ctl.scale_augmented, cfg.scale.f
        law = lambda edges, x, integral, draws: (scale(edges, x[:, :2], f, draws), None)
    elif cfg.k0_int is not None:
        integral_law, k0, k1 = ctl.integral_consensus, cfg.k0_int, cfg.k1_int
        law = lambda edges, x, integral, draws: integral_law(
            edges, x[:, :2], integral, dt, k0, k1, draws
        )
    else:
        consensus = ctl.consensus_term
        law = lambda edges, x, integral, draws: (consensus(edges, x[:, :2], draws)[0], None)
    noise = scenario.sim.measurement_noise
    if noise > 0.0:
        command = lambda edges, x, integral, rng: law(
            edges, x, integral, edges.noise(rng, noise)
        )
    else:
        command = lambda edges, x, integral, rng: law(edges, x, integral, None)

    if cfg.perturbation is not None:
        # perturb_control's product; PerturbationConfig checked the envelope.
        pert, unperturbed = cfg.perturbation, command
        c, R = np.array(pert.c, dtype=np.float64)[:, None], ctl.rotation(pert.alpha)

        def command(edges, states, integral, rng):
            u, integral = unperturbed(edges, states, integral, rng)
            return c * np.matmul(R, u[..., None])[..., 0], integral

    return command


def _stage_step(step, edges, avoidance: AvoidanceConfig | None, states_log, cmds_log):
    """``stage_step(k, topo_idx, near=None, integral=None, rng=None)``: step
    k of a run, from and into the logs, by the law on topology ``topo_idx``,
    avoidance, projection and RK4; it returns the integral law's next state.

    Avoidance sees every other agent's position, not just sensing-graph
    neighbors: the cones are built from the pairs of the step's
    ``activation_candidates`` mask, ``near`` when the caller has it."""
    command, project, advance = step
    steps = len(states_log)

    def stage_step(k, topo_idx, near=None, integral=None, rng=None):
        states = states_log[k]
        us, integral = command(edges[topo_idx], states, integral, rng)
        if avoidance is not None:
            positions = states[:, :2]
            if near is None:
                near = activation_candidates(positions, avoidance)
            us = adjust_control(us, build_cones(positions, near, avoidance), avoidance)
        project(states, us, cmds_log[k])
        if k + 1 < steps:
            advance(states, cmds_log[k], states_log[k + 1])
        return integral

    return stage_step


def _projection(scenario: Scenario):
    """Per-dynamics-class projection/saturation of the planar commands, one
    (n, 2) row per agent written into ``out``."""
    cfg, model = scenario.controller, scenario.agents
    if model.dynamics in ("single_integrator", "chain"):
        u_max = cfg.u_max
        if u_max is None:
            saturate = lambda us: us
        else:
            saturate = lambda us: ctl.saturate_norm(us, u_max)

        def project(states, us, out):
            out[...] = saturate(us)
            return out

        return project
    # A unicycle projects like a front-drive car that never steers.
    car = model.dynamics == "car"
    drive = model.drive if car else "front"
    steering = (lambda states: states[:, 3]) if car else (lambda states: 0.0)
    if model.kinematic_only:
        inputs = lambda h, us, states, phi: ctl.car_control(h, us, drive, phi)
    else:
        mode, k_s = cfg.actuator_mode, cfg.k_s
        inputs = lambda h, us, states, phi: ctl.unicycle_actuator_control(
            h, us, states[:, -2], mode, k_s, drive, phi
        )
    # v_max bounds the driven rear wheels of a kinematic rear-drive car;
    # deriv_car integrates the front-axle speed.
    rear = model.kinematic_only and drive == "rear"
    speed = rear_to_front_speed if rear else (lambda v, phi: v)
    v_max, omega_max = cfg.v_max, cfg.omega_max

    def project(states, us, out):
        phi = steering(states)
        v, omega = inputs(heading_vector(states[:, 2] + phi), us, states, phi)
        out[:, 0] = speed(ctl.saturate_scalar(v, v_max), phi)
        out[:, 1] = ctl.saturate_scalar(omega, omega_max)
        return out

    return project


def _rk4_step(deriv, state, cmds, dt: float, out, stages) -> None:
    """Classical RK4 step of ``state`` into ``out``.  ``deriv(x, cmds, buf)``
    returns the field at x, written into buf or not; ``stages`` holds five
    arrays shaped like ``state``.  Each array operation is the one of
    ``state + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` with stage points
    ``state + dt/2 k1`` and so on, so the result rounds the same."""
    b1, b2, b3, b4, x = stages
    k1 = deriv(state, cmds, b1)
    np.add(state, np.multiply(0.5 * dt, k1, out=x), out=x)
    k2 = deriv(x, cmds, b2)
    np.add(state, np.multiply(0.5 * dt, k2, out=x), out=x)
    k3 = deriv(x, cmds, b3)
    np.add(state, np.multiply(dt, k3, out=x), out=x)
    k4 = deriv(x, cmds, b4)
    # deriv may return an array it does not own (the single integrator's is
    # the commands), so only x and b1, free once k1 is summed, take the sums.
    np.add(k1, np.multiply(2.0, k2, out=x), out=x)
    np.add(x, np.multiply(2.0, k3, out=b1), out=x)
    np.add(x, k4, out=x)
    np.add(state, np.multiply(dt / 6.0, x, out=x), out=out)


def _rk4_advance(scenario: Scenario):
    """One RK4 step of the whole team under zero-order-hold commands, with
    the vector field of the dynamics class bound; its stage fields and points
    live in one (5, n, state_dim) buffer for the whole run."""
    model, dt = scenario.agents, scenario.sim.dt
    kinematic, phi_max = model.kinematic_only, scenario.controller.phi_max
    params = None
    if model.actuators:
        params = ActuatorParams(
            *np.array([[p.a, p.b, p.c, p.d] for p in model.actuators]).T
        )
    if model.dynamics == "single_integrator":
        field = lambda s, cmds, buf: deriv_single_integrator(cmds)
    elif model.dynamics == "chain":
        order = model.chain_order
        field = lambda s, cmds, buf: deriv_chain(s, cmds, order, buf)
    elif model.dynamics == "unicycle":
        field = lambda s, cmds, buf: deriv_unicycle(s, cmds, params, kinematic, buf)
    else:
        wheelbase = model.wheelbase
        field = lambda s, cmds, buf: deriv_car(
            s, cmds, wheelbase, params, kinematic, phi_max, buf
        )
    stages = np.empty((5, scenario.formation.n, model.state_dim()))

    def advance(states, cmds, out):
        _rk4_step(field, states, cmds, dt, out, stages)
        return out

    if model.dynamics == "car" and phi_max is not None:
        unclamped = advance

        def advance(states, cmds, out):
            unclamped(states, cmds, out)
            np.clip(out[:, 3], -phi_max, phi_max, out=out[:, 3])
            return out

    return advance


def _one_step_map(step, edges: ctl._EdgeArrays, n: int, dim: int):
    """(T, F) of a loop that is linear in the stacked team state x: one step
    takes x to T x and logs the command F x.  Column j is the step taken
    from the j-th unit state, so T and F are the step the simulator applies
    where avoidance leaves the law's command alone."""
    command, project, advance = step
    T = np.empty((n * dim, n * dim))
    F = np.empty((2 * n, n * dim))
    cmds, after = np.empty((n, 2)), np.empty((n, dim))
    for j in range(n * dim):
        states = np.zeros((n, dim))
        states.flat[j] = 1.0
        us, _ = command(edges, states, None, None)
        F[:, j] = project(states, us, cmds).ravel()
        T[:, j] = advance(states, cmds, after).ravel()
    return T, F


def _map_radius(T: NDArray[np.float64], basis: KernelBasis, full_A: bool) -> float:
    """Spectral radius of T off the similarity modes it leaves invariant.

    Those are the four modes of the positions with every derivative at zero,
    which the law maps to a zero command, and for the full_A chain the four
    modes of every derivative level, which it sees only through A_k.  With
    W the orthonormal complement of those modes, T is block triangular in
    (modes, W), so its other eigenvalues are those of W^T T W."""
    n2 = basis.Q.shape[0]
    levels = T.shape[0] // n2
    agent, axis = np.divmod(np.arange(n2), 2)
    blocks = [basis.Q if level == 0 or full_A else np.eye(n2) for level in range(levels)]
    W = np.zeros((T.shape[0], sum(b.shape[1] for b in blocks)))
    col = 0
    for level, block in enumerate(blocks):
        W[2 * levels * agent + 2 * level + axis, col : col + block.shape[1]] = block
        col += block.shape[1]
    return float(np.max(np.abs(np.linalg.eigvals(W.T @ T @ W))))


def _topology_indices(schedule, t: NDArray[np.float64]) -> NDArray[np.int64]:
    """Topology index at each (nonnegative) time of ``t``: that of the last
    schedule entry at or before it."""
    times = np.array([t_k for t_k, _ in schedule])
    index = np.array([k for _, k in schedule], dtype=np.int64)
    return index[np.searchsorted(times, t, side="right") - 1]


def _stretches(topo: NDArray[np.int64]):
    """(first, end) of each stretch of steps with constant topology."""
    cuts = np.flatnonzero(np.diff(topo)) + 1
    return zip(np.r_[0, cuts].tolist(), np.r_[cuts, len(topo)].tolist())


def _map_steps(states_log, cmds_log, topo_log, maps, cfg, stage_step):
    """Advance a map-stepped run through the logs, whose first state is set.

    A stretch of constant topology k is taken in blocks.  A block from step
    a steps its states by x+ = T_k x, one product per step, and logs their
    commands F_k x with one stacked product, bitwise the per-step F_k @ x.
    Without avoidance (``cfg`` None) a block is the whole stretch.  With
    it, one ``activation_candidates`` call tests the block's states; the
    block keeps the states up to the first with a candidate pair, and
    ``stage_step(k, topo_idx, near)`` takes that step with its mask row.  A
    block holds one state until BLOCK_STREAK clean ones in a row, then
    doubles after each clean block up to BLOCK_CAP; a cone step sets it back
    to one state.
    Rows stepped past a state with a candidate are overwritten by the steps
    that follow it, so every state is the one a per-step loop gives."""
    steps = len(states_log)
    X, U = states_log.reshape(steps, -1), cmds_log.reshape(steps, -1)
    size, streak = 1, 0
    for first, end in _stretches(topo_log):
        T, F = maps[topo_log[first]]
        a = first
        while a < end:
            b = end if cfg is None else min(a + size, end)
            for k in range(a, b - 1):
                np.matmul(T, X[k], out=X[k + 1])
            cone = b
            if cfg is not None:
                near = activation_candidates(states_log[a:b, :, :2], cfg)
                hits = np.flatnonzero(near.any(axis=(1, 2)))
                if hits.size:
                    cone = a + int(hits[0])
            if cone == b and b < steps:
                np.matmul(T, X[b - 1], out=X[b])
            if cone > a:
                np.matmul(F, X[a:cone, :, None], out=U[a:cone, :, None])
            if cone < b:
                stage_step(cone, topo_log[first], near[cone - a])
                size, streak = 1, 0
                a = cone + 1
            else:
                streak += 1
                if streak >= BLOCK_STREAK:
                    size = min(2 * size, BLOCK_CAP)
                a = b


def _stage_steps(stage_step, topo_log, rng):
    """Advance a run through the logs, whose first state is set, one
    ``stage_step`` at a time."""
    # The integral law's state is None before the first step.
    integral = None
    for k, topo_idx in enumerate(topo_log.tolist()):
        integral = stage_step(k, topo_idx, None, integral, rng)


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
    for first, end in _stretches(topo):
        out[first:end] = lyapunov_value(q[first:end], gains[topo[first]].assembled)
    return out


def check_gains(scenario: Scenario, gains: list[GainMatrix], basis: KernelBasis):
    """Admission test per topology: (spectrum report, chain root report or None,
    failure message or None).  Gains over another agent count or edge set than
    their topology's are refused outright.  The assembled matrix must be
    symmetric to the report's zero tolerance, with four zero eigenvalues and the
    rest negative; chain agents then also need every closed-loop root in the
    open left half-plane."""
    if len(gains) != len(scenario.topologies):
        raise ConfigurationError(
            f"{len(gains)} gain matrices for {len(scenario.topologies)} topologies"
        )
    n = scenario.formation.n
    for k, (gm, graph) in enumerate(zip(gains, scenario.topologies)):
        if gm.n != n:
            raise ConfigurationError(f"gain matrices for {gm.n} agents, scenario has {n}")
        differ = sorted(graph.edges ^ gm.graph.edges)
        if differ:
            e = differ[0]
            raise ConfigurationError(f"topology {k}: the gains have " + (
                f"no gain block for edge {e}" if e in graph.edges
                else f"a block for edge {e}, which is not in the scenario's graph"))
    cfg = scenario.controller
    out = []
    for k, gm in enumerate(gains):
        report = verify_gains(gm, basis)
        A = gm.assembled
        skew = np.abs(A - A.T).max(axis=1)
        skewed = np.flatnonzero(skew > report.zero_tolerance)
        roots = failure = None
        if skewed.size:
            # Off-diagonal blocks mirror each other: the skew is in a diagonal
            # block -(sum_j a_ij) I - (sum_j b_ij) K, whose (2, 1) entry is sum_j b_ij.
            i = skewed[0] // 2
            failure = (f"topology {k}: assembled gain matrix is not symmetric "
                       f"(max |A - A^T| = {skew.max():.2e} > {report.zero_tolerance:.2e}); "
                       f"agent {i + 1} has signed sum_j b_ij = {A[2*i + 1, 2*i]:.3e}, not 0")
        elif not report.passed:
            failure = (f"topology {k}: spectrum verification failed "
                       f"(zero_count={report.zero_count}, "
                       f"kernel_residual={report.kernel_residual:.2e})")
        elif scenario.agents.dynamics == "chain":
            eig = np.array(report.eigenvalues)
            mus = eig[np.abs(eig) > report.zero_tolerance]
            roots = verify_higher_order_gains(mus, list(cfg.k_chain), cfg.chain_variant)
            if not roots.passed:
                mu, worst = roots.worst
                failure = (f"topology {k}: chain gains unstable at mu={mu:.6g} "
                           f"(closed-loop real part {worst:.6g})")
        out.append((report, roots, failure))
    return out


def run(scenario: Scenario, gains: list[GainMatrix]) -> TrajectoryLog:
    """Simulate the scenario; deterministic for fixed (scenario, gains).

    Gains that fail ``check_gains`` are refused before stepping."""
    start = _time.perf_counter()
    n = scenario.formation.n
    cfg = scenario.controller
    model = scenario.agents
    dt = scenario.sim.dt
    chain = model.dynamics == "chain"
    # Scenario refuses the scale and integral laws on chains, and the two
    # laws together.
    integral_law = cfg.k0_int is not None
    # Under zero-order hold, RK4 on q' = A_k q is exactly q+ = (I + dt A_k) q,
    # which diverges once dt >= 2/rho(A_k).  The other laws add terms to A_k.
    linear_loop = (
        model.dynamics == "single_integrator"
        and cfg.scale is None
        and cfg.perturbation is None
        and not integral_law
    )
    # Without saturation, the scale and integral laws and noise, the law's
    # step is linear in the team state: it is stepped by its matrix, on
    # avoidance runs wherever no pair of agents is within d_c.
    by_map = (
        model.dynamics in ("single_integrator", "chain")
        and cfg.u_max is None
        and cfg.scale is None
        and not integral_law
        and scenario.sim.measurement_noise == 0.0
    )
    basis = build_kernel_basis(scenario.formation)
    for k, (report, _, failure) in enumerate(check_gains(scenario, gains, basis)):
        if failure is not None:
            raise GuaranteeViolationError(failure)
        rho = max(abs(e) for e in report.eigenvalues)
        if linear_loop and dt * rho >= 2.0:
            raise ConfigurationError(
                f"sim.dt={dt:g} is not below the stability bound 2/rho(A)={2.0 / rho:.6g} "
                f"of topology {k}; the single-integrator loop would diverge"
            )
    full_A = chain and cfg.chain_variant == "full_A"
    orders = model.chain_order + 1 if full_A else 1
    edges = [ctl._edge_arrays(gm, cfg.scale, orders) for gm in gains]
    dim = model.state_dim()
    step = _build_step(scenario)
    avoidance = scenario.avoidance
    maps = [_one_step_map(step, e, n, dim) for e in edges] if by_map else None
    # Avoidance runs keep the bound above: the map is their step only while
    # no cone is active, and whether one is at the reached formation depends
    # on the scale it converges to.
    for k, (T, _) in enumerate(maps if maps and avoidance is None else ()):
        radius = _map_radius(T, basis, full_A)
        if radius >= 1.0:
            raise ConfigurationError(
                f"sim.dt={dt:g} gives the one-step map of topology {k} spectral radius "
                f"{radius:.6g} >= 1 off the similarity modes; the loop would diverge"
            )

    rng = np.random.default_rng(scenario.sim.seed)
    states = _initial_states(scenario, rng)
    # Within 1e-9 of a whole number of steps is that number (0.3 / 0.1 < 3).
    steps = int(math.floor(scenario.sim.t_final / dt + 1e-9)) + 1

    t_arr = np.arange(steps) * dt
    states_log = np.zeros((steps, n, dim))
    cmds_log = np.zeros((steps, n, 2))
    topo_log = _topology_indices(scenario.schedule, t_arr)

    # Each step reads its state from the log and writes the next one there.
    states_log[0] = states
    stage_step = _stage_step(step, edges, avoidance, states_log, cmds_log)
    if maps is not None:
        # A step with no pair within d_c is the law's: it takes the map.
        # Any other is a stage step.
        _map_steps(states_log, cmds_log, topo_log, maps, avoidance, stage_step)
    else:
        _stage_steps(stage_step, topo_log, rng)

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

    if chain or integral_law:
        # The quadratic candidate is not the theorem's Lyapunov function for
        # chain or integral dynamics, so these runs are left unchecked.
        monitor = MonitorReport.unchecked()
    else:
        monitor = lyapunov_monitor_arrays(states_log, topo_log, gains, model, dt)
    summary = RunSummary(
        final_subspace_error=float(err_log[-1]),
        min_distance=float(dist_log.min()),
        lyapunov_violations=monitor.violations,
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
    violations: int | None  # None when the run was not checked
    worst_increment: float
    flagged_steps: list[int]

    @classmethod
    def unchecked(cls) -> "MonitorReport":
        return cls(violations=None, worst_increment=math.nan, flagged_steps=[])


def lyapunov_monitor_arrays(
    states_log: NDArray[np.float64],
    topo_log: NDArray[np.int64],
    gains: list[GainMatrix],
    model: AgentModel,
    dt: float,
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
    tol = MONITOR_REL_TOL * max(float(before[0]), 1.0) + 1e-9
    flagged = np.flatnonzero(inc > tol)
    return MonitorReport(
        violations=int(flagged.size),
        worst_increment=float(np.fmax.reduce(inc, initial=-np.inf)),
        flagged_steps=flagged.tolist(),
    )


def lyapunov_monitor(log: TrajectoryLog, gains: list[GainMatrix]) -> MonitorReport:
    """Post-hoc Lyapunov descent check over a finished trajectory log.

    A log whose run was not checked (chain or integral dynamics) stays
    unchecked."""
    if log.summary.lyapunov_violations is None:
        return MonitorReport.unchecked()
    return lyapunov_monitor_arrays(
        log.states, log.topology_index, gains, log.agents, float(log.t[1] - log.t[0])
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
        # Python floats print with repr, a block of rows at a time so the
        # whole log never exists as Python objects.
        for first in range(0, steps, CSV_BLOCK_ROWS):
            rows = data[first : first + CSV_BLOCK_ROWS].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))
