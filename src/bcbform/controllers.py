"""Control laws of the team, and the projections that turn them into
vehicle inputs.

Each law has one implementation, over the whole team: it takes the sensing
edges of one topology as arrays (``_EdgeArrays``, built once per run) and
the (n, state_dim) team state, and returns the (n, 2) planar commands.  A
law's ``draws`` is one step's measurement noise (``_EdgeArrays.noise``), or
None.  The gain blocks commute with planar rotations, so evaluating a law
in any agent-local frame and rotating the result back gives the same
command.  The projection and saturation functions take one row per agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, GuaranteeViolationError
from .gains import GainMatrix
from .geometry import row_dot, row_norms


def rotation(alpha) -> NDArray[np.float64]:
    """Planar rotation by ``alpha``; an array of angles gives (..., 2, 2)."""
    c, s = np.cos(alpha), np.sin(alpha)
    R = np.empty(np.shape(c) + (2, 2))
    R[..., 0, 0] = R[..., 1, 1] = c
    R[..., 0, 1] = -s
    R[..., 1, 0] = s
    return R


@dataclass(frozen=True)
class ScaleConfig:
    """Distance-augmentation settings fixing the formation scale."""

    d_star: dict[tuple[int, int], float]
    f_kind: str = "tanh"
    k_f: float = 1.0

    def __post_init__(self):
        if self.k_f <= 0:
            raise ConfigurationError("scale gain k_f must be positive")
        if self.f_kind not in ("tanh", "atan"):
            raise ConfigurationError(f"unknown scale map {self.f_kind!r}")

    def f(self, x):
        g = np.tanh(x) if self.f_kind == "tanh" else np.arctan(x)
        return g / self.k_f


@dataclass(frozen=True)
class PerturbationConfig:
    """Per-agent control rotation/scaling inside the robustness envelope."""

    c: tuple[float, ...]
    alpha: tuple[float, ...]

    def __post_init__(self):
        for ci, ai in zip(self.c, self.alpha):
            if ci <= 0 or abs(ai) >= math.pi / 2:
                raise GuaranteeViolationError(
                    "perturbation must have c > 0 and |alpha| < pi/2"
                )


@dataclass(frozen=True)
class ControllerConfig:
    """Everything the simulator needs to evaluate an agent's control law."""

    u_max: float | None = None
    v_max: float | None = None
    omega_max: float | None = None
    phi_max: float | None = None
    k_chain: tuple[float, ...] = (1.0,)
    chain_variant: str = "identity_derivatives"
    k0_int: float | None = None
    k1_int: float | None = None
    k_s: float | None = None
    actuator_mode: str = "direct"  # or "velocity_feedback"
    scale: ScaleConfig | None = None
    perturbation: PerturbationConfig | None = None

    def __post_init__(self):
        for name in ("u_max", "v_max", "omega_max", "phi_max"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigurationError(f"{name} must be positive when set")
        if self.chain_variant not in ("full_A", "identity_derivatives"):
            raise ConfigurationError(
                f"unknown chain control variant {self.chain_variant!r}"
            )
        if self.actuator_mode not in ("direct", "velocity_feedback"):
            raise ConfigurationError(f"unknown actuator mode {self.actuator_mode!r}")
        if self.actuator_mode == "velocity_feedback" and self.k_s is None:
            raise ConfigurationError("velocity_feedback mode requires k_s")
        if (self.k0_int is None) != (self.k1_int is None):
            missing = "k0_int" if self.k0_int is None else "k1_int"
            raise ConfigurationError(
                "integral control needs both controller.k0_int and controller.k1_int; "
                f"controller.{missing} is not set"
            )
        if self.k0_int is not None:
            if self.k0_int <= 0 or self.k1_int < 0:
                raise ConfigurationError(
                    "integral control requires controller.k0_int > 0 and "
                    f"controller.k1_int >= 0; got {self.k0_int!r} and {self.k1_int!r}"
                )
            if self.scale is not None:
                raise ConfigurationError(
                    "controller.scale and the integral gains controller.k0_int/k1_int "
                    "are two laws; set one of them"
                )


@dataclass(frozen=True)
class _EdgeArrays:
    """Directed sensing edges of one topology, built once per run.

    Edges are agent-major with neighbors sorted.  ``np.bincount`` over
    ``scatter`` and ``np.add.at`` over ``src`` both add rows edge by edge in
    array order, so each agent's sum over these arrays rounds exactly like
    the sum over its own neighbors, taken from zero in neighbor order.
    """

    src: NDArray[np.intp]  # measuring agent (0-based)
    scatter: NDArray[np.intp]  # (2E,) flat (n, 2) bin of each ravelled (E, 2) entry
    dst: NDArray[np.intp]  # measured neighbor (0-based)
    blocks: NDArray[np.float64]  # (E, 2, 2) gain blocks A_src,dst
    d_star: NDArray[np.float64] | None  # (E,) desired distances, scale law only
    draw_rows: NDArray[np.intp]  # (orders, E) rows of one step's noise draw

    def noise(self, rng: np.random.Generator, bound: float) -> NDArray[np.float64]:
        """One step's measurement noise, uniform in [-bound, bound], as
        (orders, E, 2): one (E, 2) draw per measured derivative order."""
        orders, n_edges = self.draw_rows.shape
        return rng.uniform(-bound, bound, size=(orders * n_edges, 2))[self.draw_rows]


def _edge_arrays(gm: GainMatrix, scale: ScaleConfig | None, orders: int) -> _EdgeArrays:
    """Edge arrays of ``gm``'s topology; ``orders`` relative measurements per edge."""
    graph = gm.graph
    src, dst, edge = graph.directed_edges()
    d_star = None
    if scale is not None:
        missing = sorted(set(graph.edge_list) - scale.d_star.keys())
        if missing:
            raise ConfigurationError(f"no desired distance for edge {missing[0]}")
        d_star = np.fromiter(map(scale.d_star.get, graph.edge_list), np.float64)[edge]
    # Noise is drawn agent by agent: all position measurements of an agent,
    # then each derivative order's, before the next agent's.
    first = np.searchsorted(src, src)
    degree = np.bincount(src, minlength=graph.n)[src]
    draw_rows = (
        orders * first + np.arange(orders)[:, None] * degree + np.arange(src.size) - first
    )
    return _EdgeArrays(
        src=src,
        scatter=(2 * src[:, None] + np.arange(2)).ravel(),
        dst=dst,
        blocks=gm.directed_blocks(),
        d_star=d_star,
        draw_rows=draw_rows,
    )


def consensus_term(edges: _EdgeArrays, part, draws=None, order: int = 0):
    """sum_j A_ij (x_j - x_i) per agent for the (n, 2) rows x of ``part``,
    and the (E, 2) relative measurements x_j - x_i.  ``draws``, one step's
    ``_EdgeArrays.noise``, adds its derivative order ``order`` to them."""
    rel = part.take(edges.dst, axis=0) - part.take(edges.src, axis=0)
    if draws is not None:
        rel = rel + draws[order]
    terms = np.matmul(edges.blocks, rel[:, :, None])
    n = len(part)
    return np.bincount(edges.scatter, terms.ravel(), 2 * n).reshape(n, 2), rel


def chain_full_a(edges: _EdgeArrays, states, k, draws=None) -> NDArray[np.float64]:
    """Chain law u_i = sum_o k_o sum_j A_ij (x_j^(o) - x_i^(o)): every
    derivative level o of the (n, 2 (m + 1)) ``states`` through the gains."""
    if states.shape[1] < 2 * len(k):
        raise ConfigurationError(
            "full_A chain control needs relative derivative measurements"
        )
    u = k[0] * consensus_term(edges, states[:, :2], draws)[0]
    for order in range(1, len(k)):
        part = states[:, 2 * order : 2 * order + 2]
        u = u + k[order] * consensus_term(edges, part, draws, order)[0]
    return u


def chain_identity(edges: _EdgeArrays, states, k, draws=None) -> NDArray[np.float64]:
    """Chain law u_i = k_0 sum_j A_ij (q_j - q_i) - sum_o k_o x_i^(o): the
    positions through the gains, each agent's own derivatives damped."""
    u = k[0] * consensus_term(edges, states[:, :2], draws)[0]
    for order in range(1, len(k)):
        u = u - k[order] * states[:, 2 * order : 2 * order + 2]
    return u


def scale_augmented(edges: _EdgeArrays, positions, f, draws=None) -> NDArray[np.float64]:
    """Consensus plus the bounded distance correction f(|r| - d*) r per edge,
    r the relative position; ``f`` is ``ScaleConfig.f``."""
    u, rel = consensus_term(edges, positions, draws)
    gain = f(row_norms(rel) - edges.d_star)
    np.add.at(u, edges.src, gain[:, None] * rel)
    return u


def integral_consensus(edges: _EdgeArrays, positions, state, dt: float, k0: float,
                       k1: float, draws=None):
    """k0 times the consensus term plus k1 times its trapezoidal integral,
    rejecting constant disturbances.  ``state`` is the (accumulator, last
    term) pair this returns with the command, None on the first step."""
    term = consensus_term(edges, positions, draws)[0]
    if state is None:
        acc = np.zeros_like(term)
    else:
        acc, last = state
        acc = acc + 0.5 * dt * (last + term)
    return k0 * term + k1 * acc, (acc, term)


def perturb_control(u, c, alpha) -> NDArray[np.float64]:
    """Scale by c > 0 and rotate by |alpha| < pi/2; convergence is preserved.
    Stacked rows of ``u`` take one ``c`` and one ``alpha`` each."""
    c = np.asarray(c, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(c <= 0) or np.any(np.abs(alpha) >= math.pi / 2):
        raise GuaranteeViolationError(
            f"perturbation (c={c}, alpha={alpha}) outside the robustness envelope"
        )
    u = np.asarray(u, dtype=np.float64)
    return c[..., None] * np.matmul(rotation(alpha), u[..., None])[..., 0]


def saturate_norm(u, u_max: float) -> NDArray[np.float64]:
    """Scale each row of ``u`` down to norm ``u_max`` when it exceeds it;
    direction kept, rows within the bound returned unchanged."""
    u = np.asarray(u, dtype=np.float64)
    norm = row_norms(u)[..., None]
    return np.where(norm <= u_max, u, u * (u_max / np.maximum(norm, u_max)))


def saturate_scalar(x, bound: float | None):
    """Clip |x| to ``bound`` keeping the sign, elementwise for arrays."""
    if bound is None:
        return x
    return np.where(np.abs(x) <= bound, x, np.copysign(bound, x))[()]


def _check_unit(vec, name: str) -> NDArray[np.float64]:
    v = np.asarray(vec, dtype=np.float64)
    if (np.abs(row_norms(v) - 1.0) > 1e-9).any():
        raise ConfigurationError(f"{name} vector must be unit norm")
    return v


def _check_drive(drive: str) -> None:
    if drive not in ("front", "rear"):
        raise ConfigurationError(f"unknown drive type {drive!r}")


_LEFT_NORMAL = np.array([-1.0, 1.0])  # (h0, h1) reversed and times this: (-h1, h0)


def _project(h, u):
    """Components of ``u`` along the unit vector ``h`` and its left normal."""
    h_perp = h[..., ::-1] * _LEFT_NORMAL
    return row_dot(h, u)[()], row_dot(h_perp, u)[()]


def unicycle_control(h, u):
    """Project the holonomic command on the heading and its perpendicular."""
    return _project(_check_unit(h, "heading"), u)


def unicycle_actuator_control(
    h, u, v_current, mode: str = "direct", k_s: float | None = None,
    drive: str = "front", phi=0.0,
):
    """Commands (s, r) for the actuator-dynamics unicycle, or car with ``h`` the
    steering direction.  A rear-drive car's desired speed is pinned to zero at
    perpendicular steering, where the rear wheels cannot move the front axle."""
    v_des, r = unicycle_control(h, u)
    _check_drive(drive)
    if drive == "rear":
        v_des = np.where(np.abs(np.cos(phi)) < 1e-12, 0.0, v_des)[()]
    if mode == "direct":
        return v_des, r
    if mode == "velocity_feedback":
        if k_s is None:
            raise ConfigurationError("velocity_feedback mode requires k_s")
        return -k_s * (v_current - v_des), r
    raise ConfigurationError(f"unknown actuator mode {mode!r}")


def car_control(g, u, drive: str = "front", phi=0.0):
    """Project onto the steering direction; rear drive masks by cos(phi)."""
    v, omega = _project(_check_unit(g, "steering"), u)
    _check_drive(drive)
    if drive == "rear":
        v = v * np.cos(phi)
    return v, omega
