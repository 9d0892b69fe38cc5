"""Control-law evaluations for every supported dynamics class.

All functions are pure: they map local relative measurements (and, where
needed, an explicit accumulator state) to commanded inputs.  The gain blocks
commute with planar rotations, so evaluating these laws in any agent-local
frame and rotating the result back gives the same command.  The consensus
laws take one agent's measurements; the other laws also take stacked rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, GuaranteeViolationError
from .geometry import row_dot, row_norms


def rotation(alpha) -> NDArray[np.float64]:
    """Planar rotation by ``alpha``; an array of angles gives (..., 2, 2)."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


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


@dataclass
class IntegralState:
    """Trapezoidal accumulator of the consensus term, one per agent."""

    accumulator: NDArray[np.float64] = field(
        default_factory=lambda: np.zeros(2)
    )
    last_term: NDArray[np.float64] | None = None


def consensus_term(rel_positions, gain_blocks) -> NDArray[np.float64]:
    """sum_j A_ij (q_j - q_i) over the supplied neighbor measurements."""
    u = np.zeros(2)
    for j, rel in rel_positions:
        if j not in gain_blocks:
            raise ConfigurationError(f"no gain block for neighbor {j}")
        u += gain_blocks[j] @ np.asarray(rel, dtype=np.float64)
    return u


def single_integrator_control(rel_positions, gain_blocks) -> NDArray[np.float64]:
    """u_i = sum_j A_ij (q_j - q_i)."""
    return consensus_term(rel_positions, gain_blocks)


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


def integral_control(
    rel_positions,
    gain_blocks,
    state: IntegralState,
    dt: float,
    k0: float,
    k1: float,
) -> tuple[NDArray[np.float64], IntegralState]:
    """Consensus control with an integral term rejecting constant disturbances."""
    if k0 <= 0 or k1 < 0:
        raise GuaranteeViolationError("integral control requires k0 > 0 and k1 >= 0")
    term = consensus_term(rel_positions, gain_blocks)
    if state.last_term is None:
        acc = state.accumulator
    else:
        acc = state.accumulator + 0.5 * dt * (state.last_term + term)
    u = k0 * term + k1 * acc
    return u, IntegralState(accumulator=acc, last_term=term)


def higher_order_control(
    rel_position_term: NDArray[np.float64],
    rel_derivative_terms: list[NDArray[np.float64]] | None,
    own_derivatives: list[NDArray[np.float64]],
    k: tuple[float, ...],
    variant: str,
) -> NDArray[np.float64]:
    """Chain control from precomputed consensus terms.

    ``rel_position_term`` is sum_j A_ij (q_j - q_i).  For the full_A variant
    the caller supplies the same consensus sum for each derivative order
    (requires neighbor derivative measurements); the identity variant damps
    the agent's own derivatives instead and needs no neighbor derivatives.
    """
    m = len(k) - 1
    u = k[0] * np.asarray(rel_position_term, dtype=np.float64)
    if m == 0:
        return u
    if variant == "full_A":
        if rel_derivative_terms is None or len(rel_derivative_terms) < m:
            raise ConfigurationError(
                "full_A chain control needs relative derivative measurements"
            )
        for order in range(1, m + 1):
            u = u + k[order] * rel_derivative_terms[order - 1]
        return u
    if variant == "identity_derivatives":
        for order in range(1, m + 1):
            u = u - k[order] * np.asarray(own_derivatives[order - 1], dtype=np.float64)
        return u
    raise ConfigurationError(f"unknown chain control variant {variant!r}")


def _check_unit(vec, name: str) -> NDArray[np.float64]:
    v = np.asarray(vec, dtype=np.float64)
    if np.any(np.abs(row_norms(v) - 1.0) > 1e-9):
        raise ConfigurationError(f"{name} vector must be unit norm")
    return v


def _check_drive(drive: str) -> None:
    if drive not in ("front", "rear"):
        raise ConfigurationError(f"unknown drive type {drive!r}")


def _project(h, u):
    """Components of ``u`` along the unit vector ``h`` and its left normal."""
    h_perp = np.stack([-h[..., 1], h[..., 0]], axis=-1)
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


def scale_augmented_control(
    agent: int, rel_positions, gain_blocks, scale: ScaleConfig
) -> NDArray[np.float64]:
    """Consensus control plus the bounded distance-correction term."""
    u = consensus_term(rel_positions, gain_blocks)
    for j, rel in rel_positions:
        rel = np.asarray(rel, dtype=np.float64)
        key = (min(agent, j), max(agent, j))
        if key not in scale.d_star:
            raise ConfigurationError(f"no desired distance for edge {key}")
        d = float(np.linalg.norm(rel))
        u = u + scale.f(d - scale.d_star[key]) * rel
    return u
