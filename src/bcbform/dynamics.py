"""Continuous-time vector fields for every agent model.

Headings and steering angles are stored as angles and turned into unit
vectors on demand, so integration preserves unit norm exactly.  Saturation
is applied to the commanded inputs before they enter these fields, never to
the internal velocity states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, DimensionError


@dataclass(frozen=True)
class ActuatorParams:
    """First-order actuator model v' = -a v + b s, w' = -c w + d r."""

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    d: float = 1.0


def heading_vector(theta) -> NDArray[np.float64]:
    """Unit vector (cos theta, sin theta); an array of angles gives (..., 2)."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def deriv_single_integrator(u) -> NDArray[np.float64]:
    """q' = u."""
    return np.asarray(u, dtype=np.float64)


def deriv_chain(state: NDArray[np.floating], u, m: int) -> NDArray[np.float64]:
    """Chain of integrators: each derivative feeds the one below, u at the top.

    ``state`` stacks (q, q(1), ..., q(m)) as 2(m+1) entries along its last axis.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.shape[-1] != 2 * (m + 1):
        raise DimensionError(
            f"chain state length {state.shape[-1]} does not match order m={m}"
        )
    out = np.empty_like(state)
    out[..., :-2] = state[..., 2:]
    out[..., -2:] = u
    return out


def deriv_unicycle(
    state: NDArray[np.floating],
    inputs,
    params: ActuatorParams | None = None,
    kinematic_only: bool = True,
) -> NDArray[np.float64]:
    """Unicycle field.  Kinematic state (x, y, theta) with inputs (v, omega);
    dynamic state (x, y, theta, v, omega) with inputs (s, r).  Rows may be
    stacked, one per agent, with scalar or per-agent ``params`` fields."""
    state = np.asarray(state, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    theta = state[..., 2]
    if kinematic_only:
        v, omega = inputs[..., 0], inputs[..., 1]
        return np.stack([v * np.cos(theta), v * np.sin(theta), omega], axis=-1)
    if params is None:
        raise ConfigurationError("actuator params required for the dynamic unicycle")
    v, omega = state[..., 3], state[..., 4]
    s, r = inputs[..., 0], inputs[..., 1]
    return np.stack(
        [
            v * np.cos(theta),
            v * np.sin(theta),
            omega,
            -params.a * v + params.b * s,
            -params.c * omega + params.d * r,
        ],
        axis=-1,
    )


def deriv_car(
    state: NDArray[np.floating],
    inputs,
    wheelbase: float,
    params: ActuatorParams | None = None,
    kinematic_only: bool = True,
    phi_max: float | None = None,
) -> NDArray[np.float64]:
    """Front-axle car field.  Kinematic state (x, y, theta, phi) with inputs
    (v, omega); dynamic state (x, y, theta, phi, v, omega) with inputs (s, r).
    Stacked rows are accepted as for :func:`deriv_unicycle`.

    When a steering bound is active, the steering rate is zeroed at the bound
    whenever it pushes outward (hard clamp semantics).
    """
    if wheelbase <= 0:
        raise ConfigurationError("wheelbase must be positive")
    state = np.asarray(state, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    theta, phi = state[..., 2], state[..., 3]
    if kinematic_only:
        v, omega = inputs[..., 0], inputs[..., 1]
    else:
        if params is None:
            raise ConfigurationError("actuator params required for the dynamic car")
        v, omega = state[..., 4], state[..., 5]
    phidot = omega
    if phi_max is not None:
        phidot = np.where((np.abs(phi) >= phi_max) & (phi * phidot > 0), 0.0, phidot)
    delta = theta + phi
    rows = [
        v * np.cos(delta),
        v * np.sin(delta),
        (v / wheelbase) * np.sin(phi),
        phidot,
    ]
    if not kinematic_only:
        s, r = inputs[..., 0], inputs[..., 1]
        rows += [-params.a * v + params.b * s, -params.c * omega + params.d * r]
    return np.stack(rows, axis=-1)


def rear_to_front_speed(v_rear: float, phi: float) -> float:
    """Front-axle speed from a commanded rear-wheel speed; pinned to zero at
    phi = +-pi/2 where the rear wheels cannot move the front axle."""
    c = math.cos(phi)
    if abs(c) < 1e-12:
        return 0.0
    return v_rear / c
