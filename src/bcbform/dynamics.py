"""Continuous-time vector fields for every agent model.

Headings and steering angles are stored as angles and turned into unit
vectors on demand, so integration preserves unit norm exactly.  Saturation
is applied to the commanded inputs before they enter these fields, never to
the internal velocity states.
"""

from __future__ import annotations

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


def _field_out(out, state, inputs, dim: int) -> NDArray[np.float64]:
    """``out``, or a new array with one row of ``dim`` entries per stacked row
    of ``state`` and ``inputs``."""
    if out is None:
        out = np.empty(np.broadcast_shapes(state.shape[:-1], inputs.shape[:-1]) + (dim,))
    return out


def heading_vector(theta, out=None) -> NDArray[np.float64]:
    """Unit vector (cos theta, sin theta); an array of angles gives (..., 2),
    written into ``out`` when given."""
    if out is None:
        out = np.empty(np.shape(theta) + (2,))
    out[..., 0] = np.cos(theta)
    out[..., 1] = np.sin(theta)
    return out


def deriv_single_integrator(u) -> NDArray[np.float64]:
    """q' = u."""
    return np.asarray(u, dtype=np.float64)


def deriv_chain(
    state: NDArray[np.floating], u, m: int, out=None
) -> NDArray[np.float64]:
    """Chain of integrators: each derivative feeds the one below, u at the top.

    ``state`` stacks (q, q(1), ..., q(m)) as 2(m+1) entries along its last
    axis; the field is written into ``out`` when given.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.shape[-1] != 2 * (m + 1):
        raise DimensionError(
            f"chain state length {state.shape[-1]} does not match order m={m}"
        )
    if out is None:
        out = np.empty_like(state)
    out[..., :-2] = state[..., 2:]
    out[..., -2:] = u
    return out


def deriv_unicycle(
    state: NDArray[np.floating],
    inputs,
    params: ActuatorParams | None = None,
    kinematic_only: bool = True,
    out=None,
) -> NDArray[np.float64]:
    """Unicycle field.  Kinematic state (x, y, theta) with inputs (v, omega);
    dynamic state (x, y, theta, v, omega) with inputs (s, r).  Rows may be
    stacked, one per agent, with scalar or per-agent ``params`` fields.  The
    field is written into ``out`` when given."""
    state = np.asarray(state, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    theta = state[..., 2]
    if kinematic_only:
        v, omega = inputs[..., 0], inputs[..., 1]
    elif params is None:
        raise ConfigurationError("actuator params required for the dynamic unicycle")
    else:
        v, omega = state[..., 3], state[..., 4]
    out = _field_out(out, state, inputs, 3 if kinematic_only else 5)
    np.multiply(v, np.cos(theta), out=out[..., 0])
    np.multiply(v, np.sin(theta), out=out[..., 1])
    out[..., 2] = omega
    if not kinematic_only:
        _actuator_rates(params, v, omega, inputs, out[..., 3:])
    return out


def deriv_car(
    state: NDArray[np.floating],
    inputs,
    wheelbase: float,
    params: ActuatorParams | None = None,
    kinematic_only: bool = True,
    phi_max: float | None = None,
    out=None,
) -> NDArray[np.float64]:
    """Front-axle car field.  Kinematic state (x, y, theta, phi) with inputs
    (v, omega); dynamic state (x, y, theta, phi, v, omega) with inputs (s, r).
    Stacked rows and ``out`` are accepted as for :func:`deriv_unicycle`.

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
    delta = theta + phi
    out = _field_out(out, state, inputs, 4 if kinematic_only else 6)
    np.multiply(v, np.cos(delta), out=out[..., 0])
    np.multiply(v, np.sin(delta), out=out[..., 1])
    np.multiply(v / wheelbase, np.sin(phi), out=out[..., 2])
    out[..., 3] = omega
    if phi_max is not None:
        # Clamped in place, and only with an agent at the bound;
        # count_nonzero tests a small mask about three times faster than any.
        at_bound = np.abs(phi) >= phi_max
        if np.count_nonzero(at_bound):
            at_bound &= phi * omega > 0
            np.copyto(out[..., 3], 0.0, where=at_bound)
    if not kinematic_only:
        _actuator_rates(params, v, omega, inputs, out[..., 4:])
    return out


def _actuator_rates(params: ActuatorParams, v, omega, inputs, out) -> None:
    """(v', omega') = (-a v + b s, -c omega + d r) into the two columns of
    ``out``, each formed as b s - a v, which rounds the same."""
    np.subtract(params.b * inputs[..., 0], params.a * v, out=out[..., 0])
    np.subtract(params.d * inputs[..., 1], params.c * omega, out=out[..., 1])


def rear_to_front_speed(v_rear, phi):
    """Front-axle speed from a commanded rear-wheel speed; pinned to zero at
    phi = +-pi/2 where the rear wheels cannot move the front axle.  Stacked
    rows are converted elementwise."""
    c = np.cos(phi)
    pinned = np.abs(c) < 1e-12
    return np.where(pinned, 0.0, v_rear / np.where(pinned, 1.0, c))[()]
