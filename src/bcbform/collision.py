"""Distributed collision avoidance: cone construction and minimal rotation.

Each nearby agent forbids a cone of motion directions.  The control vector
is rotated by the smallest angle that clears every cone; if no clear
direction exists within +-90 degrees the agent stops.  Rotations inside
that envelope fall in the perturbation class that preserves stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .controllers import rotation
from .errors import ConfigurationError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AvoidanceConfig:
    """Collision radius and the distance at which avoidance engages.

    ``margin`` inflates the disc the cones protect (to ``r + margin``) without
    changing the safety radius itself; a small value compensates for the
    discrete-time evaluation of the avoidance rule, which otherwise lets
    tangential approaches shave marginally below ``r`` within one step.
    """

    r: float
    d_c: float
    margin: float = 0.0

    def __post_init__(self):
        if not (self.d_c > self.r > 0) or self.margin < 0:
            raise ConfigurationError("avoidance requires d_c > r > 0 and margin >= 0")
        if self.r + self.margin >= self.d_c:
            raise ConfigurationError("avoidance margin must keep r + margin < d_c")

    @property
    def protected_radius(self) -> float:
        return self.r + self.margin


def activation_candidates(positions, cfg: AvoidanceConfig) -> NDArray[np.bool_]:
    """(..., n, n) mask of the pairs (i, j), i != j, that ``build_cones`` may
    keep, for each (n, 2) set of positions of a stack shaped (..., n, 2).

    A pair is left out only when its squared distance exceeds d_c squared
    with a relative slack of 1e-9 on d_c, which covers the rounding between
    squaring and ``build_cones``' own norm test.  Every pair the mask leaves
    out is one ``build_cones`` would skip; the pairs it keeps still go
    through that exact test.  Each state of a stack gets, bitwise, the mask
    it gets alone, so the simulator tests a block of states with one call.
    A NaN coordinate keeps its agent's pairs in the mask.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[-2]
    diff = positions[..., None, :, :] - positions[..., :, None, :]
    dist_sq = np.einsum("...ijk,...ijk->...ij", diff, diff)
    near = ~(dist_sq > (cfg.d_c * (1.0 + 1e-9)) ** 2)
    near.reshape(near.shape[:-2] + (n * n,))[..., :: n + 1] = False
    return near


@dataclass(frozen=True)
class CollisionCone:
    """Angular region of directions that would intersect a neighbor's disc."""

    center_dir: NDArray[np.float64]
    half_angle: float

    @property
    def center_angle(self) -> float:
        return math.atan2(self.center_dir[1], self.center_dir[0])


def build_cones(p_i, neighbors, cfg: AvoidanceConfig) -> list[CollisionCone]:
    """One cone per neighbor within the activation threshold.

    A neighbor already inside the collision radius blocks a full half-plane
    (half angle pi/2), forcing retreat or stop.
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    cones = []
    for p_j in neighbors:
        diff = np.asarray(p_j, dtype=np.float64) - p_i
        d = float(np.linalg.norm(diff))
        if d == 0.0 or d > cfg.d_c:
            continue
        r_eff = cfg.protected_radius
        if d <= r_eff:
            half = math.pi / 2
        else:
            half = math.asin(r_eff / d)
        cones.append(CollisionCone(center_dir=diff / d, half_angle=half))
    return cones


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(angle + math.pi, _TWO_PI)
    if a <= 0:
        a += _TWO_PI
    return a - math.pi


def _inside(angle: float, cone: CollisionCone, margin: float = 0.0) -> bool:
    return abs(_wrap(angle - cone.center_angle)) < cone.half_angle - margin


def adjust_control(u, cones: list[CollisionCone], cfg: AvoidanceConfig):
    """Rotate ``u`` by the minimum angle clearing all cones, or stop.

    Returns ``u`` bitwise-unchanged when it is already clear.  Ties between
    equal clockwise/counterclockwise rotations break counterclockwise.  The
    output norm is either ``|u|`` or zero.
    """
    u = np.asarray(u, dtype=np.float64)
    if not cones or not np.any(u):
        return u
    theta_u = math.atan2(u[1], u[0])
    if not any(_inside(theta_u, c) for c in cones):
        return u

    # Forbidden intervals relative to the control direction.
    intervals = []
    for c in cones:
        center = _wrap(c.center_angle - theta_u)
        intervals.append((center - c.half_angle, center + c.half_angle))

    # Candidate rotations: cone boundary angles within the +-90 deg envelope.
    candidates = []
    for lo, hi in intervals:
        for cand in (lo, hi):
            cand = _wrap(cand)
            if abs(cand) < math.pi / 2:
                candidates.append(cand)
    feasible = [
        t
        for t in candidates
        if not any(_inside(theta_u + t, c, margin=1e-12) for c in cones)
    ]
    if not feasible:
        return np.zeros(2)
    # Minimum magnitude; counterclockwise (positive) wins exact ties.
    best = min(feasible, key=lambda t: (abs(t), -math.copysign(1.0, t)))
    return rotation(best) @ u
