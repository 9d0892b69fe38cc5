"""Distributed collision avoidance: the cone rule over the whole team.

Each other agent within d_c forbids an agent the cone of motion directions
that would cross its protected disc.  The agent's command is rotated by the
smallest angle, within +-90 degrees, that clears every one of its cones; if
there is none the agent stops.  Rotations inside that envelope fall in the
perturbation class that preserves stability.  ``build_cones`` builds every
cone of a step at once and ``adjust_control`` applies the rule to every
command of the team at once.  Angles come from ``math.atan2`` and
``math.asin``, whose results the rule's exact comparisons are written for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .controllers import rotation
from .errors import ConfigurationError
from .geometry import row_norms

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


def _angles(y, x) -> NDArray[np.float64]:
    """``math.atan2`` of each pair of entries."""
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())), dtype=np.float64)


def build_cones(positions, near, cfg: AvoidanceConfig):
    """Every cone of one step, as the arrays (agent, other, centre, half).

    One cone per pair (i, j) of the candidate mask ``near`` with
    0 < |p_j - p_i| <= d_c, in row-major order: the agent i it constrains,
    the neighbor j, the direction angle of p_j - p_i and the half angle.  A
    neighbor already inside the protected radius blocks a full half-plane
    (half angle pi/2), forcing retreat or stop.  A NaN position gives cones
    of NaN angles, which block nothing.
    """
    positions = np.asarray(positions, dtype=np.float64)
    agent, other = np.nonzero(near)
    diff = positions[other] - positions[agent]
    d = row_norms(diff)
    keep = (d != 0.0) & ~(d > cfg.d_c)
    agent, other, diff, d = agent[keep], other[keep], diff[keep], d[keep]
    unit = diff / d[:, None]
    r_eff = cfg.protected_radius
    wide = d <= r_eff
    half = np.array(list(map(math.asin, np.where(wide, 0.0, r_eff / d).tolist())),
                    dtype=np.float64)
    half[wide] = math.pi / 2
    return agent, other, _angles(unit[:, 1], unit[:, 0]), half


def _wrap(angle):
    """Wrap to (-pi, pi], elementwise."""
    a = np.fmod(angle + math.pi, _TWO_PI)
    return np.where(a <= 0, a + _TWO_PI, a) - math.pi


def adjust_control(us, cones, cfg: AvoidanceConfig):
    """The team's (n, 2) commands ``us`` after the cone rule.

    Each command inside a cone of its agent is rotated by the smallest angle
    within +-90 degrees that clears all of that agent's cones (by a margin
    of 1e-12), or set to zero if no such angle exists.  The candidates are
    the cone boundaries; ties between equal clockwise and counterclockwise
    rotations break counterclockwise.  Returns ``us`` itself when every
    command is clear, else a new array.  Each output row's norm is either
    its input's or zero.
    """
    agent, other, centre, half = cones
    us = np.asarray(us, dtype=np.float64)
    if not agent.size:
        return us
    u = us[agent]
    theta = _angles(u[:, 1], u[:, 0])
    hit = np.any(u, axis=1) & (np.abs(_wrap(theta - centre)) < half)
    if not hit.any():
        return us

    # The blocked agents' cones, one row per agent and one column per
    # neighbor; NaN where there is no cone, which adds no candidate and
    # blocks nothing.
    n = len(us)
    c, h = np.full((2, n, n), np.nan)
    c[agent, other], h[agent, other] = centre, half
    t_u = np.empty(n)
    t_u[agent] = theta
    blocked = np.unique(agent[hit])
    c, h, t_u = c[blocked], h[blocked], t_u[blocked]

    # Candidate rotations: both boundaries of each cone, relative to the
    # command, within the +-90 deg envelope and clear of every cone.
    rel = _wrap(c - t_u[:, None])
    t = _wrap(np.concatenate([rel - h, rel + h], axis=1))
    inside = (np.abs(_wrap(t_u[:, None, None] + t[:, :, None] - c[:, None, :]))
              < h[:, None, :] - 1e-12)
    ok = (np.abs(t) < math.pi / 2) & ~inside.any(axis=2)

    # Smallest |t|, the positive one of an exact tie.
    size = np.where(ok, np.abs(t), np.inf)
    best = np.where(ok & (size == size.min(axis=1, keepdims=True)), t, -np.inf).max(axis=1)
    turn = ok.any(axis=1)
    out = us.copy()
    turned = blocked[turn]
    out[turned] = np.matmul(rotation(best[turn]), us[turned][:, :, None])[:, :, 0]
    out[blocked[~turn]] = 0.0
    return out
