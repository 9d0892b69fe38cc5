"""Collision cones and minimum-rotation avoidance over the whole team."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_laws as ref

from bcbform.collision import (
    AvoidanceConfig,
    activation_candidates,
    adjust_control,
    build_cones,
)
from bcbform.errors import ConfigurationError

CFG = AvoidanceConfig(r=1.0, d_c=4.0)


def agent_cones(p_i, neighbors, cfg=CFG):
    """(positions, cones) of a team of agent 0 at ``p_i`` and ``neighbors``,
    with the cones of agent 0 against every neighbor."""
    positions = np.vstack([p_i, np.reshape(np.asarray(neighbors, dtype=float), (-1, 2))])
    near = np.zeros((len(positions), len(positions)), dtype=bool)
    near[0, 1:] = True
    return positions, build_cones(positions, near, cfg)


def adjust_one(u, p_i, neighbors, cfg=CFG):
    """Agent 0's command ``u`` after the cone rule; the neighbors stand still."""
    positions, cones = agent_cones(p_i, neighbors, cfg)
    us = np.zeros_like(positions)
    us[0] = u
    return adjust_control(us, cones, cfg)[0], cones


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AvoidanceConfig(r=0.0, d_c=1.0)
        with pytest.raises(ConfigurationError):
            AvoidanceConfig(r=2.0, d_c=1.0)
        with pytest.raises(ConfigurationError):
            AvoidanceConfig(r=1.0, d_c=4.0, margin=-0.1)
        with pytest.raises(ConfigurationError):
            AvoidanceConfig(r=1.0, d_c=4.0, margin=3.5)

    def test_margin_inflates_protected_disc(self):
        cfg = AvoidanceConfig(r=1.0, d_c=4.0, margin=0.5)
        assert cfg.protected_radius == 1.5
        _, (_, _, _, half) = agent_cones([0.0, 0.0], [[3.0, 0.0]], cfg)
        assert half[0] == pytest.approx(math.asin(1.5 / 3.0))


class TestBuildCones:
    def test_half_angle_reference_value(self):
        # Neighbor at distance 2r gives exactly a 30-degree half angle.
        _, (agent, other, centre, half) = agent_cones([0.0, 0.0], [[2.0, 0.0]])
        assert agent.tolist() == [0] and other.tolist() == [1]
        assert half[0] == pytest.approx(math.pi / 6)
        assert np.allclose([math.cos(centre[0]), math.sin(centre[0])], [1.0, 0.0])

    def test_activation_threshold_is_closed(self):
        _, at = agent_cones([0.0, 0.0], [[CFG.d_c, 0.0]])
        _, beyond = agent_cones([0.0, 0.0], [[CFG.d_c + 1e-9, 0.0]])
        assert len(at[0]) == 1
        assert len(beyond[0]) == 0

    def test_inside_radius_blocks_half_plane(self):
        _, (_, _, _, half) = agent_cones([0.0, 0.0], [[0.5, 0.0]])
        assert half[0] == math.pi / 2

    def test_coincident_neighbor_skipped(self):
        _, (agent, other, centre, half) = agent_cones([1.0, 1.0], [[1.0, 1.0]])
        assert agent.size == other.size == centre.size == half.size == 0

    def test_one_cone_per_candidate_pair_in_row_major_order(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [20.0, 0.0]])
        agent, other, centre, _ = build_cones(positions, activation_candidates(positions, CFG),
                                              CFG)
        assert agent.tolist() == [0, 0, 1, 1, 2, 2]
        assert other.tolist() == [1, 2, 0, 2, 0, 1]
        assert centre[:2] == pytest.approx([0.0, math.pi / 2])


class TestAdjustControl:
    def test_clear_control_bitwise_unchanged(self):
        positions, cones = agent_cones([0.0, 0.0], [[3.0, 0.0]])
        us = np.array([[0.1, 2.3], [0.0, 0.0]])
        assert adjust_control(us, cones, CFG) is us

    def test_adjusted_commands_are_a_new_array(self):
        positions, cones = agent_cones([0.0, 0.0], [[2.0, 0.0]])
        us = np.array([[1.0, 0.0], [0.5, 0.5]])
        out = adjust_control(us, cones, CFG)
        assert out is not us
        assert us.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        assert out[1].tolist() == [0.5, 0.5]

    def test_blocked_control_rotates_to_cone_boundary(self):
        out, _ = adjust_one([1.0, 0.0], [0.0, 0.0], [[2.0, 0.0]])
        angle = math.atan2(out[1], out[0])
        assert abs(angle) == pytest.approx(math.pi / 6, abs=1e-9)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_exact_tie_breaks_counterclockwise(self):
        out, _ = adjust_one([1.0, 0.0], [0.0, 0.0], [[2.0, 0.0]])
        assert out[1] > 0

    def test_surrounded_agent_stops(self):
        # Four neighbors inside the collision radius block every direction.
        neighbors = [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]
        out, _ = adjust_one([1.0, 1.0], [0.0, 0.0], neighbors)
        assert np.array_equal(out, [0.0, 0.0])

    def test_zero_control_stays_zero(self):
        out, _ = adjust_one(np.zeros(2), [0.0, 0.0], [[2.0, 0.0]])
        assert np.array_equal(out, [0.0, 0.0])

    def test_rotation_envelope_capped_at_right_angle(self):
        # A neighbor dead ahead inside r blocks the whole forward half-plane;
        # the only exits would need a rotation of at least 90 degrees -> stop.
        out, _ = adjust_one([1.0, 0.0], [0.0, 0.0], [[0.9, 0.0]])
        assert np.array_equal(out, [0.0, 0.0])

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(0.1, 10.0),
        st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
            min_size=0,
            max_size=5,
        ),
    )
    @settings(max_examples=300)
    def test_output_norm_preserved_or_zero(self, ang, mag, pts):
        u = mag * np.array([math.cos(ang), math.sin(ang)])
        out, _ = adjust_one(u, [0.0, 0.0], pts)
        n = np.linalg.norm(out)
        assert n == pytest.approx(mag, rel=1e-12) or n == 0.0

    def test_adjusted_direction_clears_all_cones(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = rng.uniform(-5, 5, size=(4, 2))
            u = rng.normal(size=2)
            out, (_, _, centre, half) = adjust_one(u, [0.0, 0.0], pts)
            if not np.any(out):
                continue
            theta = math.atan2(out[1], out[0])
            for c, h in zip(centre, half):
                delta = abs((theta - c + math.pi) % (2 * math.pi) - math.pi)
                assert delta >= h - 1e-9


class TestConeGeometry:
    def test_center_angle(self):
        _, (_, _, centre, _) = agent_cones([1.0, 1.0], [[1.0, 3.0]])
        assert centre[0] == pytest.approx(math.pi / 2)


class TestTeamRule:
    # Each kind of team places one of the rule's edge cases next to random
    # agents: coincident agents, a pair exactly d_c apart, a pair inside the
    # protected radius, a NaN coordinate, zero commands (one of them -0.0),
    # a neighbor dead ahead of a command (an exact +-t tie) and an
    # axis-aligned pair.
    KINDS = ("random", "coincident", "at_d_c", "inside", "nan", "zero", "tie", "axes")

    @staticmethod
    def team(rng, kind):
        n = int(rng.integers(2, 10))
        r = float(rng.uniform(0.05, 1.0))
        cfg = AvoidanceConfig(r=r, d_c=r * float(rng.uniform(1.2, 4.0)),
                              margin=float(rng.choice([0.0, 0.01 * r])))
        positions = rng.uniform(-1.5 * cfg.d_c, 1.5 * cfg.d_c, size=(n, 2))
        us = rng.normal(size=(n, 2)) * rng.choice([1e-3, 1.0, 10.0])
        if kind == "coincident":
            positions[1] = positions[0]
        elif kind == "at_d_c":
            positions[1] = positions[0] + [cfg.d_c, 0.0]
        elif kind == "inside":
            positions[1] = positions[0] + rng.normal(size=2) * 0.3 * r
        elif kind == "nan":
            positions[rng.integers(n), rng.integers(2)] = np.nan
        elif kind == "zero":
            us[rng.integers(n)] = 0.0
            us[rng.integers(n)] = [-0.0, 0.0]
        elif kind == "tie":
            d = float(rng.uniform(r, cfg.d_c))
            positions[1] = positions[0] + d * us[0] / np.linalg.norm(us[0])
        elif kind == "axes":
            positions[1] = positions[0] + [0.0, 2.0 * r]
            us[0] = [0.0, 1.0]
        return positions, us, cfg

    def test_matches_per_agent_reference_bitwise(self):
        rng = np.random.default_rng(2024)
        changed = {kind: 0 for kind in self.KINDS}
        stops = 0
        for trial in range(2400):
            kind = self.KINDS[trial % len(self.KINDS)]
            positions, us, cfg = self.team(rng, kind)
            near = activation_candidates(positions, cfg)
            got = adjust_control(us, build_cones(positions, near, cfg), cfg)
            want = ref.avoidance(us, positions, cfg)
            assert got.tobytes() == want.tobytes(), (kind, positions.tolist(), us.tolist())
            rows = np.any(want != us, axis=1)
            if rows.any():
                changed[kind] += int(rows.sum())
                stops += int(np.sum(rows & ~np.any(want, axis=1)))
            else:
                assert got is us
        # Every kind of team exercised the rule, and some agents stopped.
        assert min(changed.values()) > 0 and stops > 0
