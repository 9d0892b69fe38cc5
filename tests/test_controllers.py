"""Control laws: consensus, perturbation, saturation, projections, variants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_laws import edge_arrays, star_edges

from bcbform.controllers import (
    ControllerConfig,
    PerturbationConfig,
    ScaleConfig,
    _edge_arrays,
    car_control,
    chain_full_a,
    chain_identity,
    consensus_term,
    integral_consensus,
    perturb_control,
    rotation,
    saturate_norm,
    saturate_scalar,
    scale_augmented,
    unicycle_actuator_control,
    unicycle_control,
)
from bcbform.errors import ConfigurationError, GuaranteeViolationError


def block(a, b):
    return np.array([[a, b], [-b, a]])


def star_states(*rows):
    """Team state, one row of positions and derivatives per agent.  Agent 1,
    whose command row 0 the tests check, sits at the origin, so agent j's
    row is what agent 1 measures relative to it."""
    return np.array(rows, dtype=np.float64)


def test_edge_arrays_match_agent_loop(array_form_case):
    """The directed edges, blocks and desired distances are bitwise those of
    the agent-by-agent loop, on the demos' topologies and on complete50."""
    _, _, mats = array_form_case
    rng = np.random.default_rng(3)
    for gm in mats:
        lengths = rng.uniform(0.5, 2.0, size=len(gm.graph.edge_list))
        scale = ScaleConfig(d_star=dict(zip(gm.graph.edge_list, lengths.tolist())))
        for cfg in (None, scale):
            got = _edge_arrays(gm, cfg, 1)
            src, dst, blocks, d_star = edge_arrays(gm, cfg)
            assert got.src.tobytes() == src.tobytes()
            assert got.dst.tobytes() == dst.tobytes()
            assert got.blocks.tobytes() == blocks.tobytes()
            assert (got.d_star is None) == (d_star is None)
            if d_star is not None:
                assert got.d_star.tobytes() == d_star.tobytes()


class TestConsensus:
    def test_two_neighbor_reference_command(self):
        # Hand-checkable worked case: exact integer arithmetic end to end.
        gains = {2: block(2.0, -1.0), 3: block(-1.0, 3.0)}
        states = star_states((0.0, 0.0), (2.0, 3.0), (3.0, 1.0))
        u, _ = consensus_term(star_edges(gains), states)
        assert np.array_equal(u[0], [1.0, -2.0])

    def test_zero_error_gives_zero_command(self):
        edges = star_edges({2: block(1.5, 0.25)})
        u, _ = consensus_term(edges, star_states((0.0, 0.0), (0.0, 0.0)))
        assert np.array_equal(u[0], [0.0, 0.0])


class TestPerturbation:
    def test_scales_and_rotates(self):
        u = perturb_control([1.0, 0.0], c=2.0, alpha=math.pi / 2 - 1e-6)
        assert np.linalg.norm(u) == pytest.approx(2.0)
        assert u[1] > 0  # positive alpha rotates counterclockwise

    @pytest.mark.parametrize("c,alpha", [(0.0, 0.0), (-1.0, 0.0), (1.0, math.pi / 2)])
    def test_envelope_enforced(self, c, alpha):
        with pytest.raises(GuaranteeViolationError):
            perturb_control([1.0, 0.0], c, alpha)
        with pytest.raises(GuaranteeViolationError):
            PerturbationConfig(c=(c,), alpha=(alpha,))

    def test_config_accepts_boundary_interior(self):
        cfg = PerturbationConfig(c=(0.2, 5.0), alpha=(0.49 * math.pi, -0.49 * math.pi))
        assert cfg.c == (0.2, 5.0)


class TestSaturation:
    def test_norm_saturation_keeps_direction(self):
        u = saturate_norm([3.0, 4.0], 1.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert u[0] / u[1] == pytest.approx(3.0 / 4.0)

    def test_below_bound_untouched(self):
        raw = np.array([0.3, -0.4])
        assert np.array_equal(saturate_norm(raw, 1.0), raw)

    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3))
    def test_scalar_saturation_idempotent(self, x, bound):
        once = saturate_scalar(x, bound)
        assert saturate_scalar(once, bound) == once
        assert abs(once) <= bound

    def test_scalar_none_passthrough(self):
        assert saturate_scalar(42.0, None) == 42.0


class TestIntegral:
    def test_trapezoid_accumulator_oracle(self):
        edges = star_edges({2: block(1.0, 0.0)})
        state = None
        dt, k0, k1 = 0.5, 1.0, 2.0
        rels = [np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([0.25, 0.0])]
        acc = 0.0
        terms = []
        for rel in rels:
            u, state = integral_consensus(edges, star_states((0.0, 0.0), rel), state,
                                          dt, k0, k1)
            terms.append(rel[0])
            if len(terms) > 1:
                acc += 0.5 * dt * (terms[-2] + terms[-1])
            assert u[0][0] == pytest.approx(k0 * rel[0] + k1 * acc)
        accumulator, _ = state
        assert accumulator[0][0] == pytest.approx(acc)

    def test_invalid_gains_rejected(self):
        with pytest.raises(ConfigurationError, match="k0_int > 0"):
            ControllerConfig(k0_int=0.0, k1_int=1.0)


class TestHigherOrder:
    # Agent 1 sits at the origin; agent 2 at (1, 0) through an identity block,
    # so agent 1's position consensus term is (1, 0).
    POS_TERM = np.array([1.0, 0.0])

    def test_identity_variant_damps_own_derivatives(self):
        own = [np.array([0.5, 0.5]), np.array([0.0, 1.0])]
        states = star_states((0.0, 0.0, *own[0], *own[1]), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        u = chain_identity(star_edges({2: block(1.0, 0.0)}), states, (2.0, 3.0, 4.0))
        assert np.allclose(u[0], 2.0 * self.POS_TERM - 3.0 * own[0] - 4.0 * own[1])

    def test_full_variant_couples_relative_derivatives(self):
        rel = [np.array([0.5, 0.5]), np.array([0.0, 1.0])]
        states = star_states((0.0,) * 6, (1.0, 0.0, *rel[0], *rel[1]))
        edges = star_edges({2: block(1.0, 0.0)}, orders=3)
        u = chain_full_a(edges, states, (2.0, 3.0, 4.0))
        assert np.allclose(u[0], 2.0 * self.POS_TERM + 3.0 * rel[0] + 4.0 * rel[1])

    def test_full_variant_requires_measurements(self):
        with pytest.raises(ConfigurationError):
            chain_full_a(star_edges({2: block(1.0, 0.0)}), np.ones((2, 2)), (1.0, 1.0))

    def test_first_order_reduces_to_scaled_consensus(self):
        states = star_states((0.0, 0.0), (1.0, -2.0))
        u = chain_identity(star_edges({2: block(1.0, 0.0)}), states, (3.0,))
        assert np.array_equal(u[0], [3.0, -6.0])


class TestNonholonomicProjection:
    def test_unicycle_projection_preserves_energy(self):
        h = np.array([math.cos(0.7), math.sin(0.7)])
        u = np.array([1.3, -2.1])
        v, omega = unicycle_control(h, u)
        assert v * v + omega * omega == pytest.approx(float(u @ u))

    def test_aligned_heading_pure_forward(self):
        v, omega = unicycle_control([1.0, 0.0], [2.0, 0.0])
        assert (v, omega) == (2.0, 0.0)

    def test_nonunit_heading_rejected(self):
        with pytest.raises(ConfigurationError):
            unicycle_control([1.0, 1.0], [1.0, 0.0])

    def test_velocity_feedback_drives_toward_projection(self):
        h = [1.0, 0.0]
        u = [2.0, 0.0]
        s, r = unicycle_actuator_control(h, u, v_current=0.5,
                                         mode="velocity_feedback", k_s=3.0)
        assert s == pytest.approx(-3.0 * (0.5 - 2.0))
        assert r == 0.0

    def test_feedback_mode_requires_gain(self):
        with pytest.raises(ConfigurationError):
            unicycle_actuator_control([1.0, 0.0], [1.0, 0.0], 0.0,
                                      mode="velocity_feedback")

    def test_rear_drive_masks_by_steering_angle(self):
        g = np.array([1.0, 0.0])
        u = np.array([2.0, 0.0])
        v_front, _ = car_control(g, u, drive="front", phi=math.pi / 2)
        v_rear, _ = car_control(g, u, drive="rear", phi=math.pi / 2)
        assert v_front == pytest.approx(2.0)
        assert v_rear == pytest.approx(0.0, abs=1e-15)

    def test_rear_drive_continuous_in_phi(self):
        g = np.array([0.0, 1.0])
        u = np.array([0.5, 1.5])
        for phi in (0.0, 0.3, -0.3):
            v, _ = car_control(g, u, drive="rear", phi=phi)
            assert v == pytest.approx(1.5 * math.cos(phi))

    def test_unknown_drive_rejected(self):
        with pytest.raises(ConfigurationError):
            car_control([1.0, 0.0], [1.0, 0.0], drive="sideways")

    def test_car_actuator_matches_unicycle_shape(self):
        g = [math.cos(-0.4), math.sin(-0.4)]
        u = [1.0, 1.0]
        direct = unicycle_actuator_control(g, u, 0.0, mode="direct")
        assert direct == pytest.approx(car_control(g, u, drive="front"))


class TestScaleAugmentation:
    def test_correction_pushes_toward_desired_distance(self):
        scale = ScaleConfig(d_star={(1, 2): 1.0})
        edges = star_edges({2: block(0.0, 0.0)}, scale)

        def command(rel):
            return scale_augmented(edges, star_states((0.0, 0.0), rel), scale.f)[0]

        # Neighbor too far: correction points toward the neighbor.
        u_far = command((2.0, 0.0))
        assert u_far[0] > 0
        # Neighbor too close: correction points away.
        u_near = command((0.5, 0.0))
        assert u_near[0] < 0
        # At the desired distance the correction vanishes.
        u_on = command((1.0, 0.0))
        assert np.allclose(u_on, 0.0, atol=1e-15)

    def test_missing_edge_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            star_edges({2: block(1.0, 0.0)}, ScaleConfig(d_star={}))

    def test_correction_is_bounded(self):
        scale = ScaleConfig(d_star={(1, 2): 1.0}, k_f=2.0)
        edges = star_edges({2: block(0.0, 0.0)}, scale)
        u = scale_augmented(edges, star_states((0.0, 0.0), (1e6, 0.0)), scale.f)[0]
        # tanh correction saturates at 1/k_f per unit of separation direction.
        assert np.linalg.norm(u) <= 1e6 * (1.0 / 2.0) * (1 + 1e-12)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaleConfig(d_star={}, k_f=0.0)
        with pytest.raises(ConfigurationError):
            ScaleConfig(d_star={}, f_kind="linear")


class TestRotation:
    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=200)
    def test_rotation_is_orthogonal(self, alpha):
        R = rotation(alpha)
        assert np.allclose(R.T @ R, np.eye(2), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_matches_stacked_form(self):
        def stacked(alpha):
            c, s = np.cos(alpha), np.sin(alpha)
            return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)],
                            axis=-2)

        angles = np.random.default_rng(5).uniform(-10.0, 10.0, size=(3, 7))
        for alpha in (0.7, -2.5, angles, angles[0]):
            R, want = rotation(alpha), stacked(alpha)
            assert R.shape == want.shape and R.dtype == want.dtype
            assert R.tobytes() == want.tobytes()


class TestControllerConfig:
    def test_nonpositive_bounds_rejected(self):
        for name in ("u_max", "v_max", "omega_max", "phi_max"):
            with pytest.raises(ConfigurationError):
                ControllerConfig(**{name: 0.0})

    def test_unknown_chain_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(chain_variant="partial_A")

    def test_defaults_valid(self):
        cfg = ControllerConfig()
        assert cfg.chain_variant == "identity_derivatives"

    # Settings the simulator would otherwise drop without a word: half of the
    # integral gain pair, and the integral gains beside the scale law.
    @pytest.mark.parametrize("settings, named", [
        (dict(k0_int=1.0), "controller.k1_int is not set"),
        (dict(k1_int=0.5), "controller.k0_int is not set"),
        (dict(k0_int=-1.0), "controller.k1_int is not set"),
        (dict(k0_int=-1.0, k1_int=0.5), "controller.k0_int > 0"),
        (dict(k0_int=1.0, k1_int=-0.5), "controller.k1_int >= 0"),
        (dict(k0_int=1.0, k1_int=0.5, scale=ScaleConfig(d_star={(1, 2): 1.0})),
         "controller.scale and the integral gains"),
    ], ids=["k0_alone", "k1_alone", "negative_k0_alone", "negative_k0", "negative_k1",
            "scale_with_integral"])
    def test_dropped_integral_settings_rejected(self, settings, named):
        with pytest.raises(ConfigurationError, match=named):
            ControllerConfig(**settings)

    def test_integral_gains_accepted(self):
        cfg = ControllerConfig(k0_int=1.0, k1_int=0.0)
        assert (cfg.k0_int, cfg.k1_int) == (1.0, 0.0)
