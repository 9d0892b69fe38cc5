"""Control laws: consensus, perturbation, saturation, projections, variants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcbform.controllers import (
    ControllerConfig,
    IntegralState,
    PerturbationConfig,
    ScaleConfig,
    car_control,
    consensus_term,
    higher_order_control,
    integral_control,
    perturb_control,
    rotation,
    saturate_norm,
    saturate_scalar,
    scale_augmented_control,
    single_integrator_control,
    unicycle_actuator_control,
    unicycle_control,
)
from bcbform.errors import ConfigurationError, GuaranteeViolationError


def block(a, b):
    return np.array([[a, b], [-b, a]])


class TestConsensus:
    def test_two_neighbor_reference_command(self):
        # Hand-checkable worked case: exact integer arithmetic end to end.
        gains = {2: block(2.0, -1.0), 3: block(-1.0, 3.0)}
        rel = [(2, (2.0, 3.0)), (3, (3.0, 1.0))]
        u = single_integrator_control(rel, gains)
        assert np.array_equal(u, [1.0, -2.0])

    def test_missing_gain_block_rejected(self):
        with pytest.raises(ConfigurationError):
            consensus_term([(4, (1.0, 0.0))], {2: block(1.0, 0.0)})

    def test_zero_error_gives_zero_command(self):
        gains = {2: block(1.5, 0.25)}
        assert np.array_equal(consensus_term([(2, (0.0, 0.0))], gains), [0.0, 0.0])


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
        gains = {2: block(1.0, 0.0)}
        state = IntegralState()
        dt, k0, k1 = 0.5, 1.0, 2.0
        rels = [np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([0.25, 0.0])]
        acc = 0.0
        terms = []
        for rel in rels:
            u, state = integral_control([(2, rel)], gains, state, dt, k0, k1)
            terms.append(rel[0])
            if len(terms) > 1:
                acc += 0.5 * dt * (terms[-2] + terms[-1])
            assert u[0] == pytest.approx(k0 * rel[0] + k1 * acc)
        assert state.accumulator[0] == pytest.approx(acc)

    def test_invalid_gains_rejected(self):
        with pytest.raises(GuaranteeViolationError):
            integral_control([(2, (1.0, 0.0))], {2: block(1.0, 0.0)},
                             IntegralState(), 0.01, 0.0, 1.0)


class TestHigherOrder:
    def test_identity_variant_damps_own_derivatives(self):
        pos_term = np.array([1.0, 0.0])
        own = [np.array([0.5, 0.5]), np.array([0.0, 1.0])]
        u = higher_order_control(pos_term, None, own, (2.0, 3.0, 4.0),
                                 "identity_derivatives")
        assert np.allclose(u, 2.0 * pos_term - 3.0 * own[0] - 4.0 * own[1])

    def test_full_variant_couples_relative_derivatives(self):
        pos_term = np.array([1.0, 0.0])
        rel = [np.array([0.5, 0.5]), np.array([0.0, 1.0])]
        u = higher_order_control(pos_term, rel, [], (2.0, 3.0, 4.0), "full_A")
        assert np.allclose(u, 2.0 * pos_term + 3.0 * rel[0] + 4.0 * rel[1])

    def test_full_variant_requires_measurements(self):
        with pytest.raises(ConfigurationError):
            higher_order_control(np.ones(2), None, [], (1.0, 1.0), "full_A")

    def test_first_order_reduces_to_scaled_consensus(self):
        u = higher_order_control(np.array([1.0, -2.0]), None, [], (3.0,),
                                 "identity_derivatives")
        assert np.array_equal(u, [3.0, -6.0])


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
        gains = {2: block(0.0, 0.0)}
        scale = ScaleConfig(d_star={(1, 2): 1.0})
        # Neighbor too far: correction points toward the neighbor.
        u_far = scale_augmented_control(1, [(2, (2.0, 0.0))], gains, scale)
        assert u_far[0] > 0
        # Neighbor too close: correction points away.
        u_near = scale_augmented_control(1, [(2, (0.5, 0.0))], gains, scale)
        assert u_near[0] < 0
        # At the desired distance the correction vanishes.
        u_on = scale_augmented_control(1, [(2, (1.0, 0.0))], gains, scale)
        assert np.allclose(u_on, 0.0, atol=1e-15)

    def test_missing_edge_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_augmented_control(1, [(2, (1.0, 0.0))], {2: block(1.0, 0.0)},
                                    ScaleConfig(d_star={}))

    def test_correction_is_bounded(self):
        scale = ScaleConfig(d_star={(1, 2): 1.0}, k_f=2.0)
        u = scale_augmented_control(1, [(2, (1e6, 0.0))], {2: block(0.0, 0.0)}, scale)
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
