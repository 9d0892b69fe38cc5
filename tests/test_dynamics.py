"""Vector fields for each agent model."""

import math

import numpy as np
import pytest

from bcbform.dynamics import (
    ActuatorParams,
    deriv_car,
    deriv_chain,
    deriv_single_integrator,
    deriv_unicycle,
    heading_vector,
    rear_to_front_speed,
)
from bcbform.errors import ConfigurationError, DimensionError


class TestBasics:
    def test_heading_vector_unit(self):
        for theta in (0.0, 1.0, -2.5, 7.0):
            assert np.linalg.norm(heading_vector(theta)) == pytest.approx(1.0)

    def test_single_integrator_passthrough(self):
        assert np.array_equal(deriv_single_integrator([1.5, -2.0]), [1.5, -2.0])


class TestChain:
    def test_third_order_shifts_derivatives(self):
        # state = (q, q', q'', q''') for one planar agent.
        state = np.arange(8.0)
        u = np.array([10.0, 11.0])
        out = deriv_chain(state, u, m=3)
        assert np.array_equal(out[:6], state[2:])
        assert np.array_equal(out[6:], u)

    def test_zero_order_is_single_integrator(self):
        out = deriv_chain(np.array([0.0, 0.0]), [1.0, 2.0], m=0)
        assert np.array_equal(out, [1.0, 2.0])

    def test_wrong_state_length_rejected(self):
        with pytest.raises(DimensionError):
            deriv_chain(np.zeros(4), [0.0, 0.0], m=3)


class TestUnicycle:
    def test_kinematic_field(self):
        out = deriv_unicycle(np.array([0.0, 0.0, math.pi / 2]), (2.0, 0.5))
        assert out == pytest.approx([0.0, 2.0, 0.5])

    def test_dynamic_field_first_order_actuators(self):
        p = ActuatorParams(a=2.0, b=3.0, c=4.0, d=5.0)
        state = np.array([0.0, 0.0, 0.0, 1.0, 0.2])
        out = deriv_unicycle(state, (0.5, -0.1), params=p, kinematic_only=False)
        assert out == pytest.approx([1.0, 0.0, 0.2,
                                     -2.0 * 1.0 + 3.0 * 0.5,
                                     -4.0 * 0.2 + 5.0 * -0.1])

    def test_dynamic_requires_params(self):
        with pytest.raises(ConfigurationError):
            deriv_unicycle(np.zeros(5), (0.0, 0.0), kinematic_only=False)


class TestCar:
    def test_kinematic_field_geometry(self):
        # Front axle moves along theta + phi; turn rate scales with sin(phi)/L.
        state = np.array([0.0, 0.0, 0.0, math.pi / 6])
        out = deriv_car(state, (2.0, 0.3), wheelbase=2.0)
        assert out[0] == pytest.approx(2.0 * math.cos(math.pi / 6))
        assert out[1] == pytest.approx(2.0 * math.sin(math.pi / 6))
        assert out[2] == pytest.approx((2.0 / 2.0) * math.sin(math.pi / 6))
        assert out[3] == pytest.approx(0.3)

    def test_steering_clamp_zeroes_outward_rate(self):
        state = np.array([0.0, 0.0, 0.0, math.pi / 4])
        out = deriv_car(state, (1.0, 0.5), wheelbase=1.0, phi_max=math.pi / 4)
        assert out[3] == 0.0
        # Inward rate still allowed at the bound.
        back = deriv_car(state, (1.0, -0.5), wheelbase=1.0, phi_max=math.pi / 4)
        assert back[3] == -0.5

    def test_dynamic_field_appends_actuators(self):
        p = ActuatorParams(a=1.0, b=2.0, c=3.0, d=4.0)
        state = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.5])
        out = deriv_car(state, (0.25, -0.5), wheelbase=1.0, params=p,
                        kinematic_only=False)
        assert out.shape == (6,)
        assert out[4] == pytest.approx(-1.0 * 1.0 + 2.0 * 0.25)
        assert out[5] == pytest.approx(-3.0 * 0.5 + 4.0 * -0.5)

    def test_invalid_wheelbase_rejected(self):
        with pytest.raises(ConfigurationError):
            deriv_car(np.zeros(4), (0.0, 0.0), wheelbase=0.0)

    def test_dynamic_requires_params(self):
        with pytest.raises(ConfigurationError):
            deriv_car(np.zeros(6), (0.0, 0.0), wheelbase=1.0, kinematic_only=False)


class TestRearDrive:
    def test_front_speed_scales_with_secant(self):
        assert rear_to_front_speed(1.0, 0.0) == pytest.approx(1.0)
        assert rear_to_front_speed(1.0, math.pi / 3) == pytest.approx(2.0)

    def test_perpendicular_steering_pins_speed_to_zero(self):
        assert rear_to_front_speed(5.0, math.pi / 2) == 0.0
        assert rear_to_front_speed(-5.0, -math.pi / 2) == 0.0


# Reference fields that stack their rows, as the fields were first written;
# the fields must round exactly like them, with or without ``out``.
def stacked_heading(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def stacked_unicycle(state, inputs, params, kinematic_only):
    theta = state[..., 2]
    if kinematic_only:
        v, omega = inputs[..., 0], inputs[..., 1]
        return np.stack([v * np.cos(theta), v * np.sin(theta), omega], axis=-1)
    v, omega = state[..., 3], state[..., 4]
    s, r = inputs[..., 0], inputs[..., 1]
    return np.stack([v * np.cos(theta), v * np.sin(theta), omega,
                     -params.a * v + params.b * s, -params.c * omega + params.d * r],
                    axis=-1)


def stacked_car(state, inputs, wheelbase, params, kinematic_only, phi_max):
    theta, phi = state[..., 2], state[..., 3]
    if kinematic_only:
        v, omega = inputs[..., 0], inputs[..., 1]
    else:
        v, omega = state[..., 4], state[..., 5]
    phidot = omega
    if phi_max is not None:
        phidot = np.where((np.abs(phi) >= phi_max) & (phi * phidot > 0), 0.0, phidot)
    delta = theta + phi
    rows = [v * np.cos(delta), v * np.sin(delta), (v / wheelbase) * np.sin(phi), phidot]
    if not kinematic_only:
        s, r = inputs[..., 0], inputs[..., 1]
        rows += [-params.a * v + params.b * s, -params.c * omega + params.d * r]
    return np.stack(rows, axis=-1)


def random_team(rng, n, dim):
    """Stacked states with headings over several turns and signed speeds."""
    state = rng.uniform(-5.0, 5.0, size=(n, dim))
    state[:, 2] = rng.uniform(-20.0, 20.0, size=n)
    return state, rng.normal(scale=3.0, size=(n, 2))


SCALAR_PARAMS = ActuatorParams(a=1.5, b=2.0, c=0.75, d=3.0)
PARAMS_KINDS = ("scalar", "per_agent")


def actuator_params(rng, kind, n):
    """One actuator for the team, or per-agent fields as ``sim.run`` builds them."""
    if kind == "scalar":
        return SCALAR_PARAMS
    return ActuatorParams(*rng.uniform(0.5, 10.0, size=(4, n)))


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestStackFreeFields:
    N = 9

    def test_heading_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = rng.uniform(-30.0, 30.0, size=self.N)
            want = stacked_heading(theta)
            assert_bitwise(heading_vector(theta), want)
            buf = np.full((self.N, 2), np.nan)
            assert heading_vector(theta, out=buf) is buf
            assert_bitwise(buf, want)
        assert_bitwise(heading_vector(1.25), stacked_heading(1.25))

    @pytest.mark.parametrize("kinematic", [True, False], ids=["kinematic", "dynamic"])
    @pytest.mark.parametrize("params_kind", PARAMS_KINDS)
    def test_unicycle(self, kinematic, params_kind):
        rng = np.random.default_rng(11)
        dim = 3 if kinematic else 5
        for _ in range(50):
            state, inputs = random_team(rng, self.N, dim)
            params = actuator_params(rng, params_kind, self.N)
            want = stacked_unicycle(state, inputs, params, kinematic)
            assert_bitwise(deriv_unicycle(state, inputs, params, kinematic), want)
            buf = np.full((self.N, dim), np.nan)
            assert deriv_unicycle(state, inputs, params, kinematic, out=buf) is buf
            assert_bitwise(buf, want)

    @pytest.mark.parametrize("phi_max", [None, 0.6], ids=["free", "bounded"])
    @pytest.mark.parametrize("kinematic", [True, False], ids=["kinematic", "dynamic"])
    @pytest.mark.parametrize("params_kind", PARAMS_KINDS)
    def test_car(self, phi_max, kinematic, params_kind):
        rng = np.random.default_rng(13)
        dim = 4 if kinematic else 6
        for _ in range(50):
            state, inputs = random_team(rng, self.N, dim)
            state[:, 3] = rng.uniform(-1.0, 1.0, size=self.N)
            if phi_max is not None:
                # Some agents sit at the clamp, half of them turning outward.
                at = rng.random(self.N) < 0.5
                state[at, 3] = np.copysign(phi_max, state[at, 3])
            params = actuator_params(rng, params_kind, self.N)
            want = stacked_car(state, inputs, 1.3, params, kinematic, phi_max)
            got = deriv_car(state, inputs, 1.3, params, kinematic, phi_max)
            assert_bitwise(got, want)
            buf = np.full((self.N, dim), np.nan)
            assert deriv_car(state, inputs, 1.3, params, kinematic, phi_max, out=buf) is buf
            assert_bitwise(buf, want)
        if phi_max is not None:
            assert np.any(want[:, 3] == 0.0)

    @pytest.mark.parametrize("kinematic", [True, False], ids=["kinematic", "dynamic"])
    def test_car_clamp_at_the_bound_only(self, kinematic):
        # Agent 1 sits at the steering bound turning further out, agent 2
        # inside it turning the same way: only agent 1's rate is zeroed.  A
        # team wholly inside the bound takes the field without the clamp.
        dim = 4 if kinematic else 6
        state = np.zeros((2, dim))
        state[:, 3] = (0.6, 0.3)
        inputs = np.full((2, 2), 0.5)
        if not kinematic:
            state[:, 4:] = 0.5
        out = deriv_car(state, inputs, 1.3, SCALAR_PARAMS, kinematic, 0.6)
        assert_bitwise(out, stacked_car(state, inputs, 1.3, SCALAR_PARAMS, kinematic, 0.6))
        assert out[:, 3].tolist() == [0.0, 0.5]
        inside = deriv_car(state[1:], inputs[1:], 1.3, SCALAR_PARAMS, kinematic, 0.6)
        assert_bitwise(inside, out[1:])

    def test_single_rows_keep_their_shape(self):
        p = SCALAR_PARAMS
        state = np.array([0.5, -1.0, 0.3, 0.2, 1.1, -0.4])
        assert_bitwise(deriv_car(state, (0.25, -0.5), 2.0, p, False, 0.3),
                       stacked_car(state, np.array([0.25, -0.5]), 2.0, p, False, 0.3))
        assert_bitwise(deriv_unicycle(state[:5], [0.25, -0.5], p, False),
                       stacked_unicycle(state[:5], np.array([0.25, -0.5]), p, False))
