import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsub.geometry import (
    AnnulusGeometry,
    SubsolutionParams,
    boundary_distance,
    cartesian_to_polar,
    epsilon_upper_bound,
    lambda_upper_bound,
    polar_jacobian,
    polar_to_cartesian,
    polar_vector,
    validate_params,
)

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)


class TestGeometryInvariants:
    def test_rejects_inverted_radii(self):
        with pytest.raises(ValueError):
            AnnulusGeometry(rho=2.0, R=1.0, r0=1.5, T=1.0)

    def test_rejects_interface_outside(self):
        with pytest.raises(ValueError):
            AnnulusGeometry(rho=1.0, R=2.0, r0=2.5, T=1.0)
        with pytest.raises(ValueError):
            AnnulusGeometry(rho=1.0, R=2.0, r0=1.0, T=1.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=0.0)


class TestValidateParams:
    def test_lambda_bound_value(self):
        # min(1/R^2, (r0-rho)/T, (R-r0)/T) = min(0.25, 0.5, 0.5)
        assert lambda_upper_bound(GEOM) == 0.25

    def test_epsilon_bound_value(self):
        # 1/(1 - rho^2 lam) at lam = 0.1
        assert epsilon_upper_bound(GEOM, 0.1) == pytest.approx(1.0 / 0.9, rel=1e-15)

    def test_valid_params_pass(self):
        assert validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=0.5)) == []

    def test_lambda_too_large(self):
        violations = validate_params(GEOM, SubsolutionParams(lam=0.3, epsilon=0.0))
        assert violations == [{
            "name": "lambda_upper", "value": 0.3, "bound": 0.25,
            "description": "band speed must satisfy lam < min(1/R^2, (r0-rho)/T, (R-r0)/T)",
        }]

    def test_lambda_nonpositive(self):
        violations = validate_params(GEOM, SubsolutionParams(lam=0.0, epsilon=0.0))
        assert "lambda_positive" in [v["name"] for v in violations]

    def test_epsilon_out_of_range(self):
        violations = validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=1.2))
        assert [v["name"] for v in violations] == ["epsilon_upper"]
        assert violations[0]["bound"] == epsilon_upper_bound(GEOM, 0.1)
        violations = validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=-0.1))
        assert [(v["name"], v["bound"]) for v in violations] == [("epsilon_nonnegative", 0.0)]

    def test_epsilon_strict_flag_is_not_a_failure(self):
        # admissible per the bound 1/(1 - rho^2 lam) = 1.111..., yet >= 1
        assert validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=1.05)) == []

    def test_band_stays_inside_for_valid_params(self):
        lam = 0.999 * lambda_upper_bound(GEOM)
        assert GEOM.r0 - lam * GEOM.T > GEOM.rho
        assert GEOM.r0 + lam * GEOM.T < GEOM.R

    def test_one_minus_r2_lambda_positive(self):
        lam = 0.999 * lambda_upper_bound(GEOM)
        r = np.linspace(GEOM.rho, GEOM.R, 1001)
        assert np.all(1.0 - r**2 * lam > 0.0)


class TestPolar:
    def test_simple_points(self):
        r, theta = cartesian_to_polar(np.array([1.5, 0.0]))
        assert r == pytest.approx(1.5) and theta == 0.0
        r, theta = cartesian_to_polar(np.array([0.0, 2.0]))
        assert r == pytest.approx(2.0) and theta == pytest.approx(math.pi / 2)

    def test_theta_normalized(self):
        _, theta = cartesian_to_polar(np.array([1.0, -1e-8]))
        assert 0.0 <= theta < 2.0 * math.pi

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    )
    def test_round_trip(self, r, theta):
        x = polar_to_cartesian(r, theta)
        r2, theta2 = cartesian_to_polar(x)
        assert abs(r2 - r) <= 1e-14 * r
        x2 = polar_to_cartesian(r2, theta2)
        assert np.max(np.abs(x2 - x)) <= 1e-14 * r

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(42)
        r = rng.uniform(1.0, 2.0, 10_000)
        theta = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        x = polar_to_cartesian(r, theta)
        r2, theta2 = cartesian_to_polar(x)
        x2 = polar_to_cartesian(r2, theta2)
        assert np.max(np.abs(x2 - x)) < 1e-14 * 2.0

    def test_polar_jacobian_vs_fd(self):
        # w = A e_r + B e_theta with known polar components
        def components(r, th):
            a = r**2 * np.sin(th) + np.cos(2 * th) / r
            b = np.exp(-r) * np.cos(3 * th) + r
            return a, b

        def field(x):
            r, th = cartesian_to_polar(x)
            return polar_vector(*components(r, th), th)

        rng = np.random.default_rng(8)
        r = rng.uniform(1.1, 1.9, 200)
        th = rng.uniform(0.0, 2.0 * math.pi, 200)
        a, b = components(r, th)
        a_r = 2 * r * np.sin(th) - np.cos(2 * th) / r**2
        a_th = r**2 * np.cos(th) - 2 * np.sin(2 * th) / r
        b_r = 1.0 - np.exp(-r) * np.cos(3 * th)
        b_th = -3 * np.exp(-r) * np.sin(3 * th)
        # t_ab = e_a . ((e_b . grad) w); along e_theta the frame turns:
        # (e_theta . grad) e_r = e_theta / r and (e_theta . grad) e_theta = -e_r / r
        jac = polar_jacobian(a_r, (a_th - b) / r, b_r, (b_th + a) / r, th)
        x = polar_to_cartesian(r, th)
        h = 1e-6
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (field(x + e) - field(x - e)) / (2 * h)
            assert np.max(np.abs(jac[..., axis] - fd)) < 1e-8


class TestBoundaryDistance:
    def test_near_inner(self):
        frame = boundary_distance(np.array([1.2, 0.0]), GEOM)
        assert frame.distance == pytest.approx(0.2)
        assert frame.sign == 1.0
        assert np.allclose(frame.normal, [1.0, 0.0])
        assert np.allclose(frame.tangent, [0.0, 1.0])

    def test_near_outer(self):
        frame = boundary_distance(np.array([0.0, 1.9]), GEOM)
        assert frame.distance == pytest.approx(0.1)
        assert frame.sign == -1.0
        # inner normal of the outer circle points toward the origin
        assert np.allclose(frame.normal, [0.0, -1.0])
        assert np.allclose(frame.tangent, [1.0, 0.0])

    def test_medial_tie_goes_inner(self):
        frame = boundary_distance(np.array([1.5, 0.0]), GEOM)
        assert frame.distance == pytest.approx(0.5)
        assert frame.sign == 1.0

    def test_frame_orthonormal(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(1.01, 1.99, 500)
        theta = rng.uniform(0, 2 * math.pi, 500)
        frame = boundary_distance(polar_to_cartesian(r, theta), GEOM)
        dots = np.sum(frame.normal * frame.tangent, axis=-1)
        assert np.max(np.abs(dots)) < 1e-14
        assert np.allclose(np.linalg.norm(frame.normal, axis=-1), 1.0)
        # tangent is the quarter-turn of the normal
        assert np.allclose(frame.tangent[:, 0], -frame.normal[:, 1])
        assert np.allclose(frame.tangent[:, 1], frame.normal[:, 0])
