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
    polar_to_cartesian,
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
        report = validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=0.5))
        assert report.ok
        assert report.epsilon_strict
        assert report.violations == ()

    def test_lambda_too_large(self):
        report = validate_params(GEOM, SubsolutionParams(lam=0.3, epsilon=0.0))
        assert not report.ok
        names = [v.name for v in report.violations]
        assert names == ["lambda_upper"]
        assert report.violations[0].bound == 0.25

    def test_lambda_nonpositive(self):
        report = validate_params(GEOM, SubsolutionParams(lam=0.0, epsilon=0.0))
        assert "lambda_positive" in [v.name for v in report.violations]

    def test_epsilon_out_of_range(self):
        report = validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=1.2))
        assert [v.name for v in report.violations] == ["epsilon_upper"]
        report = validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=-0.1))
        assert [v.name for v in report.violations] == ["epsilon_nonnegative"]

    def test_epsilon_strict_flag_is_not_a_failure(self):
        # admissible per the bound 1/(1 - rho^2 lam) = 1.111..., yet >= 1
        report = validate_params(GEOM, SubsolutionParams(lam=0.1, epsilon=1.05))
        assert report.ok
        assert not report.epsilon_strict

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
