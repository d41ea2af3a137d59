import math

import numpy as np
import pytest

from rotsub import boundary_layer as bl
from rotsub import weakform as wf
from rotsub.geometry import AnnulusGeometry, boundary_distance, polar_to_cartesian

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)
CHI = bl.SmoothstepCutoff()
PSI = bl.SineStreamField(GEOM)


class TestCutoffRamp:
    def test_plateaus(self):
        assert CHI.value(0.5) == 0.0
        assert CHI.value(3.0) == 1.0
        assert CHI.value(1.5) == 0.5

    def test_flat_endpoints(self):
        for s in (1.0, 2.0):
            assert CHI.deriv(s) == 0.0
            assert CHI.deriv2(s) == 0.0

    def test_range_and_monotonicity(self):
        s = np.linspace(0.0, 3.0, 601)
        vals = CHI.value(s)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(CHI.deriv(s) >= 0.0)

    def test_derivatives_match_fd(self):
        s = np.linspace(1.01, 1.99, 99)
        h = 1e-6
        fd1 = (CHI.value(s + h) - CHI.value(s - h)) / (2 * h)
        assert np.max(np.abs(CHI.deriv(s) - fd1)) < 1e-8
        h = 1e-5
        fd2 = (CHI.value(s + h) - 2 * CHI.value(s) + CHI.value(s - h)) / h**2
        assert np.max(np.abs(CHI.deriv2(s) - fd2)) < 1e-4

    def test_derivative_support(self):
        s = np.array([0.2, 0.99, 2.01, 5.0])
        assert np.all(CHI.deriv(s) == 0.0)
        assert np.all(CHI.deriv2(s) == 0.0)


class TestStreamField:
    def test_vanishes_on_both_circles(self):
        th = np.linspace(0, 2 * math.pi, 17)
        for r in (GEOM.rho, GEOM.R):
            psi_val = PSI.partials(np.full_like(th, r), th)[0]
            assert np.max(np.abs(psi_val)) < 1e-14

    def test_partials_match_fd(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1.05, 1.95, 50)
        th = rng.uniform(0, 2 * math.pi, 50)
        p, p_r, p_th, p_rr, p_rth, p_thth = PSI.partials(r, th)
        h = 1e-6
        assert np.max(np.abs(p_r - (PSI.partials(r + h, th)[0] - PSI.partials(r - h, th)[0]) / (2 * h))) < 1e-7
        assert np.max(np.abs(p_th - (PSI.partials(r, th + h)[0] - PSI.partials(r, th - h)[0]) / (2 * h))) < 1e-7
        h = 1e-5
        fd_rr = (PSI.partials(r + h, th)[0] - 2 * p + PSI.partials(r - h, th)[0]) / h**2
        assert np.max(np.abs(p_rr - fd_rr)) < 1e-4
        fd_rth = (PSI.partials(r + h, th + h)[0] - PSI.partials(r + h, th - h)[0]
                  - PSI.partials(r - h, th + h)[0] + PSI.partials(r - h, th - h)[0]) / (4 * h**2)
        assert np.max(np.abs(p_rth - fd_rth)) < 1e-4
        fd_thth = (PSI.partials(r, th + h)[0] - 2 * p + PSI.partials(r, th - h)[0]) / h**2
        assert np.max(np.abs(p_thth - fd_thth)) < 1e-4

    def test_linear_bound_constants_uniform_in_time(self):
        # |psi| <= C d and |w_nu| <= C d with one finite constant for all times
        psi_t = bl.SineStreamField(GEOM, time_factor=lambda t: 1.0 + 0.25 * np.sin(1.3 * t))
        rng = np.random.default_rng(1)
        constants_psi = []
        constants_wnu = []
        for t in (0.0, 0.3, 0.7, 1.0):
            r = rng.uniform(1.001, 1.999, 2000)
            th = rng.uniform(0, 2 * math.pi, 2000)
            x = polar_to_cartesian(r, th)
            frame = boundary_distance(x, GEOM)
            psi_val = psi_t.partials(r, th, t)[0]
            w_r, _ = psi_t.w_polar(r, th, t)
            w_nu = frame.sign * w_r
            constants_psi.append(np.max(np.abs(psi_val) / frame.distance))
            constants_wnu.append(np.max(np.abs(w_nu) / frame.distance))
        assert max(constants_psi) < 10.0
        assert max(constants_wnu) < 10.0


class TestCutoffField:
    def test_eps_too_large_rejected(self):
        with pytest.raises(ValueError):
            bl.CutoffField(PSI, CHI, 0.3, GEOM)

    def test_identity_outside_collar(self):
        field = bl.CutoffField(PSI, CHI, 0.02, GEOM)
        x = polar_to_cartesian(1.0 + 0.06, 1.2)  # d = 3 eps
        assert np.max(np.abs(field.value(x) - PSI.w_vector(x))) < 1e-15
        assert np.max(np.abs(field.diff_value(x))) == 0.0

    def test_zero_inside_inner_collar(self):
        field = bl.CutoffField(PSI, CHI, 0.02, GEOM)
        for point in (polar_to_cartesian(1.01, 0.7), polar_to_cartesian(1.99, 4.0)):
            assert np.max(np.abs(field.value(point))) == 0.0

    def test_frame_components_match_vector_projection(self):
        # product-rule vector route vs the scalar closed forms
        field = bl.CutoffField(PSI, CHI, 0.03, GEOM)
        rng = np.random.default_rng(2)
        d = rng.uniform(1e-4, 2 * 0.03, 300)
        th = rng.uniform(0, 2 * math.pi, 300)
        for sign in (1.0, -1.0):
            r = GEOM.rho + d if sign > 0 else GEOM.R - d
            x = polar_to_cartesian(r, th)
            frame = boundary_distance(x, GEOM)
            assert np.allclose(frame.sign, sign)
            vec = field.diff_value(x)
            a_vec = np.sum(vec * frame.normal, axis=-1)
            b_vec = np.sum(vec * frame.tangent, axis=-1)
            a_scalar, b_scalar = field.diff_frame(d, th, sign)
            assert np.max(np.abs(a_vec - a_scalar)) < 1e-10
            assert np.max(np.abs(b_vec - b_scalar)) < 1e-10

    def test_frame_tensor_matches_fd(self):
        """The four derivative factors are directional derivatives of w_eps - w."""
        eps = 0.04
        field = bl.CutoffField(PSI, CHI, eps, GEOM)
        rng = np.random.default_rng(3)
        n = 200
        d = rng.uniform(0.15 * eps, 1.9 * eps, n)
        th = rng.uniform(0, 2 * math.pi, n)
        h = 1e-4 * eps  # small enough that the ramp's fourth derivative cannot bias the check
        for sign in (1.0, -1.0):
            r = GEOM.rho + d if sign > 0 else GEOM.R - d
            x = polar_to_cartesian(r, th)
            frame = boundary_distance(x, GEOM)
            t_nn, t_nt, t_tn, t_tt = field.frame_tensor(d, th, sign)
            for direction, parts in (
                (frame.normal, (t_nn, t_nt)),
                (frame.tangent, (t_tn, t_tt)),
            ):
                fd_vec = (
                    field.diff_value(x + h * direction) - field.diff_value(x - h * direction)
                ) / (2 * h)
                fd_n = np.sum(fd_vec * frame.normal, axis=-1)
                fd_t = np.sum(fd_vec * frame.tangent, axis=-1)
                scale = np.max(np.abs(fd_n)) + np.max(np.abs(fd_t))
                assert np.max(np.abs(parts[0] - fd_n)) < 1e-6 * scale
                assert np.max(np.abs(parts[1] - fd_t)) < 1e-6 * scale

    def test_cutoff_field_divergence_free(self):
        field = bl.CutoffField(PSI, CHI, 0.05, GEOM)
        p = wf.ScalarBumpField(
            GEOM, (1.02, 1.98), wf.FourierPoly(((0, 1.0, 0.0), (1, 0.5, 0.3)))
        )
        from rotsub.quadrature import annulus_rule

        quad = annulus_rule(
            GEOM, r_cells=8, theta_cells=8, order=10,
            r_breaks=(1.05, 1.10, 1.90, 1.95), r_span=p.r_support,
        )
        res = wf.weak_residual_divergence(lambda x, t: field.value(x), p, GEOM, quad=quad)
        assert abs(res) < 1e-10


class TestCollarIntegrals:
    def test_zero_normal_velocity_kills_first_three(self):
        v0 = bl.HolderVelocity(GEOM, 0.5, normal_scale=0.0)
        i1, i2, i3, i4, _ = bl.collar_integrals(v0, PSI, CHI, 0.02, GEOM)
        assert i1 == 0.0 and i2 == 0.0 and i3 == 0.0
        assert i4 != 0.0

    def test_zero_stream_function_kills_all(self):
        psi0 = bl.SineStreamField(GEOM, amplitude=0.0)
        v = bl.HolderVelocity(GEOM, 0.5)
        assert bl.collar_integrals(v, psi0, CHI, 0.02, GEOM) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_all_terms_generically_nonzero(self):
        v = bl.HolderVelocity(GEOM, 0.5)
        *terms, _ = bl.collar_integrals(v, PSI, CHI, 0.02, GEOM)
        assert all(abs(term) > 1e-12 for term in terms)

    def test_decomposition_consistency(self):
        v = bl.HolderVelocity(GEOM, 0.5)
        for eps in (0.04, 0.01):
            *terms, direct = bl.collar_integrals(v, PSI, CHI, eps, GEOM)
            assert abs(sum(terms) - direct) < 1e-8

    def test_holder_exponent_validated(self):
        with pytest.raises(ValueError):
            bl.HolderVelocity(GEOM, 0.0)
        with pytest.raises(ValueError):
            bl.HolderVelocity(GEOM, 1.5)


class TestScalingStudy:
    def test_slopes_meet_bounds_alpha_half(self):
        v = bl.HolderVelocity(GEOM, 0.5)
        report = bl.scaling_study(v, PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM)
        assert report.predicted == (2.0, 0.5, 1.5, 1.0)
        assert report.slopes_meet_bounds(tolerance=0.15)
        assert np.max(report.consistency) < 1e-8

    def test_predicted_exponents_lipschitz(self):
        v = bl.HolderVelocity(GEOM, 1.0)
        report = bl.scaling_study(v, PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM)
        assert report.predicted == (3.0, 1.0, 2.0, 1.0)
        assert report.slopes_meet_bounds(tolerance=0.15)

    def test_l2_distance_decays_at_half_order(self):
        report = bl.scaling_study(
            bl.HolderVelocity(GEOM, 0.5), PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM
        )
        assert np.all(np.diff(report.l2_distances) < 0.0)
        assert report.l2_slope >= 0.5

    def test_vacuous_term_flagged(self):
        v0 = bl.HolderVelocity(GEOM, 0.5, normal_scale=0.0)
        report = bl.scaling_study(v0, PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM)
        assert report.vacuous[0] and report.vacuous[1] and report.vacuous[2]
        assert not report.vacuous[3]
        assert report.slopes[0] is None
        assert report.slopes_meet_bounds()

    def test_grid_validation(self):
        v = bl.HolderVelocity(GEOM, 0.5)
        with pytest.raises(ValueError):
            bl.scaling_study(v, PSI, CHI, [0.04, 0.02, 0.01], GEOM)
        with pytest.raises(ValueError):
            bl.scaling_study(v, PSI, CHI, [0.005, 0.01, 0.02, 0.04], GEOM)

    def test_uniform_in_time(self):
        # modulating the stream field in time moves every integral by the same
        # bounded factor: slopes stay within bounds at a different time
        psi_t = bl.SineStreamField(GEOM, time_factor=lambda t: 1.0 + 0.25 * np.sin(1.3 * t))
        v = bl.HolderVelocity(GEOM, 0.5)
        report = bl.scaling_study(v, psi_t, CHI, [0.04, 0.02, 0.01, 0.005], GEOM, t=0.6)
        assert report.slopes_meet_bounds(tolerance=0.15)


def test_w_eps_l2_distance_standalone():
    d1 = bl.w_eps_l2_distance(PSI, CHI, 0.04, GEOM)
    d2 = bl.w_eps_l2_distance(PSI, CHI, 0.01, GEOM)
    assert d1 > d2 > 0.0
    # halving eps twice shrinks the distance by about half (order ~ 1/2)
    assert d1 / d2 == pytest.approx(2.0, rel=0.15)
