import math

import numpy as np
import pytest

from rotsub import boundary_layer as bl
from rotsub import weakform as wf
from rotsub.geometry import AnnulusGeometry, boundary_distance, polar_jacobian, polar_to_cartesian
from rotsub.quadrature import annulus_rule

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)
CHI = bl.SmoothstepCutoff()
PSI = bl.SineStreamField(GEOM)


class TangentialVelocity(bl.HolderVelocity):
    """The synthetic collar velocity with its normal component switched off."""

    def normal_component(self, d, th):
        return np.zeros_like(np.asarray(d, dtype=float))


class ZeroStream:
    """A stream function whose partials all vanish."""

    def partials(self, r, th):
        zero = np.zeros(np.broadcast(np.asarray(r), np.asarray(th)).shape)
        return (zero,) * 6


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

    def test_linear_bound_constants(self):
        # |psi| <= C d and |w_nu| <= C d with one finite constant
        rng = np.random.default_rng(1)
        r = rng.uniform(1.001, 1.999, 8000)
        th = rng.uniform(0, 2 * math.pi, 8000)
        x = polar_to_cartesian(r, th)
        frame = boundary_distance(x, GEOM)
        psi_val = PSI.partials(r, th)[0]
        w_r, _ = PSI.w_polar(r, th)
        w_nu = frame.sign * w_r
        assert np.max(np.abs(psi_val) / frame.distance) < 10.0
        assert np.max(np.abs(w_nu) / frame.distance) < 10.0


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
            (t_nn, t_nt, t_tn, t_tt), _ = field.frame_tensor(d, th, sign)
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
        res = wf.weak_residual_divergence(
            lambda r, th, t: field.value(polar_to_cartesian(r, th)), p, GEOM, quad=quad
        )
        assert abs(res) < 1e-10


class TestCollarIntegrals:
    def test_zero_normal_velocity_kills_first_three(self):
        v = TangentialVelocity(0.5)
        i1, i2, i3, i4, _, _ = bl.collar_integrals(v, PSI, CHI, 0.02, GEOM)
        assert i1 == 0.0 and i2 == 0.0 and i3 == 0.0
        assert i4 != 0.0

    def test_zero_stream_function_kills_all(self):
        v = bl.HolderVelocity(0.5)
        assert bl.collar_integrals(v, ZeroStream(), CHI, 0.02, GEOM) == (0.0,) * 6

    def test_all_terms_generically_nonzero(self):
        v = bl.HolderVelocity(0.5)
        *terms, _, _ = bl.collar_integrals(v, PSI, CHI, 0.02, GEOM)
        assert all(abs(term) > 1e-12 for term in terms)

    def test_decomposition_consistency(self):
        v = bl.HolderVelocity(0.5)
        for eps in (0.04, 0.01):
            *terms, direct, _ = bl.collar_integrals(v, PSI, CHI, eps, GEOM)
            assert abs(sum(terms) - direct) < 1e-8

    def test_each_term_is_its_frame_pair_of_the_cartesian_gradient(self):
        # I_k against the quadrature of v_a v_b b . ((a . grad)(w_eps - w)) for
        # its own pair (a, b) of frame vectors, through the Cartesian gradient
        # G: the sum check alone cannot see G transposed (or I2 and I3
        # swapped), since v . (G v) = v . (G^T v)
        v = bl.HolderVelocity(0.5)
        eps = 0.02
        field = bl.CutoffField(PSI, CHI, eps, GEOM)
        want = np.zeros(4)
        for sign in (1.0, -1.0):
            D, TH, W = bl._collar_nodes(GEOM, eps, sign)
            (t_nn, t_nt, t_tn, t_tt), _ = field.frame_tensor(D, TH, sign)
            # polar_jacobian takes t_ab = e_a . ((e_b . grad) w), so its t_r,theta is T_tn
            grad = polar_jacobian(t_nn, t_tn, t_nt, t_tt, TH)
            nu = sign * np.stack([np.cos(TH), np.sin(TH)], axis=-1)
            tau = np.stack([-nu[..., 1], nu[..., 0]], axis=-1)
            frame = {"n": (nu, v.normal_component(D, TH)), "t": (tau, v.tangential_component(D, TH))}
            for k, (a, b) in enumerate(("nn", "nt", "tn", "tt")):
                (e_a, v_a), (e_b, v_b) = frame[a], frame[b]
                pair = np.einsum("...i,...ij,...j->...", e_b, grad, e_a)
                want[k] += float(np.sum(W * v_a * pair * v_b))
        got = bl.collar_integrals(v, PSI, CHI, eps, GEOM)[:4]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert abs(want[1] - want[2]) > 1.0  # a swapped pair would be seen

    def test_holder_exponent_validated(self):
        with pytest.raises(ValueError):
            bl.HolderVelocity(0.0)
        with pytest.raises(ValueError):
            bl.HolderVelocity(1.5)

    def test_l2_matches_annulus_quadrature_of_diff_value(self):
        # independent route: the Cartesian product-rule field integrated with
        # the general annulus rule, not the collar nodes or frame_tensor
        v = bl.HolderVelocity(0.5)
        for eps in (0.04, 0.01, 0.00125):
            field = bl.CutoffField(PSI, CHI, eps, GEOM)
            l2_sq = 0.0
            for span, brk in (((1.0, 1.0 + 2 * eps), 1.0 + eps), ((2.0 - 2 * eps, 2.0), 2.0 - eps)):
                quad = annulus_rule(
                    GEOM, r_cells=4, theta_cells=8, order=12, r_breaks=(brk,), r_span=span,
                )
                diff = field.diff_value(polar_to_cartesian(quad.r, quad.theta))
                l2_sq += quad.integrate(np.sum(diff**2, axis=-1))
            l2 = bl.collar_integrals(v, PSI, CHI, eps, GEOM)[5]
            assert l2 == pytest.approx(math.sqrt(l2_sq), rel=1e-12, abs=0.0)


class TestScalingStudy:
    def test_slopes_meet_bounds_alpha_half(self):
        v = bl.HolderVelocity(0.5)
        report = bl.scaling_study(v, PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM)
        assert report.predicted == (2.0, 0.5, 1.5, 1.0)
        assert report.slopes_meet_bounds()
        assert np.max(report.consistency) < 1e-8

    def test_predicted_exponents_lipschitz(self):
        v = bl.HolderVelocity(1.0)
        report = bl.scaling_study(v, PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM)
        assert report.predicted == (3.0, 1.0, 2.0, 1.0)
        assert report.slopes_meet_bounds()

    def test_l2_distance_decays_at_half_order(self):
        report = bl.scaling_study(
            bl.HolderVelocity(0.5), PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM
        )
        assert np.all(np.diff(report.l2_distances) < 0.0)
        assert report.l2_slope >= 0.5

    def test_vacuous_term_flagged(self):
        report = bl.scaling_study(TangentialVelocity(0.5), PSI, CHI, [0.04, 0.02, 0.01, 0.005], GEOM)
        assert report.vacuous[0] and report.vacuous[1] and report.vacuous[2]
        assert not report.vacuous[3]
        assert report.slopes[0] is None
        assert report.slopes_meet_bounds()

    def test_grid_validation(self):
        v = bl.HolderVelocity(0.5)
        with pytest.raises(ValueError):
            bl.scaling_study(v, PSI, CHI, [0.04, 0.02, 0.01], GEOM)
        with pytest.raises(ValueError):
            bl.scaling_study(v, PSI, CHI, [0.005, 0.01, 0.02, 0.04], GEOM)


def test_w_eps_l2_distance_standalone():
    v = bl.HolderVelocity(0.5)
    d1 = bl.collar_integrals(v, PSI, CHI, 0.04, GEOM)[5]
    d2 = bl.collar_integrals(v, PSI, CHI, 0.01, GEOM)[5]
    assert d1 > d2 > 0.0
    # halving eps twice shrinks the distance by about half (order ~ 1/2)
    assert d1 / d2 == pytest.approx(2.0, rel=0.15)
