import json
import math

import numpy as np
import pytest
from oracles import energy_total, radial_system_residual_analytic

from rotsub import subsolution as ss
from rotsub import weakform as wf
from rotsub.geometry import (
    AnnulusGeometry,
    SubsolutionParams,
    cartesian_to_polar,
    polar_to_cartesian,
)

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)
PARAMS = SubsolutionParams(lam=0.1, epsilon=0.5)
PARAMS0 = SubsolutionParams(lam=0.1, epsilon=0.0)


def vbar_polar(r, th, t):
    """The constructed velocity as a polar callable."""
    return ss.azimuthal(ss.alpha(r, t, GEOM, PARAMS), th)


def central_diff(func, x, h):
    return (func(x + h) - func(x - h)) / (2.0 * h)


def at(method, x, *t):
    """A field method taking (r, theta, ...) evaluated at Cartesian points x."""
    return method(*cartesian_to_polar(x), *t)


class TestBumpProfile:
    def test_support(self):
        bump = wf.BumpProfile(1.2, 1.8)
        assert bump.value(1.1) == 0.0 and bump.value(1.9) == 0.0
        assert bump.value(1.2) == 0.0 and bump.value(1.8) == 0.0
        assert bump.value(1.5) == 1.0

    def test_derivatives_match_fd(self):
        bump = wf.BumpProfile(1.2, 1.8)
        s = np.linspace(1.25, 1.75, 41)
        fd1 = central_diff(bump.value, s, 1e-6)
        assert np.max(np.abs(bump.deriv(s) - fd1)) < 1e-6 * (1 + np.max(np.abs(fd1)))
        h = 1e-5  # second differences need a larger step to beat roundoff
        fd2 = (bump.value(s + h) - 2 * bump.value(s) + bump.value(s - h)) / h**2
        assert np.max(np.abs(bump.deriv2(s) - fd2)) < 1e-3


class TestFieldDerivatives:
    """Analytic derivatives at polar nodes against differences at Cartesian points."""

    def field_points(self, n=60, seed=11):
        rng = np.random.default_rng(seed)
        r = rng.uniform(1.3, 1.7, n)
        th = rng.uniform(0, 2 * math.pi, n)
        return r, th, rng.uniform(0.3, 0.7, n)

    def test_scalar_gradient_vs_fd(self):
        p = wf.ScalarBumpField(
            GEOM, (1.2, 1.8), wf.FourierPoly(((0, 1.0, 0.0), (2, 0.5, 0.3)))
        )
        r, th, _ = self.field_points()
        x = polar_to_cartesian(r, th)
        h = 1e-6
        grad = p.gradient(r, th, 0.0)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (at(p.value, x + e, 0.0) - at(p.value, x - e, 0.0)) / (2 * h)
            scale = 1.0 + np.max(np.abs(fd))
            assert np.max(np.abs(grad[..., axis] - fd)) < 1e-6 * scale

    def test_vector_field_gradient_and_dt_vs_fd(self):
        phi = wf.VectorBumpField(
            GEOM, (1.2, 1.8),
            wf.FourierPoly(((1, 1.0, 0.0),)),
            wf.FourierPoly(((0, 0.5, 0.0), (2, 0.3, 0.0))),
            (0.1, 0.9),
        )
        r, th, t = self.field_points()
        x = polar_to_cartesian(r, th)
        h = 1e-6
        grad = phi.gradient(r, th, t)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (at(phi.value, x + e, t) - at(phi.value, x - e, t)) / (2 * h)
            assert np.max(np.abs(grad[..., axis] - fd)) < 1e-5
        fd_t = (phi.value(r, th, t + h) - phi.value(r, th, t - h)) / (2 * h)
        assert np.max(np.abs(phi.time_deriv(r, th, t) - fd_t)) < 1e-5

    def test_perp_gradient_divergence_free(self):
        psi = wf.ScalarBumpField(
            GEOM, (1.25, 1.8), wf.FourierPoly(((0, 1.0, 0.0), (1, 0.6, 0.0))),
            t_support=(0.15, 0.85),
        )
        phi = wf.PerpGradientField(psi)
        grad = phi.gradient(*self.field_points())
        divergence = grad[..., 0, 0] + grad[..., 1, 1]
        assert np.max(np.abs(divergence)) < 1e-14

    def test_perp_gradient_vs_fd(self):
        psi = wf.ScalarBumpField(
            GEOM, (1.25, 1.8), wf.FourierPoly(((1, 0.6, 0.2),)), t_support=(0.15, 0.85)
        )
        phi = wf.PerpGradientField(psi)
        r, th, t = self.field_points(30)
        x = polar_to_cartesian(r, th)
        h = 1e-5
        grad = phi.gradient(r, th, t)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (at(phi.value, x + e, t) - at(phi.value, x - e, t)) / (2 * h)
            assert np.max(np.abs(grad[..., axis] - fd)) < 1e-4
        # the value is perp-grad(psi): (psi_y, -psi_x), by differences of psi itself
        fd_psi = [
            (at(psi.value, x + e, t) - at(psi.value, x - e, t)) / (2 * h)
            for e in (np.array([h, 0.0]), np.array([0.0, h]))
        ]
        value = phi.value(r, th, t)
        assert np.max(np.abs(value[..., 0] - fd_psi[1])) < 1e-6
        assert np.max(np.abs(value[..., 1] + fd_psi[0])) < 1e-6
        fd_t = (phi.value(r, th, t + h) - phi.value(r, th, t - h)) / (2 * h)
        assert np.max(np.abs(phi.time_deriv(r, th, t) - fd_t)) < 1e-4

    def test_support_violation_rejected(self):
        with pytest.raises(wf.SupportError):
            wf.ScalarBumpField(GEOM, (0.9, 1.5), wf.FourierPoly(((0, 1.0, 0.0),)))
        with pytest.raises(wf.SupportError):
            wf.VectorBumpField(
                GEOM, (1.2, 1.8),
                wf.FourierPoly(((0, 1.0, 0.0),)), wf.FourierPoly(((0, 1.0, 0.0),)),
                (-0.1, 0.5),
            )


class TestLinearSystemResidual:
    def test_zero_field_gives_exact_zero(self):
        phi = wf.VectorBumpField(
            GEOM, (1.2, 1.8),
            wf.FourierPoly(((0, 0.0, 0.0),)), wf.FourierPoly(((0, 0.0, 0.0),)),
            (0.1, 0.9),
        )
        assert wf.weak_residual_linear_system(GEOM, PARAMS, phi) == 0.0

    def test_stationary_branch_small_at_default_order(self):
        fields = wf.default_test_fields(GEOM, PARAMS)
        res = wf.weak_residual_linear_system(GEOM, PARAMS, fields["outer_branch"])
        assert abs(res) < 1e-10
        res = wf.weak_residual_linear_system(GEOM, PARAMS, fields["inner_branch"])
        assert abs(res) < 1e-10

    def test_refinement_convergence_all_fields(self):
        for name, phi in wf.default_test_fields(GEOM, PARAMS).items():
            study = wf.linear_system_refinement(GEOM, PARAMS, phi, levels=3, order=3)
            assert study["converged"] is True, (name, study)

    def test_band_crossing_observed_order(self):
        phi = wf.default_test_fields(GEOM, PARAMS)["band_crossing"]
        study = wf.linear_system_refinement(GEOM, PARAMS, phi, levels=3, order=3)
        assert study["orders"][0] >= 2.0
        assert abs(study["residuals"][-1]) < abs(study["residuals"][0])

    def test_pressure_evaluated_once_per_radial_node(self, monkeypatch):
        # qbar is radially symmetric: one value per (r, t) node, broadcast over theta
        rules, points = [], []
        spacetime_rule = wf.spacetime_rule

        def spy_rule(*args, **kwargs):
            rules.append(spacetime_rule(*args, **kwargs))
            return rules[-1]

        def spy_qbar(r, t, geom, params):
            points.append(np.broadcast(r, t).size)
            return ss.qbar(r, t, geom, params)

        monkeypatch.setattr(wf, "spacetime_rule", spy_rule)
        monkeypatch.setattr(wf, "qbar", spy_qbar)
        for phi in wf.default_test_fields(GEOM, PARAMS).values():
            wf.weak_residual_linear_system(GEOM, PARAMS, phi, cells=(2, 2, 2), order=3)
        assert len(points) == len(rules) == 5
        assert points == [rule.r.size for rule in rules]
        assert all(rule.weights.size == rule.r.size * rule.theta.size for rule in rules)


class TestDivergenceResidual:
    def test_radial_bump_tiny(self):
        p = wf.ScalarBumpField(GEOM, (1.2, 1.8), wf.FourierPoly(((0, 1.0, 0.0),)))
        res = wf.weak_residual_divergence(vbar_polar, p, GEOM, t=0.0)
        assert abs(res) < 1e-12

    def test_zero_gradient_exact_zero(self):
        p = wf.ScalarBumpField(GEOM, (1.2, 1.8), wf.FourierPoly(((0, 0.0, 0.0),)))
        res = wf.weak_residual_divergence(vbar_polar, p, GEOM, t=0.5)
        assert res == 0.0

    def test_generic_scalar_refinement(self):
        p = wf.ScalarBumpField(
            GEOM, (1.15, 1.85), wf.FourierPoly(((0, 1.0, 0.0), (1, 0.4, 0.0), (3, 0.0, 0.2)))
        )
        grids = ((2, 2), (4, 4), (8, 8))
        residuals = [
            wf.weak_residual_divergence(vbar_polar, p, GEOM, t=0.4, cells=cells, order=2)
            for cells in grids
        ]
        study = wf.refinement_orders(residuals)
        assert study["converged"] is True, (residuals, study)


class TestRadialSystem:
    def test_fd_ratio_outside_band(self):
        rng = np.random.default_rng(12)
        r = rng.uniform(1.05, 1.35, 50)
        t = rng.uniform(0.3, 0.9, 50)
        res1_c, _ = wf.radial_system_residual(GEOM, PARAMS, r, t, h=1e-3)
        res1_f, _ = wf.radial_system_residual(GEOM, PARAMS, r, t, h=5e-4)
        ratio = np.median(np.abs(res1_c) / np.abs(res1_f))
        assert 3.5 <= ratio <= 4.5

    def test_fd_ratio_inside_band(self):
        rng = np.random.default_rng(13)
        t = rng.uniform(0.5, 0.95, 50)
        r = GEOM.r0 + rng.uniform(-0.8, 0.8, 50) * (PARAMS.lam * t - 5e-3)
        res1_c, res2_c = wf.radial_system_residual(GEOM, PARAMS, r, t, h=1e-3)
        res1_f, res2_f = wf.radial_system_residual(GEOM, PARAMS, r, t, h=5e-4)
        for coarse, fine in ((res1_c, res1_f), (res2_c, res2_f)):
            keep = np.abs(fine) > 1e-13
            assert keep.sum() >= 25
            ratio = np.median(np.abs(coarse[keep]) / np.abs(fine[keep]))
            assert 3.5 <= ratio <= 4.5

    def test_fd_route_sees_a_perturbed_pressure(self, monkeypatch):
        # res1 differences qbar itself, so an error in the pressure shows up as its derivative
        rng = np.random.default_rng(15)
        r = rng.uniform(1.05, 1.35, 20)
        t = rng.uniform(0.3, 0.9, 20)
        res1_exact, _ = wf.radial_system_residual(GEOM, PARAMS, r, t, h=1e-3)
        exact = wf.qbar
        monkeypatch.setattr(wf, "qbar", lambda rv, tv, g, p: exact(rv, tv, g, p) + 1e-3 * rv**2)
        res1, _ = wf.radial_system_residual(GEOM, PARAMS, r, t, h=1e-3)
        assert np.allclose(res1 - res1_exact, 2e-3 * r, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("lam", [1e-3, 0.0, 0.5])
    def test_band_without_room_leaves_no_points(self, lam):
        with pytest.raises(ValueError, match="no room"):
            wf.sample_points_away_from_band(
                GEOM, SubsolutionParams(lam=lam, epsilon=0.5), 30, 1e-3, np.random.default_rng(0)
            )

    def test_points_near_edges_rejected(self):
        with pytest.raises(ValueError):
            wf.radial_system_residual(GEOM, PARAMS, 1.45, 0.5, h=1e-3)
        with pytest.raises(ValueError):
            wf.radial_system_residual(GEOM, PARAMS, 1.2, 5e-4, h=1e-3)

    def test_analytic_residuals_vanish(self):
        r, t = wf.sample_points_away_from_band(GEOM, PARAMS, 300, 1e-3, np.random.default_rng(14))
        res1, res2 = radial_system_residual_analytic(GEOM, PARAMS, r, t)
        assert np.max(np.abs(res1)) < 1e-12
        assert np.max(np.abs(res2)) < 1e-12


class TestEnergy:
    def test_initial_energy_closed_form(self):
        assert wf.initial_energy(GEOM) == pytest.approx(3.0 * math.pi / 4.0, rel=1e-15)

    def test_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            rho = rng.uniform(0.4, 1.2)
            R = rho + rng.uniform(0.5, 1.5)
            geom = AnnulusGeometry(rho=rho, R=R, r0=0.5 * (rho + R), T=1.0)
            p0 = SubsolutionParams(lam=0.0, epsilon=0.0)
            got = wf.energy_series(geom, p0, [0.0])[0]
            assert got == pytest.approx(wf.initial_energy(geom), rel=1e-10)

    @pytest.mark.parametrize("n_times", [2000, 9])
    @pytest.mark.parametrize("lam", [-0.1, 0.0, 1e-300, 0.1, 0.6, 2.0])
    def test_series_bit_identical_to_per_time_rule(self, lam, n_times):
        # the table and gate workloads' times; the rules of all times are built
        # at once, and each energy must keep the bits of its own rule
        p = SubsolutionParams(lam=lam, epsilon=PARAMS.epsilon)
        times = np.linspace(0.0, GEOM.T, n_times)
        want = np.array([energy_total(GEOM, p, tv) for tv in times])
        got = wf.energy_series(GEOM, p, times)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_conservation_when_epsilon_zero(self):
        times = np.linspace(0.0, 1.0, 10)
        energies = wf.energy_series(GEOM, PARAMS0, times)
        e0 = wf.initial_energy(GEOM)
        assert np.max(np.abs(energies - e0)) < 1e-10 * e0

    def test_strict_decrease_when_epsilon_positive(self):
        energies = wf.energy_series(GEOM, PARAMS, [0.0, 0.25, 0.5, 1.0])
        assert energies[0] == pytest.approx(wf.initial_energy(GEOM), rel=1e-12)
        assert np.all(np.diff(energies) < 0.0)

    def test_exact_deficit_matches_quadrature(self):
        from scipy.integrate import quad

        times = np.array([0.0, 1e-3, 0.3, 1.0])
        # E(0) - E(t) = 2 pi int (1/r^4 - 2 ebar) r dr, nonzero only on the band
        want = np.array([
            2.0 * math.pi * quad(
                lambda r: (r**-4 - 2.0 * ss.ebar(r, tv, GEOM, PARAMS)) * r,
                GEOM.r0 - PARAMS.lam * tv, GEOM.r0 + PARAMS.lam * tv, epsabs=0.0, epsrel=1e-13,
            )[0]
            for tv in times[1:]
        ])
        e0 = wf.initial_energy(GEOM)
        # ebar is affine in epsilon, so the deficit scales with it; at 1e-15 a
        # direct quadrature of the difference would be all roundoff
        for eps in (PARAMS.epsilon, 1e-15):
            p = SubsolutionParams(lam=PARAMS.lam, epsilon=eps)
            deficit = wf.energy_deficit(GEOM, p, times)
            assert deficit[0] == 0.0
            assert deficit[1:] == pytest.approx(want * (eps / PARAMS.epsilon), rel=1e-12)
            energies = wf.energy_series(GEOM, p, times)
            assert np.max(np.abs(energies - (e0 - deficit))) < 1e-14 * e0

    def test_admissibility_both_directions(self):
        times = np.linspace(0.1, 1.0, 5)
        e0 = wf.initial_energy(GEOM)
        for eps in (0.0, 0.25, 0.75):
            p = SubsolutionParams(lam=0.1, epsilon=eps)
            energies = wf.energy_series(GEOM, p, times)
            assert np.all(energies <= e0 * (1.0 + 1e-12))
            if eps == 0.0:
                assert np.max(np.abs(energies - e0)) < 1e-10 * e0
            else:
                assert np.all(energies < e0)


class TestRefinementOrders:
    def test_orders_between_levels(self):
        study = wf.refinement_orders([1e-4, 2.5e-5, 1e-6])
        assert study["orders"] == pytest.approx([2.0, np.log2(25.0)], rel=1e-14)
        assert study["measured"] == [True, True]
        assert study["converged"] is True

    def test_first_order_does_not_converge(self):
        assert wf.refinement_orders([1e-4, 5e-5, 2.5e-5])["converged"] is False

    def test_roundoff_pairs_are_not_measured(self):
        # an order between residuals at the floor measures nothing, whatever its value
        study = wf.refinement_orders([1e-4, 1e-6, 1e-14, 5e-14])
        assert study["measured"] == [True, False, False]
        assert study["orders"][2] < 0.0
        assert study["converged"] is True

    def test_growth_to_the_end_does_not_converge(self):
        # a last residual above the first fails even with no order measured
        study = wf.refinement_orders([1e-14, 1e-12])
        assert study["measured"] == [False]
        assert study["converged"] is False


class TestInitialDataAttainment:
    def test_decay_orders(self):
        report = wf.initial_data_attainment(GEOM, PARAMS)
        assert report["l2_sq_order"] >= 0.9
        assert report["pairing_order"] >= 1.0
        assert np.all(np.diff(report["l2_sq"]) < 0.0)

    def test_exact_zero_at_t0(self):
        report = wf.initial_data_attainment(GEOM, PARAMS, times=[0.0, 0.25, 0.5])
        assert report["l2_sq"][0] == 0.0
        assert report["pairing"][0] == 0.0
        assert json.loads(json.dumps(report)) == report

    def test_band_past_both_walls_is_cut_to_the_annulus(self):
        # an inadmissible lam whose fan covers the annulus: vbar ~ 0 there, so
        # ||vbar - v0||^2 = ||v0||^2 = E0 at every time, and nothing decays
        report = wf.initial_data_attainment(GEOM, SubsolutionParams(lam=1e308, epsilon=0.5))
        assert report["l2_sq"] == pytest.approx([wf.initial_energy(GEOM)] * 5, rel=1e-12)
        assert abs(report["l2_sq_order"]) < 1e-12
