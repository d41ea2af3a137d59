import math

import numpy as np
import pytest

from rotsub import viscosity as vc
from rotsub import weakform as wf
from rotsub.geometry import AnnulusGeometry, polar_to_cartesian
from rotsub.subsolution import azimuthal, initial_velocity

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)


class TestSetup:
    def test_positive_viscosity_required(self):
        for nu, dt in [(0.0, 1e-3), (-1e-3, 1e-3), (1e-2, 0.0)]:
            with pytest.raises(ValueError):
                vc._CrankNicolson(GEOM, nu, 200, dt)

    def test_grid_contains_interface(self):
        grid = vc.radial_grid(GEOM, 401)
        assert np.any(grid == GEOM.r0)

    def test_initial_profile_midpoint_zero(self):
        grid = vc.radial_grid(GEOM, 400)
        prof = vc.initial_profile(GEOM, grid)
        i0 = np.argmin(np.abs(grid - GEOM.r0))
        assert prof[i0] == 0.0
        assert prof[i0 - 1] == pytest.approx(-1.0 / grid[i0 - 1] ** 2)
        assert prof[i0 + 1] == pytest.approx(1.0 / grid[i0 + 1] ** 2)


class TestSolver:
    def test_t0_snapshot_is_initial_data(self):
        solver = vc.solve_parabolic(GEOM, 1e-2, 0.0, 200, 1e-3)
        assert solver.t == 0.0
        assert np.array_equal(solver.u_full, vc.initial_profile(GEOM, solver.grid))

    def test_long_time_decay_to_zero(self):
        sups = [np.max(np.abs(vc.solve_parabolic(GEOM, 0.5, t, 200, 5e-3).u_full)) for t in (1.0, 5.0, 20.0)]
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-3

    def test_maximum_principle(self):
        for nu in (1e-2, 1e-3, 1e-4):
            for t in (0.05, 0.2, 1.0):
                solver = vc.solve_parabolic(GEOM, nu, t, 400, 1e-3)
                assert np.max(np.abs(solver.u_full)) <= 1.0 / GEOM.rho**2 + 1e-12

    def test_energy_balance_drift(self):
        solver = vc.solve_parabolic(GEOM, 1e-2, 1.0, 400, 1e-3)
        assert solver.energy_drift < 1e-6
        # with the self-adjoint discretization the identity is machine exact
        assert solver.energy_drift < 1e-10

    def test_factored_step_matches_banded_solve(self):
        from scipy.linalg import solve_banded

        solver = vc._CrankNicolson(GEOM, 1e-3, 800, 2.5e-3)
        mu = solver.mu
        ab = np.zeros((3, solver.r_interior.size))
        ab[0, 1:] = -mu * solver.c_plus[:-1]
        ab[1, :] = 1.0 - mu * solver.c_diag
        ab[2, :-1] = -mu * solver.c_minus[1:]
        for _ in range(5):
            want = solve_banded((1, 1), ab, solver._apply_rhs(solver.u_full[1:-1]))
            solver.step()
            got = solver.u_full[1:-1]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_non_finite_step_rejected(self):
        solver = vc._CrankNicolson(GEOM, 1e-2, 200, 1e-3)
        solver.u_full[50] = np.nan
        with pytest.raises(ValueError):
            solver.step()


class TestManufacturedSolution:
    nu = 0.05
    wavenumber = math.pi / GEOM.width

    @classmethod
    def exact(cls, r, t):
        return math.exp(-t) * np.sin(cls.wavenumber * (r - GEOM.rho))

    @classmethod
    def source(cls, r, t):
        k = cls.wavenumber
        s = np.sin(k * (r - GEOM.rho))
        c = np.cos(k * (r - GEOM.rho))
        operator = -(k**2) * s + k * c / r - s / r**2
        return math.exp(-t) * (-s - cls.nu * operator)

    def run(self, n, dt, t_end=0.5):
        solver = vc.solve_parabolic(
            GEOM, self.nu, t_end, n, dt, initial=lambda r: self.exact(r, 0.0), source=self.source
        )
        return vc.l2_rdr_norm(solver.grid, solver.u_full - self.exact(solver.grid, solver.t))

    def test_second_order_in_space(self):
        errors = [self.run(n, 2e-4) for n in (16, 32, 64)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(order >= 1.8 for order in orders), (errors, orders)

    def test_second_order_in_time(self):
        errors = [self.run(1024, dt) for dt in (0.05, 0.025, 0.0125)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(order >= 1.8 for order in orders), (errors, orders)


class TestVanishingViscosity:
    def test_distances_strictly_decreasing(self):
        distances, _ = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, 800, 5e-3)
        assert np.all(np.diff(distances) < 0)
        assert distances[0] > distances[-1] > 0.0

    def test_observed_slope_near_quarter(self):
        _, slope = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, 1600, 2.5e-3)
        # observed scaling of the layer mass; reported, not a sharp claim
        assert 0.15 <= slope <= 0.35

    def test_grid_independence(self):
        coarse, _ = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, 1200, 4e-3)
        fine, _ = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, 2400, 4e-3)
        rel = np.abs(fine - coarse) / fine
        assert np.max(rel) < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3], 1.0, 8, 1e-2)
        with pytest.raises(ValueError):
            vc.vanishing_viscosity_study(GEOM, [1e-4, 1e-3, 1e-2], 1.0, 8, 1e-2)

    @pytest.mark.parametrize("t_probe, dt", [(math.inf, 1e-3), (1.0, 1e-320), (1.0, 1e-300), (1.0, 9.9e-7)])
    def test_unbounded_step_count_rejected(self, t_probe, dt):
        with pytest.raises(ValueError, match="finite|more than"):
            vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], t_probe, 8, dt)


def lift(grid, a, r, th):
    """The plane field a(r) (sin th, -cos th) of a radial speed profile on ``grid``."""
    return azimuthal(np.interp(r, grid, a), th)


class TestLift:
    def test_initial_profile_lifts_to_initial_velocity(self):
        grid = vc.radial_grid(GEOM, 2000)
        rng = np.random.default_rng(20)
        r = rng.uniform(1.01, 1.99, 200)
        r = r[np.abs(r - GEOM.r0) > 2e-3]  # stay off the interpolated jump cell
        th = rng.uniform(0, 2 * math.pi, r.size)
        got = lift(grid, vc.initial_profile(GEOM, grid), r, th)
        x = polar_to_cartesian(r, th)
        want = initial_velocity(x, GEOM)
        assert np.max(np.abs(got - want)) < 1e-5

    def test_lifted_field_divergence_free(self):
        solver = vc.solve_parabolic(GEOM, 1e-3, 0.5, 400, 2e-3)
        p = wf.ScalarBumpField(
            GEOM, (1.1, 1.9), wf.FourierPoly(((0, 1.0, 0.0), (2, 0.5, 0.4)))
        )
        res = wf.weak_residual_divergence(lambda r, th, t: lift(solver.grid, solver.u_full, r, th), p, GEOM)
        assert abs(res) < 1e-12

    def test_profile_norm_convention(self):
        # || a ||^2 = 2 pi int a^2 r dr; for a = 1/r^2 this is the initial energy
        grid = np.linspace(1.0, 2.0, 20001)
        norm = vc.l2_rdr_norm(grid, 1.0 / grid**2)
        assert norm**2 == pytest.approx(wf.initial_energy(GEOM), rel=1e-7)
