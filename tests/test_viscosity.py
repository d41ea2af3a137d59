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
        with pytest.raises(ValueError):
            vc.ParabolicProblem(geom=GEOM, nu=0.0)
        with pytest.raises(ValueError):
            vc.ParabolicProblem(geom=GEOM, nu=-1e-3)

    def test_grid_contains_interface(self):
        grid = vc.radial_grid(GEOM, 401)
        assert np.any(grid == GEOM.r0)

    def test_initial_profile_midpoint_zero(self):
        grid = vc.radial_grid(GEOM, 400)
        prof = vc.initial_profile(GEOM, grid)
        i0 = np.argmin(np.abs(grid - GEOM.r0))
        assert prof.values[i0] == 0.0
        assert prof.values[i0 - 1] == pytest.approx(-1.0 / grid[i0 - 1] ** 2)
        assert prof.values[i0 + 1] == pytest.approx(1.0 / grid[i0 + 1] ** 2)


class TestSolver:
    def test_t0_snapshot_is_initial_data(self):
        problem = vc.ParabolicProblem(geom=GEOM, nu=1e-2, n=200, dt=1e-3)
        record = vc.solve_parabolic(problem, [0.0])
        grid = record.snapshots[0].grid
        expected = vc.initial_profile(GEOM, grid).values
        assert np.array_equal(record.snapshots[0].values, expected)
        assert record.distances[0] == 0.0

    def test_long_time_decay_to_zero(self):
        problem = vc.ParabolicProblem(geom=GEOM, nu=0.5, n=200, dt=5e-3)
        record = vc.solve_parabolic(problem, [1.0, 5.0, 20.0])
        sups = [np.max(np.abs(s.values)) for s in record.snapshots]
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-3

    def test_maximum_principle(self):
        for nu in (1e-2, 1e-3, 1e-4):
            problem = vc.ParabolicProblem(geom=GEOM, nu=nu, n=400, dt=1e-3)
            record = vc.solve_parabolic(problem, [0.05, 0.2, 1.0])
            for snap in record.snapshots:
                assert np.max(np.abs(snap.values)) <= 1.0 / GEOM.rho**2 + 1e-12

    def test_energy_balance_drift(self):
        problem = vc.ParabolicProblem(geom=GEOM, nu=1e-2, n=400, dt=1e-3)
        record = vc.solve_parabolic(problem, [1.0])
        assert record.energy_drift < 1e-6
        # with the self-adjoint discretization the identity is machine exact
        assert record.energy_drift < 1e-10

    def test_factored_step_matches_banded_solve(self):
        from scipy.linalg import solve_banded

        problem = vc.ParabolicProblem(geom=GEOM, nu=1e-3, n=800, dt=2.5e-3)
        solver = vc._CrankNicolson(problem)
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
        solver = vc._CrankNicolson(vc.ParabolicProblem(geom=GEOM, nu=1e-2, n=200, dt=1e-3))
        solver.u_full[50] = np.nan
        with pytest.raises(ValueError):
            solver.step()

    def test_output_times_validated(self):
        problem = vc.ParabolicProblem(geom=GEOM, nu=1e-2)
        with pytest.raises(ValueError):
            vc.solve_parabolic(problem, [0.5, 0.5])
        with pytest.raises(ValueError):
            vc.solve_parabolic(problem, [])


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
        problem = vc.ParabolicProblem(geom=GEOM, nu=self.nu, n=n, dt=dt, source=self.source)
        record = vc.solve_parabolic(problem, [t_end], initial=lambda r: self.exact(r, 0.0))
        snap = record.snapshots[-1]
        return vc.l2_rdr_norm(snap.grid, snap.values - self.exact(snap.grid, snap.t))

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
        sweep = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, n=800, dt=5e-3)
        assert sweep.monotone
        assert sweep.distances[0] > sweep.distances[-1] > 0.0

    def test_observed_slope_near_quarter(self):
        sweep = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, n=1600, dt=2.5e-3)
        # observed scaling of the layer mass; reported, not a sharp claim
        assert 0.15 <= sweep.slope <= 0.35

    def test_grid_independence(self):
        coarse = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, n=1200, dt=4e-3)
        fine = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, n=2400, dt=4e-3)
        rel = np.abs(fine.distances - coarse.distances) / fine.distances
        assert np.max(rel) < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3], 1.0)
        with pytest.raises(ValueError):
            vc.vanishing_viscosity_study(GEOM, [1e-4, 1e-3, 1e-2], 1.0)

    @pytest.mark.parametrize("t_probe, dt", [(math.inf, None), (math.inf, 1e-3), (1.0, 1e-320)])
    def test_unbounded_step_count_rejected(self, t_probe, dt):
        with pytest.raises(ValueError, match="finite|unboundedly"):
            vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], t_probe, n=8, dt=dt)


def lift(profile, r, th):
    """The plane field a(r) (sin th, -cos th) of a radial speed profile."""
    return azimuthal(np.interp(r, profile.grid, profile.values), th)


class TestLift:
    def test_initial_profile_lifts_to_initial_velocity(self):
        grid = vc.radial_grid(GEOM, 2000)
        profile = vc.initial_profile(GEOM, grid)
        rng = np.random.default_rng(20)
        r = rng.uniform(1.01, 1.99, 200)
        r = r[np.abs(r - GEOM.r0) > 2e-3]  # stay off the interpolated jump cell
        th = rng.uniform(0, 2 * math.pi, r.size)
        got = lift(profile, r, th)
        x = polar_to_cartesian(r, th)
        want = initial_velocity(x, GEOM)
        assert np.max(np.abs(got - want)) < 1e-5

    def test_lifted_field_divergence_free(self):
        problem = vc.ParabolicProblem(geom=GEOM, nu=1e-3, n=400, dt=2e-3)
        record = vc.solve_parabolic(problem, [0.5])
        p = wf.ScalarBumpField(
            GEOM, (1.1, 1.9), wf.FourierPoly(((0, 1.0, 0.0), (2, 0.5, 0.4)))
        )
        res = wf.weak_residual_divergence(lambda r, th, t: lift(record.snapshots[-1], r, th), p, GEOM)
        assert abs(res) < 1e-12

    def test_profile_norm_convention(self):
        # || a ||^2 = 2 pi int a^2 r dr; for a = 1/r^2 this is the initial energy
        grid = np.linspace(1.0, 2.0, 20001)
        norm = vc.l2_rdr_norm(grid, 1.0 / grid**2)
        assert norm**2 == pytest.approx(wf.initial_energy(GEOM), rel=1e-7)
