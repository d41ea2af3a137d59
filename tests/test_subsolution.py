import math

import numpy as np
import pytest
from oracles import initial_velocity_at, ubar_at, vbar_at

from rotsub import subsolution as ss
from rotsub.burgers import fan_interval
from rotsub.geometry import AnnulusGeometry, SubsolutionParams, cartesian_to_polar, polar_to_cartesian

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)
PARAMS = SubsolutionParams(lam=0.1, epsilon=0.5)


def pressure_integral_oracle(r, t, geom, params):
    """Closed-form antiderivatives for int_rho^r alpha(s,t)^2 / s ds.

    Outside the fan alpha^2/s = s^-5; inside, with w = lam*t,
    alpha^2/s = (s - r0)^2 / (w^2 s^5), both with elementary antiderivatives.
    Independent of the package quadrature.
    """
    r0, lam = geom.r0, params.lam

    def prim_out(s):
        return -0.25 * s**-4

    def prim_fan(s, w):
        return (-0.5 * s**-2 + (2.0 * r0 / 3.0) * s**-3 - 0.25 * r0**2 * s**-4) / w**2

    w = lam * t
    left, right = fan_interval(t, geom, lam)
    pieces = 0.0
    segments = []
    if w > 0 and right > geom.rho and left < r:
        segments = [
            (geom.rho, min(max(left, geom.rho), r), prim_out),
            (min(max(left, geom.rho), r), min(max(right, geom.rho), r), lambda s: prim_fan(s, w)),
            (min(max(right, geom.rho), r), r, prim_out),
        ]
    else:
        segments = [(geom.rho, r, prim_out)]
    for a, b, prim in segments:
        if b > a:
            pieces += prim(b) - prim(a)
    return pieces


class TestProfiles:
    def test_alpha_initial_values(self):
        assert ss.alpha(1.2, 0.0, GEOM, PARAMS) == pytest.approx(-1.0 / 1.44, rel=1e-15)
        assert ss.alpha(2.0, 0.0, GEOM, PARAMS) == pytest.approx(0.25, rel=1e-15)
        assert ss.alpha(1.5, 0.4, GEOM, PARAMS) == 0.0

    def test_beta_is_minus_half_alpha_sq(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1.0, 2.0, 200)
        t = rng.uniform(0.0, 1.0, 200)
        assert np.array_equal(
            ss.beta(r, t, GEOM, PARAMS), -0.5 * ss.alpha(r, t, GEOM, PARAMS) ** 2
        )

    def test_gamma_outside_fan_vanishes(self):
        assert ss.gamma(1.2, 0.5, GEOM, PARAMS) == 0.0
        assert ss.gamma(1.9, 0.5, GEOM, PARAMS) == 0.0

    def test_gamma_bound_inside(self):
        r = np.linspace(1.41, 1.59, 50)
        g = ss.gamma(r, 1.0, GEOM, PARAMS)
        assert np.all(g <= 0.0)
        assert np.all(np.abs(g) <= 0.5 * PARAMS.lam / r**2 + 1e-15)

    def test_alpha_magnitude_bound(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(1.0, 2.0, 500)
        t = rng.uniform(0.0, 1.0, 500)
        assert np.all(np.abs(ss.alpha(r, t, GEOM, PARAMS)) <= 1.0 / r**2 + 1e-15)


class TestVelocity:
    def test_vbar_matches_initial_field(self):
        # at t = 0 the ansatz reproduces -+ x_perp/|x|^3 across the interface
        x = np.array([1.2, 0.0])
        v = vbar_at(x, 0.0, GEOM, PARAMS)
        assert np.allclose(v, [0.0, 1.2 / 1.728], atol=1e-14)
        x = np.array([0.0, 2.0])
        v = vbar_at(x, 0.0, GEOM, PARAMS)
        assert np.allclose(v, [0.25, 0.0], atol=1e-14)

    def test_vbar_equals_initial_velocity_everywhere(self):
        rng = np.random.default_rng(2)
        x = polar_to_cartesian(rng.uniform(1.0, 2.0, 500), rng.uniform(0, 2 * math.pi, 500))
        assert np.max(np.abs(vbar_at(x, 0.0, GEOM, PARAMS) - initial_velocity_at(x, GEOM))) < 1e-14

    def test_vanishes_on_interface_circle(self):
        for th in (0.0, 1.0, 4.0):
            x = polar_to_cartesian(1.5, th)
            assert np.allclose(vbar_at(x, 0.7, GEOM, PARAMS), 0.0)

    def test_outer_product_eigenvalues(self):
        # vbar (x) vbar has eigenvalues {0, alpha^2}
        rng = np.random.default_rng(3)
        x = polar_to_cartesian(rng.uniform(1.0, 2.0, 300), rng.uniform(0, 2 * math.pi, 300))
        t = rng.uniform(0.0, 1.0, 300)
        v = vbar_at(x, t, GEOM, PARAMS)
        outer = v[..., :, None] * v[..., None, :]
        eigs = np.linalg.eigvalsh(outer)
        r = np.hypot(x[..., 0], x[..., 1])
        a2 = ss.alpha(r, t, GEOM, PARAMS) ** 2
        assert np.max(np.abs(eigs[:, 0])) < 1e-14
        assert np.max(np.abs(eigs[:, 1] - a2)) < 1e-14


class TestDeviatoricPart:
    def test_theta_zero_form(self):
        # at theta = 0 the matrix is [[beta, -gamma], [-gamma, -beta]]
        r, t = 1.45, 0.8
        u = ubar_at(np.array([r, 0.0]), t, GEOM, PARAMS)
        b = ss.beta(r, t, GEOM, PARAMS)
        g = ss.gamma(r, t, GEOM, PARAMS)
        assert np.allclose(u, [[b, -g], [-g, -b]], atol=1e-15)

    def test_symmetric_traceless(self):
        rng = np.random.default_rng(4)
        x = polar_to_cartesian(rng.uniform(1.0, 2.0, 300), rng.uniform(0, 2 * math.pi, 300))
        u = ubar_at(x, 0.6, GEOM, PARAMS)
        assert np.array_equal(u[..., 0, 1], u[..., 1, 0])
        assert np.array_equal(u[..., 0, 0], -u[..., 1, 1])

    def test_rotation_conjugation(self):
        # rotating the point conjugates the matrix by the rotation
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = rng.uniform(1.05, 1.95)
            th = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0, 1)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            u1 = ubar_at(polar_to_cartesian(r, th + phi), t, GEOM, PARAMS)
            u0 = ubar_at(polar_to_cartesian(r, th), t, GEOM, PARAMS)
            assert np.max(np.abs(u1 - rot @ u0 @ rot.T)) < 1e-14

    def test_diagonal_in_rotated_frame_outside_fan(self):
        # outside the fan gamma = 0 and beta = -1/(2 r^4)
        r, t = 1.2, 0.5
        assert ss.gamma(r, t, GEOM, PARAMS) == 0.0
        assert ss.beta(r, t, GEOM, PARAMS) == pytest.approx(-0.5 * r**-4, rel=1e-15)


class TestPressure:
    def test_stationary_inner_limit(self):
        assert ss.qbar(1.0 + 1e-12, 0.0, GEOM, PARAMS) == pytest.approx(0.5, abs=1e-9)

    def test_stationary_outer_value(self):
        # alpha^2/2 + int_1^2 s^-5 ds = 1/32 + 15/64
        assert ss.qbar(2.0, 0.0, GEOM, PARAMS) == pytest.approx(17.0 / 64.0, rel=1e-12)

    def test_quadrature_matches_antiderivative(self):
        rng = np.random.default_rng(6)
        for t in (0.0, 0.3, 0.8):
            r = np.sort(rng.uniform(1.0 + 1e-6, 2.0, 100))
            got = ss.qbar(r, t, GEOM, PARAMS)
            want = np.array(
                [0.5 * ss.alpha(rv, t, GEOM, PARAMS) ** 2
                 + pressure_integral_oracle(rv, t, GEOM, PARAMS) for rv in r]
            )
            assert np.max(np.abs(got - want)) < 1e-10

    def test_broadcasts_over_times(self):
        r = np.array([1.3, 1.5, 1.7])
        t = np.array([0.2, 0.5, 0.9])
        got = ss.qbar(r, t, GEOM, PARAMS)
        want = np.array([float(ss.qbar(rv, tv, GEOM, PARAMS)) for rv, tv in zip(r, t)])
        assert np.allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("lam", [1e-9, 1e-3, 0.1, 0.25, 0.6])
    def test_matches_adaptive_quad(self, lam):
        # at lam = 0.6 the fan's lower edge crosses rho for t > 5/6
        from scipy.integrate import quad

        params = SubsolutionParams(lam=lam, epsilon=0.5)
        for t in (0.0, 0.37, 1.0):
            w = lam * t
            edges = [e for e in (GEOM.r0 - w, GEOM.r0 + w) if GEOM.rho <= e <= GEOM.R]
            radii = np.array([GEOM.rho, 1.2, GEOM.r0 - 0.5 * w, GEOM.r0 + 0.3 * w, 1.8, GEOM.R, *edges])
            got = ss.qbar(radii, t, GEOM, params)

            def f_sq(s):
                f = np.clip((s - GEOM.r0) / w, -1.0, 1.0) if w > 0 else np.sign(s - GEOM.r0)
                return f * f

            for rv, gv in zip(radii, got):
                knots = sorted({GEOM.rho, rv, *(e for e in edges if GEOM.rho < e < rv)})
                integral = sum(
                    quad(lambda s: f_sq(s) / s**5, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                    for a, b in zip(knots[:-1], knots[1:])
                )
                want = 0.5 * f_sq(rv) / rv**4 + integral
                assert abs(gv - want) <= 2e-15, (lam, t, rv, gv - want)

    def test_scalar_input_returns_float(self):
        for r, t in ((1.5, 0.5), (1.2, 0.5), (1.7, 0.0)):
            assert type(ss.qbar(r, t, GEOM, PARAMS)) is float


class TestEnergyDensities:
    def test_egen_outside_fan(self):
        assert ss.egen(1.0 + 1e-9, 0.5, GEOM, PARAMS) == pytest.approx(0.5, rel=1e-7)

    def test_egen_fan_center(self):
        # (1/(2 r^4)) [1 - (1 - r^2 lam)] at r = 1.5, f = 0
        assert ss.egen(1.5, 0.4, GEOM, PARAMS) == pytest.approx(0.225 / 10.125, rel=1e-13)

    def test_ebar_fan_center(self):
        assert ss.ebar(1.5, 0.4, GEOM, PARAMS) == pytest.approx(0.6125 / 10.125, rel=1e-13)

    def test_ebar_epsilon_zero(self):
        p0 = SubsolutionParams(lam=0.1, epsilon=0.0)
        rng = np.random.default_rng(7)
        r = rng.uniform(1.0, 2.0, 200)
        t = rng.uniform(0.0, 1.0, 200)
        assert np.allclose(ss.ebar(r, t, GEOM, p0), 0.5 * r**-4, rtol=1e-15, atol=0.0)

    def test_ebar_outside_fan_epsilon_free(self):
        for eps in (0.0, 0.5, 0.9):
            p = SubsolutionParams(lam=0.1, epsilon=eps)
            assert ss.ebar(1.2, 0.5, GEOM, p) == pytest.approx(0.5 * 1.2**-4, rel=1e-15)

    def test_eigenvalue_oracle_agreement(self):
        rng = np.random.default_rng(8)
        n = 10_000
        r = rng.uniform(1.0, 2.0, n)
        th = rng.uniform(0, 2 * math.pi, n)
        t = rng.uniform(0.0, 1.0, n)
        x = polar_to_cartesian(r, th)
        closed = ss.egen(r, t, GEOM, PARAMS)
        oracle = ss.egen_from_state(vbar_at(x, t, GEOM, PARAMS), ubar_at(x, t, GEOM, PARAMS))
        assert np.max(np.abs(closed - oracle)) < 1e-12

    def test_gap_formula_exact(self):
        rng = np.random.default_rng(9)
        r = rng.uniform(1.0, 2.0, 1000)
        t = rng.uniform(0.0, 1.0, 1000)
        gap = ss.ebar(r, t, GEOM, PARAMS) - ss.egen(r, t, GEOM, PARAMS)
        assert np.max(np.abs(gap - ss.energy_gap(r, t, GEOM, PARAMS))) < 1e-14

    def test_pointwise_chain(self):
        # |vbar|^2/2 <= egen <= ebar <= 1/(2 r^4) for epsilon in [0, 1]
        rng = np.random.default_rng(10)
        r = rng.uniform(1.0, 2.0, 500)
        t = rng.uniform(0.0, 1.0, 500)
        for eps in (0.0, 0.3, 1.0):
            p = SubsolutionParams(lam=0.1, epsilon=eps)
            f = ss.f_profile(r, t, GEOM, p)
            kinetic = f**2 / (2.0 * r**4)
            e_gen = ss.egen(r, t, GEOM, p)
            e_bar = ss.ebar(r, t, GEOM, p)
            assert np.all(kinetic <= e_gen + 1e-15)
            assert np.all(e_gen <= e_bar + 1e-15)
            assert np.all(e_bar <= 0.5 * r**-4 + 1e-15)


class TestTurbulentRegion:
    """The open band U = {r0 - lam t < r < r0 + lam t} through ``in_band``."""

    def test_empty_at_t0(self):
        r = np.linspace(1.0, 2.0, 100)
        assert not np.any(ss.in_band(r, 0.0, GEOM, PARAMS))

    @pytest.mark.parametrize("lam", [0.0, -0.1, -2.0])
    def test_empty_for_lam_not_positive(self, lam):
        r = np.linspace(1.0, 2.0, 101)[:, None]
        t = np.linspace(0.0, GEOM.T, 11)
        assert not np.any(ss.in_band(r, t, GEOM, SubsolutionParams(lam=lam, epsilon=0.5)))

    def test_walls_are_outside(self):
        # at lam = 0.6, t = 1 the fan covers the annulus; the walls are not in it
        p = SubsolutionParams(lam=0.6, epsilon=0.5)
        assert ss.in_band(np.array([1.0 + 1e-12, 2.0 - 1e-12]), 1.0, GEOM, p).all()
        assert not ss.in_band(np.array([GEOM.rho, GEOM.R]), 1.0, GEOM, p).any()

    def test_inside_domain_for_valid_params(self):
        left, right = fan_interval(GEOM.T, GEOM, PARAMS.lam)
        assert GEOM.rho < left < right < GEOM.R

    def test_membership(self):
        assert ss.in_band(1.5, 0.1, GEOM, PARAMS)
        assert not ss.in_band(1.45, 0.5, GEOM, PARAMS)  # edge point: open band
        assert ss.in_band(1.46, 0.5, GEOM, PARAMS)
        assert not ss.in_band(1.4, 0.5, GEOM, PARAMS)


def grid(n_r, n_theta, n_t, ra=GEOM.rho, rb=GEOM.R):
    """Radial cell centers on (ra, rb), equally spaced angles, times over [0, T]."""
    r = ra + (np.arange(n_r) + 0.5) * (rb - ra) / n_r
    return r, np.arange(n_theta) * (2.0 * math.pi / n_theta), np.linspace(0.0, GEOM.T, n_t)


class TestConstraintStructure:
    def test_dichotomy_default(self):
        results = ss.check_constraint_structure(GEOM, PARAMS, *grid(100, 16, 10))
        assert results["ok"] is True
        assert results["first_violation"] is None
        assert results["strictness_applicable"]
        assert results["n_in_band"] > 0
        assert results["evidence"] == results["n_samples"] == 16_000
        assert results["min_gap_in_band"] > 0.0
        assert results["max_gap_formula_dev"] < 1e-13
        assert results["max_eq_dev_outside"] < 1e-13

    def test_t0_all_equality(self):
        # equality holds on every t = 0 sample, but with no band sample the
        # strict gap has no evidence, so the check cannot pass
        results = ss.check_constraint_structure(GEOM, PARAMS, *grid(50, 8, 1))
        assert results["n_in_band"] == 0
        assert results["min_gap_in_band"] is None
        assert results["max_eq_dev_outside"] == 0
        assert results["first_violation"]["kind"] == "no_evidence"
        assert results["ok"] is False

    def test_sub_annulus_restriction(self):
        # the restriction of the construction to a sub-annulus satisfies the same dichotomy
        results = ss.check_constraint_structure(GEOM, PARAMS, *grid(60, 8, 6, rb=1.5))
        assert results["ok"] is True
        assert results["n_in_band"] > 0  # the band protrudes into (1.4, 1.5)

    def test_epsilon_at_one_flagged(self):
        p1 = SubsolutionParams(lam=0.1, epsilon=1.0)
        results = ss.check_constraint_structure(GEOM, p1, *grid(40, 4, 5))
        assert results["strictness_applicable"] is False
        assert results["ok"] is True  # equality holds everywhere when epsilon = 1

    def test_strictness_failure_names_a_band_sample(self, monkeypatch):
        # a closed-form egen equal to ebar closes the gap the check must see open
        monkeypatch.setattr(ss, "egen", ss.ebar)
        results = ss.check_constraint_structure(GEOM, PARAMS, *grid(40, 4, 5))
        first = results["first_violation"]
        assert results["ok"] is False and first["kind"] == "strictness"
        assert ss.in_band(first["r"], first["t"], GEOM, PARAMS)
        assert first["egen"] == first["ebar"]

    @pytest.mark.parametrize("n_t, n_r, n_theta", [(3, 7, 5), (1, 4, 2), (2, 0, 3)])
    def test_sample_columns_match_the_meshgrid_table(self, n_t, n_r, n_theta):
        # every field evaluated at every (t, r, theta) node of a meshgrid; float
        # columns compared by their bits, so gamma's -0.0 must stay -0.0
        r, theta, t = grid(n_r, n_theta, n_t)
        T, Rg, TH = np.meshgrid(t, r, theta, indexing="ij")
        v = ss.azimuthal(ss.alpha(Rg, T, GEOM, PARAMS), TH)
        u11, u12 = ss.ubar_entries(Rg, TH, T, GEOM, PARAMS)
        fields = {name: getattr(ss, name)(Rg, T, GEOM, PARAMS)
                  for name in ("alpha", "beta", "gamma", "qbar", "egen", "ebar")}
        want = {"r": Rg, "theta": TH, "t": T, "f": ss.f_profile(Rg, T, GEOM, PARAMS), **fields,
                "vbar_x": v[..., 0], "vbar_y": v[..., 1], "u11": u11, "u12": u12,
                "in_U": ss.in_band(Rg, T, GEOM, PARAMS)}
        cols = ss.sample_columns(GEOM, PARAMS, r, theta, t)
        assert set(cols) == set(want)
        for name, column in cols.items():
            # the table's rows are its columns broadcast to the grid, in C order
            column = np.broadcast_to(column, (n_t, n_r, n_theta)).ravel()
            expected = np.asarray(want[name]).ravel()
            assert column.dtype == expected.dtype, name
            if column.dtype == float:
                assert np.array_equal(column.view(np.uint64), expected.view(np.uint64)), name
            else:
                assert np.array_equal(column, expected), name
        assert n_r == 0 or np.any(np.signbit(cols["gamma"]) & (cols["gamma"] == 0.0))

    def test_sample_columns_contract(self):
        cols = ss.sample_columns(GEOM, PARAMS, np.array([1.3, 1.5, 1.7]), np.array([0.0, 1.0]),
                                 np.array([0.0, 0.5]))
        expected = ["r", "theta", "t", "f", "alpha", "beta", "gamma", "qbar",
                    "vbar_x", "vbar_y", "u11", "u12", "egen", "ebar", "in_U"]
        assert list(cols.keys()) == expected
        # nothing is expanded: radial fields once per (t, r) node, and only the
        # four angle-dependent fields per sample
        shapes = {"r": (3, 1), "theta": (2,), "t": (2, 1, 1),
                  **dict.fromkeys(["vbar_x", "vbar_y", "u11", "u12"], (2, 3, 2))}
        assert {k: v.shape for k, v in cols.items()} == {k: shapes.get(k, (2, 3, 1)) for k in expected}
        # t = 0 rows carry in_U = False
        assert not np.any(cols["in_U"][cols["t"][:, 0, 0] == 0.0])

        # the table's rows are the columns broadcast to the grid, in C order
        cols = {k: np.broadcast_to(v, (2, 3, 2)).ravel() for k, v in cols.items()}
        assert np.array_equal(cols["t"], np.repeat([0.0, 0.5], 6))
        assert np.array_equal(cols["theta"], np.tile([0.0, 1.0], 6))

        # the table's vbar, beta and gamma are the field functions themselves,
        # bit for bit (signed zeros included: vbar_x is -0.0 at theta = 0 inside r0)
        r = np.array([1.3, GEOM.r0, 1.7])
        theta = np.array([0.0, 0.5 * math.pi, math.pi])
        t = np.array([0.0, 0.5])
        cols = {k: np.broadcast_to(v, (2, 3, 3)).ravel()
                for k, v in ss.sample_columns(GEOM, PARAMS, r, theta, t).items()}
        T, Rg, TH = np.meshgrid(t, r, theta, indexing="ij")
        x = polar_to_cartesian(Rg, TH)
        r_back, th_back = cartesian_to_polar(x)
        assert np.array_equal(r_back, Rg) and np.array_equal(th_back, TH)  # exact round trip
        v = vbar_at(x, T, GEOM, PARAMS)
        assert cols["vbar_x"].tobytes() == v[..., 0].ravel().tobytes()
        assert cols["vbar_y"].tobytes() == v[..., 1].ravel().tobytes()
        assert cols["beta"].tobytes() == ss.beta(Rg, T, GEOM, PARAMS).ravel().tobytes()
        assert cols["gamma"].tobytes() == ss.gamma(Rg, T, GEOM, PARAMS).ravel().tobytes()
        inside_zero = (cols["r"] < GEOM.r0) & (cols["theta"] == 0.0)
        assert np.all(np.signbit(cols["vbar_x"][inside_zero]))
