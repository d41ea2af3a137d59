import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsub.burgers import (
    CFLError,
    FVState,
    _godunov_flux,
    compare_exact_vs_fv,
    fan_interval,
    godunov_solve,
    godunov_step,
    initial_state,
    rarefaction,
)
from rotsub.geometry import AnnulusGeometry, SubsolutionParams

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)
PARAMS = SubsolutionParams(lam=0.1, epsilon=0.5)


class TestRarefaction:
    def test_left_plateau(self):
        # 1.2 < 1.5 - 0.1*0.5 = 1.45
        assert rarefaction(1.2, 0.5, 1.5, 0.1) == -1.0

    def test_fan_center(self):
        assert rarefaction(1.5, 0.4, 1.5, 0.1) == 0.0

    def test_fan_ramp_value(self):
        # (1.48 - 1.5) / (0.1 * 0.5) = -0.4
        assert rarefaction(1.48, 0.5, 1.5, 0.1) == pytest.approx(-0.4, abs=1e-14)

    def test_initial_time_is_sign(self):
        r = np.array([1.2, 1.5, 1.7])
        assert np.array_equal(rarefaction(r, 0.0, 1.5, 0.1), np.array([-1.0, 0.0, 1.0]))

    def test_edge_values_one_sided(self):
        t, lam = 0.5, 0.1
        left, right = fan_interval(t, 1.5, lam)
        assert rarefaction(left, t, 1.5, lam) == -1.0
        assert rarefaction(right, t, 1.5, lam) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.01, max_value=0.24))
    def test_monotone_in_r(self, t, lam):
        r = np.linspace(1.0, 2.0, 400)
        f = rarefaction(r, t, 1.5, lam)
        assert np.all(np.diff(f) >= 0.0)
        assert np.all(np.abs(f) <= 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=2.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_self_similarity(self, r, t, c):
        lam = 0.1
        a = rarefaction(r, t, 1.5, lam)
        b = rarefaction(r, c * t, 1.5, lam / c)
        assert a == pytest.approx(b, abs=1e-13)


class TestGodunov:
    def test_constant_state_fixed_point(self):
        state = FVState(edges=np.linspace(GEOM.rho, GEOM.R, 65), averages=np.ones(64), t=0.0, lam=0.1)
        start = state.averages.copy()
        for _ in range(20):
            state = godunov_step(state, 0.5 * state.h / 0.1)
        assert np.max(np.abs(state.averages - start)) < 1e-14
        assert np.max(np.abs(state.averages - 1.0)) < 1e-14

    def test_mass_conserved(self):
        state = initial_state(GEOM, 0.1, 500)
        mass0 = state.mass
        dt = 0.9 * state.h / 0.1
        for _ in range(100):
            state = godunov_step(state, dt)
        assert abs(state.mass - mass0) < 1e-10

    def test_cfl_violation_rejected(self):
        state = initial_state(GEOM, 0.1, 100)
        with pytest.raises(CFLError):
            godunov_step(state, 2.0 * state.h / 0.1)

    def test_maximum_principle(self):
        state = godunov_solve(GEOM, 0.1, 0.5, 800)
        assert np.all(np.abs(state.averages) <= 1.0 + 1e-12)


class TestExactVsFV:
    def test_l1_first_order_ratios(self):
        errors = [compare_exact_vs_fv(GEOM, PARAMS, 0.5, n)[0] for n in (2000, 4000, 8000)]
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        for ratio in ratios:
            assert 1.7 <= ratio <= 2.3

    def test_coarse_meshes_still_decrease(self):
        errors = [compare_exact_vs_fv(GEOM, PARAMS, 0.5, n)[0] for n in (250, 500, 1000)]
        assert errors[0] > errors[1] > errors[2]

    def test_projection_error_at_t0(self):
        n = 501  # odd: the jump falls inside a cell
        l1, _, _ = compare_exact_vs_fv(GEOM, PARAMS, 0.0, n)
        h = GEOM.width / n
        assert l1 <= 2.0 * h + 1e-12

    def test_linf_away_from_edges_smaller_than_global(self):
        state = godunov_solve(GEOM, PARAMS.lam, 0.5, 2000)
        exact = rarefaction(state.centers, 0.5, GEOM.r0, PARAMS.lam)
        global_linf = float(np.max(np.abs(state.averages - exact)))
        _, interior_linf, _ = compare_exact_vs_fv(GEOM, PARAMS, 0.5, 2000)
        assert interior_linf < global_linf

    def test_linf_skips_two_cells_either_side_of_each_fan_edge(self):
        # at 2000 cells and t = 0.5 the fan edges 1.45 and 1.55 are the cell
        # edges 900 and 1100; the largest error left is in the third cell
        # inside the fan from either edge
        state = godunov_solve(GEOM, PARAMS.lam, 0.5, 2000)
        assert state.edges[900] == pytest.approx(1.45, abs=1e-14)
        assert state.edges[1100] == pytest.approx(1.55, abs=1e-14)
        diff = np.abs(state.averages - rarefaction(state.centers, 0.5, GEOM.r0, PARAMS.lam))
        kept = np.delete(diff, [898, 899, 900, 901, 1098, 1099, 1100, 1101])
        _, linf, _ = compare_exact_vs_fv(GEOM, PARAMS, 0.5, 2000)
        assert linf == kept.max() == diff[902] == diff[1097]

    def test_fan_width_scales_with_lambda(self):
        for lam, t in [(0.1, 0.5), (0.05, 0.5), (0.025, 0.5)]:
            left, right = fan_interval(t, GEOM.r0, lam)
            assert right - left == pytest.approx(2.0 * lam * t, rel=1e-14)


def test_weak_form_of_conservation_law():
    """The fan profile satisfies the weak conservation-law identity.

    For a compactly supported phi(r, t), the quadrature of
    f * phi_t + (lam/2) f^2 * phi_r over the support tends to zero; panels are
    pinned to the fan edges per time node so each panel integrand is smooth.
    """
    from rotsub.quadrature import edges_with_breaks, panel_rule
    from rotsub.weakform import BumpProfile

    lam = 0.1
    bump_r = BumpProfile(1.2, 1.8)
    bump_t = BumpProfile(0.1, 0.9)

    def residual(cells, order):
        t_nodes, t_weights = panel_rule(edges_with_breaks(0.1, 0.9, cells), order)
        total = 0.0
        for tv, wt in zip(t_nodes, t_weights):
            left, right = fan_interval(tv, 1.5, lam)
            r_nodes, r_weights = panel_rule(
                edges_with_breaks(1.2, 1.8, cells, (left, right)), order
            )
            f = rarefaction(r_nodes, tv, 1.5, lam)
            phi_t = bump_r.value(r_nodes) * bump_t.deriv(tv)
            phi_r = bump_r.deriv(r_nodes) * bump_t.value(tv)
            total += wt * np.dot(r_weights, f * phi_t + 0.5 * lam * f**2 * phi_r)
        return abs(total)

    coarse = residual(2, 4)
    fine = residual(4, 4)
    assert fine < 1e-9
    assert fine < coarse


def _riemann_flux_by_cases(u_left, u_right, lam):
    """Godunov flux of (lam/2) u^2 written out case by case (reference)."""
    q_left = 0.5 * lam * u_left**2
    q_right = 0.5 * lam * u_right**2
    rarefying = u_left <= u_right
    through_zero = (u_left <= 0.0) & (u_right >= 0.0)
    return np.where(
        rarefying,
        np.where(through_zero, 0.0, np.minimum(q_left, q_right)),
        np.maximum(q_left, q_right),
    )


class TestGodunovFlux:
    @staticmethod
    def assert_bit_equal(u_left, u_right, lam):
        got = _godunov_flux(u_left, u_right, lam)
        want = _riemann_flux_by_cases(u_left, u_right, lam)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sign_and_tie_cases(self):
        values = np.array([-1.0, -0.5, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0])
        u_left, u_right = np.meshgrid(values, values, indexing="ij")
        for lam in (0.1, 0.25, 1.0):
            self.assert_bit_equal(u_left.ravel(), u_right.ravel(), lam)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0)),
            min_size=1, max_size=50,
        ),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_random_states(self, pairs, lam):
        u_left, u_right = np.array(pairs, dtype=float).T
        self.assert_bit_equal(u_left, u_right, lam)
