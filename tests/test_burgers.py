import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsub import burgers
from rotsub.burgers import (
    CFL,
    CFLError,
    FVState,
    _godunov_flux,
    compare_exact_vs_fv,
    fan_interval,
    fan_span,
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
        left, right = fan_interval(t, GEOM, lam)
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
        mass0 = state.h * state.averages.sum()
        dt = 0.9 * state.h / 0.1
        for _ in range(100):
            state = godunov_step(state, dt)
        assert abs(state.h * state.averages.sum() - mass0) < 1e-10

    def test_cfl_violation_rejected(self):
        state = initial_state(GEOM, 0.1, 100)
        with pytest.raises(CFLError):
            godunov_step(state, 2.0 * state.h / 0.1)

    def test_maximum_principle(self):
        state = godunov_solve(GEOM, 0.1, 0.5, 800)
        assert np.all(np.abs(state.averages) <= 1.0 + 1e-12)


def _full_grid_solve(geom, lam, t_end, n_cells):
    """Every cell updated at every step (reference for the windowed solve)."""
    state = burgers.initial_state(geom, lam, n_cells)
    if t_end == 0:
        return state
    speed = lam * max(float(np.max(np.abs(state.averages))), 1.0)
    n_steps = max(1, math.ceil(t_end * speed / (CFL * state.h)))
    for _ in range(n_steps):
        state = godunov_step(state, t_end / n_steps)
    return state


class TestActiveWindow:
    @staticmethod
    def assert_same(geom, lam, t_end, n_cells):
        got = godunov_solve(geom, lam, t_end, n_cells)
        want = _full_grid_solve(geom, lam, t_end, n_cells)
        assert np.array_equal(got.averages, want.averages)
        assert got.t == want.t
        assert np.array_equal(got.edges, want.edges) and got.h == want.h

    # 501 and 999 cells put the jump inside a cell
    @pytest.mark.parametrize("n_cells", [2, 3, 40, 501, 999, 2000, 4000])
    @pytest.mark.parametrize("t_end", [0.0, 0.013, 0.5, 1.0])
    def test_bit_identical_to_full_grid(self, n_cells, t_end):
        self.assert_same(GEOM, 0.1, t_end, n_cells)

    @pytest.mark.parametrize("n_cells", [200, 201])
    def test_jump_one_cell_from_the_wall(self, n_cells):
        geom = AnnulusGeometry(rho=1.0, R=2.0, r0=1.0 + 1.0 / 200, T=1.0)
        self.assert_same(geom, 0.1, 1.0, n_cells)
        self.assert_same(geom, 0.1, 0.0, n_cells)

    @pytest.mark.parametrize("n_cells", [300, 301])
    def test_fan_reaching_both_walls(self, n_cells):
        state = godunov_solve(GEOM, 2.0, 1.0, n_cells)
        # the fan of width 2 lam t = 4 covers the annulus: no cell is left at +-1
        assert np.all(np.abs(state.averages) < 0.99)
        self.assert_same(GEOM, 2.0, 1.0, n_cells)

    @pytest.mark.parametrize("value", [1.0, 0.3, -0.7])
    def test_state_without_jump(self, monkeypatch, value):
        def constant(geom, lam, n_cells):
            edges = np.linspace(geom.rho, geom.R, n_cells + 1)
            return FVState(edges=edges, averages=np.full(n_cells, value), t=0.0, lam=lam)

        monkeypatch.setattr(burgers, "initial_state", constant)
        self.assert_same(GEOM, 0.1, 0.5, 64)
        assert np.all(godunov_solve(GEOM, 0.1, 0.5, 64).averages == value)

    def test_one_cell(self):
        self.assert_same(GEOM, 0.1, 0.5, 1)


def test_solve_calls_godunov_step_once_per_step(monkeypatch):
    step = burgers.godunov_step
    calls = []

    def counted(state, dt):
        calls.append(state.averages.size)
        return step(state, dt)

    monkeypatch.setattr(burgers, "godunov_step", counted)
    t_end, lam, n_cells = 0.5, 0.1, 1000
    state = godunov_solve(GEOM, lam, t_end, n_cells)
    u0 = initial_state(GEOM, lam, n_cells).averages
    expected = math.ceil(t_end * lam * max(np.max(np.abs(u0)), 1.0) / (CFL * state.h))
    assert len(calls) == expected
    # each step updates a window that grows by one cell per side from the two cells at the jump
    assert calls == [min(2 + 2 * k, n_cells) for k in range(expected)]


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
            left, right = fan_interval(t, GEOM, lam)
            assert right - left == pytest.approx(2.0 * lam * t, rel=1e-14)


class TestFanInterval:
    """The fan's interval cut to the annulus, in r and in u = (r - r0)/(lam t)."""

    def test_empty_at_t0(self):
        assert fan_interval(0.0, GEOM, 0.1) == (GEOM.r0, GEOM.r0)
        assert fan_span(0.0, GEOM, 0.1) == (-1.0, 1.0)

    def test_empty_for_negative_lam(self):
        t = np.linspace(0.0, GEOM.T, 11)[1:]
        low, high = fan_interval(t, GEOM, -0.1)
        assert np.all(low > high)
        u_low, u_high = fan_span(t, GEOM, -0.1)
        assert np.all(u_low > u_high)

    def test_huge_lam_fills_the_annulus(self):
        assert fan_interval(GEOM.T, GEOM, 1e308) == (GEOM.rho, GEOM.R)

    def test_uncut_fan_is_the_plain_interval(self):
        # the 2000 times of the table workload: at lam = 0.1 no wall cuts the fan
        t = np.linspace(0.0, GEOM.T, 2000)
        low, high = fan_interval(t, GEOM, 0.1)
        assert np.array_equal(low, GEOM.r0 - 0.1 * t)
        assert np.array_equal(high, GEOM.r0 + 0.1 * t)
        u_low, u_high = fan_span(t, GEOM, 0.1)
        assert np.all(u_low == -1.0) and np.all(u_high == 1.0)

    def test_walls_cut_the_fan(self):
        # at lam = 0.6 the fan reaches both walls at t = 5/6
        assert fan_span(0.8, GEOM, 0.6) == (-1.0, 1.0)
        assert fan_interval(1.0, GEOM, 0.6) == (GEOM.rho, GEOM.R)
        u_low, u_high = fan_span(1.0, GEOM, 0.6)
        assert u_low == pytest.approx(-0.5 / 0.6, rel=1e-15)
        assert u_high == pytest.approx(0.5 / 0.6, rel=1e-15)


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
            left, right = fan_interval(tv, GEOM, lam)
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
