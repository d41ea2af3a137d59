import math

import numpy as np
import pytest

from rotsub.geometry import AnnulusGeometry
from rotsub.quadrature import annulus_rule, edges_with_breaks, panel_rule, spacetime_rule

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)


def test_panel_rule_polynomial_exactness():
    nodes, weights = panel_rule(np.array([0.0, 0.3, 1.0]), order=4)
    # 4-point Gauss is exact through degree 7
    for k in range(8):
        assert np.dot(weights, nodes**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_panel_rule_rejects_bad_edges():
    with pytest.raises(ValueError):
        panel_rule(np.array([0.0, 0.0, 1.0]), order=4)


def test_edges_with_breaks_contains_breaks():
    edges = edges_with_breaks(1.0, 2.0, 8, breaks=(1.45, 1.55))
    assert 1.45 in edges and 1.55 in edges
    assert np.all(np.diff(edges) > 0)
    # breaks outside the interval are ignored
    edges = edges_with_breaks(1.0, 2.0, 4, breaks=(0.5, 2.5))
    assert edges[0] == 1.0 and edges[-1] == 2.0


def test_annulus_measure():
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = rng.uniform(0.3, 1.5)
        R = rho + rng.uniform(0.5, 2.0)
        geom = AnnulusGeometry(rho=rho, R=R, r0=0.5 * (rho + R), T=1.0)
        rule = annulus_rule(geom)
        measure = math.pi * (R**2 - rho**2)
        assert rule.weights.sum() == pytest.approx(measure, rel=1e-12)
        assert np.all(rule.weights > 0)


def test_annulus_rule_integrates_radial_power():
    rule = annulus_rule(GEOM, r_cells=4, theta_cells=2, order=10)
    # int r^-3 dx = 2 pi [r^-1... ] -> pi (rho^-2 - R^-2) for the r^-4 integrand
    val = rule.integrate(rule.r**-4.0)
    assert val == pytest.approx(math.pi * (1.0 - 0.25), rel=1e-12)


def test_spacetime_rule_volume_and_breaks():
    rule = spacetime_rule(
        GEOM,
        (0.2, 0.8),
        r_span=(1.2, 1.8),
        cells=(3, 3, 3),
        order=6,
        r_breaks_at=lambda t: (1.5 - 0.1 * t, 1.5 + 0.1 * t),
    )
    volume = 0.5 * (1.8**2 - 1.2**2) * 2.0 * math.pi * 0.6
    assert rule.integrate(np.ones_like(rule.r)) == pytest.approx(volume, rel=1e-12)
    assert rule.nodes.shape[1] == 3


def test_spacetime_rule_integrates_kinked_function():
    # |r - (1.5 + 0.1 t)| has a kink along the moving break; aligned panels
    # integrate it to machine accuracy
    def integrand(r, t):
        return np.abs(r - (1.5 + 0.1 * t))

    def exact():
        # int_0^1 int_0^{2pi} int_{1.4}^{1.6} |r - c(t)| r dr dth dt, c = 1.5 + 0.1 t
        from scipy import integrate

        def inner(t):
            c = 1.5 + 0.1 * t
            f = lambda r: abs(r - c) * r
            lo, _ = integrate.quad(f, 1.4, c)
            hi, _ = integrate.quad(f, c, 1.6)
            return lo + hi

        val, _ = integrate.quad(inner, 0.0, 1.0)
        return 2.0 * math.pi * val

    rule = spacetime_rule(
        GEOM,
        (0.0, 1.0),
        r_span=(1.4, 1.6),
        cells=(2, 2, 2),
        order=8,
        r_breaks_at=lambda t: (1.5 + 0.1 * t,),
    )
    assert rule.integrate(integrand(rule.r, rule.t)) == pytest.approx(exact(), rel=1e-10)


def test_weights_positive_rejected_if_nonpositive():
    from rotsub.quadrature import QuadratureRule

    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.zeros((2, 2)), weights=np.array([1.0, -1.0]))
