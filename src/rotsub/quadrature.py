"""Composite Gauss-Legendre quadrature on intervals, annuli, and space-time boxes.

Panel edges can be forced through prescribed break radii (e.g. the edges of the
expanding mixing band), so piecewise-smooth integrands stay smooth on every
panel.  All annulus rules fold the polar Jacobian r into the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import AnnulusGeometry

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=None)
def _leggauss(order: int):
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    return np.polynomial.legendre.leggauss(order)


def panel_rule(edges, order: int):
    """Composite Gauss-Legendre rule on the panels defined by ``edges``.

    Returns (nodes, weights) covering [edges[..., 0], edges[..., -1]], flat
    along the last axis; leading axes of ``edges`` stack independent rules.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim < 1 or edges.shape[-1] < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing along the last axis, with >= 2 entries")
    xi, wi = _leggauss(order)
    a = edges[..., :-1, None]
    b = edges[..., 1:, None]
    half = 0.5 * (b - a)
    shape = (*edges.shape[:-1], (edges.shape[-1] - 1) * order)
    return (0.5 * (a + b) + half * xi).reshape(shape), (half * wi).reshape(shape)


def edges_with_breaks(a: float, b: float, cells: int, breaks=()):
    """Panel edges over [a, b]: ``cells`` panels total (approximately), with
    every interior break from ``breaks`` forced to be a panel edge.

    Each gap between consecutive knots receives panels proportional to its
    length (at least one), so refinement behaves uniformly.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if cells < 1:
        raise ValueError(f"need cells >= 1, got {cells}")
    interior = sorted({float(c) for c in breaks if a < c < b})
    knots = [a] + interior + [b]
    edges = [a]
    for lo, hi in zip(knots[:-1], knots[1:]):
        n = max(1, round(cells * (hi - lo) / (b - a)))
        edges.extend(np.linspace(lo, hi, n + 1)[1:])
    return np.asarray(edges)


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product rule in broadcast form: radii ``r`` as an (M, 1) column,
    angles ``theta`` as a (K,) row, times ``t`` as an (M, 1) column beside the
    radii (None on an annulus) and ``weights`` (M, K).

    A radially symmetric field evaluated on (r, t) is taken once per radial
    node and broadcast over theta.  ``weights`` already include the polar
    Jacobian r.
    """

    r: np.ndarray
    theta: np.ndarray
    t: np.ndarray | None
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    def integrate(self, values):
        values = np.broadcast_to(np.asarray(values, dtype=float), self.weights.shape)
        return float(np.dot(self.weights.ravel(), values.ravel()))


def annulus_rule(
    geom: AnnulusGeometry,
    r_cells: int = 4,
    theta_cells: int = 4,
    order: int = 8,
    r_breaks=(),
    r_span=None,
) -> QuadratureRule:
    """Tensor rule on {r_span} x [0, 2 pi) with the polar Jacobian folded in."""
    ra, rb = r_span if r_span is not None else (geom.rho, geom.R)
    rn, rw = panel_rule(edges_with_breaks(ra, rb, r_cells, r_breaks), order)
    tn, tw = panel_rule(edges_with_breaks(0.0, TWO_PI, theta_cells), order)
    r = rn[:, None]
    return QuadratureRule(r=r, theta=tn, t=None, weights=np.outer(rw, tw) * r)


def spacetime_rule(t_span, r_span, r_breaks_at, cells=(4, 4, 4), order: int = 8,
                   t_breaks=()) -> QuadratureRule:
    """Space-time rule over r_span x [0, 2 pi) x t_span.

    ``r_breaks_at`` maps a time to break radii (clipped to the radial span);
    the radial panels are rebuilt around them for every t node, which keeps
    panels aligned with moving kink curves such as the band edges.  So the
    (r, t) nodes form one ragged column: each time node's radii in turn.
    ``t_breaks`` forces panel edges at times where those curves cross the
    radial span boundary.
    """
    ra, rb = r_span
    ta, tb = t_span
    r_cells, theta_cells, t_cells = cells
    tn, tw = panel_rule(edges_with_breaks(ta, tb, t_cells, t_breaks), order)
    an, aw = panel_rule(edges_with_breaks(0.0, TWO_PI, theta_cells), order)

    radii = []
    weights = []
    for t_node, t_weight in zip(tn, tw):
        rn, rw = panel_rule(edges_with_breaks(ra, rb, r_cells, r_breaks_at(t_node)), order)
        r = rn[:, None]
        radii.append(r)
        weights.append(np.outer(rw, aw) * r * t_weight)
    r = np.concatenate(radii)
    t = np.repeat(tn, [block.size for block in radii])[:, None]
    return QuadratureRule(r=r, theta=an, t=t, weights=np.concatenate(weights))
