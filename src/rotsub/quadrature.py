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

    Returns flat (nodes, weights) arrays covering [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be a strictly increasing 1-D array with >= 2 entries")
    xi, wi = _leggauss(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b) + half * xi[None, :]).ravel()
    weights = (half * wi[None, :]).ravel()
    return nodes, weights


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
    """Flattened tensor-product rule; node columns are (r, theta) or (r, theta, t).

    ``weights`` already include the polar Jacobian r.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights must have matching lengths")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def r(self):
        return self.nodes[:, 0]

    @property
    def theta(self):
        return self.nodes[:, 1]

    @property
    def t(self):
        return self.nodes[:, 2]

    def integrate(self, values):
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


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
    R, TH = np.meshgrid(rn, tn, indexing="ij")
    W = np.outer(rw, tw) * R
    nodes = np.stack([R.ravel(), TH.ravel()], axis=-1)
    return QuadratureRule(nodes=nodes, weights=W.ravel())


def spacetime_rule(
    geom: AnnulusGeometry,
    t_span,
    r_span=None,
    cells=(4, 4, 4),
    order: int = 8,
    r_breaks_at=None,
    t_breaks=(),
) -> QuadratureRule:
    """Space-time rule with node columns (r, theta, t).

    ``r_breaks_at``, when given, maps a time to break radii (clipped to the
    radial span); the radial panels are rebuilt around them for every t node,
    which keeps panels aligned with moving kink curves such as the band edges.
    ``t_breaks`` forces panel edges at times where those curves cross the
    radial span boundary.
    """
    ra, rb = r_span if r_span is not None else (geom.rho, geom.R)
    ta, tb = t_span
    r_cells, theta_cells, t_cells = cells
    tn, tw = panel_rule(edges_with_breaks(ta, tb, t_cells, t_breaks), order)
    an, aw = panel_rule(edges_with_breaks(0.0, TWO_PI, theta_cells), order)

    blocks_nodes = []
    blocks_weights = []
    for t_node, t_weight in zip(tn, tw):
        breaks = () if r_breaks_at is None else r_breaks_at(t_node)
        rn, rw = panel_rule(edges_with_breaks(ra, rb, r_cells, breaks), order)
        R, TH = np.meshgrid(rn, an, indexing="ij")
        W = np.outer(rw, aw) * R * t_weight
        blocks_nodes.append(
            np.stack([R.ravel(), TH.ravel(), np.full(R.size, t_node)], axis=-1)
        )
        blocks_weights.append(W.ravel())
    return QuadratureRule(
        nodes=np.concatenate(blocks_nodes, axis=0),
        weights=np.concatenate(blocks_weights),
    )
