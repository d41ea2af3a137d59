"""Rotational flow subsolutions on a planar annulus, with numerical verification tools."""

import os

# OpenBLAS starts a pool of busy-waiting worker threads as soon as it loads, and
# rotsub's BLAS calls are level 1 and 2, so one thread does the same work without the spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .geometry import (
    AnnulusGeometry,
    SubsolutionParams,
    boundary_distance,
    cartesian_to_polar,
    polar_to_cartesian,
    validate_params,
)

__all__ = [
    "AnnulusGeometry",
    "SubsolutionParams",
    "boundary_distance",
    "cartesian_to_polar",
    "polar_to_cartesian",
    "validate_params",
    "__version__",
]
