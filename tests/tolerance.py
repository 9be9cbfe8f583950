"""Tolerances for results computed from a matrix, scaled by how far
rounding alone can move them."""

import numpy as np


def rounding_tolerance(m: np.ndarray) -> float:
    """``cond(M) * eps``: the relative change that rounding alone can make
    in a solve against, or an inverse of, the matrix ``M``. A fixed
    tolerance is too loose for a well-conditioned M and too tight for an
    ill-conditioned one."""
    return float(np.linalg.cond(m) * np.finfo(float).eps)
