"""Tolerances for results computed from a matrix, scaled by how far
rounding alone can move them."""

import numpy as np


def rounding_tolerance(m: np.ndarray) -> float:
    """``cond(M) * eps``: the relative change that rounding alone can make
    in a solve against, or an inverse of, the matrix ``M``. A fixed
    tolerance is too loose for a well-conditioned M and too tight for an
    ill-conditioned one."""
    return float(np.linalg.cond(m) * np.finfo(float).eps)


def dot_product_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``2 w eps`` times the sums of absolute terms of ``a @ b``, w the
    length of each dot product: the most by which two evaluations of
    ``a @ b`` that sum the same products in other orders (another BLAS
    kernel, other blocks of rows) can differ."""
    return 2 * a.shape[-1] * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
