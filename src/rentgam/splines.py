"""B-spline bases on equally spaced knots, with difference penalties,
tensor products and identifiability transforms.

The basis construction follows the penalized-spline convention: the
domain is divided into equal segments, the boundary-to-boundary knots
are padded with ``degree`` extra knots on each side at the same
spacing, and the resulting basis has ``segments + degree`` functions.
Smoothness is controlled not by knot placement but by a difference
penalty on the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from .errors import OutOfDomainError

__all__ = [
    "KnotVector",
    "ConstraintTransform",
    "make_knots",
    "bspline_basis",
    "difference_penalty",
    "tensor_basis",
    "tensor_penalty",
    "sum_to_zero_transform",
    "interaction_constraint_transform",
]


@dataclass(frozen=True)
class KnotVector:
    """Equally spaced knots covering ``[lo, hi]``.

    ``knots`` holds the interior boundary-to-boundary sequence plus
    ``degree`` padding knots on each side, all at the segment spacing.
    """

    lo: float
    hi: float
    segments: int
    degree: int
    knots: np.ndarray

    @property
    def dimension(self) -> int:
        """Number of B-spline basis functions supported on the domain."""
        return self.segments + self.degree


@dataclass(frozen=True)
class ConstraintTransform:
    """Reparameterization absorbing linear constraints ``C @ beta = 0``.

    ``z`` has orthonormal columns spanning the null space of the
    constraint rows ``C``; a constrained basis is ``B @ z`` and
    constrained penalties are ``z.T @ P @ z``. A tensor-product
    interaction's ``z`` is the Kronecker product of its ``margins``'
    factors, one sum-to-zero transform per margin (empty for other
    transforms).
    """

    z: np.ndarray
    margins: tuple["ConstraintTransform", ...] = ()

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        return matrix @ self.z


def make_knots(lo: float, hi: float, segments: int, degree: int = 3) -> KnotVector:
    """Build the equally spaced knot sequence for ``segments`` segments
    on ``[lo, hi]`` with ``degree`` padding knots on each side.
    """
    if not np.isfinite(lo) or not np.isfinite(hi) or not hi > lo:
        raise ValueError(f"degenerate domain [{lo}, {hi}]")
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    h = (hi - lo) / segments
    knots = lo + h * np.arange(-degree, segments + degree + 1, dtype=float)
    # pin the boundary knots so domain checks are exact
    knots[degree] = lo
    knots[degree + segments] = hi
    knots.setflags(write=False)
    return KnotVector(lo=float(lo), hi=float(hi), segments=segments, degree=degree, knots=knots)


def bspline_basis(x: np.ndarray, kv: KnotVector) -> np.ndarray:
    """Evaluate every B-spline basis function at the points ``x``.

    Uses the Cox-de Boor recurrence, vectorized over observations and run
    on each row's band only (Eilers & Marx 1996): a point in knot span
    ``[t_m, t_{m+1})`` (the last span closed at the domain end) has
    ``degree + 1`` non-zero functions, ``m - degree .. m``, and the
    recurrence at degree ``d`` only reaches functions ``m - d .. m``. Each
    band entry is the dense recurrence's own expression, with exact zeros
    beside the band, so the basis equals the dense one bit for bit.
    Rows sum to one everywhere on the domain; values outside
    ``[kv.lo, kv.hi]`` raise :class:`OutOfDomainError`.
    """
    x = np.asarray(x, dtype=float).ravel()
    bad = ~np.isfinite(x) | (x < kv.lo) | (x > kv.hi)
    if bad.any():
        offender = float(x[bad][0])
        raise OutOfDomainError(
            f"value {offender!r} outside basis domain [{kv.lo}, {kv.hi}]"
        )
    t, degree = kv.knots, kv.degree
    span = np.minimum(np.searchsorted(t, x, side="right") - 1, kv.dimension - 1)
    knot = {c: t[span + c] for c in range(-degree, degree + 2)}  # t_{m+c} per row
    zero = np.zeros(x.size)
    band = [np.ones(x.size)]  # degree 0: the indicator of the span
    for d in range(1, degree + 1):
        padded = [zero, *band, zero]
        band = []
        for k in range(d + 1):  # function j = m - d + k
            left = (x - knot[k - d]) / (knot[k] - knot[k - d])
            right = (knot[k + 1] - x) / (knot[k + 1] - knot[k + 1 - d])
            band.append(left * padded[k] + right * padded[k + 1])
    out = np.zeros((x.size, kv.dimension))
    first = np.arange(x.size) * kv.dimension + span - degree  # flat index of m - degree
    for k, values in enumerate(band):
        out.ravel()[first + k] = values
    return out


def difference_penalty(dimension: int, order: int = 2) -> np.ndarray:
    """Difference penalty ``D.T @ D`` of the given order on coefficient
    vectors of length ``dimension``.

    The null space is exactly the polynomials of degree < ``order`` in
    the coefficient index, so order 2 leaves straight lines unpenalized.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if dimension <= order:
        raise ValueError(
            f"dimension {dimension} must exceed difference order {order}"
        )
    d = np.diff(np.eye(dimension), n=order, axis=0)
    return d.T @ d


def tensor_basis(
    margins: Sequence[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise tensor product of marginal basis matrices, formed left
    to right: ``(M_1 (.) M_2) (.) M_3``.

    Column order is C-style over the marginal indices: the first
    margin's index varies slowest. Row sums are products of the
    marginal row sums, so partitions of unity stay partitions of unity.
    The last product is written into ``out`` (rows x total width) when
    one is given: splitting the last axis of a 2-D array is always a
    view, so a column slice of a larger array is filled in place.
    """
    if len(margins) < 2:
        raise ValueError("tensor product needs at least two margins")
    rows = {m.shape[0] for m in margins}
    if len(rows) != 1:
        raise ValueError(f"margins disagree on row count: {sorted(rows)}")
    n = rows.pop()
    margins = [np.asarray(m, dtype=float) for m in margins]
    left = margins[0]
    for m in margins[1:-1]:
        left = (left[:, :, None] * m[:, None, :]).reshape(n, -1)
    last = margins[-1]
    if out is None:
        out = np.empty((n, left.shape[1] * last.shape[1]))
    cube = out.reshape(n, left.shape[1], last.shape[1])
    np.multiply(left[:, :, None], last[:, None, :], out=cube)
    return out


def tensor_penalty(
    penalties: Sequence[np.ndarray], dims: Sequence[int]
) -> list[np.ndarray]:
    """Lift marginal penalties onto tensor-product coefficients.

    Direction ``k`` becomes ``I (x) ... (x) P_k (x) ... (x) I`` in the
    same column order as :func:`tensor_basis`, one penalty per margin.
    """
    if len(penalties) != len(dims):
        raise ValueError("one penalty per tensor dimension required")
    for k, (p, d) in enumerate(zip(penalties, dims)):
        if p.shape[0] != d:
            raise ValueError(f"penalty {k} has dimension {p.shape[0]}, expected {d}")
    lifted = []
    for k, pen in enumerate(penalties):
        matrix = np.ones((1, 1))
        for j, d in enumerate(dims):
            matrix = np.kron(matrix, pen if j == k else np.eye(d))
        lifted.append(matrix)
    return lifted


def sum_to_zero_transform(column_sums: np.ndarray) -> ConstraintTransform:
    """Constraint transform forcing a fitted term to sum to zero over the
    observations its basis was evaluated on, given the basis's
    ``column_sums`` there.

    The single constraint row is the vector of column sums; the
    returned ``z`` drops one degree of freedom.
    """
    c = np.asarray(column_sums, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("basis must have at least two columns to constrain")
    if not np.any(c):
        raise ValueError("constraint row is identically zero")
    return ConstraintTransform(z=linalg.null_space(c[None, :]))


def interaction_constraint_transform(dims: Sequence[int]) -> ConstraintTransform:
    """Constraint transform for tensor-product interaction coefficients.

    Coefficients must sum to zero along every dimension, for every
    combination of indices in the other dimensions. The orthonormal
    null basis is built as the Kronecker product of the marginal
    sum-to-zero bases ``null_space(ones((1, d_k)))``, kept as
    ``margins``, leaving ``prod(d_k - 1)`` free coefficients. So a
    constrained tensor basis is the row-wise tensor product of the
    constrained margins: ``(B_1 (.) B_2) (z_1 (x) z_2) =
    (B_1 z_1) (.) (B_2 z_2)``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("interaction constraints need at least two margins")
    if any(d < 2 for d in dims):
        raise ValueError(
            f"marginal dimension 1 in {dims} leaves no free coefficients"
        )
    margins = tuple(
        ConstraintTransform(z=linalg.null_space(np.ones((1, d)))) for d in dims
    )
    z = np.ones((1, 1))
    for m in margins:
        z = np.kron(z, m.z)
    return ConstraintTransform(z=z, margins=margins)
