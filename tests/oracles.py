"""Penalized least squares along a route independent of ``fit_pls``.

``augmented_ls_beta`` stacks ``sqrt(lambda) R`` under X for every penalty
direction's root R and solves the stacked system by least squares, so no
normal equations, penalty matrix S or Cholesky factor is involved. The
roots are the difference matrices themselves, lifted onto the tensor
coefficients in :func:`~rentgam.splines.tensor_penalty`'s Kronecker
order, times each block's constraint basis.
"""

import math

import numpy as np


def penalty_roots(block):
    """``R z`` for every penalty direction of a term block: the margin's
    difference matrix D, lifted to ``I (x) ... (x) D (x) ... (x) I``,
    times the block's constraint basis z, so that ``(R z)'(R z) = z' P z``
    for the lifted ``P = D'D``."""
    dims = [kv.dimension for kv in block.knots]
    diffs = [np.diff(np.eye(d), n=block.term.penalty_order, axis=0) for d in dims]
    roots = []
    for k in range(len(dims)):
        root = np.ones((1, 1))
        for j, d in enumerate(dims):
            root = np.kron(root, diffs[j] if j == k else np.eye(d))
        roots.append(root @ block.transform.z)
    return roots


def augmented_ls_beta(design, y, lambdas):
    """Coefficients minimizing ``|y - X b|^2 + sum lambda |R b|^2``, each
    direction scaled by its owning main effect's smoothing parameter."""
    resolved = design.resolve_lambdas(lambdas)
    parts = [design.matrix]
    for block in design.blocks:
        for root, owner in zip(penalty_roots(block), block.penalty_owners):
            wide = np.zeros((root.shape[0], design.p))
            wide[:, block.columns] = math.sqrt(resolved[owner]) * root
            parts.append(wide)
    stacked = np.vstack(parts)
    target = np.concatenate([y, np.zeros(stacked.shape[0] - len(y))])
    beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return beta
