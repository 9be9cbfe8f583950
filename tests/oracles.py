"""Penalized least squares along a route independent of ``fit_pls``.

``augmented_ls_beta`` stacks ``sqrt(lambda) R`` under X for every penalty
direction's root R and solves the stacked system by least squares, so no
normal equations, penalty matrix S or Cholesky factor is involved. The
roots are rebuilt from the raw difference penalties and each block's
constraint basis.
"""

import math

import numpy as np

from rentgam.splines import difference_penalty, tensor_penalty


def penalty_roots(block):
    """``R z`` for every penalty direction of a term block: the root R of
    the margin's (lifted) difference penalty times the block's
    constraint basis z, so that ``(R z)'(R z) = z' P z``."""
    dims = [kv.dimension for kv in block.knots]
    marginal = [difference_penalty(d, order=block.term.penalty_order) for d in dims]
    lifted = marginal if len(dims) == 1 else tensor_penalty(marginal, dims)
    return [p.root @ block.transform.z for p in lifted]


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
