"""Reference computations along routes independent of the code they check.

``augmented_ls_beta`` is penalized least squares without ``fit_pls``: it
stacks ``sqrt(lambda) R`` under X for every penalty direction's root R
and solves the stacked system by least squares, so no normal equations,
penalty matrix S or Cholesky factor is involved. The roots are the
difference matrices themselves, lifted onto the tensor coefficients in
:func:`~rentgam.splines.tensor_penalty`'s Kronecker order, times each
block's constraint basis.

``unmemoized_descent`` is smoothness selection with every ladder of
every sweep fitted.

``refit_model`` is a stored model as ``surfaces`` once read it back: its
design built again from the rows and fitted at its smoothing parameters.
"""

import math

import numpy as np

from rentgam import gam


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
    resolved = design.spec.resolve_lambdas(lambdas)
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


def unmemoized_descent(design, y, score, grid=None, max_sweeps=10, signal=None):
    """Coordinate descent as ``gam._coordinate_descent`` runs it, but with
    every term's ladder fitted in every sweep (no memo): the selected
    smoothing parameters, and the term and the values held at each ladder,
    in order. Scores within ``1e-9*|best| + 1e-12`` of the best tie, and a
    tie goes to the later point of the ascending ladder, the larger value."""
    ladder = gam.smoothing_ladder(grid)
    current = {t.name: float(ladder[len(ladder) // 2]) for t in design.spec.main_terms}
    trace = []
    for _ in range(max_sweeps):
        changed = False
        for name in current:
            trace.append((name, dict(current)))
            fits = gam._ladder_fits(design, y, current, name, ladder, signal)
            best = best_lam = None
            for lam, fit in zip(ladder, fits):
                value = score(fit)
                if best is None or value < best - (1e-9 * abs(best) + 1e-12):
                    best, best_lam = value, float(lam)
                elif value <= best + 1e-9 * abs(best) + 1e-12:
                    best_lam = float(lam)
            changed |= best_lam != current[name]
            current[name] = best_lam
        if not changed:
            break
    return current, trace


def refit_model(rows, spec, lambdas):
    """The fit of ``spec`` at ``lambdas`` on model columns ``rows``, through
    ``build_design`` and ``fit_pls``."""
    return gam.fit_pls(gam.build_design(rows, spec), rows["logprice"], lambdas)
