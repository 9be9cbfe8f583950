"""Parametric bootstrap significance tests for model terms.

A term's size is measured by the Wald statistic on its coefficient
block. The null distribution comes from solving the full model's
penalized normal equations for responses simulated from the reduced
model (the fit without the term), holding the smoothing parameters
fixed at the fitted model's values so every replicate answers the same
question as the observed fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np
from scipy import linalg

from .errors import NumericalError
from .gam import FittedModel, ModelSpec, _moments, fit_pls

# unused here; the benchmark's tracer wraps these names on this module
from .gam import build_design, rows_to_columns, select_smoothness  # noqa: F401


def _wald_form(model: FittedModel, term: str) -> tuple[slice, np.ndarray, int, float]:
    """The term's columns; the pseudo-inverse V+ and rank of its block V of
    (X'X + S)^-1, which heavily penalized terms can make numerically
    singular (eigenvalues at or below ``size * eps * max|eigenvalue|`` count
    as zero); and the observed Wald statistic beta' V+ beta / sigma2."""
    sl = model.design.block(term).columns
    v = model.covariance_unscaled[sl, sl]
    v_inv, rank = linalg.pinvh(v, atol=0.0, rtol=v.shape[0] * np.finfo(float).eps,
                               return_rank=True)
    return sl, v_inv, rank, float(model.beta[sl] @ v_inv @ model.beta[sl] / model.sigma2)


def wald_statistic(model: FittedModel, term: str) -> float:
    """beta' V+ beta / sigma2 on the term's coefficient block (see
    :func:`_wald_form`): the ``statistic`` of :func:`bootstrap_term_test`."""
    return _wald_form(model, term)[3]


def check_bootstrap_request(spec: ModelSpec, term: str, b: int) -> None:
    """Refuse a bootstrap of ``b`` replicates for ``term`` before any
    work: ``b`` must be a whole number (an integer, numpy's too, but not a
    bool) and under 19 replicates cannot give a p-value (ValueError), and
    ``term`` must be one of ``spec``'s (KeyError)."""
    if isinstance(b, bool) or not isinstance(b, Integral):
        raise ValueError(f"bootstrap replicates {b!r} is not a whole number")
    if b < 19:
        raise ValueError(f"need at least 19 replicates for a p-value, got {b}")
    spec.term(term)


def empirical_p(observed: float, replicates: Sequence[float]) -> float:
    """(1 + #{replicates >= observed}) / (count + 1); never exactly 0."""
    values = np.asarray(replicates, dtype=float)
    if values.size == 0:
        raise ValueError("no bootstrap replicates to compare against")
    return float((1 + int((values >= observed).sum())) / (values.size + 1))


@dataclass(frozen=True)
class BootstrapResult:
    term: str
    statistic: float
    p_value: float
    replicates: np.ndarray
    discarded: int
    wald_rank: int
    b: int
    seed: int
    lambdas: dict

    def to_dict(self) -> dict:
        return {
            "term": self.term,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "b": self.b,
            "kept": int(self.replicates.size),
            "discarded": self.discarded,
            "wald_rank": self.wald_rank,
            "replicates": self.replicates.tolist(),
            "seed": self.seed,
            "lambdas": self.lambdas,
        }


def bootstrap_term_test(
    model: FittedModel, term: str, b: int = 199, seed: int = 0
) -> BootstrapResult:
    """Parametric bootstrap p-value for dropping ``term`` from ``model``.

    Fits the reduced model (``model``'s design without the term, at the
    same smoothing parameters), then simulates B responses
    ``y* = X_r b_r + s e`` from it at its estimated noise level s and
    recomputes the Wald statistic on each. With the smoothing parameters
    fixed, every replicate is solved against ``model``'s factorization of
    X'X + S, and shares one pseudo-inverse (rank ``wald_rank``) with the
    observed statistic. Replicate b draws its noise e from a fresh stream
    keyed by (seed, b), so any prefix of the replicates is reproducible.
    Replicates with a non-finite statistic are discarded; over 10%
    discarded aborts.

    Only moments are formed, so no n x p array and one n x B array (the
    noise) are held. One pass over the rows gives ``X'e`` for every
    replicate, and ``X'y`` too when the design does not hold it. The
    reduced fit takes the sub-blocks of the model's ``X'X`` and ``X'y``
    (:meth:`~rentgam.gam.Design.drop`). Then, with ``b~`` the
    reduced coefficients placed in the model's columns, each replicate's
    ``X'y* = X'X b~ + s X'e``, and with ``d = b~ - beta*`` its residual
    ``y* - X beta* = X d + s e``, so its rss is
    ``d'X'X d + 2 s d'X'e + s^2 e'e``: p-sized algebra.
    """
    check_bootstrap_request(model.spec, term, b)
    design = model.design
    if not design.has_rows or model.y is None:
        raise ValueError("the bootstrap needs the model's rows (X and y)")
    sl, v_inv, wald_rank, observed = _wald_form(model, term)
    n = model.n
    noise = np.empty((n, b))
    for i in range(b):
        noise[:, i] = np.random.default_rng([seed, i]).standard_normal(n)
    # the one pass: X'e, and the response's moments unless the design holds them
    xte = _moments(design, model.y, True, [noise])[1][0]
    ete = np.einsum("ij,ij->j", noise, noise)
    del noise
    reduced = fit_pls(design.drop(term), model.y, model.lambdas)
    scale = float(np.sqrt(reduced.sigma2))
    gram = design.gram
    b_reduced = np.zeros(design.p)  # b~: the reduced fit in the model's columns
    b_reduced[design.kept_columns(term)] = reduced.beta
    betas = linalg.cho_solve(model._cho, (gram @ b_reduced)[:, None] + scale * xte)
    d = b_reduced[:, None] - betas
    rss = ((gram @ d) * d).sum(axis=0) + 2.0 * scale * (d * xte).sum(axis=0) + scale**2 * ete
    sigma2 = rss / (n - model.k)
    stats = ((v_inv @ betas[sl]) * betas[sl]).sum(axis=0) / sigma2
    kept = stats[np.isfinite(stats)]
    discarded = b - kept.size
    if discarded > 0.1 * b:
        raise NumericalError(
            f"{discarded} of {b} bootstrap replicates failed to produce "
            "a finite statistic"
        )
    return BootstrapResult(
        term=term,
        statistic=observed,
        p_value=empirical_p(observed, kept),
        replicates=kept,
        discarded=discarded,
        wald_rank=int(wald_rank),
        b=b,
        seed=seed,
        lambdas=dict(model.lambdas),
    )
