"""Parametric bootstrap significance tests for model terms.

A term's size is measured by the Wald statistic on its coefficient
block. The null distribution comes from refitting the full model to
responses simulated from the reduced model (the fit without the term),
holding the smoothing parameters fixed at their selected values so
every replicate answers the same question as the observed fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg

from .errors import NumericalError
from .gam import (
    Design,
    FittedModel,
    ModelRow,
    ModelSpec,
    build_design,
    fit_pls,
    rows_to_columns,
    select_smoothness,
)


def wald_statistic(model: FittedModel, term: str) -> float:
    """Quadratic form beta' V^-1 beta on the term's coefficient block.

    The covariance block is inverted with a pseudo-inverse: heavily
    penalized blocks can be numerically singular without being empty.
    """
    beta = model.coefficients(term)
    v = model.covariance_block(term)
    return float(beta @ linalg.pinvh(v) @ beta)


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
            "seed": self.seed,
            "lambdas": self.lambdas,
        }


def bootstrap_term_test(
    rows: Sequence[ModelRow],
    spec: ModelSpec,
    term: str,
    b: int = 199,
    seed: int = 0,
    lambdas: Mapping[str, float] | None = None,
    grid: Sequence[float] | None = None,
) -> BootstrapResult:
    """Parametric bootstrap p-value for dropping ``term``.

    Fits the full model (selecting smoothness by BIC unless ``lambdas``
    is given), then simulates B responses from the reduced fit at its
    estimated noise level and recomputes the Wald statistic on each.
    With the smoothing parameters fixed, every replicate is solved
    against the full fit's factorization of X'X + S and shares one
    pseudo-inverse of the term's covariance block (rank ``wald_rank``).
    Replicate b draws from a fresh stream keyed by (seed, b), so any
    prefix of the replicates is reproducible. Replicates with a
    non-finite statistic are discarded; over 10% discarded aborts.
    """
    if b < 19:
        raise ValueError(f"need at least 19 replicates for a p-value, got {b}")
    spec.term(term)  # raises KeyError for unknown terms
    y = rows_to_columns(rows)["logprice"]
    design = build_design(rows, spec)
    if lambdas is None:
        lams = select_smoothness(design, y, grid)
    else:
        lams = dict(lambdas)
    full = fit_pls(design, y, lams)
    observed = wald_statistic(full, term)

    reduced_spec = spec.drop(term)
    reduced_design = build_design(rows, reduced_spec)
    resolved = full.lambdas
    reduced_lams = {
        t.name: resolved[t.name] for t in reduced_spec.main_terms if t.lam is None
    }
    reduced = fit_pls(reduced_design, y, reduced_lams)
    mu = reduced.fitted
    scale = float(np.sqrt(reduced.sigma2))

    # one X'X + S for every replicate: its factor, and k, are the full fit's
    n = len(y)
    draws = [np.random.default_rng([seed, i]).standard_normal(n) for i in range(b)]
    simulated = mu[:, None] + scale * np.column_stack(draws)
    betas = linalg.cho_solve(full._cho, design.matrix.T @ simulated)
    sigma2 = ((simulated - design.matrix @ betas) ** 2).sum(axis=0) / (n - full.k)
    sl = design.block(term).columns
    v_inv, wald_rank = linalg.pinvh(full.covariance_unscaled[sl, sl], return_rank=True)
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
        lambdas=dict(resolved),
    )
