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

``refit_model`` is a stored model as ``surfaces`` and ``bootstrap`` once
read it back: its design built again from the rows and fitted at its
smoothing parameters.

``n_path_fit``, ``n_path_ladder`` and ``n_path_bootstrap`` are the fit,
the eigen ladder and the bootstrap as they ran on the n x p matrix, before
they took only moments: X from ``Design.matrix``, ``X'y`` as one
product over every row, each rss and gap a sum of squares over the rows,
and the bootstrap's replicates as an n x B array of responses refitted as
``X'S`` and ``S - X betas``. Each takes ``X'X`` and its factor from the
design, so the paths differ only in what is n-sized.

``parse_one_row_at_a_time`` is ``listings.parse_listings`` as it ran one
row at a time (``csv.DictReader`` or one ``json.loads`` per line, then
each row's field rules), copied here so that a columnar parse can be
checked against it.
"""

import csv
import json
import math
import re
from datetime import date
from pathlib import Path

import numpy as np

from rentgam import gam, inference
from rentgam.listings import (
    PROPERTY_TYPES,
    REQUIRED_COLUMNS,
    WEEKS_PER_MONTH,
    MalformedRow,
    ParseResult,
)


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


def unmemoized_descent(design, y, score, grid=None, signal=None):
    """Coordinate descent as ``gam.select_smoothness`` runs it, but with
    every term's ladder fitted in every sweep (no memo): the selected
    smoothing parameters, and the term and the values held at each ladder,
    in order. Scores within ``1e-9*|best| + 1e-12`` of the best tie, and a
    tie goes to the later point of the ascending ladder, the larger value."""
    ladder = gam.smoothing_ladder(grid)
    if signal is not None:
        signal = gam._moments(design, signal, False)[0]
    current = {t.name: float(ladder[len(ladder) // 2]) for t in design.spec.main_terms}
    trace = []
    for _ in range(gam.MAX_SWEEPS):
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


def listing_from_mapping(row, row_number):
    """One feed row's fields (a mapping of column to text) as a parsed
    listing tuple in ``REQUIRED_COLUMNS`` order, or the MalformedRow that
    the first bad field makes."""
    def text(key):
        value = row.get(key)
        return "" if value is None else str(value).strip()

    start_raw, end_raw = text("start_date"), text("end_date")
    try:
        start = date.fromisoformat(start_raw) if start_raw else None
    except ValueError:
        return MalformedRow(row_number, f"bad date {start_raw!r}")
    try:
        end = date.fromisoformat(end_raw) if end_raw else None
    except ValueError:
        return MalformedRow(row_number, f"bad date {end_raw!r}")

    rent_raw = text("rent")
    rent = None
    if rent_raw:
        try:
            rent = float(rent_raw)
        except ValueError:
            return MalformedRow(row_number, f"non-numeric rent {rent_raw!r}")
    period = text("rent_period").lower()
    if period in ("week", "weekly"):
        if rent is not None:
            rent *= WEEKS_PER_MONTH
    elif period not in ("", "month", "monthly"):
        return MalformedRow(row_number, f"unknown rent period {period!r}")
    if rent is not None and not math.isfinite(rent):
        return MalformedRow(row_number, f"non-finite rent {rent_raw!r}")

    beds_raw = text("bedrooms")
    bedrooms = None
    if beds_raw:
        try:
            bedrooms = int(beds_raw)
            float(bedrooms)
        except ValueError:
            digits = beds_raw[1:] if beds_raw[0] in "+-" else beds_raw
            if digits.isdecimal():  # past int's digit limit
                return MalformedRow(row_number, f"too many bedrooms {beds_raw!r}")
            return MalformedRow(row_number, f"non-integer bedrooms {beds_raw!r}")
        except OverflowError:
            return MalformedRow(row_number, f"too many bedrooms {beds_raw!r}")
        if bedrooms < 0:
            return MalformedRow(row_number, f"negative bedrooms {bedrooms}")

    kind = re.sub(r"[\s-]+", "_", text("property_type").lower())
    return (
        text("listing_id"),
        start,
        end,
        re.sub(r"\s+", " ", text("postcode").upper()),
        rent,
        bedrooms,
        kind if kind in PROPERTY_TYPES else "other",
    )


def parse_one_row_at_a_time(path):
    """The ParseResult of a listings feed: a ``.jsonl`` or ``.ndjson`` file
    read one ``json.loads`` per line (numbered from 1; a blank line is
    skipped but counted), any other through ``csv.DictReader`` (data rows
    numbered from 2, after the header; a blank line is no row; a row of
    the wrong width is malformed), and each row by
    :func:`listing_from_mapping`."""
    path = Path(path)
    result = ParseResult([], [])
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if path.suffix in (".jsonl", ".ndjson"):
            numbered = (
                (number, line) for number, line in enumerate(fh, start=1) if line.strip()
            )
        else:
            reader = csv.DictReader(fh)
            assert set(REQUIRED_COLUMNS) <= set(reader.fieldnames)
            numbered = enumerate(reader, start=2)
        for number, row in numbered:
            if isinstance(row, str):
                try:
                    row = json.loads(row)
                except json.JSONDecodeError as exc:
                    row = MalformedRow(number, f"bad json: {exc.msg}")
                else:
                    if not isinstance(row, dict):
                        row = MalformedRow(number, "not an object")
            elif None in row or None in row.values():
                row = MalformedRow(number, "wrong column count")
            if isinstance(row, dict):
                row = listing_from_mapping(row, number)
            if isinstance(row, MalformedRow):
                result.malformed.append(row)
            else:
                result.listings.append(row)
    return result


def n_path_fit(design, y, lambdas):
    """``(beta, rss, k)`` of the penalized fit at ``lambdas`` on the design's
    own factor: beta from ``X'y``, one product over every row of X, and the
    rss ``sum((y - X beta)^2)``."""
    x = design.matrix
    factor = gam._penalized_factor(design, design.spec.resolve_lambdas(lambdas))
    beta = gam.linalg.cho_solve(factor.cho, x.T @ y)
    return beta, float(np.sum((y - x @ beta) ** 2)), factor.k


def n_path_ladder(design, y, current, name, ladder, signal=None):
    """``gam._eigen_ladder`` as it ran on the rows: the base fitted values
    ``X beta0``, and for each target ``t0 = t - X beta0`` with
    ``t0't0`` and ``W'X't0`` taken over the rows."""
    x = design.matrix
    l0 = float(ladder[len(ladder) // 2])
    lambdas = design.spec.resolve_lambdas({**current, name: l0})
    cho, _, k0, _ = gam._penalized_factor(design, lambdas)[:4]
    linalg = gam.linalg
    upper = cho[0]
    c = linalg.solve_triangular(upper, design._owned_root(name).T, trans="T")
    d, v = linalg.eigh(linalg.blas.dsyrk(1.0, c, trans=1), lower=False, driver="evd")
    keep = d > 0
    d = d[keep]
    w = linalg.solve_triangular(upper, (c @ v[:, keep]) / np.sqrt(d))
    q = w.T @ (design.gram @ w)
    g = np.diag(q)
    xty = x.T @ y
    base = x @ linalg.cho_solve(cho, xty)
    proj = w.T @ xty
    forms = []
    for target in (y,) if signal is None else (y, signal):
        t0 = target - base
        forms.append((float(np.sum(t0 ** 2)), w.T @ (x.T @ t0)))
    out = []
    for lam in ladder:
        h = (lam - l0) * d
        h /= 1.0 + h
        a = h * proj
        aqa = float(a @ (q @ a))
        rss, *gap = (s0 + 2.0 * float(a @ b) + aqa for s0, b in forms)
        out.append(gam.LadderFit(rss, k0 - float(g @ h), *gap))
    return out


def n_path_bootstrap(model, term, b, seed):
    """The observed Wald statistic and the replicates of
    ``inference.bootstrap_term_test`` as it ran on the rows: the reduced
    fit's fitted values ``mu`` from :func:`n_path_fit`, the n x B responses
    ``S = mu + s e`` (e drawn per replicate from ``(seed, i)``), their
    coefficients from ``X'S`` on the model's factor, and each replicate's
    sigma2 from the residuals ``S - X betas``."""
    design = model.design
    x = design.matrix
    sl, v_inv, _, observed = inference._wald_form(model, term)
    reduced = design.drop(term)
    beta_r, rss_r, k_r = n_path_fit(reduced, model.y, model.lambdas)
    mu = reduced.matrix @ beta_r
    scale = math.sqrt(rss_r / (model.n - k_r))
    simulated = np.empty((model.n, b))
    for i in range(b):
        simulated[:, i] = mu + scale * np.random.default_rng([seed, i]).standard_normal(model.n)
    betas = gam.linalg.cho_solve(model._cho, x.T @ simulated)
    sigma2 = np.sum((simulated - x @ betas) ** 2, axis=0) / (model.n - model.k)
    return observed, ((v_inv @ betas[sl]) * betas[sl]).sum(axis=0) / sigma2
