"""The eight treatment-effect estimators for PB-CRTs.

Four model families (independence, two-way fixed effects, exchangeable
mixed, nested-exchangeable mixed), each unweighted or with inverse
cluster-period size weights.  Every fit reads only the trial's
`CellStats`:

- the independence and mixed fits solve the 3x3 normal equations from
  `blocks.normal_equations` (the independence fit at zero random effects);
- the fixed-effects fit is the closed form of the Frisch-Waugh-Lovell
  theorem, a weighted difference of within-cluster period differences;
- the weighted independence and fixed-effects fits are the unweighted
  fits on the cell means, and the weighted mixed fits divide each
  cluster's terms by its cell size.

`fit_rows` fits any kinds on any rows of a table's keep-masked jackknife
stack in one pass, and `fit` is its one-kind, one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blocks import back_substitute, cholesky_solve, normal_equations, unit_ratios
from .reml import estimate_variance_components
from .trial import (
    CellStats,
    CorrelationStructure,
    EstimationError,
    ObservedTrial,
    VarianceComponents,
)

__all__ = [
    "EstimatorKind",
    "EstimationError",
    "UnsupportedWeightingError",
    "FitOptions",
    "FitResult",
    "fit",
]


class UnsupportedWeightingError(EstimationError):
    """Inverse-size weighting with correlated errors needs equal period sizes.

    The weighted estimating equation defines the weight at the cluster
    level; with unequal cell sizes inside a cluster there is no agreed
    weighted analysis for correlated errors, so we refuse rather than
    guess.
    """


class EstimatorKind(Enum):
    IEE = "iee"
    IEEW = "ieew"
    FE = "fe"
    FEW = "few"
    EME = "eme"
    EMEW = "emew"
    NEME = "neme"
    NEMEW = "nemew"

    @property
    def weighted(self) -> bool:
        """Inverse cluster-period size weights: every cluster weighs the same."""
        return self.value.endswith("w")

    @property
    def structure(self) -> CorrelationStructure:
        if self in (EstimatorKind.EME, EstimatorKind.EMEW):
            return CorrelationStructure.EXCHANGEABLE
        if self in (EstimatorKind.NEME, EstimatorKind.NEMEW):
            return CorrelationStructure.NESTED_EXCHANGEABLE
        return CorrelationStructure.INDEPENDENCE

    @property
    def mixed(self) -> bool:
        return self.structure is not CorrelationStructure.INDEPENDENCE


@dataclass(frozen=True)
class FitOptions:
    """Options for a single fit.

    vc: plug-in variance components; when None, mixed fits estimate them
    by REML on the unweighted model.
    """

    vc: VarianceComponents | None = None


@dataclass
class FitResult:
    kind: EstimatorKind
    delta_hat: float
    n_clusters: int
    model_based_var: float
    vc_hat: VarianceComponents | None = None
    converged: bool = True
    jackknife_var: float | None = None
    jackknife_replicates: np.ndarray | None = None


def fit(trial: ObservedTrial | CellStats, kind: EstimatorKind,
        options: FitOptions = FitOptions()) -> FitResult:
    """Fit one estimator on a trial or its cell table: estimate and model variance."""
    return _result(fit_rows(trial.cells, (kind,), options, 0)[kind])[0]


def _result(found):
    """One kind's entry of `fit_rows`, its error raised."""
    if isinstance(found, EstimationError):
        raise found
    return found


def fit_rows(cells: CellStats, kinds, options: FitOptions, rows) -> dict:
    """Fit each kind on each given row (or one row) of the table's jackknife
    stack, `CellStats.keep`, in one pass: per kind, its `FitResult`s in row
    order or the `EstimationError` that stopped it.  No kind's or row's
    result depends on the others, so `fit` is the one-kind, one-row case.
    fe and few are closed forms; the other kinds are GLS points of
    `_solve_gls`, grouped by the table and divisor they fit on."""
    rows = np.array(rows, ndmin=1)
    found, groups = {}, {}
    for kind in kinds:
        try:
            table, divisor = _fitted_on(cells, kind)
            if kind in (EstimatorKind.FE, EstimatorKind.FEW):
                found[kind] = (*(a.tolist() for a in _fixed_effects(table, rows)),
                               None, None)
            else:
                point = kind, *_ratios(cells, kind, options, rows)
                key = id(table), id(divisor)  # neither is hashable
                groups.setdefault(key, (table, divisor, []))[2].append(point)
        except EstimationError as exc:
            found[kind] = exc
    if groups:
        found.update(_solve_gls(rows, groups.values()))
    n_clusters = (cells.n_clusters - (rows > 0)).tolist()
    for kind, fits in found.items():
        if not isinstance(fits, EstimationError):
            delta, var, sigma2, vcs, converged = fits
            # The residual variance of an unweighted independence-structure
            # or fixed-effects fit stands for its components.
            vcs = vcs or [None if kind.weighted or s == 0.0 else VarianceComponents(s)
                          for s in sigma2]
            found[kind] = [FitResult(kind, *f) for f in zip(
                delta, n_clusters, var, vcs, converged or [True] * rows.size)]
    return {kind: found[kind] for kind in kinds}


def _fitted_on(cells: CellStats, kind: EstimatorKind):
    """The table a kind fits on and the divisor of each cluster's terms: the
    table, undivided, but ieew and few fit its cell means, and emew and nemew
    divide by the cell size K, which needs equal period sizes."""
    if not kind.weighted:
        return cells, None
    if not kind.mixed:
        return cells.means, None
    if not cells.equal_period_sizes:
        raise UnsupportedWeightingError(
            "inverse cluster-period size weights with a correlated "
            "structure require equal period sizes within every cluster")
    return cells, cells.k0


def _solve_normal(m, v: np.ndarray):
    """M^-1 v, the (delta, delta) entry of M^-1, and where M, given by its upper
    triangle, is positive definite (elsewhere the others are not finite)."""
    factor, z = cholesky_solve(m, v)
    theta, n = back_substitute(factor, z)
    return theta, n[1, 1] * n[1, 1] + n[2, 1] * n[2, 1], factor[5] > 0.0


def _solve(cells: CellStats, tw=0.0, tb=0.0, weight=None) -> np.ndarray:
    """(mu, delta, phi1) of one point's normal equations on the full table."""
    m, v, _ = normal_equations(cells, tw, tb, weight)
    with np.errstate(all="ignore"):
        theta, _, ok = _solve_normal(m, v)
    if not ok:
        raise EstimationError("singular normal equations")
    return theta


def _solve_gls(rows: np.ndarray, groups) -> dict:
    """Per GLS kind, lists of delta_hat, the model variance and the residual
    mean square (y'W y - theta'v) / (n - 3) on each row, its components and
    whether they converged, or its error.  Each group (table, divisor,
    points) is one `normal_equations` call, and all are solved at once.  (A
    valid trial has two clusters with both cells filled, so n - 3 >= 1.)"""
    eqs, dof, points = [], [], []
    for table, divisor, group in groups:
        _, tw, tb, _, _ = zip(*group)
        eqs.append(normal_equations(table, np.array(tw), np.array(tb), divisor, rows))
        dof += [table.row_obs[rows] - 3] * len(group)
        points += group
    m, v, yy = (eqs[0] if len(eqs) == 1 else
                (np.concatenate(a, axis=-2) for a in zip(*eqs)))
    with np.errstate(all="ignore"):
        theta, inv_dd, ok = _solve_normal(m, v)
        sigma2 = np.maximum(yy - (theta * v).sum(axis=0), 0.0) / dof
        # Weighted estimating equations are defined up to the weight scale;
        # a residual dispersion factor restores the variance to the scale
        # of the data, as in survey-weighted pseudo-likelihood software.
        var = np.array([[vc.sigma_w2 for vc in vcs] if kind.mixed and not kind.weighted
                        else s for (kind, _, _, vcs, _), s in zip(points, sigma2)]) * inv_dd
    return {kind: (*fits, vcs, converged) if good
            else EstimationError("singular normal equations")
            for (kind, _, _, vcs, converged), good, *fits in zip(
                points, ok.all(axis=1).tolist(), theta[1].tolist(), var.tolist(),
                sigma2.tolist())}


# ---------------------------------------------------------------------------
# fixed-effects fits: (delta_hat, model variance, residual variance)

def _fixed_effects(cells: CellStats, rows: np.ndarray):
    """Two-way fixed effects (cluster + period dummies + treatment).

    By the Frisch-Waugh-Lovell theorem, profiling out the cluster effects
    leaves a weighted regression of each cluster's period difference
    d = mean1 - mean0 on its sequence with weights h = k0 k1 / (k0 + k1):
    delta_hat is the difference of the arms' h-weighted means of d, with
    variance sigma2 (1/H0 + 1/H1) for arm weight totals H, and the
    residual sum of squares adds the table's within-cell sums of squares.
    """
    dof = cells.row_obs[rows] - (cells.n_clusters - (rows > 0)) - 2
    if (dof <= 0).any():
        raise EstimationError("saturated design: no residual degrees of freedom")
    keep = cells.keep(rows)
    k0, k1, seq = cells.k0, cells.k1, cells.sequence
    d = cells.mean1 - cells.mean0
    h = k0 * k1 / (k0 + k1)
    arm_h = keep[..., None, :] * (np.array((1.0 - seq, seq)) * h)
    h_arm = arm_h.sum(axis=-1)
    d_arm = (arm_h * d).sum(axis=-1) / h_arm
    resid = d - d_arm[..., seq.astype(np.intp)]
    sigma2 = (keep * (cells.within + h * resid * resid)).sum(axis=-1) / dof
    return (d_arm[..., 1] - d_arm[..., 0],
            sigma2 * (1.0 / h_arm[..., 0] + 1.0 / h_arm[..., 1]), sigma2)


# ---------------------------------------------------------------------------
# GLS fits with block covariance

def _ratios(cells: CellStats, kind: EstimatorKind, options: FitOptions,
            rows: np.ndarray):
    """A GLS kind's unit ratios tw and tb, components and REML convergence,
    each a sequence over the rows (components None for an independence fit)."""
    if not kind.mixed:
        return [0.0] * rows.size, [0.0] * rows.size, None, None
    found = ([(options.vc, True)] * rows.size if options.vc is not None else
             estimate_variance_components(cells, kind.structure, rows=rows))
    vcs, converged = (list(a) for a in zip(*found))
    return (*zip(*(unit_ratios(kind.structure, vc) for vc in vcs)), vcs, converged)
