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

`fit_rows` fits any rows of a table's keep-masked jackknife stack in one
batched solve, and `fit` is its one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blocks import cholesky_solve, normal_equations, structure_taus
from .reml import estimate_variance_components
from .trial import (
    CellStats,
    CorrelationStructure,
    EstimationError,
    ObservedTrial,
    VarianceComponents,
    WeightingScheme,
)

__all__ = [
    "EstimatorKind",
    "EstimationError",
    "UnsupportedWeightingError",
    "FitOptions",
    "FitResult",
    "fit",
    "gls_point_estimate",
    "estimate_variance_components",
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
        return self.value.endswith("w")

    @property
    def structure(self) -> CorrelationStructure:
        if self in (EstimatorKind.EME, EstimatorKind.EMEW):
            return CorrelationStructure.EXCHANGEABLE
        if self in (EstimatorKind.NEME, EstimatorKind.NEMEW):
            return CorrelationStructure.NESTED_EXCHANGEABLE
        return CorrelationStructure.INDEPENDENCE

    @property
    def weighting(self) -> WeightingScheme:
        return (WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE if self.weighted
                else WeightingScheme.UNWEIGHTED)

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
    return fit_rows(trial.cells, kind, options, 0)[0]


def fit_rows(cells: CellStats, kind: EstimatorKind, options: FitOptions,
             rows) -> list[FitResult]:
    """`fit` on each given row (or one row) of the table's jackknife stack,
    `CellStats.keep`, in one solve.  No row's result depends on the other
    rows, so `fit` is the one-row case.
    """
    rows = np.asarray(rows)
    if kind.mixed:
        delta, var, vcs, converged = _mixed(cells, kind, options, rows)
    else:
        table = cells.means if kind.weighted else cells
        fe = kind in (EstimatorKind.FE, EstimatorKind.FEW)
        delta, var, sigma2 = (_fixed_effects if fe else _independence)(table, rows)
        vcs = [None if kind.weighted or s == 0.0 else VarianceComponents(s)
               for s in sigma2.reshape(-1).tolist()]
        converged = [True] * rows.size
    n_clusters = np.where(rows > 0, cells.n_clusters - 1, cells.n_clusters)
    return [FitResult(kind, d, n, v, vc, ok) for d, n, v, vc, ok in zip(
        *(a.reshape(-1).tolist() for a in (delta, n_clusters, var)), vcs, converged)]


def _solve_normal(m, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M^-1 v and the (delta, delta) entry of M^-1, |L^-1 e_delta|^2 for
    the Cholesky factor L of M, given by its upper triangle."""
    with np.errstate(all="ignore"):
        (l00, l10, l11, l20, l21, l22), (z0, z1, z2) = cholesky_solve(m, v)
    if not (l22 > 0.0).all():
        raise EstimationError("singular normal equations")
    t2 = z2 / l22
    t1 = (z1 - l21 * t2) / l11
    t0 = (z0 - l10 * t1 - l20 * t2) / l00
    e1 = 1.0 / l11
    e2 = -(l21 * e1) / l22
    return np.array((t0, t1, t2)), e1 * e1 + e2 * e2


def _gls(cells: CellStats, rows: np.ndarray, tw=0.0, tb=0.0, weight=None):
    """delta_hat, the (delta, delta) entry of M^-1 and the residual mean
    square (y'W y - theta'v) / (n - 3) on each row (a valid trial has two
    clusters with both cells filled, so n - 3 >= 1)."""
    m, v, yy, _ = normal_equations(cells, tw, tb, weight, rows)
    theta, inv_dd = _solve_normal(m, v)
    return (theta[1], inv_dd, np.maximum(yy - (theta * v).sum(axis=0), 0.0)
            / (cells.row_obs[rows] - 3))


# ---------------------------------------------------------------------------
# independence-structure fits: (delta_hat, model variance, residual variance)

def _independence(cells: CellStats, rows: np.ndarray):
    """OLS with treatment and period effects, residual variance RSS / (n - 3)."""
    delta, inv_dd, sigma2 = _gls(cells, rows)
    return delta, sigma2 * inv_dd, sigma2


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

def _cluster_weight(cells: CellStats, weighting: WeightingScheme):
    """Divisor of each cluster's GLS terms: none, or its cell size K."""
    if weighting is WeightingScheme.UNWEIGHTED:
        return None
    if not cells.equal_period_sizes:
        raise UnsupportedWeightingError(
            "inverse cluster-period size weights with a correlated "
            "structure require equal period sizes within every cluster")
    return cells.k0


def _unit_ratios(structure: CorrelationStructure, vc: VarianceComponents):
    """The structure's covariance contributions in residual-variance units."""
    return np.divide(structure_taus(structure, vc), vc.sigma_w2)


def gls_point_estimate(trial: ObservedTrial, structure: CorrelationStructure,
                       vc: VarianceComponents,
                       weighting: WeightingScheme = WeightingScheme.UNWEIGHTED) -> np.ndarray:
    """Solve the (weighted) GLS normal equations for (mu, delta, phi1)."""
    cells = trial.cells
    m, v, _, _ = normal_equations(cells, *_unit_ratios(structure, vc),
                                  _cluster_weight(cells, weighting))
    theta = _solve_normal(m, v)[0]
    theta[0] += cells.origin
    return theta


def _mixed(cells: CellStats, kind: EstimatorKind, options: FitOptions,
           rows: np.ndarray):
    """(delta_hat, model variance, components, converged) on each row."""
    weight = _cluster_weight(cells, kind.weighting)
    if options.vc is None:
        found = estimate_variance_components(cells, kind.structure,
                                             return_converged=True,
                                             rows=np.reshape(rows, -1))
        tw, tb = np.array([_unit_ratios(kind.structure, vc) for vc, _ in found]).T
    else:
        found = [(options.vc, True)] * rows.size
        tw, tb = _unit_ratios(kind.structure, options.vc)
    vcs = [vc for vc, _ in found]
    delta, inv_dd, dispersion = _gls(cells, rows, tw, tb, weight)
    # Weighted estimating equations are defined up to the weight scale; a
    # residual dispersion factor restores the variance to the scale of the
    # data, as in survey-weighted pseudo-likelihood software.
    scale = dispersion if kind.weighted else np.array([vc.sigma_w2 for vc in vcs])
    return delta, scale * inv_dd, vcs, [ok for _, ok in found]
