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
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blocks import cholesky3, lower_solve3, normal_equations, structure_taus
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
    if kind.mixed:
        return _fit_mixed(trial, kind, options)
    cells = trial.cells.means() if kind.weighted else trial.cells
    fe = kind in (EstimatorKind.FE, EstimatorKind.FEW)
    delta, var, sigma2 = (_fixed_effects if fe else _independence)(cells)
    return FitResult(kind=kind, delta_hat=delta, n_clusters=cells.n_clusters,
                     model_based_var=var,
                     vc_hat=None if kind.weighted
                     else VarianceComponents(max(sigma2, 1e-10)))


def _solve_normal(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """M^-1 v and the (delta, delta) entry of M^-1, |L^-1 e_delta|^2 for
    the Cholesky factor L of M."""
    chol = cholesky3(m)
    if chol is None:
        raise EstimationError("singular normal equations")
    l00, l10, l11, l20, l21, l22 = chol
    z0, z1, z2 = lower_solve3(chol, v.tolist())
    t2 = z2 / l22
    t1 = (z1 - l21 * t2) / l11
    t0 = (z0 - l10 * t1 - l20 * t2) / l00
    _, e1, e2 = lower_solve3(chol, (0.0, 1.0, 0.0))
    return np.array([t0, t1, t2]), e1 * e1 + e2 * e2


# ---------------------------------------------------------------------------
# independence-structure fits: (delta_hat, model variance, residual variance)

def _independence(cells: CellStats) -> tuple[float, float, float]:
    """OLS with treatment and period effects, residual variance RSS / (n - 3).

    A valid trial has at least two clusters with both cells filled, so
    n - 3 >= 1.
    """
    m, v, yy, _ = normal_equations(cells, 0.0, 0.0)
    theta, inv_dd = _solve_normal(m, v)
    sigma2 = max(yy - float(theta @ v), 0.0) / (cells.n_obs - 3)
    return float(theta[1]), sigma2 * inv_dd, sigma2


def _fixed_effects(cells: CellStats) -> tuple[float, float, float]:
    """Two-way fixed effects (cluster + period dummies + treatment).

    By the Frisch-Waugh-Lovell theorem, profiling out the cluster effects
    leaves a weighted regression of each cluster's period difference
    d = ybar1 - ybar0 on its sequence with weights h = k0 k1 / (k0 + k1):
    delta_hat is the difference of the arms' h-weighted means of d, with
    variance sigma2 (1/H0 + 1/H1) for arm weight totals H, and the
    residual sum of squares adds the within-cell sums of squares.
    """
    dof = cells.n_obs - cells.n_clusters - 2
    if dof <= 0:
        raise EstimationError("saturated design: no residual degrees of freedom")
    k0, k1, t0, t1 = cells.k0, cells.k1, cells.sum0, cells.sum1
    seq = cells.sequence.astype(np.intp)
    d = t1 / k1 - t0 / k0
    h = k0 * k1 / (k0 + k1)
    h_arm = np.bincount(seq, weights=h, minlength=2)
    d_arm = np.bincount(seq, weights=h * d, minlength=2) / h_arm
    within = np.sum(cells.ss0 - t0 * t0 / k0 + cells.ss1 - t1 * t1 / k1)
    sigma2 = float(within + np.sum(h * (d - d_arm[seq]) ** 2)) / dof
    return (float(d_arm[1] - d_arm[0]),
            sigma2 * float(1.0 / h_arm[0] + 1.0 / h_arm[1]), sigma2)


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


def _mixed_system(cells: CellStats, structure: CorrelationStructure,
                  vc: VarianceComponents, weight):
    """Unit-scale normal equations (M, v, y'Wy) of the GLS fit at components vc."""
    tw, tb = structure_taus(structure, vc)
    m, v, yqy, _ = normal_equations(cells, tw / vc.sigma_w2, tb / vc.sigma_w2,
                                    weight)
    return m, v, yqy


def gls_point_estimate(trial: ObservedTrial, structure: CorrelationStructure,
                       vc: VarianceComponents,
                       weighting: WeightingScheme = WeightingScheme.UNWEIGHTED) -> np.ndarray:
    """Solve the (weighted) GLS normal equations for (mu, delta, phi1)."""
    cells = trial.cells
    m, v, _ = _mixed_system(cells, structure, vc,
                            _cluster_weight(cells, weighting))
    return _solve_normal(m, v)[0]


def _fit_mixed(trial: ObservedTrial | CellStats, kind: EstimatorKind,
               options: FitOptions) -> FitResult:
    cells = trial.cells
    weight = _cluster_weight(cells, kind.weighting)
    converged = True
    vc = options.vc
    if vc is None:
        vc, converged = estimate_variance_components(
            trial, kind.structure, return_converged=True)
    m, v, yqy = _mixed_system(cells, kind.structure, vc, weight)
    theta, inv_dd = _solve_normal(m, v)
    if kind.weighted:
        # Weighted estimating equations are defined up to the weight scale;
        # a residual dispersion factor restores the variance to the scale of
        # the data, as in survey-weighted pseudo-likelihood software.
        scale = max(yqy - float(theta @ v), 0.0) / (cells.n_obs - 3)
    else:
        scale = vc.sigma_w2
    return FitResult(kind=kind, delta_hat=float(theta[1]),
                     n_clusters=cells.n_clusters,
                     model_based_var=scale * inv_dd,
                     vc_hat=vc, converged=converged)
