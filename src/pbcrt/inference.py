"""Variance estimation, confidence intervals, and Wald tests.

Two variance routes: the model-based GLS variance produced by each fit,
and the leave-one-cluster-out jackknife, which refits the whole estimator
(including variance components) on every delete-one table, as rows of
one keep-masked stack.  All t-based inference uses I - 2 degrees of freedom.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import special

from .estimators import EstimationError, EstimatorKind, FitOptions, FitResult, fit, fit_rows
from .trial import CellStats, ObservedTrial

__all__ = [
    "VarianceSource",
    "IntervalEstimate",
    "model_based_variance",
    "jackknife_variance",
    "confidence_interval",
    "wald_test",
    "fit_with_inference",
]


class VarianceSource(Enum):
    MODEL_BASED = "model"
    JACKKNIFE = "jackknife"


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float
    df: int
    variance_source: VarianceSource


def _df(n_clusters: int) -> int:
    # Two cluster-level design parameters (intercept, treatment).
    return n_clusters - 2


# A study asks for the same quantile once per estimator and variance source.
# `stdtrit` is what `scipy.stats.t.ppf` evaluates, without loading scipy.stats.
@lru_cache(maxsize=64)
def _t_quantile(q: float, df: int) -> float:
    return special.stdtrit(df, q)


def model_based_variance(trial: ObservedTrial, kind: EstimatorKind,
                         options: FitOptions = FitOptions()) -> float:
    """The (delta, delta) entry of the inverse normal equations for this fit."""
    return fit(trial, kind, options).model_based_var


def jackknife_variance(trial: ObservedTrial | CellStats, kind: EstimatorKind,
                       options: FitOptions = FitOptions()) -> tuple[float, np.ndarray]:
    """Leave-one-cluster-out jackknife variance and the replicate estimates.

    Each replicate refits the estimator from scratch on the cell table
    without one cluster; the variance is ((I-1)/I) * sum((d_i - dbar)^2)
    around the mean of the leave-one-out estimates.
    """
    result = fit_with_inference(trial, kind, options)
    return result.jackknife_var, result.jackknife_replicates


def confidence_interval(delta_hat: float, variance: float, n_clusters: int,
                        level: float = 0.95,
                        source: VarianceSource = VarianceSource.MODEL_BASED) -> IntervalEstimate:
    """t interval delta_hat +/- t_{df, 1-(1-level)/2} * sqrt(variance), df = I - 2.

    Elementwise for arrays of estimates and variances.
    """
    if np.any(np.asarray(variance) < 0):
        raise ValueError("variance must be nonnegative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    df = _df(n_clusters)
    half = _t_quantile(0.5 + level / 2.0, df) * np.sqrt(variance)
    return IntervalEstimate(lower=delta_hat - half, upper=delta_hat + half,
                            level=level, df=df, variance_source=source)


def wald_test(delta_hat: float, variance: float, n_clusters: int) -> float:
    """Two-sided t test p-value of delta = 0 with df = I - 2.

    Elementwise for arrays.  At zero variance p is 1 for a zero estimate
    and 0 otherwise.
    """
    d, v = np.abs(delta_hat), np.asarray(variance, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("variance must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(v == 0.0, d == 0.0,
                     2.0 * special.stdtr(_df(n_clusters), -(d / np.sqrt(v))))
    return float(p) if p.ndim == 0 else p


def fit_with_inference(trial: ObservedTrial | CellStats, kind: EstimatorKind,
                       options: FitOptions = FitOptions(),
                       jackknife: bool = True) -> FitResult:
    """Fit plus jackknife variance attached to the result; `converged` is
    False when the fit or any jackknife refit used non-converged REML.
    The fit and its I refits are the rows of one `fit_rows` call."""
    cells = trial.cells
    if not jackknife:
        return fit(cells, kind, options)
    arm = cells.sequence.astype(np.intp)
    lone = np.flatnonzero(np.bincount(arm)[arm] == 1)
    try:
        if cells.n_clusters < 3:
            raise EstimationError("jackknife needs at least 3 clusters")
        if lone.size:
            raise EstimationError(f"dropping cluster {cells.ids[lone[0]]!r} "
                                  "leaves a single-arm trial")
        result, *refits = fit_rows(cells, kind, options,
                                   range(cells.n_clusters + 1))
    except EstimationError:
        fit(cells, kind, options)  # the full table's own error comes first
        raise
    n = len(refits)
    reps = np.array([r.delta_hat for r in refits])
    var = (n - 1) / n * float(np.sum((reps - reps.mean()) ** 2))
    return replace(result, jackknife_var=var, jackknife_replicates=reps,
                   converged=all(r.converged for r in (result, *refits)))
