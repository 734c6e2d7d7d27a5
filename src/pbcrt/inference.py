"""Variance estimation, confidence intervals, and Wald tests.

Two variance routes: the model-based GLS variance of each fit, and the
leave-one-cluster-out jackknife, which refits the whole estimator (variance
components included) on every delete-one table, as rows of one keep-masked
stack.  t inference uses I - 2 degrees of freedom and its own t tail and quantile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .estimators import (EstimationError, EstimatorKind, FitOptions, FitResult, _result,
                         fit_rows)
from .trial import CellStats, ObservedTrial

__all__ = [
    "IntervalEstimate",
    "jackknife_variance",
    "confidence_interval",
    "wald_test",
    "fit_with_inference",
    "fit_kinds",
]


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float
    df: int


def _df(n_clusters: int) -> int:
    # Two cluster-level design parameters (intercept, treatment).
    if n_clusters < 3:
        raise ValueError("t inference has I - 2 degrees of freedom and needs "
                         f"at least 3 clusters, got {n_clusters}")
    return n_clusters - 2


@lru_cache(maxsize=64)
def _inv_beta(df: int) -> float:
    """1 / B(df/2, 1/2) from exact integer ratios, with m = df // 2."""
    m = df // 2
    c = math.comb(2 * m, m)
    return 4**m / c / math.pi if df % 2 else m * c / 4**m


# p_n of DiDonato & Morris's (1992) BGRAT expansion at b = 1/2, their eq. 9.3.
_BGRAT_P = [1.0]
for _n in range(1, 30):
    _BGRAT_P.append(sum((_m / 2 - _n) * _BGRAT_P[_n - _m] / math.factorial(2 * _m + 1)
                        for _m in range(1, _n)) / _n - 0.5 / math.factorial(2 * _n + 1))


def _t_tail(t, df: int) -> np.ndarray:
    """Two-sided P(|T| > t) of Student's t, t >= 0, elementwise (a 0-d array for a
    float): I_x(a, 1/2) with a = df/2 and x = 1/(1 + u), u = t^2/df, and 1 - x formed
    apart for tiny and huge t.  It is the sum of the positive terms x^a (1 - x)^(1/2)
    / (a B(a, 1/2)) at a, a + 1, ...  Where x > 1/2 it steps to a >= 10 and adds the
    rest by BGRAT's expansion for large a and small b (DiDonato & Morris 1992)."""
    t = np.asarray(t, dtype=np.float64)
    a, u = df / 2.0, t * t / df
    with np.errstate(all="ignore"):
        x, lx, big = 1.0 / (1.0 + u), np.log1p(u), u >= 1.0
        p, term = 0.0 * u, (np.sqrt(np.where(u > 1.0, 1.0 - x, u * x)) * np.exp(-a * lx)
                            * _inv_beta(df) / a)
        while a < 10.0:
            p, term, a = p + term, term * x * (a + 0.5) / (a + 1.0), a + 1.0
        T, k, live = a - 0.25, _inv_beta(int(2.0 * a)), ~big & (u > 0.0)
        # where x <= 1/2 terms fall at least twofold, so from one below 1e-17 p on none moves p
        term = np.where(big, term, 0.0)
        while (term > 1e-17 * p).any():
            p, term, a = p + term, term * x * (a + 0.5) / (a + 1.0), a + 1.0
        v = T * lx  # BGRAT's u; s is its prefix times J_n, w times (ln x / 2)^2n
        s = math.sqrt(math.pi / T) * k * np.array(
            [math.erfc(z) for z in np.sqrt(v).ravel().tolist()]).reshape(v.shape)
        w = np.sqrt(v / T) * np.exp(-v) * k
        for n in range(30):
            if not live.any():
                break
            p = np.where(live, p + _BGRAT_P[n] * s, p)
            live &= np.abs(_BGRAT_P[n] * s) > 1e-17 * p
            s = ((2 * n + 0.5) * (2 * n + 1.5) * s + (v + 2 * n + 1.5) * w) / (4.0 * T * T)
            w *= lx * lx / 4.0
        return np.where(u > 0.0, p, np.where(u == 0.0, 1.0, u))


# A study asks for the same quantile once per estimator and variance source.
@lru_cache(maxsize=64)
def _t_quantile(q: float, df: int) -> float:
    """The q quantile of Student's t, 1/2 <= q <= 1, by Newton steps on `_t_tail`
    from the normal quantile, which rise to the root as the tail is convex, until
    the next step, about step^2 (df + 1) t / (2 (df + t^2)), is below 1e-16 t."""
    p = 2.0 * (1.0 - q)
    if p == 0.0:
        return math.inf
    from statistics import NormalDist  # here, as it loads 5 more modules
    t = NormalDist().inv_cdf(q)
    for _ in range(100):  # about 60 at most, for df = 1 and q = 1 - 2^-53
        f = math.exp(-(df + 1) / 2.0 * math.log1p(t * t / df)) * _inv_beta(df)
        step = (float(_t_tail(t, df)) - p) * math.sqrt(df) / (2.0 * f)
        t += step
        if step * step * (df + 1) <= 2e-16 * (df + t * t):
            break
    return t


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
                        level: float = 0.95) -> IntervalEstimate:
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
                            level=level, df=df)


def wald_test(delta_hat: float, variance: float, n_clusters: int) -> float:
    """Two-sided t test p-value of delta = 0 with df = I - 2.

    Elementwise for arrays.  At zero variance p is 1 for a zero estimate
    and 0 otherwise.
    """
    d, v = np.abs(delta_hat), np.asarray(variance, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("variance must be nonnegative")
    df = _df(n_clusters)
    t = d / np.sqrt(np.where(v == 0.0, 1.0, v))
    p = np.where(v == 0.0, d == 0.0, _t_tail(t, df))
    return float(p) if p.ndim == 0 else p


def fit_with_inference(trial: ObservedTrial | CellStats, kind: EstimatorKind,
                       options: FitOptions = FitOptions(),
                       jackknife: bool = True) -> FitResult:
    """Fit plus jackknife variance attached to the result; `converged` is
    False when the fit or any jackknife refit used non-converged REML.
    The one-kind case of `fit_kinds`."""
    return _result(fit_kinds(trial, (kind,), options, jackknife)[kind])


def fit_kinds(trial: ObservedTrial | CellStats, kinds,
              options: FitOptions = FitOptions(), jackknife: bool = True) -> dict:
    """`fit_with_inference` of every kind in one pass: per kind, its result
    or the `EstimationError` that stopped it.  The fits and their I refits
    are the rows of one `fit_rows` call."""
    cells = trial.cells
    if not jackknife:
        return {k: f if isinstance(f, EstimationError) else f[0]
                for k, f in fit_rows(cells, kinds, options, 0).items()}
    arm = cells.sequence.astype(np.intp)
    lone = np.flatnonzero(np.bincount(arm)[arm] == 1)
    why = ("jackknife needs at least 3 clusters" if cells.n_clusters < 3 else
           f"dropping cluster {cells.ids[lone[0]]!r} leaves a single-arm trial"
           if lone.size else None)
    found = ({k: EstimationError(why) for k in kinds} if why else
             fit_rows(cells, kinds, options, range(cells.n_clusters + 1)))
    # A kind's error on the full table comes before its jackknife's.
    failed = [k for k, f in found.items() if isinstance(f, EstimationError)]
    if failed:
        found.update((k, f) for k, f in fit_rows(cells, failed, options, 0).items()
                     if isinstance(f, EstimationError))
    for kind, fits in found.items():
        if not isinstance(fits, EstimationError):
            result, *refits = fits
            reps = np.array([r.delta_hat for r in refits])
            var = (reps.size - 1) / reps.size * float(np.sum((reps - reps.mean()) ** 2))
            found[kind] = replace(result, jackknife_var=var, jackknife_replicates=reps,
                                  converged=all(r.converged for r in fits))
    return found
