"""REML estimation of variance components for the unweighted mixed models.

The restricted likelihood is profiled over the residual variance, leaving
a one-dimensional search over the ICC for the exchangeable structure and
a two-dimensional search over (within-period ICC, cluster
auto-correlation) for the nested-exchangeable structure.  All likelihood
evaluations run on vectorized per-cluster cell statistics, and each
result is memoised on its cell table.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .blocks import normal_equations
from .trial import (CellStats, CorrelationStructure, EstimationError,
                    ObservedTrial, VarianceComponents)

__all__ = ["estimate_variance_components"]

# Bounds keep rho away from 1 (a perfectly correlated cluster) and the
# logistic map well-conditioned; the lower bound is indistinguishable from
# an exact zero component.
_RHO_MIN = 1e-12
_RHO_MAX = 1.0 - 1e-6
_CAC_MIN = 1e-12
_CAC_MAX = 1.0 - 1e-12
_SNAP = 1e-10

_N_PARAMS = 3  # mu, delta, phi1
_MAX_ITER = 500  # optimizer iterations; Nelder-Mead may use 4x as many evaluations


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _deviance(cells: CellStats, tw0: float, tb0: float) -> float:
    """Profiled -2 restricted log-likelihood over variance ratios.

    Ratios are in residual-variance units: the covariance block is
    sigma_w2 * (I + U M0 U') with M0 = [[tw0, tb0], [tb0, tw0]].
    """
    m, v, yqy, logdet_blocks = normal_equations(cells, tw0, tb0)
    sign, logdet_m = np.linalg.slogdet(m)
    if sign <= 0:
        return float("inf")
    quad = max(yqy - float(v @ np.linalg.solve(m, v)), 1e-300)
    dof = cells.n_obs - _N_PARAMS
    return logdet_blocks + float(logdet_m) + dof * math.log(quad)


def _sigma2(cells: CellStats, tw0: float, tb0: float) -> float:
    """Profiled residual variance at the given ratios."""
    m, v, yqy, _ = normal_equations(cells, tw0, tb0)
    quad = max(yqy - float(v @ np.linalg.solve(m, v)), 0.0)
    return quad / (cells.n_obs - _N_PARAMS)


def _snap_rho(rho: float) -> float:
    return 0.0 if rho <= _RHO_MIN * 10 else rho


def estimate_variance_components(trial: ObservedTrial | CellStats,
                                 structure: CorrelationStructure,
                                 return_converged: bool = False):
    """REML variance components of the unweighted model for one structure.

    Returns a VarianceComponents (and a convergence flag when
    return_converged is set).  Estimates are clamped to [0, inf) with the
    ICC kept strictly below 1; non-convergence returns the best values
    found with converged=False.  The search runs once per cell table and
    structure; later calls return the memoised result.
    """
    memo = trial.cells.reml_memo
    if structure not in memo:
        memo[structure] = _reml(trial.cells, structure)
    vc, converged = memo[structure]
    return (vc, converged) if return_converged else vc


def _reml(cells: CellStats,
          structure: CorrelationStructure) -> tuple[VarianceComponents, bool]:
    if structure is CorrelationStructure.INDEPENDENCE:
        return VarianceComponents(max(_sigma2(cells, 0.0, 0.0), 1e-10)), True

    lo, hi = _logit(_RHO_MIN), _logit(_RHO_MAX)
    if structure is CorrelationStructure.EXCHANGEABLE:
        def objective(x: float) -> float:
            rho = _expit(min(max(x, lo), hi))
            r = rho / (1.0 - rho)
            return _deviance(cells, r, r)

        res = optimize.minimize_scalar(
            objective, bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-8, "maxiter": _MAX_ITER})
        rho = _snap_rho(_expit(float(res.x)))
        r = rho / (1.0 - rho)
        sigma2 = max(_sigma2(cells, r, r), 1e-10)
        return VarianceComponents(sigma2, tau_alpha2=sigma2 * r), bool(res.success)

    if max(cells.k0.max(), cells.k1.max()) < 2:
        raise EstimationError(
            "nested REML needs a cell with at least two records: with one "
            "record per cell, sigma_w2 and tau_gamma2 are not identified")

    clo, chi = _logit(_CAC_MIN), _logit(_CAC_MAX)

    def objective2(x) -> float:
        rho_wp = _expit(min(max(x[0], lo), hi))
        cac = _expit(min(max(x[1], clo), chi))
        q = rho_wp / (1.0 - rho_wp)
        return _deviance(cells, q, cac * q)

    x0 = np.array([_logit(0.05), _logit(0.5)])
    res = optimize.minimize(
        objective2, x0, method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": _MAX_ITER,
                 "maxfev": 4 * _MAX_ITER})
    rho_wp = _snap_rho(_expit(min(max(float(res.x[0]), lo), hi)))
    cac = _expit(min(max(float(res.x[1]), clo), chi))
    if cac <= _SNAP:
        cac = 0.0
    elif cac >= 1.0 - _SNAP:
        cac = 1.0
    q = rho_wp / (1.0 - rho_wp)
    sigma2 = max(_sigma2(cells, q, cac * q), 1e-10)
    total = sigma2 * q
    vc = VarianceComponents(sigma2, tau_alpha2=cac * total,
                            tau_gamma2=(1.0 - cac) * total)
    return vc, bool(res.success)
