"""REML estimation of variance components for the unweighted mixed models.

The restricted likelihood is profiled over the residual variance, leaving
a one-dimensional search over the ICC for the exchangeable structure and
a two-dimensional search over (within-period ICC, cluster
auto-correlation) for the nested-exchangeable structure.  Each
likelihood evaluation is one product of the cell table's normal-equation
map (`blocks.normal_equations`) and a 3x3 Cholesky factorisation in
closed form.  A search that converges is polished by a few Newton steps
on the analytic gradient, which fixes the optimum to rounding rather than
to the square root of it; a search stopped at the iteration limit keeps
its point.  Each result is memoised on its cell table.  Outcomes that
leave no residual variation (a profiled quadratic that is not positive)
raise `EstimationError`.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .blocks import (cholesky3, lower_solve3, normal_equations,
                     normal_equations_with_gradient)
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

# Newton polish of a converged optimum: at most this many steps, each
# moving no search coordinate by more than the maximum step, with a
# forward-difference Hessian of the analytic gradient.
_POLISH_STEPS = 3
_POLISH_MAX_STEP = 1e-2
_POLISH_H = 1e-6
# Relative rounding error of a deviance evaluation: near the optimum a
# Newton step changes the deviance by less than this, in either direction.
_DEV_ROUNDING = 1e-13


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _profile(cells: CellStats, tw0: float, tb0: float):
    """(Cholesky factor of M or None, y'Wy - v'M^-1 v, sum of block log-dets)."""
    m, v, yqy, logdet_blocks = normal_equations(cells, tw0, tb0)
    chol = cholesky3(m)
    if chol is None:
        return None, 0.0, logdet_blocks
    z0, z1, z2 = lower_solve3(chol, v.tolist())
    return chol, yqy - (z0 * z0 + z1 * z1 + z2 * z2), logdet_blocks


def _deviance(cells: CellStats, tw0: float, tb0: float) -> float:
    """Profiled -2 restricted log-likelihood over variance ratios.

    Ratios are in residual-variance units: the covariance block is
    sigma_w2 * (I + U M0 U') with M0 = [[tw0, tb0], [tb0, tw0]].  A
    normal matrix that is not positive definite gives inf.
    """
    chol, quad, logdet_blocks = _profile(cells, tw0, tb0)
    if chol is None:
        return float("inf")
    dof = cells.n_obs - _N_PARAMS
    return (logdet_blocks + 2.0 * math.log(chol[0] * chol[2] * chol[5])
            + dof * math.log(max(quad, 1e-300)))


def _gradient(cells: CellStats, tw0: float, tb0: float) -> np.ndarray:
    """Gradient of `_deviance` in (tw0, tb0).

    With theta = M^-1 v and Q = y'Wy - v'theta, each ratio t gives
    d log det M = tr(M^-1 dM) and dQ = d(y'Wy) - 2 theta'dv + theta'dM theta.
    """
    (m, v, yqy, _), *derivatives = normal_equations_with_gradient(cells, tw0, tb0)
    m_inv = np.linalg.inv(m)
    theta = m_inv @ v
    quad = _residual(yqy - float(theta @ v))
    dof = cells.n_obs - _N_PARAMS
    return np.array([
        dlogdet + float(np.sum(m_inv * dm))
        + dof * (dyy - 2.0 * float(theta @ dv) + float(theta @ dm @ theta)) / quad
        for dm, dv, dyy, dlogdet in derivatives])


def _sigma2(cells: CellStats, tw0: float, tb0: float) -> float:
    """Profiled residual variance at the given ratios."""
    chol, quad, _ = _profile(cells, tw0, tb0)
    if chol is None:
        raise EstimationError("singular normal equations")
    return _residual(quad) / (cells.n_obs - _N_PARAMS)


def _residual(quad: float) -> float:
    """The profiled quadratic y'Wy - v'M^-1 v, which REML divides by."""
    if not 0.0 < quad < math.inf:
        raise EstimationError(
            f"profiled residual sum of squares is {quad!r}: the outcomes "
            "leave no residual variation to estimate components from")
    return quad


def _polish(cells: CellStats, x, ratios, lo, hi) -> np.ndarray:
    """Newton steps on the analytic gradient from a converged search point.

    ratios(x) gives (tw0, tb0) and their Jacobian in the search
    coordinates x, which stay within [lo, hi].  The Hessian is a forward
    difference of the gradient.  A step is taken only if the Hessian is
    positive definite, no coordinate moves by more than _POLISH_MAX_STEP
    and the deviance does not rise by more than its rounding error, so the
    search's point is kept when Newton's method does not apply there.
    """
    def grad(x):
        tw0, tb0, jac = ratios(x)
        return jac.T @ _gradient(cells, tw0, tb0)

    x = np.array(x, dtype=np.float64)
    dev = _deviance(cells, *ratios(x)[:2])
    for _ in range(_POLISH_STEPS):
        g = grad(x)
        h = np.column_stack([(grad(x + d) - g) / _POLISH_H
                             for d in _POLISH_H * np.eye(x.size)])
        h = 0.5 * (h + h.T)
        if np.linalg.eigvalsh(h)[0] <= 0.0:
            break
        step = -np.linalg.solve(h, g)
        x_new = x + step
        if (np.abs(step).max() > _POLISH_MAX_STEP
                or (x_new < lo).any() or (x_new > hi).any()):
            break
        dev_new = _deviance(cells, *ratios(x_new)[:2])
        if not dev_new <= dev + _DEV_ROUNDING * abs(dev):
            break
        x, dev = x_new, dev_new
    return x


def _snap_rho(rho: float) -> float:
    return 0.0 if rho <= _RHO_MIN * 10 else rho


def _snap_cac(cac: float) -> float:
    if cac <= _SNAP:
        return 0.0
    return 1.0 if cac >= 1.0 - _SNAP else cac


def _log_q_ratios(cac: float):
    """Ratios (q, cac q) and their Jacobian at x = (log q,) for a fixed cac.

    cac = 1 is the exchangeable structure, with q = rho / (1 - rho).
    """
    def ratios(x):
        q = math.exp(x[0])
        return q, cac * q, np.array([[q], [cac * q]])
    return ratios


def _nested_ratios(x):
    """Ratios (q, cac q) and their Jacobian at x = (log q, logit cac)."""
    q, c = math.exp(x[0]), _expit(x[1])
    return q, c * q, np.array([[q, 0.0], [c * q, q * c * (1.0 - c)]])


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
        x = float(res.x)
        if res.success and _snap_rho(_expit(x)) > 0.0:
            x = float(_polish(cells, [x], _log_q_ratios(1.0), lo, hi)[0])
        rho = _snap_rho(_expit(x))
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
    x = [min(max(float(res.x[0]), lo), hi), min(max(float(res.x[1]), clo), chi)]
    cac = _snap_cac(_expit(x[1]))
    if res.success and _snap_rho(_expit(x[0])) > 0.0:
        if cac in (0.0, 1.0):
            x[0] = float(_polish(cells, x[:1], _log_q_ratios(cac), lo, hi)[0])
        else:
            x = list(_polish(cells, x, _nested_ratios, [lo, clo], [hi, chi]))
            cac = _snap_cac(_expit(x[1]))
    rho_wp = _snap_rho(_expit(x[0]))
    q = rho_wp / (1.0 - rho_wp)
    sigma2 = max(_sigma2(cells, q, cac * q), 1e-10)
    total = sigma2 * q
    vc = VarianceComponents(sigma2, tau_alpha2=cac * total,
                            tau_gamma2=(1.0 - cac) * total)
    return vc, bool(res.success)
