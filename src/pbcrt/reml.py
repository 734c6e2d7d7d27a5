"""REML estimation of variance components for the unweighted mixed models.

The restricted likelihood is profiled over the residual variance, leaving
a one-dimensional search over the ICC for the exchangeable structure
(SciPy's bounded Brent) and a two-dimensional Nelder-Mead search over
(within-period ICC, cluster auto-correlation) for the nested-exchangeable
structure (SciPy's algorithm, step for step in Python floats).  Each
likelihood evaluation is one product with the normal-equation map
(`blocks.gls_map`) and a closed-form 3x3 Cholesky factorisation.  Newton
steps on the analytic gradient polish a converged optimum to rounding.
Results are memoised on the cell table.  Outcomes that leave no residual
variation raise `EstimationError`.
"""
from __future__ import annotations

import math
from functools import partial
from operator import itemgetter

import numpy as np
from scipy import optimize

from .blocks import M_ROWS, cholesky3, inverse_cell_terms, lower_solve3
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
_MAX_ITER = 500  # optimizer iterations

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


def _nelder_mead(func, x0):
    """SciPy 1.17's Nelder-Mead (non-adaptive, unbounded) on two coordinates.

    The same initial simplex, vertex expressions, stable vertex order and
    stopping rules in Python floats, so it returns the (x, fun, nit, nfev,
    success) of `scipy.optimize.minimize(func, x0, method="Nelder-Mead")`
    with xatol 1e-8, fatol 1e-10 and maxiter _MAX_ITER.  At most
    3 + 4 (_MAX_ITER - 1) evaluations are made.
    """
    a, b = x0
    sim = sorted(((func(p), p) for p in (
        (a, b), (1.05 * a if a != 0.0 else 0.00025, b),
        (a, 1.05 * b if b != 0.0 else 0.00025))), key=itemgetter(0))
    nfev, nit = 3, 1
    while nit < _MAX_ITER:
        (f0, (b0, b1)), (f1, p1), (fw, w) = sim
        if (all(abs(d) <= 1e-8 for d in (p1[0] - b0, p1[1] - b1,
                                          w[0] - b0, w[1] - b1))
                and abs(f0 - f1) <= 1e-10 and abs(f0 - fw) <= 1e-10):
            break
        c0, c1 = (b0 + p1[0]) / 2, (b1 + p1[1]) / 2

        def vertex(s, t):  # s xbar + t w
            p = (s * c0 + t * w[0], s * c1 + t * w[1])
            return func(p), p

        r = vertex(2, -1)
        nfev += 1
        if r[0] < f0:
            e = vertex(3, -2)
            nfev += 1
            sim[2] = e if e[0] < r[0] else r
        elif r[0] < f1:
            sim[2] = r
        else:
            outside = r[0] < fw
            c = vertex(1.5, -0.5) if outside else vertex(0.5, 0.5)
            nfev += 1
            if (c[0] <= r[0]) if outside else (c[0] < fw):
                sim[2] = c
            else:
                sim[1:] = [(func(p), p) for p in (
                    (b0 + 0.5 * (q[0] - b0), b1 + 0.5 * (q[1] - b1))
                    for _, q in sim[1:])]
                nfev += 2
        nit += 1
        sim.sort(key=itemgetter(0))
    return sim[0][1], sim[0][0], nit, nfev, nit < _MAX_ITER


def _factor(x, within: float):
    """(Cholesky factor of M or None, y'Wy - v'M^-1 v) from the nine map
    rows x of a unit-scale system, in Python floats."""
    chol = cholesky3(((x[0], x[1], x[2]), (x[1], x[3], x[3]), (x[2], x[3], x[4])))
    if chol is None:
        return None, 0.0
    z0, z1, z2 = lower_solve3(chol, x[5:8])
    return chol, x[8] + within - (z0 * z0 + z1 * z1 + z2 * z2)


def _profile(cells: CellStats, tw0: float, tb0: float):
    """(Cholesky factor of M or None, y'Wy - v'M^-1 v, sum of block log-dets):
    the unweighted `blocks.normal_equations` in Python floats."""
    e, logdet = inverse_cell_terms(cells.k0, cells.k1, 1.0, tw0, tb0)
    x = (cells.gls_map.reshape(9, -1) @ e.ravel()).tolist()
    return (*_factor(x, cells.block_sums[2]), float(logdet.sum()))


def _deviance(cells: CellStats, tw0: float, tb0: float) -> float:
    """Profiled -2 restricted log-likelihood over variance ratios.

    Ratios are in residual-variance units: the covariance block is
    sigma_w2 * (I + U M0 U') with M0 = [[tw0, tb0], [tb0, tw0]].  A
    normal matrix that is not positive definite, or a profiled quadratic
    that is not positive, gives inf.
    """
    chol, quad, logdet_blocks = _profile(cells, tw0, tb0)
    if chol is None or not quad > 0.0:
        return float("inf")
    dof = cells.n_obs - _N_PARAMS
    return (logdet_blocks + 2.0 * math.log(chol[0] * chol[2] * chol[5])
            + dof * math.log(quad))


def _gradient(cells: CellStats, tw0: float, tb0: float) -> np.ndarray:
    """Gradient of `_deviance` in (tw0, tb0).

    For e = (1, tw0, tb0) / D and either ratio t, de/dt = u_t / D - a_t e
    with u_t its unit vector, a_w = (k0 + k1 + 2 k0 k1 tw0) / D and
    a_b = -2 k0 k1 tb0 / D, so one product of the map with the columns 1/D,
    a_w/D and a_b/D gives the system and both derivatives.  With
    theta = M^-1 v, d log det M = tr(M^-1 dM) and the profiled quadratic
    changes by d(y'Wy) - 2 theta'dv + theta'dM theta.
    """
    k, kk, within = cells.block_sums
    e, _ = inverse_cell_terms(cells.k0, cells.k1, 1.0, tw0, tb0)
    a = np.array((k + (2.0 * tw0) * kk, (-2.0 * tb0) * kk)) * e[0]
    p = cells.gls_map @ np.vstack((e[0], a * e[0])).T
    cp = np.array((1.0, tw0, tb0)) @ p
    x = cp[:, 0].tolist()
    chol, quad = _factor(x, within)
    if chol is None:
        raise EstimationError("singular normal equations")
    l_inv = np.array([lower_solve3(chol, u) for u in np.eye(3).tolist()]).T
    m_inv = l_inv.T @ l_inv
    theta = m_inv @ x[5:8]
    dx = (p[:, 1:, 0] - cp[:, 1:]).T  # the map rows' derivatives
    dm = dx[:, M_ROWS].reshape(2, 3, 3)
    dq = dx[:, 8] - 2.0 * dx[:, 5:8] @ theta + theta @ dm @ theta
    return (a.sum(axis=1) + (m_inv * dm).sum(axis=(1, 2))
            + (cells.n_obs - _N_PARAMS) * dq / _residual(quad))


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


def _ratios(x, cac=None):
    """Ratios (q, cac q) and their Jacobian at x = (log q, logit cac), or at
    x = (log q,) for a fixed cac (1: exchangeable, q = rho / (1 - rho))."""
    q = math.exp(x[0])
    if cac is not None:
        return q, cac * q, np.array([[q], [cac * q]])
    c = _expit(x[1])
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
        return VarianceComponents(_sigma2(cells, 0.0, 0.0)), True

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
            x = float(_polish(cells, [x], partial(_ratios, cac=1.0), lo, hi)[0])
        rho = _snap_rho(_expit(x))
        r = rho / (1.0 - rho)
        sigma2 = _sigma2(cells, r, r)
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

    x, _, _, _, success = _nelder_mead(objective2, (_logit(0.05), _logit(0.5)))
    x = [min(max(x[0], lo), hi), min(max(x[1], clo), chi)]
    cac = _snap_cac(_expit(x[1]))
    if success and _snap_rho(_expit(x[0])) > 0.0:
        if cac in (0.0, 1.0):
            x[0] = float(_polish(cells, x[:1], partial(_ratios, cac=cac), lo, hi)[0])
        else:
            x = list(_polish(cells, x, _ratios, [lo, clo], [hi, chi]))
            cac = _snap_cac(_expit(x[1]))
    rho_wp = _snap_rho(_expit(x[0]))
    q = rho_wp / (1.0 - rho_wp)
    sigma2 = _sigma2(cells, q, cac * q)
    total = sigma2 * q
    vc = VarianceComponents(sigma2, tau_alpha2=cac * total,
                            tau_gamma2=(1.0 - cac) * total)
    return vc, success
