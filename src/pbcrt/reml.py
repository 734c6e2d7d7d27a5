"""REML estimation of variance components for the unweighted mixed models.

The restricted likelihood is profiled over the residual variance.  The
exchangeable structure searches the ICC with SciPy's bounded Brent, the
nested one (within-period ICC, cluster auto-correlation) with SciPy's
Nelder-Mead, both ported step for step in Python floats as generators
that yield the points they need.  `_drive` advances the searches of all
requested rows of a table's jackknife stack (`CellStats.keep`) in
lockstep, one `_deviance` call per round for all its points: one
`normal_equations` contraction and a closed-form 3x3 Cholesky.  Newton
steps on the analytic gradient polish converged optima, for all rows at
once.  Results are memoised per table, structure and row.
"""
from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .blocks import cholesky_solve, inverse_cell_terms, normal_equations
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


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _nelder_mead(x0):
    """SciPy 1.17's Nelder-Mead (non-adaptive, unbounded) on two coordinates.

    A search generator: it yields lists of points, is sent their values,
    and returns SciPy's (x, fun, nit, nfev, success) with xatol 1e-8,
    fatol 1e-10 and maxiter _MAX_ITER, step for step in Python floats.
    Each iteration asks for its reflection, expansion and both
    contractions at once, and for its shrink points in a second request.
    The simplex is nine floats, (f, x, y) of the best, next and worst
    vertex, and a new vertex goes where `list.sort` would put it."""
    a, b = x0
    pts = [(a, b), (1.05 * a if a != 0.0 else 0.00025, b),
           (a, 1.05 * b if b != 0.0 else 0.00025)]
    values = yield pts
    nfev, nit = 3, 1
    while True:
        if pts:  # the start and each shrink sort all three vertices
            (f0, (a0, b0)), (f1, (a1, b1)), (fw, (aw, bw)) = sorted(
                zip(values, pts), key=itemgetter(0))
        if nit >= _MAX_ITER or (
                abs(a1 - a0) <= 1e-8 and abs(b1 - b0) <= 1e-8
                and abs(aw - a0) <= 1e-8 and abs(bw - b0) <= 1e-8
                and abs(f0 - f1) <= 1e-10 and abs(f0 - fw) <= 1e-10):
            break
        c0, c1 = (a0 + a1) / 2, (b0 + b1) / 2
        r, e = (2.0 * c0 - aw, 2.0 * c1 - bw), (3.0 * c0 - 2.0 * aw, 3.0 * c1 - 2.0 * bw)
        oc, ic = (1.5 * c0 - 0.5 * aw, 1.5 * c1 - 0.5 * bw), (0.5 * c0 + 0.5 * aw,
                                                              0.5 * c1 + 0.5 * bw)
        fr, fe, foc, fic = yield [r, e, oc, ic]
        nfev, nit, pts = nfev + 1, nit + 1, None
        if fr < f0:
            nfev += 1
            fn, (an, bn) = (fe, e) if fe < fr else (fr, r)
        elif fr < f1:
            fn, (an, bn) = fr, r
        else:
            nfev += 1
            fn, (an, bn) = (foc, oc) if fr < fw else (fic, ic)
            if not ((fn <= fr) if fr < fw else (fn < fw)):
                pts = [(a0, b0), (a0 + 0.5 * (a1 - a0), b0 + 0.5 * (b1 - b0)),
                       (a0 + 0.5 * (aw - a0), b0 + 0.5 * (bw - b0))]
                values, nfev = [f0, *(yield pts[1:])], nfev + 2
                continue
        # list.sort of (best, next, new), whose first two are in order
        f0, a0, b0, f1, a1, b1, fw, aw, bw = (
            (f0, a0, b0, f1, a1, b1, fn, an, bn) if not fn < f1 else
            (fn, an, bn, f0, a0, b0, f1, a1, b1) if fn < f0 else
            (f0, a0, b0, fn, an, bn, f1, a1, b1))
    return (a0, b0), f0, nit, nfev, nit < _MAX_ITER


def _brent(lo: float, hi: float):
    """SciPy 1.17's bounded Brent search on [lo, hi] as a search generator
    on 1-tuples, returning the (x, fun, nit, nfev, success) of
    `scipy.optimize.minimize_scalar(func, bounds=(lo, hi),
    method="bounded")` with xatol 1e-8 and maxiter _MAX_ITER: the same
    golden-section and parabolic steps in Python floats."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx, = yield [(xf,)]
    num, fu = 1, math.inf
    ffulc = fnfc = fx
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + 1e-8 / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_ITER or abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu, = yield [(x,)]
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    success = num < _MAX_ITER and not any(map(math.isnan, (xf, fx, fu)))
    return xf, fx, num, num, success


def _drive(rows: np.ndarray, searches: list, deviance) -> list:
    """Run one search generator per row in lockstep, one call of
    deviance(rows, points) per round; return the searches' results."""
    results, at = [None] * len(searches), rows
    pending = [(i, s, next(s)) for i, s in enumerate(searches)]
    while pending:
        points, counts = [], []
        for _, _, pts in pending:
            points += pts
            counts.append(len(pts))
        x = np.fromiter(chain.from_iterable(points), np.float64,
                        len(points) * len(points[0])).reshape(len(points), -1)
        values = deviance(np.repeat(at, counts), x).tolist()
        waiting, j = [], 0
        for i, search, pts in pending:
            n = j + len(pts)
            try:
                waiting.append((i, search, search.send(values[j:n])))
            except StopIteration as done:
                results[i] = done.value
            j = n
        if len(waiting) < len(pending):
            at = rows[[i for i, _, _ in waiting]]
        pending = waiting
    return results


def _deviance(cells: CellStats, rows, tw0, tb0, parts: bool = False):
    """Profiled -2 restricted log-likelihood over variance ratios.

    Ratios are in residual-variance units: the covariance block is
    sigma_w2 * (I + U M0 U') with M0 = [[tw0, tb0], [tb0, tw0]].  A
    profiled quadratic that is not positive gives inf; so does a normal
    matrix that is not positive definite, which makes it NaN or -inf.
    With `parts`, also M, v, the quadratic y'Wy - v'M^-1 v and whether M
    is positive definite.
    """
    m, v, yy, logdet = normal_equations(cells, tw0, tb0, rows=rows)
    with np.errstate(all="ignore"):
        (l00, _, l11, _, _, l22), (z0, z1, z2) = cholesky_solve(m, v)
        quad = yy - (z0 * z0 + z1 * z1 + z2 * z2)
        dev = np.where(quad > 0.0, logdet + 2.0 * np.log(l00 * l11 * l22)
                       + (cells.row_obs[rows] - _N_PARAMS) * np.log(quad), np.inf)
        return (dev, m, v, quad, l22 > 0.0) if parts else dev


def _profiled(cells: CellStats, rows, tw0, tb0):
    """(M, v, y'Wy - v'M^-1 v) at each point, raising where `_deviance`
    is inf."""
    _, m, v, quad, pd = _deviance(cells, rows, tw0, tb0, parts=True)
    if not pd.all():
        raise EstimationError("singular normal equations")
    bad = ~((0.0 < quad) & (quad < math.inf))
    if bad.any():
        raise EstimationError(
            f"profiled residual sum of squares is {float(quad[bad][0])!r}: "
            "the outcomes leave no residual variation to estimate "
            "components from")
    return m, v, quad


def _sigma2(cells: CellStats, rows, tw0, tb0) -> np.ndarray:
    """Profiled residual variance at the given ratios, one per point."""
    return _profiled(cells, rows, tw0, tb0)[2] / (cells.row_obs[rows] - _N_PARAMS)


def _gradient(cells: CellStats, rows, tw0, tb0) -> np.ndarray:
    """Gradient of `_deviance` in (tw0, tb0), one row of two per point.

    With theta = M^-1 v, d log det M = tr(M^-1 dM) and the profiled
    quadratic changes by d(y'Wy) - 2 theta'dv + theta'dM theta, so the
    deviance changes by the nine sums' derivatives times fixed weights
    from A = M^-1 + (n - 3) / quad theta theta', plus the log-determinants'
    sum of a_t = dD/dt / D.  The map times those weights gives each
    cluster's coefficients g_k on the basis e = (1, tw0, tb0) / D, and
    de/dt = u_t / D - a_t e with u_t the unit vector of ratio t.
    """
    (a, b, c, d, f, g), v, quad = _profiled(cells, rows, tw0, tb0)
    m_inv = np.linalg.inv(np.stack((a, b, c, b, d, f, c, f, g), -1).reshape(-1, 3, 3))
    theta = (m_inv * v.T[:, None, :]).sum(axis=-1)
    s = (cells.row_obs[rows] - _N_PARAMS) / quad
    t = m_inv + s[:, None, None] * theta[:, :, None] * theta[:, None, :]
    weights = np.column_stack((t[:, 0, 0], 2.0 * t[:, 0, 1], 2.0 * t[:, 0, 2],
                               t[:, 1, 1] + 2.0 * t[:, 1, 2], t[:, 2, 2],
                               -2.0 * s[:, None] * theta, s))
    tw, tb = tw0[:, None], tb0[:, None]
    (k, kk), keep = cells.block_sizes, cells.keep(rows)
    det, _ = inverse_cell_terms(k, kk, 1.0, tw, tb)
    at = np.stack((k + (2.0 * tw) * kk, (-2.0 * tb) * kk)) / det
    gk = np.einsum("pr,kri->kpi", weights, cells.gls_map)
    return (keep * (at + (gk[1:] - at * (gk[0] + tw * gk[1] + tb * gk[2])) / det)
            ).sum(axis=-1).T


def _ratios(x: np.ndarray, cac=None):
    """(q, c) at points x = (log q, logit c), or x = (log q,) with c = cac
    per point; the variance ratios are (q, c q)."""
    return np.exp(x[:, 0]), (_expit(x[:, 1]) if cac is None else cac)


def _polish(cells: CellStats, rows, x, lo, hi, cac=None) -> np.ndarray:
    """Newton steps on the analytic gradient from converged search points.

    x holds one point per row in the coordinates of `_ratios`, which stay
    within [lo, hi]; the Hessian is a forward difference of the gradient.
    A row steps only while its Hessian is positive definite, no coordinate
    moves by more than _POLISH_MAX_STEP and the deviance does not rise by
    more than its rounding error.
    """
    x = np.array(x, dtype=np.float64)
    d = x.shape[1]
    q, c = _ratios(x, cac)
    dev = _deviance(cells, rows, q, c * q)
    probes = np.vstack((np.zeros(d), _POLISH_H * np.eye(d)))
    todo = np.arange(len(x))
    for _ in range(_POLISH_STEPS):
        q, c = _ratios((x[todo][:, None] + probes).reshape(-1, d),
                       None if cac is None else np.repeat(cac[todo], d + 1))
        g = _gradient(cells, np.repeat(rows[todo], d + 1), q, c * q)
        # by the chain rule, in (log q, logit c)
        g = np.stack((q * (g[:, 0] + c * g[:, 1]), q * c * (1.0 - c) * g[:, 1]),
                     axis=-1)[:, :d].reshape(-1, d + 1, d)
        h = np.swapaxes(g[:, 1:] - g[:, :1], 1, 2) / _POLISH_H
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        ok = np.linalg.eigvalsh(h)[:, 0] > 0.0
        h[~ok] = np.eye(d)
        step = -np.linalg.solve(h, g[:, 0, :, None])[..., 0]
        x_new = x[todo] + step
        ok &= ((np.abs(step).max(axis=1) <= _POLISH_MAX_STEP)
               & (x_new >= lo).all(axis=1) & (x_new <= hi).all(axis=1))
        dev_new = np.full(todo.size, np.inf)
        if ok.any():
            q, c = _ratios(x_new[ok], None if cac is None else cac[todo[ok]])
            dev_new[ok] = _deviance(cells, rows[todo[ok]], q, c * q)
        ok &= dev_new <= dev[todo] + _DEV_ROUNDING * np.abs(dev[todo])
        x[todo[ok]], dev[todo[ok]] = x_new[ok], dev_new[ok]
        todo = todo[ok]
        if not todo.size:
            break
    return x


def _snap_rho(rho: np.ndarray) -> np.ndarray:
    return np.where(rho <= _RHO_MIN * 10, 0.0, rho)


def _snap_cac(cac: np.ndarray) -> np.ndarray:
    return np.where(cac <= _SNAP, 0.0, np.where(cac >= 1.0 - _SNAP, 1.0, cac))


def estimate_variance_components(trial: ObservedTrial | CellStats,
                                 structure: CorrelationStructure,
                                 return_converged: bool = False, rows=None):
    """REML variance components of the unweighted model for one structure.

    Returns a VarianceComponents (and a convergence flag when
    return_converged is set); with `rows`, a list of (VarianceComponents,
    converged) pairs, one per row of the table's jackknife stack
    (`CellStats.keep`).  Estimates are clamped to [0, inf) with the ICC
    kept strictly below 1; non-convergence returns the best values found
    with converged=False.  Rows not yet memoised run in one lockstep drive.
    """
    cells = trial.cells
    memo = cells.reml_memo.setdefault(structure, {})
    want = [0] if rows is None else [int(r) for r in rows]
    todo = [r for r in dict.fromkeys(want) if r not in memo]
    if todo:
        memo.update(zip(todo, _reml(cells, structure, np.array(todo))))
    if rows is None:
        return memo[0] if return_converged else memo[0][0]
    return [memo[r] for r in want]


def _reml(cells: CellStats, structure: CorrelationStructure,
          rows: np.ndarray) -> list[tuple[VarianceComponents, bool]]:
    if structure is CorrelationStructure.INDEPENDENCE:
        return [(VarianceComponents(s), True)
                for s in _sigma2(cells, rows, 0.0, 0.0).tolist()]

    nested = structure is CorrelationStructure.NESTED_EXCHANGEABLE
    lo, hi = _logit(_RHO_MIN), _logit(_RHO_MAX)
    low = np.array([lo, _logit(_CAC_MIN)][:1 + nested])
    high = np.array([hi, _logit(_CAC_MAX)][:1 + nested])
    if nested:
        big = (np.maximum(cells.k0, cells.k1) >= 2).astype(np.intp)
        if (big.sum() - np.where(rows > 0, big[rows - 1], 0) == 0).any():
            raise EstimationError(
                "nested REML needs a cell with at least two records: with one "
                "record per cell, sigma_w2 and tau_gamma2 are not identified")
        searches = [_nelder_mead((_logit(0.05), _logit(0.5))) for _ in rows]
    else:
        searches = [_brent(lo, hi) for _ in rows]

    def deviance(at, x):  # x = (logit rho, logit cac), or (logit rho,) at cac 1
        x = np.minimum(np.maximum(x, low), high)
        q = np.exp(x[:, 0])
        return _deviance(cells, at, q, _expit(x[:, 1]) * q if nested else q)

    found = _drive(rows, searches, deviance)
    x, success = np.array([f[0] for f in found]), [f[4] for f in found]
    x = np.minimum(np.maximum(x.reshape(len(rows), -1), low), high)
    cac = _snap_cac(_expit(x[:, 1])) if x.shape[1] == 2 else np.ones(len(x))
    polish = np.array(success) & (_snap_rho(_expit(x[:, 0])) > 0.0)
    edge = polish & ((cac == 0.0) | (cac == 1.0))
    if edge.any():
        x[edge, 0] = _polish(cells, rows[edge], x[edge, :1], low[:1], high[:1],
                             cac=cac[edge])[:, 0]
    inner = polish & ~edge
    if inner.any():
        x[inner] = _polish(cells, rows[inner], x[inner], low, high)
        cac[inner] = _snap_cac(_expit(x[inner, 1]))
    rho_wp = _snap_rho(_expit(x[:, 0]))
    q = rho_wp / (1.0 - rho_wp)
    sigma2 = _sigma2(cells, rows, q, cac * q)
    total = sigma2 * q
    return [(VarianceComponents(s, tau_alpha2=c * t, tau_gamma2=(1.0 - c) * t), ok)
            for s, c, t, ok in zip(sigma2.tolist(), cac.tolist(), total.tolist(),
                                   success)]
