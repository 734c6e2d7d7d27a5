"""REML estimation of variance components for the unweighted mixed models.

The restricted likelihood is profiled over the residual variance (as in
lme4; Bates et al. 2015), and `_kernel` gives it, its exact gradient and
its Hessian from one assembly.  Each search runs all requested rows of a
table's jackknife stack at once: the exchangeable ratio by projected
Newton in the box of the variance ratios (`_newton`); the nested ICC and
cluster auto-correlation by SciPy's Nelder-Mead, ported step for step and
run in lockstep under `_drive`, then by `_newton` in the box from
converged optima.  A component on the boundary is an exact zero.  Results
are memoised per table, structure and row.
"""
from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .blocks import assemble, back_substitute, cholesky_solve, inverse_cell_terms
from .trial import (CellStats, CorrelationStructure, EstimationError,
                    ObservedTrial, VarianceComponents)

__all__ = ["estimate_variance_components"]

# Nelder-Mead's bounds keep rho away from 1 (a perfectly correlated
# cluster) and the logistic map well-conditioned.
_RHO_MIN = 1e-12
_RHO_MAX = 1.0 - 1e-6
_CAC_MIN = 1e-12
_CAC_MAX = 1.0 - 1e-12
# Newton's box 0 <= x <= _HI holds the ratios in residual-variance units:
# the exchangeable ratio at rho = _RHO_MAX bounds each.
_HI = (1.0 - 1e-6) / 1e-6

_N_PARAMS = 3  # mu, delta, phi1
_MAX_ITER = 500  # optimizer iterations

# The profiled quadratic y'Wy - v'M^-1 v is rounded to within 12 ulps of
# y'Wy on trials that the design fits exactly.  With a margin of _ULPS, a
# smaller quadratic leaves no residual variation, and a Newton step is no
# rise within _ULPS ulps of the deviance's terms: |dev|, and (n - 3) log quad.
_EPS = 2.0 ** -52
_ULPS = 64
# Newton: the least share of its steps tried, the step lengths tried in
# log x, and the distance from 0 within which a coordinate whose gradient
# points out of the box is 0.
_H = 1e-6
_LADDER = (1.0, 0.25, 0.0625)
_ACTIVE = 1e-10


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
    An outcome is the accepted candidate and the rank of the new vertex.
    When the last outcome has repeated n times, a request also asks for
    the candidates of the next min(n, 8) - 1 iterations on the path where
    it goes on repeating, only their reflection and expansion if it is one
    of those.  Their values are used, with the same float expressions as
    the iterations would compute, until an outcome differs or needs a
    contraction that was not asked.  The simplex is nine floats, (f, x, y)
    of the best, next and worst vertex, and a new vertex goes where
    `list.sort` would put it."""
    a, b = x0
    pts = [(a, b), (1.05 * a if a != 0.0 else 0.00025, b),
           (a, 1.05 * b if b != 0.0 else 0.00025)]
    values = yield pts
    # the values asked and the index of the next iteration's, the last outcome
    # (candidate lc, rank lk), the values it asks per iteration, its repeats
    nfev, nit, got, j, lc, lk, w, run = 3, 1, [], 0, 0, 0, 2, 0
    while True:
        if pts:  # the start and each shrink sort all three vertices
            (f0, (a0, b0)), (f1, (a1, b1)), (fw, (aw, bw)) = sorted(
                zip(values, pts), key=itemgetter(0))
        if nit >= _MAX_ITER or (
                abs(a1 - a0) <= 1e-8 and abs(b1 - b0) <= 1e-8
                and abs(aw - a0) <= 1e-8 and abs(bw - b0) <= 1e-8
                and abs(f0 - f1) <= 1e-10 and abs(f0 - fw) <= 1e-10):
            break
        fs = got[j:j + w]
        if fs and (fs[0] < f1 or w > 2):  # a predicted iteration
            cand, j = want[j:j + w], j + w
        else:  # this iteration, and those predicted while the outcome repeats
            c0, c1 = (a0 + a1) / 2, (b0 + b1) / 2
            want = cand = [
                (2.0 * c0 - aw, 2.0 * c1 - bw), (3.0 * c0 - 2.0 * aw, 3.0 * c1 - 2.0 * bw),
                (1.5 * c0 - 0.5 * aw, 1.5 * c1 - 0.5 * bw), (0.5 * c0 + 0.5 * aw, 0.5 * c1 + 0.5 * bw)]
            s, p = [a0, b0, a1, b1, aw, bw], cand
            for _ in range(min(run, 8, _MAX_ITER - nit) - 1):
                s[2 * lk:6] = [*p[lc], *s[2 * lk:4]]  # the accepted candidate at rank lk
                c0, c1, xw, yw = (s[0] + s[2]) / 2, (s[1] + s[3]) / 2, s[4], s[5]
                p = [(2.0 * c0 - xw, 2.0 * c1 - yw), (3.0 * c0 - 2.0 * xw, 3.0 * c1 - 2.0 * yw),
                     (1.5 * c0 - 0.5 * xw, 1.5 * c1 - 0.5 * yw),
                     (0.5 * c0 + 0.5 * xw, 0.5 * c1 + 0.5 * yw)][:w]
                want = want + p
            got = yield want
            fs, j = got[:4], 4
        fr = fs[0]
        nfev, nit, pts = nfev + 1, nit + 1, None
        if fr < f0:
            nfev += 1
            c = 1 if fs[1] < fr else 0
        elif fr < f1:
            c = 0
        else:
            nfev += 1
            c = 2 if fr < fw else 3
            if not ((fs[2] <= fr) if fr < fw else (fs[3] < fw)):
                pts = [(a0, b0), (a0 + 0.5 * (a1 - a0), b0 + 0.5 * (b1 - b0)),
                       (a0 + 0.5 * (aw - a0), b0 + 0.5 * (bw - b0))]
                values, nfev, got, run = [f0, *(yield pts[1:])], nfev + 2, [], 0
                continue
        # list.sort of (best, next, new), whose first two are in order
        fn, (an, bn) = fs[c], cand[c]
        if not fn < f1:
            k, fw, aw, bw = 2, fn, an, bn
        elif fn < f0:
            k, f0, a0, b0, f1, a1, b1, fw, aw, bw = 0, fn, an, bn, f0, a0, b0, f1, a1, b1
        else:
            k, f1, a1, b1, fw, aw, bw = 1, fn, an, bn, f1, a1, b1
        if c != lc or k != lk:
            got, lc, lk, w, run = [], c, k, 4 if c > 1 else 2, 0
        run += 1
    return (a0, b0), f0, nit, nfev, nit < _MAX_ITER


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


def _kernel(cells: CellStats, rows, tw, tb, dims=None):
    """The profiled -2 restricted log-likelihood sum keep log D + log det M
    + (n - 3) log quad at ratios (tw, tb) in residual-variance units, with
    quad = y'Wy - v'M^-1 v, and one ulp of y'Wy carried into it.  It is inf
    where quad is not positive, or M not positive definite.  With `dims`
    (0, 1 or 2) such points, and quadratics not above rounding, are refused,
    and it also returns quad / (n - 3) and the exact gradient and Hessian in
    the first `dims` of x = (ta, tg), tw = ta + tg and tb = ta.  With D e = u
    = (1, tw, tb), D_a = k + 2 kk tg, D_g = k + 2 kk tw, D_ag = D_gg = 2 kk and
    D_aa = 0: e_j = (u_j - D_j e) / D, e_jl = -(D_l e_j + D_j e_l + D_jl e) / D.
    The terms linear in the sums (sum keep D_j / D + tr(M^-1 M_j) + (n - 3)
    q_j / quad) are each cluster's weights on the map times e_j or e_jl; the
    Hessian adds -tr(M^-1 M_j M^-1 M_l) - (n - 3) (2 r_j'M^-1 r_l + q_j q_l /
    quad) / quad, with theta = M^-1 v, r_j = v_j - M_j theta and q_j = yy_j -
    2 theta'v_j + theta'M_j theta.
    """
    (k, kk), keep = cells.block_sizes, cells.keep(rows)
    det = inverse_cell_terms(k, kk, tw[:, None], tb[:, None])
    m, v, yy = assemble(cells, det, tw, tb, keep)
    dof = cells.row_obs[rows] - _N_PARAMS
    with np.errstate(all="ignore"):
        factor, z = cholesky_solve(m, v)
        quad = yy - (z[0] * z[0] + z[1] * z[1] + z[2] * z[2])
        dev = np.where(quad > 0.0, np.einsum("...i,...i->...", keep, np.log(det)) + 2.0 * np.log(
            factor[0] * factor[2] * factor[5]) + dof * np.log(quad), np.inf)
        ulp = dof * _EPS * yy / quad
    if dims is None:
        return dev, ulp
    bad = ~((_ULPS * _EPS * yy < quad) & (quad < math.inf))
    if bad.any():
        if not (factor[5] > 0.0).all():
            raise EstimationError("singular normal equations")
        raise EstimationError(f"profiled residual sum of squares is {float(quad[bad][0])!r}: the "
                              "outcomes leave no residual variation to estimate components from")
    if not dims:
        return dev, ulp, quad / dof
    theta, n = back_substitute(factor, z)
    s = dof / quad
    w = np.einsum("bap,bcp->acp", n, n) + s * theta[:, None] * theta
    weights = np.array((w[0, 0], 2.0 * w[0, 1], 2.0 * w[0, 2], w[1, 1] + 2.0 * w[1, 2],
                        w[2, 2], *(-2.0 * s * theta), s))
    dd = k + (2.0 * np.array((tw - tb, tw))[:dims, :, None]) * kk
    d2 = np.array(((0.0, 2.0), (2.0, 2.0)))[:dims, :dims, None, None] * kk
    e = np.array((np.ones_like(tw), tw, tb))[:, :, None] / det
    ej = (np.array(((0.0, 1.0, 1.0), (0.0, 1.0, 0.0)))[:dims, :, None, None]
          - dd[:, None] * e) / det
    sj = np.einsum("jbpi,bri->jrp", keep * ej, cells.gls_map)
    mj = sj[:, (0, 1, 2, 1, 3, 3, 2, 3, 4)].reshape(dims, 3, 3, -1)
    r = sj[:, 5:8] - np.einsum("jabp,bp->jap", mj, theta)
    q = (sj[:, 8] - np.einsum("jap,ap->jp", sj[:, 5:8] + r, theta)) / quad
    nr, nmn = (np.einsum("abp,jbp->jap", n, r) * np.sqrt(s),
               np.einsum("abp,jbcp,dcp->jadp", n, mj, n))
    gk = np.einsum("rp,kri->kpi", weights, cells.gls_map)
    ge, gej, a = (gk * e).sum(axis=0), np.einsum("bpi,jbpi->jpi", gk, ej), dd / det
    gejl = d2 * (1.0 - ge) / det - a[None] * gej[:, None] - a[:, None] * gej[None]
    hess = (np.einsum("jlpi,pi->jlp", gejl - a[:, None] * a[None], keep)
            - np.einsum("jabp,labp->jlp", nmn, nmn)
            - 2.0 * np.einsum("jap,lap->jlp", nr, nr) - dof * q[:, None] * q[None])
    return (dev, ulp, quad / dof, np.einsum("jpi,pi->pj", a + gej, keep),
            hess.transpose(2, 0, 1))


def _newton(cells: CellStats, rows, x):
    """Projected Newton on the deviance for all rows at once, from and
    into x: one point per row in the box 0 <= x <= _HI, (ta,) for the
    ratios tw = tb = ta, or (ta, tg) for tw = ta + tg and tb = ta.

    An iteration makes one `_kernel` call at x for the deviance, gradient
    and exact Hessian, and one at four projected steps: Newton's in x,
    which lands on 0 exactly, and the _LADDER of Newton's in log x, which
    moves a coordinate at 0 by the same share of the step in x.  The latter's
    Hessian is shifted up to a least eigenvalue of the gradient's norm, so
    that they move at most 1; the former's only if not positive definite.
    A coordinate at a bound, or within _ACTIVE of 0, with the gradient
    pointing out is set to the bound and stays.  The step in x is taken if
    below the full step and x, else the full step if below x or, with a
    positive definite Hessian, within rounding, else the longest step
    below x.  A row converges when its full step predicts a decrease below
    one ulp of y'Wy in the deviance, free of the outcomes' scale, and
    takes that step on the model alone.  A row that takes no step tries
    again with all four steps cut by a factor of 64, until it takes one;
    it fails when they are cut below _H of Newton's, or at _MAX_ITER.
    """
    d, eye, dev, ulp = x.shape[1], np.eye(x.shape[1]), np.empty(len(x)), np.empty(len(x))
    converged, todo = np.zeros(len(x), dtype=bool), np.arange(len(x))
    reach = np.ones(len(x))  # the share of Newton's steps that a row tries
    for _ in range(_MAX_ITER):
        if not todo.size:
            break
        xt = x[todo]
        dev[todo], ulp[todo], _, g, hx = _kernel(cells, rows[todo], xt.sum(axis=1), xt[:, 0], d)
        held = ((xt <= _ACTIVE) & (g > 0.0)) | ((xt >= _HI) & (g < 0.0))
        x[todo] = xt = np.where(held & (xt <= _ACTIVE), 0.0, xt)
        g = np.where(held, 0.0, g)
        # in log x, where a coordinate at 0 has no step, and in x
        gs = np.stack((xt * g, g), axis=1)
        hs = np.stack((xt[:, :, None] * hx * xt[:, None, :] + gs[:, 0, :, None] * eye,
                       hx), axis=1)
        free = ~np.stack((held | (xt == 0.0), held), axis=1)
        hs = np.where(free[..., None] & free[..., None, :], hs, eye)
        # the least eigenvalue and the shifted solve of each 1x1 or 2x2 system
        a, b, c = hs[..., 0, 0], (hs[..., 0, 1] if d == 2 else 0.0), hs[..., -1, -1]
        least = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
        shift = np.maximum(np.sqrt((gs * gs).sum(axis=2)) - least, 0.0)
        shift[:, 1] *= least[:, 1] <= 0.0
        a, c = a + shift, c + shift
        p = -np.stack((c * gs[..., 0] - b * gs[..., -1], a * gs[..., -1] - b * gs[..., 0]),
                      axis=2)[..., :d] / (a * c - b * b)[..., None]
        step = (xt + p[:, 1]).clip(0.0, _HI)
        done = -0.5 * ((gs[:, 0] * p[:, 0]).sum(axis=1) + np.where(
            xt == 0.0, g * step, 0.0).sum(axis=1)) <= ulp[todo]
        p *= reach[todo, None, None]
        step = (xt + p[:, 1]).clip(0.0, _HI)
        ladder = np.array(_LADDER)[:, None]
        pts = np.concatenate((step[:, None], np.where(
            xt[:, None] == 0.0, ladder * step[:, None],
            xt[:, None] * np.exp(ladder * p[:, :1]))), axis=1).clip(0.0, _HI)
        new, new_ulp = (y.reshape(pts.shape[:2]) for y in _kernel(cells, np.repeat(
            rows[todo], pts.shape[1]), pts.sum(axis=2).ravel(), pts[..., 0].ravel()))
        rounding = _ULPS * (ulp[todo] + _EPS * np.abs(dev[todo]))
        ok = new < dev[todo, None]
        ok[:, 0] &= new[:, 0] < new[:, 1]
        ok[:, 1] |= (least[:, 0] > 0.0) & (done | (new[:, 1] <= dev[todo] + rounding))
        moved, pick = ok.any(axis=1), np.argmax(ok, axis=1)
        take, at = (np.flatnonzero(moved), pick[moved]), todo[moved]
        x[at], dev[at], ulp[at], reach[at] = pts[take], new[take], new_ulp[take], 1.0
        reach[todo[~moved]] *= _LADDER[1] * _LADDER[2]
        converged[todo[done]] = True
        todo = todo[~done & (moved | (reach[todo] > _H))]
    return x, converged


def estimate_variance_components(trial: ObservedTrial | CellStats,
                                 structure: CorrelationStructure, rows=None):
    """REML variance components of the unweighted model for one structure.

    Returns a VarianceComponents, or with `rows` one (VarianceComponents,
    converged) pair per row of the table's jackknife stack
    (`CellStats.keep`), each an integer in 0..I (a ValueError names any
    other).  Estimates are clamped to [0, inf) with the ICC kept strictly
    below 1; non-convergence returns the best values found with
    converged=False.  Rows not yet memoised run in one search.
    """
    cells = trial.cells
    memo = cells.reml_memo.setdefault(structure, {})
    want, n = [0] if rows is None else list(rows), cells.n_clusters
    for r in want:
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 0 <= r <= n:
            raise ValueError(f"row {r!r} is not an integer in 0..{n}")
    want = [int(r) for r in want]
    todo = [r for r in dict.fromkeys(want) if r not in memo]
    if todo:
        memo.update(zip(todo, _reml(cells, structure, np.array(todo))))
    if rows is None:
        return memo[0][0]
    return [memo[r] for r in want]


def _reml(cells: CellStats, structure: CorrelationStructure,
          rows: np.ndarray) -> list[tuple[VarianceComponents, bool]]:
    if structure is CorrelationStructure.INDEPENDENCE:
        x, success = np.zeros((len(rows), 2)), np.ones(len(rows), dtype=bool)
    elif structure is CorrelationStructure.EXCHANGEABLE:
        x, success = _newton(cells, rows, np.full((len(rows), 1), 0.05 / 0.95))
        x = np.column_stack((x, np.zeros(len(rows))))
    else:
        big = (np.maximum(cells.k0, cells.k1) >= 2).astype(np.intp)
        if (big.sum() - np.where(rows > 0, big[rows - 1], 0) == 0).any():
            raise EstimationError(
                "nested REML needs a cell with at least two records: with one "
                "record per cell, sigma_w2 and tau_gamma2 are not identified")
        low = np.array([_logit(_RHO_MIN), _logit(_CAC_MIN)])
        high = np.array([_logit(_RHO_MAX), _logit(_CAC_MAX)])

        def deviance(at, x):  # x = (logit rho, logit cac)
            x = np.minimum(np.maximum(x, low), high)
            q = np.exp(x[:, 0])
            return _kernel(cells, at, q, _expit(x[:, 1]) * q)[0]

        # outcomes without residual variation are refused before the search
        _kernel(cells, rows, np.full(len(rows), 0.05 / 0.95),
                np.full(len(rows), 0.025 / 0.95), 0)
        found = _drive(rows, [_nelder_mead((_logit(0.05), _logit(0.5)))
                              for _ in rows], deviance)
        x = np.minimum(np.maximum(np.array([f[0] for f in found]), low), high)
        success = np.array([f[4] for f in found])
        # converged rows are polished in (ta, tg); the others keep their point
        q, c = np.exp(x[:, 0]), _expit(x[:, 1])
        x = np.column_stack((c * q, (1.0 - c) * q))
        x[success] = _newton(cells, rows[success], x[success])[0]
    sigma2 = _kernel(cells, rows, x.sum(axis=1), x[:, 0], 0)[2]
    return [(VarianceComponents(s, tau_alpha2=s * ta, tau_gamma2=s * tg), ok)
            for s, ta, tg, ok in zip(sigma2.tolist(), *x.T.tolist(), success.tolist())]
