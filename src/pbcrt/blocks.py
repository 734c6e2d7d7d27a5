"""Closed-form algebra for the per-cluster covariance blocks.

Outcomes in one cluster stack as (period-0 cell, period-1 cell).  The
exchangeable structure puts a common covariance tau_alpha2 on every pair;
the nested-exchangeable structure adds tau_gamma2 for pairs in the same
period.  Every fit works in units of sigma_w2 (`unit_ratios`), where
each block is a rank-2 update of I and every quadratic form it needs is
linear in three per-cluster numbers, e = (1, tw, tb) / D with D the
determinant of the 2x2 cell system.  `gls_map` holds those coefficients
for one cell table, basis by basis, so `normal_equations` assembles the
3x3 GLS system shared by REML and every fit, for one or an array of
(ratios, row of the table's keep-masked jackknife stack) points, as one
contraction of the clusters' weights keep / D with the map (`assemble`).
`cholesky_solve` factors those systems from their upper triangles, and
`back_substitute` solves them and inverts the factor.
"""
from __future__ import annotations

import numpy as np

from .trial import CellStats, CorrelationStructure, VarianceComponents

__all__ = [
    "unit_ratios",
    "inverse_cell_terms",
    "gls_map",
    "normal_equations",
    "assemble",
    "cholesky_solve",
    "back_substitute",
]


def unit_ratios(structure: CorrelationStructure, vc: VarianceComponents) -> tuple[float, float]:
    """The ratios (tw, tb) of the unit-scale block: the (within-period,
    between-period) covariances of the random effects over sigma_w2."""
    if structure is CorrelationStructure.INDEPENDENCE:
        return 0.0, 0.0
    s, ta = vc.sigma_w2, vc.tau_alpha2
    if structure is CorrelationStructure.EXCHANGEABLE:
        return ta / s, ta / s
    return (ta + vc.tau_gamma2) / s, ta / s


def inverse_cell_terms(k, kk, tau_within, tau_between):
    """Determinant D of the 2x2 cell system at unit residual scale for
    arbitrary cell sizes, from k = k0 + k1 and kk = k0 k1.

    With U the (k0+k1) x 2 cell-indicator matrix and
    M = [[tw, tb], [tb, tw]], the block is R = I + U M U' with

        D = det(I + diag(k0, k1) M) = 1 + k tw + kk (tw - tb)(tw + tb),
        R^{-1} = I - U C U',   C = M (I + diag(k0, k1) M)^{-1},
        log det R = log D.

    Every entry of C is linear in e = (1, tw, tb) / D:

        k0 c00 = 1 - e_1 - k1 e_tw,   k1 c11 = 1 - e_1 - k0 e_tw,   c01 = e_tb.

    D is a sum of nonnegative terms whenever tw >= tb >= 0, as every
    structure here gives.  Vectorized over clusters and, with tw and tb of
    shape (..., 1), over points.  (At residual variance s, D is s^2 times
    D at (tw, tb) / s, and R is s times R at those ratios.)
    """
    tw, tb = tau_within, tau_between
    return k * tw + 1.0 + kk * ((tw - tb) * (tw + tb))


def gls_map(cells: CellStats) -> np.ndarray:
    """The (3, 9, I) coefficients of the unit-scale normal equations on e.

    With e the (3, I) inverse-block basis (1, tw, tb) / D of
    `inverse_cell_terms` at unit residual scale, the sum of this map times
    e over its first and last axes gives, in order, M[0, 0], M[0, 1],
    M[0, 2], M[1, 1] (= M[1, 2]), M[2, 2], the three entries of v, and
    y'W y less the within-cell sums of squares.  Per cluster, with cell
    means m0, m1 and kk = k0 k1, the inverse-block aggregates are

        w0 = k0 (1 + k1 tw) / D,  w1 = k1 (1 + k0 tw) / D,  wx = -kk tb / D,
        q0 = (k0 m0 (1 + k1 tw) - kk tb m1) / D,
        q1 = (k1 m1 (1 + k0 tw) - kk tb m0) / D,

    and the quadratic form of the cell means is
    (k0 m0^2 (1 + k1 tw) + k1 m1^2 (1 + k0 tw) - 2 kk tb m0 m1) / D.
    """
    k0, k1, m0, m1 = cells.k0, cells.k1, cells.mean0, cells.mean1
    kk = k0 * k1
    m01 = kk * (m0 + m1)
    out = np.empty((3, 9, k0.size))
    out[:, 0] = k0 + k1, 2.0 * kk, -2.0 * kk
    out[:, 2] = k1, kk, -kk
    out[:, 4] = k1, kk, np.zeros_like(kk)
    out[:, 5] = k0 * m0 + k1 * m1, m01, -m01
    out[:, 7] = k1 * m1, kk * m1, -kk * m0
    out[:, 8] = (k0 * m0 * m0 + k1 * m1 * m1, kk * (m0 * m0 + m1 * m1),
                 -2.0 * kk * m0 * m1)
    out[:, (1, 3, 6)] = cells.sequence * out[:, (2, 4, 7)]
    return out


def normal_equations(cells: CellStats, tau_within, tau_between, weight=None,
                     rows=0):
    """GLS normal equations of the (mu, delta, phi1) design at unit residual
    scale, `assemble`d at the clusters' D: the block of each cluster is
    I + U M U' with M = [[tw, tb], [tb, tw]] in residual-variance units.  The
    ratios and each point's row of `CellStats.keep` may be arrays of points."""
    tw, tb = np.asarray(tau_within), np.asarray(tau_between)
    det = inverse_cell_terms(*cells.block_sizes, tw[..., None], tb[..., None])
    return assemble(cells, det, tw, tb, cells.keep(rows), weight)


def assemble(cells: CellStats, det, tw, tb, keep, weight=None):
    """The normal equations at ratios (tw, tb) from the clusters' D and
    keep-mask rows.  Each cluster's weight is keep / D, divided also by
    `weight` (one value per cluster) when given; one `einsum` contracts the
    weights with the map, without BLAS, so no point's sums depend on the
    other points, and the nine sums are y_1 + tw y_tw + tb y_tb over its
    three bases.  Returns (M, v, y'W y) with the points' shape trailing, M
    as its upper triangle (M00, M01, M02, M11, M12, M22) and v of shape
    (3, ...), where W is the weighted inverse covariance."""
    w, within = keep / det, cells.within
    if weight is not None:
        w, within = w / weight, within / weight
    y = np.einsum("...i,kri->kr...", w, cells.gls_map)
    x = y[0] + tw * y[1] + tb * y[2]
    return ((x[0], x[1], x[2], x[3], x[3], x[4]), x[5:8],
            x[8] + np.einsum("...i,i->...", keep, within))


def cholesky_solve(m, v: np.ndarray):
    """Closed-form Cholesky factors of symmetric 3x3 matrices and L^-1 v.

    m holds the upper triangle (M00, M01, M02, M11, M12, M22) and v has
    shape (3, ...).  Returns the factor's entries (l00, l10, l11, l20,
    l21, l22) and those of z = L^-1 v.  M is positive definite exactly
    where l22 > 0; elsewhere the entries are NaN, infinite or zero, and
    numpy warns unless the caller silences it.
    """
    a, b, c, d, f, g = m
    l00 = np.sqrt(a)
    l10, l20 = b / l00, c / l00
    l11 = np.sqrt(d - l10 * l10)
    l21 = (f - l20 * l10) / l11
    l22 = np.sqrt(g - l20 * l20 - l21 * l21)
    z0 = v[0] / l00
    z1 = (v[1] - l10 * z0) / l11
    z2 = (v[2] - l20 * z0 - l21 * z1) / l22
    return (l00, l10, l11, l20, l21, l22), (z0, z1, z2)


def back_substitute(factor, z):
    """M^-1 v and the inverse of M's Cholesky factor L, from
    `cholesky_solve`'s factor and z = L^-1 v: theta = L'^-1 z and N = L^-1
    of shape (3, 3, ...), lower triangular, so that M^-1 = N'N."""
    l00, l10, l11, l20, l21, l22 = factor
    t2 = z[2] / l22
    t1 = (z[1] - l21 * t2) / l11
    t0 = (z[0] - l10 * t1 - l20 * t2) / l00
    n00, n11, n22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    n10, n21, zero = -(l10 * n00) / l11, -(l21 * n11) / l22, 0.0 * n00
    return np.array((t0, t1, t2)), np.array(((n00, zero, zero), (n10, n11, zero), (
        -(l20 * n00 + l21 * n10) / l22, n21, n22)))
