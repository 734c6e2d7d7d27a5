"""Closed-form algebra for the per-cluster covariance blocks.

Outcomes in one cluster stack as (period-0 cell, period-1 cell).  The
exchangeable structure puts a common covariance tau_alpha2 on every pair;
the nested-exchangeable structure adds tau_gamma2 for pairs in the same
period.  Because entries only depend on cell membership, each block is a
rank-2 update of sigma_w2 * I, and every quadratic form the estimators
need is linear in three per-cluster numbers, e = (s, tw, tb) / D with D
the determinant of the 2x2 cell system.  `gls_map` holds those linear
coefficients for one cell table, so `normal_equations` assembles the 3x3
GLS system shared by REML and the independence and mixed fits as one
matrix product.  `cholesky3` factors that system in closed form.
"""
from __future__ import annotations

import math

import numpy as np

from .trial import CellStats, CorrelationStructure, VarianceComponents

__all__ = [
    "structure_taus",
    "inverse_cell_terms",
    "gls_map",
    "normal_equations",
    "cholesky3",
    "lower_solve3",
]

# Entries of the symmetric M among the first five rows of the map: the
# design (1, s*p, p) for period p makes M[1, 1] = M[1, 2].
M_ROWS = np.array([0, 1, 2, 1, 3, 3, 2, 3, 4])


def structure_taus(structure: CorrelationStructure, vc: VarianceComponents) -> tuple[float, float]:
    """(within-period, between-period) covariance contributions of the random effects."""
    if structure is CorrelationStructure.INDEPENDENCE:
        return 0.0, 0.0
    if structure is CorrelationStructure.EXCHANGEABLE:
        return vc.tau_alpha2, vc.tau_alpha2
    return vc.tau_alpha2 + vc.tau_gamma2, vc.tau_alpha2


def inverse_cell_terms(k0, k1, sigma_w2: float, tau_within: float, tau_between: float):
    """Inverse-block basis and log-determinant for arbitrary cell sizes.

    With U the (k0+k1) x 2 cell-indicator matrix and
    M = [[tw, tb], [tb, tw]], the block is R = s*I + U M U' with

        D = det(s*I + diag(k0, k1) M)
          = s (s + (k0 + k1) tw) + k0 k1 (tw - tb)(tw + tb),
        R^{-1} = (1/s) (I - U C U'),   C = M (s*I + diag(k0, k1) M)^{-1},
        log det R = (k0 + k1 - 2) log s + log D.

    Every entry of C is linear in e = (s, tw, tb) / D:

        k0 c00 = 1 - s (e_s + k1 e_tw),   k1 c11 = 1 - s (e_s + k0 e_tw),
        c01 = s e_tb.

    D is a sum of nonnegative terms whenever tw >= tb >= 0, as every
    structure here gives.  Vectorized over clusters: k0, k1 may be arrays.
    Returns (e, logdet) with e of shape (3, n).
    """
    k0 = np.asarray(k0, dtype=np.float64)
    k1 = np.asarray(k1, dtype=np.float64)
    s, tw, tb = sigma_w2, tau_within, tau_between
    k = k0 + k1
    det = k * (s * tw) + s * s + (k0 * k1) * ((tw - tb) * (tw + tb))
    e = np.multiply.outer((s, tw, tb), 1.0 / det.ravel())
    return e, np.log(det) if s == 1.0 else (k - 2.0) * math.log(s) + np.log(det)


def gls_map(cells: CellStats) -> np.ndarray:
    """The (9, 3, I) coefficients of the unit-scale normal equations on e.

    With e the (3, I) inverse-block basis of `inverse_cell_terms` at unit
    residual scale, the sum of this map times e over its last two axes
    gives, in order,
    M[0, 0], M[0, 1], M[0, 2], M[1, 1] (= M[1, 2]), M[2, 2], the three
    entries of v, and y'W y less the within-cell sums of squares.  Per
    cluster, with cell means m0, m1 and kk = k0 k1, the inverse-block
    aggregates are

        w0 = k0 (1 + k1 tw) / D,  w1 = k1 (1 + k0 tw) / D,  wx = -kk tb / D,
        q0 = (k0 m0 (1 + k1 tw) - kk tb m1) / D,
        q1 = (k1 m1 (1 + k0 tw) - kk tb m0) / D,

    and the quadratic form of the cell means is
    (k0 m0^2 (1 + k1 tw) + k1 m1^2 (1 + k0 tw) - 2 kk tb m0 m1) / D.
    """
    k0, k1, m0, m1, s = cells.k0, cells.k1, cells.mean0, cells.mean1, cells.sequence
    kk = k0 * k1
    zero = np.zeros_like(k0)
    w1 = (k1, kk, zero)
    w1x = (k1, kk, -kk)
    q1 = (k1 * m1, kk * m1, -kk * m0)
    m01 = kk * (m0 + m1)
    rows = [
        (k0 + k1, 2.0 * kk, -2.0 * kk),
        tuple(s * c for c in w1x),
        w1x,
        tuple(s * c for c in w1),
        w1,
        (k0 * m0 + k1 * m1, m01, -m01),
        tuple(s * c for c in q1),
        q1,
        (k0 * m0 * m0 + k1 * m1 * m1, kk * (m0 * m0 + m1 * m1),
         -2.0 * kk * m0 * m1),
    ]
    return np.array(rows)


def normal_equations(cells: CellStats, tau_within: float, tau_between: float,
                     weight=None):
    """GLS normal equations of the (mu, delta, phi1) design at unit residual scale.

    The block of each cluster is I + U M U' with M = [[tw, tb], [tb, tw]]
    in residual-variance units.  With a weight (one value per cluster),
    each cluster's terms are divided by it.  Returns (M, v, y'W y, sum of
    block log-determinants), where W is the weighted inverse covariance;
    the log-determinants ignore the weight.
    """
    e, logdet = inverse_cell_terms(cells.k0, cells.k1, 1.0, tau_within,
                                   tau_between)
    within = cells.within
    if weight is not None:
        e, within = e / weight, within / weight
    x = cells.gls_map.reshape(9, -1) @ e.ravel()
    return (x[M_ROWS].reshape(3, 3), x[5:8], float(x[8] + within.sum()),
            float(logdet.sum()))


def cholesky3(m):
    """Lower Cholesky factor (l00, l10, l11, l20, l21, l22) of a symmetric 3x3
    matrix given as nested sequences of Python floats; None unless it is
    positive definite."""
    (a, b, c), (_, d, f), (_, _, g) = m
    if not a > 0.0:
        return None
    l00 = math.sqrt(a)
    l10, l20 = b / l00, c / l00
    p = d - l10 * l10
    if not p > 0.0:
        return None
    l11 = math.sqrt(p)
    l21 = (f - l20 * l10) / l11
    p = g - l20 * l20 - l21 * l21
    if not p > 0.0:
        return None
    return l00, l10, l11, l20, l21, math.sqrt(p)


def lower_solve3(chol, v) -> tuple[float, float, float]:
    """L^-1 v for a factor from `cholesky3`."""
    l00, l10, l11, l20, l21, l22 = chol
    v0, v1, v2 = v
    z0 = v0 / l00
    z1 = (v1 - l10 * z0) / l11
    return z0, z1, (v2 - l20 * z0 - l21 * z1) / l22
