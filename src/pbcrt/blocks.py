"""Closed-form algebra for the per-cluster covariance blocks.

Outcomes in one cluster stack as (period-0 cell, period-1 cell).  The
exchangeable structure puts a common covariance tau_alpha2 on every pair;
the nested-exchangeable structure adds tau_gamma2 for pairs in the same
period.  Because entries only depend on cell membership, each block is a
rank-2 update of sigma_w2 * I and its inverse, determinant, and every
quadratic form the estimators need reduce to a 2x2 computation per
cluster.  `normal_equations` sums those per-cluster terms into the 3x3
GLS system shared by REML and the independence and mixed-model fits.
"""
from __future__ import annotations

import math

import numpy as np

from .trial import CellStats, CorrelationStructure, VarianceComponents

__all__ = [
    "structure_taus",
    "inverse_cell_terms",
    "normal_equations",
]


def structure_taus(structure: CorrelationStructure, vc: VarianceComponents) -> tuple[float, float]:
    """(within-period, between-period) covariance contributions of the random effects."""
    if structure is CorrelationStructure.INDEPENDENCE:
        return 0.0, 0.0
    if structure is CorrelationStructure.EXCHANGEABLE:
        return vc.tau_alpha2, vc.tau_alpha2
    return vc.tau_alpha2 + vc.tau_gamma2, vc.tau_alpha2


def inverse_cell_terms(k0, k1, sigma_w2: float, tau_within: float, tau_between: float):
    """Cell-level inverse and log-determinant terms for arbitrary cell sizes.

    With U the (k0+k1) x 2 cell-indicator matrix and
    M = [[tw, tb], [tb, tw]], the block is R = s*I + U M U' and

        R^{-1} = (1/s) (I - U C U'),   C = M (s*I + diag(k0, k1) M)^{-1},
        log det R = (k0 + k1 - 2) log s + log det(s*I + diag(k0, k1) M).

    Vectorized over clusters: k0, k1 may be arrays.  Returns
    (c00, c01, c11, logdet).
    """
    k0 = np.asarray(k0, dtype=np.float64)
    k1 = np.asarray(k1, dtype=np.float64)
    s, tw, tb = sigma_w2, tau_within, tau_between
    det = (s + k0 * tw) * (s + k1 * tw) - k0 * k1 * tb * tb
    c00 = (s * tw + k1 * (tw * tw - tb * tb)) / det
    c11 = (s * tw + k0 * (tw * tw - tb * tb)) / det
    c01 = s * tb / det
    logdet = (k0 + k1 - 2.0) * math.log(s) + np.log(det)
    return c00, c01, c11, logdet


def normal_equations(cells: CellStats, tau_within: float, tau_between: float,
                     weight=None):
    """GLS normal equations of the (mu, delta, phi1) design at unit residual scale.

    The block of each cluster is I + U M U' with M = [[tw, tb], [tb, tw]]
    in residual-variance units.  With a weight (one value per cluster),
    each cluster's terms are divided by it.  Returns (M, v, y'W y, sum of
    block log-determinants), where W is the weighted inverse covariance;
    the log-determinants ignore the weight.
    """
    k0, k1, t0, t1, s = cells.k0, cells.k1, cells.sum0, cells.sum1, cells.sequence
    c00, c01, c11, logdet = inverse_cell_terms(k0, k1, 1.0, tau_within, tau_between)
    w0 = k0 - k0 * k0 * c00
    w1 = k1 - k1 * k1 * c11
    wx = -k0 * k1 * c01
    q0 = t0 - k0 * (c00 * t0 + c01 * t1)
    q1 = t1 - k1 * (c01 * t0 + c11 * t1)
    r = cells.ss0 + cells.ss1 - (c00 * t0 * t0 + 2.0 * c01 * t0 * t1 + c11 * t1 * t1)
    if weight is not None:
        w0, w1, wx, q0, q1, r = (x / weight for x in (w0, w1, wx, q0, q1, r))
    m = np.empty((3, 3))
    m[0, 0] = np.sum(w0 + w1 + 2.0 * wx)
    m[0, 1] = m[1, 0] = np.sum(s * (w1 + wx))
    m[0, 2] = m[2, 0] = np.sum(w1 + wx)
    m[1, 1] = m[1, 2] = m[2, 1] = np.sum(s * w1)
    m[2, 2] = np.sum(w1)
    v = np.array([np.sum(q0 + q1), np.sum(s * q1), np.sum(q1)])
    return m, v, float(np.sum(r)), float(np.sum(logdet))
