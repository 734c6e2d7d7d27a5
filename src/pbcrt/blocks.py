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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trial import CellStats, CorrelationStructure, VarianceComponents, WeightingScheme

__all__ = [
    "BlockTerms",
    "eme_block_terms",
    "neme_block_terms",
    "dense_block",
    "block_logdet",
    "structure_taus",
    "inverse_cell_terms",
    "normal_equations",
]


@dataclass(frozen=True)
class BlockTerms:
    """Entries of the inverse block and their aggregates for one cell size K.

    d: diagonal entry, f: off-diagonal entry within a period cell,
    g: entry across periods (equals f for the exchangeable structure),
    a: K*(d + (K-1) f), the within-cell aggregate,
    b: K^2 * g, the cross-period aggregate.
    """

    d: float
    f: float
    g: float
    a: float
    b: float


def structure_taus(structure: CorrelationStructure, vc: VarianceComponents) -> tuple[float, float]:
    """(within-period, between-period) covariance contributions of the random effects."""
    if structure is CorrelationStructure.INDEPENDENCE:
        return 0.0, 0.0
    if structure is CorrelationStructure.EXCHANGEABLE:
        return vc.tau_alpha2, vc.tau_alpha2
    return vc.tau_alpha2 + vc.tau_gamma2, vc.tau_alpha2


@lru_cache(maxsize=4096)
def eme_block_terms(k: int, vc: VarianceComponents,
                    weighting: WeightingScheme = WeightingScheme.UNWEIGHTED) -> BlockTerms:
    """Inverse-block terms of the exchangeable structure with equal cell sizes K.

    The inverse of sigma_w2*I + tau_alpha2*J over the 2K observations has a
    single diagonal value D and a single off-diagonal value F; the
    inverse-cluster-period-size weighted variant divides every term by K.
    """
    if k < 1:
        raise ValueError(f"cell size must be >= 1, got {k}")
    s, t = vc.sigma_w2, vc.tau_alpha2
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("non-finite variance components")
    d = (1.0 / s) * (s + (2 * k - 1) * t) / (s + 2 * k * t)
    f = -(1.0 / s) * t / (s + 2 * k * t)
    a = k * (d + (k - 1) * f)
    b = k * k * f
    if weighting is WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE:
        d, f, a, b = d / k, f / k, a / k, b / k
    return BlockTerms(d=d, f=f, g=f, a=a, b=b)


@lru_cache(maxsize=4096)
def neme_block_terms(k: int, vc: VarianceComponents,
                     weighting: WeightingScheme = WeightingScheme.UNWEIGHTED) -> BlockTerms:
    """Inverse-block terms of the nested-exchangeable structure, equal cell sizes K."""
    if k < 1:
        raise ValueError(f"cell size must be >= 1, got {k}")
    s = vc.sigma_w2
    ta, tg = vc.tau_alpha2, vc.tau_gamma2
    t = ta + tg
    # (s + k t)^2 - (k ta)^2 and t - k ta^2 / (s + k t), factored so that
    # no difference of large nearly equal terms is formed.
    denom = (s + k * tg) * (s + k * tg + 2 * k * ta)
    e = (s * t + k * tg * (t + ta)) / (s + k * t)
    d = (1.0 / s) * (s + (k - 1) * e) / (s + k * e)
    f = -(1.0 / s) * e / (s + k * e)
    g = -ta / denom
    a = k * (s + k * t) / denom
    b = k * k * g
    if weighting is WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE:
        d, f, g, a, b = d / k, f / k, g / k, a / k, b / k
    return BlockTerms(d=d, f=f, g=g, a=a, b=b)


def dense_block(structure: CorrelationStructure, k0: int, k1: int,
                vc: VarianceComponents) -> np.ndarray:
    """Assemble the full (k0+k1) x (k0+k1) covariance block (test oracle)."""
    if k0 < 1 or k1 < 1:
        raise ValueError("cell sizes must be >= 1")
    tw, tb = structure_taus(structure, vc)
    m = k0 + k1
    r = np.full((m, m), tb)
    r[:k0, :k0] = tw
    r[k0:, k0:] = tw
    np.fill_diagonal(r, r.diagonal() + vc.sigma_w2)
    return r


def block_logdet(structure: CorrelationStructure, k: int, vc: VarianceComponents) -> float:
    """log det of the covariance block with equal cell sizes K, via its eigenvalues."""
    if k < 1:
        raise ValueError("cell size must be >= 1")
    s = vc.sigma_w2
    if structure is CorrelationStructure.INDEPENDENCE:
        return 2 * k * math.log(s)
    if structure is CorrelationStructure.EXCHANGEABLE:
        return (2 * k - 1) * math.log(s) + math.log(s + 2 * k * vc.tau_alpha2)
    tg, ta = vc.tau_gamma2, vc.tau_alpha2
    return (2 * (k - 1) * math.log(s)
            + math.log(s + k * tg)
            + math.log(s + k * tg + 2 * k * ta))


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
