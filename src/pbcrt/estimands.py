"""Exact estimands and probability limits over finite cluster-size mixtures.

The target population is a discrete mixture of subpopulations, each with
fixed cluster-period sizes and a treatment effect.  Every estimator's
large-I limit is its fit on a weighted table of the subpopulations, so
with a finite mixture the limits are exact.  Also provides the paper's
closed forms: the estimand weights of the weighted mixed estimators, the
ICC that maximizes their spread and the subpopulation mix that maximizes
the bias of the weighted exchangeable estimator.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import unit_ratios
from .estimators import EstimatorKind, _fitted_on, _solve
from .trial import CellStats, VarianceComponents

__all__ = [
    "PopulationMixture",
    "true_pate",
    "true_cate",
    "plim",
    "estimand_weights",
    "eme_weight",
    "neme_weight",
    "optimal_icc",
    "optimal_sampling_prob",
    "emew_bias",
]

_P_TOL = 1e-12


@dataclass(frozen=True)
class Subpopulation:
    """One mixture component: sampling probability, cell sizes, effect."""

    prob: float
    k0: int
    k1: int
    delta: float


class PopulationMixture:
    """Finite mixture of subpopulations with fixed cluster-period sizes.

    Sizes may be a single K (equal across periods) or a (K0, K1) pair.
    """

    def __init__(self, subpops):
        parsed = []
        for i, (p, k, d) in enumerate(subpops):
            sizes = k if isinstance(k, (tuple, list)) else (k, k)
            if len(sizes) != 2:
                raise ValueError(f"subpopulation {i} needs one size or a (k0, k1) pair, got {k!r}")
            if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                       for x in (p, *sizes, d)):
                raise ValueError(f"subpopulation {i} needs real numbers, got {(p, k, d)!r}")
            if not all(float(x).is_integer() for x in sizes):
                raise ValueError(f"cluster-period sizes must be whole numbers, got {k!r}")
            k0, k1 = int(sizes[0]), int(sizes[1])
            if k0 < 1 or k1 < 1:
                raise ValueError("cluster-period sizes must be >= 1")
            if not (0 < p < math.inf and math.isfinite(d)):
                raise ValueError(f"subpopulation {i} needs a positive finite "
                                 f"probability and a finite effect, got {p!r}, {d!r}")
            parsed.append(Subpopulation(float(p), k0, k1, float(d)))
        if not parsed:
            raise ValueError("mixture needs at least one subpopulation")
        total = sum(s.prob for s in parsed)
        if abs(total - 1.0) > _P_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.subpops: list[Subpopulation] = parsed

    def __len__(self) -> int:
        return len(self.subpops)

    @cached_property
    def table(self) -> CellStats:
        """The population table: the subpopulations in the control arm, then
        in the treated arm, one cluster each, with cell means 0 and arm x delta."""
        _, k0, k1, d = (np.tile(a, 2) for a in self.arrays())
        arm = np.repeat((0.0, 1.0), len(self))
        return CellStats(np.arange(arm.size), arm, k0, k1, np.zeros_like(d),
                         arm * d, np.zeros_like(d), 0.0)

    def arrays(self):
        p = np.array([s.prob for s in self.subpops])
        k0 = np.array([s.k0 for s in self.subpops], dtype=float)
        k1 = np.array([s.k1 for s in self.subpops], dtype=float)
        d = np.array([s.delta for s in self.subpops])
        return p, k0, k1, d

    @classmethod
    def two_point(cls, p1: float, k1, k2, delta1: float, delta2: float) -> "PopulationMixture":
        return cls([(p1, k1, delta1), (1.0 - p1, k2, delta2)])


def true_pate(mix: PopulationMixture) -> float:
    """Participant-average effect: post-period size-weighted mean of effects."""
    p, _, k1, d = mix.arrays()
    return float(np.sum(p * k1 * d) / np.sum(p * k1))


def true_cate(mix: PopulationMixture) -> float:
    """Cluster-average effect: equal-weight mean of cluster effects."""
    p, _, _, d = mix.arrays()
    return float(np.sum(p * d))


def eme_weight(k, rho: float):
    """Unnormalized cluster weight of the exchangeable-model estimator."""
    k = np.asarray(k, dtype=float)
    return (1.0 + (k - 1.0) * rho) / (1.0 + (2.0 * k - 1.0) * rho)


def neme_weight(k, rho_wp: float, rho_bp: float):
    """Unnormalized cluster weight of the nested-exchangeable-model estimator."""
    k = np.asarray(k, dtype=float)
    num = 1.0 + (k - 1.0) * rho_wp
    return num / (num * num - (k * rho_bp) ** 2)


def plim(kind: EstimatorKind, mix: PopulationMixture,
         vc: VarianceComponents | None = None) -> float:
    """Large-I limit of one estimator: its fit on the mixture's population
    table, each cluster weighted by its probability.  Mixed kinds need
    variance components, and the weighted ones refuse unequal period sizes
    as their fits do."""
    if kind.mixed and vc is None:
        raise ValueError(f"{kind.value} limit needs variance components")
    table, size = _fitted_on(mix.table, kind)
    p = np.tile(mix.arrays()[0], 2)
    if kind in (EstimatorKind.FE, EstimatorKind.FEW):
        h = table.sequence * p * table.k0 * table.k1 / (table.k0 + table.k1)
        return float(h @ table.mean1 / h.sum())
    with np.errstate(over="ignore"):  # a subnormal probability weighs 0
        weight = (1.0 if size is None else size) / p
    return float(_solve(table, *unit_ratios(kind.structure, vc), weight)[1])


def estimand_weights(kind: EstimatorKind, mix: PopulationMixture,
                     vc: VarianceComponents) -> tuple[float, ...]:
    """The multipliers lambda_u, with E[lambda] = 1, by which the weighted
    mixed estimator `kind` (emew or nemew) tilts the cATE, per subpopulation.
    Unequal period sizes are refused as the fits refuse them."""
    if kind not in (EstimatorKind.EMEW, EstimatorKind.NEMEW):
        raise ValueError(f"estimand weights are those of emew and nemew, not {kind.value}")
    _fitted_on(mix.table, kind)
    p, k0, _, _ = mix.arrays()
    g = (eme_weight(k0, vc.rho) if kind is EstimatorKind.EMEW
         else neme_weight(k0, vc.rho_wp, vc.rho_bp))
    lam = g / np.sum(p * g)
    return tuple(float(x) for x in lam)


def optimal_icc(k1: int, k2: int) -> float:
    """ICC at which the weight spread of the exchangeable scheme peaks."""
    if k1 < 1 or k2 < 1:
        raise ValueError("cluster sizes must be >= 1")
    return 1.0 / (1.0 + math.sqrt(2.0 * k1 * k2))


def optimal_sampling_prob(k1: int, k2: int, rho: float) -> float:
    """Mixing probability P(u=1) maximizing the weighted-exchangeable bias.

    sqrt(g2) / (sqrt(g1) + sqrt(g2)) with the unnormalized weights;
    the normalization constant cancels.
    """
    g1 = float(eme_weight(k1, rho))
    g2 = float(eme_weight(k2, rho))
    return math.sqrt(g2) / (math.sqrt(g1) + math.sqrt(g2))


def emew_bias(mix: PopulationMixture, vc: VarianceComponents) -> float:
    """Closed-form bias of the weighted exchangeable estimator for the cATE.

    Two-subpopulation mixtures only:
        P(1-P) (g1 - g2)(delta1 - delta2) / (P g1 + (1-P) g2).
    """
    if len(mix) != 2:
        raise ValueError("bias formula applies to two-subpopulation mixtures")
    _fitted_on(mix.table, EstimatorKind.EMEW)
    (s1, s2) = mix.subpops
    g1 = float(eme_weight(s1.k0, vc.rho))
    g2 = float(eme_weight(s2.k0, vc.rho))
    p = s1.prob
    return (p * (1.0 - p) * (g1 - g2) * (s1.delta - s2.delta)
            / (p * g1 + (1.0 - p) * g2))
