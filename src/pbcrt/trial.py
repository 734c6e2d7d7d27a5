"""Core domain types for two-period parallel cluster trials with a baseline period.

A trial consists of I clusters observed in a baseline period (0) and a
post period (1).  Clusters randomized to sequence 1 receive treatment in
period 1 only, so the treatment indicator is fully determined by
(sequence, period).

Every fit reads `CellStats`, the per-cluster cell sizes, cell means
centred on one trial-level origin (the mean outcome) and within-cell sums
of squares.  `CellStats.reduce` is the one reduction of outcomes to such a
table.  Individual records exist only at the boundary: `ObservedTrial`
validates and codes them, then reduces them with it; simulated studies
reduce their draws with it directly (`simulate.generate_cells`).  The
jackknife's delete-one tables are rows of a keep-mask (`CellStats.keep`).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "TrialValidationError",
    "EstimationError",
    "CorrelationStructure",
    "VarianceComponents",
    "CellStats",
    "ObservedTrial",
]

_TINY = float(np.finfo(np.float64).tiny)
_buffers = threading.local()


def _scratch(slot: int, size: int) -> np.ndarray:
    """`size` entries of this thread's float64 buffer `slot` (0-3), grown to
    exactly the largest size asked, so that replicates fault in no new pages
    (`np.take` writes into one unbuffered only with mode="clip")."""
    bufs = _buffers.__dict__.setdefault("slots", [np.empty(0)] * 4)
    if bufs[slot].size < size:
        bufs[slot] = np.empty(size)
    return bufs[slot][:size]


class TrialValidationError(ValueError):
    """Raised when trial records violate a structural invariant."""


class EstimationError(RuntimeError):
    """A fit could not be computed (singular design, degenerate arms, ...)."""


class CorrelationStructure(Enum):
    INDEPENDENCE = "independence"
    EXCHANGEABLE = "exchangeable"
    NESTED_EXCHANGEABLE = "nested_exchangeable"


@dataclass(frozen=True)
class VarianceComponents:
    """Variance components (sigma_w2, tau_alpha2, tau_gamma2) and derived ICCs."""

    sigma_w2: float
    tau_alpha2: float = 0.0
    tau_gamma2: float = 0.0

    def __post_init__(self):
        for name in ("sigma_w2", "tau_alpha2", "tau_gamma2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not self.sigma_w2 > 0.0:
            raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2!r}")
        if self.tau_alpha2 < 0 or self.tau_gamma2 < 0:
            raise ValueError("variance components must be nonnegative")

    @property
    def rho(self) -> float:
        """ICC of the exchangeable (single random intercept) model."""
        return self.tau_alpha2 / (self.tau_alpha2 + self.sigma_w2)

    @property
    def rho_wp(self) -> float:
        """Within-period ICC of the nested-exchangeable model."""
        t = self.tau_alpha2 + self.tau_gamma2
        return t / (t + self.sigma_w2)

    @property
    def rho_bp(self) -> float:
        """Between-period ICC of the nested-exchangeable model."""
        return self.tau_alpha2 / (self.tau_alpha2 + self.tau_gamma2 + self.sigma_w2)

    @property
    def cac(self) -> float:
        """Cluster auto-correlation rho_bp / rho_wp; undefined when rho_wp = 0."""
        t = self.tau_alpha2 + self.tau_gamma2
        if t == 0.0:
            return float("nan")
        return self.tau_alpha2 / t

    @classmethod
    def from_iccs(cls, sigma_w2: float, rho_wp: float, cac: float = 1.0) -> "VarianceComponents":
        """Build components from (sigma_w2, within-period ICC, CAC)."""
        if not 0.0 <= rho_wp < 1.0:
            raise ValueError("rho_wp must lie in [0, 1)")
        if not 0.0 <= cac <= 1.0:
            raise ValueError("cac must lie in [0, 1]")
        total = sigma_w2 * rho_wp / (1.0 - rho_wp)
        return cls(sigma_w2=sigma_w2, tau_alpha2=cac * total, tau_gamma2=(1.0 - cac) * total)


@dataclass(frozen=True, eq=False)
class CellStats:
    """Per-cluster cell statistics: parallel float64 arrays, one entry per cluster.

    Every model here has design rows constant within a cluster-period cell
    and a covariance block constant over cell pairs, so the two cell sizes,
    the two cell means and the within-cell sum of squares carry all the
    information any fit needs.  The means are of the outcomes less
    `origin`, one constant per trial; every model has an intercept, so
    only the intercept depends on it.  Clusters are in first-appearance
    order.  The arrays are read-only, so results memoised on the table
    cannot go stale.
    """

    ids: np.ndarray       # cluster labels (str objects)
    sequence: np.ndarray  # 0 control arm, 1 treated in period 1
    k0: np.ndarray        # cell sizes
    k1: np.ndarray
    mean0: np.ndarray     # cell means of the outcomes less origin
    mean1: np.ndarray
    within: np.ndarray    # sum of squares about the two cell means
    origin: float         # the outcome the means are taken from

    def __post_init__(self):
        for a in self._arrays():
            a.flags.writeable = False

    def _arrays(self) -> list[np.ndarray]:
        """Every field but the last, origin."""
        return [getattr(self, f.name) for f in fields(self)[:-1]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CellStats) and self.origin == other.origin
                and all(np.array_equal(a, b)
                        for a, b in zip(self._arrays(), other._arrays())))

    @property
    def cells(self) -> "CellStats":
        """The table itself, so that fits accept it in place of a trial."""
        return self

    @property
    def n_clusters(self) -> int:
        return int(self.ids.size)

    @cached_property
    def n_obs(self) -> int:
        return int(self.k0.sum() + self.k1.sum())

    @cached_property
    def gls_map(self) -> np.ndarray:
        """The normal-equation coefficients of `blocks.gls_map`, built once."""
        from .blocks import gls_map
        m = gls_map(self)
        m.flags.writeable = False
        return m

    @cached_property
    def block_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """(k0 + k1, k0 k1) per cluster, as `inverse_cell_terms` reads them."""
        return self.k0 + self.k1, self.k0 * self.k1

    @cached_property
    def reml_memo(self) -> dict:
        """REML results by correlation structure and row of `keep`."""
        return {}

    def keep(self, rows) -> np.ndarray:
        """Rows of the (I + 1, I) keep-mask: row j + 1 drops cluster j (the
        full table alone, rows that are all 0, without building the mask)."""
        if not np.count_nonzero(rows):
            return np.ones(np.shape(rows) + (self.n_clusters,))
        return self._keep_mask[rows]

    @cached_property
    def _keep_mask(self) -> np.ndarray:
        return 1.0 - np.eye(self.n_clusters + 1, self.n_clusters, k=-1)

    @cached_property
    def row_obs(self) -> np.ndarray:
        """The number of records on each row of the jackknife's stack."""
        return self.n_obs - np.concatenate(([0.0], self.k0 + self.k1))

    @cached_property
    def equal_period_sizes(self) -> bool:
        return bool(np.array_equal(self.k0, self.k1))

    @classmethod
    def reduce(cls, ids: np.ndarray, arm: np.ndarray, k: np.ndarray,
               cell: np.ndarray, y: np.ndarray) -> "CellStats":
        """The table of records with cell index `cell` and outcomes `y`.

        Record j lies in cluster cell[j] // 2, period cell[j] % 2; `k`
        holds the 2I cell sizes in that order, none of them zero, and
        `ids` and `arm` one entry per cluster.  Outcomes whose sum of
        squares about their mean overflows, or whose mean square about it
        is subnormal without all being equal, raise TrialValidationError.
        """
        # Two passes (Chan, Golub & LeVeque 1983): cell means of the
        # outcomes less their mean, then squares about those cell means.
        # The mean is refined once, so constant outcomes centre to zero.
        with np.errstate(all="ignore"):
            origin = float(y.mean())
            r = np.subtract(y, origin, out=_scratch(3, y.size))
            origin += float(r.mean())
            np.subtract(y, origin, out=r)
            mean = np.bincount(cell, weights=r, minlength=k.size) / k
            r -= np.take(mean, cell, out=_scratch(0, y.size), mode="clip")
            ss = np.bincount(cell, weights=np.square(r, out=r), minlength=k.size)
            spread = float(np.sum(k * mean * mean) + ss.sum())
        if not (math.isfinite(origin) and math.isfinite(spread)):
            raise TrialValidationError(
                "outcomes too large: their mean or sum of squares about it "
                "overflows")
        # Below the normal range the squares lose precision silently, and
        # the scale-equivariant fits would be off without a warning.
        if spread / y.size < _TINY and y.min() != y.max():
            raise TrialValidationError(
                f"outcomes too close together: their mean square about the "
                f"mean, {spread / y.size!r}, is below {_TINY!r}")
        return cls(ids, arm, k[0::2], k[1::2], mean[0::2], mean[1::2],
                   ss[0::2] + ss[1::2], origin)

    @cached_property
    def means(self) -> "CellStats":
        """Cell-means statistics: each cell is one observation, its mean.

        Built once, so the weighted fits and their refits share its map."""
        one = np.ones_like(self.k0)
        return CellStats(self.ids, self.sequence, one, one, self.mean0,
                         self.mean1, np.zeros_like(self.k0), self.origin)


def _cluster_codes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes of the labels' str() forms in first-appearance order, and the ids.

    str() and the lookup run once per run of equal fixed-width string or
    integer labels, and once per label otherwise: 1 and 1.0 differ in str().
    """
    heads = (np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
             if labels.dtype.kind in "USbiu" else np.arange(labels.size))
    index: dict[str, int] = {}
    run_code = np.fromiter((index.setdefault(str(c), len(index))
                            for c in labels[heads]), dtype=np.int64,
                           count=heads.size)
    ids = np.empty(len(index), dtype=object)
    ids[:] = list(index)
    return np.repeat(run_code, np.diff(heads, append=labels.size)), ids


class ObservedTrial:
    """Long-form individual records of one PB-CRT and their cell statistics.

    The record columns are kept for emission and inspection; `cells` is
    built once and is what every fit reads.
    """

    def __init__(self, cluster_ids: Sequence, periods: Sequence[int],
                 sequences: Sequence[int], outcomes: Sequence[float]):
        labels = (cluster_ids if isinstance(cluster_ids, np.ndarray)
                  else np.fromiter(cluster_ids, dtype=object))
        per = np.asarray(periods, dtype=np.int64)
        seq = np.asarray(sequences, dtype=np.int64)
        y = np.asarray(outcomes, dtype=np.float64)
        if not (labels.ndim == 1
                and labels.shape == per.shape == seq.shape == y.shape):
            raise TrialValidationError("record columns differ in length")
        if labels.size == 0:
            raise TrialValidationError("trial has no records")
        if not ((per == 0) | (per == 1)).all():
            raise TrialValidationError("period must be 0 or 1")
        if not ((seq == 0) | (seq == 1)).all():
            raise TrialValidationError("sequence must be 0 or 1")
        if not np.isfinite(y).all():
            raise TrialValidationError("outcomes must be finite")
        code, ids = _cluster_codes(labels)

        n = ids.size
        n_treated = np.bincount(code, weights=seq, minlength=n)
        mixed = np.nonzero((n_treated > 0)
                           & (n_treated < np.bincount(code, minlength=n)))[0]
        if mixed.size:
            raise TrialValidationError(
                f"cluster {ids[mixed[0]]!r} appears with more than one "
                "sequence value")
        cell = 2 * code + per
        k = np.bincount(cell, minlength=2 * n).astype(np.float64)
        empty = np.nonzero(k == 0)[0]
        if empty.size:
            raise TrialValidationError(
                f"cluster {ids[empty[0] // 2]!r} lacks records in period "
                f"{empty[0] % 2}")
        arm = (n_treated > 0).astype(np.float64)
        if arm.min() == arm.max():
            raise TrialValidationError(
                "trial needs at least one cluster in each sequence arm")
        self._code = code
        self.periods = per
        self.sequences = seq
        self.outcomes = y
        self.cells = CellStats.reduce(ids, arm, k, cell, y)

    @cached_property
    def cluster_ids(self) -> np.ndarray:
        """Each record's cluster label, gathered on first use."""
        return self.cells.ids[self._code]
