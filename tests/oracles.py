"""Reference implementations that the tests compare the package against.

- Equal-cell-size inverse-block terms of the exchangeable and nested
  structures (`eme_block_terms`, `neme_block_terms`, their log-determinant
  `block_logdet`) and the dense covariance block `dense_block`: the
  closed forms the general `blocks.inverse_cell_terms` must reduce to.
- `normal_equations_elementwise`: the normal equations summed from the
  per-cluster entries of C in `inverse_cell_terms_elementwise`, and
  `normal_equations_exact`, the same system in exact rational arithmetic:
  the oracles of the one-product assembly `blocks.normal_equations`.
- `profiled_deviance`: the REML deviance and its gradient in numpy from
  `blocks.normal_equations` and the map's products with the derivatives
  of e, the oracle of the vectorised `reml._kernel`.
- `reml_round`: one lockstep round of REML deviances computed as before
  the per-round kernel was trimmed, which the kernel must match bit for
  bit.
- `from_records` and `from_cell_means`: trials built from record tuples
  or from cell summaries, every record of a cell at its mean, for
  noiseless fixtures and size-table skeletons.
- `generate_trial_records`: trial generation one cluster at a time with
  per-record Python lists, the stream `simulate.generate_trial` must
  reproduce bit for bit.
- `str_codes`: cluster codes from str() of every record's label, which the
  run-length coding of `ObservedTrial` must reproduce.
- `cell_table`: the reduction of records to a cell table about a given
  origin, one record at a time, and `drop_cluster`, a subtrial re-indexed
  from the records of the kept clusters: the oracles of
  `ObservedTrial.cells` and of the rows of `CellStats.keep`.
- `deletion_tables` and `refit_replicates`: every delete-one table reduced
  from the records `drop_cluster` keeps, at the trial's origin, and each
  fitted on its own, the oracle of the jackknife's batched fit over the
  keep-masked stack.
- `fit_rows_per_kind`, `fit_with_inference_per_kind` and
  `run_study_per_kind`: one kind at a time, its own normal equations, its
  own solve and its own summary, the oracles of the one-pass fit of every
  kind (`estimators.fit_rows`) and of `simulate.run_study`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from pbcrt import (CellStats, CorrelationStructure, ObservedTrial, TrialValidationError,
                   VarianceComponents, fit)
from pbcrt.blocks import cholesky_solve, inverse_cell_terms, normal_equations
from pbcrt.estimators import (EstimationError, EstimatorKind, FitOptions, FitResult,
                              UnsupportedWeightingError)
from pbcrt.estimands import true_cate, true_pate
from pbcrt.inference import confidence_interval
from pbcrt.reml import estimate_variance_components
from pbcrt.simulate import (EstimatorSummary, SimReport, SimScenario, StudyError,
                            _rel_bias_pct, _subpop_assignment, _truncated_poisson,
                            generate_cells)


def from_records(records: Iterable[tuple]) -> ObservedTrial:
    """A trial from an iterable of (cluster_id, period, sequence, outcome)."""
    rows = list(records)
    if not rows:
        raise TrialValidationError("no records")
    cids, pers, seqs, ys = zip(*rows)
    return ObservedTrial(cids, pers, seqs, ys)


def from_cell_means(cells: Iterable[tuple]) -> ObservedTrial:
    """A trial from (cluster_id, sequence, k0, k1, mean0, mean1) cell
    summaries, every individual in a cell at the cell mean."""
    rows = list(cells)
    if not rows:
        raise TrialValidationError("no records")
    cids, seqs, k0, k1, m0, m1 = zip(*rows)
    size = np.column_stack((k0, k1)).ravel()
    if (size < 0).any():
        raise TrialValidationError("cell sizes must be nonnegative")
    cell = np.repeat(np.arange(size.size), size)
    return ObservedTrial(np.fromiter(cids, dtype=object)[cell // 2], cell % 2,
                         np.asarray(seqs)[cell // 2],
                         np.column_stack((m0, m1)).ravel()[cell])


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


@lru_cache(maxsize=4096)
def eme_block_terms(k: int, vc: VarianceComponents, weighted: bool = False) -> BlockTerms:
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
    if weighted:
        d, f, a, b = d / k, f / k, a / k, b / k
    return BlockTerms(d=d, f=f, g=f, a=a, b=b)


@lru_cache(maxsize=4096)
def neme_block_terms(k: int, vc: VarianceComponents, weighted: bool = False) -> BlockTerms:
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
    if weighted:
        d, f, g, a, b = d / k, f / k, g / k, a / k, b / k
    return BlockTerms(d=d, f=f, g=g, a=a, b=b)


def structure_taus(structure: CorrelationStructure, vc: VarianceComponents) -> tuple[float, float]:
    """(within-period, between-period) covariance contributions of the random
    effects, in the units of the data."""
    if structure is CorrelationStructure.INDEPENDENCE:
        return 0.0, 0.0
    if structure is CorrelationStructure.EXCHANGEABLE:
        return vc.tau_alpha2, vc.tau_alpha2
    return vc.tau_alpha2 + vc.tau_gamma2, vc.tau_alpha2


def dense_block(structure: CorrelationStructure, k0: int, k1: int,
                vc: VarianceComponents) -> np.ndarray:
    """Assemble the full (k0+k1) x (k0+k1) covariance block."""
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


def inverse_cell_terms_elementwise(k0, k1, sigma_w2: float, tau_within: float,
                                   tau_between: float):
    """Entries (c00, c01, c11) of C = M (s*I + diag(k0, k1) M)^-1 and log det R."""
    k0 = np.asarray(k0, dtype=np.float64)
    k1 = np.asarray(k1, dtype=np.float64)
    s, tw, tb = sigma_w2, tau_within, tau_between
    det = (s + k0 * tw) * (s + k1 * tw) - k0 * k1 * tb * tb
    c00 = (s * tw + k1 * (tw * tw - tb * tb)) / det
    c11 = (s * tw + k0 * (tw * tw - tb * tb)) / det
    c01 = s * tb / det
    logdet = (k0 + k1 - 2.0) * math.log(s) + np.log(det)
    return c00, c01, c11, logdet


def normal_equations_elementwise(cells: CellStats, tau_within: float,
                                 tau_between: float, weight=None):
    """(M, v, y'W y, sum of log-dets), summed from per-cluster aggregates,
    with M as its upper triangle."""
    k0, k1, s = cells.k0, cells.k1, cells.sequence
    t0, t1 = k0 * cells.mean0, k1 * cells.mean1
    c00, c01, c11, logdet = inverse_cell_terms_elementwise(
        k0, k1, 1.0, tau_within, tau_between)
    w0 = k0 - k0 * k0 * c00
    w1 = k1 - k1 * k1 * c11
    wx = -k0 * k1 * c01
    q0 = t0 - k0 * (c00 * t0 + c01 * t1)
    q1 = t1 - k1 * (c01 * t0 + c11 * t1)
    r = (cells.within + t0 * cells.mean0 + t1 * cells.mean1
         - (c00 * t0 * t0 + 2.0 * c01 * t0 * t1 + c11 * t1 * t1))
    if weight is not None:
        w0, w1, wx, q0, q1, r = (x / weight for x in (w0, w1, wx, q0, q1, r))
    m11 = np.sum(s * w1)
    m = (np.sum(w0 + w1 + 2.0 * wx), np.sum(s * (w1 + wx)), np.sum(w1 + wx),
         m11, m11, np.sum(w1))
    v = np.array([np.sum(q0 + q1), np.sum(s * q1), np.sum(q1)])
    return m, v, float(np.sum(r)), float(np.sum(logdet))


def symmetric(m) -> np.ndarray:
    """The 3x3 matrix of an upper triangle (M00, M01, M02, M11, M12, M22),
    as `blocks.normal_equations` returns M."""
    a, b, c, d, f, g = m
    return np.array([[a, b, c], [b, d, f], [c, f, g]])


def normal_equations_exact(cells: CellStats, tau_within: float,
                           tau_between: float, weight=None):
    """(M, v, y'W y, y'W y - v'M^-1 v) as Fractions, exact for the float inputs."""
    tw, tb = Fraction(tau_within), Fraction(tau_between)
    m = [[Fraction(0)] * 3 for _ in range(3)]
    v = [Fraction(0)] * 3
    yy = Fraction(0)
    weights = np.ones_like(cells.k0) if weight is None else weight
    for row in zip(cells.sequence, cells.k0, cells.k1, cells.mean0, cells.mean1,
                   cells.within, weights):
        s, k0, k1, m0, m1, within, w = map(Fraction, map(float, row))
        t0, t1 = k0 * m0, k1 * m1
        det = (1 + k0 * tw) * (1 + k1 * tw) - k0 * k1 * tb * tb
        c00 = (tw + k1 * (tw * tw - tb * tb)) / det
        c11 = (tw + k0 * (tw * tw - tb * tb)) / det
        c01 = tb / det
        # Rows (1, 0, 0) in period 0 and (1, s, 1) in period 1.
        x = ((1, 0, 0), (1, s, 1))
        wc = ((k0 - k0 * k0 * c00, -k0 * k1 * c01),
              (-k0 * k1 * c01, k1 - k1 * k1 * c11))
        q = (t0 - k0 * (c00 * t0 + c01 * t1), t1 - k1 * (c01 * t0 + c11 * t1))
        for a in range(3):
            v[a] += sum(x[p][a] * q[p] for p in range(2)) / w
            for b in range(3):
                m[a][b] += sum(x[p][a] * wc[p][r] * x[r][b]
                               for p in range(2) for r in range(2)) / w
        yy += (within + t0 * m0 + t1 * m1
               - (c00 * t0 * t0 + 2 * c01 * t0 * t1 + c11 * t1 * t1)) / w
    # y'W y - v'M^-1 v by Gaussian elimination on [M | v].
    a = [row[:] + [v[i]] for i, row in enumerate(m)]
    for i in range(3):
        for j in range(i + 1, 3):
            f = a[j][i] / a[i][i]
            a[j] = [aj - f * ai for aj, ai in zip(a[j], a[i])]
    quad = yy - sum(a[i][3] ** 2 / a[i][i] for i in range(3))
    return m, v, yy, quad


def profiled_deviance(cells: CellStats, tau_within: float, tau_between: float):
    """The profiled -2 restricted log-likelihood and its gradient in the ratios.

    With e = (1, tw, tb) / D and a = dD/dt / D, de/dtw = (0, 1, 0)/D - a_w e
    and de/dtb = (0, 0, 1)/D - a_b e; the map times each gives dM, dv and
    d(y'Wy), and d log det M = tr(M^-1 dM).
    """
    m, v, yy = normal_equations(cells, tau_within, tau_between)
    m = symmetric(m)
    k0, k1 = cells.k0, cells.k1
    d = inverse_cell_terms(k0 + k1, k0 * k1, tau_within, tau_between)
    e = np.array([1.0, tau_within, tau_between])[:, None] / d
    a_w = (k0 + k1) * e[0] + 2.0 * k0 * k1 * e[1]
    a_b = -2.0 * k0 * k1 * e[2]
    m_inv = np.linalg.inv(m)
    theta = m_inv @ v
    quad = yy - theta @ v
    dof = cells.n_obs - 3
    grad = []
    for j, a in ((1, a_w), (2, a_b)):
        de = -a * e
        de[j] += e[0]
        x = np.einsum("kri,ki->r", cells.gls_map, de)
        dm = x[[0, 1, 2, 1, 3, 3, 2, 3, 4]].reshape(3, 3)
        grad.append(a.sum() + np.sum(m_inv * dm) + dof * (
            x[8] - 2.0 * theta @ x[5:8] + theta @ dm @ theta) / quad)
    return (np.log(d).sum() + np.linalg.slogdet(m)[1] + dof * math.log(quad),
            np.array(grad))


def reml_round(cells: CellStats, at: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One lockstep round of the REML deviance as it was before its kernel
    was trimmed, step for step: the deviance closure of `reml._reml` (x
    clipped to the search bounds, then the ratios), the profiled deviance
    and the normal equations, block terms and Cholesky factor it read.
    The per-round kernel must give these values bit for bit."""
    def logit(p):
        return math.log(p / (1.0 - p))

    low = np.array([logit(1e-12), logit(1e-12)])
    high = np.array([logit(1.0 - 1e-6), logit(1.0 - 1e-12)])
    x = np.minimum(np.maximum(x, low[:x.shape[1]]), high[:x.shape[1]])
    q = np.exp(x[:, 0])
    return _round_deviance(cells, at, q, 1.0 / (1.0 + np.exp(-x[:, 1])) * q
                           if x.shape[1] == 2 else q)


def _round_deviance(cells, rows, tw0, tb0):
    m, v, yy, logdet = _round_normal_equations(cells, tw0, tb0, rows)
    with np.errstate(all="ignore"):
        (l00, _, l11, _, _, l22), (z0, z1, z2) = _round_cholesky(m, v)
        quad, pd = yy - (z0 * z0 + z1 * z1 + z2 * z2), l22 > 0.0
        return np.where(pd & (quad > 0.0), logdet + 2.0 * np.log(l00 * l11 * l22)
                        + (cells.row_obs[rows] - 3) * np.log(quad), np.inf)


def _round_normal_equations(cells, tw, tb, rows):
    k, kk = cells.block_sizes
    tw_, tb_ = ((tw[..., None], tb[..., None]) if isinstance(tw, np.ndarray)
                else (tw, tb))
    s = 1.0
    d = k * (s * tw_) + s * s + kk * ((tw_ - tb_) * (tw_ + tb_))
    logdet = np.log(d)
    keep = cells.keep(rows)
    y = np.einsum("...i,kri->kr...", keep / d, cells.gls_map)
    x = y[0] + tw * y[1] + tb * y[2]
    return ((x[0], x[1], x[2], x[3], x[3], x[4]), x[5:8],
            x[8] + np.einsum("...i,i->...", keep, cells.within),
            np.einsum("...i,...i->...", keep, logdet))


def _round_cholesky(m, v):
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


def generate_trial_records(scenario: SimScenario, replicate_index: int) -> ObservedTrial:
    """`simulate.generate_trial`, drawing and listing one record at a time."""
    rng = np.random.default_rng([scenario.master_seed, replicate_index])
    n = scenario.n_clusters
    subpop = _subpop_assignment(scenario, rng)
    sizes = np.empty(n, dtype=int)
    for i, u in enumerate(subpop):
        mean = scenario.mixture.subpops[u].k0
        sizes[i] = mean if scenario.fixed_sizes else _truncated_poisson(rng, mean)
    seq = np.zeros(n, dtype=int)
    seq[rng.permutation(n)[: n // 2]] = 1

    vc = scenario.vc
    sd_a = np.sqrt(vc.tau_alpha2)
    sd_g = np.sqrt(vc.tau_gamma2)
    sd_e = np.sqrt(vc.sigma_w2)
    cids, pers, seqs, ys = [], [], [], []
    for i in range(n):
        k = int(sizes[i])
        delta = scenario.mixture.subpops[subpop[i]].delta
        alpha = sd_a * rng.standard_normal()
        g0, g1 = sd_g * rng.standard_normal(2)
        base = scenario.mu + alpha
        y0 = base + g0 + sd_e * rng.standard_normal(k)
        y1 = base + scenario.phi1 + seq[i] * delta + g1 + sd_e * rng.standard_normal(k)
        cid = f"c{i:04d}"
        cids.extend([cid] * (2 * k))
        pers.extend([0] * k + [1] * k)
        seqs.extend([int(seq[i])] * (2 * k))
        ys.extend(y0)
        ys.extend(y1)
    return ObservedTrial(cids, pers, seqs, ys)


def str_codes(labels) -> tuple[list[int], list[str]]:
    """First-appearance codes of each label's str(), and the distinct strs."""
    index: dict[str, int] = {}
    codes = [index.setdefault(str(c), len(index)) for c in labels]
    return codes, list(index)


def cell_table(records, origin: float) -> CellStats:
    """The cell table of (cluster_id, period, sequence, outcome) records
    about `origin`, summed one record at a time in record order.

    `ObservedTrial`'s per-cell sums run in the same order, so its table at
    the same origin must be equal bit for bit.
    """
    codes, ids = str_codes([r[0] for r in records])
    k = [[0.0, 0.0] for _ in ids]
    total = [[0.0, 0.0] for _ in ids]
    ss = [[0.0, 0.0] for _ in ids]
    seq = [0.0] * len(ids)
    for c, (_, p, q, y) in zip(codes, records):
        k[c][p] += 1.0
        total[c][p] += y - origin
        seq[c] = float(q)
    mean = [[t / n for t, n in zip(ts, ns)] for ts, ns in zip(total, k)]
    for c, (_, p, _, y) in zip(codes, records):
        d = (y - origin) - mean[c][p]
        ss[c][p] += d * d
    label = np.empty(len(ids), dtype=object)
    label[:] = ids
    (k0, k1), (m0, m1) = np.array(k).T, np.array(mean).T
    return CellStats(label, np.array(seq), k0, k1, m0, m1,
                     np.array([a + b for a, b in ss]), origin)


def drop_cluster(trial: ObservedTrial, cluster_id) -> ObservedTrial:
    """The subtrial omitting one full cluster, re-indexed from its records:
    the oracle of a delete-one row of `CellStats.keep`."""
    keep = trial.cluster_ids != str(cluster_id)
    if keep.all():
        raise KeyError(f"no cluster {cluster_id!r} in trial")
    return ObservedTrial(trial.cluster_ids[keep], trial.periods[keep],
                         trial.sequences[keep], trial.outcomes[keep])


def deletion_tables(trial: ObservedTrial) -> list[CellStats]:
    """Each delete-one table of the trial, in cluster order: the records
    `drop_cluster` keeps, reduced one at a time at the trial's origin."""
    tables = []
    for cid in trial.cells.ids:
        sub = drop_cluster(trial, cid)
        records = list(zip(sub.cluster_ids, sub.periods.tolist(),
                           sub.sequences.tolist(), sub.outcomes.tolist()))
        tables.append(cell_table(records, trial.cells.origin))
    return tables


def refit_replicates(tables: list[CellStats], kind, options) -> np.ndarray:
    """Jackknife replicates refitted one delete-one table at a time."""
    return np.array([fit(t, kind, options).delta_hat for t in tables])


# ---------------------------------------------------------------------------
# One kind at a time: each fit assembles and solves its own normal equations.

def fit_rows_per_kind(cells: CellStats, kind: EstimatorKind, options: FitOptions,
                      rows) -> list[FitResult]:
    """One kind's `FitResult`s on the given rows of the keep-masked stack,
    raising its `EstimationError`."""
    rows = np.asarray(rows)
    if kind.mixed:
        delta, var, vcs, converged = _mixed_per_kind(cells, kind, options, rows)
    else:
        table = cells.means if kind.weighted else cells
        fe = kind in (EstimatorKind.FE, EstimatorKind.FEW)
        delta, var, sigma2 = (_fixed_effects_per_kind if fe
                              else _independence_per_kind)(table, rows)
        vcs = [None if kind.weighted or s == 0.0 else VarianceComponents(s)
               for s in sigma2.reshape(-1).tolist()]
        converged = [True] * rows.size
    n_clusters = np.where(rows > 0, cells.n_clusters - 1, cells.n_clusters)
    return [FitResult(kind, d, n, v, vc, ok) for d, n, v, vc, ok in zip(
        *(a.reshape(-1).tolist() for a in (delta, n_clusters, var)), vcs, converged)]


def _solve_normal_per_kind(m, v):
    with np.errstate(all="ignore"):
        (l00, l10, l11, l20, l21, l22), (z0, z1, z2) = cholesky_solve(m, v)
    if not (l22 > 0.0).all():
        raise EstimationError("singular normal equations")
    t2 = z2 / l22
    t1 = (z1 - l21 * t2) / l11
    t0 = (z0 - l10 * t1 - l20 * t2) / l00
    e1 = 1.0 / l11
    e2 = -(l21 * e1) / l22
    return np.array((t0, t1, t2)), e1 * e1 + e2 * e2


def _gls_per_kind(cells, rows, tw=0.0, tb=0.0, weight=None):
    m, v, yy = normal_equations(cells, tw, tb, weight, rows)
    theta, inv_dd = _solve_normal_per_kind(m, v)
    return (theta[1], inv_dd, np.maximum(yy - (theta * v).sum(axis=0), 0.0)
            / (cells.row_obs[rows] - 3))


def _independence_per_kind(cells, rows):
    delta, inv_dd, sigma2 = _gls_per_kind(cells, rows)
    return delta, sigma2 * inv_dd, sigma2


def _fixed_effects_per_kind(cells, rows):
    dof = cells.row_obs[rows] - (cells.n_clusters - (rows > 0)) - 2
    if (dof <= 0).any():
        raise EstimationError("saturated design: no residual degrees of freedom")
    keep = cells.keep(rows)
    k0, k1, seq = cells.k0, cells.k1, cells.sequence
    d = cells.mean1 - cells.mean0
    h = k0 * k1 / (k0 + k1)
    arm_h = keep[..., None, :] * (np.array((1.0 - seq, seq)) * h)
    h_arm = arm_h.sum(axis=-1)
    d_arm = (arm_h * d).sum(axis=-1) / h_arm
    resid = d - d_arm[..., seq.astype(np.intp)]
    sigma2 = (keep * (cells.within + h * resid * resid)).sum(axis=-1) / dof
    return (d_arm[..., 1] - d_arm[..., 0],
            sigma2 * (1.0 / h_arm[..., 0] + 1.0 / h_arm[..., 1]), sigma2)


def _unit_ratios_per_kind(structure, vc):
    return np.divide(structure_taus(structure, vc), vc.sigma_w2)


def _mixed_per_kind(cells, kind, options, rows):
    weight = None
    if kind.weighted:
        if not cells.equal_period_sizes:
            raise UnsupportedWeightingError(
                "inverse cluster-period size weights with a correlated "
                "structure require equal period sizes within every cluster")
        weight = cells.k0
    if options.vc is None:
        found = estimate_variance_components(cells, kind.structure,
                                             rows=np.reshape(rows, -1))
        tw, tb = np.array([_unit_ratios_per_kind(kind.structure, vc)
                           for vc, _ in found]).T
    else:
        found = [(options.vc, True)] * rows.size
        tw, tb = _unit_ratios_per_kind(kind.structure, options.vc)
    vcs = [vc for vc, _ in found]
    delta, inv_dd, dispersion = _gls_per_kind(cells, rows, tw, tb, weight)
    scale = dispersion if kind.weighted else np.array([vc.sigma_w2 for vc in vcs])
    return delta, scale * inv_dd, vcs, [ok for _, ok in found]


def fit_with_inference_per_kind(cells: CellStats, kind: EstimatorKind,
                                options: FitOptions = FitOptions(),
                                jackknife: bool = True) -> FitResult:
    """One kind's fit and jackknife, raising its `EstimationError`."""
    if not jackknife:
        return fit_rows_per_kind(cells, kind, options, 0)[0]
    arm = cells.sequence.astype(np.intp)
    lone = np.flatnonzero(np.bincount(arm)[arm] == 1)
    try:
        if cells.n_clusters < 3:
            raise EstimationError("jackknife needs at least 3 clusters")
        if lone.size:
            raise EstimationError(f"dropping cluster {cells.ids[lone[0]]!r} "
                                  "leaves a single-arm trial")
        result, *refits = fit_rows_per_kind(cells, kind, options,
                                            range(cells.n_clusters + 1))
    except EstimationError:
        fit_rows_per_kind(cells, kind, options, 0)
        raise
    n = len(refits)
    reps = np.array([r.delta_hat for r in refits])
    var = (n - 1) / n * float(np.sum((reps - reps.mean()) ** 2))
    return replace(result, jackknife_var=var, jackknife_replicates=reps,
                   converged=all(r.converged for r in (result, *refits)))


def _coverage_and_power(d, var, targets, n_clusters, level):
    ci = confidence_interval(d, var, n_clusters, level)
    return ([float(np.mean((ci.lower <= t) & (t <= ci.upper))) for t in targets]
            + [float(np.mean((ci.lower > 0.0) | (ci.upper < 0.0)))])


def run_study_per_kind(scenario: SimScenario,
                       options: FitOptions = FitOptions()) -> SimReport:
    """`simulate.run_study` one kind at a time: each kind fitted on its own
    and summarised from its own completed replicates."""
    kinds = scenario.estimators
    r_tot = scenario.reps
    fits = {k: np.full((r_tot, 3), np.nan) for k in kinds}
    failures = {k: 0 for k in kinds}
    nonconverged = {k: 0 for k in kinds}
    for r in range(r_tot):
        cells = generate_cells(scenario, r)
        for k in kinds:
            try:
                res = fit_with_inference_per_kind(cells, k, options,
                                                  scenario.jackknife)
            except EstimationError:
                failures[k] += 1
                continue
            fits[k][r] = res.delta_hat, res.model_based_var, res.jackknife_var
            nonconverged[k] += not res.converged
    if max(failures.values()) > 0.05 * r_tot:
        worst = max(failures, key=failures.get)
        raise StudyError(
            f"{failures[worst]} of {r_tot} replicates failed for {worst.value}")
    pate = true_pate(scenario.mixture)
    cate = true_cate(scenario.mixture)
    level = scenario.ci_level
    summaries, estimates = [], {}
    for k in kinds:
        d, mv, jv = fits[k][np.isfinite(fits[k][:, 0])].T
        n_ok = d.size
        mean = float(d.mean())
        mc_var = float(d.var(ddof=1)) if n_ok > 1 else 0.0
        cov_m_p, cov_m_c, pow_m = _coverage_and_power(
            d, mv, (pate, cate), scenario.n_clusters, level)
        s = EstimatorSummary(
            estimator=k, n_ok=n_ok, n_failures=failures[k],
            n_reml_nonconverged=nonconverged[k],
            mean_estimate=mean, mc_variance=mc_var,
            rel_bias_pate_pct=_rel_bias_pct(mean, pate),
            rel_bias_cate_pct=_rel_bias_pct(mean, cate),
            rmse_pate=float(np.sqrt(np.mean((d - pate) ** 2))),
            rmse_cate=float(np.sqrt(np.mean((d - cate) ** 2))),
            mean_model_variance=float(mv.mean()),
            coverage_model_pate=cov_m_p, coverage_model_cate=cov_m_c,
            power_model=pow_m)
        if scenario.jackknife:
            s.mean_jackknife_variance = float(jv.mean())
            (s.coverage_jackknife_pate, s.coverage_jackknife_cate,
             s.power_jackknife) = _coverage_and_power(
                d, jv, (pate, cate), scenario.n_clusters, level)
        summaries.append(s)
        estimates[k.value] = d.tolist()
    return SimReport(scenario=scenario, pate=pate, cate=cate,
                     summaries=summaries, estimates=estimates)
