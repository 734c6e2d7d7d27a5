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
  of e, the oracle of `reml._deviance` and `reml._gradient`.
- `generate_trial_records`: trial generation one cluster at a time with
  per-record Python lists, the stream `simulate.generate_trial` must
  reproduce bit for bit.
- `str_codes`: cluster codes from str() of every record's label, which the
  run-length coding of `ObservedTrial` must reproduce.
- `cell_table`: the reduction of records to a cell table about a given
  origin, one record at a time, and `drop_cluster`, a subtrial re-indexed
  from the records of the kept clusters: the oracles of
  `ObservedTrial.cells` and `CellStats.drop`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from pbcrt import CellStats, CorrelationStructure, ObservedTrial, VarianceComponents, WeightingScheme
from pbcrt.blocks import inverse_cell_terms, normal_equations, structure_taus
from pbcrt.simulate import SimScenario, _subpop_assignment, _truncated_poisson


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
    """(M, v, y'W y, sum of log-dets), summed from per-cluster aggregates."""
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
    m = np.empty((3, 3))
    m[0, 0] = np.sum(w0 + w1 + 2.0 * wx)
    m[0, 1] = m[1, 0] = np.sum(s * (w1 + wx))
    m[0, 2] = m[2, 0] = np.sum(w1 + wx)
    m[1, 1] = m[1, 2] = m[2, 1] = np.sum(s * w1)
    m[2, 2] = np.sum(w1)
    v = np.array([np.sum(q0 + q1), np.sum(s * q1), np.sum(q1)])
    return m, v, float(np.sum(r)), float(np.sum(logdet))


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
    m, v, yy, logdet = normal_equations(cells, tau_within, tau_between)
    k0, k1 = cells.k0, cells.k1
    e, _ = inverse_cell_terms(k0, k1, 1.0, tau_within, tau_between)
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
        x = cells.gls_map.reshape(9, -1) @ de.ravel()
        dm = x[[0, 1, 2, 1, 3, 3, 2, 3, 4]].reshape(3, 3)
        grad.append(a.sum() + np.sum(m_inv * dm) + dof * (
            x[8] - 2.0 * theta @ x[5:8] + theta @ dm @ theta) / quad)
    return (logdet + np.linalg.slogdet(m)[1] + dof * math.log(quad),
            np.array(grad))


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
    the oracle of `CellStats.drop`."""
    keep = trial.cluster_ids != str(cluster_id)
    if keep.all():
        raise KeyError(f"no cluster {cluster_id!r} in trial")
    return ObservedTrial(trial.cluster_ids[keep], trial.periods[keep],
                         trial.sequences[keep], trial.outcomes[keep])
