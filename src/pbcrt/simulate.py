"""Data generation and Monte Carlo studies for two-period baseline trials.

Each replicate's randomness is a pure function of (master_seed,
replicate_index), so studies are reproducible and replicates can run in
any order.  Cluster sizes are zero-truncated Poisson draws with
subpopulation-specific means, equal across the two periods.

One replicate's draws have two consumers: `generate_cells` reduces them
straight to the cell table that `run_study` fits, and `generate_trial`
lists them as the individual records of an `ObservedTrial`, for files,
the command line and tests.  Both give the same table bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from .estimands import PopulationMixture, true_cate, true_pate
from .estimators import EstimationError, EstimatorKind, FitOptions
from .inference import confidence_interval, fit_kinds
from .trial import CellStats, ObservedTrial, VarianceComponents, _scratch

__all__ = [
    "SimScenario",
    "EstimatorSummary",
    "SimReport",
    "StudyError",
    "generate_cells",
    "generate_trial",
    "run_study",
    "expand_truncated_poisson",
]

_ALL_KINDS = tuple(EstimatorKind)
# Records one replicate may expect, 2 n_clusters K for its largest size mean
# K: at 33 (cells) to 60 (records) bytes per record, at most 0.6 GB.
_MAX_RECORDS = 10**7


class StudyError(RuntimeError):
    """Too many replicates failed for the summary to be trustworthy."""


def _is_number(v) -> bool:
    return type(v) is int or type(v) is float and math.isfinite(v)


# The JSON type each scenario key takes, as (expected type, test); `bool`
# is not an `int` here, as JSON's true and false are not numbers.
_INTEGER = ("an integer", lambda v: type(v) is int)
_FLAG = ("true or false", lambda v: type(v) is bool)
_NUMBER = ("a finite number", _is_number)
_JSON_TYPES = {
    "n_clusters": _INTEGER, "reps": _INTEGER, "master_seed": _INTEGER,
    "jackknife": _FLAG, "fixed_sizes": _FLAG, "fixed_split": _FLAG,
    "mu": _NUMBER, "phi1": _NUMBER, "ci_level": _NUMBER,
    "vc": ("an object of finite numbers",
           lambda v: type(v) is dict and all(map(_is_number, v.values()))),
    "mixture": ("a list of [p, K, delta] rows", lambda v: type(v) is list
                and all(type(r) is list and len(r) == 3 for r in v)),
    "estimators": ("a list of estimator names", lambda v: type(v) is list),
}


@dataclass(frozen=True)
class SimScenario:
    """Configuration of one Monte Carlo study.

    The mixture's sizes are interpreted as Poisson means for the
    zero-truncated size draws; `fixed_sizes` uses them as constants
    instead.  `fixed_split` assigns subpopulations in fixed proportions
    rather than i.i.d. draws.
    """

    n_clusters: int
    mixture: PopulationMixture
    vc: VarianceComponents
    mu: float = 1.0
    phi1: float = 0.2
    reps: int = 1000
    master_seed: int = 0
    estimators: tuple[EstimatorKind, ...] = _ALL_KINDS
    ci_level: float = 0.95
    jackknife: bool = True
    fixed_sizes: bool = False
    fixed_split: bool = False

    def __post_init__(self):
        for name in ("n_clusters", "reps"):  # numpy sizes are below 2**63
            if getattr(self, name) >= 2**63:
                raise ValueError(f"{name} must be below 2**63, got {getattr(self, name)!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed!r}")
        if self.n_clusters < 4 or self.n_clusters % 2:
            raise ValueError("n_clusters must be even and at least 4")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if not self.mixture.table.equal_period_sizes:
            raise ValueError("size means must be equal across periods")
        records = 2 * self.n_clusters * max(s.k0 for s in self.mixture.subpops)
        if records > _MAX_RECORDS:
            raise ValueError(f"mixture: {self.n_clusters} clusters at its largest size mean "
                             f"expect {records} records a replicate, over {_MAX_RECORDS}")
        if not self.estimators:
            raise ValueError("at least one estimator is required")

    def to_dict(self) -> dict:
        """The fields as JSON values, in the form `from_dict` reads."""
        return {
            "n_clusters": self.n_clusters,
            "mixture": [[s.prob, [s.k0, s.k1], s.delta]
                        for s in self.mixture.subpops],
            "vc": asdict(self.vc),
            "mu": self.mu, "phi1": self.phi1, "reps": self.reps,
            "master_seed": self.master_seed,
            "estimators": [k.value for k in self.estimators],
            "ci_level": self.ci_level, "jackknife": self.jackknife,
            "fixed_sizes": self.fixed_sizes, "fixed_split": self.fixed_split,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimScenario":
        """Build from a dict of field values, as `to_dict` writes them.

        n_clusters, mixture and vc.sigma_w2 are required; every other
        field keeps its default when absent.  A mixture row is
        [p, K, delta] or [p, [k0, k1], delta].  Values of the wrong JSON
        type or out of range, and unknown keys, raise ValueError naming
        them.
        """
        if type(doc) is not dict:
            raise ValueError(f"a scenario must be a JSON object, got {doc!r}")
        for key, (expected, ok) in _JSON_TYPES.items():
            if key in doc and not ok(doc[key]):
                raise ValueError(f"{key} must be {expected}, got {doc[key]!r}")
        vc = doc.get("vc", {})
        missing = [k for k in ("n_clusters", "mixture") if k not in doc]
        missing += [] if "sigma_w2" in vc else ["vc.sigma_w2"]
        if missing:
            raise ValueError(f"missing scenario keys: {', '.join(missing)}")
        known = ({f.name for f in fields(cls)}
                 | {f"vc.{f.name}" for f in fields(VarianceComponents)})
        unknown = [k for k in (*doc, *(f"vc.{k}" for k in vc)) if k not in known]
        if unknown:
            raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
        kw = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        for i, (p, k, d) in enumerate(doc["mixture"]):
            ks = k if type(k) is list and len(k) == 2 else [k]
            if not all(map(_is_number, (p, d, *ks))):
                raise ValueError(f"mixture row {i} must be [p, K, delta] or [p, [k0, "
                                 f"k1], delta] of finite numbers, got {[p, k, d]!r}")
        kw["mixture"] = PopulationMixture([(p, k, d) for p, k, d in doc["mixture"]])
        kw["vc"] = VarianceComponents(**vc)
        if "estimators" in doc:
            kw["estimators"] = tuple(EstimatorKind(k) for k in doc["estimators"])
        return cls(**kw)


def _truncated_poisson(rng: np.random.Generator, mean: float) -> int:
    k = int(rng.poisson(mean))
    while k < 1:
        k = int(rng.poisson(mean))
    return k


def _subpop_assignment(scenario: SimScenario, rng: np.random.Generator) -> np.ndarray:
    n = scenario.n_clusters
    probs = np.array([s.prob for s in scenario.mixture.subpops])
    if not scenario.fixed_split:
        return rng.choice(len(probs), size=n, p=probs)
    # Largest-remainder apportionment of exact counts per subpopulation.
    raw = probs * n
    counts = np.floor(raw).astype(int)
    order = np.argsort(raw - counts)[::-1]
    for idx in order[: n - counts.sum()]:
        counts[idx] += 1
    return np.repeat(np.arange(len(probs)), counts)


def _draw(scenario: SimScenario, replicate_index: int):
    """One replicate's random draws: the 2I cell sizes, the arms, and for
    every record its cell index (2 x cluster + period) and outcome."""
    rng = np.random.default_rng([scenario.master_seed, replicate_index])
    n = scenario.n_clusters
    subpop = _subpop_assignment(scenario, rng)
    means = np.array([s.k0 for s in scenario.mixture.subpops])[subpop]
    # One array draw consumes the stream as the per-cluster draws do; only
    # a zero, which the per-cluster loop redraws, needs the loop.
    state = rng.bit_generator.state
    sizes = means.astype(int) if scenario.fixed_sizes else rng.poisson(means)
    if not sizes.all():
        rng.bit_generator.state = state
        sizes = np.array([_truncated_poisson(rng, m) for m in means.tolist()])
    seq = np.zeros(n, dtype=int)
    seq[rng.permutation(n)[: n // 2]] = 1

    # One batch of normals, consumed in the order of per-cluster draws:
    # alpha, g0, g1, then k period-0 and k period-1 residuals.
    draws = 3 + 2 * sizes
    z = rng.standard_normal(out=_scratch(0, int(draws.sum())))
    start = np.cumsum(draws) - draws
    k = np.repeat(sizes, 2)
    # Slots of `_scratch` (kept results are copies; `CellStats.reduce` then
    # reuses 3 and 0): 0 z, then means by record; 1 y; 2 cells; 3 positions.
    at, cell = (_scratch(i, int(k.sum())).view(np.int64) for i in (3, 2))
    at.fill(1)
    at[start - 3 * np.arange(n)] = 3 + (start > 0)  # past alpha, g0 and g1
    cell.fill(0)
    cell[np.cumsum(k[:-1])] = 1  # at each cell's first record
    e = np.take(z, np.cumsum(at, out=at), out=_scratch(1, at.size), mode="clip")
    vc = scenario.vc
    sd_e = np.sqrt(vc.sigma_w2)
    sd_g = np.sqrt(vc.tau_gamma2)
    base = scenario.mu + np.sqrt(vc.tau_alpha2) * z[start]
    delta = np.array([s.delta for s in scenario.mixture.subpops])[subpop]
    cell_mean = np.column_stack((
        base + sd_g * z[start + 1],
        base + scenario.phi1 + seq * delta + sd_g * z[start + 2])).ravel()
    e *= sd_e
    e += np.take(cell_mean, np.cumsum(cell, out=cell), out=z[:e.size], mode="clip")
    return k, seq, cell, e


@lru_cache(maxsize=16)
def _labels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cluster labels, built once per n: fixed-width, so that
    `ObservedTrial` codes them by runs, and as str objects, for ids."""
    labels = np.array([f"c{i:04d}" for i in range(n)])
    ids = labels.astype(object)
    labels.flags.writeable = ids.flags.writeable = False
    return labels, ids


def generate_cells(scenario: SimScenario, replicate_index: int) -> CellStats:
    """The cell table of `generate_trial(scenario, replicate_index)`,
    reduced from the same draws without building its records."""
    k, seq, cell, y = _draw(scenario, replicate_index)
    return CellStats.reduce(_labels(scenario.n_clusters)[1],
                            seq.astype(np.float64), k.astype(np.float64),
                            cell, y)


def generate_trial(scenario: SimScenario, replicate_index: int) -> ObservedTrial:
    """One simulated trial, deterministic given (master_seed, replicate_index)."""
    _, seq, cell, y = _draw(scenario, replicate_index)
    return ObservedTrial(_labels(scenario.n_clusters)[0][cell // 2], cell % 2,
                         seq[cell // 2], y.copy())


def expand_truncated_poisson(mix: PopulationMixture, tail: float = 1e-12) -> PopulationMixture:
    """Exact discrete mixture implied by zero-truncated Poisson size draws.

    Replaces each subpopulation (p, mean, delta) by atoms (p * P(K=k), k,
    delta) over the truncated support, dropping a total tail mass below
    `tail` and renormalizing.  Lets the limit oracle evaluate Poisson-size
    scenarios exactly.  P(K > k) is summed from far past the mean down.
    """
    atoms = []
    for s in mix.subpops:
        mean = float(s.k0)
        ks = np.arange(int(mean + 40.0 * math.sqrt(mean) + 40.0))
        pk = np.exp(ks * math.log(mean) - mean
                    - np.array([math.lgamma(k + 1.0) for k in ks]))
        above = np.append(np.cumsum(pk[:0:-1])[::-1], 0.0)
        kmax = int(np.argmax(above <= tail)) + 1
        for k, q in zip(ks[1:kmax + 1], pk[1:kmax + 1] / -math.expm1(-mean)):
            if s.prob * float(q) > 0.0:  # a subnormal q can underflow here
                atoms.append((s.prob * float(q), int(k), s.delta))
    total = sum(a[0] for a in atoms)
    return PopulationMixture([(p / total, k, d) for p, k, d in atoms])


@dataclass
class EstimatorSummary:
    """Monte Carlo summary of one estimator over the completed replicates."""

    estimator: EstimatorKind
    n_ok: int
    n_failures: int
    n_reml_nonconverged: int  # completed replicates whose fit or refits used non-converged REML
    mean_estimate: float
    mc_variance: float
    rel_bias_pate_pct: float
    rel_bias_cate_pct: float
    rmse_pate: float
    rmse_cate: float
    mean_model_variance: float
    coverage_model_pate: float
    coverage_model_cate: float
    power_model: float
    mean_jackknife_variance: float | None = None
    coverage_jackknife_pate: float | None = None
    coverage_jackknife_cate: float | None = None
    power_jackknife: float | None = None


@dataclass
class SimReport:
    scenario: SimScenario
    pate: float
    cate: float
    summaries: list[EstimatorSummary]
    estimates: dict = field(default_factory=dict)  # kind value -> per-replicate arrays

    def summary(self, kind: EstimatorKind) -> EstimatorSummary:
        for s in self.summaries:
            if s.estimator is kind:
                return s
        raise KeyError(kind)

    def write_csv(self, path) -> None:
        """One row per estimator and variance source."""
        cols = ["estimator", "variance_source", "n_ok", "n_failures",
                "mean_estimate", "mc_variance", "rel_bias_pate_pct",
                "rel_bias_cate_pct", "rmse_pate", "rmse_cate",
                "mean_variance", "coverage_pate", "coverage_cate", "power"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for s in self.summaries:
                common = [s.estimator.value, "model", s.n_ok, s.n_failures,
                          repr(s.mean_estimate), repr(s.mc_variance),
                          repr(s.rel_bias_pate_pct), repr(s.rel_bias_cate_pct),
                          repr(s.rmse_pate), repr(s.rmse_cate)]
                w.writerow(common + [repr(s.mean_model_variance),
                                     repr(s.coverage_model_pate),
                                     repr(s.coverage_model_cate),
                                     repr(s.power_model)])
                if s.mean_jackknife_variance is not None:
                    common[1] = "jackknife"
                    w.writerow(common + [repr(s.mean_jackknife_variance),
                                         repr(s.coverage_jackknife_pate),
                                         repr(s.coverage_jackknife_cate),
                                         repr(s.power_jackknife)])

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "pate": self.pate,
            "cate": self.cate,
            "summaries": [{**{k: (v.value if isinstance(v, EstimatorKind) else v)
                              for k, v in vars(s).items()}}
                          for s in self.summaries],
            "estimates": {k: list(v) for k, v in self.estimates.items()},
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def _rel_bias_pct(mean: float, target: float) -> float:
    """Relative bias in percent; undefined (NaN) for a null target."""
    return 100.0 * (mean - target) / target if target else float("nan")


def run_study(scenario: SimScenario, options: FitOptions = FitOptions()) -> SimReport:
    """Run all replicates, fit every requested estimator, and summarize.

    Each replicate's estimators are fitted in one pass, with their
    jackknife when the scenario asks for one, by `fit_kinds`.  A replicate
    that fails to fit one estimator is excluded for that estimator only;
    more than 5 percent failures for any estimator stops the study.
    """
    kinds = scenario.estimators
    r_tot = scenario.reps
    # Per kind and replicate: delta_hat, model variance, jackknife variance.
    fits = np.full((len(kinds), r_tot, 3), np.nan)
    failures = dict.fromkeys(kinds, 0)
    nonconverged = dict.fromkeys(kinds, 0)

    for r in range(r_tot):
        found = fit_kinds(generate_cells(scenario, r), kinds, options,
                          scenario.jackknife)
        for i, k in enumerate(kinds):
            res = found[k]
            if isinstance(res, EstimationError):
                failures[k] += 1
                continue
            fits[i, r] = res.delta_hat, res.model_based_var, res.jackknife_var
            nonconverged[k] += not res.converged

    worst = max(failures, key=failures.get)
    if failures[worst] > 0.05 * r_tot:
        raise StudyError(
            f"{failures[worst]} of {r_tot} replicates failed for {worst.value}")

    pate = true_pate(scenario.mixture)
    cate = true_cate(scenario.mixture)
    # All kinds at once: a failed replicate counts as 0 in every sum, and
    # each kind's sums run over its replicates in order, as on its own.
    ok = np.isfinite(fits[..., 0])
    n_ok = ok.sum(axis=1)
    d, mv, jv = np.where(ok, np.moveaxis(fits, 2, 0), 0.0)
    mean_d, mean_mv, mean_jv = (a.sum(axis=1) / n_ok for a in (d, mv, jv))
    dev = np.where(ok, d - mean_d[:, None], 0.0)
    mc_var = np.divide((dev * dev).sum(axis=1), n_ok - 1,
                       out=np.zeros(len(kinds)), where=n_ok > 1)
    targets = np.array((pate, cate))[:, None, None]
    err = np.where(ok, d - targets, 0.0)
    rmse = np.sqrt((err * err).sum(axis=2) / n_ok)
    # Per variance source (model, then jackknife): shares of replicates
    # whose interval holds each target, then whose interval excludes 0,
    # the power, as then the Wald p is below 1 - level.
    ci = confidence_interval(d, np.array((mv, jv))[:1 + scenario.jackknife],
                             scenario.n_clusters, scenario.ci_level)
    lower, upper = ci.lower[:, None], ci.upper[:, None]
    shares = np.concatenate((((lower <= targets) & (targets <= upper)),
                             (lower > 0.0) | (upper < 0.0)), axis=1)
    shares = (np.count_nonzero(shares & ok, axis=-1) / n_ok).tolist()

    # The columns of every kind's summary, in the order of its fields.
    jackknife = ([mean_jv.tolist(), *shares[1]] if scenario.jackknife
                 else [[None] * len(kinds)] * 4)
    summaries = [EstimatorSummary(k, n, failures[k], nonconverged[k], mean, var,
                                  _rel_bias_pct(mean, pate), _rel_bias_pct(mean, cate),
                                  *rest)
                 for k, n, mean, var, *rest in zip(
                     kinds, n_ok.tolist(), mean_d.tolist(), mc_var.tolist(),
                     *rmse.tolist(), mean_mv.tolist(), *shares[0], *jackknife)]
    estimates = {k.value: [x for x, good in zip(row, mask) if good]
                 for k, row, mask in zip(kinds, d.tolist(), ok.tolist())}
    return SimReport(scenario=scenario, pate=pate, cate=cate,
                     summaries=summaries, estimates=estimates)
