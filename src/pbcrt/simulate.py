"""Data generation and Monte Carlo studies for two-period baseline trials.

Each replicate's randomness is a pure function of (master_seed,
replicate_index), so studies are reproducible and replicates can run in
any order.  Cluster sizes are zero-truncated Poisson draws with
subpopulation-specific means, equal across the two periods.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy import stats as sps

from .estimands import PopulationMixture, true_cate, true_pate
from .estimators import EstimationError, EstimatorKind, FitOptions
from .inference import confidence_interval, fit_with_inference, wald_test
from .trial import ObservedTrial, VarianceComponents

__all__ = [
    "SimScenario",
    "EstimatorSummary",
    "SimReport",
    "StudyError",
    "generate_trial",
    "run_study",
    "expand_truncated_poisson",
]

_ALL_KINDS = tuple(EstimatorKind)


class StudyError(RuntimeError):
    """Too many replicates failed for the summary to be trustworthy."""


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
        if self.n_clusters < 4 or self.n_clusters % 2:
            raise ValueError("n_clusters must be even and at least 4")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if not self.mixture.equal_period_sizes:
            raise ValueError("size means must be equal across periods")
        if any(s.k0 < 1 for s in self.mixture.subpops):
            raise ValueError("Poisson size means must be >= 1")
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
        [p, K, delta] or [p, [k0, k1], delta].  Unknown keys, at the top
        level or in vc, raise ValueError naming them.
        """
        vc = doc["vc"]
        known = ({f.name for f in fields(cls)}
                 | {f"vc.{f.name}" for f in fields(VarianceComponents)})
        unknown = [k for k in (*doc, *(f"vc.{k}" for k in vc)) if k not in known]
        if unknown:
            raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
        kw = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
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


def generate_trial(scenario: SimScenario, replicate_index: int) -> ObservedTrial:
    """One simulated trial, deterministic given (master_seed, replicate_index)."""
    rng = np.random.default_rng([scenario.master_seed, replicate_index])
    n = scenario.n_clusters
    subpop = _subpop_assignment(scenario, rng)
    sizes = np.empty(n, dtype=int)
    for i, u in enumerate(subpop):
        mean = scenario.mixture.subpops[u].k0
        sizes[i] = mean if scenario.fixed_sizes else _truncated_poisson(rng, mean)
    seq = np.zeros(n, dtype=int)
    seq[rng.permutation(n)[: n // 2]] = 1

    # One batch of normals, consumed in the order of per-cluster draws:
    # alpha, g0, g1, then k period-0 and k period-1 residuals.
    draws = 3 + 2 * sizes
    z = rng.standard_normal(int(draws.sum()))
    start = np.cumsum(draws) - draws
    e = np.delete(z, np.concatenate((start, start + 1, start + 2)))
    vc = scenario.vc
    sd_e = np.sqrt(vc.sigma_w2)
    sd_g = np.sqrt(vc.tau_gamma2)
    base = scenario.mu + np.sqrt(vc.tau_alpha2) * z[start]
    delta = np.array([s.delta for s in scenario.mixture.subpops])[subpop]
    cell_mean = np.column_stack((
        base + sd_g * z[start + 1],
        base + scenario.phi1 + seq * delta + sd_g * z[start + 2])).ravel()
    cell_size = np.repeat(sizes, 2)
    labels = np.array([f"c{i:04d}" for i in range(n)])
    return ObservedTrial(np.repeat(labels, 2 * sizes),
                         np.repeat(np.tile([0, 1], n), cell_size),
                         np.repeat(seq, 2 * sizes),
                         np.repeat(cell_mean, cell_size) + sd_e * e)


def expand_truncated_poisson(mix: PopulationMixture, tail: float = 1e-12) -> PopulationMixture:
    """Exact discrete mixture implied by zero-truncated Poisson size draws.

    Replaces each subpopulation (p, mean, delta) by atoms (p * P(K=k), k,
    delta) over the truncated support, dropping a total tail mass below
    `tail` and renormalizing.  Lets the limit oracle evaluate Poisson-size
    scenarios exactly.
    """
    atoms = []
    for s in mix.subpops:
        mean = float(s.k0)
        kmax = int(sps.poisson.isf(tail, mean)) + 1
        ks = np.arange(1, kmax + 1)
        pk = sps.poisson.pmf(ks, mean) / -np.expm1(-mean)
        for k, q in zip(ks, pk):
            if q > 0.0:
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


def _coverage_and_power(d: np.ndarray, var: np.ndarray, targets,
                        n_clusters: int, level: float) -> list[float]:
    """Shares of replicates whose interval holds each target, then whose
    Wald p-value falls below 1 - level."""
    ci = confidence_interval(d, var, n_clusters, level)
    p = wald_test(d, var, n_clusters)
    return ([float(np.mean((ci.lower <= t) & (t <= ci.upper))) for t in targets]
            + [float(np.mean(p < 1.0 - level))])


def run_study(scenario: SimScenario, options: FitOptions = FitOptions()) -> SimReport:
    """Run all replicates, fit every requested estimator, and summarize.

    Each estimator is fitted, with its jackknife when the scenario asks
    for one, by `fit_with_inference`.  A replicate that fails to fit one
    estimator is excluded for that estimator only; more than 5 percent
    failures for any estimator stops the study.
    """
    kinds = scenario.estimators
    r_tot = scenario.reps
    # Per replicate: delta_hat, model variance, jackknife variance.
    fits = {k: np.full((r_tot, 3), np.nan) for k in kinds}
    failures = {k: 0 for k in kinds}
    nonconverged = {k: 0 for k in kinds}

    for r in range(r_tot):
        trial = generate_trial(scenario, r)
        for k in kinds:
            try:
                res = fit_with_inference(trial, k, options, scenario.jackknife)
            except EstimationError:
                failures[k] += 1
                continue
            fits[k][r] = res.delta_hat, res.model_based_var, res.jackknife_var
            nonconverged[k] += not res.converged

    max_fail = max(failures.values())
    if max_fail > 0.05 * r_tot:
        worst = max(failures, key=failures.get)
        raise StudyError(
            f"{failures[worst]} of {r_tot} replicates failed for {worst.value}")

    pate = true_pate(scenario.mixture)
    cate = true_cate(scenario.mixture)
    level = scenario.ci_level
    summaries = []
    estimates = {}
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
