"""The benchmark's workloads: inputs, one operation, and the direct-path check.

Every call into pbcrt goes through a module attribute looked up at call
time (``pbcrt.simulate.run_study``, not a name imported once), so the
tracer's wrappers see it.  An operation returns, per estimator kind,
(delta_hat, model-based variance, jackknife variance or None).
"""
from __future__ import annotations

import pathlib

import numpy as np

import pbcrt
import pbcrt.estimators
import pbcrt.inference
import pbcrt.io
import pbcrt.simulate
from pbcrt import EstimatorKind, FitOptions, PopulationMixture, VarianceComponents

# The informative reference scenario of the acceptance tests.
MIX_INFORMATIVE = PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5)
VC_REFERENCE = VarianceComponents(1.0, 0.053, 0.013)

# Tolerances of the output check: the refactoring gates of the roadmap.
TOL_EXACT = 1e-10   # non-REML fits and fits with plug-in components
TOL_REML = 1e-6     # fits whose variance components come from REML

Outputs = dict  # kind value -> (delta_hat, model_var, jackknife_var | None)

DATA_SEED = 20260823  # the acceptance-test seed


def op_seed(seed: int, j: int) -> int:
    """Master seed of operation j; distinct operations get distinct trials."""
    return seed * 100_000 + j


def _direct(trial, kinds, options, jackknife: bool) -> Outputs:
    out = {}
    for kind in kinds:
        res = pbcrt.estimators.fit(trial, kind, options)
        jvar = (pbcrt.inference.jackknife_variance(trial, kind, options)[0]
                if jackknife else None)
        out[kind.value] = (res.delta_hat, res.model_based_var, jvar)
    return out


class StudyWorkload:
    """One operation is one replicate: ``run_study`` on a one-replicate scenario."""

    def __init__(self, name, why, seed, trace_cycle, n_reference, options,
                 **scenario):
        self.name = name
        self.why = why
        self.seed = self.data_seed = seed
        self.trace_cycle = trace_cycle
        self.n_reference = n_reference
        self.options = options
        self.scenario = scenario

    def _scenario(self, j):
        return pbcrt.SimScenario(reps=1, master_seed=op_seed(self.seed, j),
                                 **self.scenario)

    def prepare(self, workdir: pathlib.Path) -> None:
        """Study inputs are drawn inside each operation."""

    def input_index(self, j: int) -> int:
        return j

    def op(self, j: int) -> Outputs:
        report = pbcrt.simulate.run_study(self._scenario(j), self.options)
        out = {}
        for s in report.summaries:
            if s.n_failures:
                raise RuntimeError(f"{s.estimator.value} failed to fit")
            out[s.estimator.value] = (s.mean_estimate, s.mean_model_variance,
                                      s.mean_jackknife_variance)
        return out

    def direct(self, j: int) -> Outputs:
        sc = self._scenario(j)
        trial = pbcrt.simulate.generate_trial(sc, 0)
        return _direct(trial, sc.estimators, self.options, sc.jackknife)

    def tolerance(self, kind: str) -> float:
        if self.options.vc is None and EstimatorKind(kind).mixed:
            return TOL_REML
        return TOL_EXACT


# Kinds that accept unequal period sizes; the weighted mixed fits refuse them.
UNEQUAL_KINDS = tuple(EstimatorKind(k) for k in
                      ("iee", "ieew", "fe", "few", "eme", "neme"))


class AnalysisWorkload:
    """One operation reads a trial CSV and fits six kinds with REML and jackknife.

    Outcomes are drawn from the nested-exchangeable model with the
    reference components onto the bundled cluster-period sizes, then
    written as long-form CSV files.  Operations cycle over the files in
    an order drawn from the seed.

    The files themselves come from the fixed DATA_SEED, like the one data
    set a trialist analyses again and again.  REML work per file varies
    threefold (coefficient of variation 0.33), and a run analyses only
    about 17 files, so files drawn per seed would make the run's cost a
    property of the seed rather than of the program.  With few files, a
    run reads each of them about twice.
    """

    n_inputs = n_reference = 8
    mu, phi1, delta = 1.0, 0.2, 0.35

    def __init__(self, name, why, seed, trace_cycle):
        self.name = name
        self.why = why
        self.seed = seed
        self.data_seed = DATA_SEED
        self.trace_cycle = trace_cycle
        self.order = np.random.default_rng(seed).permutation(self.n_inputs)
        self.trials = []
        self.paths = []

    def _draw(self, index: int):
        rng = np.random.default_rng([self.data_seed, index])
        vc = VC_REFERENCE
        sd_a, sd_g, sd_e = (np.sqrt(vc.tau_alpha2), np.sqrt(vc.tau_gamma2),
                            np.sqrt(vc.sigma_w2))
        cids, pers, seqs, ys = [], [], [], []
        for cid, seq, k0, k1 in pbcrt.io.load_size_table():
            alpha = sd_a * rng.standard_normal()
            g0, g1 = sd_g * rng.standard_normal(2)
            y0 = self.mu + alpha + g0 + sd_e * rng.standard_normal(k0)
            y1 = (self.mu + self.phi1 + seq * self.delta + alpha + g1
                  + sd_e * rng.standard_normal(k1))
            cids += [cid] * (k0 + k1)
            pers += [0] * k0 + [1] * k1
            seqs += [seq] * (k0 + k1)
            ys += list(y0) + list(y1)
        return pbcrt.ObservedTrial(cids, pers, seqs, ys)

    def prepare(self, workdir: pathlib.Path) -> None:
        self.trials, self.paths = [], []
        for i in range(self.n_inputs):
            trial = self._draw(i)
            path = workdir / f"{self.name}_{i:03d}.csv"
            pbcrt.io.emit_trial_csv(trial, path)
            self.trials.append(trial)
            self.paths.append(path)

    def input_index(self, j: int) -> int:
        return int(self.order[j % self.n_inputs])

    def op(self, j: int) -> Outputs:
        trial = pbcrt.io.parse_trial_csv(self.paths[self.input_index(j)])
        out = {}
        for kind in UNEQUAL_KINDS:
            res = pbcrt.inference.fit_with_inference(trial, kind)
            out[kind.value] = (res.delta_hat, res.model_based_var,
                               res.jackknife_var)
        return out

    def direct(self, j: int) -> Outputs:
        return _direct(self.trials[self.input_index(j)], UNEQUAL_KINDS,
                       FitOptions(), jackknife=True)

    def tolerance(self, kind: str) -> float:
        return TOL_REML if EstimatorKind(kind).mixed else TOL_EXACT


WHY = {
    "study_jackknife_i10":
        "Tier-1 reference study: I=10, all eight fits, REML and full-refit "
        "jackknife per replicate; REML and drop_cluster re-indexing dominate",
    "study_plugin_i400":
        "large-I oracle check: I=400, plug-in variance components, no "
        "jackknife; generation, indexing and the dense fe/few design "
        "dominate, REML is bypassed",
    "analysis_unequal_i28":
        "trialist path: parse a CSV with unequal periods, six fits with REML "
        "and jackknife each; adds the io layer and unshared REML",
}


def make(name: str, seed: int):
    """The named workload for a seed."""
    if name == "study_jackknife_i10":
        return StudyWorkload(name, WHY[name], seed, trace_cycle=4, n_reference=48,
                             options=FitOptions(), n_clusters=10,
                             mixture=MIX_INFORMATIVE, vc=VC_REFERENCE,
                             jackknife=True, fixed_split=True)
    if name == "study_plugin_i400":
        return StudyWorkload(name, WHY[name], seed, trace_cycle=16, n_reference=320,
                             options=FitOptions(vc=VC_REFERENCE),
                             n_clusters=400, mixture=MIX_INFORMATIVE,
                             vc=VC_REFERENCE, jackknife=False)
    if name == "analysis_unequal_i28":
        return AnalysisWorkload(name, WHY[name], seed, trace_cycle=2)
    raise KeyError(name)

