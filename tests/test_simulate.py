import json
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcrt import (
    CorrelationStructure,
    EstimatorKind,
    FitOptions,
    PopulationMixture,
    SimScenario,
    StudyError,
    VarianceComponents,
    expand_truncated_poisson,
    fit,
    fit_with_inference,
    generate_cells,
    generate_trial,
    plim,
    run_study,
    true_cate,
    true_pate,
)
from pbcrt.inference import confidence_interval, jackknife_variance, wald_test

import oracles
from oracles import generate_trial_records, run_study_per_kind

MIX = PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5)
VC = VarianceComponents(1.0, 0.053, 0.013)


def scenario(**kw):
    base = dict(n_clusters=10, mixture=MIX, vc=VC, reps=5, master_seed=42,
                jackknife=False)
    base.update(kw)
    return SimScenario(**base)


class TestScenarioValidation:
    def test_odd_clusters_rejected(self):
        with pytest.raises(ValueError, match="even"):
            scenario(n_clusters=9)

    def test_unequal_period_means_rejected(self):
        mix = PopulationMixture([(1.0, (10, 20), 0.3)])
        with pytest.raises(ValueError):
            scenario(mixture=mix)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            scenario(ci_level=1.5)

    def test_expected_records_bounded(self):
        # 2 x n_clusters x the largest size mean may reach _MAX_RECORDS
        # (10**7), and no further; nothing is drawn here.
        big = PopulationMixture([(0.5, 5, 0.2), (0.5, 500_000, 0.3)])
        assert scenario(mixture=big).n_clusters == 10
        bigger = PopulationMixture([(0.5, 5, 0.2), (0.5, 500_001, 0.3)])
        with pytest.raises(ValueError, match="^mixture: 10 clusters .* 10000020 records"):
            scenario(mixture=bigger)


class TestGeneration:
    def test_deterministic(self):
        sc = scenario()
        a = generate_trial(sc, 3)
        b = generate_trial(sc, 3)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.cluster_ids, b.cluster_ids)

    def test_replicates_differ(self):
        sc = scenario()
        a = generate_trial(sc, 0)
        b = generate_trial(sc, 1)
        assert not np.array_equal(a.outcomes[: min(a.outcomes.size, b.outcomes.size)],
                                  b.outcomes[: min(a.outcomes.size, b.outcomes.size)])

    def test_seed_changes_stream(self):
        a = generate_trial(scenario(master_seed=1), 0)
        b = generate_trial(scenario(master_seed=2), 0)
        assert not np.array_equal(a.outcomes[: min(a.outcomes.size, b.outcomes.size)],
                                  b.outcomes[: min(a.outcomes.size, b.outcomes.size)])

    def test_exact_half_treated(self):
        sc = scenario(n_clusters=16)
        for r in range(5):
            t = generate_trial(sc, r)
            assert t.cells.sequence.sum() == 8

    def test_equal_period_sizes_within_cluster(self):
        t = generate_trial(scenario(), 0)
        assert t.cells.equal_period_sizes

    def test_noiseless_dgp_values(self):
        vc0 = VarianceComponents(1e-10)
        sc = scenario(vc=vc0, fixed_sizes=True, fixed_split=True,
                      mu=1.0, phi1=0.2)
        t = generate_trial(sc, 0)
        c = t.cells
        for k0, seq, mean0, mean1 in zip(c.k0, c.sequence, c.mean0 + c.origin,
                                         c.mean1 + c.origin):
            assert mean0 == pytest.approx(1.0, abs=1e-4)
            delta = 0.2 if k0 == 20 else 0.5
            expect = 1.2 + (delta if seq else 0.0)
            assert mean1 == pytest.approx(expect, abs=1e-4)

    def test_fixed_split_counts(self):
        sc = scenario(fixed_split=True)
        t = generate_trial(sc, 0)
        small = int(np.sum(t.cells.k0 < 60))
        assert small == 5  # half from each subpopulation

    def test_noiseless_ieew_mean_hits_cate(self):
        vc0 = VarianceComponents(1e-10)
        sc = scenario(vc=vc0, fixed_sizes=True, reps=200)
        vals = [fit(generate_trial(sc, r), EstimatorKind.IEEW).delta_hat
                for r in range(200)]
        # Per replicate the value is the mean effect of the treated
        # clusters; over replicates it averages to the cATE.
        assert np.mean(vals) == pytest.approx(0.35, abs=0.02)


    @settings(max_examples=40, deadline=None)
    @given(half=st.sampled_from([2, 3, 5, 20, 200]),
           seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 50),
           means=st.tuples(st.integers(1, 30), st.integers(1, 30)),
           prob=st.floats(0.05, 0.95),
           taus=st.tuples(st.sampled_from([0.0, 0.053]),
                          st.sampled_from([0.0, 0.013])),
           fixed_sizes=st.booleans(), fixed_split=st.booleans())
    # Poisson means of 1 draw a zero size in some cluster of 40 all but
    # surely, so the draws restart one cluster at a time.
    @example(half=20, seed=1, rep=0, means=(1, 1), prob=0.5,
             taus=(0.0, 0.0), fixed_sizes=False, fixed_split=False)
    def test_matches_record_oracle(self, half, seed, rep, means, prob, taus,
                                   fixed_sizes, fixed_split):
        # Whole-array draws reproduce the per-cluster stream bit for bit,
        # zero-size redraws of small Poisson means included.
        mix = PopulationMixture.two_point(prob, means[0], means[1], 0.2, -0.5)
        sc = scenario(n_clusters=2 * half, mixture=mix, master_seed=seed,
                      vc=VarianceComponents(1.0, *taus), mu=-0.3, phi1=0.7,
                      fixed_sizes=fixed_sizes, fixed_split=fixed_split)
        got, want = generate_trial(sc, rep), generate_trial_records(sc, rep)
        assert got.cells == want.cells
        assert generate_cells(sc, rep) == want.cells
        for col in ("cluster_ids", "periods", "sequences", "outcomes"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and np.array_equal(a, b), col


def _fresh_tables(scenarios, tmp_path):
    """`generate_cells(sc, 0)` of each scenario, each in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    code = ("import pickle, sys\nfrom pbcrt import generate_cells\n"
            "sc = pickle.load(open(sys.argv[1], 'rb'))\n"
            "pickle.dump(generate_cells(sc, 0), open(sys.argv[1], 'wb'))")
    tables = []
    for i, sc in enumerate(scenarios):
        path = tmp_path / f"{i}.pkl"
        path.write_bytes(pickle.dumps(sc))
        subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                       check=True, timeout=120)
        tables.append(pickle.loads(path.read_bytes()))
    return tables


class TestReusedBuffers:
    """Each replicate is drawn into per-thread buffers that grow to the
    largest replicate seen; no table or record array may depend on, or be,
    what an earlier replicate left in them."""

    def test_sizes_in_either_order(self, tmp_path):
        large, small = scenario(n_clusters=400), scenario(n_clusters=10)
        want = _fresh_tables((large, small), tmp_path)
        for order in ((0, 1, 0, 1), (1, 0, 1, 0)):
            for i in order:
                sc = (large, small)[i]
                assert generate_cells(sc, 0) == want[i]
                assert generate_trial(sc, 0).cells == want[i]

    def test_threads_match_sequential(self):
        scenarios = [scenario(n_clusters=400, master_seed=1),
                     scenario(n_clusters=30, master_seed=2),
                     scenario(n_clusters=10, master_seed=3, fixed_split=True)]
        want = [[generate_cells(sc, r) for r in range(6)] for sc in scenarios]
        got = [[] for _ in scenarios]

        def work(i):
            for r in range(6):
                got[i].append(generate_cells(scenarios[i], r))
                got[i].append(generate_trial(scenarios[i], r).cells)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(scenarios))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[c for c in w for _ in (0, 1)] for w in want]

    def test_later_draws_leave_results_untouched(self):
        sc = scenario(n_clusters=400)
        trial, cells = generate_trial(sc, 0), generate_cells(sc, 1)
        saved = (trial.outcomes.copy(), trial.periods.copy(),
                 pickle.loads(pickle.dumps(cells)))
        for r in range(2, 5):
            generate_cells(sc, r)
            generate_cells(scenario(n_clusters=600), r)
        assert np.array_equal(trial.outcomes, saved[0])
        assert np.array_equal(trial.periods, saved[1])
        assert cells == saved[2]

    def test_steady_state_generation_peak_memory(self):
        # Steady replicates draw into reused buffers; fresh record-length
        # arrays for every replicate made a peak of about 1.9 MB at I=400.
        sc = scenario(n_clusters=400)
        generate_cells(sc, 0)
        tracemalloc.start()
        try:
            generate_cells(sc, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6


class TestTruncatedPoissonExpansion:
    def test_probabilities_and_mean(self):
        ex = expand_truncated_poisson(MIX)
        p = sum(s.prob for s in ex.subpops)
        assert p == pytest.approx(1.0, abs=1e-12)
        mean_small = sum(s.prob * s.k0 for s in ex.subpops if s.delta == 0.2) \
            / sum(s.prob for s in ex.subpops if s.delta == 0.2)
        assert mean_small == pytest.approx(20.0, abs=1e-6)

    def test_plim_close_to_point_mass(self):
        ex = expand_truncated_poisson(MIX)
        a = plim(EstimatorKind.EME, ex, VC)
        b = plim(EstimatorKind.EME, MIX, VC)
        assert a == pytest.approx(b, abs=0.01)
        assert true_pate(ex) == pytest.approx(true_pate(MIX), abs=1e-6)
        assert true_cate(ex) == pytest.approx(true_cate(MIX), abs=1e-12)

    def test_large_mean_drops_underflowing_atoms(self):
        # Near K = 1 a mean of 1000 gives subnormal P(K = k), which times
        # the subpopulation's probability can underflow to 0.
        ex = expand_truncated_poisson(PopulationMixture.two_point(0.5, 1000, 13, 0.2, 0.5))
        assert sum(s.prob for s in ex.subpops) == pytest.approx(1.0, abs=1e-12)
        assert min(s.prob for s in ex.subpops) > 0.0
        for kind in EstimatorKind:
            assert np.isfinite(plim(kind, ex, VC)), kind


class TestStudy:
    def test_deterministic_report(self):
        sc = scenario(estimators=(EstimatorKind.IEE, EstimatorKind.FEW),
                      jackknife=True, reps=3)
        a = run_study(sc).to_json_dict()
        b = run_study(sc).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_noiseless_homogeneous_is_exact(self):
        mix = PopulationMixture.two_point(0.5, 20, 100, 0.35, 0.35)
        sc = scenario(mixture=mix, vc=VarianceComponents(1e-10),
                      fixed_sizes=True, reps=3,
                      estimators=(EstimatorKind.IEE, EstimatorKind.IEEW,
                                  EstimatorKind.FE, EstimatorKind.FEW))
        rep = run_study(sc)
        for s in rep.summaries:
            assert s.mean_estimate == pytest.approx(0.35, abs=1e-5)
            assert s.rmse_cate < 1e-5
            assert s.coverage_model_cate == 1.0
            assert s.power_model == 1.0

    def test_null_effect_study(self):
        # A type-I error study: both targets are 0, so relative bias is
        # undefined, while the estimates and RMSE are still reported.
        mix = PopulationMixture.two_point(0.5, 20, 100, 0.0, 0.0)
        rep = run_study(scenario(mixture=mix, n_clusters=4, reps=2))
        assert rep.pate == rep.cate == 0.0
        assert len(rep.summaries) == len(EstimatorKind)
        for s in rep.summaries:
            assert np.isnan(s.rel_bias_pate_pct)
            assert np.isnan(s.rel_bias_cate_pct)
            d = np.asarray(rep.estimates[s.estimator.value])
            assert s.n_ok == 2
            assert s.mean_estimate == pytest.approx(d.mean())
            assert s.rmse_pate == pytest.approx(np.sqrt(np.mean(d**2)))
            assert s.rmse_cate == s.rmse_pate

    def test_jackknife_summaries_present(self):
        sc = scenario(reps=2, jackknife=True,
                      estimators=(EstimatorKind.EMEW,))
        s = run_study(sc).summary(EstimatorKind.EMEW)
        assert s.mean_jackknife_variance is not None
        assert 0.0 <= s.coverage_jackknife_cate <= 1.0

    def test_matches_independent_fits(self):
        # REML shared between estimators and refits must not change any
        # estimate, model variance or jackknife variance.
        sc = scenario(n_clusters=6, reps=2, jackknife=True)
        rep = run_study(sc)
        for s in rep.summaries:
            fits = [fit_with_inference(generate_trial(sc, r), s.estimator)
                    for r in range(sc.reps)]
            assert rep.estimates[s.estimator.value] == [
                f.delta_hat for f in fits]
            assert s.mean_model_variance == float(np.mean(
                [f.model_based_var for f in fits]))
            assert s.mean_jackknife_variance == float(np.mean(
                [f.jackknife_var for f in fits]))

    def test_builds_no_records(self, monkeypatch):
        # Replicates are drawn straight into their cell tables.
        import pbcrt.trial

        def refuse(self, *args):
            raise AssertionError("run_study built individual records")

        monkeypatch.setattr(pbcrt.trial.ObservedTrial, "__init__", refuse)
        rep = run_study(scenario(n_clusters=6, reps=2, jackknife=True))
        assert all(s.n_ok == 2 for s in rep.summaries)

    def test_one_reml_search_per_table_and_structure(self, monkeypatch):
        # eme/emew and neme/nemew share one REML search on each trial and
        # on each of its I delete-one tables: one row of a Newton search
        # or of a Nelder-Mead search.
        import pbcrt.reml as reml

        rows = {s: 0 for s in (CorrelationStructure.EXCHANGEABLE,
                               CorrelationStructure.NESTED_EXCHANGEABLE)}
        searches = [0]
        reml_stack, nelder_mead = reml._reml, reml._nelder_mead

        def counted_stack(cells, structure, todo):
            rows[structure] += len(todo)
            return reml_stack(cells, structure, todo)

        def counted_search(x0):
            searches[0] += 1
            return nelder_mead(x0)

        monkeypatch.setattr(reml, "_reml", counted_stack)
        monkeypatch.setattr(reml, "_nelder_mead", counted_search)
        sc = scenario(n_clusters=6, reps=2, jackknife=True,
                      estimators=(EstimatorKind.EME, EstimatorKind.EMEW,
                                  EstimatorKind.NEME, EstimatorKind.NEMEW))
        run_study(sc)
        assert rows == {s: sc.reps * (1 + 6) for s in rows}
        assert searches == [sc.reps * (1 + 6)]

    def test_rates_equal_per_replicate_helpers(self):
        # The vectorised coverage and power of a jackknife study equal the
        # shares computed replicate by replicate with confidence_interval
        # and wald_test.
        vc = VarianceComponents(1.0, 0.053, 0.013)
        options = FitOptions(vc=vc)
        sc = scenario(n_clusters=6, reps=40, jackknife=True, vc=vc)
        rep = run_study(sc, options)
        for s in rep.summaries:
            sources = {"model": [], "jackknife": []}
            for r in range(sc.reps):
                t = generate_trial(sc, r)
                res = fit(t, s.estimator, options)
                assert res.delta_hat == rep.estimates[s.estimator.value][r]
                sources["model"].append((res.delta_hat, res.model_based_var))
                sources["jackknife"].append(
                    (res.delta_hat,
                     jackknife_variance(t, s.estimator, options)[0]))
            for source, pairs in sources.items():
                got = [getattr(s, f"coverage_{source}_pate"),
                       getattr(s, f"coverage_{source}_cate"),
                       getattr(s, f"power_{source}")]
                cis = [confidence_interval(d, v, sc.n_clusters, sc.ci_level)
                       for d, v in pairs]
                want = [np.mean([ci.lower <= target <= ci.upper for ci in cis])
                        for target in (rep.pate, rep.cate)]
                want.append(np.mean([wald_test(d, v, sc.n_clusters)
                                     < 1.0 - sc.ci_level for d, v in pairs]))
                assert got == want, (s.estimator, source)

    def test_reml_nonconvergence_counted(self, monkeypatch):
        # The count is of replicates, like n_ok and n_failures: a replicate
        # counts once however many of its fits and refits used a
        # non-converged REML.
        import pbcrt.estimators as est

        def study(fails):
            def reml(trial, structure, rows):
                nested = structure is CorrelationStructure.NESTED_EXCHANGEABLE
                return [(VC, not (nested and fails(trial.cells, row)))
                        for row in rows]

            monkeypatch.setattr(est, "estimate_variance_components", reml)
            doc = run_study(sc).to_json_dict()
            return {s["estimator"]: s["n_reml_nonconverged"]
                    for s in doc["summaries"]}

        sc = scenario(n_clusters=6, reps=3, jackknife=True)
        first = generate_trial(sc, 0).cells
        # Every nested fit and refit of every replicate fails to converge.
        assert study(lambda t, row: True) == {
            "iee": 0, "ieew": 0, "fe": 0, "few": 0, "eme": 0, "emew": 0,
            "neme": sc.reps, "nemew": sc.reps}
        # Only one jackknife refit of replicate 0 fails to converge.
        def first_refit(t, row):
            return t == first and row == 1
        assert study(first_refit) == {
            "iee": 0, "ieew": 0, "fe": 0, "few": 0, "eme": 0, "emew": 0,
            "neme": 1, "nemew": 1}

    def test_failure_policy(self, monkeypatch):
        # `fit_kinds` returns each kind's error in place of its result: a
        # kind may fail on up to 5 percent of the replicates, one more
        # stops the study, and the other kinds keep all of theirs.
        import pbcrt.simulate as sim
        from pbcrt.estimators import EstimationError

        fit_kinds = sim.fit_kinds
        iee, fe = EstimatorKind.IEE, EstimatorKind.FE

        def failing_first(n):
            calls = []

            def failing(cells, kinds, options, jackknife):
                found = fit_kinds(cells, kinds, options, jackknife)
                calls.append(len(calls))
                if calls[-1] < n:
                    found[iee] = EstimationError("boom")
                return found
            return failing

        for reps, n, message in ((4, 4, "4 of 4"), (4, 1, "1 of 4"),
                                 (20, 2, "2 of 20")):
            monkeypatch.setattr(sim, "fit_kinds", failing_first(n))
            with pytest.raises(StudyError,
                               match=f"{message} replicates failed for iee"):
                run_study(scenario(reps=reps, estimators=(iee, fe)))
        monkeypatch.setattr(sim, "fit_kinds", failing_first(1))
        rep = run_study(scenario(reps=20, estimators=(iee, fe)))
        assert (rep.summary(iee).n_ok, rep.summary(iee).n_failures) == (19, 1)
        assert (rep.summary(fe).n_ok, rep.summary(fe).n_failures) == (20, 0)
        assert len(rep.estimates["iee"]) == 19

    @pytest.mark.parametrize("sc, options", [
        (scenario(reps=4, jackknife=True), FitOptions()),
        (scenario(reps=30, n_clusters=4), FitOptions()),
        (scenario(reps=3, n_clusters=400), FitOptions(vc=VC)),
    ], ids=["i10-jackknife-reml", "i4-reml", "i400-plug-in"])
    def test_report_equals_per_kind_study(self, sc, options):
        # Fitting and summarising every kind in one pass reports what the
        # per-kind loop reports, to the last bit (NaN relative biases of a
        # null target compare equal through JSON).
        got, want = run_study(sc, options), run_study_per_kind(sc, options)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    def test_failed_replicates_summarised_as_per_kind(self, monkeypatch):
        # The same replicates fail for each kind on both paths: the counts
        # are equal and the summaries agree to 1e-14, as a failed replicate
        # is a zero in sums that the per-kind loop takes over fewer terms.
        import pbcrt.simulate as sim
        from pbcrt.estimators import EstimationError

        kinds = list(EstimatorKind)

        def doomed(cells, kind):
            return (int(abs(cells.origin) * 1e6) + kinds.index(kind)) % 25 == 0

        fit_kinds, per_kind = sim.fit_kinds, oracles.fit_with_inference_per_kind

        def failing_kinds(cells, kinds, options, jackknife):
            found = fit_kinds(cells, kinds, options, jackknife)
            return {k: EstimationError("boom") if doomed(cells, k) else f
                    for k, f in found.items()}

        def failing_per_kind(cells, kind, options, jackknife):
            if doomed(cells, kind):
                raise EstimationError("boom")
            return per_kind(cells, kind, options, jackknife)

        monkeypatch.setattr(sim, "fit_kinds", failing_kinds)
        monkeypatch.setattr(oracles, "fit_with_inference_per_kind", failing_per_kind)
        sc = scenario(reps=100, master_seed=3)
        got, want = run_study(sc, FitOptions(vc=VC)), run_study_per_kind(sc, FitOptions(vc=VC))
        assert 0 < sum(s.n_failures for s in got.summaries)
        assert got.estimates == want.estimates
        for a, b in zip(got.summaries, want.summaries):
            assert ((a.n_ok, a.n_failures, a.n_reml_nonconverged)
                    == (b.n_ok, b.n_failures, b.n_reml_nonconverged))
            for name, x in vars(a).items():
                if not isinstance(x, float):
                    continue
                # A relative bias carries the mean's 1e-14 in units of its target.
                tol = (1e-12 * abs(a.mean_estimate / (got.pate if "pate" in name
                                                      else got.cate))
                       if name.startswith("rel_bias") else 1e-14 * abs(x))
                assert x == pytest.approx(getattr(b, name), rel=0.0, abs=tol), name

    def test_report_serialization(self, tmp_path):
        sc = scenario(reps=2, jackknife=True,
                      estimators=(EstimatorKind.IEE, EstimatorKind.EMEW))
        rep = run_study(sc)
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        rep.write_csv(csv_path)
        rep.write_json(json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + 2 estimators x 2 sources
        doc = json.loads(json_path.read_text())
        assert doc["pate"] == pytest.approx(0.45)
        assert len(doc["estimates"]["iee"]) == 2
