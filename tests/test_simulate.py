import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    generate_trial,
    plim,
    run_study,
    true_cate,
    true_pate,
)
from pbcrt.inference import confidence_interval, jackknife_variance, wald_test

from oracles import generate_trial_records

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
        assert not np.array_equal(a.outcomes[: min(a.n_obs, b.n_obs)],
                                  b.outcomes[: min(a.n_obs, b.n_obs)])

    def test_seed_changes_stream(self):
        a = generate_trial(scenario(master_seed=1), 0)
        b = generate_trial(scenario(master_seed=2), 0)
        assert not np.array_equal(a.outcomes[: min(a.n_obs, b.n_obs)],
                                  b.outcomes[: min(a.n_obs, b.n_obs)])

    def test_exact_half_treated(self):
        sc = scenario(n_clusters=16)
        for r in range(5):
            t = generate_trial(sc, r)
            assert t.cells.sequence.sum() == 8

    def test_equal_period_sizes_within_cluster(self):
        t = generate_trial(scenario(), 0)
        assert t.equal_period_sizes

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
        for col in ("cluster_ids", "periods", "sequences", "outcomes"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and np.array_equal(a, b), col


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

    def test_one_reml_search_per_table_and_structure(self, monkeypatch):
        # eme/emew and neme/nemew share one REML search on each trial and
        # on each of its I delete-one tables.
        import types

        import pbcrt.reml as reml
        from scipy import optimize

        calls = {"minimize_scalar": 0, "_nelder_mead": 0}

        def counted(name, search):
            def run(*args, **kwargs):
                calls[name] += 1
                return search(*args, **kwargs)
            return run

        monkeypatch.setattr(reml, "optimize", types.SimpleNamespace(
            minimize_scalar=counted("minimize_scalar", optimize.minimize_scalar)))
        monkeypatch.setattr(reml, "_nelder_mead",
                            counted("_nelder_mead", reml._nelder_mead))
        sc = scenario(n_clusters=6, reps=2, jackknife=True,
                      estimators=(EstimatorKind.EME, EstimatorKind.EMEW,
                                  EstimatorKind.NEME, EstimatorKind.NEMEW))
        run_study(sc)
        assert calls == {"minimize_scalar": sc.reps * (1 + 6),
                         "_nelder_mead": sc.reps * (1 + 6)}

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
            def reml(trial, structure, return_converged=False):
                assert return_converged
                nested = structure is CorrelationStructure.NESTED_EXCHANGEABLE
                return VC, not (nested and fails(trial))

            monkeypatch.setattr(est, "estimate_variance_components", reml)
            doc = run_study(sc).to_json_dict()
            return {s["estimator"]: s["n_reml_nonconverged"]
                    for s in doc["summaries"]}

        sc = scenario(n_clusters=6, reps=3, jackknife=True)
        first = generate_trial(sc, 0).cells
        # Every nested fit and refit of every replicate fails to converge.
        assert study(lambda t: True) == {
            "iee": 0, "ieew": 0, "fe": 0, "few": 0, "eme": 0, "emew": 0,
            "neme": sc.reps, "nemew": sc.reps}
        # Only one jackknife refit of replicate 0 fails to converge.
        def first_refit(t):
            return (t.n_clusters == 5
                    and np.array_equal(t.cells.ids, first.ids[1:])
                    and np.array_equal(t.cells.mean0, first.mean0[1:]))
        assert study(first_refit) == {
            "iee": 0, "ieew": 0, "fe": 0, "few": 0, "eme": 0, "emew": 0,
            "neme": 1, "nemew": 1}

    def test_failure_policy(self, monkeypatch):
        import pbcrt.inference as inf

        def failing_fit(trial, kind, options=None):
            from pbcrt.estimators import EstimationError
            raise EstimationError("boom")

        monkeypatch.setattr(inf, "fit", failing_fit)
        with pytest.raises(StudyError, match="failed"):
            run_study(scenario(reps=4, estimators=(EstimatorKind.IEE,)))

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
