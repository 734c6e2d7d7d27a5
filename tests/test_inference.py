import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from pbcrt import (
    CellStats,
    CorrelationStructure,
    EstimationError,
    EstimatorKind,
    FitOptions,
    ObservedTrial,
    VarianceComponents,
    confidence_interval,
    estimate_variance_components,
    fit,
    fit_with_inference,
    jackknife_variance,
    wald_test,
)
from pbcrt.estimators import fit_rows
from pbcrt.inference import _t_quantile
from pbcrt.io import load_size_table
from pbcrt.simulate import SimScenario, generate_trial
from pbcrt.estimands import PopulationMixture

from oracles import deletion_tables, from_cell_means, from_records, refit_replicates


def four_cluster_trial():
    cells = [
        ("t1", 1, 2, 2, 1.0, 3.0),
        ("t2", 1, 2, 2, 0.5, 2.0),
        ("c1", 0, 2, 2, 1.2, 1.6),
        ("c2", 0, 2, 2, 0.8, 1.1),
    ]
    return from_cell_means(cells)


class TestJackknife:
    def test_hand_computed_loo_variance(self):
        t = four_cluster_trial()
        # IEEW delta is mean(post means treated) - mean(post means control);
        # each leave-one-out value is computable by hand.
        var, reps = jackknife_variance(t, EstimatorKind.IEEW)
        loo = {
            "t1": 2.0 - 1.35,        # drop t1
            "t2": 3.0 - 1.35,        # drop t2
            "c1": 2.5 - 1.1,         # drop c1
            "c2": 2.5 - 1.6,         # drop c2
        }
        expect = np.array([loo["t1"], loo["t2"], loo["c1"], loo["c2"]])
        assert reps == pytest.approx(expect, abs=1e-12)
        center = expect.mean()
        assert var == pytest.approx(
            (3 / 4) * np.sum((expect - center) ** 2), abs=1e-12)

    def test_needs_three_clusters(self):
        t = from_cell_means([
            ("a", 1, 2, 2, 1.0, 2.0), ("b", 0, 2, 2, 1.0, 1.5)])
        with pytest.raises(EstimationError, match="3 clusters"):
            jackknife_variance(t, EstimatorKind.IEEW)

    def test_single_arm_after_drop_names_cluster(self):
        t = from_cell_means([
            ("only_treated", 1, 2, 2, 1.0, 2.0),
            ("c1", 0, 2, 2, 1.0, 1.5),
            ("c2", 0, 2, 2, 0.9, 1.4)])
        with pytest.raises(EstimationError, match="only_treated"):
            jackknife_variance(t, EstimatorKind.IEEW)

    def test_fit_with_inference_attaches_jackknife(self):
        t = four_cluster_trial()
        r = fit_with_inference(t, EstimatorKind.FEW)
        assert r.jackknife_var is not None
        assert r.jackknife_replicates.shape == (4,)
        assert r.jackknife_var >= 0

    def test_converged_covers_refits(self, monkeypatch):
        # One jackknife refit whose REML did not converge makes the result
        # non-converged, though the full-data fit converged.
        import pbcrt.estimators as est

        t = four_cluster_trial()
        reml = est.estimate_variance_components

        def one_refit_fails(trial, structure, rows):
            # Row 3 of the table's stack is the table without cluster 2.
            found = reml(trial, structure, rows=rows)
            return [(vc, converged and row != 3)
                    for row, (vc, converged) in zip(rows, found)]

        monkeypatch.setattr(est, "estimate_variance_components",
                            one_refit_fails)
        assert fit(t, EstimatorKind.EME).converged
        assert fit_with_inference(t, EstimatorKind.EME, jackknife=False).converged
        assert not fit_with_inference(t, EstimatorKind.EME).converged
        assert fit_with_inference(t, EstimatorKind.FE).converged


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_clusters=st.integers(4, 7),
       equal_sizes=st.booleans())
def test_jackknife_equals_brute_force_refits(seed, n_clusters, equal_sizes):
    # Replicates from row deletion equal refits on re-indexed records.
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_clusters):
        k0 = int(rng.integers(1, 6))
        k1 = k0 if equal_sizes else int(rng.integers(1, 6))
        alpha = 0.5 * rng.standard_normal()
        records += [(f"c{i}", 0, i % 2, alpha + y) for y in rng.standard_normal(k0)]
        records += [(f"c{i}", 1, i % 2, alpha + 0.3 * (i % 2) + y)
                    for y in rng.standard_normal(k1)]
    records = [records[j] for j in rng.permutation(len(records))]
    t = from_records(records)
    opts = FitOptions(vc=VarianceComponents(1.0, 0.1, 0.05))
    for kind in EstimatorKind:
        if kind.weighted and kind.mixed and not t.cells.equal_period_sizes:
            continue
        _, reps = jackknife_variance(t, kind, opts)
        brute = [fit(from_records(
                     [r for r in records if r[0] != cid]), kind, opts).delta_hat
                 for cid in t.cells.ids]
        assert reps == pytest.approx(brute, abs=1e-10), kind


def equal_size_trial():
    """The trial of operation 25 of the I=10 jackknife study benchmark,
    whose full-table nested search stops at the iteration cap."""
    sc = SimScenario(n_clusters=10,
                     mixture=PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5),
                     vc=VarianceComponents(1.0, 0.053, 0.013), reps=1,
                     master_seed=20260823 * 100_000 + 25, fixed_split=True)
    return generate_trial(sc, 0)


def jiah_trial(seed=36):
    """Random outcomes on the bundled unequal cluster-period sizes (I=28)."""
    rng = np.random.default_rng(seed)
    cids, pers, seqs, ys = [], [], [], []
    for cid, seq, k0, k1 in load_size_table():
        alpha = 0.2 * rng.standard_normal()
        g0, g1 = 0.1 * rng.standard_normal(2)
        cids += [cid] * (k0 + k1)
        pers += [0] * k0 + [1] * k1
        seqs += [seq] * (k0 + k1)
        ys += list(1.0 + alpha + g0 + rng.standard_normal(k0))
        ys += list(1.2 + 0.35 * seq + alpha + g1 + rng.standard_normal(k1))
    return ObservedTrial(cids, pers, seqs, ys)


TRIALS = {"equal": equal_size_trial, "jiah": jiah_trial}


def fresh(cells):
    """A copy of a cell table with nothing memoised on it."""
    return CellStats(*cells._arrays(), cells.origin)


def kinds_for(trial):
    return [k for k in EstimatorKind
            if trial.cells.equal_period_sizes or not (k.weighted and k.mixed)]


class TestBatchedRows:
    """Every row of the keep-masked stack is fitted as if on its own."""

    @pytest.mark.parametrize("name", TRIALS)
    def test_rows_do_not_depend_on_the_drive(self, name):
        # Searches, components and fits of each row are equal (==) driven
        # with all I + 1 rows or alone, so `fit` is row 0 of
        # `fit_with_inference` and `jackknife_variance` its jackknife.
        trial = TRIALS[name]()
        cells, rows = trial.cells, range(trial.cells.n_clusters + 1)
        alone = fresh(cells)
        for structure in (CorrelationStructure.EXCHANGEABLE,
                          CorrelationStructure.NESTED_EXCHANGEABLE):
            each = [estimate_variance_components(alone, structure, rows=[r])[0]
                    for r in rows]
            assert estimate_variance_components(
                fresh(cells), structure, rows=rows) == each
        for kind in kinds_for(trial):
            full = fit_with_inference(fresh(cells), kind)
            one = fit(fresh(cells), kind)
            assert ((one.delta_hat, one.model_based_var, one.vc_hat)
                    == (full.delta_hat, full.model_based_var, full.vc_hat)), kind
            var, reps = jackknife_variance(fresh(cells), kind)
            assert var == full.jackknife_var and np.array_equal(
                reps, full.jackknife_replicates), kind
            refits = [fit_rows(alone, (kind,), FitOptions(), [r])[kind][0]
                      for r in rows]
            assert [r.delta_hat for r in refits[1:]] == reps.tolist(), kind
            assert refits[0].delta_hat == full.delta_hat, kind

    @pytest.mark.parametrize("name", TRIALS)
    def test_replicates_equal_per_table_refits(self, name):
        # To 1e-10 for fits without REML or with plug-in components, and
        # to 1e-6 for REML fits, relative to the larger of 1 and the value.
        trial = TRIALS[name]()
        tables = deletion_tables(trial)
        plug_in = FitOptions(vc=VarianceComponents(1.0, 0.05, 0.02))
        for kind in kinds_for(trial):
            for options in (FitOptions(), plug_in):
                reps = fit_with_inference(fresh(trial.cells), kind,
                                          options).jackknife_replicates
                want = refit_replicates(tables, kind, options)
                tol = 1e-6 if kind.mixed and options.vc is None else 1e-10
                assert (np.abs(reps - want)
                        <= tol * np.maximum(1.0, np.abs(want))).all(), kind

    def test_refused_deletions_keep_their_messages(self):
        # A deletion that leaves one arm, a nested REML deletion with one
        # record per cell, and a saturated fixed-effects table.
        t = from_cell_means([
            ("only_treated", 1, 2, 2, 1.0, 2.0), ("c1", 0, 2, 2, 1.0, 1.5),
            ("c2", 0, 2, 2, 0.9, 1.4)])
        with pytest.raises(EstimationError,
                           match="dropping cluster 'only_treated' leaves a single-arm"):
            fit_with_inference(t, EstimatorKind.FE)
        rng = np.random.default_rng(5)
        rows = [(f"c{i}", i % 2, 1, 1, *rng.standard_normal(2)) for i in range(8)]
        records = [(c, p, s, y) for c, s, _, _, m0, m1 in rows
                   for p, y in ((0, m0), (1, m1))]
        records += [("c0", 0, 0, 0.3), ("c0", 1, 0, -0.4)]
        t = from_records(records)
        assert fit(t, EstimatorKind.NEME).vc_hat is not None
        with pytest.raises(EstimationError, match="nested REML needs a cell"):
            fit_with_inference(t, EstimatorKind.NEME)
        t = from_cell_means([("a", 0, 1, 1, 1.0, 2.0),
                                           ("b", 1, 1, 1, 0.5, 3.0)])
        for kind in (EstimatorKind.FE, EstimatorKind.FEW):
            with pytest.raises(EstimationError, match="saturated design"):
                fit_with_inference(t, kind)


class TestConfidenceInterval:
    def test_half_width_uses_t_with_clusters_minus_two(self):
        # I = 10 -> df = 8 -> t multiplier 2.306 at 95%
        ci = confidence_interval(0.0, 1.0, n_clusters=10, level=0.95)
        half = (ci.upper - ci.lower) / 2
        assert half == pytest.approx(2.306, abs=5e-4)
        assert ci.df == 8

    def test_centered_and_monotone_in_level(self):
        lo = confidence_interval(1.5, 0.04, 12, 0.90)
        hi = confidence_interval(1.5, 0.04, 12, 0.99)
        assert lo.lower + lo.upper == pytest.approx(3.0)
        assert hi.upper - hi.lower > lo.upper - lo.lower

    def test_zero_variance_degenerate(self):
        ci = confidence_interval(0.7, 0.0, 10)
        assert ci.lower == ci.upper == 0.7

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, -1.0, 10)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, 10, level=1.0)
        with pytest.raises(ValueError):
            confidence_interval(np.zeros(3), np.array([1.0, -1.0, 0.0]), 10)

    def test_arrays_match_scalars(self):
        d = np.array([0.0, 0.3, -0.2, 0.0, 1.5, -2.0])
        v = np.array([0.0, 0.0, 0.04, 0.5, 0.01, 3.0])
        ci = confidence_interval(d, v, 10, 0.9)
        scalar = [confidence_interval(x, y, 10, 0.9) for x, y in zip(d, v)]
        assert ci.lower.tolist() == [c.lower for c in scalar]
        assert ci.upper.tolist() == [c.upper for c in scalar]

    def test_t_quantile_is_scipy_stats_t_ppf(self):
        # The quantile is pbcrt's own: within 1e-14 of SciPy's `stdtrit`
        # (what `stats.t.ppf` evaluates) at every df a trial of up to 802
        # clusters has, at the quantiles the usual levels ask for.
        for q in (0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995):
            for df in range(1, 801):
                assert _t_quantile(q, df) == pytest.approx(
                    special.stdtrit(df, q), rel=1e-14, abs=0), (q, df)

    def test_t_quantile_edges(self):
        assert _t_quantile(0.5, 8) == 0.0
        assert _t_quantile(1.0, 8) == math.inf
        assert _t_quantile(0.75, 1) == pytest.approx(1.0, rel=1e-15)

    def test_needs_three_clusters(self):
        # df = I - 2 = 0 has no t reference: refused, not nan.
        for n in (2, 1, 0):
            with pytest.raises(ValueError, match=f"at least 3 clusters, got {n}"):
                confidence_interval(0.3, 0.02, n)
            with pytest.raises(ValueError, match=f"at least 3 clusters, got {n}"):
                wald_test(0.3, 0.02, n)


class TestWaldTest:
    def test_matches_incomplete_beta(self):
        # Two-sided t-test p-value via the regularized incomplete beta.
        for delta, var, n in [(0.3, 0.02, 10), (-1.2, 0.5, 6), (0.05, 0.01, 30)]:
            df = n - 2
            tstat = abs(delta) / math.sqrt(var)
            expect = special.betainc(df / 2.0, 0.5, df / (df + tstat**2))
            assert wald_test(delta, var, n) == pytest.approx(expect, abs=1e-12)

    def test_zero_variance(self):
        assert wald_test(0.5, 0.0, 10) == 0.0
        assert wald_test(0.0, 0.0, 10) == 1.0

    def test_arrays_match_scalars(self):
        d = np.array([0.0, 0.3, -0.2, 0.0, 1.5, -2.0])
        v = np.array([0.0, 0.0, 0.04, 0.5, 0.01, 3.0])
        p = wald_test(d, v, 10)
        assert p.tolist() == [wald_test(x, y, 10) for x, y in zip(d, v)]
        assert p[:2].tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):
            wald_test(d, -v, 10)

    def test_equals_t_distribution_sf(self):
        # The two-sided tail is pbcrt's own, checked against SciPy's
        # `stdtr` at every df a trial of up to 802 clusters has, for t from
        # 1e-300 to 1e6: within 1e-14 relative where p >= 1e-4 and within
        # 1e-12 down to 1e-300.  At df = 1 the oracle is the Cauchy tail,
        # 2 atan2(1, t) / pi, as `stdtr(1, t)` is off by up to 4e-9 near 0.
        t = np.concatenate([10.0 ** np.linspace(-300, 6, 307),
                            np.linspace(0.0, 8.0, 201)[1:]])
        for df in range(1, 801):
            want = (np.arctan2(1.0, t) * 2.0 / np.pi if df == 1
                    else 2.0 * special.stdtr(df, -t))
            got = wald_test(t, 1.0, df + 2)
            for floor, rel in ((1e-4, 1e-14), (1e-300, 1e-12)):
                big = want >= floor
                assert got[big] == pytest.approx(want[big], rel=rel, abs=0), df
            assert np.all(got[want < 1e-300] < 1e-299)
        d = np.array([0.0, 0.3, -0.2, 0.0, 1.5, -2.0, 1e-300, 40.0])
        v = np.array([0.0, 0.0, 0.04, 0.5, 0.01, 3.0, 1.0, 1e-6])
        for n in (3, 4, 10, 30, 400):
            p = wald_test(d, v, n)
            assert p.tolist() == [wald_test(x, y, n) for x, y in zip(d, v)]
            assert p[[0, 1, 3]].tolist() == [1.0, 0.0, 1.0]

    def test_symmetry(self):
        assert wald_test(0.4, 0.01, 8) == pytest.approx(
            wald_test(-0.4, 0.01, 8), abs=1e-15)

    def test_larger_effect_smaller_p(self):
        assert wald_test(1.0, 0.04, 10) < wald_test(0.2, 0.04, 10)


def test_import_path_loads_no_scipy_stats():
    # pbcrt needs no SciPy at all: not on import, and not lazily on the run
    # path of a study, an interval or a test (SciPy is a test oracle only).
    code = """import sys, pbcrt, pbcrt.cli, pbcrt.io
from pbcrt import *
loaded = lambda: [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(*loaded())
sc = SimScenario(n_clusters=6, mixture=PopulationMixture([(1.0, 10, 0.3)]),
                 vc=VarianceComponents.from_iccs(1.0, 0.05), reps=2)
run_study(sc)
print(*loaded())
confidence_interval(0.3, 0.02, 10), wald_test(0.3, 0.02, 10)
print(*loaded())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["", "", ""]
