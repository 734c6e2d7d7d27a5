import math

import numpy as np
import pytest
from scipy import optimize

import pbcrt.estimators
import pbcrt.reml as reml
from pbcrt import (
    CorrelationStructure,
    EstimationError,
    EstimatorKind,
    ObservedTrial,
    PopulationMixture,
    SimScenario,
    VarianceComponents,
    estimate_variance_components,
    fit,
    generate_trial,
)


def simulate(vc, seed, n_clusters=30, k=20):
    mix = PopulationMixture([(1.0, k, 0.5)])
    sc = SimScenario(n_clusters=n_clusters, mixture=mix, vc=vc,
                     reps=1, master_seed=seed, fixed_sizes=True)
    return generate_trial(sc, 0)


class TestIndependence:
    def test_sigma2_is_residual_variance(self):
        vc = VarianceComponents(2.0)
        ests = []
        for seed in range(20):
            t = simulate(vc, seed, n_clusters=20, k=10)
            est = estimate_variance_components(
                t, CorrelationStructure.INDEPENDENCE)
            assert est.tau_alpha2 == 0.0 and est.tau_gamma2 == 0.0
            ests.append(est.sigma_w2)
        assert np.median(ests) == pytest.approx(2.0, abs=0.25)


class TestExchangeable:
    def test_recovers_icc(self):
        vc = VarianceComponents.from_iccs(1.0, 0.1, 1.0)
        rhos = []
        for seed in range(25):
            t = simulate(vc, seed, n_clusters=100, k=20)
            est = estimate_variance_components(
                t, CorrelationStructure.EXCHANGEABLE)
            rhos.append(est.rho)
        assert np.median(rhos) == pytest.approx(0.1, abs=0.02)

    def test_zero_icc_snaps_to_zero(self):
        # Data with no cluster effect: the boundary estimate must be an
        # exact zero often enough for a median check.
        vc = VarianceComponents(1.0)
        taus = []
        for seed in range(25):
            t = simulate(vc, seed, n_clusters=20, k=8)
            est = estimate_variance_components(
                t, CorrelationStructure.EXCHANGEABLE)
            taus.append(est.tau_alpha2)
        assert np.median(taus) <= 0.02
        assert min(taus) == 0.0

    def test_interior_away_from_one(self):
        vc = VarianceComponents.from_iccs(1.0, 0.5, 1.0)
        t = simulate(vc, 7, n_clusters=40, k=10)
        est = estimate_variance_components(t, CorrelationStructure.EXCHANGEABLE)
        assert est.rho < 1.0 - 1e-6
        assert 0.2 < est.rho < 0.8


class TestNestedExchangeable:
    def test_recovers_both_iccs(self):
        vc = VarianceComponents.from_iccs(1.0, 0.06, 0.8)
        rho_wps, cacs = [], []
        for seed in range(25):
            t = simulate(vc, seed, n_clusters=200, k=50)
            est = estimate_variance_components(
                t, CorrelationStructure.NESTED_EXCHANGEABLE)
            rho_wps.append(est.rho_wp)
            if est.tau_alpha2 + est.tau_gamma2 > 0:
                cacs.append(est.cac)
        assert np.median(rho_wps) == pytest.approx(0.06, abs=0.015)
        assert np.median(cacs) == pytest.approx(0.8, abs=0.15)

    def test_zero_gamma_reduces_to_exchangeable_fit(self):
        vc = VarianceComponents.from_iccs(1.0, 0.1, 1.0)  # pure cluster effect
        t = simulate(vc, 3, n_clusters=120, k=20)
        nested = estimate_variance_components(
            t, CorrelationStructure.NESTED_EXCHANGEABLE)
        exch = estimate_variance_components(
            t, CorrelationStructure.EXCHANGEABLE)
        # CAC should be pushed near 1, making the fits nearly identical.
        assert nested.cac > 0.8
        assert nested.rho_wp == pytest.approx(exch.rho, abs=0.01)

    def test_convergence_flag(self):
        vc = VarianceComponents(1.0, 0.05, 0.02)
        t = simulate(vc, 5, n_clusters=30, k=10)
        est, converged = estimate_variance_components(
            t, CorrelationStructure.NESTED_EXCHANGEABLE, return_converged=True)
        assert converged
        assert est.sigma_w2 > 0

    def test_one_record_per_cell_not_identified(self):
        # Only sigma_w2 + tau_gamma2 is identified when no cell holds two
        # records, so the nested fit refuses instead of splitting it.
        rng = np.random.default_rng(12)
        t = ObservedTrial.from_cell_means(
            (f"c{i}", i % 2, 1, 1, *rng.standard_normal(2)) for i in range(12))
        with pytest.raises(EstimationError, match="two records"):
            estimate_variance_components(
                t, CorrelationStructure.NESTED_EXCHANGEABLE)
        with pytest.raises(EstimationError, match="two records"):
            fit(t, EstimatorKind.NEME)
        assert fit(t, EstimatorKind.EME).vc_hat.sigma_w2 > 0
        assert pbcrt.estimators.EstimationError is EstimationError

    @pytest.mark.xfail(strict=True, reason=(
        "Nelder-Mead from x0 = (logit 0.05, 0) crawls along cac: SciPy's "
        "initial simplex moves a zero coordinate by only 0.00025, and this "
        "search stops at the iteration cap at cac 0.5155 (ROADMAP item 2)"))
    def test_nested_search_reaches_optimum(self):
        # The full table of operation 25 of the I=10 jackknife study
        # benchmark (master seed 20260823 * 100000 + 25): cac -> 1 gives
        # deviance 8629.41, 3.0 below where the search stops.
        cells = benchmark_cells(25)
        vc = estimate_variance_components(
            cells, CorrelationStructure.NESTED_EXCHANGEABLE)
        found = reml._deviance(cells, (vc.tau_alpha2 + vc.tau_gamma2) / vc.sigma_w2,
                               vc.tau_alpha2 / vc.sigma_w2)
        at_cac_1 = optimize.minimize_scalar(
            lambda x: reml._deviance(cells, math.exp(x), math.exp(x)),
            bounds=(-10.0, 5.0), method="bounded", options={"xatol": 1e-10})
        assert found <= at_cac_1.fun + 1e-6

    def test_too_few_clusters(self):
        cells = [("a", 0, 2, 2, 1.0, 2.0)]
        from pbcrt import ObservedTrial, TrialValidationError
        with pytest.raises(TrialValidationError):
            ObservedTrial.from_cell_means(cells)


def scipy_nelder_mead(func, x0):
    """The nested search as SciPy runs it, in the port's return form."""
    res = optimize.minimize(func, np.array(x0), method="Nelder-Mead",
                            options={"xatol": 1e-8, "fatol": 1e-10,
                                     "maxiter": reml._MAX_ITER,
                                     "maxfev": 4 * reml._MAX_ITER})
    return tuple(res.x), res.fun, res.nit, res.nfev, res.success


class TestNelderMead:
    """`reml._nelder_mead` returns exactly what SciPy's Nelder-Mead does."""

    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.0, 0.0), (2.0, -1.5),
                                    (0.0, 3.0), (-2.944, 0.0)])
    def test_rosenbrock(self, x0):
        def f(x):
            return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        assert reml._nelder_mead(f, x0) == scipy_nelder_mead(f, x0)

    @pytest.mark.parametrize("x0", [(0.0, 0.0), (-3.0, 2.0)])
    def test_infinite_half_plane(self, x0):
        def f(x):
            return (math.inf if x[0] > 0.5
                    else (x[0] - 1.0) ** 2 + (x[1] + 0.3) ** 2)
        assert reml._nelder_mead(f, x0) == scipy_nelder_mead(f, x0)

    @pytest.mark.parametrize("x0", [(0.1, 0.2), (1.5, -0.7)])
    def test_plateau_with_ties(self, x0):
        # Steps of height 1: vertices tie, so their order decides each move.
        def f(x):
            return float(math.floor(4.0 * (x[0] ** 2 + abs(x[1]))))
        assert reml._nelder_mead(f, x0) == scipy_nelder_mead(f, x0)

    def test_nested_reml_searches(self, monkeypatch):
        # Every nested search, full and delete-one tables, of operations
        # 21-28 of the I=10 jackknife study benchmark, among them op 25's
        # full table, which stops at the iteration cap.
        port = reml._nelder_mead
        searches = []

        def recorded(func, x0):
            searches.append((func, x0))
            return port(func, x0)

        monkeypatch.setattr(reml, "_nelder_mead", recorded)
        for j in range(21, 29):
            cells = benchmark_cells(j)
            for c in [cells, *cells.deletions]:
                estimate_variance_components(
                    c, CorrelationStructure.NESTED_EXCHANGEABLE)
        assert len(searches) == 8 * 11
        results = [port(func, x0) for func, x0 in searches]
        assert results == [scipy_nelder_mead(func, x0) for func, x0 in searches]
        assert not results[4 * 11][4]
        assert sum(not r[4] for r in results) >= 2


def benchmark_cells(j):
    """The trial of operation j of the I=10 jackknife study benchmark."""
    sc = SimScenario(n_clusters=10,
                     mixture=PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5),
                     vc=VarianceComponents(1.0, 0.053, 0.013), reps=1,
                     master_seed=20260823 * 100_000 + j, fixed_split=True)
    return generate_trial(sc, 0).cells


class TestProfiledLikelihood:
    def test_matches_dense_reml_objective(self):
        # Profiled -2 restricted log-likelihood agrees (up to a constant in
        # the data) with the direct dense evaluation at the profiled sigma2.
        from pbcrt.reml import _deviance, _sigma2
        from oracles import dense_block
        from scipy.linalg import block_diag

        vc = VarianceComponents(1.0, 0.12, 0.04)
        t = simulate(vc, 9, n_clusters=6, k=4)
        tw0 = (vc.tau_alpha2 + vc.tau_gamma2) / vc.sigma_w2
        tb0 = vc.tau_alpha2 / vc.sigma_w2
        s2 = _sigma2(t.cells, tw0, tb0)

        # Dense restricted likelihood at (s2, s2*tw0, s2*tb0)
        vc_hat = VarianceComponents(s2, s2 * tb0, s2 * (tw0 - tb0))
        z_rows, blocks, y = [], [], []
        c = t.cells
        for cid, seq, k0, k1 in zip(c.ids, c.sequence, c.k0, c.k1):
            k0, k1 = int(k0), int(k1)
            z_rows.extend([[1.0, 0.0, 0.0]] * k0)
            z_rows.extend([[1.0, float(seq), 1.0]] * k1)
            blocks.append(dense_block(
                CorrelationStructure.NESTED_EXCHANGEABLE, k0, k1, vc_hat))
            mask = t.cluster_ids == cid
            y.extend(t.outcomes[mask & (t.periods == 0)])
            y.extend(t.outcomes[mask & (t.periods == 1)])
        z = np.asarray(z_rows)
        y = np.asarray(y)
        w = block_diag(*blocks)
        winv = np.linalg.inv(w)
        m = z.T @ winv @ z
        theta = np.linalg.solve(m, z.T @ winv @ y)
        resid = y - z @ theta
        _, ld_w = np.linalg.slogdet(w)
        _, ld_m = np.linalg.slogdet(m)
        dense_val = ld_w + ld_m + float(resid @ winv @ resid)

        n = t.n_obs
        prof_val = _deviance(t.cells, tw0, tb0)
        # value() is expressed in ratio units: translate to the dense scale.
        expect = prof_val + (n - 3) + (n - 3) * np.log(1.0 / (n - 3))
        assert dense_val == pytest.approx(expect, abs=1e-6)

    def test_zero_residual_raises(self):
        # Constant outcomes centre to exactly zero: the profiled quadratic
        # both the gradient and sigma2 divide by is 0.
        t = simulate(VarianceComponents(1.0), 9, n_clusters=6, k=4)
        cells = ObservedTrial(t.cluster_ids, t.periods, t.sequences,
                              0.0 * t.outcomes + 3.7).cells
        assert not cells.mean0.any() and not cells.within.any()
        for f in (reml._gradient, reml._sigma2):
            with pytest.raises(EstimationError, match="residual"):
                f(cells, 0.2, 0.1)

    def test_kernel_matches_normal_equations(self):
        # The Python-float kernel against the numpy evaluation on
        # `blocks.normal_equations`, on equal and unequal cell sizes.  At
        # tw0 = tb0 the gradient's terms cancel, and each evaluation is
        # within 1.5e-14 of the exact rational gradient there.
        from oracles import profiled_deviance
        from test_blocks import equal_size_cells, jiah_size_cells

        for c in (equal_size_cells(35, 1.0), jiah_size_cells(36, 1.0)):
            for tw0, tb0 in ((0.05, 0.0), (0.2, 0.1), (0.3, 0.3), (4.0, 2.0)):
                dev, grad = profiled_deviance(c, tw0, tb0)
                assert reml._deviance(c, tw0, tb0) == pytest.approx(dev, rel=1e-14)
                assert reml._gradient(c, tw0, tb0) == pytest.approx(grad, rel=3e-14)

    def test_gradient_matches_central_differences(self):
        # The analytic gradient of the profiled deviance in (tw0, tb0)
        # against central differences, on equal and unequal cell sizes.
        from test_blocks import jiah_size_cells

        cells = [simulate(VarianceComponents(1.0, 0.12, 0.04), 9).cells,
                 jiah_size_cells(34, 1.0)]
        for c in cells:
            for tw0, tb0 in ((0.05, 0.0), (0.2, 0.1), (0.3, 0.3), (4.0, 2.0)):
                got = reml._gradient(c, tw0, tb0)
                h = 1e-6 * tw0
                want = [(reml._deviance(c, tw0 + h, tb0)
                         - reml._deviance(c, tw0 - h, tb0)) / (2 * h),
                        (reml._deviance(c, tw0, tb0 + h)
                         - reml._deviance(c, tw0, tb0 - h)) / (2 * h)]
                assert got == pytest.approx(want, rel=1e-5, abs=1e-4)
