import numpy as np
import pytest

import pbcrt.estimators
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

    def test_too_few_clusters(self):
        cells = [("a", 0, 2, 2, 1.0, 2.0)]
        from pbcrt import ObservedTrial, TrialValidationError
        with pytest.raises(TrialValidationError):
            ObservedTrial.from_cell_means(cells)


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
