import numpy as np
import pytest

import pbcrt.reml as reml

from pbcrt import (
    CorrelationStructure,
    EstimatorKind,
    FitOptions,
    ObservedTrial,
    PopulationMixture,
    SimScenario,
    UnsupportedWeightingError,
    VarianceComponents,
    WeightingScheme,
    fit,
    generate_trial,
    gls_point_estimate,
)
from pbcrt.io import load_size_table

from oracles import dense_block

MU, PHI = 1.0, 0.2


def noiseless_informative_trial():
    """Two sizes (20, 100) per arm, effects 0.2 / 0.5, no noise."""
    cells = [
        ("t20", 1, 20, 20, MU, MU + PHI + 0.2),
        ("t100", 1, 100, 100, MU, MU + PHI + 0.5),
        ("c20", 0, 20, 20, MU, MU + PHI),
        ("c100", 0, 100, 100, MU, MU + PHI),
    ]
    return ObservedTrial.from_cell_means(cells)


def random_trial(seed, n_clusters=8, sizes=(3, 9), deltas=(0.4, 1.0),
                 unequal_periods=False):
    mix = PopulationMixture.two_point(0.5, sizes[0], sizes[1],
                                      deltas[0], deltas[1])
    sc = SimScenario(n_clusters=n_clusters, mixture=mix,
                     vc=VarianceComponents(1.0, 0.08, 0.02),
                     reps=1, master_seed=seed)
    t = generate_trial(sc, 0)
    if not unequal_periods:
        return t
    # Drop the first post-period record of the first cluster to force
    # within-cluster size imbalance.
    first = t.cells.ids[0]
    idx = np.nonzero((t.cluster_ids == first) & (t.periods == 1))[0]
    keep = np.ones(t.n_obs, dtype=bool)
    keep[idx[0]] = False
    return ObservedTrial(t.cluster_ids[keep], t.periods[keep],
                         t.sequences[keep], t.outcomes[keep])


def equalize_sizes(seed, k=6, n_clusters=8):
    mix = PopulationMixture([(1.0, k, 0.7)])
    sc = SimScenario(n_clusters=n_clusters, mixture=mix,
                     vc=VarianceComponents(1.0, 0.08, 0.02),
                     reps=1, master_seed=seed, fixed_sizes=True)
    return generate_trial(sc, 0)


class TestIndependenceFits:
    def test_iee_on_noiseless_informative(self):
        r = fit(noiseless_informative_trial(), EstimatorKind.IEE)
        assert r.delta_hat == pytest.approx(0.45, abs=1e-12)

    def test_ieew_on_noiseless_informative(self):
        r = fit(noiseless_informative_trial(), EstimatorKind.IEEW)
        assert r.delta_hat == pytest.approx(0.35, abs=1e-12)

    def test_iee_is_post_period_means_difference(self):
        t = random_trial(101)
        c = t.cells
        treated, control = c.sequence == 1, c.sequence == 0
        expect = (c.sum1[treated].sum() / c.k1[treated].sum()
                  - c.sum1[control].sum() / c.k1[control].sum())
        r = fit(t, EstimatorKind.IEE)
        assert r.delta_hat == pytest.approx(expect, abs=1e-10)

    def test_ieew_is_mean_of_cluster_means_difference(self):
        t = random_trial(102)
        c = t.cells
        mean1 = c.sum1 / c.k1
        treated, control = mean1[c.sequence == 1], mean1[c.sequence == 0]
        r = fit(t, EstimatorKind.IEEW)
        assert r.delta_hat == pytest.approx(
            np.mean(treated) - np.mean(control), abs=1e-10)


class TestFixedEffects:
    def test_fe_noiseless_did(self):
        cells = [("t1", 1, 4, 4, 2.0, 5.0), ("t2", 1, 4, 4, 3.0, 6.0),
                 ("c1", 0, 4, 4, 1.0, 3.0), ("c2", 0, 4, 4, 0.0, 2.0)]
        t = ObservedTrial.from_cell_means(cells)
        r = fit(t, EstimatorKind.FE)
        # (5 - 2) - (3 - 1)
        assert r.delta_hat == pytest.approx(1.0, abs=1e-12)
        rw = fit(t, EstimatorKind.FEW)
        assert rw.delta_hat == pytest.approx(1.0, abs=1e-12)

    def test_few_is_did_of_cell_means(self):
        t = random_trial(103)
        c = t.cells
        did = c.sum1 / c.k1 - c.sum0 / c.k0
        seq = c.sequence
        expect = (np.mean([d for d, s in zip(did, seq) if s == 1])
                  - np.mean([d for d, s in zip(did, seq) if s == 0]))
        r = fit(t, EstimatorKind.FEW)
        assert r.delta_hat == pytest.approx(expect, abs=1e-10)

    def test_fe_handles_unequal_period_sizes(self):
        t = random_trial(104, unequal_periods=True)
        assert not t.equal_period_sizes
        r = fit(t, EstimatorKind.FE)
        assert np.isfinite(r.delta_hat)
        assert r.model_based_var > 0


def jiah_trial(seed):
    """Random outcomes on the bundled unequal cluster-period sizes."""
    rng = np.random.default_rng(seed)
    records = []
    for cid, seq, k0, k1 in load_size_table():
        alpha = 0.3 * rng.standard_normal()
        records += [(cid, 0, seq, MU + alpha + y) for y in rng.standard_normal(k0)]
        records += [(cid, 1, seq, MU + PHI + 0.35 * seq + alpha + y)
                    for y in rng.standard_normal(k1)]
    return ObservedTrial.from_records(records)


def dense_fixed_effects(trial, weighted):
    """(delta_hat, model variance) of the two-way fixed-effects fit by OLS
    on the dense (I+2)-column cell design; weighted fits use cell means."""
    c = trial.cells
    n_c = c.n_clusters
    k = np.column_stack([c.k0, c.k1]).ravel()
    t = np.column_stack([c.sum0, c.sum1]).ravel()
    ss = np.column_stack([c.ss0, c.ss1]).ravel()
    if weighted:
        t = t / k
        ss = t * t
        k = np.ones_like(k)
    per = np.tile([0.0, 1.0], n_c)
    z = np.zeros((2 * n_c, n_c + 2))
    z[:, 0] = 1.0
    z[:, 1] = np.repeat(c.sequence, 2) * per
    z[:, 2] = per
    for i in range(1, n_c):  # first cluster pinned at zero for identifiability
        z[2 * i: 2 * i + 2, 2 + i] = 1.0
    m = (z * k[:, None]).T @ z
    theta = np.linalg.solve(m, z.T @ t)
    fitted = z @ theta
    rss = float(np.sum(ss - 2.0 * fitted * t + k * fitted**2))
    sigma2 = rss / (k.sum() - n_c - 2)
    return theta[1], sigma2 * np.linalg.inv(m)[1, 1]


class TestFixedEffectsAgainstDense:
    @pytest.mark.parametrize("trial", [
        pytest.param(lambda: equalize_sizes(120), id="equal"),
        pytest.param(lambda: random_trial(121, n_clusters=40), id="poisson"),
        pytest.param(lambda: jiah_trial(122), id="jiah-unequal"),
    ])
    def test_fwl_matches_dense_design(self, trial):
        t = trial()
        for kind in (EstimatorKind.FE, EstimatorKind.FEW):
            delta, var = dense_fixed_effects(t, kind.weighted)
            r = fit(t, kind)
            assert r.delta_hat == pytest.approx(delta, abs=1e-10), kind
            assert r.model_based_var == pytest.approx(var, abs=1e-10), kind


class TestGlsAgainstDense:
    def _dense_gls(self, trial, structure, vc, weighting):
        rows = []
        winv_blocks = []
        y = []
        c = trial.cells
        for cid, seq, k0, k1 in zip(c.ids, c.sequence, c.k0, c.k1):
            k0, k1 = int(k0), int(k1)
            z0 = [1.0, 0.0, 0.0]
            z1 = [1.0, float(seq), 1.0]
            rows.extend([z0] * k0 + [z1] * k1)
            binv = np.linalg.inv(dense_block(structure, k0, k1, vc))
            if weighting is WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE:
                binv = binv / k0
            winv_blocks.append(binv)
            mask = trial.cluster_ids == cid
            y.extend(trial.outcomes[mask & (trial.periods == 0)])
            y.extend(trial.outcomes[mask & (trial.periods == 1)])
        z = np.asarray(rows)
        y = np.asarray(y)
        from scipy.linalg import block_diag
        winv = block_diag(*winv_blocks)
        m = z.T @ winv @ z
        theta = np.linalg.solve(m, z.T @ winv @ y)
        return theta, np.linalg.inv(m)[1, 1]

    @pytest.mark.parametrize("structure", [
        CorrelationStructure.EXCHANGEABLE,
        CorrelationStructure.NESTED_EXCHANGEABLE])
    def test_unweighted_gls_matches_dense(self, structure):
        t = random_trial(105, n_clusters=6)
        vc = VarianceComponents(0.8, 0.15, 0.05)
        theta = gls_point_estimate(t, structure, vc)
        expect, var = self._dense_gls(t, structure, vc,
                                      WeightingScheme.UNWEIGHTED)
        assert theta == pytest.approx(expect, abs=1e-9)
        kind = (EstimatorKind.EME if structure is CorrelationStructure.EXCHANGEABLE
                else EstimatorKind.NEME)
        r = fit(t, kind, FitOptions(vc=vc))
        assert r.delta_hat == pytest.approx(expect[1], abs=1e-9)
        assert r.model_based_var == pytest.approx(var, abs=1e-12)

    def test_weighted_gls_matches_dense(self):
        t = equalize_sizes(106)
        vc = VarianceComponents(0.8, 0.15, 0.05)
        for structure in (CorrelationStructure.EXCHANGEABLE,
                          CorrelationStructure.NESTED_EXCHANGEABLE):
            theta = gls_point_estimate(
                t, structure, vc, WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE)
            expect, _ = self._dense_gls(
                t, structure, vc, WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE)
            assert theta == pytest.approx(expect, abs=1e-9)

    def test_weighted_unequal_sizes_rejected(self):
        t = random_trial(107, unequal_periods=True)
        assert not t.equal_period_sizes
        for kind in (EstimatorKind.EMEW, EstimatorKind.NEMEW):
            with pytest.raises(UnsupportedWeightingError):
                fit(t, kind, FitOptions(vc=VarianceComponents(1.0, 0.1)))


class TestCollapses:
    def test_mixed_with_zero_components_equals_ols(self):
        t = random_trial(108)
        vc0 = VarianceComponents(1.0, 0.0, 0.0)
        iee = fit(t, EstimatorKind.IEE).delta_hat
        for kind in (EstimatorKind.EME, EstimatorKind.NEME):
            d = fit(t, kind, FitOptions(vc=vc0)).delta_hat
            assert d == pytest.approx(iee, abs=1e-10)

    def test_neme_with_zero_gamma_equals_eme(self):
        t = random_trial(109)
        vc = VarianceComponents(1.0, 0.2, 0.0)
        a = fit(t, EstimatorKind.EME, FitOptions(vc=vc)).delta_hat
        b = fit(t, EstimatorKind.NEME, FitOptions(vc=vc)).delta_hat
        assert b == pytest.approx(a, abs=1e-10)

    def test_weighted_equals_unweighted_with_equal_sizes(self):
        t = equalize_sizes(110)
        vc = VarianceComponents(1.0, 0.2, 0.06)
        pairs = [(EstimatorKind.IEE, EstimatorKind.IEEW),
                 (EstimatorKind.FE, EstimatorKind.FEW),
                 (EstimatorKind.EME, EstimatorKind.EMEW),
                 (EstimatorKind.NEME, EstimatorKind.NEMEW)]
        for unweighted, weighted in pairs:
            opts = FitOptions(vc=vc) if unweighted.mixed else FitOptions()
            a = fit(t, unweighted, opts).delta_hat
            b = fit(t, weighted, opts).delta_hat
            assert b == pytest.approx(a, abs=1e-10), unweighted


class TestInvariances:
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_location_and_scale(self, kind):
        t = equalize_sizes(111)
        vc = VarianceComponents(1.0, 0.1, 0.03)
        opts = FitOptions(vc=vc) if kind.mixed else FitOptions()
        base = fit(t, kind, opts).delta_hat
        shifted = ObservedTrial(t.cluster_ids, t.periods, t.sequences,
                                t.outcomes + 7.5)
        assert fit(shifted, kind, opts).delta_hat == pytest.approx(base, abs=1e-9)
        scaled = ObservedTrial(t.cluster_ids, t.periods, t.sequences,
                               3.0 * t.outcomes)
        opts_scaled = (FitOptions(vc=VarianceComponents(
            9.0 * vc.sigma_w2, 9.0 * vc.tau_alpha2, 9.0 * vc.tau_gamma2))
            if kind.mixed else FitOptions())
        assert fit(scaled, kind, opts_scaled).delta_hat == pytest.approx(
            3.0 * base, abs=1e-9)

    def test_record_order_irrelevant(self):
        t = random_trial(112)
        rng = np.random.default_rng(0)
        perm = rng.permutation(t.n_obs)
        t2 = ObservedTrial(t.cluster_ids[perm], t.periods[perm],
                           t.sequences[perm], t.outcomes[perm])
        for kind in (EstimatorKind.IEE, EstimatorKind.FE, EstimatorKind.NEME):
            assert fit(t2, kind).delta_hat == pytest.approx(
                fit(t, kind).delta_hat, abs=1e-9)

    def test_record_order_property(self, monkeypatch):
        # On 60 trials, eme and neme delta move by at most 1e-9 under a
        # record permutation whenever both REML searches converge; the
        # non-converged cases are counted and reported.  Every polished
        # optimum keeps the deviance within rounding of the search's and
        # has a near-zero gradient in the polished coordinates.
        polish = reml._polish
        polished = []

        def checked_polish(cells, x, ratios, lo, hi):
            y = polish(cells, x, ratios, lo, hi)
            before = reml._deviance(cells, *ratios(np.asarray(x))[:2])
            tw0, tb0, jac = ratios(y)
            grad = jac.T @ reml._gradient(cells, tw0, tb0)
            polished.append(((reml._deviance(cells, tw0, tb0) - before)
                             / abs(before), np.abs(grad).max()))
            return y

        monkeypatch.setattr(reml, "_polish", checked_polish)
        moves, nonconverged = [], []
        for seed in range(100, 160):
            t = random_trial(seed)
            perm = np.random.default_rng(seed).permutation(t.n_obs)
            t2 = ObservedTrial(t.cluster_ids[perm], t.periods[perm],
                               t.sequences[perm], t.outcomes[perm])
            for kind in (EstimatorKind.EME, EstimatorKind.NEME):
                a, b = fit(t, kind), fit(t2, kind)
                if a.converged and b.converged:
                    moves.append(abs(a.delta_hat - b.delta_hat))
                else:
                    nonconverged.append((seed, kind.value))
        rises, grads = np.array(polished).T
        print(f"{len(moves)} converged pairs, largest move {max(moves):.2e}; "
              f"{len(nonconverged)} not converged: {nonconverged}; "
              f"{len(polished)} polishes, largest relative deviance change "
              f"{rises.max():.2e}, largest final gradient {grads.max():.2e}")
        assert max(moves) <= 1e-9
        assert len(moves) + len(nonconverged) == 120
        assert rises.max() <= reml._DEV_ROUNDING
        assert grads.max() <= 1e-10


class TestFitResult:
    def test_plugin_vc_round_trip(self):
        t = random_trial(113)
        vc = VarianceComponents(1.0, 0.05, 0.01)
        r = fit(t, EstimatorKind.NEME, FitOptions(vc=vc))
        assert r.vc_hat == vc
        assert r.converged

    def test_variances_positive(self):
        t = equalize_sizes(114)
        for kind in EstimatorKind:
            r = fit(t, kind)
            assert r.model_based_var > 0, kind
            assert np.isfinite(r.delta_hat)

    def test_reml_estimates_attached(self):
        t = random_trial(115, n_clusters=12)
        r = fit(t, EstimatorKind.EME)
        assert r.vc_hat is not None
        assert r.vc_hat.tau_gamma2 == 0.0
        rn = fit(t, EstimatorKind.NEME)
        assert rn.vc_hat.sigma_w2 > 0

    def test_normal_equations_one_factorization(self):
        # Coefficients and the (delta, delta) entry of the inverse come
        # from one Cholesky factor; a singular system is refused.
        from pbcrt.estimators import EstimationError, _solve_normal

        a = np.random.default_rng(116).standard_normal((3, 3))
        m, v = a @ a.T + 0.1 * np.eye(3), np.array([1.0, -2.0, 0.5])
        theta, inv_dd = _solve_normal(m, v)
        inv = np.linalg.inv(m)
        assert theta == pytest.approx(inv @ v, rel=1e-12)
        assert inv_dd == pytest.approx(inv[1, 1], rel=1e-12)
        with pytest.raises(EstimationError, match="singular"):
            _solve_normal(np.ones((3, 3)), v)
