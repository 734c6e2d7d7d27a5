from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pbcrt.estimators as estimators
import pbcrt.reml as reml

from pbcrt import (
    CorrelationStructure,
    EstimationError,
    EstimatorKind,
    FitOptions,
    ObservedTrial,
    PopulationMixture,
    SimScenario,
    TrialValidationError,
    UnsupportedWeightingError,
    VarianceComponents,
    fit,
    generate_trial,
)
from pbcrt.blocks import unit_ratios
from pbcrt.estimators import fit_rows
from pbcrt.inference import fit_kinds, fit_with_inference
from pbcrt.io import load_size_table

from oracles import (dense_block, fit_rows_per_kind, fit_with_inference_per_kind,
                     from_cell_means, from_records)

MU, PHI = 1.0, 0.2


def noiseless_informative_trial():
    """Two sizes (20, 100) per arm, effects 0.2 / 0.5, no noise."""
    cells = [
        ("t20", 1, 20, 20, MU, MU + PHI + 0.2),
        ("t100", 1, 100, 100, MU, MU + PHI + 0.5),
        ("c20", 0, 20, 20, MU, MU + PHI),
        ("c100", 0, 100, 100, MU, MU + PHI),
    ]
    return from_cell_means(cells)


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
    keep = np.ones(t.cells.n_obs, dtype=bool)
    keep[idx[0]] = False
    return ObservedTrial(t.cluster_ids[keep], t.periods[keep],
                         t.sequences[keep], t.outcomes[keep])


def with_outcomes(t, f):
    """The trial t with outcomes f(y)."""
    return ObservedTrial(t.cluster_ids, t.periods, t.sequences, f(t.outcomes))


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
        t1 = c.k1 * c.mean1
        expect = (t1[treated].sum() / c.k1[treated].sum()
                  - t1[control].sum() / c.k1[control].sum())
        r = fit(t, EstimatorKind.IEE)
        assert r.delta_hat == pytest.approx(expect, abs=1e-10)

    def test_ieew_is_mean_of_cluster_means_difference(self):
        t = random_trial(102)
        c = t.cells
        mean1 = c.mean1
        treated, control = mean1[c.sequence == 1], mean1[c.sequence == 0]
        r = fit(t, EstimatorKind.IEEW)
        assert r.delta_hat == pytest.approx(
            np.mean(treated) - np.mean(control), abs=1e-10)


class TestFixedEffects:
    def test_fe_noiseless_did(self):
        cells = [("t1", 1, 4, 4, 2.0, 5.0), ("t2", 1, 4, 4, 3.0, 6.0),
                 ("c1", 0, 4, 4, 1.0, 3.0), ("c2", 0, 4, 4, 0.0, 2.0)]
        t = from_cell_means(cells)
        r = fit(t, EstimatorKind.FE)
        # (5 - 2) - (3 - 1)
        assert r.delta_hat == pytest.approx(1.0, abs=1e-12)
        rw = fit(t, EstimatorKind.FEW)
        assert rw.delta_hat == pytest.approx(1.0, abs=1e-12)

    def test_few_is_did_of_cell_means(self):
        t = random_trial(103)
        c = t.cells
        did = c.mean1 - c.mean0
        seq = c.sequence
        expect = (np.mean([d for d, s in zip(did, seq) if s == 1])
                  - np.mean([d for d, s in zip(did, seq) if s == 0]))
        r = fit(t, EstimatorKind.FEW)
        assert r.delta_hat == pytest.approx(expect, abs=1e-10)

    def test_fe_handles_unequal_period_sizes(self):
        t = random_trial(104, unequal_periods=True)
        assert not t.cells.equal_period_sizes
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
    return from_records(records)


def dense_fixed_effects(trial, weighted):
    """(delta_hat, model variance) of the two-way fixed-effects fit by OLS
    on the dense (I+2)-column cell design; weighted fits use cell means."""
    c = trial.cells
    n_c = c.n_clusters
    k = np.column_stack([c.k0, c.k1]).ravel()
    ybar = np.column_stack([c.mean0, c.mean1]).ravel()
    within = float(np.sum(c.within))
    if weighted:
        k, within = np.ones_like(k), 0.0
    t = k * ybar
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
    rss = within + float(np.sum(t * ybar - 2.0 * fitted * t + k * fitted**2))
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
    @staticmethod
    def _gls_theta(trial, structure, vc, weighted=False):
        """(mu, delta, phi1) of the (weighted) GLS normal equations."""
        cells = trial.cells
        theta = estimators._solve(cells, *unit_ratios(structure, vc),
                                  cells.k0 if weighted else None)
        theta[0] += cells.origin
        return theta

    def _dense_gls(self, trial, structure, vc, weighted):
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
            if weighted:
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
        theta = self._gls_theta(t, structure, vc)
        expect, var = self._dense_gls(t, structure, vc, weighted=False)
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
            theta = self._gls_theta(t, structure, vc, weighted=True)
            expect, _ = self._dense_gls(t, structure, vc, weighted=True)
            assert theta == pytest.approx(expect, abs=1e-9)

    def test_weighted_unequal_sizes_rejected(self):
        t = random_trial(107, unequal_periods=True)
        assert not t.cells.equal_period_sizes
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


TOL_EXACT = 1e-10  # non-REML fits and fits at plug-in components
TOL_REML = 1e-6    # fits whose components come from REML


def grid_trial(seed, n_clusters):
    """Trial with alternating arms, equal period sizes 2-6 and outcomes on
    a 2^-20 grid, so that adding an integer up to 1e8 is exact."""
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 7, n_clusters)
    seq = np.arange(n_clusters) % 2
    base = 1.0 + 0.4 * rng.standard_normal(n_clusters)
    cell = base[:, None] + [0.0, 0.2] + np.outer(seq, [0.0, 0.5])
    cell += 0.2 * rng.standard_normal((n_clusters, 2))
    size = np.repeat(k, 2)
    y = np.repeat(cell.ravel(), size) + rng.standard_normal(size.sum())
    return ObservedTrial(np.repeat([f"c{i}" for i in range(n_clusters)], 2 * k),
                         np.repeat(np.tile([0, 1], n_clusters), size),
                         np.repeat(seq, 2 * k), np.round(y * 2.0**20) / 2.0**20)


def check_equivariance(t, t2, sign=1.0, scale=1.0):
    """Every kind with REML and at plug-in components, both with the
    jackknife: the fits on t2 equal those on t with delta_hat times
    sign * scale and the variances times scale^2.  REML fits are compared
    where both converged; the others are returned."""
    vc = VarianceComponents(1.0, 0.1, 0.03)
    vc2 = VarianceComponents(*(scale**2 * x for x in
                               (vc.sigma_w2, vc.tau_alpha2, vc.tau_gamma2)))
    spread = float(np.std(t.outcomes))
    skipped = []
    for kind in EstimatorKind:
        runs = [(FitOptions(), FitOptions(), TOL_REML if kind.mixed else TOL_EXACT)]
        if kind.mixed:
            runs.append((FitOptions(vc=vc), FitOptions(vc=vc2), TOL_EXACT))
        for opts, opts2, tol in runs:
            a, b = fit_with_inference(t, kind, opts), fit_with_inference(t2, kind, opts2)
            if not (a.converged and b.converged):
                skipped.append(kind.value)
                continue
            assert b.delta_hat == pytest.approx(
                sign * scale * a.delta_hat, rel=tol, abs=tol * scale * spread), kind
            assert [b.model_based_var, b.jackknife_var] == pytest.approx(
                [scale**2 * a.model_based_var, scale**2 * a.jackknife_var],
                rel=tol), kind
    return skipped


def run_property(prop, name):
    """Run prop(trial, data) on I = 4-12 grid trials; print the kinds it
    skipped.  The examples are fixed, so that a REML search that stops
    elsewhere on a new trial cannot make the suite flaky."""
    skipped = []

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 12), st.data())
    def check(seed, n, data):
        skipped.extend(prop(grid_trial(seed, n), data))

    check()
    print(f"{name}: {len(skipped)} REML comparisons not converged: {skipped}")


class TestInvariances:
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_location_and_scale(self, kind):
        t = equalize_sizes(111)
        vc = VarianceComponents(1.0, 0.1, 0.03)
        opts = FitOptions(vc=vc) if kind.mixed else FitOptions()
        base = fit(t, kind, opts)
        shifted = fit(with_outcomes(t, lambda y: y + 7.5), kind, opts)
        assert shifted.delta_hat == pytest.approx(base.delta_hat, abs=1e-9)
        assert shifted.model_based_var == pytest.approx(base.model_based_var,
                                                        rel=1e-9)
        opts_scaled = (FitOptions(vc=VarianceComponents(
            9.0 * vc.sigma_w2, 9.0 * vc.tau_alpha2, 9.0 * vc.tau_gamma2))
            if kind.mixed else FitOptions())
        scaled = fit(with_outcomes(t, lambda y: 3.0 * y), kind, opts_scaled)
        assert scaled.delta_hat == pytest.approx(3.0 * base.delta_hat, abs=1e-9)
        assert scaled.model_based_var == pytest.approx(
            9.0 * base.model_based_var, rel=1e-9)

    def test_location_property(self):
        # y -> a + y, exact in float64 on the 2^-20 grid.
        def prop(t, data):
            a = data.draw(st.integers(-10**8, 10**8))
            return check_equivariance(t, with_outcomes(t, lambda y: a + y))
        run_property(prop, "location")

    def test_scale_property(self):
        # y -> b y for b a power of two, exact in float64.
        def prop(t, data):
            b = 2.0 ** data.draw(st.integers(-20, 20))
            return check_equivariance(t, with_outcomes(t, lambda y: b * y),
                                      scale=b)
        run_property(prop, "scale")

    def test_arm_swap_property(self):
        # sequence -> 1 - sequence negates delta_hat.
        def prop(t, data):
            swapped = ObservedTrial(t.cluster_ids, t.periods, 1 - t.sequences,
                                    t.outcomes)
            return check_equivariance(t, swapped, sign=-1.0)
        run_property(prop, "arm swap")

    def test_cluster_order_property(self):
        # Listing the clusters in another order changes nothing.
        def prop(t, data):
            perm = data.draw(st.permutations(range(t.cells.n_clusters)))
            rank = dict(zip(t.cells.ids[perm], range(t.cells.n_clusters)))
            order = np.argsort([rank[c] for c in t.cluster_ids], kind="stable")
            permuted = ObservedTrial(t.cluster_ids[order], t.periods[order],
                                     t.sequences[order], t.outcomes[order])
            assert list(permuted.cells.ids) == list(t.cells.ids[perm])
            return check_equivariance(t, permuted)
        run_property(prop, "cluster order")

    def test_small_scale(self):
        t = grid_trial(5, 10)
        b = 1e-6
        base = {k: fit(t, k) for k in (EstimatorKind.EME, EstimatorKind.NEME)}
        small = with_outcomes(t, lambda y: b * y)
        for kind, a in base.items():
            r = fit(small, kind)
            assert r.delta_hat == pytest.approx(b * a.delta_hat, rel=TOL_REML)
            assert r.model_based_var == pytest.approx(
                b * b * a.model_based_var, rel=TOL_REML)

    def test_record_order_irrelevant(self):
        t = random_trial(112)
        rng = np.random.default_rng(0)
        perm = rng.permutation(t.cells.n_obs)
        t2 = ObservedTrial(t.cluster_ids[perm], t.periods[perm],
                           t.sequences[perm], t.outcomes[perm])
        for kind in (EstimatorKind.IEE, EstimatorKind.FE, EstimatorKind.NEME):
            assert fit(t2, kind).delta_hat == pytest.approx(
                fit(t, kind).delta_hat, abs=1e-9)

    def test_record_order_property(self, monkeypatch):
        # On 60 trials, eme and neme delta move by at most 1e-9 under a
        # record permutation whenever both REML searches converge; the
        # non-converged cases are counted and reported.  Every Newton
        # search ends within rounding of where it started or below, and
        # every converged optimum inside the box of the ratios (ta, tg)
        # has a near-zero gradient in log x.  A row at a bound keeps the
        # gradient that points out of the box.
        newton = reml._newton
        ends = []

        def checked_newton(cells, rows, x):
            before = reml._kernel(cells, rows, x.sum(axis=1), x[:, 0])[0]
            y, converged = newton(cells, rows, x)
            after, _, _, g, _ = reml._kernel(cells, rows, y.sum(axis=1), y[:, 0], y.shape[1])
            grad = y * g
            inside = converged & ((0.0 < y) & (y < reml._HI)).all(axis=1)
            ends.extend(zip(((after - before) / np.abs(before)).tolist(),
                            np.where(inside, np.abs(grad).max(axis=1), 0.0).tolist()))
            return y, converged

        monkeypatch.setattr(reml, "_newton", checked_newton)
        moves, nonconverged = [], []
        for seed in range(100, 160):
            t = random_trial(seed)
            perm = np.random.default_rng(seed).permutation(t.cells.n_obs)
            t2 = ObservedTrial(t.cluster_ids[perm], t.periods[perm],
                               t.sequences[perm], t.outcomes[perm])
            for kind in (EstimatorKind.EME, EstimatorKind.NEME):
                a, b = fit(t, kind), fit(t2, kind)
                if a.converged and b.converged:
                    moves.append(abs(a.delta_hat - b.delta_hat))
                else:
                    nonconverged.append((seed, kind.value))
        rises, grads = np.array(ends).T
        print(f"{len(moves)} converged pairs, largest move {max(moves):.2e}; "
              f"{len(nonconverged)} not converged: {nonconverged}; "
              f"{len(ends)} searches, largest relative deviance change "
              f"{rises.max():.2e}, largest interior gradient {grads.max():.2e}")
        assert max(moves) <= 1e-9
        assert len(moves) + len(nonconverged) == 120
        assert rises.max() <= 1e-13
        assert grads.max() <= 1e-10


class TestDegenerateOutcomes:
    """Outcomes that leave nothing to estimate, or overflow, raise pbcrt's
    own errors; fits at plug-in components still return."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: with_outcomes(equalize_sizes(111), lambda y: 0 * y + 0.1),
                     id="constant"),
        pytest.param(noiseless_informative_trial, id="noiseless")])
    def test_reml_refuses_zero_residual(self, make):
        # Constant outcomes leave no residual at all; on the noiseless
        # fixture, every three-cluster jackknife table is fitted exactly.
        t = make()
        for kind in EstimatorKind:
            opts = FitOptions()
            if kind.mixed:
                with pytest.raises(EstimationError, match="residual"):
                    fit_with_inference(t, kind)
                opts = FitOptions(vc=VarianceComponents(1.0, 0.1, 0.03))
            r = fit_with_inference(t, kind, opts)
            assert np.isfinite([r.delta_hat, r.model_based_var,
                                r.jackknife_var]).all()

    def test_exact_fits_refused(self):
        # On trials that the (mu, delta, phi1) design fits exactly, the
        # profiled quadratic is rounding noise of either sign at every
        # point; each mixed kind refuses all 30 with one message.
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = 2 * int(rng.integers(2, 6))
            k = rng.integers(1, 5, n).tolist()
            mu, delta, phi1 = rng.standard_normal(3).tolist()
            t = from_cell_means(
                (f"c{i}", i % 2, k[i], k[i], mu, mu + phi1 + i % 2 * delta)
                for i in range(n))
            for kind in EstimatorKind:
                if kind.mixed:
                    with pytest.raises(EstimationError, match="no residual"):
                        fit(t, kind)

    def test_residual_variance_not_floored(self):
        # iee and fe report no components at an exactly zero residual
        # variance, and the unfloored value at any positive one.
        t = equalize_sizes(111)
        constant = with_outcomes(t, lambda y: 0 * y + 0.1)
        tiny = with_outcomes(t, lambda y: 1e-8 * y)
        for kind in (EstimatorKind.IEE, EstimatorKind.FE):
            assert fit(constant, kind).vc_hat is None
            assert fit(tiny, kind).vc_hat.sigma_w2 == pytest.approx(
                1e-16 * fit(t, kind).vc_hat.sigma_w2, rel=1e-9)

    def test_tiny_scales_exact_or_refused(self):
        # Outcomes times b give b times the estimates and b^2 times the
        # model variance and components, or, once their mean square is
        # subnormal, a TrialValidationError; never a silently wrong fit.
        sc = SimScenario(n_clusters=10, mixture=PopulationMixture.two_point(
            0.5, 20, 100, 0.2, 0.5), vc=VarianceComponents(1.0, 0.053, 0.013),
            reps=1, master_seed=3, fixed_split=True)
        t = generate_trial(sc, 0)
        base = {kind: fit(t, kind) for kind in EstimatorKind}
        refused = []
        for k in (100, 140, 150, 152, 153, 154, 155, 160, 170):
            b = 10.0 ** -k
            try:
                small = with_outcomes(t, lambda y: b * y)
            except TrialValidationError as exc:
                assert "mean square" in str(exc)
                refused.append(k)
                continue
            for kind, a in base.items():
                r = fit(small, kind)
                got = [r.delta_hat, r.model_based_var]
                want = [b * a.delta_hat, b * (b * a.model_based_var)]
                if a.vc_hat is not None:
                    got += [r.vc_hat.sigma_w2, r.vc_hat.tau_alpha2,
                            r.vc_hat.tau_gamma2]
                    want += [b * (b * a.vc_hat.sigma_w2),
                             b * (b * a.vc_hat.tau_alpha2),
                             b * (b * a.vc_hat.tau_gamma2)]
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), (k, kind)
        assert refused == [154, 155, 160, 170]

    @pytest.mark.parametrize("outcomes", [
        pytest.param(lambda y: 1e160 * y, id="1e160y"),
        pytest.param(lambda y: 0 * y + 1e308, id="all-1e308")])
    def test_overflowing_outcomes_rejected(self, outcomes):
        with pytest.raises(TrialValidationError, match="overflow"):
            with_outcomes(equalize_sizes(111), outcomes)


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
        # from one Cholesky factor; a singular system is flagged, and only
        # its own point when solved with others.
        from pbcrt.estimators import _solve_normal

        a = np.random.default_rng(116).standard_normal((3, 3))
        m, v = a @ a.T + 0.1 * np.eye(3), np.array([1.0, -2.0, 0.5])
        theta, inv_dd, ok = _solve_normal(m[np.triu_indices(3)], v)
        inv = np.linalg.inv(m)
        assert ok
        assert theta == pytest.approx(inv @ v, rel=1e-12)
        assert inv_dd == pytest.approx(inv[1, 1], rel=1e-12)
        with np.errstate(all="ignore"):  # the caller silences the singular point
            both = _solve_normal(np.column_stack((m[np.triu_indices(3)], np.ones(6))),
                                 np.column_stack((v, v)))
        assert both[2].tolist() == [True, False]
        assert (both[0][:, 0] == theta).all() and both[1][0] == inv_dd


KINDS = tuple(EstimatorKind)
PLUG_IN = FitOptions(vc=VarianceComponents(1.0, 0.08, 0.02))


def one_pass_table(seed, n, equal=True, sizes=(1, 7), constant=False):
    """Trial of n clusters with alternating arms, cell sizes drawn from
    range(*sizes), equal across periods or not, and normal outcomes about
    cluster and cell effects (or a constant outcome)."""
    rng = np.random.default_rng(seed)
    k0 = rng.integers(*sizes, n)
    k1 = k0 if equal else rng.integers(*sizes, n)
    seq = np.arange(n) % 2
    cell = np.repeat(np.arange(2 * n), np.column_stack((k0, k1)).ravel())
    effect = (0.3 * rng.standard_normal(n)[:, None] + 0.2 * rng.standard_normal((n, 2))
              + [0.0, 0.2] + np.outer(seq, [0.0, 0.5]))
    y = effect.ravel()[cell] + rng.standard_normal(cell.size)
    return ObservedTrial(cell // 2, cell % 2, seq[cell // 2],
                         0.0 * y + 0.1 if constant else y)


def outcome(run):
    """The value of run(), or the EstimationError it raised."""
    try:
        return run()
    except EstimationError as exc:
        return exc


def assert_same(got, want, kind):
    """Equal results (==), or errors of one class and message."""
    if isinstance(want, EstimationError):
        assert (type(got), str(got)) == (type(want), str(want)), kind
    else:
        assert got == want, kind


def check_one_pass(cells, options, rows) -> dict:
    """`fit_rows` of every kind at once: each kind's results or error are
    those of its own solve (the per-kind oracle) and of its fit alone."""
    together = fit_rows(cells, KINDS, options, rows)
    assert list(together) == list(KINDS)
    for kind in KINDS:
        want = outcome(lambda: fit_rows_per_kind(cells, kind, options, rows))
        assert_same(together[kind], want, kind)
        assert_same(fit_rows(cells, (kind,), options, rows)[kind], want, kind)
    return together


class TestOnePass:
    """All kinds in one pass give each kind's own per-kind results."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
           equal=st.booleans(), with_reml=st.booleans(),
           rows=st.sampled_from(("full", "last", "all")))
    @example(seed=1, n=40, equal=True, with_reml=True, rows="all")
    @example(seed=2, n=40, equal=False, with_reml=True, rows="all")
    @example(seed=3, n=4, equal=True, with_reml=False, rows="all")
    def test_equals_per_kind_fits(self, seed, n, equal, with_reml, rows):
        # Rows: the full table alone, the last delete-one table, or all
        # I + 1 rows of the jackknife's stack.
        cells = one_pass_table(seed, n, equal).cells
        check_one_pass(cells, FitOptions() if with_reml else PLUG_IN,
                       {"full": 0, "last": [n], "all": range(n + 1)}[rows])

    @pytest.mark.parametrize("make, with_reml, at_plug_in", [
        pytest.param(lambda: one_pass_table(1, 8, sizes=(1, 2)),
                     {"neme", "nemew"}, set(), id="one-record cells"),
        pytest.param(lambda: one_pass_table(2, 4, constant=True),
                     {"eme", "emew", "neme", "nemew"}, set(), id="constant outcomes"),
        pytest.param(lambda: one_pass_table(3, 8, equal=False),
                     {"emew", "nemew"}, {"emew", "nemew"}, id="unequal periods"),
    ])
    def test_failures_stay_with_their_kinds(self, make, with_reml, at_plug_in):
        # The named kinds fail on every row; the others fit as they do
        # alone, with and without the jackknife.
        trial = make()
        cells = trial.cells
        for options, fails in ((FitOptions(), with_reml), (PLUG_IN, at_plug_in)):
            for rows in (0, range(cells.n_clusters + 1)):
                found = check_one_pass(cells, options, rows)
                assert {k.value for k, f in found.items()
                        if isinstance(f, EstimationError)} == fails
            for jackknife in (False, True):
                found = fit_kinds(trial, KINDS, options, jackknife)
                for kind in KINDS:
                    want = outcome(lambda: fit_with_inference_per_kind(
                        cells, kind, options, jackknife))
                    got = found[kind]
                    if not isinstance(want, EstimationError):
                        assert np.array_equal(got.jackknife_replicates,
                                              want.jackknife_replicates), kind
                        got, want = (replace(r, jackknife_replicates=None)
                                     for r in (got, want))
                    assert_same(got, want, kind)
