import math
import re

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
    generate_cells,
    generate_trial,
)

from oracles import from_cell_means, from_records


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

    def test_converged_is_a_bool(self):
        t = simulate(VarianceComponents.from_iccs(1.0, 0.1, 1.0), 1, n_clusters=10, k=5)
        for s in (CorrelationStructure.EXCHANGEABLE,
                  CorrelationStructure.NESTED_EXCHANGEABLE):
            assert estimate_variance_components(t, s, rows=[0])[0][1] is True
        assert fit(t, EstimatorKind.EME).converged is True

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
        [(est, converged)] = estimate_variance_components(
            t, CorrelationStructure.NESTED_EXCHANGEABLE, rows=[0])
        assert converged
        assert est.sigma_w2 > 0

    def test_one_record_per_cell_not_identified(self):
        # Only sigma_w2 + tau_gamma2 is identified when no cell holds two
        # records, so the nested fit refuses instead of splitting it.
        rng = np.random.default_rng(12)
        t = from_cell_means(
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
        found = deviance(cells, (vc.tau_alpha2 + vc.tau_gamma2) / vc.sigma_w2,
                         vc.tau_alpha2 / vc.sigma_w2)
        at_cac_1 = optimize.minimize_scalar(
            lambda x: deviance(cells, math.exp(x), math.exp(x)),
            bounds=(-10.0, 5.0), method="bounded", options={"xatol": 1e-10})
        assert found <= at_cac_1.fun + 1e-6

    @pytest.mark.parametrize("tables,n_converged", [
        pytest.param(lambda: [(probe_cells(), [0])], 1, id="probe"),
        pytest.param(lambda: [(benchmark_cells(j), range(11)) for j in range(21, 29)],
                     84, id="ops 21-28")])
    def test_no_higher_than_boundary_slices(self, tables, n_converged):
        # Nelder-Mead converges on the probe table at rho below 1e-11, where
        # both components read 0 at deviance 6112.0627; the slice ta = 0
        # falls to 6111.8741 at tg 0.00323.  Every converged nested optimum,
        # there and on every row of operations 21-28 of the I=10 jackknife
        # study benchmark, is no higher than the least deviance on either
        # boundary slice, ta = 0 and tg = 0.
        converged = 0
        for cells, rows in tables():
            found = estimate_variance_components(
                cells, CorrelationStructure.NESTED_EXCHANGEABLE, rows=rows)
            for row, (vc, ok) in zip(rows, found):
                if not ok:
                    continue
                converged += 1
                dev = deviance(cells, (vc.tau_alpha2 + vc.tau_gamma2) / vc.sigma_w2,
                               vc.tau_alpha2 / vc.sigma_w2, row)
                for on_slice in (lambda tg: deviance(cells, tg, 0.0, row),
                                 lambda ta: deviance(cells, ta, ta, row)):
                    least = scipy_brent(on_slice, 0.0, 1.0)[1]
                    assert dev <= least + 1e-12 * abs(least)
        assert converged == n_converged

    def test_newton_leaves_zero_inward(self):
        # Row 10 of operation 17 of the I=10 jackknife study benchmark, from
        # the full table's optimum (ta, tg) = (0, 0.028): the deviance falls
        # into the box along ta, where the Hessian is indefinite and every
        # step tried goes too far.  Shorter steps reach the optimum that
        # the search finds from its own start, (0.0158, 0).
        cells = benchmark_cells(17)
        x, converged = reml._newton(cells, np.array([10]), np.array([[0.0, 0.02799584]]))
        [(vc, ok)] = estimate_variance_components(
            cells, CorrelationStructure.NESTED_EXCHANGEABLE, rows=[10])
        assert converged[0] and ok
        assert x[0, 1] == 0.0 and vc.tau_gamma2 == 0.0
        assert x[0, 0] == pytest.approx(vc.tau_alpha2 / vc.sigma_w2, rel=1e-8)
        least = deviance(cells, vc.tau_alpha2 / vc.sigma_w2, vc.tau_alpha2 / vc.sigma_w2, 10)
        assert deviance(cells, x[0, 0], x[0, 0], 10) <= least + 1e-12 * abs(least)

    def test_no_residual_refused_before_the_search(self, monkeypatch):
        # Constant outcomes leave no residual: the nested search refuses
        # them at its start point, before Nelder-Mead runs.
        t = simulate(VarianceComponents(1.0), 9, n_clusters=6, k=4)
        cells = ObservedTrial(t.cluster_ids, t.periods, t.sequences,
                              0.0 * t.outcomes + 3.7).cells

        def drive(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(reml, "_drive", drive)
        for rows in ([0], range(7)):
            with pytest.raises(EstimationError, match="no residual"):
                estimate_variance_components(
                    cells, CorrelationStructure.NESTED_EXCHANGEABLE, rows=rows)

    def test_too_few_clusters(self):
        cells = [("a", 0, 2, 2, 1.0, 2.0)]
        from pbcrt import ObservedTrial, TrialValidationError
        with pytest.raises(TrialValidationError):
            from_cell_means(cells)

    def test_rows_that_are_not_rows_are_refused(self):
        # Only integers 0..I name a row of the jackknife stack: -1, 1.5,
        # True, a float 2.0 and I + 1 are refused by name and memoise
        # nothing, rather than truncated to a row or failing on an index.
        cells = benchmark_cells(0)
        for row in (-1, 1.5, True, np.float64(2.0), 11):
            with pytest.raises(ValueError, match=re.escape(f"row {row!r} is not an integer")):
                estimate_variance_components(
                    cells, CorrelationStructure.EXCHANGEABLE, rows=[0, row])
        assert CorrelationStructure.EXCHANGEABLE not in cells.reml_memo or not \
            cells.reml_memo[CorrelationStructure.EXCHANGEABLE]
        found = estimate_variance_components(
            cells, CorrelationStructure.EXCHANGEABLE, rows=np.arange(11))
        assert [vc for vc, _ in found][-1] == estimate_variance_components(
            cells, CorrelationStructure.EXCHANGEABLE, rows=[10])[0][0]
        assert sorted(cells.reml_memo[CorrelationStructure.EXCHANGEABLE]) == list(range(11))

    def test_full_table_fit_builds_no_keep_mask(self):
        # A full-table search takes the all-ones path at I=400 instead of
        # gathering row 0 of the (401, 400) keep-mask; `masked` runs its
        # full-table searches as row 0 of a two-row stack, through the mask.
        vc = VarianceComponents.from_iccs(1.0, 0.05, 0.6)
        cells = simulate(vc, 4, n_clusters=400, k=6).cells
        masked = simulate(vc, 4, n_clusters=400, k=6).cells
        for s in (CorrelationStructure.EXCHANGEABLE,
                  CorrelationStructure.NESTED_EXCHANGEABLE):
            estimate_variance_components(masked, s, rows=[0, 1])
        assert "_keep_mask" in masked.__dict__
        for kind in (EstimatorKind.EME, EstimatorKind.NEME):
            assert fit(cells, kind) == fit(masked, kind)
        assert "_keep_mask" not in cells.__dict__


def deviance(cells, tw0, tb0, row=0):
    """The vectorised deviance kernel at one point of one table row."""
    return float(reml._kernel(cells, np.array([row]), np.array([tw0]),
                              np.array([tb0]))[0][0])


def run(search, func):
    """Drive a search generator alone on a scalar function of one point."""
    request = next(search)
    while True:
        try:
            request = search.send([func(p) for p in request])
        except StopIteration as done:
            return done.value


def counted(search, sizes):
    """The search, appending the number of points of each request to sizes."""
    request = next(search)
    while True:
        sizes.append(len(request))
        try:
            request = search.send((yield request))
        except StopIteration as done:
            return done.value


def scipy_nelder_mead(func, x0):
    """The nested search as SciPy runs it, in the port's return form."""
    res = optimize.minimize(func, np.array(x0), method="Nelder-Mead",
                            options={"xatol": 1e-8, "fatol": 1e-10,
                                     "maxiter": reml._MAX_ITER,
                                     "maxfev": 4 * reml._MAX_ITER})
    return tuple(res.x), res.fun, res.nit, res.nfev, res.success


def scipy_brent(func, lo, hi):
    """SciPy's bounded Brent search of func on [lo, hi], with xatol 1e-8,
    as (x, fun, nit, nfev, success).  Its numpy scalars warn on inf - inf."""
    with np.errstate(invalid="ignore"):
        res = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-8,
                                                "maxiter": reml._MAX_ITER})
    return res.x, res.fun, res.nit, res.nfev, res.success


def drives(structure, ops):
    """Every drive of `structure` over the full and delete-one tables of
    the given I=10 benchmark operations: (row, the search's result alone,
    a scalar objective of the row) for each of its searches."""
    runs = []

    def recorded(rows, searches, objective):
        found = drive(rows, searches, objective)
        runs.extend((found[i], (lambda p, r=r: float(objective(
            np.array([r]), np.array([p]))[0])))
            for i, r in enumerate(rows.tolist()))
        return found

    drive = reml._drive
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reml, "_drive", recorded)
        for j in ops:
            cells = benchmark_cells(j)
            estimate_variance_components(cells, structure,
                                         rows=range(cells.n_clusters + 1))
    return runs


NESTED_X0 = (reml._logit(0.05), reml._logit(0.5))
RHO_BOUNDS = (reml._logit(reml._RHO_MIN), reml._logit(reml._RHO_MAX))


class TestNelderMead:
    """`reml._nelder_mead`, driven alone on a scalar function, returns
    exactly what SciPy's Nelder-Mead does."""

    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.0, 0.0), (2.0, -1.5),
                                    (0.0, 3.0), (-2.944, 0.0)])
    def test_rosenbrock(self, x0):
        def f(x):
            return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        assert run(reml._nelder_mead(x0), f) == scipy_nelder_mead(f, x0)

    @pytest.mark.parametrize("x0", [(0.0, 0.0), (-3.0, 2.0), (0.45, 0.1)])
    def test_infinite_half_plane(self, x0):
        # From (0.45, 0.1) the speculative expansion points of the first
        # iterations land in the infinite half-plane.
        def f(x):
            return (math.inf if x[0] > 0.5
                    else (x[0] - 1.0) ** 2 + (x[1] + 0.3) ** 2)
        assert run(reml._nelder_mead(x0), f) == scipy_nelder_mead(f, x0)

    @pytest.mark.parametrize("x0", [(0.1, 0.2), (1.5, -0.7)])
    def test_plateau_with_ties(self, x0):
        # Steps of height 1: vertices tie, so their order decides each move.
        def f(x):
            return float(math.floor(4.0 * (x[0] ** 2 + abs(x[1]))))
        assert run(reml._nelder_mead(x0), f) == scipy_nelder_mead(f, x0)

    @pytest.mark.parametrize("k,x0", [(3.0, (-0.5, 2.0)), (10.0, (0.0, 0.0))])
    def test_trough_to_the_cap(self, k, x0):
        # Down the trough x = 0 of k|x| - y, each iteration expands to a
        # new best vertex, so the search soon asks for 8 iterations at a
        # time, and the iteration cap cuts its last request short.
        def f(x):
            return k * abs(x[0]) - x[1]
        sizes = []
        found = run(counted(reml._nelder_mead(x0), sizes), f)
        assert found == scipy_nelder_mead(f, x0)
        assert found[2] == reml._MAX_ITER and sizes[-2] == 4 + 7 * 2 > sizes[-1]

    @pytest.mark.parametrize("x0", [(-2.78, -2.84), (-2.32, -0.98), (1.92, 1.36)])
    def test_ripples_end_a_chain_in_a_shrink(self, x0):
        # Ripples on a bowl: a run of one contraction asks for all four
        # candidates of the iterations ahead, and a shrink at one of them
        # ends the run.
        def f(x):
            return (x[0] ** 2 + x[1] ** 2
                    + 0.1 * math.sin(50.0 * x[0]) * math.sin(50.0 * x[1]))
        sizes = []
        found = run(counted(reml._nelder_mead(x0), sizes), f)
        assert found == scipy_nelder_mead(f, x0)
        assert any(n == 2 and m >= 8 for m, n in zip(sizes, sizes[1:]))

    def test_capped_search_asks_ahead(self):
        # Op 25's full table of the I=10 jackknife study benchmark crawls
        # to the iteration cap, almost always by a reflection accepted as
        # the new best vertex.  Asking for the iterations ahead along that
        # path takes it there in 73 requests, not one per iteration.
        [(found, f), *_] = drives(CorrelationStructure.NESTED_EXCHANGEABLE, [25])
        sizes = []
        assert run(counted(reml._nelder_mead(NESTED_X0), sizes), f) == found
        assert found == scipy_nelder_mead(f, NESTED_X0)
        assert found[2] == reml._MAX_ITER and len(sizes) <= 150

    def test_nested_reml_searches(self):
        # Every nested search, full and delete-one tables, of operations
        # 21-28 of the I=10 jackknife study benchmark, among them op 25's
        # full table, which stops at the iteration cap.  Each result of
        # the lockstep drive equals the search run alone on its row's
        # deviance, and SciPy's.
        runs = drives(CorrelationStructure.NESTED_EXCHANGEABLE, range(21, 29))
        assert len(runs) == 8 * 11
        for found, f in runs:
            assert found == run(reml._nelder_mead(NESTED_X0), f)
            assert found == scipy_nelder_mead(f, NESTED_X0)
        assert not runs[4 * 11][0][4]
        assert sum(not found[4] for found, _ in runs) >= 2


class TestBrent:
    """`reml._newton` on an exchangeable deviance ends where Brent's
    bounded search of logit rho = log ta, SciPy's
    `minimize_scalar(method="bounded")`, ends, or lower: the search it
    replaced.  Newton's box 0 <= ta <= _HI holds Brent's."""

    @staticmethod
    def check(cells, lo=RHO_BOUNDS[0], hi=RHO_BOUNDS[1]):
        # from the search's start, rho = 0.05; [lo, hi] is a box of logit
        # rho inside Newton's, where Brent's minimum is no lower than
        # Newton's over the whole box
        x, converged = reml._newton(cells, np.array([0]), np.array([[0.05 / 0.95]]))
        f = rho_deviance(cells, 0)
        agree(x[0, 0], converged[0], f, scipy_brent(f, *RHO_BOUNDS))
        least = scipy_brent(f, lo, hi)[1]
        assert f(math.log(x[0, 0]) if x[0, 0] > 0.0 else -math.inf) <= (
            least + 1e-12 * abs(least))
        return x[0, 0]

    @pytest.mark.parametrize("lo,hi", [(-27.6, 13.8), (-1.0, 1.0), (0.5, 7.0)])
    def test_smooth(self, lo, hi):
        # op 21's optimum is near logit rho -3, inside Newton's box and
        # the first of Brent's, left of the last two
        assert 0.0 < self.check(benchmark_cells(21), lo, hi) < reml._HI

    @pytest.mark.parametrize("lo,hi", [(-3.0, 3.0), (-10.0, 0.3)])
    def test_plateau(self, lo, hi):
        # Without a cluster effect the deviance flattens as rho -> 0 and
        # rises from ta = 0: the search ends there exactly.
        cells = simulate(VarianceComponents(1.0), 2, n_clusters=20, k=8).cells
        assert self.check(cells, lo, hi) == 0.0

    def test_upper_bound(self):
        # tau_alpha2 / sigma_w2 = 1e8 puts the optimum beyond the box.
        cells = simulate(VarianceComponents(1e-8, 1.0), 4).cells
        assert self.check(cells) == reml._HI

    def test_from_zero_inward(self):
        # Replicate 286 of criterion 3's study: from rho = 0.05 the step in
        # x lands on ta = 0, where the deviance still falls inward but the
        # step in x from 0 overshoots; the ladder's shares of it leave 0.
        # The deviance is flat to rounding over 3e-6 of log ta there, so
        # only the value is compared with Brent's.
        sc = SimScenario(n_clusters=10,
                         mixture=PopulationMixture.two_point(0.5, 20, 100, 0.35, 0.35),
                         vc=VarianceComponents(1.0, 0.053, 0.013), reps=1000,
                         master_seed=20260823, fixed_split=True)
        cells = generate_cells(sc, 286)
        x, converged = reml._newton(cells, np.array([0]), np.array([[0.05 / 0.95]]))
        f = rho_deviance(cells, 0)
        least = scipy_brent(f, *RHO_BOUNDS)[1]
        assert converged[0] and 0.0 < x[0, 0] < reml._HI
        assert f(math.log(x[0, 0])) <= least + 1e-12 * abs(least)

    def test_exchangeable_reml_searches(self):
        # Every exchangeable search, full and delete-one tables, of
        # operations 21-28 of the I=10 jackknife study benchmark.
        runs = exchangeable_searches(range(21, 29))
        assert len(runs) == 8 * 11
        for x, converged, f in runs:
            agree(x, converged, f, scipy_brent(f, *RHO_BOUNDS))


def rho_deviance(cells, row):
    """The exchangeable deviance of a table row at logit rho x."""
    return lambda x: deviance(cells, math.exp(x), math.exp(x), row)


def agree(ta, converged, f, want):
    """A converged Newton ratio ta no higher than SciPy's bounded result
    `want` on f, of log ta, and at it unless both are on the flat at a
    bound of Newton's box."""
    assert converged
    x = math.log(ta) if ta > 0.0 else -math.inf
    assert f(x) <= want[1] + 1e-12 * abs(want[1])
    assert x == pytest.approx(want[0], abs=1e-6) or (
        ta in (0.0, reml._HI) and abs(f(x) - want[1]) <= 1e-12 * abs(want[1]))


def exchangeable_searches(ops):
    """Every exchangeable search over the full and delete-one tables of
    the given I=10 benchmark operations: (ta, converged, the deviance of
    the row at logit rho) for each row."""
    runs = []
    newton = reml._newton

    def recorded(cells, rows, x):
        x, converged = newton(cells, rows, x)
        runs.extend((float(x[i, 0]), bool(converged[i]), rho_deviance(cells, r))
                    for i, r in enumerate(rows.tolist()))
        return x, converged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reml, "_newton", recorded)
        for j in ops:
            cells = benchmark_cells(j)
            estimate_variance_components(cells, CorrelationStructure.EXCHANGEABLE,
                                         rows=range(cells.n_clusters + 1))
    return runs


def gradient(cells, tw0, tb0, row=0):
    """The kernel's gradient at one point of one table row, in (tw0, tb0)
    by the chain rule from its box coordinates ta = tb0 and tg = tw0 - tb0."""
    g_a, g_g = reml._kernel(cells, np.array([row]), np.array([tw0]),
                            np.array([tb0]), 2)[3][0]
    return np.array([g_g, g_a - g_g])


def benchmark_cells(j):
    """The trial of operation j of the I=10 jackknife study benchmark."""
    sc = SimScenario(n_clusters=10,
                     mixture=PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5),
                     vc=VarianceComponents(1.0, 0.053, 0.013), reps=1,
                     master_seed=20260823 * 100_000 + j, fixed_split=True)
    return generate_trial(sc, 0).cells


def probe_cells():
    """A table on which Nelder-Mead converges at rho below 1e-11."""
    sc = SimScenario(n_clusters=10,
                     mixture=PopulationMixture.two_point(0.5, 59, 23, 0.2, 0.5),
                     vc=VarianceComponents.from_iccs(1.0, 0.009, 0.2), reps=1,
                     master_seed=239)
    return generate_cells(sc, 0)


class TestRoundKernel:
    def test_rounds_equal_the_untrimmed_kernel(self):
        # Every request of every drive, over the full and delete-one rows
        # of operations 20-28 of the I=10 jackknife study benchmark and of
        # one JIAH-size table, gets the deviances that the kernel gave
        # before its trim, equal by ==.  Only the nested search drives.
        # The drives ask for 65,496 points; those of operations 21-28 and
        # the JIAH-size table asked for 63,281 when each iteration was a
        # request of its own.
        from oracles import reml_round
        from test_blocks import jiah_size_cells

        drive, rounds = reml._drive, []

        def recorded(rows, searches, deviance):
            def kept(at, x):
                got = deviance(at, x)
                rounds.append((cells, at.copy(), x.copy(), got.copy()))
                return got
            return drive(rows, searches, kept)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reml, "_drive", recorded)
            for cells in [benchmark_cells(j) for j in range(20, 29)] + [
                    jiah_size_cells(36, 1.0)]:
                for structure in (CorrelationStructure.EXCHANGEABLE,
                                  CorrelationStructure.NESTED_EXCHANGEABLE):
                    estimate_variance_components(
                        cells, structure, rows=range(cells.n_clusters + 1))
        assert {x.shape[1] for _, _, x, _ in rounds} == {2}
        assert sum(len(at) for _, at, _, _ in rounds) >= 63281
        for cells, at, x, got in rounds:
            want = reml_round(cells, at, x)
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestProfiledLikelihood:
    def test_matches_dense_reml_objective(self):
        # Profiled -2 restricted log-likelihood agrees (up to a constant in
        # the data) with the direct dense evaluation at the profiled sigma2.
        from oracles import dense_block
        from scipy.linalg import block_diag

        vc = VarianceComponents(1.0, 0.12, 0.04)
        t = simulate(vc, 9, n_clusters=6, k=4)
        tw0 = (vc.tau_alpha2 + vc.tau_gamma2) / vc.sigma_w2
        tb0 = vc.tau_alpha2 / vc.sigma_w2
        s2 = float(reml._kernel(t.cells, np.array([0]), np.array([tw0]),
                                np.array([tb0]), 0)[2][0])

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

        n = t.cells.n_obs
        prof_val = deviance(t.cells, tw0, tb0)
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
        for dims in (2, 0):
            with pytest.raises(EstimationError, match="residual"):
                reml._kernel(cells, np.array([0]), np.array([0.2]), np.array([0.1]), dims)

    def test_not_positive_definite_points_are_infinite(self):
        # One call with a row whose design is singular (its one treated
        # cluster dropped) gives inf there, without a RuntimeWarning, and
        # leaves the other points as they are alone; a table without
        # residual variation gives inf at every point.
        rng = np.random.default_rng(3)
        t = from_records(
            [(c, p, s, y) for c, s, k in (("t", 1, 3), ("c1", 0, 4), ("c2", 0, 2))
             for p in (0, 1) for y in rng.standard_normal(k)])
        got = reml._kernel(t.cells, np.array([0, 1, 2, 1]),
                           np.array([0.2, 0.2, 0.5, 3.0]),
                           np.array([0.1, 0.0, 0.5, 1.0]))[0]
        assert np.isinf(got[[1, 3]]).all()
        assert got[0] == deviance(t.cells, 0.2, 0.1)
        assert got[2] == deviance(t.cells, 0.5, 0.5, row=2)
        flat = ObservedTrial(t.cluster_ids, t.periods, t.sequences,
                             0.0 * t.outcomes + 3.7).cells
        assert np.isinf(reml._kernel(flat, np.arange(4), np.full(4, 0.2),
                                     np.full(4, 0.1))[0]).all()

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
                assert deviance(c, tw0, tb0) == pytest.approx(dev, rel=1e-14)
                assert gradient(c, tw0, tb0) == pytest.approx(grad, rel=3e-14)

    def test_gradient_matches_central_differences(self):
        # The analytic gradient of the profiled deviance in (tw0, tb0)
        # against central differences, on equal and unequal cell sizes.
        from test_blocks import jiah_size_cells

        cells = [simulate(VarianceComponents(1.0, 0.12, 0.04), 9).cells,
                 jiah_size_cells(34, 1.0)]
        for c in cells:
            for tw0, tb0 in ((0.05, 0.0), (0.2, 0.1), (0.3, 0.3), (4.0, 2.0)):
                got = gradient(c, tw0, tb0)
                h = 1e-6 * tw0
                want = [(deviance(c, tw0 + h, tb0)
                         - deviance(c, tw0 - h, tb0)) / (2 * h),
                        (deviance(c, tw0, tb0 + h)
                         - deviance(c, tw0, tb0 - h)) / (2 * h)]
                assert got == pytest.approx(want, rel=1e-5, abs=1e-4)


def unequal_cells(index):
    """Input `index` of the unequal-period analysis benchmark, drawn as the
    benchmark draws it (before its CSV round trip): nested-exchangeable
    outcomes on the bundled size table."""
    rng = np.random.default_rng([20260823, index])
    sd_a, sd_g = math.sqrt(0.053), math.sqrt(0.013)
    records = []
    for cid, seq, k0, k1 in pbcrt.io.load_size_table():
        alpha, (g0, g1) = sd_a * rng.standard_normal(), sd_g * rng.standard_normal(2)
        records += [(cid, 0, seq, y) for y in 1.0 + alpha + g0 + rng.standard_normal(k0)]
        records += [(cid, 1, seq, y) for y in
                    1.2 + 0.35 * seq + alpha + g1 + rng.standard_normal(k1)]
    return from_records(records).cells


def random_cells(seed):
    """A table of 4 to 40 clusters at random rho, cac and outcome scale."""
    rng = np.random.default_rng(seed)
    vc = VarianceComponents.from_iccs(10.0 ** rng.uniform(-3, 5), rng.uniform(0, 0.99),
                                      rng.uniform(0, 1))
    sc = SimScenario(n_clusters=2 * int(rng.integers(2, 21)), vc=vc, reps=1,
                     mixture=PopulationMixture.two_point(
                         0.5, int(rng.integers(2, 20)), int(rng.integers(2, 40)), 0.2, 0.5),
                     master_seed=seed)
    return generate_cells(sc, 0)


class TestKernel:
    """`reml._kernel`'s value mode against the kernel as it was before its
    derivatives joined it, and its exact Hessian against central differences
    of its own gradient, on the reference inputs of both REML benchmarks and
    on random tables."""

    TABLES = ([("i10", j) for j in range(48)] + [("i28", j) for j in range(8)]
              + [("random", s) for s in range(12)])

    @staticmethod
    def cells(source, j):
        return {"i10": benchmark_cells, "i28": unequal_cells, "random": random_cells}[source](j)

    @staticmethod
    def points(cells, d, seed):
        """Every row at a random point, on the face ta = 0, and on tg = 0."""
        rows = np.arange(cells.n_clusters + 1)
        x = np.random.default_rng(seed).uniform(0.0, 0.5, (3, rows.size, d)) ** 2
        x[1, :, 0] = 0.0
        x[2, :, -1] = 0.0
        return rows, x

    @pytest.mark.parametrize("source,j", TABLES)
    def test_value_mode_equals_the_untrimmed_kernel(self, source, j):
        from oracles import _round_deviance

        cells = self.cells(source, j)
        for d in (1, 2):
            rows, points = self.points(cells, d, j)
            for x in points:
                tw, tb = x.sum(axis=1), x[:, 0]
                dev = reml._kernel(cells, rows, tw, tb)[0]
                assert np.array_equal(dev, _round_deviance(cells, rows, tw, tb))
                assert np.array_equal(reml._kernel(cells, rows, tw, tb, d)[0], dev)

    @pytest.mark.parametrize("source,j", TABLES)
    def test_hessian_is_the_gradient_s_derivative(self, source, j):
        cells = self.cells(source, j)
        for d in (1, 2):
            rows, points = self.points(cells, d, 100 + j)
            for x in points:
                hess = reml._kernel(cells, rows, x.sum(axis=1), x[:, 0], d)[4]
                scale = np.abs(hess).max(axis=(1, 2))
                assert (np.abs(hess - np.swapaxes(hess, 1, 2)).max(axis=(1, 2))
                        <= 1e-12 * scale).all()
                h, diff = 1e-5 * (x + 1e-2), np.empty_like(hess)
                for i in range(d):
                    up, down = x.copy(), x.copy()
                    up[:, i] += h[:, i]
                    down[:, i] -= h[:, i]
                    g_up, g_down = (reml._kernel(cells, rows, y.sum(axis=1), y[:, 0], d)[3]
                                    for y in (up, down))
                    diff[:, :, i] = (g_up - g_down) / (up[:, i] - down[:, i])[:, None]
                assert (np.abs(hess - diff).max(axis=(1, 2)) <= 1e-6 * scale).all()
