import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcrt import (
    EstimatorKind,
    FitOptions,
    PopulationMixture,
    UnsupportedWeightingError,
    VarianceComponents,
    emew_bias,
    estimand_weights,
    fit,
    fit_with_inference,
    optimal_icc,
    optimal_sampling_prob,
    plim,
    true_cate,
    true_pate,
)
from pbcrt.estimands import eme_weight, neme_weight

from oracles import from_cell_means

INFORMATIVE = PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5)
VC = VarianceComponents(1.0, 0.053, 0.013)


def vc_from_rho(rho, cac=1.0):
    return VarianceComponents.from_iccs(1.0, rho, cac)


UNEQUAL = PopulationMixture.two_point(0.5, (20, 40), (100, 60), 0.2, 0.5)
REFUSAL = ("inverse cluster-period size weights with a correlated structure "
           "require equal period sizes within every cluster")


@pytest.mark.parametrize("kind", [EstimatorKind.EMEW, EstimatorKind.NEMEW,
                                  EstimatorKind.EME, EstimatorKind.NEME,
                                  EstimatorKind.IEEW, EstimatorKind.FEW])
def test_unequal_periods_refused_by_one_check(kind):
    # The weighted mixed kinds refuse unequal period sizes with one error
    # and one message, in their fits and in every closed form of the
    # mixture; the other kinds that fit the table or its means do not.
    trial = from_cell_means(
        (f"c{i}-{arm}-{j}", arm, s.k0, s.k1, 0.0, arm * s.delta + 0.1 * j)
        for i, s in enumerate(UNEQUAL.subpops) for arm in (0, 1) for j in range(2))
    options = FitOptions(vc=VC)
    calls = [lambda: fit(trial, kind, options).delta_hat,
             lambda: fit_with_inference(trial, kind, options).jackknife_var,
             lambda: plim(kind, UNEQUAL, VC)]
    if not (kind.weighted and kind.mixed):
        assert all(math.isfinite(call()) for call in calls)
        return
    calls.append(lambda: estimand_weights(kind, UNEQUAL, VC))
    if kind is EstimatorKind.EMEW:
        calls.append(lambda: emew_bias(UNEQUAL, VC))
    for call in calls:
        with pytest.raises(UnsupportedWeightingError) as info:
            call()
        assert str(info.value) == REFUSAL


class TestMixture:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PopulationMixture([(0.5, 10, 0.2), (0.4, 20, 0.3)])

    def test_rejects_bad_sizes_and_probs(self):
        with pytest.raises(ValueError):
            PopulationMixture([(1.0, 0, 0.2)])
        with pytest.raises(ValueError):
            PopulationMixture([(0.0, 5, 0.2), (1.0, 5, 0.3)])

    @pytest.mark.parametrize("sizes", [(20,), [5], (20, 30, 40), []])
    def test_rejects_malformed_size_pairs(self, sizes):
        with pytest.raises(ValueError, match=r"subpopulation 1 needs one size "
                                             r"or a \(k0, k1\) pair"):
            PopulationMixture([(0.5, 10, 0.2), (0.5, sizes, 0.3)])

    @pytest.mark.parametrize("row", [
        (0.5, np.array([20, 30]), 0.3), (0.5, None, 0.3), (0.5, "20", 0.3),
        (0.5, (20, "30"), 0.3), (0.5, True, 0.3), ("0.5", 20, 0.3),
        (0.5, 20, None), (0.5, 20, "0.3"), (None, 20, 0.3)])
    def test_rejects_non_numbers(self, row):
        # A size, probability or effect that is not a real number is a
        # ValueError naming its row, not a TypeError or a silent reading.
        with pytest.raises(ValueError) as info:
            PopulationMixture([(0.5, 10, 0.2), row])
        assert str(info.value) == f"subpopulation 1 needs real numbers, got {row!r}"

    def test_numpy_scalars_accepted(self):
        mix = PopulationMixture([(np.float64(0.5), np.int64(10), np.float64(0.2)),
                                 (0.5, (np.int32(20), 30.0), 0.3)])
        assert [(s.k0, s.k1) for s in mix.subpops] == [(10, 10), (20, 30)]

    def test_period_size_pairs(self):
        mix = PopulationMixture([(0.4, (10, 30), 0.2), (0.6, 5, 0.1)])
        assert not mix.table.equal_period_sizes
        assert mix.subpops[0].k0 == 10 and mix.subpops[0].k1 == 30


class TestTruths:
    def test_informative_values(self):
        assert true_pate(INFORMATIVE) == pytest.approx(0.45, abs=1e-15)
        assert true_cate(INFORMATIVE) == pytest.approx(0.35, abs=1e-15)

    def test_homogeneous_effect(self):
        mix = PopulationMixture.two_point(0.5, 20, 100, 0.35, 0.35)
        assert true_pate(mix) == pytest.approx(0.35)
        assert true_cate(mix) == pytest.approx(0.35)

    def test_single_subpop(self):
        mix = PopulationMixture([(1.0, 7, 0.9)])
        assert true_pate(mix) == 0.9
        assert true_cate(mix) == 0.9

    def test_equal_sizes_pate_equals_cate(self):
        mix = PopulationMixture.two_point(0.3, 12, 12, 0.1, 0.8)
        assert true_pate(mix) == pytest.approx(true_cate(mix))

    def test_pate_uses_post_period_sizes(self):
        mix = PopulationMixture([(0.5, (50, 20), 0.2), (0.5, (10, 100), 0.5)])
        assert true_pate(mix) == pytest.approx((20 * 0.2 + 100 * 0.5) / 120)


class TestPlims:
    def test_always_consistent_rows(self):
        assert plim(EstimatorKind.IEE, INFORMATIVE) == pytest.approx(0.45)
        assert plim(EstimatorKind.IEEW, INFORMATIVE) == pytest.approx(0.35)
        assert plim(EstimatorKind.FEW, INFORMATIVE) == pytest.approx(0.35)

    def test_fe_equal_period_sizes_is_pate(self):
        assert plim(EstimatorKind.FE, INFORMATIVE) == pytest.approx(0.45)

    def test_fe_unequal_period_sizes(self):
        mix = PopulationMixture([(0.5, (10, 40), 0.2), (0.5, (60, 30), 0.5)])
        h1, h2 = 10 * 40 / 50, 60 * 30 / 90
        expect = (h1 * 0.2 + h2 * 0.5) / (h1 + h2)
        assert plim(EstimatorKind.FE, mix) == pytest.approx(expect, abs=1e-12)

    def test_mixed_zero_icc_collapse(self):
        vc0 = VarianceComponents(1.0)
        assert plim(EstimatorKind.EME, INFORMATIVE, vc0) == pytest.approx(0.45)
        assert plim(EstimatorKind.EMEW, INFORMATIVE, vc0) == pytest.approx(0.35)
        assert plim(EstimatorKind.NEME, INFORMATIVE, vc0) == pytest.approx(0.45)
        assert plim(EstimatorKind.NEMEW, INFORMATIVE, vc0) == pytest.approx(0.35)

    def test_equal_sizes_no_ics(self):
        mix = PopulationMixture.two_point(0.5, 30, 30, 0.2, 0.5)
        for kind in EstimatorKind:
            val = plim(kind, mix, VC)
            target = 0.35  # pATE = cATE here
            assert val == pytest.approx(target, abs=1e-12), kind

    def test_mixed_needs_vc(self):
        with pytest.raises(ValueError):
            plim(EstimatorKind.EME, INFORMATIVE)

    def test_mixed_rejects_unequal_period_sizes(self):
        mix = PopulationMixture([(0.5, (10, 40), 0.2), (0.5, (60, 30), 0.5)])
        for kind in (EstimatorKind.EMEW, EstimatorKind.NEMEW):
            with pytest.raises(UnsupportedWeightingError):
                plim(kind, mix, VC)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(1, 300),
                                   st.floats(-2.0, 2.0)), min_size=1, max_size=5),
           sigma_w2=st.floats(0.1, 10.0),
           taus=st.tuples(*[st.just(0.0) | st.floats(1e-3, 5.0)] * 2))
    def test_equal_periods_match_closed_forms(self, rows, sigma_w2, taus):
        # With equal period sizes every limit is a weighted mean of the
        # effects: pATE, cATE, the fe weights K0 K1 / (K0 + K1), or the
        # paper's mixed-model cluster weights g, times K when unweighted.
        total = sum(w for w, _, _ in rows)
        mix = PopulationMixture([(w / total, k, d) for w, k, d in rows])
        vc = VarianceComponents(sigma_w2, *taus)
        p, k, _, d = mix.arrays()
        g_eme = eme_weight(k, vc.rho)
        g_neme = neme_weight(k, vc.rho_wp, vc.rho_bp)
        weights = {EstimatorKind.IEE: k, EstimatorKind.IEEW: 1.0,
                   EstimatorKind.FE: k / 2.0, EstimatorKind.FEW: 1.0,
                   EstimatorKind.EME: g_eme * k, EstimatorKind.EMEW: g_eme,
                   EstimatorKind.NEME: g_neme * k, EstimatorKind.NEMEW: g_neme}
        for kind, g in weights.items():
            g = p * g * np.ones_like(k)
            assert plim(kind, mix, vc) == pytest.approx(
                np.sum(g * d) / np.sum(g), abs=1e-12), kind
        assert plim(EstimatorKind.IEE, mix) == pytest.approx(true_pate(mix), abs=1e-12)
        assert plim(EstimatorKind.IEEW, mix) == pytest.approx(true_cate(mix), abs=1e-12)

    @pytest.mark.parametrize("rows", [
        [(1, (20, 40), 0.2), (1, (100, 60), 0.5)],
        [(1, 20, 0.2), (2, 100, 0.5)],
        [(1, (5, 9), -0.4), (2, (12, 3), 0.7), (1, 30, 0.1)],
        [(2, 3, 0.3), (1, 8, -0.2)],
    ])
    def test_limits_are_fits_on_exact_proportions(self, rows):
        # A trial with n clusters per arm of each (n, sizes, delta) row,
        # every record at its cell mean 0 or arm x delta, is the mixture
        # with probabilities in proportion to n: each fit with the true
        # components is the limit, up to rounding.
        total = sum(n for n, _, _ in rows)
        mix = PopulationMixture([(n / total, k, d) for n, k, d in rows])
        trial = from_cell_means(
            (f"c{i}-{arm}-{j}", arm, s.k0, s.k1, 0.0, arm * s.delta)
            for i, s in enumerate(mix.subpops) for arm in (0, 1)
            for j in range(rows[i][0]))
        for kind in EstimatorKind:
            try:
                want = plim(kind, mix, VC)
            except UnsupportedWeightingError:
                assert not mix.table.equal_period_sizes and kind.weighted and kind.mixed
                with pytest.raises(UnsupportedWeightingError):
                    fit(trial, kind, FitOptions(vc=VC))
                continue
            got = fit(trial, kind, FitOptions(vc=VC)).delta_hat
            assert got == pytest.approx(want, abs=1e-12), kind

    def test_direct_sum_evaluation(self):
        rho = VC.rho
        g20, g100 = eme_weight(20, rho), eme_weight(100, rho)
        expect = (0.5 * g20 * 20 * 0.2 + 0.5 * g100 * 100 * 0.5) \
            / (0.5 * g20 * 20 + 0.5 * g100 * 100)
        assert plim(EstimatorKind.EME, INFORMATIVE, VC) == pytest.approx(
            expect, abs=1e-14)

    def test_cac_one_nested_equals_exchangeable(self):
        # With no cluster-period effect the nested weight is the
        # exchangeable weight divided by (1 - rho), which cancels.
        vc = VarianceComponents(1.0, 0.066, 0.0)
        assert plim(EstimatorKind.NEME, INFORMATIVE, vc) == pytest.approx(
            plim(EstimatorKind.EME, INFORMATIVE, vc), abs=1e-12)
        assert plim(EstimatorKind.NEMEW, INFORMATIVE, vc) == pytest.approx(
            plim(EstimatorKind.EMEW, INFORMATIVE, vc), abs=1e-12)


class TestEstimandWeights:
    def test_zero_icc_all_ones(self):
        w = estimand_weights(EstimatorKind.EMEW, INFORMATIVE,
                             VarianceComponents(1.0))
        assert w == pytest.approx((1.0, 1.0))

    def test_near_one_icc_balances(self):
        w = estimand_weights(EstimatorKind.EMEW, INFORMATIVE,
                             vc_from_rho(1.0 - 1e-9))
        assert w == pytest.approx((1.0, 1.0), abs=1e-6)

    def test_normalization(self):
        p, _, _, _ = INFORMATIVE.arrays()
        for kind, cac in ((EstimatorKind.EMEW, 1.0), (EstimatorKind.NEMEW, 0.8)):
            for rho in (0.01, 0.05, 0.3, 0.9):
                w = estimand_weights(kind, INFORMATIVE, vc_from_rho(rho, cac))
                assert float(np.dot(p, w)) == pytest.approx(1.0, abs=1e-14)
                assert all(x > 0 for x in w)

    def test_nested_spread_dominates_exchangeable_spread(self):
        grid = np.linspace(1e-4, 0.999, 2000)
        eme_spread = max(
            abs(np.subtract(*estimand_weights(
                EstimatorKind.EMEW, INFORMATIVE, vc_from_rho(r))))
            for r in grid)
        neme_spread = max(
            abs(np.subtract(*estimand_weights(
                EstimatorKind.NEMEW, INFORMATIVE, vc_from_rho(r, 0.8))))
            for r in grid)
        assert neme_spread > eme_spread


class TestWorstCaseFormulas:
    def test_optimal_icc_values(self):
        assert optimal_icc(20, 100) == pytest.approx(
            1.0 / (1.0 + math.sqrt(4000)), abs=1e-15)
        assert optimal_icc(20, 100) == pytest.approx(0.015566, abs=1e-6)
        assert optimal_icc(1, 1) == pytest.approx(0.414214, abs=1e-6)

    def test_optimal_icc_argmax_by_grid(self):
        # The closed form maximizes the normalized weight spread
        # lambda_1 - lambda_2 (equivalently the bias), not the raw gap.
        grid = np.arange(1e-4, 1.0, 1e-4)
        g1, g2 = eme_weight(20, grid), eme_weight(100, grid)
        spread = (g1 - g2) / (0.5 * g1 + 0.5 * g2)
        best = grid[int(np.argmax(spread))]
        assert abs(best - optimal_icc(20, 100)) < 2e-4

    def test_optimal_sampling_prob_symmetric(self):
        assert optimal_sampling_prob(50, 50, 0.3) == 0.5

    def test_optimal_sampling_prob_zeta_point_one(self):
        rho = optimal_icc(20, 200)
        assert optimal_sampling_prob(20, 200, rho) == pytest.approx(0.46, abs=0.01)

    def test_optimal_sampling_prob_argmax_by_grid(self):
        rho = optimal_icc(20, 100)
        vc = vc_from_rho(rho)
        grid = np.arange(1e-3, 1.0, 1e-3)
        biases = [abs(emew_bias(
            PopulationMixture.two_point(p, 20, 100, 0.2, 0.5), vc))
            for p in grid]
        best = grid[int(np.argmax(biases))]
        assert abs(best - optimal_sampling_prob(20, 100, rho)) < 1e-3


class TestEmewBias:
    def test_homogeneous_effects_no_bias(self):
        mix = PopulationMixture.two_point(0.5, 20, 100, 0.4, 0.4)
        assert emew_bias(mix, vc_from_rho(0.05)) == 0.0

    def test_equal_sizes_no_bias(self):
        mix = PopulationMixture.two_point(0.5, 40, 40, 0.2, 0.5)
        assert emew_bias(mix, vc_from_rho(0.05)) == pytest.approx(0.0, abs=1e-15)

    def test_small_relative_bias_at_reference_sizes(self):
        vc = vc_from_rho(optimal_icc(20, 100))
        b = emew_bias(INFORMATIVE, vc)
        assert abs(b) / true_cate(INFORMATIVE) < 0.06
        assert b != 0.0

    def test_requires_two_subpops(self):
        with pytest.raises(ValueError):
            emew_bias(PopulationMixture([(1.0, 10, 0.3)]), vc_from_rho(0.1))

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(0.01, 0.99), k1=st.integers(1, 200),
           k2=st.integers(1, 200),
           d1=st.floats(-2, 2), d2=st.floats(-2, 2),
           rho=st.floats(0.0, 0.99))
    def test_bias_equals_plim_minus_cate(self, p, k1, k2, d1, d2, rho):
        mix = PopulationMixture.two_point(p, k1, k2, d1, d2)
        vc = vc_from_rho(rho)
        direct = plim(EstimatorKind.EMEW, mix, vc) - true_cate(mix)
        assert emew_bias(mix, vc) == pytest.approx(direct, abs=1e-12)
