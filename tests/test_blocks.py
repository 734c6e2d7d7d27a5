import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcrt import (CorrelationStructure, ObservedTrial, PopulationMixture,
                   SimScenario, VarianceComponents, WeightingScheme, generate_trial)
from pbcrt.blocks import inverse_cell_terms, normal_equations, structure_taus
from pbcrt.io import load_size_table

from oracles import (block_logdet, dense_block, eme_block_terms, neme_block_terms,
                     normal_equations_elementwise, normal_equations_exact)

STRUCTS = [CorrelationStructure.EXCHANGEABLE,
           CorrelationStructure.NESTED_EXCHANGEABLE]


def random_vc(rng):
    return VarianceComponents(sigma_w2=float(rng.uniform(0.1, 3.0)),
                              tau_alpha2=float(rng.uniform(0.0, 1.0)),
                              tau_gamma2=float(rng.uniform(0.0, 1.0)))


def cell_terms(k0, k1, s, tw, tb):
    """(c00, c01, c11, logdet) of R^-1 = (1/s)(I - U C U'), from the basis
    e = (s, tw, tb) / D that `inverse_cell_terms` returns."""
    (e_s, e_w, e_b), logdet = inverse_cell_terms(k0, k1, s, tw, tb)
    return ((1.0 - s * (e_s + k1 * e_w)) / k0, s * e_b,
            (1.0 - s * (e_s + k0 * e_w)) / k1, logdet)


def dense_inverse_entries(structure, k, vc):
    """(diag, within-period off-diag, cross-period) entries of the dense inverse."""
    r = np.linalg.inv(dense_block(structure, k, k, vc))
    d = r[0, 0]
    f = r[0, 1] if k > 1 else None
    g = r[0, k]
    return d, f, g


class TestClosedFormsAgainstDense:
    def test_eme_matches_dense_inverse(self):
        # Closed forms vs dense inverses, K in 1..8 x 100 random components.
        rng = np.random.default_rng(11)
        for k in range(1, 9):
            for _ in range(100):
                vc = random_vc(rng)
                vc = VarianceComponents(vc.sigma_w2, vc.tau_alpha2, 0.0)
                t = eme_block_terms(k, vc)
                d, f, g = dense_inverse_entries(
                    CorrelationStructure.EXCHANGEABLE, k, vc)
                assert t.d == pytest.approx(d, abs=1e-9)
                if k > 1:
                    assert t.f == pytest.approx(f, abs=1e-9)
                assert t.g == pytest.approx(g, abs=1e-9)

    def test_neme_matches_dense_inverse(self):
        rng = np.random.default_rng(12)
        for k in range(1, 9):
            for _ in range(100):
                vc = random_vc(rng)
                t = neme_block_terms(k, vc)
                d, f, g = dense_inverse_entries(
                    CorrelationStructure.NESTED_EXCHANGEABLE, k, vc)
                assert t.d == pytest.approx(d, abs=1e-9)
                if k > 1:
                    assert t.f == pytest.approx(f, abs=1e-9)
                assert t.g == pytest.approx(g, abs=1e-9)

    def test_neme_grid_unchanged_by_factored_form(self):
        # The factored denominators reproduce the direct formulas,
        # (s + K t)^2 - (K ta)^2 and t - K ta^2 / (s + K t), on the grid
        # of the dense check.
        rng = np.random.default_rng(12)
        for k in range(1, 9):
            for _ in range(100):
                vc = random_vc(rng)
                s, ta = vc.sigma_w2, vc.tau_alpha2
                t = ta + vc.tau_gamma2
                denom = (s + k * t) ** 2 - (k * ta) ** 2
                e = t - k * ta * ta / (s + k * t)
                want = dict(d=(s + (k - 1) * e) / (s + k * e) / s,
                            f=-e / (s + k * e) / s, g=-ta / denom,
                            a=k * (s + k * t) / denom, b=-k * k * ta / denom)
                got = neme_block_terms(k, vc)
                for name, value in want.items():
                    assert getattr(got, name) == pytest.approx(value, abs=1e-12)

    def test_neme_extreme_components(self):
        # A residual variance tiny against the cluster variance makes the
        # direct denominator cancel to zero; the factored one stays exact.
        k, s, ta = 50, Fraction(1e-10), Fraction(1e6)
        got = neme_block_terms(k, VarianceComponents(1e-10, 1e6, 0.0))
        denom = (s + k * ta) ** 2 - (k * ta) ** 2
        e = ta - k * ta * ta / (s + k * ta)
        want = dict(d=(s + (k - 1) * e) / (s + k * e) / s,
                    f=-e / (s + k * e) / s, g=-ta / denom,
                    a=k * (s + k * ta) / denom, b=-k * k * ta / denom)
        for name, value in want.items():
            assert math.isfinite(getattr(got, name))
            assert getattr(got, name) == pytest.approx(float(value), rel=1e-12)

    def test_weighted_terms_scale_by_size(self):
        vc = VarianceComponents(1.3, 0.2, 0.05)
        for k in (1, 3, 7):
            u = neme_block_terms(k, vc)
            w = neme_block_terms(k, vc, WeightingScheme.INVERSE_CLUSTER_PERIOD_SIZE)
            for name in ("d", "f", "g", "a", "b"):
                assert getattr(w, name) == pytest.approx(getattr(u, name) / k)

    def test_aggregates(self):
        vc = VarianceComponents(0.9, 0.31, 0.07)
        for k in (1, 2, 5):
            t = neme_block_terms(k, vc)
            assert t.a == pytest.approx(k * (t.d + (k - 1) * t.f))
            assert t.b == pytest.approx(k * k * t.g)
            assert t.a > 0


class TestGeneralCellTerms:
    def test_matches_dense_unequal_sizes(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k0, k1 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            vc = random_vc(rng)
            for structure in STRUCTS:
                tw, tb = structure_taus(structure, vc)
                c00, c01, c11, logdet = cell_terms(
                    np.array([k0]), np.array([k1]), vc.sigma_w2, tw, tb)
                r = dense_block(structure, k0, k1, vc)
                rinv = np.linalg.inv(r)
                s = vc.sigma_w2
                # R^-1 = (1/s)(I - U C U') elementwise
                assert rinv[0, 0] == pytest.approx(1.0 / s - c00[0] / s, abs=1e-9)
                assert rinv[0, k0] == pytest.approx(-c01[0] / s, abs=1e-9)
                assert rinv[k0, k0] == pytest.approx(1.0 / s - c11[0] / s, abs=1e-9)
                if k0 > 1:
                    assert rinv[0, 1] == pytest.approx(-c00[0] / s, abs=1e-9)
                sign, ld = np.linalg.slogdet(r)
                assert sign > 0
                assert logdet[0] == pytest.approx(ld, abs=1e-9)

    def test_reduces_to_equal_size_terms(self):
        vc = VarianceComponents(1.1, 0.4, 0.2)
        for k in (1, 4, 6):
            tw, tb = structure_taus(CorrelationStructure.NESTED_EXCHANGEABLE, vc)
            c00, c01, c11, _ = cell_terms(k, k, vc.sigma_w2, tw, tb)
            t = neme_block_terms(k, vc)
            s = vc.sigma_w2
            # a = within-cell row sum of the inverse, times K
            a = k / s - k * k * c00[0] / s
            assert a == pytest.approx(t.d * k + t.f * k * (k - 1), abs=1e-12)
            assert -k * k * c01[0] / s == pytest.approx(t.b, abs=1e-12)

    def test_independence_collapse(self):
        c00, c01, c11, logdet = cell_terms(3, 5, 2.0, 0.0, 0.0)
        assert c00[0] == 0.0 and c01[0] == 0.0 and c11[0] == 0.0
        assert float(logdet) == pytest.approx(8 * math.log(2.0))

    def test_zero_gamma_collapse(self):
        # Nested terms with tau_gamma2 = 0 equal exchangeable terms.
        vc_n = VarianceComponents(1.0, 0.3, 0.0)
        for k in range(1, 7):
            e = eme_block_terms(k, vc_n)
            n = neme_block_terms(k, vc_n)
            assert n.d == pytest.approx(e.d, abs=1e-14)
            assert n.g == pytest.approx(e.g, abs=1e-14)
            assert n.a == pytest.approx(e.a, abs=1e-14)
            assert n.b == pytest.approx(e.b, abs=1e-14)


class TestLogdet:
    def test_block_logdet_matches_slogdet(self):
        rng = np.random.default_rng(14)
        for structure in [CorrelationStructure.INDEPENDENCE] + STRUCTS:
            for k in (1, 2, 5, 8):
                vc = random_vc(rng)
                _, ld = np.linalg.slogdet(dense_block(structure, k, k, vc))
                assert block_logdet(structure, k, vc) == pytest.approx(ld, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 30),
       s=st.floats(0.05, 5.0),
       ta=st.floats(0.0, 2.0),
       tg=st.floats(0.0, 2.0))
def test_inverse_terms_are_finite_and_spd(k, s, ta, tg):
    vc = VarianceComponents(s, ta, tg)
    t = neme_block_terms(k, vc)
    assert all(math.isfinite(x) for x in (t.d, t.f, t.g, t.a, t.b))
    # A is a quadratic form of the inverse with the cell indicator: positive.
    assert t.a > 0


def test_monotone_downweighting_of_large_clusters():
    # Per-individual weight A/K decreases with cluster size once rho > 0.
    vc = VarianceComponents(1.0, 0.1, 0.0)
    per = [eme_block_terms(k, vc).a / k for k in range(1, 60)]
    assert all(a > b for a, b in zip(per, per[1:]))


def jiah_size_cells(seed, mean):
    """Cell statistics of random outcomes on the bundled unequal size table."""
    rng = np.random.default_rng(seed)
    cids, pers, seqs, ys = [], [], [], []
    for cid, seq, k0, k1 in load_size_table():
        alpha = 0.2 * rng.standard_normal()
        cids += [cid] * (k0 + k1)
        pers += [0] * k0 + [1] * k1
        seqs += [seq] * (k0 + k1)
        ys += list(mean + alpha + rng.standard_normal(k0))
        ys += list(mean + 0.2 + 0.35 * seq + alpha + rng.standard_normal(k1))
    return ObservedTrial(cids, pers, seqs, ys).cells


def equal_size_cells(seed, mean):
    sc = SimScenario(n_clusters=10,
                     mixture=PopulationMixture.two_point(0.5, 20, 100, 0.2, 0.5),
                     vc=VarianceComponents(1.0, 0.053, 0.013), reps=1,
                     master_seed=seed, fixed_sizes=True, mu=mean)
    return generate_trial(sc, 0).cells


class TestAssemblyAccuracy:
    """The one-product assembly against exact rational arithmetic.

    The error of M is its largest entry error over its largest entry.  The
    error of y'Wy - v'M^-1 v (both solved by np.linalg.solve) is taken in
    units of y'y, the weighted sum of the squared outcomes it is computed
    from: at outcome mean 100, y'Wy and v'M^-1 v nearly cancel, and no
    assembly from float cell statistics is exact to better than rounding
    of y'y.  The assembly must be at least as accurate as the elementwise
    sum of C's entries, on the quadratic form up to a few units of that
    rounding.
    """

    RATIOS = (0.0, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)
    EPS = float(np.finfo(np.float64).eps)

    @staticmethod
    def errors(assemble, cells, tw, tb, weight, exact):
        m, v, yy, _ = assemble(cells, tw, tb, weight)
        m_x, _, _, quad_x = exact
        scale = max(abs(x) for row in m_x for x in row)
        err_m = max(abs(Fraction(float(m[i, j])) - m_x[i][j])
                    for i in range(3) for j in range(3)) / scale
        quad = yy - float(v @ np.linalg.solve(m, v))
        y_y = np.sum((cells.within + cells.k0 * cells.mean0**2
                      + cells.k1 * cells.mean1**2)
                     / (1.0 if weight is None else weight))
        return float(err_m), float(abs(Fraction(quad) - quad_x)) / float(y_y)

    @pytest.mark.parametrize("mean", [1.0, 100.0])
    @pytest.mark.parametrize("table,weighted", [("equal", False),
                                                ("equal", True),
                                                ("jiah", False)])
    def test_matches_exact_at_least_as_well(self, table, weighted, mean):
        cells = (equal_size_cells(31, mean) if table == "equal"
                 else jiah_size_cells(32, mean))
        weight = cells.k0 if weighted else None
        new, old = np.zeros(2), np.zeros(2)
        for ratio in self.RATIOS:
            for cac in (0.0, 0.5, 1.0):
                tw, tb = ratio, cac * ratio
                exact = normal_equations_exact(cells, tw, tb, weight)
                new = np.maximum(new, self.errors(normal_equations, cells, tw,
                                                  tb, weight, exact))
                old = np.maximum(old, self.errors(normal_equations_elementwise,
                                                  cells, tw, tb, weight, exact))
        print(f"{table} weighted={weighted} mean={mean}: max error of M "
              f"{new[0]:.2e} (elementwise {old[0]:.2e}), of the quadratic "
              f"form {new[1] / self.EPS:.2f} (elementwise "
              f"{old[1] / self.EPS:.2f}) units of rounding of y'y")
        assert new[0] <= old[0] and new[0] <= 1e-15
        assert new[1] <= max(old[1], 4.0 * self.EPS)

    def test_log_determinants_match_elementwise(self):
        cells = jiah_size_cells(33, 1.0)
        for ratio in self.RATIOS:
            for cac in (0.0, 0.5, 1.0):
                got = normal_equations(cells, ratio, cac * ratio)[3]
                want = normal_equations_elementwise(cells, ratio, cac * ratio)[3]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
