import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcrt import CorrelationStructure, VarianceComponents, WeightingScheme
from pbcrt.blocks import inverse_cell_terms, structure_taus

from oracles import block_logdet, dense_block, eme_block_terms, neme_block_terms

STRUCTS = [CorrelationStructure.EXCHANGEABLE,
           CorrelationStructure.NESTED_EXCHANGEABLE]


def random_vc(rng):
    return VarianceComponents(sigma_w2=float(rng.uniform(0.1, 3.0)),
                              tau_alpha2=float(rng.uniform(0.0, 1.0)),
                              tau_gamma2=float(rng.uniform(0.0, 1.0)))


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
                c00, c01, c11, logdet = inverse_cell_terms(
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
            c00, c01, c11, _ = inverse_cell_terms(k, k, vc.sigma_w2, tw, tb)
            t = neme_block_terms(k, vc)
            s = vc.sigma_w2
            # a = within-cell row sum of the inverse, times K
            a = k / s - k * k * float(c00) / s
            assert a == pytest.approx(t.d * k + t.f * k * (k - 1), abs=1e-12)
            assert -k * k * float(c01) / s == pytest.approx(t.b, abs=1e-12)

    def test_independence_collapse(self):
        c00, c01, c11, logdet = inverse_cell_terms(3, 5, 2.0, 0.0, 0.0)
        assert float(c00) == 0.0 and float(c01) == 0.0 and float(c11) == 0.0
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
