import dataclasses
import math
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cycletheta.enumeration import (
    Genus2Coefficient,
    NotPositiveDefinite,
    inner_product_histogram,
    rep_number,
    rep_number_genus2,
    theta_qseries,
    vectors_with_norm,
)
from cycletheta.quadlattice import BUILTIN_GRAMS, named_lattice, new_lattice


def brute_vectors(lat, mu, m):
    """Independent oracle: box scan with bounds from the inverse Gram."""
    from cycletheta.quadlattice import _mat_inv_fraction

    n = lat.rank
    mu = tuple(F(x) for x in mu) if mu else tuple(F(0) for _ in range(n))
    ginv = _mat_inv_fraction(lat.gram)
    bounds = [math.isqrt(math.ceil(2 * F(m) * ginv[i][i])) + 2 for i in range(n)]
    out = []

    def rec(i, coords):
        if i == n:
            vec = tuple(mu[j] + coords[j] for j in range(n))
            if lat.quadratic(vec) == m:
                out.append(vec)
            return
        for v in range(-bounds[i] - 1, bounds[i] + 2):
            rec(i + 1, coords + [v])

    rec(0, [])
    return sorted(out)


class TestVectorsWithNorm:
    def test_a1_unit(self):
        lat = named_lattice("A1")
        assert vectors_with_norm(lat, None, 1) == [(-1,), (1,)]

    def test_a1_half_coset(self):
        lat = named_lattice("A1")
        vecs = vectors_with_norm(lat, (F(1, 2),), F(1, 4))
        assert vecs == [(F(-1, 2),), (F(1, 2),)]

    def test_e8_roots(self):
        lat = named_lattice("E8")
        assert len(vectors_with_norm(lat, None, 1)) == 240

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            vectors_with_norm(named_lattice("U"), None, 1)

    @pytest.mark.parametrize(
        "name,m",
        [("A1", 4), ("A2", 3), ("A3", 2), ("D4", 2)],
    )
    def test_matches_box_scan(self, name, m):
        lat = named_lattice(name)
        assert vectors_with_norm(lat, None, m) == brute_vectors(lat, None, m)

    def test_matches_box_scan_on_cosets(self):
        from cycletheta.quadlattice import direct_sum, discriminant_form

        a1 = named_lattice("A1")
        for lat in [a1, named_lattice("A2"), direct_sum(a1, a1), named_lattice("A3")]:
            df = discriminant_form(lat)
            for lam in df.cosets:
                for k in range(4):
                    m = df.q_table[lam] + k
                    assert vectors_with_norm(lat, lam, m) == brute_vectors(lat, lam, m)

    def test_zero_norm(self):
        lat = named_lattice("D4")
        assert vectors_with_norm(lat, None, 0) == [(0, 0, 0, 0)]
        from cycletheta.quadlattice import discriminant_form

        df = discriminant_form(lat)
        for lam in df.cosets:
            if any(lam):
                assert vectors_with_norm(lat, lam, 0) == []


class TestRepNumber:
    def test_e8_values(self):
        lat = named_lattice("E8")
        assert rep_number(lat, None, 1) == 240
        assert rep_number(lat, None, 2) == 2160

    def test_a2_roots(self):
        assert rep_number(named_lattice("A2"), None, 1) == 6

    def test_no_solution(self):
        assert rep_number(named_lattice("A2"), None, 2) == 0
        assert rep_number(named_lattice("A1"), (F(1, 2),), 1) == 0

    def test_equals_vector_count(self):
        lat = named_lattice("A3")
        for m in range(0, 5):
            assert rep_number(lat, None, m) == len(vectors_with_norm(lat, None, m))

    def test_large_gram_entry(self):
        # the grid check reads q(mu) from the Gram matrix, so a determinant
        # of 2^60 costs nothing beyond the two vectors found
        lat = new_lattice([[2 ** 60]])
        start = time.perf_counter()
        assert rep_number(lat, None, 2 ** 59) == 2
        assert time.perf_counter() - start < 0.1

    def test_rejects_non_dual_coset(self):
        with pytest.raises(ValueError):
            rep_number(named_lattice("A1"), (F(1, 3),), 1)

    def test_coset_symmetry(self):
        from cycletheta.quadlattice import discriminant_form

        for name in ["A2", "A3", "D4"]:
            lat = named_lattice(name)
            df = discriminant_form(lat)
            for lam in df.cosets:
                m = df.q_table[lam] + 2
                assert rep_number(lat, lam, m) == rep_number(lat, df.neg(lam), m)


class TestThetaQSeries:
    def test_e8(self):
        th = theta_qseries(named_lattice("E8"), 3)
        comp = th.component(None)
        assert comp == ((F(0), 1), (F(1), 240), (F(2), 2160))
        assert th.weight == F(4)
        assert th.level_denominator == 1

    def test_a1(self):
        th = theta_qseries(named_lattice("A1"), 2)
        assert th.component((0,)) == ((F(0), 1), (F(1), 2))
        # the coset-1/2 grid is 1/4 + Z; norms there are (n + 1/2)^2, so the
        # exponent 5/4 carries coefficient 0 (and 9/4 would carry 2)
        assert th.component((F(1, 2),)) == ((F(1, 4), 2), (F(5, 4), 0))
        th3 = theta_qseries(named_lattice("A1"), F(5, 2))
        assert th3.component((F(1, 2),)) == ((F(1, 4), 2), (F(5, 4), 0), (F(9, 4), 2))

    def test_tiny_truncation(self):
        for name in ["A1", "A2", "D4"]:
            th = theta_qseries(named_lattice(name), F(1, 100))
            for coset, pairs in th.components.items():
                for e, c in pairs:
                    assert c == (1 if e == 0 and not any(coset) else 0)

    def test_nonnegative_integer_coefficients(self):
        th = theta_qseries(named_lattice("D4"), 5)
        for pairs in th.components.values():
            for _, c in pairs:
                assert isinstance(c, int) and c >= 0

    @pytest.mark.parametrize(
        "gram",
        [BUILTIN_GRAMS["A2"], BUILTIN_GRAMS["A3"], BUILTIN_GRAMS["D4"],
         [[4, 1, 0], [1, 6, 3], [0, 3, 10]]],
    )
    def test_matches_rep_number(self, gram):
        # the range-scan leaf (theta) against the exact-solve leaf (shells)
        lat = new_lattice(gram)
        th = theta_qseries(lat, 3)
        assert len(th.components) == abs(lat.det)
        for coset, pairs in th.components.items():
            assert pairs
            for e, c in pairs:
                assert c == rep_number(lat, coset, e), (coset, e)

    def test_cached_series_is_read_only(self):
        th = theta_qseries(named_lattice("A2"), 2)
        zero = (F(0), F(0))
        with pytest.raises(TypeError):
            th.components[zero] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            th.truncation = F(5)
        again = theta_qseries(named_lattice("A2"), 2)
        assert again.component(None) == ((F(0), 1), (F(1), 6))

    def test_text_format(self):
        th = theta_qseries(named_lattice("A1"), 2)
        lines = th.text_lines()
        assert lines[0] == "coset=(0): 1*q^(0) + 2*q^(1)"
        assert lines[1] == "coset=(1/2): 2*q^(1/4)"


class TestGenus2:
    def test_zero_matrix(self):
        assert rep_number_genus2(named_lattice("E8"), None, ((0, 0), (0, 0))) == 1

    def test_e8_cross(self):
        t = ((1, F(1, 2)), (F(1, 2), 1))
        assert rep_number_genus2(named_lattice("E8"), None, t) == 13440

    def test_not_psd(self):
        assert rep_number_genus2(named_lattice("E8"), None, ((1, 2), (2, 1))) == 0

    def test_transpose_symmetry(self):
        lat = named_lattice("A2")
        from cycletheta.quadlattice import discriminant_form

        df = discriminant_form(lat)
        mu1, mu2 = df.cosets[1], df.cosets[2]
        t12 = F(1, 3)
        m1 = df.q_table[mu1] + 1
        m2 = df.q_table[mu2] + 1
        a = rep_number_genus2(lat, (mu1, mu2), ((m1, t12), (t12, m2)))
        b = rep_number_genus2(lat, (mu2, mu1), ((m2, t12), (t12, m1)))
        assert a == b

    def test_matches_direct_pair_count(self):
        lat = named_lattice("A2")
        for t1, t2 in [(1, 1), (1, 3), (3, 4)]:
            v1 = vectors_with_norm(lat, None, t1)
            v2 = vectors_with_norm(lat, None, t2)
            for twice_b in range(-2 * t1 * t2, 2 * t1 * t2 + 1):
                b = F(twice_b, 2)
                if b * b > t1 * t2:
                    continue
                direct = sum(
                    1 for x in v1 for y in v2 if lat.bilinear(x, y) == 2 * b
                )
                assert (
                    rep_number_genus2(lat, None, ((t1, b), (b, t2))) == direct
                )

    def test_histogram_matches_direct_pair_count(self):
        from cycletheta.quadlattice import discriminant_form

        a2, a3, d4 = (named_lattice(n) for n in ("A2", "A3", "D4"))
        c2, c3 = discriminant_form(a2).cosets, discriminant_form(a3).cosets
        zero4 = discriminant_form(d4).cosets[0]
        cases = [(a2, c2[1], c2[2]), (a2, c2[2], c2[1]), (a2, c2[1], c2[1])]
        cases += [(a3, mu, c3[0]) for mu in c3[1:]]
        for lat, mu1, mu2 in cases:
            df = discriminant_form(lat)
            for k1, k2 in [(0, 0), (0, 1), (1, 2)]:
                m1, m2 = df.q_table[mu1] + k1, df.q_table[mu2] + k2
                v1, v2 = brute_vectors(lat, mu1, m1), brute_vectors(lat, mu2, m2)
                self._check_direct(lat, mu1, m1, v1, mu2, m2, v2)
        shells = {m: brute_vectors(d4, zero4, m) for m in (1, 2)}
        for m1, m2 in [(1, 1), (1, 2), (2, 2)]:
            self._check_direct(d4, zero4, m1, shells[m1], zero4, m2, shells[m2])

    @staticmethod
    def _check_direct(lat, mu1, m1, v1, mu2, m2, v2):
        direct = Counter(lat.bilinear(x, y) for x in v1 for y in v2)
        assert sum(direct.values()) > 0
        assert dict(inner_product_histogram(lat, mu1, m1, mu2, m2)) == dict(direct)

    def test_histogram_is_read_only(self):
        zero = (F(0), F(0))
        hist = inner_product_histogram(named_lattice("A2"), zero, 1, zero, 1)
        with pytest.raises(TypeError):
            hist[F(2)] = 0
        again = inner_product_histogram(named_lattice("A2"), zero, 1, zero, 1)
        assert dict(again) == {-2: 6, -1: 12, 1: 12, 2: 6}

    def test_histogram_exactness_guard(self):
        # A1+A1 in a skewed basis: the norm-1 shell has coordinates up to c/2
        # and rows of A2 G up to c, so max|A1| * max|A2 G| * rank = c^2
        c = math.isqrt(2 ** 53) // 2 * 2
        assert c * c < 2 ** 53 <= (c + 2) ** 2
        zero = (F(0), F(0))
        below = new_lattice([[2, c], [c, c * c // 2 + 2]])
        hist = inner_product_histogram(below, zero, 1, zero, 1)
        assert dict(hist) == {-2: 4, 0: 8, 2: 4}
        above = new_lattice([[2, c + 2], [c + 2, (c + 2) ** 2 // 2 + 2]])
        with pytest.raises(OverflowError):
            inner_product_histogram(above, zero, 1, zero, 1)

    def test_histogram_bins_bounded(self):
        # A1 values (x1, x2) fill [-2m, 2m]: 2^20 + 1 bins at m = 2^18
        zero = (F(0),)
        a1 = named_lattice("A1")
        m = 511 ** 2
        assert dict(inner_product_histogram(a1, zero, m, zero, m)) == {-2 * m: 2, 2 * m: 2}
        with pytest.raises(OverflowError):
            inner_product_histogram(a1, zero, 2 ** 18, zero, 2 ** 18)

    def test_marginal_identity_small(self):
        lat = named_lattice("A2")
        for t1, t2 in [(1, 1), (1, 4), (3, 3)]:
            lhs = rep_number(lat, None, t1) * rep_number(lat, None, t2)
            rhs = 0
            tb = 0
            while tb * tb <= 4 * t1 * t2:
                for s in ({tb, -tb} if tb else {0}):
                    b = F(s, 2)
                    rhs += rep_number_genus2(lat, None, ((t1, b), (b, t2)))
                tb += 1
            assert lhs == rhs

    def test_genus2_coefficient_invariant(self):
        with pytest.raises(ValueError):
            Genus2Coefficient(((F(1), F(2)), (F(2), F(1))), 5)
        Genus2Coefficient(((F(1), F(2)), (F(2), F(1))), 0)  # fine when count 0


class TestClassicalFormulas:
    def test_d4_counts(self):
        # r_D4(m) = 24 * (sum of odd divisors of m)
        lat = named_lattice("D4")
        for m in range(1, 11):
            odd_div = sum(d for d in range(1, m + 1) if m % d == 0 and d % 2)
            assert rep_number(lat, None, m) == 24 * odd_div

    def test_a2_counts(self):
        # r_A2(m) = 6 * (d_1(m) - d_2(m)) with d_j counting divisors = j mod 3
        lat = named_lattice("A2")
        for m in range(1, 20):
            d1 = sum(1 for d in range(1, m + 1) if m % d == 0 and d % 3 == 1)
            d2 = sum(1 for d in range(1, m + 1) if m % d == 0 and d % 3 == 2)
            assert rep_number(lat, None, m) == 6 * (d1 - d2)

    def test_direct_sum_theta_factorizes(self):
        from cycletheta.quadlattice import direct_sum, discriminant_form

        a1 = named_lattice("A1")
        lat = direct_sum(a1, a1)
        th2 = theta_qseries(lat, 3)
        th1 = theta_qseries(a1, 3)
        df1 = discriminant_form(a1)
        for lam1 in df1.cosets:
            for lam2 in df1.cosets:
                pairs = dict(th2.component(lam1 + lam2))
                for m, c in pairs.items():
                    conv = sum(
                        c1 * c2
                        for e1, c1 in th1.component(lam1)
                        for e2, c2 in th1.component(lam2)
                        if e1 + e2 == m
                    )
                    # the convolution undercounts near the truncation edge;
                    # compare only where both factors are complete
                    if m < 2:
                        assert c == conv, (lam1, lam2, m)


@st.composite
def small_posdef(draw):
    pool = ["A1", "A2", "A3", "D4"]
    name = draw(st.sampled_from(pool))
    return named_lattice(name)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_rep_symmetry_property(self, data):
        lat = data.draw(small_posdef())
        from cycletheta.quadlattice import discriminant_form

        df = discriminant_form(lat)
        lam = data.draw(st.sampled_from(list(df.cosets)))
        k = data.draw(st.integers(min_value=0, max_value=3))
        m = df.q_table[lam] + k
        assert rep_number(lat, lam, m) == rep_number(lat, df.neg(lam), m)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_theta_constant_term(self, data):
        lat = data.draw(small_posdef())
        th = theta_qseries(lat, 2)
        for coset, pairs in th.components.items():
            if not any(coset):
                assert pairs[0] == (F(0), 1)
