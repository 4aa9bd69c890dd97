from fractions import Fraction as F

import pytest

from cycletheta.eisenstein import (
    NotStabilized,
    UnsupportedLattice,
    UnsupportedWeight,
    bernoulli,
    cohen,
    cohen_number,
    eisenstein_k,
    generalized_bernoulli,
    hurwitz,
    hurwitz_table,
    kronecker_symbol,
    local_density,
    reduced_forms,
    siegel_product,
    sigma,
)
from cycletheta.enumeration import rep_number
from cycletheta.quadlattice import direct_sum, named_lattice


class TestHurwitz:
    def test_convention_values(self):
        assert hurwitz(0) == F(-1, 12)
        assert hurwitz(3) == F(1, 3)
        assert hurwitz(4) == F(1, 2)

    def test_class_number_23(self):
        assert hurwitz(23) == 3

    def test_vanishing(self):
        for d in [1, 2, 5, 6, 9, 10]:
            assert hurwitz(d) == 0

    def test_imprimitive_weights(self):
        assert hurwitz(12) == F(4, 3)   # [1,0,3] + (1/3)[2,2,2]
        assert hurwitz(27) == F(4, 3)   # [1,1,7] + (1/3)[3,3,3]
        assert hurwitz(16) == F(3, 2)   # [1,0,4], [2,0,2]/2

    def test_denominators_divide_6(self):
        for d in range(1, 120):
            h = hurwitz(d)
            assert 6 % h.denominator == 0

    def test_positive_beyond_4(self):
        for d in range(5, 120):
            if d % 4 in (0, 3):
                assert hurwitz(d) > 0

    def test_hurwitz_kronecker_relation(self):
        # sum over s^2 <= 4n of H(4n - s^2) = 2 sigma_1(n) - sum min(d, n/d)
        for n in range(1, 51):
            lhs = F(0)
            s = 0
            while s * s <= 4 * n:
                lhs += hurwitz(4 * n - s * s)
                if s:
                    lhs += hurwitz(4 * n - s * s)
                s += 1
            rhs = 2 * sigma(1, n) - sum(
                min(d, n // d) for d in range(1, n + 1) if n % d == 0
            )
            assert lhs == rhs, n

    def test_table(self):
        table = hurwitz_table(20)
        assert table.values[0] == F(-1, 12)
        assert table.values[20] == 2
        assert "H(0)" in table.convention


class TestReducedForms:
    def test_d23(self):
        assert reduced_forms(23) == ((1, 1, 6), (2, -1, 3), (2, 1, 3))

    def test_reduction_conditions(self):
        for d in range(3, 200):
            for a, b, c in reduced_forms(d):
                assert -a < b <= a <= c
                assert b * b - 4 * a * c == -d
                if a == c:
                    assert b >= 0


class TestEisensteinK:
    def test_e4(self):
        e4 = eisenstein_k(4, 3)
        assert e4.coefficient(0) == 1
        assert e4.coefficient(1) == 240
        assert e4.coefficient(2) == 2160
        assert e4.text() == "1 + 240q + 2160q^2"

    def test_e6_linear_coefficient(self):
        assert eisenstein_k(6, 2).coefficient(1) == -504

    def test_e4_squared_is_e8(self):
        e4 = eisenstein_k(4, 11)
        e8 = eisenstein_k(8, 11)
        for n in range(11):
            conv = sum(e4.coefficient(i) * e4.coefficient(n - i) for i in range(n + 1))
            assert conv == e8.coefficient(n)

    def test_rejects_weight_2(self):
        with pytest.raises(UnsupportedWeight):
            eisenstein_k(2, 5)

    def test_rejects_odd_weight(self):
        with pytest.raises(UnsupportedWeight):
            eisenstein_k(5, 5)

    def test_bernoulli(self):
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)
        assert bernoulli(12) == F(-691, 2730)


class TestCohen:
    def test_constant_term(self):
        # H(s, 0) = zeta(1 - 2s)
        assert cohen_number(2, 0) == F(1, 120)
        assert cohen_number(3, 0) == F(-1, 252)
        assert cohen_number(4, 0) == F(1, 240)
        assert cohen_number(1, 0) == F(-1, 12)

    def test_level_one_is_hurwitz(self):
        # H(1, d) from the class-number formula against reduced-form counting
        for d in range(1, 3001):
            assert cohen_number(1, d) == hurwitz(d), d

    @pytest.mark.parametrize("n", [0, 3, 4])
    def test_rejects_s_zero(self, n):
        with pytest.raises(UnsupportedWeight):
            cohen_number(0, n)

    def test_frozen_oracle_values(self):
        # computed with the generalized-Bernoulli construction and verified
        # against the functional-equation oracle below
        assert cohen_number(2, 3) == 0          # 3 = 3 mod 4 vanishes for even s
        assert cohen_number(2, 4) == F(-7, 12)
        assert cohen_number(2, 5) == F(-2, 5)
        assert cohen_number(2, 8) == -1
        assert cohen_number(2, 12) == -2
        assert cohen_number(3, 3) == F(-2, 9)
        assert cohen_number(3, 4) == F(-1, 2)

    def test_vanishing_pattern(self):
        for s in range(1, 6):
            for n in range(1, 101):
                if ((-1) ** s * n) % 4 in (2, 3):
                    assert cohen_number(s, n) == 0, (s, n)

    def test_series_metadata(self):
        qs = cohen(2, 5)
        assert "convention" in qs.metadata
        assert qs.weight == F(5, 2)

    @pytest.mark.parametrize(
        "s,n",
        [(2, 4), (2, 5), (2, 8), (2, 9), (3, 3), (3, 4), (3, 7), (4, 5), (5, 3)],
    )
    def test_functional_equation_oracle(self, s, n):
        # independent check of L(1-s, chi_D): compute L(s, chi_D) from Hurwitz
        # zeta values and reflect with the completed functional equation
        import mpmath as mp

        from cycletheta.eisenstein import _fundamental_decomposition

        disc = n if s % 2 == 0 else -n
        if disc % 4 not in (0, 1):
            pytest.skip("vanishing case")
        d0, _f = _fundamental_decomposition(disc)
        exact = (
            -bernoulli(s) / s
            if d0 == 1
            else -generalized_bernoulli(s, d0) / s
        )
        mp.mp.dps = 40
        if d0 == 1:
            numeric = mp.zeta(1 - s)
        else:
            f = abs(d0)
            a = 0 if d0 > 0 else 1
            l_s = mp.mpf(f) ** (-s) * mp.fsum(
                kronecker_symbol(d0, j) * mp.zeta(s, mp.mpf(j) / f)
                for j in range(1, f + 1)
                if kronecker_symbol(d0, j)
            )
            numeric = (
                (mp.mpf(f) / mp.pi) ** (s - mp.mpf(1) / 2)
                * mp.gamma((s + a) / mp.mpf(2))
                / mp.gamma((1 - s + a) / mp.mpf(2))
                * l_s
            )
        assert abs(numeric - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(10) ** -20


class TestKronecker:
    def test_legendre_agreement(self):
        for p in [3, 5, 7, 11, 13]:
            for a in range(1, p):
                expected = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
                assert kronecker_symbol(a, p) == expected

    def test_mod_8_rule(self):
        assert kronecker_symbol(2, 7) == 1
        assert kronecker_symbol(2, 3) == -1
        assert kronecker_symbol(-4, 5) == 1
        assert kronecker_symbol(-3, 2) == -1
        assert kronecker_symbol(8, 2) == 0

    def test_multiplicativity(self):
        for d in [-3, -4, 5, 8, -7]:
            for m in range(1, 30):
                for n in range(1, 30):
                    assert kronecker_symbol(d, m * n) == kronecker_symbol(
                        d, m
                    ) * kronecker_symbol(d, n)


class TestSigma:
    def test_matches_divisor_sum(self):
        n_max = 2000
        divisors = [[] for _ in range(n_max + 1)]
        for d in range(1, n_max + 1):
            for n in range(d, n_max + 1, d):
                divisors[n].append(d)
        for k in range(8):
            for n in range(1, n_max + 1):
                assert sigma(k, n) == sum(d ** k for d in divisors[n]), (k, n)

    def test_nonpositive_argument(self):
        assert sigma(3, 0) == 0
        assert sigma(1, -6) == 0


def brute_density_counts(lat, p, m, k_max):
    """Direct enumeration oracle over (Z/p^k)^rank (tiny cases only)."""
    n = lat.rank
    g = lat.gram
    half = [g[i][i] // 2 for i in range(n)]
    out = []
    for k in range(1, k_max + 1):
        pk = p ** k
        cnt = 0
        coords = [0] * n

        def rec(i, acc_unused):
            nonlocal cnt
            if i == n:
                q = sum(half[j] * coords[j] * coords[j] for j in range(n)) + sum(
                    g[a][b] * coords[a] * coords[b]
                    for a in range(n)
                    for b in range(a + 1, n)
                )
                if (q - m) % pk == 0:
                    cnt += 1
                return
            for v in range(pk):
                coords[i] = v
                rec(i + 1, None)

        rec(0, None)
        out.append(cnt)
    return out


class TestLocalDensity:
    def test_e8_p3_m1(self):
        rep = local_density(named_lattice("E8"), 3, 1)
        assert rep.stabilized == F(80, 81)  # = 1 - 3^-4

    def test_a1_p2_m1(self):
        rep = local_density(named_lattice("A1"), 2, 1)
        assert rep.stabilized == 4
        assert rep.threshold == 6

    def test_unramified_stable_from_level_1(self):
        rep = local_density(named_lattice("E8"), 5, 1, max_level=4)
        values = {v for _, v in rep.approximations}
        assert len(values) == 1

    @pytest.mark.parametrize(
        "name,p,k_max,m",
        [("A1", 2, 4, 1), ("A1", 2, 4, 2), ("A2", 3, 2, 1), ("A2", 3, 2, 3),
         ("A3", 2, 2, 2), ("A2", 2, 2, 1), ("D4", 3, 2, 2), ("E8", 2, 1, 1),
         ("E8", 3, 1, 1)],
    )
    def test_counts_match_brute_force(self, name, p, k_max, m):
        lat = named_lattice(name)
        brute = brute_density_counts(lat, p, m, k_max)
        if abs(lat.det) % p:
            from cycletheta.eisenstein import _counts_unimodular as counts
        else:
            from cycletheta.eisenstein import _counts_generic as counts
        assert counts(lat, p, m, k_max) == brute

    def test_fast_and_generic_agree(self):
        # p does not divide det: both computation paths must coincide
        from cycletheta.eisenstein import _counts_generic, _counts_unimodular

        for name, p, m in [("A1", 3, 1), ("A2", 2, 1), ("D4", 3, 1), ("A3", 3, 2)]:
            lat = named_lattice(name)
            assert _counts_unimodular(lat, p, m, 3) == _counts_generic(lat, p, m, 3)

    def test_rank_32_at_two(self):
        # four copies of E8: an even unimodular rank-32 form, alpha_2(1) = 1 - 2^-16
        e8 = named_lattice("E8")
        rep = local_density(direct_sum(e8, e8, e8, e8), 2, 1)
        assert rep.stabilized == 1 - F(1, 2 ** 16)

    def test_not_stabilized_error(self):
        with pytest.raises(NotStabilized):
            local_density(named_lattice("A1"), 2, 1, max_level=3)

    def test_rejects_indefinite(self):
        with pytest.raises(UnsupportedLattice):
            local_density(named_lattice("U"), 3, 1)

    def test_rejects_composite_prime(self):
        with pytest.raises(ValueError):
            local_density(named_lattice("A1"), 6, 1)


class TestSiegelProduct:
    def test_e8_matches_enumeration(self):
        e8 = named_lattice("E8")
        for m in range(1, 11):
            pred = siegel_product(e8, m)
            assert pred == rep_number(e8, None, m)
            assert pred == 240 * sigma(3, m)

    def test_e8_e8_matches_eisenstein(self):
        # theta of E8 + E8 is E8 = E4^2, with coefficients 480 sigma_7(m)
        e8 = named_lattice("E8")
        e16 = direct_sum(e8, e8)
        for m in range(1, 4):
            assert siegel_product(e16, m) == 480 * sigma(7, m)

    def test_refuses_non_unimodular(self):
        with pytest.raises(UnsupportedLattice):
            siegel_product(named_lattice("A2"), 1)
        with pytest.raises(UnsupportedLattice):
            siegel_product(named_lattice("U"), 1)

    def test_higher_cutoff_unchanged(self):
        e8 = named_lattice("E8")
        assert siegel_product(e8, 3, prime_cutoff=7) == siegel_product(e8, 3)
