import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from cycletheta.cyclotomic import root_order_for, sqrt_as_cyclotomic
from cycletheta import eisenstein
from cycletheta.eisenstein import (
    HurwitzTable,
    NotStabilized,
    UnsupportedLattice,
    UnsupportedWeight,
    _factorize,
    _fundamental_decomposition,
    _jordan_blocks,
    _level_counts,
    _lifting_level,
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
from cycletheta.quadlattice import Degenerate, direct_sum, named_lattice, new_lattice


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

    def test_table_is_cached_and_read_only(self):
        assert hurwitz_table.cache_info().maxsize is not None
        table = hurwitz_table(20)
        assert hurwitz_table(20) is table
        with pytest.raises(TypeError):
            table.values[20] = F(7)
        with pytest.raises(AttributeError):
            table.convention = "H(0) = 0"
        assert hurwitz_table(20).values[20] == 2
        assert table.to_json_dict()["convention"] == HurwitzTable.convention


def form_weight_sum(d):
    """H(d) from the reduced forms one by one (the sieve's independent oracle)."""
    return sum(F(1, 2) if a == c and b == 0 else F(1, 3) if a == b == c else F(1)
               for a, b, c in reduced_forms(d))


class TestHurwitzSieve:
    def test_matches_reduced_forms(self):
        table = hurwitz_table(3000)
        assert set(table.values) == {d for d in range(3001) if d % 4 in (0, 3)}
        for d in range(3, 3001):
            if d % 4 in (0, 3):
                assert table.values[d] == form_weight_sum(d), d

    def test_matches_class_number_formula(self):
        # cohen_number(1, d) counts no forms: an L-value times a divisor sum
        table = hurwitz_table(1000)
        for d, h in table.values.items():
            assert h == cohen_number(1, d), d

    def test_prefix(self):
        big = hurwitz_table(500).values
        for m in (0, 1, 2, 3, 4, 7, 8, 99, 100, 499):
            small = hurwitz_table(m).values
            assert small == {d: big[d] for d in range(m + 1) if d in big}
        assert list(big) == sorted(big)

    def test_boundary_weights(self):
        # only (k, k, k) sits on the boundary at d = 3k^2 (weight 1/3), and
        # only (k, 0, k) at d = 4k^2 (weight 1/2)
        table = hurwitz_table(4 * 30 * 30)
        for k in range(1, 31):
            assert (table.values[3 * k * k] - F(1, 3)).denominator == 1, k
            assert (table.values[4 * k * k] - F(1, 2)).denominator == 1, k
            assert table.values[3 * k * k] == form_weight_sum(3 * k * k) == hurwitz(3 * k * k)
            assert table.values[4 * k * k] == form_weight_sum(4 * k * k) == hurwitz(4 * k * k)
        assert [table.values[d] for d in (3, 4, 12, 16, 27)] == [F(1, 3), F(1, 2), F(4, 3),
                                                                 F(3, 2), F(4, 3)]

    def test_negative_size_is_an_error(self):
        with pytest.raises(ValueError):
            hurwitz_table(-1)
        assert hurwitz_table(0).values == {0: F(-1, 12)}

    def test_large_table_is_fast(self):
        t0 = time.perf_counter()
        table = hurwitz_table(20000)
        assert time.perf_counter() - t0 < 1.0
        assert table.values[19999] == cohen_number(1, 19999)


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

    def test_bernoulli_matches_the_recursion(self):
        # the defining recurrence sum_{k <= n} C(n+1, k) B_k = 0, one pass per n
        table = [F(1)]
        for n in range(1, 201):
            table.append(-sum(math.comb(n + 1, k) * table[k] for k in range(n)) / (n + 1))
        assert [bernoulli(n) for n in range(201)] == table

    def test_bernoulli_past_its_cache(self):
        # one table per call, so no recursion through the lru cache evicts
        # entries it still needs
        bernoulli.cache_clear()
        assert bernoulli(1030) and bernoulli.cache_info().misses <= 1031
        # von Staudt-Clausen: B_n + sum of 1/p over primes p with (p - 1) | n is
        # an integer; and B_2k has the sign (-1)^(k-1)
        primes = [p for p in range(2, 1032) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for n in (1028, 1030):
            b = bernoulli(n)
            assert (b + sum(F(1, p) for p in primes if n % (p - 1) == 0)).denominator == 1
            assert (b > 0) == (n // 2 % 2 == 1)
        assert bernoulli(1031) == 0
        assert eisenstein_k(1040, 2).coefficients[1][1] == F(-2 * 1040) / bernoulli(1040)

    def test_bernoulli_table_grows_once(self, monkeypatch):
        # walking n upward builds each column of the tangent-number triangle
        # once, the work of one table of the largest n, and the values are
        # those of the row-by-row recurrence over a table of 600
        columns = []
        tangent_column = eisenstein._tangent_column

        def spy(column):
            columns.append(len(column) + 1)
            return tangent_column(column)

        monkeypatch.setattr(eisenstein, "_tangent_column", spy)
        monkeypatch.setattr(eisenstein, "_BERNOULLI", [F(1), F(-1, 2)])
        monkeypatch.setattr(eisenstein, "_TANGENT_COLUMN", [])
        bernoulli.cache_clear()
        walked = [bernoulli(n) for n in range(601)]
        assert columns == list(range(1, 301))
        t = [0] + [math.factorial(k - 1) for k in range(1, 301)]
        for k in range(2, 301):
            for j in range(k, 301):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        table = [F(1), F(-1, 2)] + [F(0)] * 599
        for k in range(1, 301):
            table[2 * k] = F((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
        assert walked == table
        # the table never shrinks: smaller n build nothing, and n = 602 one column
        bernoulli.cache_clear()
        assert bernoulli(10) == F(5, 66) and generalized_bernoulli(12, 1) == F(-691, 2730)
        assert columns == list(range(1, 301))
        bernoulli(602)
        assert columns == list(range(1, 302))

    def test_generalized_bernoulli(self):
        # B_{1, chi_-3} = -1/3, B_{1, chi_-4} = -1/2, and chi_1 gives B_n(1)
        assert generalized_bernoulli(1, -3) == F(-1, 3)
        assert generalized_bernoulli(1, -4) == F(-1, 2)
        assert generalized_bernoulli(2, 1) == F(1, 6)

    @pytest.mark.parametrize("call", [lambda: bernoulli(-2), lambda: bernoulli(-1),
                                      lambda: generalized_bernoulli(-1, 1),
                                      lambda: generalized_bernoulli(-3, -4)],
                             ids=["B_-2", "B_-1", "B_-1,chi_1", "B_-3,chi_-4"])
    def test_negative_index_is_refused(self, call):
        with pytest.raises(ValueError, match="n must be >= 0"):
            call()

    @pytest.mark.parametrize("disc", [6, 0, 2, -1, 9, -12, 16, 20, 45])
    def test_generalized_bernoulli_rejects_non_fundamental(self, disc):
        with pytest.raises(ValueError, match=f"{disc} is not a fundamental discriminant or 1"):
            generalized_bernoulli(2, disc)


class TestCohen:
    def test_constant_term(self):
        # H(s, 0) = zeta(1 - 2s)
        assert cohen_number(2, 0) == F(1, 120)
        assert cohen_number(3, 0) == F(-1, 252)
        assert cohen_number(4, 0) == F(1, 240)
        assert cohen_number(1, 0) == F(-1, 12)

    def test_level_one_is_hurwitz(self):
        # H(1, d) from the class-number formula against the reduced-form sieve
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

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_multiplicative_sum_matches_mobius_sum(self, s):
        # the O(f) divisor sum over mu(d) chi_D(d) d^(s-1) sigma_(2s-1)(f/d),
        # with mu by trial division, as an oracle for the product over p^e || f
        def mu(d):
            sign = 1
            for q in range(2, d + 1):
                if d % q == 0:
                    d //= q
                    if d % q == 0:
                        return 0
                    sign = -sign
            return sign

        fundamentals = [-3, -4, -7, -8, -15, -20] if s % 2 else [1, 5, 8, 12, 13]
        for d0 in fundamentals:
            lval = -(generalized_bernoulli(s, d0) if d0 != 1 else bernoulli(s)) / s
            for f in [1, 8, 9, 30, 60, 105, 180, 210, 1155, 2310]:
                oracle = lval * sum(
                    mu(d) * kronecker_symbol(d0, d) * d ** (s - 1) * sigma(2 * s - 1, f // d)
                    for d in range(1, f + 1)
                    if f % d == 0
                )
                assert cohen_number(s, abs(d0) * f * f) == oracle, (s, d0, f)

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


def _prime_oracle(p):
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _squarefree_oracle(n):
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


class TestFactorize:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 9))
    def test_product_primes_and_order(self, n):
        factors = _factorize(n)
        assert math.prod(p ** e for p, e in factors) == n
        assert all(_prime_oracle(p) and e >= 1 for p, e in factors)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))

    def test_small_values(self):
        assert _factorize(1) == ()
        assert _factorize(2) == ((2, 1),)
        assert _factorize(360) == ((2, 3), (3, 2), (5, 1))
        assert _factorize(2 ** 31 - 1) == ((2 ** 31 - 1, 1),)
        assert _factorize(99991 * 99991) == ((99991, 2),)

    @pytest.mark.parametrize("n", [0, -1, -12])
    def test_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            _factorize(n)


class TestFundamentalDecomposition:
    def test_all_small_discriminants(self):
        # D0 is 1 or fundamental: D0 = 1 mod 4 squarefree, or D0 = 4 m with
        # m = 2, 3 mod 4 squarefree
        for disc in range(-5000, 5001):
            if disc == 0 or disc % 4 not in (0, 1):
                continue
            d0, f = _fundamental_decomposition(disc)
            assert d0 * f * f == disc and f >= 1, disc
            if d0 % 4 == 1:
                assert _squarefree_oracle(abs(d0)), disc
            else:
                assert d0 % 4 == 0 and (d0 // 4) % 4 in (2, 3), disc
                assert _squarefree_oracle(abs(d0 // 4)), disc

    @pytest.mark.parametrize("disc", [0, 2, 3, -1, -2, 6, -5])
    def test_rejects_non_discriminants(self, disc):
        with pytest.raises(ValueError, match="not a discriminant"):
            _fundamental_decomposition(disc)


class TestRootOrder:
    def test_matches_brute_squarefree_part(self):
        for order in range(1, 300):
            core = next(c for c in range(1, order + 1)
                        if order % c == 0 and math.isqrt(order // c) ** 2 == order // c)
            odd = [p for p in range(3, core + 1) if core % p == 0 and _prime_oracle(p)]
            for level in range(1, 30):
                assert root_order_for(level, order) == math.lcm(level, 8, *odd), (level, order)

    def test_sqrt_lives_in_the_field(self):
        for order in range(1, 60):
            n = root_order_for(1, order)
            root = sqrt_as_cyclotomic(order, n)
            assert abs(root.to_complex() - math.sqrt(order)) < 1e-9


class TestSigma:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 10 ** 6))
    def test_matches_brute_divisor_sum(self, k, n):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        divisors = set(small) | {n // d for d in small}
        assert sigma(k, n) == sum(d ** k for d in divisors)

    def test_matches_divisor_sum(self):
        n_max = 2000
        divisors = [[] for _ in range(n_max + 1)]
        for d in range(1, n_max + 1):
            for n in range(d, n_max + 1, d):
                divisors[n].append(d)
        for k in range(8):
            for n in range(1, n_max + 1):
                assert sigma(k, n) == sum(d ** k for d in divisors[n]), (k, n)

    def test_zero_argument(self):
        # the q-expansion convention: the constant term has no divisor sum
        assert sigma(3, 0) == 0

    def test_negative_argument_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            sigma(1, -6)

    def test_negative_power_is_refused(self):
        # k < 0 gives rational divisor sums, and sigma returns ints
        with pytest.raises(ValueError, match="k must be >= 0"):
            sigma(-1, 6)


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


def convolution_counts(lat, p, m, k_max):
    """The full value distribution mod p^k at every level k <= k_max,
    convolved over the Jordan blocks (p^2k work per 2x2 block)."""
    out = []
    for k in range(1, k_max + 1):
        pk = p ** k
        dist = [1] + [0] * (pk - 1)
        for s, coeffs in _jordan_blocks(lat, p, k):
            a, b, c = (coeffs[0], 0, 0) if len(coeffs) == 1 else coeffs
            ys = range(pk) if len(coeffs) == 3 else (0,)
            values = [p ** s * (a * x * x + b * x * y + c * y * y) % pk for x in range(pk) for y in ys]
            new = [0] * pk
            for r, cnt in enumerate(dist):
                if cnt:
                    for v in values:
                        new[(r + v) % pk] += cnt
            dist = new
        out.append(dist[m % pk])
    return out


def level_counts(lat, p, m, k_max):
    return _level_counts(_jordan_blocks(lat, p, _lifting_level(p)), p, m, k_max)


def scaled(lat, c):
    return new_lattice([[c * x for x in row] for row in lat.gram])


# Mixed Jordan scales at p = 2 and p = 3, and 2x2 blocks at odd p (an
# off-diagonal entry of strictly smaller valuation than the diagonal).
MIXED = {
    "A1+A1(4)": direct_sum(named_lattice("A1"), scaled(named_lattice("A1"), 4)),
    "D4(3)": scaled(named_lattice("D4"), 3),
    "A2(2)": scaled(named_lattice("A2"), 2),
    "[[6,1],[1,6]]": new_lattice([[6, 1], [1, 6]]),
    "[[18,3],[3,18]]": new_lattice([[18, 3], [3, 18]]),
    "[[6,2],[2,10]]": new_lattice([[6, 2], [2, 10]]),
    "[[2,1],[1,26]]": new_lattice([[2, 1], [1, 26]]),
    "[[10,1],[1,10]]": new_lattice([[10, 1], [1, 10]]),
}


@st.composite
def even_gram(draw, p):
    """A nondegenerate even Gram matrix of rank <= 3 whose rows are scaled by
    p^e_i, e_i <= 2, so that its Jordan splitting at p has mixed scales."""
    n = draw(st.integers(min_value=1, max_value=3))
    e = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(min_value=-4, max_value=4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(min_value=-4, max_value=4))
    return [[g[i][j] * p ** (e[i] + e[j]) for j in range(n)] for i in range(n)]


class TestCaches:
    @pytest.mark.parametrize(
        "fn", [bernoulli, generalized_bernoulli, cohen_number, hurwitz, reduced_forms])
    def test_number_caches_are_bounded(self, fn):
        assert fn.cache_info().maxsize == 1024

    def test_jordan_splittings_are_bounded_and_immutable(self):
        assert _jordan_blocks.cache_info().maxsize == 64
        blocks = _jordan_blocks(named_lattice("D4"), 2, 3)
        assert isinstance(blocks, tuple) and all(isinstance(c, tuple) for _, c in blocks)


class TestLocalDensity:
    def test_e8_p3_m1(self):
        rep = local_density(named_lattice("E8"), 3, 1)
        assert rep.stabilized == F(80, 81)  # = 1 - 3^-4

    def test_a1_p2_m1(self):
        rep = local_density(named_lattice("A1"), 2, 1)
        assert rep.stabilized == 4
        assert rep.threshold == 6

    def test_unramified_stable_from_level_1(self):
        rep = local_density(named_lattice("E8"), 5, 1)
        values = {v for _, v in rep.approximations}
        assert len(values) == 1

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4", "E8"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_levels_past_threshold_stay_stabilized(self, name, p):
        # the report stops at level k0 + 1; the counts stay put beyond it
        lat = named_lattice(name)
        for m in range(1, 13):
            rep = local_density(lat, p, m)
            k0 = rep.threshold
            normalized = [F(c, p ** (k * (lat.rank - 1)))
                          for k, c in enumerate(level_counts(lat, p, m, k0 + 4), 1)]
            assert rep.approximations == tuple(enumerate(normalized[:k0 + 1], 1))
            assert normalized[k0 - 1:] == [rep.stabilized] * 5, (m, k0)

    @pytest.mark.parametrize(
        "name,p,k_max,m",
        [("A1", 2, 4, 1), ("A1", 2, 4, 2), ("A2", 3, 2, 1), ("A2", 3, 2, 3),
         ("A3", 2, 2, 2), ("A2", 2, 2, 1), ("D4", 3, 2, 2), ("E8", 2, 1, 1),
         ("E8", 3, 1, 1), ("A1+A1(4)", 2, 5, 4), ("A1+A1(4)", 2, 5, 9),
         ("A2(2)", 2, 4, 2), ("A2(2)", 2, 4, 8), ("D4(3)", 3, 2, 3), ("D4(3)", 3, 2, 9),
         ("[[6,1],[1,6]]", 3, 4, 3), ("[[6,1],[1,6]]", 3, 4, 18),
         ("[[18,3],[3,18]]", 3, 4, 9), ("[[18,3],[3,18]]", 3, 4, 27),
         ("[[6,2],[2,10]]", 2, 5, 8), ("[[6,2],[2,10]]", 7, 2, 7)],
    )
    def test_counts_match_brute_force(self, name, p, k_max, m):
        lat = MIXED.get(name) or named_lattice(name)
        assert level_counts(lat, p, m, k_max) == brute_density_counts(lat, p, m, k_max)

    @pytest.mark.parametrize(
        "name,p,k_max",
        [("A1+A1(4)", 2, 7), ("A2(2)", 2, 6), ("D4(3)", 3, 4), ("[[6,1],[1,6]]", 3, 5),
         ("[[18,3],[3,18]]", 3, 5), ("[[6,2],[2,10]]", 2, 7), ("D4", 2, 6), ("A3", 2, 6),
         ("A2", 3, 4), ("E8", 2, 5)],
    )
    def test_counts_match_convolution(self, name, p, k_max):
        lat = MIXED.get(name) or named_lattice(name)
        for m in (1, 2, 3, 4, 8, 9, 16, 18, 27, 32, 54):
            assert level_counts(lat, p, m, k_max) == convolution_counts(lat, p, m, k_max)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_forms_match_oracles(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        gram = data.draw(even_gram(p))
        try:
            lat = new_lattice(gram)
        except Degenerate:
            assume(False)
        m = data.draw(st.integers(min_value=1, max_value=2 * p ** 3))
        k_brute = max(k for k in range(1, 6) if p ** (k * lat.rank) <= 4096)
        k_conv = max(k for k in range(1, 8) if p ** k <= 128)
        assert level_counts(lat, p, m, k_brute) == brute_density_counts(lat, p, m, k_brute)
        assert level_counts(lat, p, m, k_conv) == convolution_counts(lat, p, m, k_conv)

    @pytest.mark.parametrize("name", ["A2", "A3", "D4", "E8", "[[6,2],[2,10]]", "[[2,1],[1,26]]",
                                      "[[6,1],[1,6]]", "[[10,1],[1,10]]", "D4(3)"])
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_odd_p_closed_form_matches_convolution(self, name, p):
        # N_1 at odd p comes from the character sum formula, not a table
        lat = MIXED.get(name) or named_lattice(name)
        k_max = max(k for k in range(1, 5) if p ** k <= 125)
        for m in (1, 2, 3, 5, 6, 7, 9, 11, 25, 49, 121):
            assert level_counts(lat, p, m, k_max) == convolution_counts(lat, p, m, k_max)

    def test_large_odd_prime_is_fast(self):
        t0 = time.perf_counter()
        rep = local_density(named_lattice("E8"), 1009, 1009)
        assert time.perf_counter() - t0 < 0.05
        assert rep.stabilized == F(1064726746914215548800, 1064726745878753869969)

    def test_d4_at_two_exact(self):
        d4 = named_lattice("D4")
        rep = local_density(d4, 2, 8)
        assert rep.stabilized == F(3, 16)
        assert rep.threshold == 14
        # alpha_2(2^e u) = 3 / 2^(e+1) for odd u, far past any p^k table
        for e, u in [(0, 1), (1, 3), (2, 5), (5, 7), (20, 1), (20, 15)]:
            assert local_density(d4, 2, 2 ** e * u).stabilized == F(3, 2 ** (e + 1))

    def test_rank_32_at_two(self):
        # four copies of E8: an even unimodular rank-32 form, alpha_2(1) = 1 - 2^-16
        e8 = named_lattice("E8")
        rep = local_density(direct_sum(e8, e8, e8, e8), 2, 1)
        assert rep.stabilized == 1 - F(1, 2 ** 16)

    def test_not_stabilized_error(self, monkeypatch):
        # levels k0 and k0 + 1 that disagree are an error, not a report
        def drifting(blocks, p, m, k_max):
            return [p ** ((k - 1) * k) for k in range(1, k_max + 1)]

        monkeypatch.setattr(eisenstein, "_level_counts", drifting)
        with pytest.raises(NotStabilized, match="k0=6"):
            local_density(named_lattice("A1"), 2, 1)

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

    def test_d4_three_routes(self):
        # D4 is alone in its genus, det 4 and a square discriminant, so the
        # unramified densities multiply to 1/zeta(2) = 6/pi^2 against the
        # archimedean 2 pi^2 m: r(m) = 12 m prod_{p | 2m} alpha_p(m)/(1 - p^-2),
        # and classically r(m) = 24 sum_{d | m, d odd} d.
        d4 = named_lattice("D4")
        for m in range(1, 33):
            product = F(12 * m)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if (2 * m) % p == 0:
                    product *= local_density(d4, p, m).stabilized / (1 - F(1, p * p))
            classical = 24 * sum(d for d in range(1, m + 1, 2) if m % d == 0)
            assert rep_number(d4, None, m) == product == classical, m

    def test_unramified_density_is_the_folded_factor(self):
        # siegel_product folds every p not dividing 2m into 1/zeta(4) on
        # the assumption alpha_p(E8, m) = 1 - p^-4 there.
        e8 = named_lattice("E8")
        for p in (5, 7):
            assert local_density(e8, p, 3).stabilized == 1 - F(1, p ** 4)
