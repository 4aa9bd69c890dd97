import copy
import dataclasses
import time
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from cycletheta import weilrep
from cycletheta.cyclotomic import Cyc, root_order_for, sqrt_as_cyclotomic
from cycletheta.quadlattice import DiscriminantForm, direct_sum, discriminant_form, named_lattice
from cycletheta.weilrep import (
    InsufficientTruncation,
    RelationViolated,
    WeilRepMatrix,
    rho_S,
    rho_T,
    rho_word,
    theta_transform_check,
    verify_relations,
)

CORPUS = ["A1", "A2", "A3", "D4", "E8", "U", "A1(-1)"]
SUMS = ["A1+A2", "A3+A1", "A2+A2"]
WORDS = ["STST", "TSST", "TSTS", "SSTT", "STTS", "sTsT", "StSt", "SSSS", "S^-1S", ""]


def df_of(name):
    return discriminant_form(direct_sum(*(named_lattice(n) for n in name.split("+"))))


def oracle_generator(df, token):
    """rho(S), rho(T) or an inverse, entry by entry from the explicit formulas."""
    n = root_order_for(df.level, df.order)
    sign = -1 if token.islower() else 1
    if token in "Ss":
        inv_sqrt = sqrt_as_cyclotomic(df.order, n).scale(F(1, df.order))
        phase = Cyc.e(F(-sign * df.sig8, 8), n) * inv_sqrt
        return [[phase * Cyc.e(-sign * df.b(lam, mu), n) for mu in df.cosets]
                for lam in df.cosets]
    return [[Cyc.e(sign * df.q_table[lam], n) if lam == mu else Cyc.zero(n)
             for mu in df.cosets] for lam in df.cosets]


def oracle_matmul(a, b):
    """Schoolbook product of matrices of Cyc entries."""
    size = len(a)
    zero = Cyc.zero(a[0][0].n)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = zero
            for k in range(size):
                if not a[i][k].is_zero:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def oracle_word(df, word):
    n = root_order_for(df.level, df.order)
    size = len(df.cosets)
    acc = tuple(tuple(Cyc.one(n) if i == j else Cyc.zero(n) for j in range(size))
                for i in range(size))
    for token in weilrep._tokenize(word):
        acc = oracle_matmul(acc, oracle_generator(df, token))
    return acc


class TestGenerators:
    def test_rho_t_trivial(self):
        m = rho_T(df_of("U"))
        assert m.size == 1
        assert m.entries[0][0] == Cyc.one(m.root_order)

    def test_rho_t_a1(self):
        m = rho_T(df_of("A1"))
        n = m.root_order
        assert m.entries[0][0] == Cyc.one(n)
        assert m.entries[1][1] == Cyc.e(F(1, 4), n)  # = i
        assert m.entries[0][1].is_zero and m.entries[1][0].is_zero

    def test_rho_t_a2(self):
        m = rho_T(df_of("A2"))
        n = m.root_order
        diag = [m.entries[i][i] for i in range(3)]
        assert sorted(
            (d == Cyc.one(n), d == Cyc.e(F(1, 3), n)) for d in diag
        ) == [(False, True), (False, True), (True, False)]

    def test_rho_s_unimodular(self):
        m = rho_S(df_of("E8"))
        assert m.entries[0][0] == Cyc.one(m.root_order)

    def test_rho_s_a1(self):
        # e(-1/8)/sqrt(2) * [[1, 1], [1, -1]]
        m = rho_S(df_of("A1"))
        n = m.root_order
        scale = Cyc.e(F(-1, 8), n) * sqrt_as_cyclotomic(2, n).scale(F(1, 2))
        assert m.entries[0][0] == scale
        assert m.entries[0][1] == scale
        assert m.entries[1][0] == scale
        assert m.entries[1][1] == -scale

    def test_rho_s_a1_neg(self):
        # sig8 = 7, so the phase is e(-7/8) = e(1/8)
        m = rho_S(df_of("A1(-1)"))
        n = m.root_order
        scale = Cyc.e(F(1, 8), n) * sqrt_as_cyclotomic(2, n).scale(F(1, 2))
        assert m.entries[0][0] == scale
        assert m.entries[1][1] == -scale


class TestWords:
    def test_empty_word_identity(self):
        assert rho_word(df_of("A1"), "").is_identity()

    def test_ss_on_a1(self):
        # S^2 = e(-1/4) * identity on A1 (negation is trivial on Z/2)
        m = rho_word(df_of("A1"), "SS")
        n = m.root_order
        phase = Cyc.e(F(-1, 4), n)
        expected = WeilRepMatrix.identity(df_of("A1")).scale(phase)
        assert m == expected

    @pytest.mark.parametrize("name", CORPUS)
    def test_braid_word(self, name):
        df = df_of(name)
        assert rho_word(df, "STSTST") == rho_word(df, "SS")

    def test_inverse_tokens(self):
        df = df_of("A3")
        assert rho_word(df, "Ss").is_identity()
        assert rho_word(df, "tT").is_identity()
        assert rho_word(df, "S^-1S").is_identity()
        assert rho_word(df, "T^-1T").is_identity()

    def test_bad_token(self):
        with pytest.raises(ValueError):
            rho_word(df_of("A1"), "SX")


class TestOracle:
    @pytest.mark.parametrize("name", CORPUS + SUMS)
    def test_words_match_schoolbook_product(self, name):
        df = df_of(name)
        for word in WORDS:
            m = rho_word(df, word)
            expected = oracle_word(df, word)
            assert m.entries == expected
            shown = SimpleNamespace(df=df, root_order=m.root_order, entries=expected)
            assert m.entry_strings() == WeilRepMatrix.entry_strings(shown)

    @pytest.mark.parametrize("name", CORPUS + SUMS)
    def test_lowest_terms(self, name):
        # coeffs / den is canonical, so equal matrices have equal arrays
        df = df_of(name)
        for word in WORDS:
            m = rho_word(df, word)
            assert m.den > 0
            assert np.gcd.reduce(m.coeffs, axis=None, initial=m.den) == 1
        braid, ss = rho_word(df, "STSTST"), rho_word(df, "SS")
        assert braid.den == ss.den
        assert np.array_equal(braid.coeffs, ss.coeffs)
        assert hash(braid) == hash(ss)

    @pytest.mark.parametrize("name", CORPUS + SUMS)
    def test_exact_milgram(self, name):
        # sum over D of e(Q(x)) = e(sig/8) sqrt|D| in Z[zeta_N]
        df = df_of(name)
        n = root_order_for(df.level, df.order)
        gauss = Cyc.zero(n)
        for lam in df.cosets:
            gauss = gauss + Cyc.e(df.q_table[lam], n)
        assert gauss == Cyc.e(F(df.sig8, 8), n) * sqrt_as_cyclotomic(df.order, n)


class TestExactArithmetic:
    def test_caches_are_bounded(self):
        for cached in (weilrep._root_order, rho_T, rho_S, sqrt_as_cyclotomic):
            assert cached.cache_info().maxsize is not None

    def test_cached_generators_are_read_only(self):
        df = df_of("A2")
        for gen in (rho_S(df), rho_T(df)):
            with pytest.raises(ValueError):
                gen.coeffs[0, 0, 0] = 7
            assert type(gen.entries) is tuple
            assert all(type(row) is tuple for row in gen.entries)
        assert rho_S(df).den == df.order

    def test_cached_values_reject_assignment(self):
        df = df_of("A2")
        s, sqrt2 = rho_S(df), sqrt_as_cyclotomic(2, 8)
        s_coeffs, sqrt2_c = s.coeffs.copy(), sqrt2.c
        for obj, attr, value in [(s, "den", 5), (s, "coeffs", s_coeffs), (s, "root_order", 8),
                                 (sqrt2, "c", (0, 0, 0, 0)), (sqrt2, "n", 16)]:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(obj, attr, value)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(obj, attr)
        assert rho_S(df) is s and (s.den, s.root_order) == (df.order, 24)
        assert np.array_equal(s.coeffs, s_coeffs)
        assert sqrt_as_cyclotomic(2, 8) is sqrt2 and sqrt2.c == sqrt2_c and sqrt2.n == 8
        assert sqrt2 * sqrt2 == Cyc.from_rational(8, 2)

    def test_forms_must_agree(self):
        # A1 and A1(-1) share the cosets ((0,), (1/2,)), but q(1/2) is 1/4 in
        # one and 3/4 in the other
        a1, a1_neg = df_of("A1"), df_of("A1(-1)")
        assert a1.cosets == a1_neg.cosets
        with pytest.raises(ValueError, match="different discriminant forms"):
            rho_S(a1) @ rho_T(a1_neg)
        assert WeilRepMatrix.identity(a1) != WeilRepMatrix.identity(a1_neg)
        # a form built again from the same lattice is the same form
        again = DiscriminantForm(named_lattice("A2"))
        assert again is not df_of("A2")
        assert rho_S(df_of("A2")) @ rho_T(again) == rho_word(df_of("A2"), "ST")
        assert WeilRepMatrix.identity(again) == WeilRepMatrix.identity(df_of("A2"))

    @pytest.mark.parametrize("c", [2 ** 31 + 1, 2 ** 32 + 1])
    def test_beyond_int64_takes_object_route(self, c, monkeypatch):
        # the square of (2^31 + 1) I stays below 2^63 and runs in int64;
        # 2^64 + 2^33 + 1 would wrap in int64, so the product of
        # (2^32 + 1) I with itself must run in Python ints
        dtypes = set()
        matmul = weilrep._exact_matmul

        def spy(a, b, bound):
            out = matmul(a, b, bound)
            dtypes.add(out.dtype)
            return out

        monkeypatch.setattr(weilrep, "_exact_matmul", spy)
        df = df_of("A1")
        m = WeilRepMatrix.identity(df).scale(Cyc.from_rational(8, c))
        assert (m @ m).entries == oracle_matmul(m.entries, m.entries)
        assert (m @ m).entries[1][1] == Cyc.from_rational(8, c * c)
        if c * c < 2 ** 63:
            assert dtypes == {np.dtype(np.int64)}
        else:
            assert np.dtype(object) in dtypes

    def test_row_sum_beyond_int64_takes_object_route(self):
        # each entry of a fits int64, but the row sum 2^63 that bounds the
        # product does not, and neither does the product entry 2^63
        df = df_of("A1")
        a = np.zeros((2, 2, 4), dtype=np.int64)
        a[0, :, 0] = 2 ** 62
        b = np.zeros((2, 2, 4), dtype=np.int64)
        b[:, :, 0] = 1
        a_m = WeilRepMatrix(df, a)
        b_m = WeilRepMatrix(df, b)
        assert (a_m @ b_m).entries[0][0] == Cyc.from_rational(8, 2 ** 63)

    def test_scale_by_c_then_inverse_round_trips(self):
        m = rho_S(df_of("A2"))
        n = m.root_order
        c = Cyc.e(F(1, 8), n).scale(F(3, 2))
        c_inv = Cyc.e(F(-1, 8), n).scale(F(2, 3))
        assert m.scale(c) != m
        assert m.scale(c).scale(c_inv) == m
        with pytest.raises(ValueError):
            m.scale(Cyc.one(2 * n))


class TestRelations:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, name):
        rep = verify_relations(df_of(name))
        assert rep.all_pass

    @pytest.mark.parametrize("name", ["A2+A2+A2", "A2+A2+A2+A2", "D4+D4"])
    def test_reach(self, name):
        df = df_of(name)
        rho_S.cache_clear()
        rho_T.cache_clear()
        start = time.perf_counter()
        assert verify_relations(df).all_pass
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name", ["A1", "A2", "D4", "A3+A1"])
    def test_wrong_signature_breaks_only_braid(self, name):
        # a lattice record whose signature is off by one: its form keeps
        # q and b but violates Milgram's formula
        lat = direct_sum(*(named_lattice(n) for n in name.split("+")))
        p, q = lat.signature
        df = DiscriminantForm(dataclasses.replace(lat, signature=(p + 1, q)))
        assert df.sig8 == (df_of(name).sig8 + 1) % 8
        rep = verify_relations(df, raise_on_failure=False)
        assert (rep.unitary_s, rep.unitary_t, rep.braid, rep.s_squared) == (True, True, False, True)
        with pytest.raises(RelationViolated):
            verify_relations(df)

    def test_flipped_fourier_exponent_breaks_unitarity(self, monkeypatch):
        df = copy.copy(df_of("A2"))
        s = rho_S(df)
        coeffs = s.coeffs.copy()
        coeffs[1, 2] = s.conjugate().coeffs[1, 2]  # not real, so this changes it
        assert not np.array_equal(coeffs, s.coeffs)
        flipped = WeilRepMatrix(df, coeffs, s.den)
        monkeypatch.setattr(weilrep, "rho_S", lambda _: flipped)
        assert not verify_relations(df, raise_on_failure=False).unitary_s

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4"])
    def test_t_order_equals_level(self, name):
        df = df_of(name)
        t = rho_T(df)
        acc = t
        order = 1
        while not acc.is_identity():
            acc = acc @ t
            order += 1
            assert order <= 4 * df.level
        assert order == df.level

    @pytest.mark.parametrize("name", CORPUS)
    def test_dual_consistency(self, name):
        # the dual representation is the entrywise conjugate on generators
        df = df_of(name)
        for gen in (rho_S(df), rho_T(df)):
            conj = gen.conjugate()
            dag = gen.dagger()
            # rho(S) is symmetric and rho(T) diagonal, so both coincide
            assert conj.entries == dag.entries

    def test_unitarity(self):
        for name in CORPUS:
            assert rho_S(df_of(name)).is_unitary()
            assert rho_T(df_of(name)).is_unitary()


class TestThetaTransform:
    def test_t_generator_trivial_residual(self):
        res = theta_transform_check(named_lattice("A2"), "T", 1j, 10)
        assert res.residual < 1e-10

    def test_e8_s_at_i(self):
        res = theta_transform_check(named_lattice("E8"), "S", 1j, 8)
        assert res.residual < 1e-9

    def test_a1_s_at_i(self):
        # odd rank via the principal branch of tau^(1/2)
        res = theta_transform_check(named_lattice("A1"), "S", 1j, 12)
        assert res.residual < 1e-9

    def test_corpus_at_i_and_2i(self):
        a1a1 = direct_sum(named_lattice("A1"), named_lattice("A1"))
        for lat in [a1a1, named_lattice("D4"), named_lattice("E8")]:
            for gen in ("S", "T"):
                for tau in (1j, 2j):
                    res = theta_transform_check(lat, gen, tau, 16)
                    assert res.residual < 1e-9
                    assert res.tail_bound < 1e-12

    def test_insufficient_truncation(self):
        with pytest.raises(InsufficientTruncation):
            theta_transform_check(named_lattice("E8"), "S", 0.05j, 8)

    def test_tail_monotone(self):
        r8 = theta_transform_check(named_lattice("E8"), "S", 1j, 8)
        r14 = theta_transform_check(named_lattice("E8"), "S", 1j, 14)
        assert r14.tail_bound < r8.tail_bound
        assert r14.residual <= r8.residual + 1e-15

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            theta_transform_check(named_lattice("A1"), "Q", 1j, 8)
        with pytest.raises(ValueError):
            theta_transform_check(named_lattice("A1"), "S", -1j, 8)


class TestNumericAgreement:
    @pytest.mark.parametrize("name", CORPUS)
    def test_exact_matches_float(self, name):
        # the cyclotomic matrices, evaluated as complex numbers, must satisfy
        # the same relations numerically
        df = df_of(name)
        s = rho_S(df).to_complex()
        size = len(s)
        for i in range(size):
            for j in range(size):
                acc = sum(s[i][k] * s[j][k].conjugate() for k in range(size))
                assert abs(acc - (1 if i == j else 0)) < 1e-12
