import copy
import dataclasses
import json
import math
import time
from fractions import Fraction as F
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycletheta import weilrep
from cycletheta.cyclotomic import Cyc, root_order_for, sqrt_as_cyclotomic
from cycletheta.quadlattice import (DiscriminantForm, direct_sum, discriminant_form, named_lattice,
                                   new_lattice)
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
# skewed Grams: D is Z/7, Z/5 (indefinite), Z/2 x Z/6, and Z/2^2 x Z/8 of level 2e
SKEWED = ["[[2,1],[1,4]]", "[[2,3],[3,2]]", "[[4,2],[2,4]]", "[[4,0,2],[0,4,2],[2,2,4]]"]
WORDS = ["STST", "TSST", "TSTS", "SSTT", "STTS", "sTsT", "StSt", "SSSS", "S^-1S", ""]


def lat_of(name):
    """A "+"-joined sum of named lattices, or a Gram matrix written as JSON."""
    if name.startswith("["):
        return new_lattice(json.loads(name))
    return direct_sum(*(named_lattice(n) for n in name.split("+")))


def df_of(name):
    return discriminant_form(lat_of(name))


def oracle_generator(lat, token):
    """rho(S), rho(T) or an inverse, entry by entry from the explicit formulas,
    with b and q taken from the Gram matrix on the Fraction cosets (not from
    the form's Smith pairing W that rho_S reads)."""
    df = discriminant_form(lat)
    n = root_order_for(df.level, df.order)
    sign = -1 if token.islower() else 1
    if token in "Ss":
        inv_sqrt = sqrt_as_cyclotomic(df.order, n).scale(F(1, df.order))
        phase = Cyc.e(F(-sign * df.sig8, 8), n) * inv_sqrt
        return [[phase * Cyc.e(-sign * (lat.bilinear(lam, mu) % 1), n) for mu in df.cosets]
                for lam in df.cosets]
    return [[Cyc.e(sign * (lat.quadratic(lam) % 1), n) if lam == mu else Cyc.zero(n)
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


def oracle_word(lat, word):
    df = discriminant_form(lat)
    n = root_order_for(df.level, df.order)
    size = len(df.cosets)
    acc = tuple(tuple(Cyc.one(n) if i == j else Cyc.zero(n) for j in range(size))
                for i in range(size))
    for token in weilrep._tokenize(word):
        acc = oracle_matmul(acc, oracle_generator(lat, token))
    return acc


def oracle_entry_strings(df, entries):
    """The display of entry_strings, from Cyc entries: a monomial as is,
    else times sqrt|D| by Cyc products, shown over sqrt(|D|)."""
    d = df.order
    sqrt_d = sqrt_as_cyclotomic(d, entries[0][0].n) if d > 1 else None

    def monomial(e):
        nz = [(k, a) for k, a in enumerate(e.c) if a]
        if len(nz) != 1:
            return None
        k, a = nz[0]
        if k == 0:
            return str(a)
        head = "" if a == 1 else ("-" if a == -1 else f"{a}*")
        return f"{head}z^{k}" if k > 1 else f"{head}z"

    def shown(e):
        if e.is_zero:
            return "0"
        m = monomial(e)
        if m is not None or sqrt_d is None:
            return m or repr(e)
        scaled = e * sqrt_d
        ms = monomial(scaled)
        return f"{ms}/sqrt({d})" if ms is not None else f"({scaled!r})/sqrt({d})"

    return [[shown(e) for e in row] for row in entries]


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
    @pytest.mark.parametrize("name", CORPUS + SUMS + SKEWED)
    def test_generators_match_gram_oracle(self, name):
        lat = lat_of(name)
        df = discriminant_form(lat)
        for token in "STst":
            expected = tuple(map(tuple, oracle_generator(lat, token)))
            assert weilrep._generator(df, token).entries == expected

    # the schoolbook words of the |D| = 32 Gram take about 50 s; its generators
    # are checked above
    @pytest.mark.parametrize("name", CORPUS + SUMS + SKEWED[:3])
    def test_words_match_schoolbook_product(self, name):
        lat = lat_of(name)
        df = discriminant_form(lat)
        for word in WORDS:
            m = rho_word(df, word)
            expected = oracle_word(lat, word)
            assert m.entries == expected
            assert m.entry_strings() == oracle_entry_strings(df, expected)

    @pytest.mark.parametrize("name", CORPUS + SUMS)
    def test_lowest_terms(self, name):
        # coeffs / den is canonical, so equal matrices have equal arrays
        df = df_of(name)
        for word in WORDS:
            m = rho_word(df, word)
            assert m.den > 0
            assert math.gcd(m.den, *chain.from_iterable(chain.from_iterable(m.coeffs))) == 1
        braid, ss = rho_word(df, "STSTST"), rho_word(df, "SS")
        assert braid.den == ss.den
        assert braid.coeffs == ss.coeffs
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
            assert all(type(x) is int for row in gen.coeffs for e in row for x in e)
            with pytest.raises(TypeError):
                gen.coeffs[0] = gen.coeffs[1]
            with pytest.raises(TypeError):
                gen.coeffs[0][0] = (7, 0, 0, 0, 0, 0, 0, 0)
            with pytest.raises(TypeError):
                gen.coeffs[0][0][0] = 7
            assert type(gen.entries) is tuple
            assert all(type(row) is tuple for row in gen.entries)
        assert rho_S(df).den == df.order

    def test_cached_values_reject_assignment(self):
        df = df_of("A2")
        s, sqrt2 = rho_S(df), sqrt_as_cyclotomic(2, 8)
        s_coeffs, sqrt2_c = s.coeffs, sqrt2.c
        for obj, attr, value in [(s, "den", 5), (s, "coeffs", s_coeffs), (s, "root_order", 8),
                                 (sqrt2, "c", (0, 0, 0, 0)), (sqrt2, "n", 16)]:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(obj, attr, value)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(obj, attr)
        assert rho_S(df) is s and (s.den, s.root_order) == (df.order, 24)
        assert s.coeffs is s_coeffs
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
    def test_coefficients_past_int64_are_exact(self, c):
        # (2^31 + 1)^2 is below 2^63, (2^32 + 1)^2 = 2^64 + 2^33 + 1 is past it
        m = WeilRepMatrix.identity(df_of("A1")).scale(Cyc.from_rational(8, c))
        assert (m @ m).entries == oracle_matmul(m.entries, m.entries)
        assert (m @ m).entries[1][1] == Cyc.from_rational(8, c * c)

    def test_row_sums_past_int64_are_exact(self):
        # each entry of a fits int64, but the row sum 2^63 and the product
        # entry 2^63 do not
        df = df_of("A1")
        a = WeilRepMatrix(df, [[(2 ** 62, 0, 0, 0)] * 2, [(0, 0, 0, 0)] * 2])
        b = WeilRepMatrix(df, [[(1, 0, 0, 0)] * 2] * 2)
        assert (a @ b).entries == oracle_matmul(a.entries, b.entries)
        assert (a @ b).entries[0][0] == Cyc.from_rational(8, 2 ** 63)

    def test_constructor_stores_python_ints(self):
        # numpy integers are converted: a product of them neither wraps nor warns
        df = df_of("A1")
        a = np.zeros((2, 2, 4), dtype=np.int64)
        a[:, :, 0] = 2 ** 62
        m = WeilRepMatrix(df, a, np.int64(2))
        assert all(type(x) is int for row in m.coeffs for e in row for x in e)
        assert type(m.den) is int and (m.den, m.coeffs[0][0]) == (1, (2 ** 61, 0, 0, 0))
        assert (m @ m).entries[0][0] == Cyc.from_rational(8, 2 ** 123)
        assert m == WeilRepMatrix(df, a.tolist(), 2)

    @pytest.mark.parametrize("coeffs, den", [
        (np.zeros((2, 2, 4)), 1),  # float dtype
        ([[(0, 0, 0, 0), (0.5, 0, 0, 0)], [(0, 0, 0, 0)] * 2], 1),
        ([[(0, 0, 0, 0), (F(1, 2), 0, 0, 0)], [(0, 0, 0, 0)] * 2], 1),
        ([[(1, 0, 0, 0)] * 2] * 2, 1.0),
        ([[(1, 0, 0, 0)] * 2] * 2, 0),
        ([[(1, 0, 0, 0)] * 2] * 2, -3),
        ([[(1, 0, 0, 0)] * 2], 1),  # one row
        ([[(1, 0, 0, 0)] * 3] * 2, 1),  # three columns
        ([[(1, 0, 0)] * 2] * 2, 1),  # three coefficients
        (np.zeros((2, 2), dtype=np.int64), 1),  # no coefficient axis
    ], ids=["float-array", "float", "fraction", "float-den", "zero-den", "negative-den",
            "one-row", "three-columns", "three-coefficients", "2d-array"])
    def test_constructor_rejects_bad_input(self, coeffs, den):
        with pytest.raises(ValueError):
            WeilRepMatrix(df_of("A1"), coeffs, den)

    def test_scale_by_c_then_inverse_round_trips(self):
        m = rho_S(df_of("A2"))
        n = m.root_order
        c = Cyc.e(F(1, 8), n).scale(F(3, 2))
        c_inv = Cyc.e(F(-1, 8), n).scale(F(2, 3))
        assert m.scale(c) != m
        assert m.scale(c).scale(c_inv) == m
        with pytest.raises(ValueError):
            m.scale(Cyc.one(2 * n))


# Forms of every size up to 9 whose root order is 8 or 24, the two fields
# the packing is checked over.
PACKING_FORMS = ["U", "A1", "A1+A1", "A1+A1+A1", "A2", "A1+A2", "A2+A2"]
BIG = 2 ** 70


def oracle_conjugate(z):
    acc = Cyc.zero(z.n)
    for k, c in enumerate(z.c):
        acc = acc + Cyc.root(z.n, -k).scale(c)
    return acc


@st.composite
def cyclotomic_matrices(draw, df):
    """A matrix over df with coefficients up to +-2^70 and a random den; its
    entries are drawn from a pool, so some repeat as in a Weil matrix."""
    n = len(df.cosets)
    deg = len(Cyc.zero(root_order_for(df.level, df.order)).c)
    coeff = st.integers(-BIG, BIG) | st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[coeff] * deg), min_size=1, max_size=n * n))
    row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    return WeilRepMatrix(df, draw(st.lists(row, min_size=n, max_size=n)), draw(st.integers(1, 12)))


class TestPacking:
    """The Kronecker-packed product, dagger and scale against the schoolbook
    Cyc oracle, over Q(zeta_8) and Q(zeta_24)."""

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        df = df_of(data.draw(st.sampled_from(PACKING_FORMS)))
        n_root = root_order_for(df.level, df.order)
        assert n_root in (8, 24)
        a = data.draw(cyclotomic_matrices(df))
        b = data.draw(cyclotomic_matrices(df))
        assert (a @ b).entries == oracle_matmul(a.entries, b.entries)
        assert a.dagger().entries == tuple(
            tuple(oracle_conjugate(a.entries[j][i]) for j in range(a.size)) for i in range(a.size))
        c = Cyc(n_root, data.draw(st.lists(st.fractions(max_denominator=9).map(
            lambda x: x * BIG), min_size=len(a.entries[0][0].c), max_size=len(a.entries[0][0].c))))
        assert a.scale(c).entries == tuple(tuple(e * c for e in row) for row in a.entries)

    @pytest.mark.parametrize("name", ["A1+A1+A1", "A2+A2"])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
    def test_partial_sum_at_the_width_bound(self, name, signs):
        # every coefficient +-h: the coefficient of zeta^(d-1) in each entry
        # of the unreduced product is +-n d h^2, the bound M itself.  For the
        # largest h with M < 2^144, M needs all 144 bits of 18 whole bytes,
        # so its digit fits only with a 19th byte for the sign.
        df = df_of(name)
        n, deg = len(df.cosets), len(Cyc.zero(root_order_for(df.level, df.order)).c)
        for h in (BIG, math.isqrt((2 ** 144 - 1) // (n * deg))):
            a, b = (WeilRepMatrix(df, [[(sign * h,) * deg] * n] * n) for sign in signs)
            assert (a @ b).entries == oracle_matmul(a.entries, b.entries)

    def test_zero_factor(self):
        # M counts a zero factor's height as 1, so the width still holds
        # every coefficient of the other factor
        df = df_of("A2")
        zero = WeilRepMatrix(df, [[(0,) * 8] * 3] * 3)
        big = WeilRepMatrix(df, [[(-BIG,) * 8] * 3] * 3)
        assert zero @ big == zero and big @ zero == zero


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
        conj = s.conjugate().coeffs[1][2]  # not real, so this changes it
        coeffs = tuple(tuple(conj if (i, j) == (1, 2) else e for j, e in enumerate(row))
                       for i, row in enumerate(s.coeffs))
        assert coeffs != s.coeffs
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
