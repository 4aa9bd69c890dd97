import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cycletheta.quadlattice import (
    BUILTIN_GRAMS,
    Degenerate,
    DiscriminantForm,
    NotEven,
    NotSymmetric,
    discriminant_form,
    direct_sum,
    gauss_sum,
    named_lattice,
    new_lattice,
    smith_normal_form,
)

CORPUS = ["A1", "A2", "A3", "D4", "E8", "U", "A1(-1)"]


class TestNewLattice:
    def test_a1(self):
        lat = new_lattice([[2]])
        assert lat.rank == 1
        assert lat.signature == (1, 0)

    def test_hyperbolic_plane(self):
        lat = new_lattice([[0, 1], [1, 0]])
        assert lat.rank == 2
        assert lat.signature == (1, 1)

    def test_e8(self):
        lat = named_lattice("E8")
        assert lat.rank == 8
        assert lat.signature == (8, 0)
        assert lat.det == 1

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            new_lattice([[2, 1], [0, 2]])

    def test_rejects_odd_diagonal(self):
        with pytest.raises(NotEven):
            new_lattice([[1]])

    def test_rejects_degenerate(self):
        with pytest.raises(Degenerate):
            new_lattice([[2, 2], [2, 2]])


class TestDiscriminantForm:
    def test_cache_is_bounded(self):
        # as the Weil-representation caches: a long-lived process keeps at most 64
        assert discriminant_form.cache_info().maxsize == 64

    def test_a1(self):
        df = discriminant_form(named_lattice("A1"))
        assert df.order == 2
        assert [d for _, d in df.generators] == [2]
        assert df.q_table[(F(1, 2),)] == F(1, 4)

    def test_hyperbolic_trivial(self):
        df = discriminant_form(named_lattice("U"))
        assert df.order == 1
        assert df.generators == ()

    def test_a2(self):
        # Q on the nonzero cosets of A2 is 1/3 (dual vectors have norm 2/3);
        # pinned by the Milgram identity: 1 + 2e(1/3) = i sqrt(3) = sqrt(3) e(2/8).
        df = discriminant_form(named_lattice("A2"))
        assert df.order == 3
        vals = sorted(df.q_table.values())
        assert vals == [F(0), F(1, 3), F(1, 3)]

    def test_generator_orders_multiply_to_order(self):
        for name in CORPUS:
            df = discriminant_form(named_lattice(name))
            prod = math.prod([d for _, d in df.generators]) if df.generators else 1
            assert prod == df.order

    @pytest.mark.parametrize("lam", [(F(1, 2), 0), (F(1, 3),), (F(1, 3), F(2, 3), 0)])
    def test_non_coset_is_a_named_error(self, lam):
        df = discriminant_form(named_lattice("A2"))
        for method in (df.q, df.index):
            with pytest.raises(ValueError, match="is not a coset of the dual lattice"):
                method(lam)

    def test_sig8(self):
        assert discriminant_form(named_lattice("A1")).sig8 == 1
        assert discriminant_form(named_lattice("A1(-1)")).sig8 == 7
        assert discriminant_form(named_lattice("E8")).sig8 == 0
        assert discriminant_form(named_lattice("D4")).sig8 == 4

    def test_cached_q_table_is_read_only(self):
        from cycletheta.weilrep import rho_T, verify_relations

        df = discriminant_form(named_lattice("A2"))
        with pytest.raises(TypeError):
            df.q_table[df.cosets[1]] = F(0)
        rho_T.cache_clear()
        fresh = discriminant_form(named_lattice("A2"))
        assert verify_relations(fresh, raise_on_failure=False).all_pass

    @pytest.mark.parametrize("attr", ["order", "sig8", "level", "cosets", "generators", "q_table"])
    def test_cached_attributes_are_read_only(self, attr):
        from cycletheta.weilrep import verify_relations

        df = discriminant_form(named_lattice("A2"))
        with pytest.raises(AttributeError, match="read-only"):
            setattr(df, attr, 3)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(df, attr)
        assert verify_relations(discriminant_form(named_lattice("A2")), raise_on_failure=False).all_pass


class TestDiscB:
    def test_zero_coset(self):
        df = discriminant_form(named_lattice("A2"))
        zero = df.cosets[0]
        for mu in df.cosets:
            assert df.b(zero, mu) == 0

    def test_a1(self):
        df = discriminant_form(named_lattice("A1"))
        half = (F(1, 2),)
        assert df.b(half, half) == F(1, 2)

    def test_a2_generator(self):
        # b(g, g) = 2 Q(g) = 2/3 for the A2 generator
        df = discriminant_form(named_lattice("A2"))
        g = df.generators[0][0]
        assert df.b(g, g) == F(2, 3)

    def test_polarization(self):
        for name in CORPUS:
            df = discriminant_form(named_lattice(name))
            for lam in df.cosets:
                for mu in df.cosets:
                    lhs = df.b(lam, mu)
                    rhs = (df.q(df.add(lam, mu)) - df.q(lam) - df.q(mu)) % 1
                    assert lhs == rhs

    @pytest.mark.parametrize("call", [
        lambda df: df.b((F(1, 3),), (F(1, 3),)),
        lambda df: df.b((F(1, 3),), (F(1, 2),)),
        lambda df: df.b((F(1, 2),), (F(1, 3),)),
        lambda df: df.add((F(1, 3),), (0,)),
        lambda df: df.add((0,), (F(1, 3),)),
        lambda df: df.neg((F(1, 3),)),
    ], ids=["b-both", "b-left", "b-right", "add-left", "add-right", "neg"])
    def test_non_coset_is_refused(self, call):
        # 1/3 is no coset of A1' / A1 = {0, 1/2}, as q and index already say
        df = discriminant_form(named_lattice("A1"))
        with pytest.raises(ValueError, match="is not a coset of the dual lattice"):
            call(df)

    def test_unreduced_cosets_are_accepted(self):
        df = discriminant_form(named_lattice("A1"))
        assert df.add((F(3, 2),), (F(-1, 2),)) == (F(0),)
        assert df.neg((F(-1, 2),)) == (F(1, 2),)
        assert df.b((F(3, 2),), (F(1, 2),)) == F(1, 2)


class TestGaussSum:
    def test_trivial(self):
        assert gauss_sum(discriminant_form(named_lattice("U"))) == pytest.approx(1)

    def test_a1(self):
        g = gauss_sum(discriminant_form(named_lattice("A1")))
        assert abs(g - (1 + 1j)) < 1e-12

    def test_a2(self):
        g = gauss_sum(discriminant_form(named_lattice("A2")))
        expected = 1 + 2 * cmath.exp(2j * cmath.pi / 3)
        assert abs(g - expected) < 1e-12

    @pytest.mark.parametrize("name", CORPUS + ["diag(2,-2)"])
    def test_milgram(self, name):
        if name == "diag(2,-2)":
            lat = new_lattice([[2, 0], [0, -2]])
        else:
            lat = named_lattice(name)
        df = discriminant_form(lat)
        g = gauss_sum(df)
        target = math.sqrt(df.order) * cmath.exp(2j * cmath.pi * df.sig8 / 8)
        assert abs(g - target) < 1e-10


def _random_even_gram(draw, n):
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    g = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] = 2 * abs(entries[i][i]) + 2
    return g


@st.composite
def even_lattices(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    g = _random_even_gram(draw, n)
    try:
        return new_lattice(g)
    except Degenerate:
        from hypothesis import assume

        assume(False)


@st.composite
def unimodular_matrices(draw, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(st.integers(min_value=-2, max_value=2))
        if i != j:
            for k in range(n):
                u[i][k] += c * u[j][k]
    return u


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_unimodular_invariance(self, data):
        lat = data.draw(even_lattices())
        n = lat.rank
        u = data.draw(unimodular_matrices(n))
        g2 = [
            [
                sum(u[i][a] * lat.gram[a][b] * u[j][b] for a in range(n) for b in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        lat2 = new_lattice(g2)
        df1, df2 = discriminant_form(lat), discriminant_form(lat2)
        assert df1.order == df2.order
        assert sorted(df1.q_table.values()) == sorted(df2.q_table.values())
        assert df1.sig8 == df2.sig8

    @settings(max_examples=40, deadline=None)
    @given(even_lattices())
    def test_q_denominator_divides_2_order(self, lat):
        df = discriminant_form(lat)
        for q in df.q_table.values():
            assert (2 * df.order) % q.denominator == 0

    @settings(max_examples=40, deadline=None)
    @given(even_lattices())
    def test_milgram_random(self, lat):
        df = discriminant_form(lat)
        g = gauss_sum(df)
        target = math.sqrt(df.order) * cmath.exp(2j * cmath.pi * df.sig8 / 8)
        assert abs(g - target) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_b_symmetry(self, data):
        lat = data.draw(even_lattices())
        df = discriminant_form(lat)
        cosets = list(df.cosets)
        lam = data.draw(st.sampled_from(cosets))
        mu = data.draw(st.sampled_from(cosets))
        assert df.b(lam, mu) == df.b(mu, lam)


def _cofactor_det(g) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not g:
        return 1
    return sum((-1) ** j * g[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in g[1:]])
               for j in range(len(g)) if g[0][j])


def _char_poly(g) -> list[F]:
    """Coefficients c_0..c_n of det(x I - G), by Faddeev-LeVerrier over Q."""
    n = len(g)
    c = [F(0)] * n + [F(1)]
    m = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(g[i][t] * m[t][j] for t in range(n)) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        c[n - k] = -sum(g[i][t] * m[t][i] for i in range(n) for t in range(n)) / k
    return c


def _sign_changes(coeffs) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def even_symmetric_matrices(draw):
    """Even symmetric integer matrices of size 1-6: a direct sum of copies of
    U and a random block whose diagonal may be all zero, in a random basis;
    indefinite and singular ones included."""
    n = draw(st.integers(min_value=1, max_value=6))
    h = draw(st.integers(min_value=0, max_value=n // 2))
    zero_diagonal = draw(st.booleans())
    small = st.integers(min_value=-3, max_value=3)
    g = [[0] * n for _ in range(n)]
    for k in range(h):
        g[2 * k][2 * k + 1] = g[2 * k + 1][2 * k] = 1
    for i in range(2 * h, n):
        g[i][i] = 0 if zero_diagonal else 2 * draw(small)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(small)
    b = [[1 if i == j else draw(st.sampled_from([-1, 0, 1])) if j > i else 0 for j in range(n)]
         for i in range(n)]
    if draw(st.booleans()):
        b = b[::-1]
    return [[sum(b[k][i] * g[k][l] * b[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


class TestBlockReduction:
    @settings(max_examples=150, deadline=None)
    @given(even_symmetric_matrices())
    def test_det_and_signature_against_independent_routes(self, g):
        det = _cofactor_det(g)
        if det == 0:
            with pytest.raises(Degenerate):
                new_lattice(g)
            return
        lat = new_lattice(g)
        c = _char_poly(g)
        # all roots are real, so Descartes' rule counts them exactly
        positive = _sign_changes(c)
        negative = _sign_changes([(-1) ** k * x for k, x in enumerate(c)])
        assert lat.det == det
        assert lat.signature == (positive, negative)


def _mod1(v):
    return tuple(x % 1 for x in v)


def _closure_form(lat):
    """The discriminant form by the route independent of Smith coordinates:
    close the Smith generators V e_i / s_i under addition mod 1 as tuples
    of Fractions, and evaluate Q on each coset with Lattice.quadratic."""
    n = lat.rank
    s, _, v = smith_normal_form(lat.gram)
    gens = tuple((tuple(F(v[r][i], s[i][i]) % 1 for r in range(n)), s[i][i])
                 for i in range(n) if s[i][i] > 1)
    cosets = {(F(0),) * n}
    for vec, d in gens:
        cosets = {tuple((x + k * y) % 1 for x, y in zip(base, vec))
                  for base in cosets for k in range(d)}
    assert len(cosets) == abs(lat.det)
    cosets = sorted(cosets)
    q = {lam: lat.quadratic(lam) % 1 for lam in cosets}
    return gens, cosets, q, math.lcm(1, *(x.denominator for x in q.values()))


class TestSmithCoordinates:
    @settings(max_examples=120, deadline=None)
    @given(even_symmetric_matrices(), st.randoms(use_true_random=False))
    @example(BUILTIN_GRAMS["U"], random.Random(0))  # |D| = 1: the zero coset alone
    @example(BUILTIN_GRAMS["E8"], random.Random(0))
    def test_matches_the_fraction_closure(self, g, rng):
        assume(len(g) <= 5 and 0 < abs(_cofactor_det(g)) <= 3000)
        lat = new_lattice(g)
        df = DiscriminantForm(lat)
        gens, cosets, q, level = _closure_form(lat)
        assert df.cosets == tuple(cosets)
        assert list(df.q_table.items()) == list(q.items())
        assert df.level == level
        assert df.generators == gens
        for _ in range(8):
            lam, mu = rng.choice(cosets), rng.choice(cosets)
            for shift in (False, True):
                if shift:  # unreduced representatives: lam + an integer vector
                    lam = tuple(x + rng.randint(-3, 3) for x in lam)
                    mu = tuple(x + rng.randint(-3, 3) for x in mu)
                assert df.index(lam) == cosets.index(_mod1(lam))
                assert df.neg(lam) == _mod1(-x for x in lam)
                assert df.add(lam, mu) == _mod1(x + y for x, y in zip(lam, mu))
                assert df.b(lam, mu) == lat.bilinear(lam, mu) % 1
                assert df.q(lam) == lat.quadratic(lam) % 1


class TestSmith:
    def test_uav_equals_s(self):
        for name in CORPUS:
            lat = named_lattice(name)
            s, u, v = smith_normal_form(lat.gram)
            n = lat.rank
            prod = [
                [
                    sum(u[i][a] * lat.gram[a][b] * v[b][j] for a in range(n) for b in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert prod == s
            for i in range(n - 1):
                if s[i][i] and s[i + 1][i + 1]:
                    assert s[i + 1][i + 1] % s[i][i] == 0


def test_direct_sum():
    lat = direct_sum(named_lattice("A1"), named_lattice("A1"))
    assert lat.rank == 2
    assert lat.gram == ((2, 0), (0, 2))
    assert discriminant_form(lat).order == 4
