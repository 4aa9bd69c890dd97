import dataclasses
import json
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cycletheta import enumeration, quadlattice
from cycletheta.enumeration import (
    NotPositiveDefinite,
    inner_product_histogram,
    rep_number,
    rep_number_genus2,
    theta_qseries,
    vectors_with_norm,
)
from cycletheta.quadlattice import (
    BUILTIN_GRAMS,
    direct_sum,
    discriminant_form,
    named_lattice,
    new_lattice,
)


def _det(a):
    """Laplace expansion along the first row (the ranks here are small)."""
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j, x in enumerate(a[0]) if x) if a else 1


def _box_bounds(lat, m):
    """|y_i| <= sqrt(2 m (G^-1)_ii) on Q(y) = m, with (G^-1)_ii a cofactor
    over det G, padded by 2."""
    g = [list(row) for row in lat.gram]
    det = _det(g)
    minors = [_det([r[:i] + r[i + 1:] for k, r in enumerate(g) if k != i]) for i in range(len(g))]
    return [math.isqrt(math.ceil(2 * F(m) * F(c, det))) + 2 for c in minors]


def brute_vectors(lat, mu, m):
    """Independent oracle: a box scan with bounds from the inverse Gram.

    With delta clearing the denominators of mu, x = delta (mu + c) is an
    integer vector with x^T G x = 2 delta^2 Q(mu + c), so the shell Q = m
    is scanned in integers: one numpy pass over the last n - 1 coordinates
    for each value of the first."""
    n = lat.rank
    mu = [F(x) for x in mu] if mu else [F(0)] * n
    delta = math.lcm(1, *(x.denominator for x in mu))
    target = 2 * delta * delta * F(m)
    if target.denominator != 1:
        return []
    axes = [[int(delta * (x + c)) for c in range(-b - 1, b + 2)]
            for x, b in zip(mu, _box_bounds(lat, m))]
    reach = sum(max(map(abs, ax)) for ax in axes)
    big = reach * reach * max(abs(g) for row in lat.gram for g in row) >= 2 ** 62
    dtype = object if big else np.int64
    g = np.array(lat.gram, dtype=dtype)
    rest = np.zeros((1, 0), dtype=dtype)
    for ax in axes[1:]:
        column = np.tile(np.array(ax, dtype=dtype), len(rest))[:, None]
        rest = np.hstack([np.repeat(rest, len(ax), axis=0), column])
    q_rest = ((rest @ g[1:, 1:]) * rest).sum(axis=1)
    cross = 2 * (rest @ g[0, 1:])
    out = []
    for x0 in axes[0]:
        hits = np.asarray(q_rest + x0 * cross + g[0, 0] * x0 * x0 == int(target), dtype=bool)
        out += [tuple(F(int(x), delta) for x in (x0, *row)) for row in rest[hits]]
    return sorted(out)


def walk_counts(lat, lam, bound):
    """The oracle of the glued counts: one exact-solve walk per norm on the
    grid q(lam) + Z below bound.  The walk shares no code with gluing."""
    q = lat.quadratic(lam) % 1
    return [enumeration._walk_target(lat, lam, q + k, False)
            for k in range(max(0, math.ceil(bound - q)))]


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

    def test_beyond_int64_takes_object_route(self, monkeypatch):
        # delta = l0 = 2^40 puts the scaled budget 2 m l0 delta^4 far beyond
        # 2^62, so the frontier must hold Python ints
        dtypes = set()
        isqrt = enumeration._isqrt

        def spy(a):
            dtypes.add(a.dtype)
            return isqrt(a)

        monkeypatch.setattr(enumeration, "_isqrt", spy)
        lat = new_lattice([[2 ** 40, 1], [1, 2 ** 40]])
        for m in (2 ** 39, 2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1):
            brute = brute_vectors(lat, None, m)
            assert vectors_with_norm(lat, None, m) == brute
            assert rep_number(lat, None, m) == len(brute)
        assert rep_number(lat, None, 2 ** 39) == 4
        assert dtypes == {np.dtype(object)}

    def test_rejects_non_dual_coset(self):
        with pytest.raises(ValueError):
            rep_number(named_lattice("A1"), (F(1, 3),), 1)

    @pytest.mark.parametrize("name,mu,m", [
        ("E8", (0,) * 7, 1), ("A2", (F(1, 3), F(2, 3), 0), F(1, 3)), ("A2", (0,), 1),
    ])
    def test_rejects_coset_of_wrong_length(self, name, mu, m):
        lat = named_lattice(name)
        match = f"a coset of {len(mu)} coordinates on a lattice of rank {lat.rank}"
        with pytest.raises(ValueError, match=match):
            rep_number(lat, mu, m)
        with pytest.raises(ValueError, match=match):
            vectors_with_norm(lat, mu, m)
        with pytest.raises(ValueError, match=match):
            rep_number_genus2(lat, (mu, None), ((m, 0), (0, 1)))

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
        # the glued counts (theta) against the exact-solve walk (rep_number)
        lat = new_lattice(gram)
        th = theta_qseries(lat, 3)
        assert len(th.components) == abs(lat.det)
        for coset, pairs in th.components.items():
            assert pairs
            for e, c in pairs:
                assert c == rep_number(lat, coset, e), (coset, e)

    def test_component_of_a_non_coset_is_a_named_error(self):
        th = theta_qseries(named_lattice("A1"), 2)
        for coset in [(F(1, 3),), (0, 0)]:
            with pytest.raises(ValueError, match="is not a coset of the dual lattice"):
                th.component(coset)
            with pytest.raises(ValueError, match="is not a coset of the dual lattice"):
                th.coefficient(coset, 1)

    def test_none_is_the_zero_coset(self):
        for name in ["A1", "A2", "D4"]:
            th = theta_qseries(named_lattice(name), 3)
            zero = tuple(F(0) for _ in range(named_lattice(name).rank))
            assert min(th.components) == zero
            assert th.component(None) is th.components[zero]

    def test_cached_series_is_read_only(self):
        th = theta_qseries(named_lattice("A2"), 2)
        zero = (F(0), F(0))
        with pytest.raises(TypeError):
            th.components[zero] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            th.truncation = F(5)
        again = theta_qseries(named_lattice("A2"), 2)
        assert again.component(None) == ((F(0), 1), (F(1), 6))


class TestGenus2:
    def test_zero_matrix(self):
        assert rep_number_genus2(named_lattice("E8"), None, ((0, 0), (0, 0))) == 1

    def test_e8_cross(self):
        t = ((1, F(1, 2)), (F(1, 2), 1))
        assert rep_number_genus2(named_lattice("E8"), None, t) == 13440

    def test_not_psd(self):
        assert rep_number_genus2(named_lattice("E8"), None, ((1, 2), (2, 1))) == 0

    @pytest.mark.parametrize("cosets", [[(F(1, 2),)], [], [(0,), (0,), (0,)]])
    def test_cosets_must_be_none_or_a_pair(self, cosets):
        a1 = named_lattice("A1")
        with pytest.raises(ValueError, match="pair"):
            rep_number_genus2(a1, cosets, ((1, 0), (0, 1)))
        half = (F(1, 2),)
        t = ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))
        assert rep_number_genus2(a1, [half, half], t) == 2
        assert rep_number_genus2(a1, None, ((1, 1), (1, 1))) == 2

    @pytest.mark.parametrize("t", [None, 5, ((1,),), ((1, 0), (0,)), ((1, 2, 3), (4, 5, 6)),
                                   ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, None), (0, 1))])
    def test_t_must_be_a_2x2_matrix(self, t):
        with pytest.raises(ValueError, match="t must be a 2x2 matrix"):
            rep_number_genus2(named_lattice("A2"), None, t)

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
        # the nonzero cosets of D4 are their own negatives, so A2 is halved
        mu1, mu2 = discriminant_form(d4).cosets[1:3]
        m = discriminant_form(d4).q_table[mu1]
        v1, v2 = brute_vectors(d4, mu1, m), brute_vectors(d4, mu2, m)
        self._check_direct(d4, mu1, m, v1, mu2, m, v2)
        self._check_direct(d4, mu1, m, v1, mu1, m, v1)

    @staticmethod
    def _check_direct(lat, mu1, m1, v1, mu2, m2, v2):
        direct = Counter(lat.bilinear(x, y) for x in v1 for y in v2)
        assert sum(direct.values()) > 0
        assert dict(inner_product_histogram(lat, mu1, m1, mu2, m2)) == dict(direct)

    def test_symmetric_shell_is_halved_exactly(self):
        # the x2 -> -x2 fold against every pair, counted in exact int64
        e8 = named_lattice("E8")
        zero = discriminant_form(e8).cosets[0]
        x = np.array(vectors_with_norm(e8, None, 2), dtype=np.int64)
        values, counts = np.unique(x @ np.array(e8.gram) @ x.T, return_counts=True)
        direct = dict(zip(values.tolist(), counts.tolist()))
        assert dict(inner_product_histogram(e8, zero, 2, zero, 2)) == direct
        # m2 = 0: the zero vector alone, paired with each of the 2160
        assert dict(inner_product_histogram(e8, zero, 2, zero, 0)) == {0: len(x)}

    # (lattice, coset 1, k1, coset 2, k2, sides that fold): m_i = q(mu_i) + k_i
    FOLD_CASES = [
        ("A3", 1, 1, 0, 1, (False, True)),  # 4-torsion against the zero coset
        ("A3", 0, 1, 1, 1, (True, False)),
        ("A3", 1, 1, 2, 1, (False, True)),  # 4-torsion against 2-torsion
        ("A3", 2, 1, 3, 0, (True, False)),
        ("A3", 0, 0, 0, 2, (True, True)),  # m1 = 0: P1 empty, one zero row
        ("A3", 0, 2, 0, 0, (True, True)),
        ("A3", 0, 0, 0, 0, (True, True)),
        ("A3", 0, 0, 1, 1, (True, False)),
        ("A3", 3, 2, 0, 0, (False, True)),
        ("D4", 1, 0, 3, 0, (True, True)),  # cosets with 1/2 entries
    ]

    @pytest.mark.parametrize("name,i1,k1,i2,k2,folds", FOLD_CASES)
    def test_sign_fold_matches_direct_pair_count(self, name, i1, k1, i2, k2, folds):
        lat = named_lattice(name)
        df = discriminant_form(lat)
        mu1, mu2 = df.cosets[i1], df.cosets[i2]
        m1, m2 = df.q_table[mu1] + k1, df.q_table[mu2] + k2
        v1, v2 = brute_vectors(lat, mu1, m1), brute_vectors(lat, mu2, m2)
        assert (enumeration._self_dual(mu1), enumeration._self_dual(mu2)) == folds
        self._check_direct(lat, mu1, m1, v1, mu2, m2, v2)

    # (lattice, coset 1, k1, coset 2, k2, digits k per float32 entry); the
    # table nb^k stays within |R1| |R2| products, and "+" is a direct sum
    PACKED_CASES = [
        ("A2", 0, 1, 0, 1, 1),  # both sides folded; 2 x 3 products < 25 bins
        ("D4", 0, 1, 0, 2, 2),  # both sides folded; 5 x 12 products, 12 rows in 2 groups of 6
        ("A2", 1, 0, 1, 0, 1),  # 3-torsion, root-folded only; 2 x 3 products < 13^2 bins
        ("A2", 1, 1, 2, 1, 1),  # 3-torsion, root-folded only; 2 x 3 products < 49^2 bins
        ("A3", 3, 2, 0, 0, 1),  # m2 = 0: the single bin forces k = 1
        ("D4", 1, 1, 3, 1, 1),  # cosets with 1/2 entries; 4 x 16 products < 25^2 bins
        ("A1+A3", 0, 1, 0, 2, 2),  # both sides folded; 15 rows padded to 16
        ("A1+D4", 0, 1, 0, 1, 2),  # both sides folded; 13 rows padded to 14
        ("A2+D4", 0, 1, 0, 2, 3),  # both sides folded; 7 x 84 products < 5^4 bins
    ]

    @pytest.mark.parametrize("name,i1,k1,i2,k2,k", PACKED_CASES)
    def test_packed_digits_match_direct_pair_count(self, monkeypatch, name, i1, k1, i2, k2, k):
        lat = direct_sum(*map(named_lattice, name.split("+")))
        df = discriminant_form(lat)
        mu1, mu2 = df.cosets[i1], df.cosets[i2]
        m1, m2 = df.q_table[mu1] + k1, df.q_table[mu2] + k2
        v1, v2 = brute_vectors(lat, mu1, m1), brute_vectors(lat, mu2, m2)
        d1, d2 = enumeration._shell(lat, mu1, m1)[0], enumeration._shell(lat, mu2, m2)[0]
        nb = 2 * math.isqrt(math.floor(4 * (d1 * d2) ** 2 * m1 * m2)) + 1
        tables = []
        bincount = np.bincount

        def spy(*args, **kwargs):
            out = bincount(*args, **kwargs)
            tables.append(len(out))
            return out

        monkeypatch.setattr(np, "bincount", spy)
        hist = enumeration._histogram.__wrapped__(lat, mu1, m1, mu2, m2)
        monkeypatch.undo()
        assert tables and set(tables) == {nb ** k}
        assert nb ** k <= 2 ** 17
        assert dict(hist) == dict(Counter(lat.bilinear(x, y) for x in v1 for y in v2))

    # (lattice, orthogonal roots k): below k = rank, -1 is not in the group A
    # of their reflections; in D4+A1 it is, and every coset is its own negative
    ROOT_FOLD_CASES = [("A2", 1), ("A3", 2), ("A2+A2", 2), ("A1+A3", 3), ("D4+A1", 5)]

    @pytest.mark.parametrize("name,k", ROOT_FOLD_CASES)
    def test_root_fold_matches_direct_pair_count(self, name, k):
        lat = direct_sum(*map(named_lattice, name.split("+")))
        assert len(enumeration._orthogonal_roots(lat)) == k
        df = discriminant_form(lat)
        g = np.array(lat.gram, dtype=np.int64)
        den = math.lcm(*(x.denominator for mu in df.cosets for x in mu))
        shells = {}
        for mu in df.cosets:
            for j in range(3):  # j = 0 includes the zero shell of the zero coset
                m = df.q_table[mu] + j
                rows = [[int(x * den) for x in v] for v in brute_vectors(lat, mu, m)]
                shells[mu, m] = np.array(rows, dtype=np.int64).reshape(-1, lat.rank)
        for (mu1, m1), x1 in shells.items():
            for (mu2, m2), x2 in shells.items():
                values, counts = np.unique(x1 @ g @ x2.T, return_counts=True)
                direct = {F(int(v), den * den): int(c) for v, c in zip(values, counts)}
                assert dict(enumeration._histogram.__wrapped__(lat, mu1, m1, mu2, m2)) == direct

    @pytest.mark.parametrize("gram", [
        ((4, -2), (-2, 4)),  # A2(2)
        ((4, -2, 0, 0), (-2, 4, -2, -2), (0, -2, 4, 0), (0, -2, 0, 4)),  # D4(2)
    ])
    def test_root_free_fold_keeps_the_sign_fold_rows(self, gram):
        # no roots: the rows whose first nonzero entry is positive where -mu = mu,
        # every row elsewhere, each of weight 1
        lat = new_lattice(gram)
        assert len(enumeration._orthogonal_roots(lat)) == 0
        df = discriminant_form(lat)
        for mu in df.cosets:
            for j in range(2):
                a = enumeration._shell(lat, mu, df.q_table[mu] + j)[1]
                rows, exps = enumeration._root_fold(lat, mu, a)
                kept = a.tolist()
                if all(2 * x in (0, 1) for x in mu):
                    kept = [x for x in kept if next((c for c in x if c), 0) > 0]
                assert rows.tolist() == kept
                assert not exps.any()

    def test_e8_cup_histograms_multiply_1101_rows(self, monkeypatch):
        # the sign fold alone multiplies half of each first shell: 19200 rows
        multiplied = []
        count_products = enumeration._count_products

        def spy(f1, *args):
            multiplied.append(len(f1))
            return count_products(f1, *args)

        monkeypatch.setattr(enumeration, "_count_products", spy)
        e8 = named_lattice("E8")
        zero = discriminant_form(e8).cosets[0]
        r = [1, 240, 2160, 6720, 17520]
        for t1 in range(5):
            for t2 in range(t1, 5):
                hist = enumeration._histogram.__wrapped__(e8, zero, F(t1), zero, F(t2))
                assert sum(hist.values()) == r[t1] * r[t2]
        assert sum(multiplied) == 1101

    def test_one_shell_entry_per_coset(self):
        a2 = named_lattice("A2")
        enumeration._shell_rows.cache_clear()
        shells = [enumeration._shell(a2, mu, 2) for mu in (None, (F(0), F(0)), [3, F(-2)])]
        info = enumeration._shell_rows.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert all(s is shells[0] for s in shells)

    def test_histogram_takes_any_coset_spelling(self):
        a2 = named_lattice("A2")
        same = [inner_product_histogram(a2, c1, 1, c2, 1)
                for c1, c2 in ((None, None), ([0, 0], [0, 0]), ((F(0), F(0)), (1, -1)))]
        assert all(h is same[0] for h in same)
        assert dict(same[0]) == {-2: 6, -1: 12, 1: 12, 2: 6}
        with pytest.raises(TypeError):
            same[0][F(0)] = 1
        df = discriminant_form(a2)
        mu = df.cosets[1]
        m = df.q_table[mu]
        hist = inner_product_histogram(a2, list(mu), m, [x + 1 for x in mu], m)
        assert hist is inner_product_histogram(a2, mu, m, mu, m)

    def test_histogram_float32_guard(self, monkeypatch):
        # the skewed A1+A1 of the float64 guard test below, at 2^24: B = c^2
        c = math.isqrt(2 ** 24 - 1) // 2 * 2
        assert c * c < 2 ** 24 <= (c + 2) ** 2
        chosen = []
        exact_float = enumeration._exact_float

        def spy(bound):
            chosen.append(exact_float(bound))
            return chosen[-1]

        monkeypatch.setattr(enumeration, "_exact_float", spy)
        zero = (F(0), F(0))
        for e in (c, c + 2):
            lat = new_lattice([[2, e], [e, e * e // 2 + 2]])
            hist = enumeration._histogram.__wrapped__(lat, zero, 1, zero, 1)
            assert dict(hist) == {-2: 4, 0: 8, 2: 4}
        assert chosen == [np.float32, np.float64]
        assert exact_float(2 ** 24 - 1) is np.float32
        assert exact_float(2 ** 53 - 1) is np.float64
        with pytest.raises(OverflowError):
            exact_float(2 ** 53)

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


class TestCountingWalk:
    """Counting walks, and the glued theta series, against the box scan on
    cosets with 2 mu in L (x -> -x maps their balls onto themselves) and on
    one without."""

    # (lattice, coset, norms checked)
    CASES = [
        ("D4", (0, 0, F(1, 2), F(1, 2)), 2),
        ("D4", (0, 0, 0, 0), 2),
        ("A1+A1", (0, F(1, 2)), 4),
        ("A1+A1", (F(1, 2), 0), 4),
        ("A2", (F(1, 3), F(2, 3)), 4),  # 3-torsion: 2 mu is not in L
    ]

    @pytest.mark.parametrize("name,mu,norms", CASES)
    def test_counts_match_box_scan(self, name, mu, norms):
        a1 = named_lattice("A1")
        lat = direct_sum(a1, a1) if name == "A1+A1" else named_lattice(name)
        mu = tuple(F(x) for x in mu)
        q = discriminant_form(lat).q_table[mu]
        brute = [len(brute_vectors(lat, mu, q + k)) for k in range(norms)]
        assert [rep_number(lat, mu, q + k) for k in range(norms)] == brute
        th = theta_qseries.__wrapped__(lat, q + norms)
        assert [c for _, c in th.component(mu)] == brute


class TestFrontierChunks:
    @pytest.mark.parametrize("rows", [1, 7])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, rows):
        lats = [named_lattice("D4"), new_lattice([[4, 1, 0], [1, 6, 3], [0, 3, 10]])]

        def walks():
            return [(rep_number(lat, None, m), vectors_with_norm(lat, None, m))
                    for lat in lats for m in range(1, 5)]

        before = walks()
        monkeypatch.setattr(enumeration, "_FRONTIER_ROWS", rows)
        assert walks() == before


    def test_int64_isqrt_near_squares(self):
        # float64 rounds k^2 - 1 up to k^2 once k^2 > 2^53; the correction
        # must still give the floor root everywhere below 2^62
        ks = [2 ** 27, 2 ** 30 + 12345, 2 ** 31 - 1]
        a = [k * k + d for k in ks for d in (-1, 0, 1)] + [0, 1, 2, 3, 2 ** 62 - 1]
        got = enumeration._isqrt(np.array(a, dtype=np.int64))
        assert got.tolist() == [math.isqrt(x) for x in a]


def _lattice(name):
    return direct_sum(*(named_lattice(n) for n in name.split("+")))


def _seeded_skewed_corpus():
    """The 12 seeded skewed Grams of rank 6-8 with |det| <= 64."""
    rng = random.Random(20261019)
    lats = []
    while len(lats) < 12:
        lat = new_lattice(_skewed_gram(rng.choice, rng.randint(6, 8)))
        if abs(lat.det) <= 64:
            lats.append(lat)
    return lats


@st.composite
def convolution_terms(draw):
    """(terms, grid) for _packed_convolution: a few (a, b, s) with entries
    past 2^64, and half the time one more term that puts the total
    sum(a) sum(b) over the terms on a slot boundary, 2^(8 wb) - 1 or 2^(8 wb)."""
    grid = draw(st.integers(min_value=1, max_value=10))
    entries = st.lists(st.integers(min_value=0, max_value=2 ** 80), min_size=1, max_size=8)
    shifts = st.integers(min_value=0, max_value=grid - 1)
    terms = draw(st.lists(st.tuples(entries, entries, shifts), max_size=3))
    total = sum(sum(a) * sum(b) for a, b, _ in terms)
    if draw(st.booleans()):
        wb = max(1, -(-total.bit_length() // 8)) + draw(st.integers(min_value=0, max_value=2))
        boundary = (1 << 8 * wb) - draw(st.sampled_from([0, 1]))
        terms.append(([boundary - total], [1], draw(shifts)))
    return terms, grid


class TestGluing:
    """The glued counts against the oracle: the exact-solve walk, one norm
    at a time."""

    @staticmethod
    def assert_matches_walk(lat, bound):
        th = theta_qseries.__wrapped__(lat, bound)
        assert len(th.components) == abs(lat.det)
        for lam, pairs in th.components.items():
            assert [c for _, c in pairs] == walk_counts(lat, lam, bound), lam

    @pytest.mark.parametrize("name,bound,order", [
        ("E8", 12, 5), ("A1+A1+A1+A1+A1+A1+A1+A1", 4, 1), ("D4+D4", 8, 1),
        ("A2+A2+A2+A2", 5, 1),
    ])
    def test_rank_8_matches_walk(self, name, bound, order):
        lat = _lattice(name)
        assert len(enumeration._glue(lat)[3]) == order
        self.assert_matches_walk(lat, bound)
        df = discriminant_form(lat)
        for lam in df.cosets[:8]:
            for k in range(3):
                m = df.q_table[lam] + k
                assert rep_number(lat, lam, m) == enumeration._walk_target(lat, lam, m, False)

    def test_seeded_corpus_matches_walk(self):
        for lat in _seeded_skewed_corpus():
            self.assert_matches_walk(lat, F(7, 2))

    @pytest.mark.parametrize("name", ["seeded", "E8", "D4", "A2+A2+A2", "wide"])
    def test_glue_invariants(self, name):
        # L1 + L2 < L < L' < L1' + L2' with [L : L1 + L2] = [L1' + L2' : L'] =
        # |H|, so |D1| |D2| = |H|^2 |D|; the pairs of the |D| cosets are then
        # |D| |H| distinct elements of D1 x D2, at every level of the recursion;
        # "wide" is the |D| = 2^17 - 1 lattice of the object-route test below
        lats = (_seeded_skewed_corpus() if name == "seeded" else
                [new_lattice([[2, 1], [1, 2 ** 16]])] if name == "wide" else [_lattice(name)])
        while lats:
            lat = lats.pop()
            if lat.rank == 1:
                continue
            l1, l2, split, glue = enumeration._glue(lat)
            mods, mods1, mods2 = (quadlattice._smith(x)[0] for x in (lat, l1, l2))
            d, h = math.prod(mods), len(glue)
            assert d == abs(lat.det) and len(set(glue)) == h
            assert math.prod(mods1) * math.prod(mods2) == h * h * d
            assert [m for _, m in split] == list(mods1 + mods2)
            # the pairs of the coset c are split(c) + h for h in the glue
            pairs = [tuple((sum(map(operator.mul, row, c)) + x) % m
                           for (row, m), x in zip(split, g))
                     for c in product(*map(range, mods)) for g in glue]
            assert len(pairs) == len(set(pairs)) == d * h
            assert all(type(x) is int and 0 <= x < m
                       for pair in pairs for x, m in zip(pair, mods1 + mods2))
            lats += [l1, l2]

    @pytest.mark.parametrize("name,bound,order,ranks", [
        ("D4", 12, 3, {4, 2, 1}), ("A2+A2+A2", 6, 2, {6, 3, 2, 1}),
    ])
    def test_default_route_glues_to_rank_1(self, monkeypatch, name, bound, order, ranks):
        lat = _lattice(name)
        seen = set()
        counts = enumeration._counts

        def spy(lat, mu, bound, memo):
            seen.add(lat.rank)
            return counts(lat, mu, bound, memo)

        monkeypatch.setattr(enumeration, "_counts", spy)
        assert len(enumeration._glue(lat)[3]) == order
        self.assert_matches_walk(lat, bound)
        assert seen == ranks  # every half of rank >= 2 is glued again
        df = discriminant_form(lat)
        for lam in df.cosets:
            m = df.q_table[lam] + 2
            assert rep_number(lat, lam, m) == enumeration._walk_target(lat, lam, m, False)

    def test_halves_beyond_int64_take_object_route(self, monkeypatch):
        # L2 = L meet e_0^perp is spanned by (1, -2) of norm 2^18 - 2, so its
        # cosets have denominators near 2^18: the rank-1 halves are counted in
        # Python ints, and the walk over L (the oracle) holds Python ints too
        lat = new_lattice([[2, 1], [1, 2 ** 16]])
        dtypes, halves = set(), set()
        isqrt, line_counts = enumeration._isqrt, enumeration._line_counts

        def isqrt_spy(a):
            dtypes.add(a.dtype)
            return isqrt(a)

        def line_spy(lat, mu, bound):
            halves.add(lat.gram)
            return line_counts(lat, mu, bound)

        monkeypatch.setattr(enumeration, "_isqrt", isqrt_spy)
        monkeypatch.setattr(enumeration, "_line_counts", line_spy)
        assert len(enumeration._glue(lat)[3]) == 2
        det = 2 ** 17 - 1
        for t in (0, 1, 2, 5, det - 1):
            lam = (F(-t, det) % 1, F(2 * t, det) % 1)
            glued = enumeration._counts(lat, quadlattice._smith_coords(lat, lam), 3, {})
            assert glued == walk_counts(lat, lam, 3)
            assert sum(glued) > 0
        assert halves == {((2,),), ((2 ** 18 - 2,),)}
        assert np.dtype(object) in dtypes

    @pytest.mark.parametrize("g", [2, 6, 10, 2 ** 20, 2 ** 60])
    def test_rank_1_closed_form_matches_walk(self, g):
        lat = new_lattice([[g]])
        for j in sorted({0, 1, 2, g // 2, g - 1}):
            lam, c = (F(j, g),), (j % g,)  # at rank 1 the Smith coordinate is j
            assert quadlattice._smith_coords(lat, lam) == c
            q = lat.quadratic(lam) % 1
            for bound in (q, q + F(1, 2), q + 1, q + 7, 40):
                counts = enumeration._counts(lat, c, bound, {})
                assert counts == walk_counts(lat, lam, bound), (j, bound)

    def test_convolution_beyond_int64(self, monkeypatch):
        # A1^8 splits as A1^4 + A1^4 with trivial glue, so the zero coset is
        # one convolution; counts of 2^62 put its entries past int64
        monkeypatch.setattr(enumeration, "_counts", lambda lat, mu, bound, memo: [2 ** 62] * 3)
        lat = _lattice("A1+A1+A1+A1+A1+A1+A1+A1")
        zero = (0,) * 8  # Smith coordinates of the zero coset of (Z/2)^8
        assert enumeration._glued_counts(lat, zero, 3, {}) == [2 ** 124, 2 ** 125, 3 * 2 ** 124]

    @settings(max_examples=200, deadline=None)
    @given(convolution_terms())
    def test_packed_convolution_matches_schoolbook(self, case):
        terms, grid = case
        want = [0] * grid
        for a, b, s in terms:
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    if i + j + s < grid:
                        want[i + j + s] += x * y
        assert enumeration._packed_convolution(terms, grid) == want

    @pytest.mark.parametrize("nbytes", [1, 2, 8, 9])
    def test_packed_convolution_on_a_slot_boundary(self, nbytes):
        # one entry holds the whole total: 2^(8 wb) - 1 fills wb bytes, and
        # 2^(8 wb) needs one more
        for total in ((1 << 8 * nbytes) - 1, 1 << 8 * nbytes):
            terms = [([total, 0], [1], 1), ([0], [0, 5], 0)]
            assert enumeration._packed_convolution(terms, 3) == [0, total, 0]

    def test_e8_e8(self):
        # theta of E8 + E8 is E8 = 1 + 480 sum sigma_7(m) q^m, and the square
        # of theta_E8; the walk over this rank-16 ball is out of reach
        e8 = named_lattice("E8")
        lat = direct_sum(e8, e8)
        start = time.perf_counter()
        counts = [c for _, c in theta_qseries(lat, 10).component(None)]
        assert time.perf_counter() - start < 10
        sigma7 = [sum(d ** 7 for d in range(1, m + 1) if m % d == 0) for m in range(10)]
        assert counts == [1] + [480 * s for s in sigma7[1:]]
        e8_counts = [c for _, c in theta_qseries(e8, 10).component(None)]
        assert counts == [sum(e8_counts[i] * e8_counts[m - i] for i in range(m + 1))
                          for m in range(10)]
        assert [rep_number(lat, None, m) for m in range(7)] == counts[:7]

    def test_lll_reduces(self):
        # the kernel basis from the Smith form has a vector of norm 30 on E8;
        # the reduced complement is spanned by roots
        e8 = named_lattice("E8")
        l2 = enumeration._glue(e8)[1]
        assert [l2.gram[i][i] for i in range(4)] == [2, 2, 2, 2]
        rng = random.Random(7)
        g = BUILTIN_GRAMS["D4"]
        dot = lambda x, y: sum(a * g[i][j] * b for i, a in enumerate(x) for j, b in enumerate(y))
        for _ in range(20):
            basis = [[1 if i == j else rng.randint(-4, 4) if j > i else 0 for j in range(4)]
                     for i in range(4)]
            basis = [basis[i] for i in rng.sample(range(4), 4)]
            b = enumeration._lll(dot, basis)
            # the same lattice: b = M basis with M integral and unimodular
            assert abs(_det(b)) == 1
            mu, bs = [[F(0)] * 4 for _ in range(4)], []  # Gram-Schmidt from scratch
            for i in range(4):
                for j in range(i):
                    mu[i][j] = (dot(b[i], b[j])
                                - sum(mu[j][t] * mu[i][t] * bs[t] for t in range(j))) / bs[j]
                bs.append(dot(b[i], b[i]) - sum(mu[i][j] ** 2 * bs[j] for j in range(i)))
            assert all(abs(mu[i][j]) <= F(1, 2) for i in range(4) for j in range(i))
            assert all(bs[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * bs[i - 1] for i in range(1, 4))
def _skewed_gram(pick, n):
    """A positive definite even Gram matrix of rank n: a sum of A_k root
    lattices with one diagonal entry raised, in a random unimodular basis;
    pick(options) makes each random choice."""
    sign = [-1, 0, 1]
    h = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        h[i][i + 1] = h[i + 1][i] = pick(sign)
    i0 = pick(range(n))
    h[i0][i0] += 2 * pick(range(3))
    b = [[1 if i == j else pick(sign) if j > i else 0 for j in range(n)] for i in range(n)]
    return [
        [sum(b[k][i] * h[k][l] * b[l][j] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def skewed_even_gram(draw):
    """_skewed_gram of rank 2-4, drawn by hypothesis."""
    n = draw(st.integers(min_value=2, max_value=4))
    return _skewed_gram(lambda options: draw(st.sampled_from(options)), n)


class TestWalkerProperty:
    @settings(max_examples=20, deadline=None)
    @given(skewed_even_gram(), st.integers(min_value=0, max_value=1))
    def test_walkers_match_box_scan(self, gram, k):
        lat = new_lattice(gram)
        df = discriminant_form(lat)
        norms = {lam: df.q_table[lam] + k for lam in df.cosets}
        # keep the oracle's box scan small
        boxes = [math.prod(2 * b + 3 for b in _box_bounds(lat, m)) for m in norms.values()]
        assume(sum(boxes) <= 20000)
        for lam, m in norms.items():
            brute = brute_vectors(lat, lam, m)
            assert vectors_with_norm(lat, lam, m) == brute
            assert rep_number(lat, lam, m) == len(brute)
        th = theta_qseries(lat, 3)
        for lam, pairs in th.components.items():
            for e, c in pairs:
                assert c == rep_number(lat, lam, e), (lam, e)


class TestSquareCompletion:
    @settings(max_examples=40, deadline=None)
    @given(skewed_even_gram(), st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    def test_reproduces_the_form(self, gram, y):
        # 2 Q(y) = sum_i d_i (y_i + sum_{j>i} u_ij y_j)^2 exactly, d_i > 0
        lat = new_lattice(gram)
        n = lat.rank
        y = y[:n]
        ds, us, _ = enumeration._square_completion(lat)
        completed = sum(ds[i] * (y[i] + sum(us[i][j] * y[j] for j in range(i + 1, n))) ** 2
                        for i in range(n))
        assert all(d > 0 for d in ds)
        assert completed == 2 * lat.quadratic(y)

    def test_refuses_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            enumeration._square_completion(named_lattice("U"))


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


class TestNumpyLayers:
    """Only the walker, the shells and the genus-2 histograms load numpy; the
    glued counts run on Python ints."""

    @pytest.mark.parametrize("code, value, loads_numpy", [
        ("[[str(e), c] for e, c in theta_qseries(d4, 3).component((0, 0, F(1, 2), F(1, 2)))]",
         [["1/2", 8], ["3/2", 32], ["5/2", 48]], False),
        ("rep_number(direct_sum(e8, e8), None, 2)", 61920, False),
        ("[[str(x) for x in v] for v in vectors_with_norm(named_lattice('A2'), None, 1)]",
         [["-1", "-1"], ["-1", "0"], ["0", "-1"], ["0", "1"], ["1", "0"], ["1", "1"]], True),
        ("sorted([str(v), c] for v, c in inner_product_histogram(d4, None, 1, None, 1).items())",
         [["-1", 192], ["-2", 24], ["0", 144], ["1", 192], ["2", 24]], True),
    ], ids=["theta", "rep_number-rank-16", "vectors_with_norm", "histogram"])
    def test_only_walks_load_numpy(self, fresh_python, code, value, loads_numpy):
        proc = fresh_python("-c", (
            "import json, sys\n"
            "from fractions import Fraction as F\n"
            "from cycletheta.enumeration import *\n"
            "from cycletheta.quadlattice import direct_sum, named_lattice\n"
            "d4, e8 = named_lattice('D4'), named_lattice('E8')\n"
            "before = 'numpy' in sys.modules\n"
            f"print(json.dumps([before, {code}, 'numpy' in sys.modules]))"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, value, loads_numpy]
