import math
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from cycletheta import heegner
from cycletheta.eisenstein import hurwitz, reduced_forms
from cycletheta.heegner import (
    BinaryForm,
    BoundNotStabilized,
    _box_forms,
    _canonical_key,
    _families,
    _gamma0_key,
    _P1Points,
    _stable_classes,
    forms_with_disc,
    gamma0_classes,
    gamma0_equivalent,
    heegner_cycle,
    orbit_cross_check,
    stabilizer_order,
)


def in_q_set(f: BinaryForm) -> bool:
    """Membership of f in Q_{N,r,d}: N | a and b = r mod 2N."""
    return f.a % f.n == 0 and (f.b - f.r) % (2 * f.n) == 0


def in_q_plus(f: BinaryForm) -> bool:
    return in_q_set(f) and f.a > 0


def exact_parts(p) -> tuple[F, F, int]:
    """(re, im_coeff, d) with the CM point p = re + im_coeff * sqrt(d) * i, exactly."""
    return F(-p.b, 2 * p.a), F(1, 2 * p.a), p.d


class TestFormsWithDisc:
    def test_includes_principal_d4(self):
        triples = [f.triple() for f in forms_with_disc(1, 0, 4, 4)]
        assert (1, 0, 1) in triples

    def test_includes_principal_d3(self):
        triples = [f.triple() for f in forms_with_disc(1, 1, 3, 3)]
        assert (1, 1, 1) in triples

    def test_congruence_obstruction(self):
        assert forms_with_disc(2, 1, 4, 100) == []

    def test_membership_constraints(self):
        for f in forms_with_disc(6, 1, 23, 60):
            assert f.disc == -23
            assert f.a % 6 == 0
            assert (f.b - 1) % 12 == 0
            assert in_q_plus(f)

    def test_deterministic_order(self):
        a = forms_with_disc(1, 1, 23, 30)
        b = forms_with_disc(1, 1, 23, 30)
        assert a == b
        assert a == sorted(a, key=lambda f: f.triple())

    def test_matches_ac_scan(self):
        # oracle: scan (a, c) over the box and solve b^2 = 4ac - d
        def ac_scan(n, d, height):
            out = []
            for a in range(n, height + 1, n):
                for c in range(1, height + 1):
                    b2 = 4 * a * c - d
                    b = math.isqrt(b2) if b2 >= 0 else -1
                    if b >= 0 and b * b == b2:
                        out += [(a, bb, c) for bb in {b, -b}]
            return sorted(out)

        for n in range(1, 13):
            for d in range(1, 101):
                bound = max(d, 4 * n, 8)
                # with no b^2 = -d mod 4N there is no form at all: N | a and
                # b = r mod 2N give b^2 + d = 4ac = 0 mod 4N
                solvable = any((b * b + d) % (4 * n) == 0 for b in range(2 * n))
                box = ac_scan(n, d, 4 * bound) if solvable else []
                for height in (bound, 2 * bound, 4 * bound):
                    for r in range(2 * n):
                        got = [f.triple() for f in forms_with_disc(n, r, d, height)]
                        want = [t for t in box if t[0] <= height and t[2] <= height
                                and (t[1] - r) % (2 * n) == 0]
                        assert got == want, (n, r, d, height)


class TestGamma0Classes:
    def test_d4_level1(self):
        classes = gamma0_classes(1, 0, 4)
        assert len(classes) == 1
        form, stab = classes[0]
        assert form.triple() == (1, 0, 1)
        assert stab == 4  # e = 2, multiplicity 1/2

    def test_d3_level1(self):
        classes = gamma0_classes(1, 1, 3)
        assert len(classes) == 1
        form, stab = classes[0]
        assert form.triple() == (1, 1, 1)
        assert stab == 6  # e = 3, multiplicity 1/3

    def test_d23_level1(self):
        classes = gamma0_classes(1, 1, 23)
        assert len(classes) == 3
        assert all(stab == 2 for _, stab in classes)

    def test_level1_count_matches_reduced_forms(self):
        for d in [3, 4, 7, 12, 16, 23, 27, 31, 36]:
            classes = gamma0_classes(1, d % 2, d)
            assert len(classes) == len(reduced_forms(d))

    def test_obstructed_empty(self):
        assert gamma0_classes(5, 2, 4) == ()

    @pytest.mark.parametrize("n,r,d", [(0, 0, 3), (1, 1, -3), (-1, 0, 3), (1, 0, -4)])
    def test_rejects_bad_input(self, n, r, d):
        with pytest.raises(ValueError):
            gamma0_classes(n, r, d)

    def test_caches_are_bounded(self):
        assert gamma0_classes.cache_info().maxsize is not None
        assert heegner_cycle.cache_info().maxsize is not None

    def test_level6_d23(self):
        classes = gamma0_classes(6, 1, 23)
        assert len(classes) == 3
        assert all(stab == 2 for _, stab in classes)

    @pytest.mark.xfail(
        strict=True,
        reason="the height-doubling loop stops before forms of height 198 "
        "join: (198, 180, 41) and (198, -74, 7) lie in no returned class",
    )
    @pytest.mark.parametrize("n,r,d", [(18, 0, 72), (22, 14, 68)])
    def test_every_form_has_a_class(self, n, r, d):
        reps = [form.triple() for form, _ in gamma0_classes(n, r, d)]
        for f in forms_with_disc(n, r, d, 200):
            assert any(gamma0_equivalent(f.triple(), rep, n) for rep in reps), f

    def test_coprime_volume_identity(self):
        # sum over r of 2/s over the classes = H(d) * #{b mod 2N : b^2 = -d mod 4N}
        # when gcd(N, d) = 1; hurwitz is the reduced-form sieve and shares no
        # code with heegner.  The failures are the classes the height-doubling
        # loop drops (ROADMAP.md item 1); any further failure is a regression.
        failing = set()
        for n in range(2, 31):
            for d in range(3, 201):
                roots = sum(1 for b in range(2 * n) if (b * b + d) % (4 * n) == 0)
                if math.gcd(n, d) != 1 or not roots:
                    continue
                volume = sum(F(2, s) for r in range(2 * n) for _, s in gamma0_classes(n, r, d))
                if volume != hurwitz(d) * roots:
                    failing.add((n, d))
        assert failing == {(21, 83), (27, 107), (27, 155), (27, 179)}


def rewalk_classes(n, families, d):
    # the search before rounds became incremental: every round re-walks the
    # whole box, sorts it by _canonical_key and files each form under its key
    points = _P1Points(n)
    bound = max(d, 4 * n, 8)
    prev = None
    for _round in range(10):
        box = (f.triple() for r in families for f in forms_with_disc(n, r, d, bound))
        least = {}
        for t in sorted(box, key=_canonical_key):
            least.setdefault(_gamma0_key(t, n, points), t)
        reps = list(least.values())
        if reps == prev:
            return reps
        prev = reps
        bound *= 2
    raise AssertionError("the re-walk did not stabilize")


class TestIncrementalSearch:
    def test_matches_rewalk(self):
        for n in range(2, 13):
            for d in range(1, 121):
                for r in range(2 * n):
                    if (r * r + d) % (4 * n):
                        continue
                    for families in ([r], _families(n, r)):
                        assert _stable_classes(n, families, d) == rewalk_classes(n, families, d), \
                            (n, families, d)

    @pytest.mark.parametrize("n,d", [(21, 83), (27, 107), (27, 155), (27, 179)])
    def test_pinned_coprime_drops_stay(self, n, d):
        for r in range(2 * n):
            if (r * r + d) % (4 * n) == 0:
                assert _stable_classes(n, (r,), d) == rewalk_classes(n, (r,), d), r

    @pytest.mark.parametrize("n,r,d", [(18, 0, 72), (22, 14, 68)])
    def test_pinned_forms_without_class_stay(self, n, r, d):
        for families in ([r], _families(n, r)):
            assert _stable_classes(n, families, d) == rewalk_classes(n, families, d)

    def test_rounds_partition_the_box(self):
        for n, r, d in [(2, 1, 7), (6, 1, 23), (11, 3, 7), (12, 4, 32), (18, 0, 72)]:
            roots, seen = {}, set()
            lo, hi = 0, max(d, 4 * n, 8)
            for _round in range(5):
                new = list(_box_forms(n, r, d, lo, hi, roots))
                assert len(set(new)) == len(new)
                assert seen.isdisjoint(new), (n, r, d, lo, hi)
                assert all(lo < max(a, c) <= hi for a, _, c in new)
                seen.update(new)
                lo, hi = hi, 2 * hi
            assert sorted(seen) == [f.triple() for f in forms_with_disc(n, r, d, lo)]

    def test_raises_when_rounds_never_agree(self, monkeypatch):
        # a fresh key per form makes every round add classes, so no two
        # rounds agree and the search gives up after its 10 rounds
        keyed = []

        def fresh_key(t, n, points):
            keyed.append(t)
            return object()

        monkeypatch.setattr(heegner, "_gamma0_key", fresh_key)
        n, r, d = 2, 1, 7
        with pytest.raises(BoundNotStabilized):
            _stable_classes(n, (r,), d)
        last = 2 ** 9 * max(d, 4 * n, 8)
        assert sorted(keyed) == [f.triple() for f in forms_with_disc(n, r, d, last)]


class TestStabilizers:
    def test_i_point(self):
        assert stabilizer_order((1, 0, 1), 1) == 4

    def test_rho_point(self):
        assert stabilizer_order((1, 1, 1), 1) == 6

    def test_generic(self):
        assert stabilizer_order((1, 1, 6), 1) == 2

    def test_imprimitive_rho(self):
        # 2*[1,1,1] still has the order-6 stabilizer in SL2(Z)
        assert stabilizer_order((2, 2, 2), 1) == 6

    def test_level_cuts_stabilizer(self):
        # the order-4 automorph of [1,0,1] has lower-left entry u = 1,
        # which survives in Gamma_0(N) only when N | a0 * u
        assert stabilizer_order((1, 0, 1), 2) == 2

    def test_level_preserves_when_a_divisible(self):
        # [2,2,2]: primitive part [1,1,1] has automorphs with lower-left u;
        # they lie in Gamma_0(2) iff 2 | u, which fails
        assert stabilizer_order((2, 2, 2), 2) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma0_equivalent((-1, 0, -1), (1, 0, 1), 1),
        lambda: gamma0_equivalent((1, 3, 1), (1, 3, 1), 1),
        lambda: stabilizer_order((-1, 0, -1), 1),
        lambda: stabilizer_order((0, 1, 0), 1),
        lambda: gamma0_equivalent((0, 1, 0), (0, 1, 0), 2),
    ],
    ids=["negative", "indefinite", "negative-stabilizer", "zero-a", "zero-a-level2"],
)
def test_rejects_forms_that_are_not_positive_definite(call):
    with pytest.raises(ValueError, match="not a positive definite form"):
        call()


@pytest.mark.parametrize("n", [0, -2, -3])
@pytest.mark.parametrize(
    "call",
    [lambda n: gamma0_equivalent((1, 0, 1), (1, 0, 1), n), lambda n: stabilizer_order((1, 0, 1), n)],
    ids=["gamma0_equivalent", "stabilizer_order"],
)
def test_rejects_level_below_one(call, n):
    with pytest.raises(ValueError, match="need N >= 1"):
        call(n)


class TestTransporters:
    def test_equivalent_translates(self):
        assert gamma0_equivalent((1, 1, 6), (1, 3, 8), 1)  # T-translate
        assert gamma0_equivalent((2, 1, 3), (2, 1, 3), 1)

    def test_inequivalent_classes(self):
        assert not gamma0_equivalent((1, 1, 6), (2, 1, 3), 1)

    def test_residue_obstruction_at_level(self):
        # equivalent over SL2(Z) but b mod 12 differs -> not Gamma_0(6)-equivalent
        f1, f2 = (6, 1, 1), (6, -1, 1)
        assert gamma0_equivalent(f1, f2, 1)
        assert not gamma0_equivalent(f1, f2, 6)


class TestGamma0Key:
    @staticmethod
    def assert_key_is_transporter_test(n, triples):
        points = _P1Points(n)
        keys = [_gamma0_key(t, n, points) for t in triples]
        for i, (s, ks) in enumerate(zip(triples, keys)):
            for t, kt in zip(triples[i + 1:], keys[i + 1:]):
                assert (ks == kt) == gamma0_equivalent(s, t, n), (n, s, t)

    def test_level5_box(self):
        # the T and L_N orbits inside this box split its Gamma_0(5)-classes,
        # so the key has to join forms that no parabolic move links here
        triples = [f.triple() for f in forms_with_disc(5, 3, 11, 20)]
        self.assert_key_is_transporter_test(5, triples)

    def test_first_forms_of_every_box(self):
        for n in range(1, 13):
            for d in range(3, 61):
                for r in range(2 * n):
                    box = forms_with_disc(n, r, d, max(d, 4 * n, 8))[:40]
                    self.assert_key_is_transporter_test(n, [f.triple() for f in box])

    def test_p1_points(self):
        # |P^1(Z/N)| = psi(N) = N prod_{p | N} (1 + 1/p)
        for n, psi in [(1, 1), (2, 3), (4, 6), (6, 12), (12, 24), (25, 30)]:
            points = _P1Points(n)
            pairs = [(c, d) for c in range(n) for d in range(n) if math.gcd(c, d, n) == 1]
            assert len({points[cd] for cd in pairs}) == psi
            assert len(points) == len(pairs)

    def test_large_level_stores_only_the_points_it_meets(self):
        # P^1(Z/2401) has 2744 points and 5.6 million primitive pairs; the
        # search meets a handful, so its memory stays far below either
        tracemalloc.start()
        try:
            classes = gamma0_classes.__wrapped__(2401, 2095, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes == ((BinaryForm(2401, 2095, 457, 2401, 2095), 6),)
        assert peak < 2_000_000


class TestHeegnerCycle:
    def test_degree_d4(self):
        assert heegner_cycle(1, 0, 4).degree == F(1, 2)

    def test_degree_d3(self):
        assert heegner_cycle(1, 1, 3).degree == F(1, 3)

    def test_degree_d23(self):
        assert heegner_cycle(1, 1, 23).degree == 3

    def test_degree_dichotomy(self):
        for n in range(1, 7):
            for r in range(0, 2 * n):
                for d in range(3, 30):
                    cycle = heegner_cycle(n, r, d)
                    if (r * r + d) % (4 * n) != 0:
                        assert cycle.degree == 0
                        assert cycle.points == ()
                    else:
                        assert cycle.degree > 0

    def test_r_symmetry(self):
        for n, r, d in [(6, 1, 23), (5, 1, 19), (7, 3, 19), (1, 1, 3)]:
            c1 = heegner_cycle(n, r, d)
            c2 = heegner_cycle(n, (-r) % (2 * n), d)
            assert [(p.form.triple(), p.multiplicity) for p in c1.points] == [
                (p.form.triple(), p.multiplicity) for p in c2.points
            ]

    def test_multiplicity_values(self):
        seen = set()
        for d in range(3, 80):
            if d % 4 in (1, 2):
                continue
            for p in heegner_cycle(1, d % 2, d).points:
                seen.add(p.multiplicity)
                assert p.multiplicity in (F(1), F(1, 2), F(1, 3))
                if p.multiplicity == F(1, 2):
                    assert d % 4 == 0
                if p.multiplicity == F(1, 3):
                    assert (d // 3) ** 2 * 3 == d or d % 3 == 0
        assert seen == {F(1), F(1, 2), F(1, 3)}

    def test_points_satisfy_quadratic(self):
        for n, r, d in [(1, 1, 23), (6, 1, 23), (1, 0, 20)]:
            for p in heegner_cycle(n, r, d).points:
                a, b, c = p.form.triple()
                re, im, dd = exact_parts(p.point)
                # real part of a z^2 + b z + c with z = re + im sqrt(-d)
                assert a * (re * re - im * im * dd) + b * re + c == 0
                assert 2 * a * re * im + b * im == 0
                assert p.point.value.imag > 0

    def test_volume_formula_spot(self):
        for d in [3, 4, 8, 12, 20, 23, 27, 63, 100]:
            assert heegner_cycle(1, d % 2, d).degree == hurwitz(d)

    def test_level1_large_d_is_fast(self):
        reduced_forms.cache_clear()
        gamma0_classes.cache_clear()
        heegner_cycle.cache_clear()
        t0 = time.perf_counter()
        cycle = heegner_cycle(1, 1, 2003)
        elapsed = time.perf_counter() - t0
        assert cycle.degree == hurwitz(2003) == 9
        assert elapsed < 0.05

    def test_json_schema(self):
        payload = heegner_cycle(1, 1, 3).to_json_dict()
        assert payload["degree"] == "1/3"
        assert payload["N"] == 1 and payload["r"] == 1 and payload["d"] == 3
        point = payload["points"][0]
        assert set(point) >= {"a", "b", "d", "mult", "stab"}


class TestCrossCheck:
    @pytest.mark.parametrize(
        "n,r,d",
        [(1, 0, 4), (1, 1, 3), (1, 1, 23), (6, 1, 23), (5, 2, 4)],
    )
    def test_acceptance_battery(self, n, r, d):
        rep = orbit_cross_check(n, r, d)
        assert rep.match

    @pytest.mark.parametrize(
        "n,r,d",
        [(2, 1, 7), (3, 1, 11), (4, 2, 4), (5, 1, 19), (5, 3, 11), (7, 3, 19), (11, 3, 7)],
    )
    def test_extra_levels(self, n, r, d):
        assert orbit_cross_check(n, r, d).match

    def test_level1_matches_orbit_route(self):
        # the reduced-form route against the bounded search over forms_with_disc
        for d in range(3, 101):
            if d % 4 in (0, 3):
                assert orbit_cross_check(1, d % 2, d).match, d


class TestMatrixRouteEquivariance:
    def test_conjugation_matches_form_action(self):
        # the bijection [a,b,c] <-> [[b, 2c], [-2a, -b]] intertwines the
        # form action y -> g^t y g with conjugation x -> g^-1 x g, so a class
        # search over trace-zero matrices is the forms search relabelled
        from cycletheta.heegner import _move_t, _mul2

        _T = ((1, 1), (0, 1))
        _T_INV = ((1, -1), (0, 1))

        def to_x(t):
            a, b, c = t
            return ((b, 2 * c), (-2 * a, -b))

        for t in [(3, 1, 2), (6, 5, 2), (3, -5, 4), (9, 7, 2)]:
            assert _mul2(_mul2(_T_INV, to_x(t)), _T) == to_x(_move_t(t, 1))


class TestBinaryForm:
    def test_rejects_nonnegative_disc(self):
        with pytest.raises(ValueError):
            BinaryForm(1, 3, 1)

    def test_membership_flags(self):
        f = BinaryForm(6, 1, 1, 6, 1)
        assert in_q_set(f) and in_q_plus(f)
        g = BinaryForm(-6, -1, -1, 6, 1)
        assert not in_q_plus(g)
