"""Weighted 0-cycles of CM points on X_0(N).

A point of discriminant -d < 0 at level N with residue r mod 2N is cut out
by an integral binary quadratic form [a, b, c] with

    b^2 - 4ac = -d,   N | a,   b = r mod 2N,   a > 0,

taken modulo Gamma_0(N).  Each class contributes the root of a z^2 + b z + c
in the upper half plane with multiplicity 1/e, where 2e is the order of the
stabilizer of the point in Gamma_0(N).

The classes are found two ways, by level:

* N = 1: Gamma_0(1) = SL_2(Z) and Gamma_0(1)\\SL_2(Z) = P^1(Z/1) is one
  point, so the classes are exactly the SL_2(Z)-reduced forms
  (eisenstein.reduced_forms), a finite enumeration with no search
  (Gross-Kohnen-Zagier, Math. Ann. 278 (1987), I.1);
* N > 1: _stable_classes, the one height-doubling loop.  Each round groups
  the forms of a bounded box by the exact class key _gamma0_key (reduced
  form R, Aut(R)-orbit on P^1(Z/N)); the bound doubles until two rounds
  give the same classes, else BoundNotStabilized.  The rounds are
  incremental: each walks only the forms its box adds, by the box walker
  _box_forms, which steps the admissible residues b mod 2a (found once per
  a) instead of scanning b, so every form is reduced and keyed once.

orbit_cross_check runs _stable_classes on both residue families r, -r at
once against heegner_cycle.  At N = 1 it compares reduced_forms against
_reduce_sl2 of every form in a box.  At N > 1 both sides share the search,
so it agrees with the classes the search drops (50 cases with N <= 30,
d <= 200, ROADMAP.md item 1; the strict xfail test_every_form_has_a_class).
Once P^1(Z/N) enumeration is the production route, _stable_classes is
oracle-only but shares the class-to-orbit correspondence with it; the
tests' check of _gamma0_key against the transporter test
gamma0_equivalent is what keeps it independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .eisenstein import reduced_forms

__all__ = [
    "BoundNotStabilized",
    "MismatchDetected",
    "BinaryForm",
    "CMPoint",
    "CyclePoint",
    "HeegnerCycle",
    "CrossCheckReport",
    "forms_with_disc",
    "gamma0_classes",
    "heegner_cycle",
    "orbit_cross_check",
    "stabilizer_order",
    "gamma0_equivalent",
]


class BoundNotStabilized(RuntimeError):
    pass


class MismatchDetected(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class BinaryForm:
    """[a, b, c] with context (N, r); disc = b^2 - 4ac must be negative."""

    a: int
    b: int
    c: int
    n: int = 1
    r: int = 0

    def __post_init__(self):
        if self.disc >= 0:
            raise ValueError("only negative discriminants are supported")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class CMPoint:
    """The root z = (-b + i sqrt(d)) / (2a) of a z^2 + b z + c, a > 0."""

    a: int
    b: int
    d: int

    @property
    def value(self) -> complex:
        return complex(-self.b, math.sqrt(self.d)) / (2 * self.a)

    @property
    def float_approx(self) -> complex:
        z = self.value
        return complex(float(f"{z.real:.12g}"), float(f"{z.imag:.12g}"))


@dataclass(frozen=True)
class CyclePoint:
    point: CMPoint
    multiplicity: Fraction
    form: BinaryForm
    stabilizer_order: int


@dataclass(frozen=True)
class HeegnerCycle:
    n: int
    r: int
    d: int
    points: tuple[CyclePoint, ...]
    degree: Fraction

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "r": self.r,
            "d": self.d,
            "degree": str(self.degree),
            "points": [
                {
                    "a": p.point.a,
                    "b": p.point.b,
                    "d": p.point.d,
                    "mult": str(p.multiplicity),
                    "stab": p.stabilizer_order,
                    "form": list(p.form.triple()),
                    "approx": [p.point.float_approx.real, p.point.float_approx.imag],
                }
                for p in self.points
            ],
        }


def _congruence_solvable(n: int, r: int, d: int) -> bool:
    return (r * r + d) % (4 * n) == 0


def _box_forms(n: int, r: int, d: int, lo: int, hi: int, roots: dict):
    """Yield, in no fixed order, the triples (a, b, c) with b^2 - 4ac = -d,
    N | a, b = r mod 2N, a, c > 0 and lo < max(a, c) <= hi.

    The test 4a | b^2 + d depends on b mod 2a only, and 2N | 2a, so the
    admissible b are a few residues mod 2a: for a = kN they are found once,
    among the k candidates r + 2Nj of one period, and kept in roots[a] for
    later calls with the same (N, r, d).  Each residue then steps by 2a
    through |b| <= isqrt(4a hi - d), so that c <= hi; when a <= lo it keeps
    only b^2 > 4a lo - d, so that c > lo."""
    if not _congruence_solvable(n, r, d):
        return
    r2n = r % (2 * n)
    for a in range(n, hi + 1, n):
        b2_max = 4 * a * hi - d
        if b2_max < 0:
            continue
        b_max = math.isqrt(b2_max)
        a2, a4 = 2 * a, 4 * a
        res = roots.get(a)
        if res is None:
            res = roots[a] = [b for b in range(r2n, a2, 2 * n) if (b * b + d) % a4 == 0]
        gap = a4 * lo - d if a <= lo else -1
        first = math.isqrt(gap) + 1 if gap >= 0 else 0  # the least |b| kept
        neg_last = -max(first, 1)
        for s in res:
            for b in range(first + (s - first) % a2, b_max + 1, a2):
                yield a, b, (b * b + d) // a4
            for b in range(-b_max + (s + b_max) % a2, neg_last + 1, a2):
                yield a, b, (b * b + d) // a4


def forms_with_disc(n: int, r: int, d: int, height_bound: int) -> list[BinaryForm]:
    """All [a, b, c] with b^2 - 4ac = -d, N | a, b = r mod 2N and
    0 < a <= A, 0 < c <= A, sorted by (a, b, c): the walk of _box_forms
    from height 0 to A."""
    if n < 1 or d <= 0:
        raise ValueError("need N >= 1 and d > 0")
    r2n = r % (2 * n)
    return [BinaryForm(*t, n, r2n) for t in sorted(_box_forms(n, r2n, d, 0, height_bound, {}))]


def _move_t(t: tuple[int, int, int], k: int = 1) -> tuple[int, int, int]:
    """Action of [[1, k], [0, 1]] on forms: b -> b + 2ak."""
    a, b, c = t
    return (a, b + 2 * a * k, a * k * k + b * k + c)


def _canonical_key(t: tuple[int, int, int]):
    a, b, c = t
    return (a, abs(b), -1 if b > 0 else (1 if b < 0 else 0), c)


# ---------------------------------------------------------------------------
# exact SL2(Z) reduction, automorphs, and Gamma_0(N) transporters


def _mul2(m1, m2):
    """The product m1 m2 of 2x2 integer matrices."""
    (a, b), (c, d) = m1
    (p, q), (r, s) = m2
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _reduce_sl2(t: tuple[int, int, int]):
    """Reduce a positive form; returns (reduced_triple, g) with form.g = reduced,
    where the action is y -> transpose(g) y g on Gram matrices.  g = ((p, q),
    (r, s)) is carried as four ints: g T^k = ((p, pk + q), (r, rk + s)) and
    g S = ((q, -p), (s, -r)) for S = ((0, -1), (1, 0))."""
    a, b, c = t
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError(f"{t} is not a positive definite form")
    p, q, r, s = 1, 0, 0, 1
    while True:
        if not (-a < b <= a):
            k = (a - b) // (2 * a)
            a, b, c = _move_t((a, b, c), k)
            q += p * k
            s += r * k
            continue
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            p, q, r, s = q, -p, s, -r
            continue
        return (a, b, c), ((p, q), (r, s))


@lru_cache(maxsize=1024)
def _automorphs(t: tuple[int, int, int]) -> tuple:
    """All g in SL2(Z) with transpose(g) y g = y, via the primitive part."""
    a, b, c = t
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError(f"{t} is not a positive definite form")
    k = math.gcd(math.gcd(a, b), c)
    a0, b0, c0 = a // k, b // k, c // k
    d0 = 4 * a0 * c0 - b0 * b0
    sols = []
    u_max = math.isqrt(4 // d0)
    for u in range(-u_max, u_max + 1):
        rest = 4 - d0 * u * u
        s = math.isqrt(rest)
        if s * s != rest:
            continue
        for tt in ({s, -s} if s else {0}):
            if (tt - b0 * u) % 2 == 0:
                sols.append(((
                    (tt - b0 * u) // 2, -c0 * u),
                    (a0 * u, (tt + b0 * u) // 2),
                ))
    return tuple(sols)


def _transporters(t1, t2):
    """All g in SL2(Z) with transpose(g) y1 g = y2 (empty if inequivalent)."""
    r1, g1 = _reduce_sl2(t1)
    r2, g2 = _reduce_sl2(t2)
    if r1 != r2:
        return []
    # invert g2 (det 1)
    (p, q), (r, s) = g2
    g2_inv = ((s, -q), (-r, p))
    return [_mul2(_mul2(g1, aut), g2_inv) for aut in _automorphs(r1)]


def gamma0_equivalent(t1, t2, n: int) -> bool:
    """Exact test: some transporter lies in Gamma_0(N)."""
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    return any(g[1][0] % n == 0 for g in _transporters(t1, t2))


def stabilizer_order(t: tuple[int, int, int], n: int) -> int:
    """Order of the stabilizer in Gamma_0(N) of the root of [a,b,c] (a > 0).

    This is the number of automorphs of the primitive part that lie in
    Gamma_0(N); it always contains +-identity, and equals 4 or 6 exactly at
    forms whose primitive part has discriminant -4 or -3 with N dividing
    the primitive leading coefficient times u."""
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    return sum(1 for g in _automorphs(t) if g[1][0] % n == 0)


# ---------------------------------------------------------------------------
# class enumeration


class _P1Points(dict):
    """P^1(Z/N), filled on demand: each (c, d) mod N with gcd(c, d, N) = 1
    maps to the least pair of its orbit under the units mod N.  Only the
    points a search meets are stored, not all psi(N) of them."""

    def __init__(self, n: int):
        self.n = n
        self.units = [u for u in range(n) if math.gcd(u, n) == 1]

    def __missing__(self, cd):
        n = self.n
        least = self[cd] = min((u * cd[0] % n, u * cd[1] % n) for u in self.units)
        return least


def _gamma0_key(t: tuple[int, int, int], n: int, points):
    """The Gamma_0(N)-class of a positive form t as (R, least point of the
    Aut(R)-orbit of row_2(g) in P^1(Z/N)), (R, g) = _reduce_sl2(t).

    Proof: the transporters from t to t' are g a g'^-1, a in Aut(R), as
    _transporters builds them (none unless R = R').  gamma = g a g'^-1 is
    in Gamma_0(N) iff Gamma_0(N) g a = Gamma_0(N) g' iff the bottom rows of
    g a and g' agree up to a unit mod N, since row_2(gamma h) = gamma_22
    row_2(h) (mod N) for gamma in Gamma_0(N).  Aut(R) is a group, so the
    least point of the orbit is a complete invariant."""
    red, g = _reduce_sl2(t)
    c, d = g[1]
    return red, min(
        points[((c * p + d * r) % n, (c * q + d * s) % n)]
        for (p, q), (r, s) in _automorphs(red)
    )


def _stable_classes(n: int, families, d: int) -> list[tuple[int, int, int]]:
    """The _canonical_key-least form of each Gamma_0(N)-class met by the
    forms of the residue families, in _canonical_key order.

    Round k covers the box max(a, c) <= A_k, A_k = 2^k max(d, 4N, 8), but
    walks only its new forms, A_{k-1} < max(a, c) <= A_k, on the per-a
    residues of _box_forms kept from earlier rounds.  Each new form is
    reduced and keyed once, by _gamma0_key, and the one dict of least forms
    per key lives across rounds, so each round's classes are those of its
    whole box.  The search stops when two rounds agree (at most 10)."""
    points = _P1Points(n)
    roots = {r: {} for r in families}
    least: dict = {}
    lo, hi = 0, max(d, 4 * n, 8)
    prev = None
    for _round in range(10):
        for r in families:
            for t in _box_forms(n, r, d, lo, hi, roots[r]):
                key = _gamma0_key(t, n, points)
                old = least.get(key)
                if old is None or _canonical_key(t) < _canonical_key(old):
                    least[key] = t
        reps = sorted(least.values(), key=_canonical_key)
        if reps == prev:
            return reps
        prev = reps
        lo, hi = hi, 2 * hi
    raise BoundNotStabilized(f"no stable partition for N = {n}, r in {families}, d = {d}")


@lru_cache(maxsize=1024)
def gamma0_classes(n: int, r: int, d: int) -> tuple[tuple[BinaryForm, int], ...]:
    """Gamma_0(N)-classes of Q+_{N,r,d}: (canonical representative,
    stabilizer order) pairs, sorted by representative.

    At N = 1 the classes are the SL_2(Z)-reduced forms of discriminant -d,
    each with its automorph count; nothing is searched.  At N > 1 they are
    the box search of _stable_classes grouped by the exact class key
    _gamma0_key.  That search stays only until the finite enumeration over
    Gamma_0(N)\\SL_2(Z) = P^1(Z/N) lands together with a re-recorded
    benchmark digest for the level-N queries whose classes it drops.
    """
    if n < 1 or d <= 0:
        raise ValueError("need N >= 1 and d > 0")
    r = r % (2 * n)
    if not _congruence_solvable(n, r, d):
        return ()
    if n == 1:
        return tuple(
            (BinaryForm(*t, 1, r), stabilizer_order(t, 1))
            for t in sorted(reduced_forms(d), key=_canonical_key)
        )
    return tuple(
        (BinaryForm(*t, n, r), stabilizer_order(t, n))
        for t in _stable_classes(n, (r,), d)
    )


def _families(n: int, r: int) -> list[int]:
    """The residues r, -r mod 2N, without duplication when they coincide."""
    r = r % (2 * n)
    neg = (-r) % (2 * n)
    return [r] if neg == r else [r, neg]


@lru_cache(maxsize=1024)
def heegner_cycle(n: int, r: int, d: int) -> HeegnerCycle:
    """The weighted 0-cycle attached to (N, r, d): empty unless
    -d = r^2 mod 4N, otherwise one point per class of Q+_{N,r,d} and (for
    r != -r mod 2N) of Q+_{N,-r,d}, each weighted by 1/e."""
    if n < 1 or d <= 0:
        raise ValueError("need N >= 1 and d > 0")
    points = []
    for fam in _families(n, r):
        for form, stab in gamma0_classes(n, fam, d):
            e = stab // 2
            points.append(
                CyclePoint(
                    point=CMPoint(form.a, form.b, d),
                    multiplicity=Fraction(1, e),
                    form=form,
                    stabilizer_order=stab,
                )
            )
    points.sort(key=lambda p: _canonical_key(p.form.triple()))
    degree = sum((p.multiplicity for p in points), Fraction(0))
    return HeegnerCycle(n=n, r=r % (2 * n), d=d, points=tuple(points), degree=degree)


# ---------------------------------------------------------------------------
# cross-check


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    r: int
    d: int
    match: bool
    forms_side: tuple
    orbit_side: tuple


def orbit_cross_check(n: int, r: int, d: int, raise_on_mismatch: bool = True) -> CrossCheckReport:
    """Compare the cycle of heegner_cycle, one residue family at a time,
    with the classes of _stable_classes over both families at once.
    Multisets of (class representative, multiplicity) must coincide
    exactly.  At N = 1 this tests the reduced forms against _reduce_sl2 of
    every form in a box; at N > 1 both sides share _stable_classes (see the
    module docstring)."""
    cycle = heegner_cycle(n, r, d)
    forms_side = tuple(
        sorted((p.form.triple(), str(p.multiplicity)) for p in cycle.points)
    )

    orbit_side = tuple(sorted(
        (t, str(Fraction(2, stabilizer_order(t, n))))
        for t in _stable_classes(n, _families(n, r), d)
    ))

    report = CrossCheckReport(
        n=n, r=r % (2 * n), d=d,
        match=(forms_side == orbit_side),
        forms_side=forms_side,
        orbit_side=orbit_side,
    )
    if raise_on_mismatch and not report.match:
        raise MismatchDetected(
            f"routes disagree for ({n}, {r}, {d}): "
            f"forms={forms_side} orbit={orbit_side}",
            report,
        )
    return report
