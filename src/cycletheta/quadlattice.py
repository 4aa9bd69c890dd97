"""Integral even quadratic lattices, their duals, and discriminant forms.

All structural data is exact: Gram matrices are Python integers, coset
representatives are tuples of fractions.Fraction, and determinant and
signature come from _block_reduce, the one block LDL^T reduction over Q
that also serves square completion and the p-adic Jordan splitting (no
eigenvalues, no floating point).  The only float-valued function here is
gauss_sum, the numeric side of the signature oracle
|sum e(Q(x))| = sqrt(|D|) * e(sig/8).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

__all__ = [
    "LatticeError",
    "NotSymmetric",
    "NotEven",
    "Degenerate",
    "Lattice",
    "DiscriminantForm",
    "new_lattice",
    "named_lattice",
    "direct_sum",
    "discriminant_form",
    "disc_b",
    "gauss_sum",
    "smith_normal_form",
    "BUILTIN_GRAMS",
]

GramMatrix = tuple[tuple[int, ...], ...]
Coset = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Base class for lattice construction failures."""


class NotSymmetric(LatticeError):
    pass


class NotEven(LatticeError):
    pass


class Degenerate(LatticeError):
    pass


@dataclass(frozen=True)
class Lattice:
    """An integral lattice with even Gram matrix and known inertia.

    ``gram[i][j]`` is the bilinear value (e_i, e_j); the quadratic form is
    Q(x) = (x, x)/2, integer valued on lattice vectors.
    """

    gram: GramMatrix
    rank: int
    signature: tuple[int, int]
    det: int

    @property
    def is_positive_definite(self) -> bool:
        return self.signature == (self.rank, 0)

    def bilinear(self, x, y) -> Fraction:
        """(x, y) for vectors given in lattice-basis coordinates."""
        g = self.gram
        n = self.rank
        return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))

    def quadratic(self, x) -> Fraction:
        """Q(x) = (x, x)/2."""
        return self.bilinear(x, x) / 2


def _block_reduce(gram, choose) -> list[tuple[tuple[int, ...], list[list[Fraction]]]]:
    """Block LDL^T of a symmetric matrix by Schur complements over Q.

    ``choose(m, active)`` picks the next pivot (i, j) of the working matrix
    m: 1x1 on m[i][i] when i == j, else 2x2 on {i, j} (nonsingular).
    Returns one (pivot indices, pivot rows as they stand at that step) per
    step; stops when every remaining entry is 0, so fewer than len(gram)
    pivoted indices means the matrix is singular.
    """
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(len(m)))
    steps = []
    while any(m[i][j] for i in active for j in active):
        i0, j0 = choose(m, active)
        piv = (i0,) if i0 == j0 else (i0, j0)
        active = [i for i in active if i not in piv]
        a, b, c = m[i0][i0], m[i0][j0], m[j0][j0]
        if i0 == j0:
            inv = [[1 / a]]
        else:
            det = a * c - b * b
            inv = [[c / det, -b / det], [-b / det, a / det]]
        for i in active:
            f = [sum(m[i][p] * inv[t][u] for t, p in enumerate(piv)) for u in range(len(piv))]
            if any(f):
                for j in active:
                    m[i][j] -= sum(fu * m[p][j] for fu, p in zip(f, piv))
        steps.append((piv, [m[p] for p in piv]))
    return steps


def _rational_pivot(m, active) -> tuple[int, int]:
    """The first nonzero diagonal entry in index order; only if there is
    none, the first nonzero off-diagonal one (a zero-diagonal 2x2 pivot)."""
    for i in active:
        if m[i][i]:
            return i, i
    return next((i, j) for i in active for j in active if m[i][j])


def new_lattice(gram) -> Lattice:
    """Validate a square integer Gram matrix and build a Lattice.

    det and signature come from one _block_reduce pass: the product of the
    pivot-block determinants and the signs of the 1x1 pivots (a 2x2 pivot,
    zero diagonal, adds (1, 1)).  Raises NotSymmetric / NotEven /
    Degenerate naming the violated invariant, and LatticeError for a gram
    that is not a list of rows of integers.
    """
    try:
        rows = [tuple(int(x) for x in row) for row in gram]
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatticeError(f"gram must be a list of rows of integers ({exc})") from None
    for i, row in enumerate(gram):
        for j, x in enumerate(row):
            if x != rows[i][j]:
                raise LatticeError(f"gram[{i}][{j}] = {x!r} is not an integer")
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise LatticeError("gram must be a nonempty square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    for i in range(n):
        if rows[i][i] % 2 != 0:
            raise NotEven(f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd")
    steps = _block_reduce(rows, _rational_pivot)
    if sum(len(piv) for piv, _ in steps) < n:
        raise Degenerate("gram is singular")
    det, pos = Fraction(1), 0
    for piv, prow in steps:
        if len(piv) == 2:  # zero diagonal: one positive and one negative square
            det *= -prow[0][piv[1]] ** 2
            pos += 1
        else:
            det *= prow[0][piv[0]]
            pos += prow[0][piv[0]] > 0
    return Lattice(gram=tuple(rows), rank=n, signature=(pos, n - pos), det=int(det))


# Standard even lattices used throughout the test corpus and the CLI.
BUILTIN_GRAMS: dict[str, tuple[tuple[int, ...], ...]] = {
    "A1": ((2,),),
    "A1(-1)": ((-2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "E8": (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, -1),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, -1, 0, 0, 2),
    ),
    "U": ((0, 1), (1, 0)),
}


@lru_cache(maxsize=None)
def named_lattice(name: str) -> Lattice:
    try:
        gram = BUILTIN_GRAMS[name]
    except KeyError:
        raise LatticeError(f"unknown lattice name {name!r}; known: {sorted(BUILTIN_GRAMS)}")
    return new_lattice(gram)


def direct_sum(*lats: Lattice) -> Lattice:
    """Orthogonal direct sum (block-diagonal Gram matrix)."""
    n = sum(l.rank for l in lats)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                gram[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return new_lattice(gram)


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over Z: returns (S, U, V) with U a V = S.

    S is diagonal with d_i | d_{i+1}, U and V unimodular.
    """
    m = [list(map(int, row)) for row in a]
    n_rows = len(m)
    n_cols = len(m[0])
    u = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    v = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def row_op(i, j, q):  # row i -= q * row j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    size = min(n_rows, n_cols)
    while t < size:
        # find entry of smallest absolute value in the remaining block
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        dirty = False
        for i in range(t + 1, n_rows):
            q = m[i][t] // m[t][t]
            if q:
                row_op(i, t, q)
            if m[i][t]:
                dirty = True
        for j in range(t + 1, n_cols):
            q = m[t][j] // m[t][t]
            if q:
                col_op(j, t, q)
            if m[t][j]:
                dirty = True
        if dirty:
            continue
        # enforce divisibility d_t | remaining entries
        bad = next(
            ((i, j) for i in range(t + 1, n_rows) for j in range(t + 1, n_cols)
             if m[i][j] % m[t][t] != 0),
            None,
        )
        if bad is not None:
            row_op(t, bad[0], -1)  # row t += row bad[0]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return m, u, v


class _ReadOnly:
    """Attributes, once set, cannot be rebound or deleted.  Instances of the
    subclasses sit in lru caches, so one instance is shared by every caller."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class DiscriminantForm(_ReadOnly):
    """The finite quadratic module L'/L with Q: L'/L -> Q/Z.

    Cosets are represented canonically by dual vectors (in lattice-basis
    coordinates) with entries reduced into [0, 1).  The coset ordering is
    the sorted order of those tuples and is the index order used by the
    Weil representation matrices.
    """

    def __init__(self, lat: Lattice):
        self._lat = lat
        self.order = abs(lat.det)
        self.sig8 = (lat.signature[0] - lat.signature[1]) % 8

        n = lat.rank
        # U G V = S gives G^-1 U^-1 = V S^-1: the dual basis images of the
        # Smith basis are the columns of V divided by the invariants s_i
        s, _u, v = smith_normal_form(lat.gram)
        gens: list[tuple[Coset, int]] = []
        for i in range(n):
            d = s[i][i]
            if abs(d) > 1:
                gens.append((tuple(Fraction(v[r][i], d) % 1 for r in range(n)), abs(d)))
        self.generators: tuple[tuple[Coset, int], ...] = tuple(gens)

        # enumerate the full group
        cosets = {tuple(Fraction(0) for _ in range(n))}
        for vec, d in gens:
            new = set()
            for base in cosets:
                cur = base
                for _ in range(d):
                    new.add(cur)
                    cur = tuple((x + y) % 1 for x, y in zip(cur, vec))
            cosets = new
        if len(cosets) != self.order:
            raise LatticeError(
                f"discriminant group enumeration mismatch: {len(cosets)} != {self.order}"
            )
        self.cosets: tuple[Coset, ...] = tuple(sorted(cosets))
        self._index = {c: i for i, c in enumerate(self.cosets)}

        # read-only: discriminant_form is cached, so one instance is shared
        q_table = {lam: lat.quadratic(lam) % 1 for lam in self.cosets}
        self.q_table: MappingProxyType[Coset, Fraction] = MappingProxyType(q_table)

        self.level = math.lcm(1, *(q.denominator for q in q_table.values()))

        for lam in self.cosets:
            if q_table[lam] != q_table[self.neg(lam)]:
                raise LatticeError("q(lambda) != q(-lambda); broken group structure")

    @property
    def lattice(self) -> Lattice:
        return self._lat

    def q(self, lam: Coset) -> Fraction:
        return self.q_table[self._key(lam)]

    def reduce(self, lam) -> Coset:
        return tuple(Fraction(x) % 1 for x in lam)

    def neg(self, lam: Coset) -> Coset:
        return tuple((-x) % 1 for x in self._key(lam))

    def add(self, lam: Coset, mu: Coset) -> Coset:
        return tuple((x + y) % 1 for x, y in zip(self._key(lam), self._key(mu)))

    def index(self, lam: Coset) -> int:
        return self._index[self._key(lam)]

    def _key(self, lam) -> Coset:
        key = self.reduce(lam)
        if key not in self._index:
            raise ValueError(f"{tuple(lam)} is not a coset of the dual lattice")
        return key

    def b(self, lam: Coset, mu: Coset) -> Fraction:
        """Bilinear form b(lam, mu) = Q(lam+mu) - Q(lam) - Q(mu) mod 1."""
        return self._lat.bilinear(self._key(lam), self._key(mu)) % 1

    def coset_label(self, lam: Coset) -> str:
        return "(" + ",".join(str(x) for x in lam) + ")"

    def __repr__(self):
        return f"DiscriminantForm(order={self.order}, sig8={self.sig8}, level={self.level})"


@lru_cache(maxsize=64)
def discriminant_form(lat: Lattice) -> DiscriminantForm:
    return DiscriminantForm(lat)


def disc_b(df: DiscriminantForm, lam, mu) -> Fraction:
    """b(lam, mu) in [0, 1); symmetric and bi-additive."""
    return df.b(lam, mu)


def gauss_sum(df: DiscriminantForm) -> complex:
    """Sum of e(Q(lambda)) over the discriminant group (floating point)."""
    return sum(cmath.exp(2j * cmath.pi * float(df.q_table[lam])) for lam in df.cosets)
