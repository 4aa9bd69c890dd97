"""The finite Weil representation on the coset space of a discriminant form.

Generator matrices follow the standard explicit formulas

    rho(T) = diag(e(Q(lambda))),
    rho(S) = e(-sig/8) |D|^(-1/2) F,    F_{lambda,mu} = e(-b(lambda, mu)),

with entries in Q(zeta_N), N = root_order_for(level, |D|), and b read off the
Smith coordinates c, c' of lambda, mu as c^T W c' / e^2 (DiscriminantForm).
Every matrix is stored in lowest terms as coeffs / den: coeffs is a tuple of
|D| rows of |D| entries, each the tuple of the phi(N) integer coefficients of
the power basis 1, zeta_N, ..., and den is the least positive integer that
clears every entry.  As |D|^(-1/2) = sqrt|D| / |D|, rho(S) is e(-sig/8) sqrt|D| F over
|D|, with sqrt|D| the Gauss-sum element of sqrt_as_cyclotomic, so nothing
assumes Milgram's formula.  The format is canonical: two matrices are equal
exactly when their (den, coeffs) are.

A product a @ b is a Kronecker substitution on Python ints.  With n = |D|,
d = phi(N) and X = 2^w, entry e packs into P(e) = sum_x e[x] X^x and row k
of b into B_k = sum_j P(b[k][j]) X^((2d - 1) j), so digit t < 2d - 1 of
block j of sum_k P(a[i][k]) B_k is c_ij[t] = sum_k sum_{x+y=t} a[i][k][x]
b[k][j][y], the coefficient of zeta^t in entry (i, j) before reduction.  It
has at most n d terms, so |c_ij[t]| <= M = n d max|a| max|b| (a zero
maximum read as 1, so that M bounds every coefficient of a and b too), and w
is the least multiple of 8 with 2^(w-1) > M.  Every digit then lies in
(-X/2, X/2), so the balanced base-X expansion is unique, and adding
H = sum_m (X/2) X^m turns it into the ordinary one, with digits c + X/2 in
[0, X) that to_bytes reads off; the same bias packs B_k from bytes.  A
product is n^2 big-int multiplications in C, and each distinct block of
digits is reduced modulo Phi_N once (cyclotomic._power_table); lowest
terms, conjugate and scale also work once per distinct entry.  Nothing
here imports numpy.

verify_relations checks the defining relations on rho(S) and rho(T)
themselves: rho(S) rho(S)^+ = I, rho(T) rho(T)^+ = I,
(rho(S) rho(T))^3 = rho(S)^2 and rho(S)^2 = e(-sig/4) P_-, where P_- maps
lambda to -lambda.

theta_transform_check verifies numerically that the coset theta series of a
positive definite even lattice transforms under rho itself with automorphy
factor (c*tau+d)^(rank/2).  (The dual representation describes lattices
with the opposite definiteness; WeilRepMatrix.conjugate() gives it.)
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain

from .cyclotomic import Cyc, _power_table, root_exponent, root_order_for, sqrt_as_cyclotomic
from .quadlattice import DiscriminantForm, Lattice, _ReadOnly, discriminant_form

__all__ = [
    "RelationViolated",
    "InsufficientTruncation",
    "WeilRepMatrix",
    "rho_T",
    "rho_S",
    "rho_word",
    "verify_relations",
    "RelationReport",
    "theta_transform_check",
    "ThetaTransformResult",
]


class RelationViolated(ArithmeticError):
    pass


class InsufficientTruncation(ValueError):
    pass


def _reduced(poly, n_root: int) -> tuple[int, ...]:
    """sum_t poly[t] zeta^t in the power basis of Q(zeta_n_root), for a poly
    of at least phi(n_root) terms (zeta^t is basis vector t below that)."""
    table = _power_table(n_root)
    out = poly[:len(table[0])]
    for t in range(len(out), len(poly)):
        if poly[t]:
            out = [o + poly[t] * z for o, z in zip(out, table[t % n_root])]
    return tuple(out)


def _times(e, c, n_root: int) -> tuple[int, ...]:
    """The product of two power-basis coefficient sequences, reduced."""
    prod = [0] * (len(e) + len(c) - 1)
    for x, ex in enumerate(e):
        for y, cy in enumerate(c):
            prod[x + y] += ex * cy
    return _reduced(prod, n_root)


@lru_cache(maxsize=256)
def _root_order(df: DiscriminantForm) -> int:
    return root_order_for(df.level, df.order)


def _same_form(a: DiscriminantForm, b: DiscriminantForm) -> bool:
    """Whether a and b have the same cosets and the same values of q on them
    (then they also share the level, and so the root order N)."""
    return a is b or (a.cosets == b.cosets and a.q_table == b.q_table)


class WeilRepMatrix(_ReadOnly):
    """A |D| x |D| matrix over Q(zeta_N) indexed by the canonical cosets of
    df, stored in lowest terms as coeffs / den (see the module docstring).
    N is the root order of df, root_order_for(df.level, |D|).

    The constructor takes any |D| x |D| nesting of length-phi(N) sequences
    of integers (numpy integers too), stores Python ints in nested tuples and
    divides coeffs and den by their gcd; every attribute is read-only, so a
    cached generator cannot be changed by a caller.  Products and equality
    require the same form: the same cosets with the same values of q.
    """

    def __init__(self, df: DiscriminantForm, coeffs, den: int = 1):
        size, deg = len(df.cosets), len(_power_table(_root_order(df))[0])
        try:
            if len(coeffs) != size or any(len(row) != size for row in coeffs):
                raise ValueError(f"coefficients are not a {size} x {size} matrix")
            if any(len(e) != deg for row in coeffs for e in row):
                raise ValueError(f"an entry does not have {deg} coefficients")
            rows = [[tuple(map(operator.index, e)) for e in row] for row in coeffs]
            den = operator.index(den)
        except TypeError as exc:
            raise ValueError(f"coefficients or den not integral or misshapen: {exc}") from None
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        self._set(df, rows, den, {e: e for e in chain.from_iterable(rows)})

    @classmethod
    def _exact(cls, df: DiscriminantForm, rows, den: int, entry: dict) -> "WeilRepMatrix":
        """rows / den, where each key k in rows stands for entry[k], a tuple of
        Python ints, and every key of entry occurs in rows."""
        m = cls.__new__(cls)
        m._set(df, rows, den, entry)
        return m

    def _set(self, df: DiscriminantForm, rows, den: int, entry: dict) -> None:
        g = math.gcd(den, *chain.from_iterable(entry.values())) if den > 1 else 1
        if g > 1:
            entry = {k: tuple(x // g for x in e) for k, e in entry.items()}
            den //= g
        self.df = df
        self.coeffs = tuple(tuple(map(entry.__getitem__, row)) for row in rows)
        self.root_order = _root_order(df)
        self.den = den
        self._distinct = frozenset(entry.values())

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def _map(self, f, den: int) -> "WeilRepMatrix":
        """f applied to every entry (once per distinct entry), over den."""
        image = {e: f(e) for e in self._distinct}
        return WeilRepMatrix._exact(self.df, self.coeffs, den, image)

    @cached_property
    def entries(self) -> tuple[tuple[Cyc, ...], ...]:
        """The entries as canonical Cyc elements (built on first use)."""
        n, den = self.root_order, self.den
        cyc = {e: Cyc(n, [Fraction(x, den) for x in e]) for e in self._distinct}
        return tuple(tuple(map(cyc.__getitem__, row)) for row in self.coeffs)

    def __matmul__(self, other: "WeilRepMatrix") -> "WeilRepMatrix":
        if not _same_form(self.df, other.df):
            raise ValueError("matrices live over different discriminant forms")
        n, n_root, left, right = self.size, self.root_order, self._distinct, other._distinct
        deg = len(next(iter(left)))
        height = [max(1, *map(abs, chain.from_iterable(m))) for m in (left, right)]
        wb = (n * deg * height[0] * height[1]).bit_length() // 8 + 1  # 2^(8 wb - 1) > M
        half, mask = 1 << (8 * wb - 1), (1 << 8 * wb) - 1
        digit = half.to_bytes(wb, "little")  # a zero digit, biased
        width = (2 * deg - 1) * wb  # bytes per block
        packed = {e: sum(c << 8 * wb * x for x, c in enumerate(e)) for e in left}
        block = {e: b"".join((c + half).to_bytes(wb, "little") for c in e) + digit * (deg - 1)
                 for e in right}
        row_bias = int.from_bytes(digit * (n * width // wb), "little")
        b_rows = [int.from_bytes(b"".join(map(block.__getitem__, row)), "little") - row_bias
                  for row in other.coeffs]
        reduced, rows = {}, []
        for row in self.coeffs:
            raw = sum(map(operator.mul, map(packed.__getitem__, row), b_rows),
                      row_bias).to_bytes(n * width, "little")
            blocks = [raw[j:j + width] for j in range(0, n * width, width)]
            for blk in set(blocks).difference(reduced):
                v = int.from_bytes(blk, "little")
                digits = [(v >> t & mask) - half for t in range(0, 8 * width, 8 * wb)]
                reduced[blk] = _reduced(digits, n_root)
            rows.append(blocks)
        return WeilRepMatrix._exact(self.df, rows, self.den * other.den, reduced)

    def conjugate(self) -> "WeilRepMatrix":
        """Entrywise complex conjugate (the dual representation on generators):
        the coefficient of zeta^k moves to zeta^-k, then reduces to the power basis."""
        n = self.root_order
        return self._map(lambda e: _reduced([e[-k % n] if -k % n < len(e) else 0
                                             for k in range(n)], n), self.den)

    def dagger(self) -> "WeilRepMatrix":
        conj = self.conjugate()
        return WeilRepMatrix._exact(self.df, zip(*conj.coeffs), conj.den,
                                    {e: e for e in conj._distinct})

    def scale(self, c: Cyc) -> "WeilRepMatrix":
        """c times the matrix, for any c in Q(zeta_N)."""
        if c.n != self.root_order:
            raise ValueError("cyclotomic order mismatch")
        c_den = math.lcm(*(x.denominator for x in c.c))
        c_ints = [int(x * c_den) for x in c.c]
        return self._map(lambda e: _times(e, c_ints, c.n), self.den * c_den)

    @staticmethod
    def identity(df: DiscriminantForm) -> "WeilRepMatrix":
        return _diagonal(df, [0] * len(df.cosets))

    def is_identity(self) -> bool:
        return self == WeilRepMatrix.identity(self.df)

    def is_unitary(self) -> bool:
        return (self @ self.dagger()).is_identity()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeilRepMatrix):
            return NotImplemented
        return (self.den == other.den and _same_form(self.df, other.df)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.root_order, self.den, self.coeffs))

    def to_complex(self):
        return [[e.to_complex() for e in row] for row in self.entries]

    def entry_strings(self) -> list[list[str]]:
        """Exact display: each entry as '(cyclotomic)/sqrt(D)' when that is
        the cleaner form, else as a plain cyclotomic polynomial in z.  Works on
        the integer numerators; a Cyc is built only to print an entry."""
        n, den, d = self.root_order, self.den, self.df.order
        sqrt_d = [int(x) for x in sqrt_as_cyclotomic(d, n).c] if d > 1 else None

        def as_cyc(e):
            return Cyc(n, [Fraction(x, den) for x in e])

        def monomial(e):
            nz = [(k, Fraction(a, den)) for k, a in enumerate(e) if a]
            if len(nz) != 1:
                return None
            k, a = nz[0]
            if k == 0:
                return str(a)
            head = "" if a == 1 else ("-" if a == -1 else f"{a}*")
            return f"{head}z^{k}" if k > 1 else f"{head}z"

        def shown(e):
            m = monomial(e)
            if m is None and sqrt_d is not None and any(e):
                scaled = _times(e, sqrt_d, n)
                return f"{monomial(scaled) or f'({as_cyc(scaled)!r})'}/sqrt({d})"
            return m or repr(as_cyc(e))

        text = {e: shown(e) for e in self._distinct}
        return [[text[e] for e in row] for row in self.coeffs]


def _diagonal(df: DiscriminantForm, exps) -> WeilRepMatrix:
    """diag(zeta_N^exps[0], zeta_N^exps[1], ...)."""
    table, n = _power_table(_root_order(df)), len(exps)
    entry = {k: table[k] for k in exps} | ({None: (0,) * len(table[0])} if n > 1 else {})
    rows = [[k if i == j else None for j in range(n)] for i, k in enumerate(exps)]
    return WeilRepMatrix._exact(df, rows, 1, entry)


@lru_cache(maxsize=64)
def rho_T(df: DiscriminantForm) -> WeilRepMatrix:
    """Diagonal generator: entry e(Q(lambda)) at coset lambda."""
    return _diagonal(df, [root_exponent(df.q_table[lam], _root_order(df)) for lam in df.cosets])


@lru_cache(maxsize=64)
def rho_S(df: DiscriminantForm) -> WeilRepMatrix:
    """Normalized finite Fourier transform with phase e(-sig/8): the matrix
    e(-sig/8) sqrt|D| F over |D|."""
    n_root, e = _root_order(df), df._e
    # b(lambda, mu) = c^T W c' / e^2 on Smith coordinates, and c^T W c' is a
    # multiple of e (e mu lies in L); as e | level | N, e(-b) is zeta_N to
    # the power -(c^T W c' / e) (N / e).
    images = [[sum(map(operator.mul, row, c)) for row in df._w] for c in df._coords]
    phase = root_exponent(Fraction(-df.sig8, 8), n_root)
    exps = [[(phase - sum(map(operator.mul, c, wd)) // e * (n_root // e)) % n_root
             for wd in images] for c in df._coords]
    sqrt_d = [int(x) for x in sqrt_as_cyclotomic(df.order, n_root).c]
    table = _power_table(n_root)
    entry = {k: _times(table[k], sqrt_d, n_root) for k in set(chain.from_iterable(exps))}
    return WeilRepMatrix._exact(df, exps, df.order, entry)


def _generator(df: DiscriminantForm, token: str) -> WeilRepMatrix:
    if token == "S":
        return rho_S(df)
    if token == "T":
        return rho_T(df)
    if token == "s":
        return rho_S(df).dagger()
    if token == "t":
        return rho_T(df).dagger()
    raise ValueError(f"unknown generator token {token!r}")


def _tokenize(word: str) -> list[str]:
    """Tokens are S, T with an optional ^-1 suffix; lowercase also inverts."""
    tokens = []
    i = 0
    while i < len(word):
        ch = word[i]
        if ch in " \t":
            i += 1
            continue
        if ch not in "STst":
            raise ValueError(f"bad character {ch!r} in generator word")
        if word[i + 1 : i + 4] == "^-1":
            tokens.append(ch.lower())
            i += 4
        else:
            tokens.append(ch)
            i += 1
    return tokens


def rho_word(df: DiscriminantForm, word: str) -> WeilRepMatrix:
    """Product of generator matrices in word order (left factor acts first in
    the string, i.e. rho_word('ST') = rho(S) @ rho(T))."""
    result = WeilRepMatrix.identity(df)
    for token in _tokenize(word):
        result = result @ _generator(df, token)
    return result


@dataclass(frozen=True)
class RelationReport:
    df_order: int
    sig8: int
    unitary_s: bool
    unitary_t: bool
    braid: bool       # (rho(S) rho(T))^3 == rho(S)^2
    s_squared: bool   # rho(S)^2 == e(-sig8/4) * (lambda -> -lambda)

    @property
    def all_pass(self) -> bool:
        return self.unitary_s and self.unitary_t and self.braid and self.s_squared


def verify_relations(df: DiscriminantForm, raise_on_failure: bool = True) -> RelationReport:
    """Exact checks of the defining relations on rho(S) and rho(T); in lowest
    terms each one compares two (den, coeffs) pairs."""
    s, t = rho_S(df), rho_T(df)
    identity = WeilRepMatrix.identity(df)
    rows = [identity.coeffs[df._index(df._neg(c))] for c in df._coords]
    negation = WeilRepMatrix._exact(df, rows, 1, {e: e for e in identity._distinct})
    s_squared = negation.scale(Cyc.e(Fraction(-df.sig8, 4), s.root_order))
    ss = s @ s
    st = s @ t
    checks = {
        "unitarity of rho(S)": s @ s.dagger() == identity,
        "unitarity of rho(T)": t @ t.dagger() == identity,
        "(rho(S)rho(T))^3 = rho(S)^2": st @ st @ st == ss,
        "rho(S)^2 = e(-sig/4) * negation": ss == s_squared,
    }
    report = RelationReport(df.order, df.sig8, *checks.values())
    if raise_on_failure and not report.all_pass:
        raise RelationViolated("; ".join(name for name, ok in checks.items() if not ok))
    return report


@dataclass(frozen=True)
class ThetaTransformResult:
    generator: str
    tau: complex
    truncation: Fraction
    residual: float
    tail_bound: float


def _tail_bound(total_counts: dict, truncation: Fraction, v: float, rank: int) -> float:
    """Upper bound for sum_{m >= M} r(m) e^(-2 pi m v) using r(m) <= c m^k
    with k = rank/2 and c estimated from the computed coefficients with a
    10x safety margin, then the geometric comparison
    (M+j)^k <= M^k (1 + j/M)^k <= M^k e^(jk/M)."""
    k = rank / 2
    c = 10.0 * max(
        (cnt / float(m) ** k for m, cnt in total_counts.items() if m > 0 and cnt > 0),
        default=10.0,
    )
    x = math.exp(-2 * math.pi * v)
    m0 = float(truncation)
    growth = math.exp(k / m0) * x
    if growth >= 1:
        return math.inf
    return c * x ** m0 * m0 ** k / (1 - growth)


def theta_transform_check(lat: Lattice, generator: str, tau: complex, truncation) -> ThetaTransformResult:
    """Residual of the theta transformation law under S or T at a point tau.

    Both sides are evaluated from the q-series truncated below ``truncation``;
    the truncation tail bound must come out below 1e-12 or
    InsufficientTruncation is raised.  For odd rank the automorphy factor
    (c tau + d)^(rank/2) uses the principal branch, which is the correct
    branch at the generators S and T on the upper imaginary axis.
    """
    from .enumeration import theta_qseries  # here, so importing weilrep leaves it out

    if generator not in ("S", "T"):
        raise ValueError("generator must be 'S' or 'T'")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    bound = Fraction(truncation)
    series = theta_qseries(lat, bound)
    df = discriminant_form(lat)

    if generator == "T":
        gamma_tau = tau + 1
        j_pow = 1.0 + 0j
        mat = rho_T(df)
    else:
        gamma_tau = -1 / tau
        j_pow = tau ** (lat.rank / 2)
        mat = rho_S(df)

    total = {}
    for pairs in series.components.values():
        for m, cnt in pairs:
            total[m] = total.get(m, 0) + cnt
    v_eff = min(tau.imag, gamma_tau.imag)
    tail = _tail_bound(total, bound, v_eff, lat.rank)
    tail_total = (1 + abs(j_pow) * len(df.cosets)) * tail
    if not tail_total < 1e-12:
        raise InsufficientTruncation(
            f"tail bound {tail_total:.3e} exceeds 1e-12; raise the truncation"
        )

    def eval_component(lam, at):
        return sum(
            cnt * cmath.exp(2j * cmath.pi * float(m) * at)
            for m, cnt in series.components[lam]
            if cnt
        )

    at_tau = [eval_component(mu, tau) for mu in df.cosets]
    residual = 0.0
    for lam, row in zip(df.cosets, mat.to_complex()):
        lhs = eval_component(lam, gamma_tau)
        rhs = j_pow * sum(r * v for r, v in zip(row, at_tau))
        residual = max(residual, abs(lhs - rhs))
    return ThetaTransformResult(
        generator=generator,
        tau=tau,
        truncation=bound,
        residual=residual,
        tail_bound=tail_total,
    )
