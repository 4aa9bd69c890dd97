"""One-command reproduction suites wiring the library into its identities.

Each suite produces a VerificationReport whose cases compare two
independently computed values: exact suites demand literal rational
equality (tolerance "0"), the theta-transformation suite uses floating
evaluation with tolerance 1e-9 and prints its truncation tail bounds.
Reports are deterministic: cases are listed in canonical input order and
serialize to byte-identical JSON on repeated runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import eisenstein
from .enumeration import rep_number, rep_number_genus2
from .heegner import heegner_cycle
from .quadlattice import Lattice, direct_sum, discriminant_form, gauss_sum, named_lattice
from .weilrep import theta_transform_check, verify_relations

__all__ = [
    "Case",
    "VerificationReport",
    "suite_volume_formula",
    "suite_siegel_weil",
    "suite_cup_product",
    "suite_weilrep",
    "suite_all",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class Case:
    descriptor: str
    lhs: str
    rhs: str
    status: str
    tolerance: str = "0"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple[Case, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def counts(self) -> tuple[int, int]:
        npass = sum(1 for c in self.cases if c.passed)
        return npass, len(self.cases) - npass

    def to_json_dict(self) -> dict:
        npass, nfail = self.counts
        return {
            "suite": self.suite,
            "passed": self.passed,
            "n_pass": npass,
            "n_fail": nfail,
            "cases": [
                {
                    "descriptor": c.descriptor,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "status": c.status,
                    "tolerance": c.tolerance,
                }
                for c in self.cases
            ],
        }

    def text_lines(self) -> list[str]:
        npass, nfail = self.counts
        lines = [f"suite {self.suite}: {npass} pass, {nfail} fail"]
        for c in self.cases:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.descriptor}: {c.lhs} vs {c.rhs} (tol {c.tolerance})")
        return lines


def _exact_case(descriptor: str, lhs, rhs) -> Case:
    return Case(
        descriptor=descriptor,
        lhs=str(lhs),
        rhs=str(rhs),
        status="pass" if lhs == rhs else "fail",
        tolerance="0",
    )


def suite_volume_formula(d_max: int = 200) -> VerificationReport:
    """deg Z(d) at level 1 equals the Hurwitz class number H(d), exactly."""
    cases = []
    for d in range(3, d_max + 1):
        if d % 4 not in (0, 3):
            continue
        deg = heegner_cycle(1, d % 2, d).degree
        cases.append(_exact_case(f"d={d:03d}", deg, eisenstein.hurwitz(d)))
    return VerificationReport(suite="volume", cases=tuple(cases))


def suite_siegel_weil(m_max: int = 10) -> VerificationReport:
    """E8: enumeration count = local-density product = 240 sigma_3(m)."""
    e8 = named_lattice("E8")
    cases = []
    for m in range(1, m_max + 1):
        count = rep_number(e8, None, m)
        pred = eisenstein.siegel_product(e8, m)
        classical = 240 * eisenstein.sigma(3, m)
        cases.append(_exact_case(f"m={m:02d} count=product", count, pred))
        cases.append(_exact_case(f"m={m:02d} count=240*sigma3", count, classical))
    return VerificationReport(suite="siegelweil", cases=tuple(cases))


def suite_cup_product(lattice_name: str = "A2", t_max: int = 4) -> VerificationReport:
    """r(t1) r(t2) = sum over half-integral b of the genus-2 count at
    [[t1, b], [b, t2]], exactly."""
    lat = named_lattice(lattice_name)
    r = [rep_number(lat, None, t) for t in range(t_max + 1)]
    cases = []
    for t1 in range(0, t_max + 1):
        for t2 in range(t1, t_max + 1):
            lhs = r[t1] * r[t2]
            b2max = 4 * t1 * t2
            b_twice = 0
            terms = []
            while b_twice * b_twice <= b2max:
                for signed in ({b_twice, -b_twice} if b_twice else {0}):
                    b = Fraction(signed, 2)
                    terms.append(rep_number_genus2(lat, None, ((t1, b), (b, t2))))
                b_twice += 1
            rhs = sum(terms)
            cases.append(
                _exact_case(f"{lattice_name} t1={t1} t2={t2}", lhs, rhs)
            )
    return VerificationReport(suite=f"cup[{lattice_name}]", cases=tuple(cases))


WEILREP_CORPUS = ("A1", "A2", "A3", "D4", "E8", "U", "A1(-1)")
THETA_CORPUS = ("A1+A1", "A2", "D4", "E8")


def _theta_lattice(name: str) -> Lattice:
    if name == "A1+A1":
        a1 = named_lattice("A1")
        return direct_sum(a1, a1)
    return named_lattice(name)


def suite_weilrep(
    corpus=WEILREP_CORPUS,
    theta_corpus=THETA_CORPUS,
    truncation: int = 16,
) -> VerificationReport:
    """Exact relation checks plus the Milgram invariant for every corpus
    discriminant form, and numeric theta-transformation residuals for the
    even-rank positive definite members at tau = i and 2i."""
    import cmath
    import math

    cases = []
    for name in corpus:
        df = discriminant_form(named_lattice(name))
        rep = verify_relations(df, raise_on_failure=False)
        for check, ok in [
            ("unitary(S)", rep.unitary_s),
            ("unitary(T)", rep.unitary_t),
            ("(ST)^3=S^2", rep.braid),
            ("S^2=e(-sig/4)*neg", rep.s_squared),
        ]:
            cases.append(
                Case(
                    descriptor=f"relations {name} {check}",
                    lhs="exact" if ok else "violated",
                    rhs="exact",
                    status="pass" if ok else "fail",
                    tolerance="0",
                )
            )
        milgram = abs(
            gauss_sum(df)
            - math.sqrt(df.order) * cmath.exp(2j * cmath.pi * df.sig8 / 8)
        )
        cases.append(
            Case(
                descriptor=f"milgram {name}",
                lhs=f"{milgram:.3e}",
                rhs="< 1e-10",
                status="pass" if milgram < 1e-10 else "fail",
                tolerance="1e-10",
            )
        )
    for name in theta_corpus:
        lat = _theta_lattice(name)
        for gen in ("S", "T"):
            for tau in (1j, 2j):
                res = theta_transform_check(lat, gen, tau, truncation)
                cases.append(
                    Case(
                        descriptor=(
                            f"theta {name} {gen} tau={tau.imag:g}i "
                            f"M={truncation} tail={res.tail_bound:.3e}"
                        ),
                        lhs=f"{res.residual:.3e}",
                        rhs="< 1e-9",
                        status="pass" if res.residual < 1e-9 else "fail",
                        tolerance="1e-09",
                    )
                )
    return VerificationReport(suite="weilrep", cases=tuple(cases))


SUITE_NAMES = ("volume", "siegelweil", "cup", "weilrep", "all")


def suite_all() -> list[VerificationReport]:
    return [
        suite_volume_formula(),
        suite_siegel_weil(),
        suite_cup_product("A2"),
        suite_cup_product("E8"),
        suite_weilrep(),
    ]


def reports_to_json(reports: list[VerificationReport]) -> str:
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    return json.dumps(payload, sort_keys=True, indent=2)
