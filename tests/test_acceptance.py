"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (rational equality) except the Weil-representation
Milgram check (1e-10) and the theta-transformation residuals (1e-9 with
printed tail bounds).  Wall-clock budgets are asserted as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from fractions import Fraction as F

from cycletheta.eisenstein import hurwitz, sigma, siegel_product
from cycletheta.enumeration import rep_number, rep_number_genus2
from cycletheta.heegner import heegner_cycle, orbit_cross_check
from cycletheta.quadlattice import direct_sum, discriminant_form, gauss_sum, named_lattice
from cycletheta.verify import SUITES, reports_to_json
from cycletheta.weilrep import theta_transform_check, verify_relations


def report(number, ok, detail, elapsed):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s)"
    print(line)
    return ok


def test_criterion_1_volume_formula():
    t0 = time.time()
    failures = [
        d
        for d in range(3, 201)
        if d % 4 in (0, 3) and heegner_cycle(1, d % 2, d).degree != hurwitz(d)
    ]
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    assert report(
        1, ok, f"deg Z(d) = H(d) exactly for all d <= 200 ({len(failures)} failures)", elapsed
    )


def test_criterion_2_orbit_cross_check():
    t0 = time.time()
    cases = [(1, 0, 4), (1, 1, 3), (1, 1, 23), (6, 1, 23), (5, 2, 4)]
    results = []
    for n, r, d in cases:
        rep = orbit_cross_check(n, r, d)
        obstructed = (r * r + d) % (4 * n) != 0
        zero_ok = (not obstructed) or heegner_cycle(n, r, d).degree == 0
        results.append(rep.match and zero_ok)
    elapsed = time.time() - t0
    ok = all(results) and elapsed < 30
    assert report(2, ok, f"orbit/forms routes agree on {cases}", elapsed)


def test_criterion_3_siegel_weil():
    t0 = time.time()
    e8 = named_lattice("E8")
    ok = True
    for m in range(1, 11):
        count = rep_number(e8, None, m)
        pred = siegel_product(e8, m)
        if not (count == pred == 240 * sigma(3, m)):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert report(3, ok, "E8: enumeration = density product = 240*sigma_3(m), m <= 10", elapsed)


def test_criterion_4_cup_product():
    t0 = time.time()
    ok = True
    for name in ("A2", "E8"):
        lat = named_lattice(name)
        for t1 in range(1, 5):
            for t2 in range(1, 5):
                lhs = rep_number(lat, None, t1) * rep_number(lat, None, t2)
                rhs = 0
                tb = 0
                while tb * tb <= 4 * t1 * t2:
                    for s in ({tb, -tb} if tb else {0}):
                        b = F(s, 2)
                        rhs += rep_number_genus2(lat, None, ((t1, b), (b, t2)))
                    tb += 1
                if lhs != rhs:
                    ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert report(4, ok, "r(t1) r(t2) = sum_b r2([[t1,b],[b,t2]]) on A2, E8, t <= 4", elapsed)


def test_criterion_5_weil_representation():
    import cmath
    import math

    t0 = time.time()
    ok = True
    for name in ("A1", "A2", "A3", "D4", "E8", "U", "A1(-1)"):
        df = discriminant_form(named_lattice(name))
        rep = verify_relations(df, raise_on_failure=False)
        if not rep.all_pass:
            ok = False
        milgram = abs(
            gauss_sum(df) - math.sqrt(df.order) * cmath.exp(2j * cmath.pi * df.sig8 / 8)
        )
        if not milgram < 1e-10:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    assert report(5, ok, "exact relations + Milgram (1e-10) on the 7-lattice corpus", elapsed)


def test_criterion_6_theta_transformation():
    t0 = time.time()
    a1a1 = direct_sum(named_lattice("A1"), named_lattice("A1"))
    ok = True
    details = []
    for lat, name in ((a1a1, "A1+A1"), (named_lattice("D4"), "D4"), (named_lattice("E8"), "E8")):
        for gen in ("S", "T"):
            for tau in (1j, 2j):
                res = theta_transform_check(lat, gen, tau, 16)
                details.append(f"{name}/{gen}/tau={tau.imag:g}i tail={res.tail_bound:.2e}")
                if not res.residual < 1e-9:
                    ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    print("  tail bounds: " + "; ".join(details))
    assert report(6, ok, "S and T residuals < 1e-9 at tau = i, 2i", elapsed)


def test_criterion_7_hurwitz_kronecker():
    t0 = time.time()
    ok = True
    for n in range(1, 51):
        lhs = F(0)
        s = 0
        while s * s <= 4 * n:
            lhs += hurwitz(4 * n - s * s)
            if s:
                lhs += hurwitz(4 * n - s * s)
            s += 1
        rhs = 2 * sigma(1, n) - sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
        if lhs != rhs:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    assert report(7, ok, "Hurwitz-Kronecker relation exact for n <= 50", elapsed)


def test_criterion_8_determinism():
    from click.testing import CliRunner

    from cycletheta.cli import main

    t0 = time.time()
    runner = CliRunner()
    outputs = []
    for _ in range(2):
        result = runner.invoke(
            main, ["verify", "--suite", "all", "--json"], env={"CYCLETHETA_CACHE": ""}
        )
        assert result.exit_code == 0
        outputs.append(result.output.encode())
    elapsed = time.time() - t0
    ok = outputs[0] == outputs[1]
    assert report(8, ok, "verify --suite all --json twice is byte-identical", elapsed)


def test_full_verify_suite_green():
    reports = SUITES["all"]()
    assert all(r.passed for r in reports)
    assert reports_to_json(reports)  # serializes cleanly
