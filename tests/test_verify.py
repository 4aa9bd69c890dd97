import importlib.util
from pathlib import Path

from cycletheta.verify import (
    Case,
    VerificationReport,
    reports_to_json,
    suite_cup_product,
    suite_siegel_weil,
    suite_volume_formula,
    suite_weilrep,
)


class TestSuites:
    def test_volume_small(self):
        rep = suite_volume_formula(40)
        assert rep.passed
        descriptors = [c.descriptor for c in rep.cases]
        assert descriptors == sorted(descriptors)
        assert any("d=003" in d for d in descriptors)

    def test_siegel_weil(self):
        rep = suite_siegel_weil(4)
        assert rep.passed
        assert len(rep.cases) == 8  # two comparisons per m

    def test_cup_a2(self):
        rep = suite_cup_product("A2", 3)
        assert rep.passed
        case = next(c for c in rep.cases if c.descriptor == "A2 t1=1 t2=1")
        assert case.lhs == "36" and case.rhs == "36"

    def test_weilrep_suite(self):
        rep = suite_weilrep(corpus=("A1", "U"), theta_corpus=("A1+A1",), truncation=14)
        assert rep.passed
        assert any("milgram" in c.descriptor for c in rep.cases)
        assert any("tail=" in c.descriptor for c in rep.cases)

    def test_exact_tolerance_strings(self):
        rep = suite_volume_formula(12)
        assert all(c.tolerance == "0" for c in rep.cases)


class TestReportSemantics:
    def test_no_aggregation_masking(self):
        report = VerificationReport(
            suite="demo",
            cases=(
                Case("ok", "1", "1", "pass"),
                Case("broken", "1", "2", "fail"),
            ),
        )
        assert not report.passed
        assert report.counts == (1, 1)

    def test_json_shape(self):
        rep = suite_siegel_weil(2)
        data = rep.to_json_dict()
        assert data["suite"] == "siegelweil"
        assert data["passed"] is True
        assert len(data["cases"]) == data["n_pass"]

    def test_determinism_bytes(self):
        a = reports_to_json([suite_volume_formula(30), suite_cup_product("A2", 2)])
        b = reports_to_json([suite_volume_formula(30), suite_cup_product("A2", 2)])
        assert a == b

    def test_text_lines(self):
        rep = suite_siegel_weil(2)
        lines = rep.text_lines()
        assert lines[0].startswith("suite siegelweil:")
        assert all("[ok ]" in line for line in lines[1:])


def test_verify_all_json_bytes_are_pinned(fresh_python):
    """`verify --suite all --json` in a fresh process matches the sha256 and
    length the benchmark checks (perfbench/workloads.py, loaded read-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    proc = fresh_python("-m", "cycletheta", *workloads.VERIFY_ARGS)
    assert workloads.check_verify_output(proc.returncode, proc.stdout.encode()) is None, proc.stderr
