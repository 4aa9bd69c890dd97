"""Tests of the benchmark itself (not of cycletheta).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import analyze
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_seed_gives_identical_inputs():
    for seed in (0, 1, 12345):
        assert workloads.algebra_stream(seed, 0) == workloads.algebra_stream(seed, 0)
        assert workloads.cli_commands(seed, 1) == workloads.cli_commands(seed, 1)
    assert workloads.algebra_stream(1, 0) != workloads.algebra_stream(2, 0)
    assert workloads.algebra_stream(1, 0) != workloads.algebra_stream(1, 1)
    assert workloads.cli_commands(1, 0) != workloads.cli_commands(2, 0)


def test_every_seed_has_the_same_composition_and_a_digest_for_each_query():
    expected = workloads.load_expected()
    shapes = set()
    for seed in range(20):
        stream = workloads.algebra_stream(seed, 0)
        assert len(stream) >= 100
        assert all(workloads.op_key(it["op"]) in expected for it in stream)
        seen = set()
        for it in stream:
            key = workloads.op_key(it["op"])
            assert (key in seen) == it["repeat"]
            seen.add(key)
        fresh_kinds = sorted(it["op"][0] for it in stream if not it["repeat"])
        shapes.add((tuple(fresh_kinds), sum(it["repeat"] for it in stream)))
        cmds = workloads.cli_commands(seed, 0)
        misses = [c["args"] for c in cmds if c["cache"] == "miss"]
        hits = [c["args"] for c in cmds if c["cache"] == "hit"]
        assert sorted(misses) == sorted(hits) and len(set(map(tuple, misses))) == len(misses)
        for c in cmds:
            if c["cache"] == "hit":
                assert cmds.index({"args": c["args"], "cache": "miss"}) < cmds.index(c)
    assert len(shapes) == 1


def _hurwitz(d):
    from cycletheta.eisenstein import hurwitz
    return hurwitz(d)


def test_corrupted_algebra_output_counts_as_failed():
    expected = workloads.load_expected()
    op = workloads.heegner_op(1, 1, 103)
    payload, check, _ = workloads.run_algebra_op(op)
    good = {"ok": True, "digest": workloads.digest(payload), "check": check}
    item = {"op": op, "repeat": False}
    assert workloads.check_algebra_reply(item, good, expected, {}, _hurwitz) is None

    bad_digest = {**good, "digest": "0" * 16}
    assert workloads.check_algebra_reply(item, bad_digest, expected, {}, _hurwitz)
    bad_degree = {**good, "check": {"degree": "7/3"}}
    assert workloads.check_algebra_reply(item, bad_degree, {}, {}, _hurwitz)
    first = {workloads.op_key(op): "f" * 16}
    assert workloads.check_algebra_reply(item, good, {}, first, _hurwitz)
    rel = {"op": ["relations", [["A2"]]], "repeat": False}
    assert workloads.check_algebra_reply(
        rel, {"ok": True, "digest": "x", "check": {"all_pass": False}}, {}, {}, _hurwitz)
    dens = {"op": ["density", ["A2", 3, 1]], "repeat": False}
    assert workloads.check_algebra_reply(
        dens, {"ok": True, "digest": "x", "check": {"stabilized": None}}, {}, {}, _hurwitz)
    assert workloads.check_algebra_reply(item, {"ok": False, "error": "boom"}, {}, {}, _hurwitz)


def test_corrupted_worker_output_fails_the_pass(tmp_path, monkeypatch):
    """A digest mismatch found through the real worker process is a failed query."""
    stream = [{"op": ["cohen_number", [2, 401]], "repeat": False},
              {"op": ["heegner", [1, 1, 103]], "repeat": False},
              {"op": ["heegner", [1, 1, 103]], "repeat": True}]
    monkeypatch.setattr(workloads, "algebra_stream", lambda seed, k: stream)
    monkeypatch.chdir(ROOT)
    ctx = run.Context(ROOT, tmp_path, 0)
    wl = run.AlgebraMix(ctx)
    ok = wl.run_pass(0, None)
    assert ok.failures == [] and ok.attempted == 3 and len(ok.ops) == 3
    wl.expected = {**wl.expected, workloads.op_key(stream[1]["op"]): "0" * 16}
    bad = wl.run_pass(0, None)
    assert len(bad.failures) == 2  # the query and its repeat


def test_corrupted_cli_and_verify_output_count_as_failed():
    cmd = {"args": ["theta", "--lattice", "A1", "--max", "3", "--json"], "cache": "miss"}
    hit = {**cmd, "cache": "hit"}
    miss_stdout = {}
    assert workloads.check_cli_result(cmd, 0, b'{"a": 1}', True, miss_stdout) is None
    assert workloads.check_cli_result(hit, 0, b'{"a": 1}', False, miss_stdout) is None
    assert workloads.check_cli_result(hit, 0, b'{"a": 2}', False, miss_stdout)
    assert workloads.check_cli_result(hit, 0, b'{"a": 1}', True, miss_stdout)
    assert workloads.check_cli_result(cmd, 1, b'{"a": 1}', True, {})
    assert workloads.check_cli_result(cmd, 0, b"not json", True, {})
    assert workloads.check_verify_output(0, b"{}")
    assert workloads.check_verify_output(1, b"{}")


def _fake_pass(**kw):
    base = dict(wall=2.0, ops=[run.Op(0.5, "miss"), run.Op(0.25, "hit"), run.Op(0.75)],
                rss_kb=[2048], failures=[], attempted=3, process_labels=["miss", "hit", None],
                cache_bytes=10)
    return run.PassResult(**{**base, **kw})


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(analyze.PER_LAYER)
    e2e = run.end_to_end([0.3, 0.2, 0.4], [_fake_pass(), _fake_pass(wall=3.0)])
    assert list(e2e) == [n for n, _ in run.END_TO_END]
    assert all(v > 0 for v, _ in e2e.values())
    t = 10**9
    spans = [[1, 0, "cli.main", 0, 4 * t, None],
             [2, 1, "heegner.heegner_cycle", t, 3 * t, {"N": 1, "d": 103, "classes": 2}],
             [3, 2, "heegner.gamma0_classes", t, 2 * t, None]]
    groups = [(spans, {}), ([], {}), ([], {})]
    layer = analyze.per_layer(groups, _fake_pass(wall=5.0), _fake_pass())
    assert list(layer) == [n for n, _ in analyze.PER_LAYER]
    assert layer["heegner.busy_s"] == pytest.approx(2.0)
    assert layer["cli.busy_s"] == pytest.approx(2.0)
    assert layer["other.busy_s"] == pytest.approx(1.0)
    assert layer["cli.compute_ms"] == pytest.approx(2000.0)


def test_printed_metrics_are_declared(tmp_path, monkeypatch, capsys):
    """Run the CLI workload end to end on a short command list."""
    cmds = [{"args": ["theta", "--lattice", "A1", "--max", "3", "--json"], "cache": "miss"},
            {"args": ["theta", "--lattice", "A1", "--max", "3", "--json"], "cache": "hit"}]
    monkeypatch.setattr(workloads, "cli_commands", lambda seed, k: cmds)
    monkeypatch.chdir(ROOT)
    declared = {m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]}
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        assert run.main(["--workload", "cli_cache", "--seed", "3", "--seconds", "0",
                         "--trace", trace]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCH[key]]
        rows = [ln.split()[0] for ln in lines if ln.startswith("  ")]
        assert set(rows) - {"fail_ratio"} <= declared


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli_cache", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
