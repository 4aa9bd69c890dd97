import json
from pathlib import Path

import pytest

from cycletheta import cli
from cycletheta.cli import ResultCache


class TestHeegnerCommand:
    def test_degree_printed(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "heegner", "--level", "1", "--residue", "1", "--disc", "3"],
        )
        assert result.exit_code == 0
        assert "1/3" in result.output

    def test_json_schema(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "heegner", "--level", "1", "--residue", "0",
             "--disc", "4", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["degree"] == "1/2"
        assert payload["points"][0]["mult"] == "1/2"
        assert payload["points"][0]["stab"] == 4

    def test_cache_transparency(self, invoke, tmp_path):
        args = ["heegner", "--level", "6", "--residue", "1", "--disc", "23", "--json"]
        cold = invoke(["--cache-dir", str(tmp_path)] + args)
        warm = invoke(["--cache-dir", str(tmp_path)] + args)
        nocache = invoke(["--cache-dir", str(tmp_path / "other")] + args)
        assert cold.output == warm.output == nocache.output
        assert list(tmp_path.glob("*.json"))

    def test_residue_is_keyed_mod_2n(self, invoke, tmp_path):
        # the cycle reads r mod 2N, so residue 13 at level 6 is residue 1's entry
        args = ["--cache-dir", str(tmp_path), "heegner", "--level", "6", "--disc", "23", "--json"]
        miss = invoke(args + ["--residue", "1"])
        hit = invoke(args + ["--residue", "13"])
        assert (miss.exit_code, hit.exit_code) == (0, 0)
        assert hit.stdout == miss.stdout
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestEisensteinCommand:
    def test_e4_text(self, invoke):
        result = invoke(["eisenstein", "--series", "ek", "--weight", "4", "--max", "3"])
        assert result.output.strip() == "1 + 240q + 2160q^2"

    def test_hurwitz_table(self, invoke):
        result = invoke(["eisenstein", "--series", "hurwitz", "--max", "4"])
        assert "H(0) = -1/12" in result.output
        assert "H(4) = 1/2" in result.output

    def test_cohen_json(self, invoke):
        result = invoke(
            ["eisenstein", "--series", "cohen", "--weight", "2", "--max", "6", "--json"]
        )
        payload = json.loads(result.output)
        assert [0, "1/120"] in payload["coefficients"]
        assert "convention" in payload["metadata"]

    def test_weight_required(self, invoke):
        result = invoke(["eisenstein", "--series", "ek", "--max", "3"])
        assert result.exit_code == 2

    def test_negative_hurwitz_max_is_a_named_error(self, invoke):
        result = invoke(["eisenstein", "--series", "hurwitz", "--max", "-1"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ValueError: ")
        assert "H(" not in result.output

    @pytest.mark.parametrize(
        "args",
        [["--series", "ek", "--weight", "4", "--max", "-2"],
         ["--series", "cohen", "--weight", "2", "--max", "-1"]],
        ids=["ek", "cohen"],
    )
    def test_negative_max_is_a_named_error(self, invoke, args):
        result = invoke(["eisenstein", *args])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ValueError: truncation must be >= 0, got ")
        assert result.stdout == ""

    def test_weight_2_is_a_computation_error(self, invoke):
        result = invoke(["eisenstein", "--series", "ek", "--weight", "2", "--max", "3"])
        assert result.exit_code == 1
        assert "UnsupportedWeight" in result.output


class TestThetaCommand:
    def test_a1(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "theta", "--lattice", "A1", "--max", "2"]
        )
        assert "coset=(0): 1*q^(0) + 2*q^(1)" in result.output
        assert "coset=(1/2): 2*q^(1/4)" in result.output

    def test_fractional_max(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "theta", "--lattice", "A1", "--max", "5/2", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["truncation"] == "5/2"

    def test_negative_max_is_a_named_error(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "theta", "--lattice", "A2", "--max", "-1", "--json"],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ValueError: truncation must be >= 0, got -1")
        assert result.stdout == ""
        assert not list(tmp_path.iterdir())

    def test_indefinite_is_error(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "theta", "--lattice", "U", "--max", "3"]
        )
        assert result.exit_code == 1


class TestLatticeCommands:
    def test_info(self, invoke):
        result = invoke(["lattice", "info", "--lattice", "E8"])
        assert "rank 8" in result.output
        assert "det 1" in result.output

    def test_info_from_file(self, invoke, tmp_path):
        gram_file = tmp_path / "gram.json"
        gram_file.write_text(json.dumps({"gram": [[2, -1], [-1, 2]]}))
        result = invoke(["lattice", "info", "--lattice", str(gram_file), "--json"])
        payload = json.loads(result.output)
        assert payload["det"] == 3

    @pytest.mark.parametrize(
        "gram,message",
        [
            ([[2, 1.5], [1.5, 2]], "gram[0][1] = 1.5 is not an integer"),
            ([[2, "1"], ["1", 2]], "gram[0][1] = '1' is not an integer"),
            (5, "gram must be a list of rows of integers"),
            ([5, 6], "gram must be a list of rows of integers"),
            ([[2, None], [None, 2]], "gram must be a list of rows of integers"),
        ],
        ids=["fraction", "string", "scalar", "flat-list", "null"],
    )
    def test_malformed_gram_is_a_named_error(self, invoke, tmp_path, gram, message):
        gram_file = tmp_path / "gram.json"
        gram_file.write_text(json.dumps({"gram": gram}))
        result = invoke(["lattice", "info", "--lattice", str(gram_file)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: LatticeError: {message}")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.output

    def test_unknown_name(self, invoke):
        result = invoke(["lattice", "info", "--lattice", "Z9"])
        assert result.exit_code == 2

    def test_directory_is_a_named_error(self, invoke, tmp_path):
        result = invoke(["lattice", "info", "--lattice", str(tmp_path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: IsADirectoryError: ")
        assert "Traceback" not in result.output


class TestWeilrepCommand:
    def test_matrices(self, invoke):
        result = invoke(["weilrep", "--lattice", "A1"])
        assert "rho(S)" in result.output
        assert "sqrt(2)" in result.output
        assert "relations: pass" in result.output

    def test_word(self, invoke):
        result = invoke(["weilrep", "--lattice", "A1", "--word", "SS", "--json"])
        payload = json.loads(result.output)
        assert "SS" in payload["matrices"]


class TestDensityCommand:
    def test_e8(self, invoke, tmp_path):
        result = invoke(
            ["--cache-dir", str(tmp_path), "density", "--lattice", "E8", "--prime", "3", "--m", "1"],
        )
        assert "80/81" in result.output


class TestVerifyCommand:
    def test_weilrep_suite_exit_zero(self, invoke):
        result = invoke(["verify", "--suite", "weilrep"])
        assert result.exit_code == 0
        assert "fail" in result.output  # "0 fail"
        assert " 0 fail" in result.output

    def test_json_deterministic(self, invoke):
        a = invoke(["verify", "--suite", "siegelweil", "--json"])
        b = invoke(["verify", "--suite", "siegelweil", "--json"])
        assert a.output == b.output
        payload = json.loads(a.output)
        assert payload["passed"] is True


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "args,message",
        [
            (["weilrep", "--lattice", "A1", "--word", "SX"], "bad character 'X' in generator word"),
            (["density", "--lattice", "E8", "--prime", "4", "--m", "1"], "4 is not prime"),
            (["heegner", "--level", "0", "--residue", "0", "--disc", "3"], "need N >= 1 and d > 0"),
        ],
        ids=["weilrep", "density", "heegner"],
    )
    def test_library_error_is_one_named_line(self, invoke, tmp_path, args, message):
        result = invoke(["--cache-dir", str(tmp_path)] + args)
        assert result.exit_code == 1
        assert result.stderr == f"error: ValueError: {message}\n"
        assert result.stdout == ""

    def test_help_is_not_an_error(self, invoke):
        result = invoke(["theta", "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ")
        assert result.stderr == ""


class TestRunEntryPoint:
    def test_exit_codes(self, capsys):
        from cycletheta.cli import run

        assert run(["eisenstein", "--series", "ek", "--weight", "4", "--max", "2"]) == 0
        capsys.readouterr()
        assert run(["eisenstein", "--series", "ek", "--max", "2"]) == 2
        capsys.readouterr()
        assert run(["eisenstein", "--series", "ek", "--weight", "2", "--max", "2"]) == 1
        capsys.readouterr()


# Cache files that must be treated as misses, built from the key they sit under.
UNUSABLE_ENTRIES = {
    "list": lambda key: b"[]",
    "not-utf8": lambda key: b'{"key": "\xff\xfe"}',
    "foreign-key": lambda key: json.dumps({"key": "0" * 64, "payload": {"degree": "0"}}).encode(),
    "list-payload": lambda key: json.dumps({"key": key, "payload": ["3"]}).encode(),
}


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.make_key("theta", {"x": "1/3"})
        assert cache.get(key) is None
        cache.put(key, {"value": "1/3"})
        assert cache.get(key) == {"value": "1/3"}

    def test_source_digest_in_key(self, monkeypatch):
        # a different source digest changes every key
        inputs = {"N": 1, "r": 1, "d": 23}
        operations = ("heegner", "density", "theta")
        base = {op: ResultCache.make_key(op, inputs) for op in operations}
        assert len(set(base.values())) == len(operations)
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        for op in operations:
            assert ResultCache.make_key(op, inputs) != base[op]
        monkeypatch.undo()
        assert {op: ResultCache.make_key(op, inputs) for op in operations} == base

    def test_source_digest_covers_every_module(self, tmp_path, monkeypatch):
        package = tmp_path / "cycletheta"
        package.mkdir()
        for path in Path(cli.__file__).parent.glob("*.py"):
            (package / path.name).write_bytes(path.read_bytes())
        monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
        digest = cli._source_digest.__wrapped__
        assert digest() == cli._source_digest()
        with open(package / "eisenstein.py", "a") as fh:
            fh.write("\n")
        assert digest() != cli._source_digest()

    def test_corrupt_entry_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.make_key("heegner", {})
        (tmp_path / f"{key}.json").write_text("not json")
        assert cache.get(key) is None

    def test_cache_dir_that_is_a_file_is_a_named_error(self, invoke, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("")
        result = invoke(["--cache-dir", str(path), "heegner", "--level", "1",
                         "--residue", "1", "--disc", "23"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: FileExistsError: ")
        assert result.stdout == ""

    def test_failed_store_warns_and_prints_the_result(self, invoke, tmp_path, monkeypatch):
        args = ["heegner", "--level", "1", "--residue", "1", "--disc", "23", "--json"]
        fresh = invoke(args)

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", full_disk)
        result = invoke(["--cache-dir", str(tmp_path)] + args)
        assert result.exit_code == 0
        assert result.stdout == fresh.stdout
        assert result.stderr.startswith("warning: result not cached: OSError: ")
        assert list(tmp_path.iterdir()) == []  # the temporary file is gone too

    @pytest.mark.parametrize("case", sorted(UNUSABLE_ENTRIES))
    def test_unusable_entry_is_a_miss(self, invoke, tmp_path, case):
        args = ["heegner", "--level", "1", "--residue", "1", "--disc", "23", "--json"]
        fresh = invoke(["--cache-dir", str(tmp_path / "fresh")] + args)
        key = ResultCache.make_key("heegner", {"N": 1, "r": 1, "d": 23})
        (tmp_path / f"{key}.json").write_bytes(UNUSABLE_ENTRIES[case](key))
        assert ResultCache(tmp_path).get(key) is None
        stale = invoke(["--cache-dir", str(tmp_path)] + args)
        assert stale.exit_code == 0
        assert stale.output == fresh.output
        assert ResultCache(tmp_path).get(key) == json.loads(fresh.output)


NUMPY_LAYERS = ("numpy", "cycletheta.enumeration")
LAZY_LAYERS = NUMPY_LAYERS + ("cycletheta.weilrep", "cycletheta.cyclotomic")
# click and the library modules a process has loaded, printed as a list
LOADED = ("[m for m in sorted(sys.modules) if m == 'click'"
          " or m.startswith('cycletheta.') and m != 'cycletheta.cli']")


class TestImportGraph:
    """Commands that do not compute with numpy start without importing it;
    only enumeration's walker, shells and genus-2 histograms (verify's cup
    suite) load it, and theta series, even on a cache miss, do not."""

    def test_cli_import_loads_no_numpy(self, fresh_python):
        proc = fresh_python(
            "-c",
            "import sys, cycletheta.cli\n"
            f"print([m for m in {LAZY_LAYERS!r} if m in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_library_module(self, fresh_python):
        proc = fresh_python("-c", f"import sys, cycletheta.cli\nprint({LOADED})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("args, loaded", [
        (["heegner", "--level", "6", "--residue", "1", "--disc", "23", "--json"], []),
        (["theta", "--lattice", "A2", "--max", "4", "--json"], ["cycletheta.quadlattice"]),
        (["density", "--lattice", "E8", "--prime", "3", "--m", "2", "--json"],
         ["cycletheta.quadlattice"]),
    ], ids=["heegner", "theta", "density"])
    def test_cache_hit_loads_only_the_key_module(self, fresh_python, tmp_path, args, loaded):
        check = (
            "import sys\n"
            "from cycletheta.cli import run\n"
            "assert run(sys.argv[1:]) == 0\n"
            f"print({LOADED})"
        )
        miss = fresh_python("-c", check, "--cache-dir", str(tmp_path), *args)
        hit = fresh_python("-c", check, "--cache-dir", str(tmp_path), *args)
        assert (miss.returncode, hit.returncode) == (0, 0), miss.stderr + hit.stderr
        assert len(list(tmp_path.glob("*.json"))) == 1
        miss_payload, _ = miss.stdout.rstrip().rsplit("\n", 1)
        hit_payload, hit_loaded = hit.stdout.rstrip().rsplit("\n", 1)
        assert hit_payload == miss_payload
        assert hit_loaded == repr(loaded)

    def test_weilrep_import_leaves_enumeration_out(self, fresh_python):
        proc = fresh_python("-c", "import sys, cycletheta.weilrep\n"
                                  f"print([m for m in {NUMPY_LAYERS!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("args, loads_numpy", [
        (["weilrep", "--lattice", "A2", "--word", "ST", "--json"], False),
        (["theta", "--lattice", "A1", "--max", "3", "--json"], False),
        (["verify", "--suite", "weilrep", "--json"], False),
        (["verify", "--suite", "cup", "--json"], True),
    ], ids=["weilrep", "theta-miss", "verify", "verify-cup"])
    def test_only_enumeration_loads_numpy(self, fresh_python, tmp_path, args, loads_numpy):
        check = (
            "import sys\n"
            "from cycletheta.cli import run\n"
            "assert run(sys.argv[1:]) == 0\n"
            "print('numpy' in sys.modules)"
        )
        proc = fresh_python("-c", check, "--cache-dir", str(tmp_path), *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().rsplit("\n", 1)[-1] == str(loads_numpy)

    def test_numpy_free_commands_load_no_numpy(self, fresh_python, tmp_path):
        commands = [
            ["heegner", "--level", "1", "--residue", "1", "--disc", "23", "--json"],
            ["heegner", "--level", "1", "--residue", "1", "--disc", "23", "--json"],
            ["density", "--lattice", "E8", "--prime", "3", "--m", "2", "--json"],
            ["density", "--lattice", "E8", "--prime", "3", "--m", "2", "--json"],
            ["eisenstein", "--series", "hurwitz", "--max", "20", "--json"],
            ["lattice", "info", "--lattice", "E8", "--json"],
        ]
        code = (
            "import json, sys\n"
            "from cycletheta.cli import run\n"
            "cache = sys.argv[1]\n"
            f"codes = [run(['--cache-dir', cache] + args) for args in {commands!r}]\n"
            "print(json.dumps({'codes': codes, 'loaded': "
            f"[m for m in {LAZY_LAYERS!r} if m in sys.modules]}}))"
        )
        proc = fresh_python("-c", code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"codes": [0] * len(commands), "loaded": []}
        assert len(list(tmp_path.glob("*.json"))) == 2  # one entry per miss

    def test_theta_hit_loads_no_numpy(self, fresh_python, tmp_path):
        args = ["--cache-dir", str(tmp_path), "theta", "--lattice", "A1", "--max", "3", "--json"]
        check = (
            "import sys\n"
            "from cycletheta.cli import run\n"
            "assert run(sys.argv[1:]) == 0\n"
            "print('numpy' in sys.modules)"
        )
        miss = fresh_python("-c", check, *args)
        hit = fresh_python("-c", check, *args)
        assert (miss.returncode, hit.returncode) == (0, 0)
        miss_payload, miss_numpy = miss.stdout.rstrip().rsplit("\n", 1)
        hit_payload, hit_numpy = hit.stdout.rstrip().rsplit("\n", 1)
        assert (miss_numpy, hit_numpy) == ("False", "False")
        assert miss_payload == hit_payload

    def test_python_dash_m(self, fresh_python, tmp_path):
        proc = fresh_python("-m", "cycletheta", "heegner", "--level", "1", "--residue", "1",
                            "--disc", "23", "--json", env={"CYCLETHETA_CACHE": str(tmp_path)})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["degree"] == "3"
