"""cycletheta benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload {verify_all,algebra_mix,cli_cache}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.  All
workloads are closed loops with one client that waits for each reply, and
at most one cycletheta process runs at a time.

With ``--trace 0`` it runs passes of the workload until ``--seconds`` would be
exceeded (at least one pass) and reports the end-to-end metrics.  With
``--trace 1`` it runs pass 0 untraced and then the same pass traced, and
reports the per-layer metrics (see ``analyze.py``).  Every output is checked
(see ``workloads.py``); the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import analyze
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
# A run must end within 180 s: every process is killed by this deadline, and
# no pass starts unless one as long as the longest so far would end before it.
RUN_DEADLINE_S = 165.0
OP_TIMEOUT_S = 120.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


@dataclass
class Op:
    seconds: float
    cache: str | None = None  # "hit" / "miss" for cacheable queries


@dataclass
class PassResult:
    wall: float
    ops: list[Op]
    rss_kb: list[int]
    failures: list[str]
    attempted: int
    # Disk-cache role ("hit", "miss" or None) of each cycletheta process, in
    # the order they ran; a traced pass writes one trace group per process.
    process_labels: list = field(default_factory=list)
    cache_bytes: int = 0  # size of the cache entries the pass wrote


class Context:
    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.env = {**os.environ,
                    "PYTHONPATH": str(root / "src"),
                    "CYCLETHETA_CACHE": str(work / "default-cache"),
                    "XDG_CACHE_HOME": str(work / "xdg-cache")}
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.deadline - time.perf_counter()))


def run_cold(ctx: Context, argv: list[str], out_path: Path) -> tuple[int, float, int, bytes]:
    """Run one process to completion; return (exit code, seconds, peak RSS kB,
    stdout).  Output goes to a file, so no pipe can fill while we wait."""
    timeout = ctx.timeout()
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss, out_path.read_bytes()


def launcher(trace: Path | None, args) -> list[str]:
    cmd = [sys.executable, str(HERE / "launch.py")]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    return cmd + ["--", *args]


def start_cli(ctx: Context) -> None:
    """Start a cold process that only imports the CLI (the set-up step)."""
    code, _, _, _ = run_cold(ctx, launcher(None, []), ctx.work / "setup.out")
    if code != 0:
        raise RuntimeError("cannot import cycletheta.cli")


class VerifyAll:
    """One cold `cycletheta verify --suite all --json` per pass (seed unused)."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        start_cli(self.ctx)

    def run_pass(self, k: int, trace: Path | None) -> PassResult:
        out = self.ctx.work / f"verify-{k}.out"
        code, seconds, rss, stdout = run_cold(self.ctx, launcher(trace, workloads.VERIFY_ARGS), out)
        why = workloads.check_verify_output(code, stdout)
        return PassResult(wall=seconds, ops=[Op(seconds)], rss_kb=[rss],
                          failures=[why] if why else [], attempted=1, process_labels=[None])


class CliCache:
    """Cold `cycletheta` commands against a fresh --cache-dir per pass."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        workloads.cli_commands(self.ctx.seed, 0)
        start_cli(self.ctx)

    def run_pass(self, k: int, trace: Path | None) -> PassResult:
        cache = self.ctx.work / f"cache-{k}-{'traced' if trace else 'plain'}"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        ops, rss, failures, labels, miss_stdout = [], [], [], [], {}
        out = self.ctx.work / "cli.out"
        t0 = time.perf_counter()
        for cmd in workloads.cli_commands(self.ctx.seed, k):
            before = set(os.listdir(cache))
            argv = launcher(trace, ["--cache-dir", str(cache), *cmd["args"]])
            code, seconds, peak, stdout = run_cold(self.ctx, argv, out)
            wrote = any(f.endswith(".json") for f in set(os.listdir(cache)) - before)
            role = None if cmd["cache"] is None else ("miss" if wrote else "hit")
            ops.append(Op(seconds, role))
            rss.append(peak)
            labels.append(role)
            why = workloads.check_cli_result(cmd, code, stdout, wrote, miss_stdout)
            if why:
                failures.append(why)
        wall = time.perf_counter() - t0
        size = sum(f.stat().st_size for f in cache.iterdir() if f.suffix == ".json")
        return PassResult(wall=wall, ops=ops, rss_kb=rss, failures=failures,
                          attempted=len(ops), process_labels=labels, cache_bytes=size)


class AlgebraMix:
    """A seeded query stream through one long-lived worker process per pass."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.expected = workloads.load_expected()

    def _start(self, trace: Path | None) -> subprocess.Popen:
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=self.ctx.env, cwd=self.ctx.root, text=True)
        if not self._reply(proc).get("ready"):
            _stop(proc)
            raise RuntimeError("algebra_mix worker did not start")
        return proc

    def _reply(self, proc: subprocess.Popen) -> dict:
        ready, _, _ = select.select([proc.stdout], [], [], self.ctx.timeout())
        line = proc.stdout.readline() if ready else ""
        return json.loads(line) if line else {}

    def setup(self) -> None:
        workloads.algebra_stream(self.ctx.seed, 0)
        proc = self._start(None)
        self._finish(proc)

    def _finish(self, proc: subprocess.Popen) -> int:
        """Ask the worker to exit; return its peak RSS in kB (0 if it died)."""
        try:
            proc.stdin.write(json.dumps({"exit": True}) + "\n")
            proc.stdin.flush()
            rss = self._reply(proc).get("maxrss_kb", 0)
        except BrokenPipeError:
            rss = 0
        _stop(proc)
        return rss

    def run_pass(self, k: int, trace: Path | None) -> PassResult:
        stream = workloads.algebra_stream(self.ctx.seed, k)
        proc = self._start(trace)
        ops, replies = [], []
        try:
            t0 = time.perf_counter()
            for item in stream:
                t = time.perf_counter()
                try:
                    proc.stdin.write(json.dumps(item) + "\n")
                    proc.stdin.flush()
                    reply = self._reply(proc)
                except BrokenPipeError:
                    reply = {}
                seconds = time.perf_counter() - t
                if not reply:
                    replies.append({"ok": False, "error": "no reply (timeout or crash)"})
                    break
                cacheable = item["op"][0] in workloads.CACHED_KINDS
                ops.append(Op(seconds, ("hit" if item["repeat"] else "miss") if cacheable else None))
                replies.append(reply)
            wall = time.perf_counter() - t0
            rss = self._finish(proc)
        finally:
            _stop(proc)
        from cycletheta.eisenstein import hurwitz  # the independent side of deg Z(d) = H(d)

        failures, first = [], {}
        for item, reply in zip(stream, replies):
            why = workloads.check_algebra_reply(item, reply, self.expected, first, hurwitz)
            if why:
                failures.append(why)
        failures += ["query not run"] * (len(stream) - len(replies))
        return PassResult(wall=wall, ops=ops, rss_kb=[rss], failures=failures,
                          attempted=len(stream), process_labels=[None])


def _stop(proc: subprocess.Popen) -> None:
    """Make sure a worker has ended before we go on."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()


WORKLOADS = {"verify_all": VerifyAll, "algebra_mix": AlgebraMix, "cli_cache": CliCache}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[float], passes: list[PassResult]) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    lat = [op.seconds for p in passes for op in p.ops]
    rss = [kb for p in passes for kb in p.rss_kb]
    walls = [p.wall for p in passes]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "ops_per_s": (len(lat) / sum(walls), len(lat)),
        "op_p50_ms": (percentile(lat, 50) * 1e3, len(lat)),
        "op_p90_ms": (percentile(lat, 90) * 1e3, len(lat)),
        "peak_rss_mb": (max(rss) / 1024, len(rss)),
    }


def environment(ctx: Context) -> dict:
    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ctx.root, capture_output=True, text=True,
                                 timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(git("status", "--porcelain"))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "git_sha": sha, "git_dirty": dirty, "seed": ctx.seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def measure(name: str, ctx: Context, seconds: float, trace: bool) -> tuple[dict, list[PassResult]]:
    wl = WORKLOADS[name](ctx)
    setup = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t)
    if trace:
        plain = wl.run_pass(0, None)
        trace_file = ctx.work / "trace.jsonl"
        traced = wl.run_pass(0, trace_file)
        groups = analyze.read_trace(trace_file)
        if len(groups) != len(traced.process_labels):
            traced.failures.append(f"trace holds {len(groups)} processes, "
                                   f"expected {len(traced.process_labels)}")
        layer = analyze.per_layer(groups, traced, plain)
        metrics = {n: (layer[n], 1) for n, _ in analyze.PER_LAYER}
        return metrics, [plain, traced]
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(len(passes), None))
        now = time.perf_counter()
        longest = max(p.wall for p in passes)
        if (now - t0 + longest > seconds or passes[-1].failures
                or now + longest > ctx.deadline - 10.0):
            break
    return end_to_end(setup, passes), passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cycletheta" / "__init__.py").is_file():
        print(f"error: {root} holds no src/cycletheta; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root, work, args.seed)
    try:
        metrics, passes = measure(args.workload, ctx, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    units = dict(analyze.PER_LAYER if args.trace else END_TO_END)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  passes {len(passes)}")
    for why in failures[:20]:
        print(f"  FAILED: {why}")
    for name, (value, n) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:8s} n={n}")
    print(f"  {'fail_ratio':40s} {len(failures) / attempted:14.6g} {'':8s} "
          f"failed={len(failures)} attempted={attempted}")
    print("env " + json.dumps(environment(ctx), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
