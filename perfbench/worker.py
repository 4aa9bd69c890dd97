"""Long-lived algebra_mix worker: one JSON query per stdin line, one reply per
stdout line.

    python3 perfbench/worker.py [--trace FILE]

It prints ``{"ready": true}`` once cycletheta is imported.  A query is
``{"op": [kind, args], "repeat": bool}``; the reply is ``{"ok": true,
"digest": ..., "check": {...}}`` or ``{"ok": false, "error": ...}``.  The line
``{"exit": true}`` makes it report its peak RSS, write the trace if asked, and
stop.  Traced, every query runs inside an ``op.<kind>`` span tagged with its
input size.
"""

import json
import resource
import sys

import workloads


def main(argv: list[str]) -> int:
    trace_path = argv[1] if argv[:1] == ["--trace"] else None
    import cycletheta  # noqa: F401

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            if tracer is not None:
                tracer.dump(trace_path)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out.write(json.dumps({"maxrss_kb": rss_kb}) + "\n")
            out.flush()
            return 0
        op = msg["op"]
        try:
            if tracer is None:
                payload, check, _ = workloads.run_algebra_op(op)
            else:
                tag = {"repeat": msg["repeat"]}
                with tracer.span(f"op.{op[0]}", tag):
                    payload, check, size = workloads.run_algebra_op(op)
                    tag.update(size)
            reply = {"ok": True, "digest": workloads.digest(payload), "check": check}
        except Exception as exc:  # reported to the client as a failed query
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
