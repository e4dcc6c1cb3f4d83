"""Run one benchmark workload against real ``repro serve`` processes.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Prints a report line (environment stamp, per-operation counts, the
check results) and, as its last line, the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns the
workload with layer timers and reports the per-layer metrics instead.
The exit status is 0 only when every operation succeeded and every
served answer matched the oracle.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

ROOT = Path(__file__).resolve().parent.parent
#: Whole-run ceiling: a run must end within 180 s, servers stopped.
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "restart_s": "s",
    "peak_rss_mb": "MB",
    "compare_p50_ms": "ms",
    "compare_p90_ms": "ms",
    "rank_p50_ms": "ms",
    "explain_p50_ms": "ms",
    "read_rps": "1/s",
    "ingest_p50_ms": "ms",
}
#: Measured and printed in the report line, but not gated: this tail did
#: not repeat within a tenth across ten seeds (IQR/median up to 0.15).
UNGATED_UNITS = {"ingest_p90_ms": "ms"}
READ_KINDS = ("compare", "rank", "explain")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(run, percentile) -> dict:
    reads, ingest = run.read_phase, run.ingest_phase

    def latencies(phase, kind, since_due=False):
        return [
            _ms(o.end - (o.due if since_due else o.start)) if o.error is None else math.inf
            for o in phase.ops
            if o.kind == kind
        ]

    deadline = reads.start + reads.seconds
    served = sum(
        1 for o in reads.ops
        if o.kind in READ_KINDS and o.error is None and o.end <= deadline
    )
    compare = latencies(reads, "compare")
    ingested = latencies(ingest, "ingest", since_due=True)
    return {
        "setup_s": statistics.median(run.setups),
        "restart_s": statistics.median(run.restarts),
        "peak_rss_mb": run.peak_kb / 1024,
        "compare_p50_ms": percentile(compare, 50),
        "compare_p90_ms": percentile(compare, 90),
        "rank_p50_ms": percentile(latencies(reads, "rank"), 50),
        "explain_p50_ms": percentile(latencies(reads, "explain"), 50),
        "read_rps": served / reads.seconds,
        "ingest_p50_ms": percentile(ingested, 50),
        "ingest_p90_ms": percentile(ingested, 90),
    }


def op_counts(run) -> dict:
    """attempted / succeeded / failed per phase and operation type."""
    counts = {}
    phases = run.phases()
    labels = ["mixed"] if len(phases) == 1 else ["read", "ingest"]
    for label, phase in zip(labels, phases):
        for o in phase.ops:
            row = counts.setdefault(
                f"{label}.{o.kind}", {"attempted": 0, "succeeded": 0, "failed": 0}
            )
            row["attempted"] += 1
            row["succeeded" if o.error is None else "failed"] += 1
    for label, n in run.check_ops.items():
        counts[f"check.{label}"] = {"attempted": n}
    return counts


def environment(spec, seed: int, seconds: int, inputs_obj, checksums) -> dict:
    import numpy
    from workloads import BOOTS

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            commit = None
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": sha.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "sizes": {
            "rows": spec.rows,
            "attributes": spec.attributes,
            "backend": spec.backend,
            "wal": spec.wal,
            "readers": spec.readers or spec.ingest_readers,
            "ingest_rate_per_s": spec.ingest_rate,
            "batch_rows": spec.batch_rows,
            "batches_generated": len(inputs_obj.bodies),
            "boots": BOOTS,
            "restarts": spec.restarts,
        },
        "input_sha256": checksums,
    }


def trace_client(recorder) -> None:
    """Client-side spans: the ``ServiceClient`` call and its transport."""
    from repro.service.client import KeepAliveTransport, ServiceClient

    for op in READ_KINDS:
        recorder.patch(ServiceClient, op, "client.call")

    def attrs(args, kwargs, result):
        headers = result[1]
        rid = next((v for k, v in headers.items() if k.lower() == "x-request-id"), None)
        return {"op": urlsplit(args[2]).path.strip("/"), "rid": rid}

    recorder.patch(KeepAliveTransport, "__call__", "client.transport", attrs)


def _finite(metrics: dict) -> dict:
    return {k: (v if isinstance(v, (int, float)) and math.isfinite(v) else None)
            for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import layers
    import load
    import spans
    from server import Server
    from workloads import WORKLOADS, execute

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if nproc < spec.connections:
        print(json.dumps({"flag": "too few cores", "nproc": nproc,
                          "client_connections": spec.connections}))
        print(f"perfbench: {nproc} core(s) < {spec.connections} client "
              "connections; refusing to report numbers", file=sys.stderr)
        return 3

    def _timeout(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    batches = inputs.batches_for(spec.ingest_rate, args.seconds)
    data = inputs.prepare(
        ROOT, spec, args.seed, batches, max(spec.readers, spec.ingest_readers)
    )
    run_root = ROOT / ".perfbench_run" / f"{spec.name}-seed{args.seed}-{os.getpid()}"
    run_root.mkdir(parents=True)
    load.count_connections()
    try:
        warm_marker = ROOT / ".perfbench_cache" / "warmed"
        if not warm_marker.exists():
            # The first boot after a checkout pays cold page-cache costs.
            warm = Server(ROOT, [str(data.csv), "--class-attribute",
                                 inputs.CLASS_ATTRIBUTE], run_root / "warm.log")
            warm.start()
            warm.stop()
            warm_marker.touch()
        (run_root / "untraced").mkdir()
        untraced = execute(ROOT, spec, data, args.seconds, run_root / "untraced", False)
        e2e = end_to_end(untraced, load.percentile)
        runs = [untraced]
        measured = _finite(e2e)
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        ungated = {k: {"value": measured[k], "unit": u} for k, u in UNGATED_UNITS.items()}
        breakdown = None
        if args.trace:
            recorder = spans.Recorder()
            trace_client(recorder)
            (run_root / "traced").mkdir()
            traced = execute(ROOT, spec, data, args.seconds, run_root / "traced", True)
            runs.append(traced)
            e2e_traced = end_to_end(traced, load.percentile)
            keyed = {
                "compare": "compare_p50_ms", "rank": "rank_p50_ms",
                "explain": "explain_p50_ms", "ingest": "ingest_p50_ms",
            }
            values, breakdown = layers.derive(
                untraced, traced, recorder.spans,
                {op: e2e[k] for op, k in keyed.items()},
                {op: e2e_traced[k] for op, k in keyed.items()},
            )
            metrics = {k: {"value": v, "unit": layers.UNITS[k]}
                       for k, v in _finite(values).items()}
    finally:
        signal.alarm(0)
        shutil.rmtree(run_root, ignore_errors=True)

    problems = [p for r in runs for p in r.problems]
    # A phase that recorded nothing (say, a load thread that died before
    # its first request) leaves NaN behind rather than a failed operation.
    values = {**{k: v["value"] for k, v in metrics.items()}, **e2e}
    unmeasured = sorted(k for k, v in values.items() if v is None or math.isnan(v))
    if unmeasured:
        problems.append(f"no measurement for {', '.join(unmeasured)}")
    ops = [o for r in runs for phase in r.phases() for o in phase.ops]
    failed = sum(1 for o in ops if o.error is not None)
    attempted = len(ops) + sum(n for r in runs for n in r.check_ops.values())
    errors = sorted({o.error for o in ops if o.error is not None})
    report = {
        "environment": environment(spec, args.seed, args.seconds, data, inputs.checksums(data)),
        "operations": [op_counts(r) for r in runs],
        "setups_s": [r.setups for r in runs],
        "restarts_s": [r.restarts for r in runs],
        "check_problems": problems[:20],
        "errors": errors[:20],
        "ungated": ungated,
        "breakdown_ms": breakdown,
    }
    print("perfbench report " + json.dumps(report))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
