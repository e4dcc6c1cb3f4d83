"""The three workloads and the lifecycle every one of them runs.

Each run boots the server several times from the CSV (``setup_s`` is
the median), drives it through its timed phases, checks the served
answers, restarts it over the state the first server left, and checks
again.  Every workload exercises compare, rank, explain and ingest, so
every end-to-end metric is measured on every workload; the workloads
differ in which layer dominates (see README.md for why each exists).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import load
import oracle
from inputs import CLASS_ATTRIBUTE, Inputs
from repro.service.client import RetryPolicy, ServiceClient
from server import Server


#: Setups per run; ``setup_s`` is their median.
BOOTS = 3


@dataclass(frozen=True)
class Spec:
    name: str
    rows: int
    noise_attributes: int  # condition attributes = 8 domain ones + these
    backend: str  # memory | spill
    wal: bool
    readers: int  # closed-loop connections of the read-only phase; 0 = none
    ingest_rate: float  # open-loop /ingest batches per second
    batch_rows: int
    ingest_readers: int  # closed-loop readers alongside the ingester
    restarts: int  # restarts per run; restart_s is their median

    @property
    def attributes(self) -> int:
        return 8 + self.noise_attributes

    @property
    def connections(self) -> int:
        return max(self.readers, self.ingest_readers + 1)


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("interactive", 20_000, 152, "memory", False, 2, 1.0, 100, 0, 3),
        Spec("bulk_load", 200_000, 40, "spill", False, 0, 3.0, 500, 1, 3),
        Spec("live_ingest", 200_000, 32, "memory", True, 0, 8.0, 500, 1, 2),
    )
}


@dataclass
class Run:
    """Raw observations of one pass; metrics are derived from these."""

    setups: List[float] = field(default_factory=list)
    restarts: List[float] = field(default_factory=list)
    peak_kb: int = 0
    read_phase: Optional[load.PhaseResult] = None
    ingest_phase: Optional[load.PhaseResult] = None
    check_ops: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    setup_spans: List[Path] = field(default_factory=list)
    live_spans: Optional[Path] = None
    restart_spans: List[Path] = field(default_factory=list)

    def phases(self) -> List[load.PhaseResult]:
        """The timed phases, each once (one phase may serve both roles)."""
        if self.read_phase is self.ingest_phase:
            return [self.ingest_phase]
        return [p for p in (self.read_phase, self.ingest_phase) if p is not None]


def _serve_args(spec: Spec, inputs: Inputs, work: Path, restart: bool) -> List[str]:
    csv = [] if restart and spec.backend == "spill" else [
        str(inputs.csv), "--class-attribute", CLASS_ATTRIBUTE
    ]
    if spec.backend == "spill":
        return csv + ["--backend", "spill", "--data-dir", str(work / "data")]
    if spec.wal:
        return csv + ["--wal-dir", str(work / "wal"), "--wal-fsync", "batch"]
    return csv


def _size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _expected(inputs: Inputs, batches: int):
    """Oracle answers after ``batches`` acknowledged batches, cached."""
    path = inputs.directory / f"expected-b{batches}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        pass  # not computed yet, or a half-written file from a killed run
    answers = oracle.expected(inputs.rows_after(batches), inputs.check_keys)
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(answers))
    partial.replace(path)
    return answers


def _check(run: Run, server: Server, inputs: Inputs, batches: int, label: str) -> None:
    answers = _expected(inputs, batches)
    client = ServiceClient(
        server.url, policy=RetryPolicy(max_attempts=1), budget_ms=load.BUDGET_MS
    )
    try:
        problems = oracle.check(client, inputs.check_keys, answers)
    except Exception as exc:  # a failed check request fails the run
        problems = [f"{label}: check request failed: {type(exc).__name__}: {exc}"]
    finally:
        client.close()
    run.check_ops[label] = 3 * len(inputs.check_keys)
    run.problems.extend(f"{label}: {p}" for p in problems)


def execute(root: Path, spec: Spec, inputs: Inputs, seconds: float,
            run_dir: Path, traced: bool) -> Run:
    """One full pass of the workload; servers are stopped on return."""
    run = Run()
    log = run_dir / "server.log"
    servers: List[Server] = []

    def boot(index: int, restart: bool, work: Path) -> Server:
        spans = run_dir / f"spans-{'r' if restart else 's'}{index}.jsonl" if traced else None
        server = Server(root, _serve_args(spec, inputs, work, restart), log, spans)
        servers.append(server)
        elapsed = server.start()
        (run.restarts if restart else run.setups).append(elapsed)
        if spans is not None:
            (run.restart_spans if restart else run.setup_spans).append(spans)
        return server

    try:
        for i in range(BOOTS):
            work = run_dir / f"boot{i}"
            work.mkdir()
            server = boot(i, False, work)
            if i < BOOTS - 1:
                server.stop()
            else:
                live = server
        if spec.backend == "spill":
            run.counters["spill_bytes"] = _size(work / "data")
        if traced:
            run.live_spans = run.setup_spans[-1]
        streams = inputs.streams
        reads_start = live.metrics()
        if spec.readers:
            run.read_phase = load.run_phase(
                live.url, streams[: spec.readers], [], 0.0, seconds, spec.batch_rows
            )
        ingest_start = live.metrics()
        run.ingest_phase = load.run_phase(
            live.url,
            streams[: spec.ingest_readers],
            inputs.bodies,
            spec.ingest_rate,
            seconds,
            spec.batch_rows,
        )
        end = live.metrics()
        reads_end = ingest_start if spec.readers else end
        if not spec.readers:
            run.read_phase = run.ingest_phase
        run.counters.update(
            cache_hits=_delta(reads_end, reads_start, "repro_cache_hits_total"),
            cache_misses=_delta(reads_end, reads_start, "repro_cache_misses_total"),
            wal_fsyncs=_delta(end, ingest_start, "repro_wal_fsyncs_total"),
            ingest_rejected=_delta(end, ingest_start, "repro_ingest_rejections_total"),
        )
        acked = run.ingest_phase.acked_batches
        if run.ingest_phase.bad_acks:
            run.problems.append(
                f"{run.ingest_phase.bad_acks} ingest acks reported a wrong row count"
            )
        if spec.wal:
            run.counters["wal_bytes"] = _size(work / "wal")
        run.counters["acked_rows"] = acked * spec.batch_rows
        _check(run, live, inputs, acked, "after-load")
        live.stop()
        durable = spec.wal or spec.backend == "spill"
        for j in range(spec.restarts):
            server = boot(j, True, work)
            if spec.backend == "spill":
                run.counters["rows_scanned"] = server.metrics().get(
                    "repro_backend_rows_scanned_total", 0.0)
            if j == spec.restarts - 1:
                _check(run, server, inputs, acked if durable else 0, "after-restart")
            server.stop()
    finally:
        for server in servers:
            try:
                server.stop()
            except RuntimeError as exc:
                run.problems.append(str(exc))
            run.peak_kb = max(run.peak_kb, server.peak_kb)
    return run
