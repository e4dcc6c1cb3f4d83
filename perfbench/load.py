"""The load generator: closed-loop readers and one open-loop ingester.

Every request goes through the program's default client transport
(:class:`repro.service.client.KeepAliveTransport`), one keep-alive
connection per thread.  Readers use ``ServiceClient`` with
``RetryPolicy(max_attempts=1)``, so a 429, 503, timeout or dropped
connection is one failed operation, never a silent retry.  The
transport itself re-dials once when a reused connection fails; any
operation during which its thread opened a second connection is
therefore counted as failed too (and as a reconnect).

The ingester posts pre-serialised bodies through the same transport,
because ``ServiceClient.ingest`` would JSON-encode the batch inside the
timed call.

Inside a timed interval the loops only send and receive; results are
appended to a list and judged after the phase.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from typing import List, NamedTuple, Optional, Sequence

from repro.service.client import KeepAliveTransport, RetryPolicy, ServiceClient

#: Per-request ceiling; a request this slow is a failed operation.
BUDGET_MS = 30_000.0
#: Every fourth step of a reader is a full ``/rank``.
RANK_EVERY = 4
#: ``/compare`` truncates its ranking to this many attributes.
TOP = 10

_connects = threading.local()


def count_connections() -> None:
    """Count ``HTTPConnection.connect`` calls per thread (reconnects)."""
    original = http.client.HTTPConnection.connect

    def connect(self):
        _connects.n = getattr(_connects, "n", 0) + 1
        return original(self)

    http.client.HTTPConnection.connect = connect


def connections() -> int:
    return getattr(_connects, "n", 0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; a failed op counts as +inf."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if rank > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Op(NamedTuple):
    kind: str  # compare | rank | explain | ingest
    due: float  # scheduled send time (open loop) or start (closed loop)
    start: float
    end: float
    error: Optional[str]
    reconnects: int


def _timed(kind: str, ops: List[Op], call, *args, **kwargs):
    """Time one read; the connection was opened before the phase, so
    any connect during the call is a reconnect."""
    before = connections()
    start = time.perf_counter()
    try:
        body, error = call(*args, **kwargs), None
    except Exception as exc:  # every failure is one failed operation
        body, error = None, f"{type(exc).__name__}: {exc}"[:200]
    end = time.perf_counter()
    reconnects = connections() - before
    if reconnects and error is None:
        body, error = None, "reconnect"
    ops.append(Op(kind, start, start, end, error, reconnects))
    return body


def read_loop(url: str, keys: Sequence[tuple], start: float, deadline: float,
              ops: List[Op]) -> None:
    """Closed loop: compare (or rank), then explain one of its top 3."""
    client = ServiceClient(
        url, policy=RetryPolicy(max_attempts=1), budget_ms=BUDGET_MS
    )
    try:
        client.health()  # open the keep-alive connection outside timing
        time.sleep(max(0.0, start - time.perf_counter()))
        for step, (pivot, a, b, target, measure) in enumerate(keys):
            if time.perf_counter() >= deadline:
                break
            if step % RANK_EVERY == RANK_EVERY - 1:
                kind, field, call, extra = "rank", "ranking", client.rank, {}
            else:
                kind, field, call, extra = "compare", "ranked", client.compare, {"top": TOP}
            body = _timed(kind, ops, call, pivot, a, b, target, measure=measure, **extra)
            leaders = body[field][:3] if body else []
            if leaders:
                attribute = leaders[step % len(leaders)]["attribute"]
                _timed("explain", ops, client.explain, pivot, a, b, target,
                       attribute, measure=measure)
    finally:
        client.close()


def ingest_loop(url: str, bodies: Sequence[bytes], rate: float, start: float,
                deadline: float, ops: List[Op], acks: List[bytes]) -> None:
    """Open loop: batch ``k`` is due at ``start + k / rate``."""
    transport = KeepAliveTransport()
    endpoint = url + "/ingest"
    try:
        transport("GET", url + "/healthz", None, BUDGET_MS / 1000)
        for k, body in enumerate(bodies):
            due = start + k / rate
            if due >= deadline:
                break
            time.sleep(max(0.0, due - time.perf_counter()))
            before = connections()
            sent = time.perf_counter()
            try:
                status, _, raw = transport("POST", endpoint, body, BUDGET_MS / 1000)
                error = None if status == 200 else f"HTTP {status}"
            except OSError as exc:
                raw, error = b"", f"{type(exc).__name__}: {exc}"[:200]
            end = time.perf_counter()
            reconnects = connections() - before
            if reconnects and error is None:
                error = "reconnect"
            ops.append(Op("ingest", due, sent, end, error, reconnects))
            acks.append(raw if error is None else b"")
    finally:
        transport.close()


class PhaseResult(NamedTuple):
    start: float
    seconds: float
    ops: List[Op]
    acked_batches: int
    bad_acks: int


def run_phase(url: str, streams: Sequence[Sequence[tuple]], bodies: Sequence[bytes],
              rate: float, seconds: float, batch_rows: int) -> PhaseResult:
    """Run readers (one per stream) and, when ``rate`` > 0, the ingester."""
    start = time.perf_counter() + 0.05
    deadline = start + seconds
    ops_lists: List[List[Op]] = []
    acks: List[bytes] = []
    threads = []
    for keys in streams:
        ops_lists.append([])
        threads.append(threading.Thread(
            target=read_loop, args=(url, keys, start, deadline, ops_lists[-1]),
            daemon=True,
        ))
    if rate > 0:
        ops_lists.append([])
        threads.append(threading.Thread(
            target=ingest_loop,
            args=(url, bodies, rate, start, deadline, ops_lists[-1], acks),
            daemon=True,
        ))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    acked = 0
    bad = 0
    for raw in acks:
        if not raw:
            break  # batches after a failure cannot be assumed applied
        if json.loads(raw).get("records") != batch_rows:
            bad += 1
        acked += 1
    return PhaseResult(start, seconds, [o for ops in ops_lists for o in ops], acked, bad)
