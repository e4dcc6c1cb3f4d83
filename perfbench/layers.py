"""Per-layer metrics of the traced run.

One request's time is split along its span tree:

* ``client.overhead`` — the ``ServiceClient`` call minus its transport
  call (argument packing, JSON parse of the reply);
* ``http.transport`` — the transport round trip minus the server's
  ``do_POST`` (socket, kernel, Nagle/delayed-ACK waits);
* the self time of every named server layer under ``do_POST``;
* ``http.unattributed`` — whatever is left: the handler's own routing,
  parsing and bookkeeping plus any gaps.  It is printed, never folded
  into a layer.

The two sides join on the request id the server mints and echoes in
``X-Request-Id``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List

import spans as span_io
from load import percentile
from spans import Tree

OPS = ("compare", "rank", "explain", "ingest")

#: Server span name -> layer whose self time it is.
LAYER_OF = {
    "http.encode": "http.encode",
    "engine.compare": "engine.compare_self",
    "engine.explain": "engine.explain_self",
    "engine.ingest": "engine.ingest_self",
    "comparator.compare": "comparator.compare_self",
    "comparator.explain": "comparator.explain",
    "store.planes": "store.planes",
    "kernel.score": "kernel.score",
    "store.absorb": "store.absorb_self",
    "backend.append": "backend.append",
    "backend.sweep": "backend.sweep",
    "wal.append": "wal.append",
}

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
UNITS: Dict[str, str] = {
    "io.read_csv_s": "s",
    "io.read_csv_rss_mb": "MB",
    "io.infer_schema_s": "s",
    "io.encode_s": "s",
    "io.rows_encoded": "count",
    "backend.append_s": "s",
    "backend.spill_mb": "MB",
    "backend.sweep_s": "s",
    "backend.rows_scanned": "count",
    "store.precompute_s": "s",
    "store.cubes_built": "count",
    "store.planes_ms": "ms",
    "store.absorb_ms": "ms",
    "store.absorb_cubes": "count",
    "wal.append_ms": "ms",
    "wal.fsyncs": "count",
    "wal.bytes_per_row": "B/row",
    "wal.replay_s": "s",
    "kernel.score_ms": "ms",
    "comparator.compare_self_ms": "ms",
    "comparator.explain_ms": "ms",
    "engine.compare_self_ms": "ms",
    "engine.explain_self_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.ingest_self_ms": "ms",
    "engine.ingest_rejected": "count",
    **{f"http.handler_ms.{op}": "ms" for op in OPS},
    "http.encode_ms": "ms",
    **{f"http.transport_ms.{op}": "ms" for op in OPS},
    **{f"http.unattributed_ms.{op}": "ms" for op in OPS},
    "client.overhead_ms": "ms",
    "client.reconnects": "count",
    **{f"bench.trace_overhead.{op}": "ratio" for op in OPS},
    "bench.schedule_lag_ms": "ms",
    **{f"bench.layer_sum_gap.{op}": "ratio" for op in OPS},
}


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _dur(span: list) -> float:
    return span[4] - span[3]


def _totals(path, names: Iterable[str]) -> Dict[str, float]:
    """Per-boot totals: seconds per span name, and summed counts."""
    out: Dict[str, float] = defaultdict(float)
    for span in span_io.load(path):
        if span[2] in names:
            out[span[2]] += _dur(span)
            attrs = span[5] or {}
            out[span[2] + "#count"] += attrs.get("count", 0)
            out[span[2] + "#rss_kb"] += attrs.get("rss_growth_kb", 0)
    return out


def _per_boot(paths, names) -> Dict[str, float]:
    boots = [_totals(p, names) for p in paths]
    keys = {k for b in boots for k in b}
    return {k: _median(b.get(k, 0.0) for b in boots) for k in keys}


def request_parts(client_spans: List[list], server_spans: List[list],
                  window: tuple) -> Dict[str, List[Dict[str, float]]]:
    """Per op, one ``{part: seconds}`` breakdown per joined request."""
    tree = Tree(server_spans)
    handlers = {
        (s[5] or {}).get("rid"): s
        for s in server_spans
        if s[2] == "http.handler"
    }
    client_tree = Tree(client_spans)
    out: Dict[str, List[Dict[str, float]]] = defaultdict(list)
    for t in client_spans:
        if t[2] != "client.transport" or not window[0] <= t[3] <= window[1]:
            continue
        attrs = t[5] or {}
        handler = handlers.get(attrs.get("rid"))
        if handler is None:
            continue
        call = client_tree.by_id.get(t[1]) if t[1] is not None else None
        root = call if call is not None else t
        parts: Dict[str, float] = defaultdict(float)
        parts["e2e"] = _dur(root)
        parts["client.overhead"] = _dur(root) - _dur(t)
        parts["http.transport"] = _dur(t) - _dur(handler)
        parts["http.handler"] = _dur(handler)
        for node in tree.descendants(handler):
            layer = LAYER_OF.get(node[2])
            if layer is not None:
                parts[layer] += tree.self_time(node)
        named = sum(
            v for k, v in parts.items() if k not in ("e2e", "http.handler")
        )
        parts["http.unattributed"] = parts["e2e"] - named
        out[attrs.get("op")].append(parts)
    return out


def derive(untraced, traced, client_spans: List[list],
           e2e_untraced: Dict[str, float], e2e_traced: Dict[str, float]):
    """Every metric of :data:`UNITS`, plus the per-op breakdown behind
    the ``http.*`` and ``bench.layer_sum_gap`` figures."""
    m: Dict[str, float] = {name: 0.0 for name in UNITS}
    setup = _per_boot(traced.setup_spans, {
        "io.read_csv", "io.infer_schema", "io.encode", "backend.append",
        "store.precompute",
    })
    m["io.read_csv_s"] = setup.get("io.read_csv", 0.0)
    m["io.read_csv_rss_mb"] = setup.get("io.read_csv#rss_kb", 0.0) / 1024
    m["io.infer_schema_s"] = setup.get("io.infer_schema", 0.0)
    m["io.encode_s"] = setup.get("io.encode", 0.0)
    m["io.rows_encoded"] = setup.get("io.encode#count", 0.0)
    m["backend.append_s"] = setup.get("backend.append", 0.0)
    m["store.precompute_s"] = setup.get("store.precompute", 0.0)
    m["store.cubes_built"] = setup.get("store.precompute#count", 0.0)
    restart = _per_boot(traced.restart_spans, {"backend.sweep", "wal.replay"})
    m["backend.sweep_s"] = restart.get("backend.sweep", 0.0)
    m["wal.replay_s"] = restart.get("wal.replay", 0.0)

    counters = traced.counters
    m["backend.spill_mb"] = counters.get("spill_bytes", 0.0) / 2**20
    m["backend.rows_scanned"] = counters.get("rows_scanned", 0.0)
    m["wal.fsyncs"] = counters.get("wal_fsyncs", 0.0)
    if counters.get("acked_rows"):
        m["wal.bytes_per_row"] = counters.get("wal_bytes", 0.0) / counters["acked_rows"]
    lookups = counters.get("cache_hits", 0.0) + counters.get("cache_misses", 0.0)
    if lookups:
        m["engine.cache_hit_ratio"] = counters["cache_hits"] / lookups
    m["engine.ingest_rejected"] = counters.get("ingest_rejected", 0.0)

    phases = traced.phases()
    ops = [o for p in phases for o in p.ops]
    m["client.reconnects"] = float(sum(o.reconnects for o in ops))
    window = (min(p.start for p in phases), max([o.end for o in ops] or [0.0]))
    server_spans = span_io.load(traced.live_spans)
    in_window = [s for s in server_spans if window[0] <= s[3] <= window[1]]
    tree = Tree(server_spans)

    def per_call(name: str, self_time: bool = False) -> float:
        return _ms(_median(
            tree.self_time(s) if self_time else _dur(s)
            for s in in_window if s[2] == name
        ))

    m["store.planes_ms"] = per_call("store.planes")
    m["kernel.score_ms"] = per_call("kernel.score")
    m["comparator.compare_self_ms"] = per_call("comparator.compare", True)
    m["comparator.explain_ms"] = per_call("comparator.explain")
    m["engine.compare_self_ms"] = per_call("engine.compare", True)
    m["engine.explain_self_ms"] = per_call("engine.explain", True)
    m["engine.ingest_self_ms"] = per_call("engine.ingest", True)
    m["store.absorb_ms"] = per_call("store.absorb")
    m["store.absorb_cubes"] = _median(
        (s[5] or {}).get("count", 0) for s in in_window if s[2] == "store.absorb"
    )
    m["wal.append_ms"] = per_call("wal.append")

    parts = request_parts(client_spans, server_spans, window)
    overhead = [p["client.overhead"] for op in ("compare", "rank", "explain")
                for p in parts.get(op, [])]
    m["client.overhead_ms"] = _ms(_median(overhead))
    m["http.encode_ms"] = _ms(_median(p["http.encode"] for p in parts.get("rank", [])))
    breakdown = {}
    for op in OPS:
        rows = parts.get(op, [])
        m[f"http.handler_ms.{op}"] = _ms(_median(p["http.handler"] for p in rows))
        m[f"http.transport_ms.{op}"] = _ms(_median(p["http.transport"] for p in rows))
        m[f"http.unattributed_ms.{op}"] = _ms(_median(p["http.unattributed"] for p in rows))
        layers = sorted({k for p in rows for k in p} - {"e2e", "http.handler"})
        medians = {k: _ms(_median(p.get(k, 0.0) for p in rows)) for k in layers}
        total = _ms(_median(p["e2e"] for p in rows))
        if total:
            m[f"bench.layer_sum_gap.{op}"] = abs(sum(medians.values()) - total) / total
        breakdown[op] = {"requests": len(rows), "e2e_p50_ms": total, "p50_ms": medians}
        if e2e_untraced.get(op):
            m[f"bench.trace_overhead.{op}"] = e2e_traced[op] / e2e_untraced[op]
    lags = [_ms(o.start - o.due) for o in untraced.ingest_phase.ops if o.kind == "ingest"]
    if lags:
        m["bench.schedule_lag_ms"] = percentile(lags, 90)
    return m, breakdown
