"""Start ``repro serve`` with the traced run's layer timers installed.

    python3 perfbench/launcher.py SPANS_FILE serve <repro serve args...>

Before handing the arguments to ``repro.cli.main`` unchanged, this
wraps the public functions of each layer (table in README.md) with
:class:`spans.Recorder` timers.  When the server drains on SIGTERM and
``main`` returns, the spans are written to ``SPANS_FILE`` as JSON lines.
No program file is modified; the wrappers live in this process only.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (sibling module; needs the path above)


def hwm_kb() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _count(args, kwargs, result):
    return {"count": int(result)}


def install(recorder: spans.Recorder) -> None:
    import repro.cli as cli
    import repro.core.comparator as comparator_module
    import repro.cube.wal as wal
    import repro.dataset.io as io
    import repro.service.http as http
    from repro.core.comparator import Comparator
    from repro.cube.backend import SpillBackend
    from repro.cube.store import CubeStore
    from repro.service.engine import ComparisonEngine

    before = {}
    timed_read = recorder.timed(
        cli.read_csv,
        "io.read_csv",
        lambda a, k, r: {"rss_growth_kb": hwm_kb() - before["kb"]},
    )

    def read_csv(*args, **kwargs):
        before["kb"] = hwm_kb()
        return timed_read(*args, **kwargs)

    cli.read_csv = read_csv
    recorder.patch(io, "infer_schema", "io.infer_schema")
    io.iter_csv_chunks = recorder.timed_steps(
        io.iter_csv_chunks, "io.encode", lambda chunk: chunk.n_rows
    )
    recorder.patch(SpillBackend, "append", "backend.append")
    recorder.patch(SpillBackend, "sweep", "backend.sweep")
    recorder.patch(CubeStore, "precompute", "store.precompute", _count)
    recorder.patch(CubeStore, "planes", "store.planes")
    recorder.patch(CubeStore, "absorb", "store.absorb", _count)
    recorder.patch(wal.WriteAheadLog, "append", "wal.append")
    recorder.patch(wal, "replay_into", "wal.replay")
    recorder.patch(comparator_module, "score_planes", "kernel.score")
    recorder.patch(Comparator, "compare", "comparator.compare")
    recorder.patch(Comparator, "explain_result", "comparator.explain")
    recorder.patch(ComparisonEngine, "compare", "engine.compare")
    recorder.patch(ComparisonEngine, "explain", "engine.explain")
    recorder.patch(ComparisonEngine, "ingest", "engine.ingest")
    recorder.patch(http, "dumps_sanitized", "http.encode")
    recorder.patch(
        http._Handler,
        "do_POST",
        "http.handler",
        lambda a, k, r: {
            "rid": getattr(a[0], "_request_id", None),
            "path": a[0].path,
        },
    )
    spans.propagate_into_pools()


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    recorder = spans.Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
