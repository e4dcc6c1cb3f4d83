"""One ``repro serve`` process: spawn, wait for health, read, stop."""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Longest a boot may take before the run is abandoned.
BOOT_TIMEOUT_S = 150.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _get(port: int, path: str, timeout: float = 5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A served store.  ``spans`` switches to the traced launcher."""

    def __init__(
        self,
        root: Path,
        serve_args: List[str],
        log: Path,
        spans: Optional[Path] = None,
    ) -> None:
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        if spans is None:
            head = [sys.executable, "-m", "repro"]
        else:
            head = [sys.executable, str(root / "perfbench" / "launcher.py"), str(spans)]
        self.argv = head + ["serve", *serve_args, "--port", str(self.port)]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = log
        self.process: Optional[subprocess.Popen] = None
        self.peak_kb = 0

    def start(self) -> float:
        """Spawn and return seconds until ``/healthz`` first answers 200."""
        with self.log.open("ab") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = started + BOOT_TIMEOUT_S
        while True:
            try:
                status, _ = _get(self.port, "/healthz", timeout=2.0)
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} during "
                    f"boot; see {self.log}"
                )
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server not healthy after {BOOT_TIMEOUT_S} s")
            time.sleep(0.005)

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` samples summed over labels, by metric name."""
        status, body = _get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        totals: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if not line or line.startswith("#"):
                continue
            name_labels, _, value = line.rpartition(" ")
            name = name_labels.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def read_peak(self) -> int:
        """Highest ``VmHWM`` (kB) of the process so far."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        return self.peak_kb

    def stop(self) -> None:
        """Read the peak, then SIGTERM and wait for the drain."""
        if self.process is None or self.process.poll() is not None:
            return
        self.read_peak()
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("server did not drain within 60 s of SIGTERM")
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.process.returncode}; see {self.log}"
            )
