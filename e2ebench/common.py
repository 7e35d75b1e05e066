"""Shared plumbing: checkout paths, timed child processes, statistics.

Every child runs ``python -m repro`` from the checkout's own ``src/``
with ``REPRO_WORKERS`` cleared (fits run with workers unset, i.e.
serially) and ``TMPDIR`` pointed into the run's scratch directory, so a
run reads and writes nothing outside the checkout.
"""

from __future__ import annotations

import hashlib
import http.client
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Per-run scratch directories live here (ignored by git).
WORK_DIR = BENCH_DIR / ".work"

#: Longest any single child may run before it is killed and counted as
#: failed; keeps a hung child from outliving the run's time limit.
CHILD_TIMEOUT_S = 150.0


def require_source() -> None:
    """Exit non-zero (no result line) unless the checkout has ``src/repro``."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"e2ebench: no repro sources at {SRC}; run "
                         f"from the root of a full checkout")


def import_repro() -> None:
    """Make the checkout's ``repro`` importable in this process.

    Cleared before the import so any worker pool the traced run starts
    sees the same environment as the children.
    """
    os.environ.pop("REPRO_WORKERS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(scratch: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(scratch)
    return env


@dataclass
class Finished:
    """One child process, timed from spawn to reaping."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def _reap(proc: subprocess.Popen, timeout_s: float):
    """``os.wait4`` the child (its own rusage, not RUSAGE_CHILDREN's
    running maximum), killing it if it outlives ``timeout_s``."""
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_python(args: Sequence[str], scratch: Path) -> Finished:
    """Run ``python <args>`` in a fresh process and time it."""
    out_path = scratch / "child.stdout"
    err_path = scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                env=child_env(scratch), cwd=scratch,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        code, rss_mb = _reap(proc, CHILD_TIMEOUT_S)
        wall_s = time.perf_counter() - start
    return Finished(wall_s, rss_mb, code, out_path.read_bytes(),
                    err_path.read_bytes())


def run_repro(args: Sequence[str], scratch: Path) -> Finished:
    """Run ``python -m repro <args>`` in a fresh process and time it."""
    return run_python(["-m", "repro", *args], scratch)


_LISTEN_LINE = re.compile(rb"on http://[^\s:]+:(\d+)\s*$", re.MULTILINE)


class ServeProcess:
    """``repro serve <artifact>`` with its defaults, on a free port.

    ``ready_s`` is the time from spawn to the first 200 from
    ``/healthz``.  :meth:`stop` sends SIGTERM (graceful shutdown),
    reaps the process and returns its peak RSS in MB.
    """

    def __init__(self, artifact: Path, scratch: Path) -> None:
        self._err_path = scratch / "serve.stderr"
        self._err = open(self._err_path, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(artifact),
             "--port", "0"],
            env=child_env(scratch), cwd=scratch, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._err)
        self.peak_rss_mb: Optional[float] = None
        try:
            self.port = self._wait_port()
            self.ready_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_port(self) -> int:
        deadline = self.start + 60.0
        while time.perf_counter() < deadline:
            match = _LISTEN_LINE.search(self._err_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("repro serve did not start: "
                           + self._err_path.read_text(errors="replace"))

    def _wait_healthy(self) -> float:
        deadline = self.start + 60.0
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.start
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def stop(self) -> float:
        if self.peak_rss_mb is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                _, self.peak_rss_mb = _reap(self.proc, 30.0)
            else:  # already reaped after a crash: no rusage left
                self.peak_rss_mb = 0.0
            self._err.close()
        return self.peak_rss_mb


# ---------------------------------------------------------------- statistics
def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def repeat_for(seconds: float, job, minimum: int = 1) -> List:
    """Run ``job()`` back to back for about ``seconds``.

    A further run starts only when the median run so far still fits in
    the remaining time, so a run overshoots ``seconds`` by less than
    one job; at least ``minimum`` runs are made.
    """
    results: List = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(job())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum \
                and elapsed + median(durations) > seconds:
            return results
