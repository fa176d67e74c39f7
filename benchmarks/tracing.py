"""Spans recorded by the benchmark around its own calls into each prdyn module,
and the environment block written next to them.

A span's layer is the part of its name before the first dot: the prdyn
module the call goes into. Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    def span(self, name: str, op: int):
        return nullcontext()


class Tracer:
    """Keeps spans in memory: name, start, end, parent span index and op id."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, op: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": op}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list:
        """Each span's duration minus the part its children cover. Children
        run one after another inside their parent, so that part is the sum
        of their durations."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layers(self, root: str = "op") -> dict:
        """Self time per layer, and its share of the total wall time of the
        root (op) spans."""
        wall = sum(s["end"] - s["start"] for s in self.spans if s["name"] == root)
        busy: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            layer = s["name"].split(".")[0]
            busy[layer] = busy.get(layer, 0.0) + own
        return {
            layer: {"self_s": t, "share": t / wall if wall > 0 else 0.0}
            for layer, t in sorted(busy.items())
        }

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def busy(self, prefix: str) -> float:
        """Total self time of the spans whose name starts with ``prefix``."""
        return sum(own for s, own in zip(self.spans, self.self_times()) if s["name"].startswith(prefix))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        if level in ("2", "3"):
            sizes[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return sizes


def _commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str, seed: int) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "commit": _commit(root),
        "seed": seed,
    }
