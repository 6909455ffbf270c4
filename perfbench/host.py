"""Host record: how fast the machine itself was around a run.

Stored beside every run, never reported as a metric.  The two probe
loops run in a short-lived child process so their memory never shows in
the run's own peak RSS.  Comparing their times (and the steal ticks)
across runs separates the host's drift from the program's own spread.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

#: A fixed compute-bound loop and a fixed memory-bound pointer chase
#: (2**17 dependent loads along a full-period LCG cycle through a
#: 2**20-entry list, ~40 MB), each repeated and timed in the child; the
#: record keeps every repeat and their median.
_PROBE = """
import json, statistics, time
def compute():
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t) * 1e3
size = 1 << 20
nxt = [(i * 1_103_515_245 + 12_345) & (size - 1) for i in range(size)]
def chase():
    t = time.perf_counter()
    node = 0
    for _ in range(size >> 3):
        node = nxt[node]
    return (time.perf_counter() - t) * 1e3
loops = {"compute_loop_ms": [compute() for _ in range(5)],
         "pointer_chase_ms": [chase() for _ in range(5)]}
print(json.dumps({**{k: statistics.median(v) for k, v in loops.items()},
                  "repeats": loops}))
"""


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _steal_ticks() -> int | None:
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.splitlines()[0].split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _loadavg() -> list[float] | None:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def snapshot() -> dict:
    """Probe loop times, load average and steal ticks, right now."""
    completed = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return {
        "unix_time": time.time(),
        **json.loads(completed.stdout),
        "loadavg": _loadavg(),
        "steal_ticks": _steal_ticks(),
    }
