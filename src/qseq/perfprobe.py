"""Criterion 12's child: time a run of the C kernel in a process of its own.

``start_probe`` starts ``python -c "from qseq.perfprobe import perf_probe;
perf_probe(H)"``; the checklist's ``run_criteria`` calls it before the
first check, so the child runs beside the checks.  This module loads the
kernel binding and the engine, and neither NumPy nor the checklist, so the
peak RSS the child reports is the run's own.  It is read from VmHWM, which
exec resets, and not from ru_maxrss, which Linux carries across exec from
the parent that forked the child.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time

from . import _native
from .engine import RecursionConfig, Seed, run

PERF_CRITERION = 12
PERF_HORIZON = 10**8


def start_probe(horizon: int) -> tuple[subprocess.Popen, float]:
    """Start perf_probe(horizon) in a fresh interpreter, its stdout and
    stderr piped: the child, and when it started on the monotonic clock."""
    import subprocess

    code = f"from qseq.perfprobe import perf_probe; perf_probe({horizon})"
    started = time.monotonic()
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True), started


def perf_probe(horizon: int) -> None:
    """Run seed (1,1) to horizon in 4-byte slots and print one JSON line:
    the endpoint, seconds and this process's peak RSS, or the reason the
    Python fallback would run instead."""
    if not _native.have_native_kernel():
        print(json.dumps({"kernel": "python", "reason": _native.reason}))
        return
    t0 = time.perf_counter()
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=horizon, width=4))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"kernel": "native", "endpoint": trace.value_at(horizon),
                      "seconds": elapsed, "peak_mb": peak_mb()}))


def peak_mb() -> float:
    """This process's peak RSS in MB: VmHWM from /proc/self/status where it
    exists, else ru_maxrss."""
    with contextlib.suppress(OSError), open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1024 if sys.platform != "darwin" else rss / 1024 ** 2
