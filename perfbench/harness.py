"""Build the program under test and run its processes.

The program is built from the checkout's own sources with
``python setup.py build`` into a scratch prefix under ``.perfbench/``, never
in place: an extension module left in ``src/`` would change which kernel the
test suite runs.  Every child process gets its own HOME, cache and temp
directory inside that prefix, so the benchmark reads and writes only inside
the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PYTHON = sys.executable
WORK_DIR = ".perfbench"
BUILD_TIMEOUT_S = 600
OP_TIMEOUT_S = 170

# Runs in a fresh interpreter: the first import of the built package, and
# which kernel it loaded.
_IMPORT_PROBE = """
import json, sys
import numpy, qseq
print(json.dumps({"kernel": "native" if qseq.have_native_kernel() else "python",
                  "python": sys.version.split()[0], "numpy": numpy.__version__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Program:
    """A built copy of qseq and the environment its processes run in."""

    env: dict
    kernel: str
    python: str
    numpy: str


def check_tree(root: Path) -> None:
    for rel in ("setup.py", "src/qseq/__init__.py", "tests/frozen_values.py"):
        if not (root / rel).is_file():
            raise BenchError(f"{root} is not a qseq checkout: {rel} is missing")


def child_env(prefix: Path, lib: Path | None) -> dict:
    home = prefix / "home"
    for sub in ("", ".cache", "tmp"):
        (home / sub).mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSEQ_")}
    env.pop("PYTHONPATH", None)
    if lib is not None:
        env["PYTHONPATH"] = str(lib)
    env.update(
        PYTHONNOUSERSITE="1",
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        TMPDIR=str(home / "tmp"),
    )
    return env


def setup(root: Path, prefix: Path) -> tuple[Program, float]:
    """Build into an empty prefix and import once; returns (program, seconds)."""
    shutil.rmtree(prefix, ignore_errors=True)
    (prefix / "egg").mkdir(parents=True)
    log = prefix / "build.log"
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.run(
            [PYTHON, "setup.py", "-q", "egg_info", "--egg-base", str(prefix / "egg"),
             "build", "--build-base", str(prefix / "build")],
            cwd=root, stdout=out, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S,
            env=child_env(prefix, None),
        )
    if proc.returncode != 0:
        raise BenchError(f"build failed, see {log}")
    libs = sorted((prefix / "build").glob("lib*"))
    if len(libs) != 1:
        raise BenchError(f"expected one build/lib* directory, found {libs}")
    env = child_env(prefix, libs[0])
    probe = subprocess.run([PYTHON, "-c", _IMPORT_PROBE], cwd=prefix, env=env,
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if probe.returncode != 0:
        raise BenchError(f"import qseq failed: {probe.stderr.strip()[-300:]}")
    facts = json.loads(probe.stdout)
    return Program(env=env, kernel=facts["kernel"], python=facts["python"],
                   numpy=facts["numpy"]), seconds


def spawn(argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path,
          timeout: float = OP_TIMEOUT_S):
    """Run one process to completion: (exit code, wall seconds, peak RSS in MB).

    Wall time runs from spawn to exit.  The peak RSS comes from wait4, whose
    rusage also covers descendants the child waited for.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024
