#!/usr/bin/env python3
"""Run tests/test_kernels.py against _qkernel.c built with ASan and UBSan.

    python scripts/sanitize_kernel.py

Builds the kernel with gcc -O1 -g -fsanitize=address,undefined
-fno-sanitize-recover=all, without the -fwrapv of sysconfig's CFLAGS, so
that a signed overflow is reported too.  The build goes where qseq's loader
looks for the kernel, at its cache key, inside a temporary XDG_CACHE_HOME,
never the user's cache; the kernel tests then run in a child Python with
libasan preloaded and PYTHONMALLOC=malloc, so that the tests' own buffers
(bytearray, array, NumPy) get redzones.  ASan does not guard mmap'd
memory, so the engine's mapped values are not checked.

pytest captures each test's stderr, and a sanitizer report aborts the
child, so the reports go to files (log_path) and are printed after the
run.  Exits with pytest's code, or 1 if pytest passed and a report was
written anyway.
"""

import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]


def gcc_output(*args: str) -> str:
    return subprocess.run(["gcc", *args], capture_output=True, text=True, check=True,
                          timeout=300).stdout.strip()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qseq-sanitize-") as cache:
        os.environ["XDG_CACHE_HOME"] = cache
        sys.path.insert(0, str(ROOT / "src"))
        from qseq import _native  # compiles the plain kernel into cache, at its key

        target = _native.compile_kernel()
        built = target.with_name("sanitized.so")
        gcc_output("-shared", "-fPIC", *SANITIZE, f"-I{sysconfig.get_paths()['include']}",
                   str(ROOT / "src" / "qseq" / "_qkernel.c"), "-o", str(built))
        os.replace(built, target)

        logs = Path(cache, "sanitizer")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")])),
               "LD_PRELOAD": gcc_output("-print-file-name=libasan.so"),
               "PYTHONMALLOC": "malloc",
               "ASAN_OPTIONS": f"detect_leaks=0:log_path={logs}",
               "UBSAN_OPTIONS": f"print_stacktrace=1:log_path={logs}"}
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "tests/test_kernels.py"], cwd=ROOT, env=env).returncode
        reports = sorted(logs.parent.glob(f"{logs.name}.*"))
        for report in reports:
            print(f"--- {report.name}\n{report.read_text()}", file=sys.stderr)
        return code or int(bool(reports))


if __name__ == "__main__":
    sys.exit(main())
