"""Record the sha256 goldens of every op's output files.

    python3 perfbench/goldens.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Each workload runs one pass with two seeds; every anchor must hold
and both seeds must give identical bytes, or nothing is written.  The result
replaces ``perfbench/goldens.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import harness
import run
import workloads
from checks import GOLDENS, Checker


def main() -> int:
    root = Path.cwd()
    harness.check_tree(root)
    work = root / harness.WORK_DIR / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    try:
        program, _ = harness.setup(root, work / "setup")
        checker = Checker(root, record=True)
        failed = []
        for name in workloads.WORKLOADS:
            for seed in (1, 2):
                workload = workloads.build(name, seed)
                shutil.rmtree(work / "ckpt", ignore_errors=True)
                (work / "ckpt").mkdir()
                for op in workload.prepare + workload.ops:
                    result = run.run_op(program, work, op, checker)
                    print(f"{name} seed {seed} {op.label}: {result.seconds:.2f} s"
                          f" {result.problems or 'ok'}", file=sys.stderr)
                    failed += result.problems
                run.clear(work, workload.pass_files)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        print("not recorded: some outputs failed their checks", file=sys.stderr)
        return 1
    GOLDENS.write_text(json.dumps(checker.goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(checker.goldens)} goldens to {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
