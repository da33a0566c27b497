"""Benchmark the qseq CLI as users run it.

    python3 perfbench/run.py --workload {emit,analyze,session} --seed N
                             --seconds S --trace {0,1}

Run from the root of a qseq checkout.  Each run builds the checkout into
``.perfbench/run`` (``setup_s`` is the median of five builds, each followed
by the first ``import qseq`` in a fresh process), then repeats passes over the
workload's ops until S seconds have passed, always finishing at least one.

--trace 0  One closed-loop client runs one verb at a time, each in its own
           ``python -m qseq`` process, so wait4 gives each op its wall time
           and peak RSS.  Reports the end-to-end metrics.
--trace 1  Runs the same ops, each through ``tracer.py``, which calls
           ``qseq.cli.main`` in process with spans around each layer; then
           measures extra bytes per term one layer call per fresh process
           (``probe.py``) and times start-up.  Reports the per-layer metrics.

Every op's outputs are checked against goldens and oracle anchors outside
the timed window, then deleted.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes
to stderr and the full record, spans included, to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import harness
import tracer
import workloads
from checks import Checker, Outputs, read_header, shrunk

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
PROBE_HORIZON = 10**7
DEADLINE_S = 150  # no pass starts that would end later than this after launch
OUT = "out"  # the ops' --data-dir, relative to the work directory
QSEQ = [harness.PYTHON, "-m", "qseq"]

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "compute_s": "s",
    "compute_rss_mb": "MB",
    "analysis_s": "s",
    "analysis_rss_mb": "MB",
}


@dataclass
class OpResult:
    label: str
    verb: str
    seconds: float
    rss_mb: float
    exit_code: int
    shrink: bool = False  # left a same-config checkpoint shorter than before
    problems: list[str] = field(default_factory=list)


def run_op(program: harness.Program, work: Path, op, checker: Checker,
           launcher: list[str] = QSEQ) -> OpResult:
    """Spawn one op in a fresh output directory, then check its outputs,
    look for a shrunk checkpoint and delete the outputs, all untimed."""
    out = work / OUT
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ckpt = work / op.ckpt if op.ckpt else None
    before = read_header(ckpt) if ckpt else None
    stdout, stderr = work / "stdout.txt", work / "stderr.txt"
    code, seconds, rss_mb = harness.spawn(
        [*launcher, *op.argv(OUT)], work, program.env, stdout, stderr)
    after = read_header(ckpt) if ckpt else None
    shrink = shrunk(before, after)
    files = {path.name: path for path in out.iterdir()}
    problems = checker.check(op, code, Outputs(files, stdout.read_text(errors="replace"),
                                               ckpt, op.args))
    shutil.rmtree(out)
    if problems:
        problems.append("stderr: " + stderr.read_text(errors="replace").strip()[-300:])
    return OpResult(op.label, op.verb, seconds, rss_mb, code, shrink, problems)


def clear(work: Path, names) -> None:
    for name in names:
        (work / name).unlink(missing_ok=True)


def run_passes(program, workload, work, checker, seconds, launched,
               spans=None) -> list[list[OpResult]]:
    """Passes until ``seconds`` have passed, at least one.  With ``spans``,
    each op runs under ``tracer.py`` and its spans are collected, tagged with
    the op and pass."""
    launcher = QSEQ if spans is None else [harness.PYTHON, str(HERE / "tracer.py"),
                                           str(work / "spans.json")]
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        clear(work, workload.pass_files)
        results = []
        for op in workload.ops:
            results.append(run_op(program, work, op, checker, launcher))
            if spans is not None:
                collect(spans, work, f"{len(passes)}.{len(results)}", op.label, len(passes))
        passes.append(results)
        clear(work, workload.pass_files)
        now = time.perf_counter()
        if now - start >= seconds or now - launched + (now - t0) > DEADLINE_S:
            return passes


def collect(spans: list[dict], work: Path, op_id: str, label: str, pass_no: int) -> None:
    """Append one op's spans with ids made unique across the run.  An op that
    wrote none (a wrapped function is missing, or the process died) stops the
    run: its layers would read 0, which looks like a gain."""
    path = work / "spans.json"
    if not path.exists():
        stderr = (work / "stderr.txt").read_text(errors="replace").strip()[-500:]
        raise harness.BenchError(f"traced op {label} wrote no spans: {stderr}")
    for span in json.loads(path.read_text()):
        span["id"] = f"{op_id}:{span['id']}"
        if span["parent"] is not None:
            span["parent"] = f"{op_id}:{span['parent']}"
        span.update(op=label, op_id=op_id, pass_no=pass_no)
        spans.append(span)
    path.unlink()


def e2e_metrics(passes, setup_samples) -> dict[str, float]:
    """Medians over passes; RSS is the highest peak among the pass's ops."""
    rows = []
    for results in passes:
        compute = [r for r in results if r.verb == "compute"]
        analysis = [r for r in results if r.verb != "compute"]
        rows.append({
            "wall_s": sum(r.seconds for r in results),
            "compute_s": sum(r.seconds for r in compute),
            "compute_rss_mb": max(r.rss_mb for r in compute),
            "analysis_s": sum(r.seconds for r in analysis),
            "analysis_rss_mb": max(r.rss_mb for r in analysis),
        })
    metrics = {"setup_s": statistics.median(setup_samples)}
    metrics.update({key: statistics.median(row[key] for row in rows) for key in rows[0]})
    return metrics


def layer_metrics(program, work: Path, spans: list[dict]) -> dict[str, float]:
    """Medians over passes of the traced spans, then the probes and start-up."""
    per_pass = [tracer.pass_metrics([s for s in spans if s["pass_no"] == n])
                for n in sorted({s["pass_no"] for s in spans})] or [tracer.pass_metrics([])]
    metrics = {key: statistics.median(row[key] for row in per_pass) for key in per_pass[0]}
    ckpt = work / "probe.qtr"
    out, err = work / "probe.out", work / "probe.err"
    for layer in tracer.PROBED:  # checkpoint.save writes the file checkpoint.load reads
        code, _, _ = harness.spawn(
            [harness.PYTHON, str(HERE / "probe.py"), layer, str(PROBE_HORIZON), str(ckpt)],
            work, program.env, out, err)
        if code != 0:
            raise harness.BenchError(f"probe {layer} exited {code}: "
                                     + err.read_text(errors="replace").strip()[-500:])
        metrics[f"{layer}.extra_bytes_per_term"] = json.loads(out.read_text())[
            "extra_bytes_per_term"]
    ckpt.unlink(missing_ok=True)
    imports = [harness.spawn([harness.PYTHON, "-c", "import qseq.cli"], work, program.env,
                             out, err)[1] for _ in range(IMPORT_REPEATS)]
    metrics["import.s"] = statistics.median(imports)
    return metrics


def summary(name, seed, trace, program, setup_samples, passes, breakdown) -> None:
    err = sys.stderr
    print(f"perfbench {name} seed={seed} trace={trace} kernel={program.kernel}"
          f" python={program.python} numpy={program.numpy}", file=err)
    print("  setup_s samples " + " ".join(f"{s:.3f}" for s in setup_samples), file=err)
    for n, results in enumerate(passes, start=1):
        for r in results:
            rss = f"{r.rss_mb:7.0f} MB"
            flags = (" SHRINK" if r.shrink else "") + (f" FAILED {r.problems}" if r.problems else "")
            print(f"  pass {n} {r.label:24s} {r.seconds:8.3f} s {rss}{flags}", file=err)
    for label, seconds, self_time in breakdown:
        top = sorted(self_time.items(), key=lambda kv: -kv[1])[:4]
        print(f"  traced {label:22s} {seconds:8.3f} s: "
              + ", ".join(f"{k} {v:.3f}" for k, v in top), file=err)


def main(argv=None) -> int:
    launched = time.perf_counter()
    # SIGTERM unwinds like an interrupt, so spawn() stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    base = root / harness.WORK_DIR
    work = base / "run"
    results_dir = base / "results"
    try:
        harness.check_tree(root)
        shutil.rmtree(work, ignore_errors=True)
        results_dir.mkdir(parents=True, exist_ok=True)
        setups = [harness.setup(root, work / f"setup{i}") for i in range(SETUP_REPEATS)]
        program = setups[-1][0]
        setup_samples = [seconds for _, seconds in setups]
        if any(p.kernel != "native" for p, _ in setups):
            raise harness.BenchError("the native kernel did not load; runs on the Python"
                                     " fallback are not comparable")
        workload = workloads.build(args.workload, args.seed)
        checker = Checker(root)
        (work / "ckpt").mkdir()
        prepared = [run_op(program, work, op, checker) for op in workload.prepare]
        spans = [] if args.trace else None
        passes = run_passes(program, workload, work, checker, args.seconds, launched, spans)
        if args.trace:
            metrics = layer_metrics(program, work, spans)
            spans_file = results_dir / f"{args.workload}-seed{args.seed}-spans.json"
            spans_file.write_text(json.dumps(spans))
        else:
            metrics = e2e_metrics(passes, setup_samples)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    breakdown = tracer.op_breakdown([s for s in spans if s["pass_no"] == 0]) if spans else []
    summary(args.workload, args.seed, args.trace, program, setup_samples, passes, breakdown)
    done = prepared + [r for results in passes for r in results]
    failed = sum(bool(r.problems) for r in done)
    units = E2E_UNITS if not args.trace else {name: unit for name, unit, _ in tracer.LAYERS}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "kernel": program.kernel, "python": program.python,
        "numpy": program.numpy, "setup_samples": setup_samples,
        "passes": [[asdict(r) for r in results] for results in passes],
        "prepare": [asdict(r) for r in prepared],
        "metrics": metrics, "units": units,
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
