"""Run the benchmark over several seeds and print every metric.

    python3 perfbench/report.py [--runs 10] [--traced 1] [--workloads emit,analyze]
                                [--first-seed 1] [--seconds S] [--no-run]

Run from the root of a checkout.  For each workload it runs ``run.py`` with
``--trace 0`` once per seed and with ``--trace 1`` for the first ``--traced``
seeds (``--no-run`` re-reads the records in ``.perfbench/results/``), then
prints:

* the machine: git commit, cores, memory, CPU, caches, Python, NumPy, kernel;
* each end-to-end metric of BENCHMARK.json: unit, sample count, median, tail
  percentile, and its spread between runs (quartile distance over median)
  against its bound;
* each verb's wall seconds and peak RSS per pass, and the error rate, which
  counts every failed op and every shrunk same-config checkpoint;
* each per-layer metric with the end-to-end metric it should move; the traced
  self time of text output (``cli.format`` and ``cli.write_text``) as a share
  of the untraced ``diagnose`` and ``selfsim`` time, and of the engine and
  checkpoint layers as a share of the untraced pass; and
  the tracing overhead (each traced op process against the untraced one).

Runs whose kernels differ are never aggregated together.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import harness
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"max {max(values):.4g} (n<20)"
    p = 100 * (n - 10) // n
    return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4g}"


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def machine_facts(root: Path) -> list[str]:
    lines = []
    if (root / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True).stdout.strip()
        lines.append(f"commit   {sha}")
    else:
        lines.append("commit   (not a git checkout)")
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), "unknown")
    mem = next((line.split(":", 1)[1].strip() for line in open("/proc/meminfo")
                if line.startswith("MemTotal")), "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches.append(f"L{level} {(index / 'size').read_text().strip()}")
    lines += [f"cores    {len(os.sched_getaffinity(0))}", f"memory   {mem}", f"cpu      {cpu}",
              f"caches   {', '.join(caches) or 'unknown'} (cpu0)",
              f"os       {platform.system()} {platform.release()}"]
    llc = caches[-1] if caches else "unknown"
    lines.append(f"arrays   10^8 terms x 4 B = 400 MB against {llc}: below the 4x the"
                 " bandwidth rule needs, so the engine reports terms/s and computed"
                 " bytes, not a bandwidth ratio")
    return lines


def run_all(args, names: list[str]) -> None:
    for name in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        plan = [(seed, 0) for seed in seeds] + [(seed, 1) for seed in seeds[: args.traced]]
        for seed, trace in plan:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"ran {name} seed {seed} trace {trace}: exit {proc.returncode} {last[0][:120]}",
                  file=sys.stderr)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)


def load(results: Path, name: str, seeds, trace: int) -> list[dict]:
    records = []
    for seed in seeds:
        path = results / f"{name}-seed{seed}-trace{trace}.json"
        if path.exists():
            records.append(json.loads(path.read_text()))
    kernels = {r["kernel"] for r in records}
    if len(kernels) > 1:
        raise SystemExit(f"{name}: runs used different kernels {kernels}; not comparing them")
    return records


def report_e2e(name: str, records: list[dict], bench: dict) -> dict[str, float]:
    print(f"\n== {name}: end to end, {len(records)} runs, kernel {records[0]['kernel']},"
          f" python {records[0]['python']}, numpy {records[0]['numpy']}")
    print(f"{'metric':18s} {'unit':5s} {'n':>3s} {'median':>10s}  {'tail':20s} {'spread':>7s}"
          f" {'bound':>6s}")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in records]
        if len(values) < 2:
            print(f"{metric['name']:18s} {metric['unit']:5s} {len(values):3d} {values[0]:10.4f}")
            continue
        share = spread(values)
        verdict = ("steady" if share < metric["bound"] / 3
                   else "within bound" if share <= metric["bound"] else "TOO WIDE")
        print(f"{metric['name']:18s} {metric['unit']:5s} {len(values):3d}"
              f" {statistics.median(values):10.4f}  {tail(values):20s} {share:7.3f}"
              f" {metric['bound']:6.2f} {verdict}")

    per_verb = defaultdict(list)
    by_label = defaultdict(list)
    attempted = failed = shrinks = 0
    for record in records:
        done = record["prepare"] + [r for results in record["passes"] for r in results]
        attempted += len(done)
        failed += sum(bool(r["problems"]) for r in done)
        shrinks += sum(r["shrink"] for r in done)
        for results in record["passes"]:
            verbs = {r["verb"] for r in results}
            for verb in verbs:
                mine = [r for r in results if r["verb"] == verb]
                per_verb[f"{verb}_s"].append(sum(r["seconds"] for r in mine))
                per_verb[f"{verb}_rss_mb"].append(max(r["rss_mb"] for r in mine))
            for r in results:
                by_label[r["label"]].append(r["seconds"])
    print(f"\n{name}: per verb, one sample per pass")
    for key in sorted(per_verb):
        values = per_verb[key]
        unit = "MB" if key.endswith("_mb") else "s"
        print(f"{key:18s} {unit:5s} {len(values):3d} {statistics.median(values):10.4f}"
              f"  {tail(values)}")
    print(f"error_rate         ratio     {(failed + shrinks) / max(attempted, 1):.4f}"
          f"  ({failed} failed ops + {shrinks} shrunk checkpoints of {attempted} ops)")
    return {label: statistics.median(values) for label, values in by_label.items()}


def report_layers(name: str, records: list[dict], results: Path, untraced: dict) -> None:
    if not records:
        return
    print(f"\n== {name}: per layer, {len(records)} traced runs")
    for metric, unit, moves in tracer.LAYERS:
        value = statistics.median(r["metrics"][metric] for r in records)
        print(f"{metric:62s} {value:14.6g} {unit:6s} -> {moves}")
    spans = json.loads((results / f"{name}-seed{records[0]['seed']}-spans.json").read_text())
    rows = tracer.op_breakdown([s for s in spans if s["pass_no"] == 0])

    def share(part: float, labels: list[str]) -> str:
        whole = sum(untraced.get(label, 0) for label in labels)
        if not whole:
            return f"{part:.3f} s (no untraced runs to compare)"
        return f"{part:.3f} s of {whole:.3f} s untraced ({100 * part / whole:.1f}%)"

    low = sum(v for _, _, t in rows for k, v in t.items()
              if k.startswith(("engine.", "checkpoint.")))
    print(f"{name}: engine + checkpoint self time, {share(low, [r[0] for r in rows])}"
          " of wall_s")
    text_ops = [(label, t) for label, _, t in rows
                if any(k in ("cli.cmd_diagnose", "cli.cmd_selfsim") for k in t)]
    if text_ops:
        text = sum(t.get("cli.format", 0) + t.get("cli.write_text", 0) for _, t in text_ops)
        print(f"{name}: cli.format + cli.write_text, {share(text, [l for l, _ in text_ops])}"
              " of diagnose_s + selfsim_s")
    traced = defaultdict(list)
    for record in records:
        for results_ in record["passes"]:
            for r in results_:
                traced[r["label"]].append(r["seconds"])
    print(f"{name}: tracing overhead, traced op process against the untraced median:")
    for label in sorted(traced):
        if label in untraced:
            seconds = statistics.median(traced[label])
            print(f"  {label:24s} {seconds:8.3f} s vs {untraced[label]:8.3f} s"
                  f"  x{seconds / untraced[label]:.3f}")


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--no-run", action="store_true")
    args = parser.parse_args()
    names = [n for n in args.workloads.split(",") if n in workloads.WORKLOADS]
    if not args.no_run:
        run_all(args, names)
    results = root / harness.WORK_DIR / "results"
    seeds = range(args.first_seed, args.first_seed + args.runs)
    print("\n".join(machine_facts(root)))
    for name in names:
        records = load(results, name, seeds, 0)
        untraced = report_e2e(name, records, bench) if records else {}
        report_layers(name, load(results, name, seeds[: args.traced], 1), results, untraced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
