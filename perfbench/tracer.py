"""Traced run of one op: ``qseq.cli.main(argv)`` called in process,
with spans recorded around the public functions of each module.

The spans come from wrappers installed by this file, not from code in the
program.  ``cli`` binds ``run``, ``extend``, ``series``, ``build_frequency``
and ``classify`` with ``from ... import``, so every module-level name bound to
a wrapped function is rebound, not only the defining module's.

Each op runs in its own traced process, so that no op inherits another's
memory high-water mark (a child forked by ``verify`` would).  Spans record
name, start, end and parent; ``run.py`` adds the op and pass they belong to.
They stay in memory and are written to SPANS_PATH when the op ends.  Run as a
child of ``run.py``::

    python perfbench/tracer.py SPANS_PATH QSEQ_ARGS...
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import read_header, shrunk

CRITERIA = 13  # checks in qseq.verify.CRITERIA, one span name each

# Per-layer metrics: (name, unit, the end-to-end metric it should move).
LAYERS = [
    ("import.s", "s", "wall_s on every workload: one start-up per op"),
    ("engine.run.s", "s", "compute_s on analyze and session"),
    ("engine.run.calls", "count", "compute_s on analyze and session"),
    ("engine.run.terms_per_s", "1/s", "compute_s on analyze and session"),
    ("engine.run.bytes_computed", "B", "compute_s on analyze and session (width x 5 per term)"),
    ("engine.extend.s", "s", "compute_s on session"),
    ("checkpoint.save.s", "s", "compute_s on session and analyze"),
    ("checkpoint.save.bytes", "B", "compute_s on session and analyze"),
    ("checkpoint.load.s", "s", "compute_s and analysis_s on session"),
    ("checkpoint.load.bytes", "B", "compute_s and analysis_s on session"),
    ("checkpoint.save.extra_bytes_per_term", "B/term", "compute_rss_mb on analyze and session"),
    ("checkpoint.load.extra_bytes_per_term", "B/term", "compute_rss_mb and analysis_rss_mb on session"),
    ("cli.obtain_trace.s", "s", "wall_s, compute_s and analysis_s on session"),
    ("cli.obtain_trace.calls", "count", "wall_s on session"),
    ("cli.obtain_trace.recomputes", "count", "wall_s, compute_s and analysis_s on session"),
    ("cli.obtain_trace.shrinks", "count", "compute_s on session (shrinks are data loss)"),
    ("cli.obtain_trace.reuse_ratio", "ratio", "wall_s and compute_s on session"),
    ("cli.format.s", "s", "analysis_s and compute_s on emit; nil on analyze"),
    ("cli.format.rows", "count", "analysis_s and compute_s on emit"),
    ("cli.write_text.s", "s", "analysis_s and compute_s on emit; nil on analyze"),
    ("cli.write_text.bytes", "B", "analysis_s and compute_s on emit"),
    ("diagnostics.series.s", "s", "analysis_s on emit"),
    ("diagnostics.selfsim_profile.s", "s", "analysis_s on emit"),
    ("diagnostics.check_subsequence_identities.s", "s", "analysis_s on analyze (verify)"),
    ("diagnostics.series.extra_bytes_per_term", "B/term", "analysis_rss_mb on emit"),
    ("diagnostics.selfsim_profile.extra_bytes_per_term", "B/term", "analysis_rss_mb on emit"),
    ("diagnostics.check_subsequence_identities.extra_bytes_per_term", "B/term",
     "analysis_rss_mb on analyze (verify)"),
    ("frequency.build_frequency.s", "s", "analysis_s on analyze and session (freq)"),
    ("frequency.block_report.s", "s", "analysis_s on analyze and session (freq)"),
    ("seedlab.classify.s", "s", "analysis_s on analyze (seeds)"),
    ("seedlab.classify.calls", "count", "analysis_s on analyze (seeds)"),
] + [(f"verify.criterion_{n:02d}.s", "s", "analysis_s on analyze (verify)")
      for n in range(1, CRITERIA + 1)]

# Layers measured for extra bytes per term, one call per fresh process, in
# LAYERS order: the checkpoint.save probe writes the file checkpoint.load reads.
PROBED = [name[: -len(".extra_bytes_per_term")] for name, _, _ in LAYERS
          if name.endswith(".extra_bytes_per_term")]

VERBS = ("compute", "diagnose", "selfsim", "freq", "seeds", "verify")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None}
        self.spans.append(span)
        self.stack.append(span["id"])
        span["t0"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self.close(span)
            if after is not None:
                after(span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


# ------------------------------------------------------------ span details

def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _after_run(span, args, trace):
    span["terms"] = trace.len - len(args["config"].seed)
    span["width"] = args["config"].width


def _after_extend(span, args, trace):
    span["terms"] = trace.len - args["trace"].len
    span["width"] = trace.config.width


def _after_save(span, args, _):
    span["bytes"] = _size(args.get("path"))


def _after_load(span, args, _):
    span["bytes"] = _size(args.get("path"))


def _after_rows(span, _, lines):
    span["rows"] = len(lines)


def _after_write(span, args, _):
    span["bytes"] = _size(args.get("path"))
    span["rows"] = len(args.get("lines", ()))


TARGETS = [
    ("engine.run", "qseq.engine", "run", _after_run),
    ("engine.extend", "qseq.engine", "extend", _after_extend),
    ("checkpoint.save", "qseq.checkpoint", "save", _after_save),
    ("checkpoint.load", "qseq.checkpoint", "load", _after_load),
    ("cli.obtain_trace", "qseq.cli", "obtain_trace", None),
    ("cli.format", "qseq.cli", "format_series_lines", _after_rows),
    ("cli.write_text", "qseq.cli", "write_text", _after_write),
    ("diagnostics.series", "qseq.diagnostics", "series", None),
    ("diagnostics.selfsim_profile", "qseq.diagnostics", "selfsim_profile", None),
    ("diagnostics.check_subsequence_identities", "qseq.diagnostics",
     "check_subsequence_identities", None),
    ("frequency.build_frequency", "qseq.frequency", "build_frequency", None),
    ("frequency.block_report", "qseq.frequency", "block_report", None),
    ("seedlab.classify", "qseq.seedlab", "classify", None),
] + [(f"cli.cmd_{verb}", "qseq.cli", f"cmd_{verb}", None) for verb in VERBS]


def instrument(tracer: Tracer) -> None:
    """Install the wrappers.  A target the program lacks raises, so that a
    renamed function fails the run instead of reading 0."""
    import qseq.cli  # noqa: F401  (imports every module the CLI uses)
    import qseq.verify

    modules = [m for name, m in sys.modules.items() if name == "qseq" or name.startswith("qseq.")]

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    for name, module_name, attr, after in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        if name == "cli.obtain_trace":
            rebind(original, _obtain_wrapper(tracer, original))
        else:
            rebind(original, tracer.wrap(name, original, after))
    if len(qseq.verify.CRITERIA) != CRITERIA:
        raise RuntimeError(f"qseq.verify.CRITERIA has {len(qseq.verify.CRITERIA)} checks,"
                           f" expected {CRITERIA}")
    qseq.verify.CRITERIA = tuple(tracer.wrap(f"verify.criterion_{n:02d}", check)
                                 for n, check in enumerate(qseq.verify.CRITERIA, start=1))


def _obtain_wrapper(tracer: Tracer, original):
    """obtain_trace, plus whether a checkpoint of the requested configuration
    was there to reuse, and whether the call left it shorter."""
    signature = inspect.signature(original)
    traced = tracer.wrap("cli.obtain_trace", original)

    @functools.wraps(original)
    def obtain(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        path, config = bound.get("trace_path"), bound.get("config")
        before = read_header(path) if path is not None else None
        result = traced(*args, **kwargs)
        span = next(s for s in reversed(tracer.spans) if s["name"] == "cli.obtain_trace")
        span["reusable"] = before is not None and before.config == (
            tuple(config.seed.values), config.perturbation.value == "alternating", config.width)
        span["shrink"] = shrunk(before, read_header(path) if path is not None else None)
        return result

    return obtain


# -------------------------------------------------------------- aggregation

def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass.  Times are inclusive span time, except
    that ``cli.format.s`` adds ``cmd_compute``'s self time, which is its
    inline formatting loop."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)

    def dur(span):
        return span["t1"] - span["t0"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum(dur(s) if key is None else s.get(key, 0) for s in named(name))

    m = {}
    run_s = total("engine.run")
    terms = total("engine.run", "terms")
    m["engine.run.s"] = run_s
    m["engine.run.calls"] = len(named("engine.run"))
    m["engine.run.terms_per_s"] = terms / run_s if run_s else 0.0
    m["engine.run.bytes_computed"] = sum(5 * s.get("width", 0) * s.get("terms", 0)
                                         for s in named("engine.run"))
    m["engine.extend.s"] = total("engine.extend")
    for kind in ("save", "load"):
        m[f"checkpoint.{kind}.s"] = total(f"checkpoint.{kind}")
        m[f"checkpoint.{kind}.bytes"] = total(f"checkpoint.{kind}", "bytes")

    # A recompute runs from the seed although a checkpoint of the same
    # configuration was there; a call served without one reused it.
    obtain = named("cli.obtain_trace")
    recomputed = [s for s in obtain if s.get("reusable")
                  and any(c["name"] == "engine.run" for c in children[s["id"]])]
    served = [s for s in obtain if s.get("reusable") and s not in recomputed]
    m["cli.obtain_trace.s"] = total("cli.obtain_trace")
    m["cli.obtain_trace.calls"] = len(obtain)
    m["cli.obtain_trace.recomputes"] = len(recomputed)
    m["cli.obtain_trace.shrinks"] = sum(bool(s.get("shrink")) for s in obtain)
    m["cli.obtain_trace.reuse_ratio"] = len(served) / len(obtain) if obtain else 0.0

    compute_verbs = named("cli.cmd_compute")
    m["cli.format.s"] = total("cli.format") + sum(
        dur(s) - sum(dur(c) for c in children[s["id"]]) for s in compute_verbs)
    m["cli.format.rows"] = total("cli.format", "rows") + sum(
        c.get("rows", 0) for s in compute_verbs for c in children[s["id"]]
        if c["name"] == "cli.write_text")
    m["cli.write_text.s"] = total("cli.write_text")
    m["cli.write_text.bytes"] = total("cli.write_text", "bytes")
    for name in ("diagnostics.series", "diagnostics.selfsim_profile",
                 "diagnostics.check_subsequence_identities",
                 "frequency.build_frequency", "frequency.block_report", "seedlab.classify"):
        m[f"{name}.s"] = total(name)
    m["seedlab.classify.calls"] = len(named("seedlab.classify"))
    for n in range(1, CRITERIA + 1):
        m[f"verify.criterion_{n:02d}.s"] = total(f"verify.criterion_{n:02d}")
    return m


def op_breakdown(spans: list[dict]) -> list[tuple[str, float, dict[str, float]]]:
    """(op label, seconds in process, self seconds by span name) for each op."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    rows = []
    for root in (s for s in spans if s["parent"] is None):
        self_time = defaultdict(float)
        todo = [root]
        while todo:
            span = todo.pop()
            kids = children[span["id"]]
            self_time[span["name"]] += (span["t1"] - span["t0"]) - sum(
                k["t1"] - k["t0"] for k in kids)
            todo.extend(kids)
        rows.append((root["op"], root["t1"] - root["t0"], dict(self_time)))
    return rows


# --------------------------------------------------------------------- main

def main(spans_path: str, argv: list[str]) -> int:
    import qseq.cli

    tracer = Tracer()
    instrument(tracer)
    root = tracer.open("op")
    try:
        code = qseq.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.close(root)
        Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
