"""Reproducibility checklist: thirteen checks over the recursion's structure.

Each check pins one empirical claim about the perturbed recursion —
prefix values, parity, interleave identities, the dyadic frequency law,
peak locations, the seed survey, performance, and trace round-trips.
The CLI ``verify`` command and the acceptance test suite both run the
checks through this module so they cannot drift apart.  Artifacts builds
the shared inputs once, at MAIN_HORIZON and SURVEY_HORIZON; the seed
table is read as the dict ``seedlab.table_report`` returns.  Criterion 12
times the native kernel in a child process (``perfprobe``);
``run_criteria`` starts that child first, so it runs beside the
in-process checks, and collects it in its turn, killing it if a check
raises.  The checks read the trace's and the tables' buffers, and the
kernel checks parity and the interleave identities, so the checklist
loads no NumPy.

The short prefix constants below are small enough to check by hand;
larger-scale constants were frozen from the independent reference
implementation in ``tests/oracle.py`` (regenerated by
``scripts/freeze_oracle_values.py``).
"""

from __future__ import annotations

import json
import subprocess
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import checkpoint
from .diagnostics import assert_all_odd, check_subsequence_identities, series
from .engine import (
    RecursionConfig,
    Seed,
    extend,
    run,
)
from .errors import ConfigError, QseqError
from .frequency import (
    block_report,
    build_frequency,
    check_dyadic_law,
    peak_scan,
)
from .perfprobe import PERF_CRITERION, PERF_HORIZON, start_probe
from .seedlab import SeedClass, SeedReport, classify, enumerate_seeds, table_report

# ----------------------------------------------------------- expectations

FIRST_20 = (1, 1, 1, 3, 3, 3, 5, 5, 5, 7, 5, 9, 7, 9, 7, 11, 9, 11, 11, 11)
DIFF_FIRST_16 = (0, 0, 2, 0, 0, 2, 0, 0, 2, -2, 4, -2, 2, -2, 4, -2)
ODD_SUB_FIRST_10 = (1, 1, 3, 5, 5, 5, 7, 7, 9, 11)
EVEN_SUB_FIRST_9 = (1, 3, 3, 5, 7, 9, 9, 11, 11)
BLOCK_5_HISTOGRAM = {3: 16, 4: 8, 5: 4, 6: 2, 7: 1, 8: 1}
BLOCK_6_HISTOGRAM = {3: 32, 4: 16, 5: 8, 6: 4, 7: 2, 8: 1, 9: 1}
PEAKS_5_TO_11 = (43, 86, 171, 342, 683, 1366, 2731)
PEAK_RATIO_TOLERANCE = Fraction(11, 1000)
RENORM_SPLIT_MAXIMA_250K = (3387, 64857)  # (max |odd residual|, max |even residual|)
GROWTH_TOLERANCE = Fraction(1, 10)
ENDPOINT_1E8 = 48203369
TIME_BUDGET_SECONDS = 60.0
MEMORY_BUDGET_MB = 500.0
PROBE_TIMEOUT_S = 3 * TIME_BUDGET_SECONDS  # counted from the probe's start

STRONG_DEATH_SEEDS = frozenset({
    (1, 1, 3), (1, 2, 2), (1, 3, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3),
    (2, 3, 2), (2, 3, 3), (3, 1, 3), (3, 2, 2), (3, 2, 3), (3, 3, 1),
    (3, 3, 2), (3, 3, 3),
})
WEAK_DEATH_STEPS = {(3, 2, 1): 6, (1, 2, 3): 7, (1, 2, 1): 41}
TABLE_GROUPS = {
    SeedClass.ORIGINAL: {(1, 1, 1)},
    SeedClass.MERGES_INTO_ORIGINAL: {(2, 1, 1), (3, 1, 1)},
    SeedClass.SHIFTED_ORIGINAL: {(1, 3, 3)},
    SeedClass.RAMP_ORBIT: {(1, 1, 2)},
    SeedClass.LONG_LIVED_IRREGULAR: {
        (1, 3, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 1, 2),
    },
}

MAIN_HORIZON = 10**7
SURVEY_HORIZON = 10**6


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} [{flag}] {self.title}: {self.detail}"


class Artifacts:
    """Shared expensive inputs, computed once and reused across checks."""

    def __init__(self):
        # criterion 12's child once started, None after a kill; its deadline
        self.probe, self.probe_deadline = None, None

    def start_probe(self) -> None:
        """Start criterion 12's child, ``perfprobe.perf_probe(PERF_HORIZON)`` in
        a fresh interpreter, unless it is started already; ``probe_output``
        collects it."""
        if self.probe is None:
            self.probe, started = start_probe(PERF_HORIZON)
            self.probe_deadline = started + PROBE_TIMEOUT_S

    def stop_probe(self) -> None:
        """Kill and reap criterion 12's child if it still runs."""
        if self.probe is not None and self.probe.returncode is None:
            self.probe.kill()
            self.probe.communicate()
            self.probe = None

    @cached_property
    def probe_output(self) -> tuple[int, str, str] | None:
        """The probe's (exit code, stdout, stderr), or None if it ran past its deadline."""
        self.start_probe()
        try:
            out, err = self.probe.communicate(
                timeout=max(0.0, self.probe_deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop_probe()
            return None
        return self.probe.returncode, out, err

    @cached_property
    def main_trace(self):
        return run(RecursionConfig(seed=Seed((1, 1)), horizon=MAIN_HORIZON))

    @cached_property
    def short_trace(self):
        return run(RecursionConfig(seed=Seed((1, 1)), horizon=20))

    @cached_property
    def freq_table(self):
        return build_frequency(self.main_trace)

    @cached_property
    def survey(self):
        reports = [
            classify(seed, self.main_trace, horizon=SURVEY_HORIZON)
            for seed in enumerate_seeds(3, 3)
        ]
        return table_report(reports)

    @cached_property
    def pair_reports(self):
        return {
            seed.values: classify(seed, self.main_trace, horizon=SURVEY_HORIZON)
            for seed in (Seed((1, 1)), Seed((2, 1)))
        }


# ------------------------------------------------------------- the checks

def check_first_values(art: Artifacts) -> CriterionResult:
    got = tuple(art.short_trace.values[1:21])
    return CriterionResult(1, "first twenty values", got == FIRST_20,
                           f"got {list(got)}" if got != FIRST_20 else "exact match")


def check_difference_prefix(art: Artifacts) -> CriterionResult:
    got = tuple(series(art.short_trace, "D", 1, 16).y)
    return CriterionResult(2, "difference prefix D(1..16)", got == DIFF_FIRST_16,
                           f"got {list(got)}" if got != DIFF_FIRST_16 else "exact match")


def check_subsequence_prefixes(art: Artifacts) -> CriterionResult:
    odd = tuple(series(art.short_trace, "A", 1, 10).y)
    even = tuple(series(art.short_trace, "B", 1, 9).y)
    ok = odd == ODD_SUB_FIRST_10 and even == EVEN_SUB_FIRST_9
    return CriterionResult(3, "interleave prefixes A(1..10), B(1..9)", ok,
                           "exact match" if ok else f"odd={list(odd)} even={list(even)}")


def check_parity(art: Artifacts) -> CriterionResult:
    try:
        assert_all_odd(art.main_trace)
    except QseqError as exc:
        return CriterionResult(4, "parity of the first 1e7 values", False, str(exc))
    return CriterionResult(4, "parity of the first 1e7 values", True,
                           f"all {art.main_trace.len:,} values odd")


def check_identities(art: Artifacts) -> CriterionResult:
    bad = check_subsequence_identities(art.main_trace, 2, 10**6)
    ok = len(bad) == 0
    detail = "hold for every k in [2, 1e6]" if ok else f"violated at k={bad[:5].tolist()}..."
    return CriterionResult(5, "interleave identities", ok, detail)


def check_block_histograms(art: Artifacts) -> CriterionResult:
    h5 = block_report(art.freq_table, 5).histogram
    h6 = block_report(art.freq_table, 6).histogram
    ok = h5 == BLOCK_5_HISTOGRAM and h6 == BLOCK_6_HISTOGRAM
    return CriterionResult(6, "block histograms k=5 and k=6", ok,
                           "exact match" if ok else f"k5={h5} k6={h6}")


def check_dyadic_blocks(art: Artifacts) -> CriterionResult:
    problems = []
    for k in range(5, 16):
        rep = block_report(art.freq_table, k)
        if not rep.complete:
            problems.append(f"k={k} incomplete")
            continue
        deviations = check_dyadic_law(rep)
        if deviations:
            problems.append(f"k={k} deviates {deviations}")
        if rep.total != 2 ** (k + 2) - 1:
            problems.append(f"k={k} total {rep.total} != {2 ** (k + 2) - 1}")
    ok = not problems
    return CriterionResult(7, "dyadic frequency law k=5..15", ok,
                           "law, totals and averages exact" if ok else "; ".join(problems))


def check_peaks(art: Artifacts) -> CriterionResult:
    reports = peak_scan(art.freq_table, 5, 15)
    problems = []
    got = tuple(rep.peak_m for rep in reports[:7])
    if got != PEAKS_5_TO_11:
        problems.append(f"peaks k=5..11 are {list(got)}")
    for rep in reports:
        gap = abs(rep.peak_ratio - Fraction(4, 3))
        if gap > PEAK_RATIO_TOLERANCE:
            problems.append(f"k={rep.k} ratio {float(rep.peak_ratio):.4f}"
                            f" off 4/3 by {float(gap):.4f}")
        if rep.tie_count != 1:
            problems.append(f"k={rep.k} peak tied {rep.tie_count} ways")
    ok = not problems
    worst = max(abs(rep.peak_ratio - Fraction(4, 3)) for rep in reports)
    return CriterionResult(8, "frequency peak locations", ok,
                           f"peaks exact, max |ratio - 4/3| = {float(worst):.4f}" if ok
                           else "; ".join(problems))


def survivors(table: dict[SeedClass, tuple[SeedReport, ...]]) -> list[SeedReport]:
    """The reports of a survey table whose class is not a death."""
    deaths = (SeedClass.STRONG_DEATH, SeedClass.WEAK_DEATH)
    return [r for cls, reports in table.items() if cls not in deaths for r in reports]


def check_seed_table(art: Artifacts) -> CriterionResult:
    table = art.survey
    problems = []

    strong = {r.seed.values for r in table[SeedClass.STRONG_DEATH]}
    if strong != STRONG_DEATH_SEEDS:
        problems.append(f"strong-death set mismatch: {sorted(strong)}")
    for r in table[SeedClass.STRONG_DEATH]:
        if r.death_step != 5:
            problems.append(f"{r.seed} strong death at {r.death_step} != 5")

    weak = {r.seed.values: r.death_step for r in table[SeedClass.WEAK_DEATH]}
    if weak != WEAK_DEATH_STEPS:
        problems.append(f"weak deaths {weak}")

    for cls, expected in TABLE_GROUPS.items():
        got = {r.seed.values for r in table[cls]}
        if got != expected:
            problems.append(f"{cls.value} group {sorted(got)} != {sorted(expected)}")

    shifted = {r.seed.values: r.shift for r in table[SeedClass.SHIFTED_ORIGINAL]}
    if shifted.get((1, 3, 3)) != 2:
        problems.append(f"(1,3,3) shift {shifted.get((1, 3, 3))} != 2")

    ok = not problems
    return CriterionResult(9, "seed survey table", ok,
                           "all 27 classifications match" if ok else "; ".join(problems))


def check_growth(art: Artifacts) -> CriterionResult:
    reports = survivors(art.survey) + list(art.pair_reports.values())
    checked, failures = 0, []
    for rep in reports:
        if rep.classification is SeedClass.RAMP_ORBIT:
            continue
        checked += 1
        dev = abs(rep.growth2 - 1)
        if dev > GROWTH_TOLERANCE:
            failures.append(f"({rep.seed}) |2Q(H)/H - 1| = {float(dev):.6f}")
    ok = not failures
    detail = (f"{checked} long-lived seeds within 0.1 of the n/2 slope at H=1e6" if ok
              else f"{checked - len(failures)} of {checked} within 0.1; "
                   + "; ".join(failures) + " exceeds the stated bound")
    return CriterionResult(10, "survivor growth law", ok, detail)


def check_renorm_split(art: Artifacts) -> CriterionResult:
    k_hi = SURVEY_HORIZON // 4
    odd_max = max(map(abs, series(art.main_trace, "Rodd", 1, k_hi).y))
    even_max = max(map(abs, series(art.main_trace, "Reven", 1, k_hi).y))
    ordered = odd_max < even_max
    recorded = (odd_max, even_max) == RENORM_SPLIT_MAXIMA_250K
    ok = ordered and recorded
    detail = f"max|odd residual| = {odd_max} < max|even residual| = {even_max} (k <= {k_hi:,})"
    if not recorded:
        detail += f", expected {RENORM_SPLIT_MAXIMA_250K}"
    return CriterionResult(11, "renormalization parity split", ok, detail)


def check_performance(art: Artifacts) -> CriterionResult:
    title = "performance envelope (1e8 terms)"
    if art.probe_output is None:
        return CriterionResult(PERF_CRITERION, title, False,
                               f"probe exceeded {PROBE_TIMEOUT_S:.0f} s")
    returncode, stdout, stderr = art.probe_output
    if returncode != 0:
        return CriterionResult(PERF_CRITERION, title, False,
                               f"probe failed: {stderr.strip()[-200:]}")
    stats = json.loads(stdout)
    if stats["kernel"] != "native":
        return CriterionResult(PERF_CRITERION, title, False,
                               f"probe ran the Python fallback: {stats['reason']}")
    problems = []
    if stats["endpoint"] != ENDPOINT_1E8:
        problems.append(f"endpoint {stats['endpoint']} != {ENDPOINT_1E8}")
    if stats["seconds"] > TIME_BUDGET_SECONDS:
        problems.append(f"{stats['seconds']:.1f} s over budget")
    if stats["peak_mb"] > MEMORY_BUDGET_MB:
        problems.append(f"{stats['peak_mb']:.0f} MB over budget")
    ok = not problems
    detail = (f"{stats['seconds']:.1f} s, {stats['peak_mb']:.0f} MB peak "
              f"(budget {TIME_BUDGET_SECONDS:.0f} s / {MEMORY_BUDGET_MB:.0f} MB), endpoint verified")
    return CriterionResult(PERF_CRITERION, title, ok, detail if ok else "; ".join(problems))


def check_round_trip(art: Artifacts) -> CriterionResult:
    problems = []
    full = run(RecursionConfig(seed=Seed((1, 1)), horizon=10**6))
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "trace.qtr"
        second = Path(tmp) / "again.qtr"
        checkpoint.save(full, first)
        loaded = checkpoint.load(first)
        if loaded != full:
            problems.append("loaded trace differs from saved trace")
        checkpoint.save(loaded, second)
        if first.read_bytes() != second.read_bytes():
            problems.append("re-serialized bytes differ")
    short = run(RecursionConfig(seed=Seed((1, 1)), horizon=10**5))
    if extend(short, 10**6) != full:
        problems.append("extend(1e5 -> 1e6) differs from a fresh run")
    ok = not problems
    return CriterionResult(13, "checkpoint round-trip and resume", ok,
                           "save/load bit-identical, resume matches fresh run" if ok
                           else "; ".join(problems))


CRITERIA = (
    check_first_values,
    check_difference_prefix,
    check_subsequence_prefixes,
    check_parity,
    check_identities,
    check_block_histograms,
    check_dyadic_blocks,
    check_peaks,
    check_seed_table,
    check_growth,
    check_renorm_split,
    check_performance,
    check_round_trip,
)


def run_criteria(artifacts: Artifacts | None = None,
                 numbers: set[int] | None = None) -> list[CriterionResult]:
    """Run the selected checks (all thirteen by default), in order; criterion
    12's child, if selected, is started before them all, so that it runs
    beside them, and is killed if a check raises."""
    art = artifacts if artifacts is not None else Artifacts()
    try:
        if numbers is not None:
            unknown = set(numbers) - set(range(1, len(CRITERIA) + 1))
            if unknown:
                raise ConfigError(
                    f"unknown criterion numbers {sorted(unknown)};"
                    f" valid numbers are 1..{len(CRITERIA)}"
                )
        if numbers is None or PERF_CRITERION in numbers:
            art.start_probe()
        return [check(art) for index, check in enumerate(CRITERIA, start=1)
                if numbers is None or index in numbers]
    finally:
        art.stop_probe()


def format_report(results: list[CriterionResult]) -> str:
    lines = [res.line for res in results]
    passed = sum(res.passed for res in results)
    lines.append(f"{passed} of {len(results)} criteria passed")
    return "\n".join(lines)
