"""Acceptance gate: the thirteen reproducibility criteria, one test each.

Each test prints the criterion's pass/fail line and asserts it passed,
so `pytest -v` reads as a checklist.  The checks themselves live in
qseq.verify and are shared with the `qseq verify` CLI verb.

Criterion 10 is expected to fail and the failure is intentional: seed
(3,1,2) sits at |2Q(H)/H - 1| = 0.100914 at H = 1e6, just outside the
stated 0.1 bound.  Both the production engine and the independent naive
oracle agree on the value, so the honest result is red.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import frozen_values as frozen
import oracle
import pytest
from qseq import _native, checkpoint, perfprobe, verify
from qseq.cli import EXIT_CONFIG, EXIT_OK, main
from qseq.engine import RecursionConfig, Seed, Trace, extend, run
from qseq.seedlab import SeedClass
from qseq.verify import (
    check_block_histograms,
    check_difference_prefix,
    check_dyadic_blocks,
    check_first_values,
    check_growth,
    check_identities,
    check_parity,
    check_peaks,
    check_performance,
    check_renorm_split,
    check_round_trip,
    check_seed_table,
    check_subsequence_prefixes,
)


def report(result):
    print(result.line)
    assert result.passed, result.line


def test_criterion_01_first_twenty_values(artifacts):
    report(check_first_values(artifacts))


def test_criterion_02_difference_prefix(artifacts):
    report(check_difference_prefix(artifacts))


def test_criterion_03_interleave_prefixes(artifacts):
    report(check_subsequence_prefixes(artifacts))


def test_criterion_04_all_values_odd(artifacts):
    report(check_parity(artifacts))


def test_criterion_05_interleave_identities(artifacts):
    report(check_identities(artifacts))


def test_criterion_06_block_histograms(artifacts):
    report(check_block_histograms(artifacts))


def test_criterion_07_dyadic_frequency_law(artifacts):
    report(check_dyadic_blocks(artifacts))


def test_criterion_08_peak_locations(artifacts):
    report(check_peaks(artifacts))


def test_criterion_09_seed_survey_table(artifacts):
    report(check_seed_table(artifacts))


def test_criterion_10_survivor_growth_law(artifacts):
    # expected to fail: see the module docstring and the sibling test below
    report(check_growth(artifacts))


def test_criterion_11_renorm_parity_split(artifacts):
    report(check_renorm_split(artifacts))


def test_criterion_12_performance_envelope(artifacts):
    report(check_performance(artifacts))


def test_perf_probe_names_its_kernel(kernel, monkeypatch, capsys):
    """Criterion 12's probe, run in process: it times the C kernel; with the
    twin bound it says so and why, instead of timing the twin."""
    monkeypatch.setattr(_native, "reason", "no compiler")
    perfprobe.perf_probe(1000)
    stats = json.loads(capsys.readouterr().out)
    if kernel is _native.compiled:
        assert (stats["kernel"], stats["endpoint"]) == ("native", oracle.naive_q_at((1, 1), 1000))
    else:
        assert stats == {"kernel": "python", "reason": "no compiler"}


PROBE_BESIDE_BALLAST = """
from qseq.perfprobe import start_probe
ballast = b"x" * (300 << 20)  # written, so resident
child, _ = start_probe(10**5)
print(child.communicate(timeout=120)[0], end="")
"""


@pytest.mark.skipif(_native.compiled is None, reason="the probe times only the C kernel")
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_the_probe_reports_its_own_peak_not_its_parents():
    """A parent holding 300 MB starts the probe: the child reports its own
    peak, not the parent's that Linux carries across exec in ru_maxrss."""
    env = dict(os.environ, PYTHONPATH=str(Path(perfprobe.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", PROBE_BESIDE_BALLAST], env=env,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    stats = json.loads(out.stdout)
    assert stats["kernel"] == "native"
    assert 0 < stats["peak_mb"] < 100


class FakeProbe:
    """Criterion 12's child, played in process: it prints a passing probe
    line, or, with ``hang`` set, runs past any deadline until killed."""

    hang = False

    def __init__(self, args, **kwargs):
        self.args, self.returncode, self.killed = args, None, False

    def communicate(self, timeout=None):
        assert self.returncode is None, "the probe's pipes were read and closed"
        if self.hang and not self.killed:
            raise subprocess.TimeoutExpired(self.args, timeout)
        self.returncode = -9 if self.killed else 0
        return json.dumps({"kernel": "native", "endpoint": verify.ENDPOINT_1E8,
                           "seconds": 0.5, "peak_mb": 415.0}), ""

    def kill(self):
        self.killed = True


@pytest.fixture
def probes(monkeypatch):
    """Every child started from here on, in order, as a FakeProbe."""
    started = []

    def popen(args, **kwargs):
        started.append(FakeProbe(args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


def test_verify_starts_no_probe_unless_criterion_12_is_selected(probes, capsys):
    assert main(["verify", "--only", "1..3"]) == EXIT_OK
    assert probes == []
    capsys.readouterr()


def test_verify_starts_no_probe_for_an_unknown_criterion(probes, capsys):
    """qseq verify starts criterion 12's child once and collects it; a
    selection that names an unknown criterion is refused before any child
    starts."""
    assert main(["verify", "--only", "12"]) == EXIT_OK
    assert len(probes) == 1 and probes[0].returncode == 0
    assert "criterion 12 [PASS]" in capsys.readouterr().out
    assert main(["verify", "--only", "12,99"]) == EXIT_CONFIG
    assert len(probes) == 1
    assert "unknown criterion numbers [99]" in capsys.readouterr().err


def test_probe_starts_first_and_is_killed_when_a_check_raises(probes, monkeypatch):
    def failing(art):
        assert len(probes) == 1 and probes[0].returncode is None  # already running
        raise RuntimeError("check broke")

    monkeypatch.setattr(verify, "CRITERIA", (failing, *verify.CRITERIA[1:]))
    with pytest.raises(RuntimeError, match="check broke"):
        verify.run_criteria(verify.Artifacts())
    assert probes[0].args[-1].endswith(f"perf_probe({verify.PERF_HORIZON})")
    assert probes[0].killed and probes[0].returncode is not None  # killed and reaped


def test_check_performance_twice_gives_one_result(probes):
    art = verify.Artifacts()
    (first,) = verify.run_criteria(art, {12})
    assert first.passed, first.line
    assert check_performance(art) == check_performance(art) == first
    assert len(probes) == 1


def test_probe_past_its_deadline_is_killed(probes, monkeypatch):
    monkeypatch.setattr(FakeProbe, "hang", True)
    art = verify.Artifacts()
    (result,) = verify.run_criteria(art, {12})
    assert not result.passed
    assert result.detail == f"probe exceeded {verify.PROBE_TIMEOUT_S:.0f} s"
    assert probes[0].killed and probes[0].returncode is not None
    assert check_performance(art) == result and len(probes) == 1


def probed(returncode=0, stderr="", **stats):
    """check_performance on a probe that printed a passing line changed by
    stats, with returncode and stderr."""
    art = verify.Artifacts()
    line = {"kernel": "native", "endpoint": verify.ENDPOINT_1E8, "seconds": 0.5,
            "peak_mb": 415.0, **stats}
    art.__dict__["probe_output"] = (returncode, json.dumps(line), stderr)
    return check_performance(art)


@pytest.mark.parametrize("probe,detail", [
    (dict(returncode=1, stderr="Traceback (most recent call last):\n  ...\nMemoryError\n"),
     "probe failed: Traceback (most recent call last):\n  ...\nMemoryError"),
    (dict(kernel="python", reason="KernelBuildError: gcc exited with 1: no"),
     "probe ran the Python fallback: KernelBuildError: gcc exited with 1: no"),
    (dict(endpoint=verify.ENDPOINT_1E8 + 2),
     f"endpoint {verify.ENDPOINT_1E8 + 2} != {verify.ENDPOINT_1E8}"),
    (dict(seconds=verify.TIME_BUDGET_SECONDS + 0.25),
     f"{verify.TIME_BUDGET_SECONDS + 0.25:.1f} s over budget"),
    (dict(peak_mb=verify.MEMORY_BUDGET_MB + 1),
     f"{verify.MEMORY_BUDGET_MB + 1:.0f} MB over budget"),
], ids=["nonzero-exit", "the-twin", "wrong-endpoint", "over-time", "over-memory"])
def test_criterion_12_fails_on_each_bad_probe(probe, detail):
    """Each way criterion 12's child can fail its check, the check says so."""
    result = probed(**probe)
    assert not result.passed and result.detail == detail
    assert probed().passed


def test_criterion_13_checkpoint_round_trip(artifacts):
    report(check_round_trip(artifacts))


def with_values(trace, changes):
    """The trace with Q(n) = v for each n: v of changes, in memory."""
    values = memoryview(bytearray(trace.values)).cast(trace.config.dtype)
    for n, v in changes.items():
        values[n] = v
    return Trace(trace.config, values, trace.outcome)


def one_value_changed(trace, n=1000):
    """The trace with Q(n) raised by 2, in memory."""
    return with_values(trace, {n: trace.values[n] + 2})


def test_criterion_13_fails_when_load_changes_a_value(artifacts, monkeypatch):
    """A load that returns one changed value fails the comparison, and the
    second save, which writes what load returned, writes other bytes."""
    load = checkpoint.load
    monkeypatch.setattr(checkpoint, "load", lambda path: one_value_changed(load(path)))
    result = check_round_trip(artifacts)
    assert "[FAIL]" in result.line
    assert result.detail == "loaded trace differs from saved trace; re-serialized bytes differ"


def test_criterion_13_fails_when_the_second_save_writes_other_bytes(artifacts, monkeypatch):
    """A second save whose file differs by one byte: the load compared
    equal, so the bytes alone tell."""
    save, saved = checkpoint.save, []

    def save_then_flip(trace, path):
        result = save(trace, path)
        saved.append(path)
        if len(saved) == 2:
            data = bytearray(Path(path).read_bytes())
            data[-1] ^= 1
            Path(path).write_bytes(data)
        return result

    monkeypatch.setattr(checkpoint, "save", save_then_flip)
    result = check_round_trip(artifacts)
    assert "[FAIL]" in result.line
    assert result.detail == "re-serialized bytes differ"
    assert [Path(p).name for p in saved] == ["trace.qtr", "again.qtr"]


def test_criterion_13_fails_when_extend_differs_from_a_fresh_run(artifacts, monkeypatch):
    monkeypatch.setattr(verify, "extend",
                        lambda trace, horizon: one_value_changed(extend(trace, horizon)))
    result = check_round_trip(artifacts)
    assert "[FAIL]" in result.line
    assert result.detail == "extend(1e5 -> 1e6) differs from a fresh run"


def forged(**inputs):
    """Artifacts whose cached inputs are the forged objects given, by name."""
    art = verify.Artifacts()
    art.__dict__.update(inputs)
    return art


def with_counts(table, field, changes):
    """The frequency table with its counts or late_counts (field) set to
    count c at m for each m: c of changes."""
    counts = bytearray(getattr(table, field))
    for m, c in changes.items():
        counts[m] = c
    return dataclasses.replace(table, **{field: memoryview(counts).toreadonly()})


@pytest.mark.parametrize("check,detail", [
    (check_first_values, "got [1, 1, 1, 3, 3, 3, 7, 5, 5, 7, 5, 9, 7, 9, 7, 11, 9, 11, 11, 11]"),
    (check_difference_prefix, "got [0, 0, 2, 0, 0, 4, -2, 0, 2, -2, 4, -2, 2, -2, 4, -2]"),
    (check_subsequence_prefixes,
     "odd=[1, 1, 3, 7, 5, 5, 7, 7, 9, 11] even=[1, 3, 3, 5, 7, 9, 9, 11, 11]"),
], ids=["01", "02", "03"])
def test_criteria_01_to_03_fail_on_one_value_raised(short_trace, check, detail):
    """Q(7) = 5 raised to 7: the value itself, D(6) and D(7) around it, and
    A(4) = Q(7) of the odd subsequence."""
    result = check(forged(short_trace=one_value_changed(short_trace, 7)))
    assert not result.passed
    assert result.detail == detail


def test_criterion_04_fails_on_an_even_value():
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000))
    result = check_parity(forged(main_trace=with_values(trace, {777: 400})))
    assert not result.passed
    assert result.detail == "even value Q(777)=400"


def test_criterion_05_fails_on_one_value_raised():
    """Q(1001) raised by 2 breaks the identities of every k that reads it:
    the detail names the first five."""
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=2 * 10**6))
    result = check_identities(forged(main_trace=one_value_changed(trace, 1001)))
    assert not result.passed
    assert result.detail == "violated at k=[501, 502, 926, 927, 1087]..."


def test_criterion_06_fails_on_a_block_5_count_raised(freq_table):
    """m = 32 seen 4 times instead of 3: block 5's histogram moves one m
    from count 3 to count 4, and block 6's stays."""
    assert freq_table.counts[32] == 3
    result = check_block_histograms(forged(freq_table=with_counts(freq_table, "counts",
                                                                  {32: 4})))
    assert not result.passed
    assert result.detail == ("k5={3: 15, 4: 9, 5: 4, 6: 2, 7: 1, 8: 1}"
                             " k6={3: 32, 4: 16, 5: 8, 6: 4, 7: 2, 8: 1, 9: 1}")


@pytest.mark.parametrize("changes,detail", [
    ({1024: 4, 1029: 4}, "k=10 deviates {3: (511, 512), 4: (258, 256), 5: (127, 128)}"),
    ({1024: 4}, "k=10 deviates {3: (511, 512), 4: (257, 256)}; k=10 total 4096 != 4095"),
], ids=["count-moved", "count-raised"])
def test_criterion_07_fails_on_a_block_10_count_changed(freq_table, changes, detail):
    """Block 10's m = 1024 (count 3) and 1029 (count 5) both set to 4 keep
    the block's total, so the law alone fails; m = 1024 alone raised to 4
    also adds one to the total."""
    assert (freq_table.counts[1024], freq_table.counts[1029]) == (3, 5)
    result = check_dyadic_blocks(forged(freq_table=with_counts(freq_table, "counts", changes)))
    assert not result.passed
    assert result.detail == detail


def test_criterion_07_fails_on_a_block_made_incomplete(freq_table):
    """A value of block k=10 seen once more after n_max/2 leaves the block
    open, so its law is not checked."""
    result = check_dyadic_blocks(forged(freq_table=with_counts(freq_table, "late_counts",
                                                               {1500: 1})))
    assert not result.passed
    assert result.detail == "k=10 incomplete"


def test_criterion_08_fails_on_a_tied_peak(freq_table):
    """The m after block 9's peak raised to the peak's count: the first
    peak and its ratio stay, the tie alone fails."""
    peak = verify.PEAKS_5_TO_11[4]
    table = with_counts(freq_table, "counts", {peak + 1: freq_table.counts[peak]})
    result = check_peaks(forged(freq_table=table))
    assert not result.passed
    assert result.detail == "k=9 peak tied 2 ways"


@pytest.mark.parametrize("changes,detail", [
    ({2732: 15}, "peaks k=5..11 are [43, 86, 171, 342, 683, 1366, 2732]"),
    ({4096: 16}, "k=12 ratio 1.0000 off 4/3 by 0.3333"),
], ids=["peak-moved", "ratio-off"])
def test_criterion_08_fails_on_a_peak_moved(freq_table, changes, detail):
    """Block 11's peak moved one m up, to 2732, stays within the ratio's
    tolerance, so only the peak list fails; block 12's moved to its first
    m, 4096, is past the list but its ratio is 1."""
    assert (freq_table.counts[2731], freq_table.counts[5462]) == (14, 15)
    result = check_peaks(forged(freq_table=with_counts(freq_table, "counts", changes)))
    assert not result.passed
    assert result.detail == detail


def test_criterion_09_fails_on_one_seed_reclassified(artifacts):
    """(1,3,3) filed as original instead of shifted by 2."""
    table = dict(artifacts.survey)
    (shifted,) = table[SeedClass.SHIFTED_ORIGINAL]
    table[SeedClass.SHIFTED_ORIGINAL] = ()
    table[SeedClass.ORIGINAL] += (dataclasses.replace(shifted, classification=SeedClass.ORIGINAL,
                                                      shift=None),)
    result = check_seed_table(forged(survey=table))
    assert not result.passed
    assert result.detail == ("original group [(1, 1, 1), (1, 3, 3)] != [(1, 1, 1)];"
                             " shifted_original group [] != [(1, 3, 3)];"
                             " (1,3,3) shift None != 2")


def test_criterion_09_fails_on_a_strong_death_filed_as_weak(artifacts):
    """(3,3,3), dead at step 5, filed as a weak death: it leaves the
    strong-death set and joins the weak deaths."""
    table = dict(artifacts.survey)
    *strong, last = table[SeedClass.STRONG_DEATH]
    table[SeedClass.STRONG_DEATH] = tuple(strong)
    table[SeedClass.WEAK_DEATH] += (dataclasses.replace(last,
                                                        classification=SeedClass.WEAK_DEATH),)
    result = check_seed_table(forged(survey=table))
    assert not result.passed
    assert result.detail == (
        "strong-death set mismatch: [(1, 1, 3), (1, 2, 2), (1, 3, 2), (2, 1, 3), (2, 2, 2),"
        " (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 1, 3), (3, 2, 2), (3, 2, 3), (3, 3, 1),"
        " (3, 3, 2)]; weak deaths {(1, 2, 1): 41, (1, 2, 3): 7, (3, 2, 1): 6, (3, 3, 3): 5}")


def test_criterion_09_fails_on_a_strong_death_past_step_5(artifacts):
    table = dict(artifacts.survey)
    first, *strong = table[SeedClass.STRONG_DEATH]
    table[SeedClass.STRONG_DEATH] = (dataclasses.replace(first, death_step=6), *strong)
    result = check_seed_table(forged(survey=table))
    assert not result.passed
    assert result.detail == "1,1,3 strong death at 6 != 5"


@pytest.mark.parametrize("residual", [4001, 70001])
def test_criterion_11_fails_on_one_odd_residual_raised(residual):
    """Rodd(200000) = Q(799998) - 2Q(399999) forged to residual in a 10^6
    trace: past the recorded maximum, then past the even one too.  No even
    residual reads Q(799998) for k <= 250,000."""
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=10**6))
    q = with_values(trace, {799_998: 2 * trace.values[399_999] + residual})
    result = check_renorm_split(forged(main_trace=q))
    assert not result.passed
    assert result.detail == (f"max|odd residual| = {residual} < max|even residual| = 64857"
                             " (k <= 250,000), expected (3387, 64857)")


def test_growth_failure_is_exactly_the_known_edge_case(artifacts):
    """Pin the criterion-10 failure to the single (3,1,2) outlier.

    The frozen oracle survey puts 2Q(1e6)/1e6 for (3,1,2) at
    1100914/1000000, i.e. 0.100914 past the slope - barely outside the
    0.1 tolerance.  Every other long-lived seed is comfortably inside.
    If this test fails, the engine has drifted; if criterion 10 ever
    starts passing, the tolerance handling has been loosened.
    """
    result = check_growth(artifacts)
    assert not result.passed
    assert "(3,1,2)" in result.detail
    assert "0.100914" in result.detail

    tolerance = verify.GROWTH_TOLERANCE
    for rep in verify.survivors(artifacts.survey) + list(artifacts.pair_reports.values()):
        if rep.classification is SeedClass.RAMP_ORBIT:
            continue
        deviation = abs(rep.growth2 - 1)
        if rep.seed.values == (3, 1, 2):
            assert deviation > tolerance
        else:
            assert deviation <= tolerance, rep.seed


def test_expectations_match_frozen_oracle():
    """The inline expectations in qseq.verify must agree with the values
    frozen from the independent oracle; neither side may drift alone."""
    q = frozen.FIRST_20_SEED_11
    assert verify.FIRST_20 == tuple(q)
    assert verify.DIFF_FIRST_16 == tuple(q[n] - q[n - 1] for n in range(1, 17))
    assert verify.ODD_SUB_FIRST_10 == tuple(q[2 * k - 2] for k in range(1, 11))
    assert verify.EVEN_SUB_FIRST_9 == tuple(q[2 * k - 1] for k in range(1, 10))

    assert verify.BLOCK_5_HISTOGRAM == frozen.BLOCKS_1E7[5]["histogram"]
    assert verify.BLOCK_6_HISTOGRAM == frozen.BLOCKS_1E7[6]["histogram"]
    assert verify.PEAKS_5_TO_11 == tuple(
        frozen.BLOCKS_1E7[k]["peak_m"] for k in range(5, 12)
    )
    assert verify.RENORM_SPLIT_MAXIMA_250K == frozen.RENORM_SPLIT_MAX_K_250000
    assert verify.ENDPOINT_1E8 == frozen.Q_AT_1E8

    triples = {s: e for s, e in frozen.SEED_SURVEY.items() if len(s) == 3}
    strong = {s for s, e in triples.items() if e["death"] and e["death"][0] <= 5}
    weak = {s: e["death"][0] for s, e in triples.items()
            if e["death"] and e["death"][0] > 5}
    survivors = {s for s, e in triples.items() if e["death"] is None}
    assert verify.STRONG_DEATH_SEEDS == strong
    assert verify.WEAK_DEATH_STEPS == weak

    groups = verify.TABLE_GROUPS
    assert set(groups) == set(SeedClass) - {SeedClass.STRONG_DEATH, SeedClass.WEAK_DEATH}
    assert set().union(*groups.values()) == survivors
    assert groups[SeedClass.RAMP_ORBIT] == {
        s for s, e in triples.items() if e["death"] is None and e["orbit"]
    }
    assert groups[SeedClass.ORIGINAL] == {
        s for s, e in triples.items() if e["death"] is None and e.get("merge") == (0, 1)
    }
    assert groups[SeedClass.MERGES_INTO_ORIGINAL] == {
        s for s, e in triples.items()
        if e["death"] is None and e.get("merge") not in (None, (0, 1))
        and e["merge"][0] == 0
    }
    assert groups[SeedClass.SHIFTED_ORIGINAL] == {
        s for s, e in triples.items()
        if e["death"] is None and e.get("merge") is not None and e["merge"][0] != 0
    }
    assert groups[SeedClass.LONG_LIVED_IRREGULAR] == {
        s for s, e in triples.items()
        if e["death"] is None and not e["orbit"] and e["merge"] is None
    }
