"""Seed survey: classification, merge/orbit detection, and the 27-seed table."""

import dataclasses
from fractions import Fraction

import pytest

import frozen_values as frozen
from qseq.cli import seed_row
from qseq.engine import Perturbation, RecursionConfig, Seed, Trace, run
from qseq.errors import ConfigError
from qseq.seedlab import (
    MAX_SHIFT,
    SeedClass,
    SeedReport,
    classify,
    detect_merge,
    detect_ramp_orbit,
    enumerate_seeds,
    table_report,
)
from qseq.verify import survivors

HORIZON = 10**6


def expected_class(seed, entry):
    death = entry["death"]
    if death is not None:
        step = death[0]
        return SeedClass.STRONG_DEATH if step <= len(seed) + 2 else SeedClass.WEAK_DEATH
    if entry["orbit"]:
        return SeedClass.RAMP_ORBIT
    merge = entry["merge"]
    if merge is None:
        return SeedClass.LONG_LIVED_IRREGULAR
    shift, n0 = merge
    if shift != 0:
        return SeedClass.SHIFTED_ORIGINAL
    return SeedClass.ORIGINAL if n0 == 1 else SeedClass.MERGES_INTO_ORIGINAL


@pytest.fixture(scope="module")
def survey(main_trace):
    return {
        seed: classify(Seed(seed), main_trace, horizon=HORIZON)
        for seed in frozen.SEED_SURVEY
    }


def test_survey_matches_frozen(survey):
    for seed, entry in frozen.SEED_SURVEY.items():
        report = survey[seed]
        assert report.classification is expected_class(seed, entry), seed
        death = entry["death"]
        if death is not None:
            step, t1_bad, t2_bad = death
            assert report.death_step == step, seed
            expected_bad = tuple(
                name for name, bad in (("t1", t1_bad), ("t2", t2_bad)) if bad
            )
            assert report.bad_indices == expected_bad, seed
            assert report.growth2 is None
        else:
            assert report.death_step is None
            assert report.growth2 == Fraction(*entry["growth2"]), seed
            merge = entry["merge"]
            if merge is None:
                assert report.shift is None and report.merge_index is None, seed
            else:
                assert (report.shift, report.merge_index) == merge, seed


def test_survivor_count(survey):
    alive = [
        s
        for s, r in survey.items()
        if r.classification
        not in (SeedClass.STRONG_DEATH, SeedClass.WEAK_DEATH)
    ]
    assert len(alive) == 12  # 10 of the 27 triples plus (1,1) and (2,1)


def test_two_entry_seeds_die_weakly(survey):
    for seed in [(1, 2), (2, 2)]:
        report = survey[seed]
        # step 5 is past seed_len + 2 = 4, so these deaths are weak
        assert report.classification is SeedClass.WEAK_DEATH
        assert report.death_step == 5


def test_report_rows(survey):
    assert seed_row(survey[(2, 2, 2)]) == (
        "seed 2,2,2 class strong_death death 5 bad t1 shift - merge_n - growth -")
    assert seed_row(survey[(1, 1, 2)]) == (
        "seed 1,1,2 class ramp_orbit death - bad - shift - merge_n - growth 1.000000")


def test_detect_merge_on_itself():
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=2 * 10**4))
    assert detect_merge(trace, trace) == (0, 1)


def test_detect_merge_shifted(main_trace):
    trace = run(RecursionConfig(seed=Seed((1, 3, 3)), horizon=10**5))
    assert detect_merge(trace, main_trace) == (2, 1)


@pytest.mark.parametrize("seed", [(2, 1, 1), (3, 1, 1)])
def test_detect_merge_after_start(main_trace, seed):
    trace = run(RecursionConfig(seed=Seed(seed), horizon=10**5))
    assert detect_merge(trace, main_trace) == (0, 2)


def test_detect_merge_none_for_irregular(main_trace):
    trace = run(RecursionConfig(seed=Seed((2, 1)), horizon=10**5))
    assert detect_merge(trace, main_trace) is None


@pytest.mark.parametrize("horizon,changed", [
    (2 * 10**4, 513), (2 * 10**4, 1000), (2 * 10**4, 1024), (3 * 10**4, 2 * 10**4),
], ids=["a-gallop-step-past", "inside-a-gallop-step", "a-gallop-step's-last-slot",
        "the-probe-window's-first-slot"])
def test_detect_merge_finds_a_merge_deep_in_the_window(horizon, changed):
    """The (1,1) trace with Q(changed) raised by 2 merges into itself from
    changed + 1.  The search gallops to the power of two past the merge
    (to 1024; to the window's end past 16384) and bisects back: to its
    first slot, inside it, to its last slot; and to 20001, the first slot
    of the trailing window a merge claim needs."""
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=horizon))
    values = memoryview(bytearray(trace.values)).cast(trace.config.dtype)
    values[changed] += 2
    forged = Trace(trace.config, values, trace.outcome)
    assert detect_merge(forged, trace) == (0, changed + 1)
    assert detect_merge(trace, forged) == (0, changed + 1)


def test_detect_merge_window_larger_than_overlap(main_trace):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    assert detect_merge(trace, main_trace) is None  # 100 terms < PROBE_WINDOW


def test_detect_ramp_orbit():
    trace = run(RecursionConfig(seed=Seed((1, 1, 2)), horizon=5000))
    assert detect_ramp_orbit(trace)


def test_detect_ramp_orbit_false_on_reference(short_trace):
    assert not detect_ramp_orbit(short_trace)


def test_detect_ramp_orbit_false_on_an_empty_window():
    """Up to Q(4) the window of m in [2, (len - 1) // 2] is empty, so even
    the ramp seed is not on the orbit; Q(5) = 2 puts it there."""
    ramp = RecursionConfig(seed=Seed((1, 1, 2)), horizon=4)
    assert not detect_ramp_orbit(run(ramp))
    assert detect_ramp_orbit(run(dataclasses.replace(ramp, horizon=5)))


@pytest.fixture(scope="module")
def references_by_width():
    """The (1,1) reference for a 10^5 survey, in 4- and in 8-byte slots."""
    return {width: run(RecursionConfig(seed=Seed((1, 1)), horizon=10**5 + MAX_SHIFT,
                                       width=width)) for width in (4, 8)}


@pytest.mark.parametrize("seed,cls", [
    ((1, 1, 1), SeedClass.ORIGINAL),
    ((2, 1, 1), SeedClass.MERGES_INTO_ORIGINAL),
    ((1, 3, 3), SeedClass.SHIFTED_ORIGINAL),
    ((1, 1, 2), SeedClass.RAMP_ORBIT),
    ((1, 3, 1), SeedClass.LONG_LIVED_IRREGULAR),
])
def test_classify_compares_values_across_slot_widths(references_by_width, seed, cls):
    """A seed's 4-byte run against an 8-byte reference gives the report it
    gives against a 4-byte one: the survey compares values, not bytes."""
    narrow, wide = (classify(Seed(seed), references_by_width[width], horizon=10**5)
                    for width in (4, 8))
    assert narrow.classification is cls
    assert wide == narrow


def test_enumerate_seeds():
    pairs = enumerate_seeds(2, 3)
    assert len(pairs) == 9
    assert pairs[0].values == (1, 1)
    assert pairs[-1].values == (3, 3)
    triples = enumerate_seeds(3, 3)
    assert len(triples) == 27
    assert [s.values for s in triples] == sorted(s.values for s in triples)


def test_enumerate_seeds_validation():
    with pytest.raises(ConfigError):
        enumerate_seeds(4, 3)
    with pytest.raises(ConfigError):
        enumerate_seeds(2, 0)


def test_classify_requires_matching_reference(main_trace, short_trace):
    other = run(RecursionConfig(seed=Seed((2, 1)), horizon=5000))
    with pytest.raises(ConfigError):
        classify(Seed((1, 1, 2)), other, horizon=1000)
    classical = run(
        RecursionConfig(seed=Seed((1, 1)), horizon=5000, perturbation=Perturbation.NONE)
    )
    # a classical reference classifies the seed under the classical recursion
    assert classify(Seed((1, 1, 2)), classical, horizon=1000) == SeedReport(
        Seed((1, 1, 2)), SeedClass.LONG_LIVED_IRREGULAR, 1000, growth2=Fraction(251, 250))
    with pytest.raises(ConfigError):
        classify(Seed((1, 1, 2)), short_trace, horizon=short_trace.len)


def test_table_report_grouping(survey):
    reports = [survey[s] for s in survey if len(s) == 3]
    table = table_report(reports)
    seeds = {cls: [r.seed.values for r in group] for cls, group in table.items()}
    assert list(seeds) == list(SeedClass)
    assert seeds[SeedClass.ORIGINAL] == [(1, 1, 1)]
    assert seeds[SeedClass.MERGES_INTO_ORIGINAL] == [(2, 1, 1), (3, 1, 1)]
    assert seeds[SeedClass.SHIFTED_ORIGINAL] == [(1, 3, 3)]
    assert seeds[SeedClass.RAMP_ORBIT] == [(1, 1, 2)]
    assert seeds[SeedClass.LONG_LIVED_IRREGULAR] == [
        (1, 3, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 1, 2)]
    assert len(seeds[SeedClass.STRONG_DEATH]) == 14
    assert seeds[SeedClass.WEAK_DEATH] == [(1, 2, 1), (1, 2, 3), (3, 2, 1)]
    assert [r.seed.values for r in survivors(table)] == [
        s for cls in list(SeedClass)[:5] for s in seeds[cls]]


def test_table_report_requires_full_survey(survey):
    reports = [survey[s] for s in survey if len(s) == 3]
    with pytest.raises(ConfigError):
        table_report(reports[:-1])
    with pytest.raises(ConfigError):
        table_report(reports + [survey[(1, 1)]])


def test_table_report_requires_deep_horizon(survey):
    reports = [survey[s] for s in survey if len(s) == 3]
    reports[5] = dataclasses.replace(reports[5], horizon=10**4)
    with pytest.raises(ConfigError):
        table_report(reports)
