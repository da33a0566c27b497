"""Acceptance gate: the thirteen reproducibility criteria, one test each.

Each test prints the criterion's pass/fail line and asserts it passed,
so `pytest -v` reads as a checklist.  The checks themselves live in
qseq.verify and are shared with the `qseq verify` CLI verb.

Criterion 10 is expected to fail and the failure is intentional: seed
(3,1,2) sits at |2Q(H)/H - 1| = 0.100914 at H = 1e6, just outside the
stated 0.1 bound.  Both the production engine and the independent naive
oracle agree on the value, so the honest result is red.
"""

import json

import frozen_values as frozen
import oracle
from qseq import _native, verify
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
    verify.perf_probe(1000)
    stats = json.loads(capsys.readouterr().out)
    if kernel is _native.compiled:
        assert (stats["kernel"], stats["endpoint"]) == ("native", oracle.naive_q_at((1, 1), 1000))
    else:
        assert stats == {"kernel": "python", "reason": "no compiler"}


def test_criterion_13_checkpoint_round_trip(artifacts):
    report(check_round_trip(artifacts))


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
    assert verify.SURVIVOR_SEEDS == survivors

    groups = verify.TABLE_GROUPS
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
