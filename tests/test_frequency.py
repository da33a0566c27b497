"""Frequency tables, dyadic block reports, the counting law, and peaks."""

import os
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import frozen_values as frozen
import oracle
from qseq import checkpoint, engine, frequency
from qseq.engine import Outcome, Perturbation, RecursionConfig, Seed, Trace, run
from qseq.errors import (
    ConfigError,
    CountOverflowError,
    ParityError,
    RangeError,
    SaturationError,
)
from qseq.frequency import (
    block_report,
    build_frequency,
    check_dyadic_law,
    law_prediction,
    peak_scan,
)


def test_small_m_counts(freq_table):
    assert freq_table.counts[1:9].tolist() == frozen.F_SMALL_M
    assert (freq_table.late_counts[1] == 0) == (frozen.LAST_OCC_1 <= freq_table.n_max // 2)


def test_conservation(freq_table):
    total = int(np.asarray(freq_table.counts).sum(dtype=np.int64))
    assert frozen.FREQ_CONSERVED
    assert freq_table.overflow_count == frozen.FREQ_OVERFLOW
    assert total + freq_table.overflow_count == freq_table.n_max


def test_late_counts_are_part_of_the_counts(freq_table):
    counts = np.asarray(freq_table.counts)
    late = np.asarray(freq_table.late_counts)
    assert len(late) == len(counts)
    assert np.all(late <= counts)
    late_total = int(late.sum(dtype=np.int64))
    assert 0 < late_total <= freq_table.n_max - freq_table.n_max // 2


def test_arrays_are_read_only(freq_table):
    assert freq_table.counts.readonly
    assert freq_table.late_counts.readonly


@pytest.fixture(scope="module")
def trace_1e5():
    """The first 10^5 terms of main_trace: a run is prefix-identical."""
    return run(RecursionConfig(seed=Seed((1, 1)), horizon=10**5))


def late_counts(q, n_max, m_cap):
    """The oracle's counts over Q(n_max//2 + 1..n_max), of its values q."""
    h = n_max // 2
    return oracle.frequency(q[h:], n_max - h, m_cap)[0]


def test_matches_oracle_at_1e5(trace_1e5):
    n_max, m_cap = 10**5, 10**4
    table = build_frequency(trace_1e5, m_cap=m_cap)
    q, death = oracle.naive_run((1, 1), n_max)
    assert death is None
    exp_counts, exp_last, exp_overflow = oracle.frequency(q, n_max, m_cap)
    assert table.counts[1:].tolist() == exp_counts[1:]
    assert table.late_counts[1:].tolist() == late_counts(q, n_max, m_cap)[1:]
    # the oracle's own rule: a bin has no late count iff its last occurrence
    # is in the first half
    assert [c == 0 for c in table.late_counts[1:]] == [n <= n_max // 2 for n in exp_last[1:]]
    assert table.overflow_count == exp_overflow


def test_counter_through_each_kernel(trace_1e5, kernel):
    n_max = 10**5
    table = build_frequency(trace_1e5)
    q, _ = oracle.naive_run((1, 1), n_max)
    exp_counts, _, exp_overflow = oracle.frequency(q, n_max, n_max // 2)
    assert table.m_cap == n_max // 2
    assert table.counts[1:].tolist() == exp_counts[1:]
    assert table.late_counts[1:].tolist() == late_counts(q, n_max, n_max // 2)[1:]
    assert table.overflow_count == exp_overflow


def test_small_m_cap_overflows_but_conserves(short_trace):
    table = build_frequency(short_trace, m_cap=50)
    assert table.overflow_count > 0
    total = int(np.asarray(table.counts).sum(dtype=np.int64))
    assert total + table.overflow_count == short_trace.len


PIECE = 7  # a piece of slots (4998, 5005] straddles 10_001 // 2


def stored_as(trace, stored, tmp_path):
    """trace itself, in run's anonymous mapping, or saved to a checkpoint and
    loaded, its values then mapped from the file."""
    if stored == "anonymous":
        return trace
    checkpoint.save(trace, tmp_path / "trace.qtr")
    return checkpoint.load(tmp_path / "trace.qtr")


def writable(trace):
    """The slots of a trace run into anonymous memory, to forge in place."""
    return memoryview(trace.values.obj).cast(trace.config.dtype)


def tables_by_piece(monkeypatch, trace, **kwargs):
    """build_frequency's outcome in one piece, then in pieces of PIECE slots:
    the table, or the message of the error raised."""
    outcomes = []
    for piece in (trace.len, PIECE):
        monkeypatch.setattr(engine, "PIECE", piece)
        try:
            table = build_frequency(trace, **kwargs)
        except (ParityError, CountOverflowError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((table.counts.tobytes(), table.late_counts.tobytes(),
                             table.overflow_count))
    return outcomes


@pytest.mark.parametrize("stored", ["anonymous", "loaded"])
def test_a_table_counted_in_pieces_is_the_table_of_one_count(tmp_path, monkeypatch, kernel,
                                                             stored):
    """build_frequency counts each piece into both tables, the late one
    only past n_max // 2, and gives the piece's pages back: the table,
    overflow tally included, is the one count's (m_cap 2000 bins some late
    values and tallies others), and the trace still reads its values and a
    zero in slot 0 (at width 8, slot 0 overlays the stored seed entry 1)."""
    config = RecursionConfig(seed=Seed((1, 1)), horizon=10_001, width=8)
    trace = stored_as(run(config), stored, tmp_path)
    whole, pieces = tables_by_piece(monkeypatch, trace, m_cap=2000)
    assert pieces == whole
    assert any(whole[1]) and whole[2] > 0  # late counts and an overflow tally
    assert trace.values[0] == 0
    assert trace == run(config)


@pytest.mark.parametrize("stored", ["anonymous", "loaded"])
@pytest.mark.parametrize("n", [3001, 8002], ids=["first-half", "second-half"])
def test_pieces_raise_the_parity_error_of_one_count(tmp_path, monkeypatch, kernel, stored, n):
    """An even value forged in a later piece, in either half, is named by
    its own index, in pieces as in one count."""
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=10_001))
    writable(trace)[n] = even = 2 * trace.values[n]
    trace = stored_as(trace, stored, tmp_path)
    assert tables_by_piece(monkeypatch, trace) == [(ParityError, f"even value Q({n})={even}")] * 2


@pytest.mark.parametrize("stored", ["anonymous", "loaded"])
def test_pieces_raise_the_count_overflow_of_one_count(tmp_path, monkeypatch, kernel, stored):
    """Q(3..600) = 3 fills bin m = 2 past 255 at n = 258, in the 37th piece."""
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=600))
    writable(trace)[3:] = array("I", [3] * 598)
    trace = stored_as(trace, stored, tmp_path)
    assert tables_by_piece(monkeypatch, trace) == [
        (CountOverflowError, "count slot for m=2 passed 255")] * 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_build_frequency_raises_the_peak_by_its_two_tables_only():
    """In a fresh interpreter, counting 10^7 values raises the peak RSS by
    at most 10 MiB: two 1-byte tables of 5·10^6 bins, of which only the
    bins the values reach (m up to about n_max/4) are ever written."""
    code = ("from qseq.engine import RecursionConfig, Seed, run\n"
            "from qseq.frequency import build_frequency\n"
            "def status(key):\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith(key):\n"
            "            return int(line.split()[1]) * 1024\n"
            "trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=10**7))\n"
            "before = status('VmRSS:')\n"
            "table = build_frequency(trace)\n"
            "print(status('VmHWM:') - before, table.n_max)")
    env = dict(os.environ, PYTHONPATH=str(Path(frequency.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    growth, n_max = map(int, out.stdout.split())
    assert n_max == 10**7
    assert growth <= 10 << 20, f"{growth / 2**20:.1f} MB"


@pytest.mark.parametrize("k", sorted(frozen.BLOCKS_1E7))
def test_blocks_match_frozen(freq_table, k):
    expected = frozen.BLOCKS_1E7[k]
    rep = block_report(freq_table, k)
    assert rep.histogram == expected["histogram"]
    assert rep.total == expected["total"]
    assert rep.peak_m == expected["peak_m"]
    assert rep.peak_count == expected["peak_count"]
    assert rep.tie_count == expected["ties"]
    assert rep.complete == expected["complete"]


def test_law_prediction_matches_oracle():
    for k in range(0, 22):
        assert law_prediction(k) == oracle.law_prediction(k)


def test_frozen_law_verdicts_are_plain_histogram_comparison():
    for k, expected in frozen.BLOCKS_1E7.items():
        assert expected["law_ok"] == (expected["histogram"] == law_prediction(k))


def test_law_holds_on_complete_blocks(freq_table):
    for k in range(1, 20):
        assert check_dyadic_law(block_report(freq_table, k)) == {}, f"k={k}"


def test_first_block_is_complete_but_off_law(freq_table):
    rep = block_report(freq_table, 0)
    assert rep.complete
    assert check_dyadic_law(rep) == {2: (0, 1)}


@pytest.mark.parametrize("k", [20, 21])
def test_law_check_refuses_incomplete_blocks(freq_table, k):
    rep = block_report(freq_table, k)
    assert not rep.complete
    with pytest.raises(SaturationError):
        check_dyadic_law(rep)


def test_block_average_matches_law_exactly(freq_table):
    # total 2^{k+2} - 1, so the average is 4 - 2^{-k}; exact at k=0 as
    # well, even though the histogram is off
    for k in range(0, 20):
        assert block_report(freq_table, k).total == 2 ** (k + 2) - 1


def test_block_totals_and_ratio_properties(freq_table):
    rep = block_report(freq_table, 7)
    assert rep.average == Fraction(rep.total, 128)
    assert rep.peak_ratio == Fraction(rep.peak_m, 128)


def test_peak_scan_positions_and_ratios(freq_table):
    peaks = peak_scan(freq_table, 5, 15)
    assert [p.peak_m for p in peaks] == [frozen.BLOCKS_1E7[k]["peak_m"] for k in range(5, 16)]
    tolerance = Fraction(11, 1000)
    for p in peaks:
        assert p.tie_count == 1
        assert abs(p.peak_ratio - Fraction(4, 3)) <= tolerance, f"k={p.k}: ratio={p.peak_ratio}"


def test_peak_scan_refuses_incomplete_blocks(freq_table):
    with pytest.raises(SaturationError):
        peak_scan(freq_table, 5, 20)


def test_peak_scan_rejects_empty_range(freq_table):
    with pytest.raises(ConfigError):
        peak_scan(freq_table, 7, 5)


def test_block_beyond_m_cap(freq_table, short_trace):
    with pytest.raises(RangeError):
        block_report(freq_table, 22)  # reaches m = 2^23 - 1 > n_max / 2
    small = build_frequency(short_trace, m_cap=50)
    with pytest.raises(RangeError):
        block_report(small, 5)  # reaches m = 63 > 50


def test_negative_block_index(freq_table):
    with pytest.raises(ConfigError):
        block_report(freq_table, -1)


def test_build_rejects_bad_ranges(short_trace):
    with pytest.raises(ConfigError):
        build_frequency(short_trace, m_cap=0)


def test_classical_values_are_rejected(classical_trace, kernel):
    with pytest.raises(ParityError, match="even value"):
        build_frequency(classical_trace)


def constant_one_trace(length):
    config = RecursionConfig(seed=Seed((1, 1)), horizon=length)
    values = np.ones(length + 1, dtype=config.dtype)
    values[0] = 0
    return Trace(config, values, Outcome.alive())


def test_count_slots_refuse_to_wrap(kernel):
    assert build_frequency(constant_one_trace(255)).counts[1] == 255
    with pytest.raises(CountOverflowError, match="m=1"):
        build_frequency(constant_one_trace(600))
