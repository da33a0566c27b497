"""Diagnostics against the naive oracle and the frozen large-scale values."""

import math

import numpy as np
import pytest

import frozen_values as frozen
import oracle
from qseq import diagnostics
from qseq.diagnostics import (
    SERIES_CODES,
    assert_all_odd,
    check_subsequence_identities,
    log_grid,
    selfsim_profile,
    series,
    series_window,
)
from qseq.errors import ConfigError, ParityError, RangeError


@pytest.fixture(scope="module")
def oracle_values(short_trace):
    q, death = oracle.naive_run((1, 1), short_trace.len)
    assert death is None
    return q


def test_series_range_checks(short_trace):
    for code in SERIES_CODES:
        if code == "G":  # a log grid, no index window
            continue
        lo, hi = series_window(short_trace.len, code)
        with pytest.raises(RangeError):
            series(short_trace, code, lo - 1, lo)
        with pytest.raises(RangeError):
            series(short_trace, code, hi, hi + 1)


def test_every_series_matches_oracle(short_trace, oracle_values):
    q = oracle_values
    L = short_trace.len
    expected = {
        "E": lambda n: 2 * q[n] - n,
        "S": lambda n: oracle.safety(q, n),
        "D": lambda n: oracle.difference(q, n),
        "t1": lambda n: oracle.clocks(q, n)[0],
        "t2": lambda n: oracle.clocks(q, n)[1],
        "R": lambda n: oracle.renorm(q, n),
        "Rodd": lambda k: oracle.renorm_split(q, k)[0],
        "Reven": lambda k: oracle.renorm_split(q, k)[1],
        "A": lambda k: oracle.subseq_a(q, k),
        "B": lambda k: oracle.subseq_b(q, k),
        "a": lambda k: oracle.subseq_a(q, k) - k,
        "b": lambda k: oracle.subseq_b(q, k) - k,
        "s": lambda k: oracle.subseq_a(q, k) + oracle.subseq_b(q, k) - 2 * k,
        "d": lambda k: oracle.subseq_b(q, k) - oracle.subseq_a(q, k),
    }
    for code, fn in expected.items():
        lo, hi = series_window(short_trace.len, code)
        ser = series(short_trace, code)
        assert ser.x[0] == lo and ser.x[-1] == hi
        naive = [fn(n) for n in range(lo, hi + 1)]
        assert ser.y.tolist() == naive, f"series {code}"


def test_series_flags_and_errors(short_trace):
    assert series(short_trace, "E").halves
    assert not series(short_trace, "D").halves
    with pytest.raises(ConfigError):
        series(short_trace, "Z")
    with pytest.raises(RangeError):
        series(short_trace, "D", 1, short_trace.len)
    with pytest.raises(RangeError):
        series(short_trace, "S", 2, 10)
    sub = series(short_trace, "E", 10, 20)
    assert sub.x.tolist() == list(range(10, 20 + 1))
    assert len(sub) == 11


def test_difference_prefix_matches_known_values(short_trace):
    assert series(short_trace, "D", 1, 16).y.tolist() == [
        0, 0, 2, 0, 0, 2, 0, 0, 2, -2, 4, -2, 2, -2, 4, -2,
    ]


def test_interleave_prefixes_match_known_values(short_trace):
    assert series(short_trace, "A", 1, 10).y.tolist() == [1, 1, 3, 5, 5, 5, 7, 7, 9, 11]
    assert series(short_trace, "B", 1, 9).y.tolist() == [1, 3, 3, 5, 7, 9, 9, 11, 11]


def test_parity_guard(short_trace, classical_trace):
    assert_all_odd(short_trace)
    with pytest.raises(ParityError):
        assert_all_odd(classical_trace)


def test_parity_guard_names_the_first_even_value_across_blocks(short_trace, monkeypatch):
    from qseq.engine import Trace

    values = np.array(short_trace.values)
    values[[4321, 4500]] += 1
    trace = Trace(short_trace.config, values, short_trace.outcome)
    monkeypatch.setattr(diagnostics, "_BLOCK", 7)
    with pytest.raises(ParityError, match=rf"^even value Q\(4321\)={values[4321]}$"):
        assert_all_odd(trace)
    with pytest.raises(ParityError):
        assert_all_odd(trace, 4321)
    assert_all_odd(trace, 4320)


@pytest.mark.parametrize("ends", ["below", "above"])
def test_parity_guard_refuses_an_n_max_outside_the_trace(kernel, classical_trace, ends):
    """On either kernel, n_max in [0, len] checks Q(1..n_max), none of them
    at 0; one past either end is a RangeError, which the CLI maps to its
    exit code, rather than a check of fewer values or of the wrong ones."""
    n_max = {"below": -1, "above": classical_trace.len + 1}[ends]
    with pytest.raises(RangeError, match=rf"^n_max={n_max} outside \[0, {classical_trace.len}\]$"):
        assert_all_odd(classical_trace, n_max)
    assert_all_odd(classical_trace, 0)
    with pytest.raises(ParityError):
        assert_all_odd(classical_trace, classical_trace.len)


def test_identities_hold_and_match_oracle(short_trace, oracle_values):
    assert len(check_subsequence_identities(short_trace)) == 0
    assert oracle.identity_violations(oracle_values, 2, short_trace.len // 2) == []
    with pytest.raises(RangeError):
        check_subsequence_identities(short_trace, 2, short_trace.len)
    with pytest.raises(RangeError):
        check_subsequence_identities(short_trace, 1, 10)


@pytest.mark.parametrize("even_at,raises", [(2001, False), (2000, True)],
                         ids=["past-2k_hi", "at-2k_hi"])
def test_identities_need_odd_values_only_up_to_twice_k_hi(short_trace, even_at, raises):
    from qseq.engine import Trace

    k_hi = 1000
    values = np.array(short_trace.values)
    values[even_at] += 1
    trace = Trace(short_trace.config, values, short_trace.outcome)
    if raises:
        with pytest.raises(ParityError, match=rf"^even value Q\({even_at}\)="):
            check_subsequence_identities(trace, 2, k_hi)
    else:
        prefix = values[: 2 * k_hi + 1].tolist()
        assert check_subsequence_identities(trace, 2, k_hi).tolist() == (
            oracle.identity_violations(prefix, 2, k_hi))


def test_identities_catch_a_corrupted_trace(short_trace):
    from qseq.engine import Trace

    tampered = np.array(short_trace.values)
    tampered[100] += 2  # keep parity, break the recursion
    broken = Trace(short_trace.config, tampered, short_trace.outcome)
    assert len(check_subsequence_identities(broken)) > 0


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("forge", [{}, {100: 2}, {3001: 8000}],
                         ids=["intact", "inner-violation", "index-out-of-range"])
def test_identities_in_blocks_match_one_pass(short_trace, monkeypatch, forge, block):
    from qseq.engine import Trace

    values = np.array(short_trace.values)
    for n, delta in forge.items():
        values[n] += delta  # even deltas keep every value odd
    trace = Trace(short_trace.config, values, short_trace.outcome)
    whole = check_subsequence_identities(trace, 2, 2500)  # one block
    monkeypatch.setattr(diagnostics, "_BLOCK", block)
    blocked = check_subsequence_identities(trace, 2, 2500)
    assert blocked.tolist() == whole.tolist()
    assert (len(whole) == 0) == (not forge)
    if 3001 not in forge:  # the oracle reads a negative index from the end
        assert whole.tolist() == oracle.identity_violations(values.tolist(), 2, 2500)
    else:
        assert 1501 in whole.tolist()


def test_selfsim_profile_shapes(short_trace):
    prof0 = selfsim_profile(short_trace, 0)
    assert len(prof0) == short_trace.len
    assert prof0.halves
    assert prof0.y.tolist() == series(short_trace, "E").y.tolist()
    prof1 = selfsim_profile(short_trace, 1)
    count = short_trace.len // 2
    assert prof1.x[1] == pytest.approx(2 / count)
    assert prof1.y[1] == 2  # doubled residual at n=4: 2*3 - 4
    window = selfsim_profile(short_trace, 1, 2, 5)
    assert window.x.tolist() == prof1.x[1:5].tolist()
    assert window.y.tolist() == prof1.y[1:5].tolist()
    for lo, hi in ((0, 5), (5, 4), (count, count + 1)):
        with pytest.raises(RangeError):
            selfsim_profile(short_trace, 1, lo, hi)
    with pytest.raises(RangeError):
        selfsim_profile(short_trace, 40)
    with pytest.raises(ConfigError):
        selfsim_profile(short_trace, -1)


def test_log_profile_grid(short_trace):
    prof = series(short_trace, "G", samples_per_octave=8)
    assert prof.halves
    assert prof.x[0] == 0.0
    assert prof.y[0] == 1  # 2*Q(1) - 1
    assert (np.diff(prof.x) > 0).all()
    assert prof.x[-1] <= np.log2(short_trace.len)
    with pytest.raises(ConfigError):
        series(short_trace, "G", samples_per_octave=0)


def test_log_grid_matches_numpys_rounding():
    """The pure-Python grid, round(2.0 ** x) clipped to [1, length], is the
    grid NumPy's clip(rint(exp2(x))) gave, at every density up to 256 and at
    lengths from 2 to 10^9: a shorter grid is a prefix of the 10^9 one."""
    for spo in range(1, 257):
        x = np.arange(math.floor(spo * math.log2(10**9)) + 1, dtype=np.float64) / spo
        want = x.tolist(), np.clip(np.rint(np.exp2(x)).astype(np.int64), 1, 10**9).tolist()
        for length in (2, 3, 1000, 10**9):
            got = log_grid(length, spo)
            rows = math.floor(spo * math.log2(length)) + 1
            assert got == (want[0][:rows], want[1][:rows]), (spo, length)


def test_an_empty_domain_names_the_horizon_it_needs(short_trace):
    from qseq.engine import Trace

    for code, length, need in (("S", 2, 3), ("D", 1, 2), ("Rodd", 3, 4), ("R", 1, 2)):
        trace = Trace(short_trace.config, short_trace.values[: length + 1], short_trace.outcome)
        with pytest.raises(RangeError, match=rf"^series {code} needs horizon >= {need},"
                                             rf" have {length}$"):
            series(trace, code)
        trace = Trace(short_trace.config, short_trace.values[: need + 1], short_trace.outcome)
        assert len(series(trace, code)) == 1


def test_frozen_clock_deviation(main_trace):
    t1 = series(main_trace, "t1")
    t2 = series(main_trace, "t2")
    dev1 = int(np.abs(2 * np.asarray(t1.y) - np.asarray(t1.x)).max())
    dev2 = int(np.abs(2 * np.asarray(t2.y) - np.asarray(t2.x)).max())
    assert (dev1, dev2) == frozen.MAX_CLOCK_DEV2_1E7


def test_frozen_renorm_split_maxima(main_trace):
    for k_hi, expected in ((10**6, frozen.RENORM_SPLIT_MAX_K_1E6),
                           (250000, frozen.RENORM_SPLIT_MAX_K_250000)):
        odd = int(np.abs(series(main_trace, "Rodd", 1, k_hi).y).max())
        even = int(np.abs(series(main_trace, "Reven", 1, k_hi).y).max())
        assert (odd, even) == expected


def test_frozen_fluctuation(main_trace):
    assert series(main_trace, "E", 10**6, 10**6).y[0] == frozen.FLUCT2_AT_1E6


def test_frozen_difference_summary(main_trace):
    d = np.asarray(series(main_trace, "D").y)
    summary = frozen.D_SUMMARY_1E7
    assert len(d) == summary["count"]
    assert int(d.min()) == summary["min"]
    assert int(d.max()) == summary["max"]
    assert bool((d % 2 == 0).all()) == summary["all_even"]
    for value, count in summary["small"].items():
        assert int((d == value).sum()) == count
    assert int((np.abs(d) > 1000).sum()) == summary["beyond_1000"]


def test_frozen_identity_sweep(main_trace):
    bad = check_subsequence_identities(main_trace, 2, 10**5)
    assert bad.tolist() == frozen.IDENTITY_VIOLATIONS_2_1E5


def test_frozen_safety_minimum(main_trace):
    s = series(main_trace, "S", 100, 10**7)
    x, y = np.asarray(s.x), np.asarray(s.y)
    idx = int((y / x).argmin())
    num, den = frozen.MIN_SAFETY_RATIO
    arg_n, s_min = frozen.MIN_SAFETY_ARG
    assert int(x[idx]) == arg_n
    assert int(y[idx]) == s_min
    assert s_min * den == num * arg_n  # same exact ratio
    assert (y > 0).all()  # the safety margin never closes


def test_series_codes_cover_cli_surface():
    assert set(SERIES_CODES) == {
        "E", "S", "D", "t1", "t2", "R", "Rodd", "Reven", "A", "B", "a", "b", "s", "d", "G",
    }
