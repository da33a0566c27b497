"""One contract, two kernels: the C kernel and its pure-Python twin.

Each test runs once per kernel (the ``kernel`` fixture) and compares what
that kernel returns with what the C kernel returns for the same input:
results, status codes, the buffers it writes, and its ValueErrors.
``test_advance_matches_the_twin`` turns this round: the twin's one step at
a time is the reference for the C loop's paired steps.
"""

import json
import mmap
import platform
import random
import re
import zlib
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from qseq import _native, _pykernel, checkpoint, diagnostics, perfprobe, verify
from qseq._native import ST_COUNT_OVERFLOW, ST_DEATH, ST_OK, ST_OVERFLOW, ST_PARITY
from qseq.cli import EXIT_OK, main
from qseq.engine import RecursionConfig, Seed, run

C = _native.compiled
CAPS = {4: 2**32 - 1, 8: 2**63 - 1}


def same_error(c_error):
    """pytest.raises for the ValueError the C kernel raised, message and all."""
    return pytest.raises(ValueError, match=f"^{re.escape(str(c_error.value))}$")


def advance(module, seed, horizon, width=4, perturbed=True):
    """One advance call on a fresh value buffer: (result, the buffer's values)."""
    q = np.zeros(horizon + 1, dtype=f"<u{width}")
    q[1 : len(seed) + 1] = seed
    result = module.advance(q, len(seed) + 1, perturbed)
    return result, q.tolist()


@pytest.mark.parametrize("seed,horizon,width,perturbed,status", [
    ((1, 1), 2000, 4, True, ST_OK),
    ((1, 1), 2000, 8, False, ST_OK),
    ((2, 2, 2), 100, 4, True, ST_DEATH),
    ((1, 2, 1), 100, 4, True, ST_DEATH),
    ((2**31, 2**31 + 1, 3, 4), 5, 4, True, ST_OVERFLOW),
], ids=["live", "live-classical-wide", "strong-death", "weak-death", "overflow"])
def test_advance_agrees(kernel, seed, horizon, width, perturbed, status):
    got = advance(kernel, seed, horizon, width, perturbed)
    assert got == advance(C, seed, horizon, width, perturbed)
    assert got[0][0] == status


def read_only(buffer):
    return memoryview(buffer).toreadonly()


@pytest.mark.parametrize("buffer,start,rest", [
    (lambda: np.zeros(10, dtype=np.uint16), 3, (True,)),
    (lambda: np.zeros(10, dtype=np.uint32), 0, (True,)),
    (lambda: np.zeros(10, dtype=np.uint32), 1, (True,)),
    (lambda: np.zeros(10, dtype=np.uint32), 11, (True,)),
    (lambda: np.array([0, 1, 2**63, 0], dtype=np.uint64), 3, (True,)),
    (lambda: np.array([0, 1, 2**64 - 1, 0], dtype=np.uint64), 3, (True,)),
    (lambda: read_only(np.array([0, 1, 1, 0, 0], dtype=np.uint32)), 3, (True,)),
    (lambda: np.zeros(20, dtype=np.uint32)[::2], 3, (True,)),
    (lambda: np.array([0, 1, 1, 0, 0], dtype=np.uint32), 3, (True, "not callable", 2)),
    (lambda: np.array([0, 1, 1, 0, 0], dtype=np.uint32), 3, (True, print, 0)),
    (lambda: np.array([0, 1, 1, 0, 0], dtype=np.uint32), 3, (True, print)),
], ids=["two-byte-items", "start-0", "start-1", "start-past-horizon", "8-byte-seed-at-2**63",
        "8-byte-seed-past-2**63", "read-only-values", "strided-values", "on_chunk-not-callable",
        "chunk-0", "on_chunk-without-chunk"])
def test_advance_errors_agree(kernel, buffer, start, rest):
    """Both kernels refuse the same input with the same message, before any
    read: an 8-byte value before start past 2^63 - 1 would otherwise run as
    a negative number in C and as itself in the twin."""
    with pytest.raises(ValueError) as c_error:
        C.advance(buffer(), start, *rest)
    got = buffer()
    with same_error(c_error):
        kernel.advance(got, start, *rest)
    assert np.asarray(got).tolist() == np.asarray(buffer()).tolist()


@pytest.mark.parametrize("entry,args", [
    ("advance", lambda: (np.array([0, 1, 1, 0, 0], dtype=np.uint32), 3.0, True)),
    ("advance", lambda: (np.array([0, 1, 1, 0, 0], dtype=np.uint32), 3, True, print, 2.0)),
    ("linear_series", lambda: (ones(9), 1.0, flat(()), 0, np.zeros(3, dtype=np.int64))),
    ("linear_series", lambda: (ones(9), 1, flat(()), 0.5, np.zeros(3, dtype=np.int64))),
    ("linear_series", lambda: (ones(9), 1, flat(()), 0, np.zeros(3), 2.0)),
    ("interleave_violations", lambda: (ones(9), 2.0, np.zeros(3, dtype=np.int64))),
], ids=["float-start", "float-chunk", "float-lo", "float-slope", "float-den", "float-k_lo"])
def test_a_float_for_an_integer_argument_is_refused_alike(kernel, entry, args):
    """An integer argument is read as C's "L" format reads it, so a float is
    the same TypeError in both kernels, before any write: a start of 3.0
    is otherwise a valid start."""
    with pytest.raises(TypeError) as c_error:
        getattr(C, entry)(*args())
    got = args()
    with pytest.raises(TypeError, match=f"^{re.escape(str(c_error.value))}$"):
        getattr(kernel, entry)(*got)
    assert [np.asarray(a).tolist() for a in got] == [np.asarray(a).tolist() for a in args()]


def forged(slot, value):
    """The first 14 values of the live run, Q(slot) replaced by value: a
    prefix to resume at step 15 from."""
    prefix = list(verify.FIRST_20[:14])
    prefix[slot - 1] = value
    return tuple(prefix)


# Seeds of lengths 2..8 (prefixes of the live run), so the loop starts at
# both parities; the bundled weak deaths at an even and an odd step; seeds
# forged at the slot's own cap ("top", and "top-k" k below it), whose next
# value passes that cap at the first step, even (4) or odd (5), or inside
# the pair loop, at an even (6) or an odd (7) step; and two live prefixes
# with Q(11) or Q(12) forged 5 below the cap, to resume at step 15.
# Perturbed, the first step that reads the forged slot, 22 or 23, passes
# the cap; unperturbed, the step that reads it writes the cap itself, and
# step 22 or 23 dies, its Q(n-1) - Q(n-3) being neither 0 nor 2.  Both
# stops fall on predicted steps of the pair loop, 7 or 8 steps past start.
TWIN_SEEDS = [verify.FIRST_20[:k] for k in range(2, 9)] + [
    (3, 2, 1), (1, 2, 3),
    ("top-1", 2, 3), ("top", 2, 3, 4), (1, "top-1", 2, 4), (1, "top-1", 1, 3, 5),
    forged(11, "top-5"), forged(12, "top-5")]
# Stops some seed must reach, perturbed or not.
TWIN_STOPS = {(3, 2, 1): {(ST_DEATH, 6)}, (1, 2, 3): {(ST_DEATH, 7)},
              ("top-1", 2, 3): {(ST_OVERFLOW, 4)}, ("top", 2, 3, 4): {(ST_OVERFLOW, 5)},
              (1, "top-1", 2, 4): {(ST_OVERFLOW, 6)}, (1, "top-1", 1, 3, 5): {(ST_OVERFLOW, 7)},
              forged(11, "top-5"): {(ST_OVERFLOW, 22), (ST_DEATH, 22)},
              forged(12, "top-5"): {(ST_OVERFLOW, 23), (ST_DEATH, 23)}}
UNTOUCHED = 0xDEADBEE  # fills the slots past the seed, in both widths


def seed_values(seed, width):
    """The seed's values in width-byte slots: "top-k" is k below the slot's
    cap, "top" the cap itself."""
    return tuple(CAPS[width] - int(v[4:] or 0) if isinstance(v, str) else v for v in seed)


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("seed", TWIN_SEEDS, ids=lambda seed: ",".join(map(str, seed)))
def test_advance_matches_the_twin(seed, width):
    """The C loop, entry and exit steps included, writes what the twin
    writes, stops where and how it stops, and leaves the rest untouched,
    the slot past the buffer it is given too."""
    start, stops = len(seed) + 1, set()
    for horizon in (start - 1, start, start + 1, start + 2, 1000):
        for perturbed in (True, False):
            q = np.full(horizon + 2, UNTOUCHED, dtype=f"<u{width}")
            q[:start] = (0, *seed_values(seed, width))
            want, got = q.copy(), q.copy()
            result = C.advance(got[:-1], start, perturbed)
            assert result == _pykernel.advance(want[:-1], start, perturbed)
            assert got.tolist() == want.tolist(), (horizon, perturbed)
            assert got[-1] == UNTOUCHED
            stops.add(result[:2])
    assert TWIN_STOPS.get(seed, set()) <= stops


# (seed, horizon, width, start, chunk): a run resumed at start from the
# prefix of a one-pass run, as extend resumes one.  Seed (1,3,2,2) dies at
# step 719.
CHUNK_CASES = {
    "death-inside-the-first-chunk": ((1, 3, 2, 2), 2000, 4, 5, 1024),
    "death-at-a-boundary": ((1, 3, 2, 2), 2000, 4, 5, 719),
    "death-just-past-a-boundary": ((1, 3, 2, 2), 2000, 4, 5, 718),
    "horizon-a-multiple": ((1, 1), 2048, 4, 3, 256),
    "last-slot-a-multiple-minus-one": ((1, 1), 2047, 4, 3, 256),
    "horizon-a-multiple-plus-one": ((1, 1), 2049, 4, 3, 256),
    "resumed-mid-chunk": ((1, 1), 3000, 4, 1000, 256),
    "resumed-at-a-boundary": ((1, 1), 3000, 4, 1024, 256),
    "resumed-just-past-a-boundary": ((1, 1), 3000, 4, 1025, 256),
    "8-byte-slots": ((3, 1, 2), 3000, 8, 4, 256),
    "odd-chunk": ((1, 1), 1000, 4, 3, 7),
    "every-step": ((1, 1), 100, 4, 3, 1),
}


def report_ends(start: int, stop: int, chunk: int) -> list[int]:
    """The ends advance reports with on_chunk, chunk, from start: each
    multiple of chunk in [start, stop)."""
    return [end for end in range(chunk, stop, chunk) if end >= start]


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_advance_reports_each_chunk_and_writes_what_one_pass_writes(kernel, case):
    """on_chunk(end) is called at each multiple of chunk in [start, stop),
    stop being the step that stopped the run or else the horizon, just after
    slot end is written; the run writes what one pass writes and leaves the
    slots from its stop on untouched."""
    seed, horizon, width, start, chunk = CHUNK_CASES[case]
    one_pass = np.zeros(horizon + 1, dtype=f"<u{width}")
    one_pass[1 : len(seed) + 1] = seed
    result = C.advance(one_pass, len(seed) + 1, True)
    stop = result[1] if result[0] != ST_OK else horizon + 1
    q = np.full(horizon + 1, UNTOUCHED, dtype=f"<u{width}")
    q[:start] = one_pass[:start]
    ends = []

    def on_chunk(end):
        assert q[: end + 1].tolist() == one_pass[: end + 1].tolist()
        assert set(q[end + 1 :].tolist()) <= {UNTOUCHED}
        ends.append(end)

    assert kernel.advance(q, start, True, on_chunk, chunk) == result
    assert ends == report_ends(start, min(stop, horizon), chunk)
    assert q[:stop].tolist() == one_pass[:stop].tolist()
    assert set(q[stop:].tolist()) <= {UNTOUCHED}


@settings(deadline=None, max_examples=300, derandomize=True)
@given(seed=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6),
       horizon=st.integers(min_value=2, max_value=120), width=st.sampled_from([4, 8]),
       perturbed=st.booleans(), chunk=st.none() | st.integers(1, 5), data=st.data())
def test_advance_resumed_anywhere_matches_the_twin(seed, horizon, width, perturbed, chunk, data):
    """Resumed at any start of a one-pass prefix, and called back at every
    chunk of 1..5 steps, so that each sub-call's entry steps fall at every
    offset of the pair loop, the C loop writes what the twin writes, slot
    for slot, stops where and how it stops, and calls back at the same ends,
    the multiples of chunk in [start, stop).  Small seeds reach the loop's
    fallback step and die early."""
    horizon = max(horizon, len(seed))
    one_pass = np.full(horizon + 1, UNTOUCHED, dtype=f"<u{width}")
    one_pass[: len(seed) + 1] = (0, *seed)
    result = _pykernel.advance(one_pass, len(seed) + 1, perturbed)
    stop = result[1] if result[0] != ST_OK else horizon + 1
    start = data.draw(st.sampled_from(range(len(seed) + 1, stop + 1)), label="start")
    runs = []
    for module in (C, _pykernel):
        q = np.full(horizon + 1, UNTOUCHED, dtype=f"<u{width}")
        q[:start] = one_pass[:start]
        ends = []
        callback = () if chunk is None else (ends.append, chunk)
        runs.append((module.advance(q, start, perturbed, *callback), q.tolist(), ends))
    assert runs[0] == runs[1]
    assert runs[0][0] == result
    assert runs[0][2] == ([] if chunk is None else report_ends(start, min(stop, horizon), chunk))


@pytest.mark.parametrize("width", [4, 8])
def test_an_exception_at_a_chunk_boundary_stops_advance(kernel, width):
    """What on_chunk raises (KeyboardInterrupt, as Ctrl-C raises there) is
    raised: the slots up to the boundary are written, none past it.  A C
    callable serves as on_chunk too."""
    seed = (1, 1)
    q = np.full(3001, UNTOUCHED, dtype=f"<u{width}")
    q[: len(seed) + 1] = (0, *seed)
    one_pass = q.copy()
    C.advance(one_pass, len(seed) + 1, True)

    def on_chunk(end):
        if end == 1024:
            raise KeyboardInterrupt(end)

    with pytest.raises(KeyboardInterrupt, match="^1024$"):
        kernel.advance(q, len(seed) + 1, True, on_chunk, 256)
    assert q[:1025].tolist() == one_pass[:1025].tolist()
    assert set(q[1025:].tolist()) == {UNTOUCHED}
    with pytest.raises(TypeError):  # list.insert needs two arguments
        kernel.advance(q, 1025, True, [].insert, 256)
    assert set(q[1281:].tolist()) == {UNTOUCHED}


def count(module, values, n_max, m_cap):
    """One count_values call over Q(1..n_max) on fresh slots for bins
    0..m_cap: (result, counts)."""
    counts = np.zeros(m_cap + 1, dtype=np.uint8)
    result = module.count_values(values[: n_max + 1], counts)
    return result, counts.tolist()


def ones(length):
    values = np.ones(length + 1, dtype=np.uint32)
    values[0] = 0
    return values


@pytest.mark.parametrize("case,status", [
    ("tally", ST_OK), ("classical", ST_PARITY), ("600-ones", ST_COUNT_OVERFLOW),
])
def test_count_values_agrees(kernel, short_trace, classical_trace, case, status):
    values, n_max, m_cap = {
        "tally": (short_trace.values, 5000, 50),
        "classical": (classical_trace.values, 5000, 2500),
        "600-ones": (ones(600), 600, 300),
    }[case]
    got = count(kernel, values, n_max, m_cap)
    assert got == count(C, values, n_max, m_cap)
    assert got[0][0] == status
    if case == "tally":  # conservation: the overflow tally holds the rest
        assert got[0][1] > 0 and sum(got[1]) + got[0][1] == n_max


@pytest.mark.parametrize("slots", [
    lambda: np.zeros(11, dtype=np.uint16),
    lambda: read_only(np.zeros(11, dtype=np.uint8)),
], ids=["wide-counts", "read-only-counts"])
def test_count_values_errors_agree(kernel, slots):
    """Both kernels refuse the same slots with the same message, before any write."""
    with pytest.raises(ValueError) as c_error:
        C.count_values(ones(20), slots())
    got = slots()
    with same_error(c_error):
        kernel.count_values(ones(20), got)
    assert got.tolist() == slots().tolist()


@pytest.mark.parametrize("width", [4, 8])
def test_count_values_of_a_tail_view_skips_its_slot_zero(kernel, short_trace, width):
    """values[h:] counts Q(h+1..n_max): its slot 0, Q(h), is skipped like
    any value buffer's, as build_frequency's second count relies on."""
    values = np.asarray(short_trace.values).astype(f"<u{width}")
    n_max, h, m_cap = short_trace.len, short_trace.len // 2, short_trace.len // 4
    got = count(kernel, values[h:], n_max - h, m_cap)
    assert got == count(C, values[h:], n_max - h, m_cap)
    expected = [0] * (m_cap + 1)
    for v in values[h + 1 : n_max + 1].tolist():
        if (v + 1) // 2 <= m_cap:
            expected[(v + 1) // 2] += 1
    assert got == ((ST_OK, n_max - h - sum(expected)), expected)


def flat(terms):
    """The triples (c, m, a) one after another, as linear_series takes them."""
    return np.array(terms, dtype=np.int64).reshape(-1)


def evaluate(module, values, lo, hi, terms, slope, dtype=np.int64, den=()):
    """One linear_series call for n in [lo, hi], into fresh slots padded past
    the rows with UNTOUCHED: the slots' values, as a list."""
    rows = max(hi - lo + 1, 0)
    out = np.full(rows + 2, UNTOUCHED, dtype=dtype)
    assert module.linear_series(values, lo, flat(terms), slope, out[:rows], *den) is None
    return out.tolist()


def short(trace):
    return trace.values


def short_wide(trace):
    return np.asarray(trace.values).astype(np.uint64)


def near_2_63(_):
    return np.array([0, 2**63 - 1, 2**63 - 1], dtype=np.uint64)


SERIES_CASES = {  # (values of the short trace, lo, hi, terms, slope, out dtype, den)
    "E": (short, 1, 5000, ((2, 1, 0),), -1, np.int64, ()),
    "D-window": (short, 17, 333, ((1, 1, 1), (-1, 1, 0)), 0, np.int64, ()),
    "Rodd-8-byte": (short_wide, 1, 1250, ((1, 4, -2), (-2, 2, -1)), 0, np.int64, ()),
    "selfsim-k5": (short, 2, 156, ((2, 32, 0),), -32, np.int64, ()),
    "n-itself": (short, 3, 40, (), 1, np.int64, ()),
    "x-over-count": (short, 1, 625, (), 1, np.float64, (625,)),
    "float-y-over-7": (short, 1, 99, ((3, 1, 0),), -5, np.float64, (7,)),
    "one-row": (short, 4999, 4999, ((1, 1, 1),), 0, np.int64, ()),
    "eight-terms": (short, 1, 99, tuple((k, 1, k - 4) for k in range(5, 13)), 3, np.int64, ()),
    "no-rows": (short, 11, 10, ((1, 1, 0),), 0, np.int64, ()),
    "wraps-modulo-2**64": (near_2_63, 1, 2, ((2, 1, 0), (1, 0, 1)), 2**62, np.int64, ()),
}


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_linear_series_agrees(kernel, short_trace, case):
    """The same rows from both kernels, and nothing written past them; an
    int64 series is the formula itself, modulo 2^64, evaluated here in Python."""
    values, *call = SERIES_CASES[case]
    values = values(short_trace)
    got = evaluate(kernel, values, *call)
    assert got == evaluate(C, values, *call)
    lo, hi, terms, slope, dtype, den = call
    rows = max(hi - lo + 1, 0)
    assert got[rows:] == [UNTOUCHED] * 2
    if dtype is np.int64:
        q = values.tolist()
        assert got[:rows] == [
            (slope * n + sum(c * q[m * n + a] for c, m, a in terms) + 2**63) % 2**64 - 2**63
            for n in range(lo, hi + 1)]


@pytest.mark.parametrize("values,lo,terms,out,den", [
    (np.zeros(10, dtype=np.uint16), 1, flat(()), lambda: np.zeros(3, dtype=np.int64), ()),
    (ones(9), 1, flat(()), lambda: np.zeros(3, dtype=np.int32), ()),
    (ones(9), 1, flat(()), lambda: np.zeros(3, dtype=np.uint64), ()),
    (ones(9), 1, flat(()), lambda: np.zeros(8, dtype=np.int64)[::2], ()),
    (ones(9), 1, flat(()), lambda: np.zeros((1, 3), dtype=np.int64), ()),
    (ones(9), 1, flat(()), lambda: np.zeros(3), (0,)),
    (ones(9), 1, flat(()), lambda: np.zeros(3, dtype=np.int64), (2,)),
    (ones(9), 1, flat(((1, -1, 11),)), lambda: np.zeros(3, dtype=np.int64), ()),
    (ones(9), 1, flat(((1, 1, 0), (2, 1, -1))), lambda: np.zeros(3, dtype=np.int64), ()),
    (ones(9), 1, flat(((1, 2, 0),)), lambda: np.zeros(5, dtype=np.int64), ()),
    (ones(9), 1, flat(((1, 2**62, 0),)), lambda: np.zeros(3, dtype=np.int64), ()),
    (ones(9), 1, flat(()), lambda: read_only(np.zeros(3, dtype=np.int64)), ()),
    (ones(9), 1, flat((1, 1)), lambda: np.zeros(3, dtype=np.int64), ()),
    (ones(9), 1, np.array((1, 1, 0), dtype=np.int32), lambda: np.zeros(3, dtype=np.int64), ()),
    (ones(9), 1, flat(((1, 1, 0),) * 9), lambda: np.zeros(3, dtype=np.int64), ()),
], ids=["two-byte-values", "int32-out", "uint64-out", "strided-out", "2-d-out", "den-0",
        "den-for-an-int-out", "falling-index-past-the-end-at-lo", "index-0",
        "index-past-the-end-at-hi", "index-overflows", "read-only-out", "terms-not-whole-triples",
        "int32-terms", "nine-terms"])
def test_linear_series_errors_agree(kernel, values, lo, terms, out, den):
    """Both kernels refuse the same call with the same message, before any
    write: an index outside [1, len] is caught at lo or hi = lo + len(out)
    - 1, since m*n + a is linear in n."""
    with pytest.raises(ValueError) as c_error:
        C.linear_series(values, lo, terms, 0, out(), *den)
    got = out()
    with same_error(c_error):
        kernel.linear_series(values, lo, terms, 0, got, *den)
    assert got.tolist() == out().tolist()


@pytest.mark.parametrize("width", [4, 8])
def test_linear_series_reads_its_terms_before_it_writes(kernel, short_trace, width):
    """Terms that share out's memory are read before any row is written:
    the rows are Q(1..5), not what the overwritten terms would give."""
    values = widened(short_trace, width)
    out = np.zeros(5, dtype=np.int64)
    out[:3] = (1, 1, 0)
    kernel.linear_series(values, 1, out[:3], 0, out)
    assert out.tolist() == values[1:6].tolist()


MIN_CASES = {  # (out, other)
    "extremes": ([5, -3, 0, 2**63 - 1, -(2**63), 7], [4, -3, 1, -(2**63), 2**63 - 1, 8]),
    "37-rows": ([(i * 7919) % 101 - 50 for i in range(37)],
                [(i * 104729) % 103 - 51 for i in range(37)]),
    "one-row": ([1], [0]),
    "no-rows": ([], []),
}


@pytest.mark.parametrize("case", sorted(MIN_CASES))
def test_min_into_agrees(kernel, case):
    """The same rows from both kernels, each the smaller of the two, and
    nothing written past them or into other."""
    out, other = MIN_CASES[case]
    results = []
    for module in (kernel, C):
        slots = np.full(len(out) + 2, UNTOUCHED, dtype=np.int64)
        slots[: len(out)] = out
        given = np.array(other, dtype=np.int64)
        assert module.min_into(slots[: len(out)], given) is None
        assert given.tolist() == other
        results.append(slots.tolist())
    assert results[0] == results[1] == [*map(min, out, other), UNTOUCHED, UNTOUCHED]


@pytest.mark.parametrize("out,other", [
    (lambda: np.zeros(3, dtype=np.int64), np.full(4, -1, dtype=np.int64)),
    (lambda: np.zeros(4, dtype=np.int64), np.full(3, -1, dtype=np.int64)),
    (lambda: np.zeros(3, dtype=np.int32), np.full(3, -1, dtype=np.int64)),
    (lambda: np.zeros(3), np.full(3, -1, dtype=np.int64)),
    (lambda: np.zeros(3, dtype=np.int64), np.full(3, 2**64 - 1, dtype=np.uint64)),
    (lambda: np.zeros(6, dtype=np.int64)[::2], np.full(3, -1, dtype=np.int64)),
    (lambda: np.zeros(3, dtype=np.int64), np.full(6, -1, dtype=np.int64)[::2]),
    (lambda: memoryview(np.zeros(3, dtype=np.int64)).toreadonly(),
     np.full(3, -1, dtype=np.int64)),
], ids=["other-longer", "other-shorter", "int32-out", "float64-out", "uint64-other",
        "strided-out", "strided-other", "read-only-out"])
def test_min_into_errors_agree(kernel, out, other):
    """Both kernels refuse the same call with the same message, before any
    write: other's -1s would show in out."""
    with pytest.raises(ValueError) as c_error:
        C.min_into(out(), other)
    got = out()
    with same_error(c_error):
        kernel.min_into(got, other)
    assert got.tolist() == out().tolist()


def widened(trace, width, forge=()):
    """A copy of the trace's values in width-byte slots, with forge's
    (n, delta) added."""
    values = np.asarray(trace.values).astype(f"<u{width}")
    for n, delta in dict(forge).items():
        values[n] += delta
    return values


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("even_at,hi", [
    (None, 5000), (1, 5000), (5000, 5000), (1, 1), (4321, 4320), (4321, 4500), (1, 0),
], ids=["intact", "first-slot", "last-slot", "one-slot", "past-hi", "inside", "empty"])
def test_first_even_agrees(kernel, short_trace, width, even_at, hi):
    """count_values with a 1-byte table is assert_all_odd's parity scan:
    both kernels name the first even value among Q(1..hi), the values of a
    buffer of hi + 1 slots, at either end too; with none, every value is
    tallied past the table."""
    values = widened(short_trace, width, {even_at: 1} if even_at else {})[: hi + 1]
    got = count(kernel, values, hi, 0)
    assert got == count(C, values, hi, 0)
    found = even_at is not None and even_at <= hi
    assert got == ((ST_PARITY, even_at) if found else (ST_OK, hi), [0])


@pytest.mark.parametrize("big", [2**63 + 1, 2**64 - 1])
def test_count_values_tallies_an_odd_value_past_2_63_past_the_table(kernel, big):
    """An 8-byte odd value at or past 2^63 bins past any table, in C as in
    the twin: C's bin is unsigned, so it never lands below the table."""
    values = np.array([0, 1, 3, big, 5], dtype=np.uint64)
    counts = bytearray(8)
    got = kernel.count_values(values, counts)
    assert got == C.count_values(values, bytearray(8)) == (ST_OK, 1)
    assert counts == bytearray([0, 1, 1, 1, 0, 0, 0, 0])


@settings(deadline=None, max_examples=60, derandomize=True)
@given(length=st.integers(0, 2 * 4096 + 9), width=st.sampled_from([4, 8]),
       even_at=st.sampled_from(["none", "first", "middle", "last"]), middle=st.floats(0, 1),
       table=st.sampled_from([0, 1]))
def test_the_parity_scan_names_the_first_even_value_as_the_twin_does(length, width, even_at,
                                                                     middle, table):
    """With a table of at most one slot, count_values is a parity scan,
    which C takes block by block: it names the first even value (a second
    one follows it) or tallies every value, as the twin's one value at a
    time does, at the first, a middle and the last slot, across blocks."""
    values = (np.arange(length + 1, dtype=np.uint64) * 2654435761 % CAPS[width]) | 1
    values = values.astype(f"<u{width}")
    if length and even_at != "none":
        n = {"first": 1, "middle": 1 + int(middle * (length - 1)), "last": length}[even_at]
        values[n] -= 1
        values[min(n + 5, length)] &= ~np.array(1, dtype=values.dtype)
    want = _pykernel.count_values(values, bytearray(table))
    assert C.count_values(values, bytearray(table)) == want
    assert want == ((ST_PARITY, n) if length and even_at != "none" else (ST_OK, length))


@pytest.mark.parametrize("values", [np.ones(10, dtype=np.uint16), np.ones(20, dtype=np.uint32)[::2]],
                         ids=["two-byte-items", "strided-values"])
def test_first_even_errors_agree(kernel, values):
    with pytest.raises(ValueError) as c_error:
        C.count_values(values, bytearray(1))
    with same_error(c_error):
        kernel.count_values(values, bytearray(1))


def violations(module, values, k_lo, k_hi):
    """One interleave_violations call for k in [k_lo, k_hi], into fresh
    slots, two more than the block, of UNTOUCHED: (count, the slots' values)."""
    rows = max(k_hi - k_lo + 1, 0)
    out = np.full(rows + 2, UNTOUCHED, dtype=np.int64)
    count = module.interleave_violations(values, k_lo, out[:rows])
    return count, out.tolist()


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("forge,k_lo,k_hi,violated", [
    ({}, 2, 2500, False), ({100: 2}, 2, 2500, True), ({3001: 8000}, 2, 2500, True),
    ({100: 2}, 40, 60, True), ({}, 2, 1, False), ({1999: 2, 2000: 4}, 1000, 1000, True),
], ids=["intact", "inner-violation", "index-out-of-range", "window", "empty", "one-k"])
def test_interleave_violations_agree(kernel, short_trace, width, forge, k_lo, k_hi, violated):
    """The same k from both kernels, in order, and nothing written past
    them; the oracle agrees where it reads no index out of range."""
    values = widened(short_trace, width, forge)
    count, out = violations(kernel, values, k_lo, k_hi)
    assert (count, out) == violations(C, values, k_lo, k_hi)
    assert out[count:] == [UNTOUCHED] * (len(out) - count)
    assert (count > 0) == violated
    if 3001 not in forge:  # the oracle reads a negative index from the end
        assert out[:count] == oracle.identity_violations(values.tolist(), k_lo, k_hi)


def at_a_hi(trace):
    """8-byte values, L = 4999, on which both identities hold at k = L // 2
    only if jb1 = (L + 1) // 2, the last A index, counts as in range: A(k)
    reads as -2, so jb1 = k + 1, and B(ja2) and B(k) are forged to make
    both sums agree modulo 2^64.  Only a value past 2^63 reaches the upper
    index guards."""
    values = np.asarray(trace.values)[:5000].astype(np.uint64).tolist()
    L, k = 4999, 2499
    values[2 * k - 1] = 2**64 - 2
    ja1, ja2 = (2 * k - 1 - values[2 * k - 2]) >> 1, (2 * k - 1 - values[2 * k - 3]) >> 1
    jb2 = (2 * k - values[2 * k - 2] + 1) >> 1
    assert ja1 != ja2
    values[2 * ja2] = 2**64 - 1 - values[2 * ja1]
    values[2 * k] = values[L] + values[2 * jb2 - 1] + 1
    return np.array(values, dtype=np.uint64), k


def at_b_hi(trace):
    """8-byte values, L = 5000, on which both identities hold at k = L // 2
    only if ja2 = L // 2, the last B index, counts as in range: A(k-1) reads
    as -1, so ja2 = k, and B(ja1) is forged to make A(k)'s sum agree."""
    values = np.asarray(trace.values).astype(np.uint64).tolist()
    k = 2500
    values[2 * k - 3] = 2**64 - 1
    ja1 = (2 * k - 1 - values[2 * k - 2]) >> 1
    values[2 * ja1] = (values[2 * k - 1] - values[2 * k] + 1) % 2**64
    return np.array(values, dtype=np.uint64), k


@pytest.mark.parametrize("forged", [at_a_hi, at_b_hi], ids=["a_hi", "b_hi"])
def test_interleave_violations_count_an_index_at_the_upper_guard_as_in_range(
        kernel, short_trace, forged):
    values, k = forged(short_trace)
    assert violations(kernel, values, k, k) == violations(C, values, k, k)
    assert violations(kernel, values, k, k)[0] == 0


@pytest.mark.parametrize("values,k_lo,out", [
    (np.ones(10, dtype=np.uint16), 2, lambda: np.zeros(3, dtype=np.int64)),
    (ones(9), 2, lambda: np.zeros(3, dtype=np.uint64)),
    (ones(9), 2, lambda: np.zeros(6, dtype=np.int64)[::2]),
    (ones(9), 1, lambda: np.zeros(4, dtype=np.int64)),
    (ones(9), 2, lambda: np.zeros(4, dtype=np.int64)),
    (ones(8), 3, lambda: np.zeros(3, dtype=np.int64)),
    (ones(9), 2, lambda: read_only(np.zeros(3, dtype=np.int64))),
], ids=["two-byte-values", "uint64-out", "strided-out", "k_lo-1", "2k_hi-past-len",
        "2k_hi-past-len-from-k_lo-3", "read-only-out"])
def test_interleave_violations_errors_agree(kernel, values, k_lo, out):
    """Both kernels refuse the same call with the same message, before any
    write; k_hi is k_lo + len(out) - 1."""
    with pytest.raises(ValueError) as c_error:
        C.interleave_violations(values, k_lo, out())
    got = out()
    with same_error(c_error):
        kernel.interleave_violations(values, k_lo, got)
    assert got.tolist() == out().tolist()


def test_the_c_kernel_releases_every_buffer_it_takes():
    """Whether a call returns, a converter refuses its buffer, a later
    argument fails to parse or the arguments disagree, no buffer stays
    exported: an array that still were could not grow."""
    values, terms, out = array("I", [0, 1, 1, 3]), array("q", [1, 1, 0]), array("q", [0])
    C.linear_series(values, 1, terms, 0, out)
    with pytest.raises(ValueError):
        C.linear_series(values, 1, terms, 0, array("i", [0, 0]))
    with pytest.raises(TypeError):
        C.interleave_violations(values, "2", out)
    with pytest.raises(ValueError):
        C.min_into(out, array("q", [0, 0]))
    with pytest.raises(TypeError):
        C.crc32(values, 1.5)
    C.crc32(values)
    for buffer in (values, terms, out):
        buffer.append(0)


# Over 4 MB, one checkpoint chunk of 4-byte slots, and not multiples of 16:
# every fold loop runs, and so does the bitwise tail of 4, 8 or 15 bytes.
CRC_BIG_LENGTHS = ((4 << 20) + 4, (4 << 20) + 40, 3 * (4 << 20) + 47)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(length=st.integers(0, 600), offset=st.integers(0, 15),
       crc=st.integers(0, 2**32 - 1) | st.integers(-2**40, 2**40), item=st.sampled_from("BIQ"),
       content=st.integers(0, 2**32 - 1))
@example(length=CRC_BIG_LENGTHS[0], offset=0, crc=0, item="I", content=1)
@example(length=CRC_BIG_LENGTHS[1], offset=5, crc=2**32 - 1, item="B", content=2)
@example(length=CRC_BIG_LENGTHS[2], offset=15, crc=0x1234567, item="B", content=3)
def test_crc32_equals_zlib(length, offset, crc, item, content):
    """The C kernel's crc32 is zlib.crc32 for any length, starting at any
    byte offset into its buffer and continuing any CRC (taken modulo 2^32,
    as zlib takes it), over a buffer of bytes or of 4- or 8-byte items:
    below 64 bytes the bitwise loop, from 64 on the fold's 64- and 16-byte
    loops, its Barrett reduction and the bitwise tail."""
    data = random.Random(content).randbytes(offset + length)
    view = memoryview(data)[offset:]
    size = memoryview(array(item)).itemsize
    view = view[: len(view) // size * size].cast(item)
    assert C.crc32(view, crc) == zlib.crc32(view, crc)
    assert C.crc32(view) == zlib.crc32(view)


def test_crc32_of_a_read_only_mapped_file_equals_zlib(tmp_path):
    """A read-only mapping, as a checkpoint's mapped values are, is checksummed
    in place, whole and from any offset, up to its last byte."""
    path = tmp_path / "bytes"
    path.write_bytes(random.Random(7).randbytes(CRC_BIG_LENGTHS[1]))
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        view = memoryview(mapped)
        assert view.readonly
        for part in (view, view[13:], view[-100:], view[1000:1064]):
            assert C.crc32(part, 99) == zlib.crc32(part, 99)
        del view, part


@pytest.mark.parametrize("args", [
    lambda: (memoryview(bytes(40))[::2],),
    lambda: (np.zeros(20, dtype=np.uint32)[::2],),
    lambda: ("text",),
    lambda: (b"abc", 1.5),
    lambda: (b"abc", "1"),
    lambda: (b"abc", None),
], ids=["strided-memoryview", "strided-array", "str-data", "float-crc", "str-crc", "none-crc"])
def test_crc32_errors_agree(kernel, args):
    """Both kernels, and so zlib.crc32, refuse the same call with the same
    error: a buffer that is not C-contiguous, or a crc that is not an int."""
    with pytest.raises(Exception) as c_error:
        C.crc32(*args())
    with pytest.raises(type(c_error.value), match=f"^{re.escape(str(c_error.value))}$"):
        kernel.crc32(*args())


@pytest.mark.skipif(not Path("/proc/cpuinfo").exists(), reason="reads the CPU flags from /proc")
def test_crc32_folds_wherever_the_cpu_has_pclmulqdq():
    """On an x86-64 CPU whose flags list pclmulqdq, crc32 is the kernel's
    fold, not zlib.crc32 bound in its place: a fallback there would be a
    silent slowdown, so it fails here."""
    flags = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    folds = platform.machine() == "x86_64" and flags and "pclmulqdq" in flags[1].split()
    assert (C.crc32 is not zlib.crc32) == bool(folds)
    assert _pykernel.crc32 is zlib.crc32


ROWS = np.arange(1, 7, dtype=np.int64)
FORMAT_CASES = {
    "int64": (np.array([1, -2, 0, 2**63 - 1, -(2**63), 10]), -ROWS, False),
    "halves": (ROWS, np.array([3, -1, 0, -4, 2**63 - 1, -(2**63)]), True),
    "floats": (np.array([0.0, -0.0, 0.5, 1 / 3, -2.75, 45035996.27]), ROWS, False),
    "near-tie-floats": (np.array([0.123456785, 1.000000005, 0.000000015, -2.5e-9,
                                  float("12345675e-9"), 7 / 2**30]), ROWS, True),
    "empty": (np.array([], dtype=np.float64), np.array([], dtype=np.int64), False),
}


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_format_rows_agrees(kernel, case):
    x, y, halves = FORMAT_CASES[case]
    assert kernel.format_rows(x, y, halves) == C.format_rows(x, y, halves)


@pytest.mark.parametrize("x,y", [
    (np.array([0.5, np.nan]), ROWS[:2]),
    (np.array([np.inf, 0.5]), ROWS[:2]),
    (np.array([-np.inf]), ROWS[:1]),
    (np.array([2.0**52 / 1e8]), ROWS[:1]),
    (np.array([-1e9]), ROWS[:1]),
    (ROWS, ROWS.astype(np.float64)),
    (ROWS, ROWS[:5]),
    (np.array([0, 1, 2**64 - 1], dtype=np.uint64), np.array([2**64 - 1, 0, 7], dtype=np.uint64)),
], ids=["nan", "inf", "minus-inf", "at-bound", "past-bound", "float-y", "length-mismatch",
        "uint64"])
def test_format_rows_errors_agree(kernel, x, y):
    with pytest.raises(ValueError) as c_error:
        C.format_rows(x, y, False)
    with same_error(c_error):
        kernel.format_rows(x, y, False)


def test_every_entry_goes_through_the_binding(tmp_path, monkeypatch, capsys):
    """Binding _native.kernel alone reroutes every call the CLI makes.  A
    run into a checkpoint (compute's) passes advance the callback that the
    twin calls at each chunk boundary, and is checksummed through crc32."""
    calls = []

    def recorded(name):
        def call(*args):
            calls.append(name)
            if name == "advance" and len(args) > 3:
                on_chunk = args[3]
                args = (*args[:3], lambda end: (calls.append("on_chunk"), on_chunk(end))[1],
                        *args[4:])
            return getattr(_pykernel, name)(*args)
        return call

    entries = ("advance", "count_values", "linear_series", "min_into",
               "interleave_violations", "format_rows", "crc32")
    assert set(entries) == {name for name in vars(C) if not name.startswith("__")}
    monkeypatch.setattr(_native, "kernel", SimpleNamespace(**{e: recorded(e) for e in entries}))
    monkeypatch.setattr(checkpoint, "CHUNK", 256)
    for argv, used in [
        (["compute", "--export"], {"advance", "on_chunk", "crc32", "linear_series",
                                   "format_rows"}),
        (["freq", "--kmax", "5"], {"advance", "count_values", "format_rows"}),
        (["diagnose", "--series", "E"], {"advance", "linear_series", "format_rows"}),
        (["diagnose", "--series", "S"], {"advance", "linear_series", "min_into", "format_rows"}),
        (["selfsim", "--levels", "0..2"], {"advance", "linear_series", "format_rows"}),
        (["seeds", "--length", "2", "--max-value", "2"], {"advance"}),
    ]:
        calls.clear()
        assert main(["--data-dir", str(tmp_path), *argv, "--horizon", "2000"]) == EXIT_OK
        assert set(calls) == used, argv
    calls.clear()  # verify's criteria 4 and 5, on a trace of 2000
    diagnostics.check_subsequence_identities(run(RecursionConfig(seed=Seed((1, 1)), horizon=2000)))
    assert set(calls) == {"advance", "count_values", "interleave_violations"}
    assert not _native.have_native_kernel()
    capsys.readouterr()
    perfprobe.perf_probe(1000)
    assert json.loads(capsys.readouterr().out)["kernel"] == "python"
