"""How often each odd value appears, organized into dyadic blocks.

Value v = 2m - 1 is binned at index m; block k holds m in
[2^k, 2^{k+1} - 1].  A FrequencyTable covers the whole trace, n_max
values, in two read-only memoryviews indexed by m, both made by the
kernel's counter: counts[m] over Q(1..n_max), and late_counts[m] over
its second half, Q(n_max//2 + 1..n_max).  Counts live in 1-byte slots
(observed counts at desk scale stay below thirty) and abort loudly rather
than wrap.  A block is *complete* once every member value has appeared
and none has appeared after n_max/2, i.e. its late counts are all zero:
values cluster near n/2, so a half-horizon quiet period means the
block's counts are final.  Law and peak checks refuse incomplete blocks;
check_dyadic_law returns the deviations from the law, empty when it
holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _native, engine
from ._native import ST_COUNT_OVERFLOW, ST_PARITY
from .engine import Trace, give_back, zeroed_slots
from .errors import (
    ConfigError,
    CountOverflowError,
    ParityError,
    RangeError,
    SaturationError,
)


@dataclass(frozen=True)
class FrequencyTable:
    """Counts of odd values over Q(1..n_max), and over its second half.

    Buffers are 1-based over m (slot 0 unused); values with m beyond
    m_cap are only tallied in overflow_count, keeping conservation:
    sum(counts) + overflow_count == n_max.
    """

    n_max: int
    m_cap: int
    counts: memoryview       # uint8, read-only, over Q(1..n_max)
    late_counts: memoryview  # uint8, read-only, over Q(n_max//2 + 1..n_max)
    overflow_count: int


def table_m_cap(n_max: int, cap: int, m_cap: int | None = None) -> int:
    """The m_cap of a table over n_max values of at most cap: m_cap, or
    n_max // 2 (at least 1) when None.  ConfigError if m_cap leaves
    [1, the bin of cap]."""
    m_top = (cap + 1) // 2  # the bin of the largest value a slot holds
    m_cap = max(1, n_max // 2) if m_cap is None else m_cap
    if not 1 <= m_cap <= m_top:
        raise ConfigError(f"m_cap must be in [1, {m_top}], got {m_cap}")
    return m_cap


def build_frequency(trace: Trace, m_cap: int | None = None) -> FrequencyTable:
    """Two counts: over the whole trace, Q(1..n_max) with n_max = trace.len,
    and over its second half, Q(n_max//2 + 1..n_max).

    One forward pass counts Q(lo + 1..hi) for each piece (lo, hi] of
    engine.PIECE slots, the view of values[lo : hi + 1] whose slot 0 is
    Q(lo), into counts, then its part past n_max//2 into late_counts, and
    gives back the whole mapping (give_back): a trace mapped from a
    checkpoint keeps about one piece resident, not the whole trace.  The
    errors and the overflow tally are those of one count over the whole
    trace.
    """
    n_max = trace.len
    m_cap = table_m_cap(n_max, trace.config.cap, m_cap)
    counts, late = zeroed_slots(m_cap + 1, "B"), zeroed_slots(m_cap + 1, "B")
    count_values, overflow, piece = _native.kernel.count_values, 0, engine.PIECE
    for lo in range(0, n_max, piece):
        hi = min(lo + piece, n_max)
        status, aux = count_values(trace.values[lo : hi + 1], counts)
        if status == ST_PARITY:
            raise ParityError(f"even value Q({lo + aux})={trace.value_at(lo + int(aux))}")
        if status == ST_COUNT_OVERFLOW:
            raise CountOverflowError(f"count slot for m={aux} passed 255")
        overflow += aux
        if hi > n_max // 2:
            # cannot fail: these are some of the values the first count accepted
            count_values(trace.values[max(lo, n_max // 2) : hi + 1], late)
        give_back(trace.values)
    return FrequencyTable(n_max=n_max, m_cap=m_cap, counts=counts.toreadonly(),
                          late_counts=late.toreadonly(), overflow_count=overflow)


@dataclass(frozen=True)
class BlockReport:
    """Summary of dyadic block k: m in [2^k, 2^{k+1} - 1]."""

    k: int
    n_max: int
    histogram: dict[int, int]  # observed count r -> number of m with that count
    total: int
    peak_m: int                # smallest m attaining the block maximum
    peak_count: int
    tie_count: int
    complete: bool

    @property
    def average(self) -> Fraction:
        return Fraction(self.total, 2**self.k)

    @property
    def peak_ratio(self) -> Fraction:
        return Fraction(self.peak_m, 2**self.k)


def block_report(table: FrequencyTable, k: int) -> BlockReport:
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    lo, hi = 2**k, 2 ** (k + 1) - 1
    if hi > table.m_cap:
        raise RangeError(f"block k={k} reaches m={hi}, beyond m_cap={table.m_cap}")
    block = table.counts[lo : hi + 1].tobytes()
    peak_count = max(block)
    complete = 0 not in block and table.late_counts[lo : hi + 1].tobytes() == bytes(len(block))
    return BlockReport(
        k=k,
        n_max=table.n_max,
        histogram={r: c for r in range(peak_count + 1) if (c := block.count(r))},
        total=sum(block),
        peak_m=lo + block.index(peak_count),  # the first peak, i.e. the smallest m
        peak_count=peak_count,
        tie_count=block.count(peak_count),
        complete=complete,
    )


def law_prediction(k: int) -> dict[int, int]:
    """Predicted histogram for a complete block: count r appears
    2^{k-r+2} times for r = 3..k+1, and r = k+2, k+3 once each."""
    pred = {r: 2 ** (k - r + 2) for r in range(3, k + 2)}
    pred[k + 2] = pred.get(k + 2, 0) + 1
    pred[k + 3] = pred.get(k + 3, 0) + 1
    return pred


def check_dyadic_law(report: BlockReport) -> dict[int, tuple[int, int]]:
    """Compare a complete block's histogram against the dyadic prediction.

    Returns r -> (observed, predicted) for every count r where the two
    differ; an empty dict means the law holds.
    """
    if not report.complete:
        raise SaturationError(f"block k={report.k} is not complete at N={report.n_max}")
    predicted = law_prediction(report.k)
    deviations = {}
    for r in sorted(set(report.histogram) | set(predicted)):
        o = report.histogram.get(r, 0)
        p = predicted.get(r, 0)
        if o != p:
            deviations[r] = (o, p)
    return deviations


def peak_scan(table: FrequencyTable, k_lo: int, k_hi: int) -> list[BlockReport]:
    """The reports of blocks k_lo..k_hi, for their peaks; blocks must be complete."""
    if k_lo > k_hi:
        raise ConfigError(f"empty k range [{k_lo}, {k_hi}]")
    out = []
    for k in range(k_lo, k_hi + 1):
        rep = block_report(table, k)
        if not rep.complete:
            raise SaturationError(f"block k={k} is not complete at N={table.n_max}")
        out.append(rep)
    return out
