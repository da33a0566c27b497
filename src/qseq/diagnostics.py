"""Derived series and structural probes over a computed trace.

Half-integer quantities (the fluctuation 2Q(n) - n lives on a half-grid)
are kept exact by storing doubled values: a series whose ``halves`` flag
is set holds 2x the mathematical value.  The CLI divides by two only at
the text boundary.

Each series code but G is one row of the table _SERIES: its domain, its
formula over an index array and its halves flag.  series_window() gives a
code's domain, or checks a window [lo, hi] of it; series() evaluates the
formula on that window, and selfsim_profile() takes the same window over
its samples, so a caller can evaluate a long series one block of rows at a
time, as the CLI does.  G is a log grid, not a window: series() builds it
whole, and sets its default density of 64 samples per octave.

Series codes used by the CLI:

    E     fluctuation, doubled:   2Q(n) - n
    S     safety margin:          n - max(Q(n-1), Q(n-2))
    D     first difference:       Q(n+1) - Q(n)
    t1    first feedback index:   n - Q(n-1)
    t2    second feedback index:  n - Q(n-2)
    R     doubling residual:      Q(2n) - 2Q(n)
    Rodd  residual, odd half:     Q(4k-2) - 2Q(2k-1)
    Reven residual, even half:    Q(4k) - 2Q(2k)
    A     odd-index subsequence:  Q(2k-1)
    B     even-index subsequence: Q(2k)
    a     odd drift:              A(k) - k
    b     even drift:             B(k) - k
    s     drift mean, doubled:    a(k) + b(k)
    d     drift gap, doubled:     b(k) - a(k)
    G     fluctuation on a log-spaced grid, doubled
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import Trace
from .errors import ConfigError, ParityError, RangeError

_BLOCK = 1 << 16  # indices per block in the parity and identity checks


@dataclass(frozen=True)
class Series:
    """Paired samples.  When halves is True, y holds doubled values."""

    x: np.ndarray
    y: np.ndarray
    halves: bool = False

    def __post_init__(self) -> None:
        self.x.flags.writeable = False
        self.y.flags.writeable = False

    def __len__(self) -> int:
        return int(self.x.size)


def _q_at(trace: Trace, idx: np.ndarray) -> np.ndarray:
    """Q at an index array as int64, widened after indexing: the copy is
    the size of idx, not of the trace."""
    return trace.values[idx].astype(np.int64, copy=False)


def assert_all_odd(trace: Trace, n_max: int | None = None) -> None:
    n_max = trace.len if n_max is None else n_max
    for lo in range(1, n_max + 1, _BLOCK):
        even = np.flatnonzero(trace.values[lo : min(lo + _BLOCK, n_max + 1)] % 2 == 0)
        if even.size:
            n = lo + int(even[0])
            raise ParityError(f"even value Q({n})={int(trace.values[n])}")


# ------------------------------------------------------------- bulk series

# code -> (domain(L): the valid index range [lo, hi] on a trace of length L,
#          formula(q, n): the values at an index array n, read through q,
#          halves: whether the values are doubled half-integers)
_SERIES = {
    "E": (lambda L: (1, L), lambda q, n: 2 * q(n) - n, True),
    "S": (lambda L: (3, L), lambda q, n: n - np.maximum(q(n - 1), q(n - 2)), False),
    "D": (lambda L: (1, L - 1), lambda q, n: q(n + 1) - q(n), False),
    "t1": (lambda L: (3, L), lambda q, n: n - q(n - 1), False),
    "t2": (lambda L: (3, L), lambda q, n: n - q(n - 2), False),
    "R": (lambda L: (1, L // 2), lambda q, n: q(2 * n) - 2 * q(n), False),
    "Rodd": (lambda L: (1, L // 4), lambda q, n: q(4 * n - 2) - 2 * q(2 * n - 1), False),
    "Reven": (lambda L: (1, L // 4), lambda q, n: q(4 * n) - 2 * q(2 * n), False),
    "A": (lambda L: (1, (L + 1) // 2), lambda q, n: q(2 * n - 1), False),
    "B": (lambda L: (1, L // 2), lambda q, n: q(2 * n), False),
    "a": (lambda L: (1, (L + 1) // 2), lambda q, n: q(2 * n - 1) - n, False),
    "b": (lambda L: (1, L // 2), lambda q, n: q(2 * n) - n, False),
    "s": (lambda L: (1, L // 2), lambda q, n: q(2 * n - 1) + q(2 * n) - 2 * n, True),
    "d": (lambda L: (1, L // 2), lambda q, n: q(2 * n) - q(2 * n - 1), True),
}
SERIES_CODES = (*_SERIES, "G")


def _window(what: str, lo: int | None, hi: int | None,
            d_lo: int, d_hi: int) -> tuple[int, int]:
    lo = d_lo if lo is None else lo
    hi = d_hi if hi is None else hi
    if not d_lo <= lo <= hi <= d_hi:
        raise RangeError(f"{what}: range [{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
    return lo, hi


def series_window(trace: Trace, code: str, lo: int | None = None, hi: int | None = None,
                  samples_per_octave: int | None = None) -> tuple[int, int]:
    """[lo, hi] for series(trace, code, lo, hi), a None end taken from the
    code's domain, so series_window(trace, code) is the whole domain.
    RangeError if the window leaves the domain or is empty, or if
    samples_per_octave is given: only G has a grid.  ConfigError for a code
    outside _SERIES."""
    if samples_per_octave is not None:
        raise RangeError(f"series {code}: only the log grid G takes samples_per_octave,"
                         f" got {samples_per_octave}")
    if code not in _SERIES:
        raise ConfigError(f"unknown series code {code!r}")
    return _window(f"series {code}", lo, hi, *_SERIES[code][0](trace.len))


def series(trace: Trace, code: str, lo: int | None = None, hi: int | None = None,
           samples_per_octave: int | None = None) -> Series:
    """Build the named series over [lo, hi] (defaults: the full domain).

    G is always its whole log grid: the doubled fluctuation at n = round(2^x)
    for x on log_grid, of samples_per_octave (default 64).  RangeError if lo
    or hi is given for it, if samples_per_octave exceeds the trace length (at
    that density every n is on the grid already), or if samples_per_octave is
    given for another code.
    """
    if code == "G":
        if lo is not None or hi is not None:
            raise RangeError(f"series G: the log grid takes no range, got [{lo}, {hi}]")
        if samples_per_octave is not None and samples_per_octave > trace.len:
            raise RangeError(f"series G: samples_per_octave {samples_per_octave}"
                             f" exceeds trace length {trace.len}")
        x, n = log_grid(trace.len, 64 if samples_per_octave is None else samples_per_octave)
        return Series(x=x, y=2 * _q_at(trace, n) - n, halves=True)
    lo, hi = series_window(trace, code, lo, hi, samples_per_octave)
    _, formula, halves = _SERIES[code]
    n = np.arange(lo, hi + 1, dtype=np.int64)
    return Series(x=n, y=formula(functools.partial(_q_at, trace), n), halves=halves)


def check_subsequence_identities(trace: Trace, k_lo: int = 2,
                                 k_hi: int | None = None) -> np.ndarray:
    """k in [k_lo, k_hi] violating the two interleaved recurrences.

    With all values odd, the recursion closes on the interleaves:

        A(k) = B((2k-1-B(k-1))/2) + B((2k-1-A(k-1))/2) - 1
        B(k) = A((2k-A(k)+1)/2)   + A((2k-B(k-1)+1)/2) + 1

    Returns the (expected empty) array of violating k; an identity whose
    inner index falls outside the trace counts as a violation.  Only
    Q(1..2 k_hi) is read (with Q >= 1 every inner index j is <= k), so only
    that prefix must be odd.  k runs in blocks of _BLOCK, so the extra
    memory is bounded by the block, not the trace.
    """
    L = trace.len
    if k_hi is None:
        k_hi = L // 2
    if not 2 <= k_lo <= k_hi:
        raise RangeError(f"need 2 <= k_lo <= k_hi, got [{k_lo}, {k_hi}]")
    if 2 * k_hi > L:
        raise RangeError(f"k_hi={k_hi} needs trace length >= {2 * k_hi}, have {L}")
    assert_all_odd(trace, 2 * k_hi)
    return np.concatenate([
        _identity_violations(trace, lo, min(lo + _BLOCK - 1, k_hi))
        for lo in range(k_lo, k_hi + 1, _BLOCK)
    ])


def _identity_violations(trace: Trace, k_lo: int, k_hi: int) -> np.ndarray:
    """check_subsequence_identities on one block of k."""
    q = functools.partial(_q_at, trace)
    k = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    a_k = q(2 * k - 1)
    b_k = q(2 * k)
    a_prev = q(2 * k - 3)
    b_prev = q(2 * k - 2)

    ja1 = (2 * k - 1 - b_prev) >> 1
    ja2 = (2 * k - 1 - a_prev) >> 1
    jb1 = (2 * k - a_k + 1) >> 1
    jb2 = (2 * k - b_prev + 1) >> 1

    b_hi = trace.len // 2
    a_hi = (trace.len + 1) // 2
    bad = (
        (ja1 < 1) | (ja1 > b_hi) | (ja2 < 1) | (ja2 > b_hi)
        | (jb1 < 1) | (jb1 > a_hi) | (jb2 < 1) | (jb2 > a_hi)
    )
    ok = np.flatnonzero(~bad)
    # in range, 2j <= L and 2j - 1 <= L: B(j) = Q(2j) and A(j) = Q(2j-1) exist
    rhs_a = q(2 * ja1[ok]) + q(2 * ja2[ok]) - 1
    rhs_b = q(2 * jb1[ok] - 1) + q(2 * jb2[ok] - 1) + 1
    bad[ok] = (a_k[ok] != rhs_a) | (b_k[ok] != rhs_b)
    return k[bad]


# ----------------------------------------------------------------- profiles

def selfsim_window(trace: Trace, k: int, lo: int | None = None,
                   hi: int | None = None) -> tuple[int, int]:
    """[lo, hi] for selfsim_profile(trace, k, lo, hi), as series_window."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    count = trace.len >> k
    if count < 1:
        raise RangeError(f"2^{k} exceeds trace length {trace.len}")
    return _window(f"selfsim level {k}", lo, hi, 1, count)


def selfsim_profile(trace: Trace, k: int, lo: int | None = None,
                    hi: int | None = None) -> Series:
    """Fluctuation sampled on the 2^k-decimated grid, x normalized to (0, 1].

    Sample m carries y = 2Q(2^k m) - 2^k m (doubled residual against the
    half-slope ramp) at x = m / floor(len / 2^k); m runs over [lo, hi]
    (defaults: every sample, 1 .. floor(len / 2^k)).
    """
    lo, hi = selfsim_window(trace, k, lo, hi)
    m = np.arange(lo, hi + 1, dtype=np.int64)
    idx = m << k
    y = 2 * _q_at(trace, idx) - idx
    return Series(x=m / (trace.len >> k), y=y, halves=True)


def log_grid(length: int, samples_per_octave: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform log grid x = i / samples_per_octave, i = 0, 1, ... while
    2^x <= length, and its indices n = round(2^x) clipped to [1, length].
    Neighbouring n repeat where the grid is finer than the integers."""
    if samples_per_octave < 1:
        raise ConfigError(f"samples_per_octave must be >= 1, got {samples_per_octave}")
    if length < 1:
        raise RangeError("empty trace")
    i_max = math.floor(samples_per_octave * math.log2(length))
    x = np.arange(i_max + 1, dtype=np.float64) / samples_per_octave
    return x, np.clip(np.rint(np.exp2(x)).astype(np.int64), 1, length)
