"""Derived series and structural probes over a computed trace.

Half-integer quantities (the fluctuation 2Q(n) - n lives on a half-grid)
are kept exact by storing doubled values: a series whose ``halves`` flag
is set holds 2x the mathematical value.  The CLI divides by two only at
the text boundary.

Each series code but G is one row of the table _SERIES: its domain, its
halves flag and its formula as data, slope*n + the sum of c*Q(m*n + a)
over its terms (c, m, a), which the kernel's linear_series evaluates
straight from the trace's slots, given the triples one after another in
an int64 column.  S, the one formula that is not linear, is the smaller
of t1 and t2, which the kernel's min_into takes in place.
series_window() gives a code's domain on a trace of a given length, or
checks a window [lo, hi] of it, so a caller can refuse a window before it
computes the trace; series() evaluates the formula on that window, and
selfsim_profile() takes the same window over its samples, so a caller can
evaluate a long series one block of rows at a time, as the CLI does.  G
is a log grid, not a window: series() builds it whole, in Python, and sets
its default density of 64 samples per octave.

A Series holds its columns as read-only memoryviews, and no series needs
NumPy.  The parity and identity checks are the kernel's count_values,
with a 1-byte table, and interleave_violations, over the trace's values.

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

import itertools
import math
from array import array

from . import _native
from .engine import Trace
from .errors import ConfigError, ParityError, RangeError

_BLOCK = 1 << 16  # k per block in the identity check


class Series:
    """Paired samples x and y.  When halves is True, y holds doubled values.

    x and y are read-only memoryviews of the buffers given: the int64 or
    float64 columns series() and selfsim_profile() make, or any others.
    """

    __slots__ = ("x", "y", "halves")

    def __init__(self, x, y, halves: bool = False):
        self.x, self.y = memoryview(x).toreadonly(), memoryview(y).toreadonly()
        self.halves = halves

    def __len__(self) -> int:
        return len(self.x)


def assert_all_odd(trace: Trace, n_max: int | None = None) -> None:
    """ParityError naming the first even value among Q(1..n_max) (default: all)."""
    n_max = trace.len if n_max is None else n_max
    if not 0 <= n_max <= trace.len:
        raise RangeError(f"n_max={n_max} outside [0, {trace.len}]")
    status, n = _native.kernel.count_values(trace.values[: n_max + 1], bytearray(1))
    if status == _native.ST_PARITY:
        raise ParityError(f"even value Q({n})={trace.values[n]}")


# ------------------------------------------------------------- bulk series

# code -> (domain(L): the valid index range [lo, hi] on a trace of length L,
#          halves: whether the values are doubled half-integers,
#          slope, terms: the value at n is slope*n + the sum of c*Q(m*n + a)
#          over (c, m, a) in terms; a slope of None takes the smaller of
#          the rows named in terms instead)
_SERIES = {
    "E": (lambda L: (1, L), True, -1, ((2, 1, 0),)),
    "S": (lambda L: (3, L), False, None, ("t1", "t2")),
    "D": (lambda L: (1, L - 1), False, 0, ((1, 1, 1), (-1, 1, 0))),
    "t1": (lambda L: (3, L), False, 1, ((-1, 1, -1),)),
    "t2": (lambda L: (3, L), False, 1, ((-1, 1, -2),)),
    "R": (lambda L: (1, L // 2), False, 0, ((1, 2, 0), (-2, 1, 0))),
    "Rodd": (lambda L: (1, L // 4), False, 0, ((1, 4, -2), (-2, 2, -1))),
    "Reven": (lambda L: (1, L // 4), False, 0, ((1, 4, 0), (-2, 2, 0))),
    "A": (lambda L: (1, (L + 1) // 2), False, 0, ((1, 2, -1),)),
    "B": (lambda L: (1, L // 2), False, 0, ((1, 2, 0),)),
    "a": (lambda L: (1, (L + 1) // 2), False, -1, ((1, 2, -1),)),
    "b": (lambda L: (1, L // 2), False, -1, ((1, 2, 0),)),
    "s": (lambda L: (1, L // 2), True, -2, ((1, 2, -1), (1, 2, 0))),
    "d": (lambda L: (1, L // 2), True, 0, ((1, 2, 0), (-1, 2, -1))),
}
SERIES_CODES = (*_SERIES, "G")


def _evaluate(trace: Trace, lo: int, hi: int, slope: int, terms=(),
              den: int | None = None) -> memoryview:
    """slope*n + the sum of c*Q(m*n + a) over (c, m, a) in terms, for n in
    [lo, hi], as a memoryview: of int64, or of float64 divided by den if den
    is given."""
    out = memoryview(bytearray(8 * (hi - lo + 1))).cast("q" if den is None else "d")
    flat = array("q", itertools.chain.from_iterable(terms))
    _native.kernel.linear_series(trace.values, lo, flat, slope, out, den or 1)
    return out


def value_rows(trace: Trace, lo: int, hi: int) -> Series:
    """The values Q(n) at x = n, for n in [lo, hi]."""
    return Series(_evaluate(trace, lo, hi, 1), _evaluate(trace, lo, hi, 0, ((1, 1, 0),)))


def _window(what: str, lo: int | None, hi: int | None,
            d_lo: int, d_hi: int) -> tuple[int, int]:
    lo = d_lo if lo is None else lo
    hi = d_hi if hi is None else hi
    if not d_lo <= lo <= hi <= d_hi:
        raise RangeError(f"{what}: range [{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
    return lo, hi


def series_window(length: int, code: str, lo: int | None = None, hi: int | None = None,
                  samples_per_octave: int | None = None) -> tuple[int, int]:
    """[lo, hi] for series(trace, code, lo, hi) on a trace of this length, a
    None end taken from the code's domain, so series_window(length, code) is
    the whole domain; for G, whose log grid takes no window, [1, length].
    RangeError if the domain is empty at this length, if the window leaves
    the domain or is empty, if lo or hi is given for G, or if
    samples_per_octave is given for another code or exceeds the length (at
    that density every n is on G's grid already).  ConfigError for a code
    outside SERIES_CODES, or for a samples_per_octave below 1.  So a caller
    can refuse a request before it computes the trace."""
    if code == "G":
        if lo is not None or hi is not None:
            raise RangeError(f"series G: the log grid takes no range, got [{lo}, {hi}]")
        if samples_per_octave is not None and samples_per_octave < 1:
            raise ConfigError(f"samples_per_octave must be >= 1, got {samples_per_octave}")
        if samples_per_octave is not None and samples_per_octave > length:
            raise RangeError(f"series G: samples_per_octave {samples_per_octave}"
                             f" exceeds trace length {length}")
        return 1, length
    if samples_per_octave is not None:
        raise RangeError(f"series {code}: only the log grid G takes samples_per_octave,"
                         f" got {samples_per_octave}")
    if code not in _SERIES:
        raise ConfigError(f"unknown series code {code!r}")
    domain = _SERIES[code][0]
    d_lo, d_hi = domain(length)
    if d_lo > d_hi:  # domains only grow with L, so the search ends
        need = next(L for L in itertools.count(length + 1) if domain(L)[0] <= domain(L)[1])
        raise RangeError(f"series {code} needs horizon >= {need}, have {length}")
    return _window(f"series {code}", lo, hi, d_lo, d_hi)


def series(trace: Trace, code: str, lo: int | None = None, hi: int | None = None,
           samples_per_octave: int | None = None) -> Series:
    """Build the named series over [lo, hi] (defaults: the full domain).

    G is always its whole log grid: the doubled fluctuation at n = round(2^x)
    for x on log_grid, of samples_per_octave (default 64).  Errors as
    series_window's.
    """
    lo, hi = series_window(trace.len, code, lo, hi, samples_per_octave)
    if code == "G":
        x, n = log_grid(trace.len, 64 if samples_per_octave is None else samples_per_octave)
        q = trace.values
        y = array("q", [2 * q[i] - i for i in n])  # E at each grid index
        return Series(array("d", x), y, True)
    _, halves, slope, terms = _SERIES[code]
    if slope is None:
        y, other = (_evaluate(trace, lo, hi, *_SERIES[row][2:]) for row in terms)
        _native.kernel.min_into(y, other)
    else:
        y = _evaluate(trace, lo, hi, slope, terms)
    return Series(_evaluate(trace, lo, hi, 1), y, halves)


def check_subsequence_identities(trace: Trace, k_lo: int = 2,
                                 k_hi: int | None = None) -> array:
    """k in [k_lo, k_hi] violating the two interleaved recurrences.

    With all values odd, the recursion closes on the interleaves:

        A(k) = B((2k-1-B(k-1))/2) + B((2k-1-A(k-1))/2) - 1
        B(k) = A((2k-A(k)+1)/2)   + A((2k-B(k-1)+1)/2) + 1

    Returns the (expected empty) array("q") of violating k; an identity
    whose inner index falls outside the trace counts as a violation.  Only
    Q(1..2 k_hi) is read (with Q >= 1 every inner index j is <= k), so only
    that prefix must be odd.  The kernel's interleave_violations checks k
    in blocks of _BLOCK, so the extra memory is bounded by the block, not
    the trace.
    """
    L = trace.len
    if k_hi is None:
        k_hi = L // 2
    if not 2 <= k_lo <= k_hi:
        raise RangeError(f"need 2 <= k_lo <= k_hi, got [{k_lo}, {k_hi}]")
    if 2 * k_hi > L:
        raise RangeError(f"k_hi={k_hi} needs trace length >= {2 * k_hi}, have {L}")
    assert_all_odd(trace, 2 * k_hi)
    bad, out = array("q"), array("q", [0]) * min(_BLOCK, k_hi - k_lo + 1)
    block = memoryview(out)
    for lo in range(k_lo, k_hi + 1, _BLOCK):
        found = _native.kernel.interleave_violations(trace.values, lo,
                                                     block[: min(_BLOCK, k_hi - lo + 1)])
        bad.extend(out[:found])
    return bad


# ----------------------------------------------------------------- profiles

def selfsim_window(length: int, k: int, lo: int | None = None,
                   hi: int | None = None) -> tuple[int, int]:
    """[lo, hi] for selfsim_profile(trace, k, lo, hi) on a trace of this
    length, as series_window."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    count = length >> k  # 0 iff 2^k > length, without computing 2^k
    if count < 1:
        raise RangeError(f"level {k} needs horizon >= 2^{k}, have {length}")
    return _window(f"selfsim level {k}", lo, hi, 1, count)


def selfsim_profile(trace: Trace, k: int, lo: int | None = None,
                    hi: int | None = None) -> Series:
    """Fluctuation sampled on the 2^k-decimated grid, x normalized to (0, 1].

    Sample m carries y = 2Q(2^k m) - 2^k m (doubled residual against the
    half-slope ramp) at x = m / floor(len / 2^k); m runs over [lo, hi]
    (defaults: every sample, 1 .. floor(len / 2^k)).
    """
    lo, hi = selfsim_window(trace.len, k, lo, hi)
    step = 1 << k
    return Series(_evaluate(trace, lo, hi, 1, den=trace.len >> k),
                  _evaluate(trace, lo, hi, -step, ((2, step, 0),)), halves=True)


def log_grid(length: int, samples_per_octave: int) -> tuple[list[float], list[int]]:
    """The uniform log grid x = i / samples_per_octave, i = 0, 1, ... while
    2^x <= length, and its indices n = round(2^x) clipped to [1, length],
    for samples_per_octave >= 1 (series_window checks it).  Neighbouring n
    repeat where the grid is finer than the integers.  round takes a tie to
    even, as NumPy's rint does."""
    if length < 1:
        raise RangeError("empty trace")
    i_max = math.floor(samples_per_octave * math.log2(length))
    x = [i / samples_per_octave for i in range(i_max + 1)]
    return x, [min(max(round(2.0**v), 1), length) for v in x]
