"""Derived series and structural probes over a computed trace.

Half-integer quantities (the fluctuation 2Q(n) - n lives on a half-grid)
are kept exact by storing doubled values: every function or series whose
name or ``halves`` flag says so returns 2x the mathematical value.  The
CLI divides by two only at the text boundary.

Series codes used by the CLI and the registry here:

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

    def __iter__(self):
        return zip(self.x.tolist(), self.y.tolist())


def _check_range(name: str, n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise RangeError(f"{name}={n} outside valid range [{lo}, {hi}]")


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


# ---------------------------------------------------------------- scalars

def fluctuation2(trace: Trace, n: int) -> int:
    """2Q(n) - n, i.e. the doubled fluctuation around n/2."""
    _check_range("n", n, 1, trace.len)
    return 2 * trace.value_at(n) - n


def safety_margin(trace: Trace, n: int) -> int:
    _check_range("n", n, 3, trace.len)
    return n - max(trace.value_at(n - 1), trace.value_at(n - 2))


def difference(trace: Trace, n: int) -> int:
    _check_range("n", n, 1, trace.len - 1)
    return trace.value_at(n + 1) - trace.value_at(n)


def clock_indices(trace: Trace, n: int) -> tuple[int, int]:
    """(n - Q(n-1), n - Q(n-2)): where step n reads its two summands."""
    _check_range("n", n, 3, trace.len)
    return n - trace.value_at(n - 1), n - trace.value_at(n - 2)


def renorm_residual(trace: Trace, n: int) -> int:
    """Q(2n) - 2Q(n): the defect of exact factor-two self-similarity."""
    _check_range("n", n, 1, trace.len // 2)
    return trace.value_at(2 * n) - 2 * trace.value_at(n)


def renorm_residual_split(trace: Trace, k: int) -> tuple[int, int]:
    """Residuals along odd and even input indices: (Q(4k-2) - 2Q(2k-1), Q(4k) - 2Q(2k))."""
    _check_range("k", k, 1, trace.len // 4)
    return (
        trace.value_at(4 * k - 2) - 2 * trace.value_at(2 * k - 1),
        trace.value_at(4 * k) - 2 * trace.value_at(2 * k),
    )


# ------------------------------------------------------------- bulk series

_INT_SERIES = ("S", "D", "t1", "t2", "R", "Rodd", "Reven", "A", "B", "a", "b")
_HALF_SERIES = ("E", "s", "d", "G")
SERIES_CODES = _HALF_SERIES[:1] + _INT_SERIES + _HALF_SERIES[1:]


def series_domain(trace: Trace, code: str) -> tuple[int, int]:
    """Valid index range [lo, hi] for a series code on this trace."""
    L = trace.len
    domains = {
        "E": (1, L),
        "S": (3, L),
        "D": (1, L - 1),
        "t1": (3, L),
        "t2": (3, L),
        "R": (1, L // 2),
        "Rodd": (1, L // 4),
        "Reven": (1, L // 4),
        "A": (1, (L + 1) // 2),
        "B": (1, L // 2),
        "a": (1, (L + 1) // 2),
        "b": (1, L // 2),
        "s": (1, L // 2),
        "d": (1, L // 2),
    }
    if code not in domains:
        raise ConfigError(f"unknown series code {code!r}")
    return domains[code]


def series(trace: Trace, code: str, lo: int | None = None, hi: int | None = None,
           samples_per_octave: int = 64) -> Series:
    """Build the named series over [lo, hi] (defaults: the full domain)."""
    if code == "G":
        return log_profile(trace, samples_per_octave)
    d_lo, d_hi = series_domain(trace, code)
    lo = d_lo if lo is None else lo
    hi = d_hi if hi is None else hi
    if not (d_lo <= lo <= hi <= d_hi):
        raise RangeError(f"series {code}: range [{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")

    q = functools.partial(_q_at, trace)
    n = np.arange(lo, hi + 1, dtype=np.int64)
    if code == "E":
        y = 2 * q(n) - n
    elif code == "S":
        y = n - np.maximum(q(n - 1), q(n - 2))
    elif code == "D":
        y = q(n + 1) - q(n)
    elif code == "t1":
        y = n - q(n - 1)
    elif code == "t2":
        y = n - q(n - 2)
    elif code == "R":
        y = q(2 * n) - 2 * q(n)
    elif code == "Rodd":
        y = q(4 * n - 2) - 2 * q(2 * n - 1)
    elif code == "Reven":
        y = q(4 * n) - 2 * q(2 * n)
    elif code == "A":
        y = q(2 * n - 1)
    elif code == "B":
        y = q(2 * n)
    elif code == "a":
        y = q(2 * n - 1) - n
    elif code == "b":
        y = q(2 * n) - n
    elif code == "s":
        y = q(2 * n - 1) + q(2 * n) - 2 * n
    elif code == "d":
        y = q(2 * n) - q(2 * n - 1)
    return Series(x=n, y=y, halves=code in _HALF_SERIES)


@dataclass(frozen=True)
class Subsequences:
    """Odd/even interleaves and their drifts away from k (s2/d2 doubled)."""

    odd: np.ndarray        # A(k) = Q(2k-1)
    even: np.ndarray       # B(k) = Q(2k)
    odd_drift: np.ndarray  # a(k) = A(k) - k
    even_drift: np.ndarray  # b(k) = B(k) - k
    drift_mean2: np.ndarray  # 2s(k) = a(k) + b(k)
    drift_gap2: np.ndarray   # 2d(k) = b(k) - a(k)


def subsequences(trace: Trace) -> Subsequences:
    """All six interleave series over k = 1..len//2 (1-based: slot 0 unused)."""
    k_hi = trace.len // 2
    if k_hi < 1:
        raise RangeError("trace too short for interleaved subsequences")
    k = np.arange(1, k_hi + 1, dtype=np.int64)
    a_vals = _q_at(trace, 2 * k - 1)
    b_vals = _q_at(trace, 2 * k)

    def one_based(arr):
        out = np.zeros(k_hi + 1, dtype=np.int64)
        out[1:] = arr
        out.flags.writeable = False
        return out

    return Subsequences(
        odd=one_based(a_vals),
        even=one_based(b_vals),
        odd_drift=one_based(a_vals - k),
        even_drift=one_based(b_vals - k),
        drift_mean2=one_based(a_vals + b_vals - 2 * k),
        drift_gap2=one_based(b_vals - a_vals),
    )


def check_subsequence_identities(trace: Trace, k_lo: int = 2,
                                 k_hi: int | None = None) -> np.ndarray:
    """k in [k_lo, k_hi] violating the two interleaved recurrences.

    With all values odd, the recursion closes on the interleaves:

        A(k) = B((2k-1-B(k-1))/2) + B((2k-1-A(k-1))/2) - 1
        B(k) = A((2k-A(k)+1)/2)   + A((2k-B(k-1)+1)/2) + 1

    Returns the (expected empty) array of violating k; an identity whose
    inner index falls outside the trace counts as a violation.  k runs in
    blocks of _BLOCK, so the extra memory is bounded by the block, not
    the trace.
    """
    L = trace.len
    if k_hi is None:
        k_hi = L // 2
    if not 2 <= k_lo <= k_hi:
        raise RangeError(f"need 2 <= k_lo <= k_hi, got [{k_lo}, {k_hi}]")
    if 2 * k_hi > L:
        raise RangeError(f"k_hi={k_hi} needs trace length >= {2 * k_hi}, have {L}")
    assert_all_odd(trace)
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

def selfsim_profile(trace: Trace, k: int) -> Series:
    """Fluctuation sampled on the 2^k-decimated grid, x normalized to (0, 1].

    Sample m carries y = 2Q(2^k m) - 2^k m (doubled residual against the
    half-slope ramp) at x = m / floor(len / 2^k).
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    count = trace.len >> k
    if count < 1:
        raise RangeError(f"2^{k} exceeds trace length {trace.len}")
    m = np.arange(1, count + 1, dtype=np.int64)
    idx = m << k
    y = 2 * _q_at(trace, idx) - idx
    return Series(x=m / count, y=y, halves=True)


def log_profile(trace: Trace, samples_per_octave: int = 64) -> Series:
    """Doubled fluctuation at n = round(2^x) for x on a uniform log grid."""
    if samples_per_octave < 1:
        raise ConfigError(f"samples_per_octave must be >= 1, got {samples_per_octave}")
    if trace.len < 1:
        raise RangeError("empty trace")
    i_max = math.floor(samples_per_octave * math.log2(trace.len))
    x = np.arange(i_max + 1, dtype=np.float64) / samples_per_octave
    n = np.clip(np.rint(np.exp2(x)).astype(np.int64), 1, trace.len)
    y = 2 * _q_at(trace, n) - n
    return Series(x=x, y=y, halves=True)
