"""Classify how the recursion behaves across small seeds.

Every seed lands in exactly one bucket:

  * ORIGINAL               matches the (1,1) reference from n = 1, shift 0
  * MERGES_INTO_ORIGINAL   matches the reference from some n0 > 1, shift 0
  * SHIFTED_ORIGINAL       matches reference(n + shift) for a nonzero shift
  * RAMP_ORBIT             locks onto Q(2m) = 2m, Q(2m+1) = 2
  * LONG_LIVED_IRREGULAR   survives the horizon, matches nothing above
  * STRONG_DEATH           dies at the earliest possible step
  * WEAK_DEATH             dies later

Merge claims rest on a buffer comparison of the full claimed span: a
shift's trailing PROBE_WINDOW slots are compared first, and only a shift
whose tail agrees has its whole span copied and searched.  The search
limits (MAX_SHIFT, PROBE_WINDOW, ORBIT_SPAN) are fixed for every survey.
table_report groups the 27-triple survey as a dict keyed by SeedClass.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .engine import OutcomeKind, RecursionConfig, Seed, Trace, run
from .errors import ConfigError

MAX_SHIFT = 8            # largest |shift| a merge may have
PROBE_WINDOW = 10**4     # trailing agreement a merge claim needs
ORBIT_SPAN = 10**5       # largest m the ramp-orbit test reads


class SeedClass(Enum):
    ORIGINAL = "original"
    MERGES_INTO_ORIGINAL = "merges_into_original"
    SHIFTED_ORIGINAL = "shifted_original"
    RAMP_ORBIT = "ramp_orbit"
    LONG_LIVED_IRREGULAR = "long_lived_irregular"
    WEAK_DEATH = "weak_death"
    STRONG_DEATH = "strong_death"


@dataclass(frozen=True)
class SeedReport:
    seed: Seed
    classification: SeedClass
    horizon: int
    death_step: int | None = None
    bad_indices: tuple[str, ...] = ()
    shift: int | None = None
    merge_index: int | None = None
    growth2: Fraction | None = None  # 2 Q(H) / H, present only for survivors


def enumerate_seeds(length: int, max_value: int) -> list[Seed]:
    """All seeds of the given length with entries 1..max_value, lexicographic."""
    if length not in (2, 3):
        raise ConfigError(f"seed survey covers lengths 2 and 3, got {length}")
    if max_value < 1:
        raise ConfigError(f"max_value must be >= 1, got {max_value}")
    return [Seed(vals) for vals in itertools.product(range(1, max_value + 1), repeat=length)]


def detect_ramp_orbit(trace: Trace) -> bool:
    """True when Q(2m) = 2m and Q(2m+1) = 2 for every m in
    [2, min(ORBIT_SPAN, (len - 1) // 2)]; False when that window is empty."""
    m_hi = min(ORBIT_SPAN, (trace.len - 1) // 2)
    if m_hi < 2:
        return False
    q, typecode = trace.values, trace.values.format
    if (q[4], q[5]) != (4, 2):  # most seeds leave the orbit at once
        return False
    return (q[5 : 2 * m_hi + 2 : 2].tobytes() == array(typecode, [2]).tobytes() * (m_hi - 1)
            and q[4 : 2 * m_hi + 1 : 2].tobytes()
            == array(typecode, range(4, 2 * m_hi + 1, 2)).tobytes())


def _slots(view: memoryview, typecode: str) -> memoryview:
    """view's values in typecode slots: view itself, or a copy widened value
    by value."""
    return view if view.format == typecode else memoryview(array(typecode, view))


def _agreeing_tail(a: bytes, b: memoryview) -> int:
    """The smallest i from which the slots of a (bytes) equal b[i:].

    a[i:] == b[i:] holds for every i past the last mismatch.  Merges start
    near the front, so the search gallops from there, where a failing
    comparison stops at once, then bisects.
    """
    lo, hi = 0, 1
    while hi < len(b) and not a.endswith(b[hi:]):
        lo, hi = hi + 1, 2 * hi
    hi = min(hi, len(b))
    while lo < hi:
        mid = (lo + hi) // 2
        if a.endswith(b[mid:]):
            hi = mid
        else:
            lo = mid + 1
    return lo


def detect_merge(trace: Trace, reference: Trace) -> tuple[int, int] | None:
    """Find (shift, n0) with trace(n) = reference(n + shift) for all n >= n0.

    Shifts are scanned in order 0, +1, -1, ..., +MAX_SHIFT, -MAX_SHIFT;
    the first shift whose trailing agreement span reaches PROBE_WINDOW
    wins, with n0 the smallest starting index.  Returns None when no
    shift qualifies.  Slots of two widths are compared by value, both
    widened to 8 bytes.
    """
    tr, ref = trace.values, reference.values
    typecode = tr.format if tr.format == ref.format else "Q"
    len_tr, len_ref = trace.len, reference.len

    shifts = [0]
    for s in range(1, MAX_SHIFT + 1):
        shifts.extend((s, -s))
    for s in shifts:
        n_start = max(1, 1 - s)
        n_end = min(len_tr, len_ref - s)
        if n_end - n_start + 1 < PROBE_WINDOW:
            continue
        tail = n_end - PROBE_WINDOW + 1
        if (_slots(tr[tail : n_end + 1], typecode).tobytes()
                != _slots(ref[tail + s : n_end + s + 1], typecode).tobytes()):
            continue
        # the search's last comparison that holds covers the whole claimed span
        n0 = n_start + _agreeing_tail(_slots(tr[n_start : n_end + 1], typecode).tobytes(),
                                      _slots(ref[n_start + s : n_end + s + 1], typecode))
        return s, n0
    return None


def classify(seed: Seed, reference: Trace, horizon: int) -> SeedReport:
    """Run the seed to the horizon, under the reference's perturbation, and
    classify the outcome."""
    if reference.seed.values != (1, 1):
        raise ConfigError("reference must be the (1,1) trace")
    if reference.len < horizon + MAX_SHIFT:
        raise ConfigError(
            f"reference length {reference.len} < horizon + MAX_SHIFT = {horizon + MAX_SHIFT}"
        )
    trace = run(RecursionConfig(seed=seed, horizon=horizon,
                                perturbation=reference.config.perturbation))
    out = trace.outcome
    if out.kind is OutcomeKind.STRONG_DEATH:
        return SeedReport(seed, SeedClass.STRONG_DEATH, horizon,
                          death_step=out.step, bad_indices=out.bad_indices)
    if out.kind is OutcomeKind.WEAK_DEATH:
        return SeedReport(seed, SeedClass.WEAK_DEATH, horizon,
                          death_step=out.step, bad_indices=out.bad_indices)

    growth2 = Fraction(2 * trace.value_at(horizon), horizon)
    if detect_ramp_orbit(trace):
        return SeedReport(seed, SeedClass.RAMP_ORBIT, horizon, growth2=growth2)
    merge = detect_merge(trace, reference)
    if merge is not None:
        shift, n0 = merge
        if shift == 0 and n0 == 1:
            cls = SeedClass.ORIGINAL
        elif shift == 0:
            cls = SeedClass.MERGES_INTO_ORIGINAL
        else:
            cls = SeedClass.SHIFTED_ORIGINAL
        return SeedReport(seed, cls, horizon, shift=shift, merge_index=n0, growth2=growth2)
    return SeedReport(seed, SeedClass.LONG_LIVED_IRREGULAR, horizon, growth2=growth2)


def table_report(reports: list[SeedReport]) -> dict[SeedClass, tuple[SeedReport, ...]]:
    """The full 27-triple survey by class, every class a key, each group in
    seed order; partial surveys are refused."""
    expected = {vals for vals in itertools.product((1, 2, 3), repeat=3)}
    got = {r.seed.values for r in reports}
    if got != expected:
        raise ConfigError("table_report needs exactly the 27 seeds of length 3, entries 1..3")
    if any(r.horizon < 10**5 for r in reports):
        raise ConfigError("table_report needs classification horizon >= 1e5")

    ordered = sorted(reports, key=lambda r: r.seed.values)
    return {cls: tuple(r for r in ordered if r.classification is cls) for cls in SeedClass}
