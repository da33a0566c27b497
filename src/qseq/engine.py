"""Core engine for the perturbed Q-recursion.

The sequence is Q(n) = Q(n - Q(n-1)) + Q(n - Q(n-2)) + eps(n) with
eps(n) = +1 at even n and -1 at odd n (or 0 in classical mode; one bit,
Perturbation.bit, tells the two apart), started from a short seed of
positive values.  The engine runs the recursion into a dense 1-based
array, records how a run ends, and supports resuming a live run at a
larger horizon.

A run dies at step n when a feedback index n - Q(n-1) or n - Q(n-2)
is non-positive.  Deaths at the earliest possible step (no more than
one term computed past the seed, i.e. step <= seed_len + 2) are
classified strong: the seed itself is fatal.  Later deaths are weak.
Which of the two indices failed is recorded separately.
"""

from __future__ import annotations

import contextlib
import mmap
from array import array
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

from . import _native
from ._native import SLOT_CAPS, ST_DEATH, ST_OK
from .errors import ConfigError, RangeError, TraceStateError, ValueOverflowError

MAX_SEED_LEN = 8

# Slots a forward walk handles at a time, 4 MB of 4-byte slots: extend's copy
# into a buffer that takes no reports, and build_frequency's count.  After
# each piece, a trace mapped from a checkpoint gives back its whole mapping.
PIECE = 1 << 20

# The struct typecode of a slot, by width in bytes, in the native byte order
# the kernel writes (little-endian, as the checkpoint format requires, on
# every host qseq is built for).
_TYPECODES = {4: "I", 8: "Q"}


class Perturbation(Enum):
    ALTERNATING = "alternating"
    NONE = "none"

    @property
    def bit(self) -> int:
        """1 if eps(n) alternates, else 0: advance's flag and a checkpoint's byte."""
        return 1 if self is Perturbation.ALTERNATING else 0


@dataclass(frozen=True)
class Seed:
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not 2 <= len(vals) <= MAX_SEED_LEN:
            raise ConfigError(f"seed length must be in [2, {MAX_SEED_LEN}], got {len(vals)}")
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"seed entries must be integers >= 1, got {v!r}")

    @classmethod
    def parse(cls, text: str) -> "Seed":
        try:
            vals = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"cannot parse seed {text!r}") from exc
        return cls(vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


@dataclass(frozen=True)
class RecursionConfig:
    seed: Seed
    horizon: int
    perturbation: Perturbation = Perturbation.ALTERNATING
    width: int = 4

    def __post_init__(self) -> None:
        if self.width not in _TYPECODES:
            raise ConfigError(f"width must be 4 or 8 bytes, got {self.width}")
        if not isinstance(self.horizon, int) or self.horizon < len(self.seed):
            raise ConfigError(
                f"horizon must be an integer >= seed length {len(self.seed)}, got {self.horizon}"
            )
        cap = SLOT_CAPS[self.width]
        for v in self.seed:
            if v > cap:
                raise ConfigError(f"seed entry {v} exceeds the {self.width}-byte value range")

    @property
    def dtype(self) -> str:
        """The slot's typecode, for memoryview.cast."""
        return _TYPECODES[self.width]

    @property
    def cap(self) -> int:
        return SLOT_CAPS[self.width]


class OutcomeKind(Enum):
    ALIVE = "alive"
    WEAK_DEATH = "weak_death"
    STRONG_DEATH = "strong_death"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    step: int | None = None
    bad_t1: bool = False
    bad_t2: bool = False

    @classmethod
    def alive(cls) -> "Outcome":
        return cls(OutcomeKind.ALIVE)

    @classmethod
    def death(cls, step: int, seed_len: int, bad_t1: bool, bad_t2: bool) -> "Outcome":
        kind = OutcomeKind.STRONG_DEATH if step <= seed_len + 2 else OutcomeKind.WEAK_DEATH
        return cls(kind, step, bad_t1, bad_t2)

    @property
    def is_alive(self) -> bool:
        return self.kind is OutcomeKind.ALIVE

    @property
    def bad_indices(self) -> tuple[str, ...]:
        out = []
        if self.bad_t1:
            out.append("t1")
        if self.bad_t2:
            out.append("t2")
        return tuple(out)


class FileMapping(mmap.mmap):
    """A checkpoint mapped from its file, slot 1 at byte offset: copy-on-write,
    as checkpoint.load maps it, or shared (ReservedMapping).  A page given
    back to the OS (give_back) is read again from the file."""

    offset: int


class ReservedMapping(FileMapping):
    """A file mapped shared for a run to fill, as checkpoint.reserve maps a
    new checkpoint: the run calls on_chunk(end) just after it writes each
    multiple end of chunk before its horizon, slots [0, end] of its buffer
    being final."""

    chunk: int
    on_chunk: Callable[[int], None]


def give_back(values: memoryview, lo: int = 0, hi: int | None = None) -> None:
    """Give back to the OS (MADV_DONTNEED) the whole pages of values'
    mapping that lie between the start of slot lo and the start of slot hi:
    from the mapping's first byte if lo is 0, to its last if hi is None.
    values are a trace's slots, slot 0 first.  A forward walk gives back
    the whole mapping after each piece or block it reads: a page ahead of
    it is not mapped yet, so dropping it costs nothing.  Only a run's read
    window (checkpoint._Draft) passes bounds.

    Only a FileMapping gives pages back, and a later read maps them again
    from the page cache, so a caller that gives back a slot it reads again
    pays a minor fault, never a wrong value.  Any other buffer is left as
    it is: an anonymous page given back would read as zeros.  The first
    page of a copy-on-write mapping, which holds slot 0's zeroed private
    copy, is never given back.  Like every hint, an OSError is ignored.
    """
    mapped = values.obj
    if not isinstance(mapped, FileMapping):
        return
    page = mmap.PAGESIZE
    start = -(-(mapped.offset + values.itemsize * (lo - 1)) & -page) if lo else 0
    if not isinstance(mapped, ReservedMapping):
        start = max(start, page)
    if hi is None:
        stop = len(mapped)
    else:
        stop = (mapped.offset + values.itemsize * (min(hi, len(values)) - 1)) & -page
    if start < stop:
        with contextlib.suppress(OSError):
            mapped.madvise(mmap.MADV_DONTNEED, start, stop - start)


class Trace:
    """An immutable computed run: config, values Q(1..len), and outcome.

    The values are 1-based: slot 0 is unused and zero, slot n holds Q(n).
    ``values`` holds them as a read-only memoryview of config.dtype slots.
    """

    __slots__ = ("config", "values", "outcome")

    def __init__(self, config: RecursionConfig, values, outcome: Outcome):
        view = memoryview(values)
        if view.itemsize != config.width:
            raise ValueError(f"values must be {config.width}-byte slots,"
                             f" got {view.itemsize}-byte items")
        self.config = config
        self.values = view.cast("B").cast(config.dtype).toreadonly()
        self.outcome = outcome

    @property
    def len(self) -> int:
        return len(self.values) - 1

    @property
    def seed(self) -> Seed:
        return self.config.seed

    def value_at(self, n: int) -> int:
        if not 1 <= n <= self.len:
            raise RangeError(f"n={n} outside computed range [1, {self.len}]")
        return self.values[n]

    def __len__(self) -> int:
        return self.len

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.config == other.config
            and self.outcome == other.outcome
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.config, self.outcome, self.len))

    def __repr__(self) -> str:
        state = self.outcome.kind.value
        if self.outcome.step is not None:
            state += f"@{self.outcome.step}"
        return f"Trace(seed=({self.seed}), {self.config.perturbation.value}, len={self.len}, {state})"


def zeroed_slots(count: int, typecode: str) -> memoryview:
    """count slots of typecode in a fresh private anonymous mapping, whose
    pages are zero and resident only once written.

    The mapping asks for transparent huge pages, as NumPy does for its own
    large arrays.
    """
    out = mmap.mmap(-1, count * array(typecode).itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        out.madvise(mmap.MADV_HUGEPAGE)
    return memoryview(out).cast(typecode)


def _slots(config: RecursionConfig, out) -> memoryview:
    """The slots a run of config fills: out, checked, or zeroed_slots."""
    size = config.width * (config.horizon + 1)
    if out is None:
        return zeroed_slots(config.horizon + 1, config.dtype)
    view = memoryview(out)
    if view.itemsize != config.width or view.nbytes != size:
        raise ValueError(f"out must be {config.horizon + 1} slots of uint{8 * config.width},"
                         f" got {view.nbytes} bytes of {view.itemsize}-byte items")
    return view.cast("B").cast(config.dtype)


def _run_from(config: RecursionConfig, arr: memoryview, start: int) -> Trace:
    """Run the kernel in place over arr[start..config.horizon]; the Trace it leaves.

    A death keeps arr[:step], a view of arr: the slots past it were never
    written, so their pages are never resident.  A run into a
    ReservedMapping reports its finished chunks to it.
    """
    mapped = arr.obj
    chunks = (mapped.on_chunk, mapped.chunk) if isinstance(mapped, ReservedMapping) else ()
    status, step, bad1, bad2 = _native.kernel.advance(arr, start, config.perturbation.bit,
                                                      *chunks)
    if status == ST_OK:
        return Trace(config, arr, Outcome.alive())
    if status == ST_DEATH:
        outcome = Outcome.death(step, len(config.seed), bool(bad1), bool(bad2))
        return Trace(config, arr[:step], outcome)
    msg = f"value at step n={step} exceeds the {config.width}-byte range"
    if config.width == 4:
        msg += "; rerun with width=8"
    raise ValueOverflowError(msg)


def run(config: RecursionConfig, out=None) -> Trace:
    """Run the recursion from its seed up to config.horizon.

    The values go into out if given: any buffer of config.horizon + 1 slots
    of config.width bytes, of which slot 0 is neither read nor written.
    Otherwise into a fresh mapping.
    """
    arr = _slots(config, out)
    for n, value in enumerate(config.seed, start=1):
        arr[n] = value
    return _run_from(config, arr, len(config.seed) + 1)


def extend(trace: Trace, new_horizon: int, out=None) -> Trace:
    """Resume a live trace up to new_horizon, into out if given (as for run).

    A target at or below the computed length returns the trace unchanged.
    The result is identical to a fresh run at new_horizon.  The prefix is
    copied in pieces of PIECE slots, or of the chunk of a ReservedMapping
    out, which hears on_chunk(end) once each whole chunk is copied, so an
    extension reports the ends a fresh run reports.  A trace mapped from a
    checkpoint gives back its whole mapping after each piece (give_back),
    so the two copies of the prefix are never resident at once.
    """
    if not trace.outcome.is_alive:
        raise TraceStateError(
            f"cannot extend a dead trace ({trace.outcome.kind.value} at step {trace.outcome.step})"
        )
    if new_horizon <= trace.len:
        return trace
    config = replace(trace.config, horizon=new_horizon)
    arr = _slots(config, out)
    draft = arr.obj if isinstance(arr.obj, ReservedMapping) else None
    piece = PIECE if draft is None else draft.chunk
    for lo in range(1, trace.len + 1, piece):
        hi = min(lo + piece, trace.len + 1)
        arr[lo:hi] = trace.values[lo:hi]
        give_back(trace.values)
        if draft is not None and hi - lo == piece and hi > len(config.seed) + 1:
            draft.on_chunk(hi - 1)  # as the kernel reports: past the seed, before the horizon
    return _run_from(config, arr, trace.len + 1)
