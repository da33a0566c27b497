"""Binary trace files.

Layout (all little-endian):

    8s   magic  b"QSEQTRC\\0"
    H    format version (currently 2)
    B    value width in bytes (4 or 8)
    B    perturbation (0 none, 1 alternating)
    B    outcome kind (0 alive, 1 weak death, 2 strong death)
    B    bad-index flags (bit 0: t1, bit 1: t2)
    H    seed length
    Q    death step (0 when alive)
    Q    horizon
    Q    computed length
    Q*   seed values (seed length of them)
    ...  raw values Q(1..len), width bytes each
    I*   crc32 of each chunk of CHUNK values, the last one possibly short
    I    crc32 of the header, the seed and that table

A version-1 file has no table: its trailer is the crc32 of everything
before it.  Such a file still loads, and is never rewritten to version 2.

Every output file is written through atomic_write: a temp file in the
target directory, fsynced and renamed into place, so a crash never leaves a
half-written file behind.

A checkpoint is written in place.  reserve() allocates the temp file at its
full size and maps it shared, and the kernel runs straight into the mapped
slots, so the values reach the page cache without a copy.  While the kernel
computes, it reports each chunk of CHUNK slots it finishes, and the
mapping's worker thread checksums that chunk, starts its writeback, gives
back the pages of the slots outside the run's read window, near half the
step (the paper's heuristic), so that a run keeps about a sixth of its
slots resident, not all of them, and then faults in the pages of the chunk
after the one the kernel is writing, so that the kernel itself takes few
page faults.  The kernel's next report waits for that give-back, so the
run is never more than one report ahead of the worker.  An extension into
such a file reports each chunk of the prefix it copies in the same way.
A page given back (engine.give_back) keeps its data in the page cache,
and a later read maps it again.  save() fsyncs the values, which finds
little left to write, checksums the chunks of the tail past the last
report, then writes the header, the seed, the table and the trailer
(shrinking the file first if the run died) and commits the file.
A trace held in memory is written into such a file and then checksummed,
to the same bytes.  An exception at a report, Ctrl-C's or the worker's
among them, ends the run there and removes the temp file.  Every CRC is
the kernel's crc32, which equals zlib.crc32.

read_header parses and checks the header and seed alone, so a caller can
tell which run a file holds without reading its values.  load checks the
trailer, then the chunks, half of them on a second thread, and maps the
file copy-on-write, so a trace keeps in memory only the terms a caller
reads; a caller that walks the values forward (build_frequency, the CLI's
series writers, extend) gives back the whole mapping after each piece or
block, so it keeps about the slots of one resident.
Both reject a header that contradicts itself: a live trace holds exactly
`horizon` values; a dead one holds `step - 1`, dies after its seed and by
its horizon, and has the strong/weak kind that Outcome.death gives its
step; the stored Q(1..seed_len) equal the seed.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import sys
import tempfile
import threading
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import BinaryIO, NamedTuple

from . import _native
from ._native import SLOT_CAPS
from .engine import (
    FileMapping,
    Outcome,
    OutcomeKind,
    Perturbation,
    RecursionConfig,
    ReservedMapping,
    Seed,
    Trace,
    give_back,
)
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
)

MAGIC = b"QSEQTRC\x00"
VERSION = 2
CHUNK = 1 << 20  # values per checksummed chunk: 4 MB of 4-byte slots

_HEADER = struct.Struct("<8sHBBBBHQQQ")
# madvise advice that faults a range in for writing (Linux 5.14), which
# Python 3.11's mmap does not name; None where it does not exist.
_MADV_POPULATE_WRITE = getattr(mmap, "MADV_POPULATE_WRITE",
                               23 if sys.platform.startswith("linux") else None)
_READ_CHUNK = 1 << 22  # bytes of load's two CRC buffers: the CRC runs over each read while cached
# The read window of a run into a checkpoint, as fractions of the step n:
# the recursion's dominant indices n - Q(n-1) and n - Q(n-2) lie near n/2,
# and for the paper's seed (1,1) never below 0.4679 n past n = 2^20.  At a
# report of end, the run reads on until about end + 2 * CHUNK, so the
# worker keeps the slots [0.44 end, 0.6 (end + 2 * CHUNK)] mapped and gives
# back the rest up to end.  The bounds are fixed: a seed that reads outside
# them ((3,1,2) reads down to 0.36 n) only faults its pages in again, and a
# window taken from the data costs a pass over every value.
_WINDOW_LOW, _WINDOW_HIGH = 0.44, 0.6

_PERT_FROM = {p.bit: p for p in Perturbation}
_KIND_CODES = {OutcomeKind.ALIVE: 0, OutcomeKind.WEAK_DEATH: 1, OutcomeKind.STRONG_DEATH: 2}
_KIND_FROM = {v: k for k, v in _KIND_CODES.items()}


class _TempFile:
    """atomic_write's temp file beside path, open as fh until committed or discarded."""

    def __init__(self, path: Path):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, self.name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        self.fh = os.fdopen(fd, "wb")
        self.committed = False

    def commit(self) -> None:
        """fsync the file, rename it over path, then fsync the directory so
        that the rename itself is durable."""
        with self.fh:
            self.fh.flush()
            os.fsync(self.fh.fileno())
        os.replace(self.name, self.path)
        self.committed = True
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def discard(self) -> None:
        self.fh.close()
        with contextlib.suppress(OSError):
            os.unlink(self.name)


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[_TempFile]:
    """A temp file for path, to write through its fh, so that a crash leaves
    the old file or the new one.

    The temp file lies beside path with mode 0o666 & ~umask.  When the block
    ends it is committed (fsynced, renamed over path, the directory fsynced)
    unless the block committed it itself; if the block raises, it is removed
    and path keeps its old file.
    """
    umask = os.umask(0)
    os.umask(umask)
    temp = _TempFile(Path(path))
    try:
        os.chmod(temp.fh.fileno(), 0o666 & ~umask)  # mkstemp creates it 0o600
        yield temp
        if not temp.committed:
            temp.commit()
    except BaseException:
        if not temp.committed:
            temp.discard()
        raise


def _chunk_crcs(values: memoryview, first: int) -> list[int]:
    """The CRC, from 0, of each chunk of values[1:] from chunk first on."""
    crc32 = _native.kernel.crc32
    return [crc32(values[lo : lo + CHUNK]) for lo in range(1 + CHUNK * first, len(values), CHUNK)]


def _hint(advise: Callable[..., object], *args) -> None:
    """advise(*args), a hint to the OS about pages or their writeback.  A
    hint changes no byte of any file, so its OSError is ignored: it never
    fails a run or a save."""
    with contextlib.suppress(OSError):
        advise(*args)


class _Draft(ReservedMapping):
    """A shared mapping of a checkpoint's temp file at its full size, made
    by reserve() and finished by save().

    Its chunk is CHUNK, so a run into it reports (on_chunk) the end of each
    chunk of the file's table it closes, slots [1, end] being final.  At
    each report its worker thread
    - appends the CRC of each chunk that the report closes;
    - starts the writeback of their whole pages with POSIX_FADV_DONTNEED,
      which leaves mapped pages cached;
    - gives back (give_back) the pages of slots [1, end] outside the read
      window [_WINDOW_LOW * end, _WINDOW_HIGH * (end + 2 * CHUNK)], never
      the first page, nor one that holds a slot past end.  Their data stays
      in the page cache, dirty until written back, and a later read maps
      the page again.  The drop comes after the writeback's advice on the
      same pages: on a page no longer mapped, that advice would evict it,
      and the later read would go to the disk;
    - then lets the run report its next chunk, and only after that faults
      in the pages of slots (end + CHUNK, end + 2 * CHUNK] for writing
      (MADV_POPULATE_WRITE), one chunk ahead of the run, which writes slots
      (end, end + CHUNK] meanwhile: so a long run finds its pages mapped,
      and their page faults, which allocate and zero the page cache's
      folios, run on the worker's core instead of the run's.
    A report waits in on_chunk until the worker has given back the one
    before, so the run, or an extension's copy, is never more than one
    report ahead of the worker, and past the read window about two chunks
    are mapped at a time, the one the worker holds and the one the run
    writes, whether the worker keeps up or not.  A report that finds the
    worker failed raises what it raised.  The wait holds no GIL, and
    Ctrl-C ends it.
    The fault-in, the advice and the drop are hints (_hint, give_back): an
    OSError from any of them is ignored, so the run and its file are the
    same without them.  join() ends the worker once it has finished the
    report it holds; then crcs are the CRCs of the chunks up to the last
    report, or error is what the worker raised.
    """

    temp: _TempFile
    crcs: list[int]
    error: BaseException | None

    def start(self, temp: _TempFile, offset: int, slots: memoryview) -> None:
        self.temp, self.offset, self.chunk = temp, offset, CHUNK
        self.crcs, self.error = [], None
        self._slot = threading.Condition()  # guards error, _end and _closed
        self._end = None  # the report handed over and not yet given back
        self._closed = False  # set by join
        self._worker = threading.Thread(target=self._work, args=(slots,),
                                        name="qseq-save-chunks")
        self._worker.start()

    def on_chunk(self, end: int) -> None:
        """Hand end to the worker once it has given back the previous
        report; raise what the worker raised instead, if it did."""
        with self._slot:
            self._slot.wait_for(lambda: self._end is None or self.error is not None)
            if self.error is not None:
                raise self.error
            self._end = end
            self._slot.notify_all()

    def join(self) -> None:
        with self._slot:
            self._closed = True
            self._slot.notify_all()
        self._worker.join()

    def _work(self, slots: memoryview) -> None:
        fd, written = self.temp.fh.fileno(), 0
        try:
            while True:
                with self._slot:
                    self._slot.wait_for(lambda: self._end is not None or self._closed)
                    end = self._end
                if end is None:
                    return
                self.crcs += _chunk_crcs(slots[: end + 1], len(self.crcs))
                pages_end = self._byte(slots, end) & -mmap.PAGESIZE  # the page of slot end + 1
                if hasattr(os, "posix_fadvise") and pages_end > written:
                    _hint(os.posix_fadvise, fd, written, pages_end - written,
                          os.POSIX_FADV_DONTNEED)
                    written = pages_end
                low = int(_WINDOW_LOW * end)  # the read window's first slot and its last
                high = math.ceil(_WINDOW_HIGH * (end + 2 * CHUNK))
                give_back(slots, 1, low)
                give_back(slots, high + 1, end + 1)
                with self._slot:  # the run may report the next chunk
                    self._end = None
                    self._slot.notify_all()
                self._fault_in(slots, end + CHUNK, end + 2 * CHUNK)
        except BaseException as exc:  # raised by on_chunk or _finish
            with self._slot:
                self.error = exc
                self._slot.notify_all()

    def _byte(self, slots: memoryview, n: int) -> int:
        """Where slot n ends in the file."""
        return self.offset + slots.itemsize * n

    def _fault_in(self, slots: memoryview, lo: int, hi: int) -> None:
        """Fault the pages of slots (lo, hi] in for writing, where the
        system can; past the last slot, nothing."""
        hi = min(hi, len(slots) - 1)
        if _MADV_POPULATE_WRITE is None or lo >= hi:
            return
        start = self._byte(slots, lo) & -mmap.PAGESIZE
        _hint(self.madvise, _MADV_POPULATE_WRITE, start,  # EINVAL before Linux 5.14
              self._byte(slots, hi) - start)


@contextlib.contextmanager
def reserve(path: str | Path, config: RecursionConfig,
            length: int | None = None) -> Iterator[memoryview]:
    """Slots 0..length (config.horizon by default) of a new checkpoint for
    path, for a run of config to fill.  save() of the trace run into them
    writes the header and the CRCs around the values and commits the file.

    The slots lie in a shared mapping of atomic_write's temp file, whose
    disk space is allocated first, so that a full disk raises OSError here
    instead of SIGBUS in the kernel.  Slot 0 overlays the last seed bytes:
    nothing may write it.  The mapping's worker checksums and starts writing
    back each chunk the run reports, and gives back the pages outside the
    run's read window (_Draft); it ends with the block.  Leaving
    the block without save() removes the temp file, and path keeps its old
    file.
    """
    length = config.horizon if length is None else length
    offset = _HEADER.size + 8 * len(config.seed)
    end = offset + config.width * length
    size = end + 4 * -(-length // CHUNK) + 4  # the chunk table and the trailer
    with atomic_write(path) as temp:
        fd = temp.fh.fileno()
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(fd, 0, size)
        else:  # macOS has no posix_fallocate: there a full disk faults the mapping
            os.ftruncate(fd, size)
        draft = _Draft(fd, size)
        slots = memoryview(draft)[offset - config.width : end].cast(config.dtype)
        draft.start(temp, offset, slots)
        try:
            yield slots
        finally:
            draft.join()  # before atomic_write closes the file the worker writes back
        if not temp.committed:
            raise RuntimeError(f"{path}: reserved checkpoint left without save()")


def _mapped_values(fileno: int, config: RecursionConfig, length: int,
                   payload_offset: int) -> memoryview:
    """Slots 0..length of the checkpoint open as fileno, mapped copy-on-write.

    Slot 0 overlays the last seed bytes; it is zeroed in a private page, and
    the file is never written.
    """
    start = payload_offset - config.width
    mapped = FileMapping(fileno, 0, access=mmap.ACCESS_COPY)
    mapped.offset = payload_offset
    values = memoryview(mapped)[start : start + config.width * (length + 1)].cast(config.dtype)
    values[0] = 0
    return values


def save(trace: Trace, path: str | Path) -> Trace:
    """Write the trace atomically to path; return it mapped from the new file.

    A trace run into reserve(path)'s slots is finished in place: the
    mapping's worker has checksummed each chunk the run reported and
    started its writeback while the run went on, so the fsync finds little
    left to write, and only the tail past the last report, at most one
    chunk, is checksummed after it (about 1 ms).  Any other
    trace is written into a file reserved for its length, then checksummed.
    Then the header, the seed, the chunk table and the trailer are written,
    after the file shrinks to step - 1 values if the run died, and the file
    is committed.

    The trace returned holds the same values as a copy-on-write mapping of
    the committed file, slot 0 zeroed, as load() would return them: the
    shared mapping's pages are given back to the OS, so that none is
    counted twice.
    """
    draft = trace.values.obj
    if isinstance(draft, _Draft) and not draft.temp.committed and draft.temp.path == Path(path):
        return _finish(draft, trace, lambda: os.fsync(draft.temp.fh.fileno()))
    with reserve(path, trace.config, trace.len) as slots:
        draft = slots.obj

        def write():  # through the file: no page faults, and no second copy in this process
            draft.temp.fh.seek(draft.offset)
            draft.temp.fh.write(trace.values[1:])
            draft.temp.fh.flush()

        return _finish(draft, trace, write)


def _finish(draft: _Draft, trace: Trace, flush: Callable[[], None]) -> Trace:
    """Join draft's worker, run flush(), which puts the values in draft's
    file, append the CRCs of the chunks the worker did not reach, then
    write the header, the seed, the table of those CRCs and the
    trailer into the file and commit it; the trace save() returns.
    """
    cfg = trace.config
    out = trace.outcome
    flags = (1 if out.bad_t1 else 0) | (2 if out.bad_t2 else 0)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        cfg.width,
        cfg.perturbation.bit,
        _KIND_CODES[out.kind],
        flags,
        len(cfg.seed),
        out.step or 0,
        cfg.horizon,
        trace.len,
    ) + struct.pack(f"<{len(cfg.seed)}Q", *cfg.seed)  # and the seed
    draft.join()
    if draft.error is not None:
        raise draft.error
    flush()
    crcs = draft.crcs + _chunk_crcs(trace.values, len(draft.crcs))
    table = struct.pack(f"<{len(crcs)}I", *crcs)
    crc32 = _native.kernel.crc32
    trailer = struct.pack("<I", crc32(table, crc32(header)))

    fd = draft.temp.fh.fileno()
    end = draft.offset + cfg.width * trace.len
    size = end + len(table) + 4
    if size < len(draft):
        os.ftruncate(fd, size)
    draft[: draft.offset] = header
    draft[end:size] = table + trailer
    draft.flush()
    values = _mapped_values(fd, cfg, trace.len, draft.offset)
    draft.temp.commit()
    give_back(memoryview(draft))
    return Trace(cfg, values, out)


def _beside_the_caller(name: str, work: Callable[[], None], beside: Callable[[], None]) -> None:
    """Run work on a thread named name while this one runs beside.  The
    thread is joined before either's error is raised: beside's first, else
    work's."""
    errors = []  # what work raised

    def run():
        try:
            work()
        except BaseException as exc:
            errors.append(exc)

    worker = threading.Thread(target=run, name=name)
    worker.start()
    try:
        beside()
    finally:
        worker.join()
    if errors:
        raise errors[0]


class Header(NamedTuple):
    """What a checkpoint holds, from its header and seed alone."""

    config: RecursionConfig
    outcome: Outcome
    length: int   # values stored, Q(1..length)
    crc: int      # crc32 of the header and seed bytes, which the trailer's CRC continues
    version: int  # 1: no chunk table; the trailer's CRC runs on over the values


def read_header(fh: BinaryIO, path: str | Path) -> Header:
    """Parse and check the header and seed of the open trace file fh.

    Leaves fh at the first value.  path only names the file in errors.
    """
    fixed = fh.read(_HEADER.size)
    if len(fixed) < _HEADER.size:
        raise CheckpointTruncatedError(f"{path}: shorter than the fixed header")
    (magic, version, width, pert_code, kind_code, flags,
     seed_len, step, horizon, length) = _HEADER.unpack(fixed)
    if magic != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
    if version not in (1, VERSION):
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    if width not in SLOT_CAPS or pert_code not in _PERT_FROM or kind_code not in _KIND_FROM:
        raise CheckpointFormatError(f"{path}: malformed header fields")
    seed_bytes = fh.read(8 * seed_len)
    if len(seed_bytes) < 8 * seed_len:
        raise CheckpointTruncatedError(f"{path}: ends inside the {seed_len}-entry seed")

    try:
        config = RecursionConfig(
            seed=Seed(struct.unpack(f"<{seed_len}Q", seed_bytes)),
            horizon=horizon,
            perturbation=_PERT_FROM[pert_code],
            width=width,
        )
    except Exception as exc:
        raise CheckpointFormatError(f"{path}: inconsistent header ({exc})") from exc

    kind = _KIND_FROM[kind_code]
    if kind is OutcomeKind.ALIVE:
        if length != horizon or step != 0 or flags != 0:
            raise CheckpointFormatError(
                f"{path}: live trace with {length} values, horizon {horizon},"
                f" death step {step}, flags {flags}")
        outcome = Outcome.alive()
    else:
        if not seed_len < step <= horizon or length != step - 1 or flags not in (1, 2, 3):
            raise CheckpointFormatError(
                f"{path}: death at step {step} with {length} values, horizon {horizon},"
                f" seed length {seed_len}, flags {flags}")
        outcome = Outcome.death(step, seed_len, bool(flags & 1), bool(flags & 2))
        if outcome.kind is not kind:
            raise CheckpointFormatError(
                f"{path}: {kind.value} at step {step}, but a seed of length"
                f" {seed_len} makes that a {outcome.kind.value}")
    return Header(config, outcome, length, _native.kernel.crc32(fixed + seed_bytes), version)


def _check_chunks(fd: int, chunks: list[tuple[int, int, int, int]], path: str | Path) -> None:
    """Check each (start, length, crc, expected) of chunks: crc continued
    over length bytes of the file open as fd from start must be expected.
    The bytes are read with os.preadv through one _READ_CHUNK // 2 buffer."""
    buffer = memoryview(bytearray(min(_READ_CHUNK // 2, max(c[1] for c in chunks))))
    crc32 = _native.kernel.crc32
    for start, length, crc, expected in chunks:
        end = start + length
        while start < end:
            part = buffer[: min(len(buffer), end - start)]
            if os.preadv(fd, [part], start) != len(part):
                raise CheckpointTruncatedError(f"{path}: ended while being read")
            crc = crc32(part, crc)
            start += len(part)
        if crc != expected:
            raise CheckpointChecksumError(f"{path}: checksum mismatch")


def load(path: str | Path) -> Trace:
    """Read a trace written by save(), its values mapped from the file.

    The header, the file size and the CRCs are checked first: the trailer
    against the header, the seed and the chunk table, then each chunk of
    values against its entry, in no order: a second thread checks the
    chunks past the boundary nearest the middle of the values while this
    one checks those before it, or all of one chunk alone.  Each thread
    reads through its own _READ_CHUNK // 2 buffer with os.preadv on the
    descriptor opened here, so a save() that renames a new file over path
    meanwhile changes nothing.  The kernel's crc32 and os.preadv release
    the GIL: at 3·10^7 4-byte slots on two cores a load takes about
    0.015 s, most of it the copies preadv makes, where a version-1 file,
    one chunk whose CRC continues the header's and is the trailer, takes
    0.023 s.  An error of the second thread is raised here after it ends.

    The values are then a copy-on-write mapping of the file, so a caller
    keeps in memory only the pages it reads, and a forward walk gives back
    (engine.give_back) the whole mapping after each piece or block:
    diagnose and compute --export over a 3·10^7 checkpoint peak at about
    29-34 MB and selfsim at 20-30 MB, not 143 MB.
    Slot 0 overlays the last seed bytes; it is zeroed in a private page,
    which give_back never drops, and the file is never written.

    The mapping keeps the file's inode alive, so a later save() to the same
    path, which renames a new file into place, leaves this trace intact.
    A file truncated in place while mapped raises SIGBUS when a lost page is
    read.  qseq truncates only the temp file of a run that died, before the
    file is renamed into place and mapped by anyone else.
    """
    with open(path, "rb") as fh:
        head = read_header(fh, path)
        config = head.config
        payload_offset = fh.tell()
        payload_len = config.width * head.length
        n = -(-head.length // CHUNK) if head.version == VERSION else 0  # table entries
        expected = payload_offset + payload_len + 4 * n + 4
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        if size < expected:
            raise CheckpointTruncatedError(
                f"{path}: need {expected} bytes for the declared payload, have {size}"
            )
        if size > expected:
            raise CheckpointFormatError(f"{path}: {size - expected} trailing bytes")

        tail = os.pread(fd, 4 * n + 4, payload_offset + payload_len)
        if len(tail) != 4 * n + 4:
            raise CheckpointTruncatedError(f"{path}: ended while being read")
        *crcs, trailer = struct.unpack(f"<{n + 1}I", tail)
        if head.version == 1:
            chunks = [(payload_offset, payload_len, head.crc, trailer)]
        elif _native.kernel.crc32(tail[:-4], head.crc) != trailer:
            raise CheckpointChecksumError(f"{path}: checksum mismatch")
        else:
            step = config.width * CHUNK
            chunks = [(payload_offset + step * k, min(step, payload_len - step * k), 0, crc)
                      for k, crc in enumerate(crcs)]
        half = max(1, (head.length + CHUNK) // (2 * CHUNK))  # the boundary nearest the middle
        if half < len(chunks):
            _beside_the_caller("qseq-load-crc", lambda: _check_chunks(fd, chunks[half:], path),
                               lambda: _check_chunks(fd, chunks[:half], path))
        else:
            _check_chunks(fd, chunks, path)
        values = _mapped_values(fd, config, head.length, payload_offset)

    seed = config.seed.values
    if tuple(values[1 : len(seed) + 1]) != seed:
        raise CheckpointFormatError(
            f"{path}: stored Q(1..{len(seed)}) differ from the seed {seed}")
    return Trace(config, values, head.outcome)
