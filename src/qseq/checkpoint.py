"""Binary trace files.

Layout (all little-endian):

    8s   magic  b"QSEQTRC\\0"
    H    format version (currently 1)
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
    I    crc32 of everything above

Every output file is written through atomic_write: a temp file in the
target directory, fsynced and renamed into place, so a crash never leaves a
half-written file behind.

A checkpoint is written in place.  reserve() allocates the temp file at its
full size and maps it shared, and the kernel runs straight into the mapped
slots, so the values reach the page cache without a copy.  The kernel
reports each finished chunk of _Draft.chunk slots; while it computes the
next, the mapping's worker thread continues the CRC of the values over that
chunk and starts its writeback.  save() of that trace checksums the tail
past the last chunk on a second thread while the main one fsyncs the values,
which finds little left to write, joins the CRCs with crc32_combine, writes
the header, the seed and the trailer around the values (shrinking the file
first if the run died) and commits the file.  A trace held in memory is
checksummed while it is written into such a file.  The bytes on disk are the
same either way.  An exception at a chunk boundary, Ctrl-C among them, ends
the run there and removes the temp file.

read_header parses and checks the header and seed alone, so a caller can
tell which run a file holds without reading its values.  load streams the
values once to check the CRC, its two halves at once on two threads, each
through a fixed buffer, and joins the two CRCs with crc32_combine; then it
maps the file copy-on-write, so a trace keeps in memory only the terms a
caller reads.
Both reject a header that contradicts itself: a live trace holds exactly
`horizon` values; a dead one holds `step - 1`, dies after its seed and by
its horizon, and has the strong/weak kind that Outcome.death gives its
step; the stored Q(1..seed_len) equal the seed.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import tempfile
import threading
import zlib
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import BinaryIO, NamedTuple

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
)
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
)

MAGIC = b"QSEQTRC\x00"
VERSION = 1

_HEADER = struct.Struct("<8sHBBBBHQQQ")
_READ_CHUNK = 1 << 22  # bytes of load's two CRC buffers: the CRC runs over each read while cached
_CRC_POLY = 0xEDB88320  # CRC-32's polynomial, bit-reflected as zlib.crc32 uses it

_PERT_CODES = {Perturbation.NONE: 0, Perturbation.ALTERNATING: 1}
_PERT_FROM = {v: k for k, v in _PERT_CODES.items()}
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


class _Draft(ReservedMapping):
    """A shared mapping of a checkpoint's temp file at its full size, made
    by reserve() and finished by save().

    Its worker thread takes each chunk of slots a run reports finished
    (on_chunk), continues the CRC of the values over it, and starts the
    writeback of its whole pages with POSIX_FADV_DONTNEED, a hint that
    leaves the pages mapped and cached.  join() ends the worker; then crc is
    the CRC of slots [1, done), or error what the worker raised.
    """

    chunk = 1 << 22  # slots per reported chunk: 16 MB of 4-byte slots
    temp: _TempFile
    offset: int  # where the values start
    crc: int
    done: int
    error: BaseException | None

    def start(self, temp: _TempFile, offset: int, slots: memoryview) -> None:
        import queue  # about 0.12 MB, which only a process writing a checkpoint needs

        self.temp, self.offset = temp, offset
        self.crc, self.done, self.error = 0, 1, None
        self._todo = queue.SimpleQueue()
        self._worker = threading.Thread(target=self._work, args=(slots,),
                                        name="qseq-save-chunks")
        self._worker.start()

    def on_chunk(self, end: int) -> None:
        self._todo.put(end)

    def join(self) -> None:
        self._todo.put(None)
        self._worker.join()

    def _work(self, slots: memoryview) -> None:
        fd, written = self.temp.fh.fileno(), 0
        try:
            while (end := self._todo.get()) is not None:
                self.crc = zlib.crc32(slots[self.done : end], self.crc)
                self.done = end
                pages_end = (self.offset + slots.itemsize * (end - 1)) & -mmap.PAGESIZE
                if hasattr(os, "posix_fadvise") and pages_end > written:
                    os.posix_fadvise(fd, written, pages_end - written, os.POSIX_FADV_DONTNEED)
                    written = pages_end
        except BaseException as exc:  # raised by _finish
            self.error = exc


@contextlib.contextmanager
def reserve(path: str | Path, config: RecursionConfig,
            length: int | None = None) -> Iterator[memoryview]:
    """Slots 0..length (config.horizon by default) of a new checkpoint for
    path, for a run of config to fill.  save() of the trace run into them
    writes the header and the CRC around the values and commits the file.

    The slots lie in a shared mapping of atomic_write's temp file, whose
    disk space is allocated first, so that a full disk raises OSError here
    instead of SIGBUS in the kernel.  Slot 0 overlays the last seed bytes:
    nothing may write it.  The mapping's worker checksums and starts writing
    back each chunk the run finishes; it ends with the block.  Leaving the
    block without save() removes the temp file, and path keeps its old file.
    """
    length = config.horizon if length is None else length
    offset = _HEADER.size + 8 * len(config.seed)
    size = offset + config.width * length + 4
    with atomic_write(path) as temp:
        fd = temp.fh.fileno()
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(fd, 0, size)
        else:  # macOS has no posix_fallocate: there a full disk faults the mapping
            os.ftruncate(fd, size)
        draft = _Draft(fd, size)
        slots = memoryview(draft)[offset - config.width : size - 4].cast(config.dtype)
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
    values = memoryview(mapped)[start : start + config.width * (length + 1)].cast(config.dtype)
    values[0] = 0
    return values


def save(trace: Trace, path: str | Path) -> Trace:
    """Write the trace atomically to path; return it mapped from the new file.

    A trace run into reserve(path)'s slots is finished in place: the
    mapping's worker has checksummed each chunk the run finished and started
    its writeback while the run went on, so only the tail past the last
    chunk is checksummed, on a second thread while the main one fsyncs the
    values, and the fsync finds little left to write.  Any other trace is
    written into a file reserved for its length while the second thread
    checksums it.  zlib.crc32, fsync and the write release the GIL, so on
    two cores the CRC costs no time of its own.  Then the header, the seed
    and the trailer are written, after the file shrinks to step - 1 values
    if the run died, and the file is committed.

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


def _finish(draft: _Draft, trace: Trace, beside: Callable[[], None]) -> Trace:
    """Join draft's worker, checksum the values it did not reach on a second
    thread while beside() runs, then write the rest of draft's file and
    commit it; the trace save() returns.

    The worker's CRC starts from 0, so crc32_combine joins it to the CRC of
    the header and the seed.
    """
    cfg = trace.config
    out = trace.outcome
    flags = (1 if out.bad_t1 else 0) | (2 if out.bad_t2 else 0)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        cfg.width,
        _PERT_CODES[cfg.perturbation],
        _KIND_CODES[out.kind],
        flags,
        len(cfg.seed),
        out.step or 0,
        cfg.horizon,
        trace.len,
    )
    seed_bytes = struct.pack(f"<{len(cfg.seed)}Q", *cfg.seed)
    draft.join()
    if draft.error is not None:
        raise draft.error
    values_crc, _ = _beside_the_caller(
        "qseq-save-crc", lambda: zlib.crc32(trace.values[draft.done :], draft.crc), beside)
    crc = crc32_combine(zlib.crc32(seed_bytes, zlib.crc32(header)), values_crc,
                        cfg.width * trace.len)

    fd = draft.temp.fh.fileno()
    end = draft.offset + cfg.width * trace.len
    if end + 4 < len(draft):
        os.ftruncate(fd, end + 4)
    draft[: draft.offset] = header + seed_bytes
    draft[end : end + 4] = struct.pack("<I", crc)
    draft.flush()
    values = _mapped_values(fd, cfg, trace.len, draft.offset)
    draft.temp.commit()
    draft.madvise(mmap.MADV_DONTNEED)
    return Trace(cfg, values, out)


def _beside_the_caller(name: str, work: Callable[[], object],
                       beside: Callable[[], object]) -> tuple[object, object]:
    """(work(), beside()), with work run on a thread named name while this
    one runs beside.  The thread is joined before either's error is raised:
    beside's first, else work's."""
    result = {}  # work's "value", or the "error" it raised

    def run():
        try:
            result["value"] = work()
        except BaseException as exc:
            result["error"] = exc

    worker = threading.Thread(target=run, name=name)
    worker.start()
    try:
        here = beside()
    finally:
        worker.join()
    if "error" in result:
        raise result["error"]
    return result["value"], here


class Header(NamedTuple):
    """What a checkpoint holds, from its header and seed alone."""

    config: RecursionConfig
    outcome: Outcome
    length: int  # values stored, Q(1..length)
    crc: int     # crc32 of the header and seed bytes, to continue over the values


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
    if version != VERSION:
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
    return Header(config, outcome, length, zlib.crc32(fixed + seed_bytes))


def _multmodp(a: int, b: int) -> int:
    """a·b modulo the CRC-32 polynomial, both reflected; a must not be 0."""
    m, product = 1 << 31, 0
    while True:
        if a & m:
            product ^= b
            if not a & (m - 1):
                return product
        m >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """zlib.crc32(a + b), given crc1 = zlib.crc32(a), crc2 = zlib.crc32(b)
    and len2 = len(b), as zlib's C crc32_combine computes it.

    crc1 is shifted over len2 zero bytes by multiplying it by x^(8·len2)
    modulo the polynomial, which takes one square per bit of len2.
    """
    shift, square = 1 << 31, 1 << 23  # x^0 and x^8, reflected
    while len2:
        if len2 & 1:
            shift = _multmodp(square, shift)
        len2 >>= 1
        if len2:
            square = _multmodp(square, square)
    return _multmodp(shift, crc1) ^ crc2


def _crc_of_range(fd: int, start: int, length: int, crc: int, path: str | Path) -> int:
    """crc continued over bytes start..start+length of the file open as fd,
    read with os.preadv through one _READ_CHUNK // 2 buffer."""
    buffer = memoryview(bytearray(min(_READ_CHUNK // 2, length)))
    end = start + length
    while start < end:
        part = buffer[: min(len(buffer), end - start)]
        if os.preadv(fd, [part], start) != len(part):
            raise CheckpointTruncatedError(f"{path}: ended while being read")
        crc = zlib.crc32(part, crc)
        start += len(part)
    return crc


def load(path: str | Path) -> Trace:
    """Read a trace written by save(), its values mapped from the file.

    The header, the file size and the CRC over every value are checked
    first.  The CRC runs over the two halves of the values at once: a second
    thread reads and checksums the slots past length // 2 from CRC 0, while
    this one continues the header's CRC over the slots before them.  Each
    reads through its own _READ_CHUNK // 2 buffer with os.preadv on the
    descriptor opened here, so a save() that renames a new file over path
    meanwhile changes nothing.  zlib.crc32 and os.preadv release the GIL,
    and crc32_combine joins the two CRCs: at 3·10^7 4-byte slots on two
    cores the check takes about 0.05 s instead of 0.09 s.  An error of the
    second thread is raised here after it ends.

    The values are then a copy-on-write mapping of the file, so a caller
    keeps in memory only the pages it reads.  Slot 0 overlays the last seed
    bytes; it is zeroed in a private page, and the file is never written.

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
        expected = payload_offset + payload_len + 4
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        if size < expected:
            raise CheckpointTruncatedError(
                f"{path}: need {expected} bytes for the declared payload, have {size}"
            )
        if size > expected:
            raise CheckpointFormatError(f"{path}: {size - expected} trailing bytes")

        first_len = config.width * (head.length // 2)
        second_len = payload_len - first_len
        second, first = _beside_the_caller(
            "qseq-load-crc",
            lambda: _crc_of_range(fd, payload_offset + first_len, second_len, 0, path),
            lambda: _crc_of_range(fd, payload_offset, first_len, head.crc, path))
        crc = crc32_combine(first, second, second_len)
        trailer = os.pread(fd, 4, payload_offset + payload_len)
        if len(trailer) != 4:
            raise CheckpointTruncatedError(f"{path}: ended while being read")
        if struct.unpack("<I", trailer)[0] != crc:
            raise CheckpointChecksumError(f"{path}: checksum mismatch")
        values = _mapped_values(fd, config, head.length, payload_offset)

    seed = config.seed.values
    if tuple(values[1 : len(seed) + 1]) != seed:
        raise CheckpointFormatError(
            f"{path}: stored Q(1..{len(seed)}) differ from the seed {seed}")
    return Trace(config, values, head.outcome)
