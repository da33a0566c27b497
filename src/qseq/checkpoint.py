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

Files are written to a temp file in the target directory, fsynced and
renamed into place, so a crash never leaves a half-written checkpoint
behind.  atomic_write does this for every output file, text included.
save checksums the values on a second thread while they are written; the
bytes on disk are the same as with a serial CRC.

read_header parses and checks the header and seed alone, so a caller can
tell which run a file holds without reading its values.  load streams the
values once through a fixed buffer to check the CRC, then maps the file
copy-on-write, so a trace keeps in memory only the terms a caller reads.
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
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from ._native import SLOT_CAPS
from .engine import Outcome, OutcomeKind, Perturbation, RecursionConfig, Seed, Trace
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
)

MAGIC = b"QSEQTRC\x00"
VERSION = 1

_HEADER = struct.Struct("<8sHBBBBHQQQ")
_READ_CHUNK = 1 << 22  # bytes of load's CRC buffer: the CRC runs over each read while cached

_PERT_CODES = {Perturbation.NONE: 0, Perturbation.ALTERNATING: 1}
_PERT_FROM = {v: k for k, v in _PERT_CODES.items()}
_KIND_CODES = {OutcomeKind.ALIVE: 0, OutcomeKind.WEAK_DEATH: 1, OutcomeKind.STRONG_DEATH: 2}
_KIND_FROM = {v: k for k, v in _KIND_CODES.items()}


def atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Stream chunks into path so that a crash leaves the old file or the new one.

    The chunks go to a temp file beside path, which gets mode 0o666 & ~umask,
    is fsynced, and is renamed over path; then the directory is fsynced so
    the rename itself is durable.  On any error the temp file is removed.
    """
    path = Path(path)
    parent = path.parent
    parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp_name = tempfile.mkstemp(dir=parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.chmod(fh.fileno(), 0o666 & ~umask)  # mkstemp creates it 0o600
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    dir_fd = os.open(parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save(trace: Trace, path: str | Path) -> None:
    """Write the trace atomically to path, streaming its values without a copy.

    The CRC of the values runs on a second thread while atomic_write writes
    them: zlib.crc32 and the file write both release the GIL, so on two
    cores the checksum overlaps the write instead of adding to it.  The
    thread reads the trace's own buffer, copying nothing.  It starts with
    the first chunk and is joined before the trailer is written and again
    before save returns or raises; if it fails, save raises and writes no
    trailer.  The file's bytes are those a serial CRC gives.
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
    payload = memoryview(trace.values[1:].view(np.uint8))
    head_crc = zlib.crc32(seed_bytes, zlib.crc32(header))
    crc = {}  # the worker's result: the file's "value", or the "error" it raised

    def checksum():
        try:
            crc["value"] = zlib.crc32(payload, head_crc)
        except BaseException as exc:
            crc["error"] = exc

    worker = threading.Thread(target=checksum, name="qseq-save-crc")

    def chunks():
        worker.start()
        yield header
        yield seed_bytes
        yield payload
        worker.join()
        if "error" in crc:
            raise crc["error"]
        yield struct.pack("<I", crc["value"])

    try:
        atomic_write(path, chunks())
    finally:
        if worker.is_alive():
            worker.join()


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


def load(path: str | Path) -> Trace:
    """Read a trace written by save(), its values mapped from the file.

    The header, the file size and the CRC over every value (read through
    one _READ_CHUNK buffer) are checked first.  The values are then a
    copy-on-write mapping of the file, so a caller keeps in memory only the
    pages it reads.  Slot 0 overlays the last seed bytes; it is zeroed in a
    private page, and the file is never written.

    The mapping keeps the file's inode alive, so a later save() to the same
    path, which renames a new file into place, leaves this trace intact.
    A file truncated in place while mapped raises SIGBUS when a lost page is
    read; qseq never truncates a file in place.
    """
    with open(path, "rb") as fh:
        head = read_header(fh, path)
        config = head.config
        payload_offset = fh.tell()
        payload_len = config.width * head.length
        expected = payload_offset + payload_len + 4
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise CheckpointTruncatedError(
                f"{path}: need {expected} bytes for the declared payload, have {size}"
            )
        if size > expected:
            raise CheckpointFormatError(f"{path}: {size - expected} trailing bytes")

        buffer = memoryview(bytearray(min(_READ_CHUNK, payload_len)))
        crc = head.crc
        for start in range(0, payload_len, _READ_CHUNK):
            part = buffer[: min(_READ_CHUNK, payload_len - start)]
            if fh.readinto(part) != len(part):
                raise CheckpointTruncatedError(f"{path}: ended while being read")
            crc = zlib.crc32(part, crc)
        trailer = fh.read(4)
        if len(trailer) != 4:
            raise CheckpointTruncatedError(f"{path}: ended while being read")
        if struct.unpack("<I", trailer)[0] != crc:
            raise CheckpointChecksumError(f"{path}: checksum mismatch")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)

    values = np.frombuffer(mapped, dtype=config.dtype, count=head.length + 1,
                           offset=payload_offset - config.width)
    values[0] = 0
    seed = config.seed.values
    if values[1 : len(seed) + 1].tolist() != list(seed):
        raise CheckpointFormatError(
            f"{path}: stored Q(1..{len(seed)}) differ from the seed {seed}")
    return Trace(config, values, head.outcome)
