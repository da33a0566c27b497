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
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
import zlib
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .engine import Outcome, OutcomeKind, Perturbation, RecursionConfig, Seed, Trace
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
)

MAGIC = b"QSEQTRC\x00"
VERSION = 1

_HEADER = struct.Struct("<8sHBBBBHQQQ")

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
    """Write the trace atomically to path, streaming its values without a copy."""
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

    def chunks():
        crc = 0
        for part in (header, seed_bytes, payload):
            crc = zlib.crc32(part, crc)
            yield part
        yield struct.pack("<I", crc)

    atomic_write(path, chunks())


def load(path: str | Path) -> Trace:
    """Read a trace written by save()."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CheckpointTruncatedError(f"{path}: shorter than the fixed header")
    (magic, version, width, pert_code, kind_code, flags,
     seed_len, step, horizon, length) = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    if width not in (4, 8) or pert_code not in _PERT_FROM or kind_code not in _KIND_FROM:
        raise CheckpointFormatError(f"{path}: malformed header fields")

    expected = _HEADER.size + 8 * seed_len + width * length + 4
    if len(raw) < expected:
        raise CheckpointTruncatedError(
            f"{path}: need {expected} bytes for the declared payload, have {len(raw)}"
        )
    if len(raw) > expected:
        raise CheckpointFormatError(f"{path}: {len(raw) - expected} trailing bytes")

    (stored_crc,) = struct.unpack_from("<I", raw, expected - 4)
    if zlib.crc32(raw[: expected - 4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointChecksumError(f"{path}: checksum mismatch")

    seed_vals = struct.unpack_from(f"<{seed_len}Q", raw, _HEADER.size)
    try:
        config = RecursionConfig(
            seed=Seed(tuple(int(v) for v in seed_vals)),
            horizon=int(horizon),
            perturbation=_PERT_FROM[pert_code],
            width=int(width),
        )
    except Exception as exc:
        raise CheckpointFormatError(f"{path}: inconsistent header ({exc})") from exc

    kind = _KIND_FROM[kind_code]
    outcome = (
        Outcome.alive()
        if kind is OutcomeKind.ALIVE
        else Outcome(kind, int(step), bool(flags & 1), bool(flags & 2))
    )

    start = _HEADER.size + 8 * seed_len
    vals = np.frombuffer(raw, dtype=config.dtype, count=length, offset=start)
    arr = np.zeros(length + 1, dtype=config.dtype)
    arr[1:] = vals
    return Trace(config, arr, outcome)
