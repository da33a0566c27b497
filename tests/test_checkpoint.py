"""Checkpoint format: round trips, determinism, corruption detection."""

import os
import stat
from pathlib import Path

import pytest

from qseq import checkpoint
from qseq.engine import Perturbation, RecursionConfig, Seed, run
from qseq.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
)


def roundtrip(trace, tmp_path, name="trace.qtr"):
    path = tmp_path / name
    checkpoint.save(trace, path)
    return checkpoint.load(path), path


@pytest.mark.parametrize("config", [
    RecursionConfig(seed=Seed((1, 1)), horizon=10**5),
    RecursionConfig(seed=Seed((1, 1)), horizon=1000, width=8),
    RecursionConfig(seed=Seed((2, 1)), horizon=1000, perturbation=Perturbation.NONE),
    RecursionConfig(seed=Seed((3, 1, 2)), horizon=2000),
])
def test_round_trip_alive(config, tmp_path):
    trace = run(config)
    loaded, _ = roundtrip(trace, tmp_path)
    assert loaded == trace
    assert loaded.config == trace.config
    assert loaded.values.dtype == trace.values.dtype


def test_round_trip_dead_trace(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 2, 1)), horizon=100))
    loaded, _ = roundtrip(trace, tmp_path)
    assert loaded == trace
    assert loaded.outcome == trace.outcome
    assert loaded.len == 40


def test_serialization_is_deterministic(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=5000))
    _, first = roundtrip(trace, tmp_path, "a.qtr")
    _, second = roundtrip(trace, tmp_path, "b.qtr")
    assert first.read_bytes() == second.read_bytes()


def test_save_creates_parent_directories(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    nested = tmp_path / "a" / "b" / "trace.qtr"
    checkpoint.save(trace, nested)
    assert checkpoint.load(nested) == trace


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        checkpoint.load(tmp_path / "absent.qtr")


def test_truncated_header(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(CheckpointTruncatedError):
        checkpoint.load(path)


def test_truncated_payload(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    path.write_bytes(path.read_bytes()[:-30])
    with pytest.raises(CheckpointTruncatedError):
        checkpoint.load(path)


def test_trailing_garbage_rejected(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError):
        checkpoint.load(path)


def test_bad_magic_rejected(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        checkpoint.load(path)


def test_bad_version_rejected(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        checkpoint.load(path)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        checkpoint.load(path)


# ------------------------------------------------------------- atomic_write

def test_atomic_write_fsyncs_file_then_renames_then_fsyncs_directory(tmp_path,
                                                                     monkeypatch):
    events = []
    real_fsync, real_replace = checkpoint.os.fsync, checkpoint.os.replace

    def fsync(fd):
        events.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint.os, "replace", replace)
    checkpoint.atomic_write(tmp_path / "out.dat", [b"a\n", b"b\n"])
    assert events == [("fsync", False), ("replace", "out.dat"), ("fsync", True)]
    assert (tmp_path / "out.dat").read_bytes() == b"a\nb\n"


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.dat"
    path.write_bytes(b"old\n")

    def chunks():
        yield b"new, half written"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        checkpoint.atomic_write(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.dat"]
