"""Checkpoint format: round trips, determinism, corruption detection."""

import errno
import math
import mmap
import os
import re
import signal
import stat
import struct
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from qseq import _native, checkpoint
from qseq.engine import Perturbation, RecursionConfig, Seed, extend, run
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
    assert loaded.values.format == trace.values.format


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
    raw[8] = 3  # version field follows the 8-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="unsupported version 3"):
        checkpoint.load(path)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        checkpoint.load(path)


_FIELDS = ("magic", "version", "width", "pert", "kind", "flags",
           "seed_len", "step", "horizon", "length")


def values_end(raw):
    """The offset of the first value of the checkpoint bytes raw, and of
    the byte after its last."""
    head = dict(zip(_FIELDS, checkpoint._HEADER.unpack_from(raw)))
    start = checkpoint._HEADER.size + 8 * head["seed_len"]
    return start, start + head["width"] * head["length"]


def table_and_trailer(body):
    """What save() writes after body, a checkpoint's header, seed and
    values: the crc32 of each chunk of checkpoint.CHUNK values, then the
    crc32 of the header, the seed and that table."""
    start, _ = values_end(body)
    step = body[10] * checkpoint.CHUNK  # the width byte follows the version
    table = b"".join(struct.pack("<I", zlib.crc32(body[i : i + step]))
                     for i in range(start, len(body), step))
    return table + struct.pack("<I", zlib.crc32(table, zlib.crc32(body[:start])))


@pytest.mark.parametrize("width", [4, 8])
def test_compute_writes_the_crcs_that_zlib_computes(tmp_path, monkeypatch, capsys, width):
    """Save and load share the kernel's crc32, so a wrong CRC would agree
    with itself.  Here zlib.crc32 recomputes every entry of the chunk table
    and the trailer of the files compute writes: at 1,000,003 terms, three
    chunks of 300,007 slots and a short one, then extended to 8 chunks, the
    last 125,001 slots.  The worker checksums the chunks the run reports,
    at offsets and over lengths that are not multiples of 16 bytes, the
    copied prefix of the extension among them, and save checksums a tail.
    Each file is the one a trace saved from memory makes."""
    from qseq.cli import main

    monkeypatch.setattr(checkpoint, "CHUNK", 300_007)
    path = tmp_path / "t.qtr"
    for horizon, chunks in [(1_000_003, 4), (7 * checkpoint.CHUNK + 125_001, 8)]:
        argv = ["compute", "--horizon", str(horizon), "--width", str(width), "--trace", str(path)]
        assert main(argv) == 0
        data = path.read_bytes()
        start, end = values_end(data)
        config = RecursionConfig(seed=Seed((1, 1)), horizon=horizon, width=width)
        assert data[start:end] == run(config).values[1:].tobytes()
        assert len(data) == end + 4 * chunks + 4
        assert data[end:] == table_and_trailer(data[:end])
        checkpoint.save(run(config), tmp_path / "one-pass.qtr")
        assert data == (tmp_path / "one-pass.qtr").read_bytes()
    capsys.readouterr()


def v1_image(raw):
    """The version-1 file of the checkpoint bytes raw: version 1, no chunk
    table, and a trailer that is the crc32 of everything before it."""
    body = raw[:8] + struct.pack("<H", 1) + raw[10 : values_end(raw)[1]]
    return body + struct.pack("<I", zlib.crc32(body))


def forge(path, q1=None, **fields):
    """Rewrite header fields (and optionally the stored Q(1)) of the file at
    path, with valid CRCs, so that only a check of meaning can reject it."""
    raw = path.read_bytes()
    start, end = values_end(raw)
    head = dict(zip(_FIELDS, checkpoint._HEADER.unpack_from(raw)))
    head.update(fields)
    body = bytearray(checkpoint._HEADER.pack(*head.values())
                     + raw[checkpoint._HEADER.size : end])
    if q1 is not None:
        body[start : start + head["width"]] = q1.to_bytes(head["width"], "little")
    path.write_bytes(bytes(body) + table_and_trailer(bytes(body)))


LIVE = RecursionConfig(seed=Seed((1, 1)), horizon=100)
DEAD = RecursionConfig(seed=Seed((1, 2, 1)), horizon=100)  # weak death at step 41


@pytest.mark.parametrize("config,forged,message", [
    (LIVE, dict(horizon=101), "live trace with 100 values, horizon 101"),
    (LIVE, dict(step=50), "death step 50"),
    (LIVE, dict(flags=1), "flags 1"),
    (DEAD, dict(step=45), "death at step 45 with 40 values"),
    (DEAD, dict(horizon=40), "death at step 41 with 40 values, horizon 40"),
    (DEAD, dict(flags=0), "flags 0"),
    (DEAD, dict(kind=2), "strong_death at step 41"),
    (LIVE, dict(q1=2), "stored Q(1..2) differ from the seed (1, 1)"),
    (DEAD, dict(q1=3), "stored Q(1..3) differ from the seed (1, 2, 1)"),
], ids=["live-length", "live-step", "live-flags", "dead-length", "dead-beyond-horizon",
        "dead-no-index", "dead-kind", "live-seed", "dead-seed"])
def test_header_that_contradicts_itself_is_rejected(tmp_path, monkeypatch, config, forged,
                                                     message):
    """On files of 7 and 3 chunks, so that both load threads check one."""
    monkeypatch.setattr(checkpoint, "CHUNK", 16)
    _, path = roundtrip(run(config), tmp_path)
    forge(path, **forged)
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        checkpoint.load(path)


def test_header_is_read_without_the_values(tmp_path):
    trace = run(RecursionConfig(seed=Seed((1, 2, 1)), horizon=100))
    _, path = roundtrip(trace, tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[: checkpoint._HEADER.size + 8 * 3])  # header and seed only
    with open(path, "rb") as fh:
        head = checkpoint.read_header(fh, path)
        assert fh.read() == b""
    assert (head.config, head.outcome, head.length) == (trace.config, trace.outcome, 40)
    assert head.crc == zlib.crc32(raw[: checkpoint._HEADER.size + 8 * 3])
    assert head.version == checkpoint.VERSION == 2
    with pytest.raises(CheckpointTruncatedError):
        checkpoint.load(path)


def test_load_reads_in_chunks(tmp_path, monkeypatch):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000, width=8))
    _, path = roundtrip(trace, tmp_path)
    monkeypatch.setattr(checkpoint, "_READ_CHUNK", 24)  # 8000 bytes: many, and a short last
    assert checkpoint.load(path) == trace


def test_flipped_last_value_byte_fails_checksum(tmp_path, monkeypatch):
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000))
    _, path = roundtrip(trace, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-9] ^= 0x01  # the last value's last byte, before a one-entry table and the trailer
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        checkpoint.load(path)
    monkeypatch.setattr(checkpoint, "_READ_CHUNK", 24)  # the flip lands in a short last read
    with pytest.raises(CheckpointChecksumError):
        checkpoint.load(path)


def values_file(tmp_path, horizon, width=4):
    """A saved live trace of horizon values from seed (1,1): its path, the
    offset of its first value, and the first value the load thread checks:
    that of the chunk boundary nearest the middle of the values."""
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=horizon, width=width))
    _, path = roundtrip(trace, tmp_path)
    start, chunk = checkpoint._HEADER.size + 16, checkpoint.CHUNK
    return trace, path, start, start + width * chunk * max(1, (horizon + chunk) // (2 * chunk))


@pytest.mark.parametrize("chunk", [checkpoint._READ_CHUNK, 24])
@pytest.mark.parametrize("where", ["first-value", "first-half", "before-split", "at-split",
                                   "second-half", "last-value", "table", "table-last",
                                   "trailer", "trailer-last"])
def test_one_flipped_byte_anywhere_after_the_header_fails_checksum(tmp_path, monkeypatch,
                                                                    where, chunk):
    """1001 slots in chunks of 100: the caller checks chunks 0-4, the load
    thread chunks 5-10, the last of them a single slot."""
    monkeypatch.setattr(checkpoint, "CHUNK", 100)
    _, path, start, split = values_file(tmp_path, 1001)
    end = start + 4 * 1001
    index = {"first-value": start, "first-half": start + 777, "before-split": split - 1,
             "at-split": split, "second-half": split + 1001, "last-value": end - 1,
             "table": end, "table-last": end + 43, "trailer": end + 44,
             "trailer-last": end + 47}[where]
    raw = bytearray(path.read_bytes())
    assert len(raw) == end + 4 * 11 + 4 and split == start + 2000
    raw[index] ^= 0x10
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(checkpoint, "_READ_CHUNK", chunk)
    with pytest.raises(CheckpointChecksumError):
        checkpoint.load(path)


@pytest.mark.parametrize("edit,error,message", [
    (lambda raw: raw[:-6], CheckpointTruncatedError, "need 4108 bytes"),
    (lambda raw: raw + b"\0", CheckpointFormatError, "1 trailing bytes"),
], ids=["cut-inside-the-table", "a-trailing-byte"])
def test_a_file_cut_inside_its_table_or_padded_is_refused(tmp_path, monkeypatch, edit, error,
                                                          message):
    """The 1001 slots in chunks of 100 of the test above: a 44-byte table."""
    monkeypatch.setattr(checkpoint, "CHUNK", 100)
    _, path, _, _ = values_file(tmp_path, 1001)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(error, match=message):
        checkpoint.load(path)


@pytest.mark.parametrize("fields,message", [
    (dict(width=5), "malformed header fields"),
    (dict(pert=2), "malformed header fields"),
    (dict(kind=3), "malformed header fields"),
    (None, "ends inside the 3-entry seed"),
], ids=["width-5", "perturbation-2", "kind-3", "cut-inside-the-seed"])
def test_read_header_refuses_a_malformed_header_or_a_short_seed(tmp_path, fields, message):
    _, path = roundtrip(run(DEAD), tmp_path)
    raw = path.read_bytes()
    if fields is None:
        path.write_bytes(raw[: checkpoint._HEADER.size + 8 * 3 - 1])
    else:
        forge(path, **fields)
    error = CheckpointTruncatedError if fields is None else CheckpointFormatError
    with open(path, "rb") as fh, pytest.raises(error, match=message):
        checkpoint.read_header(fh, path)


def test_a_version_1_file_loads_as_one_chunk_and_a_flipped_byte_fails(tmp_path, monkeypatch):
    """A version-1 file's trailer continues the header's CRC over every
    value; it loads however many chunks the values would make."""
    monkeypatch.setattr(checkpoint, "CHUNK", 100)
    trace, path, start, _ = values_file(tmp_path, 1001)
    raw = v1_image(path.read_bytes())
    assert len(raw) == start + 4 * 1001 + 4
    path.write_bytes(raw)
    assert checkpoint.load(path) == trace
    for index in (start, start + 2400, len(raw) - 5, len(raw) - 1):
        flipped = bytearray(raw)
        flipped[index] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointChecksumError):
            checkpoint.load(path)


@pytest.mark.parametrize("config", [
    RecursionConfig(seed=Seed((1, 1)), horizon=2),
    RecursionConfig(seed=Seed((1, 1)), horizon=2, width=8),
    RecursionConfig(seed=Seed((1, 1, 1)), horizon=3),
    RecursionConfig(seed=Seed((3, 1, 2)), horizon=1001, width=8),
])
def test_the_smallest_and_odd_payloads_load(tmp_path, monkeypatch, config):
    """A checkpoint holds at least its seed, two slots: 4·2 or 8·2 bytes of
    values, one chunk of 2; three slots and 1001 end in a chunk of one."""
    monkeypatch.setattr(checkpoint, "CHUNK", 2)
    trace = run(config)
    loaded, path = roundtrip(trace, tmp_path)
    assert loaded == trace
    assert loaded.len == config.horizon


@pytest.mark.parametrize("length", [0, 1])
def test_a_header_of_fewer_slots_than_a_seed_is_refused_before_any_read(tmp_path, monkeypatch,
                                                                        length):
    """A payload of 0 or 1 slot cannot hold a seed, so read_header refuses it
    and no CRC thread starts."""
    _, path = roundtrip(run(RecursionConfig(seed=Seed((1, 1)), horizon=2)), tmp_path)
    raw = path.read_bytes()
    head = checkpoint._HEADER.unpack_from(raw)[:-2] + (length, length)
    body = checkpoint._HEADER.pack(*head) + raw[checkpoint._HEADER.size :
                                                checkpoint._HEADER.size + 16 + 4 * length]
    path.write_bytes(body + table_and_trailer(body))
    monkeypatch.setattr(checkpoint, "threading", None)
    with pytest.raises(CheckpointFormatError, match="horizon must be an integer >= seed length"):
        checkpoint.load(path)


def failing_preadv(thread, failure):
    """os.preadv that fails in the named load thread: it reads one byte short
    ("short") or raises EIO ("oserror"); other threads read as usual."""
    real = os.preadv

    def preadv(fd, buffers, offset):
        if threading.current_thread().name != thread:
            return real(fd, buffers, offset)
        if failure == "oserror":
            raise OSError(5, "Input/output error")
        return real(fd, [buffers[0][:-1]], offset)

    return preadv


LOAD_THREADS = {"worker": "qseq-load-crc", "caller": threading.main_thread().name}


@pytest.mark.parametrize("half", ["worker", "caller"])
@pytest.mark.parametrize("failure", ["short", "oserror"])
def test_a_failed_read_in_either_half_raises_and_leaves_no_thread(tmp_path, monkeypatch,
                                                                  half, failure):
    """Whichever thread's read fails, load raises what a failed read raises
    on one thread (a short read as truncation, an OSError as itself), after
    the CRC thread has ended.  The file has 7 chunks: 3 for the caller, 4
    for the load thread, the last of them 1697 slots."""
    monkeypatch.setattr(checkpoint, "CHUNK", 1 << 14)
    _, path, _, _ = values_file(tmp_path, 10**5 + 1)
    monkeypatch.setattr(checkpoint.os, "preadv", failing_preadv(LOAD_THREADS[half], failure))
    threads = threading.active_count()
    expected = CheckpointTruncatedError if failure == "short" else OSError
    with pytest.raises(expected, match="ended while being read|Input/output error"):
        checkpoint.load(path)
    assert threading.active_count() == threads


@pytest.mark.parametrize("half", ["worker", "caller"])
@pytest.mark.parametrize("failure,code,note", [
    ("short", 0, "note: ignoring unreadable checkpoint {}: {} ended while being read\n"),
    ("oserror", 5, "error: [Errno 5] Input/output error\n"),
])
def test_a_failed_read_in_either_half_gives_the_cli_its_exit_code(tmp_path, monkeypatch, capsys,
                                                                  half, failure, code, note):
    """Through the store: a short read makes the checkpoint unreadable, so
    it is computed again and rewritten; an OSError exits EXIT_IO.  The
    file has 7 chunks, so that both threads read."""
    from qseq.cli import main

    monkeypatch.setattr(checkpoint, "CHUNK", 1 << 14)
    path = tmp_path / "t.qtr"
    argv = ["compute", "--horizon", "100001", "--trace", str(path)]
    assert main(argv) == 0
    saved = path.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(checkpoint.os, "preadv", failing_preadv(LOAD_THREADS[half], failure))
    threads = threading.active_count()
    assert main(argv) == code
    assert capsys.readouterr().err == note.format(path, f"{path}:")
    assert threading.active_count() == threads
    assert path.read_bytes() == saved


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_load_raises_the_peak_by_its_two_buffers_only(tmp_path, main_trace):
    """In a fresh interpreter, loading 10^7 slots (40 MB) raises the peak
    RSS by at most _READ_CHUNK plus 1 MB: the CRC reads through two fixed
    buffers, and the mapped values stay out of memory until read."""
    path = tmp_path / "big.qtr"
    checkpoint.save(main_trace, path)
    code = ("import sys\nfrom qseq import checkpoint\n"
            "def status(key):\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith(key):\n"
            "            return int(line.split()[1]) * 1024\n"
            "before = status('VmRSS:')\n"
            "trace = checkpoint.load(sys.argv[1])\n"
            "print(status('VmHWM:') - before, trace.len)")
    env = dict(os.environ, PYTHONPATH=str(Path(checkpoint.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    growth, length = map(int, out.stdout.split())
    assert length == 10**7
    assert growth <= checkpoint._READ_CHUNK + (1 << 20), f"{growth / 2**20:.1f} MB"


@pytest.mark.parametrize("width", [4, 8])
def test_loaded_values_are_read_only_with_slot_zero_clear(tmp_path, width):
    # slot 0 overlays the last seed bytes: at width 8 that is the stored 2
    trace = run(RecursionConfig(seed=Seed((3, 1, 2)), horizon=1000, width=width))
    loaded, path = roundtrip(trace, tmp_path)
    saved = path.read_bytes()
    assert loaded.values[0] == 0
    assert loaded.values[1:4].tolist() == [3, 1, 2]
    assert loaded.values.readonly
    with pytest.raises(TypeError):
        loaded.values[1] = 7
    assert loaded == trace
    assert path.read_bytes() == saved


def test_loaded_trace_outlives_the_store_replacing_its_file(tmp_path):
    from qseq.cli import obtain_trace

    short = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000))
    loaded, path = roundtrip(short, tmp_path)
    longer, wrote = obtain_trace(RecursionConfig(seed=Seed((1, 1)), horizon=5000), path)
    assert wrote and checkpoint.load(path) == longer
    assert loaded.len == 1000
    assert loaded == short


def test_extending_a_loaded_trace_leaves_it_readable(tmp_path):
    """extend gives the mapped source's pages back to the OS; the source
    still reads 0 at slot 0 and its values, and the extended file is the
    fresh run's."""
    # 8-byte slots: slot 0 then overlays a whole seed entry, Q(2) = 1 in the file
    config = RecursionConfig(seed=Seed((1, 1)), horizon=3 * 10**6, width=8)
    short = run(replace(config, horizon=10**6))
    loaded, path = roundtrip(short, tmp_path)
    longer = extend(loaded, config.horizon)
    assert loaded.values[0] == 0
    assert loaded == short
    checkpoint.save(longer, path)
    _, fresh = roundtrip(run(config), tmp_path, "fresh.qtr")
    assert path.read_bytes() == fresh.read_bytes()


def test_extend_gives_back_the_source_as_it_copies(tmp_path, monkeypatch):
    """extend copies a loaded trace in pieces and, after each, gives back
    the source's whole mapping from its second page to its end: a page not
    yet copied is mapped again when read, and the extended file is the
    fresh run's."""
    from qseq import engine

    piece = 3000
    monkeypatch.setattr(engine, "PIECE", piece)
    config = RecursionConfig(seed=Seed((1, 1)), horizon=30_000)
    short = run(replace(config, horizon=10_000))
    loaded, path = roundtrip(short, tmp_path)
    spans = []
    monkeypatch.setattr(engine.FileMapping, "madvise",
                        lambda self, option, *span: spans.append((option, *span)))
    longer = extend(loaded, config.horizon)
    page, size = mmap.PAGESIZE, len(loaded.values.obj)
    assert spans == [(mmap.MADV_DONTNEED, page, size - page)] * len(range(1, short.len + 1, piece))
    assert loaded == short
    checkpoint.save(longer, path)
    _, fresh = roundtrip(run(config), tmp_path, "fresh.qtr")
    assert path.read_bytes() == fresh.read_bytes()


# ------------------------------------------------------------- computing into the file

@pytest.mark.parametrize("config", [
    RecursionConfig(seed=Seed((3, 1, 2)), horizon=1000),
    RecursionConfig(seed=Seed((3, 1, 2)), horizon=1000, width=8),
    RecursionConfig(seed=Seed((1, 2, 1)), horizon=10**5),  # weak death at step 41
], ids=["width-4", "width-8", "death"])
def test_a_run_into_reserved_slots_is_saved_in_place(tmp_path, config):
    """The kernel runs into the temp file.  save() leaves there the bytes a
    trace held in memory gets (a death shrinks the file to its values) and
    returns the values mapped copy-on-write, slot 0 clear."""
    path = tmp_path / "store" / "trace.qtr"
    with checkpoint.reserve(path, config) as slots:
        trace = checkpoint.save(run(config, slots), path)
    fresh = run(config)
    assert trace.values[0] == 0
    assert trace.values.readonly
    assert trace == fresh
    _, copied = roundtrip(fresh, tmp_path, "copied.qtr")
    assert path.read_bytes() == copied.read_bytes()
    assert [p.name for p in path.parent.iterdir()] == ["trace.qtr"]


def shared_rss_kb(path):
    """Resident kB of this process's shared mappings of the file at path."""
    total, ours = 0, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        fields = line.split()
        if "-" in fields[0] and len(fields) >= 5:  # a mapping's header line
            ours = fields[-1] == str(path) and fields[1].endswith("s")
        elif ours and fields[0] == "Rss:":
            total += int(fields[1])
    return total


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="reads /proc/self/smaps")
def test_save_gives_back_the_pages_of_the_shared_mapping(tmp_path):
    """Once committed, the trace save() returns is the only mapping of the
    values that holds pages, so none is counted twice."""
    path = tmp_path / "trace.qtr"
    config = RecursionConfig(seed=Seed((1, 1)), horizon=10**6)
    with checkpoint.reserve(path, config) as slots:
        computed = run(config, slots)
        [temp] = tmp_path.glob(".trace.qtr.*.tmp")
        assert shared_rss_kb(temp) > 3000  # the 4 MB just computed
        trace = checkpoint.save(computed, path)
        assert shared_rss_kb(path) == 0
        assert trace == run(config)  # read through the copy-on-write mapping
        assert shared_rss_kb(path) == 0


def test_a_reserved_file_left_without_save_is_removed(tmp_path):
    path = tmp_path / "trace.qtr"
    path.write_bytes(b"old")
    config = RecursionConfig(seed=Seed((1, 1)), horizon=100)
    with pytest.raises(RuntimeError, match="without save"), \
            checkpoint.reserve(path, config) as slots:
        run(config, slots)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.qtr"]


# (seed, horizon of a first run that is extended or None, horizon, width,
# checkpoint.CHUNK): seed (1,3,2,2) dies at step 719, holding 718 = 2·359
# values.
CHUNKED_RUNS = {
    "death-inside-the-first-chunk": ((1, 3, 2, 2), None, 2000, 4, 1024),
    "death-inside-a-later-chunk": ((1, 3, 2, 2), None, 2000, 4, 100),
    "death-at-a-boundary": ((1, 3, 2, 2), None, 2000, 4, 359),
    "horizon-a-multiple": ((1, 1), None, 4096, 4, 512),
    "length-plus-one-a-multiple": ((1, 1), None, 4095, 4, 512),
    "horizon-a-multiple-plus-one": ((1, 1), None, 4097, 4, 512),
    "extension-from-mid-chunk": ((1, 1), 1000, 3000, 4, 384),
    "extension-from-a-boundary": ((1, 1), 768, 3000, 4, 384),
    "extension-resumed-at-a-boundary": ((1, 1), 1151, 3000, 4, 384),
    "8-byte-slots": ((3, 1, 2), None, 3000, 8, 100),
}


@pytest.mark.parametrize("case", sorted(CHUNKED_RUNS))
def test_a_run_in_chunks_writes_the_file_of_one_pass(tmp_path, monkeypatch, kernel, case):
    """Each kernel reports the end of every chunk the run writes before its
    horizon, and the worker's CRCs of those chunks, with save's of the
    tail, give the bytes of a trace saved from memory under the same CHUNK,
    whether the run stops inside a chunk, at its end or one past it.  An
    extension reports exactly the ends a fresh run reports: its copy
    reports each whole chunk of the prefix once copied.  At every report,
    slots [1, end] already hold their final values."""
    seed, first, horizon, width, chunk = CHUNKED_RUNS[case]
    monkeypatch.setattr(checkpoint, "CHUNK", chunk)
    config = RecursionConfig(seed=Seed(seed), horizon=horizon, width=width)
    one_pass = tmp_path / "one-pass.qtr"
    checkpoint.save(run(config), one_pass)
    final, ends, report = one_pass.read_bytes(), [], checkpoint._Draft.on_chunk

    def on_chunk(draft, end):
        span = slice(draft.offset, draft.offset + width * end)  # slots [1, end]
        ends.append((end, draft[span] == final[span]))
        report(draft, end)

    monkeypatch.setattr(checkpoint._Draft, "on_chunk", on_chunk)
    path = tmp_path / "chunked.qtr"
    stored = None
    if first is not None:
        with checkpoint.reserve(path, replace(config, horizon=first)) as slots:
            stored = checkpoint.save(run(replace(config, horizon=first), slots), path)
        ends.clear()  # the extension's own reports follow
    with checkpoint.reserve(path, config) as slots:
        trace = run(config, slots) if stored is None else extend(stored, horizon, slots)
        trace = checkpoint.save(trace, path)
    assert path.read_bytes() == final
    assert ends == [(end, True) for end in range(chunk, trace.outcome.step or horizon, chunk)]


@pytest.mark.parametrize("advice", ["populate-write", "einval", "none"])
@pytest.mark.parametrize("seed,horizon,width,chunk", [
    ((1, 1), 30_000, 4, 4096), ((3, 1, 2), 30_000, 8, 2048), ((1, 3, 2, 2), 2000, 4, 256),
], ids=["width-4", "width-8", "death"])
def test_the_worker_faults_in_the_chunk_after_the_one_the_run_writes(
        tmp_path, monkeypatch, kernel, seed, horizon, width, chunk, advice):
    """At each report of end, the worker asks to fault in the pages of
    slots (end + CHUNK, end + 2 * CHUNK], none past the last slot, even past
    a death; where the advice fails or does not exist, it asks nothing
    more, and the file is the one-pass file under the same CHUNK either
    way."""
    value = {"populate-write": checkpoint._MADV_POPULATE_WRITE, "einval": 12345,
             "none": None}[advice]
    if advice == "populate-write" and value is None:
        pytest.skip("no MADV_POPULATE_WRITE on this platform")
    monkeypatch.setattr(checkpoint, "_MADV_POPULATE_WRITE", value)
    monkeypatch.setattr(checkpoint, "CHUNK", chunk)
    config = RecursionConfig(seed=Seed(seed), horizon=horizon, width=width)
    one_pass = tmp_path / "one-pass.qtr"
    checkpoint.save(run(config), one_pass)
    asked, madvise = [], checkpoint._Draft.madvise

    def record(draft, option, *span):
        if option == value:
            asked.append(span)
        return madvise(draft, option, *span)

    monkeypatch.setattr(checkpoint._Draft, "madvise", record)
    path = tmp_path / "reserved.qtr"
    with checkpoint.reserve(path, config) as slots:
        offset = slots.obj.offset
        trace = checkpoint.save(run(config, slots), path)
    assert path.read_bytes() == one_pass.read_bytes()

    def byte(n):  # where slot n ends in the file
        return offset + width * n

    ends = range(chunk, trace.outcome.step or horizon, chunk)
    want = [(byte(end + chunk) & -mmap.PAGESIZE,
             byte(min(end + 2 * chunk, horizon)) - (byte(end + chunk) & -mmap.PAGESIZE))
            for end in ends if end + chunk < horizon]
    assert asked == (want if value is not None else [])
    assert want and (trace.outcome.step is None or ends[-1] + chunk >= trace.outcome.step)


# (seed, horizon of a first run that is extended or None, horizon, width,
# checkpoint.CHUNK), a chunk being a page of slots: seed (1,6,4,2,1) dies at
# step 12291, (3,1,2) reads below the window, and the ramp orbit (1,1,2)
# reads near slot 1 throughout.
WINDOW_RUNS = {
    "width-4": ((1, 1), None, 30_000, 4, 1024),
    "width-8": ((1, 1), None, 30_000, 8, 512),
    "death": ((1, 6, 4, 2, 1), None, 30_000, 4, 1024),
    "extension": ((1, 1), 10_000, 30_000, 4, 1024),
    "irregular": ((3, 1, 2), None, 30_000, 4, 1024),
    "ramp-orbit": ((1, 1, 2), None, 30_000, 4, 1024),
}
SAVE_WORKER = "qseq-save-chunks"


@pytest.mark.skipif(not hasattr(os, "posix_fadvise"), reason="no posix_fadvise")
@pytest.mark.parametrize("case", sorted(WINDOW_RUNS))
def test_the_worker_gives_back_the_pages_outside_the_read_window(tmp_path, monkeypatch, kernel,
                                                                 case):
    """At each report of end, once it has advised the writeback of the
    chunks the report closes, the worker gives back the pages of slots
    [1, end] outside the read window [_WINDOW_LOW end, _WINDOW_HIGH (end +
    2 CHUNK)]: never the first page, nor one that holds a slot past end, nor
    one not yet advised.  A run that reads a page given back maps it again
    from the page cache, so every file is the one-pass file under the same
    CHUNK."""
    seed, first, horizon, width, chunk = WINDOW_RUNS[case]
    monkeypatch.setattr(checkpoint, "CHUNK", chunk)
    config = RecursionConfig(seed=Seed(seed), horizon=horizon, width=width)
    one_pass = tmp_path / "one-pass.qtr"
    checkpoint.save(run(config), one_pass)
    path = tmp_path / "reserved.qtr"
    stored = None
    if first is not None:
        with checkpoint.reserve(path, replace(config, horizon=first)) as slots:
            stored = checkpoint.save(run(replace(config, horizon=first), slots), path)
    events = []  # the worker's, in order: each report's CRCs, advice and drops
    chunk_crcs, fadvise = checkpoint._chunk_crcs, os.posix_fadvise
    madvise = checkpoint._Draft.madvise

    def on_worker(event):
        if threading.current_thread().name == SAVE_WORKER:
            events.append(event)

    def crcs(values, first):
        on_worker(("report", len(values) - 1))
        return chunk_crcs(values, first)

    def posix_fadvise(fd, offset, length, advice):
        on_worker(("advise", offset + length))
        return fadvise(fd, offset, length, advice)

    def record(draft, option, *span):
        if option == mmap.MADV_DONTNEED:
            on_worker(("drop", *span))
        return madvise(draft, option, *span)

    monkeypatch.setattr(checkpoint, "_chunk_crcs", crcs)
    monkeypatch.setattr(checkpoint.os, "posix_fadvise", posix_fadvise)
    monkeypatch.setattr(checkpoint._Draft, "madvise", record)
    with checkpoint.reserve(path, config) as slots:
        offset = slots.obj.offset
        trace = run(config, slots) if stored is None else extend(stored, horizon, slots)
        trace = checkpoint.save(trace, path)
    assert path.read_bytes() == one_pass.read_bytes()

    def byte(n):  # where slot n ends in the file
        return offset + width * n

    page, advised, drops, want = mmap.PAGESIZE, 0, [], []
    for kind, *span in events:
        if kind == "report":
            [end] = span
            low = int(checkpoint._WINDOW_LOW * end)
            high = math.ceil(checkpoint._WINDOW_HIGH * (end + 2 * chunk))
            want += [(lo, hi) for lo, hi in [(page, byte(low - 1) & -page),
                                             (-(-byte(high) & -page), byte(end) & -page)]
                     if lo < hi]
        elif kind == "advise":
            [advised] = span
        else:
            start, length = span
            assert page <= start < start + length <= min(byte(end) & -page, advised), (end, span)
            drops.append((start, start + length))
    assert drops == want
    assert len(drops) > horizon // chunk // 2


@pytest.mark.parametrize("first", [None, 10_000], ids=["fresh", "extension"])
def test_the_run_waits_for_each_give_back_and_the_worker_faults_in_after_it(
        tmp_path, monkeypatch, first):
    """At a page-sized CHUNK and with a worker slowed to 2 ms a report and
    2 ms a fault-in, the run (or the copy of an extension) reports end +
    CHUNK only once the worker has checksummed and given back the report
    of end, and the worker faults in the pages after (end + CHUNK) only
    after that give-back.  The run does not wait for the fault-in: some
    report comes while the worker faults in for the one before.  Each
    report closes one chunk, whose CRC is the worker's next crc32 call."""
    chunk, width = 1024, 4
    monkeypatch.setattr(checkpoint, "CHUNK", chunk)
    # asked for even where the system lacks it: the refusal is ignored, as every hint's is
    monkeypatch.setattr(checkpoint, "_MADV_POPULATE_WRITE", checkpoint._MADV_POPULATE_WRITE or 23)
    config = RecursionConfig(seed=Seed((1, 1)), horizon=30_000, width=width)
    path = tmp_path / "reserved.qtr"
    stored = None
    if first is not None:
        with checkpoint.reserve(path, replace(config, horizon=first)) as slots:
            stored = checkpoint.save(run(replace(config, horizon=first), slots), path)
    events = []  # ("report", end) from the run; the worker's crc32 calls, drops and fault-ins
    kernel, report, madvise = _native.kernel, checkpoint._Draft.on_chunk, checkpoint._Draft.madvise

    def on_worker():
        return threading.current_thread().name == SAVE_WORKER

    def crc32(data, value=0):
        if on_worker():
            events.append(("crc",))
            time.sleep(0.002)
        return kernel.crc32(data, value)

    def on_chunk(draft, end):
        report(draft, end)
        events.append(("report", end))

    def record(draft, option, *span):
        fault = option == checkpoint._MADV_POPULATE_WRITE and on_worker()
        if fault:
            events.append(("fault", span[0]))
            time.sleep(0.002)
        result = madvise(draft, option, *span)
        if fault:
            events.append(("faulted",))
        elif option == mmap.MADV_DONTNEED and on_worker():
            events.append(("drop",))
        return result

    monkeypatch.setattr(_native, "kernel", SimpleNamespace(advance=kernel.advance, crc32=crc32))
    monkeypatch.setattr(checkpoint._Draft, "on_chunk", on_chunk)
    monkeypatch.setattr(checkpoint._Draft, "madvise", record)
    with checkpoint.reserve(path, config) as slots:
        offset = slots.obj.offset
        trace = run(config, slots) if stored is None else extend(stored, config.horizon, slots)
        checkpoint.save(trace, path)

    ends = list(range(chunk, config.horizon, chunk))
    assert [e[1] for e in events if e[0] == "report"] == ends
    assert sum(e[0] == "crc" for e in events) == len(ends)
    # by the worker's report: where its give-back ends, where its fault-in ends, its events
    given_back, faulted, kinds, end = {}, {}, {}, 0
    for i, (kind, *span) in enumerate(events):
        if kind == "report":
            continue
        if kind == "crc":
            end += chunk
        if kind == "faulted":
            faulted[end] = i
            continue
        if kind == "fault":
            assert span[0] == (offset + width * (end + chunk)) & -mmap.PAGESIZE
        else:
            given_back[end] = i
        kinds.setdefault(end, []).append(kind)
    reported = {span[0]: i for i, (kind, *span) in enumerate(events) if kind == "report"}
    early = [end for end, i in reported.items() if end > chunk and given_back[end - chunk] > i]
    assert early == [], "reported before the worker gave back the report before"
    assert any(reported[end + chunk] < i for end, i in faulted.items())
    assert all(k[0] == "crc" and "fault" not in k[:-1] for k in kinds.values()), kinds
    assert sum(k.count("drop") for k in kinds.values()) > len(ends) // 2
    assert sum(k[-1] == "fault" for k in kinds.values()) == len(ends) - 1


def test_runs_on_more_threads_than_cores_hand_each_report_over_once(tmp_path, monkeypatch):
    """Three runs into checkpoints at once, each with its own worker, a
    report every 64 slots and a thread switch every microsecond: every
    run ends, each file is the one-pass file, and the workers take exactly
    the reports the runs made, none lost or taken twice."""
    monkeypatch.setattr(checkpoint, "CHUNK", 64)
    config = RecursionConfig(seed=Seed((1, 1)), horizon=20_000)
    one_pass = tmp_path / "one-pass.qtr"
    checkpoint.save(run(config), one_pass)
    reported, taken = [], []
    report, chunk_crcs = checkpoint._Draft.on_chunk, checkpoint._chunk_crcs

    def on_chunk(draft, end):
        report(draft, end)
        reported.append(end)

    def crcs(values, first):
        if threading.current_thread().name == SAVE_WORKER:
            taken.append(len(values) - 1)
        return chunk_crcs(values, first)

    def save(path):
        with checkpoint.reserve(path, config) as slots:
            checkpoint.save(run(config, slots), path)

    monkeypatch.setattr(checkpoint._Draft, "on_chunk", on_chunk)
    monkeypatch.setattr(checkpoint, "_chunk_crcs", crcs)
    paths = [tmp_path / f"t{k}.qtr" for k in range(3)]
    runs = [threading.Thread(target=save, args=(path,), daemon=True) for path in paths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in runs:
            thread.start()
        for thread in runs:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in runs)
    assert all(path.read_bytes() == one_pass.read_bytes() for path in paths)
    assert len(reported) == 3 * (config.horizon // 64)
    assert sorted(taken) == sorted(reported)


@pytest.mark.skipif(not hasattr(os, "posix_fadvise"), reason="no posix_fadvise")
@pytest.mark.parametrize("hint", ["posix_fadvise", "drop"])
def test_a_failing_hint_never_loses_a_run(tmp_path, monkeypatch, capsys, hint):
    """An OSError from the writeback's advice, or from giving back pages
    (the worker's drops and save's), is ignored: compute exits 0, writes
    the one-pass file, and leaves no temp file and no thread."""
    from qseq.cli import main

    monkeypatch.setattr(checkpoint, "CHUNK", 1024)
    one_pass = tmp_path / "one-pass.qtr"
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=30_000)), one_pass)
    failed = []

    def fail(*args):
        failed.append(threading.current_thread().name)
        raise OSError(errno.EIO, "Input/output error")

    if hint == "posix_fadvise":
        monkeypatch.setattr(checkpoint.os, "posix_fadvise", fail)
    else:
        madvise = checkpoint._Draft.madvise
        monkeypatch.setattr(checkpoint._Draft, "madvise", lambda draft, option, *span: (
            fail() if option == mmap.MADV_DONTNEED else madvise(draft, option, *span)))
    path = tmp_path / "store" / "t.qtr"
    threads = threading.active_count()
    assert main(["compute", "--horizon", "30000", "--trace", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert SAVE_WORKER in failed
    assert path.read_bytes() == one_pass.read_bytes()
    assert threading.active_count() == threads
    assert [p.name for p in path.parent.iterdir()] == ["t.qtr"]


RUN_INTO_A_CHECKPOINT = (
    "import sys\nfrom qseq import checkpoint\n"
    "from qseq.engine import RecursionConfig, Seed, run\n"
    "def status(key):\n"
    "    for line in open('/proc/self/status'):\n"
    "        if line.startswith(key):\n"
    "            return int(line.split()[1]) * 1024\n"
    "config = RecursionConfig(Seed(tuple(map(int, sys.argv[2].split(',')))), int(sys.argv[3]),\n"
    "                         width=int(sys.argv[4]))\n"
    "before = status('VmRSS:')\n"
    "with checkpoint.reserve(sys.argv[1], config) as slots:\n"
    "    trace = checkpoint.save(run(config, slots), sys.argv[1])\n"
    "print(status('VmHWM:') - before, trace.len)")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("seed,width,bound", [
    pytest.param("1,1", 4, 6 * 10**7, id="1,1"),  # half of the 4-byte slots
    pytest.param("3,1,2", 4, 6 * 10**7, id="3,1,2"),
    pytest.param("1,1", 8, 52 << 20, id="1,1-width-8"),
])
def test_a_run_into_a_checkpoint_keeps_only_its_read_window_resident(tmp_path, seed, width,
                                                                       bound):
    """In a fresh interpreter, reserve, run and save 3·10^7 terms (114 MB
    of 4-byte slots, 229 MB of 8-byte ones): in 4-byte slots the peak RSS
    rises by at most half of that, for seed (1,1), whose reads stay inside
    the window, and for (3,1,2), whose reads go below it and fault those
    pages in again; keeping every slot mapped until save raised it by
    114.6 MB.  In 8-byte slots a chunk is 8 MB, and (1,1) rises by 44-46
    MB, alone or beside two busy cores, as the run waits for the worker's
    give-back of each report before it reports the next; letting the
    reports queue up, with the worker faulting in ahead before its
    give-back, raised it by 60-73 MB."""
    horizon = 3 * 10**7
    env = dict(os.environ, PYTHONPATH=str(Path(checkpoint.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", RUN_INTO_A_CHECKPOINT, tmp_path / "t.qtr",
                          seed, str(horizon), str(width)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    growth, length = map(int, out.stdout.split())
    assert length == horizon
    assert growth <= bound, f"{growth / 2**20:.1f} MB"


CLI_IN_A_CHILD = (
    "import sys\nfrom qseq.cli import main\nimport qseq.frequency\n"
    "def status(key):\n"
    "    for line in open('/proc/self/status'):\n"
    "        if line.startswith(key):\n"
    "            return int(line.split()[1]) * 1024\n"
    "before = status('VmRSS:')\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(status('VmHWM:') - before)")


def peak_growth(*argv) -> int:
    """How far qseq's main(argv) raises the peak RSS of a fresh interpreter
    that has imported the CLI and the frequency module."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkpoint.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", CLI_IN_A_CHILD, *map(str, argv)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("verb", [
    ["freq"],
    ["diagnose", "--series", "E"],
    ["diagnose", "--series", "R"],
    ["diagnose", "--series", "Reven"],
    ["selfsim", "--levels", "8"],
    ["selfsim", "--levels", "0..5"],
], ids=["freq", "diagnose-E", "diagnose-R", "diagnose-Reven", "selfsim-8", "selfsim-0..5"])
def test_a_walk_over_a_loaded_checkpoint_keeps_a_few_pieces_resident(tmp_path, verb):
    """In a fresh interpreter, freq (build_frequency), diagnose and selfsim
    over a loaded 3·10^7 checkpoint (114 MB of slots) raise the peak RSS by
    at most 32 MB: freq's two tables (the bins the values reach, about 11
    MB), load's two CRC buffers, and the slots of a few pieces or blocks,
    the whole mapping given back after each.  Keeping every slot read
    raised it by 128-134 MB; giving back only the slots below the lowest
    one a later row reads, by 70 MB for R and Reven, which read two
    streams, and by 116 MB for selfsim level 8, whose blocks of 2^18 rows
    spanned 2^26 slots."""
    horizon = ["--horizon", 3 * 10**7]
    path = tmp_path / "t.qtr"
    peak_growth("compute", *horizon, "--trace", path)
    growth = peak_growth("--data-dir", tmp_path, *verb, *horizon, "--trace", path)
    assert growth <= 32 << 20, f"{growth / 2**20:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_an_extension_into_a_checkpoint_peaks_near_a_fresh_run(tmp_path, main_trace):
    """In a fresh interpreter, extending a 10^7 checkpoint to 3·10^7 raises
    the peak RSS by at most 8 MB more than a fresh run of 3·10^7 terms into
    a checkpoint: the copy reports each chunk and waits for the worker's
    give-back of the one before, so the worker advises and gives back the
    copied prefix as fast as the copy goes.  The extension raised it by
    -2 to 2 MB more than the fresh run (about 22-24 MB each, alone or
    beside two busy cores); by 12-14 MB more alone while the copy ran ahead
    of the worker, and by 44 MB more while the copy made no report."""
    horizon = ["--horizon", 3 * 10**7]
    extended, fresh = tmp_path / "extended.qtr", tmp_path / "fresh.qtr"
    checkpoint.save(main_trace, extended)
    growth = peak_growth("compute", *horizon, "--trace", extended)
    assert growth <= peak_growth("compute", *horizon, "--trace", fresh) + (8 << 20), (
        f"{growth / 2**20:.1f} MB")
    assert extended.read_bytes() == fresh.read_bytes()


def test_a_failing_drop_never_loses_an_extension(tmp_path, monkeypatch, capsys):
    """An OSError from giving back pages while compute extends a loaded
    checkpoint, the source's drops and the worker's alike, is ignored as
    every hint is: compute exits 0, writes the one-pass file, and leaves no
    temp file and no thread."""
    from qseq import engine
    from qseq.cli import main

    monkeypatch.setattr(checkpoint, "CHUNK", 1024)
    one_pass = tmp_path / "one-pass.qtr"
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=30_000)), one_pass)
    path = tmp_path / "store" / "t.qtr"
    assert main(["compute", "--horizon", "10000", "--trace", str(path)]) == 0
    failed, madvise = set(), engine.FileMapping.madvise

    def fail(mapped, option, *span):
        if option != mmap.MADV_DONTNEED:
            return madvise(mapped, option, *span)
        failed.add((type(mapped).__name__, threading.current_thread().name))
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(engine.FileMapping, "madvise", fail)
    capsys.readouterr()
    threads = threading.active_count()
    assert main(["compute", "--horizon", "30000", "--trace", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert {("FileMapping", threading.main_thread().name), ("_Draft", SAVE_WORKER)} <= failed
    assert path.read_bytes() == one_pass.read_bytes()
    assert threading.active_count() == threads
    assert [p.name for p in path.parent.iterdir()] == ["t.qtr"]


def test_a_run_stopped_at_a_chunk_boundary_leaves_no_temp_or_thread(tmp_path, monkeypatch,
                                                                     kernel):
    """An exception raised where a run reports a chunk, as Ctrl-C is there,
    stops the run: the worker ends, the temp file is removed, and the old
    checkpoint stays byte for byte."""
    path = tmp_path / "trace.qtr"
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=100)), path)
    old = path.read_bytes()
    monkeypatch.setattr(checkpoint, "CHUNK", 256)
    ends, report = [], checkpoint._Draft.on_chunk

    def on_chunk(draft, end):
        ends.append(end)
        if end == 1024:
            raise KeyboardInterrupt
        report(draft, end)

    monkeypatch.setattr(checkpoint._Draft, "on_chunk", on_chunk)
    config = RecursionConfig(seed=Seed((1, 1)), horizon=3000)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt), checkpoint.reserve(path, config) as slots:
        checkpoint.save(run(config, slots), path)
    assert ends == [256, 512, 768, 1024]
    assert threading.active_count() == threads
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["trace.qtr"]


def test_a_worker_failing_at_the_first_report_stops_the_run_at_the_next(tmp_path, monkeypatch,
                                                                         capsys):
    """The worker's CRC raises an OSError at the first report: the run's
    next report raises it instead of waiting for the worker, so compute
    ends at once with EXIT_IO and one line on stderr, the old checkpoint
    stays byte for byte, and no temp file and no thread outlive it.  The
    failure is injected through the kernel binding, which every CRC goes
    through."""
    from qseq.cli import main

    path = tmp_path / "trace.qtr"
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=100)), path)
    old = path.read_bytes()
    kernel, report, ends = _native.kernel, checkpoint._Draft.on_chunk, []

    def crc32(data, value=0):
        if threading.current_thread().name == SAVE_WORKER:
            raise OSError(errno.EIO, "Input/output error")
        return kernel.crc32(data, value)

    def on_chunk(draft, end):
        ends.append(end)
        report(draft, end)

    monkeypatch.setattr(_native, "kernel", SimpleNamespace(advance=kernel.advance, crc32=crc32))
    monkeypatch.setattr(checkpoint._Draft, "on_chunk", on_chunk)
    monkeypatch.setattr(checkpoint, "CHUNK", 1024)
    threads, codes = threading.active_count(), []
    compute = threading.Thread(target=lambda: codes.append(
        main(["compute", "--horizon", "30000", "--trace", str(path)])), daemon=True)
    compute.start()
    compute.join(timeout=60)
    assert not compute.is_alive(), "compute still waits for a worker that failed"
    assert codes == [5]
    assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
    assert ends == [1024, 2048]
    assert threading.active_count() == threads
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["trace.qtr"]


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
    with checkpoint.atomic_write(tmp_path / "out.dat") as temp:
        temp.fh.write(b"a\n")
        temp.fh.write(b"b\n")
    assert events == [("fsync", False), ("replace", "out.dat"), ("fsync", True)]
    assert (tmp_path / "out.dat").read_bytes() == b"a\nb\n"


@pytest.mark.parametrize("computed", [True, False], ids=["computed-in-file", "in-memory"])
def test_save_fsyncs_the_whole_file_then_renames(tmp_path, monkeypatch, computed):
    """The header and the trailer, written last, reach the disk with the
    commit's fsync, before the rename.  Values computed in the file are
    flushed once before, then their tail is checksummed; a trace held in
    memory is written and checksummed instead."""
    events = []
    real_fsync, real_replace = checkpoint.os.fsync, checkpoint.os.replace
    path = tmp_path / "trace.qtr"
    config = RecursionConfig(seed=Seed((1, 1)), horizon=1000)

    def fsync(fd):
        head = os.pread(fd, 8, 0) if not stat.S_ISDIR(os.fstat(fd).st_mode) else None
        events.append(("fsync", head))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint.os, "replace", replace)
    if computed:
        with checkpoint.reserve(path, config) as slots:
            checkpoint.save(run(config, slots), path)
    else:
        checkpoint.save(run(config), path)
    commit = [("fsync", checkpoint.MAGIC), ("replace", "trace.qtr"), ("fsync", None)]
    assert events == ([("fsync", bytes(8))] if computed else []) + commit


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.dat"
    path.write_bytes(b"old\n")

    with pytest.raises(RuntimeError), checkpoint.atomic_write(path) as temp:
        temp.fh.write(b"new, half written")
        raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.dat"]


# ------------------------------------------------------------- save's CRCs and threads

TEMP_NAME = r"\.trace\.qtr\.[a-z0-9_]{8}\.tmp"  # as tempfile.mkstemp names atomic_write's temp


class Injected(Exception):
    """A failure made to happen inside save."""


def test_save_writes_each_chunk_crc_and_leaves_no_thread(tmp_path, monkeypatch):
    """10^6 values in chunks of 2^17: 7 whole chunks and a short last one,
    and the reserved mapping's worker ends with save."""
    monkeypatch.setattr(checkpoint, "CHUNK", 1 << 17)
    path = tmp_path / "trace.qtr"
    threads = threading.active_count()
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=10**6)), path)
    assert threading.active_count() == threads
    data = path.read_bytes()
    end = values_end(data)[1]
    assert len(data) == end + 4 * 8 + 4
    assert data[end:] == table_and_trailer(data[:end])


@pytest.mark.parametrize("failing", ["mkstemp", "payload-write", "crc"])
def test_failed_save_keeps_the_old_file_and_leaves_no_temp_or_thread(tmp_path, monkeypatch,
                                                                     failing):
    """Whichever step fails, save raises it, the old checkpoint stays byte
    for byte, and neither the temp file nor the reserved mapping's worker
    outlives save; no other thread starts.  A failure before the temp file
    exists starts no thread at all.  Both ways to save are tried: a trace
    held in memory, which the caller checksums after its write, and a run
    into reserved slots, whose worker checksums each 2^18-slot chunk the
    run reports while the run goes on, so that a failing CRC fails there.  The payload
    reaches the disk through fsync, so a failing write of it surfaces
    there: for a run into the file, before the tail's CRC.  The failure is
    injected through the kernel binding, which every CRC goes through."""
    path = tmp_path / "trace.qtr"
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=100)), path)
    old = path.read_bytes()
    new = run(RecursionConfig(seed=Seed((1, 1)), horizon=10**6))
    started, checksummed_on = [], set()

    class Thread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    def fail(*args, **kwargs):
        raise Injected(failing)

    kernel = _native.kernel

    def crc32(data, value=0):
        if len(data) > 1 << 12:  # the payload
            checksummed_on.add(threading.current_thread().name)
            if failing == "crc":
                fail()
            time.sleep(0.1)  # a slow CRC: save waits for it before going on
        return kernel.crc32(data, value)

    monkeypatch.setattr(checkpoint, "threading",
                        SimpleNamespace(Thread=Thread, Condition=threading.Condition))
    monkeypatch.setattr(_native, "kernel", SimpleNamespace(advance=kernel.advance, crc32=crc32))
    monkeypatch.setattr(checkpoint, "CHUNK", 1 << 18)
    if failing == "mkstemp":
        monkeypatch.setattr(checkpoint.tempfile, "mkstemp", fail)
    elif failing == "payload-write":
        monkeypatch.setattr(checkpoint.os, "fsync", fail)
    threads = threading.active_count()
    for computed in (False, True):
        started.clear()
        checksummed_on.clear()
        with pytest.raises(Injected):
            if computed:
                with checkpoint.reserve(path, new.config) as slots:
                    checkpoint.save(run(new.config, slots), path)
            else:
                checkpoint.save(new, path)
        assert threading.active_count() == threads
        if failing == "mkstemp":
            assert started == [] and not checksummed_on
        else:
            assert started == ["qseq-save-chunks"]
            assert checksummed_on == {"qseq-save-chunks" if computed
                                      else threading.main_thread().name}
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["trace.qtr"]


SAVE_IN_CHILD = "import sys; from qseq import checkpoint; " \
                "checkpoint.save(checkpoint.load(sys.argv[1]), sys.argv[2])"


def test_save_killed_midway_leaves_the_old_or_the_new_checkpoint(tmp_path, main_trace):
    """SIGKILL a child while it saves 10^7 terms over an older checkpoint.

    The target then loads and holds the old trace or the whole new one.  A
    kill before the rename leaves atomic_write's temp file behind under its
    mkstemp name; nothing removes it later.  The child may finish before
    the kill lands; the assertions hold either way.
    """
    source, store = tmp_path / "new.qtr", tmp_path / "store"
    checkpoint.save(main_trace, source)
    old = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000))
    target = store / "trace.qtr"
    checkpoint.save(old, target)
    env = dict(os.environ, PYTHONPATH=str(Path(checkpoint.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", SAVE_IN_CHILD, source, target],
                             env=env, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 30
    while (child.poll() is None and time.monotonic() < deadline
           and not any(store.glob(".trace.qtr.*.tmp"))):
        time.sleep(0.001)
    child.kill()
    stderr = child.communicate(timeout=60)[1].decode()
    assert child.returncode in (0, -signal.SIGKILL), stderr

    loaded = checkpoint.load(target)
    stale = [p.name for p in store.iterdir() if p != target]
    if loaded == old:
        assert child.returncode == -signal.SIGKILL
        assert len(stale) == 1 and re.fullmatch(TEMP_NAME, stale[0]), stale
    else:
        assert loaded == main_trace
        assert stale == []


COMPUTE_IN_CHILD = "import sys; from qseq.cli import main; sys.exit(main(sys.argv[1:]))"


def test_ctrl_c_during_a_run_leaves_the_old_checkpoint_and_no_temp(tmp_path):
    """SIGINT to a child computing 3·10^7 terms into a checkpoint, once its
    temp file exists.  The kernel checks for signals at each chunk boundary,
    so the child stops there with KeyboardInterrupt and atomic_write removes
    the temp file; a child that finished first leaves the new checkpoint."""
    target = tmp_path / "trace.qtr"
    old = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000))
    checkpoint.save(old, target)
    env = dict(os.environ, PYTHONPATH=str(Path(checkpoint.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", COMPUTE_IN_CHILD, "compute",
                              "--horizon", str(3 * 10**7), "--trace", str(target)],
                             env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 30
    while (child.poll() is None and time.monotonic() < deadline
           and not any(tmp_path.glob(".trace.qtr.*.tmp"))):
        time.sleep(0.001)
    time.sleep(0.05)  # into the run, which takes about 0.15 s
    child.send_signal(signal.SIGINT)
    stderr = child.communicate(timeout=60)[1].decode()
    assert child.returncode in (0, -signal.SIGINT), stderr
    loaded = checkpoint.load(target)
    if child.returncode:
        assert "KeyboardInterrupt" in stderr
        assert loaded == old
    else:
        assert loaded.len == 3 * 10**7
    assert [p.name for p in tmp_path.iterdir()] == ["trace.qtr"]


SLOW_COMPUTE_IN_CHILD = (
    "import sys, threading, time\nfrom types import SimpleNamespace\n"
    "from qseq import _native\nfrom qseq.cli import main\n"
    "kernel = _native.kernel\n"
    "def crc32(data, value=0):\n"
    "    if threading.current_thread().name == 'qseq-save-chunks':\n"
    "        print('checksumming', flush=True)\n"
    "        time.sleep(0.5)\n"
    "    return kernel.crc32(data, value)\n"
    "_native.kernel = SimpleNamespace(advance=kernel.advance, crc32=crc32)\n"
    "sys.exit(main(sys.argv[1:]))")


def test_ctrl_c_while_the_run_waits_for_the_worker_stops_it(tmp_path):
    """SIGINT to a child computing 10^7 terms into a checkpoint while the
    run waits in on_chunk for a worker slowed to 0.5 s a report: the wait
    ends with KeyboardInterrupt, the worker ends after its report, and the
    temp file is removed, so the old checkpoint stays."""
    target = tmp_path / "trace.qtr"
    old = run(RecursionConfig(seed=Seed((1, 1)), horizon=1000))
    checkpoint.save(old, target)
    env = dict(os.environ, PYTHONPATH=str(Path(checkpoint.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", SLOW_COMPUTE_IN_CHILD, "compute",
                              "--horizon", str(10**7), "--trace", str(target)],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "checksumming\n"  # the first report's
    time.sleep(0.3)  # the run writes its next chunk in a few ms, then waits out the 0.5 s
    child.send_signal(signal.SIGINT)
    stderr = child.communicate(timeout=30)[1]
    assert child.returncode == -signal.SIGINT, stderr
    assert "KeyboardInterrupt" in stderr and "in on_chunk" in stderr, stderr
    assert checkpoint.load(target) == old
    assert [p.name for p in tmp_path.iterdir()] == ["trace.qtr"]
