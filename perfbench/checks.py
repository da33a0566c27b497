"""Check every op's outputs, outside the timed window.

Two kinds of check:

* goldens: the sha256 of each output file, recorded at the seed commit by
  ``goldens.py`` (the README promises that identical flags give
  byte-identical files);
* anchors: tie those files to the oracle values frozen in
  ``tests/frozen_values.py``, read from the checkout being measured.

Checkpoints are not hashed: which trace a store keeps, and how it lays it
out, is the program's to improve.  They are read with this module's own
parser of the documented layout (``src/qseq/checkpoint.py``), not with the
program's code, and checked by the ``q_ckpt`` anchor instead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import runpy
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

_HEADER = struct.Struct("<8sHBBBBHQQQ")
_MAGIC = b"QSEQTRC\x00"
_VALUE_FORMAT = {4: "I", 8: "Q"}
CKPT_SUFFIX = ".qtr"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 22):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class Header:
    width: int
    alternating: bool
    seed: tuple[int, ...]
    length: int

    @property
    def config(self) -> tuple:
        return self.seed, self.alternating, self.width


def read_header(path: Path) -> Header | None:
    """The checkpoint's header, or None when the file is missing or not one."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read(_HEADER.size + 8 * 8)
    except FileNotFoundError:
        return None
    if len(raw) < _HEADER.size:
        return None
    magic, _, width, pert, _, _, seed_len, _, _, length = _HEADER.unpack_from(raw)
    if magic != _MAGIC or width not in _VALUE_FORMAT or len(raw) < _HEADER.size + 8 * seed_len:
        return None
    seed = struct.unpack_from(f"<{seed_len}Q", raw, _HEADER.size)
    return Header(width=width, alternating=pert == 1, seed=seed, length=length)


def shrunk(before: Header | None, after: Header | None) -> bool:
    """A same-config checkpoint left shorter than it was."""
    return bool(before and after and before.config == after.config
                and after.length < before.length)


def read_values(path: Path, lo: int, hi: int) -> list[int]:
    """Q(lo..hi) straight from a checkpoint file."""
    head = read_header(path)
    if head is None or not 1 <= lo <= hi <= head.length:
        raise ValueError(f"{path}: no values {lo}..{hi}")
    offset = _HEADER.size + 8 * len(head.seed) + (lo - 1) * head.width
    count = hi - lo + 1
    with open(path, "rb") as handle:
        handle.seek(offset)
        raw = handle.read(count * head.width)
    return list(struct.unpack(f"<{count}{_VALUE_FORMAT[head.width]}", raw))


def half_str(doubled: int) -> str:
    sign = "-" if doubled < 0 else ""
    return f"{sign}{abs(doubled) // 2}.{'5' if doubled % 2 else '0'}"


@dataclass
class Outputs:
    """What one op left behind."""

    files: dict[str, Path]  # output files by name
    stdout: str
    ckpt: Path | None
    args: tuple[str, ...]

    def one(self, prefix: str) -> Path:
        found = [path for name, path in self.files.items() if name.startswith(prefix)]
        if len(found) != 1:
            raise ValueError(f"expected one {prefix}* output, found {sorted(self.files)}")
        return found[0]

    def arg(self, flag: str) -> int:
        return int(self.args[self.args.index(flag) + 1])


class Checker:
    """Compares outputs with the goldens, or records them when ``record``."""

    def __init__(self, root: Path, record: bool = False):
        self.frozen = runpy.run_path(str(root / "tests" / "frozen_values.py"))
        self.record = record
        self.goldens = {} if record else json.loads(GOLDENS.read_text())

    def check(self, op, exit_code: int, out: Outputs) -> list[str]:
        problems = []
        if exit_code != op.exit_code:
            problems.append(f"exit {exit_code}, expected {op.exit_code}")
        if op.hashed:
            problems += self._compare(op.label, {
                f"{op.label}/{name}": sha256(path) for name, path in sorted(out.files.items())
                if not name.endswith(CKPT_SUFFIX)})
        for name in op.anchors:
            try:
                problems += ANCHORS[name](self.frozen, out)
            except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
                problems.append(f"anchor {name}: {exc}")
        return problems

    def _compare(self, label: str, digests: dict[str, str]) -> list[str]:
        if self.record:
            clashes = [k for k, v in digests.items() if self.goldens.setdefault(k, v) != v]
            return [f"{k}: output differs between two runs" for k in clashes]
        expected = {k: v for k, v in self.goldens.items() if k.startswith(label + "/")}
        problems = [f"{k}: unexpected output file" for k in digests.keys() - expected.keys()]
        problems += [f"{k}: output file missing" for k in expected.keys() - digests.keys()]
        problems += [f"{k}: differs from its golden" for k in digests.keys() & expected.keys()
                     if digests[k] != expected[k]]
        return problems


# ------------------------------------------------------------------ anchors

def _line(path: Path, number: int) -> str:
    with open(path) as handle:
        line = next(itertools.islice(handle, number - 1, None), "")
    return line.rstrip("\n")


def _expect(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# Oracle values of Q(n) for seed (1,1), by name in tests/frozen_values.py.
FROZEN_Q = {10**6: "Q_AT_1E6", 10**7: "Q_AT_1E7", 10**8: "Q_AT_1E8"}


def q_values(frozen, out: Outputs) -> list[str]:
    """Lines n of the values export, for every frozen n up to the horizon."""
    path, horizon = out.one("values_"), out.arg("--horizon")
    return [problem for n, name in FROZEN_Q.items() if n <= horizon
            for problem in _expect(f"values line {n}", _line(path, n), f"{n} {frozen[name]}")]


def series_e_1e6(frozen, out: Outputs) -> list[str]:
    n = 10**6
    want = f"{n} {half_str(frozen['FLUCT2_AT_1E6'])}"
    return _expect("series_E line 1e6", _line(out.one("series_E_"), n), want)


def q_ckpt(frozen, out: Outputs) -> list[str]:
    """The checkpoint has the configuration the op asked for and reaches its
    horizon (a longer one passes), with Q(n) right for every frozen n it holds."""
    path = out.ckpt if out.ckpt is not None else out.one("trace_")
    head = read_header(path)
    width = out.arg("--width") if "--width" in out.args else 4
    if head is None or head.config != ((1, 1), True, width):
        return [f"{path.name}: not a (1,1) alternating width-{width} checkpoint"]
    horizon = out.arg("--horizon")
    return _expect(f"checkpoint length {head.length} >= {horizon}", head.length >= horizon,
                   True) + [
        problem for n, name in FROZEN_Q.items() if n <= head.length
        for problem in _expect(f"checkpoint Q({n})", read_values(path, n, n)[0], frozen[name])]


def window_d(frozen, out: Outputs) -> list[str]:
    lo, hi = out.arg("--lo"), out.arg("--hi")
    q = read_values(out.ckpt, lo, hi + 1)
    want = [f"{n} {q[i + 1] - q[i]}" for i, n in enumerate(range(lo, hi + 1))]
    got = out.one("series_D_").read_text().splitlines()
    return _expect("D window", got == want, True)


def freq_blocks(frozen, out: Outputs) -> list[str]:
    blocks, hists = {}, {}
    for line in out.one("freq_report_").read_text().splitlines():
        words = line.split()
        if words[:1] == ["block"]:
            blocks[int(words[1][2:])] = dict(zip(words[2::2], words[3::2]))
        elif words[:1] == ["hist"]:
            hists[int(words[1][2:])] = {int(r): int(c) for r, c in
                                        (pair.split(":") for pair in words[2:])}
    problems = []
    for k in range(5, 16):
        want = frozen["BLOCKS_1E7"][k]
        got = blocks.get(k, {})
        problems += _expect(f"block {k}", (
            hists.get(k), int(got.get("total", -1)), int(got.get("peak_m", -1)),
            int(got.get("peak_count", -1)), int(got.get("ties", -1)),
            got.get("complete"), got.get("law"),
        ), (
            want["histogram"], want["total"], want["peak_m"], want["peak_count"], want["ties"],
            "yes" if want["complete"] else "no", "pass" if want["law_ok"] else "fail",
        ))
    return problems


def _survey_row(seed: tuple[int, ...], facts: dict) -> dict:
    row = {"seed": ",".join(map(str, seed)), "death": "-", "bad": "-", "shift": "-",
           "merge_n": "-", "growth": "-"}
    if facts["death"] is not None:
        step, bad_t1, bad_t2 = facts["death"]
        strong = step <= len(seed) + 2
        bad = [name for name, flag in (("t1", bad_t1), ("t2", bad_t2)) if flag]
        return {**row, "class": "strong_death" if strong else "weak_death",
                "death": str(step), "bad": ",".join(bad) or "-"}
    row["growth"] = f"{float(Fraction(*facts['growth2'])) / 2:.6f}"
    if facts["orbit"]:
        return {**row, "class": "ramp_orbit"}
    if facts["merge"] is None:
        return {**row, "class": "long_lived_irregular"}
    shift, n0 = facts["merge"]
    cls = ("original" if (shift, n0) == (0, 1)
           else "merges_into_original" if shift == 0 else "shifted_original")
    return {**row, "class": cls, "shift": str(shift), "merge_n": str(n0)}


def seed_classes(frozen, out: Outputs) -> list[str]:
    want = [_survey_row(seed, facts) for seed, facts in sorted(frozen["SEED_SURVEY"].items())
            if len(seed) == 3]
    lines = [line for line in out.stdout.splitlines() if line.startswith("seed ")]
    got = [dict(zip(line.split()[0::2], line.split()[1::2])) for line in lines]
    problems = _expect("survey rows", got, want)
    survey = out.one("seeds_").read_text().splitlines()
    return problems + _expect("survey file rows", survey[1:], lines)


_CRITERION = re.compile(r"criterion (\d+) \[(PASS|FAIL)\] (.*)")


def verify_outcome(frozen, out: Outputs) -> list[str]:
    """Exactly criterion 10 fails, with seed (3,1,2) just over the 0.1 bound."""
    found = {int(m[1]): (m[2], m[3]) for m in map(_CRITERION.match, out.stdout.splitlines()) if m}
    failing = sorted(n for n, (flag, _) in found.items() if flag == "FAIL")
    dev = abs(Fraction(*frozen["SEED_SURVEY"][(3, 1, 2)]["growth2"]) - 1)
    marker = f"(3,1,2) |2Q(H)/H - 1| = {float(dev):.6f}"
    details = [f"{n}: {found[n][1]}" for n in failing if n != 10]
    return (_expect("criteria reported", sorted(found), list(range(1, 14)))
            + _expect("failing criteria", failing, [10]) + details
            + _expect("criterion 10 names (3,1,2)", marker in found.get(10, ("", ""))[1], True))


ANCHORS = {
    "q_values": q_values,
    "series_E_1e6": series_e_1e6,
    "q_ckpt": q_ckpt,
    "window_D": window_d,
    "freq_blocks": freq_blocks,
    "seed_classes": seed_classes,
    "verify_outcome": verify_outcome,
}
