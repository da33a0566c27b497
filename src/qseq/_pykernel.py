"""The pure-Python twin of ``_qkernel.c``, entry for entry, about 100x slower.

Each entry takes its extents from its buffers, as the C kernel does: a
value buffer of len(values) slots holds Q(1..len(values) - 1), and an out
buffer receives len(out) rows.  An integer argument goes through
operator.index, as C's "L" format reads it, so a float is a TypeError in
both kernels; advance's flag is read by its truth value, as "p" reads it.
"""

import sys
from array import array
from operator import index
from zlib import crc32  # the C kernel's crc32 equals it, and is it where it cannot fold

from ._native import SLOT_CAPS, ST_COUNT_OVERFLOW, ST_DEATH, ST_OK, ST_OVERFLOW, ST_PARITY

# The messages of the kinds of buffer that more than one entry takes.
_VALUES = "values must be C-contiguous 4- or 8-byte items"
_INT64 = "columns must be 1-D C-contiguous int64"
_INT64_OUT = "out must be writable 1-D C-contiguous int64"


def _items(buffer, sizes: tuple[int, ...], error: str, writes: bool = False) -> memoryview:
    """The buffer as unsigned items of its own size, as a converter of
    _qkernel.c checks it; ValueError(error) unless it is C-contiguous, its
    items have a size in sizes and, if the entry writes it, it is writable."""
    view = memoryview(buffer)
    if view.itemsize not in sizes or not view.c_contiguous or (writes and view.readonly):
        raise ValueError(error)
    return view.cast("B").cast({1: "B", 4: "I", 8: "Q"}[view.itemsize])


def _column(buffer, kinds: tuple[str, ...], error: str, writes: bool = False) -> memoryview:
    """A 1-D C-contiguous buffer of 8-byte native items as a memoryview of
    its kind, 'q' int64 or 'd' float64, as the C kernel's item_kind reads
    it; ValueError(error) unless that kind is in kinds and, if the entry
    writes it, the buffer is writable."""
    view = memoryview(buffer)
    f = view.format
    if f[:1] in ("@", "=") or (f[:1] == "<" and sys.byteorder == "little"):
        f = f[1:]
    kind = {"q": "q", "l": "q", "d": "d"}.get(f)
    if (view.itemsize != 8 or view.ndim != 1 or not view.c_contiguous or kind not in kinds
            or (writes and view.readonly)):
        raise ValueError(error)
    return view.cast("B").cast(kind)


def advance(values, start, perturbed, on_chunk=None, chunk=0):
    q = _items(values, (4, 8), "values must be writable C-contiguous 4- or 8-byte items",
               writes=True)
    start, e, chunk = index(start), 1 if perturbed else 0, index(chunk)
    cap = SLOT_CAPS[q.itemsize]
    if not 2 <= start <= len(q):
        raise ValueError("start must be in [2, len(values)]")
    if on_chunk is not None and not (callable(on_chunk) and chunk >= 1):
        raise ValueError("on_chunk must be None, or a callable with chunk >= 1")
    if q.itemsize == 8 and max(q[1:start]) > cap:
        raise ValueError("a value before start exceeds 2**63 - 1")
    for n in range(start, len(q)):
        t1, t2 = n - q[n - 1], n - q[n - 2]
        if t1 <= 0 or t2 <= 0:
            return ST_DEATH, n, int(t1 <= 0), int(t2 <= 0)
        val = q[t1] + q[t2] + (-e if n & 1 else e)
        if not 0 <= val <= cap:
            return ST_OVERFLOW, n, 0, 0
        q[n] = val
        if on_chunk is not None and n % chunk == 0 and n < len(q) - 1:
            on_chunk(n)
    return ST_OK, 0, 0, 0


def count_values(values, counts):
    q = _items(values, (4, 8), _VALUES)
    tally = _items(counts, (1,), "counts must be writable C-contiguous 1-byte items",
                   writes=True)
    m_cap, overflow = len(tally) - 1, 0
    for n in range(1, len(q)):
        v = q[n]
        if not v & 1:
            return ST_PARITY, n
        m = (v + 1) >> 1
        if m > m_cap:
            overflow += 1
        elif tally[m] == 255:
            return ST_COUNT_OVERFLOW, m
        else:
            tally[m] += 1
    return ST_OK, overflow


def linear_series(values, lo, terms, slope, out, den=1):
    q, lo = _items(values, (4, 8), _VALUES), index(lo)
    cma, slope = _column(terms, ("q",), _INT64), index(slope)
    items = _column(out, ("q", "d"), "out must be writable 1-D C-contiguous int64 or float64",
                    writes=True)
    den = index(den)
    if len(cma) % 3 or len(cma) > 3 * 8:
        raise ValueError("terms must be up to 8 whole (c, m, a) triples")
    if den < 1 or (items.format == "q" and den != 1):
        raise ValueError("den must be >= 1, and 1 for an int64 out")
    terms = list(zip(cma[0::3], cma[1::3], cma[2::3]))
    rows = range(lo, lo + len(items))
    for c, m, a in terms:
        for n in (rows[0], rows[-1]) if rows else ():
            if not 1 <= m * n + a <= len(q) - 1:
                raise ValueError(f"term ({c}, {m}, {a}) reads outside Q(1..{len(q) - 1})"
                                 f" at n = {n}")
    acc = [slope * n for n in rows]
    for c, m, a in terms:
        acc = [v + c * q[m * n + a] for v, n in zip(acc, rows)]
    ints = [(v + 2**63) % 2**64 - 2**63 for v in acc]  # modulo 2^64, as C's int64
    kind = items.format
    items[:] = array(kind, ints if kind == "q" else [v / float(den) for v in ints])


def min_into(out, other):
    outs = _column(out, ("q",), _INT64_OUT, writes=True)
    others = _column(other, ("q",), _INT64)
    if len(outs) != len(others):
        raise ValueError("out and other must be the same length")
    outs[:] = array("q", map(min, outs, others))


def interleave_violations(values, k_lo, out):
    q, k_lo = _items(values, (4, 8), _VALUES), index(k_lo)
    items = _column(out, ("q",), _INT64_OUT, writes=True)
    L = len(q) - 1
    if k_lo < 2:
        raise ValueError("need k_lo >= 2")
    if 2 * (k_lo + len(items) - 1) > L:
        raise ValueError("need 2 * (k_lo + len(out) - 1) <= len(values) - 1")

    def half(x):  # x modulo 2^64 as an int64, floor-halved
        return ((x + 2**63) % 2**64 - 2**63) >> 1

    count = 0
    for k in range(k_lo, k_lo + len(items)):
        a, b, a_prev, b_prev = q[2 * k - 1], q[2 * k], q[2 * k - 3], q[2 * k - 2]
        ja1, ja2 = half(2 * k - 1 - b_prev), half(2 * k - 1 - a_prev)
        jb1, jb2 = half(2 * k - a + 1), half(2 * k - b_prev + 1)
        if not (1 <= ja1 <= L // 2 and 1 <= ja2 <= L // 2
                and 1 <= jb1 <= (L + 1) // 2 and 1 <= jb2 <= (L + 1) // 2
                and (a - q[2 * ja1] - q[2 * ja2] + 1) % 2**64 == 0
                and (b - q[2 * jb1 - 1] - q[2 * jb2 - 1] - 1) % 2**64 == 0):
            items[count] = k
            count += 1
    return count


def format_rows(x, y, halves):
    xs = _column(x, ("q", "d"), "columns must be 1-D C-contiguous int64 or float64")
    ys = _column(y, ("q",), _INT64)
    if len(ys) != len(xs):
        raise ValueError("y must be as long as x")
    kx, xs, ys = xs.format, xs.tolist(), ys.tolist()
    if kx == "d" and not all(abs(v) < 2.0**52 / 1e8 for v in xs):
        raise ValueError("float column needs finite values below 2^52/1e8")
    spec = ".8f" if kx == "d" else "d"
    if halves:
        ys = (f"{'-' if v < 0 else ''}{abs(v) >> 1}.{5 if v & 1 else 0}" for v in ys)
    return "".join(f"{a:{spec}} {b}\n" for a, b in zip(xs, ys, strict=True)).encode()
