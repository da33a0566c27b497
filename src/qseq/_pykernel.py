"""The pure-Python twin of ``_qkernel.c``, entry for entry, about 100x slower."""

from ._native import SLOT_CAPS, ST_COUNT_OVERFLOW, ST_DEATH, ST_OK, ST_OVERFLOW, ST_PARITY


def _items(buffer, sizes: tuple[int, ...], error: str) -> memoryview:
    """The buffer as unsigned items of its own size; ValueError(error) unless in sizes."""
    view = memoryview(buffer)
    if view.itemsize not in sizes:
        raise ValueError(error)
    return view.cast("B").cast({1: "B", 4: "I", 8: "Q"}[view.itemsize])


def advance(values, start, horizon, eps_even, eps_odd, cap):
    q = _items(values, (4, 8), "value buffer must hold 4- or 8-byte items")
    if not 0 <= cap <= SLOT_CAPS[q.itemsize]:
        raise ValueError(
            "cap must be in [0, 2**32 - 1] for 4-byte items, [0, 2**63 - 1] for 8-byte")
    if len(q) < horizon + 1:
        raise ValueError("value buffer shorter than horizon + 1")
    if not 2 <= start <= horizon + 1:
        raise ValueError("start must be in [2, horizon + 1]")
    if max(q[1:start]) > cap:
        raise ValueError("a value before start exceeds cap")
    for n in range(start, horizon + 1):
        t1, t2 = n - q[n - 1], n - q[n - 2]
        if t1 <= 0 or t2 <= 0:
            return ST_DEATH, n, int(t1 <= 0), int(t2 <= 0)
        val = q[t1] + q[t2] + (eps_odd if n & 1 else eps_even)
        if not 0 <= val <= cap:
            return ST_OVERFLOW, n, 0, 0
        q[n] = val
    return ST_OK, 0, 0, 0


def count_values(values, n_max, counts, last_occurrence, m_cap):
    error = "unexpected buffer item sizes"
    q, tally, last = (_items(values, (4, 8), error), _items(counts, (1,), error),
                      _items(last_occurrence, (4,), error))
    if len(q) < n_max + 1 or len(tally) < m_cap + 1 or len(last) < m_cap + 1:
        raise ValueError("buffer too short")
    overflow = 0
    for n in range(1, n_max + 1):
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
            last[m] = n
    return ST_OK, overflow


def format_rows(x, y, halves):
    import numpy as np  # only here, so that the twin computes without NumPy

    if y.dtype.kind == "f" or len(y) != len(x):
        raise ValueError("y must be an integer column as long as x")
    if x.dtype.kind == "f" and not np.all(np.abs(x) < 2.0**52 / 1e8):
        raise ValueError("float column needs finite values below 2^52/1e8")
    spec, ys = (".8f" if x.dtype.kind == "f" else "d"), y.tolist()
    if halves:
        ys = (f"{'-' if v < 0 else ''}{abs(v) >> 1}.{5 if v & 1 else 0}" for v in ys)
    return "".join(f"{a:{spec}} {b}\n" for a, b in zip(x.tolist(), ys, strict=True)).encode()
