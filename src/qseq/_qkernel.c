/* Hot loops for the Q-recursion engine, and the series and text made from
 * its values.
 *
 * Arrays are passed via the buffer protocol, so this file has no numpy
 * dependency.  Value buffers are 1-based: slot 0 is unused, slot n holds
 * Q(n), so a buffer of len(values) slots holds Q(1..len(values) - 1).  Each
 * entry takes its extents from its buffers: the values it runs over, and
 * the rows of its out buffer.  Both 4-byte and 8-byte unsigned layouts are
 * supported, with values below the caps enforced here.  advance runs the
 * recursion, count_values tallies the values (with a 1-byte table, a bare
 * parity scan), linear_series evaluates a series such as 2Q(n) - n into an
 * int64 or float64 column, min_into takes the smaller of two int64
 * columns, interleave_violations checks the interleave identities,
 * format_rows writes two int64 or float64 columns as text, and crc32 is
 * zlib.crc32 for checkpoints, faster; so no verb needs NumPy.  Every entry
 * parses its arguments in one PyArg_ParseTuple, whose converters (below)
 * acquire and check each kind of buffer (crc32 takes any bytes-like object
 * through "y*", as zlib does), and releases them once, at its end.
 * _pykernel.py is this file's pure-Python twin, entry for entry.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#define ST_OK 0
#define ST_DEATH 1
#define ST_OVERFLOW 2
#define ST_PARITY 3
#define ST_COUNT_OVERFLOW 4

/* ---------------------------------------------------------- arguments */

/* NULL, with ValueError(error) raised unless error is "" (an error set already). */
static PyObject *
value_error(const char *error)
{
    if (*error)
        PyErr_SetString(PyExc_ValueError, error);
    return NULL;
}

/* The kind of a 1-D buffer of 8-byte native items: 'q' int64 or 'd'
 * float64; 0 for any other buffer. */
static char
item_kind(const Py_buffer *v)
{
    const char *f = v->format ? v->format : "B";
    f += (*f == '@' || *f == '=' || (PY_LITTLE_ENDIAN && *f == '<'));
    if (v->itemsize == 8 && v->ndim == 1 && f[0] && !f[1] && strchr("qld", f[0]))
        return f[0] == 'l' ? 'q' : f[0];
    return 0;
}

/* Each kind of buffer an entry takes is a PyArg "O&" converter, which
 * acquires the buffer into the Py_buffer it is given and checks it: C
 * contiguous, OK (an expression in v) and, if the entry WRITES it,
 * writable.  A buffer that fails is released, with ValueError(MESSAGE).
 * If a later argument fails, PyArg calls the converter again with NULL,
 * and it releases its buffer; else the entry releases it. */
#define DEFINE_KIND(name, WRITES, OK, MESSAGE)                          \
static int name(PyObject *obj, void *view)                              \
{                                                                       \
    Py_buffer *v = view;                                                \
    if (obj == NULL) {                                                  \
        PyBuffer_Release(v);                                            \
        return 1;                                                       \
    }                                                                   \
    if (PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO) < 0)               \
        return 0;                                                       \
    if (PyBuffer_IsContiguous(v, 'C') && (OK) && !((WRITES) && v->readonly)) \
        return Py_CLEANUP_SUPPORTED;                                    \
    PyBuffer_Release(v);                                                \
    value_error(MESSAGE);                                               \
    return 0;                                                           \
}
#define SLOTS(a, b) (v->itemsize == (a) || v->itemsize == (b))
DEFINE_KIND(values_in, 0, SLOTS(4, 8), "values must be C-contiguous 4- or 8-byte items")
DEFINE_KIND(values_out, 1, SLOTS(4, 8), "values must be writable C-contiguous 4- or 8-byte items")
DEFINE_KIND(counts_out, 1, SLOTS(1, 1), "counts must be writable C-contiguous 1-byte items")
DEFINE_KIND(int64_in, 0, item_kind(v) == 'q', "columns must be 1-D C-contiguous int64")
DEFINE_KIND(int64_out, 1, item_kind(v) == 'q', "out must be writable 1-D C-contiguous int64")
DEFINE_KIND(number_in, 0, item_kind(v), "columns must be 1-D C-contiguous int64 or float64")
DEFINE_KIND(number_out, 1, item_kind(v), "out must be writable 1-D C-contiguous int64 or float64")

/* Slot i of a buffer of 4- or 8-byte values. */
static inline uint64_t
slot(const Py_buffer *v, long long i)
{
    return v->itemsize == 4 ? ((const uint32_t *)v->buf)[i] : ((const uint64_t *)v->buf)[i];
}

/* advance(values, start, perturbed, on_chunk=None, chunk=0)
 *     -> (status, step, bad_t1, bad_t2)
 *
 * Runs q[n] = q[n - q[n-1]] + q[n - q[n-2]] + eps(n) in place for
 * n = start..horizon, horizon = len(values) - 1, 2 <= start <= horizon + 1,
 * with eps(n) = +1 at even n and -1 at odd n if perturbed is true, else 0.
 * Stops at the first n where a clock index is non-positive (ST_DEATH, bad
 * flags say which) or where the new value would exceed the slot's cap
 * (ST_OVERFLOW): 2^32 - 1 for 4-byte slots, 2^63 - 1 for 8-byte.  The sum
 * runs in uint64_t, where it wraps by definition: two values of at most
 * 2^63 - 1 plus an eps in [-1, 1] stay exact, and a sum below zero wraps
 * above the cap.  Before any read, ValueError if on_chunk is neither None
 * nor a callable with chunk >= 1, or if a value in q[1..start-1] of 8-byte
 * slots exceeds 2^63 - 1; resuming at 10^7 scans that prefix once.  No
 * 4-byte value can exceed its cap.
 *
 * The loop runs without the GIL.  Given on_chunk, it stops just after it
 * writes each multiple end of chunk in [start, horizon), takes the GIL,
 * checks for signals and calls on_chunk(end), slots [0, end] being final
 * by then, and runs on; so a caller can hand finished chunks to another
 * thread while the run goes on, and Ctrl-C stops it at the next boundary.
 * An exception there stops the run and is raised, the slots past end
 * unwritten.
 *
 * One loop, defined for each slot type, carries Q(n-1), Q(n-2) and Q(n-3)
 * in p1, p2 and p3 instead of loading back the slots just written.  It
 * takes its first two steps, or three from an odd start, as STEPs, which
 * check both clock indices, and the rest in pairs of PREDICTED_STEPs, even
 * n then odd n, so that each step's eps is a constant, +e or -e (e is 1
 * if perturbed, else 0); an even horizon takes one STEP after them.  Each
 * call does so, a chunk's sub-call too.
 *
 * A PREDICTED_STEP predicts Q(n-1), as a processor predicts a load's
 * value.  On the paper's long-lived seeds Q(n-1) - Q(n-3) is 0 or 2, so
 * q[n - Q(n-1)] is q[n - p3] or q[n - p3 - 2].  It loads both and adds
 * y = q[n - p2] + eps to each before p1 is known; then it takes the first
 * sum if p1 == p3, the second if p1 == p3 + 2, and for any other p1 checks
 * t1 = n - p1 and loads q[t1], as STEP does.  So a step's loads no longer
 * wait for the step before it.  It checks the cap, but no clock index on
 * the predicted path: once steps n-1 and n-2 have passed,
 *     t2(n) = n - Q(n-2) = t1(n-1) + 1 >= 2,
 *     n - p3 = n - Q(n-3) = t1(n-2) + 2 >= 3,
 * so t2 and both loads stay in [1, n]; the entry STEPs start this chain.
 * Every sum is taken in uint64_t, as in STEP: y wraps when q[t2] = 0 and
 * eps = -1, and the sum wraps back.  GCC 12 compiles the choice as a
 * branch on p1 == p3, which the branch predictor learns; a branchless
 * select (a mask) ran slower.
 */
typedef struct { int status; long long step; int bad1, bad2; } Stop;

#define STEP(T, e) do {                                                 \
        long long t1 = n - p1, t2 = n - p2;                             \
        if (t1 <= 0 || t2 <= 0)                                         \
            return (Stop){ST_DEATH, n, t1 <= 0, t2 <= 0};               \
        uint64_t val = (uint64_t)q[t1] + q[t2] + (uint64_t)(e);         \
        if (val > cap)                                                  \
            return (Stop){ST_OVERFLOW, n, 0, 0};                        \
        q[n++] = (T)val;                                                \
        p2 = p1; p1 = (long long)val;                                   \
    } while (0)

#define PREDICTED_STEP(T, e) do {                                       \
        uint64_t y = (uint64_t)q[n - p2] + (uint64_t)(e);               \
        uint64_t same = q[n - p3] + y, up2 = q[n - p3 - 2] + y, val;    \
        long long d = p1 - p3;                                          \
        if (d == 0) {                                                   \
            val = same;                                                 \
        } else if (d == 2) {                                            \
            val = up2;                                                  \
        } else {                                                        \
            if (n - p1 <= 0)                                            \
                return (Stop){ST_DEATH, n, 1, 0};                       \
            val = q[n - p1] + y;                                        \
        }                                                               \
        if (val > cap)                                                  \
            return (Stop){ST_OVERFLOW, n, 0, 0};                        \
        q[n++] = (T)val;                                                \
        p3 = p2; p2 = p1; p1 = (long long)val;                          \
    } while (0)

#define DEFINE_ADVANCE_LOOP(name, T, CAP)                               \
static Stop name(T *q, long long n, long long horizon, long long e)     \
{                                                                       \
    const uint64_t cap = (CAP);                                         \
    long long p1 = (long long)q[n - 1], p2 = (long long)q[n - 2];       \
    long long first = (n + 3) & ~1LL;  /* the first predicted step */   \
    while (n < first && n <= horizon)                                   \
        STEP(T, n & 1 ? -e : e);                                        \
    if (n < horizon) {                                                  \
        long long p3 = (long long)q[n - 3];                             \
        do {                                                            \
            PREDICTED_STEP(T, e); PREDICTED_STEP(T, -e);                \
        } while (n < horizon);                                          \
    }                                                                   \
    if (n == horizon) STEP(T, e);                                       \
    return (Stop){ST_OK, 0, 0, 0};                                      \
}
DEFINE_ADVANCE_LOOP(advance4, uint32_t, UINT32_MAX)
DEFINE_ADVANCE_LOOP(advance8, uint64_t, INT64_MAX)

/* Whether any of q[1..start-1] reads as a negative int64.  A running
 * maximum, without an early exit, lets the compiler vectorise. */
static int
prefix_above_int64(const uint64_t *q, long long start)
{
    uint64_t top = 0;
    for (long long i = 1; i < start; i++)
        top = q[i] > top ? q[i] : top;
    return top > INT64_MAX;
}

static PyObject *
advance(PyObject *self, PyObject *args)
{
    Py_buffer qv;
    long long start, chunk = 0;
    int perturbed;
    PyObject *on_chunk = Py_None;

    if (!PyArg_ParseTuple(args, "O&Lp|OL", values_out, &qv, &start, &perturbed,
                          &on_chunk, &chunk))
        return NULL;
    long long horizon = (long long)(qv.len / qv.itemsize) - 1, n = start;
    const char *error = NULL;
    Stop stop = {ST_OK, 0, 0, 0};
    if (start < 2 || start > horizon + 1)  /* the loop reads q[start-2] first */
        error = "start must be in [2, len(values)]";
    else if (on_chunk != Py_None && (!PyCallable_Check(on_chunk) || chunk < 1))
        error = "on_chunk must be None, or a callable with chunk >= 1";
    else if (qv.itemsize == 8 && prefix_above_int64((uint64_t *)qv.buf, start))
        error = "a value before start exceeds 2**63 - 1";
    while (!error && stop.status == ST_OK && n <= horizon) {
        long long h = on_chunk == Py_None ? horizon : (n - 1) / chunk * chunk + chunk;
        h = h < horizon ? h : horizon;  /* the first multiple of chunk >= n, clipped */
        Py_BEGIN_ALLOW_THREADS
        if (qv.itemsize == 4)
            stop = advance4((uint32_t *)qv.buf, n, h, perturbed);
        else
            stop = advance8((uint64_t *)qv.buf, n, h, perturbed);
        Py_END_ALLOW_THREADS
        n = h + 1;
        if (stop.status == ST_OK && n <= horizon) {
            PyObject *done = PyErr_CheckSignals() < 0 ? NULL
                             : PyObject_CallFunction(on_chunk, "L", h);
            error = done ? NULL : "";  /* "": the callback's exception is set */
            Py_XDECREF(done);
        }
    }
    PyBuffer_Release(&qv);
    return error ? value_error(error)
                 : Py_BuildValue("iLii", stop.status, stop.step, stop.bad1, stop.bad2);
}

/* count_values(values, counts) -> (status, aux)
 *
 * Single pass over q[1..n_max], n_max = len(values) - 1.  Every value must
 * be odd (ST_PARITY, aux = offending n).  Value v is binned at
 * m = (v+1)/2, taken as v/2 + 1 so that no value wraps; counts is a 1-byte
 * slot per m (ST_COUNT_OVERFLOW, aux = m, if a slot would pass 255).
 * Values with m > m_cap = len(counts) - 1 are only tallied: on ST_OK, aux
 * is that tally.  A view values[h:] counts Q(h+1..h+n_max), its slot 0
 * skipped like any other.
 *
 * With a table of at most one slot, no odd value has a bin, and the pass is
 * a parity scan (assert_all_odd's): first_even ANDs each block's values,
 * which the compiler vectorises, and scans a block value by value only to
 * name its first even n.
 */
#define PARITY_BLOCK 4096

#define DEFINE_FIRST_EVEN(name, T)                                      \
static long long name(const T *q, long long n_max)                      \
{                                                                       \
    for (long long lo = 1; lo <= n_max; lo += PARITY_BLOCK) {           \
        long long hi = n_max - lo < PARITY_BLOCK ? n_max : lo + PARITY_BLOCK - 1; \
        T all = 1;                                                      \
        for (long long n = lo; n <= hi; n++)                            \
            all &= q[n];                                                \
        for (long long n = lo; !(all & 1) && n <= hi; n++)              \
            if (!(q[n] & 1))                                            \
                return n;                                               \
    }                                                                   \
    return 0;                                                           \
}
DEFINE_FIRST_EVEN(first_even4, uint32_t)
DEFINE_FIRST_EVEN(first_even8, uint64_t)

static PyObject *
count_values(PyObject *self, PyObject *args)
{
    Py_buffer qv, cv;

    if (!PyArg_ParseTuple(args, "O&O&", values_in, &qv, counts_out, &cv))
        return NULL;

    int status = ST_OK;
    long long aux = 0, n_max = (long long)(qv.len / qv.itemsize) - 1;
    uint8_t *counts = (uint8_t *)cv.buf;
    if (cv.len <= 1) {
        long long even = qv.itemsize == 4 ? first_even4(qv.buf, n_max)
                                          : first_even8(qv.buf, n_max);
        status = even ? ST_PARITY : ST_OK;
        aux = even ? even : n_max > 0 ? n_max : 0;  /* the tally: every value */
        goto done;
    }
    for (long long n = 1; n <= n_max; n++) {
        uint64_t v = slot(&qv, n);
        if ((v & 1) == 0) {
            status = ST_PARITY; aux = n;
            goto done;
        }
        uint64_t m = v / 2 + 1;
        if (m >= (uint64_t)cv.len) {
            aux++;
        } else if (counts[m] == 255) {
            status = ST_COUNT_OVERFLOW; aux = (long long)m;
            goto done;
        } else {
            counts[m]++;
        }
    }

done:
    PyBuffer_Release(&qv);
    PyBuffer_Release(&cv);
    return Py_BuildValue("iL", status, aux);
}

/* ------------------------------------------------------------- series */

/* linear_series(values, lo, terms, slope, out, den=1) -> None
 *
 * For n = lo..hi, hi = lo + len(out) - 1, out[n - lo] = slope*n + the sum
 * of c*q[m*n + a] over the triples (c, m, a) of terms, an int64 column of
 * up to TERMS_MAX whole triples: as an int64, modulo 2^64, into an int64
 * out; as that int64 divided by den, in doubles, into a float64 out.  So
 * one call evaluates a linear series of the trace straight from its slots
 * (no terms and slope 1 write n itself).  The terms are copied before any
 * write, so an out that shares their memory cannot move an index.  Before
 * any write, ValueError if terms are not whole triples or too many, if den
 * is below 1 or is not 1 for an int64 out, or if an index m*n + a leaves
 * [1, len(values) - 1]: it is linear in n, so checking n = lo and n = hi
 * covers every row.
 */
#define TERMS_MAX 8

#define DEFINE_ADD_TERM(name, T)                                        \
static void name(uint64_t *acc, const T *q, long long rows, long long step, \
                 uint64_t c)                                            \
{                                                                       \
    for (long long i = 0; i < rows; i++)                                \
        acc[i] += c * (uint64_t)q[i * step];                            \
}
DEFINE_ADD_TERM(add_term4, uint32_t)
DEFINE_ADD_TERM(add_term8, uint64_t)

/* The ValueError linear_series raises before any write, or NULL; coef
 * receives the terms. */
static const char *
series_error(const Py_buffer *qv, const Py_buffer *tv, char kind, long long lo, long long hi,
             long long den, long long (*coef)[3])
{
    long long len = (long long)(qv->len / qv->itemsize) - 1, idx;
    if (tv->len % 24 || tv->len > 24 * TERMS_MAX)
        return "terms must be up to " Py_STRINGIFY(TERMS_MAX) " whole (c, m, a) triples";
    if (den < 1 || (kind == 'q' && den != 1))
        return "den must be >= 1, and 1 for an int64 out";
    memcpy(coef, tv->buf, (size_t)tv->len);
    for (Py_ssize_t t = 0; t < tv->len / 24; t++) {
        long long *cma = coef[t];
        for (int end = 0; hi >= lo && end < 2; end++) {
            long long n = end ? hi : lo;
            if (__builtin_mul_overflow(cma[1], n, &idx) || __builtin_add_overflow(idx, cma[2], &idx)
                || idx < 1 || idx > len) {
                PyErr_Format(PyExc_ValueError, "term (%lld, %lld, %lld) reads outside"
                             " Q(1..%lld) at n = %lld", cma[0], cma[1], cma[2], len, n);
                return "";
            }
        }
    }
    return NULL;
}

static PyObject *
linear_series(PyObject *self, PyObject *args)
{
    Py_buffer qv, tv, ov;
    long long lo, slope, den = 1, coef[TERMS_MAX][3];

    if (!PyArg_ParseTuple(args, "O&LO&LO&|L", values_in, &qv, &lo, int64_in, &tv, &slope,
                          number_out, &ov, &den))
        return NULL;
    char kind = item_kind(&ov);
    long long rows = ov.len / 8, n_terms = tv.len / 24;
    const char *error = series_error(&qv, &tv, kind, lo, lo + rows - 1, den, coef);
    if (!error) {
        uint64_t *acc = (uint64_t *)ov.buf;
        for (long long i = 0; i < rows; i++)
            acc[i] = (uint64_t)slope * (uint64_t)(lo + i);
        for (long long t = 0; rows > 0 && t < n_terms; t++) {
            long long c = coef[t][0], m = coef[t][1], first = m * lo + coef[t][2];
            if (qv.itemsize == 4)
                add_term4(acc, (const uint32_t *)qv.buf + first, rows, m, (uint64_t)c);
            else
                add_term8(acc, (const uint64_t *)qv.buf + first, rows, m, (uint64_t)c);
        }
        for (long long i = 0; kind == 'd' && i < rows; i++) {
            int64_t value;  /* the slot's 8 bytes read as int64, written back as a double */
            memcpy(&value, &acc[i], 8);
            double x = (double)value / (double)den;
            memcpy(&acc[i], &x, 8);
        }
    }
    PyBuffer_Release(&qv);
    PyBuffer_Release(&tv);
    PyBuffer_Release(&ov);
    return error ? value_error(error) : Py_NewRef(Py_None);
}

/* min_into(out, other) -> None
 *
 * out[i] = min(out[i], other[i]) for every row of two int64 columns, so
 * one linear_series column can take the smaller of two.  ValueError,
 * before any write, unless the two are the same length.
 */
static PyObject *
min_into(PyObject *self, PyObject *args)
{
    Py_buffer ov, tv;

    if (!PyArg_ParseTuple(args, "O&O&", int64_out, &ov, int64_in, &tv))
        return NULL;
    int same = ov.len == tv.len;
    int64_t *out = (int64_t *)ov.buf;
    const int64_t *other = (const int64_t *)tv.buf;
    for (Py_ssize_t i = 0; same && i < ov.len / 8; i++)
        out[i] = other[i] < out[i] ? other[i] : out[i];
    PyBuffer_Release(&ov);
    PyBuffer_Release(&tv);
    return same ? Py_NewRef(Py_None) : value_error("out and other must be the same length");
}

/* ------------------------------------------------------------- checks */

/* interleave_violations(values, k_lo, out) -> count
 *
 * Writes into out, in order, each k in [k_lo, k_hi], k_hi = k_lo + len(out)
 * - 1, at which the interleaves A(k) = q[2k-1] and B(k) = q[2k] break
 *
 *     A(k) = B(ja1) + B(ja2) - 1,  ja1 = (2k-1-B(k-1)) >> 1,  ja2 = (2k-1-A(k-1)) >> 1
 *     B(k) = A(jb1) + A(jb2) + 1,  jb1 = (2k-A(k)+1) >> 1,    jb2 = (2k-B(k-1)+1) >> 1
 *
 * or at which an inner index leaves [1, L/2] (ja) or [1, (L+1)/2] (jb),
 * L = len(values) - 1; returns how many it wrote.  Slots read as int64 and
 * the arithmetic runs modulo 2^64, >> flooring.  ValueError, before any
 * write, unless 2 <= k_lo and 2 k_hi <= L.
 */
#define HALF(x) ((int64_t)(x) >> 1)  /* x: a uint64_t difference, read as int64 */

static PyObject *
interleave_violations(PyObject *self, PyObject *args)
{
    Py_buffer qv, ov;
    long long k_lo, count = 0;

    if (!PyArg_ParseTuple(args, "O&LO&", values_in, &qv, &k_lo, int64_out, &ov))
        return NULL;
    long long len = (long long)(qv.len / qv.itemsize) - 1, b_hi = len / 2, a_hi = (len + 1) / 2;
    long long k_hi = k_lo + (long long)(ov.len / 8) - 1;
    const char *error = NULL;
    if (k_lo < 2)
        error = "need k_lo >= 2";
    else if (k_hi > len / 2)
        error = "need 2 * (k_lo + len(out) - 1) <= len(values) - 1";
    for (long long k = k_lo; !error && k <= k_hi; k++) {
        uint64_t a = slot(&qv, 2 * k - 1), b = slot(&qv, 2 * k);
        uint64_t a_prev = slot(&qv, 2 * k - 3), b_prev = slot(&qv, 2 * k - 2);
        int64_t ja1 = HALF(2 * k - 1 - b_prev), ja2 = HALF(2 * k - 1 - a_prev);
        int64_t jb1 = HALF(2 * k - a + 1), jb2 = HALF(2 * k - b_prev + 1);
        if (ja1 < 1 || ja1 > b_hi || ja2 < 1 || ja2 > b_hi
            || jb1 < 1 || jb1 > a_hi || jb2 < 1 || jb2 > a_hi
            || a != slot(&qv, 2 * ja1) + slot(&qv, 2 * ja2) - 1
            || b != slot(&qv, 2 * jb1 - 1) + slot(&qv, 2 * jb2 - 1) + 1)
            ((int64_t *)ov.buf)[count++] = k;
    }
    PyBuffer_Release(&qv);
    PyBuffer_Release(&ov);
    return error ? value_error(error) : PyLong_FromLongLong(count);
}

/* ------------------------------------------------------------- text */

#define ROW_MAX 48  /* longest row: 20 (x) + ' ' + 22 (y) + '\n', and snprintf's NUL */

static char *
put_uint(char *out, uint64_t v)
{
    char tmp[20], *p = tmp + 20;
    do *--p = (char)('0' + v % 10); while (v /= 10);
    memcpy(out, p, (size_t)(tmp + 20 - p));
    return out + (tmp + 20 - p);
}

/* Cell i of a column: an integer bare, or (halves) doubled as -?I.0 / -?I.5;
 * a float as "%.8f", from rint(|x| * 1e8), which is the correctly rounded
 * decimal except within the product's rounding error of a tie, where
 * snprintf rounds exactly (its decimal point is LC_NUMERIC's, which qseq
 * leaves at "C").  NULL unless a float is finite and below 2^52/1e8. */
static char *
put_cell(char *out, const Py_buffer *v, char kind, Py_ssize_t i, int halves)
{
    uint64_t mag = ((const uint64_t *)v->buf)[i];
    if (kind == 'd') {
        double x = ((const double *)v->buf)[i], scaled = fabs(x) * 1e8;
        if (!(fabs(x) < 4503599627370496.0 / 1e8))
            return NULL;
        if (signbit(x))
            *out++ = '-';
        if (fabs(scaled - floor(scaled) - 0.5) <= scaled * 0x1p-50)
            return out + snprintf(out, 24, "%.8f", fabs(x));
        uint64_t fixed = (uint64_t)rint(scaled);
        out = put_uint(out, fixed / 100000000);
        out = put_uint(out, fixed % 100000000 + 100000000);  /* "1" and 8 digits */
        out[-9] = '.';
        return out;
    }
    if ((int64_t)mag < 0) {
        *out++ = '-';
        mag = 0 - mag;
    }
    if (!halves)
        return put_uint(out, mag);
    out = put_uint(out, mag >> 1);
    memcpy(out, (mag & 1) ? ".5" : ".0", 2);
    return out + 2;
}

/* format_rows(x, y, halves) -> bytes
 *
 * One "x y\n" line per row of an int64 or float64 column x and an int64
 * column y as long as x; y holds integers, doubled half-integers when
 * halves is true.
 */
static PyObject *
format_rows(PyObject *self, PyObject *args)
{
    PyObject *text = NULL;
    Py_buffer xv, yv;
    int halves;

    if (!PyArg_ParseTuple(args, "O&O&p", number_in, &xv, int64_in, &yv, &halves))
        return NULL;
    char kx = item_kind(&xv);
    Py_ssize_t rows = xv.len / 8;
    if (yv.len != xv.len)
        PyErr_SetString(PyExc_ValueError, "y must be as long as x");
    else if (rows > PY_SSIZE_T_MAX / ROW_MAX)
        PyErr_NoMemory();
    else if ((text = PyBytes_FromStringAndSize(NULL, rows * ROW_MAX)) != NULL) {
        char *start = PyBytes_AS_STRING(text), *out = start;
        for (Py_ssize_t i = 0; i < rows && (out = put_cell(out, &xv, kx, i, 0)) != NULL; i++) {
            *out++ = ' ';
            out = put_cell(out, &yv, 'q', i, halves);
            *out++ = '\n';
        }
        if (out == NULL) {
            PyErr_SetString(PyExc_ValueError, "float column needs finite values below 2^52/1e8");
            Py_CLEAR(text);
        } else {
            _PyBytes_Resize(&text, out - start);
        }
    }
    PyBuffer_Release(&xv);
    PyBuffer_Release(&yv);
    return text;
}

/* ----------------------------------------------------------- checksum */

/* crc32(data, crc=0) -> int
 *
 * zlib.crc32(data, crc): the CRC-32 of the bytes of any C-contiguous
 * buffer, read-only included, continued from crc taken modulo 2^32, with
 * zlib's errors.  The GIL is released over more than 5 KB, as zlib does.
 *
 * On x86-64 CPUs with PCLMULQDQ, crc32_fold folds 64-byte blocks, then
 * 16-byte blocks, with carry-less multiplies and reduces the last 128 bits
 * by Barrett's method (Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction", Intel, 2009); crc32_bits takes
 * the tail of under 16 bytes and buffers under 64 bytes.  Elsewhere,
 * PyInit__qkernel binds crc32 to zlib.crc32 itself, so that no host
 * checksums slower than zlib does.
 */

/* crc, inverted as zlib keeps it while running, continued over len bytes
 * one bit at a time. */
static uint32_t
crc32_bits(uint32_t crc, const unsigned char *p, size_t len)
{
    while (len--) {
        crc ^= *p++;
        for (int k = 0; k < 8; k++)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1)));
    }
    return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CRC32_CAN_FOLD() (__builtin_cpu_init(), __builtin_cpu_supports("pclmul"))

/* GCC and Clang vector types and builtins, not <immintrin.h>, whose
 * parsing took this file's compile from 0.49 to 0.90 s (GCC 12). */
typedef long long v2di __attribute__((vector_size(16)));
typedef long long v2di_unaligned __attribute__((vector_size(16), aligned(1), may_alias));
#define LOAD16(p) (*(const v2di_unaligned *)(p))
#define CLMUL(a, b, lanes) __builtin_ia32_pclmulqdq128((a), (b), (lanes))
/* x, 128 bits that stand a constant distance ahead of next, carried into
 * next: each half of x times its constant in k, the pair that distance
 * gives, carry-less. */
#define FOLD(x, k, next) (CLMUL((x), (k), 0x00) ^ CLMUL((x), (k), 0x11) ^ (next))

/* crc32_bits(crc, p, len) for len >= 64.  The constants are the paper's,
 * bit-reflected: k1, k2 fold 512 bits ahead; k3, k4 fold 128 bits ahead,
 * then the last 128 bits to 96; k5 folds 96 bits to 64; P (the polynomial,
 * x^32 included) and mu = x^64 / P reduce those 64 to 32. */
__attribute__((target("pclmul"))) static uint32_t
crc32_fold(uint32_t crc, const unsigned char *p, size_t len)
{
    const v2di k1k2 = {0x154442bd4, 0x1c6e41596}, k3k4 = {0x1751997d0, 0x0ccaa009e},
               k5 = {0x163cd6124, 0}, poly = {0x1db710641, 0x1f7011641},
               low32 = {0xffffffff, 0xffffffff};
    v2di x1 = LOAD16(p) ^ (v2di){crc, 0}, x2 = LOAD16(p + 16), x3 = LOAD16(p + 32),
         x4 = LOAD16(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = FOLD(x1, k1k2, LOAD16(p));
        x2 = FOLD(x2, k1k2, LOAD16(p + 16));
        x3 = FOLD(x3, k1k2, LOAD16(p + 32));
        x4 = FOLD(x4, k1k2, LOAD16(p + 48));
    }
    x1 = FOLD(FOLD(FOLD(x1, k3k4, x2), k3k4, x3), k3k4, x4);
    for (; len >= 16; p += 16, len -= 16)
        x1 = FOLD(x1, k3k4, LOAD16(p));
    x1 = CLMUL(x1, k3k4, 0x10) ^ (v2di){x1[1], 0};  /* 128 bits to 96 */
    uint64_t lo = (uint64_t)x1[0], hi = (uint64_t)x1[1];
    v2di above32 = {(long long)(lo >> 32 | hi << 32), (long long)(hi >> 32)};
    x1 = CLMUL(x1 & low32, k5, 0x00) ^ above32;  /* 96 bits to 64 */
    v2di t = CLMUL(CLMUL(x1 & low32, poly, 0x10) & low32, poly, 0x00);  /* Barrett: to 32 */
    return crc32_bits((uint32_t)((uint64_t)(x1 ^ t)[0] >> 32), p, len);
}
#else
#define CRC32_CAN_FOLD() 0
#define crc32_fold crc32_bits  /* never called: crc32 is zlib's */
#endif

static PyObject *
crc32(PyObject *self, PyObject *args)
{
    Py_buffer data;
    unsigned int crc = 0;  /* "I" takes it modulo 2^32, as zlib does */

    if (!PyArg_ParseTuple(args, "y*|I:crc32", &data, &crc))
        return NULL;
    size_t len = (size_t)data.len;
    PyThreadState *released = len > 5 * 1024 ? PyEval_SaveThread() : NULL;
    crc = ~(len >= 64 ? crc32_fold : crc32_bits)(~crc, data.buf, len);
    if (released)
        PyEval_RestoreThread(released);
    PyBuffer_Release(&data);
    return PyLong_FromUnsignedLong(crc);
}

static PyMethodDef kernel_methods[] = {
    {"advance", advance, METH_VARARGS, "run the recursion in place, chunk by chunk"},
    {"count_values", count_values, METH_VARARGS, "tally odd values into dyadic bins"},
    {"linear_series", linear_series, METH_VARARGS, "evaluate a linear series of the values"},
    {"min_into", min_into, METH_VARARGS, "take the smaller of two int64 columns in place"},
    {"interleave_violations", interleave_violations, METH_VARARGS,
     "list the k that break the interleave identities"},
    {"format_rows", format_rows, METH_VARARGS, "write rows of two columns as text"},
    {"crc32", crc32, METH_VARARGS, "zlib.crc32, folded with carry-less multiplies"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "qseq._qkernel", NULL, -1, kernel_methods
};

PyMODINIT_FUNC
PyInit__qkernel(void)
{
    PyObject *module = PyModule_Create(&moduledef), *zlib = NULL, *crc = NULL;
    if (module && !CRC32_CAN_FOLD()) {  /* crc32 is zlib.crc32 */
        zlib = PyImport_ImportModule("zlib");
        crc = zlib ? PyObject_GetAttrString(zlib, "crc32") : NULL;
        if (!crc || PyObject_SetAttrString(module, "crc32", crc) < 0)
            Py_CLEAR(module);
        Py_XDECREF(zlib);
        Py_XDECREF(crc);
    }
    return module;
}
