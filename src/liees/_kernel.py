"""Build, cache and load the compiled library of _kernel.c: the RK4 kernel
of liees.sim and the trajectory CSV codec.

load() compiles the library with the C compiler `cc` on first use and caches
the shared library in $XDG_CACHE_HOME/liees (else ~/.cache/liees), keyed by
the SHA-256 of the source, the flags and the machine type.  A cache
directory that is missing and cannot be made, is not owned by the user, or
is writable by others is not used: the library is then built in a private
temporary directory for this process only.  Any failure (no compiler, one
without unsigned __int128, a failed compile, a library that does not load)
makes load() return None and the caller runs in Python, with the same
results.  The result is memoised per process; nothing is loaded before the
first integration or CSV call, so `import liees` loads no shared library.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import types

import numpy as np

# CPython's own SHA-256: hashlib's OpenSSL backend adds about 3 MB of resident
# memory to every process that integrates, only to hash this small source.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# Bitwise equality with the Python stepper needs IEEE semantics, never
# -ffast-math, and no contraction into fused multiply-adds: the only ones are
# the fma calls of the kernel's error-free products, which give the same
# (product, error) pair as Dekker's split.  Those run only in the build of the
# RK4 loop that the library picks at load when the CPU has FMA, so no -mfma
# or -march=native: a cached library may be loaded on another CPU.
# -pthread: the CSV codec splits each call's rows across threads.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
COMPILER = "cc"
# Codes liees_rk4 returns besides 0 (success): the state diverged, a stage
# overflowed, only the cost of a stored state overflowed, or a derivative of
# the averaged field was not finite.
EXCEEDED, OVERFLOW, COST_OVERFLOW, NONFINITE = 1, 2, 3, 4
# Bytes the CSV writer reserves per field: the longest field, snprintf's
# "-2.2250738585072014e-308" (the exact integer path writes at most 23 bytes),
# and the separator, written over snprintf's terminating zero.
FIELD_BYTES = 25
# Least work per part of one codec call: fields formatted, or bytes of text
# parsed.  Each is about 0.25 ms of work, some ten times a thread's start and
# join (see the _kernel.c header).
FORMAT_PART_FIELDS = 4096
PARSE_PART_BYTES = 1 << 16
# Most parts the C codec takes in one call.
MAX_PARTS = 64


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def part_count(work: int, per_part: int) -> int:
    """Parts for a codec call of work units: one per CPU, each of at least
    per_part units."""
    return max(1, min(cpus(), work // per_part, MAX_PARTS))


def _cache_dir() -> str | None:
    """The user's kernel cache directory, or None when it is unsafe or unusable."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    path = os.path.join(base, "liees")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(path, os.W_OK):
        return None
    return path


def _compile(source: str, target: str) -> None:
    # imported here: subprocess and the modules it pulls in cost about 6 ms in
    # every process that integrates, and only a cache miss compiles
    import subprocess

    cc = shutil.which(COMPILER)
    if cc is None:
        raise OSError(f"no {COMPILER!r} on PATH")
    subprocess.run([cc, *FLAGS, "-o", target, source, "-lm"], check=True,
                   stdin=subprocess.DEVNULL, capture_output=True, timeout=120)


def _build(directory: str, name: str) -> str:
    """Compile into a private subdirectory, then rename into place atomically."""
    work = tempfile.mkdtemp(dir=directory)
    try:
        tmp = os.path.join(work, name)
        _compile(SOURCE, tmp)
        final = os.path.join(directory, name)
        os.replace(tmp, final)
        return final
    finally:
        shutil.rmtree(work, ignore_errors=True)


def rk4_entry(fn):
    """The Python entry point of the RK4 build fn of the library: liees_rk4,
    or liees_rk4_split, the portable build, which only tests call."""
    import ctypes

    dbl, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [dbl, dbl, dbl, ptr, i64, ptr, ptr, i64, dbl, dbl, i64, i64, dbl,
                   ptr, ptr, ctypes.POINTER(i64), ctypes.POINTER(dbl)]
    fn.restype = ctypes.c_int

    def rk4(alpha, xstar, m, terms, P, Q, x0, h, n_out, dec, limit):
        """Run the kernel; terms holds the (g, c, s, p) rows of the averaged
        field, or none for the cost itself.  Returns (states, costs, status, failing step
        or term, state or stage argument there)."""
        rows = np.ascontiguousarray(terms, dtype=np.float64).reshape(-1, 4)
        P = np.ascontiguousarray(P, dtype=np.float64)
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        out = np.empty(n_out + 1)
        jout = np.empty(n_out + 1)
        k = i64(0)
        last_x = dbl(0.0)
        status = fn(alpha, xstar, m, rows.ctypes.data, len(rows),
                    P.ctypes.data, Q.ctypes.data, len(Q), x0, h, n_out, dec, limit,
                    out.ctypes.data, jout.ctypes.data, ctypes.byref(k), ctypes.byref(last_x))
        return out, jout, status, k.value, last_x.value

    return rk4


def _bind(path: str) -> types.SimpleNamespace:
    import ctypes

    lib = ctypes.CDLL(path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fmt = lib.liees_format_rows
    fmt.argtypes = [ptr, i64, i64, i64, i64, ptr]
    fmt.restype = i64
    parse = lib.liees_parse_rows
    parse.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, ctypes.POINTER(i64)]
    parse.restype = i64
    count = lib.liees_count_lines
    count.argtypes = [ptr, i64]
    count.restype = i64
    # both codec entry points return -1 when the library could not make its C locale
    if fmt(None, 0, 0, 0, 1, None) != 0:
        raise OSError("the CSV codec has no C locale")

    def format_rows(block, n, buf, parts=None):
        """Write rows 0..n-1 of the columns block[k] as CSV lines into buf, a
        uint8 array of at least FIELD_BYTES bytes per field; returns the
        number of bytes written.  The rows are split into parts (by default
        part_count's) that threads format at once; the bytes do not depend
        on it."""
        ncol, stride = block.shape
        if not (block.dtype == np.float64 and block.flags.c_contiguous and 0 <= n <= stride
                and buf.dtype == np.uint8 and buf.flags.c_contiguous
                and len(buf) >= FIELD_BYTES * ncol * n):
            raise ValueError("format_rows: block or buffer of the wrong shape or type")
        if parts is None:
            parts = part_count(ncol * n, FORMAT_PART_FIELDS)
        return fmt(block.ctypes.data, ncol, stride, n, parts, buf.ctypes.data)

    def count_lines(text) -> int:
        """The line ends (\\n) in text, any bytes-like object."""
        view = np.frombuffer(text, np.uint8)
        return count(view.ctypes.data, len(view))

    def parse_rows(text, out, fill: int, parts=None):
        """Parse the lines of text, any bytes-like object, into the columns
        out[:, fill:], one line per column index, up to the end of out,
        stopping at a line that does not end in text or that the writer
        would not have written.  Returns (lines parsed, the bytes of text
        they take).  The text is split at line ends into parts (by default
        part_count's) that threads parse at once; neither the values nor
        the result depend on it."""
        ncol, stride = out.shape
        if not (out.dtype == np.float64 and out.flags.c_contiguous and 0 <= fill <= stride):
            raise ValueError("parse_rows: output of the wrong shape or type")
        view = np.frombuffer(text, np.uint8)
        if parts is None:
            parts = part_count(len(view), PARSE_PART_BYTES)
        used = i64(0)
        rows = parse(view.ctypes.data, len(view), ncol, out.ctypes.data + fill * out.itemsize,
                     stride, stride - fill, parts, ctypes.byref(used))
        return rows, used.value

    return types.SimpleNamespace(rk4=rk4_entry(lib.liees_rk4), format_rows=format_rows,
                                 count_lines=count_lines, parse_rows=parse_rows, cdll=lib)


@functools.lru_cache(maxsize=None)
def load():
    """The compiled library, or None when it cannot be built or loaded.
    Its entry points: rk4, the RK4 loop of sim.integrate and
    sim.integrate_lbs; format_rows, count_lines and parse_rows, the CSV
    codec; and cdll, the ctypes library itself."""
    try:
        with open(SOURCE, "rb") as fh:
            key = sha256(fh.read())
        key.update("\0".join((*FLAGS, os.uname().machine)).encode())
        name = f"kernel-{key.hexdigest()[:32]}.so"
        cache = _cache_dir()
        if cache is not None:
            path = os.path.join(cache, name)
            if not os.path.exists(path):
                path = _build(cache, name)
            return _bind(path)
        private = tempfile.mkdtemp()
        try:
            return _bind(_build(private, name))
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except Exception:
        return None
