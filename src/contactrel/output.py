"""CSV and JSONL writers with round-trip numeric formatting.

All numbers are written exactly as %.17g writes them, so that parsing them back
yields the identical IEEE double; CSV and JSONL outputs of the same data carry
identical values.  NaN appears as ``nan`` in CSV and ``null`` in JSONL.  One NumPy
kernel formats whole chunks of rows; only finite nonzero values outside
1e-4 <= |x| < 1e17 go through Python's % (``_fallback``).

Every table of a run is named, written and, if the run fails, removed by
:class:`_RunFiles`: the trajectory PATH.FMT, its companions PATH_phi.FMT and
PATH_tau.FMT, an ensemble's PATH_series.FMT and PATH_snapshot_NNNN.FMT, whose
snapshots a forked writer process can format while the caller integrates.
"""

from __future__ import annotations

import os
import signal
from contextlib import AbstractContextManager, contextmanager, suppress
from itertools import takewhile
from pathlib import Path

import numpy as np

from .integrators import Trajectory

__all__ = [
    "TRAJECTORY_COLUMNS",
    "write_trajectory",
    "write_ensemble_series",
    "write_ensemble_snapshot",
]

TRAJECTORY_COLUMNS = (
    "lambda", "q0", "q1", "q2", "q3", "p0", "p1", "p2", "p3",
    "phi", "H", "tau", "shell_residual",
)

ENSEMBLE_SERIES_COLUMNS = ("lambda", "total_weight", "entropy", "entropy_rate_analytic")

SNAPSHOT_COLUMNS = (
    "index", "q0", "q1", "q2", "q3", "p0", "p1", "p2", "p3", "phi", "w", "f",
)

# rows formatted at once; a chunk's temporaries stay under about 1 MB
_CHUNK_ROWS = 256


# --- %.17g for whole blocks of values -------------------------------------------------
# 1e-4 <= |x| < 1e17 prints as its 17 digits D = round(|x| 10^(16-k)), k = floor(log10 |x|):
# Dekker's two-product with the exact 10^(16-k) gives p + e, and p >= 2^53 is even, so
# D = p + rint(e) rounds half to even as %.17g does.  A value fills a 40-byte slot of
# NUL-padded text (sign, "0.", three zeros, 17 digit/point pairs); NULs are dropped per
# chunk.  The masks also spell zero, inf and NaN; other values go through % (_fallback).

_ZERO, _INF, _NAN = 21, 22, 23  # mask classes after the exponents k + 4 = 0..20
_fallback = b"%.17g".__mod__  # the exponent form of 0 < |x| < 1e-4 and |x| >= 1e17
# a 4-digit group as the digits of four slot pairs, and its trailing zeros
_SPREAD4 = np.zeros((10_000, 8), np.uint8)
_GROUP = np.arange(10_000, dtype=np.int16)[:, None]  # int64 temporaries raised peak RSS 1.5 MB
_SPREAD4[:, ::2] = _GROUP // np.int16([1000, 100, 10, 1]) % 10 + ord("0")
_TZ4 = (_SPREAD4[:, 6::-2] == ord("0")).cumprod(axis=1, dtype=np.int8).sum(axis=1, dtype=np.int32)
_SPREAD4 = _SPREAD4.view(np.uint64)[:, 0]


def _slot_masks(nan_text: bytes) -> np.ndarray:
    """XOR masks over spread digits, (5, 24 * 2 * 17) words by (class, sign, trailing
    zeros of D).  Each clears the '0's of the leading digit's group 000d; for an exponent
    it sets the sign, k < 0's "0." and zeros and the point after digit k when a nonzero
    digit follows, and clears '0' digits past both.  Zero, inf, NaN spread as D = 10^16."""
    masks = np.zeros((24, 2, 17, 40), np.uint8)
    k, last, i = np.arange(-4, 17)[:, None, None, None], 16 - np.arange(17)[:, None], np.arange(17)
    masks[:21, :, :, 6::2] = (i > np.maximum(last, k)) * ord("0")  # digit i of D
    masks[:21, :, :, 7::2] = ((i == k) & (k < last)) * ord(".")
    for j in range(4):
        masks[j, :, :, 1:6 - j] = np.frombuffer(b"0.000"[:5 - j], np.uint8)
    masks[:21, 1, :, 0] = ord("-")
    for cls, texts in ((_ZERO, [b"0", b"-0"]), (_INF, [b"inf", b"-inf"]), (_NAN, [nan_text] * 2)):
        for sign, text in enumerate(texts):
            masks[cls, sign, :, 6::2] = ord("0")
            masks[cls, sign, :, 6] = ord("1")
            masks[cls, sign, :, :len(text)] ^= np.frombuffer(text, np.uint8)
    masks[..., 0:6:2] ^= ord("0")
    return masks.reshape(-1, 40).view(np.uint64).T.copy()


_MASKS = {"csv": _slot_masks(b"nan"), "jsonl": _slot_masks(b"null")}


def _split(a):
    """Veltkamp's split of doubles into halves of at most 26 bits."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


_SCALE = np.array([float(10 ** (20 - j)) for j in range(21)])  # 10^(16-k), exact


def _digits(a, k4):
    """D = round(a 10^(20-k4)), half to even, exact for a in [1e-4, 1e17)."""
    scale = _SCALE.take(k4)
    p = a * scale
    (ah, al), (bh, bl) = _split(a), _split(scale)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _slots(x, masks) -> np.ndarray:
    """The (n, 5) uint64 words of the slots of n values."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)  # keeps log10 and the integer casts finite
    cls = np.minimum((np.log10(a) + 4).astype(np.int64), 20)  # k + 4, k = floor(log10 a)
    d = _digits(a, cls)
    miss = (d < 10 ** 16) | (d >= 10 ** 17)
    if miss.any():  # log10 was off by one
        cls[miss] += np.where(d[miss] < 10 ** 16, -1, 1)
        d[miss] = _digits(a[miss], cls[miss])
    g = np.empty((5, len(d)), np.int32)  # the leading digit, then four 4-digit groups
    g[0] = d // 10 ** 16
    top = d // 10 ** 8
    hi, lo = top.astype(np.int32) - g[0] * 10 ** 8, (d - top * 10 ** 8).astype(np.int32)
    g[1], g[3] = hi // 10 ** 4, lo // 10 ** 4
    g[2], g[4] = hi - g[1] * 10 ** 4, lo - g[3] * 10 ** 4
    tz = _TZ4.take(g[1:])
    zeros = tz[3] + (g[4] == 0) * (tz[2] + (g[3] == 0) * (tz[1] + (g[2] == 0) * tz[0]))
    if not fixed.all():
        cls[x == 0], cls[np.isinf(x)], cls[np.isnan(x)] = _ZERO, _INF, _NAN
    words = (_SPREAD4.take(g) ^ masks.take(cls * 34 + np.signbit(x) * 17 + zeros, axis=1)).T
    for i in np.flatnonzero(~fixed & (cls < _ZERO)):
        words[i] = np.frombuffer(_fallback(float(x[i])).ljust(40, b"\0"), np.uint64)
    return words


def _write_table(path: Path, columns, rows, fmt_style: str, stride: int = 1):
    """Write rows as %.17g text (NaN: nan in CSV, null in JSONL) in chunks laid into rows of
    words: JSONL keys right-aligned before their slots, CSV separators in slots' last byte."""
    rows = np.asarray(rows, dtype=float)[::stride]
    if fmt_style not in _MASKS:
        raise ValueError(f"unknown output format: {fmt_style!r}")
    jsonl, m = fmt_style == "jsonl", len(columns)
    keys = [((", " if j else "{") + f'"{c}": ').encode() * jsonl for j, c in enumerate(columns)]
    width = -(-max(map(len, keys)) // 8) + 5  # words per column
    ends = bytes(m) if jsonl else b"," * (m - 1) + b"\n"
    row = [k.rjust(8 * width - 40, b"\0") + bytes(39) + ends[j:j + 1] for j, k in enumerate(keys)]
    template = np.frombuffer(b"".join(row) + b"}\n\0\0\0\0\0\0" * jsonl, np.uint64)
    with open(path, "w") as fh:
        fh.write("" if jsonl else ",".join(columns) + "\n")
        for i in range(0, len(rows), _CHUNK_ROWS):
            block = rows[i:i + _CHUNK_ROWS]
            cells = np.tile(template, (len(block), 1))
            slots = cells[:, :m * width].reshape(len(block), m, width)[:, :, width - 5:]
            slots ^= _slots(block.ravel(), _MASKS[fmt_style]).reshape(slots.shape)
            fh.write(cells.tobytes().translate(None, b"\0").decode())


def write_trajectory(traj: Trajectory, path: str | Path, fmt_style: str = "csv",
                     stride: int = 1) -> Path:
    """Write a trajectory table; returns the path written.

    The first column is the flow parameter, named by ``traj.parameter``:
    "lambda", or "phi" and "tau" for reparametrized companions and "tau" for
    a geodesic reference.
    """
    path = Path(path)
    columns = (traj.parameter,) + TRAJECTORY_COLUMNS[1:]
    rows = np.column_stack([traj.lam, traj.q, traj.p, traj.phi, traj.ham, traj.tau, traj.shell])
    _write_table(path, columns, rows, fmt_style, stride)
    return path


def write_ensemble_series(rows, path: str | Path, fmt_style: str = "csv") -> Path:
    """Write the ensemble time series (lambda, total_weight, entropy, rate)."""
    path = Path(path)
    _write_table(path, ENSEMBLE_SERIES_COLUMNS, rows, fmt_style)
    return path


def _snapshot_rows(ensemble) -> np.ndarray:
    """The C-contiguous (n, 12) block of SNAPSHOT_COLUMNS, whatever the layout
    of the ensemble's arrays (the writer process is sent its raw bytes)."""
    rows = np.empty((ensemble.n, len(SNAPSHOT_COLUMNS)))
    rows[:, 0] = np.arange(ensemble.n)
    rows[:, 1:5], rows[:, 5:9], rows[:, 9] = ensemble.q, ensemble.p, ensemble.phi
    rows[:, 10], rows[:, 11] = ensemble.w, ensemble.f
    return rows


def write_ensemble_snapshot(ensemble, path: str | Path, fmt_style: str = "csv") -> Path:
    """Write per-marker state of an ensemble at its current instant."""
    path = Path(path)
    _write_table(path, SNAPSHOT_COLUMNS, _snapshot_rows(ensemble), fmt_style)
    return path


# --- a run's tables and the forked snapshot writer ------------------------------


# where a container's CPU quota shows: cgroup v2's "quota period" ("max" for
# none), then cgroup v1's quota (-1 for none) and period
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _usable_cpus() -> float:
    """CPUs this process may run on, capped by a cgroup CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    for files in _CPU_QUOTA_FILES:
        try:
            quota, period = " ".join(Path(f).read_text() for f in files).split()
            quota, period = int(quota), int(period)
        except (OSError, ValueError):
            continue
        if quota > 0 and period > 0:
            return min(cpus, quota / period)
    return cpus


def _fork_context():
    """The "fork" multiprocessing context, or None where the writer would not pay.

    On one CPU (pinned with taskset) the forked writer made gas-flat's best
    job 9% slower and 10% costlier in CPU time than formatting in-process,
    so it needs two CPUs' worth of time (BENCH_10.json).  multiprocessing is
    imported here and not at module level: it costs about 15 ms and 0.6 MB,
    which runs that write no snapshots should not pay.
    """
    if _usable_cpus() < 2:
        return None
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return None  # a daemonic process, such as a Pool worker, may not start children
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return None


def _write_snapshot(path, rows, fmt_style: str) -> str:
    """Write a snapshot's rows here or in the writer process; "" or the error text."""
    try:
        _write_table(path, SNAPSHOT_COLUMNS, rows, fmt_style)
    except Exception as exc:
        return f"cannot write snapshot {path}: {type(exc).__name__}: {exc}"
    return ""


def _snapshot_child(conn, parent_end, fmt_style: str):
    """Writer process: format each (path, row block) the parent sends.

    Every snapshot is answered with b"" once its file is complete, or with the
    error text.  An empty path or a closed pipe ends the loop.  Ctrl-C goes to
    the parent alone, which then drains this pipe.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            path = conn.recv_bytes()
            block = conn.recv_bytes() if path else b""
        except EOFError:  # also a snapshot cut short by an interrupted send
            return
        if not path:
            return
        rows = np.frombuffer(block).reshape(-1, len(SNAPSHOT_COLUMNS))
        try:
            conn.send_bytes(_write_snapshot(os.fsdecode(path), rows, fmt_style).encode())
        except OSError:
            return  # the parent stopped listening, interrupted while it waited


class _RunFiles(AbstractContextManager):
    """The tables of one run, named from a scenario's outputs section with a
    relative path under out_dir.  Each path is recorded before its table is
    written, and a raise out of the ``with`` block removes every one, a table
    cut short too, and then each directory made for them that is left empty,
    deepest first; a failed removal hides nothing, and the run's error leaves
    unchanged.

    Snapshots are written in :meth:`snapshots`: with two usable CPUs (a cgroup
    quota counts), "fork" and a caller that is not daemonic, by one writer
    process sent each snapshot's raw rows over a pipe, at most one in flight;
    otherwise in this process.  Leaving that block, normally, by a raise or by
    Ctrl-C while waiting, drains the pipe and joins the writer, so every
    snapshot handed over is complete.  A failed snapshot raises OSError("cannot
    write snapshot PATH: ...") at the next one or on a normal exit, never over
    another exception.
    """

    def __init__(self, outputs: dict, out_dir: str | None = None):
        self.base = Path(out_dir or "", outputs["path"])  # an absolute path ignores out_dir
        parent = self.base.parent
        self.made_dirs = list(takewhile(lambda d: not d.exists(), (parent, *parent.parents)))
        parent.mkdir(parents=True, exist_ok=True)
        self.outputs, self.fmt_style = outputs, outputs["format"]
        self.paths: list[Path] = []  # in report order: a series ahead of its snapshots

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for path in self.paths:
                with suppress(OSError):
                    path.unlink()
            for directory in self.made_dirs:  # deepest first; one still holding a file stays
                with suppress(OSError):
                    directory.rmdir()

    def _record(self, suffix: str) -> Path:
        self.paths.append(Path(f"{self.base}{suffix}.{self.fmt_style}"))
        return self.paths[-1]

    def trajectory(self, traj: Trajectory, companions: dict):
        """Write the trajectory at its stride and each companion ("phi", "tau") whole."""
        write_trajectory(traj, self._record(""), self.fmt_style, self.outputs["stride"])
        for tag, resampled in companions.items():
            write_trajectory(resampled, self._record(f"_{tag}"), self.fmt_style)

    def series(self, rows):
        write_ensemble_series(rows, self._record("_series"), self.fmt_style)
        self.paths.insert(0, self.paths.pop())

    @contextmanager
    def snapshots(self):
        """Yield on_report(k, ensemble), which snapshots every snapshot_stride-th
        report and the last; stride 0 snapshots none and starts no process."""
        stride, fmt_style = self.outputs["snapshot_stride"], self.fmt_style

        def on_report(k, ensemble):
            if stride and (k % stride == 0 or k == self.outputs["reports"]):
                write(self._record(f"_snapshot_{k:04d}"), _snapshot_rows(ensemble))

        ctx = _fork_context() if stride else None
        if ctx is None:
            def write(path, rows):
                error = _write_snapshot(path, rows, fmt_style)
                if error:
                    raise OSError(error)

            yield on_report
            return
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(target=_snapshot_child, args=(child_end, conn, fmt_style), daemon=True)
        proc.start()
        child_end.close()
        pending = None  # the snapshot path whose answer is still owed

        def settle():
            nonlocal pending
            if pending is None:
                return
            path, pending = pending, None
            try:
                error = conn.recv_bytes().decode()
            except (EOFError, OSError):
                proc.join()
                error = (f"cannot write snapshot {path}: "
                         f"writer process ended with code {proc.exitcode}")
            if error:
                raise OSError(error)

        def write(path, rows):
            nonlocal pending
            settle()
            try:
                conn.send_bytes(os.fsencode(path))
                conn.send_bytes(rows)
            except OSError as exc:
                raise OSError(f"cannot write snapshot {path}: {exc}") from exc
            pending = path

        try:
            yield on_report
            settle()
        finally:
            try:
                with suppress(OSError):  # an exception is already on its way out
                    settle()
            finally:  # also when Ctrl-C lands while settle() waits
                with suppress(OSError):  # the writer is gone already
                    conn.send_bytes(b"")
                conn.close()
                proc.join()
