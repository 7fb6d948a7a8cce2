"""CSV and JSONL writers with round-trip numeric formatting.

All numbers are written with %.17g so that parsing them back yields the
identical IEEE double; CSV and JSONL outputs of the same data therefore carry
identical values.  NaN appears as ``nan`` in CSV and ``null`` in JSONL.

Ensemble snapshots can be formatted in a forked writer process while the
caller keeps integrating (:func:`_snapshot_writer`); the bytes written are the
same as :func:`write_ensemble_snapshot`'s.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
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

# rows per tolist() chunk: converting a whole 10^4-row table at once costs
# megabytes of Python floats for no speed
_CHUNK_ROWS = 512


def _rows_from_trajectory(traj: Trajectory) -> np.ndarray:
    return np.column_stack(
        [traj.lam, traj.q, traj.p, traj.phi, traj.ham, traj.tau, traj.shell]
    )


def _write_table(path: Path, columns, rows, fmt_style: str, stride: int = 1):
    """Write rows with one %-template per line, in chunks of _CHUNK_ROWS rows.

    Each value is formatted as "%.17g" (NaN as "nan"); JSONL writes NaN as null.
    Only one chunk is ever converted to Python floats at a time.
    """
    rows = np.asarray(rows, dtype=float)[::stride]
    names = [c.replace("%", "%%") for c in columns]
    if fmt_style == "csv":
        head = ",".join(columns) + "\n"
        line = ",".join(["%.17g"] * len(columns)) + "\n"
    elif fmt_style == "jsonl":
        head = ""
        line = "{" + ", ".join(f'"{c}": %.17g' for c in names) + "}\n"
    else:
        raise ValueError(f"unknown output format: {fmt_style!r}")
    with open(path, "w") as fh:
        fh.write(head)
        for i in range(0, len(rows), _CHUNK_ROWS):
            text = "".join([line % tuple(row) for row in rows[i:i + _CHUNK_ROWS].tolist()])
            if fmt_style == "jsonl":
                # a key cannot hold an unescaped quote, so '": nan' is a value
                text = text.replace('": nan', '": null')
            fh.write(text)


def write_trajectory(traj: Trajectory, path: str | Path, fmt_style: str = "csv",
                     stride: int = 1, parameter_name: str = "lambda") -> Path:
    """Write a trajectory table; returns the path written.

    The first column is the flow parameter; for reparametrized companions
    pass parameter_name="phi" or "tau".
    """
    path = Path(path)
    columns = (parameter_name,) + TRAJECTORY_COLUMNS[1:]
    _write_table(path, columns, _rows_from_trajectory(traj), fmt_style, stride)
    return path


def write_ensemble_series(rows, path: str | Path, fmt_style: str = "csv") -> Path:
    """Write the ensemble time series (lambda, total_weight, entropy, rate)."""
    path = Path(path)
    _write_table(path, ENSEMBLE_SERIES_COLUMNS, rows, fmt_style)
    return path


def _snapshot_rows(ensemble) -> np.ndarray:
    """The (n, 12) block of SNAPSHOT_COLUMNS; column_stack makes it C-contiguous."""
    return np.column_stack(
        [
            np.arange(ensemble.n, dtype=float),
            ensemble.q,
            ensemble.p,
            ensemble.phi,
            ensemble.w,
            ensemble.f,
        ]
    )


def write_ensemble_snapshot(ensemble, path: str | Path, fmt_style: str = "csv") -> Path:
    """Write per-marker state of an ensemble at its current instant."""
    path = Path(path)
    _write_table(path, SNAPSHOT_COLUMNS, _snapshot_rows(ensemble), fmt_style)
    return path


# --- the forked snapshot writer -----------------------------------------------------


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
        try:
            rows = np.frombuffer(block).reshape(-1, len(SNAPSHOT_COLUMNS))
            _write_table(Path(os.fsdecode(path)), SNAPSHOT_COLUMNS, rows, fmt_style)
        except Exception as exc:
            answer = f"{type(exc).__name__}: {exc}".encode()
        else:
            answer = b""
        try:
            conn.send_bytes(answer)
        except OSError:
            return  # the parent stopped listening, interrupted while it waited


@contextmanager
def _snapshot_writer(fmt_style: str):
    """Yield write(ensemble, path), which writes one ensemble snapshot.

    With two usable CPUs (a cgroup quota counts), the "fork" start method and
    a caller that is not a daemonic process, one writer process formats the
    snapshots while the caller keeps stepping.  Each snapshot goes over a pipe
    as the raw bytes of its row block, with at most one in flight.  On leaving
    the block, normally or by a raise, the pipe is drained and the writer
    joined, so every snapshot file handed over is complete; a Ctrl-C during
    that wait still joins the writer.  A writer failure raises OSError naming
    the snapshot path; it is raised at the next write or on a normal exit,
    never over another exception.  Otherwise each write calls
    :func:`write_ensemble_snapshot` in this process.
    """
    ctx = _fork_context()
    if ctx is None:
        yield lambda ensemble, path: write_ensemble_snapshot(ensemble, path, fmt_style)
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
            error = f"writer process ended with code {proc.exitcode}"
        if error:
            raise OSError(f"cannot write snapshot {path}: {error}")

    def write(ensemble, path):
        nonlocal pending
        settle()
        try:
            conn.send_bytes(os.fsencode(path))
            conn.send_bytes(_snapshot_rows(ensemble))
        except OSError as exc:
            raise OSError(f"cannot write snapshot {path}: {exc}") from exc
        pending = path

    try:
        yield write
        settle()
    finally:
        try:
            settle()
        except OSError:
            pass  # an exception is already on its way out
        finally:
            # also when Ctrl-C lands while settle() waits
            try:
                conn.send_bytes(b"")
            except OSError:
                pass  # the writer is gone already
            conn.close()
            proc.join()
