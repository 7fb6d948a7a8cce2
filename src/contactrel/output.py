"""CSV and JSONL writers with round-trip numeric formatting.

All numbers are written with %.17g so that parsing them back yields the
identical IEEE double; CSV and JSONL outputs of the same data therefore carry
identical values.  NaN appears as ``nan`` in CSV and ``null`` in JSONL.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .integrators import Trajectory

__all__ = [
    "TRAJECTORY_COLUMNS",
    "fmt",
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


def fmt(x: float) -> str:
    """Format one value with 17 significant digits; NaN becomes 'nan'."""
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _rows_from_trajectory(traj: Trajectory) -> np.ndarray:
    return np.column_stack(
        [traj.lam, traj.q, traj.p, traj.phi, traj.ham, traj.tau, traj.shell]
    )


def _write_table(path: Path, columns, rows, fmt_style: str, stride: int = 1):
    """Write rows with one %-template per line, in chunks of _CHUNK_ROWS rows.

    "%.17g" formats each value as :func:`fmt` does; JSONL writes NaN as null.
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


def write_ensemble_snapshot(ensemble, path: str | Path, fmt_style: str = "csv") -> Path:
    """Write per-marker state of an ensemble at its current instant."""
    path = Path(path)
    rows = np.column_stack(
        [
            np.arange(ensemble.n, dtype=float),
            ensemble.q,
            ensemble.p,
            ensemble.phi,
            ensemble.w,
            ensemble.f,
        ]
    )
    _write_table(path, SNAPSHOT_COLUMNS, rows, fmt_style)
    return path
