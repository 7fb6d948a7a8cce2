"""Table writers: byte-for-byte agreement with per-value formatting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from contactrel.output import _write_table, fmt

SPECIAL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
           1e300, -1e300, 1e-300, -1e-300, 0.1, 1.0 / 3.0, -2.5]


def _json_value(x: float) -> str:
    return "null" if math.isnan(x) else f"{x:.17g}"


def _per_value(columns, rows, fmt_style):
    """The writer formatting one value at a time, as the reference."""
    if fmt_style == "csv":
        lines = [",".join(columns)] + [",".join(fmt(v) for v in row) for row in rows]
    else:
        lines = ["{" + ", ".join(f'"{c}": {_json_value(v)}' for c, v in zip(columns, row)) + "}"
                 for row in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt_style", ["csv", "jsonl"])
@pytest.mark.parametrize("stride", [1, 3])
def test_template_writer_matches_per_value_formatting(tmp_path, fmt_style, stride):
    # 1200 rows span three 512-row chunks; every special value lands in every
    # column, next to random values of all magnitudes
    rng = np.random.default_rng(7)
    columns = ("lambda", "q0", "nan", "p%1", "w")
    rows = rng.standard_normal((1200, 5)) * 10.0 ** rng.integers(-300, 300, (1200, 5))
    for j in range(5):
        rows[j::97, j] = np.resize(SPECIAL, len(rows[j::97, j]))
    path = tmp_path / f"table.{fmt_style}"
    _write_table(path, columns, rows, fmt_style, stride)
    assert path.read_text() == _per_value(columns, rows[::stride], fmt_style)


def test_writer_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        _write_table(tmp_path / "t", ("a",), np.zeros((1, 1)), "xml")
