"""Table writers: byte-for-byte agreement with per-value formatting, and the
forked snapshot writer of ``execute_ensemble``."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from contactrel import (
    NonPositiveDensity,
    build_density_spec,
    build_system,
    kinetic,
    load_scenario,
    output,
)
from contactrel.cli import execute_ensemble
from contactrel.output import _write_table, fmt
from contactrel.scenario import run_ensemble

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


# --- the forked snapshot writer ------------------------------------------------

REPORTS = 4


def _gas(fmt_style="csv", snapshot_stride=1, alpha=0.1):
    return load_scenario({
        "name": "writer-gas",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": alpha},
        "initial": {
            "kind": "ensemble", "n": 300, "seed": 5,
            "momentum": {"kind": "gaussian", "mean": [0, 0, 0], "sigma": [0.2, 0.2, 0.2]},
        },
        "stop": [{"kind": "lambda_reached", "value": 1.0}],
        "outputs": {"path": "gas", "format": fmt_style, "reports": REPORTS,
                    "snapshot_stride": snapshot_stride},
    })


@pytest.fixture
def parent_writes(monkeypatch):
    """Snapshot paths the parent process writes itself, through the public writer."""
    written = []
    real = output.write_ensemble_snapshot

    def spy(ensemble, path, fmt_style="csv"):
        written.append(Path(path).name)
        return real(ensemble, path, fmt_style)

    monkeypatch.setattr(output, "write_ensemble_snapshot", spy)
    yield written
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_cpus(monkeypatch):
    """Start the writer process on any machine, and make it slow to exit, so
    that a writer left unjoined would still be alive when the run returns."""
    monkeypatch.setattr(output, "_usable_cpus", lambda: 2)
    child = output._snapshot_child

    def slow_exit(*args):
        child(*args)
        time.sleep(0.2)

    monkeypatch.setattr(output, "_snapshot_child", slow_exit)


def _no_fork(monkeypatch):
    """The platform has no "fork" start method."""
    def get_context(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)


def _refuse_fork(monkeypatch):
    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)


def _reference_snapshots(cfg, out: Path) -> dict[str, bytes]:
    """Each snapshot written in-process on the report ensembles of the same run."""
    out.mkdir()
    ext, stride = cfg.outputs["format"], cfg.outputs["snapshot_stride"]

    def on_report(k, cur):
        if k % stride == 0 or k == REPORTS:
            output.write_ensemble_snapshot(cur, out / f"gas_snapshot_{k:04d}.{ext}", ext)

    run_ensemble(cfg, on_report)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _written(report) -> dict[str, bytes]:
    return {Path(p).name: Path(p).read_bytes() for p in report.paths[1:]}


@pytest.mark.parametrize("fmt_style", ["csv", "jsonl"])
@pytest.mark.parametrize("snapshot_stride", [1, 2])
def test_forked_writer_bytes_match_in_process_writes(
        tmp_path, monkeypatch, parent_writes, two_cpus, fmt_style, snapshot_stride):
    # stride 1 snapshots every report, so each write waits on the one in flight
    cfg = _gas(fmt_style, snapshot_stride)
    expected = _reference_snapshots(cfg, tmp_path / "ref")
    assert len(expected) == (5 if snapshot_stride == 1 else 3)
    parent_writes.clear()

    rows, forked = execute_ensemble(cfg, str(tmp_path / "forked"))
    assert multiprocessing.active_children() == []
    assert parent_writes == []  # the writer process wrote every snapshot
    assert _written(forked) == expected

    _no_fork(monkeypatch)
    rows_local, local = execute_ensemble(cfg, str(tmp_path / "local"))
    assert parent_writes == list(expected)
    assert _written(local) == expected
    assert np.array_equal(rows, rows_local)
    assert Path(forked.paths[0]).read_bytes() == Path(local.paths[0]).read_bytes()


def test_one_cpu_writes_in_process(tmp_path, monkeypatch, parent_writes):
    monkeypatch.setattr(output, "_usable_cpus", lambda: 1)
    _refuse_fork(monkeypatch)
    _, report = execute_ensemble(_gas(snapshot_stride=2), str(tmp_path))
    assert parent_writes == [Path(p).name for p in report.paths[1:]]


def test_daemonic_caller_writes_in_process(tmp_path, parent_writes, two_cpus):
    # a multiprocessing.Pool worker is daemonic and may not start a writer
    cfg = _gas(snapshot_stride=2)
    expected = _reference_snapshots(cfg, tmp_path / "ref")
    out = tmp_path / "daemon"
    out.mkdir()
    worker = multiprocessing.get_context("fork").Process(
        target=execute_ensemble, args=(cfg, str(out)), daemon=True)
    worker.start()
    worker.join()
    assert worker.exitcode == 0
    assert {p.name: p.read_bytes() for p in out.glob("gas_snapshot_*")} == expected


@pytest.mark.parametrize("body_raises", [False, True], ids=["normal-exit", "raising-exit"])
def test_ctrl_c_while_waiting_still_joins_the_writer(
        tmp_path, monkeypatch, parent_writes, two_cpus, body_raises):
    # the writer takes a second over the snapshot, and Ctrl-C comes while the
    # caller waits for it on leaving the writer, normally or by a raise
    cfg = _gas()
    ensemble = kinetic.sample_ensemble(build_system(cfg), build_density_spec(cfg),
                                       cfg.initial["n"], cfg.initial["seed"])
    output.write_ensemble_snapshot(ensemble, tmp_path / "ref.csv")
    write_table = output._write_table

    def slow(*args):
        time.sleep(1.0)
        write_table(*args)

    monkeypatch.setattr(output, "_write_table", slow)
    path = tmp_path / "snap.csv"
    ctrl_c = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT))
    with pytest.raises(KeyboardInterrupt):
        with output._snapshot_writer("csv") as write:
            write(ensemble, path)
            ctrl_c.start()
            if body_raises:
                raise RuntimeError("the run failed")
    ctrl_c.join()
    assert multiprocessing.active_children() == []
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("v2, v1, cpus", [
    ("100000 100000\n", None, 1.0),
    ("150000 100000\n", None, 1.5),
    ("max 100000\n", None, "affinity"),
    (None, ("50000\n", "100000\n"), 0.5),
    (None, ("-1\n", "100000\n"), "affinity"),
    (None, None, "affinity"),
])
def test_usable_cpus_follow_a_cgroup_quota(tmp_path, monkeypatch, v2, v1, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    files = [tmp_path / "cpu.max", tmp_path / "cfs_quota_us", tmp_path / "cfs_period_us"]
    for path, text in zip(files, [v2, *(v1 or (None, None))]):
        if text is not None:
            path.write_text(text)
    monkeypatch.setattr(output, "_CPU_QUOTA_FILES", ((files[0],), tuple(files[1:])))
    assert output._usable_cpus() == (4 if cpus == "affinity" else cpus)


def test_no_snapshots_start_no_process(tmp_path, monkeypatch, parent_writes, two_cpus):
    _refuse_fork(monkeypatch)
    _, report = execute_ensemble(_gas(snapshot_stride=0), str(tmp_path))
    assert [Path(p).name for p in report.paths] == ["gas_series.csv"]


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("blocked", [0, REPORTS])
def test_unwritable_snapshot_raises_with_its_path(
        tmp_path, monkeypatch, parent_writes, two_cpus, forked, blocked):
    # snapshot 0 fails while the run goes on; the last one fails at the end
    if not forked:
        _no_fork(monkeypatch)
    path = tmp_path / f"gas_snapshot_{blocked:04d}.csv"
    path.mkdir()
    with pytest.raises(OSError, match=re.escape(str(path))):
        execute_ensemble(_gas(), str(tmp_path))
    assert multiprocessing.active_children() == []


def test_error_mid_series_propagates_unchanged(tmp_path, monkeypatch, parent_writes, two_cpus):
    # A mass that grows in proper time makes ln f fall, so two markers that
    # start at the smallest subnormal density underflow in the first step,
    # after snapshot 0 has been handed to the writer.  Their weight is as
    # small, so that the entropy at report 0 stays finite.
    cfg = _gas(alpha=-0.5)
    e0 = kinetic.sample_ensemble(build_system(cfg), build_density_spec(cfg),
                                 cfg.initial["n"], cfg.initial["seed"])
    w, f = e0.w.copy(), e0.f.copy()
    w[[7, 11]] = f[[7, 11]] = 5e-324
    e0 = dataclasses.replace(e0, w=w, f=f)
    monkeypatch.setattr(kinetic, "sample_ensemble", lambda *args: e0)

    with pytest.raises(NonPositiveDensity) as in_process:
        run_ensemble(cfg)
    with pytest.raises(NonPositiveDensity, match=r"2 of 300 markers .* lambda") as forked:
        execute_ensemble(cfg, str(tmp_path))
    assert multiprocessing.active_children() == []
    assert type(forked.value) is NonPositiveDensity
    assert str(forked.value) == str(in_process.value)
    assert parent_writes == []
    # the snapshot in flight was finished before the error left execute_ensemble
    output.write_ensemble_snapshot(e0, tmp_path / "ref.csv")
    assert (tmp_path / "gas_snapshot_0000.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_importing_the_cli_leaves_multiprocessing_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, contactrel.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
