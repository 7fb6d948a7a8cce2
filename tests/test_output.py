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
    ContactHamiltonianSystem,
    ExtendedState,
    IntegratorConfig,
    MassModel,
    NonPositiveDensity,
    StopCondition,
    build_density_spec,
    build_system,
    geodesic_reference,
    integrate,
    kinetic,
    load_scenario,
    minkowski,
    output,
    preset_scenario,
    reparametrize_by_phi,
    reparametrize_by_tau,
)
from contactrel.cli import execute_ensemble
from contactrel.output import _write_table
from contactrel.scenario import run_ensemble

SPECIAL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
           1e300, -1e300, 1e-300, -1e-300, 0.1, 1.0 / 3.0, -2.5]


def fmt(x: float) -> str:
    """One value with 17 significant digits; NaN becomes 'nan'."""
    return "nan" if math.isnan(x) else f"{x:.17g}"


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
    # 1200 rows span several chunks; every special value lands in every
    # column, next to random values of all magnitudes
    rng = np.random.default_rng(7)
    columns = ("lambda", "q0", "nan", "p%1", "w")
    rows = rng.standard_normal((1200, 5)) * 10.0 ** rng.integers(-300, 300, (1200, 5))
    for j in range(5):
        rows[j::97, j] = np.resize(SPECIAL, len(rows[j::97, j]))
    path = tmp_path / f"table.{fmt_style}"
    _write_table(path, columns, rows, fmt_style, stride)
    assert path.read_text() == _per_value(columns, rows[::stride], fmt_style)


_KERNEL_COLUMNS = ("lambda", "q0", "nan", "p%1", "w", "shell_residual", "tau", "f")
_KERNEL_ROWS = 32771  # 2^15 + 3 rows of 8 values: a partial last chunk


def _edge_values() -> np.ndarray:
    """10^j and both neighbouring doubles for j = -6..18, of both signs, and
    the values with constant text or no fixed notation."""
    tens = np.array([10.0 ** j for j in range(-6, 19)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    return np.concatenate([near, -near, [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                                         5e-324, -5e-324]])


def _kernel_values(seed: int) -> np.ndarray:
    """(_KERNEL_ROWS, 8) values: random 64-bit patterns, random magnitudes
    1e-6..1e20 of both signs and exact 17-digit ties (odd integers / 4 in
    [1e15, 2.25e15]), with the edge values at the start, the end and across the
    first two chunk boundaries."""
    rng = np.random.default_rng(seed)
    n = _KERNEL_ROWS * len(_KERNEL_COLUMNS)
    third = n // 3
    bits = rng.integers(0, 2 ** 64, third, dtype=np.uint64, endpoint=False).view(np.float64)
    magnitudes = rng.choice([-1.0, 1.0], third) * 10.0 ** rng.uniform(-6.0, 20.0, third)
    ties = (2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, n - 2 * third) + 1) / 4.0
    values = rng.permutation(np.concatenate([bits, magnitudes, ties]))
    edges = _edge_values()
    boundary = output._CHUNK_ROWS * len(_KERNEL_COLUMNS)
    for start in (0, boundary - len(edges) // 2, 2 * boundary - 1, n - len(edges)):
        values[start:start + len(edges)] = edges
    return values.reshape(_KERNEL_ROWS, len(_KERNEL_COLUMNS))


@pytest.mark.parametrize("fmt_style, stride, seed", [
    ("csv", 1, 1), ("jsonl", 1, 2), ("csv", 3, 3), ("jsonl", 3, 4),
])
def test_kernel_matches_per_value_formatting_on_a_million_values(tmp_path, fmt_style,
                                                                  stride, seed):
    # four cases of 262 168 written values each
    values = _kernel_values(seed)
    rows = np.full((stride * (len(values) - 1) + 1, values.shape[1]), np.pi)
    rows[::stride] = values
    path = tmp_path / f"table.{fmt_style}"
    _write_table(path, _KERNEL_COLUMNS, rows, fmt_style, stride)
    assert path.read_text() == _per_value(_KERNEL_COLUMNS, values, fmt_style)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_a_log10_off_by_one_is_corrected(tmp_path, monkeypatch, shift):
    # every exponent guess is one off, so each value takes the k -/+ 1 re-scaling
    def log10(a):
        exponents = [int(f"{v:.16e}".partition("e")[2]) for v in a.tolist()]
        return np.array(exponents) + 0.5 + shift

    monkeypatch.setattr(np, "log10", log10)
    values = _kernel_values(5)[:3000]
    path = tmp_path / "table.csv"
    _write_table(path, _KERNEL_COLUMNS, values, "csv")
    assert path.read_text() == _per_value(_KERNEL_COLUMNS, values, "csv")


def test_fixed_range_never_reaches_the_fallback(tmp_path, monkeypatch):
    # decay-gas snapshots at both ends of the run, and its series: only values
    # with no fixed notation (0 < |x| < 1e-4 or |x| >= 1e17) may be formatted by %
    seen = []
    fallback = output._fallback

    def spy(x):
        seen.append(x)
        return fallback(x)

    monkeypatch.setattr(output, "_fallback", spy)
    cfg = preset_scenario("decay-gas")
    e0, e_end, series, _ = run_ensemble(dataclasses.replace(
        cfg, outputs={**cfg.outputs, "reports": 1}))
    for fmt_style in ("csv", "jsonl"):
        output.write_ensemble_snapshot(e0, tmp_path / f"first.{fmt_style}", fmt_style)
        output.write_ensemble_snapshot(e_end, tmp_path / f"last.{fmt_style}", fmt_style)
        output.write_ensemble_series(series, tmp_path / f"series.{fmt_style}", fmt_style)
    assert seen  # a few weights of the first snapshot are below 1e-4
    assert all(x != 0 and not 1e-4 <= abs(x) < 1e17 for x in seen)
    assert (tmp_path / "first.csv").read_text() == _per_value(
        output.SNAPSHOT_COLUMNS, output._snapshot_rows(e0), "csv")


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
    """Snapshot paths the parent process writes itself; a forked writer's
    calls append to the writer process's copy of the list."""
    written = []
    real = output._write_snapshot

    def spy(path, rows, fmt_style):
        written.append(Path(path).name)
        return real(path, rows, fmt_style)

    monkeypatch.setattr(output, "_write_snapshot", spy)
    yield written
    assert multiprocessing.active_children() == []


def _one_snapshot(base: Path, fmt_style: str = "csv"):
    """The tables of a run under base that snapshots its one report, 0."""
    return output._RunFiles(
        {"path": str(base), "format": fmt_style, "reports": 1, "snapshot_stride": 1})


def test_a_raise_removes_only_the_empty_directories_made_for_the_tables(tmp_path):
    (tmp_path / "old").mkdir()
    files = output._RunFiles({"path": "new/kept/deep/gas", "format": "csv"}, str(tmp_path / "old"))
    with pytest.raises(RuntimeError, match="the run failed"):
        with files:
            files.series(np.zeros((2, 4)))
            (tmp_path / "old/new/kept/note.txt").write_text("not a table of the run")
            raise RuntimeError("the run failed")
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("old"), Path("old/new"), Path("old/new/kept"), Path("old/new/kept/note.txt")]


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
    path = tmp_path / "snap_snapshot_0000.csv"
    ctrl_c = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT))
    with pytest.raises(KeyboardInterrupt):
        with _one_snapshot(tmp_path / "snap").snapshots() as on_report:
            on_report(0, ensemble)
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


@pytest.mark.parametrize("fmt_style", ["csv", "jsonl"])
@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
def test_snapshot_of_fortran_ordered_arrays_matches_c_ordered(
        tmp_path, monkeypatch, parent_writes, two_cpus, forked, fmt_style):
    # an ensemble's y is (9, n) rows, the writer's table (n, 12) rows of
    # markers; whatever the layout of y, the writer process is sent the raw
    # bytes of a C-ordered table
    if not forked:
        _no_fork(monkeypatch)
    cfg = _gas(fmt_style)
    e = kinetic.sample_ensemble(build_system(cfg), build_density_spec(cfg), 300, 5)
    f_ordered = dataclasses.replace(e, y=np.asfortranarray(e.y))
    assert f_ordered.y.flags.f_contiguous and not f_ordered.y.flags.c_contiguous
    assert output._snapshot_rows(f_ordered).flags.c_contiguous
    expected = output.write_ensemble_snapshot(e, tmp_path / "c.out", fmt_style).read_bytes()
    parent_writes.clear()
    path = tmp_path / f"f_snapshot_0000.{fmt_style}"
    with _one_snapshot(tmp_path / "f", fmt_style).snapshots() as on_report:
        on_report(0, f_ordered)
    assert parent_writes == ([] if forked else [path.name])
    assert path.read_bytes() == expected


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("blocked", [0, REPORTS])
def test_unwritable_snapshot_raises_with_its_path(
        tmp_path, monkeypatch, parent_writes, two_cpus, forked, blocked):
    # snapshot 0 fails while the run goes on; the last one fails at the end.
    # Both writer paths raise the same error, the writer's, not one met while
    # the snapshots written so far are removed (the blocking directory cannot be).
    if not forked:
        _no_fork(monkeypatch)
    path = tmp_path / f"gas_snapshot_{blocked:04d}.csv"
    path.mkdir()
    with pytest.raises(OSError, match=re.escape(str(path))) as raised:
        execute_ensemble(_gas(), str(tmp_path))
    assert multiprocessing.active_children() == []
    assert raised.value.__context__ is None
    assert type(raised.value) is OSError
    assert str(raised.value).startswith(f"cannot write snapshot {path}: IsADirectoryError: ")
    assert list(tmp_path.iterdir()) == [path]


def test_error_mid_series_propagates_unchanged(tmp_path, monkeypatch, parent_writes, two_cpus):
    # A mass that grows in proper time makes ln f fall, so two markers that
    # start at the smallest subnormal density underflow before the run ends,
    # after the first snapshots have been handed to the writer.  Their weight
    # is as small, so that the entropy at report 0 stays finite.
    cfg = _gas(alpha=-0.5)
    e0 = kinetic.sample_ensemble(build_system(cfg), build_density_spec(cfg),
                                 cfg.initial["n"], cfg.initial["seed"])
    w, f = e0.w.copy(), e0.f.copy()
    w[[7, 11]] = f[[7, 11]] = 5e-324
    e0 = dataclasses.replace(e0, w=w, f=f)
    monkeypatch.setattr(kinetic, "sample_ensemble", lambda *args: e0)

    ref = tmp_path / "ref"
    ref.mkdir()

    def write_ref(k, cur):
        output.write_ensemble_snapshot(cur, ref / f"gas_snapshot_{k:04d}.csv")

    with pytest.raises(NonPositiveDensity) as in_process:
        run_ensemble(cfg, write_ref)
    parent_writes.clear()
    removed = {}
    unlink = Path.unlink

    def read_then_unlink(path, *args, **kwargs):
        removed[path.name] = path.read_bytes()
        unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", read_then_unlink)
    out = tmp_path / "out"
    with pytest.raises(NonPositiveDensity, match=r"2 of 300 markers .* lambda") as forked:
        execute_ensemble(cfg, str(out))
    assert multiprocessing.active_children() == []
    assert type(forked.value) is NonPositiveDensity
    assert str(forked.value) == str(in_process.value)
    assert parent_writes == []
    # every snapshot, the one in flight included, was complete when it was
    # removed on the error's way out, and none is left, nor the out dir
    assert not out.exists()
    assert "gas_snapshot_0000.csv" in removed
    assert removed == {p.name: p.read_bytes() for p in ref.iterdir()}


def test_trajectory_table_names_its_first_column_by_the_parameter(tmp_path):
    sys_ = ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.exp_decay(1.0, 0.1, phi0=0.0, c=1.0), c=1.0)
    s0 = ExtendedState(q=[0, 0, 0, 0], p=[-1, 0, 0, 0], phi=0.0)
    cfg = IntegratorConfig(stop=(StopCondition("lambda_reached", 1.0),))
    traj = integrate(sys_, s0, cfg)
    geo = geodesic_reference(
        dataclasses.replace(sys_, mass=MassModel.constant(1.0)), s0.q, [1, 0, 0, 0], cfg)
    for run, name in [(traj, "lambda"), (reparametrize_by_phi(traj), "phi"),
                      (reparametrize_by_tau(traj), "tau"), (geo, "tau")]:
        for fmt_style in ("csv", "jsonl"):
            text = output.write_trajectory(run, tmp_path / f"t.{fmt_style}", fmt_style).read_text()
            first = text.split(",", 1)[0]
            assert first == (name if fmt_style == "csv" else '{"' + name + '": 0')
        # every column read back is the trajectory's, bit for bit, and H is
        # half the shell residual: the table holds each sample once
        table = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
        for got, want in zip(np.hsplit(table, [1, 5, 9, 10, 11, 12]),
                             (run.lam, run.q, run.p, run.phi, run.ham, run.tau, run.shell)):
            assert got.tobytes() == np.ascontiguousarray(want.reshape(len(run), -1)).tobytes()
        assert table[:, 10].tobytes() == (0.5 * table[:, 12]).tobytes()


def test_importing_the_cli_leaves_multiprocessing_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, contactrel.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
