"""Spans and counts recorded around calls into each contactrel layer.

``Tracer.install()`` replaces public functions with timing wrappers at every
name a caller looks them up by: a function imported by name into another
module (``from .integrators import integrate``) is wrapped there too.  The
wrapped ``build_system`` returns its system with a ``MetricField`` whose
callbacks are wrapped, so metric evaluations, finite-difference shifts
included, are counted.  Private helpers are never wrapped.

Spans stay in memory, one row per call (name, start, end, parent, run id),
and ``save`` writes them once, when the run ends.  ``layer_metrics`` turns a
span set into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _steps(tr, args, kwargs, traj):
    tr.counts["integrators.steps_accepted"] += traj.metadata["steps_accepted"]
    tr.counts["integrators.steps_rejected"] += traj.metadata["steps_rejected"]


def _advance(tr, args, kwargs, out):
    block = args[1] if len(args) > 1 else kwargs["y"]
    tr.counts["integrators.steps_accepted"] += out[1]
    tr.counts["kinetic.marker_steps"] += len(block) * out[1]


def _resampled(tr, args, kwargs, traj):
    tr.counts["integrators.resample_points"] += len(traj)


def _derivative_bytes(tr, args, kwargs, out):
    tr.counts["geometry.derivatives.bytes"] += out[0].nbytes + out[1].nbytes


def _written_rows(fn_name, args, kwargs):
    data = args[0] if args else next(iter(kwargs.values()))
    if fn_name == "write_trajectory":
        stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
        return math.ceil(len(data) / stride)
    if fn_name == "write_ensemble_snapshot":
        return data.n
    return len(data)


def _written(fn_name):
    def hook(tr, args, kwargs, path):
        tr.counts["output.rows"] += _written_rows(fn_name, args, kwargs)
        tr.counts["output.bytes"] += Path(path).stat().st_size
    return hook


# (defining module, function) -> count hook run on the result, or None
TARGETS = {
    ("scenario", "load_scenario"): None,
    ("scenario", "preset_scenario"): None,
    ("scenario", "build_system"): None,  # also wraps the metric callbacks
    ("kinetic", "sample_ensemble"): None,
    ("kinetic", "ensemble_series"): None,
    ("kinetic", "entropy"): None,
    ("kinetic", "entropy_rate"): None,
    ("integrators", "integrate"): _steps,
    ("integrators", "geodesic_reference"): _steps,
    ("integrators", "advance_batch"): _advance,
    ("integrators", "reparametrize_by_phi"): _resampled,
    ("integrators", "reparametrize_by_tau"): _resampled,
    ("geometry", "metric_derivatives"): _derivative_bytes,
    ("output", "write_trajectory"): _written("write_trajectory"),
    ("output", "write_ensemble_series"): _written("write_ensemble_series"),
    ("output", "write_ensemble_snapshot"): _written("write_ensemble_snapshot"),
    ("cli", "execute_single"): None,
    ("cli", "execute_ensemble"): None,
}

METRIC_EVAL = "geometry.metric_eval"
VERIFY_ROOT = "cli.verify"


class Tracer:
    """In-memory span recorder with wrappers for the contactrel layers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return traced

    # --- installing the wrappers ------------------------------------------------

    def _wrap_system(self, build_system):
        traced = self.wrap(build_system, "scenario.build_system")

        @functools.wraps(build_system)
        def with_metric(*args, **kwargs):
            sys_ = traced(*args, **kwargs)
            m = sys_.metric
            metric = dataclasses.replace(
                m,
                func=self.wrap(m.func, METRIC_EVAL),
                d_q=None if m.d_q is None else self.wrap(m.d_q, METRIC_EVAL),
                d_phi=None if m.d_phi is None else self.wrap(m.d_phi, METRIC_EVAL),
            )
            return dataclasses.replace(sys_, metric=metric)
        return with_metric

    def install(self):
        """Wrap every target at every contactrel module that holds it."""
        import contactrel
        from contactrel import checks

        # keyed by id(): the originals stay alive in their modules meanwhile
        wrappers = {}
        for (mod_name, fn_name), hook in TARGETS.items():
            fn = getattr(getattr(contactrel, mod_name), fn_name)
            if fn_name == "build_system":
                wrappers[id(fn)] = self._wrap_system(fn)
            else:
                wrappers[id(fn)] = self.wrap(fn, f"{mod_name}.{fn_name}", hook)
        for check_name, fn in checks.CHECKS:
            wrappers[id(fn)] = self.wrap(fn, f"checks.{check_name}")

        self._patch(checks, "CHECKS", tuple(
            (name, wrappers[id(fn)]) for name, fn in checks.CHECKS))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "contactrel" and not mod_name.startswith("contactrel."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

    def _patch(self, mod, attr, value):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- persistence --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_ix": np.frombuffer(self.name_ix, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "count_keys": np.array(list(self.counts), dtype=str),
            "count_values": np.array(list(self.counts.values()), dtype=float),
        }

    def save(self, path: Path):
        np.savez_compressed(path, **self.arrays())


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


# --- per-layer metrics ------------------------------------------------------------


def layer_metrics(spans: dict, check_names) -> dict[str, float]:
    """Per-layer totals over every span in the set."""
    names = spans["names"]
    name = names[spans["name_ix"]] if len(names) else np.array([], dtype=str)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    counts = dict(zip(spans["count_keys"].tolist(), spans["count_values"].tolist()))

    def member(*wanted):
        return np.isin(name, wanted)

    def outer(*wanted):
        """Spans of the group that no span of the same group encloses directly."""
        inside = member(*wanted)
        enclosed = np.zeros(len(dur), dtype=bool)
        enclosed[has_parent] = inside[parent[has_parent]]
        return inside & ~enclosed

    def total(mask):
        return float(dur[mask].sum())

    entropy = member("kinetic.entropy", "kinetic.entropy_rate")
    stepping = member("integrators.integrate", "integrators.advance_batch",
                      "integrators.geodesic_reference")
    execute = member("cli.execute_single", "cli.execute_ensemble")
    roots = np.flatnonzero(member(VERIFY_ROOT))
    under_verify = has_parent & np.isin(parent, roots)

    out = {
        "scenario.load_s": total(outer("scenario.load_scenario", "scenario.preset_scenario")),
        "scenario.build_s": total(outer("scenario.build_system")),
        "kinetic.sample_s": total(outer("kinetic.sample_ensemble")),
        "kinetic.entropy_s": total(outer("kinetic.entropy", "kinetic.entropy_rate")),
        "kinetic.entropy_calls": float(entropy.sum()),
        "kinetic.marker_steps": counts.get("kinetic.marker_steps", 0.0),
        "integrators.self_s": float(self_time[stepping].sum()),
        "integrators.steps_accepted": counts.get("integrators.steps_accepted", 0.0),
        "integrators.steps_rejected": counts.get("integrators.steps_rejected", 0.0),
        "integrators.advance_calls": float(member("integrators.advance_batch").sum()),
        "integrators.resample_s": total(outer("integrators.reparametrize_by_phi",
                                              "integrators.reparametrize_by_tau")),
        "integrators.resample_points": counts.get("integrators.resample_points", 0.0),
        "geometry.metric_eval.calls": float(member(METRIC_EVAL).sum()),
        "geometry.metric_eval.s": total(member(METRIC_EVAL)),
        "geometry.derivatives.calls": float(member("geometry.metric_derivatives").sum()),
        "geometry.derivatives.s": total(outer("geometry.metric_derivatives")),
        "geometry.derivatives.bytes": counts.get("geometry.derivatives.bytes", 0.0),
        "output.write_s": total(outer("output.write_trajectory", "output.write_ensemble_series",
                                      "output.write_ensemble_snapshot")),
        "output.rows": counts.get("output.rows", 0.0),
        "output.bytes": counts.get("output.bytes", 0.0),
    }
    for check_name in check_names:
        out[f"checks.{check_name}_s"] = total(member(f"checks.{check_name}"))
    out["checks.presets_s"] = total(execute & under_verify)
    out["cli.self_s"] = float(self_time[execute].sum())
    out["trace.spans"] = float(len(dur))
    return out
