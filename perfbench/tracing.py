"""Spans and counters for the traced run.

The tracer wraps the public functions of the ``frbl`` modules by patching
the module attributes through which the program looks them up (for example
``frbl.cli.check_geometric`` and ``frbl.geometry.marginal_residuals``).
No source file of the program changes.  Each span records its name,
start, end and parent; spans stay in memory until the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Per-layer metrics, all per round of the workload except cli.import_s
# (per fresh process) and the allocation peak (largest single scan).
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.main.calls", "count/round"),
    ("cli.main.self_s", "s/round"),
    ("datum.validate_datum.s", "s/round"),
    ("heatflow.grid_from_json.s", "s/round"),
    ("geometry.check_loewner.s", "s/round"),
    ("geometry.check_geometric.self_s", "s/round"),
    ("geometry.find_sigma.calls", "count/round"),
    ("geometry.find_sigma.self_s", "s/round"),
    ("geometry.sigma_iterations", "count/round"),
    ("geometry.find_sigma.s_per_iteration", "s"),
    ("geometry.marginal_residuals.calls", "count/round"),
    ("geometry.marginal_residuals.s", "s/round"),
    ("linalg.psd_project.calls", "count/round"),
    ("linalg.psd_project.s", "s/round"),
    ("linalg.SymMatrix.constructions", "count/round"),
    ("gaussian.heat_evolve.calls", "count/round"),
    ("gaussian.heat_evolve.s", "s/round"),
    ("gaussian.relation_check.calls", "count/round"),
    ("gaussian.relation_check.s", "s/round"),
    ("gaussian.log_frbl_ratio.s", "s/round"),
    ("gaussian.random_admissible_tuple.s", "s/round"),
    ("gaussian.extremizer_check.self_s", "s/round"),
    ("gaussian.geometrize_from_extremizers.s", "s/round"),
    ("heatflow.heat_step.calls", "count/round"),
    ("heatflow.heat_step.s", "s/round"),
    ("heatflow.heat_step.grid_points", "count/round"),
    ("heatflow.interpolate.calls", "count/round"),
    ("heatflow.interpolate.s", "s/round"),
    ("heatflow.interpolate.points", "count/round"),
    ("heatflow.verify_preservation.self_s", "s/round"),
    ("heatflow.nodes_scanned", "count/round"),
    ("heatflow.verify_preservation.peak_alloc_mb", "MB"),
    ("heatflow.monotone_functional.self_s", "s/round"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        for lst in (self.names, self.parents, self.starts, self.ends):
            lst.clear()
        self.counts.clear()
        self.peak_alloc = 0

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn, *args):
        """Run ``fn`` inside a span of the benchmark's own (a verdict)."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, after=None, track_alloc=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_alloc:
                tracemalloc.start()
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if track_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, **kw))
        self._undo.append((owner, attr, original))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------- aggregation

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        starts, ends = np.array(self.starts), np.array(self.ends)
        dur = ends - starts
        child = np.zeros_like(dur)
        parents = np.array(self.parents, dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, d, c in zip(self.names, dur.tolist(), child.tolist()):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += d
            agg["self_s"] += d - c
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "run", **header}) + "\n")
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(json.dumps({"type": "span", "id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"type": "counters", **self.counts,
                                 "peak_alloc_bytes": self.peak_alloc}) + "\n")


def _count_iterations(counts, args, kwargs, result):
    counts["geometry.sigma_iterations"] += result.iterations


def _count_grid_points(counts, args, kwargs, result):
    counts["heatflow.heat_step.grid_points"] += args[0].values.size


def _count_points(counts, args, kwargs, result):
    counts["heatflow.interpolate.points"] += np.shape(args[1])[0]


def _count_nodes(counts, args, kwargs, result):
    f_grids = args[1] if len(args) > 1 else kwargs["f_grids"]
    times = args[3] if len(args) > 3 else kwargs["times"]
    nodes = int(np.prod([fg.values.size for fg in f_grids]))
    counts["heatflow.nodes_scanned"] += nodes * (1 + len(times))  # the t = 0 check, then each time


def install(tracer: Tracer) -> None:
    """Patch every public function the per-layer metrics need."""
    import frbl.cli as cli
    import frbl.datum as datum
    import frbl.gaussian as gaussian
    import frbl.geometry as geometry
    import frbl.heatflow as heatflow
    import frbl.linalg as linalg

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(datum, "validate_datum", "datum.validate_datum")
    tracer.patch(heatflow, "grid_from_json", "heatflow.grid_from_json")
    for owner in (cli, gaussian):
        tracer.patch(owner, "check_geometric", "geometry.check_geometric")
    tracer.patch(geometry, "check_loewner", "geometry.check_loewner")
    for owner in (cli, geometry):
        tracer.patch(owner, "find_sigma", "geometry.find_sigma", after=_count_iterations)
    tracer.patch(geometry, "marginal_residuals", "geometry.marginal_residuals")
    tracer.patch(geometry, "psd_project", "linalg.psd_project")
    tracer.count_calls(linalg.SymMatrix, "__init__", "linalg.SymMatrix.constructions")
    for name in ("heat_evolve", "evolve_tuple", "relation_check", "log_frbl_ratio",
                 "random_admissible_tuple", "extremizer_check", "geometrize_from_extremizers"):
        tracer.patch(gaussian, name, f"gaussian.{name}")
    tracer.patch(heatflow, "heat_step", "heatflow.heat_step", after=_count_grid_points)
    tracer.patch(heatflow.GridFunction, "interpolate", "heatflow.interpolate", after=_count_points)
    tracer.patch(heatflow, "verify_preservation", "heatflow.verify_preservation",
                 after=_count_nodes, track_alloc=True)
    tracer.patch(heatflow, "monotone_functional", "heatflow.monotone_functional")


COUNTERS = {"geometry.sigma_iterations", "heatflow.nodes_scanned", "heatflow.heat_step.grid_points",
            "heatflow.interpolate.points", "linalg.SymMatrix.constructions"}


def per_layer(tracer: Tracer, rounds: int, import_s: float) -> dict[str, float]:
    """The per-layer metrics, per round of the timed phase."""
    totals = tracer.totals()
    values = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in COUNTERS:
            values[name] = tracer.counts.get(name, 0.0) / rounds
        elif field in ("calls", "s", "self_s") and span != "cli.import":
            values[name] = totals.get(span, {}).get(field, 0) / rounds
    iterations = tracer.counts.get("geometry.sigma_iterations", 0.0)
    sigma_s = totals.get("geometry.find_sigma", {}).get("s", 0.0)
    values["cli.import_s"] = import_s
    values["geometry.find_sigma.s_per_iteration"] = sigma_s / iterations if iterations else 0.0
    values["heatflow.verify_preservation.peak_alloc_mb"] = tracer.peak_alloc / 2**20
    return values
