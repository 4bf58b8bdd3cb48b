"""Spans around hotmesh's layer boundaries, recorded from outside the program.

A traced repetition replaces the public functions of each layer at the
module attribute its caller resolves them through (``sim`` calls
``hotmesh.sim.plan``, ``anneal`` calls ``hotmesh.placement.evaluate``),
records one span per call (name, start, end, parent) in memory, and puts
the originals back afterwards. A name that no longer exists is reported as
absent instead of failing the run, so a refactor that deletes one still
gets measured.

The mesh-size ladder times the same layers directly on N x N meshes to
show how each one scales.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import hotmesh

# (owner, attribute, span name). Two owners may share a span name when two
# callers resolve the same function through different modules.
TARGETS = (
    ("hotmesh.sim", "run", "sim.run"),
    ("hotmesh.sim", "build_network", "thermal.build"),
    ("hotmesh.sim", "steady_state", "thermal.steady"),
    ("hotmesh.placement", "steady_state", "thermal.steady"),
    ("hotmesh.thermal.TransientSolver", "step", "thermal.step"),
    ("hotmesh.sim", "place", "placement.place"),
    ("hotmesh.sim", "anneal", "placement.anneal"),
    ("hotmesh.placement", "anneal", "placement.anneal"),
    ("hotmesh.placement", "evaluate", "placement.evaluate"),
    ("hotmesh.sim", "plan", "migration.plan"),
    ("hotmesh.sim", "execute", "migration.execute"),
    ("hotmesh.sim", "power_vector", "grid.power_vector"),
    ("hotmesh.placement", "power_vector", "grid.power_vector"),
    ("hotmesh.scenario", "as_permutation", "transforms.as_permutation"),
    ("hotmesh.migration", "as_permutation", "transforms.as_permutation"),
)

# Spans the benchmark opens around its own calls into hotmesh.
OWN_SPANS = ("scenario.load", "sim.sweep", "sim.report", "thermal.trace_csv")


def _step_dt(args, kwargs):
    return kwargs.get("dt", args[3] if len(args) > 3 else None)


# Counts read off a call's arguments or result, summed per repetition.
NOTES = {
    "sim.run": lambda a, k, r: {"sim.trace_mb": (r[1].times.nbytes + r[1].temps.nbytes) / 1e6},
    # TransientSolver.step(self, temps, power, dt=None): an explicit dt off
    # the prefactored grid is a sub-step.
    "thermal.step": lambda a, k, r: (
        {"thermal.substep_calls": 1}
        if _step_dt(a, k) not in (None, a[0].dt) else None),
    "migration.plan": lambda a, k, r: {"migration.phases": len(r.phases),
                                       "migration.hops": r.total_hops},
    "thermal.trace_csv": lambda a, k, r: {"thermal.trace_csv_mb": os.path.getsize(a[2]) / 1e6},
}
NOTE_KEYS = ("sim.trace_mb", "thermal.substep_calls", "migration.phases",
             "migration.hops", "thermal.trace_csv_mb")


def plain_call(name, fn, *args, **kwargs):
    """Untraced stand-in for Tracer.call."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans of one repetition: [name, start_ns, end_ns, parent, notes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        rec = [name, 0, 0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()
        note = NOTES.get(name)
        if note is not None:
            rec[4] = note(args, kwargs, result)
        return result

    @contextmanager
    def installed(self):
        """Wrap every TARGETS attribute that exists; restore them on exit."""
        undo = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = _resolve(owner_path)
                if owner is None or not hasattr(owner, attr):
                    self.absent.append(f"{owner_path}.{attr}")
                    continue
                own = attr in vars(owner)
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(name, orig))
                undo.append((owner, attr, orig, own))
            yield self
        finally:
            for owner, attr, orig, own in reversed(undo):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    def _wrapper(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as JSON, times in ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[n, s - t0, e - t0, p, notes] for n, s, e, p, notes in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "notes"],
                                    "spans": rows}))


def _resolve(path: str):
    """Module or class named by a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def layer_values(spans) -> dict[str, float]:
    """Per-layer quantities of one repetition.

    For each span name L.x: L.x_calls, L.x_s (total) and L.x_self_s (total
    minus the time its child spans cover), plus the summed NOTES counts.
    Names never called read 0, so every workload reports the same keys.
    """
    names = {name for _, _, name in TARGETS} | set(OWN_SPANS)
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0)
    child = [0] * len(spans)
    steps = []
    notes = dict.fromkeys(NOTE_KEYS, 0)
    for name, start, end, parent, extra in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        if name == "thermal.step":
            steps.append(dur)
        if parent >= 0:
            child[parent] += dur
        for key, value in (extra or {}).items():
            notes[key] = notes.get(key, 0) + value
    selfs = dict.fromkeys(calls, 0)
    for i, (name, start, end, _, _) in enumerate(spans):
        selfs[name] += end - start - child[i]

    out: dict[str, float] = dict(notes)
    for name in calls:
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_s"] = total[name] / 1e9
        out[f"{name}_self_s"] = selfs[name] / 1e9
    out["sim.runs"] = out["sim.run_calls"]
    out["sim.self_s"] = out["sim.run_self_s"]
    out["thermal.step_us"] = statistics.median(steps) / 1e3 if steps else 0.0
    evals = out["placement.evaluate_calls"]
    out["placement.move_us"] = out["placement.anneal_s"] / evals * 1e6 if evals else 0.0
    return out


def per_op_counts(spans, keys=("thermal.step", "migration.execute", "placement.anneal")):
    """Call counts of a few layers under each root span (one per operation)."""
    root = []
    rows: dict[int, dict] = {}
    for i, (name, _, _, parent, extra) in enumerate(spans):
        r = i if parent < 0 else root[parent]
        root.append(r)
        row = rows.setdefault(r, {"op": spans[r][0], **{f"{k}_calls": 0 for k in keys},
                                  "thermal.substep_calls": 0})
        if name in keys:
            row[f"{name}_calls"] += 1
        if extra and "thermal.substep_calls" in extra:
            row["thermal.substep_calls"] += 1
    return [row for row in rows.values() if any(v for k, v in row.items() if k != "op")]


LADDER_SIZES = (4, 8, 16, 32)
LADDER_STEPS = 200
LADDER_NAMES = ("make_grid", "generate_warm_band", "power_vector", "ThermalParams",
                "build_network", "steady_state", "TransientSolver", "write_trace_csv",
                "plan", "ROTATION", "MigrationCostParams", "anneal", "AnnealConfig")


def _median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def ladder(scratch: Path) -> tuple[dict[str, float], list[str]]:
    """Layer timings on N x N warm-band meshes for N in LADDER_SIZES.

    Returns (values, absent): a probe whose hotmesh name is gone reads 0
    and the name is listed in absent.
    """
    h = hotmesh
    absent = [f"hotmesh.{n}" for n in LADDER_NAMES if not hasattr(h, n)]

    def have(*names):
        return not any(f"hotmesh.{n}" in absent for n in names)

    values: dict[str, float] = {}
    for n in LADDER_SIZES:
        tag = f"n{n}"
        for key in ("build_s", "steady_s", "step_us", "trace_csv_us", "plan_s", "move_us"):
            values[f"ladder.{key}.{tag}"] = 0.0
        if not have("make_grid", "generate_warm_band", "power_vector", "ThermalParams",
                    "build_network", "steady_state"):
            continue
        grid = h.make_grid(n, n)
        profile, mapping = h.generate_warm_band(grid, 0.5, 2.0, n // 2)
        p = h.power_vector(mapping, profile)
        values[f"ladder.build_s.{tag}"], net = _median_s(
            lambda: h.build_network(grid, h.ThermalParams()), 5)
        values[f"ladder.steady_s.{tag}"], state = _median_s(lambda: h.steady_state(net, p), 5)
        if have("TransientSolver", "write_trace_csv"):
            solver = h.TransientSolver(net, 1e-6)
            x, hotter = state.temps, 1.1 * p
            rows, steps = [x], []
            for _ in range(LADDER_STEPS):
                t0 = time.perf_counter_ns()
                x = solver.step(x, hotter)
                steps.append(time.perf_counter_ns() - t0)
                rows.append(x)
            values[f"ladder.step_us.{tag}"] = statistics.median(steps) / 1e3
            path = scratch / f"ladder_trace_{tag}.csv"
            t0 = time.perf_counter()
            h.write_trace_csv([i * 1e-6 for i in range(len(rows))], rows, path)
            values[f"ladder.trace_csv_us.{tag}"] = (time.perf_counter() - t0) / len(rows) * 1e6
            path.unlink()
        if have("plan", "ROTATION", "MigrationCostParams"):
            values[f"ladder.plan_s.{tag}"], _ = _median_s(
                lambda: h.plan(h.ROTATION, grid, h.MigrationCostParams()), 3)
        if have("anneal", "AnnealConfig"):
            # enough moves to time on small meshes, few where one costs a dense solve
            moves = max(10, 3200 // grid.n_cells)
            t0 = time.perf_counter()
            h.anneal(profile, grid, net, h.AnnealConfig(iterations=moves, seed=0))
            values[f"ladder.move_us.{tag}"] = (time.perf_counter() - t0) / moves * 1e6
    return values, absent
