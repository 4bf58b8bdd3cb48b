"""Benchmark workloads: seeded inputs and one repetition of each.

Every workload is a closed loop: one process runs its operations back to
back, and the next repetition starts when the previous one has finished.
hotmesh sees only scenario files and the calls its CLI makes
(load_scenario, run, sweep, report, write_trace_csv).

- shipped: the two shipped scenarios as in the README quickstart, the
  warm band untraced and the center hotspot with its trace CSV. The
  paper's headline experiment; host time is per-step call overhead in
  sim and thermal on 17- and 26-node systems.
- sweep_auto_8x8: a sweep over the four criterion-7 functions at two
  periods on an 8x8 warm band with annealed placement, so placement does
  about half the work (every cell re-anneals today).
- mesh_32x32: one rotation run on a 32x32 mesh, where each step is a dense
  solve over 1025 nodes, plan() has 31 phases and the trace is ~16 MB.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import hotmesh

ROOT = Path(__file__).resolve().parents[1]

# (scenario file, write its trace CSV as `hotmesh run --trace` does)
SHIPPED = (("warm_band_4x4.ini", False), ("center_hotspot_5x5.ini", True))

SWEEP_FUNCTIONS = ("translate_x:1", "rotation", "mirror_xy", "translate_xy:1:1")
SWEEP_PERIODS_US = (109.0, 437.2)

SWEEP_INI = """\
[grid]
nx = 8
ny = 8

[profile]
kind = warm_band
base_power_w = 0.5
band_power_w = 2.0
band_row = {band_row}

[migration]
fn = translate_xy

[sim]
period_us = 109
duration_us = 4000
dt_us = 1.0
seed = {anneal_seed}
placement = auto
anneal_iterations = 2000
"""

MESH_INI = """\
[grid]
nx = 32
ny = 32

[profile]
kind = explicit
idle_power_w = 0.1
{hot_tiles}

[migration]
fn = rotation

[sim]
period_us = 109
duration_us = 2000
dt_us = 1.0
seed = {seed}
placement = identity
"""
MESH_HOT_TILES = 16


@dataclass
class Outcome:
    """One checked operation: a run or a sweep cell.

    cfg is the configuration the operation ran (None if loading failed);
    outputs names the files whose bytes must repeat across repetitions.
    """

    label: str
    cfg: object
    summary: object
    error: str | None
    outputs: tuple[str, ...] = ()


@dataclass
class Rep:
    """Outcomes of one repetition and a digest of every file it wrote."""

    outcomes: list[Outcome] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def make_inputs(workload: str, seed: int, tmp: Path) -> list[Path]:
    """Scenario files of a workload; generated ones are drawn from seed."""
    if workload == "shipped":
        return [ROOT / "scenarios" / name for name, _ in SHIPPED]
    rng = random.Random(seed)
    if workload == "sweep_auto_8x8":
        text = SWEEP_INI.format(band_row=rng.randrange(8), anneal_seed=rng.randrange(10**6))
    elif workload == "mesh_32x32":
        tiles = sorted(rng.sample(range(32 * 32), MESH_HOT_TILES))
        text = MESH_INI.format(seed=seed, hot_tiles="\n".join(
            f"workload_{w}_w = {rng.uniform(1.0, 3.0):.3f}" for w in tiles))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = tmp / f"{workload}.ini"
    path.write_text(text)
    return [path]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _error(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def run_rep(workload: str, inputs: list[Path], out: Path, call) -> Rep:
    """One repetition of a workload, writing its CSVs under out.

    call(name, fn, *args) makes each call into hotmesh, so a tracer can put
    a span around it. Exceptions are caught per operation and recorded.
    """
    if workload == "sweep_auto_8x8":
        return _sweep_rep(inputs[0], out, call)
    traced = dict(SHIPPED) if workload == "shipped" else {}
    rep = Rep()
    for path in inputs:
        d = out / path.stem
        d.mkdir(parents=True, exist_ok=True)
        files = [d / "summary.csv"] + ([d / "trace.csv"] if traced.get(path.name) else [])
        cfg = None
        try:
            cfg = call("scenario.load", hotmesh.load_scenario, path)
            summary, trace = call("sim.run", hotmesh.run, cfg)
            cell = hotmesh.SweepCell(cfg.name, cfg.migration_fn, cfg.period, summary, None)
            call("sim.report", hotmesh.report, [cell], files[0])
            if len(files) > 1:
                call("thermal.trace_csv", hotmesh.write_trace_csv,
                     trace.times, trace.temps, files[1])
        except Exception as exc:  # any failure is a failed operation, never a crash
            rep.outcomes.append(Outcome(path.stem, cfg, None, _error(exc)))
            continue
        names = tuple(str(f.relative_to(out)) for f in files)
        rep.digests.update((n, _digest(f)) for n, f in zip(names, files))
        rep.outcomes.append(Outcome(path.stem, cfg, summary, None, names))
    return rep


def cell_label(fn, period: float) -> str:
    return f"{fn.label()}@{period * 1e6:.1f}us"


def _sweep_rep(path: Path, out: Path, call) -> Rep:
    functions = [hotmesh.parse_function(tag) for tag in SWEEP_FUNCTIONS]
    periods = [us * 1e-6 for us in SWEEP_PERIODS_US]
    labels = [cell_label(fn, p) for fn in functions for p in periods]
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    rep = Rep()
    try:
        cfg = call("scenario.load", hotmesh.load_scenario, path)
        rows = call("sim.sweep", hotmesh.sweep, cfg, functions, periods)
        call("sim.report", hotmesh.report, rows, csv_path)
    except Exception as exc:  # the whole sweep failed: every cell counts as failed
        rep.outcomes = [Outcome(label, None, None, _error(exc)) for label in labels]
        return rep
    rep.digests["sweep.csv"] = _digest(csv_path)
    for row in rows:
        cell_cfg = replace(cfg, migration_fn=row.fn, period=row.period)
        error = None if row.error is None else f"error row: {row.error}"
        rep.outcomes.append(Outcome(cell_label(row.fn, row.period), cell_cfg, row.summary,
                                    error, ("sweep.csv",)))
    missing = set(labels) - {o.label for o in rep.outcomes}
    rep.outcomes += [Outcome(label, None, None, "missing from the sweep")
                     for label in sorted(missing)]
    return rep
