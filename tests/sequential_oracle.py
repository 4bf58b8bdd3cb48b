"""The migrated run marched run by run, independently of the period template.

hotmesh.sim marches every event-to-event period in modal coordinates from
one template, and lays out the steps of each segment in closed form. This
is the sequential march it replaced: the schedule of runs of equal steps
(sim._schedule) with each segment walked step by step (walk_segment), from
the same start, one TransientSolver.march or step per run, the mapping
executed and its power vector taken at every event and the window
statistics taken from the full trace. The tests compare run() against it.
"""

import math
from unittest import mock

import numpy as np

import hotmesh.sim
from hotmesh.grid import idle_vector, power_vector
from hotmesh.migration import execute
from hotmesh.sim import _TIME_EPS, RunSummary, Trace, _plan, _schedule, _start
from hotmesh.thermal import build_network, peak


def walk_segment(length, dt, stall, pulse, event, max_rows):
    """sim._segment as a walk over the steps: t advances by t + dt, cut where
    the stall or the pulse ends, and equal steps merge into runs."""
    runs, ends = [], []
    t = 0.0
    while t < length - _TIME_EPS:
        t_next = min(t + dt, length)
        for brk in (stall, pulse):
            if t + _TIME_EPS < brk < t_next - _TIME_EPS:
                t_next = brk
        h = t_next - t
        key = (None if abs(h - dt) < _TIME_EPS else h,
               t < stall - _TIME_EPS, t < pulse - _TIME_EPS)
        if runs and runs[-1][:3] == key and runs[-1][4] < max_rows:
            runs[-1] = (*key, runs[-1][3], runs[-1][4] + 1)
        else:
            runs.append((*key, event and not runs, 1))
        ends.append(t_next)
        t = t_next
    return runs, np.array(ends)


def walked_schedule(cfg, mplan):
    """sim._schedule with every segment laid out by walk_segment."""
    with mock.patch.object(hotmesh.sim, "_segment", walk_segment):
        return _schedule(cfg, mplan)


def sequential_run(cfg):
    """(RunSummary, Trace) of a validated cfg, marched run by run."""
    mplan = _plan(cfg)
    mapping, baseline, solver = _start(cfg, build_network(cfg.grid, cfg.thermal))
    sched = walked_schedule(cfg, mplan)
    runs = sched.head + sched.body * max(sched.events - 1, 0) + sched.tail
    n_blocks = cfg.grid.n_cells
    active = power_vector(mapping, cfg.profile)
    stalled = idle_vector(cfg.profile, cfg.grid)
    pulse = np.zeros(n_blocks)
    if mplan is not None:
        src_idx = [cfg.grid.index(c) for c in mplan.source_cells()]
        pulse[src_idx] = mplan.energy / (len(src_idx) * cfg.dt)
    temps = np.empty((len(sched.times), n_blocks + 1))
    temps[0] = baseline.temps
    i = 0
    for length, idle, pulsed, fires, count in runs:
        if fires:
            mapping = execute(mapping, mplan)
            active = power_vector(mapping, cfg.profile)
        p = stalled if idle else active
        if pulsed:
            p = p + pulse
        if count == 1:
            rows = solver.step(temps[i], p, length)[None]
        else:
            rows = solver.march(temps[i], p, count, length)
        temps[i + 1:i + 1 + count] = rows
        i += count
    assert i == len(sched.times) - 1

    weights = np.diff(sched.times)[sched.window:]
    blocks = temps[1 + sched.window:, :n_blocks]
    row_max = blocks.max(axis=1)
    mig_peak = float(row_max.max())
    base_peak = peak(baseline)
    events = sched.events
    summary = RunSummary(
        peak_overall=mig_peak,
        peak_static_baseline=base_peak,
        peak_reduction=base_peak - mig_peak,
        time_avg_mean_temp=math.fsum(blocks.mean(axis=1) * weights) / weights.sum(),
        max_spatial_spread=float((row_max - blocks.min(axis=1)).max()),
        throughput_penalty=0.0 if mplan is None else mplan.downtime / cfg.period,
        migration_count=events,
        total_migration_energy=0.0 if mplan is None else events * mplan.energy,
    )
    return summary, Trace(times=sched.times, temps=temps)
