"""The migrated run marched run by run, independently of the period layout.

hotmesh.sim marches every event-to-event period, and the tail after the
last event, in modal coordinates from one layout, and lays out the steps
of each segment in closed form. This is the sequential march it replaced,
with a schedule of its own: the head, every period and the tail each
walked step by step (walk_segment) into runs of equal steps, their times
composed as k*period + the segment's step ends as sim composes them, and
the runs marched from the same start, each by the per-step formula
(per_step_rows) rather than by a layout's Taylor chunks, the mapping
executed and its power vector taken at every event and the window
statistics taken from the full trace. The tests compare run() against it.
"""

import math

import numpy as np

from hotmesh.errors import ConfigurationError
from hotmesh.grid import idle_vector, power_vector
from hotmesh.migration import execute
from hotmesh.sim import RunSummary, Trace, _plan, _start
from hotmesh.thermal import build_network, peak, steady_state
from hotmesh.transforms import apply

# The walk's own tolerance on times, as a fraction of dt (sim._TIME_EPS_DT).
TIME_EPS_DT = 1e-3


def per_step_rows(modes, temps, x_ss, count, dt):
    """Node temperatures after steps j = 1..count of length dt from temps
    towards the steady state x_ss of a constant power, (count, n_nodes):
    after j steps each modal deviation from x_ss is lambda^j times the
    start's, with ln lambda = -log1p(dt mu), so

        x_j = temps + from_modal(expm1(j ln lambda) * to_modal(temps - x_ss)).

    Every row is formed from temps on its own, with no Taylor series."""
    log_decay = -np.log1p(dt * modes.mu)
    approach = np.expm1(np.arange(1, count + 1)[:, None] * log_decay)
    return temps + modes.from_modal(approach * modes.to_modal(temps - x_ss))


def walk_segment(length, dt, stall, pulse):
    """sim._segment as a walk over the steps: t advances by t + dt, cut where
    the stall or the pulse ends, and equal steps merge into runs."""
    eps = TIME_EPS_DT * dt
    runs, ends = [], []
    t = 0.0
    while t < length - eps:
        t_next = min(t + dt, length)
        for brk in (stall, pulse):
            if t + eps < brk < t_next - eps:
                t_next = brk
        h = t_next - t
        key = (dt if abs(h - dt) < eps else h, t < stall - eps, t < pulse - eps)
        if runs and runs[-1][:3] == key:
            runs[-1] = (*key, runs[-1][3] + 1)
        else:
            runs.append((*key, 1))
        ends.append(t_next)
        t = t_next
    return runs, np.array(ends)


def walked_schedule(cfg, mplan):
    """(times, window, events, runs) of the migrated run: the head up to the
    first event, each event-to-event period and the tail after the last
    event walked by walk_segment. A run is (length, stalled, pulsed, fires,
    count); the first run after each event fires it."""
    period, dt, duration = cfg.period, cfg.dt, cfg.sim_duration
    eps = TIME_EPS_DT * dt
    events = 0
    if mplan is not None:
        while (events + 1) * period < duration - eps:
            events += 1
    head, ends = walk_segment(period if events else duration, dt, 0.0, 0.0)
    runs = [(length, idle, pulsed, False, count) for length, idle, pulsed, count in head]
    parts = [ends]
    pulse = dt if cfg.deposit_migration_energy else 0.0
    for k in range(1, events + 1):
        segment, ends = walk_segment(period if k < events else duration - events * period,
                                     dt, mplan.downtime, pulse)
        runs += [(length, idle, pulsed, j == 0, count)
                 for j, (length, idle, pulsed, count) in enumerate(segment)]
        parts.append(k * period + ends)
    times = np.concatenate([[0.0], *parts])
    window = int(np.searchsorted(times[1:], cfg.effective_warmup + eps, side="right"))
    if window == len(times) - 1:
        raise ConfigurationError("warmup leaves no step to take statistics over")
    return times, window, events, runs


def sequential_run(cfg):
    """(RunSummary, Trace) of a validated cfg, marched run by run."""
    mplan = _plan(cfg)
    net = build_network(cfg.grid, cfg.thermal)
    mapping, baseline, _ = _start(cfg, net)
    times, window, events, runs = walked_schedule(cfg, mplan)
    n_blocks = cfg.grid.n_cells
    active = power_vector(mapping, cfg.profile)
    stalled = idle_vector(cfg.profile, cfg.grid)
    pulse = np.zeros(n_blocks)
    if mplan is not None:
        src_idx = [cfg.grid.index(c) for c in cfg.grid.cells()
                   if apply(cfg.migration_fn, c, cfg.grid) != c]
        pulse[src_idx] = mplan.energy / (len(src_idx) * cfg.dt)
    temps = np.empty((len(times), n_blocks + 1))
    temps[0] = baseline.temps
    i = 0
    for length, idle, pulsed, fires, count in runs:
        if fires:
            mapping = execute(mapping, mplan)
            active = power_vector(mapping, cfg.profile)
        p = stalled if idle else active
        if pulsed:
            p = p + pulse
        temps[i + 1:i + 1 + count] = per_step_rows(
            net.modes, temps[i], steady_state(net, p).temps, count, length)
        i += count
    assert i == len(times) - 1

    weights = np.diff(times)[window:]
    blocks = temps[1 + window:, :n_blocks]
    row_max = blocks.max(axis=1)
    mig_peak = float(row_max.max())
    base_peak = peak(baseline)
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
    return summary, Trace(times, lambda: temps)
