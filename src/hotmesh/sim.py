"""Closed-loop simulation: a transient run with periodic migration.

run() compares two runs that start from the same point, the steady state
of the initial placement. The static baseline holds that placement at
constant power, so it stays at this steady state and needs no march. The
migrated run is one backward-Euler march with one event per period: the
plan's downtime stalls every PE at idle power, the transfer energy lands
as a one-timestep heat pulse on the source PEs, and the placement
permutes. Statistics are taken over the window after warm-up so they
describe settled behavior rather than the decay of the initial condition.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, HotmeshError
from .grid import Mapping, identity_mapping, idle_vector, power_vector
from .migration import MigrationPlan, execute, plan
from .placement import AnnealConfig, place
from .scenario import ScenarioConfig
from .thermal import TransientSolver, build_network, peak, steady_state
from .transforms import MigrationFunction

# Collapses float noise when laying out the steps; far below dt, far above
# the drift accumulated over any realistic step count.
_TIME_EPS = 1e-9

CSV_COLUMNS = (
    "scenario", "fn", "period_us", "peak_c", "baseline_peak_c",
    "peak_reduction_c", "time_avg_mean_c", "max_spread_c", "penalty_pct",
    "migrations", "energy_j", "error",
)


@dataclass(frozen=True)
class RunSummary:
    """Settled-window statistics of one scenario run."""

    peak_overall: float
    peak_static_baseline: float
    peak_reduction: float
    time_avg_mean_temp: float
    max_spatial_spread: float
    throughput_penalty: float
    migration_count: int
    total_migration_energy: float


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory of the migrated run (block temps plus sink)."""

    times: np.ndarray   # (m,) sample instants, s; first sample is t = 0
    temps: np.ndarray   # (m, n_blocks + 1) deg C


@dataclass(frozen=True)
class SweepCell:
    """One (function, period) run of a sweep; error is set when it failed."""

    scenario: str
    fn: MigrationFunction
    period: float
    summary: RunSummary | None
    error: str | None


def _segment(length: float, dt: float, stall: float, pulse: float, event: bool):
    """Steps over [0, length] after an event (or t = 0), and their ends: dt
    steps, cut where the stall (PEs idle before it) or the heat pulse ends."""
    steps, ends = [], []
    t = 0.0
    while t < length - _TIME_EPS:
        t_next = min(t + dt, length)
        for brk in (stall, pulse):
            if t + _TIME_EPS < brk < t_next - _TIME_EPS:
                t_next = brk
        h = t_next - t
        steps.append((None if abs(h - dt) < _TIME_EPS else h,
                      t < stall - _TIME_EPS, t < pulse - _TIME_EPS, event and not steps))
        ends.append(t_next)
        t = t_next
    return steps, np.array(ends)


def _schedule(cfg: ScenarioConfig, mplan: MigrationPlan | None):
    """Steps of the migrated run, laid out once: (times, steps, window, events).

    A head up to the first event, one template per event-to-event period and
    a tail after the last event; events fire at t = k*period strictly inside
    the run. Step i ends at times[i + 1] and is (length or None for dt,
    stalled, pulsed, fires); steps from index window on end after warm-up.
    """
    period, dt, duration = cfg.period, cfg.dt, cfg.sim_duration
    events = 0
    if mplan is not None:
        while (events + 1) * period < duration - _TIME_EPS:
            events += 1
    steps, ends = _segment(period if events else duration, dt, 0.0, 0.0, False)
    parts = [ends]
    if events:
        pulse = dt if cfg.deposit_migration_energy else 0.0
        body, body_ends = _segment(period, dt, mplan.downtime, pulse, True)
        tail, tail_ends = _segment(duration - events * period, dt, mplan.downtime,
                                   pulse, True)
        steps = steps + body * (events - 1) + tail
        parts += [k * period + body_ends for k in range(1, events)]
        parts.append(events * period + tail_ends)
    times = np.concatenate([[0.0], *parts])
    window = int(np.searchsorted(times[1:], cfg.effective_warmup + _TIME_EPS, side="right"))
    return times, steps, window, events


def _march(net, cfg: ScenarioConfig, mapping: Mapping, temps0: np.ndarray,
           mplan: MigrationPlan | None, steps) -> np.ndarray:
    """Backward-Euler march over the steps; node temps at every step end."""
    solver = TransientSolver(net, cfg.dt)
    active = power_vector(mapping, cfg.profile)
    stalled = idle_vector(cfg.profile, cfg.grid)
    pulse = np.zeros(cfg.grid.n_cells)
    if mplan is not None:
        src_idx = [cfg.grid.index(c) for c in mplan.source_cells()]
        pulse[src_idx] = mplan.energy / (len(src_idx) * cfg.dt)
    temps = np.empty((len(steps) + 1, net.n_nodes))
    temps[0] = temps0
    for i, (length, idle, pulsed, fires) in enumerate(steps):
        if fires:
            mapping = execute(mapping, mplan)
            active = power_vector(mapping, cfg.profile)
        p = stalled if idle else active
        if pulsed:
            p = p + pulse
        temps[i + 1] = solver.step(temps[i], p, length)
    return temps


def _window_stats(times: np.ndarray, temps: np.ndarray, window: int, n_blocks: int):
    """(peak, time-avg mean, max spread) over block temps after warm-up."""
    w = np.diff(times)[window:]
    blocks = temps[1 + window:, :n_blocks]
    peak_overall = float(blocks.max())
    time_avg = float((blocks.mean(axis=1) * w).sum() / w.sum())
    spread = float((blocks.max(axis=1) - blocks.min(axis=1)).max())
    return peak_overall, time_avg, spread


def _resolve_initial_mapping(cfg: ScenarioConfig, net) -> Mapping:
    if isinstance(cfg.initial_mapping, Mapping):
        return cfg.initial_mapping
    if cfg.initial_mapping == "identity":
        return identity_mapping(cfg.grid)
    anneal_cfg = cfg.anneal if cfg.anneal is not None else AnnealConfig(seed=cfg.seed)
    return place(cfg.profile, cfg.grid, net, anneal_cfg)


def run(cfg: ScenarioConfig) -> tuple[RunSummary, Trace]:
    """Simulate one scenario (migrated run against the static baseline)."""
    cfg.validate()
    net = build_network(cfg.grid, cfg.thermal)
    mapping0 = _resolve_initial_mapping(cfg, net)
    baseline = steady_state(net, power_vector(mapping0, cfg.profile))

    if cfg.migration_fn.kind == "identity":
        mplan = None
    else:
        mplan = plan(cfg.migration_fn, cfg.grid, cfg.cost)
        if mplan.total_hops == 0:
            mplan = None  # e.g. zero-offset translation: nothing ever moves

    times, steps, window, events = _schedule(cfg, mplan)
    temps = _march(net, cfg, mapping0, baseline.temps, mplan, steps)
    base_peak = peak(baseline)
    mig_peak, time_avg, spread = _window_stats(times, temps, window, cfg.grid.n_cells)

    penalty = 0.0 if mplan is None else mplan.downtime / cfg.period
    energy = 0.0 if mplan is None else events * mplan.energy
    summary = RunSummary(
        peak_overall=mig_peak,
        peak_static_baseline=base_peak,
        peak_reduction=base_peak - mig_peak,
        time_avg_mean_temp=time_avg,
        max_spatial_spread=spread,
        throughput_penalty=penalty,
        migration_count=events,
        total_migration_energy=energy,
    )
    return summary, Trace(times=times, temps=temps)


def sweep(base: ScenarioConfig, functions: Sequence[MigrationFunction],
          periods: Sequence[float]) -> list[SweepCell]:
    """Cross product of runs in (function, period) input order.

    An "auto" placement is annealed once and shared by every cell. A failing
    cell records its error instead of aborting the sweep; a failing
    placement is recorded in every cell.
    """
    functions = list(functions)
    periods = list(periods)
    if not functions or not periods:
        raise ConfigurationError("sweep needs at least one function and one period")
    if base.initial_mapping == "auto":
        # the placement depends on neither the function nor the period
        try:
            mapping = _resolve_initial_mapping(base, build_network(base.grid, base.thermal))
        except HotmeshError as exc:
            return [SweepCell(base.name, fn, period, None, str(exc))
                    for fn in functions for period in periods]
        base = replace(base, initial_mapping=mapping)
    rows = []
    for fn in functions:
        for period in periods:
            try:
                cell_cfg = replace(base, migration_fn=fn, period=period)
                summary, _ = run(cell_cfg)
                rows.append(SweepCell(base.name, fn, period, summary, None))
            except HotmeshError as exc:
                rows.append(SweepCell(base.name, fn, period, None, str(exc)))
    return rows


def _csv_row(row: SweepCell) -> list[str]:
    head = [row.scenario, row.fn.label(), f"{row.period * 1e6:.1f}"]
    if row.summary is None:
        return head + [""] * 8 + [row.error or "unknown error"]
    s = row.summary
    return head + [
        f"{s.peak_overall:.6f}",
        f"{s.peak_static_baseline:.6f}",
        f"{s.peak_reduction:.6f}",
        f"{s.time_avg_mean_temp:.6f}",
        f"{s.max_spatial_spread:.6f}",
        f"{s.throughput_penalty * 100:.6f}",
        str(s.migration_count),
        f"{s.total_migration_energy:.6e}",
        "",
    ]


def report(rows: Iterable[SweepCell], csv_path) -> str:
    """Write the sweep table as CSV and return a text summary."""
    rows = list(rows)
    if not rows:
        raise ConfigurationError("nothing to report")
    try:
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_COLUMNS)
            for row in rows:
                w.writerow(_csv_row(row))
    except OSError as exc:
        raise HotmeshError(f"cannot write report to {csv_path}: {exc}") from None
    return summarize(rows)


def summarize(rows: Iterable[SweepCell]) -> str:
    """Text block naming the best function per scenario by peak reduction."""
    by_scenario: dict[str, list[SweepCell]] = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    lines = []
    for scenario, cells in by_scenario.items():
        ok = [c for c in cells if c.summary is not None]
        if ok:
            best = max(ok, key=lambda c: c.summary.peak_reduction)
            lines.append(
                f"{scenario}: best fn={best.fn.label()} at period_us="
                f"{best.period * 1e6:.1f} (peak reduction "
                f"{best.summary.peak_reduction:.3f} C, penalty "
                f"{best.summary.throughput_penalty * 100:.3f}%)")
        for c in cells:
            if c.summary is None:
                lines.append(f"{scenario}: fn={c.fn.label()} period_us="
                             f"{c.period * 1e6:.1f} failed: {c.error}")
    return "\n".join(lines)


def format_run(cfg: ScenarioConfig, s: RunSummary) -> str:
    """Human-readable block for one run."""
    return "\n".join([
        f"scenario {cfg.name}: fn={cfg.migration_fn.label()} "
        f"period_us={cfg.period * 1e6:.1f}",
        f"  peak overall        {s.peak_overall:.3f} C",
        f"  static baseline     {s.peak_static_baseline:.3f} C",
        f"  peak reduction      {s.peak_reduction:.3f} C",
        f"  time-avg mean temp  {s.time_avg_mean_temp:.3f} C",
        f"  max spatial spread  {s.max_spatial_spread:.3f} C",
        f"  throughput penalty  {s.throughput_penalty * 100:.3f} %",
        f"  migrations          {s.migration_count}",
        f"  migration energy    {s.total_migration_energy:.3e} J",
    ])
