"""Closed-loop simulation: a transient run with periodic migration.

run() compares two runs that start from the same point, the steady state
of the initial placement. The static baseline holds that placement at
constant power, so it stays at this steady state and needs no march. The
migrated run is one backward-Euler march with one event per period: the
plan's downtime stalls every PE at idle power, the transfer energy lands
as a one-timestep heat pulse on the source PEs, and the placement
permutes. Of the plan a run reads only the closed-form hops and energy,
the downtime and the permutation's index array, so in default timing its
phases are never packed. Between events, stall end and pulse end the
power is constant, so the schedule is laid out once as runs of equal
steps: a head up to the first event, which stays at the baseline and is
never marched, and one period from event to event. The tail after the
last event takes the period's steps up to the run's end, whose last one
the end may cut short. The schedule and the period's layout of steps
(TransientSolver.layout) depend only on the period and the plan's
downtime, so a sweep runs its cells period by period and lays out each
(period, downtime) once for the cells that follow one another with it,
which share it read-only; run() takes the same path for its one run.

Every period, and the tail as the start of one more, is marched from the
period's layout and the run's sources (PeriodLayout) in modal
coordinates, diagonal in the modes: the state at each event follows
z_{k+1} = D z_k + f + B z_act(k), O(n) per event, with z_act(k) the
steady state of the power the k-th event's placement dissipates. Within
a period each chunk of a run of equal steps is a short Taylor series in
the step (PeriodLayout.coefficients), so one walk over bounded blocks of
whole periods applies the basis once per group of periods, to their
chunks' coefficient rows, and forms each block's node rows as products
of its runs' step rows with those (PeriodLayout.rows); both consumers
read it. The statistics walk from warm-up's period on, the same in a run
and in a sweep cell, and reduce each block along its long axis: node by
node, a copy, when it holds more rows than nodes, row by row otherwise,
so their reductions run along contiguous memory. A row's block mean is
the same product of its coefficients' block means. The trace walks from
the first period, straight into its own rows, only when its temps are
first read, so run() writes no trace row and a sweep cell keeps no
trace. A step cut short by the run's end is the run's one lone step,
TransientSolver.step's per-step formula from the tail's last row, or
from the tail's start when it has none. Statistics are taken over the
window after warm-up so they describe settled behavior rather than the
decay of the initial condition; they are accumulated block by block, and
refused when they are not finite in float64.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import thermal
from .errors import ConfigurationError, HotmeshError
from .grid import Mapping, identity_mapping, idle_vector, power_vector
from .migration import MigrationPlan, execute, plan
from .placement import place
from .scenario import ScenarioConfig
from .thermal import ThermalState, TransientSolver, build_network, peak, steady_state
from .transforms import MigrationFunction

# Collapses float noise when laying out the steps, as a fraction of dt: far
# below dt, far above the drift accumulated over any realistic step count
# (1e-9 s at dt = 1 us). A stall or pulse shorter than it is absorbed.
_TIME_EPS_DT = 1e-3

# Bound on the rows x nodes of one block of node rows formed from the
# period's layout, and on the node coefficients and row means of one group
# of periods (node_blocks in _march). A statistics block's node rows, their
# node-major copy and a group's coefficients are in flight.
_MARCH_ELEMENTS = 1 << 15

# Bound on the steps x nodes of a traced run (1 GiB of float64) and on the steps of any run.
_TRACE_VALUES = 1 << 27

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


class Trace:
    """Sampled trajectory of the migrated run (block temps plus sink):
    times (m,), the sample instants in s, the first at t = 0, and temps
    (m, n_blocks + 1) in deg C.

    run() forms no row of temps: form forms the whole array on the first
    read of temps, once, and is then dropped with all it holds. Every read
    returns the same array, so a read trace costs one pass over the run's
    rows on top of the statistics, and an unread one neither that pass nor
    the memory of its array.
    """

    def __init__(self, times: np.ndarray, form: Callable[[], np.ndarray]):
        self.times = times
        self._form = form

    @cached_property
    def temps(self) -> np.ndarray:
        temps, self._form = self._form(), None
        return temps


class _Schedule(NamedTuple):
    """The steps of a migrated run. Step i ends at times[i + 1] and is
    weights[i] long; steps from index window on end after warm-up. head
    steps lead up to the first event and body is the runs (see _segment) of
    every event-to-event period. After the last event come the period's
    first tail steps, then, unless cut is None, one step cut short by the
    run's end: cut is its (length, stalled, pulsed). times and weights are
    read-only: a sweep shares one schedule among its cells."""

    times: np.ndarray
    weights: np.ndarray
    window: int
    events: int
    head: int
    body: list
    tail: int
    cut: tuple | None


@dataclass(frozen=True)
class SweepCell:
    """One (function, period) run of a sweep; error is set when it failed."""

    scenario: str
    fn: MigrationFunction
    period: float
    summary: RunSummary | None
    error: str | None


def _segment(length: float, dt: float, stall: float, pulse: float):
    """Runs of steps over [0, length] after an event, and the step ends: dt
    steps, cut where the stall (PEs idle before it) or the heat pulse ends.
    A run is (length, stalled, pulsed, count): count equal steps, of length
    dt itself for a full one."""
    ends = _step_ends(length, dt, (stall, pulse))
    if not len(ends):
        return [], ends
    eps = _TIME_EPS_DT * dt
    starts = np.append(0.0, ends[:-1])
    h = ends - starts
    h[np.abs(h - dt) < eps] = dt
    stalled, pulsed = starts < stall - eps, starts < pulse - eps
    # a run opens at the first step and at every step whose key differs from the last one's
    keys = np.stack([h, stalled, pulsed])
    opens = np.flatnonzero(np.append(True, (keys[:, 1:] != keys[:, :-1]).any(axis=0))).tolist()
    runs = [(float(h[lo]), bool(stalled[lo]), bool(pulsed[lo]), hi - lo)
            for lo, hi in zip(opens, [*opens[1:], len(ends)])]
    return runs, ends


def _step_ends(length: float, dt: float, breaks) -> np.ndarray:
    """The ends of the steps over [0, length]: each dt after the last, as the
    float sum t + dt (np.add.accumulate adds left to right), except a step
    ending past length or past a break, which ends there instead; the sum
    restarts at the break. Ends within _TIME_EPS_DT * dt of length or of a
    break absorb it."""
    eps = _TIME_EPS_DT * dt
    parts = []
    t = 0.0
    while t < length - eps:
        e = np.add.accumulate(np.append(t, np.full(math.ceil((length - t) / dt) + 1, dt)))
        steps = int(np.searchsorted(e, length - eps))  # starts before the end
        starts, ends = e[:steps], np.minimum(e[1:steps + 1], length)
        cut = np.zeros(steps, dtype=bool)
        for brk in breaks:
            cut |= (starts + eps < brk) & (brk < ends - eps)
        if not cut.any():
            parts.append(ends)
            break
        j = int(cut.argmax())
        t_next = float(ends[j])
        for brk in breaks:  # the first break inside step j
            if float(starts[j]) + eps < brk < t_next - eps:
                t_next = brk
        parts += [ends[:j], [t_next]]
        t = t_next
    return np.concatenate(parts) if parts else np.empty(0)


def _schedule(cfg: ScenarioConfig, mplan: MigrationPlan | None) -> _Schedule:
    """Steps of the migrated run, laid out once (see _Schedule).

    A head up to the first event, the runs of one event-to-event period and
    a tail after the last event; events fire at t = k*period strictly inside
    the run. The tail's steps end where the period's do, but for a last
    step that the run's end cuts short.
    """
    period, dt, duration = cfg.period, cfg.dt, cfg.sim_duration
    steps = _max_steps(cfg, mplan is not None)
    if steps > _TRACE_VALUES:  # also bounds a sweep cell, which keeps no trace
        raise ConfigurationError(
            f"a run of {steps:.0f} steps (sim_duration / dt, and up to 3 more per "
            f"migration) exceeds the limit of {_TRACE_VALUES} steps")
    if mplan is not None and mplan.downtime >= period:
        raise ConfigurationError(
            f"the migration downtime of {mplan.downtime * 1e6:.3f} us is not shorter than "
            f"the period of {period * 1e6:.3f} us: the PEs would never compute")
    eps = _TIME_EPS_DT * dt
    events = 0 if mplan is None else _events(cfg)
    parts = [_step_ends(period if events else duration, dt, ())]
    body, tail, cut = [], 0, None
    if events:
        pulse = dt if cfg.deposit_migration_energy else 0.0
        body, body_ends = _segment(period, dt, mplan.downtime, pulse)
        tail_runs, tail_ends = _segment(duration - events * period, dt, mplan.downtime, pulse)
        tail = len(tail_ends)
        if tail and (tail > len(body_ends) or tail_ends[-1] != body_ends[tail - 1]):
            tail, cut = tail - 1, tail_runs[-1][:3]
        parts.append((np.arange(1, events)[:, None] * period + body_ends).ravel())
        parts.append(events * period + tail_ends)
    times = np.concatenate([[0.0], *parts])
    window = int(np.searchsorted(times[1:], cfg.effective_warmup + eps, side="right"))
    if window == len(times) - 1:
        raise ConfigurationError("warmup leaves no step to take statistics over")
    weights = np.diff(times)
    for a in (times, weights):
        a.setflags(write=False)
    return _Schedule(times, weights, window, events, len(parts[0]), body, tail, cut)


def _events(cfg: ScenarioConfig) -> int:
    """The events of a migrating run, each k >= 1 with k * period <
    sim_duration - _TIME_EPS_DT * dt: counted down to the last by that
    comparison from their quotient rounded up, in O(1)."""
    end = cfg.sim_duration - _TIME_EPS_DT * cfg.dt
    k = math.ceil(end / cfg.period)
    while k > 0 and not k * cfg.period < end:
        k -= 1
    return k


def _max_steps(cfg: ScenarioConfig, migrates: bool) -> float:
    """A bound on the steps _schedule lays out, from cfg alone: sim_duration
    / dt rounded up (an end within _TIME_EPS_DT * dt absorbs a step), and if
    the run migrates, three more per event, which can cut a step where it
    fires, where its stall ends and where its pulse ends. Past _TRACE_VALUES
    it is sim_duration / dt alone, which may not be finite: such a run is
    refused whatever its events."""
    steps = cfg.sim_duration / cfg.dt
    if steps > _TRACE_VALUES:
        return steps
    return math.ceil(steps - _TIME_EPS_DT) + (3 * _events(cfg) if migrates else 0)


class _Window:
    """Peak, largest spread and time-weighted mean of the block temperatures
    over the steps from index start on, taken block of rows by block. A
    block's rows may be stored row by row or node by node: its peak and
    spread are exact either way, and each row's block mean comes with it,
    formed from whole periods (_march), so the mean, a single sum of one
    term per step over the window, depends neither on how the rows are
    stored nor on how they are grouped."""

    def __init__(self, weights: np.ndarray, start: int, n_blocks: int):
        self.weights = weights
        self.start, self.n_blocks = start, n_blocks
        self.peak = self.spread = -math.inf
        self.terms: list[np.ndarray] = []

    def add(self, first: int, rows: np.ndarray, means: np.ndarray) -> None:
        """Take in the node rows of steps first, first + 1, ... and their
        block means."""
        lo = max(self.start - first, 0)  # rows that end before warm-up
        if lo >= len(rows):
            return
        blocks = rows[lo:, :self.n_blocks]
        row_max = blocks.max(axis=1)
        self.peak = max(self.peak, float(row_max.max()))
        self.spread = max(self.spread, float((row_max - blocks.min(axis=1)).max()))
        self.terms.append(means[lo:] * self.weights[first + lo:first + len(rows)])

    def result(self) -> tuple[float, float, float]:
        """(peak, time-weighted mean, largest spread)."""
        mean = np.concatenate(self.terms).sum() / self.weights[self.start:].sum()
        return self.peak, float(mean), self.spread


def _march(solver: TransientSolver, cfg: ScenarioConfig, mapping: Mapping,
           temps0: np.ndarray, mplan: MigrationPlan | None, sched: _Schedule,
           get_layout: Callable[[], thermal.PeriodLayout]
           ) -> tuple[tuple[float, float, float], Callable[[], np.ndarray]]:
    """Backward-Euler march of the migrated run from the baseline temps0:
    its window statistics (see _Window), and what forms its trace, the node
    temps at t = 0 and at every step end (Trace.temps), which holds neither
    the schedule's weights nor stats.

    Every period, and the tail as the first steps of one more, is marched
    from the period's layout (get_layout) and the run's sources: the idle
    and pulse powers of its runs and the active power of each event's
    placement (_steady_states), in modal deviations from the baseline; a
    last step cut short by the run's end is one solver.step, the per-step
    formula, from the tail's last row or, with no tail rows, its start.

    One walk, node_blocks, forms the node rows block by block, and both
    consumers read it: one application of the basis per group of periods
    turns their chunks' coefficient rows into node values
    (PeriodLayout.coefficients), and each block's rows are products of its
    runs' step rows and those (PeriodLayout.rows). The statistics walk from
    warm-up's period on, into one buffer, row by row, and take a block's
    copy node by node when it holds more rows than nodes, so their
    reductions run along contiguous memory. The block means of a group's
    rows are one more such product, of its coefficients' block means, over
    whole periods; the head's rows sit at temps0 and the cut step's row is
    averaged. The trace walks from period 0, straight into
    its own rows, only when formed: the same products, so the same bytes.
    """
    n_blocks, n_nodes = cfg.grid.n_cells, cfg.grid.n_cells + 1
    base_mean = temps0[:n_blocks].mean()
    stats = _Window(sched.weights, sched.window, n_blocks)
    sched = sched._replace(weights=None)  # what forms the trace holds no weights
    stats.add(0, np.broadcast_to(temps0, (sched.head, n_nodes)), np.full(sched.head, base_mean))
    if not sched.events:  # the head is the whole run
        return stats.result(), lambda: np.tile(temps0, (len(sched.times), 1))
    (stalled, pulse, active), z_idle, z_pulse, actives = _steady_states(
        solver, cfg, mapping, mplan, sched.events)
    layout = get_layout()  # built on first use, after the steady states (_simulate)
    sources = [(z_idle if idle else 0.0) + (z_pulse if pulsed else 0.0)
               for _, idle, pulsed, _ in sched.body]
    # period k runs from event k + 1 on, from starts[k]; the last is the tail
    starts = layout.starts(sources, np.zeros(n_nodes), actives[:-1])

    def node_blocks(k_first: int, into: Callable):
        """(g, periods, s0, s1, lo, node rows) of each block from period
        k_first on, the tail last: steps s0..s1 - 1 of some periods of one
        group, formed into into(lo, shape), lo being the first row's step.
        A block is at most _MARCH_ELEMENTS node values of whole periods, or
        of one period's steps when a period is longer; none is larger than
        the first. A group is whole blocks of periods whose coefficients and
        row means fit _MARCH_ELEMENTS, or one block of periods. g is its
        node coefficients, formed on its first block, and periods the
        block's slice of them."""
        periods, steps = sched.events - 1, layout.steps
        span = min(steps, max(1, _MARCH_ELEMENTS // n_nodes))
        per = max(1, _MARCH_ELEMENTS // (steps * n_nodes))
        group = per * max(1, _MARCH_ELEMENTS // ((layout.width * n_nodes + steps) * per))
        for g0 in range(k_first, periods + 1, group):  # the tail is period `periods`
            g1, g, k0 = min(g0 + group, periods + 1), None, g0
            while k0 < g1:  # blocks of per whole periods, then the tail's
                k1, stop = (min(k0 + per, periods), steps) if k0 < periods else (g1, sched.tail)
                for s0 in range(0, stop, span):  # one span, or a longer period's spans
                    if g is None:
                        g = layout.coefficients(sources, starts[g0:g1], actives[g0:g1], temps0)
                    s1, lo = min(s0 + span, stop), sched.head + k0 * steps + s0
                    yield g, slice(k0 - g0, k1 - g0), s0, s1, lo, layout.rows(
                        g[k0 - g0:k1 - g0], s0, s1, into(lo, (k1 - k0, s1 - s0, n_nodes)))
                k0 = k1

    work = None  # the rows and their node-major copy, sized by the first block, the largest

    def into_work(lo, shape):
        nonlocal work
        if work is None:
            work = np.empty(2 * math.prod(shape))
        return work[:math.prod(shape)].reshape(shape)

    k_first, g_means = max(sched.window - sched.head, 0) // layout.steps, None
    for g, periods, s0, s1, lo, rows in node_blocks(k_first, into_work):
        if g is not g_means:  # the mean is linear: a product of the coefficients' means
            g_means, means = g, layout.rows(g[..., :n_blocks].mean(axis=2, keepdims=True),
                                            0, layout.steps)
        rows = rows.reshape(-1, n_nodes)
        if len(rows) > n_nodes:
            major = work[rows.size:2 * rows.size].reshape(n_nodes, -1)
            np.copyto(major, rows.T)
            rows = major.T
        stats.add(lo, rows, means[periods, s0:s1].ravel())
    cut = None
    if sched.cut is not None:  # from the tail's last row, the walk's last
        length, idle, pulsed = sched.cut
        x = rows[-1] if sched.tail else solver.net.modes.from_modal(starts[-1]) + temps0
        p = stalled if idle else active
        cut = solver.step(x, p + pulse if pulsed else p, length)
        stats.add(len(sched.times) - 2, cut[None], cut[None, :n_blocks].mean(axis=1))

    def form() -> np.ndarray:
        trace = np.empty((len(sched.times), n_nodes))
        trace[:1 + sched.head] = temps0
        for _ in node_blocks(0, lambda lo, shape: trace[
                1 + lo:1 + lo + shape[0] * shape[1]].reshape(shape)):
            pass
        if cut is not None:
            trace[-1] = cut
        return trace

    return stats.result(), form


def _steady_states(solver: TransientSolver, cfg: ScenarioConfig, mapping: Mapping,
                   mplan: MigrationPlan, events: int):
    """((idle, pulse, last active power), z_idle, z_pulse, actives): modal
    steady states of the idle and pulse powers and of the active power after
    each event (which executes the plan once and scatters the power through
    its targets), in one solve of one stack; idle and active relative to
    the baseline's, small, so rounding stays small. actives is allocated
    first and the stack freed on return: held through the march, it raised
    a 32x32 run's peak RSS by ~0.4 MB and made glibc trim and refault its
    heap after every run."""
    actives = np.empty((events, cfg.grid.n_cells + 1))
    powers = np.zeros((events + 3, cfg.grid.n_cells))
    powers[0] = idle_vector(cfg.profile, cfg.grid)
    moved = np.flatnonzero(mplan.targets != np.arange(cfg.grid.n_cells))
    powers[1, moved] = mplan.energy / (len(moved) * cfg.dt)
    powers[2] = power_vector(mapping, cfg.profile)
    for k in range(3, len(powers)):
        mapping = execute(mapping, mplan)
        powers[k][mplan.targets] = powers[k - 1]
    z = thermal._modal_steady_state(solver.net, powers)
    return powers[[0, 1, -1]], z[0] - z[2], z[1].copy(), np.subtract(z[3:], z[2], out=actives)


def _start(cfg: ScenarioConfig, net):
    """(initial placement, its steady state, solver): what every run of one
    configuration starts from. The steady state is the static baseline,
    solved once by steady_state() for all the configuration's runs."""
    mapping = _resolve_initial_mapping(cfg, net)
    return (mapping, steady_state(net, power_vector(mapping, cfg.profile)),
            TransientSolver(net, cfg.dt))


def _resolve_initial_mapping(cfg: ScenarioConfig, net) -> Mapping:
    if isinstance(cfg.initial_mapping, Mapping):
        return cfg.initial_mapping
    if cfg.initial_mapping == "identity":
        return identity_mapping(cfg.grid)
    return place(cfg.profile, cfg.grid, net, cfg.anneal)


def _plan(cfg: ScenarioConfig) -> MigrationPlan | None:
    """The plan of every event of a run, or None when nothing ever moves."""
    if cfg.migration_fn.kind == "identity":
        return None
    mplan = plan(cfg.migration_fn, cfg.grid, cfg.cost)
    return mplan if mplan.total_hops else None  # e.g. zero-offset translation


def _simulate(cfg: ScenarioConfig, mplan: MigrationPlan | None, layouts: dict,
              mapping0: Mapping, baseline: ThermalState, solver: TransientSolver
              ) -> tuple[RunSummary, Trace]:
    """The migrated run of a validated cfg against its static baseline.

    Its schedule and its period's layout (TransientSolver.layout) depend in
    a sweep only on the period and the plan's downtime, or on nothing
    without a plan, whose run is its head. layouts holds two slots, keyed
    by whether there is no plan: the no-plan schedule, laid out once, and
    one period layout at a time. Each holds (key, schedule, layout),
    read-only, and is laid out again only for another key. A refused
    schedule is not kept, so it is refused again for every run of its key.
    The layout is built on its first use, after that run's steady states,
    so a run without events lays out none."""
    key = None if mplan is None else (cfg.period, mplan.downtime)
    held = layouts.get(mplan is None)
    if held is None or held[0] != key:
        sched = _schedule(cfg, mplan)
        runs = [(count, length, not idle) for length, idle, _, count in sched.body]
        held = layouts[mplan is None] = (key, sched, cache(partial(solver.layout, runs)))
    _, sched, layout = held
    events = sched.events
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        (mig_peak, time_avg, spread), form = _march(solver, cfg, mapping0, baseline.temps,
                                                    mplan, sched, layout)
    base_peak = peak(baseline)

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
    if not all(map(math.isfinite, vars(summary).values())):  # its fields, not copied
        raise ConfigurationError(
            "the run's statistics are not finite in float64: check the [thermal] ambient_c "
            "and the [profile] powers")
    return summary, Trace(sched.times, form)


def _check_trace_size(cfg: ScenarioConfig) -> None:
    """Refuse a traced run whose steps x nodes may exceed _TRACE_VALUES, from
    _max_steps before anything is built or laid out: any function but the
    identity counts as migrating, also one that moves nothing."""
    steps, nodes = _max_steps(cfg, cfg.migration_fn.kind != "identity"), cfg.grid.n_cells + 1
    if steps * nodes > _TRACE_VALUES:
        raise ConfigurationError(
            f"a traced run of {steps:.0f} steps x {nodes} nodes exceeds the limit of "
            f"{_TRACE_VALUES} values (1 GiB of float64); shorten duration_us, raise "
            f"dt_us or run a sweep, which keeps no trace")


def run(cfg: ScenarioConfig) -> tuple[RunSummary, Trace]:
    """Simulate one scenario (migrated run against the static baseline)."""
    cfg.validate()
    _check_trace_size(cfg)
    return _simulate(cfg, _plan(cfg), {}, *_start(cfg, build_network(cfg.grid, cfg.thermal)))


def sweep(base: ScenarioConfig, functions: Sequence[MigrationFunction],
          periods: Sequence[float]) -> list[SweepCell]:
    """Cross product of runs in (function, period) input order.

    The network, an "auto" placement, the baseline and the solver are built
    once and shared by every cell, which keeps no trace; each distinct
    function is planned once. The cells run period by period, so the cells
    of one period whose plans stall as long follow one another and share,
    read-only, one schedule and period layout (_simulate), laid out once;
    one period layout is held at a time, and beside it the schedule of the
    runs without a plan, held for the whole sweep. A failing cell records
    its error instead of aborting the sweep; a failing placement is
    recorded in every cell. Nothing is kept from one sweep to the next.
    """
    functions = list(functions)
    periods = list(periods)
    if not functions or not periods:
        raise ConfigurationError("sweep needs at least one function and one period")
    net = build_network(base.grid, base.thermal)
    if base.initial_mapping == "auto":
        # the placement depends on neither the function nor the period
        try:
            mapping = _resolve_initial_mapping(base, net)
        except HotmeshError as exc:
            return [SweepCell(base.name, fn, period, None, str(exc))
                    for fn in functions for period in periods]
        base = replace(base, initial_mapping=mapping)
    start = None
    plans: dict[MigrationFunction, MigrationPlan | None] = {}
    layouts: dict = {}
    rows: list = [None] * (len(functions) * len(periods))
    for j, period in enumerate(periods):
        for i, fn in enumerate(functions):
            try:
                cell_cfg = replace(base, migration_fn=fn, period=period)
                cell_cfg.validate()
                if start is None:  # the same for every cell: built on the first valid one
                    start = _start(cell_cfg, net)
                if fn not in plans:  # depends on neither the period nor the power
                    plans[fn] = _plan(cell_cfg)
                summary, _ = _simulate(cell_cfg, plans[fn], layouts, *start)
                rows[i * len(periods) + j] = SweepCell(base.name, fn, period, summary, None)
            except HotmeshError as exc:
                rows[i * len(periods) + j] = SweepCell(base.name, fn, period, None, str(exc))
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
