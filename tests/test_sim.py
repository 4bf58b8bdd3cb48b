import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hotmesh.grid
import hotmesh.migration
import hotmesh.placement
import hotmesh.sim
import hotmesh.thermal
from dense_oracle import reference_capacitance
from hotmesh.errors import ConfigurationError, ModelError
from hotmesh.grid import (PowerProfile, generate_warm_band, idle_vector, identity_mapping,
                          make_grid, power_vector)
from hotmesh.migration import MigrationCostParams, execute, plan
from hotmesh.placement import AnnealConfig
from hotmesh.scenario import ScenarioConfig, load_scenario
from hotmesh.sim import RunSummary, SweepCell, report, run, summarize, sweep
from hotmesh.thermal import (ThermalNetwork, TransientSolver, build_network, peak,
                             spatial_spread, steady_state)
from hotmesh.transforms import (IDENTITY, KINDS, MIRROR_XY, ROTATION, MigrationFunction,
                                apply, translate_x, translate_xy)
from dataclasses import replace
from pathlib import Path
from sequential_oracle import sequential_run, walk_segment

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def band_cfg(**overrides):
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="band4", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=translate_xy(1, 1),
                         period=109e-6, sim_duration=8e-3, dt=1e-6, warmup=4e-3,
                         anneal=AnnealConfig(seed=1))
    return replace(cfg, **overrides) if overrides else cfg


def test_identity_migration_changes_nothing():
    summary, trace = run(band_cfg(migration_fn=IDENTITY))
    assert summary.peak_reduction == 0.0
    assert summary.throughput_penalty == 0.0
    assert summary.migration_count == 0
    assert summary.total_migration_energy == 0.0
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(8e-3)


def test_zero_offset_translation_is_a_null_migration():
    summary, _ = run(band_cfg(migration_fn=translate_x(0)))
    assert summary.peak_reduction == 0.0
    assert summary.migration_count == 0
    assert summary.throughput_penalty == 0.0


def test_baseline_matches_initial_steady_state():
    cfg = band_cfg(migration_fn=IDENTITY, sim_duration=2e-3, warmup=1e-3)
    net = build_network(cfg.grid, cfg.thermal)
    ss = steady_state(net, power_vector(cfg.initial_mapping, cfg.profile))
    summary, _ = run(cfg)
    assert summary.peak_static_baseline == peak(ss)
    assert summary.peak_overall == pytest.approx(peak(ss), abs=1e-4)


def count_solves(monkeypatch):
    """The shapes of the powers of every steady-state solve from here on."""
    calls = []
    solve = hotmesh.thermal._modal_steady_state

    def counted(net, powers):
        calls.append(np.shape(powers))
        return solve(net, powers)

    monkeypatch.setattr(hotmesh.thermal, "_modal_steady_state", counted)
    return calls


def test_baseline_is_solved_once(monkeypatch):
    # the baseline and the identity run's x_ss are one steady-state solve
    calls = count_solves(monkeypatch)
    cfg = band_cfg(migration_fn=IDENTITY, sim_duration=1e-3, warmup=0.5e-3)
    summary, trace = run(cfg)
    assert calls == [(16,)]
    assert summary.peak_reduction == 0.0
    assert np.array_equal(trace.temps[-1], trace.temps[0])


@pytest.mark.parametrize("duration,events", [(0.2e-3, 1), (1e-3, 9), (8e-3, 73)])
def test_a_migrating_run_makes_three_steady_state_solves(monkeypatch, duration, events):
    # the baseline, one stack of the idle, pulse and initial powers and of
    # every event's active power, and the step the run's end cuts short:
    # three solves whatever the event count
    calls = count_solves(monkeypatch)
    summary, _ = run(band_cfg(sim_duration=duration, warmup=duration / 2))
    assert summary.migration_count == events
    assert calls == [(16,), (events + 3, 16), (16,)]


def test_trace_steps_end_on_every_breakpoint():
    cfg = band_cfg()
    summary, trace = run(cfg)
    # 8 ms of 1 us steps plus one extra step for each of the 73 events: the
    # 1.744 us stall end does not fall on the 1 us grid
    assert len(trace.times) - 1 == 8073
    assert summary.migration_count == 73
    from hotmesh.migration import plan
    downtime = plan(cfg.migration_fn, cfg.grid, cfg.cost).downtime
    for k in range(1, 74):
        event = k * cfg.period
        for instant in (event, event + downtime, event + cfg.dt):
            assert np.min(np.abs(trace.times - instant)) <= 1e-12, (k, instant)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 60.0), st.sampled_from([1e-6, 0.7e-6, 1.3e-7]), st.floats(0.0, 5.0),
       st.sampled_from([0.0, 1.0, 2.5]))
@example(32000.0, 1e-6, 0.0, 0.0)    # an identity run of a shipped scenario
@example(109.0, 1e-6, 1.744, 1.0)    # a shipped period
@example(40.0, 1e-6, 3.0, 1.0)       # stall end on the accumulated grid
@example(40.0, 1e-6, 1.0005, 1.0)    # stall end 0.5 ns after the pulse end
@example(17.0000004, 1e-6, 2.0, 1.0)  # an end 0.4 ns past the grid
@example(0.0000004, 1e-6, 0.0, 0.0)  # no step at all
def test_segment_layout_matches_the_step_by_step_walk(length, dt, stall, pulse):
    # durations, downtimes and pulse ends off the dt grid, on it, and within
    # the layout tolerance of it: the same runs and the same step ends, bit
    # for bit, as the walk that adds dt one step at a time
    args = (length * dt, dt, stall * dt, pulse * dt)
    runs, ends = hotmesh.sim._segment(*args)
    want_runs, want_ends = walk_segment(*args)
    assert runs == want_runs
    assert ends.tobytes() == want_ends.tobytes()


def tail_case(period_us, duration_us, downtime_us):
    """A template_cases case: mirror_xy on a 3x2 mesh at dt = 1 us, the heat
    pulse deposited, statistics over the whole run."""
    grid = make_grid(3, 2)
    cfg = ScenarioConfig(
        name="tail", grid=grid,
        profile=PowerProfile(dict(enumerate(np.linspace(0.2, 1.9, 6).round(3)))),
        initial_mapping=identity_mapping(grid), migration_fn=MIRROR_XY,
        period=period_us * 1e-6, sim_duration=duration_us * 1e-6, dt=1e-6, warmup=0.0,
        cost=MigrationCostParams(e_bit_hop=1e-9, downtime_fixed=downtime_us * 1e-6))
    return cfg, hotmesh.sim._MARCH_ELEMENTS


# (period, duration, downtime) in us: (events, tail steps taken from the
# template, the cut step's (stalled, pulsed) or None when none is cut)
TAIL_CASES = {
    "shorter than dt: cut at the event": ((10.0, 30.4, 1.744), (3, 0, (True, True))),
    "ends inside the stall": ((10.0, 32.2, 2.5), (3, 2, (True, False))),
    "exactly one period": ((10.0, 40.0, 1.5), (3, 11, None)),
    "a single event": ((7.3, 12.4, 1.744), (1, 5, (False, False))),
    "0.4 ns past a step end": ((10.0, 32.7444, 1.744), (3, 3, None)),
    "0.4 ns short of a step end": ((10.0, 32.7436, 1.744), (3, 2, (False, False))),
}


@pytest.mark.parametrize("times_us,want", TAIL_CASES.values(), ids=TAIL_CASES.keys())
def test_the_tail_is_the_start_of_one_more_period(times_us, want):
    # the tail's steps end where the period's first steps do, bit for bit,
    # but for the step the run's end cuts short
    cfg, _ = tail_case(*times_us)
    sched = hotmesh.sim._schedule(cfg, hotmesh.sim._plan(cfg))
    events, tail, cut = want
    assert (sched.events, sched.tail) == (events, tail)
    assert (sched.cut if sched.cut is None else sched.cut[1:]) == cut
    _, body_ends = walk_segment(cfg.period, cfg.dt, times_us[2] * 1e-6, cfg.dt)
    assert sum(run[3] for run in sched.body) == len(body_ends) >= tail
    tail_ends = sched.times[len(sched.times) - tail - (cut is not None):][:tail]
    assert np.array_equal(tail_ends, events * cfg.period + body_ends[:tail])
    assert sched.times[-1] == pytest.approx(cfg.sim_duration, abs=1e-9)


def test_run_marches_from_the_template_but_for_one_lone_step(monkeypatch):
    # no second march path: a shipped run makes no march call and one
    # step call, for the 0.256 us step its end cuts short (32000 us is 293
    # periods of 109 us, then 63 us, against the 62.744 us of a period's
    # steps after its 1.744 us stall)
    calls, inside = [], []

    def counted(name, real):
        def wrapper(self, *args, **kwargs):
            if not inside:  # step's own march is part of the step
                calls.append(name)
            inside.append(name)
            try:
                return real(self, *args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    for name in ("march", "step"):
        monkeypatch.setattr(TransientSolver, name, counted(name, getattr(TransientSolver, name)))
    for path in sorted(SCENARIOS.glob("*.ini")):
        calls.clear()
        run(load_scenario(path))
        assert calls == ["step"], path.name


def test_online_window_statistics_match_the_full_trace():
    # the statistics are accumulated block by block; recompute them from the
    # returned trace over the steps that end after warm-up. The trace's rows
    # are formed by the same walk, so the peak and spread are the same bits;
    # the mean is summed in another order
    for cfg in (band_cfg(), band_cfg(migration_fn=ROTATION, warmup=0.0, sim_duration=2e-3),
                band_cfg(migration_fn=IDENTITY, warmup=1.2345e-3, sim_duration=2e-3)):
        summary, trace = run(cfg)
        window = int(np.searchsorted(trace.times[1:], cfg.effective_warmup + 1e-9,
                                     side="right"))
        w = np.diff(trace.times)[window:]
        blocks = trace.temps[1 + window:, :cfg.grid.n_cells]
        assert summary.peak_overall == blocks.max()
        assert abs(summary.time_avg_mean_temp
                   - (blocks.mean(axis=1) * w).sum() / w.sum()) <= 1e-12
        assert summary.max_spatial_spread == (blocks.max(axis=1) - blocks.min(axis=1)).max()


def test_warmup_that_leaves_no_step_is_a_configuration_error():
    # valid to validate() (warmup < duration) but within the step-layout
    # tolerance of the end: no step ends after warm-up
    for fn in (translate_xy(1, 1), IDENTITY):
        with pytest.raises(ConfigurationError):
            run(band_cfg(migration_fn=fn, sim_duration=1e-3, warmup=1e-3 - 1e-10))


def test_translate_xy_reduces_peak_and_spread_on_the_band():
    cfg = band_cfg()
    summary, _ = run(cfg)
    assert summary.peak_reduction > 0.5
    net = build_network(cfg.grid, cfg.thermal)
    ss = steady_state(net, power_vector(cfg.initial_mapping, cfg.profile))
    assert summary.max_spatial_spread < spatial_spread(ss)
    assert summary.throughput_penalty == pytest.approx(0.016, abs=5e-5)


def test_migration_events_and_energy_accounting():
    cfg = band_cfg(sim_duration=1e-3, warmup=0.2e-3)
    summary, _ = run(cfg)
    # events at k * 109 us strictly inside 1 ms: k = 1..9
    assert summary.migration_count == 9
    from hotmesh.migration import plan
    p = plan(cfg.migration_fn, cfg.grid, cfg.cost)
    assert summary.total_migration_energy == pytest.approx(9 * p.energy)

    exact = band_cfg(sim_duration=4 * 109e-6, warmup=109e-6)
    s2, _ = run(exact)
    assert s2.migration_count == 3  # the event at t = duration never fires


def test_penalty_decreases_with_period():
    cfg = band_cfg(sim_duration=2e-3, warmup=0.5e-3)
    penalties = []
    for period in (109e-6, 437.2e-6, 874.4e-6):
        s, _ = run(replace(cfg, period=period))
        penalties.append(s.throughput_penalty)
    assert penalties[0] > penalties[1] > penalties[2]
    assert penalties[0] == pytest.approx(0.016, abs=5e-5)
    assert penalties[1] * 100 == pytest.approx(0.399, abs=5e-3)
    assert penalties[2] * 100 == pytest.approx(0.199, abs=5e-3)


def test_energy_deposition_never_cools():
    hot_cost = MigrationCostParams(e_bit_hop=1e-9)  # inflated to make heat visible
    base = band_cfg(cost=hot_cost, sim_duration=3e-3, warmup=1e-3)
    on, _ = run(base)
    off, _ = run(replace(base, deposit_migration_energy=False))
    assert on.time_avg_mean_temp >= off.time_avg_mean_temp
    assert on.time_avg_mean_temp > off.time_avg_mean_temp + 1e-4


def test_run_with_auto_placement():
    cfg = band_cfg(initial_mapping="auto", sim_duration=1e-3, warmup=0.3e-3,
                   anneal=AnnealConfig(iterations=300, seed=4))
    summary, _ = run(cfg)
    # annealed start scatters the band, so the baseline peak drops below the
    # band-intact steady state
    net = build_network(cfg.grid, cfg.thermal)
    profile, mapping = generate_warm_band(cfg.grid, 0.5, 2.0, 1)
    band_peak = peak(steady_state(net, power_vector(mapping, profile)))
    assert summary.peak_static_baseline < band_peak


def test_run_is_deterministic():
    cfg = band_cfg(sim_duration=2e-3, warmup=0.5e-3)
    s1, t1 = run(cfg)
    s2, t2 = run(cfg)
    assert s1 == s2
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.temps, t2.temps)


def test_sweep_single_cell_equals_run():
    cfg = band_cfg(sim_duration=1e-3, warmup=0.3e-3)
    rows = sweep(cfg, [cfg.migration_fn], [cfg.period])
    assert len(rows) == 1
    direct, _ = run(cfg)
    assert rows[0].summary == direct
    assert rows[0].error is None


def test_sweep_anneals_once_and_cells_equal_runs(monkeypatch):
    cfg = band_cfg(initial_mapping="auto", sim_duration=1e-3, warmup=0.3e-3,
                   anneal=AnnealConfig(iterations=300, seed=4))
    calls = {"place": 0, "anneal": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    real_place = hotmesh.sim.place
    monkeypatch.setattr(hotmesh.sim, "place", counting("place", real_place))
    monkeypatch.setattr(hotmesh.placement, "anneal",
                        counting("anneal", hotmesh.placement.anneal))
    rows = sweep(cfg, [translate_xy(1, 1), ROTATION], [109e-6, 218e-6])
    assert calls == {"place": 1, "anneal": 1}
    monkeypatch.undo()
    mapping = real_place(cfg.profile, cfg.grid, build_network(cfg.grid, cfg.thermal),
                         cfg.anneal)
    for row in rows:
        direct, _ = run(replace(cfg, migration_fn=row.fn, period=row.period,
                                initial_mapping=mapping))
        assert row.error is None
        assert row.summary == direct


def test_sweep_plans_once_per_distinct_function(monkeypatch):
    cfg = band_cfg(sim_duration=1e-3, warmup=0.3e-3)
    planned = []

    def counted(fn, grid, params):
        planned.append(fn)
        return real_plan(fn, grid, params)

    real_plan = hotmesh.sim.plan
    monkeypatch.setattr(hotmesh.sim, "plan", counted)
    functions = [translate_xy(1, 1), MIRROR_XY, translate_xy(1, 1), IDENTITY]
    rows = sweep(cfg, functions, [109e-6, 218e-6, 437.2e-6])
    assert planned == [translate_xy(1, 1), MIRROR_XY]
    monkeypatch.undo()
    for row in rows:
        direct, _ = run(replace(cfg, migration_fn=row.fn, period=row.period))
        assert row.summary == direct


def test_default_timing_runs_never_pack_phases(monkeypatch):
    # a run reads the plan's closed-form hops and energy, its constant
    # downtime and its inverse permutation, never the phase schedule
    def refuse(*args):
        raise AssertionError("phases packed on the run path")

    monkeypatch.setattr(hotmesh.migration, "_pack_phases", refuse)
    for path in sorted(SCENARIOS.glob("*.ini")):
        summary, _ = run(load_scenario(path))
        assert summary.migration_count > 0, path.name
    rows = sweep(band_cfg(sim_duration=1e-3, warmup=0.3e-3),
                 [translate_xy(1, 1), ROTATION, MIRROR_XY], [109e-6, 218e-6])
    assert all(row.error is None and row.summary.total_migration_energy > 0 for row in rows)


def test_runs_and_sweeps_never_build_a_placements_assignment(monkeypatch):
    # a placement is its index arrays: loading, placing, executing and
    # taking power vectors reads no workload -> Coord dict
    def forbidden(self):
        raise AssertionError("built a Mapping's assignment")

    monkeypatch.setattr(hotmesh.grid.Mapping, "assignment", property(forbidden))
    for path in sorted(SCENARIOS.glob("*.ini")):
        run(load_scenario(path))
    cfg = band_cfg(initial_mapping="auto", sim_duration=1e-3, warmup=0.5e-3,
                   anneal=AnnealConfig(iterations=50, seed=3))
    assert all(cell.error is None for cell in sweep(cfg, [ROTATION, MIRROR_XY], [109e-6]))


def test_run_makes_no_dense_linear_algebra_on_the_network(monkeypatch):
    # The modal basis is closed form: a run or an annealed placement
    # factors, inverts or decomposes nothing larger than 2x2, so no O(n^3)
    # work on the n-node network, and the dense (n+1)^2 G does not exist.
    assert not hasattr(ThermalNetwork, "conductance")
    shapes = []

    def recording(fn):
        def recorded(*args, **kwargs):
            shapes.extend(np.shape(a) for a in (*args, *kwargs.values())
                          if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return recorded

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recording(fn))
    np.linalg.solve(np.eye(3), np.ones(3))
    assert shapes == [(3, 3), (3,)]  # the recorder sees calls
    shapes.clear()
    grid = make_grid(16, 16)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 5)
    cfg = ScenarioConfig(name="band16", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=ROTATION,
                         period=109e-6, sim_duration=0.5e-3, dt=1e-6)
    summary, _ = run(cfg)
    assert summary.migration_count == 4
    assert all(max(shape, default=0) <= 2 for shape in shapes), shapes
    # the placement baseline: anneal once, then run two cells
    placed = replace(cfg, initial_mapping="auto", anneal=AnnealConfig(iterations=200, seed=3))
    rows = sweep(placed, [ROTATION, MIRROR_XY], [109e-6])
    assert [row.error for row in rows] == [None, None]
    assert all(max(shape, default=0) <= 2 for shape in shapes), shapes


def test_sweep_records_a_failed_placement_in_every_cell(monkeypatch):
    def fail(*args):
        raise ModelError("placement failed")

    monkeypatch.setattr(hotmesh.sim, "place", fail)
    cfg = band_cfg(initial_mapping="auto", sim_duration=1e-3, warmup=0.3e-3)
    rows = sweep(cfg, [translate_xy(1, 1), ROTATION], [109e-6, 218e-6])
    assert [(r.fn, r.period) for r in rows] == [
        (fn, p) for fn in (translate_xy(1, 1), ROTATION) for p in (109e-6, 218e-6)]
    assert all(r.summary is None and r.error == "placement failed" for r in rows)


def test_sweep_cross_product_order_and_errors():
    cfg = band_cfg(sim_duration=1e-3, warmup=0.3e-3)
    fns = [translate_xy(1, 1), ROTATION]
    periods = [109e-6, -1.0]
    rows = sweep(cfg, fns, periods)
    assert [(r.fn, r.period) for r in rows] == [
        (fns[0], periods[0]), (fns[0], periods[1]),
        (fns[1], periods[0]), (fns[1], periods[1])]
    assert rows[0].error is None and rows[2].error is None
    assert rows[1].summary is None and "period" in rows[1].error
    assert rows[3].summary is None
    with pytest.raises(ConfigurationError):
        sweep(cfg, [], [109e-6])


def test_report_golden_format(tmp_path):
    s = RunSummary(peak_overall=47.125, peak_static_baseline=48.5,
                   peak_reduction=1.375, time_avg_mean_temp=45.0,
                   max_spatial_spread=2.25, throughput_penalty=0.016,
                   migration_count=73, total_migration_energy=2.5e-07)
    rows = [SweepCell("demo", translate_xy(1, 1), 109e-6, s, None),
            SweepCell("demo", ROTATION, 437.2e-6, None, "rotation needs a square mesh")]
    text = report(rows, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == ("scenario,fn,period_us,peak_c,baseline_peak_c,"
                        "peak_reduction_c,time_avg_mean_c,max_spread_c,"
                        "penalty_pct,migrations,energy_j,error")
    assert lines[1] == ("demo,translate_xy:1:1,109.0,47.125000,48.500000,"
                        "1.375000,45.000000,2.250000,1.600000,73,2.500000e-07,")
    assert lines[2] == ("demo,rotation,437.2,,,,,,,,,"
                        "rotation needs a square mesh")
    assert "best fn=translate_xy:1:1" in text
    assert "failed: rotation needs a square mesh" in text


def test_report_row_count_matches_sweep(tmp_path):
    cfg = band_cfg(sim_duration=0.5e-3, warmup=0.1e-3)
    rows = sweep(cfg, [translate_xy(1, 1), translate_x(1)], [109e-6, 218e-6])
    report(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    with pytest.raises(ConfigurationError):
        report([], tmp_path / "empty.csv")


def test_sweep_csv_is_byte_identical_across_repeats(tmp_path):
    cfg = band_cfg(sim_duration=1e-3, warmup=0.3e-3)
    fns = [translate_xy(1, 1), ROTATION]
    periods = [109e-6, 218e-6]
    report(sweep(cfg, fns, periods), tmp_path / "a.csv")
    report(sweep(cfg, fns, periods), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_summarize_names_best_function():
    mk = lambda red: RunSummary(45.0 - red, 45.0, red, 43.0, 1.0, 0.016, 9, 1e-9)
    rows = [SweepCell("s", translate_x(1), 109e-6, mk(0.1), None),
            SweepCell("s", translate_xy(1, 1), 109e-6, mk(1.4), None)]
    assert "best fn=translate_xy:1:1" in summarize(rows)


@st.composite
def template_cases(draw):
    """Small random runs: any function on a 2-6 mesh, periods and downtimes
    off the dt grid, deposit on or off, warm-ups anywhere (also mid-period)
    and durations whose tail cuts a step; a small block bound splits the
    node rows of one period as well as batching many."""
    grid = make_grid(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    fn = MigrationFunction(draw(st.sampled_from(KINDS)), draw(st.integers(-3, 3)),
                           draw(st.integers(-3, 3)))
    if fn.kind == "rotation" and grid.nx != grid.ny:
        fn = MIRROR_XY
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    powers = dict(enumerate(rng.uniform(0.0, 2.0, grid.n_cells).round(3)))
    dt = draw(st.sampled_from([1e-6, 0.7e-6]))
    period = draw(st.floats(2.5, 40.0)) * dt
    duration = period * draw(st.floats(1.0, 12.0))
    cfg = ScenarioConfig(
        name="random", grid=grid, profile=PowerProfile(powers),
        initial_mapping=identity_mapping(grid), migration_fn=fn, period=period,
        sim_duration=duration, dt=dt, warmup=duration * draw(st.floats(0.0, 0.9)),
        deposit_migration_energy=draw(st.booleans()),
        cost=MigrationCostParams(e_bit_hop=1e-9,
                                 downtime_fixed=draw(st.floats(0.0, 3.0)) * dt))
    return cfg, draw(st.sampled_from([1 << 6, 1 << 9, hotmesh.sim._MARCH_ELEMENTS]))


@settings(max_examples=60, deadline=None)
@given(template_cases())
@example(tail_case(10.0, 30.4, 1.744))    # a tail shorter than dt: cut at the event
@example(tail_case(10.0, 32.2, 2.5))      # a tail that ends inside the stall
@example(tail_case(10.0, 40.0, 1.5))      # a tail of exactly one period: nothing cut
@example(tail_case(7.3, 12.4, 1.744))     # a single event: no full period
@example(tail_case(10.0, 10.4, 1.744))    # a single event, cut at it: no block at all
# statistics of the cut step alone, after a tail of no steps
@example((replace(tail_case(10.0, 30.4, 1.744)[0], warmup=30e-6), 1 << 15))
@example(tail_case(10.0, 32.7444, 1.744))  # a run end 0.4 ns past a period's step end
@example(tail_case(10.0, 32.7436, 1.744))  # and 0.4 ns short of one
@example(tail_case(2.0, 9.0, 2.5))        # a downtime longer than the period
@example((band_cfg(period=1.01e-6, sim_duration=1e-3, warmup=None,  # 2 970 steps, 1 000 of dt
                  cost=MigrationCostParams(downtime_fixed=0.5e-6)), 0))
def test_template_march_matches_the_sequential_march(case):
    cfg, block = case
    mplan = hotmesh.sim._plan(cfg)
    if mplan is not None and mplan.downtime >= cfg.period:  # the PEs never compute
        with pytest.raises(ConfigurationError, match="downtime"):
            run(cfg)
        (cell,) = sweep(cfg, [cfg.migration_fn], [cfg.period])
        assert cell.summary is None and "downtime" in cell.error
        return
    try:
        expected, oracle_trace = sequential_run(cfg)
    except ConfigurationError:  # a warm-up within the layout tolerance of the end
        with pytest.raises(ConfigurationError):
            run(cfg)
        return
    with mock.patch.object(hotmesh.sim, "_MARCH_ELEMENTS", block):
        summary, trace = run(cfg)
        (cell,) = sweep(cfg, [cfg.migration_fn], [cfg.period])
    assert np.array_equal(trace.times, oracle_trace.times)
    assert np.abs(trace.temps - oracle_trace.temps).max() <= 1e-9
    assert cell.summary == summary  # however differently their rows are grouped
    assert summary.migration_count == expected.migration_count
    # at most ceil(sim_duration / dt) steps and three per event
    assert len(trace.times) - 1 <= hotmesh.sim._max_steps(cfg, mplan is not None)
    assert np.allclose(astuple(summary), astuple(expected), rtol=0.0, atol=1e-9)
    if expected.migration_count == 0:
        assert summary.peak_reduction == 0.0


def test_migrated_trace_conserves_energy_row_to_row():
    # Per step of a migrated run: sum C (T' - T) / h + heat to ambient =
    # sum P of the step's power: stalled at idle, plus the pulse on the
    # source PEs in its first dt, else the active power after the k-th
    # event. The allowance of test_transient_step_conserves_energy, one ulp
    # per node weighted by C / h, is charged for both stored rows: a trace
    # row is rounded on its own, not the exact start of the next step.
    for fn, period in ((translate_xy(1, 1), 109e-6), (ROTATION, 37.3e-6), (MIRROR_XY, 50e-6)):
        cfg = band_cfg(migration_fn=fn, period=period, sim_duration=1.5e-3, warmup=0.5e-3,
                       cost=MigrationCostParams(e_bit_hop=1e-9))
        summary, trace = run(cfg)
        mplan = plan(cfg.migration_fn, cfg.grid, cfg.cost)
        net = build_network(cfg.grid, cfg.thermal)
        c = reference_capacitance(cfg.grid, cfg.thermal)
        stalled = idle_vector(cfg.profile, cfg.grid)
        pulse = np.zeros(cfg.grid.n_cells)
        sources = [cfg.grid.index(cell) for cell in cfg.grid.cells()
                   if apply(cfg.migration_fn, cell, cfg.grid) != cell]
        pulse[sources] = mplan.energy / (len(sources) * cfg.dt)
        mapping, actives = cfg.initial_mapping, [power_vector(cfg.initial_mapping, cfg.profile)]
        for _ in range(summary.migration_count):
            mapping = execute(mapping, mplan)
            actives.append(power_vector(mapping, cfg.profile))
        assert summary.migration_count >= 13
        for old, new, t0, t1 in zip(trace.temps[:-1], trace.temps[1:],
                                    trace.times[:-1], trace.times[1:]):
            k = math.floor((t0 + 1e-12) / period)  # events fired by the step's start
            since = t0 - k * period
            p = stalled if k and since < mplan.downtime - 1e-12 else actives[k]
            if k and since < cfg.dt - 1e-12:
                p = p + pulse
            h = t1 - t0
            balance = (c / h * (new - old)).sum() + net.g_amb * (new[-1] - net.ambient)
            rounding = (c / h * (np.spacing(old) + np.spacing(new))).sum()
            assert abs(balance - p.sum()) <= 1e-9 * p.sum() + rounding, (fn, t0)


def test_node_rows_are_formed_in_bounded_blocks(monkeypatch):
    # no modal copy of the whole trace: every block of rows turned into node
    # temperatures holds at most _MARCH_ELEMENTS values, also the blocks
    # before warm-up that the first read of the trace forms
    sizes = []
    real_nodes = hotmesh.thermal.TransientSolver.nodes

    def recorded(self, z, origin, out=None):
        sizes.append(np.size(z))
        return real_nodes(self, z, origin, out)

    monkeypatch.setattr(hotmesh.thermal.TransientSolver, "nodes", recorded)
    monkeypatch.setattr(hotmesh.sim, "_MARCH_ELEMENTS", 1 << 10)
    cfg = band_cfg(sim_duration=2e-3, warmup=1e-3)
    summary, trace = run(cfg)
    trace.temps
    (cell,) = sweep(cfg, [cfg.migration_fn], [cfg.period])
    assert cell.summary == summary
    assert len(sizes) > 2 * trace.temps.size // (1 << 10)
    assert max(sizes) <= 1 << 10


def _nodes_outs(monkeypatch):
    """Patch TransientSolver.nodes to record the out of every call (None
    when it has none), keeping each alive; return the record."""
    outs = []
    real_nodes = hotmesh.thermal.TransientSolver.nodes

    def recorded(self, z, origin, out=None):
        outs.append(out)
        return real_nodes(self, z, origin, out)

    monkeypatch.setattr(hotmesh.thermal.TransientSolver, "nodes", recorded)
    return outs


# warm-up (us) of a 2 ms band run: 18 events at 109 us, then a tail of
# 37.744 us of the period's steps and a cut step of 0.256 us
@pytest.mark.parametrize("block", [1 << 9, None])
@pytest.mark.parametrize("warmup_us", [0.0, 50.0, 1090.0, 1234.5, 1980.0, 1999.9])
def test_a_trace_forms_its_rows_before_warm_up_only_when_read(monkeypatch, warmup_us,
                                                              block):
    # and every other row too: run() forms no trace row, the first read forms
    # each row from the head's end to the tail's end once and writes the cut
    # step's row, and a second read forms nothing. Warm-up at 0, inside the
    # head, at an event, inside a period, in the tail and at the cut step;
    # with periods split into blocks and batched whole
    cfg = band_cfg(sim_duration=2e-3, warmup=warmup_us * 1e-6)
    if block is not None:
        monkeypatch.setattr(hotmesh.sim, "_MARCH_ELEMENTS", block)
    sched = hotmesh.sim._schedule(cfg, hotmesh.sim._plan(cfg))
    assert sched.events == 18 and sched.cut is not None
    expected, oracle_trace = sequential_run(cfg)
    outs = _nodes_outs(monkeypatch)
    cut_rows = []
    real_step = TransientSolver.step
    monkeypatch.setattr(TransientSolver, "step", lambda self, *args: cut_rows.append(
        real_step(self, *args)) or cut_rows[-1])
    summary, trace = run(cfg)
    in_run = len(outs)
    temps = trace.temps
    in_read = len(outs)
    assert trace.temps is temps and len(outs) == in_read  # a second read forms nothing
    assert not any(out is not None and np.shares_memory(out, temps) for out in outs[:in_run])
    times_formed = np.zeros(len(temps), dtype=int)
    for out in outs[in_run:]:
        assert np.shares_memory(out, temps)
        first = ((out.__array_interface__["data"][0] - temps.__array_interface__["data"][0])
                 // temps.strides[0])
        times_formed[first:first + len(out)] += 1
    cut = len(temps) - 1
    assert times_formed[1 + sched.head:cut].tolist() == [1] * (cut - 1 - sched.head)
    assert not times_formed[:1 + sched.head].any() and times_formed[cut] == 0
    assert len(cut_rows) == 1 and np.array_equal(temps[cut], cut_rows[0])
    assert np.array_equal(trace.times, oracle_trace.times)
    assert np.abs(temps - oracle_trace.temps).max() <= 1e-9
    assert np.allclose(astuple(summary), astuple(expected), rtol=0.0, atol=1e-9)


def test_the_summary_does_not_depend_on_how_the_blocks_are_stored(monkeypatch):
    # 17 nodes: blocks of 16 rows are stored row by row, blocks of one or
    # more whole periods of 110 steps node by node; the peak and spread are
    # exact either way, and every row's block mean is the same bits
    cfg = band_cfg(sim_duration=2e-3, warmup=0.5e-3)
    outs = _nodes_outs(monkeypatch)
    means = {}
    real_add = hotmesh.sim._Window.add

    def recorded(self, first, rows, row_means):
        means.update(zip(range(first, first + len(rows)), row_means.tolist()))
        return real_add(self, first, rows, row_means)

    monkeypatch.setattr(hotmesh.sim._Window, "add", recorded)
    summaries, row_means, node_major = [], [], []
    for block in (17 * 16, 17 * 110, hotmesh.sim._MARCH_ELEMENTS):
        monkeypatch.setattr(hotmesh.sim, "_MARCH_ELEMENTS", block)
        outs.clear()
        means.clear()
        summaries.append(run(cfg)[0])
        row_means.append(dict(means))
        node_major.append({out.strides[0] == out.itemsize for out in outs if out is not None})
    assert summaries[0] == summaries[1] == summaries[2]
    assert row_means[0] == row_means[1] == row_means[2]
    assert node_major == [{False}, {True}, {True}]


def test_the_summary_does_not_depend_on_when_the_trace_is_read():
    cfg = band_cfg(sim_duration=2e-3, warmup=1e-3)
    unread, _ = run(cfg)
    first, early = run(cfg)
    early_temps = early.temps.copy()
    second, late = run(cfg)
    run(band_cfg(migration_fn=ROTATION))  # another run in between
    assert unread == first == second
    assert np.array_equal(late.temps, early_temps)


def test_traced_runs_over_the_memory_limit_are_refused(monkeypatch):
    # steps x nodes from sim_duration / dt and three steps per event alone:
    # nothing is built or laid out, so a 128x128 mesh or a 1 ns step
    # allocates and loops over nothing
    def forbidden(*args):
        raise AssertionError("built or laid out before the size check")

    monkeypatch.setattr(hotmesh.sim, "build_network", forbidden)
    monkeypatch.setattr(hotmesh.sim, "_schedule", forbidden)
    big = make_grid(128, 128)
    profile, mapping = generate_warm_band(big, 0.5, 2.0, 1)
    wide = ScenarioConfig(name="big", grid=big, profile=profile, initial_mapping=mapping,
                          migration_fn=translate_xy(1, 1), period=109e-6,
                          sim_duration=32e-3, warmup=16e-3)
    fine = band_cfg(dt=1e-9, sim_duration=32e-3, warmup=16e-3)
    for cfg, text in ((wide, "32879 steps x 16385 nodes"), (fine, "32000879 steps x 17 nodes")):
        with pytest.raises(ConfigurationError, match=f"{text} exceeds the limit of 134217728"):
            run(cfg)
    # sweeps keep no trace and are not limited by its size; the largest benchmark trace
    # (32x32 for 2 ms, 2019 x 1025 values) is within the limit
    with pytest.raises(AssertionError, match="built or laid out"):
        sweep(fine, [fine.migration_fn], [fine.period])
    grid = make_grid(32, 32)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    hotmesh.sim._check_trace_size(ScenarioConfig(
        name="mesh", grid=grid, profile=profile, initial_mapping=mapping,
        migration_fn=ROTATION, period=109e-6, sim_duration=2e-3))


def test_a_sweep_cell_of_too_many_steps_is_an_error_row():
    # a 1e-9 us step: the cell is refused from sim_duration / dt, before any
    # step is laid out, and the sweep goes on
    fine = band_cfg(dt=1e-15)
    rows = sweep(fine, [translate_xy(1, 1)], [109e-6, 218e-6])
    assert [r.summary for r in rows] == [None, None]
    for row in rows:
        assert row.error == ("a run of 8000000000000 steps (sim_duration / dt, and up to 3 "
                             "more per migration) exceeds the limit of 134217728 steps")


@pytest.mark.filterwarnings("error")
def test_a_sweep_cell_whose_steady_state_overflows_is_an_error_row():
    # each input is in range but a product of them is not: a migration
    # energy of inf J fails the migrating cell alone, a band power whose
    # heat overflows fails every cell, and no numpy warning escapes
    costly = band_cfg(cost=MigrationCostParams(state_bits=1e300, e_bit_hop=1e10))
    hot = band_cfg(profile=generate_warm_band(make_grid(4, 4), 0.5, 1e306, 1)[0])
    for cfg, failed in ((costly, [False, True]), (hot, [True, True])):
        rows = sweep(cfg, [IDENTITY, ROTATION], [109e-6])
        assert [r.summary is None for r in rows] == failed
        for row in rows:
            assert row.error is None or "is not finite" in row.error


@pytest.mark.filterwarnings("error")
def test_statistics_that_overflow_are_refused():
    # each block is finite at an ambient of 1e308 deg C, but their sum is not:
    # once the run wrote a mean of inf and a numpy warning. A run and every
    # sweep cell are refused, migrating or not; 1e307 still sums
    hot = band_cfg(sim_duration=1e-3, warmup=0.5e-3)
    hot = replace(hot, thermal=replace(hot.thermal, ambient=1e308))
    with pytest.raises(ConfigurationError, match="statistics are not finite"):
        run(hot)
    rows = sweep(hot, [IDENTITY, ROTATION], [109e-6])
    assert [r.summary for r in rows] == [None, None]
    assert all("statistics are not finite" in r.error for r in rows)
    summary, _ = run(replace(hot, thermal=replace(hot.thermal, ambient=1e307)))
    assert all(map(math.isfinite, astuple(summary)))


def test_a_run_is_bounded_by_the_steps_its_events_cut(monkeypatch):
    # 100 000 steps of dt fit a traced 32x32 run, but 19 999 events at a 5 us
    # period may cut three more steps each: refused before anything is built,
    # laid out or allocated; the identity has no events and fits
    def forbidden(*args):
        raise AssertionError("built, laid out or allocated before the size check")

    grid = make_grid(32, 32)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="mesh", grid=grid, profile=profile, initial_mapping=mapping,
                         migration_fn=ROTATION, period=5e-6, sim_duration=100e-3)
    assert (cfg.sim_duration / cfg.dt) * grid.n_cells < hotmesh.sim._TRACE_VALUES
    hotmesh.sim._check_trace_size(replace(cfg, migration_fn=IDENTITY))
    with monkeypatch.context() as m:  # the trace is allocated after _schedule
        for name in ("build_network", "_schedule", "_plan"):
            m.setattr(hotmesh.sim, name, forbidden)
        with pytest.raises(ConfigurationError,
                           match="a traced run of 159997 steps x 1025 nodes exceeds"):
            run(cfg)
    # a sweep cell counts its events the same way, before laying out a step
    fine = band_cfg(dt=1e-9, sim_duration=100e-3, warmup=None)
    (cell,) = sweep(fine, [ROTATION], [1.01e-9])
    assert cell.error == ("a run of 397029700 steps (sim_duration / dt, and up to 3 more per "
                          "migration) exceeds the limit of 134217728 steps")


def test_a_migration_period_shorter_than_dt_is_refused():
    # each event's pulse is sized for a step of dt: a shorter period would
    # fit none, and the steps laid out would grow as dt / period
    for period in (0.99e-6, 0.1e-6, 0.01e-6):
        cfg = band_cfg(period=period, sim_duration=1e-3, warmup=None)
        with pytest.raises(ConfigurationError, match="shorter than the time step dt of 1 us"):
            run(cfg)
        run(replace(cfg, migration_fn=IDENTITY))  # nothing migrates: no period to refuse
    base = band_cfg(sim_duration=1e-3, warmup=None,
                    cost=MigrationCostParams(downtime_fixed=0.5e-6))
    (short, ok) = sweep(base, [ROTATION], [0.5e-6, 1e-6])
    assert short.summary is None and ok.error is None
    assert short.error == ("the migration period of 0.5 us is shorter than the time step "
                           "dt of 1 us")


def scaled_times(cfg, factor):
    """cfg with period, duration, dt, warm-up and downtime times factor."""
    return replace(cfg, period=cfg.period * factor, sim_duration=cfg.sim_duration * factor,
                   dt=cfg.dt * factor, warmup=cfg.warmup * factor,
                   cost=replace(cfg.cost, downtime_fixed=cfg.cost.downtime_fixed * factor))


@pytest.mark.parametrize("dt", [1e-6, 0.7e-6, 0.3e-6])
@pytest.mark.parametrize("deposit", [True, False])
def test_the_schedule_does_not_depend_on_the_time_unit(dt, deposit):
    # the layout tolerance is a fraction of dt: the same steps in the same
    # runs at a thousandth of every time input
    cfg = band_cfg(sim_duration=2e-3, warmup=0.5e-3, dt=dt, deposit_migration_energy=deposit)
    small = scaled_times(cfg, 1e-3)
    want = hotmesh.sim._schedule(cfg, hotmesh.sim._plan(cfg))
    got = hotmesh.sim._schedule(small, hotmesh.sim._plan(small))
    assert want.cut is not None
    assert ((got.window, got.events, got.head, got.tail)
            == (want.window, want.events, want.head, want.tail))
    np.testing.assert_allclose(got.times, want.times * 1e-3, rtol=1e-9, atol=0.0)
    for got_runs, want_runs in ((got.body, want.body), ([got.cut], [want.cut])):
        assert [r[1:] for r in got_runs] == [r[1:] for r in want_runs]
        for g, w in zip(got_runs, want_runs):
            assert (g[0] == small.dt) == (w[0] == cfg.dt)
            if w[0] != cfg.dt:
                assert g[0] == pytest.approx(w[0] * 1e-3, rel=1e-9)


NANO_CASES = {
    "identity, dt = 1 ns": (IDENTITY, 20e-9, 1e-9, 0.0, 20),
    "identity, dt = 0.5 ns": (IDENTITY, 20e-9, 0.5e-9, 0.0, 40),
    "a 0.8 ns stall, dt = 2 ns": (translate_x(1), 100e-9, 2e-9, 0.8e-9, 54),
}


@pytest.mark.parametrize("fn,duration,dt,downtime,steps", NANO_CASES.values(),
                         ids=NANO_CASES.keys())
def test_nanosecond_runs_end_at_their_duration(fn, duration, dt, downtime, steps):
    # with an absolute 1 ns tolerance these runs ended a step early and the
    # stall shorter than 1 ns was dropped while the penalty still counted it
    grid = make_grid(3, 3)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="nano", grid=grid, profile=profile, initial_mapping=mapping,
                         migration_fn=fn, period=20e-9, sim_duration=duration, dt=dt,
                         cost=MigrationCostParams(e_bit_hop=1e-18, downtime_fixed=downtime))
    summary, trace = run(cfg)
    assert len(trace.times) - 1 == steps
    assert trace.times[-1] == pytest.approx(duration, rel=1e-9)
    if downtime:
        stalls = [r for r in hotmesh.sim._schedule(cfg, hotmesh.sim._plan(cfg)).body if r[1]]
        assert [r[0] for r in stalls] == [pytest.approx(downtime, rel=1e-9)]
    expected, oracle_trace = sequential_run(cfg)
    assert np.array_equal(trace.times, oracle_trace.times)
    assert np.abs(trace.temps - oracle_trace.temps).max() <= 1e-9
    assert np.allclose(astuple(summary), astuple(expected), rtol=0.0, atol=1e-9)
