import numpy as np
import pytest

import hotmesh.placement
import hotmesh.sim
import hotmesh.thermal
from hotmesh.errors import ConfigurationError, ModelError
from hotmesh.grid import generate_warm_band, make_grid, power_vector
from hotmesh.migration import MigrationCostParams
from hotmesh.placement import AnnealConfig
from hotmesh.scenario import ScenarioConfig
from hotmesh.sim import RunSummary, SweepCell, report, run, summarize, sweep
from hotmesh.thermal import build_network, peak, spatial_spread, steady_state
from hotmesh.transforms import IDENTITY, MIRROR_XY, ROTATION, translate_x, translate_xy
from dataclasses import replace


def band_cfg(**overrides):
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="band4", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=translate_xy(1, 1),
                         period=109e-6, sim_duration=8e-3, dt=1e-6, warmup=4e-3,
                         seed=1)
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


def test_baseline_is_solved_once(monkeypatch):
    # the baseline and the identity run's x_ss are one steady-state solve
    calls = []

    def counted(net, power):
        calls.append(power)
        return steady_state(net, power)

    monkeypatch.setattr(hotmesh.thermal, "steady_state", counted)
    monkeypatch.setattr(hotmesh.sim, "steady_state", counted, raising=False)
    cfg = band_cfg(migration_fn=IDENTITY, sim_duration=1e-3, warmup=0.5e-3)
    summary, trace = run(cfg)
    assert len(calls) == 1
    assert summary.peak_reduction == 0.0
    assert np.array_equal(trace.temps[-1], trace.temps[0])


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


def test_online_window_statistics_match_the_full_trace():
    # the statistics are accumulated run by run; recompute them from the
    # returned trace over the steps that end after warm-up
    for cfg in (band_cfg(), band_cfg(migration_fn=ROTATION, warmup=0.0, sim_duration=2e-3),
                band_cfg(migration_fn=IDENTITY, warmup=1.2345e-3, sim_duration=2e-3)):
        summary, trace = run(cfg)
        window = int(np.searchsorted(trace.times[1:], cfg.effective_warmup + 1e-9,
                                     side="right"))
        w = np.diff(trace.times)[window:]
        blocks = trace.temps[1 + window:, :cfg.grid.n_cells]
        assert abs(summary.peak_overall - blocks.max()) <= 1e-12
        assert abs(summary.time_avg_mean_temp
                   - (blocks.mean(axis=1) * w).sum() / w.sum()) <= 1e-12
        assert abs(summary.max_spatial_spread
                   - (blocks.max(axis=1) - blocks.min(axis=1)).max()) <= 1e-12


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


def test_run_makes_no_dense_linear_algebra_on_the_network(monkeypatch):
    # The modal basis is closed form: a run factors, inverts or decomposes
    # nothing larger than 2x2, so no O(n^3) work on the n-node network.
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
