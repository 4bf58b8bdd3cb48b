"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest bench -q
"""

import sys
from dataclasses import asdict, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hotmesh  # noqa: E402
import pytest  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_INI = """\
[grid]
nx = {nx}
ny = 3

[profile]
kind = warm_band
base_power_w = 0.5
band_power_w = 2.0
band_row = 1

[migration]
fn = translate_x

[sim]
duration_us = 500
"""


@pytest.fixture(scope="module")
def small_run():
    grid = hotmesh.make_grid(3, 3)
    profile, mapping = hotmesh.generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = hotmesh.ScenarioConfig(name="small", grid=grid, profile=profile,
                                 initial_mapping=mapping, migration_fn=hotmesh.translate_x(1),
                                 period=109e-6, sim_duration=1e-3)
    summary, _ = hotmesh.run(cfg)
    return cfg, summary


def _tally(outcome, reference=None):
    g = gate.Gate(reference)
    g.check_rep(workloads.Rep([outcome]))
    return g


def test_clean_run_passes(small_run):
    cfg, summary = small_run
    g = _tally(workloads.Outcome("small", cfg, summary, None),
               {"small": asdict(summary)})
    assert (g.attempted, g.failed, g.problems) == (1, 0, [])
    assert summary.migration_count == gate.events_inside(cfg.sim_duration, cfg.period) == 9


@pytest.mark.parametrize("change", [
    {"peak_reduction": 1e-6},
    {"peak_static_baseline": 1e-6, "peak_reduction": 1e-6},
    {"migration_count": 1},
    {"total_migration_energy": 1e-12},
    {"throughput_penalty": 1e-6},
    {"time_avg_mean_temp": float("nan")},
])
def test_perturbed_summary_counts_as_failed(small_run, change):
    cfg, summary = small_run
    bad = replace(summary, **{k: getattr(summary, k) + d for k, d in change.items()})
    g = _tally(workloads.Outcome("small", cfg, bad, None))
    assert (g.attempted, g.failed, g.fail_frac) == (1, 1, 1.0)


def test_reference_mismatch_counts_as_failed(small_run):
    cfg, summary = small_run
    ref = asdict(summary)
    ref["time_avg_mean_temp"] += 2 * gate.TEMP_TOL
    assert _tally(workloads.Outcome("small", cfg, summary, None), {"small": ref}).failed == 1
    assert _tally(workloads.Outcome("other", cfg, summary, None), {"small": ref}).failed == 1


def test_changed_csv_counts_as_failed(small_run):
    cfg, summary = small_run
    g = gate.Gate(None)
    for digest in ("a", "a", "b"):
        g.check_rep(workloads.Rep([workloads.Outcome("small", cfg, summary, None, ("s.csv",))],
                                  {"s.csv": digest}))
    assert (g.attempted, g.failed) == (3, 1)


def test_raising_sweep_cells_count_as_failed(tmp_path):
    # rotation needs a square mesh: its two cells come back as error rows
    ini = tmp_path / "band.ini"
    ini.write_text(SMALL_INI.format(nx=4))
    rep = workloads.run_rep("sweep_auto_8x8", [ini], tmp_path / "out", tracing.plain_call)
    g = gate.Gate(None)
    g.check_rep(rep)
    assert (g.attempted, g.failed) == (8, 2)
    assert all(p.startswith("rotation@") for p in g.problems)


def test_raising_run_counts_as_failed(tmp_path, monkeypatch):
    ini = tmp_path / "band.ini"
    ini.write_text(SMALL_INI.format(nx=3))

    def boom(cfg):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(hotmesh, "run", boom)
    rep = workloads.run_rep("mesh_32x32", [ini], tmp_path / "out", tracing.plain_call)
    g = gate.Gate(None)
    g.check_rep(rep)
    assert (g.attempted, g.failed) == (1, 1)
    assert "solver blew up" in g.problems[0]


def test_seeded_inputs_repeat(tmp_path):
    a = workloads.make_inputs("mesh_32x32", 7, tmp_path)[0].read_text()
    b = workloads.make_inputs("mesh_32x32", 7, tmp_path)[0].read_text()
    c = workloads.make_inputs("mesh_32x32", 8, tmp_path)[0].read_text()
    assert a == b != c


def test_tracer_restores_and_reports_absent_names(small_run, monkeypatch):
    cfg, summary = small_run
    originals = {(o, a): getattr(tracing._resolve(o), a)
                 for o, a, _ in tracing.TARGETS if hasattr(tracing._resolve(o), a)}
    monkeypatch.delattr(hotmesh.sim, "place")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.call("sim.run", hotmesh.run, cfg)[0] == summary
    assert {"hotmesh.sim.place", "hotmesh.sim.anneal"} <= set(tracer.absent)
    for (owner, attr), fn in originals.items():
        if (owner, attr) != ("hotmesh.sim", "place"):
            assert getattr(tracing._resolve(owner), attr) is fn
    values = tracing.layer_values(tracer.spans)
    assert values["sim.runs"] == 1 and values["placement.anneal_calls"] == 0
    assert values["thermal.step_calls"] > 0 and values["migration.execute_calls"] == 9
    assert 0 < values["sim.self_s"] < values["sim.run_s"]


def test_self_time_subtracts_children():
    spans = [["sim.run", 0, 100, -1, None], ["thermal.step", 10, 40, 0, None],
             ["thermal.step", 50, 60, 0, {"thermal.substep_calls": 1}]]
    values = tracing.layer_values(spans)
    assert values["sim.run_self_s"] * 1e9 == pytest.approx(60)
    assert values["thermal.step_calls"] == 2 and values["thermal.substep_calls"] == 1
