import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import hotmesh
from hotmesh.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

SCENARIO = """
[grid]
nx = 4
ny = 4

[profile]
kind = warm_band
base_power_w = 0.5
band_power_w = 2.0
band_row = 1

[migration]
fn = translate_xy
dx = 1
dy = 1

[sim]
period_us = 109
duration_us = 1000
warmup_us = 300
seed = 3
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "band.ini"
    path.write_text(SCENARIO)
    return path


def test_run_subcommand(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(scenario_file), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out / "summary.csv").exists()
    assert not (out / "trace.csv").exists()
    assert "peak reduction" in captured.out
    assert "throughput penalty" in captured.out


def test_run_subcommand_with_trace(scenario_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(scenario_file), "--out", str(out), "--trace"])
    assert rc == 0
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("time_s,t_block_0")
    assert header.endswith("t_sink")


def test_run_rejects_missing_scenario(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1  # one-line diagnostic


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(SCENARIO.replace("band_row = 1", "band_row = 7"))
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "band_row" in capsys.readouterr().err


def test_run_refuses_a_trace_over_the_memory_limit(tmp_path, capsys):
    bad = tmp_path / "fine.ini"
    bad.write_text(SCENARIO.replace("duration_us = 1000", "duration_us = 32000\ndt_us = 0.001"))
    rc = main(["run", str(bad), "--trace", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_an_untraced_run_is_not_refused_by_the_trace_limit(scenario_file, tmp_path,
                                                           monkeypatch):
    # ~1 000 steps x 17 nodes: past a limit of 5 000 values, but not of 5 000 steps
    traced = tmp_path / "traced"
    assert main(["run", str(scenario_file), "--trace", "--out", str(traced)]) == 0
    monkeypatch.setattr(hotmesh.sim, "_TRACE_VALUES", 5000)
    assert main(["run", str(scenario_file), "--trace", "--out", str(tmp_path / "o")]) == 2
    untraced = tmp_path / "untraced"
    assert main(["run", str(scenario_file), "--out", str(untraced)]) == 0
    assert (untraced / "summary.csv").read_bytes() == (traced / "summary.csv").read_bytes()


def test_a_downtime_not_shorter_than_the_period_exits_2(tmp_path, capsys):
    # a stall of 200 us every 109 us leaves the PEs no time to compute
    bad = tmp_path / "stalled.ini"
    bad.write_text(SCENARIO.replace("dy = 1\n", "dy = 1\ndowntime_fixed_us = 200\n"))
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "downtime of 200.000 us is not shorter than the period" in captured.err
    assert captured.err.count("\n") == 1
    # a sweep records the error in the cells it holds for alone
    out = tmp_path / "sweep"
    assert main(["sweep", str(bad), "--functions", "translate_xy:1:1", "--periods-us", "109",
                 "218", "--out", str(out)]) == 0
    short, long = (out / "sweep.csv").read_text().splitlines()[1:]
    assert short.endswith("is not shorter than the period of 109.000 us: the PEs would "
                          "never compute")
    assert long.endswith(",")  # no error


def test_a_period_shorter_than_dt_exits_2(tmp_path, capsys):
    bad = tmp_path / "short.ini"
    bad.write_text(SCENARIO.replace("period_us = 109", "period_us = 0.5"))
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: the migration period of 0.5 us is shorter than the time "
                            "step dt of 1 us\n")


def test_sweep_subcommand(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sweep", str(scenario_file), "--functions", "translate_xy",
               "translate_x", "--periods-us", "109", "218", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    assert "best fn=" in captured.out


def test_plan_subcommand(capsys):
    rc = main(["plan", "rotation", "4", "4"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[-1].startswith("# fn=rotation phases=")
    assert len(lines) == 1 + 16  # every cell moves under rotation on 4x4
    assert lines[0].count(",") == 5


def test_plan_subcommand_rejects_bad_function(capsys):
    rc = main(["plan", "rotation", "3", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "square" in captured.err


@pytest.mark.parametrize("args", [["translate_x", "4", "4", "--dy", "3"],
                                  ["translate_y", "4", "4", "--dx", "3"]])
def test_plan_subcommand_rejects_an_offset_on_the_axis_not_moved(args, capsys):
    rc = main(["plan", *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "no offset on the other" in captured.err
    assert captured.err.count("\n") == 1


def test_place_subcommand(tmp_path, capsys):
    scenario = tmp_path / "hot.ini"
    scenario.write_text("""
[grid]
nx = 3
ny = 3

[profile]
kind = center_hotspot
base_power_w = 0.1
hot_power_w = 1.0

[sim]
placement = auto
anneal_iterations = 300
seed = 5
""")
    out = tmp_path / "out"
    rc = main(["place", str(scenario), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out / "mapping.csv").exists()
    assert "annealed" in captured.out


def test_place_reads_the_anneal_keys_whatever_the_placement(tmp_path, capsys):
    # anneal_iterations configures `hotmesh place` also when the scenario's
    # own runs keep the identity placement
    text = (SCENARIOS / "warm_band_4x4.ini").read_text() + "anneal_iterations = 1\n"
    printed = []
    for name, extra in (("identity", ""), ("auto", "placement = auto\n")):
        path = tmp_path / f"{name}.ini"
        path.write_text(text + extra)
        assert main(["place", str(path), "--out", str(tmp_path / name)]) == 0
        printed.append(capsys.readouterr().out.splitlines()[0])
    # one move from the identity placement finds nothing cooler
    assert printed == ["peak 50.376 C with the identity placement, 50.376 C annealed"] * 2
    assert ((tmp_path / "identity" / "mapping.csv").read_bytes()
            == (tmp_path / "auto" / "mapping.csv").read_bytes())


def test_seed_override_changes_annealer(tmp_path):
    scenario = tmp_path / "flat.ini"
    scenario.write_text("""
[grid]
nx = 3
ny = 3

[profile]
kind = explicit
workload_0_w = 2.0
workload_1_w = 1.0
idle_power_w = 0.1

[sim]
placement = auto
anneal_iterations = 50
seed = 1
""")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["place", str(scenario), "--out", str(out_a)]) == 0
    assert main(["place", str(scenario), "--out", str(out_b), "--seed", "1"]) == 0
    # same seed (explicit or from the file) gives identical mapping bytes
    assert (out_a / "mapping.csv").read_bytes() == (out_b / "mapping.csv").read_bytes()


# sha256 of each file the CLI writes for the shipped scenarios: the
# summary and trace of `hotmesh run --trace` and the mapping of `hotmesh
# place`. A change that keeps the numbers keeps these bytes.
GOLDEN = {
    ("run", "center_hotspot_5x5"): {
        "summary.csv": "bafce3276ee86314d01e12cb3069868fd4f50353742f5170e5e3c05fab00f2c8",
        "trace.csv": "bc44c08f830d5665f90ec36cbd2ca4dc2a33ea3df09242cf0307f96ba0c5fe5e",
    },
    ("run", "warm_band_4x4"): {
        "summary.csv": "350b9a496c91486b55b1a062a960ed32b1dbca8b1ec887e6d5395ded4114a6e6",
        "trace.csv": "048fd2a58b17dcdbab66f854f7a3e02a6d4bdd90da72086e7748a43df0fb6ce0",
    },
    ("place", "warm_band_4x4"): {
        "mapping.csv": "5c59bef9aaaaf93b326dd9a64bea25372ac7f314f3e6ea4b5a3883503df9024a",
    },
    ("sweep", "warm_band_4x4"): {
        "sweep.csv": "5f7a9624051982a930b9c8bf321419379010e04df3589ea714c1dba272faa526",
    },
}
FLAGS = {"run": ["--trace"], "place": [],
         "sweep": ["--functions", "translate_x:1", "rotation", "mirror_xy", "translate_xy:1:1",
                   "--periods-us", "109", "437.2"]}


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_shipped_scenarios_write_the_golden_bytes(tmp_path, command, name):
    args = [command, str(SCENARIOS / f"{name}.ini"), *FLAGS[command], "--out", str(tmp_path)]
    assert main(args) == 0
    digests = GOLDEN[command, name]
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests} == digests


OVERFLOWS = {
    "run, migration energy": ("run", "dy = 1", "dy = 1\nstate_bits = 1e300\ne_bit_hop_j = 1e10"),
    "run, band power": ("run", "band_power_w = 2.0", "band_power_w = 1e306"),
    "place, band power": ("place", "band_power_w = 2.0", "band_power_w = 1e306"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,old,new", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_a_steady_state_that_overflows_is_refused(tmp_path, capsys, command, old, new):
    # each input is in range but a product of them is not: the energy is
    # inf J, or a block's heat per capacitance overflows; once these wrote
    # a peak of -inf or nan and exited 0
    text = (SCENARIOS / "warm_band_4x4.ini").read_text()
    assert text.count(old) == 1
    path = tmp_path / "big.ini"
    path.write_text(text.replace(old, new))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the steady state is not finite")
    assert "[migration] state_bits x e_bit_hop_j" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_import_loads_no_scipy():
    # every CLI call pays the import; scipy.linalg alone used to cost more
    # than half of it
    src = str(Path(hotmesh.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hotmesh; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
