import re
from dataclasses import replace

import pytest

import hotmesh.scenario
from hotmesh.errors import ConfigurationError
from hotmesh.grid import Mapping, generate_warm_band, make_grid
from hotmesh.placement import AnnealConfig
from hotmesh.scenario import ScenarioConfig, load_scenario
from hotmesh.transforms import IDENTITY, ROTATION, translate_xy

FULL_SCENARIO = """
[grid]
nx = 4
ny = 4
cell_area_mm2 = 4.36

[profile]
kind = warm_band
base_power_w = 0.5
band_power_w = 2.0
band_row = 1

[migration]
fn = translate_xy
dx = 1
dy = 1
state_bits = 8192
e_bit_hop_j = 2e-12
downtime_fixed_us = 1.744

[thermal]
ambient_c = 40
r_sink_k_per_w = 0.5

[sim]
period_us = 109
duration_us = 2000
dt_us = 1.0
warmup_us = 500
seed = 7
"""


def write(tmp_path, text, name="scen.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_full_scenario(tmp_path):
    cfg = load_scenario(write(tmp_path, FULL_SCENARIO))
    assert cfg.name == "scen"
    assert cfg.grid == make_grid(4, 4, 4.36)
    assert cfg.migration_fn == translate_xy(1, 1)
    assert cfg.period == pytest.approx(109e-6)
    assert cfg.sim_duration == pytest.approx(2e-3)
    assert cfg.dt == pytest.approx(1e-6)
    assert cfg.warmup == pytest.approx(500e-6)
    assert cfg.anneal.seed == 7
    assert cfg.cost.state_bits == 8192
    assert cfg.cost.e_bit_hop == pytest.approx(2e-12)
    assert cfg.cost.downtime_fixed == pytest.approx(1.744e-6)
    assert cfg.thermal.ambient == 40.0
    expected_profile, expected_mapping = generate_warm_band(make_grid(4, 4), 0.5, 2.0, 1)
    assert cfg.profile.workload_power == expected_profile.workload_power
    assert cfg.initial_mapping.assignment == expected_mapping.assignment


def test_minimal_scenario_gets_defaults(tmp_path):
    cfg = load_scenario(write(tmp_path, """
[grid]
nx = 5
ny = 5

[profile]
kind = center_hotspot
base_power_w = 0.1
hot_power_w = 0.6
"""))
    assert cfg.migration_fn == IDENTITY
    assert cfg.period == pytest.approx(109e-6)
    assert cfg.dt == pytest.approx(1e-6)
    assert cfg.warmup is None
    assert cfg.effective_warmup == pytest.approx(cfg.sim_duration / 2)
    assert cfg.deposit_migration_energy is True
    assert cfg.cost.downtime_fixed == pytest.approx(1.744e-6)


def test_an_omitted_key_keeps_its_dataclass_default(tmp_path):
    minimal = FULL_SCENARIO[:FULL_SCENARIO.index("[migration]")]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    seeded = load_scenario(write(tmp_path / "a", minimal + "[sim]\nseed = 0\n"))
    bare = load_scenario(write(tmp_path / "b", minimal))
    default = ScenarioConfig(name="scen", grid=bare.grid, profile=bare.profile)
    for cfg in (seeded, bare):
        assert (cfg.period, cfg.sim_duration, cfg.dt, cfg.anneal) == (
            default.period, default.sim_duration, default.dt, default.anneal)
    assert default.anneal == AnnealConfig()
    assert seeded == bare


def doc_table():
    """The keys of the module docstring's table: {section: keys} and
    {profile kind: keys}."""
    doc = hotmesh.scenario.__doc__
    table = doc[doc.index("[grid]"):].split("\n\n")[0]
    sections, kinds = {}, {}
    for line in table.splitlines():
        label = re.match(r"\[(\w+)\]|\s+(\w+):", line)
        if label and label[1]:
            keys = sections[label[1]] = set()
        elif label:
            keys = kinds[label[2]] = set()
        rest = re.sub(r"\(.*?\)", "", line[label.end():] if label else line)
        keys.update(re.findall(r"[^,\s]+", rest))
    return sections, kinds


def test_the_docstring_table_and_the_loader_agree():
    sections, kinds = doc_table()
    accepted = {}
    for section, key in hotmesh.scenario._KEYS:
        accepted.setdefault(section, set()).add(key)
    assert sections == accepted
    assert kinds.keys() == hotmesh.scenario._PROFILES.keys()
    for kind, (_, keys) in hotmesh.scenario._PROFILES.items():
        if keys:
            assert kinds[kind] == set(keys)
        else:  # explicit: one key per workload id
            assert [hotmesh.scenario._WORKLOAD_KEY.fullmatch(key.replace("<id>", "7"))
                    is not None for key in kinds[kind]] == [True]


def test_explicit_profile_and_auto_placement(tmp_path):
    cfg = load_scenario(write(tmp_path, """
[grid]
nx = 2
ny = 2

[profile]
kind = explicit
workload_0_w = 1.5
workload_3_w = 0.5
idle_power_w = 0.05

[sim]
placement = auto
anneal_iterations = 300
seed = 11
"""))
    assert cfg.profile.workload_power == {0: 1.5, 3: 0.5}
    assert cfg.profile.idle_power == pytest.approx(0.05)
    assert cfg.initial_mapping == "auto"
    assert cfg.anneal is not None
    assert cfg.anneal.iterations == 300
    assert cfg.anneal.seed == 11


@pytest.mark.parametrize("old,new", [
    ("ny = 4\n", ""),                               # missing mandatory key
    ("kind = warm_band", "kind = volcano"),         # unknown profile kind
    ("fn = translate_xy", "fn = sideways"),         # unknown migration tag
    ("fn = translate_xy", "fn = translate_x"),      # dy for a shift along x
    ("fn = translate_xy", "fn = translate_y"),      # dx for a shift along y
    ("period_us = 109", "period_us = -5"),          # invalid period
    ("period_us = 109", "period_us = nan"),         # non-finite period
    ("dt_us = 1.0", "dt_us = inf"),                 # non-finite step
    ("duration_us = 2000", "duration_us = inf"),    # non-finite run length
    ("band_row = 1", "band_row = 9"),               # band outside the mesh
    ("kind = warm_band", "kind = explicit\nworkload_3_w = inf"),  # infinite power
    ("kind = warm_band", "kind = explicit\nworkload_3_w = nan"),  # nan power
    ("band_row = 1", "band_row = 1\nidle_power_w = inf"),         # infinite idle power
    ("kind = warm_band", "kind = explicit\nworkload_99_w = 1.0"),  # id not on the 4x4 mesh
    ("r_sink_k_per_w = 0.5", "r_sink_k_per_w = inf"),            # infinite sink resistance
    ("[thermal]", "[thermal]\nk_si_w_per_m_k = nan"),            # nan conductivity
    ("downtime_fixed_us = 1.744", "downtime_fixed_us = nan"),   # nan downtime
    ("state_bits = 8192", "state_bits = inf"),                  # infinite state blob
    ("seed = 7", "seed = 7\nplacement = auto\nanneal_t_start = inf"),  # infinite temperature
    ("[thermal]", "[thermal]\nc_v_j_per_m3_k = 1e-320"),       # block capacitance underflows to 0
    ("[thermal]", "[thermal]\nk_si_w_per_m_k = 1e308\ndie_thickness_mm = 1e10"),  # g_lat overflows
    ("[thermal]", "[thermal]\nr_vertical_k_per_w = 1e-320"),   # 1 / r overflows
    ("period_us = 109", "perod_us = 50"),                       # misspelled key
    ("[thermal]", "[thermals]"),                                # misspelled section
    ("[grid]\n", ""),                                           # a key before any section
    ("ny = 4\n", "ny = 4\nny = 5\n"),                           # a key given twice
])
def test_broken_scenarios_raise_configuration_error(tmp_path, old, new):
    with pytest.raises(ConfigurationError):
        load_scenario(write(tmp_path, FULL_SCENARIO.replace(old, new)))


@pytest.mark.parametrize("old,new,name", [
    ("period_us = 109", "perod_us = 50", r"\[sim\] has unknown key 'perod_us'"),
    ("[thermal]", "[thermals]", r"unknown section \[thermals\]"),
    ("[grid]", "[DEFAULT]\nseed = 3\n[grid]", r"unknown section \[DEFAULT\]"),
    ("band_row = 1", "band_row = 1\nhot_power_w = 3.0", "hot_power_w"),
    ("kind = warm_band", "kind = explicit\nworkload_3_w = 1.0", "base_power_w"),
])
def test_unknown_sections_and_keys_are_named(tmp_path, old, new, name):
    with pytest.raises(ConfigurationError, match=name):
        load_scenario(write(tmp_path, FULL_SCENARIO.replace(old, new)))


EXPLICIT_4X4 = """
[grid]
nx = 4
ny = 4

[profile]
kind = explicit
workload_0_w = 1.0
"""


@pytest.mark.parametrize("line,message", [
    ("workload_3_w = inf", "workload 3 needs a finite power"),
    ("workload_3_w = nan", "workload 3 needs a finite power"),
    ("workload_99_w = 1.0", r"workloads \[99\] have a power entry but no PE"),
    ("workload_1_w = 2.0\nworkload_01_w = 3.0",
     "keys 'workload_1_w' and 'workload_01_w' both name workload 1"),
])
def test_explicit_profile_powers_are_checked(tmp_path, line, message):
    with pytest.raises(ConfigurationError, match=message):
        load_scenario(write(tmp_path, EXPLICIT_4X4 + line + "\n"))


@pytest.mark.parametrize("old,new,keys", [
    ("[thermal]", "[thermal]\nc_v_j_per_m3_k = 1e-320", "c_v_j_per_m3_k"),
    ("[thermal]", "[thermal]\nk_si_w_per_m_k = 1e308\ndie_thickness_mm = 1e10", "k_si_w_per_m_k"),
])
def test_derived_thermal_scalars_name_their_scenario_keys(tmp_path, old, new, keys):
    with pytest.raises(ConfigurationError, match=keys):
        load_scenario(write(tmp_path, FULL_SCENARIO.replace(old, new)))


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigurationError):
        load_scenario(tmp_path / "nope.ini")


def test_a_file_that_is_not_text_raises(tmp_path):
    path = tmp_path / "scen.ini"
    path.write_bytes(FULL_SCENARIO.encode().replace(b"ny = 4", b"ny = 4\xff"))
    with pytest.raises(ConfigurationError):
        load_scenario(path)


def test_validate_rejects_short_runs_with_migration():
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="x", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=translate_xy(1, 1),
                         period=109e-6, sim_duration=50e-6)
    with pytest.raises(ConfigurationError):
        cfg.validate()
    # identity keeps the same timing legal (migration disabled)
    ScenarioConfig(name="x", grid=grid, profile=profile,
                   initial_mapping=mapping, migration_fn=IDENTITY,
                   period=109e-6, sim_duration=50e-6).validate()


def test_validate_rejects_rotation_on_non_square():
    grid = make_grid(3, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="x", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=ROTATION,
                         period=109e-6, sim_duration=1e-3)
    with pytest.raises(Exception):
        cfg.validate()


def test_validate_rejects_warmup_outside_run():
    grid = make_grid(2, 2)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 0)
    cfg = ScenarioConfig(name="x", grid=grid, profile=profile,
                         initial_mapping=mapping, sim_duration=1e-3, warmup=2e-3)
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_validate_rejects_foreign_mapping():
    grid = make_grid(2, 2)
    profile, _ = generate_warm_band(grid, 0.5, 2.0, 0)
    _, other_mapping = generate_warm_band(make_grid(3, 3), 0.5, 2.0, 0)
    cfg = ScenarioConfig(name="x", grid=grid, profile=profile,
                         initial_mapping=other_mapping)
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_validate_rejects_power_for_unplaced_workload():
    grid = make_grid(2, 2)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 0)
    shifted = Mapping(grid, {w + 10: c for w, c in mapping.assignment.items()})
    cfg = ScenarioConfig(name="x", grid=grid, profile=profile, initial_mapping=shifted)
    with pytest.raises(ConfigurationError):
        cfg.validate()
    replace(cfg, initial_mapping=mapping).validate()
