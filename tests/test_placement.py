import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotmesh.grid import (Coord, Mapping, PowerProfile, generate_warm_band,
                          identity_mapping, make_grid, power_vector)
from hotmesh.placement import (AnnealConfig, _block_response, anneal, evaluate, place,
                               read_mapping_csv, write_mapping_csv)
from hotmesh.errors import ConfigurationError
from hotmesh.thermal import ThermalParams, build_network


def mapping_with_hot_at(grid, hot_coord):
    """Hot workload 0 at hot_coord, fillers on the remaining cells."""
    assignment = {0: hot_coord}
    rest = [c for c in grid.cells() if c != hot_coord]
    for w, c in zip(range(1, grid.n_cells), rest):
        assignment[w] = c
    return Mapping(grid, assignment)


def test_evaluate_trivial_cases():
    g1 = make_grid(1, 1, 1.0)
    net1 = build_network(g1, ThermalParams())
    assert evaluate(identity_mapping(g1), PowerProfile({0: 1.0}), net1) == pytest.approx(42.5)
    assert evaluate(identity_mapping(g1), PowerProfile({0: 0.0}), net1) == pytest.approx(40.0)


def test_evaluate_is_invariant_under_equal_power_swaps():
    g = make_grid(3, 3)
    net = build_network(g, ThermalParams())
    profile = PowerProfile({w: 1.0 for w in range(9)})
    base = evaluate(identity_mapping(g), profile, net)
    shuffled = Mapping(g, {w: g.coord((w + 4) % 9) for w in range(9)})
    assert evaluate(shuffled, profile, net) == pytest.approx(base)


def test_evaluate_rejects_mismatched_network():
    g = make_grid(3, 3)
    net = build_network(make_grid(4, 4), ThermalParams())
    with pytest.raises(ConfigurationError):
        evaluate(identity_mapping(g), PowerProfile({0: 1.0}), net)


def test_anneal_rejects_mismatched_network():
    net = build_network(make_grid(4, 4), ThermalParams())
    with pytest.raises(ConfigurationError):
        anneal(PowerProfile({0: 1.0}), make_grid(3, 3), net, AnnealConfig(iterations=10))


@st.composite
def placements(draw):
    """A random mesh up to 8x8, random powers and a random permutation."""
    grid = make_grid(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    n = grid.n_cells
    powers = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    blocks = draw(st.permutations(range(n)))
    mapping = Mapping(grid, {w: grid.coord(i) for w, i in enumerate(blocks)})
    return mapping, PowerProfile(dict(enumerate(powers)))


@given(placements())
def test_response_operator_peak_matches_evaluate(case):
    mapping, profile = case
    net = build_network(mapping.grid, ThermalParams())
    p = power_vector(mapping, profile)
    by_operator = float(np.max(_block_response(net) @ p)) + net.ambient
    assert abs(by_operator - evaluate(mapping, profile, net)) <= 1e-9


def test_hot_workload_lands_on_center():
    # oracle: exhaustively place the single hot workload on each of the 9
    # cells and take the argmin of the steady-state peak
    grid = make_grid(3, 3)
    net = build_network(grid, ThermalParams())
    profile = PowerProfile({0: 3.0}, idle_power=0.5)
    objective = {c: evaluate(mapping_with_hot_at(grid, c), profile, net)
                 for c in grid.cells()}
    best = min(objective, key=objective.get)
    assert best == Coord(1, 1)  # center spreads laterally on all four sides

    placed = place(profile, grid, net, AnnealConfig(seed=3))
    assert placed.location(0) == Coord(1, 1)
    assert evaluate(placed, profile, net) == pytest.approx(objective[best])


def test_equal_powers_leave_objective_flat():
    grid = make_grid(3, 3)
    net = build_network(grid, ThermalParams())
    profile = PowerProfile({w: 0.7 for w in range(9)})
    result = anneal(profile, grid, net, AnnealConfig(iterations=500, seed=1))
    assert result.peak_c == pytest.approx(
        evaluate(identity_mapping(grid), profile, net))


def test_anneal_never_worse_than_identity():
    grid = make_grid(4, 4)
    net = build_network(grid, ThermalParams())
    rng = np.random.default_rng(19)
    profile = PowerProfile({w: float(p) for w, p in enumerate(rng.uniform(0.1, 2.0, 16))})
    identity_obj = evaluate(identity_mapping(grid), profile, net)
    result = anneal(profile, grid, net, AnnealConfig(iterations=2000, seed=5))
    assert result.peak_c <= identity_obj + 1e-12


def test_anneal_breaks_up_the_warm_band():
    grid = make_grid(4, 4)
    net = build_network(grid, ThermalParams())
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    band_intact = evaluate(mapping, profile, net)
    result = anneal(profile, grid, net, AnnealConfig(iterations=3000, seed=2))
    assert result.peak_c <= band_intact
    assert result.peak_c < band_intact - 0.1  # scattering the band clearly helps


def test_anneal_reported_objective_matches_returned_mapping():
    grid = make_grid(3, 3)
    net = build_network(grid, ThermalParams())
    profile = PowerProfile({0: 2.0, 1: 1.0}, idle_power=0.1)
    result = anneal(profile, grid, net, AnnealConfig(iterations=800, seed=9))
    assert evaluate(result.mapping, profile, net) == result.peak_c


def test_same_seed_same_mapping():
    grid = make_grid(3, 3)
    net = build_network(grid, ThermalParams())
    profile = PowerProfile({0: 3.0, 1: 1.5}, idle_power=0.2)
    cfg = AnnealConfig(iterations=1000, seed=42)
    first = place(profile, grid, net, cfg)
    second = place(profile, grid, net, cfg)
    assert first.assignment == second.assignment


def test_anneal_config_validation():
    with pytest.raises(ConfigurationError):
        AnnealConfig(iterations=0)
    with pytest.raises(ConfigurationError):
        AnnealConfig(t_start=1e-3, t_end=1.0)


def test_mapping_csv_round_trip(tmp_path):
    grid = make_grid(3, 2)
    mapping = Mapping(grid, {w: grid.coord((w + 2) % 6) for w in range(6)})
    path = tmp_path / "mapping.csv"
    write_mapping_csv(mapping, path)
    loaded = read_mapping_csv(path, grid)
    assert loaded.assignment == mapping.assignment
    assert path.read_text().splitlines()[0] == "workload_id,x,y"
