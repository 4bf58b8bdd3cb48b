import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hotmesh.placement
from hotmesh.grid import (Coord, Mapping, PowerProfile, generate_center_hotspot,
                          generate_warm_band, identity_mapping, make_grid, power_vector)
from hotmesh.placement import (AnnealConfig, _block_response, _pairs, anneal, evaluate,
                               place, read_mapping_csv, write_mapping_csv)
from hotmesh.errors import ConfigurationError
from hotmesh.thermal import ThermalParams, _modal_steady_state, build_network


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


def test_block_response_is_built_in_bounded_blocks(monkeypatch):
    # R is solved in blocks of unit powers, each into its rows of one array:
    # up to 16x16 in one block, bit for bit the one stacked solve; smaller
    # blocks give the same R to float noise, laid out alike; and a 64x64
    # R of 134 MB is built at a traced peak of at most 1.5 times its size
    for nx in (4, 5, 8, 16):
        net = build_network(make_grid(nx, nx), ThermalParams())
        n = net.n_blocks
        stacked = net.modes.from_modal(_modal_steady_state(net, np.eye(n)))[:, :n].T
        got = _block_response(net)
        assert np.array_equal(got, stacked) and got.strides == stacked.strides
    net = build_network(make_grid(12, 12), ThermalParams())
    whole = _block_response(net)
    for rows in (1, 7, 143):
        monkeypatch.setattr(hotmesh.placement, "_RESPONSE_BLOCK", rows * 144)
        got = _block_response(net)
        assert got.strides == whole.strides and np.abs(got - whole).max() <= 1e-12
    monkeypatch.undo()
    net = build_network(make_grid(64, 64), ThermalParams())
    tracemalloc.start()
    try:
        response = _block_response(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert response.shape == (4096, 4096)
    assert peak <= 1.5 * response.base.nbytes


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
    for iterations in (0, 1.5, 20000.0, "20000", math.nan):
        with pytest.raises(ConfigurationError, match="iterations"):
            AnnealConfig(iterations=iterations)
    for seed in (1.5, math.nan, "7"):
        with pytest.raises(ConfigurationError, match="seed"):
            AnnealConfig(seed=seed)
    with pytest.raises(ConfigurationError):
        AnnealConfig(t_start=1e-3, t_end=1.0)
    for t_start, t_end in ((math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan),
                           (math.inf, math.inf)):
        with pytest.raises(ConfigurationError):
            AnnealConfig(t_start=t_start, t_end=t_end)
    # t_end or t_end / t_start below the smallest normal float: at (1e308,
    # 1e-308) the ratio was 0, so the temperature fell to 0 after the first
    # move and a later uphill move divided by it
    tiny = sys.float_info.min
    for t_start, t_end in ((1e308, 1e-308), (1.0, 1e-308), (1.0, 5e-324), (2.0, tiny),
                           (1e10, 1e-300)):
        with pytest.raises(ConfigurationError, match="t_end / t_start"):
            AnnealConfig(t_start=t_start, t_end=t_end)
    # the coldest schedule accepted anneals: every scored move divides by a
    # temperature of at least about tiny
    grid = make_grid(3, 3)
    profile = PowerProfile({w: 0.1 * (w + 1) for w in range(9)})
    anneal(profile, grid, build_network(grid, ThermalParams()),
           AnnealConfig(iterations=300, t_start=1.0, t_end=tiny))


def test_mapping_csv_round_trip(tmp_path):
    grid = make_grid(3, 2)
    mapping = Mapping(grid, {w: grid.coord((w + 2) % 6) for w in range(6)})
    path = tmp_path / "mapping.csv"
    write_mapping_csv(mapping, path)
    loaded = read_mapping_csv(path, grid)
    assert loaded.assignment == mapping.assignment
    assert path.read_text().splitlines()[0] == "workload_id,x,y"


@pytest.mark.parametrize("text,line,message", [
    ("workload_id,x,y\n0,0,0\n1,a,0\n", 3, "invalid literal for int()"),
    ("workload_id,x\n0,0\n1,1\n", 1, "no y column in the header"),
    ("workload_id,x,y\n0,0,0\n1,1\n", 3, "expected the header's 3 fields"),
    ("workload_id,x,y\n0,0,0\n0,1,0\n", 3, "workload 0 is placed twice"),
    ("workload_id,x,y\n0,0,0\n1,1,0,5\n", 3, "expected the header's 3 fields"),
], ids=["non-integer field", "missing column", "short row", "duplicated workload",
        "long row"])
def test_broken_mapping_csv_names_the_line(tmp_path, text, line, message):
    path = tmp_path / "mapping.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=rf"mapping\.csv:{line}: {message}"):
        read_mapping_csv(path, make_grid(2, 1))


def reference_anneal(profile, grid, net, cfg):
    """The annealing loop as a plain transcription: a fresh np.max(R @ p)
    per move and the block table as an array. anneal() must take the same
    moves and keep the same placement."""
    rng = random.Random(cfg.seed)
    ids = list(range(grid.n_cells))
    block = np.arange(grid.n_cells)
    power = power_vector(identity_mapping(grid), profile)
    response = _block_response(net)
    cur_obj = best_obj = float(np.max(response @ power)) + net.ambient
    best = block.copy()
    cooling = (cfg.t_end / cfg.t_start) ** (1.0 / max(cfg.iterations - 1, 1))
    temp = cfg.t_start
    for _ in range(cfg.iterations):
        a, b = rng.sample(ids, 2)
        i, j = block[a], block[b]
        block[a], block[b] = j, i
        power[i], power[j] = power[j], power[i]
        obj = float(np.max(response @ power)) + net.ambient
        delta = obj - cur_obj
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            cur_obj = obj
            if obj < best_obj:
                best_obj = obj
                best = block.copy()
        else:
            block[a], block[b] = i, j
            power[i], power[j] = power[j], power[i]
        temp *= cooling
    return Mapping(grid, {w: grid.coord(int(i)) for w, i in enumerate(best)})


def test_anneal_matches_the_reference_loop_on_seeded_warm_bands():
    # the 8x8 warm bands of seeds 1-30 as the sweep benchmark draws them:
    # the band row, then the annealing seed, 2000 moves each
    grid = make_grid(8, 8)
    net = build_network(grid, ThermalParams())
    for seed in range(1, 31):
        rng = random.Random(seed)
        band_row, anneal_seed = rng.randrange(8), rng.randrange(10**6)
        profile, _ = generate_warm_band(grid, 0.5, 2.0, band_row)
        cfg = AnnealConfig(iterations=2000, seed=anneal_seed)
        result = anneal(profile, grid, net, cfg)
        want = reference_anneal(profile, grid, net, cfg)
        assert result.mapping == want, seed
        assert result.peak_c == evaluate(want, profile, net), seed


def _oracle_profiles(grid):
    """Profiles for the oracle comparison: few power levels, so that most
    draws are equal-power swaps, and all powers distinct, so that none is."""
    n = grid.n_cells
    profiles = {
        "warm band": generate_warm_band(grid, 0.5, 2.0, grid.ny // 2)[0],
        "explicit, idle fill": PowerProfile({0: 2.0, n - 1: 1.0}, idle_power=0.1),
        "explicit, three levels": PowerProfile({w: (0.2, 1.0, 1.7)[w % 3] for w in range(n)}),
        "explicit, distinct": PowerProfile({w: 0.3 + 0.137 * w for w in range(n)}),
    }
    if grid.nx % 2 and grid.ny % 2:
        profiles["center hotspot"] = generate_center_hotspot(grid, 0.5, 3.0)[0]
    return profiles


# 2, 4 and 15 blocks draw pairs as random.sample's list pool does, 25 and 54
# as its set does
@pytest.mark.parametrize("nx,ny", [(2, 1), (2, 2), (3, 5), (4, 4), (5, 5), (6, 9)])
def test_anneal_matches_the_reference_loop_across_meshes_and_profiles(nx, ny):
    grid = make_grid(nx, ny)
    net = build_network(grid, ThermalParams())
    for name, profile in _oracle_profiles(grid).items():
        for seed in (0, 11):
            cfg = AnnealConfig(iterations=400, t_start=0.5, seed=seed)
            result = anneal(profile, grid, net, cfg)
            want = reference_anneal(profile, grid, net, cfg)
            assert result.mapping == want, (name, seed)
            assert result.peak_c == evaluate(want, profile, net), (name, seed)


def test_pair_draw_follows_random_sample():
    # the annealer's stream must not move if CPython's sample() changes
    # how it draws: this then fails instead of every placement shifting
    for n in range(2, 81):
        for seed in range(4):
            ours, theirs = random.Random(seed), random.Random(seed)
            pairs = _pairs(ours, n)
            for k in range(40):
                assert next(pairs) == tuple(theirs.sample(range(n), 2)), (n, seed, k)
                if k % 3 != 2:  # the acceptance draw some moves take
                    assert ours.random() == theirs.random()
