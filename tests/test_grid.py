import math

import pytest

from hotmesh.errors import BoundsError, ConfigurationError
from hotmesh.grid import (Coord, Mapping, PowerProfile, generate_center_hotspot,
                          generate_warm_band, identity_mapping, idle_vector,
                          make_grid, power_vector)


def test_make_grid_standard_chip_dimensions():
    g = make_grid(4, 4, 4.36)
    assert g.n_cells == 16
    assert make_grid(5, 5, 4.36).n_cells == 25


def test_make_grid_single_cell():
    g = make_grid(1, 1, 1.0)
    assert g.n_cells == 1


@pytest.mark.parametrize("nx,ny,area", [
    (0, 4, 4.36), (4, 0, 4.36), (-1, 4, 4.36), (4, 4, 0.0), (4, 4, -2.0),
    (2, 2, math.nan), (2, 2, math.inf),
])
def test_make_grid_rejects_bad_arguments(nx, ny, area):
    with pytest.raises(ConfigurationError):
        make_grid(nx, ny, area)


def test_grid_indexing_round_trip():
    g = make_grid(3, 5)
    for i, c in enumerate(g.cells()):
        assert g.index(c) == i
        assert g.coord(i) == c
    with pytest.raises(BoundsError):
        g.index(Coord(3, 0))
    with pytest.raises(BoundsError):
        g.coord(15)


def test_identity_mapping_is_bijective():
    g = make_grid(4, 3)
    m = identity_mapping(g)
    assert sorted(m.assignment) == list(range(12))
    assert {g.index(c) for c in m.assignment.values()} == set(range(12))


def test_mapping_rejects_non_bijection():
    g = make_grid(2, 2)
    with pytest.raises(ConfigurationError):
        Mapping(g, {0: Coord(0, 0), 1: Coord(0, 0), 2: Coord(1, 0), 3: Coord(1, 1)})
    with pytest.raises(ConfigurationError):
        Mapping(g, {0: Coord(0, 0)})
    with pytest.raises(ConfigurationError):
        Mapping(g, {0: Coord(0, 0), 1: Coord(1, 0), 2: Coord(0, 1), 3: Coord(2, 1)})


def test_warm_band_profile():
    g = make_grid(4, 4)
    profile, mapping = generate_warm_band(g, 0.5, 2.0, band_row=1)
    powers = list(profile.workload_power.values())
    assert powers.count(2.0) == 4
    assert powers.count(0.5) == 12
    # aggregate oracle by direct summation: 4 * 2.0 + 12 * 0.5
    assert sum(powers) == pytest.approx(14.0)
    assert mapping.assignment == identity_mapping(g).assignment
    band_ids = [w for w, p in profile.workload_power.items() if p == 2.0]
    assert all(mapping.location(w).y == 1 for w in band_ids)


def test_warm_band_rejects_bad_band():
    g = make_grid(4, 4)
    with pytest.raises(ConfigurationError):
        generate_warm_band(g, 1.0, 1.0, band_row=0)  # band must exceed base
    with pytest.raises(ConfigurationError):
        generate_warm_band(g, 0.5, 2.0, band_row=4)
    with pytest.raises(ConfigurationError):
        generate_warm_band(g, -0.1, 2.0, band_row=0)


def test_center_hotspot_profile():
    g = make_grid(5, 5)
    profile, mapping = generate_center_hotspot(g, 0.5, 3.0)
    hot = [w for w, p in profile.workload_power.items() if p == 3.0]
    assert len(hot) == 1
    assert mapping.location(hot[0]) == Coord(2, 2)
    assert sum(profile.workload_power.values()) == pytest.approx(3.0 + 24 * 0.5)


def test_center_hotspot_minimal_mesh():
    g = make_grid(3, 3)
    profile, mapping = generate_center_hotspot(g, 0.0, 1.0)
    assert sum(profile.workload_power.values()) == pytest.approx(1.0)
    hot = [w for w, p in profile.workload_power.items() if p > 0]
    assert mapping.location(hot[0]) == Coord(1, 1)


def test_center_hotspot_requires_odd_mesh():
    with pytest.raises(ConfigurationError):
        generate_center_hotspot(make_grid(4, 4), 0.5, 3.0)
    with pytest.raises(ConfigurationError):
        generate_center_hotspot(make_grid(3, 3), 1.0, 1.0)


def test_power_profile_idle_defaults_to_five_percent_of_mean():
    profile = PowerProfile({0: 1.0, 1: 3.0})
    assert profile.idle_power == pytest.approx(0.05 * 2.0)
    assert PowerProfile({0: 1.0}, idle_power=0.2).idle_power == 0.2
    assert PowerProfile({}).idle_power == 0.0


def test_power_profile_rejects_negative_power():
    with pytest.raises(ConfigurationError):
        PowerProfile({0: -1.0})
    with pytest.raises(ConfigurationError):
        PowerProfile({0: 1.0}, idle_power=-0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            PowerProfile({0: 1.0, 1: bad})
        with pytest.raises(ConfigurationError):
            PowerProfile({0: 1.0}, idle_power=bad)


def test_power_vector_follows_mapping():
    g = make_grid(2, 2)
    profile = PowerProfile({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
    assert power_vector(identity_mapping(g), profile).tolist() == [1.0, 2.0, 3.0, 4.0]
    swapped = Mapping(g, {0: Coord(1, 1), 1: Coord(1, 0), 2: Coord(0, 1), 3: Coord(0, 0)})
    assert power_vector(swapped, profile).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_power_vector_uses_idle_for_fillers():
    g = make_grid(2, 1)
    profile = PowerProfile({0: 1.0}, idle_power=0.25)
    assert power_vector(identity_mapping(g), profile).tolist() == [1.0, 0.25]
    assert idle_vector(profile, g).tolist() == [0.25, 0.25]
