import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotmesh import migration
from hotmesh.errors import ConfigurationError, UnsupportedFunctionError
from hotmesh.grid import (Coord, Mapping, PowerProfile, generate_warm_band, identity_mapping,
                          make_grid, power_vector)
from hotmesh.migration import (MigrationCostParams, Transfer, execute,
                               format_plan, migration_downtime, migration_energy, plan,
                               xy_route)
from hotmesh.transforms import (IDENTITY, KINDS, MIRROR_X, MIRROR_XY, MIRROR_Y, ROTATION,
                                MigrationFunction, apply, as_permutation, parse_function,
                                translate_x, translate_xy)

PARAMS = MigrationCostParams()


def manhattan_total(fn, grid):
    """Independent oracle: sum of Manhattan distances of the permutation."""
    total = 0
    for c in grid.cells():
        d = apply(fn, c, grid)
        total += abs(d.x - c.x) + abs(d.y - c.y)
    return total


def function_menu(grid):
    fns = [IDENTITY, MIRROR_X, MIRROR_XY, translate_x(0), translate_x(1),
           translate_x(grid.nx - 1), translate_xy(1, 1), translate_xy(2, 3)]
    if grid.nx == grid.ny:
        fns.append(ROTATION)
    return fns


def test_xy_route_goes_x_first():
    route = xy_route(Coord(0, 0), Coord(2, 1))
    assert route == ((Coord(0, 0), Coord(1, 0)),
                     (Coord(1, 0), Coord(2, 0)),
                     (Coord(2, 0), Coord(2, 1)))
    assert xy_route(Coord(2, 1), Coord(2, 1)) == ()
    # route length always equals the Manhattan distance
    assert len(xy_route(Coord(3, 2), Coord(0, 2))) == 3


def test_identity_plan_is_empty():
    p = plan(IDENTITY, make_grid(4, 4), PARAMS)
    assert p.phases == ()
    assert p.total_hops == 0
    assert p.energy == 0.0
    assert p.downtime == 0.0
    assert format_plan(p) == ""


def test_adjacent_swap_fits_one_phase():
    # on a 2x1 mesh, translate_x(1) swaps the two cells; the east and west
    # directed links are distinct, so one phase suffices
    p = plan(translate_x(1), make_grid(2, 1), PARAMS)
    assert len(p.phases) == 1
    assert {t.src for t in p.phases[0]} == {Coord(0, 0), Coord(1, 0)}


def test_hop_counts_match_brute_force():
    grid = make_grid(4, 4)
    expected = {"rotation": 40, "mirror_x": 32, "translate_x": 24}
    rot = plan(ROTATION, grid, PARAMS)
    mir = plan(MIRROR_X, grid, PARAMS)
    tra = plan(translate_x(1), grid, PARAMS)
    assert rot.total_hops == manhattan_total(ROTATION, grid) == expected["rotation"]
    assert mir.total_hops == manhattan_total(MIRROR_X, grid) == expected["mirror_x"]
    assert tra.total_hops == manhattan_total(translate_x(1), grid) == expected["translate_x"]
    assert rot.total_hops > mir.total_hops > tra.total_hops


def test_hop_conservation_across_menu():
    for nx, ny in ((3, 3), (4, 4), (5, 5), (2, 6)):
        grid = make_grid(nx, ny)
        for fn in function_menu(grid):
            p = plan(fn, grid, PARAMS)
            assert p.total_hops == manhattan_total(fn, grid)


def test_phases_are_congestion_free_and_cover_all_moves():
    for nx in range(1, 9):
        for ny in range(1, 9):
            grid = make_grid(nx, ny)
            for fn in function_menu(grid):
                p = plan(fn, grid, PARAMS)
                moved = set()
                for phase in p.phases:
                    links = []
                    for t in phase:
                        assert t.route == xy_route(t.src, t.dst)
                        links.extend(t.route)
                        moved.add(t.src)
                    assert len(links) == len(set(links))  # pairwise disjoint
                non_fixed = {c for c in grid.cells() if apply(fn, c, grid) != c}
                assert moved == non_fixed


meshes = st.builds(make_grid, st.integers(1, 10), st.integers(1, 10))
offsets = st.integers(-12, 12)
functions = st.builds(MigrationFunction, st.sampled_from(KINDS), offsets, offsets)


@given(meshes, functions)
def test_random_plans_are_congestion_free_and_move_each_cell_once(grid, fn):
    if fn.kind == "rotation" and grid.nx != grid.ny:
        with pytest.raises(UnsupportedFunctionError):
            plan(fn, grid, PARAMS)
        return
    p = plan(fn, grid, PARAMS)
    for phase in p.phases:
        links = [link for t in phase for link in t.route]
        assert len(links) == len(set(links))  # no directed link used twice in a phase
    transfers = [t for phase in p.phases for t in phase]
    for t in transfers:
        assert t.dst == apply(fn, t.src, grid) != t.src
        assert t.route == xy_route(t.src, t.dst)
    moved = {c for c in grid.cells() if apply(fn, c, grid) != c}
    sources = [t.src for t in transfers]
    assert len(sources) == len(set(sources)) and set(sources) == moved
    assert p.total_hops == sum(t.hops for t in transfers)


def coordinate_plan(fn, grid, params):
    """Reference packer on Coord routes and Coord-pair link sets: the
    (permutation, phases, total_hops, energy, downtime) a plan must have."""
    perm = as_permutation(fn, grid)
    phases, busy = [], []
    for c in grid.cells():
        if perm(c) == c:
            continue
        t = Transfer(src=c, dst=perm(c))
        for ph, used in zip(phases, busy):
            if not used & set(t.route):
                ph.append(t)
                used |= set(t.route)
                break
        else:
            phases.append([t])
            busy.append(set(t.route))
    hops = sum(len(t.route) for ph in phases for t in ph)
    downtime = 0.0
    if hops:
        downtime = params.downtime_fixed
        if params.detailed_timing:
            max_hops = max(len(t.route) for ph in phases for t in ph)
            downtime = len(phases) * params.state_bits * params.t_bit_hop * max_hops
    return (perm, tuple(tuple(ph) for ph in phases), hops,
            hops * params.state_bits * params.e_bit_hop, downtime)


def plan_values(p):
    return p.permutation, p.phases, p.total_hops, p.energy, p.downtime


def test_plan_equals_the_coordinate_reference():
    detailed = MigrationCostParams(detailed_timing=True)
    fns = (ROTATION, MIRROR_XY, MIRROR_Y, translate_xy(1, 1), translate_x(3),
           parse_function("translate_y:2"), IDENTITY)
    for nx, ny in ((4, 4), (5, 5), (8, 8), (1, 6), (6, 1), (3, 5)):
        grid = make_grid(nx, ny)
        for fn in fns:
            if fn != ROTATION or nx == ny:
                for params in (PARAMS, detailed):
                    assert plan_values(plan(fn, grid, params)) == \
                        coordinate_plan(fn, grid, params), (nx, ny, fn)
    big = make_grid(32, 32)
    for fn in (ROTATION, translate_xy(1, 1)):
        assert plan_values(plan(fn, big, detailed)) == coordinate_plan(fn, big, detailed)


@given(meshes, functions, st.booleans())
def test_plan_equals_the_coordinate_reference_on_random_cases(grid, fn, detailed):
    if fn.kind == "rotation":
        grid = make_grid(grid.nx, grid.nx)
    params = MigrationCostParams(detailed_timing=detailed)
    p = plan(fn, grid, params)
    perm, phases, total_hops, energy, downtime = coordinate_plan(fn, grid, params)
    assert p.permutation.grid == grid and p.permutation == perm
    # the closed-form hops first, before anything reads the phases
    assert p.total_hops == total_hops
    assert p.energy == energy
    assert p.downtime == downtime
    assert p.phases == phases
    assert p.total_hops == sum(t.hops for ph in p.phases for t in ph)
    assert all(t.hops == len(t.route) for ph in p.phases for t in ph)


def test_a_plan_packs_its_phases_once_and_only_for_detailed_timing(monkeypatch):
    calls = []
    pack = migration._pack_phases
    monkeypatch.setattr(migration, "_pack_phases", lambda *a: calls.append(a) or pack(*a))
    grid = make_grid(6, 6)
    p = plan(ROTATION, grid, PARAMS)
    assert (p.total_hops, p.downtime) == (manhattan_total(ROTATION, grid), 1.744e-6)
    assert calls == []
    detailed = MigrationCostParams(detailed_timing=True)
    p = plan(ROTATION, grid, detailed)
    assert len(calls) == 1
    assert p.downtime == migration_downtime(p, detailed) > 0
    assert len(p.phases) == 5 and format_plan(p) and any(p.phases)
    assert len(calls) == 1


def test_phase_count_has_no_cap():
    # rotation of an N x N mesh needs N - 1 phases: past 64 at 66 x 66
    p = plan(ROTATION, make_grid(66, 66), PARAMS)
    assert len(p.phases) == 65
    for phase in p.phases:
        links = [link for t in phase for link in t.route]
        assert len(links) == len(set(links))
    assert all(t.route == xy_route(t.src, t.dst) for phase in p.phases for t in phase)
    assert p.total_hops == manhattan_total(ROTATION, make_grid(66, 66))


def test_plan_is_deterministic():
    grid = make_grid(5, 5)
    assert plan(ROTATION, grid, PARAMS) == plan(ROTATION, grid, PARAMS)


def test_energy_scales_with_hops_and_state_bits():
    grid = make_grid(4, 4)
    rot = plan(ROTATION, grid, PARAMS)
    mir = plan(MIRROR_X, grid, PARAMS)
    tra = plan(translate_x(1), grid, PARAMS)
    assert (rot.energy, mir.energy, tra.energy) == tuple(
        h * PARAMS.state_bits * PARAMS.e_bit_hop for h in (40, 32, 24))
    doubled = MigrationCostParams(state_bits=PARAMS.state_bits * 2)
    assert migration_energy(rot, doubled) == pytest.approx(2 * rot.energy)
    assert migration_energy(plan(IDENTITY, grid, PARAMS), PARAMS) == 0.0


def test_downtime_reproduces_reported_penalties():
    p = plan(translate_x(1), make_grid(4, 4), PARAMS)
    downtime = migration_downtime(p, PARAMS)
    assert downtime == pytest.approx(1.744e-6)
    # penalty = downtime / period, in percent
    assert downtime / 109e-6 * 100 == pytest.approx(1.600, abs=5e-3)
    assert downtime / 437.2e-6 * 100 == pytest.approx(0.399, abs=5e-3)
    assert downtime / 874.4e-6 * 100 == pytest.approx(0.199, abs=5e-3)


def test_detailed_downtime_mode():
    params = MigrationCostParams(detailed_timing=True)
    p = plan(ROTATION, make_grid(4, 4), params)
    max_hops = max(t.hops for ph in p.phases for t in ph)
    want = len(p.phases) * params.state_bits * params.t_bit_hop * max_hops
    assert p.downtime == pytest.approx(want)
    empty = plan(IDENTITY, make_grid(4, 4), params)
    assert empty.downtime == 0.0


def test_execute_applies_the_permutation():
    grid = make_grid(4, 4)
    mapping = identity_mapping(grid)
    rot = plan(ROTATION, grid, PARAMS)
    turned = mapping
    for _ in range(4):
        turned = execute(turned, rot)
    assert turned.assignment == mapping.assignment

    ident = plan(IDENTITY, grid, PARAMS)
    assert execute(mapping, ident).assignment == mapping.assignment
    assert execute(mapping, ident) == mapping
    # an executed placement is not validated again: it is a bijection, which
    # a validated copy of it confirms, and it is read-only like any other
    moved = execute(mapping, rot)
    assert Mapping(grid, dict(moved.assignment)) == moved != mapping
    with pytest.raises(TypeError):
        moved.assignment[0] = Coord(0, 0)


def test_execute_moves_the_warm_band():
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    moved = execute(mapping, plan(translate_xy(1, 1), grid, PARAMS))
    for w, p in profile.workload_power.items():
        old, new = mapping.location(w), moved.location(w)
        assert new == Coord((old.x + 1) % 4, (old.y + 1) % 4)
        if p == 2.0:
            assert new.y == 2  # band advanced one row


def test_scattered_power_equals_the_power_of_the_executed_mapping():
    # over two full orbits of every function kind, on a square and a
    # rectangular mesh, with a distinct power per workload (fillers at idle)
    for grid in (make_grid(5, 5), make_grid(4, 3)):
        rng = np.random.default_rng(grid.n_cells)
        profile = PowerProfile(dict(enumerate(rng.uniform(0.1, 2.0, grid.n_cells - 2))))
        for kind in KINDS:
            if kind == "rotation" and grid.nx != grid.ny:
                continue
            mplan = plan(MigrationFunction(kind, 2, 1), grid, PARAMS)
            start = mapping = identity_mapping(grid)
            power = power_vector(mapping, profile)
            orbit = 0
            while orbit == 0 or mapping != start:  # the events of one orbit
                mapping = execute(mapping, mplan)
                orbit += 1
            for _ in range(2 * orbit):
                mapping = execute(mapping, mplan)
                moved = np.empty_like(power)
                moved[mplan.targets] = power
                power = moved
                assert power.tobytes() == power_vector(mapping, profile).tobytes(), kind
            assert mapping == start


def test_execute_rejects_mismatched_grid():
    p = plan(MIRROR_X, make_grid(4, 4), PARAMS)
    with pytest.raises(ConfigurationError):
        execute(identity_mapping(make_grid(5, 5)), p)


def test_executed_mappings_agree_with_address_translation():
    # the cumulative I/O transform predicts exactly where execute() puts
    # every workload after a sequence of migrations
    from hotmesh.transforms import CumulativeTransform, compose, external_address
    grid = make_grid(4, 4)
    mapping0 = identity_mapping(grid)
    mapping = mapping0
    ct = CumulativeTransform.identity(grid)
    for fn in (ROTATION, translate_xy(1, 2), MIRROR_X):
        mapping = execute(mapping, plan(fn, grid, PARAMS))
        ct = compose(ct, fn, grid)
    for w in mapping0.assignment:
        assert mapping.location(w) == external_address(ct, mapping0.location(w))


def test_format_plan_lines():
    p = plan(translate_x(1), make_grid(2, 1), PARAMS)
    lines = format_plan(p).splitlines()
    assert set(lines) == {"0,0,0,1,0,1", "0,1,0,0,0,1"}


def test_cost_params_reject_negative_values():
    with pytest.raises(ConfigurationError):
        MigrationCostParams(e_bit_hop=-1.0)
    for name in ("state_bits", "e_bit_hop", "downtime_fixed", "t_bit_hop"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                MigrationCostParams(**{name: bad})
