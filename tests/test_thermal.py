import csv
import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hotmesh import thermal
from hotmesh.errors import ConfigurationError, ModelError
from hotmesh.grid import generate_warm_band, make_grid, power_vector
from hotmesh.placement import _block_response
from hotmesh.scenario import load_scenario
from hotmesh.sim import run
from hotmesh.thermal import (ThermalNetwork, ThermalParams, TransientSolver,
                             build_network, peak, spatial_spread, steady_state,
                             write_trace_csv)
from hotmesh.transforms import MIRROR_X, MIRROR_Y, ROTATION, as_permutation

from dense_oracle import reference_capacitance, reference_conductance


def lateral_link_count(g):
    blocks = g[:-1, :-1]
    return (np.count_nonzero(blocks) - np.count_nonzero(np.diag(blocks))) // 2


def test_network_shape_and_link_counts():
    params = ThermalParams()
    net1 = build_network(make_grid(1, 1), params)
    assert net1.n_nodes == 2
    assert lateral_link_count(reference_conductance(net1.grid, params)) == 0
    net4 = build_network(make_grid(4, 4), params)
    assert net4.n_nodes == 17
    # 2 * 4 * 3 mesh edges
    assert lateral_link_count(reference_conductance(net4.grid, params)) == 24
    net5 = build_network(make_grid(5, 5), params)
    assert net5.n_nodes == 26
    # 2 * 5 * 4
    assert lateral_link_count(reference_conductance(net5.grid, params)) == 40


def test_network_matrix_structure():
    p = ThermalParams()
    net = build_network(make_grid(3, 4), p)
    g = reference_conductance(net.grid, p)
    assert np.allclose(g, g.T)
    off = g - np.diag(np.diag(g))
    assert np.all(off <= 0)
    # every row sums to the node's conductance to ambient: only the sink's is not 0
    assert np.allclose(g.sum(axis=1), np.append(np.zeros(net.n_blocks), net.g_amb),
                       atol=1e-12)
    # the network's scalars are the links of the assembled G
    assert (-g[0, 1], -g[0, -1]) == (net.g_lat, net.g_vert)
    # lateral conductance between adjacent square blocks is k_si * thickness
    assert g[0, 1] == pytest.approx(-p.k_si * p.die_thickness)
    c = reference_capacitance(net.grid, p)
    assert (net.c_b, net.c_s) == (c[0], c[-1])
    assert net.c_b == pytest.approx(p.c_v * 4.36e-6 * p.die_thickness)
    assert net.c_s == pytest.approx(p.c_sink)


def test_thermal_params_validation():
    with pytest.raises(ConfigurationError):
        ThermalParams(r_sink=0.0)
    with pytest.raises(ConfigurationError):
        ThermalParams(ambient=float("nan"))
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            ThermalParams(r_sink=bad)
        with pytest.raises(ConfigurationError):
            ThermalParams(k_si=bad)


def test_zero_power_stays_at_ambient():
    net = build_network(make_grid(4, 4), ThermalParams())
    st = steady_state(net, np.zeros(16))
    assert np.allclose(st.temps, 40.0, atol=1e-12)
    assert peak(st) == pytest.approx(40.0)
    assert spatial_spread(st) == pytest.approx(0.0)


def test_single_block_series_resistance():
    # 1 W through r_vertical + r_sink: 40 + 1 * (2 + 0.5) = 42.5 C
    net = build_network(make_grid(1, 1, 1.0), ThermalParams())
    st = steady_state(net, [1.0])
    assert st.temps[0] == pytest.approx(42.5, abs=1e-9)
    assert st.temps[1] == pytest.approx(40.5, abs=1e-9)
    assert peak(st) == pytest.approx(42.5, abs=1e-9)


def test_steady_state_superposition():
    net = build_network(make_grid(4, 4), ThermalParams())
    rng = np.random.default_rng(7)
    p1 = rng.uniform(0.0, 2.0, 16)
    p2 = rng.uniform(0.0, 2.0, 16)
    a, b = 0.7, 1.9
    lhs = steady_state(net, a * p1 + b * p2).temps - 40.0
    rhs = a * (steady_state(net, p1).temps - 40.0) + b * (steady_state(net, p2).temps - 40.0)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_steady_state_energy_conservation():
    net = build_network(make_grid(5, 5), ThermalParams())
    rng = np.random.default_rng(11)
    p = rng.uniform(0.0, 3.0, 25)
    st = steady_state(net, p)
    flow_to_ambient = net.g_amb * float(st.temps[-1] - 40.0)
    assert flow_to_ambient == pytest.approx(p.sum(), rel=1e-9)


def test_steady_state_symmetry_equivariance():
    grid = make_grid(4, 4)
    net = build_network(grid, ThermalParams())
    rng = np.random.default_rng(3)
    p = rng.uniform(0.0, 2.0, 16)
    base = steady_state(net, p).temps[:16]
    for fn in (MIRROR_X, MIRROR_Y, ROTATION):
        perm = as_permutation(fn, grid)
        fwd = np.array(perm.forward)
        p_moved = np.empty_like(p)
        p_moved[fwd] = p  # power that lived at i now lives at perm(i)
        moved = steady_state(net, p_moved).temps[:16]
        assert np.allclose(moved[fwd], base, rtol=1e-9, atol=1e-12)


def test_uniform_power_field_is_symmetric():
    grid = make_grid(4, 4)
    net = build_network(grid, ThermalParams())
    field = steady_state(net, np.full(16, 1.0)).temps[:16]
    for fn in (MIRROR_X, MIRROR_Y, ROTATION):
        fwd = np.array(as_permutation(fn, grid).forward)
        assert np.allclose(field[fwd], field, rtol=1e-9, atol=1e-12)


def test_maximum_principle():
    net = build_network(make_grid(5, 5), ThermalParams())
    rng = np.random.default_rng(13)
    for _ in range(5):
        st = steady_state(net, rng.uniform(0.0, 4.0, 25))
        assert np.all(st.temps >= 40.0 - 1e-12)


def test_singular_network_raises_model_error():
    # with no link to ambient G is singular and there is no steady state
    good = build_network(make_grid(2, 2), ThermalParams())
    with pytest.raises(ModelError):
        replace(good, g_amb=0.0)


def test_networks_the_closed_form_cannot_represent_raise_model_error():
    grid = make_grid(3, 2)
    good = build_network(grid, ThermalParams())
    for name in ("g_lat", "g_vert", "g_amb", "c_b", "c_s"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ModelError):
                replace(good, **{name: value})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError):
            replace(good, ambient=value)
    # a hand-built network with the built one's scalars is the same network
    copy = ThermalNetwork(**{f.name: getattr(good, f.name) for f in fields(ThermalNetwork)})
    p = np.linspace(0.1, 1.1, 6)
    assert np.array_equal(steady_state(copy, p).temps, steady_state(good, p).temps)


@st.composite
def thermal_cases(draw):
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    factor = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
    defaults = ThermalParams()
    params = ThermalParams(
        **{name: getattr(defaults, name) * draw(factor)
           for name in ("k_si", "c_v", "die_thickness", "r_vertical", "r_sink", "c_sink")},
        ambient=draw(st.floats(-40.0, 120.0)))
    return make_grid(nx, ny, 4.36 * draw(factor)), params, draw(st.integers(0, 2**32 - 1))


@given(thermal_cases())
@example((make_grid(1, 1), ThermalParams(), 0))
@example((make_grid(1, 9), ThermalParams(), 1))
@example((make_grid(12, 1), ThermalParams(), 2))
@example((make_grid(12, 12), ThermalParams(), 3))
def test_closed_form_basis_matches_the_dense_operator(case):
    grid, params, seed = case
    net = build_network(grid, params)
    g = reference_conductance(grid, params)
    modes = net.modes
    c_half = np.sqrt(reference_capacitance(grid, params))
    # the dense Q, formed by applying the factored transforms to the identity:
    # row i of to_modal(I) is (Q^T C^1/2 e_i)^T, row k of from_modal(I) is (C^-1/2 Q e_k)^T
    eye = np.eye(net.n_nodes)
    q = modes.to_modal(eye) / c_half[:, None]
    s = g / np.outer(c_half, c_half)
    assert np.max(np.abs(modes.from_modal(eye) * c_half - q.T)) <= 1e-12
    assert np.max(np.abs(q.T @ q - np.eye(net.n_nodes))) <= 1e-12
    assert np.max(np.abs(s @ q - q * modes.mu)) <= 1e-12 * np.max(np.abs(s))
    assert np.all(modes.mu > 0)
    p = np.random.default_rng(seed).uniform(0.0, 2.0, net.n_blocks)
    dense = np.linalg.solve(g, np.append(p, 0.0)) + net.ambient
    assert np.max(np.abs(steady_state(net, p).temps - dense)) <= 1e-9


@given(thermal_cases())
@example((make_grid(1, 1), ThermalParams(), 0))
@example((make_grid(1, 9), ThermalParams(), 1))
@example((make_grid(12, 1), ThermalParams(), 2))
def test_factored_transforms_agree_however_applied_and_invert_each_other(case):
    # a stack of rows at once, row by row and stored column by column (as
    # the period template forms them), and from_modal into a strided out:
    # the same values; to_modal and from_modal undo each other
    grid, params, seed = case
    modes = build_network(grid, params).modes
    x = np.random.default_rng(seed).uniform(-5.0, 5.0, (2, 3, grid.n_cells + 1))
    for apply in (modes.to_modal, modes.from_modal):
        batched = apply(x)
        tol = 1e-12 * np.abs(batched).max()
        assert np.abs(np.array([[apply(row) for row in rows] for rows in x])
                      - batched).max() <= tol
        by_column = apply(np.asfortranarray(x.reshape(6, -1)))
        assert np.abs(by_column.reshape(x.shape) - batched).max() <= tol
    nodes = modes.from_modal(x)
    tol = 1e-12 * np.abs(nodes).max()
    strided = np.zeros((2, 3, x.shape[-1] + 2))[..., 1:-1]  # a slice of wider rows
    assert modes.from_modal(x, out=strided) is strided
    assert np.abs(strided - nodes).max() <= tol
    with pytest.raises(ValueError, match="must merge"):  # no view holds its rows
        modes.from_modal(x, out=np.zeros((3, 2, x.shape[-1])).transpose(1, 0, 2))
    # out may be the memory of z itself, in either order: the same values
    for node_major in (True, False):
        memory = np.empty(x[0].size)
        z = memory.reshape(x.shape[-1], -1).T  # stored mode by mode
        z[...] = x[0]
        out = z if node_major else memory.reshape(z.shape)
        assert modes.from_modal(z, out=out) is out
        assert np.abs(out - nodes[0]).max() <= tol
    scale = np.abs(x).max()
    assert np.abs(modes.from_modal(modes.to_modal(x)) - x).max() <= 1e-12 * scale
    assert np.abs(modes.to_modal(modes.from_modal(x)) - x).max() <= 1e-12 * scale


def test_the_basis_of_a_128x128_mesh_holds_no_dense_array():
    # the factors only: no array over max(nx, ny)^2 + n + 1 values, where a
    # dense Q would be (n + 1)^2 = 268 468 225 values (2.1 GB), and applying
    # it to a row allocates a few rows' worth
    grid = make_grid(128, 128)
    n = grid.n_cells
    tracemalloc.start()
    try:
        net = build_network(grid, ThermalParams())
        state = steady_state(net, np.linspace(0.0, 1.0, n))
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 16 * 8 * (n + 1)
    held = [v for obj in (net, net.modes) for v in vars(obj).values()
            if isinstance(v, np.ndarray)]
    assert held and max(a.size for a in held) <= 128 ** 2 + n + 1
    assert np.all(np.isfinite(state.temps))


@given(thermal_cases())
@example((make_grid(1, 1), ThermalParams(), 0))
@example((make_grid(12, 12), ThermalParams(), 0))
def test_placement_block_response_matches_a_dense_solve(case):
    # R[j, i], the rise of block j per watt on block i, read off the basis
    grid, params, _ = case
    net = build_network(grid, params)
    n = net.n_blocks
    dense = np.linalg.solve(reference_conductance(grid, params), np.eye(n + 1, n))[:n]
    assert np.max(np.abs(_block_response(net) - dense)) <= 1e-9


def test_power_vector_shape_checked():
    net = build_network(make_grid(2, 2), ThermalParams())
    for bad in (np.ones(5), np.ones((2, 4)), 1.0):
        with pytest.raises(ValueError):
            steady_state(net, bad)
    for bad in (np.ones((3, 5)), np.ones((4, 3)), 1.0):
        with pytest.raises(ValueError):
            thermal._modal_steady_state(net, bad)


def test_transient_fixed_point_and_cooling():
    net = build_network(make_grid(3, 3), ThermalParams())
    p = np.linspace(0.1, 0.9, 9)
    ss = steady_state(net, p)
    solver = TransientSolver(net, 1e-6)
    assert np.allclose(solver.step(ss.temps, p), ss.temps, atol=1e-9)

    cold = np.full(10, 40.0)
    still_cold = solver.step(cold, np.zeros(9), 1.0)
    assert np.allclose(still_cold, 40.0, atol=1e-12)
    # a start at steady state has zero deviation, but the step is still checked
    for bad in (0.0, -1e-6, math.inf, math.nan):
        with pytest.raises(ValueError):
            TransientSolver(net, bad)
        for temps, power in ((cold, np.zeros(9)), (ss.temps, p)):
            with pytest.raises(ValueError):
                solver.step(temps, power, bad)
            with pytest.raises(ValueError):
                solver.march(temps, power, 3, bad)
    for count in (0, -1):
        with pytest.raises(ValueError):
            solver.march(ss.temps, p, count)


def test_modal_steady_state_is_the_steady_state_in_modal_coordinates():
    net = build_network(make_grid(3, 5), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    for p in np.random.default_rng(5).uniform(0.0, 2.0, (4, 15)):
        z = thermal._modal_steady_state(net, p)
        assert np.array_equal(solver.nodes(z, net.ambient), steady_state(net, p).temps)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_a_stack_of_powers_is_solved_row_by_row(nx, ny, rows, seed):
    # one solve of a stack of power vectors gives each row's own solve, and
    # a row's own solve is steady_state() bit for bit
    net = build_network(make_grid(nx, ny), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    powers = np.random.default_rng(seed).uniform(0.0, 3.0, (rows, net.n_blocks))
    stack = thermal._modal_steady_state(net, powers)
    assert stack.shape == (rows, net.n_nodes)
    for p, z in zip(powers, stack):
        single = solver.nodes(thermal._modal_steady_state(net, p), net.ambient)
        assert np.array_equal(single, steady_state(net, p).temps)
        assert np.abs(solver.nodes(z, net.ambient) - single).max() <= 1e-12


def test_period_template_matches_march_run_by_run():
    # runs of one period: a stalled and pulsed step, a short stalled step,
    # active steps, a short active step; the active power varies by period
    net = build_network(make_grid(3, 4), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    rng = np.random.default_rng(11)
    idle, pulse = np.full(12, 0.1), rng.uniform(0.0, 3.0, 12)
    actives = rng.uniform(0.0, 2.0, (6, 12))
    layout = [(1, 1e-6, idle + pulse, False), (1, 7.44e-7, idle, False),
              (9, 1e-6, 0.0, True), (1, 3e-7, 0.0, True)]
    fixed = thermal._modal_steady_state(net, [np.broadcast_to(p, 12) for _, _, p, _ in layout])
    template = solver.template([(count, dt, z, varies)
                                for (count, dt, _, varies), z in zip(layout, fixed)])
    assert template.steps == 12
    z_var = thermal._modal_steady_state(net, actives)
    starts = template.starts(z_var[0], z_var)
    x = steady_state(net, actives[0]).temps
    for k, active in enumerate(actives):
        marched = []
        for count, dt, p, varies in layout:
            rows = solver.march(x, p + active if varies else np.broadcast_to(p, 12), count, dt)
            marched.extend(rows)
            x = rows[-1]
        rows = solver.nodes(template.rows(starts[k:k + 1], z_var[k:k + 1], 0, 12), net.ambient)
        assert np.abs(rows - np.array(marched)).max() <= 1e-10
        assert np.abs(solver.nodes(starts[k + 1], net.ambient) - x).max() <= 1e-10
        # any slice of the period: the same rows
        for s0, s1 in ((0, 1), (1, 2), (2, 7), (5, 12), (11, 12)):
            part = template.rows(starts[k:k + 1], z_var[k:k + 1], s0, s1)
            assert np.abs(solver.nodes(part, net.ambient) - rows[s0:s1]).max() <= 1e-12


def test_template_approach_rows_hold_for_any_step_count():
    # the template stores its approach rows mode by mode, the period's step
    # count apart: for every step count up to 17, with a one-step run first
    # and last, they equal _approach's own rows bit for bit
    net = build_network(make_grid(3, 3), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    p = np.linspace(0.1, 1.7, 9)
    z = thermal._modal_steady_state(net, p)
    for steps in range(2, 18):
        layout = [(1, 1e-6), (steps - 2, 7.44e-7), (1, 3e-7)] if steps > 2 else [(1, 1e-6)] * 2
        template = solver.template([(count, dt, z, False) for count, dt in layout])
        assert template.steps == steps
        for (count, dt), a, b in zip(layout, template.bounds, template.bounds[1:]):
            assert np.array_equal(template.approach[a:b], solver._approach(dt, count))


def test_march_holds_a_steady_state_bit_for_bit():
    net = build_network(make_grid(4, 4), ThermalParams())
    p = np.linspace(0.2, 1.7, 16)
    ss = steady_state(net, p).temps
    solver = TransientSolver(net, 1e-6)
    assert np.array_equal(solver.march(ss, p, 500), np.tile(ss, (500, 1)))
    assert np.array_equal(solver.step(ss, p, 7.44e-7), ss)


def test_transient_converges_monotonically_to_steady_state():
    grid = make_grid(4, 4)
    net = build_network(grid, ThermalParams())
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    p = power_vector(mapping, profile)
    target = steady_state(net, p).temps
    # large steps are fine: backward Euler is unconditionally stable
    solver = TransientSolver(net, 5.0)
    temps = np.full(net.n_nodes, 40.0)
    residual = float(np.max(np.abs(temps - target)))
    for _ in range(400):
        temps = solver.step(temps, p)
        new_residual = float(np.max(np.abs(temps - target)))
        assert new_residual <= residual + 1e-12
        residual = new_residual
        if residual < 1e-6:
            break
    assert residual < 1e-6


def test_transient_solver_matches_dense_backward_euler():
    params = ThermalParams()
    net = build_network(make_grid(3, 2), params)
    g = reference_conductance(net.grid, params)
    c = reference_capacitance(net.grid, params)
    solver = TransientSolver(net, 1e-6)
    rng = np.random.default_rng(5)
    p = rng.uniform(0.0, 1.0, 6)

    def oracle(temps, dt):
        c_over_dt = c / dt
        x = np.linalg.solve(g + np.diag(c_over_dt),
                            np.append(p, 0.0) + c_over_dt * (temps - net.ambient))
        return x + net.ambient

    exact = fast = np.full(net.n_nodes, 40.0)
    for _ in range(50):
        exact = oracle(exact, 1e-6)
        fast = solver.step(fast, p)
    assert np.allclose(fast, exact, atol=1e-9)
    assert np.allclose(solver.step(fast, p), oracle(fast, 1e-6), atol=1e-12)
    # an off-grid step length gets its own propagator
    assert np.allclose(solver.step(fast, p, 2.5e-7), oracle(fast, 2.5e-7), atol=1e-12)


@st.composite
def march_cases(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dt = draw(st.one_of(st.sampled_from([1e-6, 7.44e-7, 2.56e-7]),
                        st.floats(1e-8, 1e-2)))
    count = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    return nx, ny, dt, count, seed


@given(march_cases())
def test_march_matches_sequential_dense_backward_euler(case):
    nx, ny, dt, count, seed = case
    params = ThermalParams()
    net = build_network(make_grid(nx, ny), params)
    rng = np.random.default_rng(seed)
    p0, p1 = rng.uniform(0.0, 2.0, (2, net.n_blocks))
    start = steady_state(net, p0).temps + rng.uniform(-1.0, 1.0, net.n_nodes)
    c_over_dt = reference_capacitance(net.grid, params) / dt
    system = reference_conductance(net.grid, params) + np.diag(c_over_dt)
    x, exact = start - net.ambient, []
    for _ in range(count):
        x = np.linalg.solve(system, np.append(p1, 0.0) + c_over_dt * x)
        exact.append(x + net.ambient)
    rows = TransientSolver(net, dt).march(start, p1, count)
    assert rows.shape == (count, net.n_nodes)
    assert np.max(np.abs(rows - np.array(exact))) <= 1e-9
    # off the default step length, through the explicit dt
    rows = TransientSolver(net, 1e-6).march(start, p1, count, dt)
    assert np.max(np.abs(rows - np.array(exact))) <= 1e-9


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 50),
       st.sampled_from([1e-6, 7.44e-7, 2.56e-7, 3e-3]), st.integers(0, 2**32 - 1))
def test_march_equals_the_rows_of_a_one_run_template(nx, ny, count, dt, seed):
    # march forms a zero start's rows directly; a template of the same one
    # run, started at zero, gives the same node rows bit for bit
    net = build_network(make_grid(nx, ny), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 2.0, net.n_blocks)
    start = steady_state(net, rng.uniform(0.0, 2.0, net.n_blocks)).temps
    fixed = net.modes.to_modal(steady_state(net, p).temps - start)
    template = solver.template([(count, dt, fixed, False)])
    zero = np.zeros((1, net.n_nodes))
    rows = solver.nodes(template.rows(zero, zero, 0, count), start)
    assert np.array_equal(solver.march(start, p, count, dt), rows)


def test_template_rows_into_work_are_the_rows_without_it():
    # rows(..., work) forms its rows in the start of the flat buffer work,
    # mode by mode, bit for bit the rows formed without it
    net = build_network(make_grid(3, 2), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    rng = np.random.default_rng(5)
    fixed = net.modes.to_modal(rng.uniform(-5.0, 5.0, (2, net.n_nodes)))
    template = solver.template([(3, 1e-6, fixed[0], False), (5, 7.44e-7, fixed[1], True)])
    z0, z_var = net.modes.to_modal(rng.uniform(-5.0, 5.0, (2, 3, net.n_nodes)))
    for s0, s1 in ((0, 8), (2, 6), (7, 8)):
        want = template.rows(z0, z_var, s0, s1)
        assert want.shape == (3 * (s1 - s0), net.n_nodes)
        work = np.full(want.size + 9, np.nan)
        got = template.rows(z0, z_var, s0, s1, work)
        assert np.shares_memory(got, work) and got.strides[0] == got.itemsize
        assert got.tobytes("F") == want.tobytes("F") == work[:want.size].tobytes()
        assert np.isnan(work[want.size:]).all()


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 40), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_the_modal_row_mean_is_the_block_mean_of_the_node_rows(nx, ny, count, by_mode, seed):
    # the mean block temperature of a row, read off the two modal coordinates
    # that carry it, is the mean of the blocks of its node row
    net = build_network(make_grid(nx, ny), ThermalParams())
    solver = TransientSolver(net, 1e-6)
    rng = np.random.default_rng(seed)
    origin = steady_state(net, rng.uniform(0.0, 2.0, net.n_blocks)).temps
    z = net.modes.to_modal(rng.uniform(-10.0, 10.0, (count, net.n_nodes)))
    if by_mode:  # as PeriodTemplate.rows stores them
        z = np.asfortranarray(z)
    rows = solver.nodes(z, origin)
    modal = origin[:-1].mean() + net.modes.block_mean(z)
    assert np.abs(modal - rows[:, :-1].mean(axis=1)).max() <= 1e-12


def test_transient_step_conserves_energy():
    # Per step: sum C (T' - T) / dt + heat to ambient = sum P. That holds
    # exactly for backward Euler up to the rounding of the stored T', which
    # is also charged: one ulp per node, weighted by C / dt. Checked for
    # single steps and for consecutive rows of one march.
    for n in (2, 3, 4, 5):
        net = build_network(make_grid(n, n), ThermalParams())
        rng = np.random.default_rng(n)
        p0, p1 = rng.uniform(0.0, 2.0, (2, n * n))
        solver = TransientSolver(net, 1e-6)
        for dt in (1e-6, 2.5e-7):
            c_over_dt = reference_capacitance(net.grid, ThermalParams()) / dt
            start = steady_state(net, p0).temps
            stepped = [start]
            for _ in range(100):
                stepped.append(solver.step(stepped[-1], p1, dt))
            marched = np.vstack([start, solver.march(start, p1, 100, dt)])
            for rows in (np.array(stepped), marched):
                for old, new in zip(rows[:-1], rows[1:]):
                    balance = (c_over_dt * (new - old)).sum() \
                        + net.g_amb * (new[-1] - net.ambient)
                    rounding = (c_over_dt * np.spacing(new)).sum()
                    assert abs(balance - p1.sum()) <= 1e-9 * p1.sum() + rounding, (n, dt)


def test_march_conserves_energy_under_a_large_heat_pulse():
    # A migration's heat pulse is a large power for one step. Its steady
    # state is hundreds of degrees, so x_ss plus the decayed deviation would
    # lose the digits of the slow sink mode; march() takes the step as the
    # change from the start, and the allowance of the test above holds.
    for n in (3, 4, 5, 6):
        net = build_network(make_grid(n, n), ThermalParams())
        rng = np.random.default_rng(n)
        p0 = rng.uniform(0.0, 2.0, n * n)
        solver = TransientSolver(net, 1e-6)
        for scale in (1e2, 1e3):
            p1 = p0 + scale * (rng.uniform(0.0, 1.0, n * n) < 0.5)
            for dt in (1e-6, 2.5e-7):
                c_over_dt = reference_capacitance(net.grid, ThermalParams()) / dt
                start = steady_state(net, p0).temps
                rows = np.vstack([start, solver.march(start, p1, 3, dt)])
                for old, new in zip(rows[:-1], rows[1:]):
                    balance = (c_over_dt * (new - old)).sum() \
                        + net.g_amb * (new[-1] - net.ambient)
                    rounding = (c_over_dt * np.spacing(new)).sum()
                    assert abs(balance - p1.sum()) <= 1e-9 * p1.sum() + rounding, (n, dt)


def test_warm_band_peak_sits_on_the_band_row():
    for n, row in ((4, 1), (5, 2)):
        grid = make_grid(n, n)
        net = build_network(grid, ThermalParams())
        profile, mapping = generate_warm_band(grid, 0.5, 2.0, row)
        st = steady_state(net, power_vector(mapping, profile))
        hottest = int(np.argmax(st.temps[:grid.n_cells]))
        assert grid.coord(hottest).y == row
        assert peak(st) == pytest.approx(float(st.temps[hottest]))


def test_trace_csv_layout(tmp_path):
    times = np.array([0.0, 1e-6, 2e-6])
    temps = np.tile(np.linspace(40.0, 41.0, 5), (3, 1))
    path = tmp_path / "trace.csv"
    write_trace_csv(times, temps, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,t_block_0,t_block_1,t_block_2,t_block_3,t_sink"
    assert len(lines) == 4
    assert lines[1].startswith("0.000000000,40.000000,")


def _csv_writer_reference(times, temps, path):
    # the row-at-a-time csv.writer layout write_trace_csv must reproduce
    temps = np.asarray(temps)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time_s"] + [f"t_block_{i}" for i in range(temps.shape[1] - 1)]
                   + ["t_sink"])
        for t, row in zip(times, temps):
            w.writerow([f"{t:.9f}"] + [f"{v:.6f}" for v in row])


def test_trace_csv_matches_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(17)
    rows = 700  # more than one formatting chunk
    times = np.cumsum(rng.uniform(0.0, 2e-6, rows))
    times[0] = 0.0
    temps = rng.normal(45.0, 30.0, (rows, 6))
    temps[1, :] = [-0.0, 0.0, -1.5, 0.0000005, 2.0000025, -3.0000005]
    temps[2, :] = [40.0000005, 40.0000015, -40.0000025, 1e-7, -1e-7, 123456.7890125]
    times[3] = 0.0000000005
    for as_lists in (False, True):
        t_in = times.tolist() if as_lists else times
        x_in = list(temps) if as_lists else temps
        write_trace_csv(t_in, x_in, tmp_path / "fast.csv")
        _csv_writer_reference(times, temps, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"-0.000000" in (tmp_path / "ref.csv").read_bytes()


def _count_template_blocks(monkeypatch):
    """Row counts of the blocks write_trace_csv hands to the exact %-template."""
    blocks = []
    template = thermal._template_rows

    def counted(block, decimals):
        blocks.append(len(block))
        return template(block, decimals)

    monkeypatch.setattr(thermal, "_template_rows", counted)
    return blocks


def _kernel_cases():
    """(name, times, temps) traces of one block each whose every column keeps
    one sign and one integer-digit count, so the fixed-point kernel takes them."""
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.0, 2e-6, 300))
    times[0] = 0.0
    for digits in (1, 2, 3, 4):
        lo = 0.0 if digits == 1 else 10.0 ** (digits - 1)
        yield f"{digits} integer digits", times, rng.uniform(lo, 0.999 * 10.0 ** digits, (300, 5))
    yield "all negative", times, -rng.uniform(10.0, 99.0, (300, 5))
    ties = rng.uniform(41.0, 49.0, (300, 5))
    # exact binary ties of the 6th decimal (j + 1/2) / 128 and decimal near-ties
    ties[10, :] = [40.0078125, 40.0234375, 41.0390625, 42.5000005, 43.0000015]
    tie_times = times.copy()
    tie_times[20:24] = [1 / 1024, 3 / 1024, 5 / 1024, 0.0000000005]  # ties of the 9th decimal
    yield "ties", tie_times, ties
    carry = np.column_stack((rng.uniform(10.0, 99.0, 300), rng.uniform(100.0, 999.0, 300)))
    carry[7] = [9.9999996, 99.9999996]  # round up into the column's digit count
    yield "carry", times, carry
    zeros = -rng.uniform(0.0, 9.0, (300, 2))
    zeros[3] = [-0.0, -1e-9]
    yield "negative zero", times, zeros


def test_trace_csv_kernel_matches_csv_writer_bytes(tmp_path, monkeypatch):
    template_blocks = _count_template_blocks(monkeypatch)
    for name, times, temps in _kernel_cases():
        write_trace_csv(times, temps, tmp_path / "fast.csv")
        _csv_writer_reference(times, temps, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), name
    assert b"-0.000000," in (tmp_path / "ref.csv").read_bytes()
    assert template_blocks == []  # a kernel that fell back would pass the comparison alone


def test_shipped_traces_take_the_trace_csv_kernel(tmp_path, monkeypatch):
    template_blocks = _count_template_blocks(monkeypatch)
    for path in sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.ini")):
        _, trace = run(load_scenario(path))
        write_trace_csv(trace.times, trace.temps, tmp_path / "fast.csv")
        _csv_writer_reference(trace.times, trace.temps, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), path
    assert template_blocks == []


def test_trace_csv_template_takes_blocks_the_kernel_cannot(tmp_path, monkeypatch):
    template_blocks = _count_template_blocks(monkeypatch)
    times = np.array([0.0, 1e-6, 2e-6])
    for column in ([9.5, 10.5, 11.5], [-1.0, 0.0, 1.0], [1.0, math.inf, 2.0],
                   [1.0, math.nan, 2.0], [1.0, 1e300, 2.0]):
        temps = np.column_stack((np.full(3, 45.0), column))
        write_trace_csv(times, temps, tmp_path / "fast.csv")
        _csv_writer_reference(times, temps, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert template_blocks == [3] * 5


@pytest.mark.filterwarnings("error")
def test_trace_csv_template_takes_a_column_that_overflows_when_scaled(tmp_path, monkeypatch):
    # |v| 10^6 is past float64 above about 1.8e302 deg C: once this raised
    # "RuntimeWarning: overflow encountered in multiply", an error here
    template_blocks = _count_template_blocks(monkeypatch)
    times = np.array([0.0, 1e-6, 2e-6])
    temps = np.column_stack((np.full(3, 45.0), [1e305, -2e305, 3e305]))
    write_trace_csv(times, temps, tmp_path / "fast.csv")
    _csv_writer_reference(times, temps, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert template_blocks == [3]


@pytest.mark.parametrize("times,temps", [(np.zeros(3), np.zeros(3)),  # one node row, not a trace
                                         (np.zeros(2), np.zeros((3, 5))),
                                         (np.zeros(4), np.zeros((3, 5))),
                                         (np.zeros((3, 1)), np.zeros((3, 5))),
                                         (np.zeros(3), np.zeros((3, 0)))])
def test_trace_csv_refuses_times_and_temps_that_are_not_one_trace(tmp_path, times, temps):
    # a 1-D temps once raised an IndexError, and a times shorter than temps
    # would misalign the rows once nothing stacks the two
    shapes = f"got times {times.shape} and temps {temps.shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        write_trace_csv(times, temps, tmp_path / "trace.csv")
    assert not (tmp_path / "trace.csv").exists()


def test_an_empty_trace_writes_only_the_header(tmp_path):
    times, temps = np.empty(0), np.empty((0, 17))
    write_trace_csv(times, temps, tmp_path / "fast.csv")
    _csv_writer_reference(times, temps, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "fast.csv").read_bytes().count(b"\r\n") == 1


@st.composite
def trace_cases(draw):
    """(times, temps, block_rows): two to four blocks of block_rows rows, the
    last one maybe short, in which each of 1-40 columns draws a sign and an
    integer-digit count per block, sprinkled with exact binary ties of the
    6th (temps) and 9th (times) decimal, -0.0 and values that print as the
    next power of ten."""
    columns, block_rows = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    blocks = draw(st.integers(2, 4))
    rows = block_rows * blocks - draw(st.integers(0, block_rows - 1))
    layouts = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 9)),
                            min_size=blocks * columns, max_size=blocks * columns))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    temps = np.empty((rows, columns))
    for i, (negative, digits) in enumerate(layouts):
        block = temps[i // columns * block_rows:(i // columns + 1) * block_rows, i % columns]
        low = 0.0 if digits == 1 else 10.0 ** (digits - 1)
        block[:] = rng.uniform(low, 10.0 ** digits, len(block))
        special = rng.integers(len(block))
        block[special] = rng.choice([
            np.floor(block[special]) + (2 * rng.integers(64) + 1) / 128,  # a tie of the 6th
            low - 4e-7 if digits > 1 else 0.0,  # prints as low, or as 0.000000
            10.0 ** digits - 4e-7,  # prints with one digit more than the column
            block[special]])
        block *= -1.0 if negative else 1.0
    temps[rng.random(temps.shape) < 0.02] = -0.0
    step = draw(st.sampled_from([1e-6, 1e-3, 0.7, 40.0]))
    times = np.cumsum(rng.uniform(0.0, step, rows))
    ties = rng.random(rows) < 0.2
    times[ties] = (2 * rng.integers(512, size=int(ties.sum())) + 1) / 1024  # ties of the 9th
    return times, temps, block_rows


def _printed_layouts(values, decimals):
    """The (sign, integer digits) of values as %-formatting prints them."""
    return {(text[0] == "-", len(text.lstrip("-").split(".")[0]))
            for text in ("%.*f" % (decimals, v) for v in values)}


@given(trace_cases())
def test_trace_csv_kernel_matches_csv_writer_bytes_on_any_layout(tmp_path_factory, case):
    times, temps, block_rows = case
    path = tmp_path_factory.getbasetemp()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermal, "_CSV_BLOCK_VALUES", block_rows * (1 + temps.shape[1]))
        template_blocks = _count_template_blocks(patch)
        write_trace_csv(times, temps, path / "fast.csv")
    _csv_writer_reference(times, temps, path / "ref.csv")
    assert (path / "fast.csv").read_bytes() == (path / "ref.csv").read_bytes()
    # exactly the blocks in which some column prints two signs or digit counts
    mixed = [len(block) for block in (np.column_stack((times, temps))[lo:lo + block_rows]
                                      for lo in range(0, len(times), block_rows))
             if any(len(_printed_layouts(column, d)) > 1
                    for column, d in zip(block.T, (9,) + (6,) * temps.shape[1]))]
    assert template_blocks == mixed
