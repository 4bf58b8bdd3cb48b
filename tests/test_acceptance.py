"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; without -s they still appear in captured output.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hotmesh.grid import (Coord, Mapping, PowerProfile, generate_center_hotspot,
                          generate_warm_band, make_grid)
from hotmesh.migration import MigrationCostParams, migration_downtime, plan
from hotmesh.placement import AnnealConfig, evaluate, place
from hotmesh.scenario import ScenarioConfig
from hotmesh.sim import report, run, sweep
from hotmesh.thermal import (ThermalParams, TransientSolver, build_network,
                             steady_state)
from hotmesh.transforms import (IDENTITY, MIRROR_X, MIRROR_XY, MIRROR_Y, ROTATION,
                                apply, as_permutation, fixed_points, translate_x,
                                translate_xy, translate_y)

COST = MigrationCostParams()


def _finish(num: int, failures: list, detail: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < limit
    print(f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {detail} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:5])
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def _menu(grid):
    fns = [IDENTITY, MIRROR_X, MIRROR_Y, MIRROR_XY,
           translate_x(1), translate_x(grid.nx - 1), translate_x(-2),
           translate_y(1), translate_y(grid.ny + 3),
           translate_xy(1, 1), translate_xy(2, 3)]
    if grid.nx == grid.ny:
        fns.append(ROTATION)
    return fns


def test_criterion_01_transform_conformance():
    t0 = time.perf_counter()
    failures = []
    for n in (4, 5):
        g = make_grid(n, n)
        for c in g.cells():
            if apply(ROTATION, c, g) != Coord(n - 1 - c.y, c.x):
                failures.append(f"rotation at {c} on {n}x{n}")
            if apply(MIRROR_X, c, g) != Coord(n - 1 - c.x, c.y):
                failures.append(f"mirror_x at {c} on {n}x{n}")
            for off in (1, 2, n - 1, n + 3):
                if apply(translate_x(off), c, g) != Coord((c.x + off) % n, c.y):
                    failures.append(f"translate_x({off}) at {c} on {n}x{n}")
    checked = 0
    for nx in range(1, 9):
        for ny in range(1, 9):
            g = make_grid(nx, ny)
            for fn in _menu(g):
                perm = as_permutation(fn, g)
                if len({perm(c) for c in g.cells()}) != g.n_cells:
                    failures.append(f"{fn.label()} not a bijection on {nx}x{ny}")
                checked += 1
    _finish(1, failures,
            f"table conformance on 4x4/5x5 and {checked} bijection checks", t0, 1.0)


def test_criterion_02_center_fixed_point():
    t0 = time.perf_counter()
    failures = []
    g5 = make_grid(5, 5)
    if fixed_points(ROTATION, g5) != {Coord(2, 2)}:
        failures.append("rotation fixed points on 5x5")
    if Coord(2, 2) not in fixed_points(MIRROR_XY, g5):
        failures.append("mirror_xy does not fix the center on 5x5")
    _finish(2, failures, "rotation and mirror_xy leave the 5x5 center in place", t0, 1.0)


def test_criterion_03_thermal_solver_properties():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    for n in (4, 5):
        grid = make_grid(n, n)
        net = build_network(grid, ThermalParams())
        cells = grid.n_cells

        p1 = rng.uniform(0.0, 2.0, cells)
        p2 = rng.uniform(0.0, 2.0, cells)
        a, b = 0.6, 1.7
        lhs = steady_state(net, a * p1 + b * p2).temps - 40.0
        rhs = (a * (steady_state(net, p1).temps - 40.0)
               + b * (steady_state(net, p2).temps - 40.0))
        if not np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12):
            failures.append(f"superposition on {n}x{n}")

        base = steady_state(net, p1).temps[:cells]
        for fn in (MIRROR_X, MIRROR_Y, ROTATION):
            fwd = np.array(as_permutation(fn, grid).forward)
            moved_p = np.empty_like(p1)
            moved_p[fwd] = p1
            moved = steady_state(net, moved_p).temps[:cells]
            if not np.allclose(moved[fwd], base, rtol=1e-9, atol=1e-12):
                failures.append(f"{fn.label()} equivariance on {n}x{n}")

        st = steady_state(net, p1)
        flow = net.g_amb * float(st.temps[-1] - 40.0)
        if abs(flow - p1.sum()) > 1e-9 * p1.sum():
            failures.append(f"energy conservation on {n}x{n}")

        target = st.temps
        solver = TransientSolver(net, 5.0)
        temps = np.full(net.n_nodes, 40.0)
        residual = float(np.max(np.abs(temps - target)))
        for _ in range(400):
            temps = solver.step(temps, p1)
            new_residual = float(np.max(np.abs(temps - target)))
            if new_residual > residual + 1e-12:
                failures.append(f"non-monotone convergence on {n}x{n}")
                break
            residual = new_residual
            if residual < 1e-6:
                break
        if residual >= 1e-6:
            failures.append(f"transient did not reach steady state on {n}x{n}")
    _finish(3, failures,
            "superposition, equivariance, conservation, convergence on 4x4 and 5x5",
            t0, 10.0)


def test_criterion_04_hop_energy_ordering():
    t0 = time.perf_counter()
    failures = []
    grid = make_grid(4, 4)
    want = {"rotation": 40, "mirror_x": 32, "translate_x:1": 24}
    got = {}
    for fn in (ROTATION, MIRROR_X, translate_x(1)):
        brute = sum(abs(apply(fn, c, grid).x - c.x) + abs(apply(fn, c, grid).y - c.y)
                    for c in grid.cells())
        planned = plan(fn, grid, COST).total_hops
        got[fn.label()] = planned
        if planned != brute or planned != want[fn.label()]:
            failures.append(f"{fn.label()}: planned {planned}, brute {brute}, "
                            f"want {want[fn.label()]}")
    if not got["rotation"] > got["mirror_x"] > got["translate_x:1"]:
        failures.append("energy ordering rotation > mirror > translation broken")
    _finish(4, failures, f"4x4 hops {got} match brute-force Manhattan sums", t0, 1.0)


def test_criterion_05_phase_schedule_validity():
    t0 = time.perf_counter()
    failures = []
    plans = 0
    for nx in range(1, 9):
        for ny in range(1, 9):
            grid = make_grid(nx, ny)
            for fn in _menu(grid):
                p = plan(fn, grid, COST)
                plans += 1
                moved = set()
                for phase in p.phases:
                    links = [l for tr in phase for l in tr.route]
                    if len(links) != len(set(links)):
                        failures.append(f"link reuse: {fn.label()} on {nx}x{ny}")
                    moved |= {tr.src for tr in phase}
                non_fixed = {c for c in grid.cells() if apply(fn, c, grid) != c}
                if moved != non_fixed:
                    failures.append(f"coverage: {fn.label()} on {nx}x{ny}")
    _finish(5, failures, f"{plans} plans congestion-free with exact coverage", t0, 5.0)


def test_criterion_06_throughput_penalties():
    t0 = time.perf_counter()
    failures = []
    downtime = migration_downtime(plan(translate_xy(1, 1), make_grid(4, 4), COST), COST)
    if downtime != pytest.approx(1.744e-6):
        failures.append(f"calibrated downtime is {downtime}")
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="penalties", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=translate_xy(1, 1),
                         period=109e-6, sim_duration=1.8e-3, dt=1e-6,
                         warmup=0.2e-3)
    periods = (109e-6, 437.2e-6, 874.4e-6)
    want_pct = (1.600, 0.399, 0.199)
    rows = sweep(cfg, [translate_xy(1, 1)], list(periods))
    got = []
    for row, want in zip(rows, want_pct):
        pct = row.summary.throughput_penalty * 100
        got.append(round(pct, 3))
        if abs(pct - want) > 0.005:
            failures.append(f"period {row.period*1e6:.1f}us: {pct:.4f}% vs {want}%")
    _finish(6, failures, f"penalties {got}% at 109/437.2/874.4 us", t0, 1.0)


def test_criterion_07_warm_band_ordering():
    t0 = time.perf_counter()
    failures = []
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="band", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=IDENTITY,
                         period=109e-6, sim_duration=32e-3, dt=1e-6,
                         warmup=16e-3)
    fns = [translate_x(1), ROTATION, MIRROR_XY, translate_xy(1, 1)]
    rows = sweep(cfg, fns, [109e-6])
    red = {row.fn.label(): row.summary.peak_reduction for row in rows}
    for label in ("rotation", "mirror_xy", "translate_xy:1:1"):
        if not red["translate_x:1"] < red[label]:
            failures.append(f"translate_x:1 ({red['translate_x:1']:.3f}) not below "
                            f"{label} ({red[label]:.3f})")
    if not red["translate_xy:1:1"] > 0:
        failures.append(f"translate_xy reduction {red['translate_xy:1:1']:.3f} <= 0")
    detail = ", ".join(f"{k}={v:+.3f}C" for k, v in red.items())
    _finish(7, failures, f"warm-band reductions: {detail}", t0, 60.0)


def test_criterion_08_center_hotspot_blindness():
    t0 = time.perf_counter()
    failures = []
    grid = make_grid(5, 5)
    profile, mapping = generate_center_hotspot(grid, 0.1, 0.6)
    cfg = ScenarioConfig(name="hotspot", grid=grid, profile=profile,
                         initial_mapping=mapping, migration_fn=IDENTITY,
                         period=109e-6, sim_duration=32e-3, dt=1e-6,
                         warmup=16e-3)
    rows = sweep(cfg, [ROTATION, MIRROR_XY, translate_xy(1, 1)], [109e-6])
    red = {row.fn.label(): row.summary.peak_reduction for row in rows}
    for label in ("rotation", "mirror_xy"):
        if abs(red[label]) > 0.05:
            failures.append(f"{label} reduction {red[label]:+.4f}C outside +/-0.05C")
    if not red["translate_xy:1:1"] > 0:
        failures.append(f"translate_xy reduction {red['translate_xy:1:1']:+.4f}C <= 0")
    detail = ", ".join(f"{k}={v:+.4f}C" for k, v in red.items())
    _finish(8, failures, f"center-hotspot reductions: {detail}", t0, 60.0)


def test_criterion_09_placement_oracle():
    t0 = time.perf_counter()
    failures = []
    grid = make_grid(3, 3)
    net = build_network(grid, ThermalParams())
    profile = PowerProfile({0: 3.0}, idle_power=0.5)

    def with_hot_at(c):
        rest = [cc for cc in grid.cells() if cc != c]
        assignment = {0: c}
        assignment.update({w: cc for w, cc in zip(range(1, 9), rest)})
        return Mapping(grid, assignment)

    objective = {c: evaluate(with_hot_at(c), profile, net) for c in grid.cells()}
    exhaustive_best = min(objective, key=objective.get)
    if exhaustive_best != Coord(1, 1):
        failures.append(f"exhaustive argmin is {exhaustive_best}, expected center")
    placed = place(profile, grid, net, AnnealConfig(seed=17))
    if placed.location(0) != exhaustive_best:
        failures.append(f"annealer put the hot workload at {placed.location(0)}")
    _finish(9, failures,
            f"annealer and exhaustive search both pick {exhaustive_best}", t0, 10.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    grid = make_grid(4, 4)
    profile, mapping = generate_warm_band(grid, 0.5, 2.0, 1)
    cfg = ScenarioConfig(name="det", grid=grid, profile=profile,
                         initial_mapping="auto", migration_fn=translate_xy(1, 1),
                         period=109e-6, sim_duration=1e-3, dt=1e-6, warmup=0.3e-3,
                         anneal=AnnealConfig(iterations=400, seed=23))
    fns = [translate_xy(1, 1), ROTATION]
    periods = [109e-6, 218e-6]
    report(sweep(cfg, fns, periods), tmp_path / "a.csv")
    report(sweep(cfg, fns, periods), tmp_path / "b.csv")
    if (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes():
        failures.append("sweep CSVs differ between repeats with the same seed")

    from hotmesh.thermal import write_trace_csv
    for name in ("t1.csv", "t2.csv"):
        _, trace = run(replace(cfg, migration_fn=ROTATION))
        write_trace_csv(trace.times, trace.temps, tmp_path / name)
    if (tmp_path / "t1.csv").read_bytes() != (tmp_path / "t2.csv").read_bytes():
        failures.append("trace CSVs differ between repeats with the same seed")
    _finish(10, failures, "repeated sweep and run give byte-identical CSVs", t0, 60.0)
