"""Migration events: phase-scheduled state transfers and their costs.

Every workload whose PE changes sends one state blob along its XY
(dimension-ordered, X first) route. Transfers are packed greedily into
phases in row-major source order: each joins the earliest phase whose
directed links it does not reuse, so within a phase no two transfers share
a directed mesh link and the movement is congestion free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .grid import Coord, GridSpec, Mapping
from .transforms import MigrationFunction, Permutation, as_permutation

Link = tuple[Coord, Coord]


@dataclass(frozen=True)
class MigrationCostParams:
    """Cost model constants for one migration event.

    downtime_fixed is calibrated so the throughput penalty at the default
    period works out to 1.6%; detailed_timing switches the downtime to the
    phase-count estimate instead.
    """

    state_bits: float = 4096.0        # configuration + state blob per PE
    e_bit_hop: float = 1e-12          # J per bit per hop
    downtime_fixed: float = 1.744e-6  # s per event, default mode
    t_bit_hop: float = 2e-11          # s per bit per hop, detailed mode
    detailed_timing: bool = False

    def __post_init__(self) -> None:
        for name in ("state_bits", "e_bit_hop", "downtime_fixed", "t_bit_hop"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be in [0, inf), got {getattr(self, name)}")


@dataclass(frozen=True)
class Transfer:
    """State movement of one workload from src to dst along its XY route."""

    src: Coord
    dst: Coord
    route: tuple[Link, ...]

    @property
    def hops(self) -> int:
        return len(self.route)


def xy_route(src: Coord, dst: Coord) -> tuple[Link, ...]:
    """Directed links of the XY dimension-ordered path src -> dst."""
    links = []
    cur = src
    step_x = 1 if dst.x > src.x else -1
    while cur.x != dst.x:
        nxt = Coord(cur.x + step_x, cur.y)
        links.append((cur, nxt))
        cur = nxt
    step_y = 1 if dst.y > src.y else -1
    while cur.y != dst.y:
        nxt = Coord(cur.x, cur.y + step_y)
        links.append((cur, nxt))
        cur = nxt
    return tuple(links)


@dataclass(frozen=True)
class MigrationPlan:
    """Executable migration event: what moves, in which phase, at what cost."""

    grid: GridSpec
    permutation: Permutation
    phases: tuple[tuple[Transfer, ...], ...]
    total_hops: int
    energy: float
    downtime: float

    def transfers(self) -> list[Transfer]:
        return [t for ph in self.phases for t in ph]

    def source_cells(self) -> list[Coord]:
        return [t.src for ph in self.phases for t in ph]


def _xy_path(src: int, dst: int, nx: int) -> list[int]:
    """Block indices along the XY route src -> dst, both ends included."""
    (y0, x0), x1 = divmod(src, nx), dst % nx
    turn = y0 * nx + x1
    return [*range(src, turn, 1 if x1 > x0 else -1),
            *range(turn, dst, nx if dst > turn else -nx), dst]


def plan(fn: MigrationFunction, grid: GridSpec,
         params: MigrationCostParams) -> MigrationPlan:
    """Deterministic congestion-free schedule for one migration event.

    Routes are walked on block indices and phases packed on integer link
    ids (a directed link a -> b is a * n + b); the Coords of the transfers
    come from one per-cell list.
    """
    perm = as_permutation(fn, grid)
    n = grid.n_cells
    coords = list(grid.cells())
    phases: list[list[Transfer]] = []
    busy: list[set[int]] = []
    total_hops = 0
    for src, dst in enumerate(perm.forward):
        if src == dst:
            continue
        path = _xy_path(src, dst, grid.nx)
        hops = list(zip(path, path[1:]))
        total_hops += len(hops)
        t = Transfer(src=coords[src], dst=coords[dst],
                     route=tuple((coords[a], coords[b]) for a, b in hops))
        links = {a * n + b for a, b in hops}
        for i, used in enumerate(busy):
            if not used & links:
                phases[i].append(t)
                used |= links
                break
        else:
            phases.append([t])
            busy.append(links)
    phases_t = tuple(tuple(ph) for ph in phases)
    draft = MigrationPlan(grid=grid, permutation=perm, phases=phases_t,
                          total_hops=total_hops, energy=0.0, downtime=0.0)
    return MigrationPlan(grid=grid, permutation=perm, phases=phases_t,
                         total_hops=total_hops,
                         energy=migration_energy(draft, params),
                         downtime=migration_downtime(draft, params))


def migration_energy(plan_: MigrationPlan, params: MigrationCostParams) -> float:
    """Joules to move every state blob: hops * bits * energy per bit-hop."""
    return plan_.total_hops * params.state_bits * params.e_bit_hop


def migration_downtime(plan_: MigrationPlan, params: MigrationCostParams) -> float:
    """Seconds the PEs stay halted for one event.

    Default mode is the calibrated per-event constant; detailed mode scales
    with the phase count and the longest transfer. An empty plan halts
    nothing and costs no time.
    """
    if plan_.total_hops == 0:
        return 0.0
    if params.detailed_timing:
        max_hops = max(t.hops for ph in plan_.phases for t in ph)
        return len(plan_.phases) * params.state_bits * params.t_bit_hop * max_hops
    return params.downtime_fixed


def execute(mapping: Mapping, plan_: MigrationPlan) -> Mapping:
    """Apply the plan's permutation to a placement."""
    if mapping.grid != plan_.grid:
        raise ConfigurationError("plan was built for a different mesh")
    moved = {w: plan_.permutation(c) for w, c in mapping.assignment.items()}
    return Mapping(mapping.grid, moved)


def format_plan(plan_: MigrationPlan) -> str:
    """One line per transfer: phase,src_x,src_y,dst_x,dst_y,hops."""
    lines = []
    for i, ph in enumerate(plan_.phases):
        for t in ph:
            lines.append(f"{i},{t.src.x},{t.src.y},{t.dst.x},{t.dst.y},{t.hops}")
    return "\n".join(lines)
