"""Migration events: the state transfers of a permutation and their costs.

Every workload whose PE changes sends one state blob along its XY
(dimension-ordered, X first) route of |dx| + |dy| hops, so an event's hops,
and with them its energy, are a closed-form sum over the permutation.
Transfers are packed greedily into phases in row-major source order: each
joins the earliest phase whose directed links it does not reuse, so within
a phase no two transfers share a directed mesh link and the movement is
congestion free. Each link keeps a bitmask of the phases using it, so a
transfer costs O(hops). The phases are packed on first read: only the
detailed-timing downtime and the printed schedule read them, never a run
in default timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

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
    """State movement of one workload from src to dst; its XY route is built when read."""

    src: Coord
    dst: Coord

    @property
    def route(self) -> tuple[Link, ...]:
        return xy_route(self.src, self.dst)

    @property
    def hops(self) -> int:
        return abs(self.dst.x - self.src.x) + abs(self.dst.y - self.src.y)


def xy_route(src: Coord, dst: Coord) -> tuple[Link, ...]:
    """Directed links of the XY dimension-ordered path src -> dst."""
    sx, sy = (1 if dst.x > src.x else -1), (1 if dst.y > src.y else -1)
    path = [*(Coord(x, src.y) for x in range(src.x, dst.x, sx)),
            *(Coord(dst.x, y) for y in range(src.y, dst.y, sy)), dst]
    return tuple(zip(path, path[1:]))


@dataclass(frozen=True)
class MigrationPlan:
    """Executable migration event: what moves (a permutation of its mesh), at
    what cost and, packed on first read, in which phase."""

    permutation: Permutation
    total_hops: int
    energy: float
    downtime: float

    @cached_property
    def phases(self) -> tuple[tuple[Transfer, ...], ...]:
        """The transfers in congestion-free phases (see _pack_phases)."""
        return _pack_phases(self.permutation)

    def transfers(self) -> list[Transfer]:
        return [t for ph in self.phases for t in ph]

    def source_cells(self) -> list[Coord]:
        return [t.src for ph in self.phases for t in ph]

    @cached_property
    def targets(self) -> np.ndarray:
        """Per block, the block the event moves its workload onto (the
        permutation's index array): the event gathers a placement's blocks
        through it (execute) and scatters its power vector p through it,
        q[targets] = p giving the power vector q after the event."""
        targets = np.array(self.permutation.forward, dtype=np.intp)
        targets.setflags(write=False)
        return targets


def plan(fn: MigrationFunction, grid: GridSpec,
         params: MigrationCostParams) -> MigrationPlan:
    """Deterministic congestion-free migration event and its costs.

    total_hops, and with it the energy, is the sum of |dx| + |dy| from each
    block to its image, in closed form; the default downtime is a constant.
    So the phases are packed only when read, here only for detailed
    timing's downtime, and then into the plan returned.
    """
    perm = as_permutation(fn, grid)
    y0, x0 = np.divmod(np.arange(grid.n_cells), grid.nx)
    y1, x1 = np.divmod(np.array(perm.forward), grid.nx)
    hops = int(np.abs(x1 - x0).sum() + np.abs(y1 - y0).sum())
    mplan = MigrationPlan(permutation=perm, total_hops=hops, energy=0.0, downtime=0.0)
    # set on this plan rather than on a replace()d copy, which would drop
    # the phases that detailed timing packs
    object.__setattr__(mplan, "energy", migration_energy(mplan, params))
    object.__setattr__(mplan, "downtime", migration_downtime(mplan, params))
    return mplan


def _pack_phases(perm: Permutation) -> tuple[tuple[Transfer, ...], ...]:
    """First-fit phases of the moved blocks' transfers, in row-major source
    order.

    Per directed link an int has bit k set when phase k uses the link. The
    links are laid out so that a straight run is one slice: per row, its
    east-going links from the west end, then its west-going ones from the
    east end; after the rows, the same per column, south then north. An XY
    route is a row's leg then a column's, so a transfer's phase is the
    lowest bit clear in the OR over two slices, and joining it is one slice
    update per leg: O(hops) per transfer, with no cap on the phase count.
    """
    nx, ny, coords = perm.grid.nx, perm.grid.ny, perm.grid._coords
    row_len, col_len = 2 * (nx - 1), 2 * (ny - 1)
    masks = [0] * (row_len * ny + col_len * nx)
    phases: list[list[Transfer]] = []
    for src, dst in enumerate(perm.forward):
        if src == dst:
            continue
        (y0, x0), (y1, x1) = divmod(src, nx), divmod(dst, nx)
        r = row_len * y0
        h = (slice(r + x0, r + x1) if x1 >= x0
             else slice(r + row_len - x0, r + row_len - x1))
        c = row_len * ny + col_len * x1
        v = (slice(c + y0, c + y1) if y1 >= y0
             else slice(c + col_len - y0, c + col_len - y1))
        row, col = masks[h], masks[v]
        used = reduce(or_, row + col, 0)
        bit = (used + 1) & ~used
        masks[h] = [m | bit for m in row]
        masks[v] = [m | bit for m in col]
        t = Transfer(src=coords[src], dst=coords[dst])
        if bit >> len(phases):
            phases.append([])
        phases[bit.bit_length() - 1].append(t)
    return tuple(map(tuple, phases))


def migration_energy(plan_: MigrationPlan, params: MigrationCostParams) -> float:
    """Joules to move every state blob: hops * bits * energy per bit-hop."""
    return plan_.total_hops * params.state_bits * params.e_bit_hop


def migration_downtime(plan_: MigrationPlan, params: MigrationCostParams) -> float:
    """Seconds the PEs stay halted for one event.

    Default mode is the calibrated per-event constant; detailed mode scales
    with the phase count and the longest transfer, so it packs the phases.
    An empty plan halts nothing and costs no time.
    """
    if plan_.total_hops == 0:
        return 0.0
    if params.detailed_timing:
        max_hops = max(t.hops for ph in plan_.phases for t in ph)
        return len(plan_.phases) * params.state_bits * params.t_bit_hop * max_hops
    return params.downtime_fixed


def execute(mapping: Mapping, plan_: MigrationPlan) -> Mapping:
    """Apply the plan's permutation to a placement: one gather of every
    workload's block through the plan's targets. The permutation is a
    bijection of the blocks, so the placement it yields is one too and is
    not validated again."""
    if mapping.grid != plan_.permutation.grid:
        raise ConfigurationError("plan was built for a different mesh")
    return Mapping._placed(mapping.grid, mapping.workloads, plan_.targets[mapping.blocks])


def format_plan(plan_: MigrationPlan) -> str:
    """One line per transfer: phase,src_x,src_y,dst_x,dst_y,hops."""
    return "\n".join(f"{i},{t.src.x},{t.src.y},{t.dst.x},{t.dst.y},{t.hops}"
                     for i, ph in enumerate(plan_.phases) for t in ph)
