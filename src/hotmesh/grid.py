"""Mesh geometry, workload-to-PE mappings, and power profiles.

The chip is an ``nx``-by-``ny`` mesh of identical square PE blocks.
Workloads carry integer ids; a :class:`Mapping` places every id on exactly
one PE. Idle PEs host filler workloads (ids without an explicit power
entry) so the placement is always a total bijection of the mesh.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator

import numpy as np

from .errors import BoundsError, ConfigurationError, require_integer

# Fillers default to this fraction of the mean active power when a profile
# does not set idle_power explicitly.
DEFAULT_IDLE_FRACTION = 0.05


@dataclass(frozen=True)
class Coord:
    """Zero-based mesh coordinate: x is the column, y the row."""

    x: int
    y: int


@dataclass(frozen=True)
class GridSpec:
    """Mesh dimensions plus the area of one PE block, mm^2."""

    nx: int
    ny: int
    cell_area: float = 4.36

    def __post_init__(self) -> None:
        require_integer("nx", self.nx)
        require_integer("ny", self.ny)
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError(f"mesh dimensions must be >= 1, got {self.nx}x{self.ny}")
        if not 0 < self.cell_area < math.inf:
            raise ConfigurationError(f"cell_area must be in (0, inf), got {self.cell_area}")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def in_bounds(self, c: Coord) -> bool:
        return 0 <= c.x < self.nx and 0 <= c.y < self.ny

    def index(self, c: Coord) -> int:
        """Row-major block index of a coordinate."""
        if not self.in_bounds(c):
            raise BoundsError(f"{c} outside {self.nx}x{self.ny} mesh")
        return c.y * self.nx + c.x

    def coord(self, index: int) -> Coord:
        if not 0 <= index < self.n_cells:
            raise BoundsError(f"block index {index} outside {self.nx}x{self.ny} mesh")
        return self._coords[index]

    def cells(self) -> Iterator[Coord]:
        """All coordinates in row-major order."""
        return iter(self._coords)

    @cached_property
    def _coords(self) -> tuple[Coord, ...]:
        """Every coordinate, row-major, built once: coord() and cells() hand
        out these objects, so dict and set lookups on them hit by identity."""
        return tuple(Coord(i % self.nx, i // self.nx) for i in range(self.n_cells))


def make_grid(nx: int, ny: int, cell_area: float = GridSpec.cell_area) -> GridSpec:
    """Validated mesh with the default PE geometry."""
    return GridSpec(nx=nx, ny=ny, cell_area=cell_area)


class Mapping:
    """Bijection from workload id to mesh coordinate, checked once and kept
    as two read-only index arrays: workloads, the ids in ascending order,
    and blocks, the row-major block of each. The assignment dict and
    location() are built from them on first read."""

    def __init__(self, grid: GridSpec, assignment: abc.Mapping[int, Coord]):
        n = grid.n_cells
        if len(assignment) != n:
            raise ConfigurationError(
                f"mapping places {len(assignment)} workloads on a mesh of {n} PEs")
        x = np.fromiter((c.x for c in assignment.values()), np.intp, n)
        y = np.fromiter((c.y for c in assignment.values()), np.intp, n)
        inside = (0 <= x) & (x < grid.nx) & (0 <= y) & (y < grid.ny)
        if not inside.all():
            w, c = list(assignment.items())[int(inside.argmin())]
            raise ConfigurationError(f"workload {w} mapped outside the mesh at {c}")
        blocks = y * grid.nx + x
        # a scatter and a Python sort rather than numpy's: its sort kernels
        # would page in ~1 MB of library code that no run otherwise touches
        covered = np.zeros(n, dtype=bool)
        covered[blocks] = True
        if not covered.all():  # n workloads that do not cover the n cells
            raise ConfigurationError("mapping is not a bijection: a PE hosts multiple workloads")
        workloads = list(assignment)
        order = sorted(range(n), key=workloads.__getitem__)
        self._set(grid, np.array(workloads, dtype=np.intp)[order], blocks[order])

    def _set(self, grid: GridSpec, workloads: np.ndarray, blocks: np.ndarray) -> Mapping:
        workloads.setflags(write=False)
        blocks.setflags(write=False)
        self.grid, self.workloads, self.blocks = grid, workloads, blocks
        return self

    @classmethod
    def _placed(cls, grid: GridSpec, workloads: np.ndarray, blocks: np.ndarray) -> Mapping:
        """The mapping of the ascending ids workloads onto blocks, a
        bijection of the mesh's blocks, which is taken as given."""
        return object.__new__(cls)._set(grid, workloads, blocks)

    @cached_property
    def assignment(self) -> abc.Mapping[int, Coord]:
        """Read-only workload id -> coordinate."""
        coords = self.grid._coords
        return MappingProxyType({w: coords[b] for w, b in
                                 zip(self.workloads.tolist(), self.blocks.tolist())})

    def location(self, workload: int) -> Coord:
        return self.assignment[workload]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (self.grid == other.grid and np.array_equal(self.workloads, other.workloads)
                and np.array_equal(self.blocks, other.blocks))

    def __repr__(self) -> str:
        return f"Mapping(grid={self.grid!r}, assignment={dict(self.assignment)!r})"


def identity_mapping(grid: GridSpec) -> Mapping:
    """Workload i on block i, row-major."""
    ids = np.arange(grid.n_cells, dtype=np.intp)
    return Mapping._placed(grid, ids, ids)


@dataclass(frozen=True)
class PowerProfile:
    """Per-workload active power plus the filler idle power, watts.

    Ids missing from ``workload_power`` are fillers and dissipate
    ``idle_power``; a ``None`` idle power resolves to
    ``DEFAULT_IDLE_FRACTION`` of the mean active power.
    """

    workload_power: dict[int, float]
    idle_power: float | None = None

    def __post_init__(self) -> None:
        for w, p in self.workload_power.items():
            if not 0 <= p < math.inf:
                raise ConfigurationError(f"workload {w} needs a finite power >= 0, got {p}")
        if self.idle_power is None:
            mean = (sum(self.workload_power.values()) / len(self.workload_power)
                    if self.workload_power else 0.0)
            object.__setattr__(self, "idle_power", DEFAULT_IDLE_FRACTION * mean)
        if not 0 <= self.idle_power < math.inf:
            raise ConfigurationError(f"idle_power must be finite and >= 0, got {self.idle_power}")


def power_vector(mapping: Mapping, profile: PowerProfile) -> np.ndarray:
    """Dissipated watts per block, indexed row-major: idle power, with each
    profile workload's power scattered onto its block (the ascending
    mapping.workloads found by binary search)."""
    v = np.full(mapping.grid.n_cells, profile.idle_power, dtype=float)
    n = len(profile.workload_power)
    ids = np.fromiter(profile.workload_power, np.intp, n)
    at = mapping.workloads.searchsorted(ids)
    placed = mapping.workloads.take(at, mode="clip") == ids  # a profile id may be on no block
    v[mapping.blocks[at[placed]]] = np.fromiter(profile.workload_power.values(), float, n)[placed]
    return v


def idle_vector(profile: PowerProfile, grid: GridSpec) -> np.ndarray:
    """Per-block power with every PE halted at idle."""
    return np.full(grid.n_cells, float(profile.idle_power))


def generate_warm_band(grid: GridSpec, base_p: float, band_p: float,
                       band_row: int) -> tuple[PowerProfile, Mapping]:
    """One full row dissipating ``band_p`` per PE, the rest at ``base_p``.

    Returns the profile together with the identity mapping, so the band
    initially sits on physical row ``band_row``.
    """
    if base_p < 0 or band_p <= base_p:
        raise ConfigurationError(
            f"band power must exceed base power >= 0, got base={base_p} band={band_p}")
    if not 0 <= band_row < grid.ny:
        raise ConfigurationError(f"band_row {band_row} outside mesh with {grid.ny} rows")
    powers = {w: band_p if w // grid.nx == band_row else base_p for w in range(grid.n_cells)}
    return PowerProfile(powers), identity_mapping(grid)


def generate_center_hotspot(grid: GridSpec, base_p: float,
                            hot_p: float) -> tuple[PowerProfile, Mapping]:
    """A single hot workload on the central PE of an odd-dimension mesh."""
    if base_p < 0 or hot_p <= base_p:
        raise ConfigurationError(
            f"hotspot power must exceed base power >= 0, got base={base_p} hot={hot_p}")
    if grid.nx % 2 == 0 or grid.ny % 2 == 0:
        raise ConfigurationError(f"{grid.nx}x{grid.ny} mesh has no unique center PE")
    center = grid.index(Coord((grid.nx - 1) // 2, (grid.ny - 1) // 2))
    powers = {w: hot_p if w == center else base_p for w in range(grid.n_cells)}
    return PowerProfile(powers), identity_mapping(grid)
