"""Mesh geometry, workload-to-PE mappings, and power profiles.

The chip is an ``nx``-by-``ny`` mesh of identical square PE blocks.
Workloads carry integer ids; a :class:`Mapping` places every id on exactly
one PE. Idle PEs host filler workloads (ids without an explicit power
entry) so the placement is always a total bijection of the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import BoundsError, ConfigurationError

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

    @cached_property
    def _cell_set(self) -> frozenset[Coord]:
        return frozenset(self._coords)


def make_grid(nx: int, ny: int, cell_area: float = 4.36) -> GridSpec:
    """Validated mesh with the default PE geometry."""
    return GridSpec(nx=nx, ny=ny, cell_area=cell_area)


@dataclass(frozen=True)
class Mapping:
    """Bijection from workload id to mesh coordinate."""

    grid: GridSpec
    assignment: dict[int, Coord]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.grid.n_cells:
            raise ConfigurationError(
                f"mapping places {len(self.assignment)} workloads on a mesh of "
                f"{self.grid.n_cells} PEs")
        if set(self.assignment.values()) == self.grid._cell_set:
            return
        # n workloads that do not cover the n cells: name the fault
        for w, c in self.assignment.items():
            if not self.grid.in_bounds(c):
                raise ConfigurationError(f"workload {w} mapped outside the mesh at {c}")
        raise ConfigurationError("mapping is not a bijection: a PE hosts multiple workloads")

    def location(self, workload: int) -> Coord:
        return self.assignment[workload]


def identity_mapping(grid: GridSpec) -> Mapping:
    """Workload i on block i, row-major."""
    return Mapping(grid, {i: grid.coord(i) for i in range(grid.n_cells)})


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

    def power_of(self, workload: int) -> float:
        return self.workload_power.get(workload, self.idle_power)


def power_vector(mapping: Mapping, profile: PowerProfile) -> np.ndarray:
    """Dissipated watts per block, indexed row-major."""
    nx = mapping.grid.nx
    v = np.empty(mapping.grid.n_cells)
    for w, c in mapping.assignment.items():  # a Mapping holds only in-bounds cells
        v[c.y * nx + c.x] = profile.power_of(w)
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
    mapping = identity_mapping(grid)
    powers = {w: band_p if c.y == band_row else base_p
              for w, c in mapping.assignment.items()}
    return PowerProfile(powers), mapping


def generate_center_hotspot(grid: GridSpec, base_p: float,
                            hot_p: float) -> tuple[PowerProfile, Mapping]:
    """A single hot workload on the central PE of an odd-dimension mesh."""
    if base_p < 0 or hot_p <= base_p:
        raise ConfigurationError(
            f"hotspot power must exceed base power >= 0, got base={base_p} hot={hot_p}")
    if grid.nx % 2 == 0 or grid.ny % 2 == 0:
        raise ConfigurationError(f"{grid.nx}x{grid.ny} mesh has no unique center PE")
    center = Coord((grid.nx - 1) // 2, (grid.ny - 1) // 2)
    mapping = identity_mapping(grid)
    powers = {w: hot_p if c == center else base_p
              for w, c in mapping.assignment.items()}
    return PowerProfile(powers), mapping
