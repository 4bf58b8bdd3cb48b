"""Rigid transformations of the mesh plane used as migration functions.

All variants are bijections of the full plane (zero-based coordinates on an
``nx``-by-``ny`` mesh):

    rotation       (x, y) -> (N-1-y, x)           square meshes only
    mirror_x       (x, y) -> (nx-1-x, y)
    mirror_y       (x, y) -> (x, ny-1-y)
    mirror_xy      both axes; equals rotation twice on square meshes
    translate_x    (x, y) -> ((x+dx) mod nx, y)
    translate_y    (x, y) -> (x, (y+dy) mod ny)
    translate_xy   both axes
    identity

Translation offsets wrap modulo the mesh dimension, so any offset stays a
permutation of the plane. One table, _OFFSETS, names every kind and the
offsets it takes in tag order (translate_xy:dx:dy); the kinds, the tags
and their parsing are read from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigurationError, UnsupportedFunctionError
from .grid import Coord, GridSpec

# Every kind and the offsets it takes, in tag order.
_OFFSETS = {
    "identity": (), "rotation": (), "mirror_x": (), "mirror_y": (), "mirror_xy": (),
    "translate_x": ("dx",), "translate_y": ("dy",), "translate_xy": ("dx", "dy"),
}
KINDS = tuple(_OFFSETS)


@dataclass(frozen=True)
class MigrationFunction:
    """Tagged plane transform; dx/dy matter only where its kind takes them."""

    kind: str
    dx: int = 0
    dy: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown migration function {self.kind!r}")

    def label(self) -> str:
        """Stable tag used in config files and CSV output."""
        return ":".join([self.kind, *(str(getattr(self, axis)) for axis in _OFFSETS[self.kind])])


IDENTITY = MigrationFunction("identity")
ROTATION = MigrationFunction("rotation")
MIRROR_X = MigrationFunction("mirror_x")
MIRROR_Y = MigrationFunction("mirror_y")
MIRROR_XY = MigrationFunction("mirror_xy")


def translate_x(offset: int) -> MigrationFunction:
    return MigrationFunction("translate_x", dx=offset)


def translate_y(offset: int) -> MigrationFunction:
    return MigrationFunction("translate_y", dy=offset)


def translate_xy(dx: int, dy: int) -> MigrationFunction:
    return MigrationFunction("translate_xy", dx=dx, dy=dy)


def parse_function(tag: str, dx: int | None = None, dy: int | None = None) -> MigrationFunction:
    """Parse a tag such as ``mirror_xy``, ``translate_x:2`` or ``translate_xy:1:1``.

    Keyword offsets override tag arguments; a translating kind with no
    offset at all defaults to a shift of 1 per moving axis.
    """
    parts = [p.strip() for p in tag.strip().split(":")]
    name, args = parts[0], parts[1:]
    if name not in _OFFSETS:
        raise ConfigurationError(f"unknown migration function {tag!r}")
    axes, keywords = _OFFSETS[name], {"dx": dx, "dy": dy}
    if not axes and (args or dx is not None or dy is not None):
        raise ConfigurationError(f"{name} takes no offsets")
    if any(keywords[axis] is not None for axis in keywords if axis not in axes):
        raise ConfigurationError(f"{name} moves along one axis and takes no offset on the other")
    try:
        offsets = [int(a) for a in args]
    except ValueError:
        raise ConfigurationError(f"bad offsets in function tag {tag!r}") from None
    if len(offsets) not in (0, len(axes)):
        raise ConfigurationError(f"wrong number of offsets in function tag {tag!r}")
    tagged = dict(zip(axes, offsets))
    return MigrationFunction(name, **{
        axis: tagged.get(axis, 1) if keywords[axis] is None else keywords[axis]
        for axis in axes})


def apply(fn: MigrationFunction, c: Coord, grid: GridSpec) -> Coord:
    """Image of one coordinate under a migration function."""
    if not grid.in_bounds(c):
        raise BoundsError(f"{c} outside {grid.nx}x{grid.ny} mesh")
    return Coord(*_image(fn, c.x, c.y, grid))


def _image(fn: MigrationFunction, x, y, grid: GridSpec):
    """(x', y') of the function: on ints for one coordinate, or elementwise
    on integer arrays for many."""
    k = fn.kind
    if k == "rotation":
        if grid.nx != grid.ny:
            raise UnsupportedFunctionError(
                f"rotation needs a square mesh, got {grid.nx}x{grid.ny}")
        return grid.nx - 1 - y, x
    if k in ("mirror_x", "mirror_xy"):
        x = grid.nx - 1 - x
    if k in ("mirror_y", "mirror_xy"):
        y = grid.ny - 1 - y
    if "dx" in _OFFSETS[k]:
        x = (x + fn.dx % grid.nx) % grid.nx  # offsets reduced first: any int fits
    if "dy" in _OFFSETS[k]:
        y = (y + fn.dy % grid.ny) % grid.ny
    return x, y


@dataclass(frozen=True)
class Permutation:
    """Total bijection of mesh blocks, stored as a row-major index map: the
    image of a coordinate is read through it."""

    grid: GridSpec
    forward: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.forward) != list(range(self.grid.n_cells)):
            raise ConfigurationError("index map is not a bijection of the mesh")

    def __call__(self, c: Coord) -> Coord:
        return self.grid.coord(self.forward[self.grid.index(c)])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.forward)
        for src, dst in enumerate(self.forward):
            inv[dst] = src
        return Permutation(self.grid, tuple(inv))

    def after(self, other: "Permutation") -> "Permutation":
        """Composition self o other (other applied first)."""
        if other.grid != self.grid:
            raise ConfigurationError("cannot compose permutations of different meshes")
        return Permutation(self.grid, tuple(self.forward[i] for i in other.forward))

    @classmethod
    def identity(cls, grid: GridSpec) -> "Permutation":
        return cls(grid, tuple(range(grid.n_cells)))


def as_permutation(fn: MigrationFunction, grid: GridSpec) -> Permutation:
    """The whole-plane permutation, pointwise equal to :func:`apply`."""
    y, x = np.divmod(np.arange(grid.n_cells), grid.nx)
    x, y = _image(fn, x, y, grid)
    return Permutation(grid, tuple((y * grid.nx + x).tolist()))


def fixed_points(fn: MigrationFunction, grid: GridSpec) -> set[Coord]:
    """Cells the function leaves in place."""
    return {c for c in grid.cells() if apply(fn, c, grid) == c}


@dataclass(frozen=True)
class CumulativeTransform:
    """Product of every migration applied since start.

    Drives the I/O address translation that keeps migrations invisible to
    the outside of the chip.
    """

    composed: Permutation

    @classmethod
    def identity(cls, grid: GridSpec) -> "CumulativeTransform":
        return cls(Permutation.identity(grid))


def compose(ct: CumulativeTransform, fn: MigrationFunction,
            grid: GridSpec) -> CumulativeTransform:
    """Account for one more migration: new product = fn o previous."""
    if grid != ct.composed.grid:
        raise ConfigurationError("cumulative transform belongs to a different mesh")
    return CumulativeTransform(as_permutation(fn, grid).after(ct.composed))


def external_address(ct: CumulativeTransform, logical: Coord) -> Coord:
    """Physical destination for a packet addressed to a logical coordinate."""
    return ct.composed(logical)


def internal_address(ct: CumulativeTransform, physical: Coord) -> Coord:
    """Logical source for a packet leaving from a physical coordinate."""
    return ct.composed.inverse()(physical)
