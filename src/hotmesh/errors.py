"""Exception types shared across the package."""


class HotmeshError(Exception):
    """Base class for every error raised by hotmesh."""


class ConfigurationError(HotmeshError):
    """Invalid scenario, grid, profile, or mapping configuration."""


class UnsupportedFunctionError(HotmeshError):
    """Migration function undefined on the given mesh (e.g. rotation of a non-square grid)."""


class BoundsError(HotmeshError):
    """Coordinate or block index outside the mesh."""


class ModelError(HotmeshError):
    """Thermal network the model cannot solve: a conductance or capacitance
    that is not positive and finite, or a non-finite ambient."""
