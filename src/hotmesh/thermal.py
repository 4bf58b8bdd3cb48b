"""Compact RC thermal model of the die.

One node per PE block plus one lumped heat-sink node at index n. With
x = T - T_ambient the heat balance is

    steady state:   G x = P
    transient:      C dx/dt = P - G x        (backward Euler steps)

G is the mesh Laplacian of the lateral block-to-block conductances plus
each node's coupling to the sink or to ambient on the diagonal, so every
row sums to the node's ambient conductance. For square blocks the lateral
conductance reduces to k_si * die_thickness.

Transients use one modal operator per network: with the symmetric
S = C^-1/2 G C^-1/2 = Q diag(mu) Q^T, a backward-Euler step of any length h
scales each modal deviation from the steady state x_ss of the step's power
by lambda(h) = 1 / (1 + h mu). At constant power, k equal steps are then
one matrix product,

    x_j = x_ss + C^-1/2 Q (lambda^j * Q^T C^1/2 (x_0 - x_ss)),  j = 1..k,

and a steady state stays fixed bit for bit: x_ss is the steady_state()
solve of that power, so a start at it has zero deviation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelError
from .grid import Coord, GridSpec

# Rows formatted per write by write_trace_csv.
_CSV_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ThermalParams:
    """Material and package constants (SI units, temperatures in deg C)."""

    k_si: float = 150.0            # W/(m K), lateral silicon conductivity
    c_v: float = 1.75e6            # J/(m^3 K), volumetric heat capacity
    die_thickness: float = 0.5e-3  # m
    r_vertical: float = 2.0        # K/W, per-block path to the sink
    r_sink: float = 0.5            # K/W, sink to ambient
    c_sink: float = 10.0           # J/K
    ambient: float = 40.0          # deg C

    def __post_init__(self) -> None:
        for name in ("k_si", "c_v", "die_thickness", "r_vertical", "r_sink", "c_sink"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.ambient):
            raise ConfigurationError("ambient temperature must be finite")


@dataclass
class ThermalNetwork:
    """RC network over n block nodes plus the sink node at index n."""

    grid: GridSpec
    conductance: np.ndarray       # (n+1, n+1), W/K
    capacitance: np.ndarray       # (n+1,), J/K
    ambient_coupling: np.ndarray  # (n+1,), W/K
    ambient: float                # deg C

    @property
    def n_blocks(self) -> int:
        return self.grid.n_cells

    @property
    def n_nodes(self) -> int:
        return self.grid.n_cells + 1


@dataclass(frozen=True)
class ThermalState:
    """Node temperatures (deg C, blocks then sink) at one instant."""

    temps: np.ndarray


def build_network(grid: GridSpec, params: ThermalParams) -> ThermalNetwork:
    """4-neighbor lateral links, one vertical link per block, lumped sink."""
    n = grid.n_cells
    sink = n
    g = np.zeros((n + 1, n + 1))
    g_lat = params.k_si * params.die_thickness
    for c in grid.cells():
        i = grid.index(c)
        for nb in (Coord(c.x + 1, c.y), Coord(c.x, c.y + 1)):
            if grid.in_bounds(nb):
                j = grid.index(nb)
                g[i, j] -= g_lat
                g[j, i] -= g_lat
                g[i, i] += g_lat
                g[j, j] += g_lat
    g_vert = 1.0 / params.r_vertical
    for i in range(n):
        g[i, sink] -= g_vert
        g[sink, i] -= g_vert
        g[i, i] += g_vert
        g[sink, sink] += g_vert
    ambient_coupling = np.zeros(n + 1)
    ambient_coupling[sink] = 1.0 / params.r_sink
    g[sink, sink] += ambient_coupling[sink]

    cap = np.empty(n + 1)
    cap[:n] = params.c_v * (grid.cell_area * 1e-6) * params.die_thickness
    cap[sink] = params.c_sink
    for arr in (g, cap, ambient_coupling):
        arr.setflags(write=False)
    return ThermalNetwork(grid=grid, conductance=g, capacitance=cap,
                          ambient_coupling=ambient_coupling, ambient=params.ambient)


def _extended_power(net: ThermalNetwork, power) -> np.ndarray:
    power = np.asarray(power, dtype=float)
    if power.shape != (net.n_blocks,):
        raise ValueError(f"power vector must have shape ({net.n_blocks},), got {power.shape}")
    p = np.zeros(net.n_nodes)
    p[:net.n_blocks] = power
    return p


def steady_state(net: ThermalNetwork, power) -> ThermalState:
    """Equilibrium temperatures for a constant per-block power vector."""
    p = _extended_power(net, power)
    if not np.any(net.ambient_coupling > 0):
        raise ModelError("network has no coupling to ambient; steady state undefined")
    try:
        x = np.linalg.solve(net.conductance, p)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"thermal system is singular: {exc}") from None
    return ThermalState(temps=x + net.ambient)


class TransientSolver:
    """Backward-Euler stepper over one network, dt being its default step.

    One eigendecomposition of C^-1/2 G C^-1/2 serves every step length:
    march() returns the k rows of k equal steps at constant power in one
    (k x n)(n x n) product, and step() is its one-row case. The steady
    state of each distinct power vector is solved once with steady_state()
    and kept for the solver's life.
    """

    def __init__(self, net: ThermalNetwork, dt: float):
        _check_dt(dt)
        self.net = net
        self.dt = dt
        c_half = np.sqrt(net.capacitance)
        mu, q = np.linalg.eigh(net.conductance / np.outer(c_half, c_half))
        self._mu = mu
        self._to_modal = c_half[:, None] * q      # row x -> modal Q^T C^1/2 x
        self._from_modal = q.T / c_half           # modal row -> C^-1/2 Q y
        self._steady_by_power: dict[bytes, np.ndarray] = {}

    def _steady_temps(self, power) -> np.ndarray:
        power = np.asarray(power, dtype=float)
        key = power.tobytes()
        if key not in self._steady_by_power:
            self._steady_by_power[key] = steady_state(self.net, power).temps
        return self._steady_by_power[key]

    def march(self, temps: np.ndarray, power, count: int, dt: float | None = None) -> np.ndarray:
        """Node temperatures after each of count steps of length dt at constant
        power (dt defaults to the solver's own), as a (count, n_nodes) array."""
        dt = self.dt if dt is None else dt
        _check_dt(dt)
        count = operator.index(count)
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        x_ss = self._steady_temps(power)
        decay = (1.0 + dt * self._mu) ** -np.arange(1, count + 1)[:, None]
        return x_ss + (decay * ((temps - x_ss) @ self._to_modal)) @ self._from_modal

    def step(self, temps: np.ndarray, power, dt: float | None = None) -> np.ndarray:
        """Advance node temperatures by dt (defaults to the solver's own)."""
        return self.march(temps, power, 1, dt)[0]


def _check_dt(dt: float) -> None:
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def peak(state: ThermalState) -> float:
    """Hottest block temperature; the sink node is excluded."""
    return float(np.max(state.temps[:-1]))


def spatial_spread(state: ThermalState) -> float:
    """Hottest minus coolest block temperature."""
    blocks = state.temps[:-1]
    return float(np.max(blocks) - np.min(blocks))


def write_trace_csv(times, temps, path) -> None:
    """Emit a trace as CSV with columns time_s, t_block_0.., t_sink.

    Rows are formatted a chunk at a time from one template, so memory stays
    bounded however long the trace is.
    """
    times = np.asarray(times, dtype=float)
    temps = np.asarray(temps, dtype=float)
    n_blocks = temps.shape[1] - 1
    header = ["time_s"] + [f"t_block_{i}" for i in range(n_blocks)] + ["t_sink"]
    row = "%.9f" + ",%.6f" * temps.shape[1] + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for lo in range(0, len(temps), _CSV_CHUNK_ROWS):
            chunk = np.column_stack((times[lo:lo + _CSV_CHUNK_ROWS],
                                     temps[lo:lo + _CSV_CHUNK_ROWS]))
            f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
