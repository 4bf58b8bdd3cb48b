"""Compact RC thermal model of the die.

One node per PE block plus one lumped heat-sink node at index n. With
x = T - T_ambient the heat balance is

    steady state:   G x = P
    transient:      C dx/dt = P - G x        (backward Euler steps)

G is the mesh Laplacian of the lateral block-to-block conductances plus
each node's coupling to the sink or to ambient on the diagonal, so every
row sums to the node's ambient conductance. For square blocks the lateral
conductance reduces to k_si * die_thickness. The compact RC structure
follows HotSpot (Huang et al., IEEE TVLSI 14(5), 2006).

The blocks are identical: GridSpec has one cell_area and ThermalParams is
global, so every block has the same capacitance c_b and the block part of
G is g_lat L + g_vert I, with L the 4-neighbor grid Laplacian with
adiabatic (Neumann) edges. The 2-D DCT-II diagonalizes L exactly (Strang,
"The Discrete Cosine Transform", SIAM Review 41, 1999), so the symmetric
S = C^-1/2 G C^-1/2 = Q diag(mu) Q^T is known in closed form:

    Q  = kron(DCT_y, DCT_x) over the blocks, mode k = (ky, kx) row-major,
    mu = (g_lat (4 sin^2(pi kx / 2nx) + 4 sin^2(pi ky / 2ny)) + g_vert) / c_b,

except that the sink couples only to the uniform mode k = 0: one 2x2
rotation mixes that mode with the sink node and gives the last two
eigenvalues. A network the closed form cannot represent (unequal block
capacitances, no ambient coupling, any other coupling pattern) raises
ModelError instead of returning numbers. The basis is built once per
network and serves both solvers:

    steady state:  x = C^-1/2 Q diag(1/mu) Q^T C^-1/2 P

and, since a backward-Euler step of any length h scales each modal
deviation from the steady state x_ss of the step's power by
lambda(h) = 1 / (1 + h mu), k equal steps at constant power are one
matrix product,

    x_j = x_ss + C^-1/2 Q (lambda^j * Q^T C^1/2 (x_0 - x_ss)),  j = 1..k.

A steady state stays fixed bit for bit: x_ss is the steady_state() solve
of that power, so a start at it has zero deviation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class ModalBasis:
    """S = C^-1/2 G C^-1/2 = Q diag(mu) Q^T of one network, kept as the two
    products the solvers apply to row vectors: x @ to_modal = (Q^T C^1/2 x)^T
    and y @ from_modal = (C^-1/2 Q y)^T."""

    mu: np.ndarray          # (n+1,), 1/s, all positive
    to_modal: np.ndarray    # (n+1, n+1), C^1/2 Q
    from_modal: np.ndarray  # (n+1, n+1), Q^T C^-1/2


@dataclass(frozen=True)
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

    @cached_property
    def modes(self) -> ModalBasis:
        """The closed-form modal basis, built once: by build_network, or on
        first use of a network assembled otherwise (ModelError if the closed
        form cannot represent it)."""
        return _modal_basis(self)


@dataclass(frozen=True)
class ThermalState:
    """Node temperatures (deg C, blocks then sink) at one instant."""

    temps: np.ndarray


def build_network(grid: GridSpec, params: ThermalParams) -> ThermalNetwork:
    """4-neighbor lateral links, one vertical link per block, lumped sink,
    and the network's modal basis."""
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
    net = ThermalNetwork(grid=grid, conductance=g, capacitance=cap,
                         ambient_coupling=ambient_coupling, ambient=params.ambient)
    _ = net.modes  # the basis is part of building the network, not of its first use
    return net


def _extended_power(net: ThermalNetwork, power) -> np.ndarray:
    power = np.asarray(power, dtype=float)
    if power.shape != (net.n_blocks,):
        raise ValueError(f"power vector must have shape ({net.n_blocks},), got {power.shape}")
    p = np.zeros(net.n_nodes)
    p[:net.n_blocks] = power
    return p


def _dct2(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II of length m (row k is frequency k) and the
    eigenvalues 4 sin^2(pi k / 2m) of the path Laplacian with Neumann ends."""
    k = np.arange(m)
    d = math.sqrt(2.0 / m) * np.cos(np.pi / (2 * m) * np.outer(k, 2 * k + 1))
    d[0] = math.sqrt(1.0 / m)
    return d, 4.0 * np.sin(np.pi / (2 * m) * k) ** 2


def _modal_basis(net: ThermalNetwork) -> ModalBasis:
    """The network's modal basis in closed form, after checking that G and C
    have the structure the closed form assumes (see the module docstring)."""
    nx, ny, n = net.grid.nx, net.grid.ny, net.n_blocks
    g, cap, amb = net.conductance, net.capacitance, net.ambient_coupling
    if g.shape != (n + 1, n + 1) or cap.shape != (n + 1,) or amb.shape != (n + 1,):
        raise ModelError(f"network arrays do not match its {nx}x{ny} mesh")
    if not np.any(amb > 0):
        raise ModelError("network has no coupling to ambient; steady state undefined")
    c_b, c_s, g_amb = float(cap[0]), float(cap[n]), float(amb[n])
    if not (np.all(cap[:n] == c_b) and 0 < c_b < math.inf and 0 < c_s < math.inf):
        raise ModelError("closed form needs identical blocks: block capacitances differ "
                         "or are not positive")
    g_vert = float(-g[n, 0])
    g_lat = float(-g[0, 1]) if nx > 1 else float(-g[0, nx]) if ny > 1 else 0.0
    x, y = np.arange(n) % nx, np.arange(n) // nx
    right, down = np.flatnonzero(x < nx - 1), np.flatnonzero(y < ny - 1)
    degree = (x > 0).astype(int) + (x < nx - 1) + (y > 0) + (y < ny - 1)
    diag = np.append(degree * g_lat + g_vert, n * g_vert + g_amb)
    if not (g_amb < math.inf and np.all(amb[:n] == 0)
            and 0 < g_vert < math.inf and (n == 1 or 0 < g_lat < math.inf)
            and np.all(g[:n, n] == -g_vert) and np.all(g[n, :n] == -g_vert)
            and all(np.all(g[i, j] == -g_lat) and np.all(g[j, i] == -g_lat)
                    for i, j in ((right, right + 1), (down, down + nx)))
            and np.allclose(np.diag(g), diag, rtol=1e-12, atol=0.0)
            and np.count_nonzero(g) == 3 * n + 1 + 2 * (len(right) + len(down))):
        raise ModelError("conductance is not a grid Laplacian plus a uniform vertical "
                         "link to a sink that alone couples to ambient")

    dx, lx = _dct2(nx)
    dy, ly = _dct2(ny)
    q = np.zeros((n + 1, n + 1))
    # kron(DCT_y, DCT_x)^T written in place: block (y, x) by mode (ky, kx),
    # both row-major; the reshape of the block corner is a view of q
    np.multiply(dy.T[:, None, :, None], dx.T[None, :, None, :],
                out=q[:n, :n].reshape(ny, nx, ny, nx))
    mu = np.empty(n + 1)
    mu[:n] = ((g_lat * (ly[:, None] + lx[None, :]) + g_vert) / c_b).ravel()
    # The sink couples to the uniform mode 0 alone: S on (mode 0, sink) is
    # [[a, b], [b, d]] with determinant g_vert g_amb / (c_b c_s). The sink
    # row is taken as assembled: its diagonal G[n, n] and the ambient
    # coupling it carries, G[n, n] - n g_vert, summed exactly.
    g_sink = float(g[n, n])
    g_amb_row = math.fsum([g_sink, *[-g_vert] * n])
    a, b, d = g_vert / c_b, -g_vert * math.sqrt(n / (c_b * c_s)), g_sink / c_s
    mu[0] = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
    mu[n] = g_vert * g_amb_row / (c_b * c_s) / mu[0]
    theta = 0.5 * math.atan2(2.0 * b, a - d)  # (cos, sin) belongs to the larger mu
    cos, sin = math.cos(theta), math.sin(theta)
    q[:n, 0], q[n, 0] = cos / math.sqrt(n), sin
    q[:n, n], q[n, n] = -sin / math.sqrt(n), cos
    c_half = np.sqrt(cap)[:, None]
    to_modal = c_half * q
    q /= c_half  # in place: Q itself is not kept
    for arr in (mu, to_modal, q):
        arr.setflags(write=False)
    return ModalBasis(mu=mu, to_modal=to_modal, from_modal=q.T)


def steady_state(net: ThermalNetwork, power) -> ThermalState:
    """Equilibrium temperatures for a constant per-block power vector:
    x = C^-1/2 Q diag(1/mu) Q^T C^-1/2 p on the network's modal basis."""
    p = _extended_power(net, power)
    m = net.modes
    x = ((p / net.capacitance) @ m.to_modal / m.mu) @ m.from_modal
    return ThermalState(temps=x + net.ambient)


class TransientSolver:
    """Backward-Euler stepper over one network, dt being its default step.

    The network's modal basis serves every step length: march() returns
    the k rows of k equal steps at constant power in one (k x n)(n x n)
    product, and step() is its one-row case. The steady state of each
    distinct power vector is solved once (steady()) and kept for the
    solver's life.
    """

    def __init__(self, net: ThermalNetwork, dt: float):
        _check_dt(dt)
        self.net = net
        self.dt = dt
        modes = net.modes
        self._mu = modes.mu
        self._to_modal = modes.to_modal
        self._from_modal = modes.from_modal
        self._steady_by_power: dict[bytes, ThermalState] = {}

    def steady(self, power) -> ThermalState:
        """steady_state() of a power vector, solved once per distinct vector."""
        power = np.asarray(power, dtype=float)
        key = power.tobytes()
        state = self._steady_by_power.get(key)
        if state is None:
            state = self._steady_by_power[key] = steady_state(self.net, power)
        return state

    def march(self, temps: np.ndarray, power, count: int, dt: float | None = None) -> np.ndarray:
        """Node temperatures after each of count steps of length dt at constant
        power (dt defaults to the solver's own), as a (count, n_nodes) array."""
        dt = self.dt if dt is None else dt
        _check_dt(dt)
        count = operator.index(count)
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        x_ss = self.steady(power).temps
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
