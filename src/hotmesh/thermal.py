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
global, so the network is its scalars: conductances g_lat between mesh
neighbors, g_vert from each block to the sink and g_amb from the sink to
ambient, capacitances c_b per block and c_s of the sink. G is the
model's math and is never assembled: every quantity is read off one
closed-form modal basis of it. The block part of G is g_lat L + g_vert I,
with L the 4-neighbor grid Laplacian with adiabatic (Neumann) edges. The
2-D DCT-II diagonalizes L exactly (Strang, SIAM Review 41, 1999), so
S = C^-1/2 G C^-1/2 = Q diag(mu) Q^T is closed form:

    Q  = kron(DCT_y, DCT_x) over the blocks, mode k = (ky, kx) row-major,
    mu = (g_lat (4 sin^2(pi kx / 2nx) + 4 sin^2(pi ky / 2ny)) + g_vert) / c_b,

except that the sink couples only to the uniform mode k = 0: one 2x2
rotation mixes that mode with the sink node and gives the last two
eigenvalues. The basis is built once per network and serves both solvers
(placement's block response is the steady state of each unit power):

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
from .grid import GridSpec

# Values per block of rows formatted by write_trace_csv: its buffers stay a
# few hundred kB however long or wide the trace is.
_CSV_BLOCK_VALUES = 1 << 15
# Decimal places of the time column and of every temperature column.
_TIME_DECIMALS, _TEMP_DECIMALS = 9, 6
# "0000".."9999", one uint32 word of four ASCII digits each.
_DIGITS4 = (np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                 indexing="ij"), axis=-1)
            .reshape(10_000, 4).view(np.uint32).ravel())
# The punctuation of a CSV row, two words, and the byte offset of each mark.
_PUNCT = np.frombuffer(b"-.,\r\n\0\0\0", dtype=np.uint32)
_MINUS, _DOT, _COMMA, _CR, _LF = range(5)


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
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be in (0, inf), got {getattr(self, name)}")
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
    """RC network over n identical block nodes plus the sink node at index n,
    kept as its scalars; every solve reads its modal basis (modes)."""

    grid: GridSpec
    g_lat: float    # W/K, between mesh-adjacent blocks
    g_vert: float   # W/K, from each block to the sink
    g_amb: float    # W/K, from the sink to ambient
    c_b: float      # J/K, per block
    c_s: float      # J/K, the sink
    ambient: float  # deg C

    def __post_init__(self) -> None:
        for name in ("g_lat", "g_vert", "g_amb", "c_b", "c_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ModelError(f"{name} must be in (0, inf), got {getattr(self, name)}")
        if not math.isfinite(self.ambient):
            raise ModelError(f"ambient must be finite, got {self.ambient}")

    @property
    def n_blocks(self) -> int:
        return self.grid.n_cells

    @property
    def n_nodes(self) -> int:
        return self.grid.n_cells + 1

    @cached_property
    def modes(self) -> ModalBasis:
        """The closed-form modal basis, built once: by build_network, or on
        first use of a network constructed directly."""
        return _modal_basis(self)


@dataclass(frozen=True)
class ThermalState:
    """Node temperatures (deg C, blocks then sink) at one instant."""

    temps: np.ndarray


def network_scalars(grid: GridSpec, params: ThermalParams) -> dict[str, float]:
    """The network's five conductances and capacitances, derived from the
    material constants and the block area. Each constant may be in range
    while a product or reciprocal of them under- or overflows."""
    return dict(g_lat=params.k_si * params.die_thickness,
                g_vert=1.0 / params.r_vertical,
                g_amb=1.0 / params.r_sink,
                c_b=params.c_v * (grid.cell_area * 1e-6) * params.die_thickness,
                c_s=params.c_sink)


def build_network(grid: GridSpec, params: ThermalParams) -> ThermalNetwork:
    """4-neighbor lateral links, one vertical link per block, lumped sink,
    and the network's modal basis."""
    net = ThermalNetwork(grid=grid, **network_scalars(grid, params), ambient=params.ambient)
    _ = net.modes  # the basis is part of building the network, not of its first use
    return net


def _sink_diagonal(net: ThermalNetwork) -> float:
    """G[n, n] as the tests' link-by-link assembly of G sums it in float64:
    the n vertical links one at a time (accumulate adds left to right), then
    the ambient link. The modal basis reads this sum, not n g_vert + g_amb."""
    return float(np.add.accumulate(np.full(net.n_blocks, net.g_vert))[-1]) + net.g_amb


def _dct2(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II of length m (row k is frequency k) and the
    eigenvalues 4 sin^2(pi k / 2m) of the path Laplacian with Neumann ends."""
    k = np.arange(m)
    d = math.sqrt(2.0 / m) * np.cos(np.pi / (2 * m) * np.outer(k, 2 * k + 1))
    d[0] = math.sqrt(1.0 / m)
    return d, 4.0 * np.sin(np.pi / (2 * m) * k) ** 2


def _modal_basis(net: ThermalNetwork) -> ModalBasis:
    """The network's modal basis in closed form (see the module docstring)."""
    nx, ny, n = net.grid.nx, net.grid.ny, net.n_blocks
    g_lat, g_vert, c_b, c_s = net.g_lat, net.g_vert, net.c_b, net.c_s

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
    g_sink = _sink_diagonal(net)
    g_amb_row = math.fsum([g_sink, *[-g_vert] * n])
    a, b, d = g_vert / c_b, -g_vert * math.sqrt(n / (c_b * c_s)), g_sink / c_s
    mu[0] = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
    mu[n] = g_vert * g_amb_row / (c_b * c_s) / mu[0]
    theta = 0.5 * math.atan2(2.0 * b, a - d)  # (cos, sin) belongs to the larger mu
    cos, sin = math.cos(theta), math.sin(theta)
    q[:n, 0], q[n, 0] = cos / math.sqrt(n), sin
    q[:n, n], q[n, n] = -sin / math.sqrt(n), cos
    c_half = np.sqrt(np.append(np.full(n, c_b), c_s))[:, None]
    to_modal = c_half * q
    q /= c_half  # in place: Q itself is not kept
    for arr in (mu, to_modal, q):
        arr.setflags(write=False)
    return ModalBasis(mu=mu, to_modal=to_modal, from_modal=q.T)


def steady_state(net: ThermalNetwork, power) -> ThermalState:
    """Equilibrium temperatures for a constant per-block power vector:
    x = C^-1/2 Q diag(1/mu) Q^T C^-1/2 p on the network's modal basis."""
    power = np.asarray(power, dtype=float)
    if power.shape != (net.n_blocks,):
        raise ValueError(f"power vector must have shape ({net.n_blocks},), got {power.shape}")
    m = net.modes
    # C^-1 p over all nodes: the sink dissipates nothing
    x = ((np.append(power, 0.0) / net.c_b) @ m.to_modal / m.mu) @ m.from_modal
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

    Times are printed as %.9f and temperatures as %.6f, one block of rows
    at a time, so memory stays bounded however long the trace is. A block
    in which every column keeps one sign and one integer-digit count is
    formatted by a fixed-width kernel (_fixed_point_rows); any other block
    by the %-template (_template_rows), whose bytes the kernel reproduces.
    """
    times = np.asarray(times, dtype=float)
    temps = np.asarray(temps, dtype=float)
    n_blocks = temps.shape[1] - 1
    header = ["time_s"] + [f"t_block_{i}" for i in range(n_blocks)] + ["t_sink"]
    decimals = (_TIME_DECIMALS,) + (_TEMP_DECIMALS,) * temps.shape[1]
    block_rows = max(1, _CSV_BLOCK_VALUES // len(decimals))
    layouts: dict[tuple, tuple[np.ndarray, int]] = {}
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, len(temps), block_rows):
            block = np.column_stack((times[lo:lo + block_rows], temps[lo:lo + block_rows]))
            rows = _fixed_point_rows(block, decimals, layouts)
            f.write(_template_rows(block, decimals) if rows is None else rows)


def _template_rows(block: np.ndarray, decimals) -> bytes:
    """The CSV rows of a block, every value %-formatted: the exact path."""
    row = ",".join(f"%.{d}f" for d in decimals) + "\r\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii")


def _fixed_point_rows(block: np.ndarray, decimals, layouts: dict) -> np.ndarray | None:
    """The bytes of _template_rows(block, decimals) as a (rows, width) uint8
    array, or None when a column changes sign or integer-digit count or a
    value is non-finite or at least 2^52 once scaled.

    A value v with d decimals prints the integer q = rint(|v| 10^d). The
    float product differs from the exact |v| 10^d by at most 2^-53 of its
    size, so rint rounds it as %-formatting does (half to even on the exact
    binary value) unless a tie lies in between. Values whose product lies
    within 1e-6 + 2^-50 * (the block's largest product) of a tie are
    therefore rounded by %-formatting, one at a time. q is cut into
    base-10^4 groups whose ASCII digits are looked up in _DIGITS4, and an
    index built once per layout (_row_layout) picks every row's bytes from
    those digit words and the punctuation.
    """
    n_rows, n_cols = block.shape
    scaled = np.abs(block) * 10.0 ** np.asarray(decimals)
    top = scaled.max()
    if not top < 2.0 ** 52:  # also false for nan and inf
        return None
    q = np.rint(scaled)
    near_tie = np.abs(scaled - q) >= 0.5 - 1e-6 - top * 2.0 ** -50
    for i in np.flatnonzero(near_tie).tolist():
        r, c = divmod(i, n_cols)
        q[r, c] = float(("%.*f" % (decimals[c], abs(block[r, c]))).replace(".", ""))
    sign_bits = block.view(np.int64)  # negative exactly where the sign bit is set
    negative = (sign_bits.max(axis=0) < 0).tolist()
    if negative != (sign_bits.min(axis=0) < 0).tolist():
        return None
    widths = []  # digits printed per column, at least one before the point
    for lo, hi, d in zip(q.min(axis=0).tolist(), q.max(axis=0).tolist(), decimals):
        width = max(len(str(int(lo))), d + 1)
        if width != max(len(str(int(hi))), d + 1):
            return None
        widths.append(width)
    key = (tuple(widths), tuple(negative))
    if key not in layouts:
        layouts[key] = _row_layout(widths, negative, decimals)
    index, groups = layouts[key]
    # per row: groups digit words per column, then the punctuation words
    words = np.empty((n_rows, n_cols + 1, groups), dtype=np.uint32)
    q = q.astype(np.int64)
    for j in range(groups - 1, 0, -1):
        high = q // 10_000
        words[:, :n_cols, j] = _DIGITS4[q - high * 10_000]
        q = high
    words[:, :n_cols, 0] = _DIGITS4[q]
    words[:, n_cols, :len(_PUNCT)] = _PUNCT
    return np.take(words.reshape(n_rows, -1).view(np.uint8), index, axis=1)  # C order


def _row_layout(widths, negative, decimals) -> tuple[np.ndarray, int]:
    """(index, groups) of one block layout: the digit words per value, and
    the byte offset in a row of the kernel's word buffer of each byte of a
    CSV row (per column an optional minus, the integer digits, the point
    and the decimals, then a comma, or CRLF after the last column)."""
    groups = max(-(-max(widths) // 4), len(_PUNCT))
    stride = 4 * groups  # bytes per column; its digits end at the column's end
    punct = len(widths) * stride
    index = []
    for c, (width, neg, d) in enumerate(zip(widths, negative, decimals)):
        end = (c + 1) * stride
        if neg:
            index.append(punct + _MINUS)
        index += range(end - width, end - d)
        index.append(punct + _DOT)
        index += range(end - d, end)
        index.append(punct + _COMMA)
    index[-1] = punct + _CR
    index.append(punct + _LF)
    return np.array(index, dtype=np.intp), groups
