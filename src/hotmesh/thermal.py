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
eigenvalues. Q is never formed either: ModalBasis keeps the two 1-D DCT
matrices, the rotation and C^1/2, and applies Q to a stack of rows as one
DCT product along y, one along x and the rotation of two columns, O(nx +
ny) per value. The basis is built once per network; every steady state,
of one power vector or a stack of them, is one solve on it:

    steady state:  x = C^-1/2 Q diag(1/mu) Q^T C^-1/2 P

and, since a backward-Euler step of any length h scales each modal
deviation from the steady state x_ss of the step's power by
lambda(h) = 1 / (1 + h mu), k equal steps at constant power are one
batched application of the basis,

    x_j = x_0 - C^-1/2 Q ((1 - lambda^j) * Q^T C^1/2 (x_0 - x_ss)),  j = 1..k.

The step is taken as the change from x_0, with 1 - lambda^j computed by
expm1 and log1p: in the slow modes (the sink's) it is tiny, and x_ss plus
the decayed deviation would lose the digits of a large x_ss, such as a
heat pulse's. A steady state stays fixed bit for bit: x_ss is the
steady_state() solve of that power, so a start at it has zero deviation.
In modal coordinates z = Q^T C^1/2 (x - x_ref) each such run is diagonal,
so a sequence of runs that repeats (one migration period, PeriodTemplate)
maps its start to its end by one diagonal affine map.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ModelError
from .grid import GridSpec

# Values per block of rows that write_trace_csv formats, so its buffers stay a
# few hundred kB, and the decimals of the time column and of each temperature.
_CSV_BLOCK_VALUES, _TIME_DECIMALS, _TEMP_DECIMALS = 1 << 15, 9, 6
# "0000".."9999", one little-endian word of four ASCII digits each.
_DIGITS4 = (np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                 indexing="ij"), axis=-1).reshape(10_000, 4).view("<u4")[:, 0])
_POWERS_OF_TEN = np.array([10 ** k for k in range(16)], dtype=float)  # those below 2^52


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
    """S = C^-1/2 G C^-1/2 = Q diag(mu) Q^T of one network, kept as its
    factors: Q is kron(DCT_y, DCT_x) over the blocks with one 2x2 rotation
    of (mode 0, sink), so it is never formed.

    to_modal(x) = (Q^T C^1/2 x^T)^T and from_modal(z) = (C^-1/2 Q z^T)^T act
    on the last axis of any stack of rows. Each reads the rows as columns,
    one per mode or node (no copy when the rows are stored column by column,
    as PeriodTemplate.rows forms them), applies one DCT product along y to
    all of them, then one along x for each row of the mesh, written
    straight into the output rows, and the rotation to the two columns it
    mixes: O(n (nx + ny)) work per row, from O(nx^2 + ny^2 + n) values.
    """

    mu: np.ndarray   # (n+1,), 1/s, all positive
    dx: np.ndarray   # (nx, nx), orthonormal DCT-II, row kx is frequency kx
    dy: np.ndarray   # (ny, ny)
    cos: float       # the rotation: mode 0 is cos (uniform blocks) + sin (sink)
    sin: float
    sqrt_cb: float   # C^1/2 of a block and of the sink
    sqrt_cs: float

    def to_modal(self, x) -> np.ndarray:
        """Modal coordinates of node rows x (deviations from ambient)."""
        x = np.asarray(x, dtype=float)
        ny, nx = len(self.dy), len(self.dx)
        n = nx * ny
        rows, z, flat = _rows(x, n + 1, None)
        cols = np.ascontiguousarray(rows.T)  # node by node
        r = cols.shape[1]
        sink = self.sqrt_cs * cols[n]
        v = self._to_y @ cols[:n].reshape(ny, nx * r)
        np.matmul(self.dx, v.reshape(ny, nx, r), out=flat[:, :n].T.reshape(ny, nx, r))
        w0 = flat[:, 0].copy()  # the uniform block mode
        np.add(self.cos * w0, self.sin * sink, out=flat[:, 0])
        np.subtract(self.cos * sink, self.sin * w0, out=flat[:, n])
        return z

    def from_modal(self, z, out: np.ndarray | None = None) -> np.ndarray:
        """Node rows (deviations from ambient) of modal rows z, into out if
        given. out may be z's own memory, in either order: z is read in
        full before out is written."""
        z = np.asarray(z, dtype=float)
        ny, nx = len(self.dy), len(self.dx)
        n = nx * ny
        rows, out, flat = _rows(z, n + 1, out)
        cols = np.ascontiguousarray(rows.T)  # mode by mode
        r = cols.shape[1]
        sink = (self.sin * cols[0] + self.cos * cols[n]) / self.sqrt_cs
        grid = cols[:n].reshape(ny, nx * r)  # by ky, then kx and row
        # the kx = 0 part, with mode 0 rotated back out of the sink: a copy,
        # as the columns may be z itself
        first = grid[:, :r].copy()
        np.subtract(self.cos * cols[0], self.sin * cols[n], out=first[0])
        v = np.empty((ny, nx * r))
        np.matmul(self.dy.T, first, out=v[:, :r])
        np.matmul(self.dy.T, grid[:, r:], out=v[:, r:])
        np.matmul(self._from_x, v.reshape(ny, nx, r), out=flat[:, :n].T.reshape(ny, nx, r))
        flat[:, n] = sink
        return out

    def block_mean(self, z) -> np.ndarray:
        """Mean over the blocks of from_modal(z), per modal row, in closed
        form: of the block modes only the uniform one has a nonzero sum, so
        it is that mode rotated back out of the sink, (cos z[..., 0] - sin
        z[..., n]) / sqrt(n c_b). Taken element by element, it depends
        neither on how the rows are stored nor on how they are grouped."""
        n = len(self.dx) * len(self.dy)
        return (self.cos * z[..., 0] - self.sin * z[..., n]) / (math.sqrt(n) * self.sqrt_cb)

    # the DCT factors with the blocks' C^1/2 and C^-1/2 folded in
    @cached_property
    def _to_y(self) -> np.ndarray:
        return self.sqrt_cb * self.dy

    @cached_property
    def _from_x(self) -> np.ndarray:
        return self.dx.T / self.sqrt_cb


def _rows(a: np.ndarray, width: int, out: np.ndarray | None):
    """(a, out, flat) with a and flat as (rows, width): flat is a view of out,
    whose leading axes must merge into one."""
    if a.shape[-1:] != (width,):
        raise ValueError(f"rows must have {width} values, got shape {a.shape}")
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape:
        raise ValueError(f"out must have shape {a.shape}, got {out.shape}")
    flat = out.reshape(-1, width)
    if not np.may_share_memory(flat, out):
        raise ValueError("out's leading axes must merge into one: rows of a trace, say")
    return a.reshape(-1, width), out, flat


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
    g_lat, g_vert, g_amb, c_b, c_s = net.g_lat, net.g_vert, net.g_amb, net.c_b, net.c_s

    dx, lx = _dct2(nx)
    dy, ly = (dx, lx) if ny == nx else _dct2(ny)
    mu = np.empty(n + 1)
    mu[:n] = ((g_lat * (ly[:, None] + lx[None, :]) + g_vert) / c_b).ravel()
    # The sink couples to the uniform mode 0 alone: S on (mode 0, sink) is
    # [[a, b], [b, d]] with determinant g_vert g_amb / (c_b c_s); the sink's
    # diagonal G[n, n] is n g_vert + g_amb.
    a, b, d = g_vert / c_b, -g_vert * math.sqrt(n / (c_b * c_s)), (n * g_vert + g_amb) / c_s
    mu[0] = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
    mu[n] = g_vert * g_amb / (c_b * c_s) / mu[0]
    theta = 0.5 * math.atan2(2.0 * b, a - d)  # (cos, sin) belongs to the larger mu
    for arr in (mu, dx, dy):
        arr.setflags(write=False)
    return ModalBasis(mu=mu, dx=dx, dy=dy, cos=math.cos(theta), sin=math.sin(theta),
                      sqrt_cb=math.sqrt(c_b), sqrt_cs=math.sqrt(c_s))


def steady_state(net: ThermalNetwork, power) -> ThermalState:
    """Equilibrium temperatures for a constant per-block power vector:
    x = C^-1/2 Q diag(1/mu) Q^T C^-1/2 p on the network's modal basis."""
    if np.ndim(power) != 1:
        raise ValueError(f"steady_state takes one power vector, got shape {np.shape(power)}")
    return ThermalState(temps=net.modes.from_modal(_modal_steady_state(net, power)) + net.ambient)


def _modal_steady_state(net: ThermalNetwork, powers) -> np.ndarray:
    """The one steady-state solve, in modal coordinates, of a power vector
    or a stack of them: z = Q^T C^1/2 x = to_modal(C^-1 p) / mu over all
    nodes, the sink dissipating nothing. Powers and constants each in range
    may still overflow it; a result that is not finite is refused."""
    powers = np.asarray(powers, dtype=float)
    if powers.shape[-1:] != (net.n_blocks,):
        raise ValueError(f"power vectors must have {net.n_blocks} values, got {powers.shape}")
    heat = np.zeros((*powers.shape[:-1], net.n_nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(powers, net.c_b, out=heat[..., :-1])
        z = np.divide(net.modes.to_modal(heat), net.modes.mu, out=heat)
    if not np.isfinite(z).all():
        raise ConfigurationError(
            "the steady state is not finite in float64: check the [profile] powers, the "
            "migration energy ([migration] state_bits x e_bit_hop_j) and the [thermal] "
            "constants")
    return z


class TransientSolver:
    """Backward-Euler stepper over one network, dt being its default step.

    Every step is one formula, step j of a run of equal steps moving each
    mode 1 - lambda^j of its way (_approach): template() lays out a repeating
    sequence of such runs in modal coordinates, nodes() turns modal rows
    into node temperatures, and march() forms the rows of one run directly
    (step() its one-row case).
    """

    def __init__(self, net: ThermalNetwork, dt: float):
        _check_dt(dt)
        self.net = net
        self.dt = dt
        self._modes = net.modes
        self._mu = net.modes.mu

    def march(self, temps: np.ndarray, power, count: int, dt: float | None = None) -> np.ndarray:
        """Node temperatures after each of count steps of length dt at constant
        power (dt defaults to the solver's own), as a (count, n_nodes) array:
        in modal deviations from temps, step j goes 1 - lambda^j of the way
        to the steady state x_ss of the power, so a start at x_ss stays."""
        count = operator.index(count)
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        dt = self.dt if dt is None else dt
        _check_dt(dt)
        fixed = self._modes.to_modal(steady_state(self.net, power).temps - temps)
        return self.nodes(self._approach(dt, count) * fixed, temps)

    def _approach(self, dt: float, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """1 - lambda(dt)^j for j = 1..count, (count, n_nodes): the share of
        each mode's way to the steady state after j steps, as
        -expm1(-j log1p(dt mu)), exact also where lambda is close to 1.
        The sign is flipped by a product with -1, as exact as np.negative,
        which in numpy 2.4.6 writes wrong values in place along a stride of
        eight elements: a one-step run of an eight-step template."""
        out = np.multiply(np.arange(-1, -count - 1, -1)[:, None], np.log1p(dt * self._mu),
                          out=out)
        return np.multiply(np.expm1(out, out=out), -1.0, out=out)

    def step(self, temps: np.ndarray, power, dt: float | None = None) -> np.ndarray:
        """Advance node temperatures by dt (defaults to the solver's own)."""
        return self.march(temps, power, 1, dt)[0]

    def nodes(self, z: np.ndarray, origin: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """Node temperatures origin + from_modal(z) of modal rows z taken
        relative to the node temperatures origin, into out if given (a
        slice of a trace, say): the basis writes them there directly."""
        out = self._modes.from_modal(z, out=out)
        out += origin
        return out

    def template(self, runs) -> PeriodTemplate:
        """The PeriodTemplate of consecutive runs of equal steps, each run
        (count, dt, fixed, varies): count steps of length dt towards the
        modal steady state fixed, plus the varying source if varies."""
        n = self.net.n_nodes
        bounds = (0, *np.cumsum([run[0] for run in runs]).tolist())
        approach = np.empty((n, bounds[-1])).T  # mode-major, as rows() forms its rows
        for (count, dt, _, _), start in zip(runs, bounds):
            _check_dt(dt)
            self._approach(dt, count, out=approach[start:start + count])
        fixed = np.array([np.broadcast_to(run[2], n) for run in runs])
        return PeriodTemplate(bounds, approach, fixed, tuple(bool(run[3]) for run in runs))


@dataclass(frozen=True)
class PeriodTemplate:
    """One event-to-event period in modal coordinates, diagonal in the modes.

    Run r takes steps bounds[r]..bounds[r + 1] - 1 towards the modal steady
    state fixed[r], plus the period's varying source z_var if varies[r].
    Within a run z_j = z_start - (1 - lambda^j) (z_start - z_ss) (see the
    module docstring), so a period maps its start z0 to its end D z0 + f +
    B z_var (period_map).
    """

    bounds: tuple[int, ...]
    approach: np.ndarray      # (steps, n), mode-major: 1 - lambda^j of step j = 1.. of its run
    fixed: np.ndarray         # (runs, n)
    varies: tuple[bool, ...]

    @property
    def steps(self) -> int:
        return self.bounds[-1]

    @cached_property
    def period_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(D, f, B), each (n,), composed run by run from the last approach
        row of each: built on first use by starts()."""
        n = self.approach.shape[1]
        decay, offset, gain = np.ones(n), np.zeros(n), np.zeros(n)
        for end, fixed, varies in zip(self.bounds[1:], self.fixed, self.varies):
            w = self.approach[end - 1]
            decay = decay - w * decay
            offset = offset - w * (offset - fixed)
            gain = gain - w * (gain - float(varies))
        return decay, offset, gain

    def starts(self, z0: np.ndarray, z_var: np.ndarray) -> np.ndarray:
        """z0 and the start of every later period, z_{k+1} = D z_k + f + B
        z_var[k]: O(n) per period, (len(z_var) + 1, n)."""
        decay, offset, gain = self.period_map
        z = np.empty((len(z_var) + 1, len(z0)))
        z[0] = z0
        z[1:] = gain * z_var + offset
        for k in range(len(z_var)):
            z[k + 1] += decay * z[k]
        return z

    def rows(self, z0: np.ndarray, z_var: np.ndarray, s0: int, s1: int,
             work: np.ndarray | None = None) -> np.ndarray:
        """Modal states after steps s0..s1 - 1 of the periods started at
        z0[k] under z_var[k], both (periods, n): (periods * (s1 - s0), n)
        rows, period by period, stored mode by mode, which from_modal reads
        without a copy; at the start of the flat buffer work if given."""
        n, size = z0.shape[1], z0.size * (s1 - s0)
        flat = np.empty(size) if work is None else work[:size]
        out = flat.reshape(n, len(z0), s1 - s0).transpose(1, 2, 0)
        z = z0
        for a, b, fixed, varies in zip(self.bounds, self.bounds[1:], self.fixed, self.varies):
            if a >= s1:
                break
            dev = z - (fixed + z_var if varies else fixed)
            lo, hi = max(a, s0), min(b, s1)
            if lo < hi:
                block = out[:, lo - s0:hi - s0]
                np.multiply(self.approach[lo:hi], dev[:, None], out=block)
                np.subtract(z[:, None], block, out=block)
            z = z - self.approach[b - 1] * dev
        return out.reshape(-1, n)


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
    """Emit a trace as CSV with columns time_s, t_block_0.., t_sink: times
    as %.9f and temperatures as %.6f, one block of rows at a time, so memory
    stays bounded. Blocks whose columns each keep one sign and digit count go
    through a fixed-width kernel (_fixed_point_rows), others through the
    %-template (_template_rows), whose bytes the kernel reproduces."""
    times = np.asarray(times, dtype=float)
    temps = np.asarray(temps, dtype=float)
    if temps.ndim != 2 or temps.shape[1] == 0 or times.shape != temps.shape[:1]:
        raise ValueError("a trace is times of shape (rows,) and temps of shape (rows, nodes), "
                         f"got times {times.shape} and temps {temps.shape}")
    header = ["time_s"] + [f"t_block_{i}" for i in range(temps.shape[1] - 1)] + ["t_sink"]
    decimals = (_TIME_DECIMALS,) + (_TEMP_DECIMALS,) * temps.shape[1]
    block_rows = max(1, _CSV_BLOCK_VALUES // len(decimals))
    plans: dict[tuple, tuple] = {}
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, len(temps), block_rows):
            parts = (times[lo:lo + block_rows, None], temps[lo:lo + block_rows])
            rows = _fixed_point_rows(parts, plans)
            f.write(_template_rows(np.column_stack(parts), decimals) if rows is None else rows)


def _template_rows(block: np.ndarray, decimals) -> bytes:
    """The CSV rows of a block, every value %-formatted: the exact path."""
    row = ",".join(f"%.{d}f" for d in decimals) + "\r\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii")


def _fixed_point_rows(parts, plans: dict) -> np.ndarray | None:
    """The bytes of _template_rows of the block (times (rows, 1), temps
    (rows, nodes)) as (rows, row bytes) uint8, or None if _column_groups
    refuses a part; each run of a column group's digit bytes is one look-up."""
    rows, layout, words = len(parts[0]), (), []
    for x, d in zip(parts, (_TIME_DECIMALS, _TEMP_DECIMALS)):
        q, groups = _column_groups(x, d)
        if groups is None:
            return None
        for a, b, width, negative in groups:
            layout += ((b - a, negative, width, d),)
            q_group = q[:, a:b].astype(np.intp)
            for _ in range(-(-width // 4) - 1):  # the digit words, least significant first
                high = q_group // 10_000
                words.append(q_group - high * 10_000)
                q_group = high
            words.append(q_group)
    out, runs = plans.get(layout) or plans.setdefault(layout, _row_plan(layout, rows))
    for word, table, view in runs:
        np.copyto(view[:rows], table.take(words[word], mode="wrap"))  # each word < 10^4
    return out[:rows]


def _column_groups(x: np.ndarray, d: int):
    """(q, groups) of values x (rows, columns) printed with d decimals: q the
    integers rint(|x| 10^d) printed, groups the runs (start, stop, width,
    negative) of adjacent columns of one sign and digit count, or (None, None)
    if a column changes either or a value is not below 2^52 once scaled. Float
    |v| 10^d is within 2^-53 of its size of the exact product, so rint rounds
    it as %-formatting does unless a tie lies in between: products within
    1e-6 + 2^-50 * (the largest product) of a tie are %-formatted one by one."""
    scaled = np.abs(x)
    top = float(scaled.max()) * 10.0 ** d  # the largest product, as scaling is monotonic
    if not top < 2.0 ** 52:  # also false for nan and inf, and so no product overflows
        return None, None
    q = np.rint(np.multiply(scaled, 10.0 ** d, out=scaled))
    off = np.abs(np.subtract(scaled, q, out=scaled), out=scaled)
    near = 0.5 - 1e-6 - top * 2.0 ** -50
    for i in np.flatnonzero(off >= near).tolist() if off.max() >= near else ():
        q.flat[i] = float(("%.*f" % (d, abs(x.flat[i]))).replace(".", ""))

    def code(bits, q):  # 2 width + negative; of the width digits printed, d are decimals
        return 2 * (d + 1 + _POWERS_OF_TEN[d + 1:].searchsorted(q, "right")) + (bits < 0)
    sign_bits = x.view(np.int64)  # negative exactly where the sign bit is set
    layout = code(sign_bits.min(), q.min())
    if layout != code(sign_bits.max(), q.max()):  # per column only if the block's differ
        layout = code(sign_bits.min(axis=0), q.min(axis=0))
        if (layout != code(sign_bits.max(axis=0), q.max(axis=0))).any():
            return None, None
    if layout.ndim == 0:
        return q, [(0, x.shape[1], *divmod(int(layout), 2))]
    bounds = [0, *(np.flatnonzero(np.diff(layout)) + 1).tolist(), x.shape[1]]
    return q, [(a, b, *divmod(int(layout[a]), 2)) for a, b in zip(bounds, bounds[1:])]


def _row_plan(layout, rows: int) -> tuple[np.ndarray, list]:
    """(out, runs) of a layout of column groups (columns, negative, width,
    decimals): out (rows, row bytes) holds every row's punctuation; each run
    of 1, 2 or 4 group digit bytes in one word and on one side of the point
    is (word, table, view): its bytes of all 10^4 words, its place in out."""
    cells = [b"-" * neg + b"0" * (w - d) + b"." + b"0" * d + b"," for _, neg, w, d in layout]
    text = b"".join(cell * group[0] for cell, group in zip(cells, layout))[:-1] + b"\r\n"
    out = np.empty((rows, len(text)), dtype=np.uint8)
    out[:] = np.frombuffer(text, dtype=np.uint8)
    runs, start, word = [], 0, 0
    for cell, (columns, negative, width, d) in zip(cells, layout):
        size = 4 * -(-width // 4)  # bytes of the group's words, the digits at their end
        first, point = size - width, size - d
        bounds = sorted({first, point, *range(4, size + 1, 4)})
        bounds = sorted({*bounds, *(b + 2 for b, e in zip(bounds, bounds[1:]) if e - b == 3)})
        for b, e in zip(bounds, bounds[1:]):
            table = np.ascontiguousarray(np.ndarray(10_000, f"<u{e - b}", _DIGITS4, b % 4, 4))
            runs.append((word + (size - 1 - b) // 4, table, np.ndarray(
                (rows, columns), table.dtype, out, start + negative + b - first + (b >= point),
                (len(text), len(cell)))))
        start, word = start + len(cell) * columns, word + size // 4
    return out, runs
