"""Thermally-aware static placement: simulated annealing over pairwise swaps.

The objective is the steady-state peak block temperature. Steady state is
linear, so the block temperatures are T - T_amb = R p, where R holds the
block rows and columns of G^-1, the unit powers' steady states in one solve
(see :mod:`hotmesh.thermal`). anneal() computes R once and keeps the
placement as a block index per workload plus the power vector it induces:
a swap exchanges two entries of each. A swap of two equal powers leaves p,
and so R p, unchanged bit for bit: it is an exact tie, taken with no
matvec. Every other swap costs one matvec instead of a solve. A sweep
anneals once and hands the placement to every cell.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigurationError, require_integer
from .grid import Coord, GridSpec, Mapping, PowerProfile, identity_mapping, power_vector
from .thermal import ThermalNetwork, _modal_steady_state, peak, steady_state


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule: geometric cooling from t_start down to t_end."""

    iterations: int = 20000
    t_start: float = 1.0
    t_end: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        require_integer("iterations", self.iterations)
        require_integer("seed", self.seed)
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if not math.inf > self.t_start > self.t_end > 0:
            raise ConfigurationError("annealing temperatures need inf > t_start > t_end > 0")
        # t_end / t_start may underflow to 0, and the cooling factor and the
        # temperature with it; a normal t_end and ratio keep every move's > 0
        if min(self.t_end, self.t_end / self.t_start) < sys.float_info.min:
            raise ConfigurationError(
                f"the annealing schedule cools to zero in float64: t_end and t_end / t_start "
                f"must be at least {sys.float_info.min}, got t_start = {self.t_start!r} and "
                f"t_end = {self.t_end!r}")


@dataclass(frozen=True)
class PlacementResult:
    """Best placement seen by the annealer and its objective value."""

    mapping: Mapping
    peak_c: float


def evaluate(mapping: Mapping, profile: PowerProfile, net: ThermalNetwork) -> float:
    """Steady-state peak temperature of a placement (the annealing objective)."""
    if net.grid != mapping.grid:
        raise ConfigurationError("thermal network was built for a different mesh")
    return peak(steady_state(net, power_vector(mapping, profile)))


# Bound on the unit powers x blocks that _block_response solves at once: a
# 16x16 mesh's 256 in one block, so its R is that of one stacked solve.
_RESPONSE_BLOCK = 1 << 16


def _block_response(net: ThermalNetwork) -> np.ndarray:
    """R with T_blocks - T_amb = R p: row i of the product is steady_state()
    of one watt on block i, so R[j, i] is block j's rise per watt on block i.
    The unit powers are solved in blocks of rows, each into its rows of the
    one array that R views, so that building R takes little more than R."""
    n = net.n_blocks
    rises = np.empty((n, n + 1))
    rows = max(1, _RESPONSE_BLOCK // n)
    for i in range(0, n, rows):
        z = _modal_steady_state(net, np.eye(min(rows, n - i), n, i))
        net.modes.from_modal(z, out=rises[i:i + len(z)])
    return rises[:, :n].T


# random.sample(population, 2) draws from a copied list of the population
# when it has at most this many items and by rejection against a set
# otherwise: CPython's Lib/random.py, `setsize = 21` for k <= 5.
_SAMPLE_POOL_MAX = 21


def _pairs(rng: random.Random, n: int):
    """Endless pairs of distinct indices below n, each drawn from rng's
    stream as rng.sample(range(n), 2) would draw it, without its list copy.
    An index below m is drawn as CPython's _randbelow_with_getrandbits
    draws it: getrandbits(m.bit_length()) until one is below m."""
    bits, pooled = rng.getrandbits, n <= _SAMPLE_POOL_MAX
    k, k_pool = n.bit_length(), (n - 1).bit_length()
    while True:
        a = bits(k)
        while a >= n:
            a = bits(k)
        if pooled:  # b below n - 1: the pool's last item moved into a's slot
            b = bits(k_pool)
            while b >= n - 1:
                b = bits(k_pool)
            if b == a:
                b = n - 1
        else:  # by rejection against the items already taken
            b = bits(k)
            while b >= n or b == a:
                b = bits(k)
        yield a, b


def anneal(profile: PowerProfile, grid: GridSpec, net: ThermalNetwork,
           cfg: AnnealConfig) -> PlacementResult:
    """Anneal pairwise workload swaps starting from the identity placement.

    Pairs are drawn as rng.sample(range(n), 2) draws them, and a swap of equal
    powers is accepted unscored, so the placement is bit for bit the one that
    scoring every move would give."""
    if net.grid != grid:
        raise ConfigurationError("thermal network was built for a different mesh")
    rng = random.Random(cfg.seed)
    n = grid.n_cells
    block = list(range(n))  # workload id -> block index
    power = power_vector(identity_mapping(grid), profile)
    best = block.copy()
    if n >= 2:
        response, ambient = _block_response(net), net.ambient
        watts = power.tolist()  # power as Python floats, swapped with it
        rise = np.empty(n)  # R p, rewritten by every scored move
        highest = np.maximum.reduce
        cur_obj = best_obj = float(highest(np.matmul(response, power, out=rise))) + ambient
        cooling = (cfg.t_end / cfg.t_start) ** (1.0 / max(cfg.iterations - 1, 1))
        temp = cfg.t_start
        uniform, exp = rng.random, math.exp
        for a, b in islice(_pairs(rng, n), cfg.iterations):
            i, j = block[a], block[b]
            wi, wj = watts[i], watts[j]
            if wi == wj:  # same p, same R p: delta == 0 accepts
                block[a], block[b] = j, i
            else:
                power[i], power[j] = wj, wi
                obj = float(highest(np.matmul(response, power, out=rise))) + ambient
                delta = obj - cur_obj
                if delta <= 0 or uniform() < exp(-delta / temp):
                    block[a], block[b] = j, i
                    watts[i], watts[j] = wj, wi
                    cur_obj = obj
                    if obj < best_obj:
                        best_obj = obj
                        best = block.copy()
                else:
                    power[i], power[j] = wi, wj
            temp *= cooling
    mapping = Mapping(grid, {w: grid.coord(i) for w, i in enumerate(best)})
    return PlacementResult(mapping=mapping, peak_c=evaluate(mapping, profile, net))


def place(profile: PowerProfile, grid: GridSpec, net: ThermalNetwork,
          cfg: AnnealConfig) -> Mapping:
    """Placement minimizing steady-state peak temperature; never worse than identity."""
    return anneal(profile, grid, net, cfg).mapping


_MAPPING_COLUMNS = ("workload_id", "x", "y")


def write_mapping_csv(mapping: Mapping, path) -> None:
    """CSV rows: workload_id,x,y."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_MAPPING_COLUMNS)
        for wid in sorted(mapping.assignment):
            c = mapping.assignment[wid]
            w.writerow([wid, c.x, c.y])


def read_mapping_csv(path, grid: GridSpec) -> Mapping:
    """Load a placement written by write_mapping_csv. A missing column, a
    row that is not three integers and a workload placed twice are
    configuration errors naming the file line."""
    assignment = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [k for k in _MAPPING_COLUMNS if k not in (reader.fieldnames or ())]
        if missing:
            raise ConfigurationError(f"{path}:1: no {', '.join(missing)} column in the header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if None in row or None in row.values():  # more or fewer fields than the header
                raise ConfigurationError(
                    f"{where}: expected the header's {len(reader.fieldnames)} fields")
            try:
                wid, x, y = (int(row[k]) for k in _MAPPING_COLUMNS)
            except ValueError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
            if wid in assignment:
                raise ConfigurationError(f"{where}: workload {wid} is placed twice")
            assignment[wid] = Coord(x, y)
    return Mapping(grid, assignment)
