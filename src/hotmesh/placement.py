"""Thermally-aware static placement: simulated annealing over pairwise swaps.

The objective is the steady-state peak block temperature. Steady state is
linear, so the block temperatures are T - T_amb = R p, where R holds the
block rows and columns of G^-1, read off the modal basis without a solve
(see :mod:`hotmesh.thermal`). anneal() computes R once and keeps the
placement as a block index per workload plus the power vector it induces:
a swap exchanges two entries of each, and a move costs one matvec instead
of a solve. The same p gives the same R p, so equal-power swaps stay exact
ties. A sweep anneals once and hands the placement to every cell.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Coord, GridSpec, Mapping, PowerProfile, identity_mapping, power_vector
from .thermal import ThermalNetwork, peak, steady_state


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule: geometric cooling from t_start down to t_end."""

    iterations: int = 20000
    t_start: float = 1.0
    t_end: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if not math.inf > self.t_start > self.t_end > 0:
            raise ConfigurationError("annealing temperatures need inf > t_start > t_end > 0")


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


def _block_response(net: ThermalNetwork) -> np.ndarray:
    """R with T_blocks - T_amb = R p: row i of the product is steady_state()
    of one watt on block i, so R[j, i] is block j's rise per watt on block i."""
    n, m = net.n_blocks, net.modes
    return ((m.to_modal[:n] / net.c_b / m.mu) @ m.from_modal[:, :n]).T


def anneal(profile: PowerProfile, grid: GridSpec, net: ThermalNetwork,
           cfg: AnnealConfig) -> PlacementResult:
    """Anneal pairwise workload swaps starting from the identity placement."""
    if net.grid != grid:
        raise ConfigurationError("thermal network was built for a different mesh")
    rng = random.Random(cfg.seed)
    ids = list(range(grid.n_cells))
    block = np.arange(grid.n_cells)  # workload id -> block index
    power = power_vector(identity_mapping(grid), profile)
    best = block.copy()
    if len(ids) >= 2:
        response = _block_response(net)
        cur_obj = best_obj = float(np.max(response @ power)) + net.ambient
        cooling = (cfg.t_end / cfg.t_start) ** (1.0 / max(cfg.iterations - 1, 1))
        temp = cfg.t_start
        for _ in range(cfg.iterations):
            a, b = rng.sample(ids, 2)
            i, j = block[a], block[b]
            block[a], block[b] = j, i
            power[i], power[j] = power[j], power[i]
            obj = float(np.max(response @ power)) + net.ambient
            delta = obj - cur_obj
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                cur_obj = obj
                if obj < best_obj:
                    best_obj = obj
                    best = block.copy()
            else:
                block[a], block[b] = i, j
                power[i], power[j] = power[j], power[i]
            temp *= cooling
    mapping = Mapping(grid, {w: grid.coord(int(i)) for w, i in enumerate(best)})
    return PlacementResult(mapping=mapping, peak_c=evaluate(mapping, profile, net))


def place(profile: PowerProfile, grid: GridSpec, net: ThermalNetwork,
          cfg: AnnealConfig) -> Mapping:
    """Placement minimizing steady-state peak temperature; never worse than identity."""
    return anneal(profile, grid, net, cfg).mapping


def write_mapping_csv(mapping: Mapping, path) -> None:
    """CSV rows: workload_id,x,y."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["workload_id", "x", "y"])
        for wid in sorted(mapping.assignment):
            c = mapping.assignment[wid]
            w.writerow([wid, c.x, c.y])


def read_mapping_csv(path, grid: GridSpec) -> Mapping:
    """Load a placement written by write_mapping_csv."""
    assignment = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            assignment[int(row["workload_id"])] = Coord(int(row["x"]), int(row["y"]))
    return Mapping(grid, assignment)
