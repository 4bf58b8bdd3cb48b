"""Thermal hotspot mitigation on mesh NoCs via periodic workload migration.

A deterministic desk-scale simulator: a compact RC thermal model of a mesh
of PE blocks, rigid plane transforms (rotation, mirroring, wrapped
translation) as migration functions, congestion-free phase scheduling of
the state transfers under XY routing, a simulated-annealing placement
baseline, and a scenario harness that compares migrated runs against a
static baseline.
"""

from .errors import (BoundsError, ConfigurationError, HotmeshError, ModelError,
                     UnsupportedFunctionError)
from .grid import (Coord, GridSpec, Mapping, PowerProfile, generate_center_hotspot,
                   generate_warm_band, identity_mapping, idle_vector, make_grid,
                   power_vector)
from .migration import (MigrationCostParams, MigrationPlan, Transfer, execute,
                        format_plan, migration_downtime, migration_energy, plan,
                        xy_route)
from .placement import (AnnealConfig, PlacementResult, anneal, evaluate, place,
                        read_mapping_csv, write_mapping_csv)
from .scenario import ScenarioConfig, load_scenario
from .sim import RunSummary, SweepCell, Trace, format_run, report, run, summarize, sweep
from .thermal import (ThermalNetwork, ThermalParams, ThermalState, TransientSolver,
                      build_network, peak, spatial_spread, steady_state,
                      write_trace_csv)
from .transforms import (IDENTITY, MIRROR_X, MIRROR_XY, MIRROR_Y, ROTATION,
                         CumulativeTransform, MigrationFunction, Permutation, apply,
                         as_permutation, compose, external_address, fixed_points,
                         internal_address, parse_function, translate_x, translate_xy,
                         translate_y)

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig", "BoundsError", "ConfigurationError", "Coord",
    "CumulativeTransform", "GridSpec", "HotmeshError", "IDENTITY", "MIRROR_X",
    "MIRROR_XY", "MIRROR_Y", "Mapping", "MigrationCostParams", "MigrationFunction",
    "MigrationPlan", "ModelError", "Permutation", "PlacementResult", "PowerProfile",
    "ROTATION", "RunSummary", "ScenarioConfig", "SweepCell", "ThermalNetwork",
    "ThermalParams", "ThermalState", "Trace", "Transfer", "TransientSolver",
    "UnsupportedFunctionError", "anneal", "apply", "as_permutation", "build_network",
    "compose", "evaluate", "execute", "external_address", "fixed_points",
    "format_plan", "format_run", "generate_center_hotspot", "generate_warm_band",
    "identity_mapping", "idle_vector", "internal_address", "load_scenario",
    "make_grid", "migration_downtime", "migration_energy", "peak", "place", "plan",
    "parse_function", "power_vector", "read_mapping_csv", "report", "run",
    "spatial_spread", "steady_state", "summarize", "sweep",
    "translate_x", "translate_xy", "translate_y", "write_mapping_csv",
    "write_trace_csv",
]
