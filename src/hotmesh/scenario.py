"""Scenario files: one INI-style file describes one run.

Sections and keys (units are part of the key names):

[grid]      nx, ny, cell_area_mm2
[profile]   kind = warm_band | center_hotspot | explicit
            warm_band:      base_power_w, band_power_w, band_row
            center_hotspot: base_power_w, hot_power_w
            explicit:       workload_<id>_w = <watts> per active workload,
                            0 <= id < nx * ny
            idle_power_w    optional for every kind
[migration] fn (tag, e.g. rotation or translate_xy:1:1), dx, dy,
            state_bits, e_bit_hop_j, downtime_fixed_us, t_bit_hop_s,
            detailed_timing
[thermal]   k_si_w_per_m_k, c_v_j_per_m3_k, die_thickness_mm,
            r_vertical_k_per_w, r_sink_k_per_w, c_sink_j_per_k, ambient_c
[sim]       period_us, duration_us, dt_us, warmup_us, seed,
            placement = identity | auto, deposit_migration_energy,
            anneal_iterations, anneal_t_start, anneal_t_end

Only [grid] and [profile] are mandatory; every other key falls back to the
library defaults. A section or key outside this table is an error.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError
from .grid import (GridSpec, Mapping, PowerProfile, generate_center_hotspot,
                   generate_warm_band, identity_mapping)
from .migration import MigrationCostParams
from .placement import AnnealConfig
from .thermal import ThermalParams, network_scalars
from .transforms import IDENTITY, MigrationFunction, as_permutation, parse_function


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs; immutable so sweeps can fork it freely.

    initial_mapping is a Mapping, or "identity", or "auto" for a
    thermally-aware annealed placement. Statistics are collected after the
    warm-up window (default: the second half of the run), so both the
    migrated and the baseline run have settled before being compared.
    """

    name: str
    grid: GridSpec
    profile: PowerProfile
    initial_mapping: Mapping | str = "identity"
    migration_fn: MigrationFunction = IDENTITY
    period: float = 109e-6
    sim_duration: float = 32.7e-3
    dt: float = 1e-6
    warmup: float | None = None
    thermal: ThermalParams = field(default_factory=ThermalParams)
    cost: MigrationCostParams = field(default_factory=MigrationCostParams)
    deposit_migration_energy: bool = True
    anneal: AnnealConfig | None = None
    seed: int = 0

    @property
    def annealing(self) -> AnnealConfig:
        """The placement's schedule: anneal, by default AnnealConfig(seed=seed)."""
        return self.anneal if self.anneal is not None else AnnealConfig(seed=self.seed)

    @property
    def effective_warmup(self) -> float:
        return self.sim_duration / 2 if self.warmup is None else self.warmup

    def validate(self) -> None:
        for name in ("period", "sim_duration", "dt"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if self.sim_duration < self.period and self.migration_fn.kind != "identity":
            raise ConfigurationError(
                "sim_duration is shorter than one migration period; "
                "use fn = identity to disable migration")
        # sim_duration is finite here, so this also rejects a nan or inf warmup
        if not 0 <= self.effective_warmup < self.sim_duration:
            raise ConfigurationError("warmup must lie inside the simulated interval")
        if isinstance(self.initial_mapping, str):
            if self.initial_mapping not in ("identity", "auto"):
                raise ConfigurationError(
                    f"initial_mapping must be a Mapping, 'identity', or 'auto', "
                    f"got {self.initial_mapping!r}")
        elif self.initial_mapping.grid != self.grid:
            raise ConfigurationError("initial mapping belongs to a different mesh")
        placed = (range(self.grid.n_cells) if isinstance(self.initial_mapping, str)
                  else set(self.initial_mapping.workloads.tolist()))
        unplaced = sorted(w for w in self.profile.workload_power if w not in placed)
        if unplaced:
            raise ConfigurationError(
                f"workloads {unplaced} have a power entry but no PE on the "
                f"{self.grid.nx}x{self.grid.ny} mesh")
        # raises if the function is invalid on this mesh (e.g. rotation, non-square)
        as_permutation(self.migration_fn, self.grid)
        for name, value in network_scalars(self.grid, self.thermal).items():
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{_SCALAR_KEYS[name]} gives the thermal network {name} = {value}, "
                    f"outside (0, inf)")


# The scenario keys each network scalar of thermal.network_scalars is derived from.
_SCALAR_KEYS = {
    "g_lat": "[thermal] k_si_w_per_m_k * die_thickness_mm",
    "g_vert": "1 / [thermal] r_vertical_k_per_w",
    "g_amb": "1 / [thermal] r_sink_k_per_w",
    "c_b": "[thermal] c_v_j_per_m3_k * die_thickness_mm * [grid] cell_area_mm2",
    "c_s": "[thermal] c_sink_j_per_k",
}
# The keys of each section, as the table in the module docstring lists
# them; [profile] also takes the keys of its kind.
_SECTION_KEYS = {
    "grid": "nx ny cell_area_mm2",
    "profile": "kind idle_power_w",
    "migration": "fn dx dy state_bits e_bit_hop_j downtime_fixed_us t_bit_hop_s detailed_timing",
    "thermal": "k_si_w_per_m_k c_v_j_per_m3_k die_thickness_mm r_vertical_k_per_w "
               "r_sink_k_per_w c_sink_j_per_k ambient_c",
    "sim": "period_us duration_us dt_us warmup_us seed placement deposit_migration_energy "
           "anneal_iterations anneal_t_start anneal_t_end",
}
_PROFILE_KEYS = {"warm_band": "base_power_w band_power_w band_row",
                 "center_hotspot": "base_power_w hot_power_w",
                 "explicit": ""}  # and workload_<id>_w
_WORKLOAD_KEY = re.compile(r"workload_(\d+)_w")
_DEF_COST = MigrationCostParams()
_DEF_THERMAL = ThermalParams()
_DEF_ANNEAL = AnnealConfig()


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate one scenario file."""
    # no section name is empty, so [DEFAULT] is an ordinary (unknown) section
    # instead of keys that every section would inherit
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    if not parser.read(path):
        raise ConfigurationError(f"cannot read scenario file {path}")
    try:
        cfg = _build(parser, Path(path).stem)
    except (configparser.Error, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    cfg.validate()
    return cfg


def _need(section, key: str, getter):
    if key not in section:
        raise ConfigurationError(f"[{section.name}] is missing key {key!r}")
    return getter(key)


def _reject_unknown_keys(section, allowed: str, pattern=None) -> None:
    for key in section:
        if key not in allowed.split() and not (pattern and pattern.fullmatch(key)):
            raise ConfigurationError(f"[{section.name}] has unknown key {key!r}")


def _build(p: configparser.ConfigParser, name: str) -> ScenarioConfig:
    # a misspelled section or key would otherwise fall back to a default silently
    for section in p.sections():
        if section not in _SECTION_KEYS:
            raise ConfigurationError(f"scenario has unknown section [{section}]")
        if section != "profile":  # its keys depend on its kind: _parse_profile
            _reject_unknown_keys(p[section], _SECTION_KEYS[section])
    for required in ("grid", "profile"):
        if not p.has_section(required):
            raise ConfigurationError(f"scenario needs a [{required}] section")

    g = p["grid"]
    grid = GridSpec(nx=_need(g, "nx", g.getint), ny=_need(g, "ny", g.getint),
                    cell_area=g.getfloat("cell_area_mm2", fallback=4.36))

    profile, mapping = _parse_profile(p["profile"], grid)

    fn = IDENTITY
    cost = _DEF_COST
    if p.has_section("migration"):
        m = p["migration"]
        fn = parse_function(m.get("fn", fallback="identity"),
                            dx=m.getint("dx", fallback=None),
                            dy=m.getint("dy", fallback=None))
        cost = MigrationCostParams(
            state_bits=m.getfloat("state_bits", fallback=_DEF_COST.state_bits),
            e_bit_hop=m.getfloat("e_bit_hop_j", fallback=_DEF_COST.e_bit_hop),
            downtime_fixed=m.getfloat(
                "downtime_fixed_us", fallback=_DEF_COST.downtime_fixed * 1e6) * 1e-6,
            t_bit_hop=m.getfloat("t_bit_hop_s", fallback=_DEF_COST.t_bit_hop),
            detailed_timing=m.getboolean("detailed_timing", fallback=False),
        )

    thermal = _DEF_THERMAL
    if p.has_section("thermal"):
        t = p["thermal"]
        thermal = ThermalParams(
            k_si=t.getfloat("k_si_w_per_m_k", fallback=_DEF_THERMAL.k_si),
            c_v=t.getfloat("c_v_j_per_m3_k", fallback=_DEF_THERMAL.c_v),
            die_thickness=t.getfloat(
                "die_thickness_mm", fallback=_DEF_THERMAL.die_thickness * 1e3) * 1e-3,
            r_vertical=t.getfloat("r_vertical_k_per_w", fallback=_DEF_THERMAL.r_vertical),
            r_sink=t.getfloat("r_sink_k_per_w", fallback=_DEF_THERMAL.r_sink),
            c_sink=t.getfloat("c_sink_j_per_k", fallback=_DEF_THERMAL.c_sink),
            ambient=t.getfloat("ambient_c", fallback=_DEF_THERMAL.ambient),
        )

    period = 109e-6
    duration = 32.7e-3
    dt = 1e-6
    warmup = None
    seed = 0
    placement = "identity"
    deposit = True
    anneal = None
    if p.has_section("sim"):
        s = p["sim"]
        period = s.getfloat("period_us", fallback=109.0) * 1e-6
        duration = s.getfloat("duration_us", fallback=32700.0) * 1e-6
        dt = s.getfloat("dt_us", fallback=1.0) * 1e-6
        warmup_us = s.getfloat("warmup_us", fallback=None)
        warmup = None if warmup_us is None else warmup_us * 1e-6
        seed = s.getint("seed", fallback=0)
        placement = s.get("placement", fallback="identity")
        deposit = s.getboolean("deposit_migration_energy", fallback=True)
        anneal = AnnealConfig(
            iterations=s.getint("anneal_iterations", fallback=_DEF_ANNEAL.iterations),
            t_start=s.getfloat("anneal_t_start", fallback=_DEF_ANNEAL.t_start),
            t_end=s.getfloat("anneal_t_end", fallback=_DEF_ANNEAL.t_end),
            seed=seed,
        )

    if placement == "identity":
        initial: Mapping | str = mapping
    elif placement == "auto":
        initial = "auto"
    else:
        raise ConfigurationError(f"[sim] placement must be identity or auto, got {placement!r}")

    return ScenarioConfig(name=name, grid=grid, profile=profile,
                          initial_mapping=initial, migration_fn=fn,
                          period=period, sim_duration=duration, dt=dt,
                          warmup=warmup, thermal=thermal, cost=cost,
                          deposit_migration_energy=deposit, anneal=anneal,
                          seed=seed)


def _parse_profile(s, grid: GridSpec) -> tuple[PowerProfile, Mapping]:
    kind = _need(s, "kind", s.get)
    if kind not in _PROFILE_KEYS:
        raise ConfigurationError(f"unknown profile kind {kind!r}")
    _reject_unknown_keys(s, f"{_SECTION_KEYS['profile']} {_PROFILE_KEYS[kind]}",
                         _WORKLOAD_KEY if kind == "explicit" else None)
    idle = s.getfloat("idle_power_w", fallback=None)
    if kind == "warm_band":
        profile, mapping = generate_warm_band(
            grid, _need(s, "base_power_w", s.getfloat),
            _need(s, "band_power_w", s.getfloat), _need(s, "band_row", s.getint))
    elif kind == "center_hotspot":
        profile, mapping = generate_center_hotspot(
            grid, _need(s, "base_power_w", s.getfloat),
            _need(s, "hot_power_w", s.getfloat))
    else:  # explicit
        powers = {}
        for key, value in s.items():
            m = _WORKLOAD_KEY.fullmatch(key)
            if m:
                powers[int(m.group(1))] = float(value)
        if not powers:
            raise ConfigurationError("explicit profile lists no workload_<id>_w keys")
        return PowerProfile(powers, idle), identity_mapping(grid)
    if idle is not None:
        profile = PowerProfile(profile.workload_power, idle)
    return profile, mapping
