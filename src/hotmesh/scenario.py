"""Scenario files: one INI-style file describes one run.

Sections and keys (units are part of the key names):

[grid]      nx, ny, cell_area_mm2
[profile]   kind, idle_power_w
  warm_band:      base_power_w, band_power_w, band_row
  center_hotspot: base_power_w, hot_power_w
  explicit:       workload_<id>_w (watts; one per active workload, 0 <= id < nx * ny)
[migration] fn, dx, dy, state_bits, e_bit_hop_j, downtime_fixed_us,
            t_bit_hop_s, detailed_timing
[thermal]   k_si_w_per_m_k, c_v_j_per_m3_k, die_thickness_mm,
            r_vertical_k_per_w, r_sink_k_per_w, c_sink_j_per_k, ambient_c
[sim]       period_us, duration_us, dt_us, warmup_us, seed, placement,
            deposit_migration_energy, anneal_iterations, anneal_t_start,
            anneal_t_end

[profile] also takes the keys on the line of its kind. fn is a function
tag such as rotation or translate_xy:1:1, whose offsets dx and dy
override. placement is identity or auto (annealed); seed and the anneal_*
keys set the placement annealer. Only [grid] and [profile] are mandatory;
an omitted key keeps the default of the dataclass it sets. A section or
key outside this table is an error.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
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
    thermally-aware annealed placement, whose schedule and seed anneal
    holds. Statistics are collected after the warm-up window (default: the
    second half of the run), so both the migrated and the baseline run
    have settled before being compared. A scenario file sets these fields
    through load_scenario; a key it omits keeps the default stated here.
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
    anneal: AnnealConfig = field(default_factory=AnnealConfig)

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
        if self.period < self.dt and self.migration_fn.kind != "identity":
            raise ConfigurationError(
                f"the migration period of {self.period * 1e6:g} us is shorter than "
                f"the time step dt of {self.dt * 1e6:g} us")
        # sim_duration is finite here, so this also rejects a nan or inf warmup
        if not 0 <= self.effective_warmup < self.sim_duration:
            raise ConfigurationError("warmup must lie inside the simulated interval")
        if isinstance(self.initial_mapping, str):
            if self.initial_mapping not in ("identity", "auto"):
                section, key = _key("cfg", "initial_mapping")
                raise ConfigurationError(
                    f"initial_mapping ([{section}] {key}) must be a Mapping, 'identity', "
                    f"or 'auto', got {self.initial_mapping!r}")
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
                keys = " and ".join("[{}] {}".format(*_key(*f)) for f in _SCALAR_FIELDS[name])
                raise ConfigurationError(
                    f"the thermal network's {name} = {value}, derived from {keys}, "
                    f"is outside (0, inf)")


# The (object, field) of _KEYS each of thermal.network_scalars derives from.
_SCALAR_FIELDS = {
    "g_lat": (("thermal", "k_si"), ("thermal", "die_thickness")),
    "g_vert": (("thermal", "r_vertical"),),
    "g_amb": (("thermal", "r_sink"),),
    "c_b": (("thermal", "c_v"), ("thermal", "die_thickness"), ("grid", "cell_area")),
    "c_s": (("thermal", "c_sink"),),
}


def _us(value: str) -> float:
    return float(value) * 1e-6


def _mm(value: str) -> float:
    return float(value) * 1e-3


def _bool(value: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {value}") from None


# Every scenario key: (section, key) -> (the object it sets, that object's
# field, how the file's value converts to it). An omitted key is not
# passed, so the object keeps its dataclass default; "fn" is parse_function.
_KEYS = {
    ("grid", "nx"): ("grid", "nx", int),
    ("grid", "ny"): ("grid", "ny", int),
    ("grid", "cell_area_mm2"): ("grid", "cell_area", float),
    ("profile", "kind"): ("profile", "kind", str),
    ("profile", "idle_power_w"): ("profile", "idle_power", float),
    ("migration", "fn"): ("fn", "tag", str),
    ("migration", "dx"): ("fn", "dx", int),
    ("migration", "dy"): ("fn", "dy", int),
    ("migration", "state_bits"): ("cost", "state_bits", float),
    ("migration", "e_bit_hop_j"): ("cost", "e_bit_hop", float),
    ("migration", "downtime_fixed_us"): ("cost", "downtime_fixed", _us),
    ("migration", "t_bit_hop_s"): ("cost", "t_bit_hop", float),
    ("migration", "detailed_timing"): ("cost", "detailed_timing", _bool),
    ("thermal", "k_si_w_per_m_k"): ("thermal", "k_si", float),
    ("thermal", "c_v_j_per_m3_k"): ("thermal", "c_v", float),
    ("thermal", "die_thickness_mm"): ("thermal", "die_thickness", _mm),
    ("thermal", "r_vertical_k_per_w"): ("thermal", "r_vertical", float),
    ("thermal", "r_sink_k_per_w"): ("thermal", "r_sink", float),
    ("thermal", "c_sink_j_per_k"): ("thermal", "c_sink", float),
    ("thermal", "ambient_c"): ("thermal", "ambient", float),
    ("sim", "period_us"): ("cfg", "period", _us),
    ("sim", "duration_us"): ("cfg", "sim_duration", _us),
    ("sim", "dt_us"): ("cfg", "dt", _us),
    ("sim", "warmup_us"): ("cfg", "warmup", _us),
    ("sim", "placement"): ("cfg", "initial_mapping", str),
    ("sim", "deposit_migration_energy"): ("cfg", "deposit_migration_energy", _bool),
    ("sim", "seed"): ("anneal", "seed", int),
    ("sim", "anneal_iterations"): ("anneal", "iterations", int),
    ("sim", "anneal_t_start"): ("anneal", "t_start", float),
    ("sim", "anneal_t_end"): ("anneal", "t_end", float),
}
# Each profile kind: its generator and the [profile] keys it requires, in
# the order of its arguments. explicit takes workload_<id>_w keys instead.
_PROFILES = {
    "warm_band": (generate_warm_band,
                  {"base_power_w": float, "band_power_w": float, "band_row": int}),
    "center_hotspot": (generate_center_hotspot, {"base_power_w": float, "hot_power_w": float}),
    "explicit": (None, {}),
}
_WORKLOAD_KEY = re.compile(r"workload_(\d+)_w")


def _key(target: str, name: str) -> tuple[str, str]:
    """The (section, key) of _KEYS that sets the field name of target."""
    return next(sk for sk, (t, n, _) in _KEYS.items() if (t, n) == (target, name))


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate one scenario file."""
    # no section name is empty, so [DEFAULT] is an ordinary (unknown) section
    # instead of keys that every section would inherit
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        if not parser.read(path):
            raise ConfigurationError(f"cannot read scenario file {path}")
        cfg = _build(parser, Path(path).stem)
    except (configparser.Error, ValueError) as exc:  # a parse error may span lines
        raise ConfigurationError(f"{path}: {exc}".replace("\n", " ")) from None
    cfg.validate()
    return cfg


def _need(given: dict, target: str, name: str):
    """Take the field name of target from given, which the file must set."""
    if name not in given[target]:
        section, key = _key(target, name)
        raise ConfigurationError(f"[{section}] is missing key {key!r}")
    return given[target].pop(name)


def _make(cls, given: dict, target: str):
    """cls from the fields the file sets; each field without a default must be set."""
    required = {f.name: _need(given, target, f.name) for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    return cls(**required, **given[target])


def _build(p: configparser.ConfigParser, name: str) -> ScenarioConfig:
    # a misspelled section or key would otherwise fall back to a default silently
    sections = {section for section, _ in _KEYS}
    given = {target: {} for target, _, _ in _KEYS.values()}
    kind_keys = {}  # the [profile] keys of its kind: _profile
    for section in p.sections():
        if section not in sections:
            raise ConfigurationError(f"scenario has unknown section [{section}]")
        for key, value in p[section].items():
            if (section, key) in _KEYS:
                target, field_name, convert = _KEYS[section, key]
                given[target][field_name] = convert(value)
            elif section == "profile":
                kind_keys[key] = value
            else:
                raise ConfigurationError(f"[{section}] has unknown key {key!r}")

    grid = _make(GridSpec, given, "grid")
    profile, mapping = _profile(grid, given, kind_keys)
    if given["fn"]:  # dx and dy qualify the tag of fn
        given["cfg"]["migration_fn"] = parse_function(_need(given, "fn", "tag"), **given["fn"])
    cfg = ScenarioConfig(name=name, grid=grid, profile=profile,
                         thermal=_make(ThermalParams, given, "thermal"),
                         cost=_make(MigrationCostParams, given, "cost"),
                         anneal=_make(AnnealConfig, given, "anneal"), **given["cfg"])
    # the identity placement is the one the profile comes with
    return replace(cfg, initial_mapping=mapping) if cfg.initial_mapping == "identity" else cfg


def _profile(grid: GridSpec, given: dict, kind_keys: dict) -> tuple[PowerProfile, Mapping]:
    kind = _need(given, "profile", "kind")
    if kind not in _PROFILES:
        raise ConfigurationError(f"unknown profile kind {kind!r}")
    generate, keys = _PROFILES[kind]
    for key in kind_keys:
        if key not in keys and not (generate is None and _WORKLOAD_KEY.fullmatch(key)):
            raise ConfigurationError(f"[profile] has unknown key {key!r}")
    if generate is None:
        powers, named = {}, {}  # workload id -> power, and the key that gave it
        for key, value in kind_keys.items():
            wid = int(_WORKLOAD_KEY.fullmatch(key).group(1))
            if wid in named:
                raise ConfigurationError(
                    f"[profile] keys {named[wid]!r} and {key!r} both name workload {wid}")
            named[wid], powers[wid] = key, float(value)
        if not powers:
            raise ConfigurationError("explicit profile lists no workload_<id>_w keys")
        profile, mapping = PowerProfile(powers), identity_mapping(grid)
    else:
        for key in keys:
            if key not in kind_keys:
                raise ConfigurationError(f"[profile] is missing key {key!r}")
        profile, mapping = generate(grid, *(convert(kind_keys[key])
                                            for key, convert in keys.items()))
    return PowerProfile(profile.workload_power, **given["profile"]), mapping
