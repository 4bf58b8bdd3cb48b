"""Correctness gate: every operation the benchmark runs is also checked.

An operation (a run or a sweep cell) fails if it raised, produced an error
row, or broke one of these checks:

- every RunSummary value is finite;
- peak_reduction equals the baseline peak minus the migrated peak;
- migration_count equals the number of k * period instants strictly inside
  the run (none when the function moves nothing);
- energy equals the event count times plan().energy, and the throughput
  penalty equals plan().downtime / period;
- with identity placement, the baseline peak equals the steady-state peak
  of the initial placement;
- where reference values apply (the inputs at the default seed), every
  field matches them: temperatures within TEMP_TOL, counts exactly,
  other values within REL_TOL relative;
- the CSV files it wrote are byte-identical to the first repetition's.

The simulated values are checks only. They are not accuracy figures: the
repository holds no measured chip temperatures.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import hotmesh

TEMP_TOL = 1e-9   # deg C
REL_TOL = 1e-9
TEMP_FIELDS = ("peak_overall", "peak_static_baseline", "peak_reduction",
               "time_avg_mean_temp", "max_spatial_spread")
COUNT_FIELDS = ("migration_count",)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference summaries by operation label, or None if they do not apply.

    A workload whose inputs do not depend on the seed stores "seed": null
    and its reference applies at every seed.
    """
    ref = json.loads(REFERENCE_PATH.read_text())[workload]
    return ref["ops"] if ref["seed"] in (None, seed) else None


def events_inside(duration: float, period: float) -> int:
    """Number of k >= 1 with k * period strictly inside (0, duration)."""
    q = duration / period
    k = round(q)
    return k - 1 if abs(q - k) <= 1e-9 * q else math.floor(q)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Gate:
    """Tally of attempted and failed operations across repetitions."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._expect: dict[str, tuple] = {}
        self._digests: dict[str, str] = {}

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def check_rep(self, rep) -> None:
        """Count every operation of one repetition, failing those that break a check."""
        changed = {name for name, d in rep.digests.items()
                   if self._digests.setdefault(name, d) != d}
        for o in rep.outcomes:
            problems = self.check(o)
            problems += [f"{name} differs from the first repetition"
                         for name in o.outputs if name in changed]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{o.label}: " + "; ".join(problems))

    def check(self, o) -> list[str]:
        """Problems with one operation's outcome; empty if it passes."""
        if o.error is not None or o.summary is None:
            return [o.error or "no summary"]
        s = o.summary
        values = asdict(s)
        problems = [f"{k} = {v!r} is not finite" for k, v in values.items()
                    if isinstance(v, (int, float)) and not math.isfinite(v)]
        if problems:
            return problems
        if abs(s.peak_reduction - (s.peak_static_baseline - s.peak_overall)) > TEMP_TOL:
            problems.append("peak_reduction != baseline peak - migrated peak")
        events, energy, penalty, base_peak = self._expected(o.label, o.cfg)
        if s.migration_count != events:
            problems.append(f"migration_count {s.migration_count} != {events} events")
        if not _close(s.total_migration_energy, energy):
            problems.append(f"energy {s.total_migration_energy!r} != {energy!r}")
        if not _close(s.throughput_penalty, penalty):
            problems.append(f"penalty {s.throughput_penalty!r} != {penalty!r}")
        if base_peak is not None and abs(s.peak_static_baseline - base_peak) > TEMP_TOL:
            problems.append(f"baseline peak {s.peak_static_baseline!r} != "
                            f"steady-state peak {base_peak!r}")
        ref = (self.reference or {}).get(o.label)
        if self.reference is not None and ref is None:
            problems.append("no reference values for this operation")
        for k, want in (ref or {}).items():
            got = values.get(k)
            if got is None:
                ok = False
            elif k in COUNT_FIELDS:
                ok = got == want
            elif k in TEMP_FIELDS:
                ok = abs(got - want) <= TEMP_TOL
            else:
                ok = _close(got, want)
            if not ok:
                problems.append(f"{k} = {got!r}, reference {want!r}")
        return problems

    def _expected(self, label: str, cfg) -> tuple:
        """(events, energy, penalty, baseline peak or None) implied by the config."""
        if label not in self._expect:
            events = energy = penalty = 0
            if cfg.migration_fn.kind != "identity":
                p = hotmesh.plan(cfg.migration_fn, cfg.grid, cfg.cost)
                if p.total_hops > 0:
                    events = events_inside(cfg.sim_duration, cfg.period)
                    energy = events * p.energy
                    penalty = p.downtime / cfg.period
            base_peak = None
            if cfg.initial_mapping != "auto":
                mapping = (hotmesh.identity_mapping(cfg.grid)
                           if cfg.initial_mapping == "identity" else cfg.initial_mapping)
                net = hotmesh.build_network(cfg.grid, cfg.thermal)
                base_peak = hotmesh.peak(hotmesh.steady_state(
                    net, hotmesh.power_vector(mapping, cfg.profile)))
            self._expect[label] = (events, energy, penalty, base_peak)
        return self._expect[label]
