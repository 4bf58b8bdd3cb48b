"""Command-line interface: run, sweep, plan, and place subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import HotmeshError
from .grid import identity_mapping, make_grid
from .migration import MigrationCostParams, format_plan, plan
from .placement import AnnealConfig, anneal, evaluate, write_mapping_csv
from .scenario import ScenarioConfig, load_scenario
from .sim import SweepCell, format_run, report, run, sweep
from .thermal import build_network, write_trace_csv
from .transforms import parse_function


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HotmeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotmesh",
        description="Mesh-NoC thermal simulator with periodic workload migration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("scenario", type=Path)
    _common(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="also write the full temperature trace CSV")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a functions x periods cross product")
    p_sweep.add_argument("scenario", type=Path)
    p_sweep.add_argument("--functions", nargs="+", required=True, metavar="FN",
                         help="function tags, e.g. rotation mirror_xy translate_xy:1:1")
    p_sweep.add_argument("--periods-us", nargs="+", required=True, type=float,
                         metavar="US", help="migration periods in microseconds")
    _common(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_plan = sub.add_parser("plan", help="print the phase schedule of a migration")
    p_plan.add_argument("fn", help="function tag, e.g. rotation or translate_x:2")
    p_plan.add_argument("nx", type=int)
    p_plan.add_argument("ny", type=int)
    p_plan.add_argument("--dx", type=int, default=None)
    p_plan.add_argument("--dy", type=int, default=None)
    p_plan.set_defaults(handler=_cmd_plan)

    p_place = sub.add_parser("place", help="thermally-aware placement for a scenario")
    p_place.add_argument("scenario", type=Path)
    _common(p_place)
    p_place.set_defaults(handler=_cmd_place)
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory for CSV files (default: out)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")


def _load(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        anneal = replace(cfg.anneal, seed=args.seed) if cfg.anneal is not None else None
        cfg = replace(cfg, seed=args.seed, anneal=anneal)
    return cfg


def _ensure_out(args) -> Path:
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise HotmeshError(f"cannot create output directory {args.out}: {exc}") from None
    return args.out


def _cmd_run(args) -> int:
    cfg = _load(args)
    summary, trace = run(cfg)
    out = _ensure_out(args)
    report([SweepCell(cfg.name, cfg.migration_fn, cfg.period, summary, None)],
           out / "summary.csv")
    print(format_run(cfg, summary))
    written = [out / "summary.csv"]
    if args.trace:
        write_trace_csv(trace.times, trace.temps, out / "trace.csv")
        written.append(out / "trace.csv")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    functions = [parse_function(tag) for tag in args.functions]
    periods = [us * 1e-6 for us in args.periods_us]
    rows = sweep(cfg, functions, periods)
    out = _ensure_out(args)
    text = report(rows, out / "sweep.csv")
    print(text)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def _cmd_plan(args) -> int:
    grid = make_grid(args.nx, args.ny)
    fn = parse_function(args.fn, dx=args.dx, dy=args.dy)
    p = plan(fn, grid, MigrationCostParams())
    schedule = format_plan(p)
    if schedule:
        print(schedule)
    print(f"# fn={fn.label()} phases={len(p.phases)} hops={p.total_hops} "
          f"energy_j={p.energy:.3e} downtime_s={p.downtime:.3e}")
    return 0


def _cmd_place(args) -> int:
    cfg = _load(args)
    net = build_network(cfg.grid, cfg.thermal)
    anneal_cfg = cfg.anneal if cfg.anneal is not None else AnnealConfig(seed=cfg.seed)
    result = anneal(cfg.profile, cfg.grid, net, anneal_cfg)
    out = _ensure_out(args)
    write_mapping_csv(result.mapping, out / "mapping.csv")
    before = evaluate(identity_mapping(cfg.grid), cfg.profile, net)
    print(f"peak {before:.3f} C with the identity placement, {result.peak_c:.3f} C annealed")
    print(f"wrote {out / 'mapping.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
