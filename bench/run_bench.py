"""hotmesh benchmark: host time of three workloads, end to end and per layer.

    python3 bench/run_bench.py --workload shipped --seed 1 --seconds 20 --trace 0

Run from any directory of a source checkout; hotmesh is imported from its
src/. With --trace 0 it repeats the workload untraced for --seconds and
reports the end-to-end metrics of BENCHMARK.json: wall_s (median host
seconds per repetition), setup_s (median host seconds for import hotmesh
plus load_scenario in a fresh interpreter) and peak_rss_mb. With --trace 1
it alternates untraced and traced repetitions for --seconds, then runs the
mesh-size ladder, and reports the per-layer metrics. Every operation is
checked (see gate.py); fail_frac = failed / attempted is printed and goes
into the result line as "failed" and "attempted".

A human-readable table comes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Details (the
environment stamp, quartiles, every layer quantity and the spans of the
last traced repetition) go to .bench_out/ in the checkout. Timings are
host time; simulated temperatures are used only as correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: steadier timings on a shared
# host, and the benchmark's one process stays within nproc cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import hotmesh  # noqa: E402
    import numpy  # noqa: E402
    import scipy  # noqa: E402

    import gate  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402
except ImportError as _exc:
    sys.exit(f"error: cannot import hotmesh from {SRC}: {_exc}")
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
MIN_REPS = 3
SETUP_REPEATS = 5
# Printed and kept in the detail file but not in the result line: they read
# exactly 0 on the workloads that bypass their layer.
EXTRA_LAYER = [("placement.anneal_s", "s"), ("placement.move_us", "us"),
               ("thermal.trace_csv_s", "s"), ("sim.sweep_s", "s")]

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hotmesh
for path in sys.argv[2:]:
    hotmesh.load_scenario(path)
print(time.perf_counter() - t0)
"""


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown"; git may not look above ROOT."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _stamp() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "processes": 1,
        "loadavg_before": os.getloadavg(),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _setup_times(inputs) -> list[float]:
    """Fresh-interpreter import hotmesh + load_scenario, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, inputs)],
                           capture_output=True, text=True, timeout=120, cwd=ROOT)
        if r.returncode != 0:
            raise RuntimeError(f"setup child failed: {r.stderr.strip()}")
        times.append(float(r.stdout.split()[-1]))
    return times


def _timed_reps(args, inputs, out, checks, traced: bool):
    """Repeat the workload for args.seconds: untraced, or alternating with traced.

    A new repetition starts only if one more of average length still ends
    within args.seconds. Checks run between repetitions, outside the timed
    and traced regions.
    """
    walls, traced_walls, layer_runs, tracer = [], [], [], None
    min_reps = 1 if traced else MIN_REPS
    start = time.perf_counter()
    while len(walls) < min_reps or (
            (time.perf_counter() - start) * (len(walls) + 1) / len(walls) <= args.seconds):
        t0 = time.perf_counter()
        rep = workloads.run_rep(args.workload, inputs, out, tracing.plain_call)
        walls.append(time.perf_counter() - t0)
        checks.check_rep(rep)
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                rep = workloads.run_rep(args.workload, inputs, out, tracer.call)
                traced_walls.append(time.perf_counter() - t0)
            checks.check_rep(rep)
            layer_runs.append(tracing.layer_values(tracer.spans))
    return walls, traced_walls, layer_runs, tracer


def _metric(value, unit):
    if unit == "count":
        value = int(round(value))
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec)
    if SRC not in Path(hotmesh.__file__).resolve().parents:
        print(f"error: hotmesh was imported from {hotmesh.__file__}, not {SRC}", file=sys.stderr)
        return 2

    stamp = _stamp()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checks = gate.Gate(gate.load_reference(args.workload, args.seed))
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": stamp}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        inputs = workloads.make_inputs(args.workload, args.seed, tmp)
        for path in inputs:
            if not path.is_file():
                print(f"error: missing scenario file {path}", file=sys.stderr)
                return 2
        setup = [] if args.trace else _setup_times(inputs)
        walls, traced_walls, layer_runs, tracer = _timed_reps(
            args, inputs, tmp / "out", checks, traced=bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            ladder, ladder_absent = tracing.ladder(tmp)
    stamp["loadavg_after"] = os.getloadavg()

    rows = []  # (name, value, q1, q3, n, unit)
    if not args.trace:
        for name, values, unit in (("wall_s", walls, "s"), ("setup_s", setup, "s")):
            rows.append((name, statistics.median(values), *_quartiles(values), len(values), unit))
        rows.append(("peak_rss_mb", rss_mb, rss_mb, rss_mb, 1, "MB"))
        wanted = spec["end_to_end"]
    else:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers.update(ladder)
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        layers["trace.overhead_s"] = traced - untraced
        detail.update(layers=layers, absent=tracer.absent + ladder_absent,
                      per_op=tracing.per_op_counts(tracer.spans))
        for name, unit in [(m["name"], m["unit"]) for m in spec["per_layer"]] + EXTRA_LAYER:
            rows.append((name, layers[name], None, None, len(layer_runs), unit))
        wanted = spec["per_layer"]
        tracer.dump(OUT / f"{tag}-spans.json")
    by_name = {r[0]: r for r in rows}
    metrics = {m["name"]: _metric(by_name[m["name"]][1], m["unit"]) for m in wanted}

    correct = checks.failed == 0 and checks.attempted > 0
    detail.update(metrics={r[0]: dict(zip(("median", "q1", "q3", "n", "unit"), r[1:]))
                           for r in rows},
                  samples={"wall_s": walls, "setup_s": setup, "traced_wall_s": traced_walls},
                  attempted=checks.attempted, failed=checks.failed, problems=checks.problems)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str))

    print(f"# hotmesh bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + json.dumps(stamp))
    print(f"{'metric':34} {'median':>14} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, value, q1, q3, n, unit in rows:
        quart = (f"{q1:12.6g} {q3:12.6g}" if q1 is not None else f"{'':12} {'':12}")
        print(f"{name:34} {value:14.6g} {quart} {n:4d}  {unit}")
    print(f"{'fail_frac':34} {checks.fail_frac:14.6g} {'':12} {'':12} {checks.attempted:4d}  "
          f"ratio ({checks.failed} of {checks.attempted} operations failed)")
    if args.trace:
        print(f"# tracing overhead: traced wall {traced:.4f} s - untraced {untraced:.4f} s "
              f"= {traced - untraced:+.4f} s ({(traced / untraced - 1) * 100:+.1f} %)")
        for row in detail["per_op"]:
            print("# per operation: " + " ".join(f"{k}={v}" for k, v in row.items()))
        if detail["absent"]:
            print("# absent (not measured): " + " ".join(detail["absent"]))
    for problem in checks.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
