"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload overlap --seed 0 --seconds 30 --trace 0

Runs from a source checkout: the package is imported from ../src, never
from an installed copy. The run repeats whole rounds of the workload's
operations (see workloads.py) while another round is expected to end within
--seconds, checks every operation's outputs, and prints the end-to-end
metrics (--trace 0) or, with the layers' functions wrapped in spans, the
per-layer metrics (--trace 1). A traced run also writes its spans to
bench/out/. Progress goes to stderr; the last line of stdout is the result.
"""

import os

# One compute thread; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_SPAN_COVERAGE = 0.99


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def measure_setup():
    """Median time for a fresh interpreter to import the package's layers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds times up to 50 ms steps.
        subprocess.run([sys.executable, "-c", "import wolearn.learners, wolearn.verify"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_round(ops, tracer):
    """Run each operation once. Returns (per-op records, round wall time);
    the wall time covers the operations only, not their checks."""
    records, wall = [], 0.0
    for op in ops:
        if tracer:
            tracer.active = True
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception:
            out = None
            problems = [traceback.format_exc()]
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if tracer:
            tracer.active = False
        wall += seconds
        if out is not None:
            try:
                problems = op.check(out)
            except Exception:
                problems = [traceback.format_exc()]
        for problem in problems:
            log(f"FAILED {op.name}: {problem}")
        records.append({"failed": bool(problems),
                        "fingerprint": None if out is None else op.fingerprint(out)})
        log(f"{op.name}: {seconds:.3f} s wall, {cpu:.3f} s cpu{' FAILED' if problems else ''}")
    return records, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wolearn" / "__init__.py").is_file():
        log(f"no package source at {SRC}; run from a wolearn checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import wolearn

    if Path(wolearn.__file__).resolve().parent != SRC / "wolearn":
        log(f"imported wolearn from {wolearn.__file__}, not from {SRC}")
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setup_s = measure_setup()
    ops = workloads.operations(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    origin = time.perf_counter()
    rounds, walls, layer_rounds, coverage = [], [], [], []
    while True:
        first_span = len(tracer.spans) if tracer else 0
        records, wall = run_round(ops, tracer)
        rounds.append(records)
        walls.append(wall)
        if tracer:
            layer, share = tracer.summarize(first_span, wall)
            layer_rounds.append(layer)
            coverage.append(share)
        elapsed = time.perf_counter() - origin
        if elapsed + statistics.median(walls) > args.seconds:
            break
    if tracer:
        tracer.uninstall()

    attempted = sum(len(r) for r in rounds)
    failed = sum(rec["failed"] for r in rounds for rec in r)
    # Every round runs the same inputs, so outputs must repeat exactly.
    repeatable = all([rec["fingerprint"] for rec in r] == [rec["fingerprint"] for rec in rounds[0]]
                     for r in rounds)
    if not repeatable:
        log("outputs differ between rounds of the same inputs")
    correct = repeatable

    if args.trace:
        values = tracing.median_metrics(layer_rounds)
        # a cell's fingerprint is its RMSE per learner
        cells = [rec["fingerprint"] for r in rounds for rec in r
                 if not rec["failed"] and isinstance(rec["fingerprint"], dict)]
        scores = [workloads.cell_scores(rmse) for rmse in cells]
        values["wo_rmse"] = statistics.fmean(s[0] for s in scores) if scores else 0.0
        values["best_baseline_rmse"] = statistics.fmean(s[1] for s in scores) if scores else 0.0
        values["trace.wall_s"] = statistics.median(walls)
        values["trace.coverage"] = min(coverage)
        if min(coverage) < MIN_SPAN_COVERAGE:
            log(f"top-level spans cover only {min(coverage):.4f} of a round's wall time")
            correct = False
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "round_wall_s": walls,
            "rounds": layer_rounds, "spans": tracer.records(origin)}))
        log(f"spans written to {trace_file}")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        log(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
