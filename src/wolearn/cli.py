"""Command-line harness: simulation, training, sweeps, and verification.

All commands take an experiment spec (JSON file via --spec, individual
fields overridable on the command line; overrides win). A spec pins the
generator configuration, the learner list, an optional sweep axis with its
grid (a subset of the axis's reference grid), the seed list, the
propensity floor and the history window; it is checked when built, and a
spec file with an unknown key is rejected. The second stage always clamps
rho at zero, so no setting selects its weighting.
`_run_cell` (`learners.run_experiment`) scores every cell: `run` writes
one cell's artifacts from its record, and `run_cells` runs a spec's cells
in spawned workers for `sweep` and the acceptance suite. Sweeps write one
CSV row per (learner, grid value) plus a provenance JSON carrying the
exact spec and its hash; rerunning an identical spec reproduces identical
artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import click
import numpy as np

from . import dgp, verify
from .core import ParameterError, check_floor, check_int, check_real, check_window
from .learners import LEARNERS, run_experiment
from .nuisance import PROPENSITY_FLOOR

# Grids the reference experiments cover; sweep values outside these are
# rejected.
AXIS_GRIDS = {
    "gamma": tuple(0.5 * k for k in range(1, 14)),
    "tau": (1, 3, 5, 7),
    "d_x": (5, 10, 15, 20, 25, 30, 35),
    "n_train": (2000, 3000, 4000, 5000, 6000, 7000, 8000),
}

SWEEP_COLUMNS = ("learner", "axis_value", "rmse_mean", "rmse_sd", "rel_improv_pct", "seconds")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a run or sweep."""

    kind: str = "gamma"
    dgp: dict = field(default_factory=dict)  # overrides for DgpConfig.make
    learners: tuple = LEARNERS
    axis: str = "none"  # a key of AXIS_GRIDS, or "none"
    grid: tuple = ()
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str = "runs"
    floor: float = PROPENSITY_FLOOR
    window: object = "full"  # "full" or an integer step count

    def __post_init__(self):
        # an integer axis's grid, the seeds and the window become ints, and
        # every grid value's DgpConfig is built and its T bounds the window,
        # so a bad spec fails before any cell runs; a string is not a list,
        # so it is never split into characters; a name that is not a string
        # fails by its field, not as an unhashable dict key
        for name in ("kind", "axis", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ParameterError(f"{name} must be a string, not {getattr(self, name)!r}")
        for name in ("learners", "grid", "seeds"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ParameterError(f"{name} must be a list, not {getattr(self, name)!r}")
        if not all(isinstance(name, str) for name in self.learners):
            raise ParameterError(f"learners {list(self.learners)} must be names (strings)")
        if not isinstance(self.dgp, dict) or "kind" in self.dgp:
            raise ParameterError(f"dgp must be an object of generator settings without "
                                 f"'kind' (the spec's own field), not {self.dgp!r}")
        integer_axis = self.axis in AXIS_GRIDS and all(isinstance(v, int)
                                                       for v in AXIS_GRIDS[self.axis])
        object.__setattr__(self, "grid", tuple(check_int(v, "grid") if integer_axis
                                               else check_real(v, "grid") for v in self.grid))
        object.__setattr__(self, "learners", tuple(self.learners))
        object.__setattr__(self, "seeds", tuple(check_int(s, "seeds", 0) for s in self.seeds))
        if self.window != "full":
            object.__setattr__(self, "window", check_int(self.window, "window"))
        if not self.learners:
            raise ParameterError("learner list must not be empty")
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ParameterError(f"seeds {list(self.seeds)} must be distinct and at least one")
        if len(set(self.learners)) < len(self.learners):
            raise ParameterError(f"learners {list(self.learners)} repeat a learner")
        if len(set(self.grid)) < len(self.grid):
            raise ParameterError(f"grid {list(self.grid)} repeats a value")
        check_floor(self.floor)
        unknown = set(self.learners) - set(LEARNERS + ("ipw_nofloor",))
        if unknown:
            raise ParameterError(f"unknown learner(s) {sorted(unknown)}")
        if self.axis == "none" and self.grid:
            raise ParameterError(f"grid {list(self.grid)} given without a sweep axis")
        if self.axis != "none":
            if self.axis not in AXIS_GRIDS:
                raise ParameterError(f"unknown sweep axis {self.axis!r}")
            if not self.grid:
                raise ParameterError("sweep axis set but grid is empty")
            bad = [v for v in self.grid if v not in AXIS_GRIDS[self.axis]]
            if bad:
                raise ParameterError(
                    f"grid values {bad} outside the reference grid for {self.axis!r}")
        for value in self.grid if self.axis != "none" else (None,):
            check_window(self.window, self.config_for(value).T)

    def config_for(self, axis_value=None) -> dgp.DgpConfig:
        over = dict(self.dgp)
        if axis_value is not None:
            over[self.axis] = axis_value
        return dgp.DgpConfig.make(self.kind, **over)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def _parse_json(text, name):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{name} is not valid JSON: {exc}") from exc


def _load_spec(spec_path, **overrides) -> ExperimentSpec:
    base = {}
    if spec_path:
        base = _parse_json(Path(spec_path).read_text(), f"spec file {spec_path}")
        if not isinstance(base, dict):
            raise ParameterError(f"spec file {spec_path} must hold a JSON object, not {base!r}")
    for key, value in overrides.items():
        if value is not None and value != ():
            base[key] = value
    if isinstance(base.get("dgp"), str):
        base["dgp"] = _parse_json(base["dgp"], "dgp")
    unknown = set(base) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ParameterError(f"unknown spec field(s) {sorted(unknown)}")
    return ExperimentSpec(**base)


_SPEC_OPTIONS = [
    click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
                 help="JSON spec file; command-line flags override its fields."),
    click.option("--kind", default=None, type=click.Choice(list(dgp.KIND_DEFAULTS))),
    click.option("--dgp", default=None, help="JSON dict of generator overrides."),
    click.option("--learners", "learners", multiple=True),
    click.option("--axis", default=None, type=click.Choice([*AXIS_GRIDS, "none"])),
    click.option("--grid", multiple=True, type=float),
    click.option("--seeds", multiple=True, type=int),
    click.option("--out-dir", "out_dir", default=None),
    click.option("--floor", type=float, default=None,
                 help="Two-sided propensity floor applied at evaluation."),
    click.option("--window", default=None,
                 help='History feature window: "full" or a step count.'),
]


def _with_spec_options(fn):
    for opt in reversed(_SPEC_OPTIONS):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Overlap-weighted orthogonal meta-learning over time."""


@main.command()
@_with_spec_options
@click.option("--n", type=click.IntRange(min=1), default=None,
              help="Override the number of trajectories.")
@click.option("--seed", type=click.IntRange(min=0), default=0)
def simulate(spec_path, n, seed, **overrides):
    """Draw a synthetic panel and write it as JSONL."""
    spec = _load_spec(spec_path, **overrides)
    config = spec.config_for()
    data = dgp.simulate(config, seed=seed, n=n)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{spec.kind}_seed{seed}.jsonl"
    data.to_jsonl(path)
    click.echo(f"wrote {data.n} trajectories to {path}")


def _run_cell(spec: ExperimentSpec, axis_value, seed):
    """One (grid value, seed) cell; pure function of its arguments."""
    config = spec.config_for(None if spec.axis == "none" else axis_value)
    t0 = time.perf_counter()
    result = run_experiment(config, seed=seed, learners=spec.learners, window=spec.window,
                            floor=spec.floor)
    result["cell_seconds"] = time.perf_counter() - t0
    return result


def run_cells(spec: ExperimentSpec, workers: int):
    """Run every (grid value, seed) cell of `spec` in `workers` spawned
    processes. Returns ({(value, seed): result}, failures); a cell that
    raises is recorded as {"cell": (value, seed), "error": repr}."""
    workers = check_int(workers, "workers", 1)
    results, failures = {}, []
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        futures = {(v, s): pool.submit(_run_cell, spec, v, s)
                   for v in spec.grid for s in spec.seeds}
        for key, fut in futures.items():
            try:
                results[key] = fut.result()
            except Exception as exc:  # record, never abort the sweep
                failures.append({"cell": key, "error": repr(exc)})
    return results, failures


@main.command()
@_with_spec_options
@click.option("--seed", type=click.IntRange(min=0), default=0)
def run(spec_path, seed, **overrides):
    """Score one cell with the sweep's `_run_cell`, then write its record's
    metrics JSON, pseudo-outcome CSV and model checkpoints."""
    spec = _load_spec(spec_path, **overrides)
    if spec.axis != "none":
        raise click.UsageError("run trains one cell and takes no sweep axis; use `sweep`")
    result = _run_cell(spec, None, seed)
    out = Path(spec.out_dir) / f"{spec.kind}_seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    result["pseudo"].to_csv(out / "pseudo_outcomes.csv", ids=result["ids"])
    metrics = []
    for name, model in result["models"].items():
        model.network.save(out / f"model_{name}.npz")
        metrics.append({
            "learner": name, "dgp": spec.kind, "params": spec.config_for().to_dict(),
            "seed": seed, "rmse": result["rmse"][name], "wallclock": result["seconds"][name],
        })
        click.echo(f"{name}: rmse={result['rmse'][name]:.4f}")
    (out / "metrics.json").write_text(json.dumps(
        {"spec_hash": spec.hash, "spec": spec.to_dict(), "metrics": metrics}, indent=2))
    click.echo(f"artifacts in {out}")


@main.command()
@_with_spec_options
@click.option("--workers", type=click.IntRange(min=1), default=1,
              help="Spawned worker processes for the cells.")
def sweep(spec_path, workers, **overrides):
    """Run the grid x seeds sweep and write the aggregated CSV.

    Results are deterministic per cell and independent of worker count or
    completion order. A failed cell is recorded and skipped, never aborting
    the sweep; the exit code is nonzero if any cell failed."""
    spec = _load_spec(spec_path, **overrides)
    if spec.axis == "none":
        raise click.UsageError("sweep requires a sweep axis; use `run` for a single cell")
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results, failures = run_cells(spec, workers)
    rows = _aggregate(spec, results)
    csv_path = out / f"sweep_{spec.axis}_{spec.hash}.csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    cell_seconds = [{"cell": key, "seconds": r["cell_seconds"]} for key, r in results.items()]
    (out / f"sweep_{spec.axis}_{spec.hash}.json").write_text(json.dumps(
        {"spec_hash": spec.hash, "spec": spec.to_dict(), "failures": failures,
         "cell_seconds": cell_seconds}, indent=2))

    consistent = _check_consistency(csv_path)
    for row in rows:
        click.echo(",".join(str(v) for v in row))
    if failures:
        click.echo(f"{len(failures)} cell(s) failed; see the provenance JSON", err=True)
    if not consistent:
        click.echo("self-consistency check failed on the emitted CSV", err=True)
    raise SystemExit(0 if not failures and consistent else 1)


def _aggregate(spec: ExperimentSpec, results: dict):
    """One CSV row per (learner, grid value): mean and SD of the RMSE over
    the value's seeds, WO's relative improvement over the best baseline,
    and the learner's own training-and-scoring time summed over seeds."""
    rows = []
    for value in spec.grid:
        cells = [results[value, s] for s in spec.seeds if (value, s) in results]
        if not cells:
            continue
        per_learner = {}
        for name in spec.learners:
            rmses = [c["rmse"][name] for c in cells]
            per_learner[name] = (float(np.mean(rmses)),
                                 float(np.std(rmses, ddof=1)) if len(rmses) > 1 else 0.0,
                                 float(np.sum([c["seconds"][name] for c in cells])))
        baselines = {k: v[0] for k, v in per_learner.items() if k != "wo"}
        best_baseline = min(baselines.values()) if baselines else None
        for name, (mean, sd, secs) in per_learner.items():
            rel = ""
            if name == "wo" and best_baseline:
                rel = round(100.0 * (best_baseline - mean) / best_baseline, 2)
            rows.append([name, value, round(mean, 6), round(sd, 6), rel, round(secs, 2)])
    return rows


def _check_consistency(csv_path) -> bool:
    """Recompute the relative-improvement column from the CSV's own rows."""
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    by_value = {}
    for row in rows:
        by_value.setdefault(row["axis_value"], []).append(row)
    for value_rows in by_value.values():
        baselines = [float(r["rmse_mean"]) for r in value_rows if r["learner"] != "wo"]
        for r in value_rows:
            if r["learner"] == "wo" and r["rel_improv_pct"] and baselines:
                best = min(baselines)
                expect = round(100.0 * (best - float(r["rmse_mean"])) / best, 2)
                if abs(expect - float(r["rel_improv_pct"])) > 0.011:
                    return False
    return True


@main.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--fast", is_flag=True, default=False, help="Smaller Monte Carlo sizes.")
@click.option("--out-dir", default="runs")
def verify_cmd(seed, fast, out_dir):
    """Run the structural diagnostics and write a JSON report."""
    reports = verify.verify_all(seed=seed, fast=fast)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = [{"name": r.name, "passed": r.passed, "summary": r.summary} for r in reports]
    (out / "verify_report.json").write_text(json.dumps(payload, indent=2))
    width = max(len(r.name) for r in reports)
    for r in reports:
        click.echo(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.summary}")
    raise SystemExit(0 if all(r.passed for r in reports) else 1)


if __name__ == "__main__":
    main()
