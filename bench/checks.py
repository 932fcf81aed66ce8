"""Correctness checks on the outputs of one benchmark operation.

Every check returns a list of problems, empty when the output is correct.
Expected values are recomputed from the generator formulas in the
`wolearn.dgp` docstring and from the returned models, never read from a
stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

TRUTH_ATOL = 1e-9  # closed-form truth vs numerical integration
TRUTH_Z = 5.0  # Monte Carlo truth vs an independent Monte Carlo, in combined SEs
TRUTH_UNITS = 8  # test units re-simulated per Monte Carlo truth check
TRUTH_DRAWS = 100_000
RMSE_RTOL = 1e-9
IDENTITY_ATOL = 1e-12

# Standard-normal grid for integrating over X_{t+tau} | X_t; the density is
# below 1e-21 at the ends, so a plain Riemann sum is the trapezoid rule.
_GRID = np.linspace(-10.0, 10.0, 801)
_GRID_WEIGHTS = np.exp(-0.5 * _GRID**2) / math.sqrt(2.0 * math.pi) * (_GRID[1] - _GRID[0])
# Units integrated at once; small, so that the check's memory stays below
# the program's and does not show in peak RSS.
_CHUNK = 200


def _forward_moments(x, steps, sigma_x):
    """Mean and variance of X_{t+steps} given X_t = x under X' = 0.5 X + eps_x."""
    mean, var = x, 0.0
    for _ in range(steps):
        mean, var = 0.5 * mean, 0.25 * var + sigma_x**2
    return mean, var


def integrated_cate(config, x_t, tau):
    """Always- over never-treat CATE for kinds gamma and pi.

    f_y = 0.5 exp(-X^2) (A - 0.5), and X evolves without feedback from A, so
    the contrast at t+tau is 0.5 E[exp(-X_{t+tau}^2) | X_t]; integrated
    numerically per unit."""
    mean, var = _forward_moments(np.mean(x_t, axis=-1), tau, config.sigma_x)
    out = np.empty(len(mean))
    for lo in range(0, len(mean), _CHUNK):
        z = mean[lo : lo + _CHUNK, None] + math.sqrt(var) * _GRID
        out[lo : lo + _CHUNK] = 0.5 * (np.exp(-(z**2)) @ _GRID_WEIGHTS)
    return out


def simulated_cate(config, x_t, tau, rng, draws=TRUTH_DRAWS):
    """Always- over never-treat CATE for kind n at one unit, by simulating
    X forward: f_y = 0.5 exp(-(mean_p cos X_p)^2) (A - 0.5). Returns the
    mean and the per-draw standard deviation."""
    x = np.repeat(np.asarray(x_t, dtype=float)[None, :], draws, axis=0)
    for _ in range(tau):
        x = 0.5 * x + rng.normal(0.0, config.sigma_x, size=x.shape)
    values = 0.5 * np.exp(-np.mean(np.cos(x), axis=-1) ** 2)
    return float(values.mean()), float(values.std(ddof=1))


def truth_table(config, test, anchor, tau, m_truth, units, rng):
    """(independent estimate, combined standard error) for each unit in
    `units` of a Monte Carlo truth computed with m_truth draws."""
    rows = []
    for u in units:
        mean, sd = simulated_cate(config, test.x[u, anchor], tau, rng)
        rows.append((mean, sd * math.sqrt(1.0 / m_truth + 1.0 / TRUTH_DRAWS)))
    return np.array(rows)


def check_truth(config, test, anchor, tau, truth, m_truth, rng):
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (test.n,) or not np.isfinite(truth).all():
        return [f"truth has shape {truth.shape} or non-finite entries"]
    if config.kind in ("gamma", "pi"):
        err = float(np.max(np.abs(truth - integrated_cate(config, test.x[:, anchor], tau))))
        return [] if err <= TRUTH_ATOL else [f"truth deviates from quadrature by {err:.3g}"]
    if config.kind == "n":
        units = rng.choice(test.n, size=min(TRUTH_UNITS, test.n), replace=False)
        table = truth_table(config, test, anchor, tau, m_truth, units, rng)
        z = np.abs(truth[units] - table[:, 0]) / table[:, 1]
        worst = float(z.max())
        return [] if worst <= TRUTH_Z else [f"truth is {worst:.1f} SE from an independent estimate"]
    return [f"no independent truth for kind {config.kind!r}"]


def check_rmse(predictions, truth, reported):
    problems = []
    for name, pred in predictions.items():
        pred = np.asarray(pred, dtype=float)
        if pred.shape != truth.shape or not np.isfinite(pred).all():
            problems.append(f"{name}: predictions have shape {pred.shape} or non-finite entries")
            continue
        resid = pred - truth
        rmse = math.sqrt(float(resid @ resid) / len(resid))
        if not abs(reported[name] - rmse) <= RMSE_RTOL * rmse:
            problems.append(f"{name}: reported RMSE {reported[name]!r}, recomputed {rmse!r}")
    return problems


def check_nuisances(cell, floor, lam):
    problems = []
    for arm, ev in (("a", cell.ev_a), ("b", cell.ev_b)):
        if not (np.all(ev.pi >= floor) and np.all(ev.pi <= 1.0)):
            problems.append(f"arm {arm}: floored propensities outside [{floor}, 1]")
        if not (np.all(ev.w_next >= 0.0) and np.all(ev.w_next <= 1.0)):
            problems.append(f"arm {arm}: tail weights outside [0, 1]")
    nuis, stage2, data = cell.nuis_split.ids, cell.stage2.ids, cell.data.ids
    if np.intersect1d(nuis, stage2).size:
        problems.append("nuisance and stage-2 splits share units")
    if stage2.size != math.floor(lam * data.size) or nuis.size + stage2.size != data.size:
        problems.append(f"split sizes {nuis.size}/{stage2.size} of {data.size} units at lambda={lam}")
    return problems


def check_report(report):
    return [] if report.passed else [f"report failed: {report}"]


def check_tau0_overlap_weight(config, data, anchor, omega_ab):
    """omega^{ab} = pi (1 - pi) at tau = 0 for complementary single-step
    plans, with pi from the documented gamma-kind logit
    f_a = g (0.5 X_t + 0.5 Y_{t-1} - 0.5 (A_{t-1} - 0.5))."""
    t = anchor
    logit = config.gamma * (0.5 * np.mean(data.x[:, t], axis=-1) + 0.5 * data.y[:, t - 1]
                            - 0.5 * (data.a[:, t - 1] - 0.5))
    pi = 1.0 / (1.0 + np.exp(-logit))
    err = float(np.max(np.abs(np.asarray(omega_ab) - pi * (1.0 - pi))))
    return [] if err <= IDENTITY_ATOL else [f"omega^ab deviates from pi(1-pi) by {err:.3g}"]
