"""Show that each correctness check in checks.py passes on a clean input and
fails on a deliberately corrupted one.

    python3 bench/selftest.py

Exits 0 when every check behaves so, 1 otherwise. Takes a few seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from wolearn import backbone, dgp, learners, nuisance
from wolearn.core import always_treat, never_treat
from wolearn.verify import DiagnosticReport

import checks

FAST = backbone.Hyperparameters(epochs=2)


def closed_form_truth():
    cfg = dgp.DgpConfig.make("gamma", gamma=6.5)
    t, tau = cfg.eval_anchor, cfg.tau
    test = dgp.simulate(cfg, seed=1, n=200)
    truth = dgp.test_set_truth(cfg, test, t, always_treat(t, tau), never_treat(t, tau))
    rng = np.random.default_rng(0)
    yield "closed-form truth", checks.check_truth(cfg, test, t, tau, truth, 0, rng), True
    shifted = truth + 1e-4
    yield "closed-form truth + 1e-4", checks.check_truth(cfg, test, t, tau, shifted, 0, rng), False


def monte_carlo_truth():
    cfg = dgp.DgpConfig.make("n", n_test=40)
    t, tau, m = cfg.eval_anchor, cfg.tau, 20000
    test = dgp.simulate(cfg, seed=1, n=cfg.n_test)
    truth = dgp.test_set_truth(cfg, test, t, always_treat(t, tau), never_treat(t, tau), m=m)
    clean = checks.check_truth(cfg, test, t, tau, truth, m, np.random.default_rng(5))
    yield "Monte Carlo truth", clean, True
    # the largest combined SE over all units, so every sampled unit moves by
    # at least 8 of its own standard errors
    se = checks.truth_table(cfg, test, t, tau, m, range(test.n), np.random.default_rng(6))[:, 1]
    shifted = truth + 8.0 * se.max()
    bad = checks.check_truth(cfg, test, t, tau, shifted, m, np.random.default_rng(5))
    yield "Monte Carlo truth + 8 SE", bad, False


def small_cell():
    cfg = dgp.DgpConfig.make("gamma", gamma=6.5, n_train=400)
    t, tau = cfg.eval_anchor, cfg.tau
    data = dgp.simulate(cfg, seed=0)
    return learners.prepare_cell(data, always_treat(t, tau), never_treat(t, tau), lam=0.5,
                                 hp=FAST, seed=0, floor=0.05)


def nuisances():
    cell = small_cell()
    yield "nuisances", checks.check_nuisances(cell, 0.05, 0.5), True
    low = replace(cell.ev_a, pi=cell.ev_a.pi.copy())
    low.pi[3, 0] = 0.04
    yield "propensity below the floor", checks.check_nuisances(replace(cell, ev_a=low), 0.05, 0.5), False
    heavy = replace(cell.ev_b, w_next=cell.ev_b.w_next.copy())
    heavy.w_next[0, 0] = 1.01
    yield "tail weight above 1", checks.check_nuisances(replace(cell, ev_b=heavy), 0.05, 0.5), False
    overlap = replace(cell, stage2=cell.nuis_split)
    yield "overlapping splits", checks.check_nuisances(overlap, 0.05, 0.5), False


def rmse():
    rng = np.random.default_rng(2)
    truth, pred = rng.normal(size=100), rng.normal(size=100)
    model = {"wo": pred}
    right = float(np.sqrt(np.mean((pred - truth) ** 2)))
    yield "RMSE", checks.check_rmse(model, truth, {"wo": right}), True
    yield "wrong RMSE", checks.check_rmse(model, truth, {"wo": right * 1.001}), False


def reports():
    yield "passed report", checks.check_report(DiagnosticReport("x", True, "ok")), True
    yield "failed report", checks.check_report(DiagnosticReport("x", False, "bad")), False
    cfg = dgp.DgpConfig.make("gamma", tau=0)
    t = cfg.eval_anchor
    data = dgp.simulate(cfg, seed=0, n=500)
    ev_a, ev_b = (nuisance.OracleBackedNuisances(dgp.oracle_nuisances(cfg, plan))
                  .evaluate(data, floor=0.0) for plan in (always_treat(t, 0), never_treat(t, 0)))
    omega = ev_a.omega_t * ev_b.omega_t
    yield "tau=0 overlap weight", checks.check_tau0_overlap_weight(cfg, data, t, omega), True
    shifted = omega + 1e-9
    yield "tau=0 overlap weight + 1e-9", checks.check_tau0_overlap_weight(cfg, data, t, shifted), False


def main():
    ok = True
    for cases in (closed_form_truth, monte_carlo_truth, nuisances, rmse, reports):
        for label, problems, should_pass in cases():
            behaved = (not problems) == should_pass
            ok &= behaved
            outcome = "passes" if not problems else "fails: " + "; ".join(problems)
            print(f"[{'ok' if behaved else 'WRONG'}] {label} {outcome}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
