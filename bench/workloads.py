"""The benchmark's four workloads as lists of operations.

An operation is one cell (simulate train and test panels, test-set truth,
nuisance fits, every learner trained and scored) or one structural check of
`wolearn.verify`. Every call goes through a module attribute, so the spans
that `tracing.Tracer` installs see it. All cells use the acceptance
configuration: rho clamped at zero and a 0.05 propensity floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from wolearn import dgp, learners, nuisance, verify
from wolearn.core import always_treat, never_treat
from wolearn.pseudo import PseudoConfig

import checks

PSEUDO = PseudoConfig(clamp_rho=True)
FLOOR = 0.05
LAM = 0.5
M_TRUTH = 20000
BASELINES = ("dr", "ipw", "ra", "ha")


@dataclass(frozen=True)
class CellSpec:
    kind: str
    overrides: dict  # DgpConfig.make keyword arguments
    window: object
    learners: tuple


CELLS = {
    "overlap": CellSpec("gamma", {"gamma": 6.5}, "full",
                        ("wo", "dr", "ipw", "ra", "ha", "ipw_nofloor")),
    "horizon": CellSpec("pi", {"tau": 7}, 1, ("wo", "ipw")),
    # 500 test units instead of run_experiment's 1000 keep one cell inside a
    # run; the per-unit truth cost and the truth's memory peak (set by its
    # 100-unit chunks at m=20000) are those of the full cell.
    "mc_truth": CellSpec("n", {"n_train": 2000, "n_test": 500}, "full",
                         ("wo", "dr", "ipw", "ra", "ha")),
}

# The acceptance suite's sizes. check_orthogonality and
# check_risk_equivalence are left out: they fail on some seeds (seed 5 and
# seed 11 at these sizes) because a statistic crosses its gate by chance, so
# on seed-made inputs they would fail now and then.
GAMMA2 = dgp.DgpConfig.make("gamma", gamma=2.0)
CHECKS = (
    ("conditional_mean_gamma", dict(n_histories=50, m=20000, config=GAMMA2)),
    ("conditional_mean_rho", dict(n_histories=50, m=20000, config=GAMMA2)),
    ("r_learner_reduction", dict()),
)

WORKLOADS = (*CELLS, "verify")


def child_seed(seed, k):
    """The test-panel (k=0) and truth (k=1) seeds run_experiment derives, so
    that seed s builds the cell of run_experiment(config, seed=s)."""
    return int(np.random.SeedSequence((seed, 0x7E, k)).generate_state(1)[0])


class CellOperation:
    def __init__(self, name, spec: CellSpec, seed):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.config = dgp.DgpConfig.make(spec.kind, **spec.overrides)
        self.anchor, self.tau = self.config.eval_anchor, self.config.tau

    def run(self):
        cfg, t, tau = self.config, self.anchor, self.tau
        plan_a, plan_b = always_treat(t, tau), never_treat(t, tau)
        train = dgp.simulate(cfg, seed=self.seed)
        test = dgp.simulate(cfg, seed=child_seed(self.seed, 0), n=cfg.n_test)
        truth = dgp.test_set_truth(cfg, test, t, plan_a, plan_b, m=M_TRUTH,
                                   seed=child_seed(self.seed, 1))
        cell = learners.prepare_cell(train, plan_a, plan_b, lam=LAM, seed=self.seed,
                                     window=self.spec.window, floor=FLOOR)
        models, rmse = {}, {}
        for name in self.spec.learners:
            models[name] = learners.train_learner(cell, name, pseudo_config=PSEUDO,
                                                  seed=self.seed)
            rmse[name] = learners.evaluate_rmse(models[name], test, truth)
        return SimpleNamespace(test=test, truth=truth, cell=cell, models=models, rmse=rmse)

    def check(self, out):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xC4EC)))
        problems = checks.check_truth(self.config, out.test, self.anchor, self.tau,
                                      out.truth, M_TRUTH, rng)
        problems += checks.check_nuisances(out.cell, FLOOR, LAM)
        predictions = {name: m.predict(out.test) for name, m in out.models.items()}
        return problems + checks.check_rmse(predictions, out.truth, out.rmse)

    def fingerprint(self, out):
        return out.rmse


class CheckOperation:
    def __init__(self, name, kwargs, seed):
        self.name = name
        self.kwargs = kwargs
        self.seed = seed

    def run(self):
        return getattr(verify, "check_" + self.name)(seed=self.seed, **self.kwargs)

    def check(self, report):
        problems = checks.check_report(report)
        if self.name == "r_learner_reduction":
            problems += self._tau0_identity()
        return problems

    def _tau0_identity(self):
        config = dgp.DgpConfig.make("gamma", tau=0)
        t = config.eval_anchor
        data = dgp.simulate(config, seed=self.seed, n=4000)
        ev_a, ev_b = (nuisance.OracleBackedNuisances(dgp.oracle_nuisances(config, plan))
                      .evaluate(data, floor=0.0)
                      for plan in (always_treat(t, 0), never_treat(t, 0)))
        return checks.check_tau0_overlap_weight(config, data, t, ev_a.omega_t * ev_b.omega_t)

    def fingerprint(self, report):
        return report.summary


def operations(workload, seed):
    """One round of the workload: the same operations in every round."""
    if workload == "verify":
        return [CheckOperation(name, kwargs, seed) for name, kwargs in CHECKS]
    return [CellOperation(workload, CELLS[workload], seed)]


def cell_scores(rmse):
    """(WO's RMSE, the lowest baseline RMSE) of one cell."""
    return rmse["wo"], min(rmse[b] for b in BASELINES if b in rmse)
