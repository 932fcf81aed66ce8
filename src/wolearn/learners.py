"""Meta-learners for heterogeneous effects of treatment plans.

All learners target the contrast CATE(h_t) = E[Y_{t+tau}(plan a) -
Y_{t+tau}(plan b) | H_t = h_t] and reduce it to a regression of some
pseudo-outcome on history features:

  wo   overlap-weighted orthogonal learner: split the data, fit nuisances
       on one half, build (rho, q) on the other, minimize the weighted
       risk sum_i [rho_i g(H_t,i)^2 - 2 q_i g(H_t,i)] / sum_i rho_i;
  dr   unweighted regression on the doubly-robust contrast gamma^{ab};
  ipw  regression on the inverse-propensity transform;
  ra   distillation of the plug-in response contrast mu_t^a - mu_t^b;
  ha   a single history-adjusted outcome regression on features(H_t) and
       the realized future treatments, differenced at the two plans.

A `Cell` bundles the split, the held-out nuisance evaluations and their
pseudo-outcomes, so several learners reuse one set of nuisance fits;
`run_experiment` is the one loop that trains, scores and times them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import backbone
from .core import (Dataset, InterventionPlan, ParameterError, always_treat, feature_matrix,
                   never_treat, split_dataset)
from .nuisance import PROPENSITY_FLOOR, _child_seed, fit_nuisances
from .pseudo import PseudoConfig, PseudoOutcomes, cate_pseudo, ipw_transform, risk_linear_term

LEARNERS = ("wo", "dr", "ipw", "ra", "ha")

# The weighted second stage regresses a heavy-tailed pseudo-outcome; a high
# dropout rate shrinks the fit toward the weighted level, which is the
# dominant bias-variance trade under poor overlap. This shrinkage is part of
# the weighted learner's design; baselines are plain regressions with the
# nominal backbone settings.
STAGE2_DROPOUT = 0.9


@dataclass
class Cell:
    """Shared state for training several learners on one dataset/plan pair."""

    data: Dataset
    plan_a: InterventionPlan
    plan_b: InterventionPlan
    nuis_split: Dataset
    stage2: Dataset
    ev_a: object  # NuisanceEvaluation on stage2, floored
    ev_b: object
    ev_a_raw: object  # same, unfloored (for the no-floor ablation)
    ev_b_raw: object
    window: str = "full"
    pseudo: PseudoOutcomes = field(init=False)  # cate_pseudo of ev_a, ev_b; set by prepare_cell

    @property
    def anchor(self) -> int:
        return self.plan_a.start

    @property
    def y_final(self) -> np.ndarray:
        return self.stage2.y[:, self.plan_a.end]

    @property
    def stage2_features(self) -> np.ndarray:
        return feature_matrix(self.stage2, self.anchor, window=self.window)


def prepare_cell(data, plan_a, plan_b, lam=0.5, hp=backbone.Hyperparameters(), seed=0,
                 window="full", floor=PROPENSITY_FLOOR) -> Cell:
    """Split the data, fit both plans' nuisances on the nuisance split with
    one `fit_nuisances` call (the plans share its propensity classifiers),
    and evaluate them once per arm on the stage-2 split; the floored
    evaluations are copies of the unfloored ones with pi clipped.

    A plan step that fewer than MIN_FIT_UNITS nuisance-split units take
    raises ParameterError before any network trains: the effect is not
    identified there.
    """
    if plan_a.start != plan_b.start or plan_a.horizon != plan_b.horizon:
        raise ParameterError("plans must share anchor and horizon")
    nuis_split, stage2 = split_dataset(data, lam, seed)
    if set(nuis_split.ids.tolist()) & set(stage2.ids.tolist()):
        raise ParameterError("nuisance and stage-2 splits must be disjoint")
    na, nb = fit_nuisances(nuis_split, (plan_a, plan_b), hp=hp, window=window, seed=seed)
    raw_a, raw_b = na.evaluate(stage2, floor=0.0), nb.evaluate(stage2, floor=0.0)
    cell = Cell(data, plan_a, plan_b, nuis_split, stage2,
                raw_a.floored(floor), raw_b.floored(floor), raw_a, raw_b, window)
    cell.pseudo = cate_pseudo(cell.ev_a, cell.ev_b, cell.y_final)
    return cell


@dataclass
class CateModel:
    """A trained effect model; predicts the plan contrast at the anchor."""

    name: str
    network: object
    plan_a: InterventionPlan
    plan_b: InterventionPlan
    window: str = "full"
    plan_feature: bool = False  # ha appends plan treatments to the features

    def predict(self, data: Dataset) -> np.ndarray:
        feats = feature_matrix(data, self.plan_a.start, window=self.window)
        if not self.plan_feature:
            return self.network.predict(feats)
        fa = _with_plan(feats, self.plan_a)
        fb = _with_plan(feats, self.plan_b)
        return self.network.predict(fa) - self.network.predict(fb)


def _with_plan(feats: np.ndarray, plan: InterventionPlan) -> np.ndarray:
    cols = np.tile(np.asarray(plan.values, dtype=float), (feats.shape[0], 1))
    return np.concatenate([feats, cols], axis=1)


def train_wo(cell: Cell, hp=backbone.Hyperparameters(),
             pseudo_config: PseudoConfig = PseudoConfig(), seed=0) -> CateModel:
    """Second stage of the overlap-weighted orthogonal learner."""
    po = cell.pseudo
    weights = po.rho
    linear = risk_linear_term(po)
    if pseudo_config.clamp_rho:
        keep = po.rho > 0.0
        weights = np.where(keep, po.rho, 0.0)
        linear = np.where(keep, linear, 0.0)
    net = backbone.fit_weighted_quadratic(cell.stage2_features, weights, linear,
                                          hp=replace(hp, dropout=STAGE2_DROPOUT),
                                          seed=_child_seed(seed, 0x10, 0))
    return CateModel("wo", net, cell.plan_a, cell.plan_b, cell.window)


def train_baseline(cell: Cell, name: str, hp=backbone.Hyperparameters(), seed=0) -> CateModel:
    """Train one of the baseline learners: dr, ipw, ra, ha, or ipw_nofloor
    (ipw on unfloored propensities)."""
    if name == "dr":
        target = cell.pseudo.gamma
    elif name == "ipw":
        target = ipw_transform(cell.ev_a, cell.ev_b, cell.y_final)
    elif name == "ipw_nofloor":
        target = ipw_transform(cell.ev_a_raw, cell.ev_b_raw, cell.y_final)
    elif name == "ra":
        target = cell.pseudo.mu
    elif name == "ha":
        return _train_ha(cell, hp, seed)
    else:
        raise ParameterError(f"unknown learner {name!r}")
    # the no-floor ablation changes the propensities only, not the seed
    index = LEARNERS.index("ipw" if name == "ipw_nofloor" else name)
    net = backbone.fit_regressor(cell.stage2_features, target, hp=hp,
                                 seed=_child_seed(seed, 0x11, index))
    return CateModel(name, net, cell.plan_a, cell.plan_b, cell.window)


def _train_ha(cell: Cell, hp, seed) -> CateModel:
    # One outcome regression on (history features, realized future
    # treatments) over all units; effects come from differencing the plans.
    t, end = cell.anchor, cell.plan_a.end
    feats = feature_matrix(cell.data, t, window=cell.window)
    feats = np.concatenate([feats, cell.data.a[:, t : end + 1].astype(float)], axis=1)
    net = backbone.fit_regressor(feats, cell.data.y[:, end], hp=hp,
                                 seed=_child_seed(seed, 0x12, 0))
    return CateModel("ha", net, cell.plan_a, cell.plan_b, cell.window, plan_feature=True)


def train_learner(cell: Cell, name: str, hp=backbone.Hyperparameters(),
                  pseudo_config=PseudoConfig(), seed=0) -> CateModel:
    if name == "wo":
        return train_wo(cell, hp=hp, pseudo_config=pseudo_config, seed=seed)
    return train_baseline(cell, name, hp=hp, seed=seed)


def evaluate_rmse(model: CateModel, test_data: Dataset, truth: np.ndarray) -> float:
    pred = model.predict(test_data)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def build_cell(config, seed=0, hp=backbone.Hyperparameters(), window="full",
               floor=PROPENSITY_FLOOR):
    """Everything of one cell before the learners: simulate the train and
    test panels, compute the test-set truth of always- over never-treat at
    the configuration's anchor, and prepare the cell on the train panel
    with `prepare_cell`'s even split. Returns (cell, test panel, truth)."""
    from . import dgp  # deferred: dgp is a sibling layer, not a dependency

    t, tau = config.eval_anchor, config.tau
    plan_a, plan_b = always_treat(t, tau), never_treat(t, tau)
    train = dgp.simulate(config, seed=seed)
    test = dgp.simulate(config, seed=_child_seed(seed, 0x7E, 0), n=config.n_test)
    truth = dgp.test_set_truth(config, test, t, plan_a, plan_b)
    cell = prepare_cell(train, plan_a, plan_b, hp=hp, seed=seed, window=window, floor=floor)
    return cell, test, truth


def run_experiment(config, seed=0, learners=LEARNERS, hp=backbone.Hyperparameters(),
                   pseudo_config=PseudoConfig(), window="full", floor=PROPENSITY_FLOOR):
    """One full cell: build it, fit every learner, score against ground
    truth. Returns {"seed": seed, "rmse": {learner: rmse}, "seconds": {learner:
    training and scoring time}, "models": {learner: CateModel}, "pseudo":
    the cell's PseudoOutcomes, "ids": their stage-2 unit ids}."""
    cell, test, truth = build_cell(config, seed=seed, hp=hp, window=window, floor=floor)
    result = {"seed": seed, "rmse": {}, "seconds": {}, "models": {},
              "pseudo": cell.pseudo, "ids": cell.stage2.ids}
    for name in learners:
        t0 = time.perf_counter()
        model = train_learner(cell, name, hp=hp, pseudo_config=pseudo_config, seed=seed)
        result["models"][name] = model
        result["rmse"][name] = evaluate_rmse(model, test, truth)
        result["seconds"][name] = time.perf_counter() - t0
    return result
