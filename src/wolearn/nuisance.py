"""Nuisance estimation for sequential treatment-effect learners.

For an intervention plan a_{t:t+tau} three nuisance families are fitted on
the nuisance split and later evaluated on held-out data:

  propensities  pi_j(H_j) = P(A_j = a_j | H_j), one classifier per time j
                (fit for the event A_j = 1; arms share the classifier);
  responses     mu_j(H_j) = E[Y_{t+tau} | H_j, A_{j:t+tau} = a_{j:t+tau}],
                fitted backward: the last regression targets the realized
                outcome on the subsample following the plan at t+tau, and
                each earlier stage regresses the next stage's prediction,
                filtering on A_j = a_j;
  tail weights  W_{j+1}(H_j) = E[prod_{k=j+1}^{t+tau} pi_k(H_k) | H_j],
                fitted by regressing realized products of fitted
                propensities on history features (no treatment filtering:
                the expectation runs over the observational law). W at the
                final stage is identically 1.

Propensities are floored at evaluation time (never during fitting) and the
overlap weight is omega_t = pi_t * W_{t+1}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import backbone
from .core import Dataset, InterventionPlan, ParameterError, feature_matrix

PROPENSITY_FLOOR = 1e-3
WEIGHT_CLAMP = (0.0, 1.0)  # tail weights are probabilities; never divided by
MIN_FIT_UNITS = 10


def _child_seed(seed, tag, j) -> int:
    """Deterministic per-model seed derived from (run seed, family, time)."""
    return int(np.random.SeedSequence((seed, tag, j)).generate_state(1)[0])


class _ConstantModel:
    """Fallback when a fit would be degenerate (single-class labels, a
    constant target, or too few units)."""

    def __init__(self, value: float):
        self.value = float(value)

    def predict(self, x):
        return np.full(np.asarray(x).shape[0], self.value)


@dataclass
class NuisanceEvaluation:
    """Nuisance values on one dataset for one plan. Arrays are indexed
    [unit, step] with step k corresponding to time t + k.

    pi: plan propensities, floored unless evaluated at floor 0;
    ind: 1{A_{t+k} = a_{t+k}};
    mu: response predictions mu_{t+k}(H_{t+k});
    w_next: tail weights W_{t+k+1}(H_{t+k}) (ones at the final step);
    omega_t: overlap weights pi_t * W_{t+1} at the anchor.
    """

    plan: InterventionPlan
    pi: np.ndarray
    ind: np.ndarray
    mu: np.ndarray
    w_next: np.ndarray

    @property
    def omega_t(self) -> np.ndarray:
        return self.pi[:, 0] * self.w_next[:, 0]

    def floored(self, floor: float) -> "NuisanceEvaluation":
        """A copy with pi clipped to [floor, 1]; the other arrays are shared."""
        return replace(self, pi=np.clip(self.pi, floor, 1.0))

    @classmethod
    def from_steps(cls, plan: InterventionPlan, data: Dataset, step) -> "NuisanceEvaluation":
        """Evaluate a plan's nuisances on `data`, one step at a time.

        `step(k, j)` returns (plan propensity, response, tail weight or None)
        at step k, time j = t + k; a None tail weight leaves W at one."""
        steps = plan.horizon + 1
        pi = np.empty((data.n, steps))
        mu = np.empty((data.n, steps))
        w_next = np.ones((data.n, steps))
        for k in range(steps):
            pi[:, k], mu[:, k], w = step(k, plan.start + k)
            if w is not None:
                w_next[:, k] = w
        ind = (data.a[:, plan.start : plan.end + 1] == np.array(plan.values)).astype(float)
        return cls(plan, pi, ind, mu, w_next)


class FittedNuisances:
    """Backbone-fitted nuisances for one plan."""

    def __init__(self, plan, propensity_models, response_models, weight_models, window="full"):
        self.plan = plan
        self.propensity_models = propensity_models  # {j: classifier for A_j = 1}
        self.response_models = response_models  # {j: regressor}
        self.weight_models = weight_models  # {j: regressor for W_{j+1}(H_j)}
        self.window = window

    def evaluate(self, data: Dataset, floor: float = PROPENSITY_FLOOR) -> NuisanceEvaluation:
        def step(k, j):
            feats = feature_matrix(data, j, window=self.window)
            p1 = self.propensity_models[j].predict(feats)
            pi = p1 if self.plan.values[k] == 1 else 1.0 - p1
            mu = self.response_models[j].predict(feats)
            w = None
            if j in self.weight_models:
                w = np.clip(self.weight_models[j].predict(feats), *WEIGHT_CLAMP)
            return pi, mu, w

        return NuisanceEvaluation.from_steps(self.plan, data, step).floored(floor)


def fit_propensity_models(data: Dataset, t: int, tau: int, hp=None, window="full", seed=0):
    """One classifier P(A_j = 1 | H_j) per time j in [t, t+tau]; plans of
    either arm share these models. The non-constant steps train as one
    stack."""
    hp = hp or backbone.Hyperparameters()
    models, fitted = {}, {}
    for j in range(t, t + tau + 1):
        feats = feature_matrix(data, j, window=window)
        labels = data.a[:, j].astype(float)
        if labels.min() == labels.max():
            warnings.warn(f"treatment at time {j} is constant; using a saturated propensity")
            models[j] = _ConstantModel(1.0 if labels[0] == 1 else 0.0)
        else:
            fitted[j] = (backbone.classification_problem(feats, labels),
                         replace(hp, seed=_child_seed(seed, 0xA, j)))
    return _fit_stacked(models, fitted)


def _fit_stacked(models, fitted):
    """Fill `models` with one network per {j: (problem, hp)} of `fitted`,
    trained as one stack; returns `models` ordered by j."""
    if fitted:
        problems, hps = zip(*fitted.values())
        models.update(zip(fitted, backbone.fit_stack(problems, hps)))
    return dict(sorted(models.items()))


def fit_response_models(data: Dataset, plan: InterventionPlan, hp=None, window="full", seed=0):
    """Backward recursion of plan-conditional responses. Returns
    ({j: regressor}, provenance log of per-stage subsample sizes)."""
    hp = hp or backbone.Hyperparameters()
    t, tau = plan.start, plan.horizon
    if plan.end >= data.T:
        raise ParameterError("plan extends past the trajectory length")
    models = {}
    log = []
    target = data.y[:, t + tau].copy()
    for j in range(t + tau, t - 1, -1):
        a_j = plan.values[j - t]
        feats = feature_matrix(data, j, window=window)
        sel = data.a[:, j] == a_j
        n_sel = int(sel.sum())
        log.append({"time": j, "arm": a_j, "n_fit": n_sel})
        if n_sel < MIN_FIT_UNITS:
            warnings.warn(f"only {n_sel} units follow the plan at time {j}; using a constant response")
            models[j] = _ConstantModel(target[sel].mean() if n_sel else target.mean())
        else:
            models[j] = backbone.fit_regressor(
                feats[sel], target[sel], hp=replace(hp, seed=_child_seed(seed, 0xB, j))
            )
        if j > t:
            target = models[j].predict(feats)  # next stage regresses this prediction
    return models, log


def fit_weight_models(data: Dataset, plan: InterventionPlan, propensity_models, hp=None,
                      window="full", seed=0):
    """Tail-weight regressors {j: model of W_{j+1}(H_j)} for j < t+tau.

    The target for time j is the realized product of fitted plan
    propensities over k = j+1 .. t+tau; regression against features(H_j)
    recovers its conditional expectation under the observational law. The
    steps train as one stack; a step with a constant target or fewer than
    MIN_FIT_UNITS units gets a constant model instead.
    """
    hp = hp or backbone.Hyperparameters()
    t, tau = plan.start, plan.horizon
    if tau == 0:
        return {}
    pi_hat = np.empty((data.n, tau + 1))
    for k in range(tau + 1):
        j = t + k
        feats = feature_matrix(data, j, window=window)
        p1 = propensity_models[j].predict(feats)
        pi_hat[:, k] = p1 if plan.values[k] == 1 else 1.0 - p1
    models, fitted = {}, {}
    for j in range(t, t + tau):
        tail = np.prod(pi_hat[:, j - t + 1 :], axis=1)
        if data.n < MIN_FIT_UNITS:
            warnings.warn(f"only {data.n} units for the tail weight at time {j}; "
                          "using a constant weight")
            models[j] = _ConstantModel(tail.mean())
        elif tail.min() == tail.max():
            warnings.warn(f"tail-weight target at time {j} is constant; using it as the weight")
            models[j] = _ConstantModel(tail[0])
        else:
            feats = feature_matrix(data, j, window=window)
            fitted[j] = (backbone.regression_problem(feats, tail),
                         replace(hp, seed=_child_seed(seed, 0xC, j)))
    return _fit_stacked(models, fitted)


def fit_nuisances(data: Dataset, plan: InterventionPlan, hp=None, window="full", seed=0,
                  propensity_models=None) -> FittedNuisances:
    """Fit all three nuisance families for one plan on the given (nuisance)
    split. Pass `propensity_models` to reuse classifiers across arms."""
    t, tau = plan.start, plan.horizon
    if propensity_models is None:
        propensity_models = fit_propensity_models(data, t, tau, hp=hp, window=window, seed=seed)
    response_models, _ = fit_response_models(data, plan, hp=hp, window=window, seed=seed)
    weight_models = fit_weight_models(data, plan, propensity_models, hp=hp, window=window, seed=seed)
    return FittedNuisances(plan, propensity_models, response_models, weight_models, window=window)


class OracleBackedNuisances:
    """Ground-truth nuisances exposed through the FittedNuisances interface;
    for diagnostics that must separate estimator error from nuisance error.

    Optional additive corruptions (arrays broadcastable over units/steps)
    shift each family before flooring, to probe sensitivity:
    `corrupt_pi` perturbs the plan propensity, `corrupt_mu` the responses,
    `corrupt_w` the tail weights.
    """

    def __init__(self, oracle, corrupt_pi=None, corrupt_mu=None, corrupt_w=None):
        self.oracle = oracle  # dgp.OracleNuisanceSet
        self.plan = oracle.plan
        self.corrupt_pi = corrupt_pi
        self.corrupt_mu = corrupt_mu
        self.corrupt_w = corrupt_w

    def evaluate(self, data: Dataset, floor: float = 0.0) -> NuisanceEvaluation:
        return self.perturb(self.evaluate_clean(data), floor)

    def evaluate_clean(self, data: Dataset) -> NuisanceEvaluation:
        """The oracle's values on `data`, without corruptions or floor."""
        from .dgp import State  # local import to keep module layering one-way

        def step(k, j):
            st = State.from_dataset(data, j)
            pi = self.oracle.propensity(j, st.x, st.y_prev, st.a_prev)
            mu = self.oracle.response_exact(j, st.x, x_prev=st.x_prev)
            w = None
            if j < self.plan.end:
                w = self.oracle.tail_weight(j, st.x, st.y_prev, st.a_prev, x_prev=st.x_prev)
            return pi, mu, w

        return NuisanceEvaluation.from_steps(self.plan, data, step)

    def perturb(self, clean: NuisanceEvaluation, floor: float = 0.0) -> NuisanceEvaluation:
        """This object's corruptions and floor applied to a clean
        evaluation. `clean` is not modified; arrays that no corruption
        touches are shared with it."""
        pi, mu, w_next = clean.pi, clean.mu, clean.w_next
        if self.corrupt_pi is not None:
            pi = pi + self.corrupt_pi
        if self.corrupt_mu is not None:
            mu = mu + self.corrupt_mu
        if self.corrupt_w is not None:
            w_next = w_next + self.corrupt_w
        return NuisanceEvaluation(self.plan, pi, clean.ind, mu, w_next).floored(max(floor, 1e-12))
