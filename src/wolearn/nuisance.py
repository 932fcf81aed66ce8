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

`fit_nuisances` fits a whole cell in three `backbone.fit_stack` families:
the propensities of every time as one stack that the plans share, the
plans' response recursions in lockstep (one stack per time j, whose members
are the plans' regressions on their own arms' subsamples, of different n),
and every plan's tail weights as one stack. The response and tail-weight
fits return one mapping {(k, j): network} over plan index k and time j;
each network is bitwise the one a lone fit with its seed gives. A treatment
that is constant at a plan step, or a plan step that fewer than
MIN_FIT_UNITS units take, raises ParameterError before any network trains.

Propensities are floored at evaluation time (never during fitting) and the
overlap weight is omega_t = pi_t * W_{t+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import backbone
from .core import Dataset, InterventionPlan, ParameterError, check_floor, feature_matrix

PROPENSITY_FLOOR = 0.05  # the default floor of a cell, as the acceptance criteria use it
WEIGHT_CLAMP = (0.0, 1.0)  # tail weights are probabilities; never divided by
MIN_FIT_UNITS = 10


def _child_seed(seed, tag, j) -> int:
    """Deterministic per-model seed derived from (run seed, family, time)."""
    return int(np.random.SeedSequence((seed, tag, j)).generate_state(1)[0])


@dataclass
class NuisanceEvaluation:
    """Nuisance values on one dataset for one plan. Arrays are indexed
    [unit, step] with step k corresponding to time t + k; the plan itself
    belongs to the nuisance source that evaluated them.

    pi: plan propensities, floored unless evaluated at floor 0;
    ind: 1{A_{t+k} = a_{t+k}};
    mu: response predictions mu_{t+k}(H_{t+k});
    w_next: tail weights W_{t+k+1}(H_{t+k}) (ones at the final step);
    omega_t: overlap weights pi_t * W_{t+1} at the anchor.
    """

    pi: np.ndarray
    ind: np.ndarray
    mu: np.ndarray
    w_next: np.ndarray

    @property
    def omega_t(self) -> np.ndarray:
        return self.pi[:, 0] * self.w_next[:, 0]

    def floored(self, floor: float) -> "NuisanceEvaluation":
        """A copy with pi clipped to [floor, 1]; the other arrays are shared."""
        check_floor(floor)
        return replace(self, pi=np.clip(self.pi, floor, 1.0))

    @classmethod
    def from_steps(cls, plan: InterventionPlan, data: Dataset, step) -> "NuisanceEvaluation":
        """Evaluate a plan's nuisances on `data`, one step at a time.

        `step(j)` returns (plan propensity, response, tail weight) at time
        j = t + k, stored in column k; each may be one row, broadcast to
        every unit. The source returns a tail weight of 1 at the plan's last
        step."""
        steps = plan.horizon + 1
        pi = np.empty((data.n, steps))
        mu = np.empty((data.n, steps))
        w_next = np.empty((data.n, steps))
        for k in range(steps):
            pi[:, k], mu[:, k], w_next[:, k] = step(plan.start + k)
        ind = (data.a[:, plan.start : plan.end + 1] == np.array(plan.values)).astype(float)
        return cls(pi, ind, mu, w_next)


class FittedNuisances:
    """Backbone-fitted nuisances for one plan."""

    def __init__(self, plan, propensity_models, response_models, weight_models, window="full"):
        self.plan = plan
        self.propensity_models = propensity_models  # {j: classifier for A_j = 1}
        self.response_models = response_models  # {j: regressor}
        self.weight_models = weight_models  # {j: regressor for W_{j+1}(H_j)}
        self.window = window

    def evaluate(self, data: Dataset, floor: float) -> NuisanceEvaluation:
        def step(j):
            feats = feature_matrix(data, j, window=self.window)
            pi = self.plan.propensity(j, self.propensity_models[j].predict(feats))
            mu = self.response_models[j].predict(feats)
            w = 1.0
            if j < self.plan.end:
                w = np.clip(self.weight_models[j].predict(feats), *WEIGHT_CLAMP)
            return pi, mu, w

        return NuisanceEvaluation.from_steps(self.plan, data, step).floored(floor)


def _check_support(data: Dataset, plan: InterventionPlan) -> None:
    """Raise ParameterError unless at least MIN_FIT_UNITS units of `data` take
    the plan's treatment at every plan step: with fewer, the response
    recursion has nothing to learn from and the effect is not identified."""
    if plan.end >= data.T:
        raise ParameterError("plan extends past the trajectory length")
    for j, a_j in zip(range(plan.start, plan.end + 1), plan.values):
        n_j = int(np.sum(data.a[:, j] == a_j))
        if n_j < MIN_FIT_UNITS:
            raise ParameterError(f"only {n_j} units take treatment {a_j} at time {j}; "
                                 f"fitting the plan's responses needs {MIN_FIT_UNITS}")


def fit_propensity_models(data: Dataset, t: int, tau: int, hp=backbone.Hyperparameters(),
                          window="full", seed=0):
    """One classifier P(A_j = 1 | H_j) per time j in [t, t+tau], trained as
    one stack; plans of either arm share these models. A treatment that is
    constant at some j raises ParameterError before any network trains."""
    times = range(t, t + tau + 1)
    problems = []
    for j in times:
        labels = data.a[:, j].astype(float)
        if labels.min() == labels.max():
            raise ParameterError(f"treatment at time {j} is constant; "
                                 "its propensity is not identified")
        problems.append(backbone.classification_problem(feature_matrix(data, j, window=window),
                                                        labels))
    seeds = [_child_seed(seed, 0xA, j) for j in times]
    return dict(zip(times, backbone.fit_stack(problems, hp, seeds)))


def fit_response_models(data: Dataset, plans, hp=backbone.Hyperparameters(), window="full",
                        seed=0):
    """The plans' backward recursions of plan-conditional responses, run in
    lockstep: at each time j one stack holds every plan whose span covers j,
    each member fitted on the units taking that plan's treatment at j, so
    the members' n differ. Returns ({(k, j): regressor} for plan index k,
    provenance log of per-stage subsample sizes). A step with fewer than
    MIN_FIT_UNITS units taking a plan's treatment raises ParameterError
    before any network trains."""
    for plan in plans:
        _check_support(data, plan)
    models, log = {}, []
    targets = [data.y[:, plan.end] for plan in plans]
    for j in sorted({j for plan in plans for j in range(plan.start, plan.end + 1)}, reverse=True):
        members = [k for k, plan in enumerate(plans) if plan.start <= j <= plan.end]
        feats = feature_matrix(data, j, window=window)
        problems = []
        for k in members:
            a_j = plans[k].values[j - plans[k].start]
            sel = data.a[:, j] == a_j
            log.append({"plan": k, "time": j, "arm": a_j, "n_fit": int(sel.sum())})
            problems.append(backbone.regression_problem(feats[sel], targets[k][sel]))
        seeds = [_child_seed(seed, 0xB, j)] * len(members)
        for k, model in zip(members, backbone.fit_stack(problems, hp, seeds)):
            models[k, j] = model
            if j > plans[k].start:
                targets[k] = model.predict(feats)  # the plan's next stage regresses this
    return models, log


def fit_weight_models(data: Dataset, plans, propensity_models, hp=backbone.Hyperparameters(),
                      window="full", seed=0):
    """Tail-weight regressors {(k, j): model of W_{j+1}(H_j)} for each plan
    index k and each j before the plan's last step, trained as one stack.

    The target for time j is the realized product of the plan's fitted
    propensities over k = j+1 .. t+tau; regression against features(H_j)
    recovers its conditional expectation under the observational law.
    """
    keys = [(k, j) for k, plan in enumerate(plans) for j in range(plan.start, plan.end)]
    if not keys:
        return {}
    times = range(min(p.start for p in plans), max(p.end for p in plans) + 1)
    feats = {j: feature_matrix(data, j, window=window) for j in times}
    p1 = {j: propensity_models[j].predict(f) for j, f in feats.items()}  # P(A_j = 1 | H_j)
    pi_hat = [np.column_stack([plan.propensity(j, p1[j]) for j in range(plan.start, plan.end + 1)])
              for plan in plans]
    problems = [backbone.regression_problem(
        feats[j], np.prod(pi_hat[k][:, j - plans[k].start + 1 :], axis=1)) for k, j in keys]
    seeds = [_child_seed(seed, 0xC, j) for _, j in keys]
    return dict(zip(keys, backbone.fit_stack(problems, hp, seeds)))


def fit_nuisances(data: Dataset, plans, hp=backbone.Hyperparameters(), window="full",
                  seed=0) -> list:
    """Fit a cell's nuisances on the given (nuisance) split: one propensity
    stack that the plans share, the plans' response recursions in lockstep
    and one stack of every plan's tail weights. Returns one FittedNuisances
    per plan.

    Every plan's support is checked before any network trains, so a plan
    step that fewer than MIN_FIT_UNITS units take, or a constant treatment,
    raises ParameterError instead of a half-trained cell.
    """
    for plan in plans:
        _check_support(data, plan)
    t, end = min(p.start for p in plans), max(p.end for p in plans)
    propensity_models = fit_propensity_models(data, t, end - t, hp=hp, window=window, seed=seed)
    responses, _ = fit_response_models(data, plans, hp=hp, window=window, seed=seed)
    weights = fit_weight_models(data, plans, propensity_models, hp=hp, window=window, seed=seed)
    return [FittedNuisances(plan, propensity_models,
                            {j: responses[k, j] for j in range(plan.start, plan.end + 1)},
                            {j: weights[k, j] for j in range(plan.start, plan.end)},
                            window=window)
            for k, plan in enumerate(plans)]


class OracleBackedNuisances:
    """Ground-truth nuisances exposed through the FittedNuisances interface;
    for diagnostics that must separate estimator error from nuisance error.
    `evaluate` turns each step's histories into a `dgp.State` and asks the
    oracle (a `dgp.OracleNuisanceSet`) for its values there. A step whose
    histories all share one state, as at the anchor of a completed panel,
    is evaluated once on that state and the values broadcast to every row.
    Tail weights are not clamped. To probe sensitivity, shift a copy of an
    evaluation (`dataclasses.replace(ev, mu=ev.mu + d)`) and floor it again.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.plan = oracle.plan

    def evaluate(self, data: Dataset, floor: float = 0.0) -> NuisanceEvaluation:
        """The oracle's values on `data`, pi floored at `floor`; the floor is
        at least 1e-12 because 1 - p1 can be exactly 0."""
        from .dgp import State  # local import to keep module layering one-way

        oracle = self.oracle

        def step(j):
            st = State.from_dataset(data, j)
            arrays = (st.x, st.x_prev, st.y_prev, st.a_prev)
            if all((v == v[:1]).all() for v in arrays):
                st = State(*(v[:1] for v in arrays))  # one row; from_steps broadcasts it
            return (oracle.propensity(j, st), oracle.response_exact(j, st),
                    oracle.tail_weight(j, st))

        return NuisanceEvaluation.from_steps(self.plan, data, step).floored(max(floor, 1e-12))
