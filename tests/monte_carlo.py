"""Monte Carlo cross-checks of the closed-form ground truth in `wolearn.dgp`.

The package computes every truth and oracle response in closed form
(`dgp.expected_outcome`); these rollout estimates are the independent
reference the tests hold the closed forms to. Each returns a mean and its
standard error.
"""

from __future__ import annotations

import math

import numpy as np

from wolearn import dgp
from wolearn.core import ParameterError


class HorizonError(ParameterError):
    pass


def ground_truth_cate(config, data, anchor: int, plan_a, plan_b, m: int, seed=0):
    """Monte Carlo CATE at the history of the one unit in `data`: mean
    final-outcome difference over m paired rollouts with common random
    numbers across the two arms."""
    if not plan_a.start == plan_b.start == anchor or plan_a.horizon != plan_b.horizon:
        raise ParameterError("plans must start at the history anchor and share the horizon")
    steps = plan_a.horizon + 1
    if anchor + steps > data.T:
        raise HorizonError("plan extends past the trajectory length")
    state = dgp._unit_state(data, anchor, m)
    # a fresh, equally seeded generator per arm: common random numbers
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0xC7E))) for _ in range(2)]
    ya, yb = (dgp.rollout(config, state, steps, rng=rng, forced=list(p.values))["y"][:, -1]
              for rng, p in zip(rngs, (plan_a, plan_b)))
    diff = ya - yb
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0


def _per_state(draws, m: int):
    """Mean and standard error over each state's m consecutive draws."""
    draws = draws.reshape(-1, m)
    return draws.mean(axis=1), draws.std(axis=1, ddof=1) / math.sqrt(m)


def response_mc(oracle: dgp.OracleNuisanceSet, j: int, state: dgp.State):
    """mu_j^plan by single-pass forced rollout of `oracle.m` copies of each
    state; returns (mean, se)."""
    steps = oracle.t + oracle.tau - j + 1
    forced = list(oracle.plan.values[j - oracle.t :])
    out = oracle._rollout(state, steps, (oracle.seed, 0xE5, 0), forced=forced)
    return _per_state(out["y"][:, -1], oracle.m)


def response_nested_mc(oracle: dgp.OracleNuisanceSet, state: dgp.State):
    """mu_t^plan by the two-stage route: one forced step, then the exact
    next-stage response; cross-check for response_mc (tau = 1 only)."""
    if oracle.tau != 1:
        raise NotImplementedError("nested oracle implemented for tau = 1")
    one = oracle._rollout(state, 2, (oracle.seed, 0xE6, 1),
                          forced=[oracle.plan.values[0], None])
    nxt = dgp.State(x=one["x"][:, 1], x_prev=one["x"][:, 0], y_prev=one["y"][:, 0],
                    a_prev=one["a"][:, 0])
    return _per_state(oracle.response_exact(oracle.t + 1, nxt), oracle.m)
