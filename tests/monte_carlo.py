"""Monte Carlo cross-checks of the closed-form ground truth in `wolearn.dgp`.

The package computes every truth, oracle response and oracle tail weight in
closed form (`dgp.expected_outcome`, `OracleNuisanceSet.tail_weight`);
these rollout estimates are the independent reference the tests hold the
closed forms to. Each takes its number of draws `m` and its `seed` as
arguments and returns a mean and its standard error.
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


def _rollout(oracle: dgp.OracleNuisanceSet, state: dgp.State, steps: int, m: int,
             entropy: tuple, forced=None):
    """`dgp.rollout` of m copies of every state, seeded by `entropy`."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return dgp.rollout(oracle.config, state.tile(m), steps, rng=rng, forced=forced)


def response_mc(oracle: dgp.OracleNuisanceSet, j: int, state: dgp.State, m: int, seed=0):
    """mu_j^plan by single-pass forced rollout of m copies of each state;
    returns (mean, se)."""
    steps = oracle.plan.end - j + 1
    forced = list(oracle.plan.values[j - oracle.plan.start :])
    out = _rollout(oracle, state, steps, m, (seed, 0xE5, 0), forced=forced)
    return _per_state(out["y"][:, -1], m)


def response_nested_mc(oracle: dgp.OracleNuisanceSet, state: dgp.State, m: int, seed=0):
    """mu_t^plan by the two-stage route: one forced step, then the exact
    next-stage response; cross-check for response_mc (tau = 1 only)."""
    if oracle.plan.horizon != 1:
        raise NotImplementedError("nested oracle implemented for tau = 1")
    one = _rollout(oracle, state, 2, m, (seed, 0xE6, 1), forced=[oracle.plan.values[0], None])
    nxt = dgp.State(x=one["x"][:, 1], x_prev=one["x"][:, 0], y_prev=one["y"][:, 0],
                    a_prev=one["a"][:, 0])
    return _per_state(oracle.response_exact(oracle.plan.start + 1, nxt), m)


def tail_weight_mc(oracle: dgp.OracleNuisanceSet, j: int, state: dgp.State, m: int, seed=0):
    """E[prod_{k=j+1}^{t+tau} pi_k^plan | H_j] by observational rollout of m
    copies of each state, for any number of remaining steps; returns
    (mean, se)."""
    steps = oracle.plan.end - j + 1
    out = _rollout(oracle, state, steps, m, (seed, 0xE7, 2))
    prod = np.ones(len(out["p1"]))
    for s in range(1, steps):
        prod *= oracle.plan.propensity(j + s, out["p1"][:, s])
    return _per_state(prod, m)
