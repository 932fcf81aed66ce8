"""Pseudo-outcome construction for the second-stage regression.

All functions are pure array transforms of nuisance evaluations. For a
plan a_{t:t+tau} with plan propensities pi_j, plan indicators I_j,
responses mu_j, and tail weights W_{j+1} (each per unit per step):

  gamma = [prod_j I_j/pi_j] Y_{t+tau}
          + sum_j mu_j (1 - I_j/pi_j) prod_{k<j} I_k/pi_k
  rho   = prod_j pi_j + sum_j (I_j - pi_j) W_{j+1}(H_j) prod_{k<j} pi_k
  omega_t = pi_t W_{t+1}(H_t)

with empty products equal to 1, so at tau = 0 rho = I_t. gamma is
conditionally unbiased for mu_t given the history; rho is conditionally
unbiased for omega_t. For a contrast of plans a over b:

  gamma^{ab} = gamma^a - gamma^b,    mu^{ab} = mu_t^a - mu_t^b,
  rho^{ab} = rho^a omega_t^b + rho^b omega_t^a - omega_t^a omega_t^b,
  omega^{ab} = omega_t^a omega_t^b.

The second stage minimizes the overlap-weighted risk in its product form

  sum_i [rho_i g_i^2 - 2 q_i g_i],    q = rho mu + omega (gamma - mu),

whose coefficients rho and q (`risk_linear_term`) stay bounded wherever
the nuisances do. The ratio target q / rho is never formed, so no
denominator needs a guard. rho is conditionally unbiased for omega >= 0,
but single draws go negative, and a negative weight gives the empirical
objective a direction of negative curvature that a flexible second stage
exploits; so the second stage (`learners.train_wo`) always zeroes both
coefficients of a unit with rho <= 0. At tau = 0 with complementary arms
rho^{ab} = (A_t - pi_t)^2 and q = (Y - m)(A_t - pi_t), with m = pi_t mu^a
+ (1 - pi_t) mu^b: the objective is the R-learner's residual-on-residual
loss.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .core import ParameterError
from .nuisance import NuisanceEvaluation


@dataclass(frozen=True)
class PseudoConfig:
    """Kept for the benchmark, which passes `PseudoConfig(clamp_rho=True)`
    to `learners.train_learner`; nothing reads it. The second stage always
    clamps rho at zero, so any other value is refused."""

    clamp_rho: bool = True

    def __post_init__(self):
        if self.clamp_rho is not True:
            raise ParameterError(f"clamp_rho: {self.clamp_rho!r}; the unclamped weighting is "
                                 "gone, the second stage always clamps rho at zero")


@dataclass
class PseudoOutcomes:
    """Per-unit second-stage quantities of a plan contrast: the weighted
    risk's coefficients are rho and `risk_linear_term`."""

    gamma: np.ndarray
    rho: np.ndarray
    omega: np.ndarray
    mu: np.ndarray

    def to_csv(self, path, ids=None):
        """One row per unit: its id, then one column per field."""
        names = [f.name for f in fields(self)]
        ids = np.arange(len(self.rho)) if ids is None else ids
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", *names])
            for i, row in enumerate(zip(*(getattr(self, name) for name in names))):
                w.writerow([int(ids[i]), *(repr(float(v)) for v in row)])


def gamma_plan(ev: NuisanceEvaluation, y_final: np.ndarray) -> np.ndarray:
    """Iterated doubly-robust pseudo-outcome for one plan; conditionally
    unbiased for mu_t(H_t) when the nuisances are correct."""
    ratio = ev.ind / ev.pi
    lead = np.cumprod(ratio[:, :-1], axis=1)
    lead = np.concatenate([np.ones((ratio.shape[0], 1)), lead], axis=1)
    return lead[:, -1] * ratio[:, -1] * y_final + np.sum(ev.mu * (1.0 - ratio) * lead, axis=1)


def rho_plan(ev: NuisanceEvaluation) -> np.ndarray:
    """Overlap-weight pseudo-outcome; conditionally unbiased for omega_t."""
    lead = np.cumprod(ev.pi[:, :-1], axis=1)
    lead = np.concatenate([np.ones((ev.pi.shape[0], 1)), lead], axis=1)
    full = lead[:, -1] * ev.pi[:, -1]
    return full + np.sum((ev.ind - ev.pi) * ev.w_next * lead, axis=1)


def ipw_transform(ev_a: NuisanceEvaluation, ev_b: NuisanceEvaluation, y_final) -> np.ndarray:
    """Inverse-propensity pseudo-outcome for the contrast."""
    return (np.prod(ev_a.ind / ev_a.pi, axis=1) - np.prod(ev_b.ind / ev_b.pi, axis=1)) * y_final


def cate_pseudo(ev_a: NuisanceEvaluation, ev_b: NuisanceEvaluation, y_final) -> PseudoOutcomes:
    """Pseudo-outcomes targeting the effect contrast of plan a over plan b."""
    gamma = gamma_plan(ev_a, y_final) - gamma_plan(ev_b, y_final)
    om_a, om_b = ev_a.omega_t, ev_b.omega_t
    rho = rho_plan(ev_a) * om_b + rho_plan(ev_b) * om_a - om_a * om_b
    return PseudoOutcomes(gamma, rho, om_a * om_b, ev_a.mu[:, 0] - ev_b.mu[:, 0])


def risk_linear_term(out: PseudoOutcomes) -> np.ndarray:
    """Per-unit linear coefficient q = rho*mu + omega*(gamma - mu) of the
    weighted risk's dependence on the fitted function. With the quadratic
    coefficient rho it determines the objective up to a constant."""
    return out.rho * out.mu + out.omega * (out.gamma - out.mu)
