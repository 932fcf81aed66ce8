"""Pseudo-outcome construction for the second-stage regression.

All functions are pure array transforms of nuisance evaluations. For a
plan a_{t:t+tau} with plan propensities pi_j, plan indicators I_j,
responses mu_j, and tail weights W_{j+1} (each per unit per step):

  gamma = [prod_j I_j/pi_j] Y_{t+tau}
          + sum_j mu_j (1 - I_j/pi_j) prod_{k<j} I_k/pi_k
  rho   = prod_j pi_j + sum_j (I_j - pi_j) W_{j+1}(H_j) prod_{k<j} pi_k
  omega_t = pi_t W_{t+1}(H_t)

with empty products equal to 1. gamma is conditionally unbiased for mu_t
given the history; rho is conditionally unbiased for omega_t. For a
contrast of plans a over b:

  gamma^{ab} = gamma^a - gamma^b,    mu^{ab} = mu_t^a - mu_t^b,
  rho^{ab} = rho^a omega_t^b + rho^b omega_t^a - omega_t^a omega_t^b,
  omega^{ab} = omega_t^a omega_t^b,
  xi = mu + (omega / rho) (gamma - mu),

where the division is guarded: |rho| below eps_rho is replaced by
sign(rho) * eps_rho and the unit flagged. At tau = 0 the middle term of
rho admits two conventions for its leading empty product; with
`rho_tau0_collapse` it is dropped entirely so rho = pi_t, otherwise the
empty-product-one convention yields rho = I_t. Both make rho
conditionally unbiased for pi_t and the weighted objective reduces to an
R-learner form either way.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .nuisance import NuisanceEvaluation

GUARD_RATE_WARN = 0.20


@dataclass(frozen=True)
class PseudoConfig:
    eps_rho: float = 1e-6
    rho_tau0_collapse: bool = False
    # Clamp negative rho to zero when used as second-stage weights. rho is
    # conditionally unbiased for omega >= 0 but individual draws go
    # negative; negative weights make the empirical weighted objective
    # non-convex (directions of negative curvature), which a flexible
    # second stage will exploit.
    clamp_rho: bool = False


@dataclass
class PseudoOutcomes:
    """Per-unit second-stage quantities: regress xi on history features with
    sample weights rho."""

    gamma: np.ndarray
    rho: np.ndarray
    omega: np.ndarray
    mu: np.ndarray
    xi: np.ndarray
    guard_flag: np.ndarray

    @property
    def guard_rate(self) -> float:
        return float(self.guard_flag.mean())

    def to_csv(self, path, ids=None):
        ids = np.arange(len(self.xi)) if ids is None else ids
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "gamma", "rho", "xi", "omega_t", "guard_flag"])
            for i in range(len(self.xi)):
                w.writerow(
                    [int(ids[i]), repr(float(self.gamma[i])), repr(float(self.rho[i])),
                     repr(float(self.xi[i])), repr(float(self.omega[i])),
                     int(self.guard_flag[i])]
                )


def gamma_plan(ev: NuisanceEvaluation, y_final: np.ndarray) -> np.ndarray:
    """Iterated doubly-robust pseudo-outcome for one plan; conditionally
    unbiased for mu_t(H_t) when the nuisances are correct."""
    ratio = ev.ind / ev.pi
    lead = np.cumprod(ratio[:, :-1], axis=1)
    lead = np.concatenate([np.ones((ratio.shape[0], 1)), lead], axis=1)
    return lead[:, -1] * ratio[:, -1] * y_final + np.sum(ev.mu * (1.0 - ratio) * lead, axis=1)


def rho_plan(ev: NuisanceEvaluation, collapse_tau0: bool = False) -> np.ndarray:
    """Overlap-weight pseudo-outcome; conditionally unbiased for omega_t."""
    steps = ev.pi.shape[1]
    if steps == 1 and collapse_tau0:
        return ev.pi[:, 0].copy()
    lead = np.cumprod(ev.pi[:, :-1], axis=1)
    lead = np.concatenate([np.ones((ev.pi.shape[0], 1)), lead], axis=1)
    full = lead[:, -1] * ev.pi[:, -1]
    return full + np.sum((ev.ind - ev.pi) * ev.w_next * lead, axis=1)


def ipw_transform(ev_a: NuisanceEvaluation, ev_b: NuisanceEvaluation, y_final) -> np.ndarray:
    """Inverse-propensity pseudo-outcome for the contrast."""
    return (np.prod(ev_a.ind / ev_a.pi, axis=1) - np.prod(ev_b.ind / ev_b.pi, axis=1)) * y_final


def _guarded(rho: np.ndarray, eps: float):
    sign = np.where(rho < 0.0, -1.0, 1.0)
    flag = np.abs(rho) < eps
    return sign * np.maximum(np.abs(rho), eps), flag


def cate_pseudo(ev_a: NuisanceEvaluation, ev_b: NuisanceEvaluation, y_final,
                config: PseudoConfig = PseudoConfig()):
    """Pseudo-outcomes targeting the effect contrast of plan a over plan b."""
    gamma = gamma_plan(ev_a, y_final) - gamma_plan(ev_b, y_final)
    rho_a = rho_plan(ev_a, collapse_tau0=config.rho_tau0_collapse)
    rho_b = rho_plan(ev_b, collapse_tau0=config.rho_tau0_collapse)
    om_a, om_b = ev_a.omega_t, ev_b.omega_t
    rho = rho_a * om_b + rho_b * om_a - om_a * om_b
    omega = om_a * om_b
    mu = ev_a.mu[:, 0] - ev_b.mu[:, 0]
    rho_g, flag = _guarded(rho, config.eps_rho)
    out = PseudoOutcomes(gamma, rho, omega, mu, mu + omega / rho_g * (gamma - mu), flag)
    _warn_guard(out)
    return out


def risk_linear_term(out: PseudoOutcomes) -> np.ndarray:
    """Per-unit linear coefficient rho*mu + omega*(gamma - mu) of the
    weighted risk's dependence on the fitted function: the guard-free
    product rho * xi. With the quadratic coefficient rho it determines the
    objective up to a constant, and both stay bounded where xi itself does
    not."""
    return out.rho * out.mu + out.omega * (out.gamma - out.mu)


def _warn_guard(out: PseudoOutcomes):
    if out.guard_rate > GUARD_RATE_WARN:
        warnings.warn(
            f"denominator guard hit for {100 * out.guard_rate:.1f}% of units; "
            "overlap is likely too poor for a reliable fit",
            stacklevel=3,
        )
