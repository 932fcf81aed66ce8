"""Numerical verification of the estimator's structural guarantees.

Each check exercises one identity or robustness property of the weighted
pseudo-outcome machinery against the known synthetic generators, using
oracle nuisances so that estimator structure is isolated from fitting
error:

  conditional means   E[gamma | H] = mu and E[rho | H] = omega, for single
                      plans and for contrasts, tested per history by Monte
                      Carlo over conditional observational rollouts; the
                      targets are the anchor column of the clean oracle
                      evaluations, which every completed row shares (so
                      the oracle evaluates that shared state once, not
                      once per row);
  risk equivalence    pairwise differences of the empirical weighted risk
                      match the population overlap-weighted excess risk,
                      and both rank a menu of candidate effect functions
                      identically;
  orthogonality       the pathwise derivative of the weighted risk responds
                      at second order (or not at all) to nuisance
                      perturbations, while the plug-in and
                      inverse-propensity objectives respond at first order;
  tau = 0 reduction   with a single-step plan and complementary arms the
                      risk coefficients are pointwise those of the
                      residual-on-residual (R-learner) objective; the
                      conditional mean E[rho | H] = pi (1 - pi) runs
                      through the same per-history harness as above.

The gates are the module constants below (Z_CONDITIONAL,
MIN_PASS_CONDITIONAL, Z_RISK, SLOPE_ORTHOGONAL, SLOPE_FIRST_ORDER,
SCALE_GRID, TOL_POINTWISE), not arguments, so no caller can loosen them.
A response that never clears the Monte Carlo noise floor is reported as
"inconclusive" rather than pass/fail on the slope; for the orthogonal
learner this is the expected outcome in families the identity cancels
exactly. All checks return a DiagnosticReport and are deterministic given
their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dgp
from .core import ParameterError, always_treat, never_treat
from .nuisance import OracleBackedNuisances
from .pseudo import cate_pseudo, gamma_plan, ipw_transform, rho_plan, risk_linear_term

Z_CONDITIONAL = 4.0
MIN_PASS_CONDITIONAL = 0.95
Z_RISK = 3.0
SLOPE_ORTHOGONAL = 1.8
SLOPE_FIRST_ORDER = 1.2
SCALE_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)
TOL_POINTWISE = 1e-10


@dataclass
class DiagnosticReport:
    name: str
    passed: bool
    summary: str
    detail: dict = field(default_factory=dict)

    def __str__(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.summary}"


def _se(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def _z(values, target):
    """(mean - target) / SE. An SE at most TOL_POINTWISE is rounding noise,
    not spread: the mean must then equal the target to TOL_POINTWISE (z = 0)
    or the z is infinite."""
    m = float(np.mean(values))
    se = _se(values)
    if se <= TOL_POINTWISE:
        return 0.0 if abs(m - target) <= TOL_POINTWISE else math.copysign(math.inf, m - target)
    return (m - target) / se


def _oracle_pair(config):
    """Oracle-backed nuisances of always- and never-treat at the
    configuration's anchor and horizon."""
    t, tau = config.eval_anchor, config.tau
    return tuple(OracleBackedNuisances(dgp.OracleNuisanceSet(config, plan(t, tau)))
                 for plan in (always_treat, never_treat))


def _oracle_panel(config, seed, n):
    """n simulated units and both arms' oracle evaluations on them at floor
    0: (data, ev_a, ev_b, y_final)."""
    data = dgp.simulate(config, seed=seed, n=n)
    ev_a, ev_b = (oracle.evaluate(data, floor=0.0) for oracle in _oracle_pair(config))
    return data, ev_a, ev_b, data.y[:, config.eval_anchor + config.tau]


def _conditional_mean_check(name, stat_fn, seed, n_histories, m, min_pass, config,
                            corrupt_mu=None):
    """Shared harness: per sampled history, compare Monte Carlo means of
    pseudo-outcome statistics to their oracle targets. `stat_fn` maps
    (ev_a, ev_b, y_final, targets) to {label: (values, target)}, where
    targets = (mu_a, mu_b, omega_a, omega_b) at the history. Every row of a
    completed panel shares the history at the anchor, so the targets are the
    anchor column of the clean evaluations."""
    config = config or dgp.DgpConfig.make("gamma", gamma=2.0)
    t, tau = config.eval_anchor, config.tau
    data = dgp.simulate(config, seed=seed, n=n_histories)
    na, nb = _oracle_pair(config)

    worst = 0.0
    n_ok = 0
    rows = []
    for i in range(n_histories):
        comp = dgp.conditional_rollout(config, data.subset([i]), t, m, seed=seed * 1000 + i)
        ev_a = na.evaluate(comp, floor=0.0)
        ev_b = nb.evaluate(comp, floor=0.0)
        targets = tuple(float(v) for v in (ev_a.mu[0, 0], ev_b.mu[0, 0],
                                           ev_a.omega_t[0], ev_b.omega_t[0]))
        if corrupt_mu is not None:
            # the double-robustness probe: shifted copies of the responses
            # enter the pseudo-outcomes, the targets stay clean
            ev_a, ev_b = (replace(ev, mu=ev.mu + corrupt_mu) for ev in (ev_a, ev_b))
        zs = {label: _z(values, target)
              for label, (values, target) in stat_fn(ev_a, ev_b, comp.y[:, t + tau], targets).items()}
        z_hist = max(abs(v) for v in zs.values())
        worst = max(worst, z_hist)
        ok = z_hist <= Z_CONDITIONAL
        n_ok += ok
        rows.append({"unit": i, "max_abs_z": z_hist, "z": zs, "ok": bool(ok)})

    frac = n_ok / n_histories
    return DiagnosticReport(
        name,
        frac >= min_pass,
        f"{n_ok}/{n_histories} histories within {Z_CONDITIONAL} SE (worst |z| = {worst:.2f})",
        {"fraction": frac, "worst_abs_z": worst, "histories": rows},
    )


def check_conditional_mean_gamma(seed=0, n_histories=50, m=20000, config=None,
                                 corrupt_mu=None) -> DiagnosticReport:
    """E[gamma | H] = mu per history, for one plan and for the contrast.

    With `corrupt_mu` the responses entering gamma are shifted while the
    oracle targets stay clean: the identity must still hold as long as the
    propensities are correct (double robustness)."""

    def stats(ev_a, ev_b, y_final, targets):
        mu_a, mu_b, _, _ = targets
        return {
            "gamma_capo": (gamma_plan(ev_a, y_final), mu_a),
            "gamma_cate": (gamma_plan(ev_a, y_final) - gamma_plan(ev_b, y_final), mu_a - mu_b),
        }

    return _conditional_mean_check("conditional_mean_gamma", stats, seed, n_histories, m,
                                   MIN_PASS_CONDITIONAL, config, corrupt_mu=corrupt_mu)


def check_conditional_mean_rho(seed=0, n_histories=50, m=20000, config=None) -> DiagnosticReport:
    """E[rho | H] = omega per history (single plan and contrast), plus the
    induced identity E[q | H] = omega^{ab} * effect for the weighted risk's
    linear coefficient q = `risk_linear_term`."""

    def stats(ev_a, ev_b, y_final, targets):
        mu_a, mu_b, om_a, om_b = targets
        po = cate_pseudo(ev_a, ev_b, y_final)
        cate = mu_a - mu_b  # effect of the contrast at this history
        return {
            "rho_capo": (rho_plan(ev_a), om_a),
            "rho_cate": (po.rho, om_a * om_b),
            "effect_num": (risk_linear_term(po), om_a * om_b * cate),
        }

    return _conditional_mean_check("conditional_mean_rho", stats, seed, n_histories, m,
                                   MIN_PASS_CONDITIONAL, config)


def _candidate_functions(truth, x):
    """Six candidate effect functions evaluated per unit; the first is the
    population risk minimizer (the truth itself)."""
    return {
        "truth": truth,
        "shifted": truth + 0.05,
        "scaled": 1.2 * truth,
        "constant": np.full_like(truth, float(truth.mean())),
        "sine": 0.3 * np.sin(x),
        "zero": np.zeros_like(truth),
    }


def check_risk_equivalence(seed=0, n=200000, config=None, candidates=None) -> DiagnosticReport:
    """Pairwise empirical-risk differences vs population overlap-weighted
    excess-risk differences, plus agreement of the risk ranking.

    Risk differences are computed in the expanded product form
    rho (mu - g)^2 + 2 omega (gamma - mu)(mu - g) whose g-dependent part
    equals that of the weighted risk rho g^2 - 2 q g. A single-candidate
    menu passes vacuously."""
    config = config or dgp.DgpConfig.make("gamma", gamma=2.0)
    data, ev_a, ev_b, y_final = _oracle_panel(config, seed, n)
    po = cate_pseudo(ev_a, ev_b, y_final)
    truth, omega = po.mu, po.omega  # the oracle's effect and overlap weight
    if candidates is None:
        candidates = _candidate_functions(truth, np.mean(data.x[:, config.eval_anchor], axis=-1))

    def emp(g):
        return po.rho * (po.mu - g) ** 2 + 2.0 * po.omega * (po.gamma - po.mu) * (po.mu - g)

    def pop(g):
        return omega * (g - truth) ** 2

    mean_omega = omega.mean()
    emp_risk = {k: float(emp(g).mean() / mean_omega) for k, g in candidates.items()}
    pop_risk = {k: float(pop(g).mean() / mean_omega) for k, g in candidates.items()}

    names = list(candidates)
    pairs = []
    worst = 0.0
    all_within = True
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            gi, gj = candidates[names[i]], candidates[names[j]]
            diff = (emp(gi) - emp(gj)) - (pop(gi) - pop(gj))
            z = abs(_z(diff / mean_omega, 0.0))
            worst = max(worst, z)
            ok = z <= Z_RISK
            all_within = all_within and ok
            pairs.append({"pair": (names[i], names[j]), "z": z, "ok": bool(ok)})

    argmin_emp = min(emp_risk, key=emp_risk.get)
    argmin_pop = min(pop_risk, key=pop_risk.get)
    ranking_ok = len(names) < 2 or argmin_emp == argmin_pop
    return DiagnosticReport(
        "risk_equivalence",
        all_within and ranking_ok,
        f"{len(pairs)} pairwise diffs worst |z| = {worst:.2f}; "
        f"argmin empirical = {argmin_emp!r}, population = {argmin_pop!r}",
        {"pairs": pairs, "empirical_risk": emp_risk, "population_risk": pop_risk},
    )


def _loglog_slope(scales, errs):
    x, y = np.log(np.asarray(scales)), np.log(np.asarray(errs))
    return float(np.polyfit(x, y, 1)[0])


def check_orthogonality(seed=0, n=200000, config=None) -> DiagnosticReport:
    """Pathwise-derivative response of each objective to nuisance
    perturbations of size r, on common random numbers.

    The statistic is the risk derivative at a fixed g != truth in a fixed
    direction dg: phi(r) = -2 E[(q - rho g) dg] for the weighted objective,
    with q = `risk_linear_term`, and the plug-in analogues
    for the response and inverse-propensity objectives. The weighted
    objective must respond at second order (log-log slope >=
    SLOPE_ORTHOGONAL) or not detectably at all ("inconclusive": the
    response never clears three Monte Carlo standard errors, the expected
    outcome in families the identity cancels exactly); the plug-in response
    to mu-perturbations and the inverse-propensity response to
    pi-perturbations must be first order (slope <= SLOPE_FIRST_ORDER)."""
    config = config or dgp.DgpConfig.make("gamma", gamma=1.0)
    t, steps = config.eval_anchor, config.tau + 1

    # The oracles are evaluated once per arm; each probe shifts copies of
    # the evaluations and floors them.
    data, clean_a, clean_b, y_final = _oracle_panel(config, seed, n)
    truth = cate_pseudo(clean_a, clean_b, y_final).mu
    g = truth + 0.3
    dg = np.tanh(np.mean(data.x[:, t], axis=-1) + 0.5)

    # Perturbation directions: a systematic component plus a covariate
    # oscillation; the propensity direction is scaled by pi (1 - pi) (a
    # logit-scale shift to first order) so perturbed values stay in (0, 1)
    # and the first-order learners show a clean linear response. The
    # propensity probe is one-sided: perturbing both arms in opposite
    # directions cancels the inverse-propensity learner's first-order
    # response through the generator's arm antisymmetry.
    dirs = 1.0 + np.cos(3.0 * np.mean(data.x[:, t : t + steps, :], axis=-1))
    p1 = clean_a.pi  # plan a treats at every step: P(A = 1 | H)
    d_pi = 0.5 * dirs * p1 * (1.0 - p1)
    d_mu = 0.3 * dirs
    d_w = 0.3 * dirs.copy()
    d_w[:, -1] = 0.0  # the final-step tail weight is identically one

    def derivatives(family, r):
        ev_a, ev_b = clean_a, clean_b
        if family == "pi":
            ev_a = replace(ev_a, pi=ev_a.pi + r * d_pi)
        elif family == "mu":
            ev_a, ev_b = replace(ev_a, mu=ev_a.mu + r * d_mu), replace(ev_b, mu=ev_b.mu - r * d_mu)
        elif family == "w":
            ev_a, ev_b = (replace(ev, w_next=ev.w_next + r * d_w) for ev in (ev_a, ev_b))
        ev_a, ev_b = ev_a.floored(1e-3), ev_b.floored(1e-3)
        po = cate_pseudo(ev_a, ev_b, y_final)
        return {
            "wo": -2.0 * (risk_linear_term(po) - po.rho * g) * dg,
            "ra": -2.0 * (po.mu - g) * dg,
            "ipw": -2.0 * (ipw_transform(ev_a, ev_b, y_final) - g) * dg,
        }

    base = derivatives(None, 0.0)
    families = {"pi": ("wo", "ipw"), "mu": ("wo", "ra"), "w": ("wo",)}
    results = {}
    for family, learner_names in families.items():
        per = {name: [] for name in learner_names}
        for r in SCALE_GRID:
            d = derivatives(family, r)
            for name in learner_names:
                diff = d[name] - base[name]
                per[name].append({"scale": r, "err": abs(float(diff.mean())),
                                  "se": _se(diff)})
        for name, rows in per.items():
            usable = [row for row in rows if row["se"] == 0.0 or row["err"] > 3.0 * row["se"]]
            if len(usable) < 3:
                zmax = max((row["err"] / row["se"] if row["se"] > 0 else 0.0) for row in rows)
                # not a failure: the response never clears the noise floor;
                # raise n to sharpen if a slope estimate is required
                results[(family, name)] = {"status": "inconclusive", "max_z": zmax,
                                           "rows": rows, "ok": name == "wo"}
            else:
                slope = _loglog_slope([row["scale"] for row in usable],
                                      [row["err"] for row in usable])
                ok = slope >= SLOPE_ORTHOGONAL if name == "wo" else slope <= SLOPE_FIRST_ORDER
                results[(family, name)] = {"status": "slope", "slope": slope,
                                           "rows": rows, "ok": bool(ok)}

    passed = all(r["ok"] for r in results.values())
    bits = []
    for (family, name), r in sorted(results.items()):
        tag = "inconclusive" if r["status"] == "inconclusive" else f"slope={r['slope']:.2f}"
        bits.append(f"{name}/{family}: {tag}")
    return DiagnosticReport(
        "orthogonality", passed, "; ".join(bits),
        {f"{name}:{family}": r for (family, name), r in results.items()},
    )


def check_r_learner_reduction(seed=0, n=4000, m=100000, n_histories=10,
                              config=None) -> DiagnosticReport:
    """Single-step (tau = 0) reduction for complementary arms.

    Verifies pointwise (i) omega^{ab} = pi (1 - pi); (ii) rho^{ab} =
    (A - pi)^2; (iii) the linear risk coefficient q = (Y - m)(A - pi), with
    m = pi mu_a + (1 - pi) mu_b. (ii) and (iii) make the weighted
    per-sample loss rho g^2 - 2 q g equal to the residual-on-residual loss
    (Y - m - (A - pi) g)^2 minus (Y - m)^2, for every candidate g. In
    conditional mean, E[rho | H] = pi (1 - pi) per history."""
    config = config or dgp.DgpConfig.make("gamma", tau=0)
    if config.tau != 0:
        raise ParameterError("the R-learner reduction needs a tau = 0 configuration")
    t = config.eval_anchor
    data, ev_a, ev_b, y = _oracle_panel(config, seed, n)

    e = ev_a.pi[:, 0]
    m_bar = e * ev_a.mu[:, 0] + (1.0 - e) * ev_b.mu[:, 0]
    resid_y, resid_a = y - m_bar, data.a[:, t] - e
    po = cate_pseudo(ev_a, ev_b, y)
    err_omega = float(np.max(np.abs(po.omega - e * (1.0 - e))))
    err_rho = float(np.max(np.abs(po.rho - resid_a**2)))
    scale = float(np.mean(resid_y**2)) + 1.0
    err_linear = float(np.max(np.abs(risk_linear_term(po) - resid_y * resid_a))) / scale
    err_max = max(err_omega, err_rho, err_linear)

    # E[rho | H] = omega^{ab} = pi (1 - pi) per history; every history must pass
    def stats(ev_a, ev_b, y_final, targets):
        _, _, om_a, om_b = targets
        return {"rho_cate": (cate_pseudo(ev_a, ev_b, y_final).rho, om_a * om_b)}

    mean_rep = _conditional_mean_check("r_learner_rho_mean", stats, seed, n_histories, m, 1.0,
                                       config)
    worst_z = mean_rep.detail["worst_abs_z"]

    return DiagnosticReport(
        "r_learner_reduction",
        err_max <= TOL_POINTWISE and mean_rep.passed,
        f"pointwise max err {err_max:.2e} "
        f"(tol {TOL_POINTWISE}); E[rho|H] worst |z| = {worst_z:.2f} over {n_histories} histories",
        {"err_omega": err_omega, "err_rho": err_rho, "err_linear_term": err_linear,
         "rho_mean_worst_z": worst_z},
    )


def verify_all(seed=0, fast=False):
    """Run every structural check; `fast` shrinks the Monte Carlo sizes."""
    if fast:
        return [
            check_conditional_mean_gamma(seed=seed, n_histories=10, m=4000),
            check_conditional_mean_rho(seed=seed, n_histories=10, m=4000),
            check_risk_equivalence(seed=seed, n=40000),
            check_orthogonality(seed=seed, n=40000),
            check_r_learner_reduction(seed=seed, n=1000, m=20000, n_histories=5),
        ]
    return [
        check_conditional_mean_gamma(seed=seed),
        check_conditional_mean_rho(seed=seed),
        check_risk_equivalence(seed=seed),
        check_orthogonality(seed=seed),
        check_r_learner_reduction(seed=seed),
    ]
