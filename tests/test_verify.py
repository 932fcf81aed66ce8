import tracemalloc

import numpy as np
import pytest

from wolearn import dgp, pseudo, verify
from wolearn.core import ParameterError
from wolearn.verify import (
    DiagnosticReport,
    check_conditional_mean_gamma,
    check_conditional_mean_rho,
    check_orthogonality,
    check_r_learner_reduction,
    check_risk_equivalence,
)


class TestDiagnosticReport:
    def test_str_format(self):
        ok = DiagnosticReport("x", True, "fine")
        bad = DiagnosticReport("y", False, "broken")
        assert str(ok) == "[PASS] x: fine"
        assert str(bad) == "[FAIL] y: broken"


class TestZ:
    # a statistic with no Monte Carlo spread has an SE that is rounding
    # noise: it passes only if its mean equals the target to TOL_POINTWISE
    def test_constant_on_target_is_zero(self):
        assert verify._z(np.full(10000, 0.2), 0.2) == 0.0

    @pytest.mark.parametrize("values, target, z", [
        (np.full(10000, 0.25), 0.2, np.inf),
        (np.full(4, 0.2), 0.3, -np.inf),
    ])
    def test_constant_off_target_is_infinite(self, values, target, z):
        assert verify._z(values, target) == z


class TestConditionalMeans:
    def test_gamma_identity_holds(self):
        rep = check_conditional_mean_gamma(seed=0, n_histories=8, m=4000)
        assert rep.passed, rep.summary
        assert rep.detail["fraction"] >= 0.95

    def test_gamma_identity_survives_mu_corruption(self):
        # double robustness: wrong responses, correct propensities
        rep = check_conditional_mean_gamma(seed=0, n_histories=8, m=4000, corrupt_mu=0.5)
        assert rep.passed, rep.summary

    def test_rho_identity_holds(self):
        rep = check_conditional_mean_rho(seed=0, n_histories=8, m=4000)
        assert rep.passed, rep.summary

    @pytest.mark.parametrize("check", [check_conditional_mean_gamma, check_conditional_mean_rho],
                             ids=["gamma", "rho"])
    @pytest.mark.parametrize("kind", ["pi", "mu", "n"])
    def test_identities_hold_for_every_kind(self, kind, check):
        # the oracle's closed-form tail weight enters omega for every kind
        rep = check(seed=0, n_histories=20, m=4000, config=dgp.DgpConfig.make(kind, tau=1))
        assert rep.passed, rep.summary

    def test_detects_broken_target(self, monkeypatch):
        # sanity: an impossible tolerance must fail the check
        monkeypatch.setattr(verify, "Z_CONDITIONAL", 1e-4)
        rep = check_conditional_mean_gamma(seed=0, n_histories=5, m=4000)
        assert not rep.passed

    def test_deterministic(self):
        r1 = check_conditional_mean_rho(seed=3, n_histories=4, m=2000)
        r2 = check_conditional_mean_rho(seed=3, n_histories=4, m=2000)
        assert r1.detail == r2.detail

    @pytest.mark.parametrize("check", [
        check_conditional_mean_gamma, check_conditional_mean_rho,
        lambda **kw: check_conditional_mean_gamma(corrupt_mu=0.5, **kw)],
        ids=["gamma", "rho", "gamma_corrupt_mu"])
    def test_block_size_invariant(self, monkeypatch, check):
        # the statistics are computed one completed block at a time; blocks
        # of 7 rows give every z of one block of all m rows
        details = []
        for block in (7, 50):
            monkeypatch.setattr(dgp, "ROLLOUT_BLOCK", block)
            details.append(check(seed=0, n_histories=4, m=50).detail)
        assert details[0] == details[1]


class TestRiskEquivalence:
    def test_passes_and_ranks_truth_first(self):
        rep = check_risk_equivalence(seed=0, n=40000)
        assert rep.passed, rep.summary
        emp = rep.detail["empirical_risk"]
        pop = rep.detail["population_risk"]
        assert min(emp, key=emp.get) == "truth"
        assert min(pop, key=pop.get) == "truth"
        assert len(rep.detail["pairs"]) == 15

    def test_single_candidate_vacuous(self):
        cfg = dgp.DgpConfig.make("gamma", gamma=2.0)
        data = dgp.simulate(cfg, seed=0, n=100)
        st = dgp.State.from_dataset(data, cfg.eval_anchor)
        from wolearn.core import always_treat, never_treat

        truth = np.asarray(dgp.exact_cate(cfg, st, always_treat(3, 1), never_treat(3, 1)))
        rep = check_risk_equivalence(seed=0, n=100, candidates={"truth": truth})
        assert rep.passed
        assert rep.detail["pairs"] == []


class TestOrthogonality:
    def test_baselines_first_order_weighted_inconclusive_or_flat(self):
        rep = check_orthogonality(seed=0, n=40000)
        assert rep.passed, rep.summary
        ra = rep.detail["ra:mu"]
        ipw = rep.detail["ipw:pi"]
        assert ra["status"] == "slope" and ra["slope"] <= 1.2
        assert ipw["status"] == "slope" and ipw["slope"] <= 1.2
        for key in ("wo:pi", "wo:mu", "wo:w"):
            r = rep.detail[key]
            assert r["ok"]
            assert r["status"] == "inconclusive" or r["slope"] >= 1.8


POINTWISE_KEYS = ("err_omega", "err_rho", "err_linear_term")


class TestRLearnerReduction:
    def test_pointwise_and_mean_identities(self):
        rep = check_r_learner_reduction(seed=0, n=1000, m=10000, n_histories=4)
        assert rep.passed, rep.summary
        for key in POINTWISE_KEYS:
            assert rep.detail[key] <= verify.TOL_POINTWISE

    def test_memory_is_one_block(self):
        # the m = 100,000 completed rows are evaluated one block at a time:
        # one panel of all of them peaked near 40 MB
        tracemalloc.start()
        try:
            check_r_learner_reduction(seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_rejects_multi_step_config(self):
        # the pointwise identities and the E[rho|H] harness must test the
        # same single-step plans
        with pytest.raises(ParameterError, match="tau = 0"):
            check_r_learner_reduction(config=dgp.DgpConfig.make("gamma", tau=1))

    def test_conditional_mean_part_can_fail(self, monkeypatch):
        # an impossible E[rho|H] gate fails the check on its own: the
        # pointwise identities still hold to TOL_POINTWISE
        monkeypatch.setattr(verify, "Z_CONDITIONAL", 1e-4)
        rep = check_r_learner_reduction(seed=0, n=1000, m=10000, n_histories=4)
        assert not rep.passed
        assert rep.detail["rho_mean_worst_z"] > 1e-4
        for key in POINTWISE_KEYS:
            assert rep.detail[key] <= verify.TOL_POINTWISE

    def test_pointwise_part_can_fail(self, monkeypatch):
        # the dropped tau=0 convention, rho = pi at one step: omega^{ab} is
        # untouched, but the pointwise rho^{ab} = (A - pi)^2 breaks
        rho_plan = pseudo.rho_plan
        monkeypatch.setattr(pseudo, "rho_plan", lambda ev: (
            ev.pi[:, 0].copy() if ev.pi.shape[1] == 1 else rho_plan(ev)))
        rep = check_r_learner_reduction(seed=0, n=1000, m=10000, n_histories=4)
        assert not rep.passed
        assert rep.detail["err_rho"] > verify.TOL_POINTWISE
        assert rep.detail["err_omega"] <= verify.TOL_POINTWISE


class TestVerifyAll:
    def test_fast_suite_all_pass(self):
        reports = verify.verify_all(seed=0, fast=True)
        assert len(reports) == 5
        names = [r.name for r in reports]
        assert names == ["conditional_mean_gamma", "conditional_mean_rho",
                         "risk_equivalence", "orthogonality", "r_learner_reduction"]
        for r in reports:
            assert r.passed, str(r)
