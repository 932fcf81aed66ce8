import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wolearn.core import always_treat, never_treat
from wolearn.nuisance import NuisanceEvaluation
from wolearn import pseudo
from wolearn.pseudo import (
    cate_pseudo,
    gamma_plan,
    ipw_transform,
    rho_plan,
    risk_linear_term,
)


def _random_eval(n=50, steps=2, seed=0, plan=None, pi_low=0.1):
    rng = np.random.default_rng(seed)
    plan = plan or always_treat(0, steps - 1)
    pi = rng.uniform(pi_low, 0.9, size=(n, steps))
    ind = (rng.uniform(size=(n, steps)) < pi).astype(float)
    mu = rng.normal(size=(n, steps))
    w_next = rng.uniform(0.1, 1.0, size=(n, steps))
    w_next[:, -1] = 1.0
    return NuisanceEvaluation(plan, pi, ind, mu, w_next)


def _reference_gamma(ev, y):
    # direct per-unit loop implementation of the iterated DR pseudo-outcome
    n, steps = ev.pi.shape
    out = np.empty(n)
    for i in range(n):
        ratio = ev.ind[i] / ev.pi[i]
        total = np.prod(ratio) * y[i]
        for j in range(steps):
            total += ev.mu[i, j] * (1.0 - ratio[j]) * np.prod(ratio[:j])
        out[i] = total
    return out


def _reference_rho(ev):
    n, steps = ev.pi.shape
    out = np.empty(n)
    for i in range(n):
        total = np.prod(ev.pi[i])
        for j in range(steps):
            total += (ev.ind[i, j] - ev.pi[i, j]) * ev.w_next[i, j] * np.prod(ev.pi[i, :j])
        out[i] = total
    return out


class TestPlanPseudoOutcomes:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100), steps=st.integers(1, 4))
    def test_gamma_matches_reference_loop(self, seed, steps):
        ev = _random_eval(n=20, steps=steps, seed=seed)
        y = np.random.default_rng(seed + 1).normal(size=20)
        np.testing.assert_allclose(gamma_plan(ev, y), _reference_gamma(ev, y), rtol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100), steps=st.integers(1, 4))
    def test_rho_matches_reference_loop(self, seed, steps):
        ev = _random_eval(n=20, steps=steps, seed=seed)
        np.testing.assert_allclose(rho_plan(ev), _reference_rho(ev), rtol=1e-10)

    def test_tau0_conventions(self):
        # One step: empty-product-one convention gives rho = indicator;
        # the collapse convention gives rho = pi.
        ev = _random_eval(n=30, steps=1, seed=5)
        np.testing.assert_allclose(rho_plan(ev, collapse_tau0=False), ev.ind[:, 0])
        np.testing.assert_allclose(rho_plan(ev, collapse_tau0=True), ev.pi[:, 0])

    def test_gamma_on_plan_followers_is_ipw_like(self):
        # A unit that follows the plan exactly has gamma = (prod 1/pi) y
        # plus zero correction terms beyond mu adjustments with ratio 1.
        ev = _random_eval(n=10, steps=2, seed=6)
        ev.ind[:] = 1.0
        y = np.ones(10)
        expect = np.prod(1.0 / ev.pi, axis=1) + np.sum(
            ev.mu * (1.0 - 1.0 / ev.pi)
            * np.concatenate([np.ones((10, 1)), 1.0 / ev.pi[:, :1]], axis=1),
            axis=1,
        )
        np.testing.assert_allclose(gamma_plan(ev, y), expect)

    def test_ipw_transform(self):
        ev_a = _random_eval(n=15, steps=2, seed=7)
        ev_b = _random_eval(n=15, steps=2, seed=8, plan=never_treat(0, 1))
        y = np.random.default_rng(9).normal(size=15)
        expect = (np.prod(ev_a.ind / ev_a.pi, axis=1)
                  - np.prod(ev_b.ind / ev_b.pi, axis=1)) * y
        np.testing.assert_allclose(ipw_transform(ev_a, ev_b, y), expect)


class TestContrastPseudoOutcomes:
    def test_cate_composition_rules(self):
        ev_a = _random_eval(n=40, steps=3, seed=10)
        ev_b = _random_eval(n=40, steps=3, seed=11, plan=never_treat(0, 2))
        y = np.random.default_rng(12).normal(size=40)
        po = cate_pseudo(ev_a, ev_b, y)
        rho_a, rho_b = rho_plan(ev_a), rho_plan(ev_b)
        om_a, om_b = ev_a.omega_t, ev_b.omega_t
        np.testing.assert_allclose(po.gamma, gamma_plan(ev_a, y) - gamma_plan(ev_b, y))
        np.testing.assert_allclose(po.rho, rho_a * om_b + rho_b * om_a - om_a * om_b)
        np.testing.assert_allclose(po.omega, om_a * om_b)
        np.testing.assert_allclose(po.mu, ev_a.mu[:, 0] - ev_b.mu[:, 0])

    def test_xi_identity_where_unguarded(self):
        ev_a = _random_eval(n=40, steps=2, seed=13)
        ev_b = _random_eval(n=40, steps=2, seed=14, plan=never_treat(0, 1))
        y = np.random.default_rng(15).normal(size=40)
        po = cate_pseudo(ev_a, ev_b, y)
        ok = ~po.guard_flag
        np.testing.assert_allclose(
            po.xi[ok], po.mu[ok] + (po.omega[ok] / po.rho[ok]) * (po.gamma[ok] - po.mu[ok]))
        # the linear risk coefficient equals rho * xi without the guard
        np.testing.assert_allclose(risk_linear_term(po)[ok], (po.rho * po.xi)[ok], rtol=1e-10)

    def test_guarded_xi_formula_and_bounded_linear_term(self, monkeypatch):
        # Where |rho| < eps the ratio denominator is replaced by
        # sign(rho) * eps; the linear risk coefficient never divides.
        ev_a = _random_eval(n=20, steps=1, seed=16)
        ev_b = _random_eval(n=20, steps=1, seed=26, plan=never_treat(0, 0))
        y = np.random.default_rng(17).normal(size=20) * 10
        monkeypatch.setattr(pseudo, "EPS_RHO", 0.5)
        with pytest.warns(UserWarning, match="guard"):
            po = cate_pseudo(ev_a, ev_b, y)
        hit = po.guard_flag
        assert hit.any() and not hit.all()
        guarded = np.where(po.rho < 0, -1.0, 1.0) * np.maximum(np.abs(po.rho), 0.5)
        np.testing.assert_allclose(
            po.xi[hit], po.mu[hit] + (po.omega[hit] / guarded[hit]) * (po.gamma - po.mu)[hit])
        q = risk_linear_term(po)
        assert np.isfinite(q).all()
        np.testing.assert_allclose(q, po.rho * po.mu + po.omega * (po.gamma - po.mu))

    def test_guard_flag_and_warning(self, monkeypatch):
        # tau=0 with complementary arms (pi_b = 1 - pi_a, I_b = 1 - I_a) and
        # the default indicator convention: rho^{ab} = (A - pi_a)^2, so the
        # units whose treatment the propensity predicted well are guarded
        ev_a = _random_eval(n=40, steps=1, seed=18)
        ev_b = NuisanceEvaluation(never_treat(0, 0), 1.0 - ev_a.pi, 1.0 - ev_a.ind,
                                  ev_a.mu, ev_a.w_next)
        monkeypatch.setattr(pseudo, "EPS_RHO", 0.1)
        with pytest.warns(UserWarning, match="guard"):
            po = cate_pseudo(ev_a, ev_b, np.zeros(40))
        residual2 = (ev_a.ind[:, 0] - ev_a.pi[:, 0]) ** 2
        np.testing.assert_allclose(po.rho, residual2, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(po.guard_flag, np.abs(po.rho) < 0.1)
        assert 0.0 < po.guard_rate == float(np.mean(np.abs(po.rho) < 0.1))

    def test_to_csv_roundtrip(self, tmp_path):
        import csv

        ev_a = _random_eval(n=6, steps=2, seed=21)
        ev_b = _random_eval(n=6, steps=2, seed=27, plan=never_treat(0, 1))
        po = cate_pseudo(ev_a, ev_b, np.random.default_rng(22).normal(size=6))
        path = tmp_path / "po.csv"
        po.to_csv(path, ids=np.arange(10, 16))
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        assert [int(r["id"]) for r in rows] == list(range(10, 16))
        np.testing.assert_allclose([float(r["xi"]) for r in rows], po.xi)
        np.testing.assert_allclose([float(r["rho"]) for r in rows], po.rho)


class TestConditionalUnbiasednessSmallMc:
    """Cheap direct Monte Carlo of the defining identities at one fixed
    history state with known truth, independent of the verify module."""

    def test_rho_unbiased_for_omega_two_steps(self):
        rng = np.random.default_rng(23)
        m = 200000
        # hand-built two-step world: step-1 propensity depends on step-0 arm
        p0 = 0.3
        p1_given = {1: 0.7, 0: 0.4}
        a0 = (rng.uniform(size=m) < p0).astype(float)
        p1 = np.where(a0 == 1, p1_given[1], p1_given[0])
        a1 = (rng.uniform(size=m) < p1).astype(float)
        pi = np.column_stack([np.full(m, p0), p1])
        ind = np.column_stack([a0, a1])
        # W_1(H_0) = E[pi_1 | H_0] over the observational step-0 arm
        w_true = p0 * p1_given[1] + (1.0 - p0) * p1_given[0]
        w_next = np.column_stack([np.full(m, w_true), np.ones(m)])
        ev = NuisanceEvaluation(always_treat(0, 1), pi, ind, np.zeros((m, 2)), w_next)
        rho = rho_plan(ev)
        omega_true = p0 * w_true
        se = rho.std(ddof=1) / np.sqrt(m)
        assert abs(rho.mean() - omega_true) < 4.0 * se

    def test_gamma_unbiased_for_mean_outcome(self):
        rng = np.random.default_rng(24)
        m = 200000
        p = 0.25
        a = (rng.uniform(size=m) < p).astype(float)
        y = 2.0 * a + rng.normal(size=m)  # E[Y | A=1] = 2
        ev = NuisanceEvaluation(
            always_treat(0, 0), np.full((m, 1), p), a[:, None], np.full((m, 1), 2.0),
            np.ones((m, 1)))
        g = gamma_plan(ev, y)
        se = g.std(ddof=1) / np.sqrt(m)
        assert abs(g.mean() - 2.0) < 4.0 * se
