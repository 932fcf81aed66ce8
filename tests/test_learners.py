from dataclasses import replace

import numpy as np
import pytest

from wolearn import dgp, verify
from wolearn.backbone import Hyperparameters
from wolearn.core import Dataset, ParameterError, always_treat, never_treat
from wolearn.dgp import DgpConfig, simulate
from wolearn.learners import (
    LEARNERS,
    CateModel,
    evaluate_rmse,
    prepare_cell,
    run_experiment,
    train_baseline,
    train_learner,
    train_wo,
)
from wolearn.nuisance import PROPENSITY_FLOOR, fit_nuisances
from wolearn.pseudo import PseudoConfig, cate_pseudo, risk_linear_term

FAST = Hyperparameters(hidden=(8,), epochs=40)


def _small_cell(n=400, seed=0, window=1, **config_over):
    cfg = DgpConfig.make("gamma", n_train=n, **config_over)
    data = simulate(cfg, seed=seed)
    t = cfg.eval_anchor
    pa, pb = always_treat(t, cfg.tau), never_treat(t, cfg.tau)
    cell = prepare_cell(data, pa, pb, hp=FAST, seed=seed, window=window)
    return cfg, data, cell


class TestPrepareCell:
    def test_split_discipline(self):
        _, data, cell = _small_cell()
        assert not set(cell.nuis_split.ids.tolist()) & set(cell.stage2.ids.tolist())
        assert cell.nuis_split.n + cell.stage2.n == data.n
        assert cell.stage2.n == data.n // 2  # lambda = 0.5 single split

    def test_mismatched_plans_rejected(self):
        cfg = DgpConfig.make("gamma", n_train=20)
        data = simulate(cfg, seed=0)
        with pytest.raises(ParameterError):
            prepare_cell(data, always_treat(2, 1), never_treat(1, 1))
        with pytest.raises(ParameterError):
            prepare_cell(data, always_treat(2, 1), never_treat(2, 2))

    def test_unsupported_arm_rejected(self, no_training):
        # With A == 1 nobody follows never-treat: the contrast is not
        # identified, so preparing the cell must fail before any network
        # trains, not warn.
        cfg = DgpConfig.make("gamma", n_train=600)
        data = simulate(cfg, seed=0)
        treated = Dataset(data.x, np.ones_like(data.a), data.y)
        t = cfg.eval_anchor
        with pytest.raises(ParameterError, match=f"only 0 units take treatment 0 at time {t};"):
            prepare_cell(treated, always_treat(t, cfg.tau), never_treat(t, cfg.tau), hp=FAST)

    def test_overlapping_splits_rejected(self, monkeypatch):
        # Raised, not asserted, so the check survives python -O.
        cfg = DgpConfig.make("gamma", n_train=40)
        data = simulate(cfg, seed=0)
        t = cfg.eval_anchor
        monkeypatch.setattr("wolearn.learners.split_dataset",
                            lambda data, lam, seed: (data, data.subset(np.arange(5))))
        with pytest.raises(ParameterError, match="disjoint"):
            prepare_cell(data, always_treat(t, cfg.tau), never_treat(t, cfg.tau), hp=FAST)

    def test_pseudo_outcomes_computed_once_per_cell(self, monkeypatch):
        # train_wo, dr and ra each used to call cate_pseudo themselves
        calls = []

        def counting(*args):
            calls.append(args)
            return cate_pseudo(*args)

        monkeypatch.setattr("wolearn.learners.cate_pseudo", counting)
        _, _, cell = _small_cell()
        for name in (*LEARNERS, "ipw_nofloor"):
            train_learner(cell, name, hp=FAST, seed=0)
        assert len(calls) == 1
        expect = cate_pseudo(cell.ev_a, cell.ev_b, cell.y_final)
        for name in ("gamma", "rho", "omega", "mu"):
            np.testing.assert_array_equal(getattr(cell.pseudo, name), getattr(expect, name))

    def test_evaluations_equal_separate_calls(self):
        # prepare_cell evaluates each arm once and floors a copy; that must
        # give the bits of evaluating at the floor and at 0.0 separately.
        # The floor is high so that it clips on both paths.
        floor = 0.25
        cfg = DgpConfig.make("gamma", gamma=6.5, n_train=400)
        data = simulate(cfg, seed=3)
        t = cfg.eval_anchor
        pa, pb = always_treat(t, cfg.tau), never_treat(t, cfg.tau)
        cell = prepare_cell(data, pa, pb, hp=FAST, seed=3, window=1, floor=floor)
        arms = fit_nuisances(cell.nuis_split, (pa, pb), hp=FAST, window=1, seed=3)
        assert min(cell.ev_a_raw.pi.min(), cell.ev_b_raw.pi.min()) < floor
        for arm, ev, raw in zip(arms, (cell.ev_a, cell.ev_b), (cell.ev_a_raw, cell.ev_b_raw)):
            for got, at in ((ev, floor), (raw, 0.0)):
                want = arm.evaluate(cell.stage2, floor=at)
                for name in ("pi", "ind", "mu", "w_next"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_raw_propensities_unfloored(self):
        _, _, cell = _small_cell(gamma=6.5)
        # the default floor is 0.05, and it binds in the never-treat arm
        assert cell.ev_b.pi.min() == PROPENSITY_FLOOR == 0.05
        assert cell.ev_b_raw.pi.min() < PROPENSITY_FLOOR


class TestTraining:
    def test_all_learners_smoke(self):
        _, data, cell = _small_cell()
        test = data.subset(np.arange(30))
        for name in LEARNERS + ("ipw_nofloor",):
            model = train_learner(cell, name, hp=FAST, seed=0)
            assert model.name == name
            pred = model.predict(test)
            assert pred.shape == (30,) and np.isfinite(pred).all()

    def test_unknown_learner(self):
        _, _, cell = _small_cell()
        with pytest.raises(ParameterError):
            train_baseline(cell, "nope", hp=FAST)

    def test_deterministic(self):
        _, data, cell = _small_cell()
        test = data.subset(np.arange(20))
        p1 = train_wo(cell, hp=FAST, seed=0).predict(test)
        p2 = train_wo(cell, hp=FAST, seed=0).predict(test)
        np.testing.assert_array_equal(p1, p2)
        p3 = train_wo(cell, hp=FAST, seed=1).predict(test)
        assert not np.array_equal(p1, p3)

    def test_clamp_rho_drops_negative_weight_units(self):
        # a unit with rho <= 0 gets weight and linear term 0, so its gamma
        # and mu cannot move the fit
        _, data, cell = _small_cell(gamma=4.0, n=1000)
        po, test = cell.pseudo, data.subset(np.arange(10))
        drop = po.rho <= 0.0
        assert (po.rho < 0).any()  # poor overlap produces negative draws
        before = train_wo(cell, hp=FAST, seed=0).predict(test)
        cell.pseudo = replace(po, gamma=np.where(drop, 1e3, po.gamma),
                              mu=np.where(drop, -1e3, po.mu))
        np.testing.assert_array_equal(train_wo(cell, hp=FAST, seed=0).predict(test), before)

    def test_benchmark_pseudo_config_is_not_read(self):
        # the benchmark passes PseudoConfig(clamp_rho=True); no other value exists
        _, data, cell = _small_cell()
        test = data.subset(np.arange(10))
        with_config = train_learner(cell, "wo", hp=FAST,
                                    pseudo_config=PseudoConfig(clamp_rho=True), seed=0)
        np.testing.assert_array_equal(with_config.predict(test),
                                      train_wo(cell, hp=FAST, seed=0).predict(test))
        assert PseudoConfig().clamp_rho is True
        for value in (False, 1, "true"):
            with pytest.raises(ParameterError, match="unclamped weighting is gone"):
                PseudoConfig(clamp_rho=value)

    def test_ha_plan_feature_differencing(self):
        _, data, cell = _small_cell()
        model = train_learner(cell, "ha", hp=FAST, seed=0)
        assert model.plan_feature
        # identical plans must give identically zero effects
        clone = CateModel("ha", model.network, cell.plan_a, cell.plan_a,
                          window=cell.window, plan_feature=True)
        np.testing.assert_allclose(clone.predict(data.subset(np.arange(10))), 0.0)


class TestRiskProperties:
    def test_truth_beats_constants_in_empirical_risk(self):
        # With oracle nuisances the expanded empirical risk is minimized
        # near the true effect function among simple alternatives.
        cfg = DgpConfig.make("gamma")
        data, ev_a, ev_b, y_final = verify._oracle_panel(cfg, 0, 20000)
        po = cate_pseudo(ev_a, ev_b, y_final)
        q = risk_linear_term(po)
        t = cfg.eval_anchor
        truth = dgp.test_set_truth(cfg, data, t, always_treat(t, cfg.tau),
                                   never_treat(t, cfg.tau))

        def risk(g):
            return float(np.sum(po.rho * g * g - 2.0 * q * g) / np.sum(po.rho))

        r_truth = risk(truth)
        for c in (-0.5, 0.0, 0.2, 0.5, 1.0):
            assert r_truth <= risk(np.full(data.n, c)) + 1e-3

    def test_evaluate_rmse(self):
        class Flat:
            def predict(self, x):
                return np.zeros(x.shape[0])

        cfg = DgpConfig.make("gamma", n_train=10)
        data = simulate(cfg, seed=0)
        model = CateModel("x", Flat(), always_treat(3, 1), never_treat(3, 1))
        truth = np.full(10, 2.0)
        assert evaluate_rmse(model, data, truth) == pytest.approx(2.0)


class TestRunExperiment:
    def test_returns_rmse_per_learner_and_is_deterministic(self):
        cfg = DgpConfig.make("gamma", n_train=300, n_test=50)
        r1 = run_experiment(cfg, seed=0, learners=("wo", "ra"), hp=FAST, window=1)
        r2 = run_experiment(cfg, seed=0, learners=("wo", "ra"), hp=FAST, window=1)
        assert set(r1["rmse"]) == set(r1["seconds"]) == {"wo", "ra"}
        assert r1["rmse"] == r2["rmse"]  # the seconds are wall times
        assert list(r1["models"]) == ["wo", "ra"]
        assert len(r1["ids"]) == len(r1["pseudo"].rho) == 150  # the stage-2 half
        assert all(v > 0 for v in r1["seconds"].values())
        assert all(np.isfinite(v) for v in r1["rmse"].values())

    def test_tau_zero_cell_scores_every_learner(self):
        # at tau = 0 the plans have no tail, so no tail-weight model is fitted
        cfg = DgpConfig.make("gamma", tau=0, n_train=300, n_test=50)
        rmse = run_experiment(cfg, seed=0, hp=FAST, window=1)["rmse"]
        assert set(rmse) == set(LEARNERS)
        assert all(np.isfinite(v) for v in rmse.values())
