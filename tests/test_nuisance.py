import numpy as np
import pytest

from wolearn.backbone import Hyperparameters, fit_regressor
from wolearn.core import ParameterError, always_treat, feature_matrix, never_treat
from wolearn.dgp import DgpConfig, OracleNuisanceSet, State, propensity_logit, sigmoid, simulate
from wolearn.nuisance import (
    MIN_FIT_UNITS,
    PROPENSITY_FLOOR,
    OracleBackedNuisances,
    _child_seed,
    fit_nuisances,
    fit_propensity_models,
    fit_response_models,
    fit_weight_models,
)

from monte_carlo import completed_panel

FAST = Hyperparameters(hidden=(8,), epochs=40)


def _setup(kind="gamma", tau=1, n=600, seed=0):
    cfg = DgpConfig.make(kind, n_train=n)
    data = simulate(cfg, seed=seed)
    t = cfg.T - 1 - tau
    return cfg, data, t, always_treat(t, tau)


def _assert_same_network(got, want):
    for (w1, b1), (w2, b2) in zip(got.params, want.params, strict=True):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)
    assert (got.y_mean, got.y_scale) == (want.y_mean, want.y_scale)


class TestChildSeed:
    def test_deterministic_and_distinct(self):
        assert _child_seed(0, 0xA, 1) == _child_seed(0, 0xA, 1)
        assert _child_seed(0, 0xA, 1) != _child_seed(0, 0xA, 2)
        assert _child_seed(0, 0xA, 1) != _child_seed(1, 0xA, 1)
        assert _child_seed(0, 0xA, 1) != _child_seed(0, 0xB, 1)


class TestOracleBacked:
    def test_matches_closed_forms(self):
        cfg, data, t, plan = _setup(n=40)
        ev = OracleBackedNuisances(OracleNuisanceSet(cfg, plan)).evaluate(data)
        st_ = State.from_dataset(data, t)
        p1 = sigmoid(propensity_logit(cfg, st_.x, st_.y_prev, st_.a_prev))
        np.testing.assert_allclose(ev.pi[:, 0], p1)
        np.testing.assert_array_equal(ev.ind[:, 0], (data.a[:, t] == 1).astype(float))
        np.testing.assert_allclose(ev.w_next[:, -1], 1.0)
        np.testing.assert_allclose(ev.omega_t, ev.pi[:, 0] * ev.w_next[:, 0])

    def test_floor_applies(self):
        cfg, data, t, plan = _setup("gamma", n=40)
        cfg = DgpConfig.make("gamma", gamma=8.0, n_train=40)
        data = simulate(cfg, seed=1)
        nu = OracleBackedNuisances(OracleNuisanceSet(cfg, always_treat(t, 1)))
        raw = nu.evaluate(data, floor=0.0)
        floored = nu.evaluate(data, floor=0.05)
        assert raw.pi.min() < 0.05
        assert floored.pi.min() >= 0.05
        np.testing.assert_allclose(floored.pi, np.clip(raw.pi, 0.05, 1.0))
        for bad in (1.0, 2.0, -0.1):  # a floor of 1 or more sets every pi to 1
            with pytest.raises(ParameterError, match="floor"):
                raw.floored(bad)

    def test_floor_zero_keeps_pi_positive(self):
        # A saturated propensity makes 1 - p1 exactly 0; at floor 0 the
        # evaluation still clips pi at 1e-12, so 1 / pi stays finite.
        cfg = DgpConfig.make("gamma", gamma=1e4, n_train=40)
        data = simulate(cfg, seed=1)
        t = cfg.eval_anchor
        oracle = OracleNuisanceSet(cfg, never_treat(t, 1))
        st_ = State.from_dataset(data, t)
        assert (oracle.propensity(t, st_) == 0.0).any()
        ev = OracleBackedNuisances(oracle).evaluate(data, floor=0.0)
        assert ev.pi.min() == 1e-12

    @staticmethod
    def _recording_evaluate(monkeypatch, oracle, data):
        """Evaluate `data`, recording how many rows each oracle call sees."""
        rows = {"propensity": [], "tail_weight": []}

        def recorded(real, calls):
            def call(j, st_):
                calls.append(len(st_.y_prev))
                return real(j, st_)
            return call

        for name, calls in rows.items():
            monkeypatch.setattr(oracle, name, recorded(getattr(oracle, name), calls))
        return OracleBackedNuisances(oracle).evaluate(data, floor=0.0), rows

    def test_shared_anchor_state_evaluated_once(self, monkeypatch):
        # Every row of a completed panel shares the history at the anchor,
        # so the oracle sees one row there; the next step is row by row.
        cfg = DgpConfig.make("gamma", gamma=2.0)
        t, m = cfg.eval_anchor, 300
        comp = completed_panel(cfg, simulate(cfg, seed=0, n=1), t, m, seed=0)
        oracle = OracleNuisanceSet(cfg, always_treat(t, 1))
        expect = []  # the oracle called row by row
        for j in (t, t + 1):
            st_ = State.from_dataset(comp, j)
            w = oracle.tail_weight(j, st_) if j == t else np.ones(m)
            expect.append((oracle.propensity(j, st_), oracle.response_exact(j, st_), w))
        ev, rows = self._recording_evaluate(monkeypatch, oracle, comp)
        assert rows == {"propensity": [1, m], "tail_weight": [1, m]}
        for k, (pi, mu, w) in enumerate(expect):
            assert np.array_equal(ev.pi[:, k], np.clip(pi, 1e-12, 1.0))
            assert np.array_equal(ev.mu[:, k], mu)
            assert np.array_equal(ev.w_next[:, k], w)

    def test_distinct_states_evaluated_row_by_row(self, monkeypatch):
        cfg, data, t, plan = _setup(n=40)
        _, rows = self._recording_evaluate(monkeypatch, OracleNuisanceSet(cfg, plan), data)
        assert rows == {"propensity": [40, 40], "tail_weight": [40, 40]}


class TestFittedNuisances:
    def test_propensity_fit_tracks_truth(self):
        cfg, data, t, plan = _setup(n=3000)
        models = fit_propensity_models(data, t, 1, hp=FAST, window=1)
        feats = feature_matrix(data, t, window=1)
        st_ = State.from_dataset(data, t)
        truth = sigmoid(propensity_logit(cfg, st_.x, st_.y_prev, st_.a_prev))
        pred = models[t].predict(feats)
        assert np.sqrt(np.mean((pred - truth) ** 2)) < 0.06

    def test_response_fit_tracks_truth(self):
        cfg, data, t, plan = _setup(n=3000)
        models, log = fit_response_models(data, (plan,), hp=FAST, window=1)
        assert [entry["time"] for entry in log] == [t + 1, t]
        feats = feature_matrix(data, t, window=1)
        st_ = State.from_dataset(data, t)
        truth = OracleNuisanceSet(cfg, plan).response_exact(t, st_)
        assert np.sqrt(np.mean((models[0, t].predict(feats) - truth) ** 2)) < 0.1

    def test_weight_fit_tracks_truth(self):
        cfg, data, t, plan = _setup(n=3000)
        prop = fit_propensity_models(data, t, 1, hp=FAST, window=1)
        wmods = fit_weight_models(data, (plan,), prop, hp=FAST, window=1)
        assert set(wmods) == {(0, t)}
        feats = feature_matrix(data, t, window=1)
        st_ = State.from_dataset(data, t)
        truth = OracleNuisanceSet(cfg, plan).tail_weight(t, st_)
        assert np.sqrt(np.mean((wmods[0, t].predict(feats) - truth) ** 2)) < 0.1

    def test_evaluation_shapes_and_floor(self):
        cfg, data, t, plan = _setup(n=300)
        (nu,) = fit_nuisances(data, (plan,), hp=FAST, window=1)
        ev = nu.evaluate(data, floor=PROPENSITY_FLOOR)
        n, steps = data.n, plan.horizon + 1
        assert ev.pi.shape == ev.ind.shape == ev.mu.shape == ev.w_next.shape == (n, steps)
        assert ev.pi.min() >= PROPENSITY_FLOOR
        assert ((ev.w_next >= 0) & (ev.w_next <= 1)).all()
        np.testing.assert_allclose(ev.w_next[:, -1], 1.0)

    def test_shared_propensities_across_arms(self):
        cfg, data, t, plan = _setup(n=300)
        na, nb = fit_nuisances(data, (plan, never_treat(t, 1)), hp=FAST, window=1)
        assert na.propensity_models is nb.propensity_models
        ev_a, ev_b = na.evaluate(data, floor=0.0), nb.evaluate(data, floor=0.0)
        np.testing.assert_allclose(ev_a.pi + ev_b.pi, 1.0)

    def test_lockstep_fits_equal_lone_fits(self):
        # Both plans' responses train as one stack per time, with the arms'
        # subsamples of different n, and every tail weight in one stack;
        # each network is bitwise the lone fit of its own problem and seed.
        cfg, data, t, plan = _setup(tau=2, n=300)
        plans = (plan, never_treat(t, 2))
        hp = Hyperparameters(hidden=(6,), epochs=3)
        fitted = fit_nuisances(data, plans, hp=hp, window=1, seed=7)
        feats = {j: feature_matrix(data, j, window=1) for j in range(t, t + 3)}
        sizes = set()
        for plan_, nu in zip(plans, fitted):
            target = data.y[:, t + 2]
            for j in (t + 2, t + 1, t):
                sel = data.a[:, j] == plan_.values[j - t]
                sizes.add(int(sel.sum()))
                lone = fit_regressor(feats[j][sel], target[sel], hp, _child_seed(7, 0xB, j))
                _assert_same_network(nu.response_models[j], lone)
                target = lone.predict(feats[j])
            pi_hat = np.column_stack([plan_.propensity(j, nu.propensity_models[j].predict(feats[j]))
                                      for j in range(t, t + 3)])
            for j in (t, t + 1):
                lone = fit_regressor(feats[j], np.prod(pi_hat[:, j - t + 1 :], axis=1), hp,
                                     _child_seed(7, 0xC, j))
                _assert_same_network(nu.weight_models[j], lone)
        assert len(sizes) == 6  # every response fit has its own n

    def test_constant_treatment_rejected(self, no_training):
        cfg, data, t, plan = _setup(n=30)
        data.a[:, t] = 1
        with pytest.raises(ParameterError, match=f"treatment at time {t} is constant"):
            fit_propensity_models(data, t, 0, hp=FAST, window=1)

    def test_plan_past_panel_end_rejected(self, no_training):
        cfg, data, t, plan = _setup(n=30)
        start = cfg.T - 1  # a one-step horizon from here ends at T
        with pytest.raises(ParameterError, match="past the trajectory length"):
            fit_nuisances(data, (always_treat(start, 1), never_treat(start, 1)), hp=FAST)

    def test_too_few_response_units_rejected(self, no_training):
        cfg, data, t, plan = _setup(n=100)
        data.a[:, t + 1] = 0
        data.a[: MIN_FIT_UNITS - 1, t + 1] = 1
        match = f"only {MIN_FIT_UNITS - 1} units take treatment 1 at time {t + 1};"
        with pytest.raises(ParameterError, match=match):
            fit_response_models(data, (plan,), hp=FAST, window=1)
