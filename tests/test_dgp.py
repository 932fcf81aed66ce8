import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolearn import dgp
from wolearn.core import ParameterError, always_treat, never_treat, split_dataset
from wolearn.dgp import (
    DgpConfig,
    OracleNuisanceSet,
    State,
    _gauss_exp_moment,
    conditional_rollout,
    exact_cate,
    outcome_mean,
    propensity_logit,
    rollout,
    sigmoid,
    simulate,
)
from wolearn.dgp import test_set_truth as truth_for_test_set
from wolearn.nuisance import OracleBackedNuisances

from monte_carlo import (HorizonError, completed_panel, ground_truth_cate, response_mc,
                         response_nested_mc, tail_weight_mc)


class TestConfig:
    def test_family_defaults(self):
        assert DgpConfig.make("gamma").T == 5 and DgpConfig.make("gamma").d_x == 1
        assert DgpConfig.make("pi").T == 15
        assert DgpConfig.make("mu").d_x == 5 and DgpConfig.make("mu").T == 15
        assert DgpConfig.make("n").T == 5 and DgpConfig.make("n").d_x == 5

    def test_overrides_and_roundtrip(self):
        cfg = DgpConfig.make("gamma", gamma=6.5, n_train=2000)
        assert cfg.gamma == 6.5 and cfg.n_train == 2000
        assert DgpConfig(**cfg.to_dict()) == cfg

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown DGP kind 'nope'"):
            DgpConfig.make("nope")

    def test_unknown_kind_rejected_when_built(self):
        # built directly, the config fails at once, not inside simulate
        with pytest.raises(ParameterError, match="unknown DGP kind"):
            DgpConfig(kind="bogus", T=5, d_x=1, n_train=50, tau=1)

    def test_eval_anchor(self):
        assert DgpConfig.make("gamma", tau=1).eval_anchor == 3
        assert DgpConfig.make("pi", tau=7).eval_anchor == 7
        assert DgpConfig.make("gamma", tau=0).eval_anchor == 4

    def test_unknown_override_rejected(self):
        # the noise scales are constants of every kind, not settings
        for override in ({"seed": 3}, {"gama": 3}, {"sigma_y": -0.3}, {"sigma_x": -0.1},
                         {"sigma_y": math.inf}, {"sigma_x": math.nan}):
            (key,) = override
            with pytest.raises(ParameterError, match=f"unknown generator setting.*{key}"):
                DgpConfig.make("gamma", **override)

    def test_horizon_outside_panel_rejected(self):
        # gamma has T = 5: tau = 5 would put the anchor at -1
        for tau in (5, -1):
            with pytest.raises(ParameterError, match="tau"):
                DgpConfig.make("gamma", tau=tau)
        with pytest.raises(ParameterError, match="tau"):
            DgpConfig.make("pi", T=3, tau=3)

    @pytest.mark.parametrize("size", ["T", "d_x", "n_train", "n_test"])
    def test_sizes_below_one_rejected(self, size):
        with pytest.raises(ParameterError, match="at least 1"):
            DgpConfig.make("gamma", **{size: 0})

    @pytest.mark.parametrize("fault", [
        {"T": 2.5}, {"d_x": 1.5}, {"n_train": 100.5}, {"n_test": 2.5}, {"tau": 1.5},
        {"gamma": math.inf}, {"gamma": math.nan},
        {"gamma": True}, {"gamma": "6.5"}, {"gamma": None}, {"gamma": -math.inf},
    ])
    def test_bad_setting_fails_by_name_when_built(self, fault):
        # unchecked, each builds and then fails inside simulate, runs with a
        # fractional anchor, or (gamma=True) runs as gamma 1
        (name,) = fault
        with pytest.raises(ParameterError, match=name):
            DgpConfig.make("gamma", **fault)

    @pytest.mark.parametrize("kind", ["pi", "mu", "n"])
    def test_gamma_of_another_kind_rejected(self, kind):
        # only kind gamma reads gamma: make("pi", gamma=4.0) used to simulate
        # the panel of make("pi")
        assert DgpConfig.make(kind, gamma=1.0) == DgpConfig.make(kind)
        with pytest.raises(ParameterError, match=f"gamma=4.0 .*kind '{kind}'"):
            DgpConfig.make(kind, gamma=4.0)

    def test_integral_sizes_become_ints(self):
        cfg = DgpConfig.make("gamma", T=5.0, n_train=np.int64(40))
        assert type(cfg.T) is int and type(cfg.n_train) is int
        assert cfg == DgpConfig.make("gamma", T=5, n_train=40)


class TestSimulate:
    def test_shapes_and_determinism(self):
        cfg = DgpConfig.make("gamma", n_train=50)
        d1 = simulate(cfg, seed=3)
        d2 = simulate(cfg, seed=3)
        assert d1.x.shape == (50, 5, 1)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.a, d2.a)
        np.testing.assert_array_equal(d1.y, d2.y)
        d3 = simulate(cfg, seed=4)
        assert not np.array_equal(d1.y, d3.y)
        assert d1.meta["generator"] == "gamma" and d1.meta["seed"] == 3
        assert "seed" not in d1.meta["config"]

    @pytest.mark.parametrize("n, match", [(0, "at least 1"), (-1, "at least 1"),
                                          (2.5, "not an integer"), ("x", "not an integer")])
    def test_bad_panel_size_rejected(self, n, match):
        # an explicit n is held to n_train's rules
        cfg = DgpConfig.make("gamma", n_train=50)
        with pytest.raises(ParameterError, match=match):
            simulate(cfg, seed=0, n=n)

    @pytest.mark.parametrize("draw", ["simulate", "split_dataset", "conditional_rollout"])
    @pytest.mark.parametrize("seed", [1.5, -1, True, "a"])
    def test_bad_seed_rejected_by_name(self, draw, seed):
        # numpy used to raise a bare TypeError or ValueError for each, and
        # took True as the seed 1
        cfg = DgpConfig.make("gamma", n_train=10)
        data = simulate(cfg, seed=0)
        calls = {"simulate": lambda: simulate(cfg, seed),
                 "split_dataset": lambda: split_dataset(data, 0.5, seed),
                 "conditional_rollout": lambda: conditional_rollout(cfg, data.subset([0]), 2,
                                                                    m=3, seed=seed)}
        with pytest.raises(ParameterError, match="seed"):
            calls[draw]()

    @pytest.mark.parametrize("n", [3.0, "3"])
    def test_integral_panel_size_accepted(self, n):
        cfg = DgpConfig.make("gamma", n_train=50)
        data = simulate(cfg, seed=0, n=n)
        np.testing.assert_array_equal(data.y, simulate(cfg, seed=0, n=3).y)

    def test_covariate_marginals_stationary(self):
        # X_t = 0.5 X_{t-1} + eps with var(eps) = 0.75 keeps unit variance.
        cfg = DgpConfig.make("gamma", n_train=20000)
        data = simulate(cfg, seed=0)
        for t in range(cfg.T):
            assert abs(data.x[:, t, 0].std() - 1.0) < 0.03

    def test_covariates_autonomous(self):
        # Treatments never feed back into X: forcing different treatments
        # under common noise leaves the covariate path untouched.
        cfg = DgpConfig.make("gamma", n_train=10)
        data = simulate(cfg, seed=1)
        state = State.from_dataset(data.subset([0]), 1).tile(50)
        a, b = (rollout(cfg, state, 3, rng=np.random.default_rng(9), forced=[v] * 3)
                for v in (1, 0))
        np.testing.assert_allclose(a["x"], b["x"])
        assert not np.allclose(a["y"], b["y"])

    def test_rollout_obeys_forced_treatments(self):
        cfg = DgpConfig.make("gamma", n_train=5)
        data = simulate(cfg, seed=2)
        state = State.from_dataset(data.subset([2]), 2).tile(20)
        out = rollout(cfg, state, 3, rng=np.random.default_rng(0), forced=[1, 0, 1])
        np.testing.assert_array_equal(out["a"], np.tile([1.0, 0.0, 1.0], (20, 1)))

    def test_conditional_rollout_runs_to_panel_end(self):
        cfg = DgpConfig.make("gamma", n_train=5)
        data = simulate(cfg, seed=2)
        unit = data.subset([2])
        out = completed_panel(cfg, unit, 2, m=20, seed=0)
        assert out.y.shape == (20, cfg.T) and out.x.shape == (20, cfg.T, cfg.d_x)
        assert set(np.unique(out.a)) <= {0, 1}
        # the columns before the anchor are the unit's, the anchor
        # covariates too; from the anchor on the copies differ
        for arr, own in ((out.x, unit.x), (out.a, unit.a), (out.y, unit.y)):
            np.testing.assert_array_equal(arr[:, :2], np.repeat(own[:, :2], 20, axis=0))
        np.testing.assert_array_equal(out.x[:, 2], np.repeat(unit.x[:, 2], 20, axis=0))
        assert np.unique(out.y[:, cfg.T - 1]).size > 1
        again = completed_panel(cfg, unit, 2, m=20, seed=0)
        for arr, arr_again in ((out.x, again.x), (out.a, again.a), (out.y, again.y)):
            np.testing.assert_array_equal(arr, arr_again)
        with pytest.raises(ParameterError):
            conditional_rollout(cfg, data.subset([0, 1]), 2, m=5, seed=0)
        with pytest.raises(IndexError):
            conditional_rollout(cfg, unit, cfg.T, m=5, seed=0)

    @pytest.mark.parametrize("block", [7, 50, 10_000])
    def test_conditional_rollout_blocks_are_one_rollout(self, monkeypatch, block):
        # the blocks, concatenated, are one rollout of m tiled copies on the
        # call's noise, whatever the block size; all but the last are full
        cfg = DgpConfig.make("gamma", n_train=5)
        data = simulate(cfg, seed=2)
        m, anchor = 50, 2
        monkeypatch.setattr(dgp, "ROLLOUT_BLOCK", block)
        blocks = list(conditional_rollout(cfg, data.subset([2]), anchor, m=m, seed=4))
        assert [b.n for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert 1 <= blocks[-1].n <= block and sum(b.n for b in blocks) == m
        rng = np.random.default_rng(np.random.SeedSequence((4, 0xA0)))
        whole = rollout(cfg, State.from_dataset(data.subset([2]), anchor).tile(m),
                        cfg.T - anchor, rng=rng)
        panel = completed_panel(cfg, data.subset([2]), anchor, m=m, seed=4)
        for name in "xay":
            np.testing.assert_array_equal(getattr(panel, name)[:, anchor:], whole[name])
            np.testing.assert_array_equal(
                getattr(panel, name)[:, :anchor],
                np.repeat(getattr(data, name)[2:3, :anchor], m, axis=0))

    def test_conditional_rollout_checks_at_the_call(self, monkeypatch):
        # a bad argument raises before any block is asked for, and before
        # any draw
        cfg = DgpConfig.make("gamma", n_train=5)
        unit = simulate(cfg, seed=2).subset([2])

        def no_draw(*args):
            raise AssertionError("noise drawn before the arguments were checked")

        monkeypatch.setattr(dgp, "_draw_noise", no_draw)
        for kwargs, error in ((dict(m=0, seed=0), ParameterError),
                              (dict(m=5, seed=-1), ParameterError),
                              (dict(anchor=cfg.T, m=5, seed=0), IndexError)):
            with pytest.raises(error):
                conditional_rollout(cfg, unit, **{"anchor": 2, **kwargs})

    def test_conditional_rollout_copy_count_checked(self):
        # a fractional m used to complete int(m) copies without a word
        cfg = DgpConfig.make("gamma", n_train=5)
        unit = simulate(cfg, seed=2).subset([2])
        for m, match in ((2.9, "m: 2.9 is not an integer"), (True, "m: True"),
                         (0, "m=0 must be at least 1")):
            with pytest.raises(ParameterError, match=match):
                conditional_rollout(cfg, unit, 2, m=m, seed=0)
        assert completed_panel(cfg, unit, 2, m=2.0, seed=0).n == 2

    def test_presample_lags_are_zero_sentinels(self):
        # At anchor 0 the lags X_{-1}, Y_{-1}, A_{-1} are zero, and a
        # rollout from there covers the whole panel.
        cfg = DgpConfig.make("mu", n_train=4)
        data = simulate(cfg, seed=3)
        st_ = State.from_dataset(data, 0)
        np.testing.assert_array_equal(st_.x, data.x[:, 0, :])
        assert st_.x_prev.shape == (4, cfg.d_x)
        for lag in (st_.x_prev, st_.y_prev, st_.a_prev):
            assert not lag.any()
        with pytest.raises(IndexError):  # not the last column
            State.from_dataset(data, -1)
        out = completed_panel(cfg, data.subset([1]), 0, m=7, seed=0)
        assert out.y.shape == (7, cfg.T) and np.isfinite(out.y).all()
        np.testing.assert_array_equal(out.x[:, 0], np.repeat(data.x[1:2, 0], 7, axis=0))
        m = 4000
        state = State.from_dataset(data.subset([1]), 0).tile(m)
        rng = np.random.default_rng(np.random.SeedSequence((0, 0xA0)))
        planned = rollout(cfg, state, 2, rng=rng, forced=[1, 1])
        np.testing.assert_array_equal(planned["a"], 1.0)
        # the mu family's outcome reads X_{t-1}, so Y_0 sees the zero sentinel
        expect = outcome_mean(cfg, data.x[1:2, 0], np.zeros((1, cfg.d_x)), 1.0)[0]
        assert abs(planned["y"][:, 0].mean() - expect) < 4.0 * cfg.sigma_y / math.sqrt(m)


class TestClosedForms:
    def test_gauss_exp_moment_against_quadrature(self):
        from numpy.polynomial.hermite import hermgauss

        nodes, weights = hermgauss(80)
        for mean, var in [(0.0, 0.75), (1.3, 0.5), (-2.0, 2.0)]:
            z = mean + math.sqrt(2.0 * var) * nodes
            num = (np.exp(-(z**2)) * weights).sum() / math.sqrt(math.pi)
            assert abs(_gauss_exp_moment(mean, var) - num) < 1e-12

    def test_exact_cate_at_origin(self):
        # gamma family, tau=1, X_t=0: CATE = 0.5 E[exp(-X'^2)] with
        # X' ~ N(0, 0.75), i.e. 0.5 / sqrt(2.5).
        cfg = DgpConfig.make("gamma")
        state = State(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        val = exact_cate(cfg, state, always_treat(3, 1), never_treat(3, 1))
        np.testing.assert_allclose(val, 0.5 / math.sqrt(2.5))
        np.testing.assert_allclose(val, 0.31623, atol=5e-6)

    def test_exact_cate_agrees_with_monte_carlo(self):
        for kind, tau, d_x in [("gamma", 1, 1), ("gamma", 2, 1), ("gamma", 2, 3), ("pi", 3, 1),
                               ("mu", 1, 5)]:
            cfg = DgpConfig.make(kind, n_train=5, d_x=d_x)
            data = simulate(cfg, seed=5)
            t = cfg.T - 1 - tau
            pa, pb = always_treat(t, tau), never_treat(t, tau)
            for i in range(3):
                unit = data.subset([i])
                mc, se = ground_truth_cate(cfg, unit, t, pa, pb, m=40000, seed=i)
                ex = exact_cate(cfg, State.from_dataset(unit, t), pa, pb)
                assert abs(mc - float(ex[0])) < 4.0 * se + 1e-4, (kind, tau, d_x, i)

    def test_ground_truth_cate_checks_plans(self):
        cfg = DgpConfig.make("gamma", n_train=2)
        unit = simulate(cfg, seed=0).subset([0])
        with pytest.raises(ParameterError):  # plans off the anchor
            ground_truth_cate(cfg, unit, 2, always_treat(3, 1), never_treat(3, 1), m=10)
        with pytest.raises(HorizonError):
            ground_truth_cate(cfg, unit, 3, always_treat(3, 2), never_treat(3, 2), m=10)

    def test_test_set_truth_uses_exact_form(self):
        cfg = DgpConfig.make("gamma", n_train=8)
        data = simulate(cfg, seed=6)
        t = cfg.eval_anchor
        truth = truth_for_test_set(cfg, data, t, always_treat(t, 1), never_treat(t, 1))
        ex = exact_cate(cfg, State.from_dataset(data, t), always_treat(t, 1), never_treat(t, 1))
        np.testing.assert_allclose(truth, ex)

    def test_test_set_truth_matches_monte_carlo(self):
        # Kind n's truth is a series per covariate dimension, and kind mu's
        # past tau = 1 a quadrature; the per-history Monte Carlo oracle must
        # agree. At d_x = 1 the series' Bessel arguments are largest.
        for kind, tau, d_x in [("n", 1, 5), ("n", 3, 5), ("mu", 3, 5), ("n", 1, 1),
                               ("n", 2, 1)]:
            cfg = DgpConfig.make(kind, n_train=3, tau=tau, d_x=d_x)
            data = simulate(cfg, seed=7)
            t = cfg.eval_anchor
            pa, pb = always_treat(t, tau), never_treat(t, tau)
            truth = truth_for_test_set(cfg, data, t, pa, pb)
            for i in range(3):
                mc, se = ground_truth_cate(cfg, data.subset([i]), t, pa, pb, m=40000, seed=i)
                assert abs(truth[i] - mc) < 4.0 * se, (kind, tau, d_x, i)


def _nested_level(x, delta, n_nodes=200):
    """Kind n's level 0.5 E[exp(-S^2)], S = mean_p cos X_{j+delta,p}, by
    nested Gauss-Hermite rules: exp(-S^2) = E[cos(2 U S)], U ~ N(0, 1/2),
    outside, and E[exp(2i U cos Z_p / d)] per dimension inside, `n_nodes`
    nodes each."""
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(n_nodes)
    d = x.shape[-1]
    var = DgpConfig.sigma_x**2 * sum(0.25**i for i in range(delta))
    z = 0.5**delta * x[..., None] + math.sqrt(2.0 * var) * nodes
    moment = 0.0
    for u, w in zip(nodes, weights):
        phi = (np.exp((2j * u / d) * np.cos(z)) * weights).sum(axis=-1) / math.sqrt(math.pi)
        moment += w * np.prod(phi, axis=-1).real
    return 0.5 * moment / math.sqrt(math.pi)


class TestKindNLevel:
    @pytest.mark.parametrize("d_x", [1, 2, 5, 20])
    @pytest.mark.parametrize("delta", [1, 2, 3, 7])
    def test_level_matches_fine_nested_quadrature(self, d_x, delta):
        # At d_x = 1 the inner integrand oscillates fastest (a = 2u/d_x
        # reaches 21), where a 64-node inner rule is off by up to 6e-10;
        # the series is exact to rounding.
        cfg = DgpConfig.make("n", d_x=d_x)
        x = np.random.default_rng(d_x * 10 + delta).normal(0.0, 2.0, size=(6, d_x))
        level = dgp._expected_level(cfg, x, delta)
        assert np.abs(level - _nested_level(x, delta)).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d_x=st.integers(1, 20), delta=st.integers(1, 7))
    def test_level_bounded_and_symmetric(self, data, d_x, delta):
        # 0.5 E[exp(-S^2)] lies in (0, 0.5]; S's law is unchanged when X
        # becomes -X or the dimensions are relabelled.
        cfg = DgpConfig.make("n", d_x=d_x)
        x = np.array(data.draw(st.lists(st.floats(-6, 6), min_size=d_x, max_size=d_x)))
        order = data.draw(st.permutations(range(d_x)))
        level = dgp._expected_level(cfg, x, delta)
        assert 0.0 < level <= 0.5
        assert abs(dgp._expected_level(cfg, -x, delta) - level) <= 1e-15
        assert abs(dgp._expected_level(cfg, x[list(order)], delta) - level) <= 1e-15


class TestOracleNuisances:
    def _setup(self, kind="gamma", tau=1, n=4, **config_over):
        cfg = DgpConfig.make(kind, n_train=n, **config_over)
        data = simulate(cfg, seed=8)
        t = cfg.T - 1 - tau
        plan = always_treat(t, tau)
        return cfg, data, t, OracleNuisanceSet(cfg, plan)

    def test_propensity_closed_form(self):
        cfg, data, t, oracle = self._setup()
        st_ = State.from_dataset(data, t)
        p = oracle.propensity(t, st_)
        expect = sigmoid(propensity_logit(cfg, st_.x, st_.y_prev, st_.a_prev))
        np.testing.assert_allclose(p, expect)
        never = OracleNuisanceSet(cfg, never_treat(t, 1))
        np.testing.assert_allclose(never.propensity(t, st_), 1.0 - expect)

    def test_response_exact_vs_mc(self):
        for kind, tau in [("gamma", 1), ("pi", 2), ("mu", 1), ("n", 2), ("mu", 3)]:
            cfg, data, t, oracle = self._setup(kind, tau)
            st_ = State.from_dataset(data, t)
            mc, se = response_mc(oracle, t, st_, m=20000)
            ex = oracle.response_exact(t, st_)
            assert (np.abs(mc - ex) < 4.0 * se + 1e-3).all(), (kind, tau)

    def test_response_nested_mc_cross_check(self):
        cfg, data, t, oracle = self._setup("gamma", 1)
        st_ = State.from_dataset(data, t)
        nested, se = response_nested_mc(oracle, st_, m=20000)
        ex = oracle.response_exact(t, st_)
        assert (np.abs(nested - ex) < 4.0 * se + 1e-3).all()

    @pytest.mark.parametrize("kind, d_x", [("gamma", 1), ("gamma", 5), ("pi", 1), ("pi", 5),
                                           ("mu", 1), ("mu", 5), ("n", 1), ("n", 5)])
    def test_tail_weight_quadrature_vs_mc(self, kind, d_x):
        # One quadrature serves every kind and dimension: kind mu's outcome
        # reads X_{t-1}, and the mean of d_x noises has variance sigma_x^2 / d_x.
        cfg, data, t, oracle = self._setup(kind, 1, d_x=d_x)
        st_ = State.from_dataset(data, t)
        quad = oracle.tail_weight(t, st_)
        mc, se = tail_weight_mc(oracle, t, st_, m=40000)
        assert ((quad > 0) & (quad < 1)).all()
        assert (np.abs(quad - mc) < 4.0 * se + 1e-4).all(), (quad, mc, se)

    def test_tail_weight_terminal_step_is_one(self):
        cfg, data, t, oracle = self._setup("gamma", 1)
        st_ = State.from_dataset(data, t + 1)
        np.testing.assert_allclose(oracle.tail_weight(t + 1, st_), 1.0)

    def test_tail_weight_two_remaining_steps_rejected(self):
        cfg, data, t, oracle = self._setup("gamma", 2)
        with pytest.raises(ParameterError, match="at most one remaining step"):
            oracle.tail_weight(t, State.from_dataset(data, t))

    def test_omega_bounded(self):
        cfg, data, t, oracle = self._setup("mu", 1)
        om = OracleBackedNuisances(oracle).evaluate(data).omega_t
        assert ((om >= 0) & (om <= 1)).all()


class TestOutcomeFunctions:
    @settings(max_examples=30, deadline=None)
    @given(a=st.sampled_from([0.0, 1.0]), x=st.floats(-3, 3))
    def test_gamma_outcome_antisymmetric_in_arm(self, a, x):
        cfg = DgpConfig.make("gamma")
        xv = np.array([[x]])
        m1 = outcome_mean(cfg, xv, None, a)
        m0 = outcome_mean(cfg, xv, None, 1.0 - a)
        np.testing.assert_allclose(m1, -m0, atol=1e-12)

    def test_mu_outcome_reads_lagged_covariate(self):
        cfg = DgpConfig.make("mu")
        x_t = np.random.default_rng(0).normal(size=(4, 5))
        xp1 = np.random.default_rng(1).normal(size=(4, 5))
        xp2 = np.random.default_rng(2).normal(size=(4, 5))
        assert not np.allclose(outcome_mean(cfg, x_t, xp1, 1.0),
                               outcome_mean(cfg, x_t, xp2, 1.0))
