from dataclasses import fields, replace

import numpy as np
import pytest

from wolearn.backbone import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Hyperparameters,
    Network,
    classification_problem,
    fit_classifier,
    fit_regressor,
    fit_stack,
    fit_weighted_quadratic,
    gradient_check,
    quadratic_problem,
    regression_problem,
)
from wolearn.core import ParameterError

FAST = Hyperparameters(hidden=(8,), epochs=200, learning_rate=0.01, dropout=0.0)


class TestGradientCheck:
    def test_regression_gradients(self):
        assert gradient_check(seed=0, task="regression") <= 1e-4

    def test_classification_gradients(self):
        assert gradient_check(seed=0, task="classification") <= 1e-4


class TestRegressor:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(600, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + 1.0
        net = fit_regressor(x, y, hp=FAST)
        pred = net.predict(x)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.15

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3))
        y = x.sum(axis=1)
        p1 = fit_regressor(x, y, hp=FAST).predict(x)
        p2 = fit_regressor(x, y, hp=FAST).predict(x)
        np.testing.assert_array_equal(p1, p2)
        p3 = fit_regressor(x, y, hp=Hyperparameters(hidden=(8,), epochs=60, seed=1)).predict(x)
        assert not np.array_equal(p1, p3)

    def test_constant_target(self):
        # the target has no spread to standardize by, so its scale stays 1
        x = np.random.default_rng(3).normal(size=(100, 2))
        pred = fit_regressor(x, np.full(100, 3.0), hp=FAST).predict(x)
        assert np.isfinite(pred).all() and np.abs(pred - 3.0).max() < 0.1

    def test_is_the_quadratic_objective_with_unit_weights(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 2))
        y = 3.0 + 2.0 * rng.normal(size=100)
        problem = regression_problem(x, y)
        y_mean = np.sum(y) / 100
        y_scale = np.sqrt(np.sum((y - y_mean) ** 2) / 100)
        assert problem.y_mean == y_mean and problem.y_scale == y_scale
        assert len(problem.columns) == 2
        np.testing.assert_array_equal(problem.columns[0], np.ones(100))
        np.testing.assert_array_equal(problem.columns[1], (y - y_mean) / y_scale)
        assert problem.loss_grad is quadratic_problem(x, np.ones(100), y).loss_grad

    def test_fit_equals_unit_weight_quadratic_fit(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(150, 3))
        y = x[:, 0] - 0.5 * x[:, 1] ** 2
        hp = Hyperparameters(hidden=(6, 4), epochs=5, seed=3)
        reg = fit_regressor(x, y, hp)
        quad = fit_weighted_quadratic(x, np.ones(150), y, hp)
        for (w1, b1), (w2, b2) in zip(reg.params, quad.params, strict=True):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        assert (reg.y_mean, reg.y_scale) == (quad.y_mean, quad.y_scale)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            fit_regressor(np.zeros(5), np.zeros(5))
        with pytest.raises(ParameterError):
            fit_regressor(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ParameterError, match="finite"):
            fit_regressor(np.zeros((5, 2)), np.array([0.0, 1.0, np.nan, 0.0, 1.0]))
        with pytest.raises(ParameterError, match="finite"):
            fit_regressor(np.full((5, 2), np.inf), np.zeros(5))


class TestClassifier:
    def test_recovers_probabilities(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3000, 1))
        p = 1.0 / (1.0 + np.exp(-2.0 * x[:, 0]))
        y = (rng.uniform(size=3000) < p).astype(float)
        net = fit_classifier(x, y, hp=FAST)
        pred = net.predict(x)
        assert ((pred > 0) & (pred < 1)).all()
        assert np.mean(np.abs(pred - p)) < 0.05

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ParameterError):
            fit_classifier(np.zeros((4, 1)), np.array([0.0, 0.5, 1.0, 1.0]))


class TestWeightedQuadratic:
    def test_matches_weighted_regression_on_benign_data(self):
        # With well-behaved weights, minimizing sum w g^2 - 2 q g with
        # q = w * target is weighted least squares on the target.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(600, 1))
        target = np.sin(x[:, 0])
        w = rng.uniform(0.5, 1.5, size=600)
        q = w * target
        net = fit_weighted_quadratic(x, w, q, hp=FAST)
        assert np.sqrt(np.mean((net.predict(x) - target) ** 2)) < 0.15

    def test_stable_under_near_zero_weights(self):
        # Rows where w ~ 0 but q is moderate have an exploding implied
        # target q / w; the product form must not chase them.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(500, 1))
        target = x[:, 0]
        w = rng.uniform(0.5, 1.5, size=500)
        q = w * target
        w[:10] = 1e-9
        q[:10] = 0.5  # implied target ~5e8
        net = fit_weighted_quadratic(x, w, q, hp=FAST)
        assert np.sqrt(np.mean((net.predict(x) - target) ** 2)) < 0.3

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 2))
        w = np.ones(80)
        q = x[:, 0]
        p1 = fit_weighted_quadratic(x, w, q, hp=FAST).predict(x)
        p2 = fit_weighted_quadratic(x, w, q, hp=FAST).predict(x)
        np.testing.assert_array_equal(p1, p2)

    def test_cancelling_weights_normalized_by_absolute_mass(self):
        # signed weights whose net sum is near 0 would blow up the scale
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 1))
        w = np.tile([1.0, -1.0], 50)
        w[0] += 1e-3
        problem = quadratic_problem(x, w, rng.normal(size=100))
        np.testing.assert_allclose(problem.columns[0], w * 100 / np.abs(w).sum())

    def test_linear_term_proportional_to_weights(self):
        # q = 2 w centres to exactly 0, leaving no spread to scale by
        rng = np.random.default_rng(10)
        x = rng.normal(size=(100, 1))
        w = rng.uniform(0.5, 1.5, size=100)
        problem = quadratic_problem(x, w, 2.0 * w)
        assert problem.y_mean == 2.0 and problem.y_scale == 1.0
        assert all(np.isfinite(c).all() for c in problem.columns)

    def test_validation(self):
        with pytest.raises(ParameterError):
            fit_weighted_quadratic(np.zeros((5, 1)), np.zeros(5), np.zeros(5))
        with pytest.raises(ParameterError):
            fit_weighted_quadratic(np.zeros((5, 1)), np.ones(4), np.zeros(5))


def _stack_inputs(n=203, d=3, k=3):
    rng = np.random.default_rng(8)
    xs = [rng.normal(size=(n, d)) for _ in range(k)]
    labels = [(rng.uniform(size=n) < 0.4).astype(float) for _ in range(k)]
    targets = [rng.normal(size=n) for _ in range(k)]
    weights = [rng.normal(0.3, 1.0, size=n) for _ in range(k)]  # signed, for the quadratic
    return xs, labels, targets, weights


def _reference_fit(problem, hp):
    """The per-network loop that the stacked trainer replaced: one array per
    layer weight and bias, Adam per array. Returns [W0, b0, W1, b1, ...]."""
    rng = np.random.default_rng(np.random.SeedSequence((hp.seed, 0xB0)))
    dims = [problem.x.shape[1], *hp.hidden, 1]
    params = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        params += [rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)), np.zeros(d_out)]
    n_layers = len(dims) - 1
    m1 = [np.zeros_like(p) for p in params]
    m2 = [np.zeros_like(p) for p in params]
    step = 0
    for _ in range(hp.epochs):
        order = rng.permutation(problem.x.shape[0])
        for lo in range(0, len(order), hp.batch_size):
            idx = order[lo : lo + hp.batch_size]
            h = problem.x[idx]
            acts, masks = [h], [None]
            for i in range(n_layers):
                h = h @ params[2 * i] + params[2 * i + 1]
                keep = None
                if i < n_layers - 1:
                    h = np.maximum(h, 0.0)
                    if hp.dropout > 0.0:
                        keep = (rng.uniform(size=h.shape) >= hp.dropout) / (1.0 - hp.dropout)
                        h = h * keep
                acts.append(h)
                masks.append(keep)
            delta = (problem.loss_grad(h[:, 0], *(c[idx] for c in problem.columns))
                     / len(idx))[:, None]
            grads = [None] * len(params)
            for i in range(n_layers - 1, -1, -1):
                grads[2 * i], grads[2 * i + 1] = acts[i].T @ delta, delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ params[2 * i].T) * (acts[i] > 0.0)
                    if masks[i] is not None:
                        delta = delta * masks[i]
            step += 1
            for k, g in enumerate(grads):
                m1[k] = ADAM_BETA1 * m1[k] + (1 - ADAM_BETA1) * g
                m2[k] = ADAM_BETA2 * m2[k] + (1 - ADAM_BETA2) * g**2
                params[k] = params[k] - hp.learning_rate * (m1[k] / (1.0 - ADAM_BETA1**step)) / (
                    np.sqrt(m2[k] / (1.0 - ADAM_BETA2**step)) + ADAM_EPS)
    return params


class TestStackedTraining:
    # n = 203 is not a multiple of the batch size, so the last batch is short
    @pytest.mark.parametrize("dropout", [0.0, 0.9])
    @pytest.mark.parametrize("loss", ["classification", "regression", "weighted quadratic"])
    def test_stack_members_equal_lone_fits(self, loss, dropout):
        xs, labels, targets, weights = _stack_inputs()
        hps = [Hyperparameters(hidden=(6, 4), epochs=5, dropout=dropout, seed=s)
               for s in (11, 12, 13)]
        if loss == "classification":
            problems = [classification_problem(x, y) for x, y in zip(xs, labels)]
            alone = [fit_classifier(x, y, hp=hp) for x, y, hp in zip(xs, labels, hps)]
        elif loss == "regression":
            problems = [regression_problem(x, y) for x, y in zip(xs, targets)]
            alone = [fit_regressor(x, y, hp=hp) for x, y, hp in zip(xs, targets, hps)]
        else:
            problems = [quadratic_problem(x, w, q) for x, w, q in zip(xs, weights, targets)]
            alone = [fit_weighted_quadratic(x, w, q, hp=hp)
                     for x, w, q, hp in zip(xs, weights, targets, hps)]
        for lone, problem, hp in zip(alone, problems, hps):
            flat = [a for layer in lone.params for a in layer]
            for got, want in zip(flat, _reference_fit(problem, hp), strict=True):
                np.testing.assert_array_equal(got, want)
        stacked = fit_stack(problems, hps)
        assert len(stacked) == 3
        for lone, member, x in zip(alone, stacked, xs):
            for (w1, b1), (w2, b2) in zip(lone.params, member.params):
                np.testing.assert_array_equal(w1, w2)
                np.testing.assert_array_equal(b1, b2)
            np.testing.assert_array_equal(lone.predict(x), member.predict(x))
        assert not np.array_equal(stacked[0].params[0][0], stacked[1].params[0][0])

    def test_mismatched_members_rejected(self):
        xs, labels, targets, _ = _stack_inputs(n=40)
        hp = Hyperparameters(hidden=(4,), epochs=1)
        same = [regression_problem(x, y) for x, y in zip(xs[:2], targets[:2])]
        shorter_n = regression_problem(xs[2][:30], targets[2][:30])
        wider_d = regression_problem(np.hstack([xs[2], xs[2]]), targets[2])
        other_loss = classification_problem(xs[2], labels[2])
        for odd in (shorter_n, wider_d, other_loss):
            with pytest.raises(ParameterError):
                fit_stack([*same, odd], [hp] * 3)
        for changed in (dict(dropout=0.5), dict(hidden=(5,)), dict(epochs=2)):
            with pytest.raises(ParameterError):
                fit_stack(same, [hp, replace(hp, **changed)])
        with pytest.raises(ParameterError):
            fit_stack(same, [hp])
        with pytest.raises(ParameterError):
            fit_stack([], [])


class TestNetworkIO:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2))
        y = x[:, 0]
        net = fit_regressor(x, y, hp=FAST)
        path = tmp_path / "model.npz"
        net.save(path)
        back = Network.load(path)
        np.testing.assert_array_equal(back.predict(x), net.predict(x))
        assert back.task == "regression"


class TestHyperparameters:
    def test_validation(self):
        # dropout 1 drops every hidden unit and the masks' rescaling divides by 0
        for bad in (dict(learning_rate=0.0), dict(dropout=1.0), dict(dropout=-0.1)):
            with pytest.raises(ParameterError):
                Hyperparameters(**bad)

    @pytest.mark.parametrize("bad, match", [
        (dict(epochs=2.5), "epochs"),
        (dict(epochs=0), "epochs=0 must be at least 1"),
        (dict(seed=1.5), "seed"),
        (dict(seed=-1), "seed"),
        (dict(hidden=(2.5,)), "hidden"),
        (dict(hidden=(0,)), "hidden"),
    ])
    def test_integer_fields_checked_when_built(self, bad, match):
        # each used to build and then fail in the fit, or to truncate silently
        with pytest.raises(ParameterError, match=match):
            Hyperparameters(**bad)

    @pytest.mark.parametrize("bad, match", [
        (dict(learning_rate=float("nan")), "learning_rate"),  # used to predict NaN
        (dict(learning_rate=float("inf")), "learning_rate"),
        (dict(learning_rate="0.1"), "learning_rate"),
        (dict(learning_rate=True), "learning_rate"),
        (dict(dropout="0.1"), "dropout"),
    ])
    def test_real_fields_checked_when_built(self, bad, match):
        with pytest.raises(ParameterError, match=match):
            Hyperparameters(**bad)

    def test_batch_size_is_a_constant(self):
        assert [f.name for f in fields(Hyperparameters)] == [
            "hidden", "learning_rate", "epochs", "dropout", "seed"]
        assert Hyperparameters().batch_size == Hyperparameters.batch_size == 64

    def test_integral_floats_become_ints(self):
        hp = Hyperparameters(hidden=(4.0,), epochs=2.0, seed=0.0)
        assert (hp.hidden, hp.epochs, hp.seed) == ((4,), 2, 0)
        assert all(type(v) is int for v in (*hp.hidden, hp.epochs, hp.seed))
