"""Small fully-connected networks with hand-written reverse-mode gradients.

Two losses on flat feature vectors: logistic loss for binary
classification, and a weighted quadratic objective sum_i [w_i g_i^2 -
2 q_i g_i], which squared-error regression takes with unit weights and
q = y. The weights may be negative: the objective is normalized once by the
weights' total over the full training set so per-batch gradients stay
stable.

One trainer fits a stack of K same-shape networks in lockstep: their
parameters live in one (K, P) array with per-layer views into it, the
forward and backward passes are stacked matmuls, and Adam updates the whole
array at once. The only per-task input is the per-sample loss gradient.
Every network draws its initialization, epoch permutations and dropout
masks from its own seed, so its parameters are bitwise the same whether it
trains alone or in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import ParameterError, check_int, check_real, sigmoid

# Adam's moment decays and denominator guard, the usual defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Hyperparameters:
    """Training settings; optimization is Adam with the module's constants.
    The minibatch size is a constant of the trainer, not a setting."""

    hidden: tuple = (20,)
    learning_rate: float = 0.001
    epochs: int = 100
    dropout: float = 0.1
    seed: int = 0
    batch_size: ClassVar[int] = 64

    def __post_init__(self):
        object.__setattr__(self, "epochs", check_int(self.epochs, "epochs", 1))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))
        object.__setattr__(self, "hidden",
                           tuple(check_int(h, "hidden width", 1) for h in self.hidden))
        if check_real(self.learning_rate, "learning_rate") <= 0:
            raise ParameterError("learning_rate must be positive")
        if not 0.0 <= check_real(self.dropout, "dropout") < 1.0:
            raise ParameterError(f"dropout {self.dropout} outside [0, 1)")


def _size(dims):
    return sum(d_in * d_out + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def _layers(flat, dims):
    """Per-layer (W (..., d_in, d_out), b (..., d_out)) views into the
    parameters flat (..., P); writing to a view writes to `flat`."""
    lead = flat.shape[:-1]
    views, lo = [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = flat[..., lo : lo + d_in * d_out].reshape(*lead, d_in, d_out, copy=False)
        lo += d_in * d_out
        views.append((w, flat[..., lo : lo + d_out]))
        lo += d_out
    return views


def _init_params(flat, dims, rng):
    """He-normal weights into one network's zeroed parameters (P,)."""
    for w, _ in _layers(flat, dims):
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)


def _forward(layers, x, dropout=0.0, rngs=()):
    """Outputs (..., n) of a stack of networks on inputs x (..., n, d), and
    the per-layer activations and dropout masks for backprop. Biases must
    broadcast against (..., n, d_out). With dropout > 0 hidden units are
    dropped (inverted scaling); network k draws its masks from rngs[k]."""
    acts = [x]
    masks = [None]
    h = x
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        if i < len(layers) - 1:
            h = np.maximum(z, 0.0)
            keep = None
            if dropout > 0.0:
                draws = np.empty(h.shape)
                for k, rng in enumerate(rngs):
                    rng.random(out=draws[k])  # U[0, 1), drawn in place
                keep = (draws >= dropout) / (1.0 - dropout)
                h = h * keep
            masks.append(keep)
        else:
            h = z
            masks.append(None)
        acts.append(h)
    return h[..., 0], (acts, masks)


def _backward(layers, cache, dout, grads):
    """dout: gradient of the objective w.r.t. the linear outputs, (..., n).
    Writes the per-layer (dW, db) into `grads`, views shaped like `layers`."""
    acts, masks = cache
    delta = dout[..., None]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].mT, delta, out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if i > 0:
            # (acts > 0) covers the ReLU gate; the mask re-applies the
            # inverted-dropout keep/scale factor where one was used.
            delta = (delta @ layers[i][0].mT) * (acts[i] > 0.0)
            if masks[i] is not None:
                delta = delta * masks[i]


# Per-sample gradients of each loss w.r.t. the linear output; the columns
# after `pred` are the per-sample arrays a Problem carries.
def _logistic_grad(pred, y):
    return sigmoid(pred) - y


def _quadratic_grad(pred, w, q):
    # d/dg of w g^2 - 2 q g
    return 2.0 * (w * pred - q)


@dataclass
class _Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, x):
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        return cls(mean, scale)

    def apply(self, x):
        return (x - self.mean) / self.scale


class Network:
    """A trained network; `task` is "regression" or "classification"."""

    def __init__(self, params, x_std, task, y_mean=0.0, y_scale=1.0):
        self.params = params  # [(W (d_in, d_out), b (d_out,)) per layer]
        self.x_std = x_std
        self.task = task
        self.y_mean = y_mean
        self.y_scale = y_scale

    def predict(self, x):
        """Per row of x (n, d). Regression: predicted value. Classification:
        P(label = 1)."""
        out, _ = _forward(self.params, self.x_std.apply(np.asarray(x, dtype=float)))
        if self.task == "regression":
            return out * self.y_scale + self.y_mean
        return sigmoid(out)

    def save(self, path):
        arrays = {"task": np.array(self.task)}
        arrays["x_mean"], arrays["x_scale"] = self.x_std.mean, self.x_std.scale
        arrays["y_mean"], arrays["y_scale"] = np.array(self.y_mean), np.array(self.y_scale)
        for i, (w, b) in enumerate(self.params):
            arrays[f"w{i}"], arrays[f"b{i}"] = w, b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path):
        with np.load(path, allow_pickle=False) as z:
            n_layers = sum(1 for k in z.files if k.startswith("w"))
            params = [(z[f"w{i}"], z[f"b{i}"]) for i in range(n_layers)]
            return cls(
                params,
                _Standardizer(z["x_mean"], z["x_scale"]),
                str(z["task"]),
                float(z["y_mean"]),
                float(z["y_scale"]),
            )


@dataclass
class Problem:
    """One training problem as the trainer sees it: standardized inputs,
    the per-sample columns its loss gradient reads, and the output scaling
    of the network it yields. Build with `classification_problem` (logistic
    loss) or `quadratic_problem`; `regression_problem` is the quadratic
    objective with unit weights."""

    x: np.ndarray  # standardized inputs (n, d)
    columns: tuple  # per-sample arrays (n,), passed to loss_grad after pred
    loss_grad: object
    x_std: _Standardizer
    task: str
    y_mean: float = 0.0
    y_scale: float = 1.0


def _inputs(x, *per_sample):
    x = np.asarray(x, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in per_sample]
    if x.ndim != 2 or any(c.shape != (x.shape[0],) for c in cols):
        raise ParameterError("x must be (n, d) and per-sample arrays (n,)")
    if not (np.isfinite(x).all() and all(np.isfinite(c).all() for c in cols)):
        raise ParameterError("x and per-sample arrays must be finite")
    return (x, *cols)


def _weight_mass(weights):
    """(|w|, normalizing total) of signed sample weights."""
    abs_w = np.abs(weights)
    if abs_w.sum() < 1e-12:
        raise ParameterError("sample weights are all ~0; objective is undefined")
    total = weights.sum()
    # With signed weights the net sum can cancel toward zero; normalize by
    # the absolute mass instead so gradient scale stays bounded.
    if total < 0.01 * abs_w.sum():
        total = abs_w.sum()
    return abs_w, total


def classification_problem(x, y) -> Problem:
    """Logistic loss on binary labels y."""
    x, y = _inputs(x, y)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ParameterError("classification labels must be binary")
    x_std = _Standardizer.fit(x)
    return Problem(x_std.apply(x), (y,), _logistic_grad, x_std, "classification")


def regression_problem(x, y) -> Problem:
    """Squared error: the quadratic objective with unit weights and q = y,
    so the target is standardized by its mean and SD."""
    return quadratic_problem(x, np.ones(np.shape(y)), y)


def quadratic_problem(x, weights, linear) -> Problem:
    """(1/sum_i w_i) sum_i [w_i g(x_i)^2 - 2 q_i g(x_i)]; see
    `fit_weighted_quadratic`."""
    x, w, q = _inputs(x, weights, linear)
    n = x.shape[0]
    abs_w, total = _weight_mass(w)
    # Center at the weighted level and scale by the RMS of the centred
    # linear term per unit of weight; neither divides by an individual
    # weight. With unit weights these are the target's mean and SD.
    m = float(q.sum() / total)
    q_c = q - m * w
    s = float(np.sqrt(np.sum(q_c**2) / abs_w.sum()))
    if s < 1e-12:
        s = 1.0
    x_std = _Standardizer.fit(x)
    columns = (w * (n / total), (q_c / s) * (n / total))
    return Problem(x_std.apply(x), columns, _quadratic_grad, x_std, "regression", m, s)


def _train(problems, hps):
    """Minibatch Adam on a stack of same-shape problems in lockstep.
    Returns (parameters (K, P), layer dims)."""
    if not problems or len(problems) != len(hps):
        raise ParameterError("a stack needs one Hyperparameters per problem")
    first, hp = problems[0], hps[0]
    n, d = first.x.shape
    for p, h in zip(problems, hps):
        if p.x.shape != (n, d) or p.loss_grad is not first.loss_grad or replace(h, seed=hp.seed) != hp:
            raise ParameterError("stacked fits must share n, d, the loss and every "
                                 "hyperparameter but the seed")
    dims = [d, *hp.hidden, 1]
    k_nets = len(problems)
    rngs = [np.random.default_rng(np.random.SeedSequence((h.seed, 0xB0))) for h in hps]
    params = np.zeros((k_nets, _size(dims)))
    for row, rng in zip(params, rngs):
        _init_params(row, dims, rng)
    grads = np.zeros_like(params)
    m1 = np.zeros_like(params)
    m2 = np.zeros_like(params)
    layers = [(w, b[:, None, :]) for w, b in _layers(params, dims)]
    grad_layers = _layers(grads, dims)

    # Rows of network k's data sit at k*n .. k*n + n - 1, so one gather per
    # array fetches every network's minibatch; np.take gathers the same
    # rows as fancy indexing in about half the time.
    x = np.concatenate([p.x for p in problems])
    columns = np.stack([np.concatenate(c) for c in zip(*(p.columns for p in problems))])
    offsets = n * np.arange(k_nets)[:, None]
    step = 0
    for _ in range(hp.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        for lo in range(0, n, hp.batch_size):
            idx = order[:, lo : lo + hp.batch_size]
            pred, cache = _forward(layers, np.take(x, idx, axis=0), hp.dropout, rngs)
            dout = first.loss_grad(pred, *np.take(columns, idx, axis=1)) / idx.shape[1]
            _backward(layers, cache, dout, grad_layers)
            step += 1
            # Adam on the flat (K, P) arrays
            m1 = ADAM_BETA1 * m1 + (1 - ADAM_BETA1) * grads
            m2 = ADAM_BETA2 * m2 + (1 - ADAM_BETA2) * grads**2
            params -= (hp.learning_rate * (m1 / (1.0 - ADAM_BETA1**step))
                       / (np.sqrt(m2 / (1.0 - ADAM_BETA2**step)) + ADAM_EPS))
    return params, dims


def fit_stack(problems, hps) -> list:
    """Train K same-shape problems in lockstep: the same n, d and loss, and
    Hyperparameters that differ at most in the seed. Returns one Network per
    problem, each bitwise equal to fitting that problem alone."""
    params, dims = _train(problems, hps)
    return [Network([(w.copy(), b.copy()) for w, b in _layers(row, dims)],
                    p.x_std, p.task, p.y_mean, p.y_scale)
            for row, p in zip(params, problems)]


def fit_regressor(x, y, hp: Hyperparameters = Hyperparameters()) -> Network:
    return fit_stack([regression_problem(x, y)], [hp])[0]


def fit_weighted_quadratic(x, weights, linear, hp: Hyperparameters = Hyperparameters()) -> Network:
    """Minimize (1/sum_i w_i) sum_i [w_i g(x_i)^2 - 2 q_i g(x_i)].

    This is weighted least squares with weights w and implied targets q / w,
    but the targets are never formed: when w_i is near zero with q_i
    moderate, the ratio explodes while the quadratic coefficients stay
    bounded, so optimizing the product form directly is numerically stable.
    """
    return fit_stack([quadratic_problem(x, weights, linear)], [hp])[0]


def fit_classifier(x, y, hp: Hyperparameters = Hyperparameters()) -> Network:
    return fit_stack([classification_problem(x, y)], [hp])[0]


def gradient_check(seed: int = 0, task: str = "regression", eps: float = 1e-6) -> float:
    """Max relative error between backprop and central finite differences on
    a small random problem; validates the hand-written gradients. Regression
    checks the quadratic objective it trains, with signed weights."""
    rng = np.random.default_rng(seed)
    n, d = 12, 4
    x = rng.normal(size=(n, d))
    if task == "regression":
        y = rng.normal(size=n)
        w = rng.normal(size=n)  # exercise negative weights
    else:
        y = (rng.uniform(size=n) < 0.5).astype(float)
    dims = [d, 5, 3, 1]
    flat = np.zeros(_size(dims))
    _init_params(flat, dims, rng)
    layers = _layers(flat, dims)

    def objective():
        pred, _ = _forward(layers, x)
        if task == "regression":
            loss = w * pred * pred - 2.0 * y * pred
        else:
            p = sigmoid(pred)
            loss = -(y * np.log(p + 1e-12) + (1.0 - y) * np.log(1.0 - p + 1e-12))
        return float(np.sum(loss) / n)

    pred, cache = _forward(layers, x)
    dout = _quadratic_grad(pred, w, y) if task == "regression" else _logistic_grad(pred, y)
    grads = np.empty_like(flat)
    _backward(layers, cache, dout / n, _layers(grads, dims))

    worst = 0.0
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        up = objective()
        flat[k] = orig - eps
        down = objective()
        flat[k] = orig
        fd = (up - down) / (2.0 * eps)
        denom = max(abs(fd), abs(grads[k]), 1e-8)
        worst = max(worst, abs(fd - grads[k]) / denom)
    return worst
