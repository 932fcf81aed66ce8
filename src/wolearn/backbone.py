"""Small fully-connected networks with hand-written reverse-mode gradients.

Two losses on flat feature vectors: logistic loss for binary
classification, and a weighted quadratic objective sum_i [w_i g_i^2 -
2 q_i g_i], which squared-error regression takes with unit weights and
q = y. The weights may be negative: the objective is normalized once by the
weights' total over the full training set so per-batch gradients stay
stable.

One trainer fits a stack of K networks in lockstep: their parameters live
in one (K, P) array with per-layer views into it, the forward and backward
passes are stacked matmuls, and Adam updates the array in place. The
members share d, the loss and one Hyperparameters, and each has its own
seed; their row counts n_k may differ. The only per-task input is the
per-sample loss gradient. Every network draws its initialization, epoch
permutations and dropout masks from its seed, so its parameters are bitwise
the same whether it trains alone or in a stack.

Global step s is the s-th minibatch and Adam step of every member that has
one left; members are ordered by their number of steps, so those still
training are a prefix of the stack. A step in which they all have the same
batch size is one stacked pass over the prefix, as is every step of a stack
of equal n; a step in which their batch sizes differ (a member's short last
batch of an epoch) runs the pass on each member alone.

The steps run in blocks of BLOCK_BATCHES. Once per block the trainer
gathers each member's minibatches into slots of batch_size rows, a short
batch at the front of its slot, and draws the member's dropout uniforms
into slots of batch_size * sum(hidden), one call per run of its batches
within an epoch, which it turns into keep factors in place; each step reads
views of the block, and its forward pass, backward pass and Adam update
write into arrays allocated once per fit. A float64 uniform takes one
64-bit word of a network's stream, and a member's draws are laid out batch
by batch and layer by layer, after the permutation of the epoch they
belong to, so the stream is consumed exactly as drawing at every step
would consume it. A block's arrays hold BLOCK_BATCHES * batch_size rows
(512) per member: d inputs, the loss columns and the hidden widths' sum in
keep factors, float64 each, so their size is bounded by the block, not by
n or the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import ParameterError, check_int, check_real, sigmoid

# Adam's moment decays and denominator guard, the usual defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Minibatches per block: the trainer gathers a block's rows and draws its
# dropout uniforms once, and each step slices views out of the block.
BLOCK_BATCHES = 8


@dataclass(frozen=True)
class Hyperparameters:
    """Training settings for Adam with the module's constants. The minibatch
    size is a constant of the trainer and the seed an argument of each fit."""

    hidden: tuple = (20,)
    learning_rate: float = 0.001
    epochs: int = 100
    dropout: float = 0.1
    batch_size: ClassVar[int] = 64

    def __post_init__(self):
        object.__setattr__(self, "epochs", check_int(self.epochs, "epochs", 1))
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


def _forward(layers, x, keeps=(), outs=None):
    """Every layer's output for a stack of networks on inputs x (..., n, d):
    [x, h_1, ..., h_L], the last (..., n, 1) holding the linear outputs.
    Biases must broadcast against (..., n, d_out). `keeps` holds one
    inverted-dropout keep factor array per hidden layer, shaped like its
    output (empty: no dropout); `outs`, if given, are the arrays the layers
    write into, so that training reuses them from step to step."""
    if outs is None:
        outs = [np.empty((*x.shape[:-1], w.shape[-1])) for w, _ in layers]
    acts = [x]
    for i, ((w, b), h) in enumerate(zip(layers, outs)):
        np.matmul(acts[-1], w, out=h)
        h += b
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
            if keeps:
                h *= keeps[i]
        acts.append(h)
    return acts


def _backward(layers, acts, dout, grads, keeps=(), work=None):
    """dout: gradient of the objective w.r.t. the linear outputs, (..., n).
    Writes the per-layer (dW, db) into `grads`, views shaped like `layers`.
    `keeps` are the forward pass's keep factors; `work`, if given, holds one
    (delta, gate) pair of arrays per hidden layer, float and bool shaped
    like its output."""
    delta = dout[..., None]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].mT, delta, out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if i > 0:
            nxt, gate = work[i - 1] if work else (np.empty(acts[i].shape),
                                                  np.empty(acts[i].shape, dtype=bool))
            np.matmul(delta, layers[i][0].mT, out=nxt)
            # (acts > 0) covers the ReLU gate; the keep factor re-applies
            # the inverted-dropout keep/scale factor where one was used.
            np.greater(acts[i], 0.0, out=gate)
            nxt *= gate
            if keeps:
                nxt *= keeps[i - 1]
            delta = nxt


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
        out = _forward(self.params, self.x_std.apply(np.asarray(x, dtype=float)))[-1][:, 0]
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


def _step_buffers(k_nets, rows, dims):
    """The arrays one training pass writes into for `k_nets` members of
    `rows` samples each: each layer's output, and one (delta, gate) pair per
    hidden layer."""
    outs = [np.empty((k_nets, rows, d)) for d in dims[1:]]
    work = [(np.empty((k_nets, rows, d)), np.empty((k_nets, rows, d), dtype=bool))
            for d in dims[1:-1]]
    return outs, work


def _train(problems, hp, seeds):
    """Minibatch Adam on a stack of problems in lockstep, as the module
    docstring describes; member k trains with `hp` and seeds[k]. Members may
    differ in n and share d and the loss. Returns (parameters (K, P) in the
    order of `problems`, layer dims)."""
    if not problems or len(problems) != len(seeds):
        raise ParameterError("a stack needs one seed per problem")
    seeds = [check_int(seed, "seed", 0) for seed in seeds]
    d, loss_grad = problems[0].x.shape[1], problems[0].loss_grad
    if any(p.x.shape[1] != d or p.loss_grad is not loss_grad for p in problems):
        raise ParameterError("stacked fits must share d and the loss")
    batch, dropout, hidden = hp.batch_size, hp.dropout, hp.hidden
    # most rows first, so the members still training are a prefix of the stack
    rank = sorted(range(len(problems)), key=lambda k: -problems[k].x.shape[0])
    problems = [problems[k] for k in rank]
    ns = [p.x.shape[0] for p in problems]
    per_epoch = [-(-n // batch) for n in ns]
    ends = [hp.epochs * s for s in per_epoch]  # each member's last step, non-increasing
    dims = [d, *hidden, 1]
    k_nets = len(problems)
    rngs = [np.random.default_rng(np.random.SeedSequence((seeds[k], 0xB0))) for k in rank]
    params = np.zeros((k_nets, _size(dims)))
    for row, rng in zip(params, rngs):
        _init_params(row, dims, rng)
    grads = np.zeros_like(params)
    m1 = np.zeros_like(params)
    m2 = np.zeros_like(params)
    t1 = np.empty_like(params)
    t2 = np.empty_like(params)

    # Rows of member k's data follow those of the members before it, so one
    # gather per array fetches every member's block into arrays reused from
    # block to block; np.take gathers the same rows as fancy indexing in
    # about half the time.
    x = np.concatenate([p.x for p in problems])
    columns = np.stack([np.concatenate(c) for c in zip(*(p.columns for p in problems))])
    offsets = np.cumsum([0, *ns[:-1]])
    orders = [None] * k_nets
    width = sum(hidden)
    starts = [sum(hidden[:i]) for i in range(len(hidden))]  # each layer's first unit
    rows = BLOCK_BATCHES * batch
    idx = np.zeros((k_nets, rows), dtype=np.intp)
    keep = np.zeros((k_nets, rows * width)) if dropout else None
    sizes = [[0] * BLOCK_BATCHES for _ in range(k_nets)]  # batch size per slot
    xs = cols = None
    buffers = {}  # (members, batch size) -> step arrays
    views = {}  # (lo, hi, batch size, slot) -> what a pass over members lo .. hi-1 reads

    def pass_views(lo, hi, b, slot):
        if (hi - lo, b) not in buffers:
            buffers[hi - lo, b] = _step_buffers(hi - lo, b, dims)
        at = slot * batch
        keeps = [keep[lo:hi, at * width + b * s : at * width + b * (s + w)]
                 .reshape(hi - lo, b, w, copy=False)
                 for s, w in zip(starts, hidden)] if dropout else ()
        return ([(w, v[:, None, :]) for w, v in _layers(params[lo:hi], dims)],
                _layers(grads[lo:hi], dims), *buffers[hi - lo, b],
                xs[lo:hi, at : at + b], tuple(cols[:, lo:hi, at : at + b]), keeps)

    live = k_nets
    adam = [params, grads, m1, m2, t1, t2]
    for first in range(0, ends[0], BLOCK_BATCHES):
        block = sum(end > first for end in ends)  # members still training
        for k in range(block):
            slot, count = 0, min(BLOCK_BATCHES, ends[k] - first)
            while slot < count:
                q = (first + slot) % per_epoch[k]  # the batch's place in its epoch
                if q == 0:
                    orders[k] = rngs[k].permutation(ns[k]) + offsets[k]
                run = min(count - slot, per_epoch[k] - q)
                run_rows = min(ns[k] - q * batch, run * batch)
                at = slot * batch
                idx[k, at : at + run_rows] = orders[k][q * batch : q * batch + run_rows]
                if dropout:
                    rngs[k].random(out=keep[k, at * width : (at + run_rows) * width])
                sizes[k][slot : slot + run] = [batch] * (run - 1) + [run_rows - (run - 1) * batch]
                slot += run
        if xs is None or len(xs) != block:
            xs = np.empty((block, rows, d))
            cols = np.empty((len(columns), block, rows))
            views.clear()
        # every index is in range, and "clip" writes to `out` unbuffered
        np.take(x, idx[:block], axis=0, out=xs, mode="clip")
        np.take(columns, idx[:block], axis=1, out=cols, mode="clip")
        if dropout:
            # the values of (draws >= dropout) / (1 - dropout)
            block_keep = keep[:block]
            np.greater_equal(block_keep, dropout, out=block_keep, casting="unsafe")
            block_keep /= 1.0 - dropout
        for slot in range(min(BLOCK_BATCHES, ends[0] - first)):
            step = first + slot + 1
            while ends[live - 1] < step:
                live -= 1
                adam = [a[:live] for a in (params, grads, m1, m2, t1, t2)]
            b = sizes[0][slot]
            if any(sizes[k][slot] != b for k in range(1, live)):
                groups = [(k, k + 1, sizes[k][slot]) for k in range(live)]
            else:
                groups = ((0, live, b),)
            for lo, hi, b in groups:
                key = (lo, hi, b, slot)
                if key not in views:
                    views[key] = pass_views(*key)
                layers, grad_layers, outs, work, x_b, cols_b, keeps = views[key]
                acts = _forward(layers, x_b, keeps, outs)
                dout = loss_grad(acts[-1][..., 0], *cols_b) / b
                _backward(layers, acts, dout, grad_layers, keeps, work)
            # Adam on the live members' rows of the flat (K, P) arrays, in
            # place and in the order of m1 = b1 m1 + (1 - b1) g,
            # m2 = b2 m2 + (1 - b2) g**2,
            # params -= lr (m1 / c1) / (sqrt(m2 / c2) + eps)
            p_, g_, m1_, m2_, t1_, t2_ = adam
            m1_ *= ADAM_BETA1
            np.multiply(g_, 1 - ADAM_BETA1, out=t1_)
            m1_ += t1_
            m2_ *= ADAM_BETA2
            np.square(g_, out=t1_)
            t1_ *= 1 - ADAM_BETA2
            m2_ += t1_
            np.divide(m1_, 1.0 - ADAM_BETA1**step, out=t1_)
            t1_ *= hp.learning_rate
            np.divide(m2_, 1.0 - ADAM_BETA2**step, out=t2_)
            np.sqrt(t2_, out=t2_)
            t2_ += ADAM_EPS
            t1_ /= t2_
            p_ -= t1_
    return params[np.argsort(rank)], dims


def fit_stack(problems, hp: Hyperparameters, seeds) -> list:
    """Train K problems of the same d and loss in lockstep, all with `hp`
    and problem k with seeds[k]; their n may differ. Returns one Network per
    problem, each bitwise equal to fitting that problem alone with its seed."""
    params, dims = _train(problems, hp, seeds)
    return [Network([(w.copy(), b.copy()) for w, b in _layers(row, dims)],
                    p.x_std, p.task, p.y_mean, p.y_scale)
            for row, p in zip(params, problems)]


def fit_regressor(x, y, hp: Hyperparameters = Hyperparameters(), seed=0) -> Network:
    return fit_stack([regression_problem(x, y)], hp, [seed])[0]


def fit_weighted_quadratic(x, weights, linear, hp: Hyperparameters = Hyperparameters(),
                           seed=0) -> Network:
    """Minimize (1/sum_i w_i) sum_i [w_i g(x_i)^2 - 2 q_i g(x_i)].

    This is weighted least squares with weights w and implied targets q / w,
    but the targets are never formed: when w_i is near zero with q_i
    moderate, the ratio explodes while the quadratic coefficients stay
    bounded, so optimizing the product form directly is numerically stable.
    """
    return fit_stack([quadratic_problem(x, weights, linear)], hp, [seed])[0]


def fit_classifier(x, y, hp: Hyperparameters = Hyperparameters(), seed=0) -> Network:
    return fit_stack([classification_problem(x, y)], hp, [seed])[0]


def gradient_check(seed: int = 0, task: str = "regression", eps: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences on
    a small random problem; validates the hand-written gradients through the
    trainer's own forward and backward passes. Regression checks the
    quadratic objective it trains, with signed weights. A parameter whose
    step crosses a ReLU kink is differenced again at a smaller step."""
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
    # Positive biases keep pre-activations off the ReLU kink, where a finite
    # difference is no derivative: with zero biases, a unit whose inputs are
    # all off sits exactly on it.
    for _, b in layers:
        b[...] = rng.uniform(0.1, 0.5, size=b.shape)

    def objective():
        """(objective, each hidden layer's ReLU on/off pattern)"""
        acts = _forward(layers, x)
        pred = acts[-1][:, 0]
        if task == "regression":
            loss = w * pred * pred - 2.0 * y * pred
        else:
            loss = np.logaddexp(0.0, pred) - y * pred  # exact even where sigmoid saturates
        return float(np.sum(loss) / n), [a > 0.0 for a in acts[1:-1]]

    acts = _forward(layers, x)
    pred = acts[-1][:, 0]
    dout = _quadratic_grad(pred, w, y) if task == "regression" else _logistic_grad(pred, y)
    grads = np.empty_like(flat)
    _backward(layers, acts, dout / n, _layers(grads, dims))
    pattern = [a > 0.0 for a in acts[1:-1]]

    def same(on):
        return all(np.array_equal(a, b) for a, b in zip(on, pattern))

    worst = 0.0
    for k in range(flat.size):
        orig = flat[k]
        # A step that turns a ReLU on or off straddles its kink, where the
        # difference is no derivative; such a parameter is differenced again
        # at a ten times smaller step until the pattern holds at both points,
        # down to eps * 1e-5; it is never skipped.
        step = eps
        while True:
            flat[k] = orig + step
            up, up_on = objective()
            flat[k] = orig - step
            down, down_on = objective()
            if (same(up_on) and same(down_on)) or step < eps * 1e-5:
                break
            step /= 10.0
        flat[k] = orig
        fd = (up - down) / (2.0 * step)
        denom = max(abs(fd), abs(grads[k]), 1e-8)
        worst = max(worst, abs(fd - grads[k]) / denom)
    return worst
