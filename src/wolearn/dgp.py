"""Synthetic sequential data generators and ground-truth oracles.

Four generator families share one backbone: X_0 ~ N(0,1) per dimension,
X_t = 0.5 X_{t-1} + eps_x, A_t ~ Bernoulli(sigmoid(f_a(H_t))),
Y_t = f_y(A_t, H_t) + eps_y. They differ in f_a and f_y:

  gamma: f_a = g * (0.5 X_t + 0.5 Y_{t-1} - 0.5 (A_{t-1} - 0.5)), g the
         overlap knob; f_y = 0.5 exp(-X_t^2) (A_t - 0.5). d_x = 1.
  pi:    f_a = sin(0.5 X_t + 0.5 Y_{t-1} - 0.5 (A_{t-1} - 0.5)); f_y as gamma.
  mu:    f_a = 0.5 mean_p X_{t,p} + 0.5 Y_{t-1} - 0.5 (A_{t-1} - 0.5);
         f_y = exp(0.5 (A_t - 0.5) mean_p cos(X_{t-1,p}) cos(cos(X_{t-1,p}))).
         Note f_y reads X_{t-1}, not X_t.
  n:     f_a = 3.5 (0.5 mean_p X_{t,p} + 0.5 Y_{t-1} - 0.5 (A_{t-1} - 0.5));
         f_y = 0.5 exp(-(mean_p cos X_{t,p})^2) (A_t - 0.5).

In every family the covariate process is autonomous (treatments never feed
back into X) and Y_{t+tau} depends on the final treatment and the covariate
state only. So the mean outcome under a plan (`expected_outcome`) is a
Gaussian integral per covariate dimension for every family, and it gives
the exact test-set truth and the oracle responses. Every family's
propensity is a link (`_link`) of one linear index whose next-step value
is Gaussian given the state and the treatment, so the oracle tail weight
one step before a plan's end is a 1-d Gaussian integral too
(`OracleNuisanceSet`). The Monte Carlo rollouts in `tests/monte_carlo.py`
are independent cross-checks of all of these.
`conditional_rollout` completes m copies of one unit's history under the
observational law, as the per-history checks of `verify` need. It draws
the noise of all m copies at the call and yields the copies in blocks of
at most ROLLOUT_BLOCK rows, each run through `rollout`'s own step loop, so
the blocks, concatenated, are one rollout of the m copies while a caller
holds one block at a time.
`DgpConfig` rejects an unknown kind, unknown settings, non-integral or
below-1 sizes, a tau outside [0, T-1], a gamma that is not a finite
number, and a gamma other than 1 for a kind other than gamma, which never
reads it; the seed is an argument of every draw, never a setting, and must
be a non-negative integer. The noise scales sigma_x and sigma_y are
constants of every kind, not settings. Every fault raises ParameterError
naming the bad argument.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .core import Dataset, InterventionPlan, ParameterError, check_int, check_real, sigmoid

# the most rows of one block that `conditional_rollout` completes at a time
ROLLOUT_BLOCK = 10_000

KIND_DEFAULTS = {
    "gamma": dict(T=5, d_x=1, n_train=4000, tau=1),
    "pi": dict(T=15, d_x=1, n_train=4000, tau=1),
    "mu": dict(T=15, d_x=5, n_train=4000, tau=1),
    "n": dict(T=5, d_x=5, n_train=4000, tau=1),
}


def _kind_defaults(kind: str) -> dict:
    """The default sizes of a generator kind; an unknown kind raises."""
    if kind not in KIND_DEFAULTS:
        raise ParameterError(f"unknown DGP kind {kind!r}")
    return KIND_DEFAULTS[kind]


@dataclass(frozen=True)
class DgpConfig:
    kind: str
    T: int
    d_x: int
    n_train: int
    tau: int
    n_test: int = 1000
    gamma: float = 1.0
    # The noise scales are constants of every kind. AR(1) X_t = 0.5 X_{t-1}
    # + eps has stationary variance 1 when var(eps) = 0.75, matching
    # X_0 ~ N(0,1).
    sigma_y: ClassVar[float] = 0.3
    sigma_x: ClassVar[float] = math.sqrt(0.75)

    def __post_init__(self):
        _kind_defaults(self.kind)
        for name in ("T", "d_x", "n_train", "n_test"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        object.__setattr__(self, "tau", check_int(self.tau, "tau"))
        if check_real(self.gamma, "gamma") != 1.0 and self.kind != "gamma":
            raise ParameterError(f"gamma={self.gamma} has no effect on kind {self.kind!r}; "
                                 "only kind 'gamma' reads it")
        if not 0 <= self.tau <= self.T - 1:
            raise ParameterError(f"tau={self.tau} outside [0, T-1={self.T - 1}]")

    @classmethod
    def make(cls, kind: str, **overrides) -> "DgpConfig":
        unknown = set(overrides) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown generator setting(s) {sorted(unknown)}")
        return cls(kind=kind, **{**_kind_defaults(kind), **overrides})

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def eval_anchor(self) -> int:
        """Latest feasible anchor: t + tau is the last time index."""
        return self.T - 1 - self.tau


def _link(config: DgpConfig, base):
    """The kind's map from the linear index u = 0.5 mean_p X_{t,p} +
    0.5 Y_{t-1} - 0.5 (A_{t-1} - 0.5) to the propensity logit f_a."""
    if config.kind == "gamma":
        return config.gamma * base
    if config.kind == "pi":
        return np.sin(base)
    if config.kind == "mu":
        return base
    return 3.5 * base  # kind "n"


def propensity_logit(config: DgpConfig, x_t, y_prev, a_prev):
    """f_a evaluated on state arrays; x_t has trailing dim d_x."""
    lin_x = np.mean(x_t, axis=-1)
    return _link(config, 0.5 * lin_x + 0.5 * y_prev - 0.5 * (a_prev - 0.5))


def outcome_mean(config: DgpConfig, x_t, x_prev, a_t):
    """f_y evaluated on state arrays (the noiseless outcome)."""
    if config.kind == "mu":
        c = np.mean(np.cos(x_prev) * np.cos(np.cos(x_prev)), axis=-1)
        return np.exp(0.5 * (a_t - 0.5) * c)
    return _outcome_level(config, x_t) * (a_t - 0.5)


def _outcome_level(config: DgpConfig, x_t):
    """f_y / (A_t - 0.5) for the kinds whose outcome is linear in the arm
    (gamma, pi and n)."""
    s = x_t if config.kind in ("gamma", "pi") else np.cos(x_t)
    return 0.5 * np.exp(-np.mean(s, axis=-1) ** 2)


@dataclass
class State:
    """Markov state sufficient to continue any trajectory: arrays with a
    common leading shape."""

    x: np.ndarray
    x_prev: np.ndarray
    y_prev: np.ndarray
    a_prev: np.ndarray

    @classmethod
    def from_dataset(cls, data: Dataset, anchor: int):
        """Every unit's state at `anchor`; the lags before time 0 are zero."""
        t = anchor
        if not 0 <= t < data.T:
            raise IndexError(f"anchor {t} out of range [0, {data.T})")
        zeros = np.zeros((data.n, data.d_x))
        return cls(
            x=data.x[:, t, :],
            x_prev=data.x[:, t - 1, :] if t >= 1 else zeros,
            y_prev=data.y[:, t - 1] if t >= 1 else np.zeros(data.n),
            a_prev=data.a[:, t - 1].astype(float) if t >= 1 else np.zeros(data.n),
        )

    def tile(self, m: int) -> "State":
        return State(
            x=np.repeat(self.x, m, axis=0),
            x_prev=np.repeat(self.x_prev, m, axis=0),
            y_prev=np.repeat(self.y_prev, m),
            a_prev=np.repeat(self.a_prev, m),
        )


def rollout(config: DgpConfig, state: State, steps: int, rng, forced=None):
    """Simulate `steps` consecutive time points starting at the state's
    current time. `forced` is a per-step sequence of 0/1/None (None samples
    the treatment observationally). Returns dict with x, a, y, p1 arrays of
    shape (L, steps[, d_x]) where p1 is P(A=1 | history) at each step.
    Equally seeded `rng`s give the same noise whatever `forced` is.
    """
    return _run_steps(config, state, _draw_noise(config, len(state.y_prev), steps, rng), forced)


def _draw_noise(config: DgpConfig, L: int, steps: int, rng):
    """The noise of L rows over `steps` steps, in the order that every
    rollout draws it: (eps_x, eps_y, u)."""
    eps_x = rng.normal(0.0, config.sigma_x, size=(L, steps, config.d_x))
    eps_y = rng.normal(0.0, config.sigma_y, size=(L, steps))
    u = rng.uniform(size=(L, steps))
    return eps_x, eps_y, u


def _run_steps(config: DgpConfig, state: State, noise, forced=None):
    """`rollout`'s step loop on drawn noise: every row evolves from its own
    state and its own noise rows only, so a slice of the rows gives that
    slice of the output."""
    eps_x, eps_y, u = noise
    L, steps = eps_y.shape
    x, x_prev = state.x.copy(), state.x_prev.copy()
    y_prev, a_prev = state.y_prev.copy(), state.a_prev.copy()
    xs = np.empty((L, steps, config.d_x))
    as_ = np.empty((L, steps))
    ys = np.empty((L, steps))
    p1s = np.empty((L, steps))
    for s in range(steps):
        p1 = sigmoid(propensity_logit(config, x, y_prev, a_prev))
        if forced is not None and forced[s] is not None:
            a = np.full(L, float(forced[s]))
        else:
            a = (u[:, s] < p1).astype(float)
        y = outcome_mean(config, x, x_prev, a) + eps_y[:, s]
        xs[:, s], as_[:, s], ys[:, s], p1s[:, s] = x, a, y, p1
        x_prev, x = x, 0.5 * x + eps_x[:, s]
        y_prev, a_prev = y, a
    return {"x": xs, "a": as_, "y": ys, "p1": p1s}


def simulate(config: DgpConfig, seed: int, n=None) -> Dataset:
    """Draw a panel of n trajectories (default n_train) under the configured
    DGP; n must be an integer of at least 1, as n_train must, and the seed a
    non-negative integer."""
    n = config.n_train if n is None else check_int(n, "n", 1)
    seed = check_int(seed, "seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD6B)))
    x0 = rng.normal(size=(n, config.d_x))
    state = State(
        x=x0, x_prev=np.zeros((n, config.d_x)), y_prev=np.zeros(n), a_prev=np.zeros(n)
    )
    out = rollout(config, state, config.T, rng=rng)
    meta = {"generator": config.kind, "seed": seed, "config": config.to_dict()}
    return Dataset(out["x"], out["a"].astype(np.int64), out["y"], meta=meta)


def _unit_state(data: Dataset, anchor: int) -> State:
    """The state at `anchor` of the one unit in `data`."""
    if data.n != 1:
        raise ParameterError("pass one unit, e.g. data.subset([i])")
    return State.from_dataset(data, anchor)


def conditional_rollout(config: DgpConfig, data: Dataset, anchor: int, m: int, seed: int):
    """m completed copies of the one unit in `data`, as an iterator over
    `Dataset` blocks of at most ROLLOUT_BLOCK rows in row order: the columns
    before `anchor` are the unit's own, and (X, A, Y) from `anchor` to the
    end of the panel are re-simulated under the observational law given its
    history. Every copy shares the history at the anchor. The noise of all
    m copies is drawn at the call, so the blocks, concatenated, are the same
    whatever ROLLOUT_BLOCK is; a block holds one block of copies, not m.
    The arguments are checked at the call: one unit, an anchor inside the
    panel, an integer m of at least 1 and a non-negative integer seed."""
    state = _unit_state(data, anchor)
    m = check_int(m, "m", 1)
    rng = np.random.default_rng(np.random.SeedSequence((check_int(seed, "seed", 0), 0xA0)))
    noise = _draw_noise(config, m, data.T - anchor, rng)
    return _completed_blocks(config, data, anchor, state, m, noise)


def _completed_blocks(config, data, anchor, state, m, noise):
    """`conditional_rollout`'s blocks: a generator, so that its caller
    checks the arguments and draws the noise before the first block."""
    for lo in range(0, m, ROLLOUT_BLOCK):
        hi = min(lo + ROLLOUT_BLOCK, m)
        out = _run_steps(config, state.tile(hi - lo), tuple(v[lo:hi] for v in noise))
        x, a, y = (np.repeat(v, hi - lo, axis=0) for v in (data.x, data.a, data.y))
        x[:, anchor:], a[:, anchor:], y[:, anchor:] = out["x"], out["a"], out["y"]
        yield Dataset(x, a, y)


def _gauss_exp_moment(mean, var):
    """E[exp(-Z^2)] for Z ~ N(mean, var)."""
    return np.exp(-(mean**2) / (1.0 + 2.0 * var)) / np.sqrt(1.0 + 2.0 * var)


def _ar_moments(x_t, delta: int, sigma_x: float):
    """Mean/variance of X_{t+delta} given X_t under X' = 0.5 X + eps."""
    mean = (0.5**delta) * x_t
    var = sigma_x**2 * sum(0.25**i for i in range(delta))
    return mean, var


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def _gh_expect(fn, mean, sd):
    """E[fn(Z)] for Z ~ N(mean, sd^2), vectorized over mean."""
    z = mean[..., None] + math.sqrt(2.0) * sd * _GH_NODES
    return (fn(z) * _GH_WEIGHTS).sum(axis=-1) / math.sqrt(math.pi)


def expected_outcome(config: DgpConfig, x, x_prev, a, delta: int):
    """E[Y_{j+delta} | X_j = x, X_{j-1} = x_prev] with A_{j+delta} = a, for
    every kind and every delta >= 0; vectorized over the leading axes of x.

    X is autonomous and independent across dimensions, and Y_{j+delta} reads
    only A_{j+delta} and one covariate slice, so no earlier treatment
    matters and each expectation is a Gaussian integral per dimension.
    """
    if config.kind != "mu":
        return _expected_level(config, x, delta) * (a - 0.5)
    x = np.asarray(x, dtype=float)
    # f_y reads the slice before its own time: x_prev at delta 0
    if delta <= 1:
        return outcome_mean(config, None, x_prev if delta == 0 else x, a)
    d = x.shape[-1]
    c = 0.5 * (a - 0.5) / d
    mean, var = _ar_moments(x, delta - 1, config.sigma_x)
    g = _gh_expect(lambda z: np.exp(c * np.cos(z) * np.cos(np.cos(z))), mean, math.sqrt(var))
    return np.prod(g, axis=-1)


def _expected_level(config: DgpConfig, x, delta: int):
    """E[Y_{j+delta} | X_j = x] / (a - 0.5) for the kinds whose outcome is
    linear in the arm (gamma, pi and n): the arm-free part of
    `expected_outcome`."""
    x = np.asarray(x, dtype=float)
    d, sigma_x = x.shape[-1], config.sigma_x
    if config.kind in ("gamma", "pi"):
        mean, var = _ar_moments(np.mean(x, axis=-1), delta, sigma_x)
        return 0.5 * _gauss_exp_moment(mean, var / d)
    # kind "n"
    if delta == 0:
        return _outcome_level(config, x)
    # exp(-S^2) = E[cos(2 S U)] for U ~ N(0, 1/2), and for fixed U the
    # expectation of exp(2i U S), S = mean_p cos Z_p, factorises over p into
    # phi(a) = E[exp(i a cos Z_p)], a = 2U/d, Z_p ~ N(m_p, v). The sum over
    # U runs over the positive Gauss-Hermite nodes only (the integrand is
    # even in U and the nodes are symmetric), so a <= 21.1.
    # phi is a series, exact to rounding: by Jacobi-Anger (Abramowitz &
    # Stegun 9.1.44-45) exp(i a cos z) = J_0(a) + 2 sum_{n>=1} i^n J_n(a)
    # cos(n z), and E[cos(n Z)] = cos(n m) e^{-n^2 v/2}, so
    #   phi(a) = J_0(a) + 2 sum_{n>=1} i^n J_n(a) cos(n m) e^{-n^2 v/2},
    # real in the even and imaginary in the odd n. At delta >= 1, v >= 0.75,
    # so the terms past n = 11 weigh at most 2 e^{-12^2 3/8} < 1e-23.
    # J_n(a) is the mean of cos(n t - a sin t) over 64 equispaced t in
    # [0, 2 pi): that trapezoid rule is exact but for the aliasing terms
    # J_{64k-n}(a) and J_{64k+n}(a), k >= 1, and |J_m(a)| <= (a/2)^m / m!
    # < 1e-15 for m >= 53.
    mean, var = _ar_moments(x, delta, sigma_x)
    half = len(_GH_NODES) // 2
    a = 2.0 * _GH_NODES[half:] / d
    order = np.arange(12)
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    # i^n runs 1, i, -1, -i: its sign, times the series' 2 for n >= 1
    scale = np.where(order % 4 < 2, 2.0, -2.0)
    scale[0] = 1.0
    bessel = np.cos(order[:, None, None] * t - a[:, None] * np.sin(t)).mean(axis=-1)
    bessel *= scale[:, None]
    coef = np.cos(mean[..., None] * order) * np.exp(-0.5 * var * order**2)
    phi = coef[..., 0::2] @ bessel[0::2] + 1j * (coef[..., 1::2] @ bessel[1::2])
    moment = np.prod(phi, axis=-2).real @ (2.0 * _GH_WEIGHTS[half:])
    return 0.5 * moment / math.sqrt(math.pi)


def exact_cate(config: DgpConfig, state: State, plan_a: InterventionPlan, plan_b: InterventionPlan):
    """Closed-form CATE of plan_a over plan_b at each state: the difference
    of the two plans' expected final outcomes, `expected_outcome` at each
    plan's last treatment, for every kind."""
    tau, a, b = plan_a.horizon, plan_a.values[-1], plan_b.values[-1]
    return (expected_outcome(config, state.x, state.x_prev, a, tau)
            - expected_outcome(config, state.x, state.x_prev, b, tau))


def test_set_truth(config: DgpConfig, data: Dataset, anchor: int, plan_a, plan_b, m=10000, seed=0):
    """Ground-truth CATE per test trajectory at the anchor: `exact_cate` on
    the anchor states. `m` and `seed` are unused; they remain so that
    callers written for a Monte Carlo truth keep working."""
    return exact_cate(config, State.from_dataset(data, anchor), plan_a, plan_b)


class OracleNuisanceSet:
    """Ground-truth nuisance evaluators for one intervention plan.

    Every method takes the time index j and a `State` (the histories at j,
    vectorized over its leading axis), as `OracleBackedNuisances` builds it
    with `State.from_dataset`. All three are closed form and deterministic
    given (config, plan). Responses come from `expected_outcome`; the plan's
    `InterventionPlan.propensity` turns P(A_j = 1 | H_j) into the plan
    propensity. The tail weight is 1 at the plan's last step and a 1-d
    Gauss-Hermite integral one step before it, for every kind; plans with
    a longer tail (tau >= 2) raise ParameterError. The times j run over the
    plan's span, which is read from `plan` (`start`, `end`, `horizon`).
    """

    def __init__(self, config: DgpConfig, plan: InterventionPlan):
        self.config = config
        self.plan = plan

    def propensity(self, j: int, state: State):
        """pi_j^plan: probability of the plan's treatment at time j."""
        p1 = sigmoid(propensity_logit(self.config, state.x, state.y_prev, state.a_prev))
        return self.plan.propensity(j, p1)

    def response_exact(self, j: int, state: State):
        """Closed-form mu_j^plan."""
        return expected_outcome(self.config, state.x, state.x_prev, self.plan.values[-1],
                                self.plan.end - j)

    def tail_weight(self, j: int, state: State):
        """E[prod_{k=j+1}^{t+tau} pi_k^plan | H_j] evaluated at states."""
        delta = self.plan.end - j
        if delta == 0:
            return np.ones(len(state.y_prev))
        if delta == 1:
            return self._tail_weight_quadrature(j, state)
        raise ParameterError(f"the oracle tail weight needs at most one remaining step; "
                             f"time {j} of a plan ending at {self.plan.end} has {delta}")

    def _tail_weight_quadrature(self, j: int, state: State):
        # One remaining step: integrate pi_{j+1} over (A_j, eps_y, eps_x).
        # The index u_{j+1} = 0.5 mean_p X_{j+1,p} + 0.5 Y_j - 0.5 (A_j - 0.5)
        # is, given A_j, the Gaussian 0.5 (mean_p eps_x + eps_y) plus a known
        # mean, so 1-d Gauss-Hermite over u is effectively exact.
        cfg, x = self.config, state.x
        xs = np.mean(x, axis=-1)
        p1 = sigmoid(propensity_logit(cfg, x, state.y_prev, state.a_prev))
        sd = 0.5 * math.sqrt(cfg.sigma_x**2 / cfg.d_x + cfg.sigma_y**2)
        total = np.zeros_like(xs)
        for a_j, w in ((1.0, p1), (0.0, 1.0 - p1)):
            u_mean = 0.25 * xs + 0.5 * outcome_mean(cfg, x, state.x_prev, a_j) - 0.5 * (a_j - 0.5)
            p1_next = _gh_expect(lambda u: sigmoid(_link(cfg, u)), u_mean, sd)
            total += w * self.plan.propensity(j + 1, p1_next)
        return total


# the name under which the benchmark builds oracles
oracle_nuisances = OracleNuisanceSet
