"""Domain types for sequential observational data.

A unit is a trajectory of covariates X_t, binary treatments A_t, and outcomes
Y_t over T time steps. The observed history at time t is
H_t = (Y_{0:t-1}, X_{0:t}, A_{0:t-1}), i.e. the outcome and treatment at the
anchor itself are excluded. Pre-sample lags (Y_{-1}, A_{-1}) are zero
sentinels.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Invalid argument to a library operation."""


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def check_int(value, name: str, low=None) -> int:
    """`value` as an int when it is integral (an int, an integral float, or
    a string of an int) and, if `low` is given, at least `low`; otherwise
    ParameterError naming `name`. Every integer argument is checked here."""
    try:
        out = int(value)  # a str parses only as an integer literal
        integral = isinstance(value, str) or out == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or isinstance(value, bool):
        raise ParameterError(f"{name}: {value!r} is not an integer")
    if low is not None and out < low:
        raise ParameterError(f"{name}={value} must be at least {low}")
    return out


def check_real(value, name: str):
    """`value` unchanged when it is a finite real number (not a bool);
    otherwise ParameterError naming `name`."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ParameterError(f"{name}: {value!r} is not a finite number")
    return value


@dataclass(frozen=True)
class InterventionPlan:
    """A fixed treatment sequence a_{t:t+tau} starting at `start`. `value`
    and `propensity` raise ParameterError for a time outside [start, end]."""

    start: int
    values: tuple

    def __post_init__(self):
        vals = tuple(check_int(v, "plan value") for v in self.values)
        if len(vals) < 1 or any(v not in (0, 1) for v in vals):
            raise ParameterError("plan values must be a non-empty binary sequence")
        object.__setattr__(self, "start", check_int(self.start, "plan start", 0))
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    @property
    def end(self) -> int:
        return self.start + self.horizon

    def value(self, j: int) -> int:
        """The plan's treatment a_j at time j."""
        if not self.start <= j <= self.end:
            raise ParameterError(f"time index {j} outside plan range")
        return self.values[j - self.start]

    def propensity(self, j: int, p1):
        """pi_j = P(A_j = a_j | H_j) from p1 = P(A_j = 1 | H_j)."""
        return p1 if self.value(j) == 1 else 1.0 - p1


def always_treat(start: int, tau: int) -> InterventionPlan:
    return InterventionPlan(start, (1,) * (tau + 1))


def never_treat(start: int, tau: int) -> InterventionPlan:
    return InterventionPlan(start, (0,) * (tau + 1))


class Dataset:
    """A panel of trajectories sharing T and d_x, stored stacked for speed.

    x: (n, T, d_x), a: (n, T), y: (n, T), ids: (n,). NaN or +-inf in x or y
    and treatments outside {0, 1} raise ParameterError.
    """

    def __init__(self, x, a, y, ids=None, meta=None):
        self.x = np.asarray(x, dtype=float)
        a = np.asarray(a)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 3 or a.shape != self.x.shape[:2] or self.y.shape != a.shape:
            raise ParameterError("x must be (n, T, d_x); a, y must be (n, T)")
        if not ((a == 0) | (a == 1)).all():
            raise ParameterError("treatments must be binary")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ParameterError("missing or infinite entries are not supported")
        self.a = np.asarray(a, dtype=np.int64)
        self.ids = np.arange(len(self.y)) if ids is None else np.asarray(ids, dtype=np.int64)
        self.meta = dict(meta or {})

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def T(self) -> int:
        return self.x.shape[1]

    @property
    def d_x(self) -> int:
        return self.x.shape[2]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.x[idx], self.a[idx], self.y[idx], ids=self.ids[idx], meta=self.meta)

    def to_jsonl(self, path):
        with open(path, "w") as f:
            f.write(json.dumps({"meta": self.meta, "n": self.n, "T": self.T, "d_x": self.d_x}) + "\n")
            for i in range(self.n):
                row = {
                    "id": int(self.ids[i]),
                    "x": self.x[i].tolist(),
                    "a": self.a[i].tolist(),
                    "y": self.y[i].tolist(),
                }
                f.write(json.dumps(row) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "Dataset":
        with open(path) as f:
            header = json.loads(f.readline())
            xs, as_, ys, ids = [], [], [], []
            for line in f:
                row = json.loads(line)
                xs.append(row["x"])
                as_.append(row["a"])
                ys.append(row["y"])
                ids.append(row["id"])
        return cls(np.array(xs), np.array(as_), np.array(ys), ids=ids, meta=header.get("meta", {}))


def check_window(window, T: int) -> int:
    """The number of history steps a feature window spans: T for "full",
    otherwise the window itself, which must lie in [1, T]."""
    w = T if window == "full" else check_int(window, "window")
    if not 1 <= w <= T:
        raise ParameterError(f"window must be in [1, T={T}]")
    return w


def check_lambda(lam: float) -> None:
    """The stage-2 split fraction must lie in (0, 1)."""
    if not 0.0 < check_real(lam, "lambda") < 1.0:
        raise ParameterError("lambda must be in (0, 1)")


def check_floor(floor: float) -> None:
    """A propensity floor must lie in [0, 1): at 1 or more every pi is 1."""
    if not 0.0 <= check_real(floor, "propensity floor") < 1.0:
        raise ParameterError(f"propensity floor {floor} outside [0, 1)")


def feature_matrix(data: Dataset, anchor: int, window="full") -> np.ndarray:
    """Featurized histories H_anchor for all units, shape (n, D).

    Steps s = anchor-window+1 .. anchor, oldest first; each step contributes
    (X_s, Y_{s-1}, A_{s-1}); steps before time 0 are zero, as is the lag
    slot at s = 0. The final feature is the anchor index itself, so
    D = window * (d_x + 2) + 1. Every fit reads one anchor, so that column
    is constant within a fit and carries no information: the standardizer
    maps it to 0 and its first-layer weights keep their initial values.
    """
    T, d_x, n = data.T, data.d_x, data.n
    if not 0 <= anchor < T:
        raise IndexError(f"anchor {anchor} out of range [0, {T})")
    w = check_window(window, T)
    steps = np.arange(anchor - w + 1, anchor + 1)
    valid = steps >= 0
    lag_valid = steps >= 1

    vals = np.zeros((n, w, d_x + 2))
    sv = steps[valid]
    vals[:, valid, :d_x] = data.x[:, sv, :]
    sl = steps[lag_valid]
    vals[:, lag_valid, d_x] = data.y[:, sl - 1]
    vals[:, lag_valid, d_x + 1] = data.a[:, sl - 1]

    return np.concatenate([vals.reshape(n, -1), np.full((n, 1), float(anchor))], axis=1)


def split_dataset(data: Dataset, lam: float, seed: int):
    """Disjoint split by trajectory: (nuisance split, stage-2 split).

    The stage-2 split gets floor(lam * n) units; the permutation is a pure
    function of the seed, a non-negative integer.
    """
    check_lambda(lam)
    seed = check_int(seed, "seed", 0)
    n = data.n
    n_stage2 = int(np.floor(lam * n))
    if not 0 < n_stage2 < n:
        raise ParameterError(f"lambda={lam} splits {n} trajectories into an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    return data.subset(np.sort(perm[n_stage2:])), data.subset(np.sort(perm[:n_stage2]))
