"""Spans around the public functions of wolearn's layers, recorded from
outside the package.

`Tracer.install()` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and, for some functions, counts
work from the call's arguments or result. A name bound into another module
with `from ... import` is a separate reference, so every module attribute
that is the original function is replaced, not only the defining one;
methods are replaced on their class. `uninstall()` restores the originals.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from wolearn import backbone, dgp, learners, nuisance, pseudo, verify

MODULES = (backbone, dgp, learners, nuisance, pseudo, verify)


def _fit_steps(args, result, parent):
    n = np.asarray(args["x"]).shape[0]
    hp = args["hp"]
    return {"backbone.steps": hp.epochs * math.ceil(n / hp.batch_size)}


def _nuisance_models(args, result, parent):
    models = result[0] if isinstance(result, tuple) else result
    return {"nuisance.fits": len(models),
            "nuisance.constant_fallbacks": sum(not isinstance(m, backbone.Network)
                                               for m in models.values())}


def _truth_rows(args, result, parent):
    if parent != "dgp.test_set_truth":
        return {}
    return {"dgp.truth_draws": int(np.shape(args["state"].y_prev)[0])}


def _pseudo_units(args, result, parent):
    return {"pseudo.units": len(args["y_final"])}


# (owner, attribute, span name, counter hook or None)
TARGETS = (
    (dgp, "simulate", "dgp.simulate", None),
    (dgp, "test_set_truth", "dgp.test_set_truth", None),
    (dgp, "rollout", "dgp.rollout", _truth_rows),
    (nuisance, "fit_propensity_models", "nuisance.fit_propensity_models", _nuisance_models),
    (nuisance, "fit_response_models", "nuisance.fit_response_models", _nuisance_models),
    (nuisance, "fit_weight_models", "nuisance.fit_weight_models", _nuisance_models),
    (nuisance.FittedNuisances, "evaluate", "nuisance.evaluate", None),
    (nuisance.OracleBackedNuisances, "evaluate", "nuisance.oracle_evaluate", None),
    (backbone, "fit_regressor", "backbone.fit", _fit_steps),
    (backbone, "fit_classifier", "backbone.fit", _fit_steps),
    (backbone, "fit_weighted_quadratic", "backbone.fit", _fit_steps),
    (backbone.Network, "predict", "backbone.predict", None),
    (pseudo, "cate_pseudo", "pseudo.cate_pseudo", _pseudo_units),
    (learners, "prepare_cell", "learners.prepare_cell", None),
    (learners, "train_wo", "learners.train_wo", None),
    (learners, "train_baseline", "learners.train_baseline", None),
    (learners, "evaluate_rmse", "learners.evaluate_rmse", None),
    (verify, "check_conditional_mean_gamma", "verify.conditional_mean", None),
    (verify, "check_conditional_mean_rho", "verify.conditional_mean", None),
    (verify, "check_r_learner_reduction", "verify.r_learner_reduction", None),
)

# per-layer metric -> span whose inclusive time it sums
TIME_METRICS = {
    "dgp.simulate_s": "dgp.simulate",
    "dgp.truth_s": "dgp.test_set_truth",
    "nuisance.propensity_s": "nuisance.fit_propensity_models",
    "nuisance.response_s": "nuisance.fit_response_models",
    "nuisance.weight_s": "nuisance.fit_weight_models",
    "nuisance.evaluate_s": "nuisance.evaluate",
    "nuisance.oracle_evaluate_s": "nuisance.oracle_evaluate",
    "backbone.fit_s": "backbone.fit",
    "backbone.predict_s": "backbone.predict",
    "pseudo.cate_pseudo_s": "pseudo.cate_pseudo",
    "learners.prepare_cell_s": "learners.prepare_cell",
    "learners.train_wo_s": "learners.train_wo",
    "learners.train_baselines_s": "learners.train_baseline",
    "learners.evaluate_s": "learners.evaluate_rmse",
    "verify.conditional_mean_s": "verify.conditional_mean",
    "verify.r_learner_reduction_s": "verify.r_learner_reduction",
}
# per-layer metric -> span whose calls it counts
CALL_METRICS = {
    "nuisance.oracle_evaluations": "nuisance.oracle_evaluate",
    "backbone.fits": "backbone.fit",
}
HOOK_METRICS = ("dgp.truth_draws", "nuisance.fits", "nuisance.constant_fallbacks",
                "backbone.steps", "pseudo.units")


class Tracer:
    """Records spans while `active`; spans are kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = []  # (span index, {counter: increment})
        self.active = False
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, original, name, hook):
        signature = inspect.signature(original) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as index:
                result = original(*args, **kwargs)
                if hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    parent = tracer.spans[index][3]
                    parent_name = tracer.spans[parent][0] if parent is not None else None
                    tracer.counts.append((index, hook(bound.arguments, result, parent_name)))
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if inspect.isclass(owner):
                holders = [owner]
            else:
                holders = [m for m in MODULES if getattr(m, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def summarize(self, first, wall):
        """Per-layer metrics of the spans from index `first` on, and the share
        of `wall` their top-level spans cover."""
        spans = self.spans[first:]
        duration = {}
        calls = {}
        for name, start, end, _ in spans:
            duration[name] = duration.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        metrics = {k: duration.get(v, 0.0) for k, v in TIME_METRICS.items()}
        metrics.update({k: calls.get(v, 0) for k, v in CALL_METRICS.items()})
        metrics.update({k: 0 for k in HOOK_METRICS})
        for index, increments in self.counts:
            if index >= first:
                for k, v in increments.items():
                    metrics[k] += v
        steps = metrics["backbone.steps"]
        metrics["backbone.step_us"] = 1e6 * metrics["backbone.fit_s"] / steps if steps else 0.0
        top = sum(end - start for _, start, end, parent in spans if parent is None)
        return metrics, (top / wall if wall > 0 else 0.0)

    def records(self, origin):
        return [{"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans]


def median_metrics(rounds):
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
