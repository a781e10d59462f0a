"""In-memory spans around the calls the benchmark makes into each layer.

The package is not edited: the tracer replaces, for the length of a traced
run, the module attributes that ``zitpo.cli``, ``zitpo.estimation``,
``zitpo.simulation`` and ``zitpo.diagnostics`` look up at call time, and
restores them afterwards. Each span holds its name, start, end, parent and
the run phase it belongs to; spans stay in a list until the run writes them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict for attributes read from results."""
        sid = next(self._ids)
        stack = self._stack()
        # A span opened on a pool thread was caused by the innermost span
        # still open on the main thread (the coverage study).
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        stack.append(sid)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.phase, attrs))

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a spanned call until :meth:`restore`."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, result)
                return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def restore(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points each caller looks up at call time."""
    import zitpo.cli as cli
    import zitpo.diagnostics as diagnostics
    import zitpo.estimation as estimation
    import zitpo.simulation as simulation

    def fit_attrs(attrs, fit):
        attrs["iterations"] = fit.iterations

    tracer.wrap(cli, "read_csv", "data_io.read_csv")
    tracer.wrap(cli, "make_model_spec", "data_io.make_model_spec")
    tracer.wrap(cli, "fit_mle", "estimation.fit_mle", fit_attrs)
    tracer.wrap(cli, "residuals", "diagnostics.residuals")
    tracer.wrap(cli, "qq_data", "diagnostics.qq_data")
    tracer.wrap(cli, "ks_statistic", "diagnostics.ks_statistic")
    tracer.wrap(cli, "coverage_study", "simulation.coverage_study")
    tracer.wrap(simulation, "simulate_dataset", "simulation.simulate_dataset")
    tracer.wrap(simulation, "fit_mle", "estimation.fit_mle", fit_attrs)
    tracer.wrap(simulation, "_run_replicate", "simulation.replicate")
    # The per-row likelihood kernel the fitter's objective calls, the numeric
    # gradient, and the covariance step (numeric Hessian plus inversion).
    tracer.wrap(estimation, "_loglik_terms", "model.loglik")
    tracer.wrap(estimation, "numeric_gradient", "estimation.gradient")
    tracer.wrap(estimation, "_covariance", "estimation.hessian")
    # Inside the diagnostics spans, for the span file only: no metric.
    tracer.wrap(diagnostics, "predict", "model.predict")
    tracer.wrap(diagnostics, "gpd_quantile", "gpd.quantile")
    tracer.wrap(diagnostics, "gpd_cdf", "gpd.cdf")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (pool children can overlap)."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, _, _, start, end, _, _ in spans
    }


# Per-layer metrics: name -> (unit, better). Times per call unless noted;
# "per fit" divides by the fits in the timed loop.
LAYER_METRICS = {
    "data_io.read_csv_s": ("s", "lower"),
    "data_io.make_model_spec_s": ("s", "lower"),
    "model.loglik_evals": ("count", "lower"),
    "model.loglik_s": ("s", "lower"),
    "estimation.fit_mle_s": ("s", "lower"),
    "estimation.self_s": ("s", "lower"),
    "estimation.iterations": ("count", "lower"),
    "estimation.gradient_calls": ("count", "lower"),
    "estimation.gradient_s": ("s", "lower"),
    "estimation.hessian_s": ("s", "lower"),
    "diagnostics.residuals_s": ("s", "lower"),
    "diagnostics.qq_data_s": ("s", "lower"),
    "diagnostics.ks_statistic_s": ("s", "lower"),
    "diagnostics.zero_calibration_s": ("s", "lower"),
    "simulation.simulate_dataset_s": ("s", "lower"),
    "simulation.replicate_fit_s": ("s", "lower"),
    "simulation.coverage_study_s": ("s", "lower"),
    "simulation.scheduler_efficiency": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
}


def layer_metrics(spans: list[tuple], workers: int) -> tuple[dict, dict]:
    """Per-layer metrics from the timed loop's spans (and the serial replay
    for the simulation layer). A layer the loop does not reach reads 0.

    Returns the metrics as name -> (value, unit) and the base of the
    scheduler efficiency.
    """
    selfs = self_times(spans)
    loop = [s for s in spans if s[5] == "loop"]
    replay = [s for s in spans if s[5] == "replay"]

    def named(name, group=loop):
        return [s for s in group if s[2] == name]

    def total(group):
        return sum(s[4] - s[3] for s in group)

    def mean(group):
        return total(group) / len(group) if group else 0.0

    def self_of(prefix):
        return sum(selfs[s[0]] for s in loop if s[2].startswith(prefix))

    fits = named("estimation.fit_mle")
    per_fit = 1.0 / len(fits) if fits else 0.0
    studies = named("simulation.coverage_study")
    serial = named("simulation.replicate_serial", replay)
    reps = len(named("simulation.replicate")) / len(studies) if studies else 0
    efficiency = 0.0
    if studies and serial:
        efficiency = reps * mean(serial) / (workers * mean(studies))
    commands = [s for s in loop if s[2].startswith("cli.")]
    values = {
        "data_io.read_csv_s": mean(named("data_io.read_csv")),
        "data_io.make_model_spec_s": mean(named("data_io.make_model_spec")),
        "model.loglik_evals": len(named("model.loglik")) * per_fit,
        "model.loglik_s": total(named("model.loglik")) * per_fit,
        "estimation.fit_mle_s": mean(fits),
        "estimation.self_s": self_of("estimation.") * per_fit,
        "estimation.iterations": sum(s[6].get("iterations", 0) for s in fits) * per_fit,
        "estimation.gradient_calls": len(named("estimation.gradient")) * per_fit,
        "estimation.gradient_s": total(named("estimation.gradient")) * per_fit,
        "estimation.hessian_s": total(named("estimation.hessian")) * per_fit,
        "diagnostics.residuals_s": mean(named("diagnostics.residuals")),
        "diagnostics.qq_data_s": mean(named("diagnostics.qq_data")),
        "diagnostics.ks_statistic_s": mean(named("diagnostics.ks_statistic")),
        "diagnostics.zero_calibration_s": mean(named("diagnostics.zero_calibration")),
        "simulation.simulate_dataset_s": mean(named("simulation.simulate_dataset", replay)),
        "simulation.replicate_fit_s": mean(named("estimation.fit_mle", replay)),
        "simulation.coverage_study_s": mean(studies),
        "simulation.scheduler_efficiency": efficiency,
        "cli.self_s": self_of("cli.") / len(commands) if commands else 0.0,
    }
    base = {
        "replicates_per_study": reps,
        "serial_replicate_s": mean(serial),
        "serial_replicates_timed": len(serial),
        "workers": workers,
        "coverage_study_s": mean(studies),
    }
    return {k: (v, LAYER_METRICS[k][0]) for k, v in values.items()}, base
