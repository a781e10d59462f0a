"""Seeded data generation and the Monte-Carlo estimator study.

Random variates for the truncated positive part come from the inverse-CDF
formula ``y = [(u**(-xi) - 1) * (1-xi)/xi] * (mu + xi*y_trunc/(1-xi)) + y_trunc``
with ``u`` a survival-side uniform (``u = 1`` maps to the threshold).

Every replicate owns a counter-based RNG stream derived from
``seed XOR mix(rep_index)``, so results do not depend on execution order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .estimation import _check_level, confidence_interval, fit_mle
from .gpd import XI_TOL, _check_shape
from .model import CoefVector, ModelSpec, _check_threshold, predict

__all__ = [
    "SimConfig",
    "CoverageReport",
    "ParamSummary",
    "DEFAULT_RECIPE",
    "REFERENCE_BETA1",
    "REFERENCE_BETA2",
    "replicate_rng",
    "rtrunc_gpd",
    "simulate_dataset",
    "coverage_study",
    "reference_config",
    "reference_grid",
]

# Reference study coefficients: intercept plus five covariates.
REFERENCE_BETA1 = (1.0, 1.0, -0.5, 0.5, 0.25, 0.25)
REFERENCE_BETA2 = (2.0, 1.0, 0.5, 0.5, 0.25, 0.25)

# Covariate distributions for the reference design: one normal, one Poisson,
# two Bernoulli and one exponential column. Location/scale values are
# calibrated so that, combined with the reference coefficients, the median
# positive-outcome probability is near 0.3, roughly 30% of responses end up
# positive, and the 0.125 threshold sits near the first decile of the
# positive values. Override per column as needed.
DEFAULT_RECIPE = (
    ("normal", -2.3, 1.0),
    ("poisson", 0.4),
    ("bernoulli", 0.5),
    ("bernoulli", 0.5),
    ("exponential", 1.0),
)

_MASK64 = (1 << 64) - 1


def _mix64(v: int) -> int:
    """splitmix64 finalizer; decorrelates consecutive replicate indices."""
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


def replicate_rng(seed: int, rep_index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate."""
    key = (int(seed) & _MASK64) ^ _mix64(int(rep_index))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """Design of a simulation run.

    ``covariate_recipe`` lists one distribution tuple per non-intercept
    column: ``("normal", mean, sd)``, ``("poisson", lam)``,
    ``("bernoulli", p)`` or ``("exponential", scale)``.
    """

    n: int
    reps: int
    beta1: tuple[float, ...]
    beta2: tuple[float, ...]
    xi: float
    y_trunc: float
    covariate_recipe: tuple = DEFAULT_RECIPE
    seed: int = 0
    level: float = 0.95

    def __post_init__(self) -> None:
        if self.n < 1 or self.reps < 1:
            raise ValueError("n and reps must be at least 1")
        _check_shape(self.xi)
        _check_threshold(self.y_trunc)
        if len(self.beta1) != len(self.covariate_recipe) + 1 or len(
            self.beta2
        ) != len(self.covariate_recipe) + 1:
            raise ValueError(
                "coefficient length must be one intercept plus one entry per "
                "recipe column"
            )
        _check_level(self.level)

    @property
    def truth(self) -> np.ndarray:
        return np.concatenate([self.beta1, self.beta2, [self.xi]])


@dataclass(frozen=True)
class ParamSummary:
    """Per-parameter aggregate over converged replicates."""

    name: str
    truth: float
    mean: float
    bias: float
    sd: float
    coverage: float


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated estimator study: estimates, bias, spread and CI coverage."""

    n: int
    reps: int
    xi: float
    y_trunc: float
    seed: int
    level: float
    params: tuple[ParamSummary, ...]
    n_converged: int
    n_excluded: int
    exclusion_rate: float
    converged_flags: tuple[bool, ...]
    estimates: tuple = ()

    def to_dict(self) -> dict:
        """The report's fields as plain data, without the per-replicate
        ``estimates``; an undefined summary (one replicate's sd) stays NaN."""
        out = dict(vars(self), params=[dict(vars(p)) for p in self.params])
        del out["estimates"]
        return out


def rtrunc_gpd(u, mu, xi: float, y_trunc: float):
    """Inverse-CDF draw from the threshold-truncated positive part.

    Parameters
    ----------
    u : float or array_like
        Survival-side uniforms in (0, 1]; ``u = 1`` yields ``y_trunc``.
    mu : float or array_like
        Mean(s) of the untruncated positive part.
    xi : float
        Shape, < 1.
    y_trunc : float
        Truncation threshold.
    """
    _check_shape(xi)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0 and np.ndim(mu) == 0
    if np.any((u_arr <= 0.0) | (u_arr > 1.0)):
        raise ValueError("u must lie in (0, 1]; u = 0 would be an infinite draw")
    mu_arr = np.asarray(mu, dtype=float)
    scale = mu_arr + xi * y_trunc / (1.0 - xi)
    if np.any(scale <= 0.0):
        raise ValueError("mean excess mu + xi*y_trunc/(1-xi) must be positive")
    if abs(xi) < XI_TOL:
        eps = -np.log(u_arr)
    else:
        eps = np.expm1(-xi * np.log(u_arr)) * (1.0 - xi) / xi
    out = eps * scale + y_trunc
    return float(out) if scalar else out


def _draw_column(rng: np.random.Generator, spec: tuple, n: int) -> np.ndarray:
    kind = spec[0]
    if kind == "normal":
        _, mean, sd = spec
        return rng.normal(mean, sd, size=n)
    if kind == "poisson":
        return rng.poisson(spec[1], size=n).astype(float)
    if kind == "bernoulli":
        return (rng.random(n) < spec[1]).astype(float)
    if kind == "exponential":
        return rng.exponential(spec[1], size=n)
    raise ValueError(f"unknown covariate distribution {spec!r}")


def _recipe_names(recipe: tuple) -> tuple[str, ...]:
    """Column names of a recipe's design; a repeated kind is numbered:
    bernoulli -> bernoulli1, bernoulli2."""
    total = Counter(spec[0] for spec in recipe)
    seen: Counter[str] = Counter()
    names = ["intercept"]
    for spec in recipe:
        kind = spec[0]
        seen[kind] += 1
        names.append(f"{kind}{seen[kind]}" if total[kind] > 1 else kind)
    return tuple(names)


def simulate_dataset(cfg: SimConfig, rep_index: int) -> tuple[np.ndarray, ModelSpec]:
    """One replicate's response vector and design, fixed by (seed, rep_index).

    The covariate columns are drawn first (recipe order), then the Bernoulli
    uniforms for the positive indicator, then the uniforms feeding the
    inverse CDF. Untruncated positives at or below ``y_trunc`` are recorded
    as zeros.
    """
    rng = replicate_rng(cfg.seed, rep_index)
    n = cfg.n
    cols = [np.ones(n)]
    for colspec in cfg.covariate_recipe:
        cols.append(_draw_column(rng, colspec, n))
    x = np.column_stack(cols)
    names = _recipe_names(cfg.covariate_recipe)
    spec = ModelSpec(x1=x, x2=x, names1=names, names2=names)
    coef = CoefVector(
        beta1=np.asarray(cfg.beta1), beta2=np.asarray(cfg.beta2), xi=cfg.xi
    )
    pi, mu = predict(spec, coef)
    positive = rng.random(n) < pi
    # survival-side uniforms in (0, 1]; rng.random is [0, 1)
    u = 1.0 - rng.random(n)
    y_star = rtrunc_gpd(u, mu, cfg.xi, 0.0)
    y = np.where(positive & (y_star > cfg.y_trunc), y_star, 0.0)
    return y, spec


def _run_replicate(cfg: SimConfig, rep_index: int):
    y, spec = simulate_dataset(cfg, rep_index)
    fit = fit_mle(y, cfg.y_trunc, spec)
    if not fit.converged:
        return False, None, None, None
    ci = confidence_interval(fit, cfg.level)
    truth = cfg.truth
    covered = (ci[:, 0] <= truth) & (truth <= ci[:, 1])
    return True, fit.estimates, fit.se, covered


def coverage_study(cfg: SimConfig) -> CoverageReport:
    """Simulate, fit and score CI coverage over ``cfg.reps`` replicates.

    Replicates run one after another, each from its own RNG stream (a thread
    pool ran the small numpy calls of many short fits slower than one thread).
    Replicates whose fit does not converge are excluded from the aggregates
    and counted; more than 20% of them aborts the study. The report's
    ``estimates`` holds one ``(replicate, parameter, estimate, se, covered)``
    row per parameter of every converged replicate.
    """
    slots = [_run_replicate(cfg, r) for r in range(cfg.reps)]

    flags = tuple(bool(s[0]) for s in slots)
    n_converged = sum(flags)
    n_excluded = cfg.reps - n_converged
    exclusion_rate = n_excluded / cfg.reps
    if exclusion_rate > 0.2:
        raise RuntimeError(
            f"{n_excluded} of {cfg.reps} replicates failed to converge "
            f"({100 * exclusion_rate:.1f}%); check the configuration"
        )

    names = _param_names(cfg)
    truth = cfg.truth
    est = np.array([s[1] for s in slots if s[0]])
    cov = np.array([s[3] for s in slots if s[0]])
    params = []
    for j, name in enumerate(names):
        col = est[:, j]
        params.append(
            ParamSummary(
                name=name,
                truth=float(truth[j]),
                mean=float(np.mean(col)),
                bias=float(np.mean(col) - truth[j]),
                sd=float(np.std(col, ddof=1)) if col.size > 1 else float("nan"),
                coverage=float(np.mean(cov[:, j])),
            )
        )

    estimates = tuple(
        (r, name, float(s[1][j]), float(s[2][j]), bool(s[3][j]))
        for r, s in enumerate(slots)
        if s[0]
        for j, name in enumerate(names)
    )

    return CoverageReport(
        n=cfg.n,
        reps=cfg.reps,
        xi=cfg.xi,
        y_trunc=cfg.y_trunc,
        seed=cfg.seed,
        level=cfg.level,
        params=tuple(params),
        n_converged=n_converged,
        n_excluded=n_excluded,
        exclusion_rate=exclusion_rate,
        converged_flags=flags,
        estimates=estimates,
    )


def _param_names(cfg: SimConfig) -> tuple[str, ...]:
    cols = _recipe_names(cfg.covariate_recipe)
    return tuple(
        [f"pi:{c}" for c in cols] + [f"mu:{c}" for c in cols] + ["xi"]
    )


def reference_config(
    n: int = 2000,
    reps: int = 2500,
    xi: float = 0.25,
    seed: int = 0,
    y_trunc: float = 0.125,
    level: float = 0.95,
) -> SimConfig:
    """One cell of the reference estimator study (six-coefficient design)."""
    return SimConfig(
        n=n,
        reps=reps,
        beta1=REFERENCE_BETA1,
        beta2=REFERENCE_BETA2,
        xi=xi,
        y_trunc=y_trunc,
        seed=seed,
        level=level,
    )


def reference_grid(seed: int = 0) -> tuple[SimConfig, ...]:
    """The full reference study: n in {500, 1000, 2000} x xi in {0.25, 0.5},
    2500 replicates per cell."""
    return tuple(
        reference_config(n=n, reps=2500, xi=xi, seed=seed)
        for n in (500, 1000, 2000)
        for xi in (0.25, 0.5)
    )
