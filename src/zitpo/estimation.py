"""Maximum-likelihood fitting and Wald / likelihood-ratio inference.

The likelihood is maximized by Newton's method with step halving. A fit
stores its rows once, zero rows first, since y is fixed. Each trial point
then costs one kernel pass: one call of :func:`zitpo.model._row_derivs` per
row block evaluates both row kinds, and the value, the analytic score and
the Hessian are all summed from that pass. Newton runs on (beta1, beta2, xi)
itself; a trial step to xi >= 1 is infeasible and is halved like any other.
An infeasible trial costs a support check, not a kernel pass: at xi < 0 a
positive y at or past the support end reads -inf before the kernel runs. A
fixed shape is a frozen coordinate, outside the free block that Newton
solves on. Each iteration factors the information -H on that block once, by
Cholesky (LAPACK ``dposv``): the factor gives the step and the Newton
decrement, which covariate units do not move. The pass converges when the
decrement stop comes with a factor, which then gives the standard errors; a
free shape near 1 ends it unconverged. The reported log-likelihood is the
compensated sum of the kernel's row terms at the optimum, from
:func:`zitpo.model._loglik_terms`.

:func:`numeric_gradient` and :func:`numeric_hessian` are central-difference
oracles for checking the analytic derivatives; the fitter does not use them,
and the package root does not export them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy
from scipy.special import erfc, gammaincc, ndtri

from .model import (
    CoefVector,
    ModelSpec,
    _block_bounds,
    _check_rank,
    _check_response,
    _loglik_terms,
    _row_derivs,
    _zero_first,
)

__all__ = [
    "FitResult",
    "TestResult",
    "fit_mle",
    "confidence_interval",
    "wald_test",
    "lrt",
]

GRAD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
HESS_STEP = float(np.finfo(float).eps) ** 0.25
XI_START = 0.1  # starting shape when neither init nor fix_xi gives one


def norm_sf(z: float) -> float:
    """Standard normal upper tail via erfc."""
    return float(0.5 * erfc(z / math.sqrt(2.0)))


def norm_ppf(q: float) -> float:
    """Standard normal quantile."""
    return float(ndtri(q))


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution via the regularized gamma."""
    if df == 0:
        return 1.0 if x <= 0.0 else 0.0
    return float(gammaincc(df / 2.0, x / 2.0))


@dataclass(frozen=True)
class FitResult:
    """Converged (or not) maximum-likelihood fit.

    ``se`` and ``cov`` are on the natural scale, ordered as
    (beta1, beta2, xi); ``cov`` comes from the inverse observed Hessian.
    Non-converged fits carry NaN standard errors, never fabricated ones.
    """

    coef: CoefVector
    se: np.ndarray
    cov: np.ndarray
    loglik: float
    n_zero: int
    n_pos: int
    converged: bool
    iterations: int
    names1: tuple[str, ...]
    names2: tuple[str, ...]
    y_trunc: float
    xi_fixed: bool = False
    trace: tuple[tuple[int, float, float], ...] = ()

    @property
    def n(self) -> int:
        return self.n_zero + self.n_pos

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(
            [f"pi:{n}" for n in self.names1]
            + [f"mu:{n}" for n in self.names2]
            + ["xi"]
        )

    @property
    def estimates(self) -> np.ndarray:
        """Natural-scale parameter vector (beta1, beta2, xi)."""
        return np.concatenate([self.coef.beta1, self.coef.beta2, [self.coef.xi]])

    @property
    def n_free_params(self) -> int:
        k = self.coef.beta1.size + self.coef.beta2.size
        return k if self.xi_fixed else k + 1


@dataclass(frozen=True)
class TestResult:
    """A Wald or likelihood-ratio test outcome."""

    statistic: float
    p_value: float
    kind: str
    df: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def numeric_gradient(f, x, h: float = GRAD_STEP) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h*max(1, |x_j|).

    Raises if the function is non-finite at any probe point, naming the
    coordinate.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        hj = h * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += hj
        xm[j] -= hj
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value probing coordinate {j}")
        g[j] = (fp - fm) / (2.0 * hj)
    return g


def numeric_hessian(f, x, h: float = HESS_STEP) -> np.ndarray:
    """Central second differences, symmetrized as (H + H^T)/2."""
    x = np.asarray(x, dtype=float)
    k = x.size
    steps = np.array([h * max(1.0, abs(x[j])) for j in range(k)])
    f0 = f(x)
    if not np.isfinite(f0):
        raise ValueError("non-finite function value at the expansion point")
    H = np.empty((k, k))
    for i in range(k):
        xp, xm = x.copy(), x.copy()
        xp[i] += steps[i]
        xm[i] -= steps[i]
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value probing coordinate {i}")
        H[i, i] = (fp - 2.0 * f0 + fm) / steps[i] ** 2
        for j in range(i + 1, k):
            fpp = f(_bump(x, (i, steps[i]), (j, steps[j])))
            fpm = f(_bump(x, (i, steps[i]), (j, -steps[j])))
            fmp = f(_bump(x, (i, -steps[i]), (j, steps[j])))
            fmm = f(_bump(x, (i, -steps[i]), (j, -steps[j])))
            if not all(np.isfinite(v) for v in (fpp, fpm, fmp, fmm)):
                raise ValueError(
                    f"non-finite function value probing coordinates ({i}, {j})"
                )
            H[i, j] = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
            H[j, i] = H[i, j]
    return (H + H.T) / 2.0


def _bump(x: np.ndarray, *moves: tuple[int, float]) -> np.ndarray:
    out = x.copy()
    for j, dj in moves:
        out[j] += dj
    return out


# Stopping rule of the Newton pass (see _maximize_newton): decrement below
# _DECREMENT_TOL, _MAX_ITER iterations, or a free shape within _EDGE of 1.
_DECREMENT_TOL = 1e-16
_EDGE = 1e-3
_FTOL = 1e-10
_MAX_ITER = 500
# Armijo constant of the step-halving search, and the number of halvings
# (step 2**-40) after which a direction counts as failed.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


def _load_lapack():
    """scipy's compiled LAPACK module, the one behind ``scipy.linalg.lapack``,
    on its own: importing the scipy.linalg package for two routines would add
    about 6 MB of resident memory, a tenth of a small fit's process."""
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy.__path__[0], "linalg")]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_lapack()


def _newton_direction(grad: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascent direction (-H)^-1 g and the lower Cholesky factor of -H, from one
    ``dposv``. Where -H is not positive definite (far from the optimum), the
    factor is None and the eigenvalues of -H are taken absolute, floored."""
    factor, step, info = lapack.dposv(-hess, grad, lower=1)
    if info == 0:
        return step, factor
    if info < 0:
        raise np.linalg.LinAlgError(f"dposv rejected argument {-info}")
    lam, vec = np.linalg.eigh(-hess)
    floor = 1e-8 * max(1.0, float(np.max(np.abs(lam))))
    return vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), floor)), None


def _maximize_newton(evaluate, x0, k: int):
    """Maximize f by Newton's method with step halving, moving only the
    first ``k`` coordinates (a fixed shape is the last one).

    ``evaluate(x)`` returns f with its analytic gradient and Hessian, and
    f = -inf where any of them is not finite, so a point is feasible exactly
    when f is finite. The step p solves the free block of the Newton system.
    The pass converges when the decrement g'p = g'(-H)^-1 g, which no linear
    change of x moves, is below ``_DECREMENT_TOL`` (a step under 1e-8
    standard errors) with -H positive definite. A trial step is accepted
    when f rises by the Armijo fraction of the predicted rise, less
    ``_FTOL * max(1, |f|)`` for the rounding of a long sum. The pass ends
    unconverged after ``_MAX_ITER`` iterations, when no halved step is
    accepted, or when a free shape comes within ``_EDGE`` of 1.

    Returns (x, factor, trace): the Cholesky factor of the free block of -H
    at x when the pass converged, else None, and one (iteration, f, gradient
    max-norm) per iteration; raises ValueError when x0 is not feasible.
    """
    x = np.asarray(x0, dtype=float)
    fx, g, H = evaluate(x)
    if not np.isfinite(fx):
        raise ValueError("log-likelihood is not finite at the starting coefficients")
    trace: list[tuple[int, float, float]] = []
    while len(trace) < _MAX_ITER:
        step, factor = _newton_direction(g[:k], H[:k, :k])
        decrement = float(g[:k] @ step)
        if decrement < _DECREMENT_TOL:
            return x, factor, tuple(trace)
        p = np.zeros_like(x)
        p[:k] = step
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            xt = x + alpha * p
            ft, gt, Ht = evaluate(xt)
            if ft >= fx + _ARMIJO * alpha * decrement - _FTOL * max(1.0, abs(fx)):
                break
            alpha *= 0.5
        else:
            break
        x, fx, g, H = xt, ft, gt, Ht
        trace.append((len(trace) + 1, fx, float(np.max(np.abs(g[:k])))))
        if k == x.size and x[-1] > 1.0 - _EDGE:
            break
    return x, None, tuple(trace)


class _Rows(NamedTuple):
    """A fit's rows, zero rows first: ``n_zero`` of them, then the positive
    rows. ``v`` is y_trunc on a zero row and y on a positive row, the value
    that the row's w = v/sigma is formed from. The designs are stored
    transposed (p x n, C order), the layout in which the blocked products
    run fastest; ``x2`` is ``x1`` when both parts share a design."""

    n_zero: int
    v: np.ndarray
    x1: np.ndarray
    x2: np.ndarray


def _split_rows(y: np.ndarray, y_trunc: float, spec: ModelSpec) -> _Rows:
    """Order y, X1 and X2 zero rows first; the fitter does this once, since
    y does not change during a fit. A design that both parts share is
    stored once."""
    order, n_zero, v = _zero_first(y, y_trunc)
    x1 = spec.x1.T.take(order, axis=1)
    x2 = x1 if spec.x2 is spec.x1 else spec.x2.T.take(order, axis=1)
    return _Rows(n_zero, v, x1, x2)


def _score_hessian(rows: _Rows, b1, b2, xi: float):
    """Log-likelihood, analytic score and Hessian in (beta1, beta2, xi) from
    one kernel pass.

    eta1 and eta2 are formed for all rows by one product each. The rows go
    through :func:`zitpo.model._row_derivs` in blocks of ``_ROW_BLOCK``, one
    call per block for both row kinds, so the kernel's temporaries take the
    same memory at any n. Each block's terms are summed, and their
    derivatives with respect to (eta1, eta2, xi) are summed into ``X1'g1``,
    ``X2'g2`` and blocks ``X'(w*X)``; no per-row matrix is formed. The eta1
    cross blocks come from the block's zero rows alone, since they are
    identically zero on positive rows. The log-likelihood is -inf when it,
    the score or the Hessian is not finite.

    An infeasible trial costs a support check, not a kernel pass: at
    ``xi < 0`` a positive row at or past the support end, x = xi*w <= -1,
    makes its term -inf, so the pass returns ``(-inf, None, None)``
    before the kernel runs. The check and the kernel share eta2.
    """
    n_zero, n = rows.n_zero, rows.v.size
    eta2 = b2 @ rows.x2
    if xi < 0.0 and _beyond_support(rows.v[n_zero:], eta2[n_zero:], xi):
        return -math.inf, None, None
    eta1 = b1 @ rows.x1
    parts = []
    for block, nz in _block_bounds(n, n_zero):
        a1, a2 = rows.x1[:, block], rows.x2[:, block]
        z1, z2 = a1[:, :nz], a2[:, :nz]
        t, g, h = _row_derivs(rows.v[block], nz, eta1[block], eta2[block], xi)
        parts.append((
            float(t.sum()), a1 @ g[0], a2 @ g[1], g[2].sum(),
            (a1 * h[0]) @ a1.T, (z1 * h[1, :nz]) @ z2.T, z1 @ h[2, :nz],
            (a2 * h[3]) @ a2.T, a2 @ h[4], h[5].sum(),
        ))
    loglik, sc1, sc2, sc3, h11, h12, h13, h22, h23, h33 = (
        parts[0] if len(parts) == 1 else map(sum, zip(*parts))
    )
    p1, p2 = b1.size, b2.size
    s1, s2 = slice(0, p1), slice(p1, p1 + p2)
    # the Hessian and, in its last row, the score: one finiteness check
    out = np.empty((p1 + p2 + 2, p1 + p2 + 1))
    hess, score = out[:-1], out[-1]
    score[s1], score[s2], score[-1] = sc1, sc2, sc3
    hess[s1, s1] = h11
    hess[s1, s2] = h12
    hess[s2, s1] = h12.T
    hess[s2, s2] = h22
    hess[s1, -1] = hess[-1, s1] = h13
    hess[s2, -1] = hess[-1, s2] = h23
    hess[-1, -1] = h33
    if not (math.isfinite(loglik) and np.isfinite(out).all()):
        loglik = -math.inf
    return loglik, score, hess


def _beyond_support(y_pos: np.ndarray, eta2_pos: np.ndarray, xi: float) -> bool:
    """Whether some positive y lies at or past the support end of a
    ``xi < 0`` fit: x = xi*w <= -1, formed by the expressions of
    :func:`zitpo.model._row_derivs` (an overflowing w reads x = -inf)."""
    with np.errstate(over="ignore"):
        x = xi * (y_pos * np.exp(-eta2_pos) * (1.0 / (1.0 - xi)))
    return bool((x <= -1.0).any())


def _default_start(y: np.ndarray, spec: ModelSpec, xi_start: float) -> CoefVector:
    pos = y > 0.0
    frac = min(max(float(np.mean(pos)), 1e-3), 1.0 - 1e-3)
    b1 = np.zeros(spec.x1.shape[1])
    b1[0] = math.log(frac / (1.0 - frac))
    b2 = np.zeros(spec.x2.shape[1])
    b2[0] = math.log(float(np.mean(y[pos])))
    if xi_start < 0.0:
        # keep every positive y inside the support end mu*(1 - xi)/|xi|, twice over
        b2[0] = max(b2[0], math.log(2.0 * float(np.max(y)) * -xi_start / (1.0 - xi_start)))
    return CoefVector(beta1=b1, beta2=b2, xi=xi_start)


def fit_mle(
    y,
    y_trunc: float,
    spec: ModelSpec,
    init: CoefVector | None = None,
    *,
    fix_xi: float | None = None,
) -> FitResult:
    """Fit the mixture model by maximum likelihood.

    Parameters
    ----------
    y : array_like
        Response vector; each entry 0 or > ``y_trunc``.
    y_trunc : float
        Known recording threshold.
    spec : ModelSpec
        Design matrices for both parts.
    init : CoefVector, optional
        Starting coefficients. Defaults to the logit of the positive
        fraction / log of the positive mean for the intercepts, zeros for
        the remaining coefficients, and ``XI_START`` (or ``fix_xi``; below 0
        the mu intercept is raised so every positive y is in the support).
    fix_xi : float, optional
        Freeze the shape at this value instead of estimating it; it
        overrides ``init.xi``.

    One Newton pass on (beta1, beta2, xi) runs from the start (see
    :func:`_maximize_newton`), so the fit is deterministic given (data,
    init, fix_xi); ``trace`` records each iteration. A pass that stops
    without the Cholesky factor of a positive definite information has
    ``converged=False`` and NaN standard errors.
    """
    y = _check_response(y, y_trunc, spec)
    n_pos = int(np.sum(y > 0.0))
    n_zero = y.size - n_pos
    p1, p2 = spec.x1.shape[1], spec.x2.shape[1]
    if n_zero == 0:
        raise ValueError("response contains no zeros; the mixture part is degenerate")
    if n_pos == 0:
        raise ValueError("response contains no positive observations")
    if n_pos < p2 + 1:
        raise ValueError(
            f"need at least {p2 + 1} positive observations for {p2} mean "
            f"coefficients plus the shape, got {n_pos}"
        )
    _check_rank(spec.x1, spec.names1)
    if spec.x2 is not spec.x1:
        _check_rank(spec.x2, spec.names2)

    if init is None:
        init = _default_start(y, spec, XI_START if fix_xi is None else fix_xi)
    if init.beta1.size != p1 or init.beta2.size != p2:
        raise ValueError("starting coefficients do not match the design dimensions")

    rows = _split_rows(y, y_trunc, spec)

    def evaluate(theta: np.ndarray):
        if theta[-1] >= 1.0:
            return -math.inf, None, None
        return _score_hessian(rows, theta[:p1], theta[p1:-1], float(theta[-1]))

    theta0 = np.concatenate([init.beta1, init.beta2, [init.xi if fix_xi is None else fix_xi]])
    k = p1 + p2 + (fix_xi is None)
    xhat, factor, trace = _maximize_newton(evaluate, theta0, k)
    converged = factor is not None
    b1, b2, xi = xhat[:p1], xhat[p1:-1], float(xhat[-1])
    coef = CoefVector(beta1=b1, beta2=b2, xi=xi)
    # fsum is correctly rounded: the value depends on neither blocks nor row order
    loglik = math.fsum(_loglik_terms(rows.v, rows.n_zero, b1 @ rows.x1, b2 @ rows.x2, xi))

    cov = np.full((theta0.size,) * 2, 0.0 if converged else np.nan)
    if converged:
        cov[:k, :k] = _covariance(factor)

    return FitResult(
        coef=coef,
        se=np.sqrt(np.diag(cov)),
        cov=cov,
        loglik=loglik,
        n_zero=n_zero,
        n_pos=n_pos,
        converged=converged,
        iterations=len(trace),
        names1=spec.names1,
        names2=spec.names2,
        y_trunc=float(y_trunc),
        xi_fixed=fix_xi is not None,
        trace=trace,
    )


def _covariance(factor: np.ndarray) -> np.ndarray:
    """Inverse of the information from its lower Cholesky factor: ``dpotri``
    fills the lower triangle (it cannot fail on a positive diagonal)."""
    inv, _ = lapack.dpotri(factor, lower=1)
    return np.tril(inv) + np.tril(inv, -1).T


def _check_level(level: float) -> None:
    """Raise unless the confidence level lies in (0, 1)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")


def confidence_interval(fit: FitResult, level: float = 0.95) -> np.ndarray:
    """Normal-theory intervals estimate +/- z_{(1+level)/2} * se, one row per
    parameter in (beta1, beta2, xi) order."""
    if not fit.converged:
        raise ValueError("confidence intervals require a converged fit")
    _check_level(level)
    z = norm_ppf((1.0 + level) / 2.0)
    est = fit.estimates
    return np.column_stack([est - z * fit.se, est + z * fit.se])


def wald_test(fit: FitResult) -> list[TestResult]:
    """Two-sided normal tests, one per regression coefficient (both parts)."""
    if not fit.converged:
        raise ValueError("Wald tests require a converged fit")
    k = fit.coef.beta1.size + fit.coef.beta2.size
    est = fit.estimates[:k]
    se = fit.se[:k]
    if np.any(se == 0.0):
        j = int(np.argmax(se == 0.0))
        raise ValueError(f"zero standard error for {fit.param_names[j]}")
    out = []
    for b, s in zip(est, se):
        z = b / s
        out.append(TestResult(statistic=float(z), p_value=2.0 * norm_sf(abs(z)), kind="wald"))
    return out


def lrt(full: FitResult, reduced: FitResult) -> TestResult:
    """Likelihood-ratio test of a reduced model nested in a full one.

    Nesting is checked by column names per part and by matching data
    signatures (n, zero/positive split, truncation threshold).
    """
    for part, f_names, r_names in (
        ("pi", full.names1, reduced.names1),
        ("mu", full.names2, reduced.names2),
    ):
        missing = set(r_names) - set(f_names)
        if missing:
            raise ValueError(
                f"models are not nested: {part} part of the reduced model has "
                f"columns {sorted(missing)} absent from the full model"
            )
    if (full.n_zero, full.n_pos, full.y_trunc) != (
        reduced.n_zero,
        reduced.n_pos,
        reduced.y_trunc,
    ):
        raise ValueError("models were fitted to different data")
    df = full.n_free_params - reduced.n_free_params
    stat = 2.0 * (full.loglik - reduced.loglik)
    if stat < -1e-8:
        raise ValueError(
            f"likelihood ratio statistic {stat} is negative: the models are "
            "not nested or a fit did not converge"
        )
    stat = max(stat, 0.0)
    return TestResult(statistic=stat, p_value=chi2_sf(stat, df), kind="lrt", df=df)
