"""Maximum-likelihood fitting and Wald / likelihood-ratio inference.

The likelihood is maximized by Newton's method with step halving. Each trial
point costs one pass of :func:`zitpo.model._loglik_derivs` over the rows; the
value, the analytic score and the Hessian are all summed from that pass. The
shape parameter is optimized through the bijection ``xi = 1 - exp(-t)`` so
the ``xi < 1`` constraint never binds. The reported log-likelihood is a
compensated sum at the optimum. Standard errors come from the observed
information there: the negative of the Newton pass's last Hessian, taken back
to the natural scale of xi.

:func:`numeric_gradient` and :func:`numeric_hessian` are central-difference
oracles for checking the analytic derivatives; the fitter does not use them,
and the package root does not export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, expit, gammaincc, ndtri

from .model import (
    CoefVector,
    ModelSpec,
    _check_rank,
    _check_response,
    _loglik_derivs,
    _loglik_terms,
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
    trace: tuple[tuple[int, float, float], ...] | None = None

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


# Stopping rule of the Newton pass (see _maximize_newton): gradient max-norm
# below _GTOL, at most _MAX_ITER iterations, changes below _FTOL relative flat.
_GTOL = 1e-6
_FTOL = 1e-10
_MAX_ITER = 500
# Armijo constant of the step-halving search, and the number of halvings
# (step 2**-40) after which a direction counts as failed.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# Rows per block of the score/Hessian assembly.
_ROW_BLOCK = 4096


def _newton_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Ascent direction (-H)^-1 g; where -H is not positive definite (far
    from the optimum), its eigenvalues are replaced by their absolute values,
    floored at 1e-8 of the largest, which keeps the step an ascent one."""
    info = -hess
    try:
        np.linalg.cholesky(info)
        return np.linalg.solve(info, grad)
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(info)
        floor = 1e-8 * max(1.0, float(np.max(np.abs(lam))))
        return vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), floor))


def _maximize_newton(evaluate, x0, keep_trace: bool):
    """Maximize f by Newton's method with step halving.

    ``evaluate(x)`` returns f with its analytic gradient and Hessian, and
    f = -inf where any of them is not finite, so a point is feasible exactly
    when f is finite. A trial step is accepted when f rises by the Armijo
    fraction of the predicted rise, or, when f is flat to within
    ``_FTOL * max(1, |f|)`` (near the optimum the change is below the
    rounding of a long sum), when it lowers the gradient max-norm.
    Convergence means gradient max-norm < _GTOL.

    Returns (x, gradient, Hessian, converged, iterations, trace), the
    derivatives at the returned x; raises ValueError when x0 is not feasible.
    """
    x = np.asarray(x0, dtype=float)
    fx, g, H = evaluate(x)
    if not np.isfinite(fx):
        raise ValueError("log-likelihood is not finite at the starting coefficients")
    gnorm = float(np.max(np.abs(g)))
    trace: list[tuple[int, float, float]] = []
    it = 0
    while gnorm >= _GTOL and it < _MAX_ITER:
        p = _newton_direction(g, H)
        slope = float(g @ p)
        flat = _FTOL * max(1.0, abs(fx))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            xt = x + alpha * p
            ft, gt, Ht = evaluate(xt)
            if ft >= fx - flat:
                gtnorm = float(np.max(np.abs(gt)))
                if ft >= fx + _ARMIJO * alpha * slope or gtnorm < gnorm:
                    break
            alpha *= 0.5
        else:
            break
        it += 1
        x, fx, g, H, gnorm = xt, ft, gt, Ht, gtnorm
        if keep_trace:
            trace.append((it, fx, gnorm))
    return x, g, H, gnorm < _GTOL, it, tuple(trace)


def _score_hessian(y, y_trunc: float, spec: ModelSpec, b1, b2, xi: float, free_xi: bool):
    """Log-likelihood, analytic score and Hessian in (beta1, beta2, xi), the
    xi row and column only when ``free_xi``, from one kernel pass.

    The per-row terms are summed, and their derivatives with respect to
    (eta1, eta2, xi) are summed into ``X1'g1``, ``X2'g2`` and blocks
    ``X'(w*X)``; no per-row matrix is formed. Rows go through in blocks of
    ``_ROW_BLOCK``, so the kernel's temporaries take the same memory at any
    n. The log-likelihood is -inf when it, the score or the Hessian is not
    finite.
    """
    x1, x2 = spec.x1, spec.x2
    p1, p2 = x1.shape[1], x2.shape[1]
    s1, s2 = slice(0, p1), slice(p1, p1 + p2)
    k = p1 + p2 + int(free_xi)
    loglik = 0.0
    score = np.zeros(k)
    hess = np.zeros((k, k))
    for lo in range(0, y.size, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        a1, a2 = x1[rows], x2[rows]
        t, g, h = _loglik_derivs(y[rows], a1 @ b1, a2 @ b2, xi, y_trunc)
        loglik += float(np.sum(t))
        score[s1] += a1.T @ g[0]
        score[s2] += a2.T @ g[1]
        hess[s1, s1] += a1.T @ (h[0][:, None] * a1)
        hess[s1, s2] += a1.T @ (h[1][:, None] * a2)
        hess[s2, s2] += a2.T @ (h[3][:, None] * a2)
        if free_xi:
            score[-1] += np.sum(g[2])
            hess[s1, -1] += a1.T @ h[2]
            hess[s2, -1] += a2.T @ h[4]
            hess[-1, -1] += np.sum(h[5])
    hess[s2, s1] = hess[s1, s2].T
    if free_xi:
        hess[-1, :-1] = hess[:-1, -1]
    if not (math.isfinite(loglik) and np.all(np.isfinite(score)) and np.all(np.isfinite(hess))):
        loglik = -math.inf
    return loglik, score, hess


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
    keep_trace: bool = False,
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
        the remaining coefficients, and xi = 0.1 (or ``fix_xi``; below 0
        the mu intercept is raised so every positive y is in the support).
    fix_xi : float, optional
        Freeze the shape at this value instead of estimating it.
    keep_trace : bool
        Record (iteration, loglik, gradient-norm) triples, one per Newton
        iteration.

    One Newton pass runs from the start, so the fit is deterministic given
    (data, init, fix_xi). If it stops short of convergence (``_MAX_ITER``
    iterations, or no halved step accepted), or the information at the
    optimum is not positive definite, the result has ``converged=False``
    and NaN standard errors.
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
    _check_rank(spec.x2, spec.names2)

    if init is None:
        init = _default_start(y, spec, 0.1 if fix_xi is None else fix_xi)
    if init.beta1.size != p1 or init.beta2.size != p2:
        raise ValueError("starting coefficients do not match the design dimensions")

    def unpack(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        b1 = theta[:p1]
        b2 = theta[p1 : p1 + p2]
        if fix_xi is not None:
            return b1, b2, fix_xi
        t = theta[p1 + p2]
        # exp would overflow below -700; such probes are rejected anyway
        xi = 1.0 - math.exp(-t) if t > -700.0 else -math.inf
        return b1, b2, xi

    def evaluate(theta: np.ndarray):
        # Chain rule for xi = 1 - exp(-t): dxi/dt = 1 - xi, d2xi/dt2 = -(1 - xi)
        b1, b2, xi = unpack(theta)
        if not np.isfinite(xi) or xi >= 1.0:
            return -math.inf, None, None
        loglik, score, hess = _score_hessian(y, y_trunc, spec, b1, b2, xi, fix_xi is None)
        if fix_xi is None:
            d = 1.0 - xi
            hess[-1, -1] = hess[-1, -1] * d * d - score[-1] * d
            hess[-1, :-1] *= d
            hess[:-1, -1] *= d
            score[-1] *= d
        return loglik, score, hess

    theta0 = np.concatenate([init.beta1, init.beta2])
    if fix_xi is None:
        xi0 = min(init.xi, 1.0 - 1e-12)
        theta0 = np.append(theta0, -math.log1p(-xi0))
    xhat, grad, hess, converged, iterations, trace = _maximize_newton(
        evaluate, theta0, keep_trace
    )
    b1, b2, xi = unpack(xhat)
    coef = CoefVector(beta1=b1, beta2=b2, xi=xi)
    # the reported value is a compensated sum, so it does not depend on blocking
    with np.errstate(over="ignore", divide="ignore"):
        loglik = math.fsum(
            _loglik_terms(y, expit(spec.x1 @ b1), np.exp(spec.x2 @ b2), xi, y_trunc)
        )

    k = p1 + p2 + 1
    cov = np.full((k, k), np.nan)
    se = np.full(k, np.nan)
    if converged:
        if fix_xi is None:
            # undo evaluate's chain rule on the xi row and column
            d = 1.0 - xi
            hess[-1, -1] = (hess[-1, -1] + grad[-1]) / (d * d)
            hess[-1, :-1] /= d
            hess[:-1, -1] /= d
        cov_free, ok = _covariance(-hess)
        if ok:
            cov = np.zeros((k, k))
            cov[: cov_free.shape[0], : cov_free.shape[0]] = cov_free
            se = np.sqrt(np.diag(cov))
        else:
            converged = False

    return FitResult(
        coef=coef,
        se=se,
        cov=cov,
        loglik=loglik,
        n_zero=n_zero,
        n_pos=n_pos,
        converged=converged,
        iterations=iterations,
        names1=spec.names1,
        names2=spec.names2,
        y_trunc=float(y_trunc),
        xi_fixed=fix_xi is not None,
        trace=trace if keep_trace else None,
    )


def _covariance(info: np.ndarray) -> tuple[np.ndarray, bool]:
    """Inverse of the observed information; flags one that is not positive
    definite."""
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        return np.empty(0), False
    return np.linalg.inv(info), True


def confidence_interval(fit: FitResult, level: float = 0.95) -> np.ndarray:
    """Normal-theory intervals estimate +/- z_{(1+level)/2} * se, one row per
    parameter in (beta1, beta2, xi) order."""
    if not fit.converged:
        raise ValueError("confidence intervals require a converged fit")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
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
