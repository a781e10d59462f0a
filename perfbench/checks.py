"""Correctness checks of the program's outputs against ``reference``.

Each check raises :class:`CheckFailed` naming what disagreed. None of them
compares against a stored copy of earlier output: every expected value is
recomputed from the inputs with the reference formulas, or follows from a
property of the method.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import ndtri

import reference as ref

# The fitter's default stopping rule on the gradient max-norm.
FIT_GTOL = 1e-6
# Estimates must lie within this many standard errors of the truth; with
# at most 22 parameters, a correct fit trips it with probability below 1e-4.
TRUTH_SES = 5.0
# A simulated positive count must lie within this many binomial SDs.
BINOMIAL_SDS = 5.0
QQ_COLUMNS = [
    "row_id",
    "residual",
    "empirical_q",
    "theoretical_q",
    "log_empirical_q",
    "log_theoretical_q",
]


class CheckFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(b)))


def read_columns(path, factors=()) -> dict[str, np.ndarray]:
    """Parse a generated CSV with numpy alone: floats, or strings for factors."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    out = {}
    numeric = [j for j, h in enumerate(header) if h not in factors]
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
    for k, j in enumerate(numeric):
        out[header[j]] = values[:, k]
    for j, h in enumerate(header):
        if h in factors:
            out[h] = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[j], dtype=str)
    return out


class FitReference:
    """Reference quantities for one fitted report on one dataset.

    Holds the design rebuilt from the raw columns; the log-likelihood,
    score and Hessian are computed once per distinct set of estimates.
    """

    def __init__(self, columns, response, y0, pi_terms, mu_terms, levels):
        self.y = columns[response]
        self.y0 = y0
        self.x1, self.names1 = ref.treatment_design(columns, pi_terms, levels)
        self.x2, self.names2 = ref.treatment_design(columns, mu_terms, levels)
        self._cache: dict[bytes, dict] = {}

    def at(self, params: np.ndarray) -> dict:
        key = params.tobytes()
        if key not in self._cache:
            y, y0, x1, x2 = self.y, self.y0, self.x1, self.x2
            p1, p2 = x1.shape[1], x2.shape[1]
            terms = ref.loglik_terms(
                y, y0, x1, x2, params[:p1], params[p1 : p1 + p2], params[-1]
            )
            theta = ref.theta_from_params(params)
            score = ref.central_gradient(lambda t: ref.loglik_theta(y, y0, x1, x2, t), theta)
            hess = ref.central_hessian(lambda p: ref.loglik(y, y0, x1, x2, p), params)
            self._cache[key] = {
                "loglik": float(np.sum(terms)),
                "score": score,
                "score_tol": ref.score_tolerance(float(np.sum(np.abs(terms))), theta, FIT_GTOL),
                "se": np.sqrt(np.diag(np.linalg.inv(-hess))),
            }
        return self._cache[key]

    def mu(self, params: np.ndarray) -> np.ndarray:
        p1, p2 = self.x1.shape[1], self.x2.shape[1]
        return np.exp(self.x2 @ params[p1 : p1 + p2])

    def pi(self, params: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(self.x1 @ params[: self.x1.shape[1]])))


def report_params(report: dict) -> tuple[np.ndarray, np.ndarray]:
    fit = report["fit"]
    rows = fit["pi_part"] + fit["mu_part"]
    est = np.array([r["estimate"] for r in rows] + [fit["xi"]["estimate"]])
    se = np.array(
        [np.nan if r["se"] is None else r["se"] for r in rows]
        + [np.nan if fit["xi"]["se"] is None else fit["xi"]["se"]]
    )
    return est, se


def check_fit_report(report: dict, fr: FitReference, truth: np.ndarray) -> None:
    """Converged fit whose numbers agree with the reference likelihood."""
    fit = report["fit"]
    expect(fit["converged"] is True, "fit did not converge")
    expect(
        [r["name"] for r in fit["pi_part"]] == fr.names1
        and [r["name"] for r in fit["mu_part"]] == fr.names2,
        "coefficient names differ from the reference design",
    )
    est, se = report_params(report)
    r = fr.at(est)
    expect(
        close(fit["loglik"], r["loglik"], 1e-9),
        f"loglik {fit['loglik']!r} vs reference {r['loglik']!r}",
    )
    worst = float(np.max(np.abs(r["score"])))
    expect(
        worst <= r["score_tol"],
        f"reference score max-norm {worst:.3g} above {r['score_tol']:.3g}",
    )
    expect(close(se, r["se"], 1e-3), f"SEs {se} vs reference {r['se']}")
    z = np.abs(est - truth) / se
    expect(
        float(np.max(z)) <= TRUTH_SES,
        f"estimate {int(np.argmax(z))} is {float(np.max(z)):.2f} SEs from the truth",
    )


def check_qq_csv(path, fr: FitReference, params: np.ndarray) -> None:
    """QQ rows: reference residuals by row id, GPD quantiles by position."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    expect(header == QQ_COLUMNS, f"QQ header {header}")
    qq = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xi = float(params[-1])
    pos = np.nonzero(fr.y > fr.y0)[0]
    res = ref.pareto_residuals(fr.y[pos], fr.mu(params)[pos], xi, fr.y0)
    rows = qq[:, 0].astype(np.int64)
    m = pos.size
    expect(qq.shape[0] == m, f"{qq.shape[0]} QQ rows for {m} positive responses")
    expect(np.array_equal(np.sort(rows), pos), "QQ row ids are not the positive rows")
    by_row = np.empty(fr.y.size)
    by_row[pos] = res
    expect(close(qq[:, 1], by_row[rows], 1e-10), "residuals differ from the reference")
    expect(bool(np.all(np.diff(qq[:, 1]) >= 0.0)), "residuals are not in ascending order")
    expect(np.array_equal(qq[:, 2], qq[:, 1]), "empirical quantiles are not the residuals")
    theo = ref.unit_mean_gpd_quantile((np.arange(m) + 0.5) / m, xi)
    expect(close(qq[:, 3], theo, 1e-10), "theoretical quantiles differ from the GPD")
    expect(close(qq[:, 4], np.log(qq[:, 1]), 0.0, 1e-12), "log empirical quantiles")
    expect(close(qq[:, 5], np.log(theo), 0.0, 1e-10), "log theoretical quantiles")


def check_calibration(rows: list[dict], y, pi, p0, bins: int = 10) -> None:
    """Bins are contiguous runs of predicted pi whose means match the
    closed-form zero probability and the observed zero fraction."""
    n = y.size
    counts = [r["count"] for r in rows]
    expect(sum(counts) == n, f"bin counts sum to {sum(counts)}, not {n}")
    expect([r["bin"] for r in rows] == list(range(bins)), "bins missing or out of order")
    order = np.argsort(pi, kind="stable")
    edges = np.concatenate([[0], np.cumsum(counts)])
    for r, lo, hi in zip(rows, edges[:-1], edges[1:]):
        sel = order[lo:hi]
        expect(close(r["mean_pi"], np.mean(pi[sel]), 1e-9), f"bin {r['bin']} mean_pi")
        expect(
            close(r["predicted_zero"], np.mean(p0[sel]), 1e-9),
            f"bin {r['bin']} predicted zero {r['predicted_zero']} vs {np.mean(p0[sel])}",
        )
        expect(
            close(r["observed_zero"], np.mean(y[sel] == 0.0), 1e-12),
            f"bin {r['bin']} observed zero fraction",
        )


def read_estimates(path) -> list[tuple[int, str, float, float, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expect(
            header == ["replicate", "parameter", "estimate", "se", "covered"],
            f"estimates header {header}",
        )
        return [(int(r), p, float(e), float(s), int(c)) for r, p, e, s, c in reader]


def check_coverage(report: dict, rows, reps: int, names: list[str], truth, level: float):
    """Report and per-replicate CSV agree with each other and the truth.

    Returns the converged replicate indices, in order.
    """
    flags = report["converged_flags"]
    expect(report["reps"] == reps and len(flags) == reps, "replicate count")
    expect(
        report["n_converged"] + report["n_excluded"] == reps
        and report["n_converged"] == sum(flags),
        "converged plus excluded replicates differ from those attempted",
    )
    done = [r for r in range(reps) if flags[r]]
    k = len(names)
    expect(len(rows) == k * len(done), f"{len(rows)} estimate rows for {len(done)} fits")
    expect([r[0] for r in rows] == [r for r in done for _ in range(k)], "replicate ids")
    expect([r[1] for r in rows] == names * len(done), "parameter names")
    est = np.array([r[2] for r in rows]).reshape(-1, k)
    se = np.array([r[3] for r in rows]).reshape(-1, k)
    covered = np.array([r[4] for r in rows]).reshape(-1, k).astype(bool)
    z = float(ndtri((1.0 + level) / 2.0))
    gap = np.abs(est - truth) - z * se
    # A flag is only ambiguous when the truth sits on the interval end.
    clear = np.abs(gap) > 1e-12 * z * se
    expect(np.array_equal(covered[clear], (gap <= 0.0)[clear]), "covered flags")
    by_name = {p["name"]: p for p in report["params"]}
    expect(list(by_name) == names, "report parameter order")
    for j, name in enumerate(names):
        p = by_name[name]
        mean = float(np.mean(est[:, j]))
        expect(close(p["truth"], truth[j], 0.0), f"{name} truth")
        expect(close(p["mean"], mean, 1e-12, 1e-15), f"{name} mean")
        expect(close(p["bias"], mean - truth[j], 1e-12, 1e-15), f"{name} bias")
        expect(close(p["sd"], np.std(est[:, j], ddof=1), 1e-10), f"{name} sd")
        expect(close(p["coverage"], np.mean(covered[:, j]), 1e-12), f"{name} coverage")
    return done, est


def check_replicate(y, y0, x, params, truth, xi_truth) -> None:
    """A regenerated replicate: the reference score at the reported
    estimates is near zero, and the positive count is binomially plausible
    at the truth."""
    theta = ref.theta_from_params(params)
    score = ref.central_gradient(lambda t: ref.loglik_theta(y, y0, x, x, t), theta)
    p = x.shape[1]
    terms = ref.loglik_terms(y, y0, x, x, params[:p], params[p : 2 * p], params[-1])
    tol = ref.score_tolerance(float(np.sum(np.abs(terms))), theta, FIT_GTOL)
    worst = float(np.max(np.abs(score)))
    expect(worst <= tol, f"replicate reference score {worst:.3g} above {tol:.3g}")
    pi = 1.0 / (1.0 + np.exp(-(x @ truth[:p])))
    mu = np.exp(x @ truth[p : 2 * p])
    p_pos = 1.0 - ref.p_zero(pi, mu, xi_truth, y0)
    expected = float(np.sum(p_pos))
    sd = float(np.sqrt(np.sum(p_pos * (1.0 - p_pos))))
    n_pos = int(np.sum(y > 0.0))
    expect(
        abs(n_pos - expected) <= BINOMIAL_SDS * sd,
        f"{n_pos} positives, expected {expected:.1f} +/- {sd:.1f}",
    )
