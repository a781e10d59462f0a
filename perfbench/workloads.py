"""The three workloads: generated inputs, the timed loop and the checks.

Every workload is a closed loop from one process: the next operation
starts when the previous one has returned. A run repeats whole rounds of
the workload's operations until they have taken ``--seconds``. Operations
outside a workload's rounds that still have an end-to-end metric (say,
``replicates_per_s`` on ``fit-20k``) run as companions after each round.
"""

from __future__ import annotations

import json

import numpy as np

import checks
import reference as ref

Y0 = 0.125
XI = 0.25
COVARIATES = ["normal", "poisson", "bernoulli1", "bernoulli2", "exponential"]
# The reference design's coefficients (intercept first), stated here so
# that a change to the package's preset shows as a failed check.
BETA1 = [1.0, 1.0, -0.5, 0.5, 0.25, 0.25]
BETA2 = [2.0, 1.0, 0.5, 0.5, 0.25, 0.25]
REGIONS = np.array(["north", "east", "south", "west"])
REGION_PI = COVARIATES + ["region"]
REGION_MU = COVARIATES + ["region", "region:normal"]
# Set-ups per run: short ones are repeated more, since one short sample
# reads whichever speed the machine happens to run at.
SHORT_SETUPS = 7
LONG_SETUPS = 3
COVERAGE_REPS = 4
COMPANION_REPS = 4
COMPANION_FILES = 8
WORKERS = 2
LEVEL = 0.95


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Full-precision CSV; floats as repr so the program reads them exactly."""
    names = list(columns)
    cells = [
        [c if isinstance(c, str) else repr(float(c)) for c in columns[name]]
        for name in names
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("\n".join(",".join(row) for row in zip(*cells)) + "\n")


def simulate_columns(seed: int, n: int, rep: int) -> dict[str, np.ndarray]:
    """One draw of the reference design through the package's simulator."""
    from zitpo.simulation import reference_config, simulate_dataset

    cfg = reference_config(n=n, reps=1, xi=XI, seed=seed, y_trunc=Y0)
    if list(cfg.truth) != BETA1 + BETA2 + [XI]:
        raise checks.CheckFailed(f"reference preset truth changed: {cfg.truth}")
    y, spec = simulate_dataset(cfg, rep)
    cols = {"y": y}
    for j, name in enumerate(COVARIATES):
        cols[name] = spec.x1[:, j + 1]
    return cols


def fit_argv(data, out, pi_terms, mu_terms, factors=()) -> list[str]:
    argv = ["fit", "--data", str(data), "--response", "y", "--trunc", repr(Y0)]
    argv += ["--pi-formula", ", ".join(pi_terms), "--mu-formula", ", ".join(mu_terms)]
    for f in factors:
        argv += ["--factor", f]
    return argv + ["--out", str(out)]


def diagnose_argv(report, data, out_csv) -> list[str]:
    return ["diagnose", "--report", str(report), "--data", str(data), "--out-csv", str(out_csv)]


def coverage_argv(seed, reps, out, est_csv) -> list[str]:
    return [
        "coverage", "--preset", "reference", "--n", "1000", "--reps", str(reps),
        "--xi", repr(XI), "--seed", str(seed), "--workers", str(WORKERS),
        "--out", str(out), "--estimates-csv", str(est_csv),
    ]


def load_fit_result(report: dict, names1, names2):
    """A converged FitResult rebuilt from a report, for zero_calibration."""
    from zitpo import CoefVector, FitResult

    est, se = checks.report_params(report)
    p1 = len(names1)
    k = est.size
    return FitResult(
        coef=CoefVector(beta1=est[:p1], beta2=est[p1:-1], xi=est[-1]),
        se=se,
        cov=np.full((k, k), np.nan),
        loglik=report["fit"]["loglik"],
        n_zero=report["data"]["n_zero"],
        n_pos=report["data"]["n_pos"],
        converged=True,
        iterations=report["fit"]["iterations"],
        names1=tuple(names1),
        names2=tuple(names2),
        y_trunc=Y0,
    )


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Calibration:
    """zero_calibration on a dataset and report, with its reference."""

    def __init__(self, data, report_path, fr: checks.FitReference, factors=()):
        from zitpo import ContrastSpec, make_model_spec, parse_formula, read_csv

        report = read_json(report_path)
        ds = read_csv(data, "y", Y0, tuple(ContrastSpec(f) for f in factors))
        self.spec, _ = make_model_spec(
            ds,
            parse_formula(report["model"]["pi_formula"]),
            parse_formula(report["model"]["mu_formula"]),
            declared_levels=report["model"]["levels"],
        )
        self.y = ds.y
        self.fit = load_fit_result(report, self.spec.names1, self.spec.names2)
        params, _ = checks.report_params(report)
        self.pi = fr.pi(params)
        self.p0 = ref.p_zero(self.pi, fr.mu(params), float(params[-1]), Y0)

    def op(self, run) -> None:
        from zitpo.diagnostics import zero_calibration

        rows = run.op(
            "calibration",
            lambda: zero_calibration(self.y, Y0, self.fit, self.spec),
            span="diagnostics.zero_calibration",
        )
        run.check(rows, lambda: checks.check_calibration(rows, self.y, self.pi, self.p0))


def fit_and_check(run, argv, report_path, fr, truth) -> dict | None:
    if run.cli("fit", argv) is None:
        return None
    report = read_json(report_path)
    run.check(True, lambda: checks.check_fit_report(report, fr, truth))
    return report


def diagnose_and_check(run, report_path, data, qq_path, fr) -> None:
    if run.cli("diagnose", diagnose_argv(report_path, data, qq_path)) is None:
        return
    params, _ = checks.report_params(read_json(report_path))
    run.check(True, lambda: checks.check_qq_csv(qq_path, fr, params))


def coverage_and_check(run, seed, reps, tag) -> None:
    """One ``zitpo coverage`` command at n=1000 and the checks of its output."""
    from zitpo.simulation import reference_config, simulate_dataset

    out = run.work / f"{tag}.json"
    est_csv = run.work / f"{tag}_estimates.csv"
    if run.cli("coverage", coverage_argv(seed, reps, out, est_csv), replicates=reps) is None:
        return
    names = [f"pi:{c}" for c in ["intercept"] + COVARIATES]
    names += [f"mu:{c}" for c in ["intercept"] + COVARIATES] + ["xi"]
    truth = np.array(BETA1 + BETA2 + [XI])

    def verify():
        done, est = checks.check_coverage(
            read_json(out), checks.read_estimates(est_csv), reps, names, truth, LEVEL
        )
        cfg = reference_config(n=1000, reps=reps, xi=XI, seed=seed, y_trunc=Y0)
        for k in range(min(2, len(done))):
            y, spec = simulate_dataset(cfg, done[k])
            checks.check_replicate(y, Y0, spec.x1, est[k], truth, XI)

    run.check(True, verify)


def _setup(run, make, times: int) -> None:
    """Run the set-up several times; setup_s is the median."""
    for _ in range(times):
        with run.timed("setup"):
            make()


def study_seed(seed: int, round_index: int) -> int:
    """The coverage seed of one round: distinct replicates every round."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def companion_coverage(run) -> None:
    coverage_and_check(
        run, study_seed(run.seed, run.rounds), COMPANION_REPS, "companion_coverage"
    )


def fit_20k(run) -> None:
    """One 20k-row fit with 13 parameters, then its residual diagnosis."""
    data = run.work / "fit20k.csv"
    report = run.work / "fit20k.json"
    qq = run.work / "fit20k_qq.csv"
    _setup(run, lambda: write_csv(data, simulate_columns(run.seed, 20000, 0)), SHORT_SETUPS)
    fr = checks.FitReference(checks.read_columns(data), "y", Y0, COVARIATES, COVARIATES, {})
    truth = np.array(BETA1 + BETA2 + [XI])
    argv = fit_argv(data, report, COVARIATES, COVARIATES)
    calibration = []

    def round_():
        if fit_and_check(run, argv, report, fr, truth) is None:
            run.skip("diagnose")
        else:
            diagnose_and_check(run, report, data, qq, fr)

    def companions():
        if not calibration and report.exists():
            calibration.append(Calibration(data, report, fr))
        if calibration:
            calibration[0].op(run)
        else:
            run.skip("calibration")
        companion_coverage(run)

    run.loop(round_, companions)


def diagnose_200k(run) -> None:
    """Residual diagnosis and zero-part calibration of a 200k-row file with
    a factor and a factor-by-numeric interaction, from a stored report."""
    small = run.work / "region2k.csv"
    big = run.work / "region200k.csv"
    report = run.work / "region2k.json"
    refit = run.work / "region2k_refit.json"
    qq = run.work / "region200k_qq.csv"

    def region_columns(n, rep):
        cols = simulate_columns(run.seed, n, rep)
        # The region has no effect on the response: its coefficients are 0.
        cols["region"] = REGIONS[np.random.default_rng([run.seed, rep]).integers(0, 4, n)]
        return cols

    small_cols = {}
    reports = []
    fit_2k = fit_argv(small, report, REGION_PI, REGION_MU, ["region"])

    def make():
        small_cols.update(region_columns(2000, 1))
        write_csv(small, small_cols)
        write_csv(big, region_columns(200000, 2))
        if run.cli("fit", fit_2k):
            reports.append(read_json(report))

    _setup(run, make, LONG_SETUPS)
    levels = {"region": ref.first_appearance_levels(small_cols["region"])}
    fr_small = checks.FitReference(small_cols, "y", Y0, REGION_PI, REGION_MU, levels)
    p1 = len(fr_small.names1)
    truth = np.zeros(p1 + len(fr_small.names2) + 1)
    truth[:6], truth[p1 : p1 + 6], truth[-1] = BETA1, BETA2, XI

    def check_reference_fit(fit_report):
        checks.expect(fit_report["model"]["levels"] == levels, "factor levels")
        checks.check_fit_report(fit_report, fr_small, truth)

    for fit_report in reports:
        run.check(True, lambda: check_reference_fit(fit_report))
    if len(reports) < LONG_SETUPS:
        return
    fr = checks.FitReference(
        checks.read_columns(big, ["region"]), "y", Y0, REGION_PI, REGION_MU, levels
    )
    cal = Calibration(big, report, fr, ["region"])

    def round_():
        diagnose_and_check(run, report, big, qq, fr)
        cal.op(run)

    def companions():
        # fit_s here is the 2k-row reference fit, repeated into another file
        # so that the rounds' input stays as the set-up left it.
        refit_2k = fit_2k[:-1] + [str(refit)]
        if run.cli("fit", refit_2k):
            run.check(True, lambda: check_reference_fit(read_json(refit)))
        companion_coverage(run)

    run.loop(round_, companions)


def coverage_1k(run) -> None:
    """The n=1000 coverage study, a fixed number of replicates per command."""
    files = [run.work / f"companion1k_{k}.csv" for k in range(COMPANION_FILES)]
    report = run.work / "companion1k.json"
    qq = run.work / "companion1k_qq.csv"
    truth = np.array(BETA1 + BETA2 + [XI])

    def make():
        for k, path in enumerate(files):
            write_csv(path, simulate_columns(run.seed, 1000, 3 + k))

    def companions():
        # fit_s, diagnose_s and calibration_s: one 1k-row file per round, so
        # that they rest on more than one dataset.
        path = files[run.rounds % len(files)]
        fr = checks.FitReference(checks.read_columns(path), "y", Y0, COVARIATES, COVARIATES, {})
        if fit_and_check(run, fit_argv(path, report, COVARIATES, COVARIATES), report, fr, truth):
            diagnose_and_check(run, report, path, qq, fr)
            Calibration(path, report, fr).op(run)
        else:
            run.skip("diagnose")
            run.skip("calibration")

    _setup(run, make, SHORT_SETUPS)
    run.loop(
        lambda: coverage_and_check(
            run, study_seed(run.seed, run.rounds), COVERAGE_REPS, "coverage"
        ),
        companions,
    )
    if run.tracer is not None:
        replay(run, study_seed(run.seed, run.rounds - 1))


def replay(run, seed: int) -> None:
    """Serial replay of the study's replicates, the base of the scheduler
    efficiency: the same simulate, fit and interval steps, one at a time."""
    import zitpo.simulation as simulation
    from zitpo.estimation import confidence_interval
    from zitpo.simulation import reference_config

    run.phase("replay")
    cfg = reference_config(n=1000, reps=COVERAGE_REPS, xi=XI, seed=seed, y_trunc=Y0)
    for r in range(cfg.reps):
        with run.tracer.span("simulation.replicate_serial"):
            y, spec = simulation.simulate_dataset(cfg, r)
            fit = simulation.fit_mle(y, cfg.y_trunc, spec)
            if fit.converged:
                confidence_interval(fit, cfg.level)


WORKLOADS = {
    "fit-20k": fit_20k,
    "diagnose-200k": diagnose_200k,
    "coverage-1k": coverage_1k,
}
