"""Command-line interface: fit, lrt, diagnose, simulate, coverage.

Exit codes: 0 success, 1 input error, 2 fit did not converge (the report is
still written). Reports are JSON with sorted keys and full-precision
numbers, a non-finite number written as ``null``; table rendering on stdout
rounds for display only. This module writes every report file: JSON through
``_write_json``, CSV through ``_write_columns``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .data_io import ContrastSpec, read_csv, parse_formula, make_model_spec
from .diagnostics import ks_statistic, qq_data, residuals
from .estimation import XI_START, FitResult, fit_mle, lrt, norm_sf
from .model import CoefVector
from .simulation import (
    REFERENCE_BETA1,
    REFERENCE_BETA2,
    SimConfig,
    coverage_study,
    reference_config,
    reference_grid,
    simulate_dataset,
)

SCHEMA_VERSION = 1

# Rows that _write_columns formats at a time.
_WRITE_BLOCK_ROWS = 4096

# Table-style significance codes and their p-value thresholds.
_SIG_LEVELS = ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "."))


def sig_code(p: float) -> str:
    for threshold, code in _SIG_LEVELS:
        if p < threshold:
            return code
    return ""


def _add_fit_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    """The data and model flags; ``required`` marks --response and --trunc."""
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--response", required=required, help="response column name")
    parser.add_argument("--trunc", type=float, required=required, help="truncation threshold")
    parser.add_argument("--pi-formula", default="", help="terms for the probability part")
    parser.add_argument("--mu-formula", default="", help="terms for the mean part")
    parser.add_argument(
        "--factor",
        action="append",
        default=[],
        metavar="NAME[:base=LEVEL][:coding=treatment|sum]",
        help="declare a categorical variable (repeatable)",
    )
    parser.add_argument("--fix-xi", type=float, default=None, help="freeze the shape")


def _parse_factor(arg: str) -> ContrastSpec:
    parts = arg.split(":")
    name = parts[0]
    base = None
    kind = "treatment"
    for extra in parts[1:]:
        if extra.startswith("base="):
            base = extra[len("base="):]
        elif extra.startswith("coding="):
            kind = extra[len("coding="):]
        else:
            raise ValueError(f"cannot parse factor option {extra!r} in {arg!r}")
    return ContrastSpec(variable=name, kind=kind, base=base)


def _parse_json(text: str, flag: str):
    """JSON text with every number read as a float; bad JSON names the flag."""
    try:
        return json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None


def _finite(v) -> bool:
    return isinstance(v, float) and math.isfinite(v)


def _float_list(value, what: str) -> tuple[float, ...]:
    """A parsed JSON list of finite numbers as a tuple; anything else names ``what``."""
    if not (isinstance(value, list) and all(_finite(v) for v in value)):
        raise ValueError(f"{what} must be a JSON list of finite numbers, got {json.dumps(value)}")
    return tuple(value)


def _shape_value(value, what: str) -> float:
    """A parsed JSON shape, which must be a finite number below 1; anything else names ``what``."""
    if not (_finite(value) and value < 1.0):
        raise ValueError(f"{what} must be a finite number below 1, got {json.dumps(value)}")
    return value


def _load_init(path: str) -> CoefVector:
    """Starting coefficients from a JSON object with the number lists beta1
    and beta2 and an optional shape xi (default ``XI_START``)."""
    flag = f"--init {path}"
    with open(path, encoding="utf-8") as fh:
        raw = _parse_json(fh.read(), flag)
    if not (isinstance(raw, dict) and {"beta1", "beta2"} <= raw.keys()):
        raise ValueError(f"{flag} must hold a JSON object with beta1, beta2 and optionally xi")
    return CoefVector(
        beta1=_float_list(raw["beta1"], f"{flag}: beta1"),
        beta2=_float_list(raw["beta2"], f"{flag}: beta2"),
        xi=_shape_value(raw.get("xi", XI_START), f"{flag}: xi"),
    )


def _coef_flag(text: str | None, flag: str, default: tuple[float, ...]) -> tuple[float, ...]:
    """The coefficients that --beta1 or --beta2 gives as a JSON list, or the default."""
    return default if text is None else _float_list(_parse_json(text, flag), flag)


def _read_model(
    path, response, y_trunc, factors, pi_formula, mu_formula, declared_levels=None
):
    """Read the CSV and build both designs: (dataset, spec, levels)."""
    ds = read_csv(path, response, y_trunc, factors)
    spec, levels = make_model_spec(
        ds, parse_formula(pi_formula), parse_formula(mu_formula), declared_levels
    )
    return ds, spec, levels


def _prepare(args):
    factors = tuple(_parse_factor(f) for f in args.factor)
    return _read_model(
        args.data, args.response, args.trunc, factors, args.pi_formula, args.mu_formula
    )


def _coef_rows(names, est, se, converged):
    rows = []
    for j, name in enumerate(names):
        row = {"name": name, "estimate": est[j]}
        if converged and np.isfinite(se[j]) and se[j] > 0.0:
            z = est[j] / se[j]
            p = 2.0 * norm_sf(abs(z))
            row.update({"se": se[j], "z": z, "p": p, "sig": sig_code(p)})
        else:
            row.update({"se": None, "z": None, "p": None, "sig": ""})
        rows.append(row)
    return rows


def run_report(args, ds, fit: FitResult, levels) -> dict:
    p1 = fit.coef.beta1.size
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "zitpo", "version": __version__},
        "model": {
            "response": args.response,
            "pi_formula": args.pi_formula,
            "mu_formula": args.mu_formula,
            "y_trunc": ds.y_trunc,
            "factors": [
                {"variable": c.variable, "kind": c.kind, "base": c.base}
                for c in ds.factors
            ],
            "levels": {k: list(v) for k, v in levels.items()},
        },
        "data": {
            "path": args.data,
            "n": ds.n,
            "n_zero": fit.n_zero,
            "n_pos": fit.n_pos,
            "recode_count": ds.recode_count,
        },
        "fit": {
            "converged": fit.converged,
            "iterations": fit.iterations,
            "loglik": fit.loglik,
            "pi_part": _coef_rows(
                fit.names1, fit.coef.beta1, fit.se[:p1], fit.converged
            ),
            "mu_part": _coef_rows(
                fit.names2, fit.coef.beta2, fit.se[p1:-1], fit.converged
            ),
            "xi": {"estimate": fit.coef.xi, "se": fit.se[-1], "fixed": fit.xi_fixed},
        },
        "seed": None,
    }
    if args.trace:
        report["fit"]["trace"] = [
            {"iteration": i, "loglik": l, "grad_norm": g}
            for i, l, g in fit.trace
        ]
    return report


def _nulled(obj):
    """``obj`` with each non-finite float in its dicts, lists and tuples as None."""
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(obj, path: str | None) -> None:
    """The one report text rule: sorted keys, two-space indent, a
    non-finite number as ``null``; to ``path``, or stdout without one."""
    text = json.dumps(_nulled(obj), sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_columns(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length arrays as CSV columns, byte for byte as
    ``csv.writer`` would: floats as their full-precision ``repr``, integers
    and strings as they are, a string quoted where it holds ``,"\\r\\n``.

    Rows are formatted a block at a time, one conversion per distinct array
    in the block, so an array passed twice is formatted once.
    """

    def write(rows) -> None:  # a row of one empty cell is written ""
        fh.write("".join([(",".join(row) or '""') + "\r\n" for row in rows]))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        write([map(_csv_field, header)])
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            text: dict[int, list] = {}
            for col in columns:
                if id(col) not in text:
                    values = col[start : start + _WRITE_BLOCK_ROWS].tolist()
                    kind = col.dtype.kind
                    cell = repr if kind == "f" else str if kind in "biu" else _csv_field
                    text[id(col)] = list(map(cell, values))
            write(zip(*(text[id(col)] for col in columns)))


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _print_coef_table(title: str, rows) -> None:
    print(title)
    print(f"  {'':24s} {'Estimate':>9s} {'SE':>7s} {'z':>7s} {'p':>7s}")
    for r in rows:
        se = f"{r['se']:.3f}" if r["se"] is not None else "-"
        z = f"{r['z']:.2f}" if r["z"] is not None else "-"
        p = f"{r['p']:.3f}" if r["p"] is not None else "-"
        print(
            f"  {r['name'][:24]:24s} {r['estimate']:>9.3f} {se:>7s} {z:>7s} "
            f"{p:>7s} {r['sig']}"
        )


def cmd_fit(args) -> int:
    ds, spec, levels = _prepare(args)
    init = _load_init(args.init) if args.init else None
    fit = fit_mle(ds.y, ds.y_trunc, spec, init=init, fix_xi=args.fix_xi)
    report = run_report(args, ds, fit, levels)
    _write_json(report, args.out)
    _print_coef_table("Probability part (logit link):", report["fit"]["pi_part"])
    _print_coef_table("Mean part (log link):", report["fit"]["mu_part"])
    se = fit.se[-1]
    se = f" (se {se:.3f})" if math.isfinite(se) and se else ""
    ll = format(fit.loglik, ".3f") if math.isfinite(fit.loglik) else None
    print(f"xi: {fit.coef.xi:.4f}{se}   loglik: {ll}")
    if not fit.converged:
        print("warning: fit did not converge", file=sys.stderr)
        return 2
    return 0


def _drop_term(formula_text: str, term: str) -> tuple[str, bool]:
    """Remove a term (and, for a bare variable, its interactions)."""
    spec = parse_formula(formula_text)
    if ":" in term:
        a, b = [p.strip() for p in term.split(":")]
        doomed = {frozenset((a, b))}
    else:
        doomed = {
            frozenset(t.split(":")) for t in spec.terms if term in t.split(":")
        }
    kept = [t for t in spec.terms if frozenset(t.split(":")) not in doomed]
    return ", ".join(kept), len(kept) < len(spec.terms)


def cmd_lrt(args) -> int:
    ds, spec, _ = _prepare(args)
    fix = args.fix_xi
    full = fit_mle(ds.y, ds.y_trunc, spec, fix_xi=fix)
    if not full.converged:
        print("error: full model did not converge", file=sys.stderr)
        return 2
    drops = [t.strip() for t in (args.drop or "").split(",") if t.strip()]
    rows = []
    for term in drops:
        part_formulas = {"pi": args.pi_formula, "mu": args.mu_formula}
        found = False
        for part in ("pi", "mu"):
            reduced_text, removed = _drop_term(part_formulas[part], term)
            if not removed:
                continue
            found = True
            formulas = dict(part_formulas)
            formulas[part] = reduced_text
            red_spec, _ = make_model_spec(
                ds, parse_formula(formulas["pi"]), parse_formula(formulas["mu"])
            )
            reduced = fit_mle(ds.y, ds.y_trunc, red_spec, fix_xi=fix)
            if not reduced.converged:
                print(f"error: reduced model without {term!r} ({part} part) "
                      "did not converge", file=sys.stderr)
                return 2
            test = lrt(full, reduced)
            rows.append(
                {
                    "term": term,
                    "part": part,
                    "statistic": test.statistic,
                    "df": test.df,
                    "p_value": test.p_value,
                    "sig": sig_code(test.p_value),
                }
            )
        if not found:
            raise ValueError(f"term {term!r} is not part of the model")
    result = {"schema_version": SCHEMA_VERSION, "lrt": rows}
    _write_json(result, args.out)
    print(f"  {'term':20s} {'part':4s} {'T':>8s} {'df':>3s} {'p':>7s}")
    for r in rows:
        print(
            f"  {r['term'][:20]:20s} {r['part']:4s} {r['statistic']:>8.2f} "
            f"{r['df']:>3d} {r['p_value']:>7.3f} {r['sig']}"
        )
    return 0


def _read_report(report, flag: str) -> tuple[FitResult, tuple]:
    """The stored fit of a ``zitpo fit`` report, a ``null`` SE read as NaN, and
    the arguments of :func:`_read_model` after the CSV path. A report of
    another shape raises ValueError naming ``flag``."""
    try:
        fit_part, data = report["fit"], report["data"]
        pi_part, mu_part, xi = fit_part["pi_part"], fit_part["mu_part"], fit_part["xi"]
        se = [r["se"] for r in pi_part + mu_part] + [xi["se"]]
        if not all(s is None or _finite(s) for s in se):
            raise ValueError(f"{flag}: every se must be a finite number or null")
        coef = CoefVector(
            beta1=_float_list([r["estimate"] for r in pi_part], f"{flag}: fit.pi_part estimates"),
            beta2=_float_list([r["estimate"] for r in mu_part], f"{flag}: fit.mu_part estimates"),
            xi=_shape_value(xi["estimate"], f"{flag}: fit.xi.estimate"),
        )
        se = np.array(se, dtype=float)
        fit = FitResult(
            coef=coef,
            se=se,
            cov=np.full((se.size, se.size), np.nan),
            loglik=fit_part["loglik"],
            n_zero=int(data["n_zero"]),
            n_pos=int(data["n_pos"]),
            converged=fit_part["converged"],
            iterations=int(fit_part["iterations"]),
            names1=tuple(r["name"] for r in pi_part),
            names2=tuple(r["name"] for r in mu_part),
            y_trunc=report["model"]["y_trunc"],
            xi_fixed=xi["fixed"],
        )
        model = report["model"]
        factors = tuple(
            ContrastSpec(variable=f["variable"], kind=f["kind"], base=f["base"])
            for f in model["factors"]
        )
        return fit, (
            model["response"], model["y_trunc"], factors,
            model["pi_formula"], model["mu_formula"], model["levels"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{flag} does not hold a zitpo fit report ({type(exc).__name__}: {exc})"
        ) from None


def _fit_from_report(report, flag: str = "--report") -> FitResult:
    """The stored fit alone of a ``zitpo fit`` report (see :func:`_read_report`)."""
    return _read_report(report, flag)[0]


# Flags whose values a stored report fixes: its model and its shape.
_REPORT_FIXES = ("response", "trunc", "pi_formula", "mu_formula", "factor", "fix_xi")


def cmd_diagnose(args) -> int:
    if args.report:
        for dest in _REPORT_FIXES:
            if getattr(args, dest) not in (None, "", []):
                raise ValueError(f"--{dest.replace('_', '-')} does not apply to --report")
        flag = f"--report {args.report}"
        with open(args.report, encoding="utf-8") as fh:
            fit, model_args = _read_report(_parse_json(fh.read(), flag), flag)
        ds, spec, _ = _read_model(args.data, *model_args)
        if not fit.converged:
            print("error: stored fit did not converge", file=sys.stderr)
            return 2
    else:
        if args.response is None or args.trunc is None:
            raise ValueError("either --report or --response/--trunc must be given")
        ds, spec, _ = _prepare(args)
        fit = fit_mle(ds.y, ds.y_trunc, spec, fix_xi=args.fix_xi)
        if not fit.converged:
            print("error: fit did not converge", file=sys.stderr)
            return 2

    rs = residuals(ds.y, ds.y_trunc, fit, spec)
    if rs.n_pos == 0:
        raise ValueError("no positive observations; nothing to diagnose")
    table = qq_data(rs)
    cols = [
        "row_id",
        "residual",
        "empirical_q",
        "theoretical_q",
        "log_empirical_q",
        "log_theoretical_q",
    ]
    _write_columns(args.out_csv, cols, [table[c] for c in cols])
    corr = float(np.corrcoef(table["empirical_q"], table["theoretical_q"])[0, 1])
    print(f"n_pos: {rs.n_pos}  xi_hat: {rs.xi_hat:.4f}")
    print(f"KS statistic: {ks_statistic(rs):.4f}")
    print(f"QQ correlation: {corr:.4f}")
    return 0


def cmd_simulate(args) -> int:
    cfg = reference_config(
        n=args.n, reps=1, xi=args.xi, seed=args.seed, y_trunc=args.trunc
    )
    y, spec = simulate_dataset(cfg, args.rep)
    _write_columns(args.out, ["y", *spec.names1[1:]], [y, *spec.x1[:, 1:].T])
    print(f"wrote {cfg.n} rows to {args.out} ({int(np.sum(y > 0))} positive)")
    return 0


# Flags each preset fixes itself: the grid fixes n, xi, the threshold and
# the coefficients per cell, the reference design its coefficients.
_PRESET_FIXES = {
    "reference-grid": ("n", "xi", "trunc", "beta1", "beta2", "estimates_csv"),
    "reference": ("beta1", "beta2"),
}


def cmd_coverage(args) -> int:
    for dest in _PRESET_FIXES.get(args.preset, ()):
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --preset {args.preset}")
    for dest in ("n", "reps"):
        value = getattr(args, dest)
        if value is not None and value < 1:
            raise ValueError(f"--{dest} must be at least 1, got {value}")
    if args.preset == "reference-grid":
        cells = reference_grid(args.seed)
        if args.reps is not None:
            cells = [dataclasses.replace(cfg, reps=args.reps) for cfg in cells]
        reports = [coverage_study(cfg).to_dict() for cfg in cells]
        _write_json({"cells": reports}, args.out)
        return 0
    if args.preset == "reference":
        cfg = reference_config(
            n=2000 if args.n is None else args.n,
            reps=2500 if args.reps is None else args.reps,
            xi=args.xi if args.xi is not None else 0.25,
            seed=args.seed,
            y_trunc=args.trunc if args.trunc is not None else 0.125,
        )
    elif args.preset is None:
        if args.n is None or args.reps is None or args.xi is None:
            raise ValueError("without --preset, --n, --reps and --xi are required")
        cfg = SimConfig(
            n=args.n,
            reps=args.reps,
            beta1=_coef_flag(args.beta1, "--beta1", REFERENCE_BETA1),
            beta2=_coef_flag(args.beta2, "--beta2", REFERENCE_BETA2),
            xi=args.xi,
            y_trunc=args.trunc if args.trunc is not None else 0.125,
            seed=args.seed,
        )
    else:
        raise ValueError(f"unknown preset {args.preset!r}")
    report = coverage_study(cfg)
    _write_json(report.to_dict(), args.out)
    if args.estimates_csv:
        replicate, parameter, est, se, covered = map(np.array, zip(*report.estimates))
        header = ["replicate", "parameter", "estimate", "se", "covered"]
        _write_columns(
            args.estimates_csv, header, [replicate, parameter, est, se, covered.astype(int)]
        )
    for p in report.params:
        print(f"  {p.name:22s} mean {p.mean:>8.4f}  bias {p.bias:>8.4f}  "
              f"coverage {p.coverage:.3f}")
    print(f"converged {report.n_converged}/{report.reps}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then reused: argparse copies
    each default (the ``--factor`` list too) into every parse's namespace."""
    parser = argparse.ArgumentParser(
        prog="zitpo",
        description="Zero-inflated truncated generalized Pareto modeling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to a CSV dataset")
    _add_fit_flags(p_fit)
    p_fit.add_argument("--init", help="JSON file with starting beta1/beta2/xi")
    p_fit.add_argument("--trace", action="store_true", help="record the optimizer trace")
    p_fit.add_argument("--out", help="write the JSON report here")
    p_fit.set_defaults(func=cmd_fit)

    p_lrt = sub.add_parser("lrt", help="likelihood-ratio tests for dropped terms")
    _add_fit_flags(p_lrt)
    p_lrt.add_argument("--drop", default="", help="comma-separated terms to drop")
    p_lrt.add_argument("--out", help="write the JSON table here")
    p_lrt.set_defaults(func=cmd_lrt)

    p_diag = sub.add_parser("diagnose", help="residual QQ data and fit summary")
    p_diag.add_argument("--report", help="reuse a stored fit report and its model")
    _add_fit_flags(p_diag, required=False)
    p_diag.add_argument("--out-csv", required=True, help="write QQ pairs here")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="write one simulated dataset as CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--xi", type=float, required=True)
    p_sim.add_argument("--trunc", type=float, default=0.125)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--rep", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_cov = sub.add_parser("coverage", help="Monte-Carlo CI coverage study")
    p_cov.add_argument("--preset", choices=None, default=None,
                       help="'reference' or 'reference-grid'")
    p_cov.add_argument("--n", type=int)
    p_cov.add_argument("--reps", type=int)
    p_cov.add_argument("--xi", type=float)
    p_cov.add_argument("--trunc", type=float)
    p_cov.add_argument("--seed", type=int, default=0)
    p_cov.add_argument("--beta1", help="JSON list overriding the pi coefficients")
    p_cov.add_argument("--beta2", help="JSON list overriding the mu coefficients")
    p_cov.add_argument(
        "--workers", type=int, default=1,
        help="accepted and ignored: replicates run serially",
    )
    p_cov.add_argument("--out", help="write the JSON report here")
    p_cov.add_argument("--estimates-csv", help="stream per-replicate estimates here")
    p_cov.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the input-error code
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
