"""End-to-end command-line tests on small synthetic files."""

import csv
import dataclasses
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import zitpo.cli as cli
from zitpo.cli import _fit_from_report, build_parser, main, sig_code
from zitpo.data_io import make_model_spec, parse_formula, read_csv
from zitpo.diagnostics import qq_data, residuals
from zitpo.estimation import fit_mle
from zitpo.simulation import SimConfig, coverage_study, reference_config, simulate_dataset


def write_response_csv(path, y, extra=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        cols = ["y"] + (list(extra) if extra else [])
        writer.writerow(cols)
        for i, v in enumerate(y):
            row = [repr(float(v))]
            if extra:
                row += [extra[c][i] for c in extra]
            writer.writerow(row)
    return str(path)


@pytest.fixture()
def bernoulli_exp_csv(tmp_path):
    rng = np.random.default_rng(2)
    n = 500
    y = np.where(rng.random(n) < 0.4, rng.exponential(5.0, n), 0.0)
    return write_response_csv(tmp_path / "toy.csv", y), y


class TestFit:
    def test_closed_form_with_frozen_shape(self, tmp_path, bernoulli_exp_csv):
        path, y = bernoulli_exp_csv
        out = tmp_path / "report.json"
        code = main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--fix-xi", "0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["fit"]["converged"] is True
        b1 = report["fit"]["pi_part"][0]["estimate"]
        b2 = report["fit"]["mu_part"][0]["estimate"]
        assert expit(b1) == pytest.approx(np.mean(y > 0), abs=1e-6)
        assert np.exp(b2) == pytest.approx(np.mean(y[y > 0]), rel=1e-6)
        assert report["fit"]["xi"] == {"estimate": 0.0, "se": 0.0, "fixed": True}

    @pytest.mark.parametrize("xi", ["-0.05", "-0.2"])
    def test_fixed_negative_shape_starts_inside_the_support(self, tmp_path, xi):
        # the default start must put every positive y below the support end
        data, out = tmp_path / "sim.csv", tmp_path / "report.json"
        assert main(["simulate", "--n", "500", "--xi", "0.25", "--seed", "11",
                     "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--response", "y", "--trunc", "0.125",
                     f"--fix-xi={xi}", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["fit"]["converged"] is True
        assert report["fit"]["xi"] == {"estimate": float(xi), "se": 0.0, "fixed": True}

    def test_audience_style_intercepts_recovered(self, tmp_path):
        # rating 12%, 59-minute average, heavy truncation at 4.95 minutes
        cfg = SimConfig(
            n=3000, reps=1, beta1=(-1.95,), beta2=(4.08,), xi=0.082,
            y_trunc=4.95, covariate_recipe=(), seed=116,
        )
        y, _ = simulate_dataset(cfg, 0)
        path = write_response_csv(tmp_path / "audience.csv", y)
        out = tmp_path / "report.json"
        code = main([
            "fit", "--data", path, "--response", "y", "--trunc", "4.95",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        row1 = report["fit"]["pi_part"][0]
        row2 = report["fit"]["mu_part"][0]
        assert abs(row1["estimate"] - (-1.95)) <= 3.0 * row1["se"]
        assert abs(row2["estimate"] - 4.08) <= 3.0 * row2["se"]
        assert 0.10 <= expit(row1["estimate"]) <= 0.15
        assert 49.0 <= np.exp(row2["estimate"]) <= 71.0

    def test_missing_data_flag_is_input_error(self, capsys):
        assert main(["fit", "--response", "y", "--trunc", "0"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        code = main([
            "fit", "--data", str(tmp_path / "nope.csv"), "--response", "y",
            "--trunc", "0",
        ])
        assert code == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_covariate_is_input_error(self, tmp_path, capsys, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"y,a\n1.5,0.2\n0,{cell}\n2.5,0.7\n0,1.1\n", encoding="utf-8")
        code = main([
            "fit", "--data", str(path), "--response", "y", "--trunc", "0",
            "--pi-formula", "a",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: cannot use {cell!r} at row 2, column 'a'" in err

    @pytest.mark.parametrize(
        "text, pi_formula, message",
        [
            (
                "y,a\n1.5,0.2\n0,1e200\n2.5,0.7\n0,1.1\n3.0,0.5\n",
                "a",
                "error: column 'a' is too large in magnitude (its sum of squares "
                "overflows); rescale it",
            ),
            (
                "y,a,b\n1.5,0.2,1.0\n0,1e200,1e200\n2.5,0.7,2.0\n0,1.1,3.0\n3.0,0.5,1.0\n",
                "a, b, a:b",
                "error: interaction 'a:b' overflows at row 2: rescale 'a' or 'b'",
            ),
        ],
        ids=["square", "interaction"],
    )
    def test_overflowing_covariate_is_named(self, tmp_path, capsys, text, pi_formula, message):
        # finite cells whose square or product overflows: named, and no warning
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "fit", "--data", str(path), "--response", "y", "--trunc", "0",
                "--pi-formula", pi_formula,
            ])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_init_file_is_used(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"beta1": [-0.4], "beta2": [1.6], "xi": 0.05}))
        out = tmp_path / "report.json"
        code = main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--init", str(init), "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["fit"]["converged"] is True

    @pytest.mark.parametrize("text, problem", [
        ('{"beta1": [-0.4], "beta2": [1.6], "xi": null}', ": xi must be a finite number below 1"),
        ('{"beta1": [-0.4], "beta2": [1.6], "xi": 1}', ": xi must be a finite number below 1"),
        ("[-0.4, 1.6]", " must hold a JSON object with beta1, beta2 and optionally xi"),
        ('{"beta2": [1.6]}', " must hold a JSON object with beta1, beta2 and optionally xi"),
        ('{"beta1": -0.4, "beta2": [1.6]}', ": beta1 must be a JSON list of finite numbers"),
        ('{"beta1": [-0.4], "beta2": [NaN]}', ": beta2 must be a JSON list of finite numbers"),
        ('{"beta1": [-0.4], "beta2": [1.6', " is not valid JSON"),
    ], ids=["xi-null", "xi-one", "list", "no-beta1", "beta1-scalar", "beta2-nan", "not-json"])
    def test_malformed_init_file_is_named(
        self, tmp_path, bernoulli_exp_csv, capsys, text, problem
    ):
        path, _ = bernoulli_exp_csv
        init = tmp_path / "init.json"
        init.write_text(text)
        code = main(["fit", "--data", path, "--response", "y", "--trunc", "0",
                     "--init", str(init)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: --init {init}{problem}" in err
        assert "Traceback" not in err

    def test_trace_flag_adds_one_entry_per_iteration(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        fits = {}
        for name, extra in (("plain", []), ("traced", ["--trace"])):
            out = tmp_path / f"{name}.json"
            assert main([
                "fit", "--data", path, "--response", "y", "--trunc", "0",
                *extra, "--out", str(out),
            ]) == 0
            fits[name] = json.loads(out.read_text())["fit"]
        assert "trace" not in fits["plain"]
        trace = fits["traced"].pop("trace")
        assert fits["traced"] == fits["plain"]
        assert fits["plain"]["converged"] is True
        assert [t["iteration"] for t in trace] == list(range(1, fits["plain"]["iterations"] + 1))
        logliks = [t["loglik"] for t in trace]
        assert all(b >= a for a, b in zip(logliks, logliks[1:]))
        assert trace[-1]["grad_norm"] < 1e-6

    def test_nonconvergence_exits_2_but_writes_report(self, tmp_path, bernoulli_exp_csv, monkeypatch):
        import dataclasses

        import zitpo.cli as cli_mod

        path, _ = bernoulli_exp_csv
        real = cli_mod.fit_mle

        def stubborn(*args, **kwargs):
            fit = real(*args, **kwargs)
            return dataclasses.replace(
                fit, converged=False, se=np.full_like(fit.se, np.nan)
            )

        monkeypatch.setattr(cli_mod, "fit_mle", stubborn)
        out = tmp_path / "report.json"
        code = main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--out", str(out),
        ])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["fit"]["converged"] is False
        assert report["fit"]["pi_part"][0]["se"] is None
        assert report["fit"]["xi"]["se"] is None
        stored = _fit_from_report(report)
        assert not stored.converged
        assert stored.se.dtype == float and np.all(np.isnan(stored.se))

    def test_report_is_deterministic(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "fit", "--data", path, "--response", "y", "--trunc", "0",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_fit_on_a_cell_past_the_csv_module_limit_ends_without_a_traceback(tmp_path):
    # a non-ASCII level of 140,000 characters: the csv module reads the file
    path = tmp_path / "huge.csv"
    path.write_text("y,f\n1.5," + "\u00e9" * 140_000 + "\n", encoding="utf-8")
    argv = ["fit", "--data", str(path), "--response", "y", "--trunc", "0", "--factor", "f"]
    assert main(argv) in (0, 1)


class TestParser:
    def test_parser_is_built_once_and_each_parse_starts_afresh(self, monkeypatch):
        # the cached parser copies the --factor default list into every parse
        seen = []

        def record(path, response, y_trunc, factors):
            seen.append(tuple(f.variable for f in factors))
            raise ValueError("stop before reading")

        monkeypatch.setattr(cli, "read_csv", record)
        argv = ["fit", "--data", "d.csv", "--response", "y", "--trunc", "0"]
        assert main(argv + ["--factor", "g"]) == 1
        assert main(argv) == 1
        assert seen == [("g",), ()]
        assert build_parser() is build_parser()


def factor_csv(tmp_path, seed=4, n=600):
    rng = np.random.default_rng(seed)
    age = rng.choice(["a15", "a25", "a35"], n)
    gender = rng.choice(["m", "w"], n)
    eta1 = -0.2 + 0.5 * (age == "a25") + 0.9 * (age == "a35") + 0.3 * (gender == "w")
    eta2 = 1.2 + 0.3 * (age == "a35") - 0.2 * (gender == "w")
    pi = 1 / (1 + np.exp(-eta1))
    mu = np.exp(eta2)
    y = np.where(rng.random(n) < pi, rng.exponential(1.0, n) * mu, 0.0)
    path = tmp_path / "factors.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "age", "gender"])
        for i in range(n):
            writer.writerow([repr(float(y[i])), age[i], gender[i]])
    return str(path)


class TestLrt:
    def test_drop_nothing_gives_empty_table(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        out = tmp_path / "lrt.json"
        code = main([
            "lrt", "--data", path, "--response", "y", "--trunc", "0",
            "--drop", "", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["lrt"] == []

    def test_interaction_and_factor_drop_df(self, tmp_path):
        path = factor_csv(tmp_path)
        out = tmp_path / "lrt.json"
        code = main([
            "lrt", "--data", path, "--response", "y", "--trunc", "0",
            "--pi-formula", "age, gender, age:gender",
            "--mu-formula", "age, gender, age:gender",
            "--factor", "age", "--factor", "gender",
            "--drop", "age:gender,age", "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())["lrt"]
        by_key = {(r["term"], r["part"]): r for r in rows}
        # interaction alone: (3-1)*(2-1) = 2 columns per part
        assert by_key[("age:gender", "pi")]["df"] == 2
        assert by_key[("age:gender", "mu")]["df"] == 2
        # factor drop removes its interaction too: 2 + 2 columns
        assert by_key[("age", "pi")]["df"] == 4
        assert by_key[("age", "mu")]["df"] == 4
        assert all(0.0 <= r["p_value"] <= 1.0 for r in rows)

    def test_unknown_term_is_input_error(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        code = main([
            "lrt", "--data", path, "--response", "y", "--trunc", "0",
            "--drop", "ghost",
        ])
        assert code == 1

    @pytest.mark.parametrize("flag", [["--init", "init.json"], ["--trace"]])
    def test_fit_only_flags_are_input_errors(self, tmp_path, bernoulli_exp_csv, flag):
        path, _ = bernoulli_exp_csv
        out = tmp_path / "lrt.json"
        code = main([
            "lrt", "--data", path, "--response", "y", "--trunc", "0",
            *flag, "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()


class TestDiagnose:
    CSV_COLUMNS = [
        "row_id",
        "residual",
        "empirical_q",
        "theoretical_q",
        "log_empirical_q",
        "log_theoretical_q",
    ]

    def test_refit_writes_schema_and_summary(self, tmp_path, bernoulli_exp_csv, capsys):
        path, _ = bernoulli_exp_csv
        out_csv = tmp_path / "qq.csv"
        code = main([
            "diagnose", "--data", path, "--response", "y", "--trunc", "0",
            "--out-csv", str(out_csv),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "KS statistic" in printed and "QQ correlation" in printed
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == self.CSV_COLUMNS
        assert len(rows) > 100
        ordered = [float(r[2]) for r in rows[1:]]
        assert ordered == sorted(ordered)

    def test_csv_rereads_to_the_qq_table(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        out_csv = tmp_path / "qq.csv"
        assert main([
            "diagnose", "--data", path, "--response", "y", "--trunc", "0",
            "--out-csv", str(out_csv),
        ]) == 0
        ds = read_csv(path, "y", 0.0)
        spec, _ = make_model_spec(ds, parse_formula(""), parse_formula(""))
        table = qq_data(residuals(ds.y, 0.0, fit_mle(ds.y, 0.0, spec), spec))
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(r[0]) for r in rows] == table["row_id"].tolist()
        for j, name in enumerate(self.CSV_COLUMNS[1:], start=1):
            assert np.array_equal([float(r[j]) for r in rows], table[name])

    def test_report_roundtrip_skips_refitting(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        report_path = tmp_path / "report.json"
        assert main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--out", str(report_path),
        ]) == 0
        direct_csv = tmp_path / "direct.csv"
        assert main([
            "diagnose", "--data", path, "--response", "y", "--trunc", "0",
            "--out-csv", str(direct_csv),
        ]) == 0
        reread_csv = tmp_path / "reread.csv"
        assert main([
            "diagnose", "--report", str(report_path), "--data", path,
            "--out-csv", str(reread_csv),
        ]) == 0
        assert direct_csv.read_bytes() == reread_csv.read_bytes()

    @pytest.mark.parametrize("fix_xi", [None, "0.1"])
    def test_report_gives_back_the_fit(self, tmp_path, fix_xi):
        cfg = reference_config(n=600, reps=1, xi=0.25, seed=6)
        y, spec = simulate_dataset(cfg, 0)
        data = tmp_path / "sim.csv"
        assert main([
            "simulate", "--n", "600", "--xi", "0.25", "--seed", "6", "--out", str(data),
        ]) == 0
        terms = ", ".join(spec.names1[1:])
        report_path = tmp_path / "report.json"
        argv = [
            "fit", "--data", str(data), "--response", "y", "--trunc", str(cfg.y_trunc),
            "--pi-formula", terms, "--mu-formula", terms, "--out", str(report_path),
        ]
        assert main(argv + (["--fix-xi", fix_xi] if fix_xi else [])) == 0
        fit = fit_mle(y, cfg.y_trunc, spec, fix_xi=None if fix_xi is None else float(fix_xi))
        with open(report_path, encoding="utf-8") as fh:
            stored = _fit_from_report(json.load(fh))
        assert np.array_equal(stored.estimates, fit.estimates)
        assert np.array_equal(stored.se, fit.se)
        assert (stored.names1, stored.names2) == (fit.names1, fit.names2)
        for field in (
            "converged", "iterations", "loglik", "n_zero", "n_pos", "y_trunc", "xi_fixed"
        ):
            assert getattr(stored, field) == getattr(fit, field), field
        if fix_xi is not None:
            assert stored.xi_fixed and stored.se[-1] == 0.0

    @pytest.mark.parametrize("reshape", [
        lambda report: [1],
        lambda report: {**report, "fit": {**report["fit"], "xi": {**report["fit"]["xi"], "estimate": None}}},
        lambda report: {k: v for k, v in report.items() if k != "fit"},
    ], ids=["list", "null-shape", "no-fit"])
    def test_wrong_shaped_report_is_named(self, tmp_path, bernoulli_exp_csv, capsys, reshape):
        path, _ = bernoulli_exp_csv
        report_path = tmp_path / "report.json"
        assert main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--out", str(report_path),
        ]) == 0
        report_path.write_text(json.dumps(reshape(json.loads(report_path.read_text()))))
        capsys.readouterr()
        code = main([
            "diagnose", "--report", str(report_path), "--data", path,
            "--out-csv", str(tmp_path / "unused.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: --report {report_path}")
        assert "Traceback" not in err
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("flag", [
        ["--response", "y"], ["--trunc", "0"], ["--pi-formula", "x"], ["--mu-formula", "x"],
        ["--factor", "g"], ["--fix-xi", "0"],
    ], ids=lambda flag: flag[0])
    def test_report_rejects_the_flags_it_fixes(self, tmp_path, bernoulli_exp_csv, capsys, flag):
        path, _ = bernoulli_exp_csv
        report_path = tmp_path / "report.json"
        assert main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--out", str(report_path),
        ]) == 0
        capsys.readouterr()
        code = main([
            "diagnose", "--report", str(report_path), "--data", path, *flag,
            "--out-csv", str(tmp_path / "unused.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag[0]} does not apply to --report\n"
        assert not (tmp_path / "unused.csv").exists()

    def test_no_positive_observations_is_an_error(self, tmp_path, bernoulli_exp_csv):
        path, _ = bernoulli_exp_csv
        report_path = tmp_path / "report.json"
        assert main([
            "fit", "--data", path, "--response", "y", "--trunc", "0",
            "--out", str(report_path),
        ]) == 0
        zeros = write_response_csv(tmp_path / "zeros.csv", np.zeros(50))
        code = main([
            "diagnose", "--report", str(report_path), "--data", zeros,
            "--out-csv", str(tmp_path / "unused.csv"),
        ])
        assert code == 1


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "simulate", "--n", "200", "--xi", "0.25", "--seed", "9",
                "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", "normal", "poisson", "bernoulli1", "bernoulli2", "exponential"]
        assert len(rows) == 201

    def test_output_rereads_to_the_simulated_arrays(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([
            "simulate", "--n", "300", "--xi", "-0.2", "--trunc", "0.5", "--seed", "4",
            "--rep", "2", "--out", str(out),
        ]) == 0
        cfg = reference_config(n=300, reps=1, xi=-0.2, seed=4, y_trunc=0.5)
        y, spec = simulate_dataset(cfg, 2)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", *spec.names1[1:]]
        cells = np.array([[float(c) for c in r] for r in rows[1:]])
        assert np.array_equal(cells[:, 0], y)
        assert np.array_equal(cells[:, 1:], spec.x1[:, 1:])


class TestCoverage:
    def test_zero_reps_is_input_error(self):
        assert main(["coverage", "--n", "100", "--reps", "0", "--xi", "0.25"]) == 1

    @pytest.mark.parametrize("preset", [[], ["--preset", "reference"]], ids=["custom", "reference"])
    @pytest.mark.parametrize("flag", ["--n", "--reps"])
    def test_zero_n_or_reps_is_named(self, monkeypatch, capsys, preset, flag):
        # the reference preset's defaults fill in absent flags, not zeros
        def never(*args, **kwargs):
            raise AssertionError("no study should run")

        monkeypatch.setattr(cli, "coverage_study", never)
        given = {"--n": "100", "--reps": "1", flag: "0"}
        argv = ["coverage", *preset, "--xi", "0.25"]
        for name, value in given.items():
            argv += [name, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} must be at least 1, got 0" in err

    def test_invalid_preset_is_input_error(self):
        assert main(["coverage", "--preset", "nope", "--out", "/dev/null"]) == 1

    def test_grid_preset_writes_cells(self, tmp_path, monkeypatch):
        import zitpo.cli as cli_mod
        from zitpo.simulation import reference_config

        monkeypatch.setattr(
            cli_mod,
            "reference_grid",
            lambda seed=0: (
                reference_config(n=300, reps=2, xi=0.25, seed=seed),
                reference_config(n=300, reps=2, xi=0.5, seed=seed),
            ),
        )
        out = tmp_path / "grid.json"
        code = main(["coverage", "--preset", "reference-grid", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert [c["xi"] for c in cells] == [0.25, 0.5]

    def test_grid_preset_applies_reps_to_every_cell(self, tmp_path, monkeypatch):
        import zitpo.cli as cli_mod
        from zitpo.simulation import coverage_study, reference_config

        seen = []

        def small_study(cfg, **kwargs):
            seen.append(cfg)
            return coverage_study(dataclasses.replace(cfg, n=300), **kwargs)

        monkeypatch.setattr(cli_mod, "coverage_study", small_study)
        out = tmp_path / "grid.json"
        code = main(["coverage", "--preset", "reference-grid", "--reps", "1",
                     "--out", str(out)])
        assert code == 0
        assert len(seen) == 6 and all(cfg.reps == 1 for cfg in seen)
        cells = json.loads(out.read_text())["cells"]
        assert [c["reps"] for c in cells] == [1] * 6
        assert [(c.n, c.xi) for c in seen] == [
            (cfg.n, cfg.xi) for cfg in (
                reference_config(n=n, xi=xi) for n in (500, 1000, 2000) for xi in (0.25, 0.5)
            )
        ]

    @pytest.mark.parametrize(
        "flag,value", [("--n", "50"), ("--estimates-csv", "est.csv")]
    )
    def test_grid_preset_rejects_per_cell_flags(self, tmp_path, monkeypatch, capsys, flag, value):
        import zitpo.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("no study should run")

        monkeypatch.setattr(cli_mod, "coverage_study", never)
        code = main(["coverage", "--preset", "reference-grid", "--reps", "1",
                     flag, str(tmp_path / value) if flag == "--estimates-csv" else value,
                     "--out", str(tmp_path / "grid.json")])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "grid.json").exists()
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize("flag", ["--beta1", "--beta2"])
    def test_reference_preset_rejects_coefficient_flags(self, tmp_path, monkeypatch, capsys, flag):
        import zitpo.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("no study should run")

        monkeypatch.setattr(cli_mod, "coverage_study", never)
        out = tmp_path / "cov.json"
        code = main(["coverage", "--preset", "reference", "--reps", "1",
                     flag, "[9, 9, 9, 9, 9, 9]", "--out", str(out)])
        assert code == 1
        assert f"{flag} does not apply to --preset reference" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--beta1", "--beta2"])
    @pytest.mark.parametrize("value, problem", [
        ("5", "must be a JSON list of finite numbers, got 5.0"),
        ('{"a": 1}', "must be a JSON list of finite numbers, got {\"a\": 1.0}"),
        ("[1, true, 0, 0, 0, 0]", "must be a JSON list of finite numbers"),
        ("[1, 2", "is not valid JSON"),
    ], ids=["scalar", "object", "bool", "not-json"])
    def test_malformed_coefficient_flag_is_named(self, capsys, flag, value, problem):
        code = main(["coverage", "--n", "50", "--reps", "2", "--xi", "0.25", flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {flag} {problem}" in err
        assert "Traceback" not in err

    def test_coefficient_flags_default_to_the_reference_design(self, tmp_path):
        # integers in the JSON list read as the same floats
        argv = ["coverage", "--n", "300", "--reps", "2", "--xi", "0.25", "--seed", "3"]
        given = ["--beta1", "[1, 1, -0.5, 0.5, 0.25, 0.25]",
                 "--beta2", "[2, 1, 0.5, 0.5, 0.25, 0.25]"]
        assert main(argv + ["--out", str(tmp_path / "default.json")]) == 0
        assert main(argv + given + ["--out", str(tmp_path / "given.json")]) == 0
        assert (tmp_path / "default.json").read_text() == (tmp_path / "given.json").read_text()

    def test_report_text_is_to_json_on_file_and_stdout(self, tmp_path, capsys):
        cfg = reference_config(n=400, reps=3, xi=0.25, seed=5)
        want = json.dumps(coverage_study(cfg).to_dict(), sort_keys=True, indent=2) + "\n"
        argv = ["coverage", "--preset", "reference", "--n", "400", "--reps", "3",
                "--xi", "0.25", "--seed", "5"]
        out = tmp_path / "cov.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(want)
        assert printed[len(want):].startswith("  pi:intercept")

    def test_small_run_writes_report(self, tmp_path):
        out = tmp_path / "cov.json"
        code = main([
            "coverage", "--preset", "reference", "--n", "400", "--reps", "3",
            "--xi", "0.25", "--seed", "5", "--out", str(out),
            "--estimates-csv", str(tmp_path / "est.csv"),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["reps"] == 3 and len(report["params"]) == 13
        with open(tmp_path / "est.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replicate", "parameter", "estimate", "se", "covered"]
        assert len(rows) == 1 + 13 * report["n_converged"]


def _refuse_constant(token):
    raise AssertionError(f"report holds the token {token}")


class TestWriteJson:
    def test_non_finite_numbers_become_null_at_any_depth(self, capsys):
        obj = {
            "a": float("nan"),
            "b": [1.5, float("inf"), (np.float64(-np.inf), {"c": np.float64(np.nan)})],
            "d": {"e": np.float64(0.1) + np.float64(0.2), "f": 3, "g": None, "h": "x"},
        }
        cli._write_json(obj, None)
        text = capsys.readouterr().out
        assert json.loads(text, parse_constant=_refuse_constant) == {
            "a": None,
            "b": [1.5, None, [None, {"c": None}]],
            "d": {"e": 0.30000000000000004, "f": 3, "g": None, "h": "x"},
        }
        assert "0.30000000000000004" in text

    def test_numpy_float_writes_the_digits_of_float(self, tmp_path):
        values = [np.float64(0.1) * 3, np.float64(1e-310), np.float64(-2.5e300)]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli._write_json({"v": values}, str(a))
        cli._write_json({"v": [float(v) for v in values]}, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_input_is_left_unchanged(self, tmp_path):
        obj = {"a": [float("nan")], "b": (float("inf"),)}
        cli._write_json(obj, str(tmp_path / "r.json"))
        assert np.isnan(obj["a"][0]) and obj["b"] == (float("inf"),)

    def test_unconverged_fit_and_one_replicate_study_write_no_nan_token(
        self, tmp_path, bernoulli_exp_csv, monkeypatch
    ):
        import zitpo.estimation as estimation

        path, _ = bernoulli_exp_csv
        fit_out, cov_out = tmp_path / "fit.json", tmp_path / "cov.json"
        with monkeypatch.context() as m:
            m.setattr(estimation, "_MAX_ITER", 2)
            assert main(["fit", "--data", path, "--response", "y", "--trunc", "0",
                         "--out", str(fit_out)]) == 2
        assert main(["coverage", "--n", "300", "--reps", "1", "--xi", "0.25",
                     "--out", str(cov_out)]) == 0
        fit = json.loads(fit_out.read_text(), parse_constant=_refuse_constant)["fit"]
        assert fit["xi"]["se"] is None and fit["pi_part"][0]["se"] is None
        cov = json.loads(cov_out.read_text(), parse_constant=_refuse_constant)
        assert [p["sd"] for p in cov["params"]] == [None] * 13


# cell text that csv.writer quotes, doubles or leaves alone
CELL_TEXT = st.text(st.sampled_from(',"\r\n ab\u00e9'), max_size=5)


@st.composite
def column_tables(draw):
    """A header and equal-length float, integer and string arrays; an array
    may appear twice."""
    n = draw(st.integers(0, 5))
    kind = st.sampled_from(["float", "int", "str", "again"])
    kinds = draw(st.lists(kind, min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind == "again" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "float":
            columns.append(np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), float))
        elif kind == "int":
            values = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))
            columns.append(np.array(values, np.int64))
        else:
            columns.append(np.array(draw(st.lists(CELL_TEXT, min_size=n, max_size=n)), str))
    header = draw(st.lists(CELL_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestWriteColumns:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("write_columns")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(table=column_tables())
    def test_writes_what_csv_writer_writes(self, out_dir, table):
        header, columns = table
        want, got = out_dir / "want.csv", out_dir / "got.csv"
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*(col.tolist() for col in columns)))
        # blocks of two rows, so most tables span several
        with mock.patch.object(cli, "_WRITE_BLOCK_ROWS", 2):
            cli._write_columns(str(got), header, columns)
        assert got.read_bytes() == want.read_bytes()


class TestBadThreshold:
    @pytest.mark.parametrize("command, trunc", [
        (["fit", "--response", "y"], "nan"),
        (["simulate", "--n", "300", "--xi", "0.25"], "-1"),
        (["coverage", "--n", "300", "--reps", "2", "--xi", "0.25"], "-0.5"),
    ])
    def test_is_an_input_error_naming_the_threshold(
        self, tmp_path, capsys, bernoulli_exp_csv, command, trunc
    ):
        out = tmp_path / "out"
        data = ["--data", bernoulli_exp_csv[0]] if command[0] == "fit" else []
        assert main([*command, *data, f"--trunc={trunc}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"truncation threshold must be finite and nonnegative, got {float(trunc)}" in err
        assert not out.exists()


class TestSigCodes:
    @pytest.mark.parametrize(
        "p,code",
        [
            (0.0005, "***"),
            (0.005, "**"),
            (0.03, "*"),
            (0.07, "."),
            (0.2, ""),
            (0.001, "**"),  # thresholds are strict
        ],
    )
    def test_thresholds(self, p, code):
        assert sig_code(p) == code
