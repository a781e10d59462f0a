"""Ingestion, formula parsing and contrast coding tests."""

import numpy as np
import pytest

from zitpo.data_io import (
    ContrastSpec,
    Dataset,
    FormulaSpec,
    build_design,
    make_model_spec,
    parse_formula,
    read_csv,
)
from zitpo.estimation import fit_mle
from zitpo.model import predict
from zitpo.simulation import reference_config, simulate_dataset


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCsv:
    def test_threshold_recoding(self, tmp_path):
        path = write_csv(tmp_path, "minutes\n0\n3.2\n4.9\n6.0\n")
        ds = read_csv(path, "minutes", 4.95)
        assert ds.recode_count == 2
        assert np.array_equal(ds.y, [0.0, 0.0, 0.0, 6.0])

    def test_zero_threshold_never_recodes(self, tmp_path):
        path = write_csv(tmp_path, "minutes\n0\n0.001\n9\n")
        ds = read_csv(path, "minutes", 0.0)
        assert ds.recode_count == 0
        assert np.array_equal(ds.y, [0.0, 0.001, 9.0])

    def test_recoding_is_idempotent(self, tmp_path):
        path = write_csv(tmp_path, "minutes\n0\n3.2\n4.9\n6.0\n")
        once = read_csv(path, "minutes", 4.95)
        again_path = write_csv(
            tmp_path, "minutes\n" + "\n".join(str(v) for v in once.y) + "\n", "again.csv"
        )
        twice = read_csv(again_path, "minutes", 4.95)
        assert np.array_equal(once.y, twice.y)
        assert twice.recode_count == 0

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "minutes,age\n1.0,a\nbad,b\n")
        with pytest.raises(ValueError, match="row 2.*'minutes'"):
            read_csv(path, "minutes", 0.0)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "minutes\n1\n")
        with pytest.raises(ValueError, match="no column"):
            read_csv(path, "listening", 0.0)

    def test_negative_response(self, tmp_path):
        path = write_csv(tmp_path, "minutes\n-2\n")
        with pytest.raises(ValueError, match="nonnegative"):
            read_csv(path, "minutes", 0.0)

    @pytest.mark.parametrize("y_trunc", [-0.5, float("nan"), float("inf")])
    def test_bad_threshold_is_named(self, tmp_path, y_trunc):
        path = write_csv(tmp_path, "minutes\n0\n2.5\n")
        with pytest.raises(ValueError, match=f"truncation threshold .* got {y_trunc}"):
            read_csv(path, "minutes", y_trunc)

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "minutes,age\n1.0,\n")
        with pytest.raises(ValueError, match="missing value"):
            read_csv(path, "minutes", 0.0)


class TestParseFormula:
    def test_terms_and_interaction(self):
        spec = parse_formula("age, gender, age:gender")
        assert spec.terms == ("age", "gender", "age:gender")

    def test_empty_is_intercept_only(self):
        assert parse_formula("").terms == ()
        assert parse_formula("   ").terms == ()

    def test_double_colon_is_a_syntax_error(self):
        with pytest.raises(ValueError, match="syntax error"):
            parse_formula("age::gender")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_formula("age, age")
        with pytest.raises(ValueError, match="duplicate"):
            parse_formula("age:gender, gender:age")

    def test_bad_identifier(self):
        with pytest.raises(ValueError, match="syntax error"):
            parse_formula("age, 2fast")


def toy_dataset(n=12):
    age = ["young", "mid", "old"] * (n // 3)
    gender = ["m", "w"] * (n // 2)
    score = [str(0.1 * i) for i in range(n)]
    y = np.array([0.0, 2.0] * (n // 2))
    return Dataset(
        y=y,
        frame={"age": age, "gender": gender, "score": score},
        y_trunc=0.0,
        recode_count=0,
        factors=(
            ContrastSpec("age", "treatment"),
            ContrastSpec("gender", "treatment"),
        ),
    )


class TestBuildDesign:
    def test_treatment_coding_levels(self):
        ds = toy_dataset()
        x, names, _ = build_design(ds, parse_formula("age"))
        assert names == ("intercept", "age=mid", "age=old")
        assert x.shape == (12, 3)
        # per row at most one indicator is set
        assert set(np.sum(x[:, 1:], axis=1)) <= {0.0, 1.0}

    def test_interaction_dimensions(self):
        # a 5-level by 2-level interaction contributes 4 columns
        n = 20
        age = [f"a{i % 5}" for i in range(n)]
        gender = ["m", "w"] * (n // 2)
        ds = Dataset(
            y=np.zeros(n),
            frame={"age": age, "gender": gender},
            y_trunc=0.0,
            recode_count=0,
            factors=(ContrastSpec("age"), ContrastSpec("gender")),
        )
        x, names, _ = build_design(ds, parse_formula("age, gender, age:gender"))
        inter = [c for c in names if ":" in c]
        assert len(inter) == 4
        assert x.shape[1] == 1 + 4 + 1 + 4

    def test_sum_coding_balanced_columns_sum_to_zero(self):
        months = ["jun", "jul", "aug", "sep", "oct", "nov"]
        ds = Dataset(
            y=np.zeros(6),
            frame={"month": months},
            y_trunc=0.0,
            recode_count=0,
            factors=(ContrastSpec("month", "sum"),),
        )
        x, names, _ = build_design(ds, parse_formula("month"))
        assert x.shape == (6, 6)
        assert np.allclose(np.sum(x[:, 1:], axis=0), 0.0)

    def test_numeric_column_passthrough(self):
        ds = toy_dataset()
        x, names, _ = build_design(ds, parse_formula("score"))
        assert names == ("intercept", "score")
        assert x[3, 1] == pytest.approx(0.3)

    def test_unparseable_numeric_suggests_factor(self):
        ds = toy_dataset()
        undeclared = Dataset(
            y=ds.y, frame=ds.frame, y_trunc=0.0, recode_count=0, factors=()
        )
        with pytest.raises(ValueError, match="declare it as a factor"):
            build_design(undeclared, parse_formula("age"))

    def test_unseen_level_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="not present"):
            build_design(
                ds, parse_formula("age"), declared_levels={"age": ["young", "mid"]}
            )

    def test_rank_deficiency_names_columns(self):
        n = 10
        ds = Dataset(
            y=np.zeros(n),
            frame={"a": [str(i) for i in range(n)], "b": [str(2 * i) for i in range(n)]},
            y_trunc=0.0,
            recode_count=0,
        )
        with pytest.raises(ValueError, match="redundant columns.*b"):
            build_design(ds, parse_formula("a, b"))

    def test_unknown_variable(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="unknown variable"):
            build_design(ds, parse_formula("height"))

    def test_column_in_large_units_is_accepted(self):
        # the rank decision is made on the column-scaled Gram matrix
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=7)
        y, spec = simulate_dataset(cfg, 0)
        x = spec.x1.copy()
        x[:, 1] *= 1e12
        names = spec.names1[1:]
        ds = Dataset(
            y=y,
            frame={name: list(map(repr, x[:, j + 1].tolist())) for j, name in enumerate(names)},
            y_trunc=cfg.y_trunc,
            recode_count=0,
        )
        formula = parse_formula(", ".join(names))
        scaled, _ = make_model_spec(ds, formula, formula)
        assert np.array_equal(scaled.x1, x) and np.array_equal(scaled.x2, x)


class TestBaseLevelInvariance:
    def test_predictions_do_not_depend_on_the_base(self):
        rng = np.random.default_rng(3)
        n = 300
        levels = np.array(["low", "mid", "high"])[rng.integers(0, 3, n)]
        eta1 = -0.3 + 0.6 * (levels == "mid") + 1.0 * (levels == "high")
        eta2 = 1.0 + 0.4 * (levels == "mid") - 0.3 * (levels == "high")
        pi = 1 / (1 + np.exp(-eta1))
        mu = np.exp(eta2)
        draw = rng.random(n)
        y = np.where(draw < pi, rng.exponential(1.0, n) * mu, 0.0)

        fits = []
        for base in ("low", "high"):
            ds = Dataset(
                y=y,
                frame={"edu": list(levels)},
                y_trunc=0.0,
                recode_count=0,
                factors=(ContrastSpec("edu", "treatment", base),),
            )
            spec, _ = make_model_spec(ds, parse_formula("edu"), parse_formula("edu"))
            fit = fit_mle(y, 0.0, spec, fix_xi=0.0)
            assert fit.converged
            fits.append(predict(spec, fit.coef))
        (pi_a, mu_a), (pi_b, mu_b) = fits
        assert np.allclose(pi_a, pi_b, atol=1e-6)
        assert np.allclose(mu_a, mu_b, rtol=1e-6)


class TestContrastSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            ContrastSpec("age", "helmert")
