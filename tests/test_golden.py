"""Every golden CLI run gives back its checked-in outputs (see golden_cases)."""

import pytest

import golden_cases as g


@pytest.mark.parametrize("case", g.CASES, ids=[c.name for c in g.CASES])
def test_cli_run_matches_its_golden(case, tmp_path):
    diff = g.compare(g.load_golden(case), g.run_case(case, tmp_path))
    assert diff.problems == []


def test_goldens_keep_their_null_cases():
    # a regeneration must not lose the runs that write null
    fit = g.strict_json((g.GOLDEN_DIR / "fit_unconverged" / "fit.json").read_text())["fit"]
    assert fit["converged"] is False and fit["xi"]["se"] is None
    assert all(r["se"] is None for r in fit["pi_part"] + fit["mu_part"])
    cov = g.strict_json((g.GOLDEN_DIR / "coverage_one_rep" / "coverage.json").read_text())
    assert cov["n_converged"] == 1 and all(p["sd"] is None for p in cov["params"])


@pytest.mark.parametrize("want, got, kind", [
    ('{"a": 1.0}', '{"a": 1.0000000000001}', None),
    ('{"a": 1.0}', '{"a": 1.00001}', "relative"),
    ('{"a": 1.0}', '{"a": 1}', "became"),
    ('{"a": null}', '{"a": 0.0}', "became"),
    ('{"a": true}', '{"a": 1}', "became"),
    ('{"a": 1.0}', '{"b": 1.0}', "keys"),
    ('{"a": [1.0]}', '{"a": [1.0, 2.0]}', "length"),
], ids=["within", "beyond", "int-float", "null", "bool", "keys", "length"])
def test_comparator_on_json(want, got, kind):
    diff = g.Diff()
    diff.file("x.json", want, got)
    assert (kind is None) == (diff.problems == [])
    assert all(kind in p for p in diff.problems)


@pytest.mark.parametrize("want, got, ok", [
    ("a,b\n1,0.5\n", "a,b\n1,0.5000000000000001\n", True),
    ("a,b\n1,0.5\n", "a,b\n1,0.5001\n", False),
    ("a,b\n1,0.5\n", "a,b\n1.0,0.5\n", False),
    ("a,b\nx,0.5\n", "a,b\ny,0.5\n", False),
    ("a,b\n1,0.5\n", "a,b\n1,0.5\n2,0.5\n", False),
], ids=["within", "beyond", "int-float", "string", "rows"])
def test_comparator_on_csv(want, got, ok):
    diff = g.Diff()
    diff.file("x.csv", want, got)
    assert (diff.problems == []) == ok


def test_inputs_cover_both_readers():
    # quoted.csv holds a quoted level and non-ASCII levels, so the csv module
    # reads it; the other inputs are plain and go through numpy's tokenizer
    data = {p.name: p.read_bytes() for p in g.INPUT_DIR.iterdir()}
    assert b'"' in data["quoted.csv"] and not data["quoted.csv"].isascii()
    assert all(d.isascii() and b'"' not in d for n, d in data.items() if n != "quoted.csv")
