"""Column-wise ingestion against the cell-by-cell reference in
``ingest_reference``: equal datasets, designs and error messages, and the
first defect in row-major order wins when a file has several."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
import zitpo.data_io as data_io
from zitpo.data_io import ContrastSpec, make_model_spec, parse_formula, read_csv

F1_LEVELS = ["a", "b,c", 'say "hi"', "d e"]
F2_LEVELS = ["x", "y", "z"]
TERMS = ["num", "f1", "f2", "f1:num", "f1:f2"]


def outcome(call):
    """The value of ``call()``, or the message of the ValueError it raised."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


def assert_same_dataset(a, b):
    assert np.array_equal(a.y, b.y)
    assert a.y.dtype == b.y.dtype
    assert list(a.frame.items()) == list(b.frame.items())
    assert a.recode_count == b.recode_count
    assert a.y_trunc == b.y_trunc
    assert a.factors == b.factors


def assert_same_spec(a, b):
    (spec_a, levels_a), (spec_b, levels_b) = a, b
    assert np.array_equal(spec_a.x1, spec_b.x1)
    assert np.array_equal(spec_a.x2, spec_b.x2)
    assert spec_a.names1 == spec_b.names1
    assert spec_a.names2 == spec_b.names2
    assert list(levels_a.items()) == list(levels_b.items())


def padded(cell: str, pad: int) -> str:
    return " " * (pad % 3) + cell + " " * (pad // 3)


@st.composite
def tables(draw):
    """A small file: header, rows of cells, and up to two defects."""
    n = draw(st.integers(0, 8))
    number = st.one_of(
        st.floats(0.0, 30.0).map(repr),
        st.integers(0, 3000).map(str),
        st.sampled_from(["1_000", "2.5e0", "0.25"]),
    )
    columns = {
        "y": draw(st.lists(number, min_size=n, max_size=n)),
        "num": draw(
            st.lists(st.floats(-5.0, 5.0).map(repr), min_size=n, max_size=n)
        ),
        "f1": draw(st.lists(st.sampled_from(F1_LEVELS), min_size=n, max_size=n)),
        "f2": draw(st.lists(st.sampled_from(F2_LEVELS), min_size=n, max_size=n)),
        "note": draw(
            st.lists(
                st.text(st.sampled_from('ab, "x'), min_size=1, max_size=4)
                .filter(str.strip),
                min_size=n,
                max_size=n,
            )
        ),
    }
    header = draw(st.permutations(list(columns)))
    rows = [
        [padded(columns[name][i], draw(st.integers(0, 8))) for name in header]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        kind = draw(st.sampled_from(["blank", "short", "long", "bad", "negative"]))
        if kind == "blank":
            rows[i][j] = draw(st.sampled_from(["", "  "]))
        elif kind == "short":
            del rows[i][j]
        elif kind == "long":
            rows[i].append("1")
        elif kind == "bad":
            rows[i][j] = draw(st.sampled_from(["abc", "1,5", "0x1"]))
        elif header.index("y") < len(rows[i]):
            rows[i][header.index("y")] = draw(st.sampled_from(["-1.5", "nan", "-inf"]))
    return header, rows


@st.composite
def designs(draw):
    f1 = ContrastSpec(
        "f1",
        draw(st.sampled_from(["treatment", "sum"])),
        draw(st.sampled_from([None, "a", "b,c", "missing"])),
    )
    f2 = ContrastSpec("f2", draw(st.sampled_from(["treatment", "sum"])))
    pi_terms = draw(st.lists(st.sampled_from(TERMS), unique=True, max_size=3))
    mu_terms = draw(st.lists(st.sampled_from(TERMS), unique=True, max_size=3))
    declared = draw(
        st.sampled_from(
            [None, {"f1": F1_LEVELS[::-1]}, {"f1": ["a", "b,c"]}, {"f2": F2_LEVELS}]
        )
    )
    return (f1, f2), ", ".join(pi_terms), ", ".join(mu_terms), declared


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("ingestion") / "data.csv"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=tables(), design=designs(), y_trunc=st.sampled_from([0.0, 0.5, 20.0]))
def test_matches_the_cell_by_cell_reference(scratch_csv, table, design, y_trunc):
    header, rows = table
    factors, pi_text, mu_text, declared = design
    with open(scratch_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    got = outcome(lambda: read_csv(scratch_csv, "y", y_trunc, factors))
    want = outcome(lambda: ref.read_csv(scratch_csv, "y", y_trunc, factors))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert_same_dataset(got[1], want[1])

    ds = got[1]
    pi, mu = parse_formula(pi_text), parse_formula(mu_text)
    got = outcome(lambda: make_model_spec(ds, pi, mu, declared))
    want = outcome(lambda: ref.make_model_spec(ds, pi, mu, declared))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_spec(got[1], want[1])


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def assert_raises_as_reference(path, message, formula="a"):
    """The package and the reference both raise ``message`` for this file."""
    for impl in (data_io, ref):
        with pytest.raises(ValueError) as info:
            ds = impl.read_csv(path, "y", 0.0)
            impl.make_model_spec(ds, parse_formula(formula), parse_formula(""))
        assert str(info.value) == message


class TestErrorPrecedence:
    def test_missing_cell_before_a_short_row(self, tmp_path):
        path = write(tmp_path, "y,a,b\n1.0,,x\n2.0,3\n")
        assert_raises_as_reference(path, f"{path}: missing value at row 1, column 'a'")

    def test_short_row_before_a_missing_cell(self, tmp_path):
        path = write(tmp_path, "y,a,b\n1.0,2,x\n2.0,3\n3.0,,x\n")
        assert_raises_as_reference(path, f"{path}: row 2 has 2 cells, expected 3")

    def test_short_row_in_a_later_chunk_after_a_missing_cell(self, tmp_path):
        rows = ["1.0,2"] * 300 + ["2.0, "] + ["3.0,4"] * 300 + ["4.0"]
        path = write(tmp_path, "y,a\n" + "\n".join(rows) + "\n")
        assert_raises_as_reference(path, f"{path}: missing value at row 301, column 'a'")

    def test_missing_cells_in_one_row_name_the_earlier_column(self, tmp_path):
        path = write(tmp_path, "y,a,b\n1.0,2,x\n2.0, ,\n3.0,,x\n")
        assert_raises_as_reference(path, f"{path}: missing value at row 2, column 'a'")

    def test_earlier_row_wins_over_earlier_column(self, tmp_path):
        path = write(tmp_path, "y,a,b\n1.0,2,\n2.0,,x\n")
        assert_raises_as_reference(path, f"{path}: missing value at row 1, column 'b'")

    def test_negative_response_before_an_unparseable_one(self, tmp_path):
        path = write(tmp_path, "y,a\n1.0,2\n-1,2\nbad,3\n")
        assert_raises_as_reference(
            path, f"{path}: response must be a nonnegative number, got '-1' at row 2"
        )

    def test_unparseable_response_before_a_negative_one(self, tmp_path):
        path = write(tmp_path, "y,a\n1.0,2\nbad,2\n-1,3\n")
        assert_raises_as_reference(
            path, f"{path}: cannot parse 'bad' at row 2, column 'y'"
        )

    def test_unparseable_numeric_covariate(self, tmp_path):
        path = write(tmp_path, "y,a\n1.0,2\n2.0,abc\n3.0,zz\n")
        assert_raises_as_reference(
            path,
            "cannot parse 'abc' as a number at row 2, column 'a' (declare it as a factor?)",
        )

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "y,a\n")
        assert read_csv(path, "y", 0.0).n == 0
        assert_raises_as_reference(
            path, "design is rank deficient; redundant columns: ['intercept', 'a']"
        )


def test_repeated_header_name_is_rejected(tmp_path):
    # the header is checked before the cells: the missing cell is not named
    path = write(tmp_path, "y,a, note,note \n1.0,2,p,q\n0.5,,r,s\n")
    with pytest.raises(ValueError) as info:
        read_csv(path, "y", 0.0)
    message = f"{path}: column name 'note' appears more than once in the header"
    assert str(info.value) == message
