"""Column-wise ingestion against the cell-by-cell reference in
``ingest_reference``: equal datasets, designs and error messages, and the
first defect in row-major order wins when a file has several. Plain files
go through numpy's C tokenizer, the others through the ``csv`` module, and
both must agree with the reference."""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
import zitpo.data_io as data_io
from zitpo.data_io import ContrastSpec, make_model_spec, parse_formula, read_csv

F1_LEVELS = ["a", "b,c", 'say "hi"', "d e", "\u00e9t\u00e9"]
F2_LEVELS = ["x", "y", "z"]
TERMS = ["num", "f1", "f2", "f1:num", "f1:f2"]
# cells that float() and numpy's parser may treat differently, or reject
ODD_NUMBERS = ["nan", "inf", "1e999", "-0", ".5", "5.", "+1", "0x1", "1e", "1_000"]


def outcome(call):
    """The value of ``call()``, or the message of the ValueError it raised."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


def is_plain(data: bytes) -> bool:
    """Whether read_csv's C path takes a file: ASCII, no ``"``, no empty
    line with ``\\r\\n``, ``\\r`` and ``\\n`` as line ends, and a data row."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return data.isascii() and b'"' not in data and len(lines) >= 2 and b"" not in lines


def read_spied(path, y_trunc=0.0, factors=()):
    """The outcome of ``read_csv`` and whether it called ``np.loadtxt``."""
    with mock.patch.object(data_io.np, "loadtxt", wraps=np.loadtxt) as spy:
        got = outcome(lambda: read_csv(path, "y", y_trunc, factors))
    assert spy.call_count <= 1
    return got, spy.called


def finite_numbers(cells):
    """The cells parsed by ``float``, or None unless each is a finite number."""
    try:
        values = np.array([float(c) for c in cells], dtype=float)
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def assert_same_dataset(got, want):
    """``got`` from the package, ``want`` from the reference, whose columns
    are strings. A column that is not a declared factor and whose cells all
    parse to finite numbers must be a float64 array of those numbers, bit
    for bit; any other column must be the reference's strings."""
    assert got.y.dtype == want.y.dtype == np.float64
    assert got.y.tobytes() == want.y.tobytes()
    assert list(got.frame) == list(want.frame)
    for name, cells in want.frame.items():
        numbers = None if want.contrast_for(name) else finite_numbers(cells)
        column = got.frame[name]
        if numbers is None:
            assert type(column) is list and column == cells
        else:
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.tobytes() == numbers.tobytes()
    assert got.recode_count == want.recode_count
    assert got.y_trunc == want.y_trunc
    assert got.factors == want.factors


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
    """A small file: header, rows of cells, a line end and up to two defects.

    About half the files are drawn plain: their levels and notes hold no
    comma, quote or non-ASCII character. Numbers are now and then one of
    ``ODD_NUMBERS``; a note column holds either text or numbers.
    """
    plain = draw(st.booleans())
    n = draw(st.integers(1 if plain else 0, 8))
    regular = st.one_of(
        st.floats(0.0, 30.0).map(repr),
        st.integers(0, 3000).map(str),
        st.sampled_from(["2.5e0", "0.25"]),
    )

    def numbers(usual):
        odd = st.sampled_from(ODD_NUMBERS)
        return [draw(odd if draw(st.integers(0, 11)) == 0 else usual) for _ in range(n)]

    f1_levels = ["a", "d e"] if plain else F1_LEVELS
    note_text = st.text(
        st.sampled_from("ab x" if plain else 'ab, "x\u00e9'), min_size=1, max_size=4
    ).filter(str.strip)
    columns = {
        "y": numbers(regular),
        "num": numbers(st.floats(-5.0, 5.0).map(repr)),
        "f1": draw(st.lists(st.sampled_from(f1_levels), min_size=n, max_size=n)),
        "f2": draw(st.lists(st.sampled_from(F2_LEVELS), min_size=n, max_size=n)),
        "note": (
            draw(st.lists(note_text, min_size=n, max_size=n))
            if draw(st.booleans())
            else numbers(st.integers(-9, 9).map(str))
        ),
    }
    header = draw(st.permutations(list(columns)))
    rows = [
        [padded(columns[name][i], draw(st.integers(0, 8))) for name in header]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        kind = draw(
            st.sampled_from(["blank", "short", "long", "bad", "negative", "empty line"])
        )
        if kind == "empty line":
            rows.insert(draw(st.integers(0, len(rows))), [])
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if not rows[i]:
            continue
        j = draw(st.integers(0, len(rows[i]) - 1))
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
    return header, rows, draw(st.sampled_from(["\r\n", "\n", "\r"]))


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
    header, rows, line_end = table
    factors, pi_text, mu_text, declared = design
    with open(scratch_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(rows)

    got, loadtxt_ran = read_spied(scratch_csv, y_trunc, factors)
    assert loadtxt_ran == is_plain(scratch_csv.read_bytes())
    want = outcome(lambda: ref.read_csv(scratch_csv, "y", y_trunc, factors))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert_same_dataset(got[1], want[1])

    ds, ref_ds = got[1], want[1]
    pi, mu = parse_formula(pi_text), parse_formula(mu_text)
    got = outcome(lambda: make_model_spec(ds, pi, mu, declared))
    want = outcome(lambda: ref.make_model_spec(ref_ds, pi, mu, declared))
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


def read_as_reference(path, loadtxt_runs, factors=()):
    """Read ``path`` as the reference does, checking which reader ran."""
    got, ran = read_spied(path, factors=factors)
    assert ran == loadtxt_runs
    want = outcome(lambda: ref.read_csv(path, "y", 0.0, factors))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_dataset(got[1], want[1])
    return got


class TestReaderChoice:
    def test_blank_line_in_the_middle(self, tmp_path):
        path = write(tmp_path, "y,a\n1.0,2\n\n2.0,3\n")
        message = f"{path}: row 2 has 0 cells, expected 2"
        assert read_as_reference(path, loadtxt_runs=False) == ("error", message)

    def test_trailing_blank_line(self, tmp_path):
        path = write(tmp_path, "y,a\r\n1.0,2\r\n2.0,3\r\n\r\n")
        message = f"{path}: row 3 has 0 cells, expected 2"
        assert read_as_reference(path, loadtxt_runs=False) == ("error", message)

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        path = write(tmp_path, "y,a\r1.0,2\r2.0, 3\r")
        _, ds = read_as_reference(path, loadtxt_runs=True)
        assert ds.frame["a"].tolist() == [2.0, 3.0]

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "y,a\n")
        _, ds = read_as_reference(path, loadtxt_runs=False)
        assert ds.n == 0 and ds.frame["a"].shape == (0,)

    def test_unused_text_column(self, tmp_path):
        path = write(tmp_path, "y,a,note\n1.0,2,hello\n2.0,3, world\n")
        _, ds = read_as_reference(path, loadtxt_runs=True)
        assert ds.frame["note"] == ["hello", "world"]
        spec, _ = make_model_spec(ds, parse_formula("a"), parse_formula(""))
        assert spec.x1[:, 1].tolist() == [2.0, 3.0]

    def test_quoted_cells_are_read_by_the_csv_module(self, tmp_path):
        path = write(tmp_path, 'y,a,f\n1.0,"2.5","say ""hi"""\n2.0,3,x\n')
        _, ds = read_as_reference(path, loadtxt_runs=False, factors=(ContrastSpec("f"),))
        assert ds.frame["f"] == ['say "hi"', "x"]

    def test_empty_factor_cell_is_missing(self, tmp_path):
        path = write(tmp_path, "y,a,f\n1.0,2,x\n2.0,3, \n")
        got = read_as_reference(path, loadtxt_runs=True, factors=(ContrastSpec("f"),))
        assert got == ("error", f"{path}: missing value at row 2, column 'f'")

    def test_simulated_file_is_plain(self, tmp_path):
        from zitpo.cli import main

        path = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "50", "--xi", "0.25", "--out", str(path)]) == 0
        assert b"\r\n" in path.read_bytes()
        _, ds = read_as_reference(path, loadtxt_runs=True)
        assert ds.n == 50


def test_repeated_header_name_is_rejected(tmp_path):
    # the header is checked before the cells: the missing cell is not named
    path = write(tmp_path, "y,a, note,note \n1.0,2,p,q\n0.5,,r,s\n")
    with pytest.raises(ValueError) as info:
        read_csv(path, "y", 0.0)
    message = f"{path}: column name 'note' appears more than once in the header"
    assert str(info.value) == message
