"""CSV ingestion, truncation recoding and design-matrix construction.

``read_csv`` parses each numeric column into a float64 array once. A plain
file (ASCII, no ``"``, no empty line, a data row) is read by numpy's C
tokenizer, any other by the ``csv`` module; both give the same dataset and
the same errors.

Factors are declared, never inferred; their level order is first appearance
in the file unless a base/dropped level is named. Treatment coding emits one
indicator per non-base level, sum coding emits +1 for the own level and -1
for the dropped level. Interactions are elementwise products of the coded
columns.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import ModelSpec, _check_rank, _check_threshold

__all__ = [
    "Dataset",
    "ContrastSpec",
    "FormulaSpec",
    "read_csv",
    "parse_formula",
    "build_design",
    "make_model_spec",
]

# Rows read and transposed at a time by the csv path of read_csv.
_CHUNK_ROWS = 256
# The header line of a file and its line end.
_FIRST_LINE = re.compile(rb"([^\r\n]+)(?:\r\n|\r|\n)")


@dataclass(frozen=True)
class ContrastSpec:
    """Coding scheme for one categorical variable.

    ``base`` names the reference level for treatment coding, or the dropped
    level for sum coding; ``None`` means first level (treatment) or last
    level (sum) in first-appearance order.
    """

    variable: str
    kind: str = "treatment"
    base: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("treatment", "sum"):
            raise ValueError(f"contrast kind must be 'treatment' or 'sum', got {self.kind!r}")


@dataclass(frozen=True)
class FormulaSpec:
    """Ordered model terms: variable names or 'a:b' interaction pairs.

    The intercept is always included and never listed.
    """

    terms: tuple[str, ...] = ()


@dataclass(frozen=True)
class Dataset:
    """Response, raw covariate columns and the truncation threshold.

    ``recode_count`` tells how many responses in ``(0, y_trunc]`` were moved
    to zero on ingestion. ``frame`` maps each other column to a float64
    array if it is not a declared factor and all its cells parse by ``float``
    to finite numbers, else to its stripped cells; a hand-built one may hold
    strings anywhere.
    """

    y: np.ndarray
    frame: dict[str, np.ndarray | list[str]]
    y_trunc: float
    recode_count: int
    factors: tuple[ContrastSpec, ...] = ()

    @property
    def n(self) -> int:
        return self.y.size

    def contrast_for(self, variable: str) -> ContrastSpec | None:
        for c in self.factors:
            if c.variable == variable:
                return c
        return None


def read_csv(
    path,
    response_column: str,
    y_trunc: float,
    factors: tuple[ContrastSpec, ...] | list[ContrastSpec] = (),
) -> Dataset:
    """Load a UTF-8 comma-separated file with a header row.

    Responses in ``(0, y_trunc]`` are recoded to zero and counted. Negative,
    missing or unparseable response cells raise with row and column named;
    missing cells anywhere and header names given twice are rejected. Of
    several defects, the first in row-major order is reported.

    A plain file is read by ``np.loadtxt``, any other by the ``csv`` module
    (see the module notes); both give the same dataset and the same errors.
    """
    _check_threshold(y_trunc)
    text = {c.variable for c in factors} - {response_column}
    columns = _read_plain(path, response_column, text)
    if columns is None:
        columns = _read_rows(path, response_column, factors, text)
    y = columns.pop(response_column)
    recode = (y > 0.0) & (y <= y_trunc)
    y[recode] = 0.0
    return Dataset(
        y=y,
        frame=columns,
        y_trunc=float(y_trunc),
        recode_count=int(np.sum(recode)),
        factors=tuple(factors),
    )


def _read_plain(path, response_column, text) -> dict | None:
    """The columns of a plain file, parsed by ``np.loadtxt``; ``None`` for
    any other file, or when the header is at fault, loadtxt rejects a cell,
    a number is not finite, a response is negative or a factor cell is
    empty, so that the ``csv`` path gives the result or the message."""
    with open(path, "rb") as fh:
        data = fh.read()
    first = _FIRST_LINE.match(data)
    # two line ends around an empty line; the last two need a \r in the file
    ends = (b"\n\n", b"\n\r", b"\r\r") if b"\r" in data else (b"\n\n",)
    plain = first and first.end() < len(data) and data.isascii() and b'"' not in data
    if not plain or any(end in data for end in ends):
        return None
    header = [h.strip() for h in first.group(1).decode().split(",")]
    del data, first
    if len(set(header)) < len(header) or not text | {response_column} <= set(header):
        return None
    dtype = [(f"c{j}", object if name in text else float) for j, name in enumerate(header)]
    try:
        table = np.loadtxt(
            path, dtype, delimiter=",", comments=None, skiprows=1, encoding="utf-8", ndmin=1
        )
    except ValueError:
        return None
    columns = {
        name: list(map(str.strip, table[key].tolist())) if name in text else table[key].copy()
        for (key, _), name in zip(dtype, header)
    }
    if any("" in columns[name] for name in text) or np.any(columns[response_column] < 0.0):
        return None
    return columns if all(np.isfinite(columns[n]).all() for n in columns.keys() - text) else None


def _read_rows(path, response_column, factors, text) -> dict:
    """The columns of any file, read by the ``csv`` module in chunks of
    ``_CHUNK_ROWS`` rows transposed into columns, so no list of row lists
    outlives its chunk; the numeric ones then parsed by ``float``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        width = len(header)
        cells: list[list[str]] = [[] for _ in header]
        # (row, cells) of the first row of the wrong width
        short = None
        nrows = 0
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            if short is not None:
                continue  # read on: a decoding error later in the file comes first
            if set(map(len, chunk)) != {width}:
                i = next(i for i, row in enumerate(chunk) if len(row) != width)
                short = (nrows + i + 1, len(chunk[i]))
                chunk = chunk[:i]
            for column, part in zip(cells, zip(*chunk)):
                column.extend(map(str.strip, part))
            nrows += len(chunk)
    header = [h.strip() for h in header]
    if response_column not in header:
        raise ValueError(f"{path}: no column named {response_column!r}")
    for c in factors:
        if c.variable not in header:
            raise ValueError(f"{path}: no column named {c.variable!r}")
    if len(set(header)) < len(header):
        name = next(h for h in header if header.count(h) > 1)
        raise ValueError(
            f"{path}: column name {name!r} appears more than once in the header"
        )
    # the first empty cell, by row and then by column, among the rows
    # before the first one of the wrong width
    missing = min(
        ((column.index(""), j) for j, column in enumerate(cells) if "" in column),
        default=None,
    )
    if missing is not None:
        row, j = missing
        raise ValueError(f"{path}: missing value at row {row + 1}, column {header[j]!r}")
    if short is not None:
        raise ValueError(f"{path}: row {short[0]} has {short[1]} cells, expected {width}")

    columns: dict = dict(zip(header, cells))
    raw = columns[response_column]
    for name in columns.keys() - text:
        try:
            col = np.fromiter(map(float, columns[name]), float, count=nrows)
        except ValueError:
            continue
        if np.isfinite(col).all():
            columns[name] = col
    if columns[response_column] is raw or not np.all(columns[response_column] >= 0.0):
        raise ValueError(_response_defect(path, raw, response_column))
    return columns


def _response_defect(path, raw: list[str], response_column: str) -> str:
    """The message for the first response cell that is not a nonnegative number."""
    for i, cell in enumerate(raw):
        try:
            value = float(cell)
        except ValueError:
            return f"{path}: cannot parse {cell!r} at row {i + 1}, column {response_column!r}"
        if not math.isfinite(value) or value < 0.0:
            return (
                f"{path}: response must be a nonnegative number, got {cell!r} "
                f"at row {i + 1}"
            )
    raise AssertionError("no defective response cell")


def _first_unparseable(cells: list[str]) -> tuple[int, str]:
    """Index and text of the first cell that ``float`` rejects."""
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return i, cell
    raise AssertionError("every cell parses")


def parse_formula(text: str) -> FormulaSpec:
    """Parse a comma-separated term list; 'a:b' denotes an interaction.

    An empty string gives the intercept-only model. Duplicate terms (also
    'a:b' versus 'b:a') are rejected.
    """
    terms: list[str] = []
    seen: set[frozenset] = set()
    if text.strip() == "":
        return FormulaSpec(terms=())
    for offset, chunk in _split_terms(text):
        term = chunk.strip()
        parts = term.split(":")
        if len(parts) > 2 or any(not _is_identifier(p.strip()) for p in parts):
            raise ValueError(f"formula syntax error at position {offset}: {chunk!r}")
        parts = [p.strip() for p in parts]
        key = frozenset(parts) if len(parts) == 2 else frozenset([parts[0], parts[0]])
        if key in seen:
            raise ValueError(f"duplicate term {term!r} in formula")
        seen.add(key)
        terms.append(":".join(parts))
    return FormulaSpec(terms=tuple(terms))


def _split_terms(text: str):
    offset = 0
    for chunk in text.split(","):
        yield offset, chunk
        offset += len(chunk) + 1


def _is_identifier(s: str) -> bool:
    return bool(s) and (s[0].isalpha() or s[0] == "_") and all(
        ch.isalnum() or ch == "_" for ch in s
    )


def _coded_columns(
    ds: Dataset, variable: str, declared_levels: dict[str, list[str]] | None = None
) -> tuple[list[str], np.ndarray, list[str] | None]:
    """Code one variable: factor contrast columns or a single numeric column.

    The third item is the factor's levels, or ``None`` for a numeric column,
    whose cells must parse to finite numbers (``nan``, ``inf`` and ``1e999``
    are rejected, naming the row).
    """
    if variable not in ds.frame:
        raise ValueError(f"unknown variable {variable!r}")
    values = ds.frame[variable]
    contrast = ds.contrast_for(variable)
    if contrast is None:
        try:
            col = values if isinstance(values, np.ndarray) else np.fromiter(
                map(float, values), float, count=len(values)
            )
        except ValueError:
            i, cell = _first_unparseable(values)
            raise ValueError(
                f"cannot parse {cell!r} as a number at row {i + 1}, "
                f"column {variable!r} (declare it as a factor?)"
            ) from None
        finite = np.isfinite(col)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"cannot use {values[i]!r} at row {i + 1}, column {variable!r}: "
                "covariate values must be finite"
            )
        return [variable], col.reshape(-1, 1), None

    if declared_levels is not None and variable in declared_levels:
        levels = declared_levels[variable]
        unseen = sorted(set(values) - set(levels))
        if unseen:
            raise ValueError(
                f"column {variable!r} contains level(s) {unseen} not present "
                "when the design was defined"
            )
    else:
        levels = list(dict.fromkeys(values))
    if len(levels) < 2:
        raise ValueError(f"factor {variable!r} has fewer than two levels")

    if contrast.kind == "treatment":
        base = contrast.base if contrast.base is not None else levels[0]
        if base not in levels:
            raise ValueError(f"base level {base!r} not among levels of {variable!r}")
    else:
        base = contrast.base if contrast.base is not None else levels[-1]
        if base not in levels:
            raise ValueError(f"dropped level {base!r} not among levels of {variable!r}")
    index = {lv: k for k, lv in enumerate(levels)}
    codes = np.fromiter(map(index.__getitem__, values), np.intp, count=len(values))
    kept = [lv for lv in levels if lv != base]
    cols = (codes[:, None] == [index[lv] for lv in kept]).astype(float)
    if contrast.kind == "sum":
        cols[codes == index[base]] = -1.0
    names = [f"{variable}={lv}" for lv in kept]
    return names, cols, levels


def build_design(
    ds: Dataset,
    formula: FormulaSpec,
    declared_levels: dict[str, list[str]] | None = None,
) -> tuple[np.ndarray, tuple[str, ...], dict[str, list[str]]]:
    """Build the design matrix for one model part.

    Returns the matrix (intercept first), column names, and the factor
    levels used, so a later rebuild (e.g. at predict time) can reject
    unseen levels. Rank deficiency is reported with the offending columns.
    """
    return _build_design(ds, formula, declared_levels, {})


def _build_design(
    ds: Dataset,
    formula: FormulaSpec,
    declared_levels: dict[str, list[str]] | None,
    coded: dict[str, tuple],
) -> tuple[np.ndarray, tuple[str, ...], dict[str, list[str]]]:
    """:func:`build_design` with each variable's coding taken from ``coded``,
    filled on first use, so that several parts convert a column once."""
    names: list[str] = ["intercept"]
    blocks: list[np.ndarray] = [np.ones((ds.n, 1))]
    levels_used: dict[str, list[str]] = {}

    def code(variable: str) -> tuple[list[str], np.ndarray]:
        if variable not in coded:
            coded[variable] = _coded_columns(ds, variable, declared_levels)
        term_names, cols, levels = coded[variable]
        if levels is not None:
            levels_used[variable] = list(levels)
        return term_names, cols

    for term in formula.terms:
        if ":" in term:
            a, b = term.split(":")
            names_a, cols_a = code(a)
            names_b, cols_b = code(b)
            for ja, na in enumerate(names_a):
                for jb, nb in enumerate(names_b):
                    with np.errstate(over="ignore"):
                        col = cols_a[:, ja] * cols_b[:, jb]
                    finite = np.isfinite(col)
                    if not finite.all():
                        raise ValueError(
                            f"interaction {term!r} overflows at row "
                            f"{int(np.argmin(finite)) + 1}: rescale {a!r} or {b!r}"
                        )
                    names.append(f"{na}:{nb}")
                    blocks.append(col.reshape(-1, 1))
        else:
            term_names, cols = code(term)
            names.extend(term_names)
            blocks.append(cols)

    x = np.hstack(blocks)
    _check_rank(x, names)
    return x, tuple(names), levels_used


def make_model_spec(
    ds: Dataset,
    pi_formula: FormulaSpec,
    mu_formula: FormulaSpec,
    declared_levels: dict[str, list[str]] | None = None,
) -> tuple[ModelSpec, dict[str, list[str]]]:
    """Design matrices for both model parts from one dataset.

    Each variable is converted once and shared by the two parts.
    """
    coded: dict[str, tuple] = {}
    x1, names1, lv1 = _build_design(ds, pi_formula, declared_levels, coded)
    x2, names2, lv2 = _build_design(ds, mu_formula, declared_levels, coded)
    levels = dict(lv1)
    levels.update(lv2)
    return ModelSpec(x1=x1, x2=x2, names1=names1, names2=names2), levels
