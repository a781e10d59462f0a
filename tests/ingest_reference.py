"""Cell-by-cell reference implementation of CSV ingestion and design coding.

This is the straightforward row loop that ``zitpo.data_io`` replaced with
column-wise work. It keeps every covariate cell as a string. Tests compare
the package against it: datasets (a numeric column of the package's against
these strings parsed by ``float``), designs, names, levels and error
messages must all be equal.
"""

from __future__ import annotations

import csv

import numpy as np

from zitpo.data_io import Dataset, _check_rank
from zitpo.model import ModelSpec


def read_csv(path, response_column, y_trunc, factors=()) -> Dataset:
    if y_trunc < 0.0:
        raise ValueError(f"truncation threshold must be nonnegative, got {y_trunc}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    if response_column not in header:
        raise ValueError(f"{path}: no column named {response_column!r}")
    for c in factors:
        if c.variable not in header:
            raise ValueError(f"{path}: no column named {c.variable!r}")
    columns: dict[str, list[str]] = {name: [] for name in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            cell = cell.strip()
            if cell == "":
                raise ValueError(f"{path}: missing value at row {i + 1}, column {name!r}")
            columns[name].append(cell)

    raw = columns.pop(response_column)
    y = np.empty(len(raw))
    for i, cell in enumerate(raw):
        try:
            y[i] = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: cannot parse {cell!r} at row {i + 1}, column {response_column!r}"
            ) from None
        if not np.isfinite(y[i]) or y[i] < 0.0:
            raise ValueError(
                f"{path}: response must be a nonnegative number, got {cell!r} "
                f"at row {i + 1}"
            )
    recode = (y > 0.0) & (y <= y_trunc)
    y[recode] = 0.0
    return Dataset(
        y=y,
        frame=columns,
        y_trunc=float(y_trunc),
        recode_count=int(np.sum(recode)),
        factors=tuple(factors),
    )


def _levels(values):
    seen: dict[str, None] = {}
    for v in values:
        seen.setdefault(v, None)
    return list(seen)


def _coded_columns(ds, variable, declared_levels=None):
    if variable not in ds.frame:
        raise ValueError(f"unknown variable {variable!r}")
    values = ds.frame[variable]
    contrast = ds.contrast_for(variable)
    if contrast is None:
        col = np.empty(len(values))
        for i, cell in enumerate(values):
            try:
                col[i] = float(cell)
            except ValueError:
                raise ValueError(
                    f"cannot parse {cell!r} as a number at row {i + 1}, "
                    f"column {variable!r} (declare it as a factor?)"
                ) from None
        # a cell that does not parse is named before one that is not finite
        for i, cell in enumerate(values):
            if not np.isfinite(col[i]):
                raise ValueError(
                    f"cannot use {cell!r} at row {i + 1}, column {variable!r}: "
                    "covariate values must be finite"
                )
        return [variable], col.reshape(-1, 1)

    if declared_levels is not None and variable in declared_levels:
        levels = declared_levels[variable]
        unseen = sorted(set(values) - set(levels))
        if unseen:
            raise ValueError(
                f"column {variable!r} contains level(s) {unseen} not present "
                "when the design was defined"
            )
    else:
        levels = _levels(values)
    if len(levels) < 2:
        raise ValueError(f"factor {variable!r} has fewer than two levels")

    if contrast.kind == "treatment":
        base = contrast.base if contrast.base is not None else levels[0]
        if base not in levels:
            raise ValueError(f"base level {base!r} not among levels of {variable!r}")
        kept = [lv for lv in levels if lv != base]
        cols = np.zeros((len(values), len(kept)))
        for j, lv in enumerate(kept):
            cols[:, j] = [1.0 if v == lv else 0.0 for v in values]
    else:
        dropped = contrast.base if contrast.base is not None else levels[-1]
        if dropped not in levels:
            raise ValueError(f"dropped level {dropped!r} not among levels of {variable!r}")
        kept = [lv for lv in levels if lv != dropped]
        cols = np.zeros((len(values), len(kept)))
        for j, lv in enumerate(kept):
            cols[:, j] = [1.0 if v == lv else (-1.0 if v == dropped else 0.0) for v in values]
    names = [f"{variable}={lv}" for lv in kept]
    return names, cols


def build_design(ds, formula, declared_levels=None):
    names = ["intercept"]
    blocks = [np.ones((ds.n, 1))]
    term_cols = {}
    levels_used = {}

    def coded(variable):
        if variable not in term_cols:
            term_cols[variable] = _coded_columns(ds, variable, declared_levels)
            if ds.contrast_for(variable) is not None:
                if declared_levels is not None and variable in declared_levels:
                    levels_used[variable] = list(declared_levels[variable])
                else:
                    levels_used[variable] = _levels(ds.frame[variable])
        return term_cols[variable]

    for term in formula.terms:
        if ":" in term:
            a, b = term.split(":")
            names_a, cols_a = coded(a)
            names_b, cols_b = coded(b)
            for ja, na in enumerate(names_a):
                for jb, nb in enumerate(names_b):
                    names.append(f"{na}:{nb}")
                    blocks.append((cols_a[:, ja] * cols_b[:, jb]).reshape(-1, 1))
        else:
            term_names, cols = coded(term)
            names.extend(term_names)
            blocks.append(cols)

    x = np.hstack(blocks)
    _check_rank(x, names)
    return x, tuple(names), levels_used


def make_model_spec(ds, pi_formula, mu_formula, declared_levels=None):
    x1, names1, lv1 = build_design(ds, pi_formula, declared_levels)
    x2, names2, lv2 = build_design(ds, mu_formula, declared_levels)
    levels = dict(lv1)
    levels.update(lv2)
    return ModelSpec(x1=x1, x2=x2, names1=names1, names2=names2), levels
