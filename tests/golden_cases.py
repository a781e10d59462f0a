"""Golden CLI runs: the cases, the runner and the comparator.

Each case runs one or more ``zitpo`` commands in a fresh directory that holds
copies of the inputs under ``tests/golden/inputs``, with relative paths, so
no output names the directory it ran in. A case's golden directory
``tests/golden/<case>`` keeps ``run.json`` (every command's argv, exit code,
stdout and stderr) and each file the commands wrote.

The comparator checks exit codes, stdout, stderr, JSON keys, strings, bools
and nulls exactly, and numbers within ``REL_TOL`` relative, since BLAS
builds differ in the last bits. ``tests/golden/regenerate.py`` rewrites the
goldens after a change that moves numbers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
INPUT_DIR = GOLDEN_DIR / "inputs"
REL_TOL = 1e-9

SIM_TERMS = "normal, poisson, bernoulli1, bernoulli2, exponential"
SIM_FIT = ["--data", "sim.csv", "--response", "y", "--trunc", "0.125",
           "--pi-formula", SIM_TERMS, "--mu-formula", SIM_TERMS]
FACTOR_FIT = ["--data", "factor.csv", "--response", "y", "--trunc", "0.05",
              "--factor", "age:base=a25", "--factor", "gender",
              "--pi-formula", "age, gender, x", "--mu-formula", "age, x, age:x"]
# quoted.csv is not plain (a quoted level, non-ASCII levels): the csv module reads it
QUOTED_FIT = ["--data", "quoted.csv", "--response", "y", "--trunc", "0.05",
              "--factor", "region", "--pi-formula", "region, x", "--mu-formula", "region, x"]


@dataclass(frozen=True)
class Case:
    name: str
    steps: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    # estimation module attributes set for the duration of the run
    patch: dict = field(default_factory=dict)


CASES = (
    Case("simulate", (("simulate", "--n", "600", "--xi", "0.25", "--seed", "6",
                       "--out", "simulated.csv"),), ("simulated.csv",)),
    Case("fit_factor_trace", (("fit", *FACTOR_FIT, "--trace", "--out", "fit.json"),),
         ("fit.json",)),
    Case("fit_fix_xi", (("fit", *SIM_FIT, "--fix-xi", "0.2", "--out", "fit.json"),),
         ("fit.json",)),
    # two Newton iterations cannot converge: exit 2 and null standard errors
    Case("fit_unconverged", (("fit", *SIM_FIT, "--out", "fit.json"),), ("fit.json",),
         patch={"_MAX_ITER": 2}),
    Case("lrt", (("lrt", *FACTOR_FIT, "--drop", "age:x,gender", "--out", "lrt.json"),),
         ("lrt.json",)),
    Case("diagnose_report", (
        ("fit", *FACTOR_FIT, "--out", "fit.json"),
        ("diagnose", "--report", "fit.json", "--data", "factor.csv", "--out-csv", "qq.csv"),
    ), ("fit.json", "qq.csv")),
    Case("diagnose_refit", (("diagnose", *SIM_FIT, "--out-csv", "qq.csv"),), ("qq.csv",)),
    Case("fit_quoted", (("fit", *QUOTED_FIT, "--out", "fit.json"),), ("fit.json",)),
    Case("diagnose_quoted", (
        ("fit", *QUOTED_FIT, "--out", "fit.json"),
        ("diagnose", "--report", "fit.json", "--data", "quoted.csv", "--out-csv", "qq.csv"),
    ), ("qq.csv",)),
    Case("coverage_reference", (("coverage", "--preset", "reference", "--n", "600",
                                 "--reps", "8", "--seed", "3", "--out", "coverage.json",
                                 "--estimates-csv", "estimates.csv"),),
         ("coverage.json", "estimates.csv")),
    # one replicate: every sd is null
    Case("coverage_one_rep", (("coverage", "--n", "300", "--reps", "1", "--xi", "0.25",
                               "--seed", "2", "--out", "coverage.json"),),
         ("coverage.json",)),
    Case("coverage_grid_one_rep", (("coverage", "--preset", "reference-grid", "--reps", "1",
                                    "--out", "grid.json"),), ("grid.json",)),
)


def run_case(case: Case, workdir: Path) -> tuple[dict, dict[str, str]]:
    """Run a case in ``workdir``: its ``run.json`` record and its output texts."""
    import zitpo.estimation as estimation
    from zitpo.cli import main

    for src in INPUT_DIR.iterdir():
        shutil.copy(src, workdir / src.name)
    saved = {k: getattr(estimation, k) for k in case.patch}
    here = os.getcwd()
    steps = []
    try:
        for k, v in case.patch.items():
            setattr(estimation, k, v)
        os.chdir(workdir)
        for argv in case.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            steps.append({"argv": list(argv), "exit_code": code,
                          "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(here)
        for k, v in saved.items():
            setattr(estimation, k, v)
    files = {name: (workdir / name).read_text(encoding="utf-8") for name in case.outputs}
    return {"steps": steps}, files


def load_golden(case: Case) -> tuple[dict, dict[str, str]]:
    """The checked-in ``run.json`` record and output texts of a case."""
    folder = GOLDEN_DIR / case.name
    record = json.loads((folder / "run.json").read_text(encoding="utf-8"))
    files = {name: (folder / name).read_text(encoding="utf-8") for name in case.outputs}
    return record, files


def write_golden(case: Case, record: dict, files: dict[str, str]) -> None:
    folder = GOLDEN_DIR / case.name
    folder.mkdir(parents=True, exist_ok=True)
    (folder / "run.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for name, text in files.items():
        (folder / name).write_text(text, encoding="utf-8")


def strict_json(text: str):
    """Parse JSON text that must hold no NaN or Infinity token."""

    def refuse(token):
        raise ValueError(f"non-finite token {token} in a report")

    return json.loads(text, parse_constant=refuse)


_INT = re.compile(r"-?\d+")


class Diff:
    """Differences found so far and the largest relative change of a number."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.max_rel = 0.0

    def number(self, where: str, want: float, got: float) -> None:
        if want == got:
            return
        scale = max(abs(want), abs(got))
        rel = abs(want - got) / scale if math.isfinite(scale) else math.inf
        self.max_rel = max(self.max_rel, rel)
        if not rel <= REL_TOL:
            self.problems.append(f"{where}: {want!r} became {got!r} (relative {rel:.3g})")

    def value(self, where: str, want, got) -> None:
        if type(want) is not type(got):
            self.problems.append(f"{where}: {want!r} became {got!r}")
        elif isinstance(want, dict):
            if want.keys() != got.keys():
                self.problems.append(f"{where}: keys {sorted(want)} became {sorted(got)}")
            for k in want.keys() & got.keys():
                self.value(f"{where}.{k}", want[k], got[k])
        elif isinstance(want, list):
            if len(want) != len(got):
                self.problems.append(f"{where}: length {len(want)} became {len(got)}")
            for i, (a, b) in enumerate(zip(want, got)):
                self.value(f"{where}[{i}]", a, b)
        elif isinstance(want, float):
            self.number(where, want, got)
        elif want != got:
            self.problems.append(f"{where}: {want!r} became {got!r}")

    def cell(self, where: str, want: str, got: str) -> None:
        """A CSV cell: integers and strings exactly, other numbers within the tolerance."""
        try:
            a, b = float(want), float(got)
        except ValueError:
            a = b = None
        if a is None or _INT.fullmatch(want) or _INT.fullmatch(got):
            if want != got:
                self.problems.append(f"{where}: {want!r} became {got!r}")
        else:
            self.number(where, a, b)

    def file(self, name: str, want: str, got: str) -> None:
        if name.endswith(".json"):
            self.value(name, strict_json(want), strict_json(got))
            return
        a, b = list(csv.reader(io.StringIO(want))), list(csv.reader(io.StringIO(got)))
        if len(a) != len(b):
            self.problems.append(f"{name}: {len(a)} rows became {len(b)}")
        for i, (ra, rb) in enumerate(zip(a, b)):
            if len(ra) != len(rb):
                self.problems.append(f"{name} row {i}: {ra} became {rb}")
                continue
            for j, (ca, cb) in enumerate(zip(ra, rb)):
                self.cell(f"{name} row {i} column {j}", ca, cb)


def compare(want: tuple[dict, dict[str, str]], got: tuple[dict, dict[str, str]]) -> Diff:
    """Differences between a golden (record, files) pair and a fresh run's."""
    diff = Diff()
    (want_record, want_files), (got_record, got_files) = want, got
    if want_record != got_record:
        diff.problems.append(
            f"run.json: {json.dumps(want_record)} became {json.dumps(got_record)}"
        )
    for name, text in want_files.items():
        diff.file(name, text, got_files[name])
    return diff
