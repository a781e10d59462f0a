"""Rewrite the golden CLI outputs under tests/golden and report what moved.

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

Runs every case (or the named ones) of ``tests/golden_cases.py`` and prints,
per output file, the largest relative change of a number against the
checked-in golden and whether anything else changed, then writes the new
outputs. A change that moves numbers states that figure in CHANGES.md.
Missing inputs are created first; existing inputs are never rewritten.
"""

from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import golden_cases as g  # noqa: E402


def write_factor_csv(path) -> None:
    """The factor input: two categorical columns and one numeric, n = 600."""
    rng = np.random.default_rng(4)
    n = 600
    age = rng.choice(["a15", "a25", "a35"], n)
    gender = rng.choice(["m", "w"], n)
    x = rng.normal(0.0, 1.0, n)
    eta1 = -0.2 + 0.5 * (age == "a25") + 0.9 * (age == "a35") + 0.3 * (gender == "w") + 0.4 * x
    eta2 = 1.2 + 0.3 * (age == "a35") + 0.2 * x - 0.1 * (age == "a15") * x
    pi = 1.0 / (1.0 + np.exp(-eta1))
    y = np.where(rng.random(n) < pi, rng.exponential(1.0, n) * np.exp(eta2), 0.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "age", "gender", "x"])
        for row in zip(y.tolist(), age, gender, x.tolist()):
            writer.writerow([repr(row[0]), row[1], row[2], repr(row[3])])


def write_inputs() -> None:
    from zitpo.cli import main

    g.INPUT_DIR.mkdir(parents=True, exist_ok=True)
    sim = g.INPUT_DIR / "sim.csv"
    if not sim.exists():
        main(["simulate", "--n", "600", "--xi", "0.25", "--seed", "6", "--out", str(sim)])
    factor = g.INPUT_DIR / "factor.csv"
    if not factor.exists():
        write_factor_csv(factor)


def main(names: list[str]) -> int:
    unknown = set(names) - {c.name for c in g.CASES}
    if unknown:
        print(f"unknown case(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    write_inputs()
    for case in g.CASES:
        if names and case.name not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            record, files = g.run_case(case, Path(tmp))
        try:
            old_record, old_files = g.load_golden(case)
        except FileNotFoundError:
            print(f"{case.name}: new")
        else:
            same = "same" if old_record == record else "CHANGED"
            print(f"{case.name}/run.json: exit codes, stdout and stderr {same}")
            for name, text in files.items():
                diff = g.Diff()
                diff.file(name, old_files[name], text)
                beyond = f", {len(diff.problems)} beyond tolerance" if diff.problems else ""
                print(f"{case.name}/{name}: largest relative change {diff.max_rel:.3g}{beyond}")
        g.write_golden(case, record, files)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
