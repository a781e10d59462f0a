"""Benchmark of zitpo, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-20k --seed 1 --seconds 15 --trace 0

Workloads: fit-20k, diagnose-200k, coverage-1k (see README.md). Inputs are
generated from --seed; the program sees only CSV files and CLI arguments,
and runs in this process through ``zitpo.cli.main`` and the package's
public functions, imported from ``src/``. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, taken from spans that wrap the
calls into each layer. Each run also writes BENCH_<workload>_s<seed>_t<trace>.json
and, when traced, the span file under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


class Run:
    """Operation bookkeeping for one run: timings, failures, checks, spans."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.durations: dict[str, list[float]] = {}
        self.replicates: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0
        self.loop_op_seconds = 0.0
        self.problems: list[str] = []
        self._phase = "setup"

    def phase(self, name: str) -> None:
        self._phase = name
        if self.tracer is not None:
            self.tracer.phase = name

    @contextlib.contextmanager
    def timed(self, kind: str):
        start = time.perf_counter()
        yield
        self.durations.setdefault(kind, []).append(time.perf_counter() - start)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def op(self, kind: str, fn, span: str):
        """One timed operation; returns its result, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.span(span):
                    result = fn()
        except Exception as exc:  # any error the program raises fails the op
            self._fail(f"{kind} raised {exc!r}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self._phase == "loop":
                self.loop_op_seconds += elapsed
        self.durations.setdefault(kind, []).append(elapsed)
        return result

    def skip(self, kind: str) -> None:
        """An operation that could not start because an earlier one failed."""
        self.attempted += 1
        self._fail(f"{kind} skipped after a failed operation")

    def cli(self, kind: str, argv: list[str], replicates: int | None = None):
        """One ``zitpo`` command; True on exit code 0, None otherwise."""
        from zitpo.cli import main

        out, err = io.StringIO(), io.StringIO()

        def command():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(argv)

        rc = self.op(kind, command, span=f"cli.{argv[0]}")
        if rc is None:
            return None
        if rc != 0:
            self.durations[kind].pop()
            self._fail(f"zitpo {argv[0]} exited {rc}: {err.getvalue().strip()}")
            return None
        if replicates is not None:
            self.replicates.append((replicates, self.durations[kind][-1]))
        return True

    def check(self, result, verify) -> None:
        """Check an operation's output; a failed check fails the operation."""
        if result is None:
            return
        phase = self._phase
        self.phase("check")
        try:
            verify()
        except Exception as exc:  # a check that cannot run has not passed
            self.correct = False
            self._fail(f"check failed: {exc}")
        finally:
            self.phase(phase)

    def loop(self, round_fn, companion_fn) -> None:
        """Whole rounds until the rounds' operations have taken --seconds.

        After each round, ``companion_fn`` measures the operations whose
        end-to-end metric this workload reports but does not run in its
        rounds. Interleaving them spreads their samples over the whole run,
        like the rounds' own; their time does not count towards --seconds.
        """
        while self.rounds == 0 or self.loop_op_seconds < self.seconds:
            self.phase("loop")
            round_fn()
            self.phase("companion")
            companion_fn()
            self.rounds += 1


def median_or_none(values):
    return statistics.median(values) if values else None


def rate_or_none(replicates):
    """Replicates completed per second over every coverage command."""
    done = sum(r for r, _ in replicates)
    return done / sum(s for _, s in replicates) if replicates else None


def end_to_end(run: Run) -> dict:
    """Medians over the run's operations. On a shared virtual machine the
    CPU speed can drift by tens of percent for seconds at a time; samples
    spread through the run and a median keep one slow or fast stretch from
    setting a run's figure. Set-up's median also drops the first set-up's
    package import."""
    d = run.durations
    return {
        "setup_s": (median_or_none(d.get("setup", [])), "s"),
        "fit_s": (median_or_none(d.get("fit", [])), "s"),
        "diagnose_s": (median_or_none(d.get("diagnose", [])), "s"),
        "calibration_s": (median_or_none(d.get("calibration", [])), "s"),
        "replicates_per_s": (rate_or_none(run.replicates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zitpo" / "__init__.py").is_file():
        print(f"perfbench: no zitpo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    tracer = spans.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, args.seconds, tracer)
    run.work.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        spans.install(tracer)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(run.work, ignore_errors=True)

    e2e = end_to_end(run)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "rounds": run.rounds,
        "durations": run.durations,
        "replicates": run.replicates,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "problems": run.problems,
    }
    if tracer is None:
        metrics = e2e
    else:
        layers, base = spans.layer_metrics(tracer.spans, workloads.WORKERS)
        metrics = layers
        details["per_layer"] = {k: v for k, (v, _) in layers.items()}
        details["scheduler_base"] = base
        spans_path = OUT / f"spans_{args.workload}_s{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end", "phase", "attrs"],
                 "spans": tracer.spans},
                fh,
            )
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details["result"] = result
    bench_path = OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
