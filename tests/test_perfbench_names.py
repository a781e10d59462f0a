"""The benchmark's tracer finds every name it wraps.

``perfbench/spans.py`` replaces package attributes by name for a traced run
(``estimation._loglik_terms``, ``numeric_gradient``, ``_covariance`` and the
layer entry points), so a renamed attribute would break the traced
benchmark. Installing and restoring the tracer here catches that in the test
suite.
"""

from pathlib import Path

import zitpo.cli as cli
import zitpo.diagnostics as diagnostics
import zitpo.estimation as estimation
import zitpo.simulation as simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    modules = (cli, diagnostics, estimation, simulation)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert estimation._loglik_terms is not before[2]["_loglik_terms"]
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
