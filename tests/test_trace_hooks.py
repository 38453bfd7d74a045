"""The benchmark's layer trace (perfbench/tracing.py) still finds every
function and method it hooks, and runs a refute, a verify and a sweep
job without error. A refactor that renames or re-signs a hooked layer
fails here rather than in a traced benchmark run."""
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from korenblum.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WEIGHT = '{"kind":"constant","level":1}'
JOBS = {
    "refute": ["refute", "--p", "0.5", "--c", "0.9", "--weight", WEIGHT],
    "verify": ["verify", "--poly", "0.25,0.75,0.5", "--poly", "0.5,1", "--p", "1.5",
               "--c", "0.1", "--weight", WEIGHT],
    "sweep": ["sweep", "--p", "0.5,2", "--weight", WEIGHT],
}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_trace_hooks_find_every_layer(tracer):
    for name, argv in JOBS.items():
        sid = tracer.begin_job()
        try:
            with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_:
                main(argv)
        finally:
            tracer.close(sid)
        assert exit_.value.code == 0, name
    assert tracer.missing == []
    refute, verify, sweep = tracer.job_counts
    assert refute["refuter.find_counterexample.calls"] == 1
    assert verify["certifier.check_domination.calls"] == 1
    assert verify["analytic.angular_nodes"] > 0
    assert sweep["schuster.F_points"] > 0
    assert sweep["weights.integrate_against.calls"] > 0


@pytest.mark.parametrize("alpha", [1.0, -0.5])
def test_one_span_per_walk(tracer, alpha):
    # the direct walk in r and the walk in v up to r = 1 are each one
    # integrate_against call, so one span
    weight = f'{{"kind":"standard","alpha":{alpha}}}'
    sid = tracer.begin_job()
    try:
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_:
            main(["norm", "--poly", "0,1", "--p", "2", "--weight", weight])
    finally:
        tracer.close(sid)
    assert exit_.value.code == 0
    assert tracer.job_counts[0]["weights.integrate_against.calls"] == 1
