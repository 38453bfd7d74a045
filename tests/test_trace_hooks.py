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
    # the family's 48 binomials take the graded walk and z^n its closed
    # form: the refutation makes no plain radial walk
    assert refute.get("weights.integrate_against.calls", 0) == 0
    assert verify["certifier.check_domination.calls"] == 1
    assert verify["analytic.angular_nodes"] > 0
    assert sweep["schuster.F_points"] > 0
    assert sweep["weights.integrate_against.calls"] > 0


@pytest.mark.parametrize("alpha", [1.0, -0.5])
def test_one_span_per_walk(tracer, alpha):
    # the direct walk in r and the walk in v up to r = 1 are each one
    # integrate_against call, so one span; a trinomial at an odd p, since
    # a monomial takes its closed form and an even p Parseval's sum, and
    # neither walks
    weight = f'{{"kind":"standard","alpha":{alpha}}}'
    sid = tracer.begin_job()
    try:
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_:
            main(["norm", "--poly", "1,0.5,0.25", "--p", "3", "--weight", weight])
    finally:
        tracer.close(sid)
    assert exit_.value.code == 0
    assert tracer.job_counts[0]["weights.integrate_against.calls"] == 1


@pytest.mark.parametrize(
    "weight, plain",
    [('{"kind":"constant","level":1}', False), ('{"kind":"step","R":0.3}', False),
     ('{"kind":"table","r":[0,0.35,0.6],"w":[0,1.2,0.6]}', False),
     ('{"kind":"standard","alpha":1}', False), ('{"kind":"standard","alpha":-0.5}', True)],
    ids=["constant", "step", "table", "standard", "standard_alpha_below_0"],
)
def test_refutation_walks_plain_only_on_an_unbounded_weight(tracer, weight, plain):
    # the p < 1 rows of sweep search the family: z^n takes its closed form
    # and K (z^n + eps^n) the graded walk, which a standard weight with
    # alpha < 0 cannot take (refute itself: test_trace_hooks_find_every_layer)
    sid = tracer.begin_job()
    try:
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit):
            main(["sweep", "--p", "0.5,0.7", "--weight", weight])
    finally:
        tracer.close(sid)
    assert (tracer.job_counts[0].get("weights.integrate_against.calls", 0) > 0) == plain
