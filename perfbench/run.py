#!/usr/bin/env python3
"""Benchmark of the korenblum command line: certify, refute and verify jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Every job is one CLI invocation run in-process through
``korenblum.cli.main`` with stdout captured, in a closed loop: the next
job starts when the previous one returns. ``--trace 0`` times the deck
for ``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs
the deck once untraced and once with the layer trace and reports the
per-layer metrics. Every report is checked against the oracles in
``oracles.py`` and against a repeat of the same job. Diagnostics go to
stdout first; the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1

#: jobs per cell in one pass over the deck, sized to 5-11 s a pass on
#: two cores so that a 30 s run makes three to six passes
COPIES = {"certify": 1, "refute": 1, "verify": 3}
MIN_PASSES = 3

SETUP_REPEATS = 9

SETUP_ARGV = ["norm", "--poly", "0,1", "--p", "2", "--weight", '{"kind":"constant","level":1}']
SETUP_REPORT = '"norm": 0.7071067811865'

#: the reference kernels (see Reference): their sizes and their times at
#: reference speed. They run after a job once REF_EVERY_S have passed
#: since they last ran (REF_SAMPLE_S is about how long a sample takes),
#: and a job's time is scaled by the samples within REF_WINDOW_S of it.
#: REF_KINDS names the kernels that scale each workload's times, the ones
#: whose speed tracks the workload's jobs: certify is quadrature's panel
#: loop, refute is the angular kernel, verify runs both. setup_s is
#: scaled by ``panels``: starting the interpreter is Python-bound.
REF_PANELS = 600
REF_PRODUCTS = 10
REF_NOMINAL_S = {"panels": 0.008, "angular": 0.009}
REF_KINDS = {"certify": ("panels",), "refute": ("angular",), "verify": ("panels", "angular")}
REF_EVERY_S = 0.25
REF_SAMPLE_S = 0.05
REF_WINDOW_S = 2.0

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (unit, key in the tracer's counts or times, hooked span it needs)
PER_LAYER = {
    "quadrature.calls": ("count", "quadrature.integrate.calls", "quadrature.integrate"),
    "quadrature.panels": ("count", "quadrature.panels", "quadrature.integrate"),
    "quadrature.self_s": ("s", "quadrature.self_s", "quadrature.integrate"),
    "quadrature.divergences": ("count", "quadrature.divergences", "quadrature.integrate"),
    "weights.integrate_against.calls": ("count", "weights.integrate_against.calls", "weights.integrate_against"),
    "weights.power_mass.calls": ("count", "weights.power_mass.calls", "weights.power_mass"),
    "weights.self_s": ("s", "weights.self_s", "weights.integrate_against"),
    "schuster.inverse_H.calls": ("count", "schuster.inverse_H.calls", "schuster.inverse_H"),
    "schuster.F_points": ("count", "schuster.F_points", "schuster.inverse_H"),
    "schuster.self_s": ("s", "schuster.self_s", "schuster.inverse_H"),
    "analytic.weighted_norm.calls": ("count", "analytic.weighted_norm.calls", "analytic.weighted_norm"),
    "analytic.weighted_norm.s": ("s", "analytic.weighted_norm.s", "analytic.weighted_norm"),
    "analytic.mean_batches": ("count", "analytic.mean_batch.calls", "analytic._mean_pow_batch"),
    "analytic.angular_nodes": ("count", "analytic.angular_nodes", "analytic._abs_pow_means"),
    "analytic.max_angular_n": ("count", "analytic.max_angular_n", "analytic._abs_pow_means"),
    "analytic.angular_cap_hits": ("count", "analytic.angular_cap_hits", "analytic._mean_pow_batch"),
    "analytic.angular_self_s": ("s", "analytic.angular.self_s", "analytic._abs_pow_means"),
    "certifier.certify.s": ("s", "certifier.certify.s", "certifier.certify"),
    "certifier.check_domination.calls": ("count", "certifier.check_domination.calls", "certifier.check_domination"),
    "certifier.check_domination.s": ("s", "certifier.check_domination.s", "certifier.check_domination"),
    "certifier.domination_points": ("count", "certifier.domination_points", "certifier.check_domination"),
    "certifier.inconclusive": ("count", "certifier.inconclusive", "certifier.check_domination"),
    "refuter.find_counterexample.s": ("s", "refuter.find_counterexample.s", "refuter.find_counterexample"),
    "refuter.monomial_upper_bound.s": ("s", "refuter.monomial_upper_bound.s", "refuter.monomial_upper_bound"),
    "refuter.no_witness": ("count", "refuter.no_witness", "refuter.find_counterexample"),
    "cli.self_s": ("s", "cli.main.self_s", None),
    "process.cpu_per_wall": ("ratio", None, None),
    "trace.overhead_ratio": ("ratio", None, None),
}


def environment(seed: int) -> dict:
    """Where and with what the run happened; no machine setting is changed."""
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    with contextlib.suppress(OSError):
        match = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1) if match else cpu
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with contextlib.suppress(OSError, AttributeError):
        maps = Path("/proc/self/maps").read_text()
        for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


class Reference:
    """Fixed reference kernels, timed between jobs, that track the machine's speed.

    On a shared host the speed of the whole machine drifts by tens of
    percent within seconds to minutes, and not by the same share for
    every kind of work. Each kernel copies the inner loop of one layer
    with nothing from the package: ``panels`` evaluates 15-node
    Gauss-Legendre panels of a numpy integrand one by one, as
    ``quadrature`` does; ``angular`` takes the complex matrix product and
    ``|.|^p`` means of ``analytic``'s circle grid. :meth:`at_speed`
    turns a time measured in this run into the time at reference speed,
    where each kernel takes its ``REF_NOMINAL_S``.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._nodes, self._weights = np.polynomial.legendre.leggauss(15)
        self._amps = rng.standard_normal((15, 10)) + 1j * rng.standard_normal((15, 10))
        self._circle = np.exp(2j * np.pi / 4096 * np.outer(np.arange(10), np.arange(4096)))
        self.at: list[float] = []  # when each sample ended
        self.times: dict[str, list[float]] = {kind: [] for kind in REF_NOMINAL_S}

    def _panels(self) -> float:
        np, nodes, weights = self._np, self._nodes, self._weights
        total, half = 0.0, 0.5 / REF_PANELS
        for k in range(REF_PANELS):
            x = k / REF_PANELS + half * (nodes + 1.0)
            total += half * float(np.sum(weights * np.exp(-x * x)))
        return total

    def _angular(self) -> float:
        total = 0.0
        for _ in range(REF_PRODUCTS):
            fz = self._amps @ self._circle
            total += float(((fz.real**2 + fz.imag**2) ** 0.35).mean())
        return total

    def sample(self) -> None:
        for kind, kernel in (("panels", self._panels), ("angular", self._angular)):
            t0 = time.perf_counter()
            kernel()
            self.times[kind].append(time.perf_counter() - t0)
        self.at.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.at[-1] >= REF_EVERY_S

    def at_speed(self, seconds: float, t0: float, t1: float, kinds) -> float:
        """``seconds`` measured between ``t0`` and ``t1``, scaled by the
        median time of the ``kinds`` kernels in the samples taken within
        ``REF_WINDOW_S`` of that interval."""
        import bisect

        lo = bisect.bisect_left(self.at, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + REF_WINDOW_S + REF_SAMPLE_S)
        lo, hi = min(lo, len(self.at) - 1), max(hi, lo + 1)
        near = [sum(self.times[k][i] for k in kinds) for i in range(lo, hi)]
        return seconds * sum(REF_NOMINAL_S[k] for k in kinds) / statistics.median(near)


def measure_setup(ref: Reference) -> float:
    """Median seconds from a fresh interpreter to the first report, each
    at reference speed; the reference kernels run between the subprocesses."""
    code = f"from korenblum.cli import main; main({SETUP_ARGV!r})"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    ref.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        t1 = time.perf_counter()
        if proc.returncode != 0 or SETUP_REPORT not in proc.stdout:
            raise RuntimeError(f"set-up command failed ({proc.returncode}): {proc.stderr.strip()}")
        ref.sample()
        times.append((t1 - t0, t0, t1))
    return statistics.median(ref.at_speed(*t, ("panels",)) for t in times)


def run_job(main, job) -> dict:
    """One CLI invocation in-process; stdout is the report."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return {"job": job.job_id, "s": t1 - t0, "t0": t0, "t1": t1, "code": code,
            "report": out.getvalue(), "error": error}


def one_pass(main, deck, tracer=None, ref=None) -> tuple[list[dict], float, float]:
    """Every job of the deck once. With ``ref``, the reference kernel runs
    after a job whenever ``REF_EVERY_S`` have passed since it last ran."""
    samples = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for job in deck:
        if tracer is None:
            samples.append(run_job(main, job))
        else:
            sid = tracer.begin_job()
            try:
                samples.append(run_job(main, job))
            finally:
                tracer.close(sid)
        if ref is not None and ref.due():
            ref.sample()
    return samples, time.perf_counter() - t0, time.process_time() - cpu0


def check_samples(workload: str, deck, samples: list[dict]) -> list[tuple[str, str]]:
    """(job id, reason) for every failing sample; each job's oracle runs once."""
    import oracles

    params = {job.job_id: job.params for job in deck}
    first: dict[str, tuple[int, str]] = {}
    verdict: dict[str, list[str]] = {}
    failures = []
    for sample in samples:
        jid = sample["job"]
        reasons = []
        if sample["error"]:
            reasons.append(f"raised {sample['error']}")
        elif sample["code"] not in (0, 1):
            reasons.append(f"exit code {sample['code']}")
        else:
            key = (sample["code"], sample["report"])
            if first.setdefault(jid, key) != key:
                reasons.append("report differs from an earlier run of the same job")
            if jid not in verdict:
                try:
                    verdict[jid] = oracles.CHECKS[workload](params[jid], *first[jid])
                except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                    verdict[jid] = [f"report could not be checked: {type(exc).__name__}: {exc}"]
            reasons += verdict[jid]
        if reasons:
            failures.append((jid, "; ".join(reasons)))
    return failures


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile of the per-job times with at least 10 job runs
    beyond it, counting the three runs every job gets at least."""
    beyond = -(-10 // MIN_PASSES)
    return max(0, int(100 * (1 - beyond / jobs)))


def _summary(job_ms: dict[str, list[float]]) -> tuple[dict, int]:
    import numpy as np

    per_job = np.array([statistics.median(ms) for ms in job_ms.values()])
    q = tail_percentile(len(per_job))
    return {
        "jobs_per_s": len(per_job) / (per_job.sum() / 1e3),
        "job_ms.p50": float(np.median(per_job)),
        "job_ms.tail": float(np.percentile(per_job, q)),
    }, q


def end_to_end(args, deck, main) -> tuple[dict, list[dict]]:
    """Whole passes over the deck for about ``--seconds``, at least three; the
    first pass's time fixes the count. Each job run's time is scaled to
    reference speed by the kernels timed around it (see :class:`Reference`),
    and a job's time is the median of its runs."""
    ref = Reference()
    setup_s = measure_setup(ref)
    samples, pass_s, _ = one_pass(main, deck, ref=ref)
    passes = max(MIN_PASSES, round(args.seconds / pass_s))
    pass_times = [pass_s]
    for _ in range(passes - 1):
        more, pass_s, _ = one_pass(main, deck, ref=ref)
        samples += more
        pass_times.append(pass_s)
    ref.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kinds = REF_KINDS[args.workload]
    measured: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for sample in samples:
        ms = sample["s"] * 1e3
        measured.setdefault(sample["job"], []).append(ms)
        scaled.setdefault(sample["job"], []).append(
            ref.at_speed(ms, sample["t0"], sample["t1"], kinds))
    values, q = _summary(scaled)
    print(f"# timed: {passes} passes over {len(deck)} jobs, pass seconds "
          f"{', '.join(f'{t:.3f}' for t in pass_times)}; tail = p{q} of {len(scaled)} job times")
    print(f"# reference kernels, {len(ref.at)} samples, median ms: " + json.dumps(
        {kind: round(statistics.median(times) * 1e3, 4) for kind, times in ref.times.items()})
        + f"; {'+'.join(kinds)} scales this workload")
    print("# as measured, before scaling: " + json.dumps(_summary(measured)[0]))
    values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    return values, samples


def per_layer(args, deck, main, workload: str) -> tuple[dict, list[dict]]:
    import numpy as np

    from tracing import Tracer

    plain, plain_wall, plain_cpu = one_pass(main, deck)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall, _ = one_pass(main, deck, tracer)
    finally:
        tracer.uninstall()
    counts, times = tracer.counts, tracer.times()
    missing = set(tracer.missing)
    values = {}
    for name, (unit, key, hook) in PER_LAYER.items():
        if hook is not None and hook in missing:
            values[name] = None
        elif key is not None:
            values[name] = times.get(key, 0.0) if unit == "s" else counts.get(key, 0)
    values["process.cpu_per_wall"] = plain_cpu / plain_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    for name in sorted(missing):
        print(f"# missing hook: {name}; its metrics are reported as null")

    by_id = {job.job_id: job for job in deck}
    for jid, jc in sorted(zip([s["job"] for s in traced], tracer.job_counts)):
        job = by_id[jid]
        print(f"# {jid}: panels={jc.get('quadrature.panels', 0)} "
              f"angular_nodes={jc.get('analytic.angular_nodes', 0)} "
              f"max_n={jc.get('analytic.max_angular_n', 0)} args={' '.join(job.argv[1:])[:160]}")

    OUT.mkdir(exist_ok=True)
    spans = tracer.span_arrays()
    np.savez_compressed(
        OUT / f"trace-{workload}-{args.seed}.npz",
        names=np.array(tracer.names),
        jobs=np.array([s["job"] for s in traced]),
        job_counts=np.array([json.dumps(c, sort_keys=True) for c in tracer.job_counts]),
        **{k: spans[k] for k in ("name", "start", "end", "parent", "job")},
    )
    return values, plain + traced


def main(argv=None) -> int:
    from workloads import WORKLOADS, make_deck

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="deck seed (default 1; keep 9001 as the hold-out seed for confirming gains)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "korenblum" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from korenblum.cli import main as cli_main

    print("# env: " + json.dumps(environment(args.seed), sort_keys=True))
    deck = make_deck(args.workload, args.seed, COPIES[args.workload])
    if args.trace:
        values, samples = per_layer(args, deck, cli_main, args.workload)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, samples = end_to_end(args, deck, cli_main)
        units = dict(END_TO_END)

    failures = check_samples(args.workload, deck, samples)
    for jid, reason in sorted(set(failures)):
        print(f"# FAILED {jid}: {reason}")
    attempted, failed = len(samples), len(failures)
    print(f"# fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
