#!/usr/bin/env python3
"""The hyperq benchmark: one process, a closed loop with a single caller.

    python3 bench/run.py --workload corpus-30 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  hyperq is imported from ``src/``
of that checkout and nowhere else; without it the benchmark exits with an
error and prints no result.

``--trace 0`` runs the workload's job list back to back through hyperq's
public API, as many whole passes as fit in ``--seconds`` (at least one),
checks every output, and reports the end-to-end metrics, in seconds scaled
to the nominal host's speed (hostspeed.py).  ``--trace 1`` runs
each job untraced and then traced and reports the per-layer metrics.  The
metric names and units are those of BENCHMARK.json.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run metadata.
NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import hostspeed
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 11
# Imports hyperq from the checkout and parses the embedded corpus in a fresh
# interpreter, timing only that (interpreter start-up is excluded), then
# samples the host speed reference in the same process.
PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
         "import hyperq; hyperq.load_corpus(); t = time.perf_counter() - t; "
         "sys.path.insert(0, sys.argv[2]); import hostspeed; "
         "print(t, *(hostspeed.reference_seconds() for _ in range(3)))")
# While jobs run, the host speed reference is sampled this often.
SAMPLE_EVERY_S = 0.1


@dataclass
class Job:
    """One call into hyperq's public API plus the oracle for its output.

    ``check(output)`` returns (ok, line); ``line`` is a deterministic
    rendering compared between the untraced and traced runs.
    """

    name: str
    record: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def verify_job(hq, rec, options, label):
    expected = "fail" if rec.expect_fail else "pass"

    def check(report):
        return report.verdict == expected, report.machine_line()

    return Job(f"{rec.id}/{label}", rec.id, lambda: hq.verify_identity(rec, options), check)


def derive_job(hq, rid, parameter, order, bindings, options, label):
    def check(report):
        return report.verdict == "pass", report.machine_line()

    def run():
        return hq.operator_derive_check(rid, parameter, order, bindings=bindings,
                                        options=options)

    return Job(f"{rid}-d{order}{parameter}/{label}", rid, run, check)


def pi_job(hq, digits):
    from mpmath import libmp

    prec = math.ceil(digits * math.log2(10)) + 32  # as `hyperq pi --digits` asks
    # mpmath's pi is Chudnovsky-based, independent of hyperq's arctangents;
    # computed before the timed loop so the oracle costs the job nothing
    oracle = libmp.mpf_pi(prec, "n")

    def check(value):
        sign, man, exp, _ = value.raw
        return value.raw == oracle, f"{'-' if sign else ''}0x{man:x}p{exp}"

    return Job(f"pi/{digits}d", "pi", lambda: hq.pi_constant(prec), check)


# ----------------------------------------------------------------- workloads


def corpus_jobs(hq, seed):
    """Every corpus record, variants included, fallbacks followed, 30 digits.

    Two halves: seed s at q = 1/2, then seed s+1 at q = 7/10, which
    converges more slowly, so q-series cost differs between them.
    """
    jobs = []
    for offset, q in ((0, Fraction(1, 2)), (1, Fraction(7, 10))):
        options = hq.VerifyOptions(digits=30, seed=seed + offset, q_values=(q,))
        for rec in hq.list_identities(include_variants=True):
            jobs.append(verify_job(hq, rec, options, f"q={q}"))
    return jobs


def exact_jobs(hq, seed):
    """Terminating-exact and exact jet records at 200 samples, plus a derive."""
    options = hq.VerifyOptions(samples=200, seed=seed)
    jobs = [verify_job(hq, rec, options, "200s") for rec in hq.list_identities()
            if rec.lhs.terminating]
    jobs.append(derive_job(hq, "GOS", "b", 2, {"c": "2-b"}, options, "200s"))
    return jobs


def deep_jobs(hq, seed):
    """Single records along the digits axis, and the pi oracle."""
    jobs = []
    for digits, ids in ((1000, ("R1", "H1", "T2", "SAD", "SA-UNC")),
                        (300, ("QA1", "QGAUSS", "T5", "QS1", "T6-VAR"))):
        options = hq.VerifyOptions(digits=digits, seed=seed)
        jobs.extend(verify_job(hq, hq.get_identity(rid), options, f"{digits}d") for rid in ids)
    jobs.append(pi_job(hq, 5000))
    return jobs


def smoke_jobs(hq, seed):
    """A tiny list touching every layer, for checking the benchmark itself."""
    small = hq.VerifyOptions(samples=3, seed=seed)
    jobs = [verify_job(hq, hq.get_identity(rid), small, "smoke")
            for rid in ("GOS", "OMEGA-D", "R1", "SA", "T5", "QGAUSS", "T6-VAR")]
    jobs.append(derive_job(hq, "GOS", "b", 2, {"c": "2-b"}, small, "smoke"))
    jobs.append(pi_job(hq, 100))
    return jobs


WORKLOADS = {
    "corpus-30": corpus_jobs,
    "exact-200": exact_jobs,
    "numeric-deep": deep_jobs,
    "smoke": smoke_jobs,
}


# --------------------------------------------------------------- measurement


def import_hyperq():
    if not (SRC / "hyperq" / "__init__.py").is_file():
        sys.exit(f"bench: no hyperq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperq

    if Path(hyperq.__file__).resolve().parent != SRC / "hyperq":
        sys.exit(f"bench: imported hyperq from {hyperq.__file__}, not from {SRC}")
    return hyperq


def setup_seconds():
    """Median of fresh-interpreter import+parse times after one warm-up, as
    measured and scaled to the nominal host.

    Users import from cached bytecode, so the probes keep one in the
    checkout's build directory whatever PYTHONDONTWRITEBYTECODE says; the
    warm-up probe writes it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    measured, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(ROOT / "bench")],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                             timeout=120)
        seconds, *samples = (float(v) for v in out.stdout.split())
        if i:
            measured.append(seconds)
            scaled.append(seconds * hostspeed.scale(samples))
    return statistics.median(measured), statistics.median(scaled)


@dataclass
class Outcome:
    job: Job
    start: float
    end: float
    ok: bool
    line: Optional[str]

    @property
    def seconds(self):
        return self.end - self.start


def run_job(job):
    """Time one job and check its output; a job that raises fails."""
    start = perf_counter()
    try:
        output = job.run()
    except Exception:
        print(f"bench: job {job.name} raised", file=sys.stderr)
        traceback.print_exc()
        return Outcome(job, start, perf_counter(), False, None)
    end = perf_counter()
    ok, line = job.check(output)
    if not ok:
        print(f"bench: job {job.name} gave a wrong result: {line}", file=sys.stderr)
    return Outcome(job, start, end, ok, line)


def run_pass(jobs):
    """Run every job once in order, sampling the host speed meanwhile.

    Returns (outcomes, measured job seconds, scaled job seconds); measured
    seconds leave out the time spent sampling (see hostspeed.py).
    """
    with hostspeed.Sampler(SAMPLE_EVERY_S) as sampler:
        outcomes = [run_job(job) for job in jobs]
    measured, scaled = [], []
    for o in outcomes:
        seconds, scale = sampler.job(o.start, o.end)
        measured.append(seconds)
        scaled.append(seconds * scale)
    return outcomes, measured, scaled


def p90(values):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def measure(jobs, seconds):
    """Whole passes until the next would overrun ``seconds``; at least one.

    The metrics are times scaled to the nominal host (see hostspeed.py);
    the measured ones go to the run metadata.
    """
    outcomes, times, walls, measured_walls = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        done, plain, scaled = run_pass(jobs)
        outcomes.extend(done)
        times.extend(scaled)
        walls.append(sum(scaled))
        measured_walls.append(sum(plain))
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": p90(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {"wall_s": statistics.median(measured_walls),
                "host_scale": statistics.median([w / m for w, m in zip(walls, measured_walls)])}
    return metrics, measured, outcomes, len(walls)


def measure_traced(hq, tracer, jobs, seed):
    """Each job untraced, then at once traced; the two outputs must match.

    Alternating job by job keeps slow drifts of machine speed out of the
    tracing overhead.
    """
    plain, traced = [], []
    q_sum_ns = 0
    for job in jobs:
        plain.append(run_job(job))
        before = tracer.inclusive_ns("functions.q_sum_infinite")
        with tracer:
            traced.append(run_job(job))
        if job.record == "T5":
            q_sum_ns += tracer.inclusive_ns("functions.q_sum_infinite") - before
    for a, b in zip(plain, traced):
        print(f"  job {a.job.name:24s} untraced {a.seconds:9.4f} s  traced {b.seconds:9.4f} s")
        if a.ok and b.ok and a.line != b.line:
            print(f"bench: tracing changed the output of {a.job.name}", file=sys.stderr)
            b.ok = False
    t5_seconds = sum(o.seconds for o in traced if o.job.record == "T5")
    traced_wall = sum(o.seconds for o in traced)
    metrics = tracer.metrics()
    metrics["functions.q_sum_infinite.t5_share"] = q_sum_ns / 1e9 / t5_seconds if t5_seconds else 0.0
    metrics.update(layers.kernel_metrics(hq, seed))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(o.seconds for o in plain)
    return metrics, plain + traced


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def metadata(hq, workload, seed, passes, jobs, measured):
    import mpmath

    return {
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": jobs,
        "passes": passes,
        "measured": measured,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "hyperq": hq.__version__,
        "src_lines": src_lines(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    hq = import_hyperq()
    if args.trace:
        tracer = layers.Tracer(hq)
        with tracer:
            hq.load_corpus()
        jobs = WORKLOADS[args.workload](hq, args.seed)
        values, outcomes = measure_traced(hq, tracer, jobs, args.seed)
        measured = None
        passes = 1
        section = "per_layer"
    else:
        hq.load_corpus()
        jobs = WORKLOADS[args.workload](hq, args.seed)
        values, measured, outcomes, passes = measure(jobs, args.seconds)
        measured["setup_s"], values["setup_s"] = setup_seconds()
        section = "end_to_end"

    failed = sum(not o.ok for o in outcomes)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs x {passes} "
          f"passes, failed_share {failed / len(outcomes):.4g} ({failed} of {len(outcomes)})")
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"meta": metadata(hq, args.workload, args.seed, passes, len(jobs), measured)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
