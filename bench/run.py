"""Benchmark of the orbent command line, driven in-process.

    python3 bench/run.py --workload {pssr,ed_dense,ring_ed,swap} --seed N \
        --seconds S --trace {0,1}

One closed-loop client in one process calls ``orbent.cli.main(argv)`` on the
seeded requests of one workload (see ``workloads.py``), one after another.
A pass runs every request once, in a seeded shuffled order; passes repeat
while another one fits in ``--seconds`` (at least one always runs).  Every
output is checked after the timed loop against references recorded by
``record.py``.

``--trace 0`` prints the end-to-end metrics.  Request times are scaled to
a reference host speed by the calibration kernel of ``harness.py``, run
between requests: the shared host's speed drifts too much between runs for
raw times to carry a bound.  The unscaled figures are printed on a line of
their own.

* ``wall_s``: median over passes of the pass's scaled request seconds;
* ``req_p50_s``: median over passes of the pass's upper median scaled
  request latency (a latency of one cluster, never an average of two);
* ``setup_s``: imports plus input generation, scaled by one kernel run
  right after it; the median of this process's and two fresh child
  processes' set-up;
* ``peak_rss_mb``: peak resident memory of this process;
* ``success_frac``: share of attempted requests that passed the gate.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` (medians over traced passes) plus
``trace.overhead_s``, traced minus untraced scaled pass time.  A traced request
whose stdout differs from its untraced twin counts as failed when a third,
untraced call reproduces the first; when it does not, the program itself is
not reproducible for that request, and the request is listed on an
``unrepeatable:`` line instead.

The last stdout line is the JSON result; earlier lines record the
environment, sample counts and any failures.  Exit code 2 means the
benchmark could not run (for example, no ``src/orbent`` beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

T_START = time.perf_counter()

import harness  # noqa: E402  (no numpy yet: threads must be pinned first)

harness.pin_threads()

import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_SETUPS = 2
MAX_FAILURES_SHOWN = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def child_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.splitlines()[-1])


@dataclass
class Pass:
    seconds: float  # elapsed time of the pass, calibration runs included
    results: list  # harness.Result by request index
    scaled: list  # request seconds scaled to the reference host speed
    kernel: list  # seconds of each calibration kernel run


def run_pass(cli, requests, order, calibration, tracer=None, tag=None):
    """One call of every request, in ``order``, with a block of calibration
    kernel runs before the first request and after each one.

    Request times are scaled by ``Calibration.REF_S`` over the pass's mean
    kernel run time.  Blocks last in proportion to the request before them,
    so the runs sample the pass evenly in time, and a short request's scale
    does not rest on the one or two runs next to it.
    """
    results = [None] * len(requests)
    start = time.perf_counter()
    kernel = calibration.block(0.0)
    for i in order:
        if tracer is not None:
            tracer.request = (tag, i)
        results[i] = harness.call(cli, requests[i].argv)
        kernel += calibration.block(results[i].seconds)
    scale = calibration.REF_S * len(kernel) / sum(kernel)
    return Pass(time.perf_counter() - start, results,
                [r.seconds * scale for r in results], kernel)


def measure(cli, requests, seconds, seed, calibration, tracer=None):
    """Closed loop of whole passes; with a tracer, untraced/traced pairs.

    Each pass runs the requests in a fresh seeded order, so that every
    request's latencies sample the whole run rather than one moment of
    each pass: the host's speed drifts on a scale of seconds.
    """
    rng = random.Random(seed)
    order = list(range(len(requests)))
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        rng.shuffle(order)
        untraced.append(run_pass(cli, requests, order, calibration))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_pass(cli, requests, order, calibration,
                                       tracer, len(traced)))
        per_round = statistics.median(p.seconds for p in untraced) + \
            (statistics.median(p.seconds for p in traced) if traced else 0.0)
        if time.perf_counter() - start + per_round > seconds:
            return untraced, traced


def p50(passes) -> float:
    """Median over passes of each pass's upper median request time.

    A workload's requests come in clusters of equal cost.  The upper median
    of one pass lies inside a cluster, while that of all requests pooled can
    sit on the edge between two (``ed_dense`` has one request of each of
    two costs a pass) and then follows the noise of an extreme.
    """
    return statistics.median(statistics.median_high(p) for p in passes)


def gate(cli, requests, warm, untraced, traced, refs):
    """Check every call; returns (calls attempted, failures, unrepeatable).

    A traced output that differs from its untraced twin is a tracing fault
    only if a third, untraced call reproduces the first; otherwise the
    program itself is not reproducible for that request.
    """
    checked = [(requests[0], warm)]
    for run in untraced + traced:
        checked += list(zip(requests, run.results))
    unrepeatable = set()
    for plain, with_trace in zip(untraced, traced):
        for i, (req, a, b) in enumerate(zip(requests, plain.results, with_trace.results)):
            if a.stdout != b.stdout and i not in unrepeatable:
                again = harness.call(cli, req.argv)
                checked.append((req, again))
                if again.stdout == a.stdout:
                    checked.append((req, None))  # the traced one failed
                else:
                    unrepeatable.add(i)
    failures = [(req, "traced stdout differs from untraced stdout") if res is None
                else (req, workloads.check(req, res.rc, res.stdout, refs))
                for req, res in checked]
    attempted = sum(res is not None for _, res in checked)
    return attempted, [(req, why) for req, why in failures if why], unrepeatable


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=harness.BENCH_DIR)
    try:
        try:
            from orbent import cli
        except ImportError as exc:
            print(f"error: cannot import the program from src/: {exc}", file=sys.stderr)
            return 2
        if not os.path.abspath(cli.__file__).startswith(harness.SRC_DIR + os.sep):
            print(f"error: orbent was imported from {cli.__file__}, not from src/",
                  file=sys.stderr)
            return 2

        requests = workloads.build(args.workload, args.seed, workdir)
        setup = time.perf_counter() - T_START
        calibration = harness.Calibration()
        setups = [setup * calibration.REF_S / calibration()]
        if args.setup_only:
            print(repr(setups[0]))
            return 0
        setups += [child_setup_seconds(args) for _ in range(CHILD_SETUPS)]
        refs = workloads.load_references()
        print("env: " + json.dumps(harness.environment(), sort_keys=True))

        warm = harness.call(cli, requests[0].argv)
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = measure(cli, requests, args.seconds, args.seed,
                                   calibration, tracer)

        attempted, failures, unrepeatable = gate(cli, requests, warm, untraced, traced, refs)
        for req, why in failures[:MAX_FAILURES_SHOWN]:
            print(f"failed: {' '.join(req.argv)}: {why}")
        if unrepeatable:
            print(f"unrepeatable: {len(unrepeatable)} requests whose untraced stdout "
                  "differs between two calls: "
                  + "; ".join(" ".join(requests[i].argv) for i in sorted(unrepeatable)))

        failed = len(failures)
        wall = statistics.median(sum(p.scaled) for p in untraced)
        if tracer is None:
            walls = sorted(sum(p.scaled) for p in untraced)
            raw = [[r.seconds for r in p.results] for p in untraced]
            kernel = statistics.median(k for p in untraced for k in p.kernel)
            print(f"samples: {len(untraced)} passes of {len(requests)} requests "
                  f"(wall_s min {walls[0]:.4f}, max {walls[-1]:.4f})")
            print(f"unscaled: wall_s {statistics.median(map(sum, raw)):.4f}, req_p50_s "
                  f"{p50(raw):.4f}; calibration kernel median {kernel:.4f} s, "
                  f"{calibration.REF_S} s at reference speed")
            values = {
                "wall_s": (wall, "s"),
                "req_p50_s": (p50([p.scaled for p in untraced]), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MiB"),
                "success_frac": (1.0 - failed / attempted, "frac"),
            }
        else:
            per_pass = []
            for tag in range(len(traced)):
                spans = [s for s in tracer.spans if s.request[0] == tag]
                layer, absent = tracer.metrics(spans)
                per_pass.append(layer)
            print(f"samples: {len(untraced)} untraced and {len(traced)} traced passes")
            if absent:
                print("absent: " + " ".join(absent))
            values = {name: (v, tracing.unit_of(name))
                      for name, v in tracing.median_metrics(per_pass).items()}
            values["trace.overhead_s"] = (
                statistics.median(sum(p.scaled) for p in traced) - wall, "s")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
