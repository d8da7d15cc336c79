"""Re-measure the ROADMAP baseline figures from traced per-request records.

    python3 bench/anchors.py

Runs each anchor request ``REPEATS`` times under the tracer of
``tracing.py`` and writes one record per request (request seconds plus its
per-layer metrics) with the environment to ``bench/baseline/anchors.json``.
It prints, for each figure the ROADMAP states, the ROADMAP value beside the
median measured here.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile

import harness

harness.pin_threads()

OUT_PATH = os.path.join(harness.BENCH_DIR, "baseline", "anchors.json")
REPEATS = 3

# (label, argv, [(figure, ROADMAP value, metric of the request record)])
ANCHORS = (
    ("pssr_0.2_1", ["tb", "--eta", "0.2", "--d", "1", "--ssr", "p"], [
        ("P-SSR (0.2,1) seconds", 2.6, "request_s"),
        ("P-SSR (0.2,1) outer iterations", 10, "entanglement.ree_numeric.outer_iters"),
        ("P-SSR (0.2,1) objective evaluations", 5500, "entanglement.objective.calls"),
        ("P-SSR (0.2,1) atoms", 32, "entanglement.ree_numeric.atoms"),
    ]),
    ("pssr_0.1_2", ["tb", "--eta", "0.1", "--d", "2", "--ssr", "p"], [
        ("P-SSR (0.1,2) seconds", 3.1, "request_s"),
    ]),
    ("pssr_0.45_1", ["tb", "--eta", "0.45", "--d", "1", "--ssr", "p"], [
        ("P-SSR (0.45,1) seconds", 0.57, "request_s"),
    ]),
    ("hubbard_8_8", ["ed", "--hubbard", "8,4.0", "--nelec", "8", "--all-pairs"], [
        ("Hubbard L=8 N=8 sector dimension", 4900,
         "interacting.build_hamiltonian.sector_dim"),
        ("Hubbard L=8 N=8 build seconds", 0.04, "interacting.build_hamiltonian.total_s"),
        ("Hubbard L=8 N=8 solve seconds", 0.08, "interacting.ground_state.total_s"),
    ]),
    ("swap", None, [
        ("swap protocol seconds per call", 0.098, "channels.run_swap_protocol.total_s"),
        ("DensityMatrix validation seconds per request", 0.094, "fock.DensityMatrix.total_s"),
    ]),
)


def main() -> int:
    from orbent import cli

    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=harness.BENCH_DIR)
    tracer = tracing.Tracer()
    records = []
    try:
        swap_argv = workloads.build("swap", 0, workdir)[0].argv
        harness.call(cli, swap_argv)  # warm-up
        with tracer.installed():
            for label, argv, _ in ANCHORS:
                for rep in range(REPEATS):
                    tracer.request = (label, rep)
                    res = harness.call(cli, argv or swap_argv)
                    if res.rc != 0:
                        print(f"error: {label} exited {res.rc}: {res.stderr}", file=sys.stderr)
                        return 1
                    spans = [s for s in tracer.spans if s.request == (label, rep)]
                    layer, _ = tracer.metrics(spans)
                    # the protocol's total is its self time plus its channels
                    layer["channels.run_swap_protocol.total_s"] = sum(
                        s.duration for s in spans if s.name == "channels.run_swap_protocol")
                    records.append({"label": label, "repeat": rep,
                                    "argv": argv or ["swap-demo", "--state", "<seed 0 file 0>"],
                                    "request_s": res.seconds, **layer})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    figures = []
    for label, _, checks in ANCHORS:
        mine = [r for r in records if r["label"] == label]
        for figure, roadmap, metric in checks:
            measured = statistics.median(r[metric] for r in mine)
            figures.append({"figure": figure, "roadmap": roadmap, "measured": measured})
            print(f"{figure:45s} roadmap {roadmap:<8g} measured {measured:.4g}")
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as fh:
        json.dump({"environment": harness.environment(), "figures": figures,
                   "requests": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
