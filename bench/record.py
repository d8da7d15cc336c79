"""Record the reference output of every request the workloads can make.

    python3 bench/record.py

Runs each request of ``workloads.reference_space`` once through the CLI of
the checkout this file sits in and rewrites ``bench/reference.json``.  The
gate of ``run.py`` compares later commits against these records, so
re-record only when a change of outputs is intended and reviewed.  Each
record also keeps the seconds the request took when it was recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import harness

harness.pin_threads()


def main() -> int:
    from orbent import cli

    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=harness.BENCH_DIR)
    try:
        refs = {}
        for req in workloads.reference_space(workdir):
            res = harness.call(cli, req.argv)
            if res.rc != 0:
                print(f"error: {' '.join(req.argv)} exited {res.rc}: {res.stderr}",
                      file=sys.stderr)
                return 1
            rec = workloads.reference_record(req, res.stdout)
            rec["seconds"] = res.seconds
            if req.kind == "ed_p":
                floor = harness.call(cli, req.extra["nssr_argv"])
                rec["nssr"] = json.loads(floor.stdout)["value"]
            refs[req.key] = rec
            print(f"{res.seconds:8.3f} s  {' '.join(req.argv)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"environment": harness.environment(), "references": refs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
