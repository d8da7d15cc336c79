"""Pieces shared by the benchmark scripts: thread pinning, import path,
in-process CLI calls and the environment record.

Call ``pin_threads()`` before anything imports numpy: ``threadpoolctl`` is
not available, so the BLAS thread count can only be fixed through the
environment, and only before the BLAS library loads.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ORBENT_THREADS")


def pin_threads() -> None:
    """One BLAS thread and one CLI worker; also puts ``src/`` on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC_DIR)


@dataclass
class Result:
    rc: object  # exit code, or a description of the exception raised
    stdout: str
    stderr: str
    seconds: float


def call(cli, argv) -> Result:
    """One request: ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a request that raises counts as failed
        rc = f"raised {exc!r}"
    return Result(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


class Calibration:
    """A fixed reference kernel that measures the host's current speed.

    The shared host's speed drifts by up to a factor of two over minutes,
    and process CPU time drifts with it, so it is not stolen time but slower
    execution.  Running this kernel between requests and dividing request
    times by the kernel's mean time over the same pass cancels most of the
    drift.  The kernel mixes the three kinds of work the program does:
    interpreted Python, small dense LAPACK calls and a sparse product that
    streams from memory.  It never calls the program, so a change to the
    program moves the ratio and a change of host speed does not.
    """

    # about the kernel's median seconds over a few hours of runs on the host
    # the benchmark was written on (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6,
    # OpenBLAS 0.3.31), where it ranged over 0.015-0.025 s; scaled times
    # read as seconds on that host at that speed
    REF_S = 0.02
    DIM = 1 << 16
    # a block of kernel runs after a request lasts at least this share of
    # the request, so that the long requests that dominate a pass get their
    # speed from more than one run
    BLOCK_SHARE = 0.1

    def __init__(self):
        import numpy as np
        import scipy.sparse

        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self._herm = a + a.conj().T
        # 16 entries a row, 12 MB in all: more than the private caches hold
        self._sparse = scipy.sparse.csr_matrix(
            (rng.normal(size=16 * self.DIM),
             rng.integers(0, self.DIM, size=16 * self.DIM, dtype=np.int32),
             np.arange(0, 16 * self.DIM + 1, 16, dtype=np.int32)),
            shape=(self.DIM, self.DIM))
        self._vec = np.ones(self.DIM)
        self()  # first call pays for lazy imports and page faults

    def block(self, seconds: float) -> list:
        """Kernel run times, repeated until they add up to ``BLOCK_SHARE`` of
        ``seconds``; at least one run."""
        runs = [self()]
        while sum(runs) < self.BLOCK_SHARE * seconds:
            runs.append(self())
        return runs

    def __call__(self) -> float:
        """Seconds one run of the kernel takes now."""
        import numpy as np

        start = time.perf_counter()
        acc = 0
        for i in range(50000):
            acc += i * i % 7
        for _ in range(50):
            _, vecs = np.linalg.eigh(self._herm)
            self._herm @ vecs
        for _ in range(6):
            self._sparse @ self._vec
        return time.perf_counter() - start


def environment() -> dict:
    """Library versions, machine size and load, and thread settings in effect."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
