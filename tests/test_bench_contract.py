"""The program names and result fields that the benchmark's tracer reads.

``bench/tracing.py`` wraps functions of ``orbent`` by module path and reads
fields of their results.  A renamed function or field does not fail the
benchmark run: the metric goes absent or stops being a number, and the
traced run's result line is no longer a valid record.  These tests load the
tracer as it is and run one request of each benchmarked command under it.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from orbent import cli
from orbent.fcidump import FcidumpData, serialize_fcidump

_TRACING_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    for modname, attr, name, _ in tracing.TARGETS:
        path, _, cls = modname.partition(".")
        owner = importlib.import_module(f"orbent.{path}")
        if cls:
            assert attr in getattr(owner, cls).__dict__, name
        else:
            assert callable(getattr(owner, attr, None)), name


def _requests(tmp_path):
    """One request per benchmarked command, with the layers (span names) it
    must reach and those it must not.  ``tb --ssr p`` solves its two parity
    blocks from their weights: no Wick state, density matrix, pinch or
    block split.  The ``ed --ssr p`` pair has unequal middle diagonals in
    its ee block, which the exact X-state route solves: no command reaches
    the Frank-Wolfe objective, oracle or polish, whose spans stay wrapped
    but record no calls.  ``ed`` calls ``ree_numeric`` itself, not the
    N-SSR wrapper that the ``entanglement.nssr_closed`` span times."""
    rng = np.random.default_rng(0)
    n = 4
    h = rng.normal(size=(n, n))
    eri = rng.normal(size=(n,) * 4)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        eri = eri + eri.transpose(perm)
    fcidump = tmp_path / "dense.fcidump"
    fcidump.write_text(serialize_fcidump(
        FcidumpData(norb=n, nelec=2, ms2=0, h=h + h.T, eri=eri / 8)))
    a = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
    m = a @ a.conj().T
    rho = 0.8 * m / np.trace(m).real + 0.2 * np.eye(16) / 16
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"rho": {"real": rho.real.tolist(),
                                         "imag": rho.imag.tolist()}}))
    return [
        (["tb", "--eta", "0.3", "--d", "2", "--ssr", "p"], ["cli.main"],
         ["channels.pinch", "fock.DensityMatrix", "freefermion.two_orbital_state_from_block",
          "entanglement.ree_numeric"]),
        (["ed", "--hubbard", "6,4", "--nelec", "3", "--orbitals", "0,1", "--ssr", "p"],
         ["entanglement.ree_numeric", "interacting.build_hamiltonian",
          "interacting.ground_state", "fock.two_orbital_rdm", "channels.pinch"],
         ["entanglement.nssr_closed"]),
        (["ed", "--fcidump", str(fcidump), "--nelec", "2", "--all-pairs"],
         ["fcidump.read_fcidump", "interacting.build_hamiltonian", "fock.two_orbital_rdm",
          "channels.pinch"], ["entanglement.nssr_closed"]),
        (["swap-demo", "--state", str(state)],
         ["channels.run_swap_protocol", "channels.pinch", "fock.DensityMatrix"], []),
    ]


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_traced_requests_report_every_metric(tracing, tmp_path):
    requests = _requests(tmp_path)
    untraced = [_call(argv) for argv, _, _ in requests]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = []
        for tag, (argv, _, _) in enumerate(requests):
            tracer.request = tag
            traced.append(_call(argv))
    assert [code for code, _ in untraced] == [0] * len(requests)
    assert traced == untraced

    values, absent = tracer.metrics(tracer.spans)
    assert tracer.broken == set()
    assert absent == []
    assert set(values) == set(tracing.METRICS) | {"entanglement.oracle.starts_per_iter"}
    for name, value in values.items():
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
    for tag, (argv, layers, unreached) in enumerate(requests):
        reached = {span.name for span in tracer.spans if span.request == tag}
        assert set(layers) <= reached, (argv[0], set(layers) - reached)
        assert not set(unreached) & reached, (argv[0], set(unreached) & reached)

    # one solver span per pair, whose blocks are not counted again
    pair_tag = 1
    spans = [span for span in tracer.spans if span.request == pair_tag]
    assert [span.name for span in spans].count("entanglement.ree_numeric") == 1
    iters = tracer.metrics(spans)[0]["entanglement.ree_numeric.outer_iters"]
    assert iters == json.loads(traced[pair_tag][1])["iterations"]
