"""Seeded inputs, request lists and correctness gates of the four workloads.

A request is one ``orbent.cli.main(argv)`` call.  Every workload draws its
inputs from a finite, enumerable space so that ``record.py`` can store a
reference output for each possible request at a given commit; the seed only
chooses within that space.  The same seed always writes byte-identical input
files, and the program sees nothing but those files and its argv.

Why these workloads (each stresses a different layer):

* ``pssr``: numeric P-SSR values.  The Frank-Wolfe relative-entropy solver
  does almost all the work; exact diagonalization (ED) almost none.
* ``ed_dense``: ED on a dense-ERI FCIDUMP.  Hamiltonian assembly (one sparse
  product per two-electron integral) dominates.
* ``ring_ed``: ED on sparse Hubbard rings.  Assembly is cheap; the
  eigensolver (dense and Lanczos branches) and the full-Fock two-orbital RDM
  dominate.
* ``swap``: the superselected swap protocol, where channel compositions and
  the eigen-validation of every intermediate ``DensityMatrix`` dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("pssr", "ed_dense", "ring_ed", "swap")

# --- pssr -------------------------------------------------------------------
# ROADMAP anchors, never perturbed
PSSR_ANCHORS = ((0.2, 1), (0.1, 2), (0.45, 1))
# filling grid over d = 2, 3 (d = 1 is in the anchors): (eta, d, draws); each
# pass draws that many distinct shifts k * PSSR_ETA_STEP, k in PSSR_SHIFTS, of
# the point.  Solver cost depends chaotically on eta (at eta = 0.07 by 40%
# under a 1e-6 relative shift), so the seeded points are cheap, steady ones
# and the fixed anchors carry most of the work; dilute points (eta < 0.1)
# would make pass time follow the seed.  (0.2, 3) draws five shifts so that
# the median of the 20 requests is the middle one of a cluster of five equal
# costs: with two draws it sat on the edge between the (0.2, 3) and (0.3, 3)
# costs, and req_p50_s jumped between the two from run to run.
PSSR_GRID = ((0.35, 2, 2), (0.4, 2, 2), (0.2, 3, 5), (0.25, 3, 2), (0.3, 3, 2),
             (0.35, 3, 2))
PSSR_ETA_STEP = 0.0005
PSSR_SHIFTS = tuple(range(-3, 4))
# interacting minority: (U, N) on an 8-site ring, orbitals 0,1, U shifted by
# k * PSSR_U_STEP
PSSR_ED = ((4.0, 8), (6.0, 8))
PSSR_U_STEP = 0.05

# --- ed_dense ---------------------------------------------------------------
DENSE_NORB = 8
DENSE_VARIANTS = 16
DENSE_NELEC = (2, 4)

# --- ring_ed ----------------------------------------------------------------
RING_SITES = 8
RING_NELEC = (4, 6, 8)
RING_U_GRID = tuple(1.0 + 0.125 * j for j in range(57))  # [1, 8]
RING_DRAWS = 4  # U values per electron count in one pass

# --- swap -------------------------------------------------------------------
SWAP_FILES = 6

# tolerances of the correctness gate
ENERGY_TOL = 1e-9
NSSR_TOL = 1e-10
PSSR_FLOOR_TOL = 1e-9
SWAP_RESIDUAL_TOL = 1e-12

_PARITY4 = np.array([0, 1, 1, 0])


@dataclass
class Request:
    argv: list
    key: str  # reference key: argv with input files replaced by their hash
    kind: str  # "tb_p", "ed_n", "ed_p" or "swap"
    extra: dict


def _file_key(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _make(argv, kind, files=(), **extra) -> Request:
    key_argv = [(_file_key(a) if a in files else a) for a in argv]
    return Request(list(argv), json.dumps(key_argv), kind, extra)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# input generators


def tb_request(eta: str, d: int) -> Request:
    return _make(["tb", "--eta", eta, "--d", str(d), "--ssr", "p"], "tb_p",
                 eta=float(eta), d=d)


def pssr_grid_request(eta: float, d: int, k: int) -> Request:
    return tb_request(f"{eta + k * PSSR_ETA_STEP:.4f}", d)


def pssr_ed_request(u: float, n: int, k: int) -> Request:
    return ed_hubbard_request(f"{u + k * PSSR_U_STEP:.2f}", n, "p")


def ed_hubbard_request(u: str, n: int, ssr: str) -> Request:
    argv = ["ed", "--hubbard", f"{RING_SITES},{u}", "--nelec", str(n)]
    if ssr == "p":
        # the N-SSR value of the same pair is the floor of the P-SSR value
        return _make(argv + ["--orbitals", "0,1", "--ssr", "p"], "ed_p",
                     nssr_argv=argv + ["--orbitals", "0,1"])
    return _make(argv + ["--all-pairs"], "ed_n")


def _ring_distance(a, b, n):
    d = np.abs(a - b) % n
    return np.minimum(d, n - d)


def dihedral_fcidump(variant: int):
    """Dense-ERI ``DENSE_NORB``-orbital ring integrals of one variant.

    Every integral is a function of the orbit of its index tuple under the
    ring's dihedral group and the 8-fold permutation symmetry of real
    orbitals, so the ground state keeps the orbital-exchange symmetry that
    the closed N-SSR formula needs, and each orbit carries one exact value.
    """
    from orbent.fcidump import FcidumpData

    n = DENSE_NORB
    rng = np.random.default_rng([20230314, int(variant)])
    idx = np.indices((n,) * 4).reshape(4, -1)
    codes = []
    for shift in range(n):
        for sign in (1, -1):
            g = (shift + sign * idx) % n
            for a, b, c, d in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                               (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)):
                codes.append(((g[a] * n + g[b]) * n + g[c]) * n + g[d])
    _, orbit = np.unique(np.min(codes, axis=0), return_inverse=True)
    noise = rng.normal(size=orbit.max() + 1)[orbit]
    i, j, k, l = idx
    u0, v1, eps, t2 = (rng.uniform(3.0, 5.0), rng.uniform(0.2, 0.4),
                       rng.uniform(0.02, 0.05), rng.uniform(0.0, 0.1))
    density = np.where(i == k, u0, u0 * v1 / np.maximum(_ring_distance(i, k, n), 1))
    eri = np.where((i == j) & (k == l), density, 0.0) \
        + eps * noise * np.exp(-0.5 * (_ring_distance(i, j, n) + _ring_distance(k, l, n)))
    dist = _ring_distance(np.arange(n)[:, None], np.arange(n)[None, :], n)
    h = np.where(dist == 1, -0.5, np.where(dist == 2, -t2, 0.0))
    return FcidumpData(norb=n, nelec=max(DENSE_NELEC), ms2=0, h=h,
                       eri=eri.reshape((n,) * 4))


def write_fcidump_variant(variant: int, workdir: str) -> str:
    """Serialize one variant and check that it parses back bit-exactly."""
    from orbent.fcidump import parse_fcidump, serialize_fcidump

    data = dihedral_fcidump(variant)
    text = serialize_fcidump(data)
    back = parse_fcidump(text)
    if not (np.array_equal(back.h, data.h) and np.array_equal(back.eri, data.eri)
            and back.core == data.core):
        raise RuntimeError(f"FCIDUMP variant {variant} does not round-trip bit-exactly")
    path = os.path.join(workdir, f"dense{variant:02d}.fcidump")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def dense_request(path: str, n: int) -> Request:
    return _make(["ed", "--fcidump", path, "--nelec", str(n), "--all-pairs"],
                 "ed_n", files=(path,))


def _swap_state(rng) -> np.ndarray:
    """Full-rank 16 x 16 state: Wishart part mixed with the identity."""
    a = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
    m = a @ a.conj().T
    m = 0.5 * (m + m.conj().T)  # exactly Hermitian entry by entry
    return 0.8 * m / np.trace(m).real + 0.2 * np.eye(16) / 16


def _matrix_json(mat):
    return {"real": mat.real.tolist(), "imag": mat.imag.tolist()}


def swap_request(rng, path: str) -> Request:
    rho, sigma = _swap_state(rng), _swap_state(rng)
    with open(path, "w") as fh:
        json.dump({"rho": _matrix_json(rho), "sigma": _matrix_json(sigma)}, fh)
    # the program reads the JSON back, so gate against the parsed values
    with open(path) as fh:
        payload = json.load(fh)
    return _make(["swap-demo", "--state", path], "swap", files=(path,),
                 rho=_parsed(payload["rho"]), sigma=_parsed(payload["sigma"]))


def _parsed(obj) -> np.ndarray:
    return np.asarray(obj["real"], dtype=float) + 1j * np.asarray(obj["imag"], dtype=float)


def build(workload: str, seed: int, workdir: str) -> list:
    """The request list of one pass; the first request is the warm-up."""
    rng = _rng(seed, workload)
    if workload == "pssr":
        reqs = [tb_request(repr(eta), d) for eta, d in PSSR_ANCHORS]
        reqs += [pssr_grid_request(eta, d, int(k)) for eta, d, draws in PSSR_GRID
                 for k in rng.choice(PSSR_SHIFTS, size=draws, replace=False)]
        reqs += [pssr_ed_request(u, n, int(rng.choice(PSSR_SHIFTS))) for u, n in PSSR_ED]
        # warm up on the cheapest anchor, (0.45, 1)
        reqs.insert(0, reqs.pop(2))
        return reqs
    if workload == "ed_dense":
        path = write_fcidump_variant(int(rng.integers(DENSE_VARIANTS)), workdir)
        return [dense_request(path, n) for n in DENSE_NELEC]
    if workload == "ring_ed":
        return [ed_hubbard_request(f"{float(rng.choice(RING_U_GRID)):.3f}", n, "n")
                for _ in range(RING_DRAWS) for n in RING_NELEC]
    if workload == "swap":
        return [swap_request(rng, os.path.join(workdir, f"swap{i}.json"))
                for i in range(SWAP_FILES)]
    raise ValueError(f"unknown workload {workload!r}")


def reference_space(workdir: str) -> list:
    """Every request any seed can produce whose gate needs a recorded reference."""
    reqs = [tb_request(repr(eta), d) for eta, d in PSSR_ANCHORS]
    reqs += [pssr_grid_request(eta, d, k) for eta, d, _ in PSSR_GRID for k in PSSR_SHIFTS]
    reqs += [pssr_ed_request(u, n, k) for u, n in PSSR_ED for k in PSSR_SHIFTS]
    reqs += [ed_hubbard_request(f"{u:.3f}", n, "n") for u in RING_U_GRID for n in RING_NELEC]
    for v in range(DENSE_VARIANTS):
        path = write_fcidump_variant(v, workdir)
        reqs += [dense_request(path, n) for n in DENSE_NELEC]
    return reqs


# ---------------------------------------------------------------------------
# reference outputs and the correctness gate


def reference_record(req: Request, stdout: str) -> dict:
    """What ``record.py`` stores for one request at the recording commit.

    An ``ed_p`` record still needs its ``nssr`` floor, which ``record.py``
    takes from the output of ``extra["nssr_argv"]``.
    """
    if req.kind == "tb_p":
        rec = json.loads(stdout)
        return {"value": rec["value"], "gap": rec["gap"]}
    lines = [json.loads(line) for line in stdout.splitlines()]
    if req.kind == "ed_p":
        return {"energy": lines[0]["energy"], "value": lines[0]["value"],
                "gap": lines[0]["gap"]}
    return {"energy": lines[0]["energy"], "values": [r["value"] for r in lines]}


def load_references() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["references"]


def tb_nssr_closed_form(eta: float, d: int) -> float:
    """Thermodynamic tight-binding N-SSR value, written out independently.

    W = sin(pi d eta) / (pi d), A = (eta^2 - eta - W^2)^2, B = W^2,
    r = 3(A - B), t = A + B; E_N = r ln(2r/(r+t)) + t ln(2t/(r+t)) when r < t.
    """
    w = math.sin(math.pi * d * eta) / (math.pi * d)
    a = (eta * eta - eta - w * w) ** 2
    b = w * w
    r, t = max(3.0 * (a - b), 0.0), a + b
    if r >= t or t == 0.0:
        return 0.0
    value = t * math.log(2.0 * t / (r + t))
    if r > 0.0:
        value += r * math.log(2.0 * r / (r + t))
    return value


def _overlap(value, gap, ref_value, ref_gap) -> bool:
    return value - gap <= ref_value and ref_value - ref_gap <= value


def check(req: Request, rc, stdout: str, refs: dict) -> str | None:
    """None when the output is correct, otherwise the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if req.kind == "swap":
            return _check_swap(req, json.loads(stdout))
        ref = refs.get(req.key)
        if ref is None:
            return "no recorded reference for this request"
        if req.kind == "tb_p":
            rec = json.loads(stdout)
            if not _overlap(rec["value"], rec["gap"], ref["value"], ref["gap"]):
                return f"P-SSR interval of {rec['value']!r} misses the reference"
            floor = tb_nssr_closed_form(req.extra["eta"], req.extra["d"])
            if rec["value"] < floor - PSSR_FLOOR_TOL:
                return f"P-SSR value {rec['value']!r} below the N-SSR value {floor!r}"
            return None
        lines = [json.loads(line) for line in stdout.splitlines()]
        if any(abs(r["energy"] - ref["energy"]) > ENERGY_TOL for r in lines):
            return f"energy {lines[0]['energy']!r} differs from {ref['energy']!r}"
        if req.kind == "ed_p":
            rec = lines[0]
            if not _overlap(rec["value"], rec["gap"], ref["value"], ref["gap"]):
                return f"P-SSR interval of {rec['value']!r} misses the reference"
            if rec["value"] < ref["nssr"] - PSSR_FLOOR_TOL:
                return f"P-SSR value {rec['value']!r} below the N-SSR value"
            return None
        values = [r["value"] for r in lines]
        if len(values) != len(ref["values"]) or any(
                abs(x - y) > NSSR_TOL for x, y in zip(values, ref["values"])):
            return f"N-SSR values {values} differ from {ref['values']}"
        return None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc!r}"


def _parity_mask() -> np.ndarray:
    key = (_PARITY4[:, None] * 2 + _PARITY4[None, :]).ravel()
    return np.equal.outer(key, key)


def _check_swap(req: Request, rec: dict) -> str | None:
    if rec["simulation_residual"] > SWAP_RESIDUAL_TOL:
        return f"simulation residual {rec['simulation_residual']!r}"
    mask = _parity_mask()
    for name, want in (("rho_in", req.extra["rho"]),
                       ("qubit_out", req.extra["rho"] * mask),
                       ("orbital_out", req.extra["sigma"] * mask)):
        if not np.array_equal(_parsed(rec[name]), want):
            return f"{name} differs from the independently computed matrix"
    return None
