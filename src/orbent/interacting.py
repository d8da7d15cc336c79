"""Interacting electrons on a ring: Hubbard generator, FCIDUMP-driven
Hamiltonians, sector-restricted exact diagonalization, and orbital-pair
entanglement extraction, plus the bundled reference table of hydrogen-ring
values.

The many-body Hamiltonian in chemist notation reads

    H = sum_{pq,s} h_pq f+_ps f_qs
      + 1/2 sum_{pqrs,ss'} (pq|rs) f+_ps f+_rs' f_ss' f_qs  + core
      = sum_pq h'_pq E_pq + 1/2 sum_{pq,rs} (pq|rs) E_pq E_rs + core,

with E_pq = e^up_pq + e^down_pq, e^s_pq = f+_ps f_qs and
h'_ps = h_ps - 1/2 sum_q (pq|qs).  It is assembled on one (N, 2Sz) sector
from the up and down occupation strings of that sector (Knowles & Handy,
CPL 111, 315 (1984); Olsen et al., JCP 89, 2185 (1988)).  In the up-major
product basis |a>|b>, all up creators before all down ones, each e^s_pq
acts on its own spin's string alone, so with k = pq, l = rs and
v_kl = (pq|rs):

    H = (h^up + g^up + core) (x) I + I (x) (h^down + g^down)
        + sum_kl 1/2 (v + v^T)_kl e^up_k (x) e^down_l,
    h^s = sum_k h'_k e^s_k,    g^s = 1/2 sum_kl v_kl e^s_k e^s_l.

The string generators e^s_k have one entry per string they move, ranked
through a 2**norb lookup table.  h^s + g^s is one stacked sparse product
per spin, and the whole of H is one product over the string pairs
(a'a) and (b'b) that those factors connect (:func:`_assemble`).  The
interleaved configurations of :mod:`orbent.fock` order the same creators
site by site, so

    |interleave(a, b)> = S(a, b) |a>|b>,
    S(a, b) = (-1)^#{(j, i): a down electron at site j, an up electron at i > j},

and the matrix is conjugated by S and permuted into the sorted sector
basis.  Its entries are distinct, so two stable counting sorts, by column
and then by row, put them in CSR with each row's columns in order; no
comparison sort runs over them.

Everything is allocated at the size of the sector or of its strings, never
of the 4**norb Fock space: the ground state is a
:class:`~orbent.fock.SectorState` over the sorted basis, and the one
resource cap bounds the nonzeros from the strings before anything of the
sector's size is allocated.

scipy is imported inside the functions that use it: ``scipy.sparse`` in
:func:`build_hamiltonian` and its helpers, ``scipy.linalg`` (BLAS level-1
and LAPACK tridiagonal routines; no dense eigensolver) in the Lanczos
helpers of :func:`ground_state`.  The Lanczos recurrence is this module's
own, so ``scipy.sparse.linalg`` is never loaded.  Importing this module,
and so ``orbent`` and ``orbent.cli``, loads no scipy; only the ``ed`` path
pays for it, on its first call.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from . import entanglement as ent
from .fcidump import FcidumpData
from .fock import DOWN, MAX_ORBITALS, UP, FockSpace, SectorState, popcount, two_orbital_rdm
from .tightbinding import ring_one_body

if TYPE_CHECKING:
    import scipy.sparse as sps

NNZ_CAP = 4_000_000
# bytes of run 1's kept Lanczos vectors: those of a CSR matrix at the cap
# (an 8-byte value and a 4-byte column index per nonzero)
_BASIS_BYTES = 12 * NNZ_CAP
# entries per BLAS level-1 call: OpenBLAS splits ddot and daxpy over
# threads only above 10 000 entries, so a call on a chunk runs in one
# thread and sums in one fixed order whatever the thread count
_CHUNK = 8192
# largest accepted |H v - E v| of a returned ground state
_RESIDUAL_TOL = 1e-9
# relative residuals at which the Lanczos runs of ground_state stop
_GROUND_TOL = 1e-12
_GAP_TOL = 1e-8
# Lanczos steps per run before RuntimeError, and the fewest between checks
_MAX_STEPS = 10_000
_CHECK_MIN = 4


@dataclass(frozen=True)
class HubbardParams:
    """Periodic ring Hubbard model; its hopping is the tight-binding ring's,
    ``tightbinding.HOPPING``."""

    n_sites: int
    u: float

    def __post_init__(self):
        if not 2 <= self.n_sites <= MAX_ORBITALS:
            raise ValueError(f"need 2 to {MAX_ORBITALS} sites, got {self.n_sites}")
        if not np.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")

    def integrals(self) -> FcidumpData:
        n = self.n_sites
        eri = np.zeros((n,) * 4)
        for a in range(n):
            eri[a, a, a, a] = self.u
        return FcidumpData(norb=n, nelec=n, ms2=0, h=ring_one_body(n),
                           eri=eri)


def _strings(norb: int, k: int) -> np.ndarray:
    """Occupation strings of one spin with k of norb sites filled (bit i for
    site i), in the order of ``itertools.combinations``."""
    return np.array([sum(1 << site for site in occ)
                     for occ in itertools.combinations(range(norb), k)], dtype=np.int64)


def _sector_strings(norb: int, n_elec: int, sz2: int) -> tuple[np.ndarray, np.ndarray]:
    """(up strings, down strings) of the (N, 2Sz) sector."""
    n_up, odd = divmod(n_elec + sz2, 2)
    if odd or not (0 <= n_up <= norb and 0 <= n_elec - n_up <= norb):
        raise ValueError(f"empty sector N={n_elec}, 2Sz={sz2} for {norb} orbitals")
    return _strings(norb, n_up), _strings(norb, n_elec - n_up)


def _interleave(space: FockSpace, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Configurations of every (up, down) string pair, up-major: entry
    i * down.size + j interleaves up[i] with down[j]."""
    def modes(strings, spin):
        out = np.zeros_like(strings)
        for site in range(space.n_spatial):
            out |= ((strings >> site) & 1) << space.mode(site, spin)
        return out

    return (modes(up, UP)[:, None] | modes(down, DOWN)[None, :]).ravel()


def sector_basis(norb: int, n_elec: int, sz2: int) -> np.ndarray:
    """Sorted configuration integers with the requested (N, 2Sz).

    Each configuration is an up-spin string interleaved with a down-spin
    string, both enumerated as combinations of occupied sites, so the cost
    is the sector's size, not the Fock dimension.
    """
    return np.sort(_interleave(FockSpace(norb), *_sector_strings(norb, n_elec, sz2)))


@dataclass(frozen=True)
class ManyBodyOperator:
    """Sparse Hermitian operator on one symmetry sector of the Fock space:
    ``matrix`` in CSR over the sorted configurations ``basis``."""

    matrix: sps.csr_matrix
    basis: np.ndarray
    space: FockSpace

    @property
    def dim(self) -> int:
        return self.basis.size


def _string_generators(strings: np.ndarray, keys: np.ndarray, norb: int):
    """Entries (key, dst, src, sign) of the one-spin generators
    e_pq = f+_p f_q, p * norb + q = keys[key], on the strings of one spin:
    one per string each generator moves.  Destinations are ranked through a
    2**norb lookup table."""
    rank = np.zeros(1 << norb, dtype=np.int32)
    rank[strings] = np.arange(strings.size, dtype=np.int32)
    p, q = np.divmod(keys, norb)
    occupied = ((strings[None, :] >> q[:, None]) & 1) == 1
    free = (((strings[None, :] >> p[:, None]) & 1) == 0) | (p == q)[:, None]
    key, src = np.nonzero(occupied & free)
    a, p, q = strings[src], p[key], q[key]
    moved = a & ~(1 << q)
    parity = popcount(a & ((1 << q) - 1)) + popcount(moved & ((1 << p) - 1))
    return key, rank[moved | (1 << p)], src.astype(np.int32), 1.0 - 2.0 * (parity & 1)


def build_hamiltonian(source: Union[FcidumpData, HubbardParams], n_elec: int,
                      sz2: int = 0) -> ManyBodyOperator:
    """Sector-restricted sparse Hamiltonian from integrals or Hubbard parameters.

    ``NNZ_CAP`` bounds the memory.  Let P_s be the union pattern of the
    spin-s string generators plus the diagonal, and n_s the number of spin-s
    strings.  H lies inside P_up (x) P_down, except for the same-spin double
    excitations, which lie in P_s @ P_s; so

        nnz(P_up) nnz(P_down) + (nnz(P_up @ P_up) - nnz(P_up)) n_down
                              + (nnz(P_down @ P_down) - nnz(P_down)) n_up

    bounds its nonzeros.  The bound is computed from the strings and must
    fit under the cap before anything of the sector's size is allocated, or
    ``ValueError`` is raised.  H is symmetric, as the integrals are.
    """
    import scipy.sparse as sps

    data = source.integrals() if isinstance(source, HubbardParams) else source
    norb = data.norb
    space = FockSpace(norb)

    # flat pair index k = p*norb + q; row k of eri2 holds (pq|rs) over rs.
    # Only the generators some integral touches are built.
    one_body = (data.h - 0.5 * np.einsum("pqqs->ps", data.eri)).ravel()
    eri2 = data.eri.reshape(norb * norb, norb * norb)
    touched = np.abs(eri2) > 1e-14
    keys = np.nonzero((np.abs(one_body) > 1e-14) | touched.any(axis=0)
                      | touched.any(axis=1))[0]
    up, down = _sector_strings(norb, n_elec, sz2)
    n_up, n_down = up.size, down.size
    gens_up, gens_down = (_string_generators(s, keys, norb) for s in (up, down))

    def pattern_nnz(n, gens):
        rows, cols = (np.append(x, np.arange(n)) for x in gens[1:3])
        pattern = sps.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        return pattern.nnz, (pattern @ pattern).nnz

    (p_up, pp_up), (p_down, pp_down) = pattern_nnz(n_up, gens_up), pattern_nnz(n_down, gens_down)
    dim = n_up * n_down
    bound = p_up * p_down + (pp_up - p_up) * n_down + (pp_down - p_down) * n_up
    if bound > NNZ_CAP:
        raise ValueError(f"sector of dimension {dim} may hold {bound} nonzeros, "
                         f"over the {NNZ_CAP} nonzero cap")

    configs = _interleave(space, up, down)
    order = np.argsort(configs)
    rank = np.empty(dim, dtype=np.int32)
    rank[order] = np.arange(dim, dtype=np.int32)
    packed = (rank.reshape(n_up, n_down) << 1) | _interleave_parity(up, down, norb)
    ham = _assemble(packed, gens_up, gens_down, one_body[keys], eri2[np.ix_(keys, keys)],
                    data.core)
    ham.eliminate_zeros()
    return ManyBodyOperator(ham, configs[order], space)


def _interleave_parity(up: np.ndarray, down: np.ndarray, norb: int) -> np.ndarray:
    """0 or 1 as S(a, b) = +1 or -1, where |interleave(a, b)> = S(a, b) |a>|b>,
    as an (n_up, n_down) array: the parity of the pairs of a down electron
    at site j and an up electron at site i > j."""
    above = np.zeros_like(up)  # bit j set if an odd number of up electrons sit above j
    for site in range(norb):
        above |= (popcount(up >> (site + 1)) & 1) << site
    return (popcount(above[:, None] & down[None, :]) & 1).astype(np.int32)


def _spin_factor(n: int, gens, one_body: np.ndarray, v: np.ndarray):
    """One spin's factor of H over the string pairs (a', a) it connects.

    Columns 0..m-1 hold the generators e_k, column m holds
    h^s + g^s = sum_k h'_k e_k + 1/2 sum_kl v_kl e_k e_l and column m + 1
    the identity.  g^s is the one stacked product [e_1 | ... | e_m] @ w,
    where w stacks the W_k = sum_l v_kl e_l, which live on the generators'
    pairs.  Returns the factor and the pairs' a' and a.
    """
    import scipy.sparse as sps

    key, dst, src, sign = gens
    m = v.shape[0]
    pairs, row = np.unique(dst * n + src, return_inverse=True)
    to, frm = np.divmod(pairs, n)
    # the pairs are sorted, so they are already in CSR order: row a' of an
    # n x n matrix on them starts at starts[a'], and no conversion sorts them
    starts = np.searchsorted(to, np.arange(n + 1))
    gen = sps.csr_matrix((sign, (row, key)), shape=(pairs.size, m))
    w = sps.csr_matrix(((gen @ v.T).T.ravel(), np.tile(frm, m),
                        np.append(np.add.outer(np.arange(m) * pairs.size, starts[:-1]),
                                  m * pairs.size)),
                       shape=(m * n, n))
    stacked = sps.csr_matrix((sign, (dst, key * n + src)), shape=(n, m * n))
    f = (sps.csr_matrix((gen @ one_body, frm, starts), shape=(n, n))
         + 0.5 * (stacked @ w)).tocoo()

    diag = np.arange(n)
    union, where = np.unique(np.concatenate([pairs, f.row * n + f.col, diag * (n + 1)]),
                             return_inverse=True)
    gen = gen.tocoo()
    rows = np.concatenate([where[gen.row], where[pairs.size:]])
    cols = np.concatenate([gen.col, np.full(f.nnz, m), np.full(n, m + 1)])
    vals = np.concatenate([gen.data, f.data, np.ones(n)])
    factor = sps.csr_matrix((vals, (rows, cols)), shape=(union.size, m + 2))
    return factor, *(x.astype(np.int32) for x in np.divmod(union, n))


def _assemble(packed: np.ndarray, gens_up, gens_down, one_body: np.ndarray, v: np.ndarray,
              core: float):
    """H in CSR over the sorted sector basis, from the string generators.

    With F_s the spin factors of :func:`_spin_factor`, H = F_up M F_down^T
    over the string pairs ((a'a), (b'b)).  M couples e^up_k to e^down_l
    through u = (v + v^T)/2, h^up + g^up to the identity, the identity to
    h^down + g^down, and the identity to itself through the core energy:

        H = (h^up + g^up + core) (x) I + I (x) (h^down + g^down)
            + sum_kl u_kl e^up_k (x) e^down_l.

    Each ((a'a), (b'b)) entry is the one entry ((a'b'), (ab)) of H, so the
    product holds no duplicates.  ``packed[a, b]`` is 2 r + p, where r places
    (a, b) in the sorted basis and (-1)^p is its interleaving sign, so one
    gather per end of an entry gives both.  With nothing to sum, the
    entries reach CSR through COO -> CSC -> CSR, two stable counting sorts
    that leave each row's columns in order, instead of scipy's sort of
    every row; the product, the index arrays and the COO are freed before
    the second sort, so the build peak does not grow.
    """
    import scipy.sparse as sps

    n_up, n_down = packed.shape
    (f_up, to_up, from_up), (f_down, to_down, from_down) = (
        _spin_factor(n, gens, one_body, v) for n, gens in ((n_up, gens_up), (n_down, gens_down)))
    middle = sps.block_diag((0.5 * (v + v.T), [[0.0, 1.0], [1.0, core]]), format="csr")
    pairs = f_up @ middle @ f_down.T

    # up-major Kronecker indices a' n_down + b' (to) and a n_down + b (frm),
    # then their packed entries, in place.  Every index is in range, so
    # "clip" checks nothing; it only spares take the buffered copy of out
    # that the default "raise" makes
    per_row = np.diff(pairs.indptr)
    to = np.repeat(to_up * n_down, per_row)
    to += np.take(to_down, pairs.indices, mode="clip")
    frm = np.repeat(from_up * n_down, per_row)
    frm += np.take(from_down, pairs.indices, mode="clip")
    vals = pairs.data
    del pairs  # its index arrays are as long as vals
    np.take(packed, to, out=to, mode="clip")
    np.take(packed, frm, out=frm, mode="clip")
    vals *= 1 - 2 * ((to ^ frm) & 1)
    to >>= 1
    frm >>= 1
    coo = sps.coo_matrix((vals, (to, frm)), shape=(packed.size,) * 2)
    del vals, to, frm
    # the entries are distinct, and this COO only feeds tocsc: the flag
    # skips sum_duplicates and its sort, though the rows are not in order
    coo.has_canonical_format = True
    csc = coo.tocsc()
    del coo
    return csc.tocsr()


@dataclass
class GroundStateResult:
    energy: float
    state: SectorState
    degenerate: bool
    gap: float
    residual: float


def ground_state(op: ManyBodyOperator) -> GroundStateResult:
    """Lowest eigenpair of a sector Hamiltonian, and the gap above it.

    A one-configuration sector is its own eigenvector; every larger one
    takes the same three plain Lanczos runs (:func:`_lanczos`).  A residual
    over 1e-9, or NaN, raises ``RuntimeError``, as do more than
    ``_MAX_STEPS`` Lanczos steps.  A spectral gap under 1e-9 flags a
    degenerate ground level.

    Run 1, from the seeded vector v0 = ``default_rng(0).standard_normal(dim)``,
    stops when the lowest Ritz pair's residual estimate is at most
    1e-12 max(1, |theta|), ARPACK's relative tolerance.  It keeps its
    Lanczos vectors while they take at most ``_BASIS_BYTES``, the bytes of
    a CSR matrix at ``NNZ_CAP`` (at least two are kept), so the solver
    never holds much more than a matrix at the cap.  That is 1224 vectors
    at dimension 4900, against runs of about 130 steps.  Past the budget,
    the Ritz vector's later terms are rebuilt by replaying the recurrence
    from the last two kept vectors with the stored coefficients, which
    gives the same bits.  Every vector operation of the runs is a BLAS
    level-1 call in place on chunks of at most ``_CHUNK`` entries, each in
    one thread, so the result has the same bits at every BLAS thread count.

    The polish, the same run from run 1's Ritz vector, takes about four
    steps.  Run 1's vector errs by up to its residual over the gap, more so
    where the Krylov space runs out; the polish's Ritz vector psi is
    accurate to rounding, so sectors that a symmetry maps onto each other
    give the same pair values to 1e-12.  One product H psi gives both the
    energy, psi's Rayleigh quotient, and the residual.

    On a degenerate level psi = P v0 / |P v0|, with P the projector onto
    the level: the part of K(H, v0) in the level is spanned by P v0
    (Paige, J. Inst. Math. Appl. 18, 341 (1976)), and the polish's Krylov
    space lies inside K(H, v0).  So the vector, the sector vector over
    ``op.basis``, is a function of the level and the seed, not of the
    solver.

    Run 2, from ``default_rng(1)``, finds the gap.  It runs on
    H + s psi psi^T, with s the width of run 1's Ritz values, which lifts
    psi's level to about the top of the spectrum and leaves every other
    eigenvector in place.  Its lowest Ritz value, to a relative residual of
    1e-8, is then the next level: its error, about r^2 over the spacing,
    stays far below the 1e-9 decision.  A degenerate level shows by
    construction.  Run 1 sees only psi of the level, but the second start
    vector has its own component along the copies that psi lacks.
    Projecting psi out instead would leave psi at eigenvalue 0, below the
    level whenever E0 > 0.
    """
    h = op.matrix
    if op.dim == 1:
        return GroundStateResult(float(h[0, 0].real), SectorState(op.space, op.basis, np.ones(1)),
                                 False, np.inf, 0.0)
    # seeded start vectors make the result repeatable; a constant one could
    # be orthogonal to a symmetric ground state
    start = np.random.default_rng(0).standard_normal(op.dim)
    keep = max(2, _BASIS_BYTES // start.nbytes)
    alpha, beta, theta, y, basis = _lanczos(h.dot, start, _GROUND_TOL, keep)
    s = _ritz_pair(alpha, beta, alpha.size)[0] - theta
    vec = _ritz_vector(h.dot, alpha, beta, y, basis)
    # the polish.  Run 1's basis stays referenced until return: freed here, it
    # made each later two_orbital_rdm fault in 280 fresh pages (+70% at 4900)
    polish = _lanczos(h.dot, vec, _GROUND_TOL, keep)
    vec = _ritz_vector(h.dot, *polish[:2], *polish[3:])
    r = h @ vec
    energy = _dot(vec, r)
    _axpy(-energy, vec, r)
    residual = math.sqrt(_dot(r, r))
    if not residual <= _RESIDUAL_TOL:
        raise RuntimeError(f"eigensolver residual {residual:.2e} above {_RESIDUAL_TOL}")

    def lifted(x):
        out = h @ x
        _axpy(s * _dot(vec, x), vec, out)
        return out

    start = np.random.default_rng(1).standard_normal(op.dim)
    gap = _lanczos(lifted, start, _GAP_TOL)[2] - energy
    return GroundStateResult(energy, SectorState(op.space, op.basis, vec),
                             bool(gap < 1e-9), gap, residual)


@functools.cache
def _blas():
    """scipy's BLAS, imported once: an import statement in the step
    routines would cost as much as a level-1 call at these lengths."""
    from scipy.linalg import blas

    return blas


def _chunks(n: int) -> list[slice]:
    return [slice(i, i + _CHUNK) for i in range(0, n, _CHUNK)]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by BLAS ddot on chunks of at most ``_CHUNK`` entries, summed in
    order: the same bits at every BLAS thread count."""
    ddot = _blas().ddot
    if x.size <= _CHUNK:
        return ddot(x, y)
    total = 0.0
    for part in _chunks(x.size):
        total += ddot(x[part], y[part])
    return total


def _axpy(a: float, x: np.ndarray, y: np.ndarray) -> None:
    """y += a x in place, by BLAS daxpy on chunks of at most ``_CHUNK``
    entries, each in one thread."""
    daxpy = _blas().daxpy
    if x.size <= _CHUNK:
        daxpy(x, y, a=a)
        return
    for part in _chunks(x.size):
        daxpy(x[part], y[part], a=a)


def _ritz_pair(alpha: np.ndarray, beta: np.ndarray, index: int) -> tuple[float, np.ndarray]:
    """The index-th lowest eigenvalue (from 1) and unit eigenvector of the
    Lanczos tridiagonal matrix with diagonal alpha and off-diagonal
    beta[:-1]: LAPACK's bisection and inverse iteration, O(m) each."""
    from scipy.linalg import lapack

    if alpha.size == 1:
        return float(alpha[0]), np.ones(1)
    _, w, block, split, _ = lapack.dstebz(alpha, beta[:-1], 2, 0.0, 0.0, index, index, 0.0, "B")
    return float(w[0]), lapack.dstein(alpha, beta[:-1], w[:1], block, split)[0][:, 0]


def _lanczos(matvec, start: np.ndarray, tol: float, keep: int = 0):
    """Plain Lanczos recurrence from ``start``, without reorthogonalization,
    until the lowest Ritz pair (theta, y) has a residual estimate
    beta_m |y_m| of at most tol max(1, |theta|) (Paige, J. Inst. Math.
    Appl. 18, 341 (1976): the lowest pair still converges).

    Each step is one matvec, two dot products, two axpy updates and one
    scale (:func:`_dot`, :func:`_axpy`, BLAS dscal), in place on the
    matvec's output, which becomes the next Lanczos vector.  Returns
    (alpha, beta, theta, y, basis): ``basis`` lists the first ``keep``
    Lanczos vectors, or all of them when the run is shorter.  The residual
    is checked on a schedule, not at every step: each check extrapolates
    the fall of the residual since the previous one and waits half the
    predicted number of steps, at least ``_CHECK_MIN``.  More than
    ``_MAX_STEPS`` steps raise ``RuntimeError``.
    """
    dscal = _blas().dscal
    v = start / math.sqrt(_dot(start, start))
    v_prev = np.zeros_like(v)
    alpha, beta = [], []
    basis = []
    b = 0.0
    check, last = _CHECK_MIN, None
    for step in range(1, _MAX_STEPS + 1):
        if step <= keep:
            basis.append(v)
        w = matvec(v)
        a = _dot(v, w)
        _axpy(-a, v, w)
        _axpy(-b, v_prev, w)
        b = math.sqrt(_dot(w, w))
        alpha.append(a)
        beta.append(b)
        if step == check or b == 0.0:
            coeffs = np.array(alpha), np.array(beta)
            theta, y = _ritz_pair(*coeffs, 1)
            res = b * abs(y[-1]) / max(1.0, abs(theta))
            if res <= tol:
                return *coeffs, theta, y, basis
            ahead = _CHECK_MIN
            if last is not None and res < last[1]:
                rate = math.log(last[1] / res) / (step - last[0])
                ahead = max(ahead, int(0.5 * math.log(res / tol) / rate))
            last, check = (step, res), step + min(ahead, step)
        dscal(1.0 / b, w)
        v_prev, v = v, w
    raise RuntimeError(f"Lanczos did not converge in {_MAX_STEPS} steps")


def _ritz_vector(matvec, alpha: np.ndarray, beta: np.ndarray, y: np.ndarray,
                 basis: list) -> np.ndarray:
    """The normalized Ritz vector sum_j y_j v_j, summed in order by
    :func:`_axpy`.  The vectors past the kept ``basis``, which then holds
    at least two, are rebuilt by replaying :func:`_lanczos`'s steps from the last two kept ones with the
    stored coefficients: the same operations on the same inputs, so the
    same bits, at one matvec per rebuilt vector."""
    psi = np.zeros_like(basis[0])
    for c, v in zip(y, basis):
        _axpy(c, v, psi)
    if y.size > len(basis):
        dscal = _blas().dscal
        v_prev, v = basis[-2:]
        for j in range(len(basis), y.size):
            w = matvec(v)
            _axpy(-alpha[j - 1], v, w)
            _axpy(-beta[j - 2], v_prev, w)
            dscal(1.0 / beta[j - 1], w)
            _axpy(y[j], w, psi)
            v_prev, v = v, w
    return psi / math.sqrt(_dot(psi, psi))


def orbital_pair_entanglement(state: SectorState, l: int, lp: int,
                              ssr: str = "N") -> ent.EntanglementResult:
    """Accessible entanglement between two orbitals of a many-body state,
    such as the ground state of :func:`ground_state`:
    :func:`~orbent.entanglement.ree_numeric` of the pair state under ``ssr``
    ("N" or "P"), which rejects any other rule.

    The pair state of an (N, Sz) eigenstate commutes with the pair's N and
    2Sz, so every two-qubit block is diagonal or an X state and the value
    is exact, with a proven gap (method "x-state"); only a state without
    that symmetry leaves blocks to Frank-Wolfe, whose gap is heuristic.
    """
    return ent.ree_numeric(two_orbital_rdm(state, l, lp), ssr)


# ---------------------------------------------------------------------------
# bundled hydrogen-ring reference data


@dataclass(frozen=True)
class ReferenceTableEntry:
    """One (N, R, d) row of the bundled hydrogen-ring entanglement table."""

    n_elec: int
    r_sep: float
    d: int
    e_pssr: float
    e_nssr: float


def reference_table() -> list[ReferenceTableEntry]:
    """The bundled reference values for the 16-atom hydrogen ring.

    Rows are (electron count, nearest-neighbor distance in bohr, orbital
    separation, parity- and number-superselected entanglement).  Each row
    present carries its values; a pair without a row carries no claim, no
    bound on its entanglement included: N = 30, R = 5 has no row below d = 3.
    """
    rows = []
    resource = importlib.resources.files("orbent.data").joinpath("h16_reference.csv")
    with resource.open() as fh:
        for record in csv.DictReader(fh):
            rows.append(ReferenceTableEntry(
                n_elec=int(record["N"]), r_sep=float(record["R"]),
                d=int(record["d"]), e_pssr=float(record["E_P"]),
                e_nssr=float(record["E_N"])))
    return rows


def reference_lookup(n_elec: int, r_sep: float, d: int) -> ReferenceTableEntry:
    for row in reference_table():
        if row.n_elec == n_elec and row.r_sep == r_sep and row.d == d:
            return row
    raise KeyError(f"no bundled entry for N={n_elec}, R={r_sep}, d={d}")


def compare_with_reference(data: FcidumpData, n_elec: int, r_sep: float) -> dict:
    """Optional harness: solve user-supplied integrals and report deviations
    from the bundled table in both logarithm conventions, without asserting.

    Both values come from :func:`orbital_pair_entanglement`.  ``data``, like
    every :class:`FcidumpData`, was checked to be finite and symmetric when
    built.  The solve honors ``NNZ_CAP``: with dense 16-orbital integrals
    the N = 2 and 30 sectors (256 configurations, 65 536 nonzeros) fit
    under it; N = 4 and 28 (14 400 configurations, a bound of 14.7M
    nonzeros) and every sector between them are refused before anything of
    the sector's size is allocated.
    """
    op = build_hamiltonian(data, n_elec, n_elec % 2)
    gs = ground_state(op)
    report = {"n_elec": n_elec, "r_sep": r_sep, "energy": gs.energy,
              "degenerate": gs.degenerate, "rows": []}
    table = {row.d: row for row in reference_table()
             if row.n_elec == n_elec and row.r_sep == r_sep}
    for d in range(1, data.norb // 2 + 1):
        row = {"d": d}
        for ssr in ("P", "N"):
            res = orbital_pair_entanglement(gs.state, 0, d, ssr=ssr)
            row[f"e_{ssr.lower()}"] = res.value
            ref = table.get(d)
            if ref is not None:
                ref_val = ref.e_pssr if ssr == "P" else ref.e_nssr
                row[f"dev_{ssr.lower()}_if_nats"] = res.value - ref_val
                row[f"dev_{ssr.lower()}_if_bits"] = res.value / ent.LN2 - ref_val
        report["rows"].append(row)
    return report
