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
:func:`build_hamiltonian` and its helpers, ``scipy.linalg`` and
``scipy.sparse.linalg`` in :func:`ground_state`.  Importing this module,
and so ``orbent`` and ``orbent.cli``, loads no scipy; only the ``ed`` path
pays for it, on its first call.
"""

from __future__ import annotations

import csv
import importlib.resources
import itertools
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
# largest accepted |H v - E v| of a returned ground state
_RESIDUAL_TOL = 1e-9
# largest sector diagonalized densely (see ground_state)
_DENSE_CUTOFF = 300


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
    ham = _assemble(rank.reshape(n_up, n_down), _interleave_sign(up, down, norb),
                    gens_up, gens_down, one_body[keys], eri2[np.ix_(keys, keys)], data.core)
    ham.eliminate_zeros()
    return ManyBodyOperator(ham, configs[order], space)


def _interleave_sign(up: np.ndarray, down: np.ndarray, norb: int) -> np.ndarray:
    """S(a, b) with |interleave(a, b)> = S(a, b) |a>|b>, as an (n_up, n_down)
    array: (-1)^(pairs of a down electron at site j and an up electron at
    site i > j)."""
    above = np.zeros_like(up)  # bit j set if an odd number of up electrons sit above j
    for site in range(norb):
        above |= (popcount(up >> (site + 1)) & 1) << site
    return 1.0 - 2.0 * (popcount(above[:, None] & down[None, :]) & 1)


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


def _assemble(rank: np.ndarray, sign: np.ndarray, gens_up, gens_down,
              one_body: np.ndarray, v: np.ndarray, core: float):
    """H in CSR over the sorted sector basis, from the string generators.

    With F_s the spin factors of :func:`_spin_factor`, H = F_up M F_down^T
    over the string pairs ((a'a), (b'b)).  M couples e^up_k to e^down_l
    through u = (v + v^T)/2, h^up + g^up to the identity, the identity to
    h^down + g^down, and the identity to itself through the core energy:

        H = (h^up + g^up + core) (x) I + I (x) (h^down + g^down)
            + sum_kl u_kl e^up_k (x) e^down_l.

    Each ((a'a), (b'b)) entry is the one entry ((a'b'), (ab)) of H, so the
    product holds no duplicates.  ``rank[a, b]`` places (a, b) in the sorted
    basis and ``sign[a, b]`` is its interleaving sign.  With nothing to sum,
    the entries reach CSR through COO -> CSC -> CSR, two stable counting
    sorts that leave each row's columns in order, instead of scipy's sort
    of every row; the product, the index arrays and the COO are freed before
    the second sort, so the build peak does not grow.
    """
    import scipy.sparse as sps

    n_up, n_down = rank.shape
    (f_up, to_up, from_up), (f_down, to_down, from_down) = (
        _spin_factor(n, gens, one_body, v) for n, gens in ((n_up, gens_up), (n_down, gens_down)))
    middle = sps.block_diag((0.5 * (v + v.T), [[0.0, 1.0], [1.0, core]]), format="csr")
    pairs = f_up @ middle @ f_down.T

    # up-major Kronecker indices a' n_down + b' (to) and a n_down + b (frm)
    per_row = np.diff(pairs.indptr)
    to = np.repeat(to_up * n_down, per_row)
    to += np.take(to_down, pairs.indices)
    frm = np.repeat(from_up * n_down, per_row)
    frm += np.take(from_down, pairs.indices)
    vals = pairs.data
    del pairs  # its index arrays are as long as vals
    vals *= np.take(sign, to)
    vals *= np.take(sign, frm)
    # basis positions in place: two fewer index arrays of length nnz at the CSR conversion
    np.take(rank, to, out=to)
    np.take(rank, frm, out=frm)
    coo = sps.coo_matrix((vals, (to, frm)), shape=(rank.size,) * 2)
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
    """Lowest eigenpair of a sector Hamiltonian.

    Dense diagonalization up to ``_DENSE_CUTOFF``, implicitly restarted
    Lanczos from a fixed-seed start vector above it.  A residual over 1e-9,
    or NaN, raises ``RuntimeError``.  A spectral gap under 1e-9 flags a
    degenerate ground level; the returned state is then just one ground
    vector, the sector vector over ``op.basis``.

    The cutoff is the measured crossover on Hubbard rings with one BLAS
    thread: dense ``eigh`` costs O(dim**3) and is as fast as Lanczos at
    dimension 225-300 (2-5 ms), but at 400 it takes 8-9 ms against 5-7 ms,
    at 784 about 45 ms against 4-8 ms and at 1225 about 180 ms against
    8-43 ms.  The two ground energies agree to 1e-14 there.  The crossover
    was measured on the sparse Hubbard matrices only.  A Lanczos matvec
    costs O(nnz), so denser Hamiltonians gain less: on the 784-dim N = 4
    sector of an 8-orbital dense-ERI FCIDUMP, about a quarter of whose
    entries are nonzero, Lanczos still halves the time dense ``eigh`` takes.

    On the Lanczos path, ``k=4`` Ritz values and ``tol=1e-12`` are what
    make the second copy of a degenerate ground level show.  On the 8-site
    Hubbard sectors U=4, N=5, 2Sz=1 and U=3, N=6, 2Sz=2, both two-fold,
    ``k=2`` reports gaps of 0.129 and 0.021 instead, and ``tol=1e-10``
    misses the copy on the second.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spsl

    h = op.matrix
    if op.dim == 1:
        energy, vec, gap = float(h[0, 0].real), np.ones(1), np.inf
    elif op.dim <= _DENSE_CUTOFF:
        evals, evecs = sla.eigh(h.toarray(), subset_by_index=[0, 1])
        energy, vec = float(evals[0]), evecs[:, 0]
        gap = float(evals[1] - evals[0])
    else:
        # a seeded start vector makes the result repeatable; a constant one
        # could be orthogonal to a symmetric ground state
        v0 = np.random.default_rng(0).standard_normal(op.dim)
        evals, evecs = spsl.eigsh(h, k=4, which="SA", tol=1e-12, maxiter=20000, v0=v0)
        order = np.argsort(evals)
        energy, vec = float(evals[order[0]]), evecs[:, order[0]]
        gap = float(evals[order[1]] - evals[order[0]])
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if not residual <= _RESIDUAL_TOL:
        raise RuntimeError(f"eigensolver residual {residual:.2e} above {_RESIDUAL_TOL}")
    return GroundStateResult(energy, SectorState(op.space, op.basis, vec),
                             bool(gap < 1e-9), gap, residual)


def orbital_pair_entanglement(state: SectorState, l: int, lp: int,
                              ssr: str = "N") -> ent.EntanglementResult:
    """Accessible entanglement between two orbitals of a many-body state,
    such as the ground state of :func:`ground_state`.

    Both rules ("N" and "P") give the relative entropy of entanglement of
    the pinched pair state by one route, block by block
    (:func:`~orbent.entanglement.ree_numeric`).  The pair state of an (N,
    Sz) eigenstate commutes with the pair's N and 2Sz, so every two-qubit
    block is diagonal or an X state and the value is exact, with a proven
    gap (method "x-state"); only a state without that symmetry leaves
    blocks to Frank-Wolfe, whose gap is heuristic.
    """
    route = {"N": ent.nssr_entanglement_dm, "P": ent.pssr_entanglement}.get(str(ssr).upper())
    if route is None:
        raise ValueError(f"unknown superselection kind {ssr!r}")
    return route(two_orbital_rdm(state, l, lp))


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
