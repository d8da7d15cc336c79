"""Interacting electrons on a ring: Hubbard generator, FCIDUMP-driven
Hamiltonians, sector-restricted exact diagonalization, and orbital-pair
entanglement extraction, plus the bundled reference table of hydrogen-ring
values.

The many-body Hamiltonian in chemist notation reads

    H = sum_{pq,s} h_pq f+_ps f_qs
      + 1/2 sum_{pqrs,ss'} (pq|rs) f+_ps f+_rs' f_ss' f_qs  + core,

assembled on one (N, 2Sz) sector from the spin-summed one-body generators
E_pq = sum_s f+_ps f_qs, grouped by the left index pair:

    H = sum_pq h'_pq E_pq + 1/2 sum_pq E_pq W_pq + core,
    W_pq = sum_rs (pq|rs) E_rs,    h'_ps = h_ps - 1/2 sum_q (pq|qs).

Each W_pq is one sparse matrix weighted from the concatenated generator
triplets, so the two-body part costs one sparse product per pair pq with a
nonzero integral (at most norb**2), not one per integral (norb**4).

Everything is allocated at the size of the sector, never of the 4**norb Fock
space: destination configurations are ranked in the sorted sector basis by
binary search, the ground state is a :class:`~orbent.fock.SectorState` over
that basis, and the one resource cap bounds the generator entries before the
basis is enumerated.

scipy is imported inside the two functions that use it: ``scipy.sparse`` in
:func:`build_hamiltonian`, ``scipy.linalg`` and ``scipy.sparse.linalg`` in
:func:`ground_state`.  Importing this module, and so ``orbent`` and
``orbent.cli``, loads no scipy; only the ``ed`` path pays for it, on its
first call.
"""

from __future__ import annotations

import csv
import importlib.resources
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from . import entanglement as ent
from .fcidump import FcidumpData
from .fock import (DOWN, UP, FockSpace, ManyBodyState, SectorState, popcount,
                   two_orbital_rdm)
from .tightbinding import ring_one_body

if TYPE_CHECKING:
    import scipy.sparse as sps

NNZ_CAP = 4_000_000


@dataclass(frozen=True)
class HubbardParams:
    """Periodic ring Hubbard model; its hopping is the tight-binding ring's."""

    n_sites: int
    u: float
    hopping: float = 0.5

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least two sites")

    def integrals(self) -> FcidumpData:
        n = self.n_sites
        eri = np.zeros((n,) * 4)
        for a in range(n):
            eri[a, a, a, a] = self.u
        return FcidumpData(norb=n, nelec=n, ms2=0, h=ring_one_body(n, self.hopping),
                           eri=eri)


def _up_counts(norb: int, n_elec: int, sz2: Optional[int]) -> list[int]:
    """Up-spin electron counts of the (N, 2Sz) sector, all of them if sz2 is None."""
    return [n_up for n_up in range(norb + 1)
            if 0 <= n_elec - n_up <= norb and sz2 in (None, 2 * n_up - n_elec)]


def sector_dim(norb: int, n_elec: int, sz2: Optional[int] = None) -> int:
    """Number of configurations with the requested (N, 2Sz), from binomials."""
    return sum(math.comb(norb, n_up) * math.comb(norb, n_elec - n_up)
               for n_up in _up_counts(norb, n_elec, sz2))


def sector_basis(norb: int, n_elec: int, sz2: Optional[int] = None) -> np.ndarray:
    """Sorted configuration integers with the requested (N, 2Sz).

    Each configuration is an up-spin string interleaved with a down-spin
    string, both enumerated as combinations of occupied sites, so the cost
    is the sector's size, not the Fock dimension.
    """
    space = FockSpace(norb)

    def strings(spin, k):
        return np.array([sum(1 << space.mode(site, spin) for site in occ)
                         for occ in itertools.combinations(range(norb), k)],
                        dtype=np.int64)

    blocks = [(strings(UP, n_up)[:, None] | strings(DOWN, n_elec - n_up)[None, :]).ravel()
              for n_up in _up_counts(norb, n_elec, sz2)]
    if not blocks:
        raise ValueError(f"empty sector N={n_elec}, 2Sz={sz2} for {norb} orbitals")
    return np.sort(np.concatenate(blocks))


class ManyBodyOperator:
    """Sparse Hermitian operator on one symmetry sector of the Fock space."""

    def __init__(self, matrix: sps.spmatrix, basis: np.ndarray, space: FockSpace,
                 n_elec: int, sz2: Optional[int], core: float = 0.0):
        matrix = matrix.tocsr()
        dev = abs(matrix - matrix.getH()).max()
        if dev > 1e-10:
            raise ValueError(f"sector Hamiltonian not Hermitian (deviation {dev:.2e})")
        self.matrix = matrix
        self.basis = basis
        self.space = space
        self.n_elec = n_elec
        self.sz2 = sz2
        self.core = core

    @property
    def dim(self) -> int:
        return self.basis.size


def _generator(basis: np.ndarray, p: int, q: int):
    """COO triplets (rows, cols, vals) of the spin-summed generator
    E_pq = sum_s f+_ps f_qs on the sorted sector basis, at most ``basis.size``
    entries per spin."""
    rows, cols, vals = [], [], []
    for spin in (0, 1):
        mp, mq = 2 * p + spin, 2 * q + spin
        if mp == mq:
            occ = ((basis >> mp) & 1) == 1
            idx = np.nonzero(occ)[0]
            rows.append(idx)
            cols.append(idx)
            vals.append(np.ones(idx.size))
            continue
        movable = (((basis >> mq) & 1) == 1) & (((basis >> mp) & 1) == 0)
        src = basis[movable]
        inter = src & ~(np.int64(1) << mq)
        sign = 1 - 2 * ((popcount(src & ((np.int64(1) << mq) - 1))
                         + popcount(inter & ((np.int64(1) << mp) - 1))) & 1)
        dst = inter | (np.int64(1) << mp)
        rows.append(np.searchsorted(basis, dst))
        cols.append(np.nonzero(movable)[0])
        vals.append(sign.astype(float))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def build_hamiltonian(source: Union[FcidumpData, HubbardParams], n_elec: int,
                      sz2: int = 0, *, nnz_cap: int = NNZ_CAP) -> ManyBodyOperator:
    """Sector-restricted sparse Hamiltonian from integrals or Hubbard parameters.

    ``nnz_cap`` bounds the memory: before the sector basis is enumerated,
    the generator entries the assembly may hold (2 * dim per touched E_pq,
    plus the identity) must fit under it, and so must the nonzeros of the
    assembled matrix as it grows.  Either excess raises ``ValueError``.
    """
    import scipy.sparse as sps

    data = source.integrals() if isinstance(source, HubbardParams) else source
    norb = data.norb

    # flat pair index k = p*norb + q; row k of eri2 holds (pq|rs) over rs.
    # Only the generators some integral touches are built.
    one_body = (data.h - 0.5 * np.einsum("pqqs->ps", data.eri)).ravel()
    eri2 = data.eri.reshape(norb * norb, norb * norb)
    touched = np.abs(eri2) > 1e-14
    keys = np.nonzero((np.abs(one_body) > 1e-14) | touched.any(axis=0)
                      | touched.any(axis=1))[0]
    dim = sector_dim(norb, n_elec, sz2)
    bound = (2 * keys.size + 1) * dim
    if bound > nnz_cap:
        raise ValueError(f"sector of dimension {dim} may hold {bound} generator "
                         f"entries, over the {nnz_cap} nonzero cap")
    basis = sector_basis(norb, n_elec, sz2)
    gens = [_generator(basis, *divmod(int(k), norb)) for k in keys]
    # the identity, last, carries the core energy
    gens.append((np.arange(dim), np.arange(dim), np.ones(dim)))

    # The concatenated triplets of all generators fix one sparsity pattern.
    # Column j of ``scatter`` sums generator j onto its slots, so any weighted
    # sum of generators is the CSR matrix with data ``scatter @ weights``.
    rows, cols, vals = (np.concatenate(x) for x in zip(*gens))
    slots, slot_of = np.unique(rows * dim + cols, return_inverse=True)
    owner = np.repeat(np.arange(len(gens)), [g[0].size for g in gens])
    scatter = sps.csr_matrix((vals, (slot_of, owner)), shape=(slots.size, len(gens)))
    indices, indptr = slots % dim, np.searchsorted(slots // dim, np.arange(dim + 1))

    def combine(weights):
        return sps.csr_matrix((scatter @ weights, indices, indptr), shape=(dim, dim))

    ham = combine(np.append(one_body[keys], data.core))
    for j in np.nonzero(touched.any(axis=1)[keys])[0]:
        r, c, v = gens[j]
        half_e_pq = sps.csr_matrix((0.5 * v, (r, c)), shape=(dim, dim))
        prod = half_e_pq @ combine(np.append(eri2[keys[j], keys], 0.0))
        prod.sort_indices()  # canonical operands make the sum a linear merge
        ham = ham + prod
        if ham.nnz > nnz_cap:
            raise ValueError(f"sector Hamiltonian exceeds the {nnz_cap} nonzero cap")
    ham.eliminate_zeros()
    return ManyBodyOperator(ham, basis, FockSpace(norb), n_elec, sz2, core=data.core)


@dataclass
class GroundStateResult:
    energy: float
    state: SectorState
    degenerate: bool
    gap: float
    residual: float


def ground_state(op: ManyBodyOperator, *, dense_cutoff: int = 300,
                 residual_tol: float = 1e-9) -> GroundStateResult:
    """Lowest eigenpair of a sector Hamiltonian.

    Dense diagonalization up to ``dense_cutoff``, implicitly restarted
    Lanczos from a fixed-seed start vector above it (residual pushed below
    ``residual_tol``).  A spectral gap under 1e-9 flags a degenerate ground
    level; the returned state is then just one ground vector.  The state is
    the sector vector over ``op.basis``, never lifted to the Fock space.

    The default cutoff is the measured crossover on Hubbard rings with one
    BLAS thread: dense ``eigh`` costs O(dim**3) and is as fast as Lanczos at
    dimension 225-300 (2-5 ms), but at 400 it takes 8-9 ms against 5-7 ms,
    at 784 about 45 ms against 4-8 ms and at 1225 about 180 ms against
    8-43 ms.  The two ground energies agree to 1e-14 there.  The crossover
    was measured on the sparse Hubbard matrices only.  A Lanczos matvec
    costs O(nnz), so denser Hamiltonians gain less: on the 784-dim N = 4
    sector of an 8-orbital dense-ERI FCIDUMP, about a quarter of whose
    entries are nonzero, Lanczos still halves the time dense ``eigh`` takes.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spsl

    h = op.matrix
    if op.dim == 1:
        energy, vec, gap = float(h[0, 0].real), np.ones(1), np.inf
    elif op.dim <= dense_cutoff:
        evals, evecs = sla.eigh(h.toarray(), subset_by_index=[0, 1])
        energy, vec = float(evals[0]), evecs[:, 0]
        gap = float(evals[1] - evals[0])
    else:
        k = min(4, op.dim - 1)
        # a seeded start vector makes the result repeatable; a constant one
        # could be orthogonal to a symmetric ground state
        v0 = np.random.default_rng(0).standard_normal(op.dim)
        evals, evecs = spsl.eigsh(h, k=k, which="SA", tol=1e-12, maxiter=20000, v0=v0)
        order = np.argsort(evals)
        energy, vec = float(evals[order[0]]), evecs[:, order[0]]
        gap = float(evals[order[1]] - evals[order[0]]) if k > 1 else np.inf
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if residual > residual_tol:
        raise RuntimeError(f"eigensolver residual {residual:.2e} above {residual_tol}")
    return GroundStateResult(energy, SectorState(op.space, op.basis, vec),
                             bool(gap < 1e-9), gap, residual)


def orbital_pair_entanglement(state: Union[SectorState, ManyBodyState], l: int, lp: int,
                              ssr: str = "N", **solver_kwargs) -> ent.EntanglementResult:
    """Accessible entanglement between two orbitals of a many-body state.

    The number-superselected value uses the closed sector formula (the state
    must carry the ring symmetries; violations raise).  The parity value is
    the relative entropy of entanglement of the pinched state from
    :func:`~orbent.entanglement.pssr_entanglement`: exact, with a proven gap,
    when the pair's state has the N, Sz and exchange symmetry of a ring
    eigenstate, and from the Frank-Wolfe solver with a heuristic gap
    otherwise.
    """
    rho = two_orbital_rdm(state, l, lp)
    kind = str(ssr).upper()
    if kind == "N":
        return ent.nssr_entanglement_dm(rho)
    if kind == "P":
        return ent.pssr_entanglement(rho, **solver_kwargs)
    raise ValueError(f"unknown superselection kind {ssr!r}")


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
    separation, parity- and number-superselected entanglement); only pairs
    with parity entanglement at least 1e-5 are tabulated.
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


def compare_with_reference(data: FcidumpData, n_elec: int, r_sep: float,
                           **solver_kwargs) -> dict:
    """Optional harness: solve user-supplied integrals and report deviations
    from the bundled table in both logarithm conventions, without asserting.

    The ground-state solve honors the nonzero cap of
    :func:`build_hamiltonian`.  With dense 16-orbital integrals the N = 2
    and 30 sectors (256 configurations) fit under it; N = 4 (14 400
    configurations, 7.4M generator entries) and every larger sector are
    refused before anything of the sector's size is allocated.
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
            res = orbital_pair_entanglement(gs.state, 0, d, ssr=ssr, **solver_kwargs)
            row[f"e_{ssr.lower()}"] = res.value
            ref = table.get(d)
            if ref is not None:
                ref_val = ref.e_pssr if ssr == "P" else ref.e_nssr
                row[f"dev_{ssr.lower()}_if_nats"] = res.value - ref_val
                row[f"dev_{ssr.lower()}_if_bits"] = res.value / ent.LN2 - ref_val
        report["rows"].append(row)
    return report
