"""Occupation-number Fock space for d spinful orbitals.

Conventions, fixed globally and referenced by every sign computation:

* Spin-orbital modes are interleaved site-major with up before down, so
  mode p = 2*site + spin with spin 0 = up, 1 = down (sites are 0-based).
* A basis configuration is the integer whose bit p holds the occupation
  of mode p.  The corresponding ket is the ordered creation string

      |n> = (f_0^dag)^{n_0} (f_1^dag)^{n_1} ... |vac>,

  so acting with f_p^(dag) picks up the sign (-1)^(occupied modes below p).
* Density matrices over tensor factors use numpy's kron/reshape order:
  the first factor is the most significant "digit" of the flat index.
  The local basis of one spinful orbital is |0>, |up>, |down>, |updown>,
  i.e. local index alpha = n_up + 2*n_down.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10

UP, DOWN = 0, 1
# most spinful orbitals of a FockSpace, and so of any integrals or ring that
# reaches exact diagonalization (a 4**16 Fock space, 32 modes per configuration)
MAX_ORBITALS = 16


def popcount(x):
    """Number of set bits, elementwise."""
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


class FockSpace:
    """Basis bookkeeping for ``n_spatial`` spinful orbitals (dimension 4**d)."""

    def __init__(self, n_spatial: int):
        if not 1 <= n_spatial <= MAX_ORBITALS:
            raise ValueError(f"n_spatial must be in [1, {MAX_ORBITALS}], got {n_spatial}")
        self.n_spatial = n_spatial
        self.n_modes = 2 * n_spatial
        self.dim = 4**n_spatial

    def mode(self, site: int, spin: int) -> int:
        """Spin-orbital index of (site, spin); spin 0 = up, 1 = down."""
        if not 0 <= site < self.n_spatial:
            raise ValueError(f"site {site} out of range for d={self.n_spatial}")
        if spin not in (0, 1):
            raise ValueError("spin must be 0 (up) or 1 (down)")
        return 2 * site + spin

    def __eq__(self, other):
        return isinstance(other, FockSpace) and other.n_spatial == self.n_spatial

    def __repr__(self):
        return f"FockSpace(n_spatial={self.n_spatial})"


class SectorState:
    """A many-body state: amplitudes over a sorted list of configurations.

    ``basis`` is typically one (N, 2Sz) sector, the domain of a ground state
    from :func:`orbent.interacting.ground_state`.  Configurations outside
    ``basis`` carry zero amplitude, so nothing of the Fock dimension is
    stored; a state over the whole Fock space is the ``SectorState`` over
    its nonzero configurations.
    """

    def __init__(self, space: FockSpace, basis: np.ndarray, amps):
        amps = np.asarray(amps)
        if amps.shape != basis.shape:
            raise ValueError(f"amplitude vector must have shape {basis.shape}")
        self.space = space
        self.basis = basis
        self.amps = amps

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


# ---------------------------------------------------------------------------
# density matrices


class DensityMatrix:
    """Hermitian, PSD, unit-trace operator over a declared factor structure.

    ``dims`` lists the local dimensions in kron order (first factor most
    significant).  The constructor always validates: entries must be finite;
    eigenvalues slightly below zero but above the PSD floor are clipped to
    zero and the state renormalized (logged at debug level); anything below
    the floor is rejected.  States valid by construction, such as partial
    traces, are built through ``_trusted`` without re-validating.
    """

    def __init__(self, mat, dims):
        mat = np.asarray(mat, dtype=complex)
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        dims = tuple(int(d) for d in dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if int(np.prod(dims)) != mat.shape[0]:
            raise ValueError(f"dims {dims} inconsistent with matrix size {mat.shape[0]}")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian (deviation {herm:.2e})")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < PSD_FLOOR:
            raise ValueError(f"negative eigenvalue {evals[0]:.2e} below PSD floor")
        if evals[0] < -5e-16:
            logger.debug("clipping eigenvalues >= %.2e to zero and renormalizing", evals[0])
            w, v = np.linalg.eigh(mat)
            w = np.clip(w, 0.0, None)
            mat = (v * w) @ v.conj().T
            mat /= np.trace(mat).real
        self.mat = mat
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def partial_trace(self, keep) -> "DensityMatrix":
        """Trace out every factor not listed in ``keep`` (order preserved)."""
        keep = tuple(keep)
        n = len(self.dims)
        tensor = self.mat.reshape(self.dims + self.dims)
        traced = sorted(set(range(n)) - set(keep), reverse=True)
        for ax in traced:
            tensor = np.trace(tensor, axis1=ax, axis2=ax + tensor.ndim // 2)
        kept_dims = tuple(self.dims[i] for i in sorted(keep))
        d = int(np.prod(kept_dims))
        mat = tensor.reshape(d, d)
        if tuple(sorted(keep)) != keep:
            # factor currently at slot i (the i-th smallest index) belongs at
            # the slot where it appears in ``keep``
            perm = tuple(np.argsort(keep))
            mat = _permute_factors(mat, kept_dims, perm)
            kept_dims = tuple(self.dims[i] for i in keep)
        return _trusted(mat, kept_dims)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def _trusted(mat: np.ndarray, dims) -> DensityMatrix:
    """Wrap a matrix that is a valid state by construction, skipping the
    eigen-validation of the constructor."""
    rho = object.__new__(DensityMatrix)
    rho.mat = mat
    rho.dims = tuple(dims)
    return rho


def _permute_factors(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a square matrix; perm[i] = new position of factor i."""
    n = len(dims)
    tensor = mat.reshape(tuple(dims) + tuple(dims))
    dest = list(perm) + [p + n for p in perm]
    tensor = np.moveaxis(tensor, list(range(2 * n)), dest)
    d = int(np.prod(dims))
    return tensor.reshape(d, d)


def pure_state_dm(vec, dims) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


# ---------------------------------------------------------------------------
# sector labels


# the one table of local sector labels (N of each basis state of a 2- or
# 4-dim Fock factor); the parity label is N % 2
_LOCAL_N = {2: np.array([0, 1]), 4: np.array([0, 1, 1, 2])}


@functools.lru_cache(maxsize=None)
def _factor_labels(dims, kind: str, factors=None) -> np.ndarray:
    """Sector label of each listed factor (all by default) at each flat kron index.

    ``kind`` is "N" (occupation) or "P" (parity, N % 2); anything else
    raises ``ValueError``.  One column per listed factor; only those need a
    2- or 4-dim Fock factor.  The result is cached per argument tuple and
    read-only.
    """
    if kind not in ("N", "P"):
        raise ValueError(f"unknown sector label kind {kind!r}")
    factors = range(len(dims)) if factors is None else factors
    local = np.unravel_index(np.arange(math.prod(dims)), dims)
    labels = np.empty((math.prod(dims), len(factors)), dtype=np.int64)
    for col, f in enumerate(factors):
        if not 0 <= f < len(dims):
            raise ValueError(f"factor index {f} out of range for dims {dims}")
        if dims[f] not in _LOCAL_N:
            raise ValueError(f"no occupation labels for local dimension {dims[f]}")
        column = _LOCAL_N[dims[f]][local[f]]
        labels[:, col] = column % 2 if kind == "P" else column
    labels.flags.writeable = False
    return labels


# ---------------------------------------------------------------------------
# two-orbital reduced density matrix


def check_orbital_pair(n_spatial: int, l: int, lp: int) -> None:
    """Raise ``ValueError`` unless l and lp are two different orbitals of n_spatial."""
    if l == lp:
        raise ValueError("orbital indices must differ")
    for x in (l, lp):
        if not 0 <= x < n_spatial:
            raise ValueError(f"orbital {x} out of range for d={n_spatial}")


def two_orbital_rdm(state: SectorState, l: int, lp: int) -> DensityMatrix:
    """Reduced state of orbitals (l, lp) as a 16 x 16 density matrix.

    The two-orbital basis is |alpha>_l (x) |beta>_lp with alpha, beta in
    {0, up, down, updown}.  Entries are the expectation values of the
    subsystem transition operators after moving the four subsystem modes
    to the front of the ordered creation string (fermionic reordering
    signs included).  Coherences between even and odd total subsystem
    parity are not fixed by parity-even observables and are set to zero.
    psi psi^dag masked by parity is PSD by construction, so it is returned
    unvalidated; the pinch that every entanglement route applies validates it.

    Only the configurations of ``state.basis`` are visited, and the
    environment is indexed by the distinct environment strings among them,
    so the cost scales with the size of the basis, not with the Fock
    dimension.
    """
    space = state.space
    check_orbital_pair(space.n_spatial, l, lp)
    if not abs(state.norm - 1.0) <= 1e-10:
        raise ValueError("state must be normalized")

    sub_modes = [space.mode(l, UP), space.mode(l, DOWN),
                 space.mode(lp, UP), space.mode(lp, DOWN)]
    sub_mask = sum(1 << p for p in sub_modes)

    idx, amps = state.basis, state.amps
    bits = [(idx >> p) & 1 for p in sub_modes]

    # local index alpha = n_up + 2*n_down per orbital, flat = 4*alpha_l + alpha_lp
    sub_idx = 4 * (bits[0] + 2 * bits[1]) + (bits[2] + 2 * bits[3])

    # one column per distinct environment string of the support
    envs, env_col = np.unique(idx & ~sub_mask, return_inverse=True)

    # permutation sign: pull each occupied subsystem mode to the front in turn
    exponent = np.zeros(idx.size, dtype=np.int64)
    pulled = 0
    for bit, p in zip(bits, sub_modes):
        below = idx & ((1 << p) - 1) & ~pulled
        exponent += bit * popcount(below)
        pulled |= 1 << p
    sign = 1.0 - 2.0 * (exponent & 1)

    psi = np.zeros((16, envs.size), dtype=complex)
    psi[sub_idx, env_col] = sign * amps
    rho = psi @ psi.conj().T

    parity = _factor_labels((4, 4), "P").sum(axis=1) % 2
    rho *= np.equal.outer(parity, parity)
    rho = 0.5 * (rho + rho.conj().T)
    # within the norm tolerance, rho may still miss the trace check of the
    # pinch that follows; the reduced state of |psi>/|psi| is rho/Tr rho
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        rho /= tr
    return _trusted(rho, (4, 4))
