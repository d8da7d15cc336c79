"""Brute-force reference for the occupation-number Fock space.

Every configuration of the 4**norb space is enumerated, and the fermionic
creation and annihilation operators act on the whole amplitude vector, with
the ordering and sign conventions of :mod:`orbent.fock`.  States are
:class:`orbent.fock.SectorState`s over their nonzero configurations, the
package's one state type; the sector-restricted and Wick constructions of
the package are tested against them.

A helper module, not a test module: pytest does not collect it, and the
tests import it as ``fockref`` because their directory is on ``sys.path``.
"""

import numpy as np

from orbent.fock import FockSpace, SectorState, _factor_labels, popcount
from orbent.freefermion import _DEGENERACY_TOL, DegenerateFermiLevel, diagonalize_one_body


def configs(space: FockSpace) -> np.ndarray:
    """Every configuration of the Fock space, in index order."""
    return np.arange(space.dim, dtype=np.int64)


def config_n(space: FockSpace) -> np.ndarray:
    """Total particle number of every configuration."""
    return popcount(configs(space))


def config_sz2(space: FockSpace) -> np.ndarray:
    """Twice the magnetization (n_up - n_down) of every configuration."""
    up_mask = sum(1 << (2 * s) for s in range(space.n_spatial))
    idx = configs(space)
    return popcount(idx & up_mask) - popcount(idx & (up_mask << 1))


def fock_state(space: FockSpace, amps) -> SectorState:
    """The state with Fock amplitude vector ``amps``, over its nonzero configurations."""
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (space.dim,):
        raise ValueError(f"amplitude vector must have shape ({space.dim},)")
    idx = np.flatnonzero(amps)
    return SectorState(space, idx, amps[idx])


def amplitudes(state: SectorState) -> np.ndarray:
    """The Fock amplitude vector of ``state``."""
    out = np.zeros(state.space.dim, dtype=complex)
    out[state.basis] = state.amps
    return out


def vacuum_state(space: FockSpace) -> SectorState:
    return basis_state(space, 0)


def basis_state(space: FockSpace, config: int) -> SectorState:
    return SectorState(space, np.array([config], dtype=np.int64), np.ones(1, dtype=complex))


def _jw_sign(idx: np.ndarray, p: int) -> np.ndarray:
    below = popcount(idx & ((1 << p) - 1))
    return 1.0 - 2.0 * (below & 1)


def _apply_mode(state: SectorState, p: int, occupied: int) -> SectorState:
    """Move a fermion into (``occupied`` = 0) or out of (1) mode p."""
    space = state.space
    if not 0 <= p < space.n_modes:
        raise ValueError(f"mode index {p} out of range (n_modes={space.n_modes})")
    idx = configs(space)
    src = idx[((idx >> p) & 1) == occupied]
    out = np.zeros(space.dim, dtype=complex)
    out[src ^ (1 << p)] = _jw_sign(src, p) * amplitudes(state)[src]
    return fock_state(space, out)


def apply_create(state: SectorState, p: int) -> SectorState:
    """f_p^dag acting on ``state`` (unnormalized image; zero if p occupied)."""
    return _apply_mode(state, p, 0)


def apply_annihilate(state: SectorState, p: int) -> SectorState:
    """f_p acting on ``state`` (unnormalized image; zero if p empty)."""
    return _apply_mode(state, p, 1)


def apply_operator_string(ops, state: SectorState) -> SectorState:
    """Apply a product of creation/annihilation operators.

    ``ops`` lists the operators left to right in operator order, e.g.
    ``[("create", 2), ("create", 0)]`` means f_2^dag f_0^dag, so the last
    entry acts on the state first.  Returns the unnormalized image.
    """
    out = state
    for kind, p in reversed(list(ops)):
        if kind in ("create", "+"):
            out = apply_create(out, p)
        elif kind in ("annihilate", "-"):
            out = apply_annihilate(out, p)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
    return out


def block_entropy(state: SectorState, block) -> float:
    """Entropy of a sub-lattice via dense partial trace of the Fock state.

    The kept modes are pulled to the front of the ordered creation string;
    the permutation signs do not factorize between block and environment
    for interleaved blocks and must be carried explicitly.
    """
    sp = state.space
    keep_modes = sorted(sp.mode(l, s) for l in block for s in (0, 1))
    env_modes = [p for p in range(sp.n_modes) if p not in keep_modes]
    idx = configs(sp)
    sub = np.zeros(sp.dim, dtype=np.int64)
    for pos, p in enumerate(keep_modes):
        sub |= ((idx >> p) & 1) << pos
    env = np.zeros(sp.dim, dtype=np.int64)
    for pos, p in enumerate(env_modes):
        env |= ((idx >> p) & 1) << pos
    exponent = np.zeros(sp.dim, dtype=np.int64)
    pulled = 0
    for p in keep_modes:
        below = idx & ((1 << p) - 1) & ~pulled
        exponent += ((idx >> p) & 1) * popcount(below)
        pulled |= 1 << p
    sign = 1.0 - 2.0 * (exponent & 1)
    psi = np.zeros((1 << len(keep_modes), 1 << len(env_modes)), dtype=complex)
    psi[sub, env] = sign * amplitudes(state)
    lam = np.linalg.svd(psi, compute_uv=False) ** 2
    lam = lam[lam > 1e-16]
    return float(-np.sum(lam * np.log(lam)))


def slater_fock_state(h, n_per_spin: int) -> SectorState:
    """Explicit Fock-space Slater determinant with both spin channels filled.

    Brute-force companion to the Wick route: applies the occupied
    eigenmode creation operators to the vacuum, one spin channel at a time.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    energies, u = diagonalize_one_body(h)
    if 0 < n_per_spin < d and energies[n_per_spin] - energies[n_per_spin - 1] < _DEGENERACY_TOL:
        raise DegenerateFermiLevel("degenerate Fermi level: many-body ground state not unique")
    space = FockSpace(d)
    state = vacuum_state(space)
    for spin in (0, 1):
        for k in range(n_per_spin):
            coeffs = u[k]  # c_k^dag = sum_j U_kj f_j^dag, same orbitals as slater_1rdm
            acc = np.zeros(space.dim, dtype=complex)
            for j in range(d):
                if abs(coeffs[j]) < 1e-300:
                    continue
                acc += coeffs[j] * amplitudes(apply_create(state, space.mode(j, spin)))
            state = fock_state(space, acc)
    norm = state.norm
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"Slater construction lost normalization ({norm!r})")
    return SectorState(space, state.basis, state.amps / norm)


def sector_ground_level(matrix):
    """Dense reference for a sector Hamiltonian's ground level.

    Returns (eigenvalues, psi): every eigenvalue of ``np.linalg.eigh`` on
    the dense matrix, and psi = P v0 / |P v0|, with v0 the start vector
    ``default_rng(0).standard_normal(dim)`` of ``ground_state`` and P the
    projector onto the eigenvectors within 1e-9 of the lowest eigenvalue,
    the degeneracy rule of ``ground_state``.
    On a degenerate level psi is the vector that the level and v0 define;
    on a simple one it is the ground vector with the sign of its overlap
    with v0.
    """
    evals, evecs = np.linalg.eigh(matrix.toarray())
    level = evecs[:, evals - evals[0] < 1e-9]
    v0 = np.random.default_rng(0).standard_normal(evals.size)
    psi = level @ (level.T @ v0)
    return evals, psi / np.linalg.norm(psi)


def reflection_operator() -> np.ndarray:
    """Fermionic exchange of the two orbitals of a (4, 4) pair state,
    |a,b> -> (-1)^(N_a N_b) |b,a>."""
    parity = _factor_labels((4, 4), "P")
    flat = np.arange(16)
    r = np.zeros((16, 16))
    r[4 * (flat % 4) + flat // 4, flat] = 1.0 - 2.0 * parity[:, 0] * parity[:, 1]
    return r


REFLECTION = reflection_operator()
