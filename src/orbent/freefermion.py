"""Free-fermion machinery: one-body diagonalization, Slater 1RDMs, the
correlation-matrix block entropy, and the Wick construction of two-orbital
reduced states.  Those states are returned as density matrices alone; their
entanglement comes from :mod:`orbent.entanglement`.

Spinful systems are handled per spin channel: a single d x d matrix gamma
describes both channels of a spin-symmetric Slater determinant, with
gamma[j, i] = <f_i^dag f_j> and trace N per channel.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityMatrix, check_orbital_pair

_HERM_TOL = 1e-12
# Fermi-level gap below which the ground state, and its 1RDM, are not unique
_DEGENERACY_TOL = 1e-10
# one spin-symmetric 1RDM describes both spin channels
_SPIN_CHANNELS = 2


class DegenerateFermiLevel(ValueError):
    """The requested filling cuts through a degenerate one-body level."""


def diagonalize_one_body(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and the unitary U with U h U^dag diagonal."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("one-body matrix must be square")
    if np.max(np.abs(h - h.conj().T)) > _HERM_TOL:
        raise ValueError("one-body matrix must be Hermitian")
    energies, v = np.linalg.eigh(h)
    return energies, v.conj().T


def slater_1rdm(h, n_occ: int) -> np.ndarray:
    """1RDM of the n_occ-fermion ground state of a one-body Hamiltonian.

    The result is idempotent with trace n_occ (one spin channel).  A Fermi
    level degenerate within 1e-10 is rejected because the ground state, and
    hence the 1RDM, is then not unique.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    if not 0 <= n_occ <= d:
        raise ValueError(f"occupation {n_occ} outside [0, {d}]")
    energies, u = diagonalize_one_body(h)
    if 0 < n_occ < d and energies[n_occ] - energies[n_occ - 1] < _DEGENERACY_TOL:
        raise DegenerateFermiLevel(
            f"levels {n_occ - 1} and {n_occ} coincide "
            f"({energies[n_occ - 1]!r} vs {energies[n_occ]!r})")
    v_occ = u.conj().T[:, :n_occ]
    gamma = v_occ.conj() @ v_occ.T
    return 0.5 * (gamma + gamma.conj().T)


def peschel_block_entropy(gamma, orbitals) -> float:
    """Block entropy from the restricted 1RDM spectrum.

    The reduced state of a Slater determinant is Gaussian, so its entropy
    is the binary-mixing entropy of the restricted 1RDM eigenvalues,
    multiplied by the two identical spin channels.
    """
    orbitals = list(orbitals)
    if not orbitals:
        raise ValueError("orbital subset must be nonempty")
    gamma = np.asarray(gamma, dtype=complex)
    block = gamma[np.ix_(orbitals, orbitals)]
    nu = np.clip(np.linalg.eigvalsh(block).real, 0.0, 1.0)
    terms = np.zeros_like(nu)
    pos = nu > 0
    terms[pos] -= nu[pos] * np.log(nu[pos])
    hole = nu < 1
    terms[hole] -= (1 - nu[hole]) * np.log(1 - nu[hole])
    return float(_SPIN_CHANNELS * np.sum(terms))


def _two_mode_gaussian(occ_l: float, occ_lp: float, coh: complex) -> np.ndarray:
    """Single-spin two-mode Gaussian state in the basis |00>, |10>, |01>, |11>.

    Determined by Wick's theorem from the 2 x 2 correlation block: the double
    occupancy is occ_l * occ_lp - |coh|^2 and the one-particle coherence is
    the off-diagonal 1RDM element itself.
    """
    pair = occ_l * occ_lp - abs(coh) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - occ_l - occ_lp + pair
    rho[1, 1] = occ_l - pair
    rho[2, 2] = occ_lp - pair
    rho[3, 3] = pair
    rho[1, 2] = np.conj(coh)  # <|10><01|> = <f_lp^dag f_l>
    rho[2, 1] = coh
    return rho


# per-spin pair occupations (n_l, n_lp) encoded as 2*n_l + n_lp, mapped to the
# |00>, |10>, |01>, |11> ordering of _two_mode_gaussian
_PAIR_INDEX = np.array([0, 2, 1, 3])


def _graded_tables():
    """Gather tables of the graded product in the site-major basis.

    Basis index 4 * (n_l_up + 2 n_l_dn) + (n_lp_up + 2 n_lp_dn) reads its
    up- and down-spin factors from rows _PAIR_INDEX[2 n_l + n_lp] of
    _two_mode_gaussian and carries the regrouping sign (-1)^(n_lp_up * n_l_dn).
    Returns the two ``np.ix_`` gathers and the 16 x 16 table of sign products.
    """
    n = (np.arange(16)[:, None] >> np.array([2, 3, 0, 1])) & 1
    up = _PAIR_INDEX[2 * n[:, 0] + n[:, 2]]
    down = _PAIR_INDEX[2 * n[:, 1] + n[:, 3]]
    sign = np.where(n[:, 2] & n[:, 1], -1.0, 1.0)
    return np.ix_(up, up), np.ix_(down, down), np.multiply.outer(sign, sign)


_UP, _DOWN, _SIGNS = _graded_tables()


def two_orbital_state_from_block(occ_l: float, occ_lp: float, coh: complex) -> DensityMatrix:
    """Two-orbital reduced state of a spin-symmetric Slater determinant.

    Input is the per-spin correlation data of the pair: diagonal occupations
    and the off-diagonal element coh = <f_l^dag f_lp>.  The spinful state is
    the graded product of the two identical spin-channel Gaussian states;
    regrouping modes from (l up, lp up, l down, lp down) to site-major order
    contributes the fermionic sign (-1)^(n_lp_up * n_l_down) per basis ket.
    """
    rho_spin = _two_mode_gaussian(occ_l, occ_lp, coh)
    left, right = _SIGNS * rho_spin[_UP], rho_spin[_DOWN]
    # the complex product in real arithmetic: numpy's SIMD complex multiply
    # may fuse it into FMAs, which round differently from one entry at a time
    rho = np.empty((16, 16), dtype=complex)
    rho.real = left.real * right.real - left.imag * right.imag
    rho.imag = left.real * right.imag + left.imag * right.real
    return DensityMatrix(rho, (4, 4))


def wick_two_orbital_rdm(gamma, l: int, lp: int) -> DensityMatrix:
    """Two-orbital reduced state of the spin-symmetric Slater state whose
    spin channels both have the 1RDM gamma."""
    gamma = np.asarray(gamma, dtype=complex)
    check_orbital_pair(gamma.shape[0], l, lp)
    occ_l = float(gamma[l, l].real)
    occ_lp = float(gamma[lp, lp].real)
    # gamma[j, i] = <f_i^dag f_j>, so <f_l^dag f_lp> sits at [lp, l]
    coh = complex(gamma[lp, l])
    return two_orbital_state_from_block(occ_l, occ_lp, coh)
