"""Superselection pinching channels and the superselected SWAP protocol.

Local factors are either a 2-dim spinless-mode Fock space / qubit (basis
|0>, |1>) or the 4-dim spinful-orbital Fock space (basis |0>, |up>, |down>,
|updown>).  Parity splits {|0>}, {|1>} in the 2-dim case and {|0>, |updown>},
{|up>, |down>} in the 4-dim case.

All channels act by masking matrix elements between different local sector
labels, which makes idempotence and trace preservation exact.  Channels are
pure functions on :class:`~orbent.fock.DensityMatrix` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, _factor_labels, _permute_factors


def _pinch(rho: DensityMatrix, factors, kind: str) -> DensityMatrix:
    """Zero matrix elements between basis states whose labels differ on ``factors``."""
    labels = _factor_labels(rho.dims, kind, None if factors is None else tuple(factors))
    mat = rho.mat * (labels[:, None, :] == labels[None, :, :]).all(axis=-1)
    return DensityMatrix(mat, rho.dims)


def gpi_local(rho: DensityMatrix, factors=None) -> DensityMatrix:
    """Parity pinching on the designated local factors (all by default)."""
    return _pinch(rho, factors, "P")


def gn_local(rho: DensityMatrix, factors=None) -> DensityMatrix:
    """Particle-number pinching on the designated local factors (all by default)."""
    return _pinch(rho, factors, "N")


def swap_channel(rho: DensityMatrix, i: int = 0, j: int = 1) -> DensityMatrix:
    """Exchange factors i and j elementwise: |a><b| x |c><d| -> |c><d| x |a><b|."""
    if rho.dims[i] != rho.dims[j]:
        raise ValueError(f"cannot swap factors of dimension {rho.dims[i]} and {rho.dims[j]}")
    perm = list(range(len(rho.dims)))
    perm[i], perm[j] = perm[j], perm[i]
    return DensityMatrix(_permute_factors(rho.mat, rho.dims, perm), rho.dims)


def superselected_swap(rho: DensityMatrix, orbital: int = 0, qubit: int = 1) -> DensityMatrix:
    """Physically allowed swap: parity pinch on the orbital factor, swap, pinch again."""
    out = gpi_local(rho, (orbital,))
    out = swap_channel(out, orbital, qubit)
    return gpi_local(out, (orbital,))


@dataclass
class SwapProtocolResult:
    """Outcome of the two-party superselected entanglement swap."""

    qubit_state: DensityMatrix
    orbital_state: DensityMatrix
    erased_orbital_coherence: float
    erased_qubit_coherence: float
    simulation_residual: float


def run_swap_protocol(rho_ab: DensityMatrix, sigma_ab: DensityMatrix) -> SwapProtocolResult:
    """Both parties apply the superselected swap between their orbital and register.

    The registers end up holding the parity-pinched two-orbital state and the
    orbitals the pinched register state.  The closed form is cross-checked
    against an explicit four-factor simulation of the two local channels; the
    maximal entrywise deviation is reported as ``simulation_residual``.
    """
    if len(rho_ab.dims) != 2 or len(sigma_ab.dims) != 2:
        raise ValueError("protocol inputs must be bipartite")
    if rho_ab.dims != sigma_ab.dims:
        raise ValueError(
            f"register dimensions {sigma_ab.dims} must match orbital dimensions {rho_ab.dims}")

    rho_filtered = gpi_local(rho_ab)
    sigma_filtered = gpi_local(sigma_ab)

    # four-factor simulation on (phi_A, q_A, phi_B, q_B)
    da, db = rho_ab.dims
    rho4 = rho_ab.mat.reshape(da, db, da, db)
    sig4 = sigma_ab.mat.reshape(da, db, da, db)
    omega = np.einsum("abAB,qpQP->aqbpAQBP", rho4, sig4).reshape(
        (da * da * db * db,) * 2)
    state = DensityMatrix(omega, (da, da, db, db))
    state = superselected_swap(state, orbital=0, qubit=1)
    state = superselected_swap(state, orbital=2, qubit=3)
    qubit_sim = state.partial_trace((1, 3))
    orbital_sim = state.partial_trace((0, 2))

    residual = max(
        float(np.max(np.abs(qubit_sim.mat - rho_filtered.mat))),
        float(np.max(np.abs(orbital_sim.mat - sigma_filtered.mat))),
    )
    return SwapProtocolResult(
        qubit_state=rho_filtered,
        orbital_state=sigma_filtered,
        erased_orbital_coherence=float(np.linalg.norm(rho_ab.mat - rho_filtered.mat)),
        erased_qubit_coherence=float(np.linalg.norm(sigma_ab.mat - sigma_filtered.mat)),
        simulation_residual=residual,
    )
