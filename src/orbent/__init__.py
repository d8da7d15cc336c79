"""Physically accessible entanglement between localized fermionic orbitals.

Superselection rules forbid local observables that mix sectors of local
fermion parity (P) or particle number (N); only the entanglement surviving
the corresponding pinching channels can be extracted and used.  This package
builds the pinched two-orbital states of free and interacting electron
systems and quantifies their entanglement, in closed form for tight-binding
states and by convex minimization otherwise.  The N-SSR and P-SSR values
take one route: the pinched state splits into two-qubit blocks, each
solved on its own.  Diagonal blocks and X states, the only blocks of states
that commute with the pair's N and 2Sz, are solved exactly with a proven
gap; every other block goes to a Frank-Wolfe minimization whose duality
gap is exact only when its product-state oracle finds the global maximum,
so it is a heuristic bound.
"""

from .channels import (
    gn_local,
    gpi_local,
    run_swap_protocol,
    superselected_swap,
    swap_channel,
)
from .entanglement import (
    EntanglementResult,
    nssr_entanglement,
    nssr_entanglement_dm,
    pssr_entanglement,
    ree_numeric,
    relative_entropy,
    von_neumann_entropy,
)
from .fcidump import FcidumpData, parse_fcidump, read_fcidump, serialize_fcidump
from .fock import DensityMatrix, FockSpace, SectorState, two_orbital_rdm
from .freefermion import (
    DegenerateFermiLevel,
    diagonalize_one_body,
    peschel_block_entropy,
    slater_1rdm,
    wick_two_orbital_rdm,
)
from .interacting import (
    HubbardParams,
    ManyBodyOperator,
    build_hamiltonian,
    ground_state,
    orbital_pair_entanglement,
    reference_lookup,
    reference_table,
)
from .tightbinding import (
    TbQuery,
    TbResult,
    dispersion,
    dmin_asymptotic,
    dmin_exact,
    separable,
    tb_entanglement,
    w_kernel,
    w_kernel_finite,
)

__version__ = "0.1.0"
