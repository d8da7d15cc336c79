"""Closed-form orbital-orbital entanglement for the periodic tight-binding chain.

Everything here is analytic: the cosine dispersion, the thermodynamic-limit
1RDM kernel W(d, eta) = sin(pi d eta)/(pi d) and its finite-ring variant, the
number-superselected entanglement through the sector parameters

    A = single^2,   B = W^2,   r = 3A - 3B,   t = A + B

(single = eta (1 - eta) + W^2, the per-spin weight of one orbital occupied),
the small-filling asymptote, the separability inequality, and the minimal
disentangling separation with its large-d estimate.

The parity-superselected value is exact too, with no density matrix: the
pair state is the graded product of two identical two-mode Gaussian states,
one per spin, so its two parity blocks are two-qubit X states whose weights
are products of the per-spin weights of ``_two_mode_weights`` (``pssr_point``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .entanglement import GAP_TOL, EntanglementResult, _x_state_ree, nssr_entanglement
from .freefermion import _two_mode_weights

SQRT2 = math.sqrt(2.0)
# nearest-neighbor hopping of the ring, the unit of the dispersion -cos k
HOPPING = 0.5
# separations the disentangling scan of ``dmin_exact`` may visit
_DMIN_SCAN_CAP = 10_000_000


def ring_one_body(n_sites: int) -> np.ndarray:
    """One-body matrix of the periodic chain, -HOPPING on nearest-neighbor bonds."""
    if n_sites < 2:
        raise ValueError("need at least two sites")
    h = np.zeros((n_sites, n_sites))
    for l in range(n_sites - 1):
        h[l, l + 1] -= HOPPING
        h[l + 1, l] -= HOPPING
    if n_sites > 2:
        h[0, n_sites - 1] -= HOPPING
        h[n_sites - 1, 0] -= HOPPING
    return h


def dispersion(k: int, n_sites: int) -> float:
    """Single-particle energy -cos(2 pi k / L) of momentum k on an L-ring."""
    limit = math.ceil((n_sites - 1) / 2)
    if not -limit <= k <= limit:
        raise ValueError(f"momentum {k} outside the Brillouin range [-{limit}, {limit}]")
    return -math.cos(2.0 * math.pi * k / n_sites)


def w_kernel(d: int, eta: float) -> float:
    """Thermodynamic-limit off-diagonal 1RDM element sin(pi d eta)/(pi d)."""
    if d < 1:
        raise ValueError("separation must be a positive integer")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("filling fraction must lie in [0, 1]")
    if eta in (0.0, 1.0):
        return 0.0  # sin(pi d eta) vanishes exactly at the band edges
    return math.sin(math.pi * d * eta) / (math.pi * d)


def w_kernel_finite(d: int, n_elec: int, n_sites: int) -> float:
    """Finite-ring off-diagonal 1RDM element, (1/L) sin(w N/4)/sin(w/2), w = 2 pi d/L."""
    if n_elec == 0:
        return 0.0
    if n_elec % 4 != 2:
        raise ValueError("finite-ring fillings need N = 4 k_max + 2 for a unique ground state")
    if d % n_sites == 0:
        return n_elec / (2.0 * n_sites)
    if d * n_elec % (2 * n_sites) == 0:
        # sin(pi d N / (2L)) is exactly 0; math.sin(pi k) leaves ~1e-16
        return 0.0
    omega = 2.0 * math.pi * d / n_sites
    return math.sin(omega * n_elec / 4.0) / (n_sites * math.sin(omega / 2.0))


@dataclass(frozen=True)
class TbQuery:
    """Filling fraction and orbital separation, optionally on a finite ring."""

    eta: float
    d: int
    n_sites: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("filling fraction must lie in [0, 1]")
        if self.d < 1:
            raise ValueError("separation must be a positive integer")
        if self.n_sites is not None:
            if self.n_sites < 2:
                raise ValueError(f"a finite ring needs at least 2 sites, got {self.n_sites}")
            n = self.n_elec
            if abs(n - 2 * self.n_sites * self.eta) > 1e-9:
                raise ValueError(
                    f"eta={self.eta} does not give an integer electron count on "
                    f"{self.n_sites} sites")
            if n % 4 != 2:
                raise ValueError("finite rings need N = 4 k_max + 2 electrons")
            if not 1 <= self.d <= self.n_sites // 2:
                raise ValueError(f"separation must lie in [1, {self.n_sites // 2}]")

    @property
    def n_elec(self) -> int:
        if self.n_sites is None:
            raise ValueError("electron count is only defined for finite rings")
        return round(2 * self.n_sites * self.eta)


@dataclass(frozen=True)
class TbResult:
    """Kernel, sector parameters and entanglement of one tight-binding query."""

    eta: float
    d: int
    w: float
    a: float
    b: float
    r: float
    t: float
    e_nssr: float
    entangled: bool
    provenance: str


def _query_kernel(query: TbQuery) -> tuple[float, str]:
    """The query's 1RDM kernel W, thermodynamic or on its finite ring, and
    which of the two it is."""
    if query.n_sites is None:
        return w_kernel(query.d, query.eta), "thermodynamic"
    return w_kernel_finite(query.d, query.n_elec, query.n_sites), "finite-L"


def _entangled(single: float, w: float) -> bool:
    """The single-occupancy weight eta (1 - eta) + W^2 below sqrt(2)|W|."""
    return single < SQRT2 * abs(w)


def tb_entanglement(query: TbQuery) -> TbResult:
    """Closed-form number-superselected entanglement between two orbitals;
    A is the squared per-spin single-occupancy weight, B = W^2."""
    w, provenance = _query_kernel(query)
    single = _two_mode_weights(query.eta, query.eta, w)[1]
    a, b = single * single, w * w
    r, t = 3.0 * (a - b), a + b
    e = nssr_entanglement(max(r, 0.0), t)
    return TbResult(eta=query.eta, d=query.d, w=w, a=a, b=b, r=max(r, 0.0), t=t,
                    e_nssr=e, entangled=_entangled(single, w), provenance=provenance)


def asymptotic_small_eta(eta: float, d: int) -> float:
    """Leading small-filling behavior 2 ln(2) eta^2, valid for eta << 1/d."""
    if eta * d >= 0.05:
        warnings.warn(
            f"eta*d = {eta * d:.3g} is not << 1; the quadratic asymptote degrades",
            stacklevel=2)
    return 2.0 * math.log(2.0) * eta * eta


def separable(eta: float, d: int) -> bool:
    """Exact separability inequality eta^2 - eta <= W^2 - sqrt(2)|W|, that
    is single >= sqrt(2)|W| for the single-occupancy weight of A."""
    w = w_kernel(d, eta)
    return not _entangled(_two_mode_weights(eta, eta, w)[1], w)


class DminExact(NamedTuple):
    value: int
    trivially_separable: bool


def dmin_exact(eta: float) -> DminExact:
    """First separation from which every orbital pair is separable.

    The returned value is one past the last entangled separation: the pair
    at value - 1 is entangled, and every pair at value or beyond is
    separable.  The sudden-death point, where the separability inequality
    turns over as a function of a real separation, therefore lies in the
    half-open interval (value - 1, value].  The kernel oscillates in d, but
    its envelope |W| <= 1/(pi d) guarantees separability from a known
    separation on, so the scan runs backward from there and stops at the
    first entangled separation.  At eta = 0 or 1 every pair is separable
    and the result 1 is flagged.

    With q = eta (1 - eta) and x = 1/(pi d), the envelope test is
    x^2 - sqrt(2) x + q >= 0, which holds from the first d with x at or
    below the smaller root x- = 2q/(sqrt2 + sqrt(2 - 4q)), that is from
    d = ceil(1/(pi x-)) on; the scan starts there.  Fillings whose start
    lies beyond 10^7 separations (eta below about 4.5e-8) raise
    ``ValueError``.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("filling fraction must lie in [0, 1]")
    if eta == 0.0 or eta == 1.0:
        return DminExact(1, True)
    q = eta * (1.0 - eta)
    start = math.ceil((SQRT2 + math.sqrt(2.0 - 4.0 * q)) / (2.0 * math.pi * q))
    if start > _DMIN_SCAN_CAP:
        raise ValueError(f"filling {eta!r} needs a disentangling scan over "
                         f"{start} separations, above the cap of {_DMIN_SCAN_CAP}")
    for d in range(start, 0, -1):
        if not separable(eta, d):
            return DminExact(d + 1, False)
    return DminExact(1, False)


def dmin_asymptotic(eta: float) -> float:
    """Large-d estimate sqrt(2) / (pi eta (1 - eta)) of the disentangling distance."""
    if not 0.0 < eta < 1.0:
        raise ValueError("filling fraction must lie strictly inside (0, 1)")
    return SQRT2 / (math.pi * eta * (1.0 - eta))


def _eta_grid(eta_min: float, eta_max: float, points: int, scale: str) -> np.ndarray:
    """Filling grid of a scan, evenly spaced on a "linear" or "log" scale;
    errors name the command-line flag of the bad argument."""
    if points < 1:
        raise ValueError(f"--points must be at least 1, got {points}")
    if scale == "linear":
        return np.linspace(eta_min, eta_max, points)
    if scale == "log":
        for flag, eta in (("--eta-min", eta_min), ("--eta-max", eta_max)):
            if not eta > 0.0:
                raise ValueError(f"{flag} must be positive on a log scale, got {eta!r}")
        return np.logspace(math.log10(eta_min), math.log10(eta_max), points)
    raise ValueError(f"unknown scale {scale!r}")


def scan_entanglement(d_list, eta_min: float = 1e-4, eta_max: float = 1.0 - 1e-4,
                      points: int = 2001, scale: str = "linear", pssr: bool = False):
    """Entanglement-vs-filling table: one row per (eta, d), eta outer, d inner.

    Rows carry the closed-form number-superselected value, and with
    ``pssr`` the parity-superselected one of ``pssr_point`` as "E_pssr".
    """
    rows = []
    for eta in _eta_grid(eta_min, eta_max, points, scale):
        for d in d_list:
            query = TbQuery(eta=float(eta), d=int(d))
            row = {"eta": query.eta, "d": query.d, "E_nssr": tb_entanglement(query).e_nssr}
            if pssr:
                row["E_pssr"] = pssr_point(query).value
            rows.append(row)
    return rows


def pssr_point(query: TbQuery) -> EntanglementResult:
    """Parity-superselected entanglement of one tight-binding orbital pair,
    on the kernel of :func:`tb_entanglement`, from the weights of its
    parity blocks.

    Per spin, the pair is empty with weight e0, singly occupied on either
    orbital with e1 and doubly occupied with pair, all from
    :func:`~orbent.freefermion._two_mode_weights`, with coherence W between
    the two singles.  The even-even block then has corners e0^2 and pair^2,
    the odd-odd block corners pair e0 and pair e0, and both the middle
    weights e1^2 +- W^2: two X states with equal middle diagonals, each
    solved by :func:`~orbent.entanglement._x_state_ree` and weighted by its
    trace.  The mixed-parity blocks are diagonal and add 0.  Where a kernel
    rounded one float step past eta makes pair or e0 negative, they are
    clamped at 0, and W^2 at e1^2.  Since
    :func:`~orbent.freefermion.two_orbital_state_from_block` takes the same
    weights, :func:`~orbent.entanglement.pssr_entanglement` on that state
    agrees to round-off.  The result has method "x-state", a proven gap and
    no iterations, and is ``converged`` when the gap is at most
    :data:`~orbent.entanglement.GAP_TOL`.
    """
    w, _ = _query_kernel(query)
    e0, e1, _, pair = _two_mode_weights(query.eta, query.eta, w)
    e0, pair = max(e0, 0.0), max(pair, 0.0)
    single = e1 * e1
    coh = min(w * w, single)
    value = gap = 0.0
    for corner0, corner1 in ((e0 * e0, pair * pair), (pair * e0, e0 * pair)):
        p = corner0 + single + single + corner1
        if p > 0.0:
            val, _, block_gap = _x_state_ree(corner0 / p, corner1 / p, (single + coh) / p,
                                             (single - coh) / p)
            value, gap = value + p * val, gap + p * block_gap
    return EntanglementResult(value=value, ssr="P", method="x-state", gap=gap,
                              converged=gap <= GAP_TOL)


def scan_dmin(eta_min: float = 1e-3, eta_max: float = 0.5, points: int = 60,
              scale: str = "log"):
    """Disentangling-distance table with the analytic estimate alongside."""
    return [{"eta": float(eta),
             "dmin_exact": dmin_exact(float(eta)).value,
             "dmin_asymptotic": dmin_asymptotic(float(eta))}
            for eta in _eta_grid(eta_min, eta_max, points, scale)]
