"""Entanglement quantifiers for two-orbital reduced states.

Closed-form pieces: von Neumann and relative entropy, the symmetric-sector
decomposition of a two-orbital state, the number-superselected entanglement
formula in terms of the sector parameters (r, t), and the associated exact
entanglement criterion.  Natural logarithm throughout; convert to bits by
dividing by ln 2.

Numerical piece: a relative-entropy-of-entanglement solver that minimizes
S(rho || sigma) over the separable set by Frank-Wolfe iteration.  sigma is
maintained as a convex mixture of product states; each outer step asks a
linear oracle (alternating principal-eigenvector updates between the two
factors) for the product state most aligned with the current gradient, and
mixture weights are re-optimized by a multiplicative fixed-point scheme.
The Frank-Wolfe duality gap certifies the returned upper bound.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import gn_local, gpi_local
from .fock import _LOCAL_N, DensityMatrix, _factor_labels

logger = logging.getLogger(__name__)

LN2 = float(np.log(2.0))


def _as_matrix(rho):
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def von_neumann_entropy(rho) -> float:
    """-Tr[rho ln rho] with the 0 ln 0 = 0 convention."""
    evals = np.linalg.eigvalsh(_as_matrix(rho))
    evals = np.clip(evals.real, 0.0, None)
    pos = evals[evals > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def relative_entropy(rho, sigma, *, kernel_tol: float = 1e-14) -> float:
    """Tr[rho (ln rho - ln sigma)]; +inf when rho has weight on ker(sigma).

    Eigenvalues of sigma below ``kernel_tol`` times its largest one count as
    kernel; the state is declared infinitely distinguishable when rho puts
    more than 1e-12 weight there.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    p = np.clip(np.linalg.eigvalsh(r).real, 0.0, None)
    tr_rho_ln_rho = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    q, v = np.linalg.eigh(s)
    q = np.clip(q.real, 0.0, None)
    weights = np.einsum("ji,jk,ki->i", v.conj(), r, v).real
    kernel = q <= kernel_tol * max(q.max(), 1e-300)
    if float(np.sum(weights[kernel])) > 1e-12:
        return float("inf")
    on = ~kernel & (weights > 0)
    return tr_rho_ln_rho - float(np.sum(weights[on] * np.log(q[on])))


# ---------------------------------------------------------------------------
# symmetric two-orbital sector decomposition

# two-orbital basis |alpha>_A |beta>_B, alpha = n_up + 2 n_down, flat = 4a + b
_PSI_PLUS = np.zeros(16)
_PSI_PLUS[[4 * 1 + 2, 4 * 2 + 1]] = 1 / np.sqrt(2)
_PSI_MINUS = np.zeros(16)
_PSI_MINUS[4 * 1 + 2], _PSI_MINUS[4 * 2 + 1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
_PHI_PLUS = np.zeros(16)
_PHI_PLUS[[4 * 0 + 3, 4 * 3 + 0]] = 1 / np.sqrt(2)
_PHI_MINUS = np.zeros(16)
_PHI_MINUS[4 * 0 + 3], _PHI_MINUS[4 * 3 + 0] = 1 / np.sqrt(2), -1 / np.sqrt(2)


def reflection_operator() -> np.ndarray:
    """Fermionic exchange of the two orbitals, |a,b> -> (-1)^(N_a N_b) |b,a>."""
    r = np.zeros((16, 16))
    for a in range(4):
        for b in range(4):
            sign = -1.0 if (_LOCAL_N[4][a] * _LOCAL_N[4][b]) % 2 else 1.0
            r[4 * b + a, 4 * a + b] = sign
    return r


_REFLECTION = reflection_operator()


class SymmetryViolation(ValueError):
    """The state breaks a symmetry the closed sector formulas require."""


@dataclass
class SymmetricTwoOrbitalState:
    """Sector data of a two-orbital state with number, Sz and A<->B symmetry.

    ``sector_weights[na, nb]`` is the weight on local particle numbers
    (na, nb); q/p are the weights on the four symmetry-compatible entangled
    pure states.  ``t = max(q_pm)`` and ``r = w11 - t`` feed the closed
    entanglement formula.
    """

    q_plus: float
    q_minus: float
    p_plus: float
    p_minus: float
    sector_weights: np.ndarray

    def __post_init__(self):
        vals = [self.q_plus, self.q_minus, self.p_plus, self.p_minus,
                *np.ravel(self.sector_weights)]
        if min(vals) < -1e-10:
            raise ValueError(f"negative sector weight {min(vals):.2e}")
        self.q_plus = max(self.q_plus, 0.0)
        self.q_minus = max(self.q_minus, 0.0)
        self.p_plus = max(self.p_plus, 0.0)
        self.p_minus = max(self.p_minus, 0.0)
        self.sector_weights = np.clip(self.sector_weights, 0.0, None)
        total = float(np.sum(self.sector_weights))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"sector weights must sum to 1, got {total!r}")
        if self.q_plus + self.q_minus > self.w11 + 1e-10:
            raise ValueError("q weights exceed the (1,1) sector weight")

    @property
    def w11(self) -> float:
        return float(self.sector_weights[1, 1])

    @property
    def t(self) -> float:
        return max(self.q_plus, self.q_minus)

    @property
    def r(self) -> float:
        return max(self.w11 - self.t, 0.0)


def decompose_symmetric(rho: DensityMatrix, tol: float = 1e-8) -> SymmetricTwoOrbitalState:
    """Extract (q_pm, p_pm, sector weights, r, t) from a symmetric state.

    Raises :class:`SymmetryViolation` when rho fails to commute with total
    particle number, total Sz, or the orbital exchange, since the closed
    formulas are silently wrong on symmetry-broken states.
    """
    if rho.dims != (4, 4):
        raise ValueError(f"expected a two-orbital state with dims (4, 4), got {rho.dims}")
    mat = rho.mat
    n_tot, sz2_tot = _factor_labels((4, 4))
    for name, labels in (("particle number", n_tot), ("magnetization", sz2_tot)):
        mask = ~np.equal.outer(labels, labels)
        dev = float(np.max(np.abs(mat * mask))) if mask.any() else 0.0
        if dev > tol:
            raise SymmetryViolation(f"state breaks {name} symmetry (coherence {dev:.2e})")
    dev = float(np.max(np.abs(_REFLECTION @ mat @ _REFLECTION - mat)))
    if dev > tol:
        raise SymmetryViolation(f"state breaks orbital exchange symmetry (deviation {dev:.2e})")

    weights = np.zeros((3, 3))
    local_n = _LOCAL_N[4]
    diag = np.diag(mat).real
    for a in range(4):
        for b in range(4):
            weights[local_n[a], local_n[b]] += diag[4 * a + b]
    return SymmetricTwoOrbitalState(
        q_plus=float((_PSI_PLUS @ mat @ _PSI_PLUS).real),
        q_minus=float((_PSI_MINUS @ mat @ _PSI_MINUS).real),
        p_plus=float((_PHI_PLUS @ mat @ _PHI_PLUS).real),
        p_minus=float((_PHI_MINUS @ mat @ _PHI_MINUS).real),
        sector_weights=weights,
    )


def nssr_entanglement(r: float, t: float) -> float:
    """Closed-form number-superselected entanglement from the sector data.

    Equals r ln(2r/(r+t)) + t ln(2t/(r+t)) when r < t and zero otherwise;
    the 0 ln 0 = 0 limits are honored (r = 0 gives t ln 2).
    """
    if r < 0 or t < 0:
        raise ValueError(f"sector parameters must be nonnegative, got r={r}, t={t}")
    if r >= t or t == 0.0:
        return 0.0
    s = r + t
    value = t * np.log(2.0 * t / s)
    if r > 0.0:
        value += r * np.log(2.0 * r / s)
    return float(max(value, 0.0))


def entanglement_criterion(state: SymmetricTwoOrbitalState) -> bool:
    """Exact criterion: entangled iff the (1,1) weight is below twice max q."""
    return state.w11 < 2.0 * state.t


# ---------------------------------------------------------------------------
# numerical relative entropy of entanglement


@dataclass
class EntanglementResult:
    """Entanglement value in nats plus solver diagnostics."""

    value: float
    ssr: str
    method: str
    iterations: int = 0
    gap: float = 0.0
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.value = max(float(self.value), 0.0)

    def in_base(self, base: str) -> float:
        if base in ("e", "nat", "nats"):
            return self.value
        if base in ("2", 2, "bit", "bits"):
            return self.value / LN2
        raise ValueError(f"unknown log base {base!r}")


def _objective_and_grad(rho_mat, tr_rho_ln_rho, sigma):
    """S(rho||sigma) and the Frechet derivative G of Tr[rho ln sigma].

    G is expressed in the computational basis; directions orthogonal to the
    support of sigma are masked (rho carries no genuine weight there while
    the iterate stays interior).
    """
    s, v = np.linalg.eigh(sigma)
    s = np.clip(s.real, 0.0, None)
    rt = v.conj().T @ rho_mat @ v
    supp = s > 1e-250
    s_safe = np.where(supp, s, 1.0)
    ln_s = np.log(s_safe)

    diff = s_safe[:, None] - s_safe[None, :]
    near = np.abs(diff) <= 1e-14 * (s_safe[:, None] + s_safe[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(near, 2.0 / (s_safe[:, None] + s_safe[None, :]),
                     (ln_s[:, None] - ln_s[None, :]) / np.where(near, 1.0, diff))
    mask = np.logical_and.outer(supp, supp)
    g = np.where(mask, g, 0.0)

    leak = float(np.sum(np.diag(rt).real[~supp]))
    val = np.inf if leak > 1e-12 else \
        tr_rho_ln_rho - float(np.sum(np.diag(rt).real[supp] * ln_s[supp]))
    grad = v @ (rt * g) @ v.conj().T
    grad = 0.5 * (grad + grad.conj().T)
    return val, grad


def _best_product(g4, da, db, a0, b0, sweeps: int = 80, tol: float = 1e-14):
    """Locally maximize <a,b|G|a,b> by alternating top-eigenvector updates."""
    a, b = a0, b0
    value = -np.inf
    for _ in range(sweeps):
        mb = np.einsum("i,ikjl,j->kl", a.conj(), g4, a)
        w, vecs = np.linalg.eigh(mb)
        b = vecs[:, -1]
        ma = np.einsum("k,ikjl,l->ij", b.conj(), g4, b)
        w, vecs = np.linalg.eigh(ma)
        a = vecs[:, -1]
        new = float(w[-1].real)
        if new - value <= tol * max(1.0, abs(new)):
            value = new
            break
        value = new
    return value, a, b


_SPIN_FLIP_4 = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, -1],
], dtype=float)


def _detect_symmetries(mat, dims):
    """Which separability-preserving symmetrizations leave rho invariant."""
    sym = {}
    try:
        n_tot, sz2_tot = _factor_labels(dims)
    except ValueError:
        return sym
    for name, labels in (("n", n_tot), ("sz", sz2_tot)):
        pinched = mat * np.equal.outer(labels, labels)
        if np.max(np.abs(pinched - mat)) < 1e-12:
            sym[name] = labels
    if dims == (4, 4):
        f = np.kron(_SPIN_FLIP_4, _SPIN_FLIP_4)
        if np.max(np.abs(f @ mat @ f.T - mat)) < 1e-12:
            sym["spinflip"] = f
        if np.max(np.abs(_REFLECTION @ mat @ _REFLECTION - mat)) < 1e-12:
            sym["reflect"] = True
    return sym


def _candidate_atoms(a, b, dims, sym):
    """Separable atoms derived from one product state via rho's symmetry group.

    Products are group-averaged into the commutant of rho where possible:
    averaging over the global U(1) phase groups is a pinch by total labels
    and maps product states to separable mixtures without changing their
    score against a commutant gradient.
    """
    vecs = [(a, b)]
    if "spinflip" in sym:
        vecs.append((_SPIN_FLIP_4 @ a, _SPIN_FLIP_4 @ b))
    if "reflect" in sym and dims[0] == dims[1]:
        vecs.extend([(bb, aa) for aa, bb in list(vecs)])
    vecs.extend([(aa.conj(), bb.conj()) for aa, bb in list(vecs)])
    atoms = []
    for aa, bb in vecs:
        v = np.kron(aa, bb)
        atom = np.outer(v, v.conj())
        for key in ("n", "sz"):
            if key in sym:
                labels = sym[key]
                atom = atom * np.equal.outer(labels, labels)
        atoms.append(atom)
    return atoms


def ree_numeric(rho: DensityMatrix, ssr: str = "none", tol: float = 1e-7,
                max_iters: int = 5000, restarts: int = 12, seed: int = 7,
                inner_iters: int = 400) -> EntanglementResult:
    """Relative entropy of entanglement by Frank-Wolfe over the separable set.

    The requested superselection pinch is applied to rho first ('P', 'N', or
    'none'); minimization then runs over all separable states.  Returns an
    upper bound on the entanglement whose distance to the optimum is at most
    the reported Frank-Wolfe duality ``gap``.  Non-convergence within
    ``max_iters`` outer iterations is flagged rather than raised.
    """
    ssr_key = str(ssr).upper() if str(ssr).lower() != "none" else "none"
    if ssr_key == "P":
        work = gpi_local(rho)
    elif ssr_key == "N":
        work = gn_local(rho)
    elif ssr_key == "none":
        work = rho
    else:
        raise ValueError(f"unknown superselection kind {ssr!r}")
    if len(work.dims) != 2:
        raise ValueError("REE solver expects a bipartite density matrix")

    da, db = work.dims
    dim = da * db
    mat = 0.5 * (work.mat + work.mat.conj().T)
    p = np.clip(np.linalg.eigvalsh(mat).real, 0.0, None)
    tr_rho_ln_rho = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    sym = _detect_symmetries(mat, work.dims)
    rng = np.random.default_rng(seed)

    # product basis projectors keep the iterate full rank and already solve
    # the problem exactly for diagonal rho
    atoms = [np.zeros((dim, dim), dtype=complex) for _ in range(dim)]
    for i in range(dim):
        atoms[i][i, i] = 1.0
    weights = 0.9 * np.clip(np.diag(mat).real, 0.0, None) + 0.1 / dim
    weights /= weights.sum()
    weights = list(weights)

    def _random_vec(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    def _grad_at(sigma):
        return _objective_and_grad(mat, tr_rho_ln_rho, sigma)

    gap = np.inf
    value = np.inf
    best_ab = None
    for iteration in range(1, max_iters + 1):
        stack = np.stack(atoms)
        w = np.asarray(weights)
        sigma = np.tensordot(w, stack, axes=1)
        value, grad = _grad_at(sigma)
        g4 = grad.reshape(da, db, da, db)

        # linear oracle over product states, multiple deterministic starts
        starts = []
        _, ev = np.linalg.eigh(grad)
        u, _, vh = np.linalg.svd(ev[:, -1].reshape(da, db))
        starts.append((u[:, 0], vh[0].conj()))
        if best_ab is not None:
            starts.append(best_ab)
        for _ in range(restarts):
            starts.append((_random_vec(da), _random_vec(db)))
        best_val = -np.inf
        for a0, b0 in starts:
            cand_val, a, b = _best_product(g4, da, db, a0, b0)
            if cand_val > best_val:
                best_val, best_ab = cand_val, (a, b)

        atom_scores = np.einsum("mij,ji->m", stack, grad).real
        sigma_score = float(np.real(np.trace(grad @ sigma)))
        gap = max(best_val, float(atom_scores.max())) - sigma_score
        if gap <= tol:
            return EntanglementResult(
                value=value, ssr=ssr_key, method="numeric-ree",
                iterations=iteration, gap=max(float(gap), 0.0), converged=True,
                diagnostics={"atoms": len(atoms)})

        # merge the oracle's atoms into the set: refresh a nearby existing
        # atom in place (keeping its weight) so directions can track the
        # optimum instead of piling up near-duplicates
        candidates = _candidate_atoms(*best_ab, work.dims, sym)
        for atom in candidates:
            dists = [np.max(np.abs(atom - ex)) for ex in atoms]
            j = int(np.argmin(dists))
            if dists[j] <= 1e-12:
                continue
            if dists[j] < 1e-7 and j >= dim:
                atoms[j] = atom
            else:
                atoms.append(atom)
                weights.append(0.0)

        # inject weight on the oracle target; the corrective re-optimization
        # below makes the exact step size immaterial
        target = candidates[0]
        idx = min(range(len(atoms)),
                  key=lambda i: np.max(np.abs(atoms[i] - target)))
        gamma = min(max(gap / 4.0, 1e-4), 0.3)
        weights = [wi * (1.0 - gamma) for wi in weights]
        weights[idx] += gamma

        atoms, weights = _polish_weights(atoms, weights, _grad_at, dim, inner_iters)

    logger.warning("REE solver hit the iteration cap with gap %.3e", gap)
    return EntanglementResult(
        value=value, ssr=ssr_key, method="numeric-ree", iterations=max_iters,
        gap=float(gap), converged=False, diagnostics={"atoms": len(atoms)})


def _polish_weights(atoms, weights, grad_at, n_basis, maxiter):
    """Fully corrective step: re-optimize mixture weights over the atom set.

    Sequential quadratic programming on the simplex; the basis atoms keep a
    tiny weight floor so sigma stays full rank and the objective (and its
    gradient) remain finite everywhere the optimizer looks.
    """
    from scipy.optimize import minimize

    stack = np.stack(atoms)
    m = len(atoms)

    def objective(wv):
        sigma = np.tensordot(np.clip(wv, 1e-300, None), stack, axes=1)
        val, grad = grad_at(sigma)
        return val, -np.einsum("mij,ji->m", stack, grad).real

    constraints = [{"type": "eq", "fun": lambda wv: np.sum(wv) - 1.0,
                    "jac": lambda wv: np.ones(m)}]
    bounds = [(1e-12, 1.0)] * n_basis + [(0.0, 1.0)] * (m - n_basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = minimize(objective, np.asarray(weights, dtype=float), jac=True,
                          method="SLSQP", bounds=bounds, constraints=constraints,
                          options={"maxiter": maxiter, "ftol": 1e-16})
    w = np.clip(result.x, 0.0, None)
    w[:n_basis] = np.maximum(w[:n_basis], 1e-300)
    w /= w.sum()

    f_new, _ = grad_at(np.tensordot(w, stack, axes=1))
    f_old, _ = grad_at(np.tensordot(np.asarray(weights), stack, axes=1))
    if not np.isfinite(f_new) or f_new > f_old:
        w = np.asarray(weights, dtype=float)  # keep the incumbent on failure

    keep = w > 1e-18
    keep[:n_basis] = True  # basis atoms guard the support of sigma
    atoms = [a for a, k in zip(atoms, keep) if k]
    w = w[keep]
    return atoms, list(w / w.sum())


def pssr_entanglement(rho: DensityMatrix, **solver_kwargs) -> EntanglementResult:
    """Parity-superselected entanglement: numeric REE of the pinched state."""
    return ree_numeric(rho, ssr="P", **solver_kwargs)


def nssr_entanglement_dm(rho: DensityMatrix, tol: float = 1e-8) -> EntanglementResult:
    """Closed-form number-superselected entanglement of a symmetric state."""
    sector = decompose_symmetric(rho, tol=tol)
    return EntanglementResult(
        value=nssr_entanglement(sector.r, sector.t), ssr="N", method="closed-form",
        diagnostics={"r": sector.r, "t": sector.t, "w11": sector.w11})
