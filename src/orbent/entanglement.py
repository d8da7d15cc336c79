"""Entanglement quantifiers for two-orbital reduced states.

Closed-form pieces: von Neumann and relative entropy, and the
number-superselected entanglement formula in terms of the sector
parameters (r, t) of a symmetric state, which the tight-binding results use.
Natural logarithm throughout; convert to bits by dividing by ln 2.

Superselected entanglement (``ree_numeric``; ``pssr_entanglement`` and
``nssr_entanglement_dm`` call it) is the relative entropy of entanglement of
the state pinched by the local parity (P) or particle number (N), a direct
sum of blocks, one per pair of local sectors.  The pinch keeps separable
states separable, and between direct sums with block weights p_g and q_g
the relative entropy is sum_g p_g [S(rho_g||sigma_g) + ln(p_g/q_g)], so E =
sum_g p_g E(rho_g/p_g) (Vedral & Plenio, PRA 57, 1619 (1998)).  A block
with a one-state local sector is a product state; every other block is two
qubits, where separable <=> PPT (Peres 1996; Horodecki 1996).  A diagonal
block adds 0.  An X block with equal middle diagonals has the separable set
|c|^2 <= a d and its minimum is the nonnegative root of one quadratic; its
gap is the Frank-Wolfe gap with the linear maximization over separable X
states done exactly, a proven bound.  Every other block goes to Frank-Wolfe.

Frank-Wolfe minimizes S(rho || sigma) over the separable set.  sigma is
maintained as a convex mixture of product states; each outer step asks a
linear oracle for the product state most aligned with the current gradient,
and the mixture weights are re-optimized by sequential quadratic
programming (SLSQP).  Inside a block it works on symmetry blocks keyed by
total N and 2Sz where rho commutes with them.  Pinching by the key averages
over local phases: it fixes rho and keeps separable states separable, so by
data processing it keeps the minimum, and every sigma, atom and gradient is
block diagonal, one padded stack of blocks.  For real rho the atoms are
kept real: S(rho||conj sigma) = S(rho||sigma), so by joint convexity the
real part of sigma, a separable state, is never worse.

The Frank-Wolfe duality gap bounds the distance of the returned upper bound
to the optimum when the oracle finds the global product-state maximum.  The
oracle is a deterministic grid-seeded local search, so the gap is a
heuristic bound, not a proven one.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import gn_local, gpi_local
from .fock import DensityMatrix, _factor_labels, _trusted

logger = logging.getLogger(__name__)

LN2 = float(np.log(2.0))


def _as_matrix(rho):
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _tr_rho_ln_rho(rho) -> float:
    """Tr[rho ln rho] of a Hermitian matrix or a stack of blocks, with 0 ln 0 = 0."""
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    p = p[p > 0]
    return float(np.sum(p * np.log(p)))


def von_neumann_entropy(rho) -> float:
    """-Tr[rho ln rho] with the 0 ln 0 = 0 convention."""
    return -_tr_rho_ln_rho(_as_matrix(rho))


_KERNEL_TOL = 1e-14


def _kernel(q) -> np.ndarray:
    """Eigenvalues of sigma that count as kernel: at most ``_KERNEL_TOL`` times the largest."""
    return q <= _KERNEL_TOL * max(float(q.max()), 1e-300)


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (ln rho - ln sigma)]; +inf when rho has weight on ker(sigma).

    The objective of the solver (``_objective_and_grad``) on one block:
    eigenvalues of sigma below 1e-14 times its largest one count as
    kernel, and the state is declared infinitely distinguishable when rho
    puts more than 1e-12 weight there.
    """
    r = _as_matrix(rho)
    return _objective_and_grad(r[None], _tr_rho_ln_rho(r), _as_matrix(sigma)[None])[0]


# ---------------------------------------------------------------------------
# closed-form number-superselected entanglement


def nssr_entanglement(r: float, t: float) -> float:
    """Closed-form number-superselected entanglement from the sector parameters.

    t is the larger weight on (|up,down> +- |down,up>)/sqrt2 and r the rest
    of the weight with one electron on each orbital.  The formula is exact
    for states with number, Sz and orbital exchange symmetry and equal
    weights on |up,up> and |down,down>, such as the tight-binding ones.
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


def _objective_and_grad(rho, tr_rho_ln_rho, sigma):
    """S(rho||sigma) and the Frechet derivative G of Tr[rho ln sigma], blockwise.

    ``rho`` and ``sigma`` are (k, s, s) stacks of the diagonal blocks of two
    block-diagonal matrices, and G comes back as the same stack.  Padding
    entries carry sigma = rho = 0, so they add nothing to the value or to G.
    The support of sigma follows one kernel rule (``_kernel``); directions
    orthogonal to it are masked (rho carries no genuine weight there while
    the iterate stays interior), and more than 1e-12 of rho's weight on
    them makes the value infinite.
    """
    s, v = np.linalg.eigh(sigma)
    vh = v.conj().transpose(0, 2, 1)
    rt = vh @ rho @ v
    supp = ~_kernel(s)
    s_safe = np.where(supp, s, 1.0)
    ln_s = np.log(s_safe)

    # divided differences of ln; 2/(s_i + s_j) where s_i and s_j (nearly) meet
    diff = s_safe[:, :, None] - s_safe[:, None, :]
    total = s_safe[:, :, None] + s_safe[:, None, :]
    far = np.abs(diff) > 1e-14 * total
    g = np.divide(ln_s[:, :, None] - ln_s[:, None, :], diff, out=2.0 / total, where=far)
    g *= supp[:, :, None] & supp[:, None, :]

    weight = np.diagonal(rt, axis1=1, axis2=2).real
    leak = 0.0 if supp.all() else float(np.sum(weight[~supp]))
    val = np.inf if leak > 1e-12 else tr_rho_ln_rho - float(np.sum(weight * ln_s))
    grad = v @ (rt * g) @ vh
    return val, grad


def _best_product(g4, a):
    """Locally maximize <a,b|G|a,b> by alternating top-eigenvector updates from a,
    at most 80 sweeps, until a sweep gains at most 1e-14 relative."""
    value = -np.inf
    for _ in range(80):
        b = np.linalg.eigh(np.einsum("i,ikjl,j->kl", a.conj(), g4, a))[1][:, -1]
        w, vecs = np.linalg.eigh(np.einsum("k,ikjl,l->ij", b.conj(), g4, b))
        new, a = float(w[-1]), vecs[:, -1]
        if new - value <= 1e-14 * max(1.0, abs(new)):
            value = new
            break
        value = new
    return value, a, b


def _bloch_grid() -> np.ndarray:
    """Qubit states (cos(theta/2), e^{i phi} sin(theta/2)) on a fixed grid:
    13 polar angles in [0, pi] by 24 phases."""
    n_theta, n_phi = 12, 24
    theta = np.linspace(0.0, np.pi, n_theta + 1)[:, None]
    phase = np.exp(2j * np.pi * np.arange(n_phi) / n_phi)[None, :]
    a0 = np.broadcast_to(np.cos(theta / 2), (n_theta + 1, n_phi))
    return np.stack([a0, phase * np.sin(theta / 2)], axis=-1).reshape(-1, 2)


_BLOCH_GRID = _bloch_grid()


@functools.lru_cache(maxsize=None)
def _superposition_grid(n: int) -> np.ndarray:
    """Unit vectors over n basis states on a fixed lattice.

    Squared moduli are multiples of 1/4 (of 1/2 above 4 states, which keeps
    the grid at O(n**2) entries) and relative phases multiples of pi/2; for
    the 4-dim factor of one spinful orbital that is 332 states.
    """
    units = 4 if n <= 4 else 2
    states = []
    for picks in itertools.combinations_with_replacement(range(n), units):
        weight = np.bincount(picks, minlength=n) / units
        support = np.flatnonzero(weight)
        for phases in itertools.product(range(4), repeat=support.size - 1):
            a = np.sqrt(weight).astype(complex)
            a[support[1:]] *= 1j ** np.array(phases)
            states.append(a)
    return np.array(states)


def _local_sectors(d: int, kind: str):
    """Basis indices of each local sector of one factor under the pinch ``kind``."""
    labels = _factor_labels((d,), kind)[:, 0]
    return [np.flatnonzero(labels == x) for x in np.unique(labels)]


def _product_oracle(g, dims, previous=None):
    """Product state maximizing <a,b|G|a,b>; both factors hold 2 or more states.

    A 2-dim factor is scanned over a fixed Bloch-sphere grid, and one point
    of each of the two best distinct scores is refined (one can stop in the
    lower of two local maxima).  Larger factors start from the Schmidt
    factors of the top eigenvector, the ``previous`` best product, the basis
    states and one point of each of the six best distinct scores of a
    superposition grid, needed where G commutes with total N (alternating
    updates then stay inside local-N sectors).
    Returns the value, the factors and the number of local searches run.
    """
    da, db = dims
    g4 = g.reshape(da, db, da, db)
    swap = da != 2 and db == 2  # scan the 2-dim factor
    if swap:
        g4 = g4.transpose(1, 0, 3, 2)
    if 2 in dims:
        grid, n_best, starts = _BLOCH_GRID, 2, []
    else:
        u, _, _ = np.linalg.svd(np.linalg.eigh(g)[1][:, -1].reshape(da, db))
        grid, n_best = _superposition_grid(da), 6
        starts = [u[:, 0], *([] if previous is None else [previous[0]]), *np.eye(da)]
    # <a|G|a> on the other factor at each grid point a, and its top eigenvalue
    scan = np.tensordot(grid.conj()[:, :, None] * grid[:, None, :], g4, axes=([1, 2], [0, 2]))
    # symmetry-equivalent points share a score, so refine one point of each
    # of the best distinct scores
    score = np.round(np.linalg.eigvalsh(scan)[:, -1], 9)
    _, first = np.unique(-score, return_index=True)
    starts += list(grid[first[:n_best]])
    val = -np.inf
    for a0 in starts:
        cand, ca, cb = _best_product(g4, a0)
        if cand > val:
            val, a, b = cand, ca, cb
    return val, ((b, a) if swap else (a, b)), len(starts)


_SPIN_FLIP_4 = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, -1],
], dtype=float)


def reflection_operator() -> np.ndarray:
    """Fermionic exchange of the two orbitals, |a,b> -> (-1)^(N_a N_b) |b,a>."""
    parity = _factor_labels((4, 4), "P")
    flat = np.arange(16)
    r = np.zeros((16, 16))
    r[4 * (flat % 4) + flat // 4, flat] = 1.0 - 2.0 * parity[:, 0] * parity[:, 1]
    return r


_REFLECTION = reflection_operator()


def _commutes(mat, labels) -> bool:
    """Whether mat (numerically) commutes with the diagonal operator ``labels``."""
    return float(np.max(np.abs(mat * ~np.equal.outer(labels, labels)))) < 1e-12


def _detect_symmetries(mat, dims):
    """Which separability-preserving symmetrizations leave rho invariant."""
    sym = {}
    if np.max(np.abs(mat.imag)) < 1e-12:
        sym["real"] = True
    for name, kind in (("n", "N"), ("sz", "Sz")):
        try:
            labels = _factor_labels(dims, kind).sum(axis=1)
        except ValueError:
            return sym
        if _commutes(mat, labels):
            sym[name] = labels
    if dims == (4, 4):
        f = np.kron(_SPIN_FLIP_4, _SPIN_FLIP_4)
        if np.max(np.abs(f @ mat @ f.T - mat)) < 1e-12:
            sym["spinflip"] = f
        if np.max(np.abs(_REFLECTION @ mat @ _REFLECTION - mat)) < 1e-12:
            sym["reflect"] = True
    return sym


def _block_layout(dims, sym):
    """Padded index (k, s_max) of the symmetry blocks, and the mask of its real
    entries.  A block is the basis states of equal total N and 2Sz, each
    where rho commutes with it (``sym``)."""
    key = np.column_stack([np.zeros(math.prod(dims), dtype=np.int64),
                           *(sym[name] for name in ("n", "sz") if name in sym)])
    _, block = np.unique(key, axis=0, return_inverse=True)
    sizes = np.bincount(block.ravel())
    valid = np.arange(sizes.max())[None, :] < sizes[:, None]
    index = np.zeros(valid.shape, dtype=np.int64)
    index[valid] = np.argsort(block.ravel(), kind="stable")
    return index, valid


def _candidate_atoms(a, b, sym, compress):
    """Separable atoms derived from one product state via rho's symmetry group.

    Products are mapped by the symmetries of rho and then pinched by the
    block key (``compress`` keeps only the block entries of |ab><ab|), which
    is an average over product unitaries: it maps product states to
    separable mixtures without changing their score against a gradient
    that is block diagonal in the same key.  For real rho, ``compress`` also
    keeps only the real part, the separable mixture of |ab><ab| and its
    complex conjugate.
    """
    vecs = [(a, b)]
    if "spinflip" in sym:
        vecs.append((_SPIN_FLIP_4 @ a, _SPIN_FLIP_4 @ b))
    if "reflect" in sym:
        vecs.extend([(bb, aa) for aa, bb in list(vecs)])
    vecs.extend([(aa.conj(), bb.conj()) for aa, bb in list(vecs)])
    return np.stack([compress(np.kron(aa, bb)) for aa, bb in vecs])


def _ree_frank_wolfe(work: DensityMatrix, tol: float, max_iters: int) -> EntanglementResult:
    """Frank-Wolfe minimum of S(work||sigma) over the separable states pinched
    by the block key; both factors hold 2 or more states.  ``diagnostics``
    carries the iterate sigma whose value and gap are returned; at the
    iteration cap the loop stops there, before a merge and polish whose
    value it would not report."""
    dim = work.dim
    mat = 0.5 * (work.mat + work.mat.conj().T)
    sym = _detect_symmetries(mat, work.dims)
    index, valid = _block_layout(work.dims, sym)
    k, s = index.shape
    pair = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(index[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(index[:, None, :], pair.shape)[pair]
    real = "real" in sym
    dtype = float if real else complex
    rho_b = np.zeros(pair.shape, dtype=dtype)
    rho_b[pair] = mat[rows, cols].real if real else mat[rows, cols]
    tr_rho_ln_rho = _tr_rho_ln_rho(rho_b)

    def compress(v):
        """Block entries of the key pinch of |v><v| (its real part for real rho)."""
        vb = np.where(valid, v[index], 0.0)
        atom = (vb[:, :, None] * vb[:, None, :].conj()).ravel()
        return atom.real if real else atom

    counts = {"objective_evals": 0, "oracle_calls": 0}

    def evaluate(stack, w):
        """Objective, gradient blocks and every atom's score Tr[atom G] at sigma(w)."""
        counts["objective_evals"] += 1
        sigma = (w @ stack).reshape(pair.shape)
        val, grad = _objective_and_grad(rho_b, tr_rho_ln_rho, sigma)
        return val, grad, (stack @ grad.conj().ravel()).real

    # product basis projectors keep the iterate full rank and already solve
    # the problem exactly for diagonal rho; atoms are kept as their block
    # entries, one row each
    stack = np.zeros((dim, k * s * s), dtype=dtype)
    block, pos = np.nonzero(valid)
    stack[index[block, pos], block * s * s + pos * (s + 1)] = 1.0
    weights = 0.9 * np.clip(np.diag(mat).real, 0.0, None) + 0.1 / dim
    weights /= weights.sum()

    best_ab = None
    for iteration in range(1, max_iters + 1):
        value, grad, atom_scores = evaluate(stack, weights)
        g = np.zeros((dim, dim), dtype=dtype)
        g[rows, cols] = grad[pair]
        best_val, best_ab, searches = _product_oracle(g, work.dims, best_ab)
        counts["oracle_calls"] += searches

        sigma_score = float(weights @ atom_scores)
        gap = max(best_val, float(atom_scores.max())) - sigma_score
        if gap <= tol or iteration == max_iters:
            break

        # merge the oracle's atoms into the set: refresh a nearby existing
        # atom in place (keeping its weight) so directions can track the
        # optimum instead of piling up near-duplicates
        candidates = _candidate_atoms(*best_ab, sym, compress)
        for atom in candidates:
            dists = np.max(np.abs(stack - atom), axis=1)
            j = int(np.argmin(dists))
            if dists[j] <= 1e-12:
                continue
            if dists[j] < 1e-7 and j >= dim:
                stack[j] = atom
            else:
                stack = np.vstack([stack, atom])
                weights = np.append(weights, 0.0)

        # inject weight on the oracle target; the corrective re-optimization
        # below makes the exact step size immaterial
        idx = int(np.argmin(np.max(np.abs(stack - candidates[0]), axis=1)))
        gamma = min(max(gap / 4.0, 1e-4), 0.3)
        weights = weights * (1.0 - gamma)
        weights[idx] += gamma

        stack, weights = _polish_weights(stack, weights, evaluate, dim, gap)

    sigma = np.zeros((dim, dim), dtype=complex)
    sigma[rows, cols] = (weights @ stack).reshape(pair.shape)[pair]
    return EntanglementResult(
        value=value, ssr="none", method="numeric-ree", iterations=iteration,
        gap=max(float(gap), 0.0),
        diagnostics={"atoms": len(stack), **counts, "sigma": sigma,
                     "block_sizes": [int(x) for x in valid.sum(axis=1)]})


# SLSQP iteration cap of one weight polish; the atom-set gap stop below
# usually ends it much earlier
_POLISH_ITERS = 400


class _Polished(Exception):
    """Ends the weight polish at ``weights``, a point whose atom-set gap is small."""

    def __init__(self, weights):
        super().__init__()
        self.weights = weights


def _polish_weights(stack, weights, evaluate, n_basis, gap):
    """Fully corrective step: re-optimize mixture weights over the atom set.

    Sequential quadratic programming on the simplex; the basis atoms keep a
    tiny weight floor so sigma stays full rank and the objective (and its
    gradient) remain finite everywhere the optimizer looks.  The weight
    gradient is minus the atom scores, one matrix-vector product.

    By convexity, the Frank-Wolfe gap over the current atom set bounds what
    further re-weighting can gain, so the polish stops at the first point
    SLSQP evaluates where that bound is below a hundredth of the outer
    ``gap``; beyond that the next oracle atom pays more than the polish.
    The bound reuses the scores the objective already computed, and the
    stop is an exception out of the objective rather than a callback, which
    SLSQP only lets stop the run in recent SciPy releases.
    """
    from scipy.optimize import minimize

    m = len(stack)

    def objective(wv):
        wv = np.clip(wv, 1e-300, None)
        val, _, scores = evaluate(stack, wv)
        # SLSQP keeps sum(wv) = 1 up to rounding (a linear constraint met at the start)
        if scores.max() - wv @ scores / wv.sum() <= 0.01 * gap:
            raise _Polished(wv)
        return val, -scores

    constraints = [{"type": "eq", "fun": lambda wv: np.sum(wv) - 1.0,
                    "jac": lambda wv: np.ones(m)}]
    bounds = [(1e-12, 1.0)] * n_basis + [(0.0, 1.0)] * (m - n_basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            x = minimize(objective, weights, jac=True,
                         method="SLSQP", bounds=bounds, constraints=constraints,
                         options={"maxiter": _POLISH_ITERS, "ftol": 1e-16}).x
        except _Polished as stop:
            x = stop.weights
    w = np.clip(x, 0.0, None)
    w[:n_basis] = np.maximum(w[:n_basis], 1e-300)
    w /= w.sum()

    f_new = evaluate(stack, w)[0]
    f_old = evaluate(stack, weights)[0]
    if not np.isfinite(f_new) or f_new > f_old:
        w = weights  # keep the incumbent on failure

    keep = w > 1e-18
    keep[:n_basis] = True  # basis atoms guard the support of sigma
    return stack[keep], w[keep] / w[keep].sum()


# ---------------------------------------------------------------------------
# exact REE of a two-qubit X state with equal middle diagonals

def _x_kkt_point(r00, r11, p_plus, p_minus, s):
    """Unnormalized sigma weights (a, d, u, v) of the KKT system at sqrt(a d) = s.

    a = r00 + mu t, d = r11 + mu t, u = P+/(1 + mu s), v = P-/(1 - mu s),
    where t = s^2 and mu(t) = (sqrt((r00 - r11)^2 + 4t) - (r00 + r11))/(2t)
    makes a d = t.  mu t and 1 - mu s are written without cancellation, and
    r00 r11 only as g^2, g = sqrt(r00) sqrt(r11), so that nothing underflows.
    Needs s > 0 and r00 + r11 > 0, which keeps mu s below 1.
    """
    total, root = r00 + r11, math.hypot(r00 - r11, 2.0 * s)
    g = math.sqrt(r00) * math.sqrt(r11)
    mu_t = 2.0 * (s - g) * ((s + g) / (root + total))
    one_minus = 2.0 * (total + g * (g / s)) / (2.0 * s + total + root)
    return r00 + mu_t, r11 + mu_t, p_plus / (2.0 - one_minus), p_minus / one_minus


def _x_dual_bound(g_a, g_d, g_plus, g_minus) -> float:
    """Upper bound on Tr[G tau] over normalized separable X states tau.

    G has corner entries g_a, g_d and eigenvalues g_plus, g_minus on the
    middle pair: middle diagonal h = (g+ + g-)/2, coherence g = |g+ - g-|/2.
    Splitting the coherence, theta on the partial transpose and 1 - theta on
    the middle block, gives the dual certificate y(theta) =
    max(lambda_max[[g_a, theta g], [theta g, g_d]], h + (1 - theta) g) for
    every theta in [0, 1].  The best theta, where the increasing and the
    decreasing branch meet, makes y the exact maximum (semidefinite duality
    over tau >= 0, tau^T_B >= 0).
    """
    h, g = 0.5 * (g_plus + g_minus), 0.5 * abs(g_plus - g_minus)
    mean, half = 0.5 * (g_a + g_d), 0.5 * abs(g_a - g_d)
    if mean + math.hypot(half, g) <= h:
        theta = 1.0
    elif mean + half >= h + g:
        theta = 0.0
    else:
        k = h + g - mean
        theta = min(max((k * k - half * half) / (2.0 * k * g), 0.0), 1.0)
    return max(mean + math.hypot(half, theta * g), h + (1.0 - theta) * g)


def _x_state_ree(r00, r11, p_plus, p_minus):
    """REE of a normalized two-qubit X state whose middle diagonals are equal.

    rho has corner weights r00, r11 and weights P+ >= P- on the middle pair
    (|01> +- |10>)/sqrt2, the phase of its coherence removed.  sigma is
    taken in the same form, with weights (a, d, u, v) and coherence
    c = (u - v)/2, and is separable iff c^2 <= a d.  When rho is entangled
    the constraint is active, the sum multiplier is 1 by homogeneity, and
    the KKT point of ``_x_kkt_point`` solves c(s) = s.  With R = r00 + r11,
    S = P+ + P- and D = P+ - P-, mu t = (s D - 2 r00 r11)/(S + 2R) turns it
    into A s^2 = B s + C with A = 4(P+ + R)(P- + R), B = D(R S + 2 r00^2 +
    2 r11^2) and C = r00 r11 (S + 2 r00)(S + 2 r11), all >= 0, whose one
    nonnegative root is optimal (a KKT point of a convex problem).  Rounding
    of the normalized sigma is moved onto the separable side by at most one
    float step of v.  Returns the value, sigma's weights and the proven gap.
    """
    rho_w = (r00, r11, p_plus, p_minus)
    if 0.25 * (p_plus - p_minus) ** 2 <= r00 * r11:
        return 0.0, rho_w, 0.0  # PPT, hence separable
    corners, middle = r00 + r11, p_plus + p_minus
    if corners == 0.0:
        # no corner weight: a = d = |c| leaves u = 1/2, and P- ln v is best at v = 1/2
        sigma_w = (0.0, 0.0, 0.5, 0.5)
    else:
        a2 = 4.0 * (p_plus + corners) * (p_minus + corners)
        b = (p_plus - p_minus) * (corners * middle + 2.0 * (r00 * r00 + r11 * r11))
        root_c = math.sqrt(r00) * math.sqrt(r11) * math.sqrt(
            a2 * (middle + 2.0 * r00) * (middle + 2.0 * r11))
        s = (b + math.hypot(b, 2.0 * root_c)) / (2.0 * a2)
        kkt = _x_kkt_point(r00, r11, p_plus, p_minus, s)
        total = sum(kkt)  # 1 up to rounding: the sum multiplier is 1
        a, d, u, v, s = (x / total for x in (*kkt, s))
        if 0.5 * (u - v) > s:
            v = u - 2.0 * s
            if 0.5 * (u - v) > s:
                v = math.nextafter(v, u)
        elif 0.5 * (v - u) > s:  # s is below the float spacing at u
            v = u
        sigma_w = (a, d, u, v)
    value = sum(r * math.log(r / s) for r, s in zip(rho_w, sigma_w) if r > 0.0)
    grad = [r / s if r > 0.0 else 0.0 for r, s in zip(rho_w, sigma_w)]
    gap = _x_dual_bound(*grad) - sum(g * s for g, s in zip(grad, sigma_w))
    return value, sigma_w, max(gap, 0.0)


# ---------------------------------------------------------------------------
# superselected REE: pinch once, then solve block by block

# off-diagonal entries of a 2 x 2 block other than the middle coherence
# between |01> and |10>
_NOT_X = ~np.eye(4, dtype=bool)
_NOT_X[1, 2] = _NOT_X[2, 1] = False


@functools.lru_cache(maxsize=None)
def _solved_blocks(dims, kind):
    """Local label pair, flat basis indices (one row each) and dims of every
    block of the pinch ``kind`` that is not a product state.

    A block with a one-state local sector is a product state and is left
    out.  A local sector holds at most two states, so every block listed is
    2 x 2; without a pinch ("none") the one block is the whole state.  The
    result is cached per argument tuple and read-only.
    """
    if kind == "none":
        keys, flat, block_dims = ((),), np.arange(math.prod(dims))[None, :], dims
    else:
        labels = [_factor_labels((d,), kind)[:, 0] for d in dims]
        pairs = [(ia, ib) for ia, ib in itertools.product(*(_local_sectors(d, kind) for d in dims))
                 if min(len(ia), len(ib)) >= 2]
        keys = tuple((int(labels[0][ia[0]]), int(labels[1][ib[0]])) for ia, ib in pairs)
        flat = np.array([(ia[:, None] * dims[1] + ib).ravel() for ia, ib in pairs],
                        dtype=np.intp).reshape(len(pairs), 4)
        block_dims = (2, 2)
    flat.flags.writeable = False
    return keys, flat, block_dims


def _x_block(block, p):
    """``_x_state_ree`` on one unnormalized 2 x 2 X block of weight p with
    equal middle diagonals: p E, p gap and p sigma."""
    d0, d1, d2, d3 = np.diagonal(block).real.tolist()
    z = complex(block[1, 2])
    mid = 0.5 * (d1 + d2)
    val, (a, d, u, v), gap = _x_state_ree(
        d0 / p, d3 / p, (mid + abs(z)) / p, max(mid - abs(z), 0.0) / p)
    m, c = p * 0.5 * (u + v), p * 0.5 * (u - v) * (z / abs(z))
    sigma = np.array([[p * a, 0, 0, 0], [0, m, c, 0], [0, c.conjugate(), m, 0], [0, 0, 0, p * d]])
    return p * val, p * gap, sigma


def ree_numeric(rho: DensityMatrix, ssr: str = "none", tol: float = 1e-7,
                max_iters: int = 5000) -> EntanglementResult:
    """Relative entropy of entanglement of rho pinched by ``ssr`` ('P', 'N' or
    'none': then the one block is rho), split once into ``_solved_blocks``.

    A 2 x 2 block whose off-diagonal entries above 1e-12 all join its two
    middle states is closed-form: diagonal (it adds 0) or, with middle
    diagonals equal to 1e-12, an X state (``_x_state_ree``).  Every other
    block goes to ``_ree_frank_wolfe``.  Value and gap are p-weighted sums,
    ``iterations`` and the other Frank-Wolfe counts plain sums over the
    Frank-Wolfe blocks: exact blocks take no iterations.  ``method`` is
    "x-state", and the gap proven, when no block needed Frank-Wolfe.  Each
    Frank-Wolfe block runs at most ``max_iters`` >= 1 iterations;
    ``converged`` flags, without raising, whether the summed gap is at most
    ``tol``, and a warning is logged when not.  ``diagnostics`` also carries
    ``terms``, each block's p E keyed by its local label pair, and
    ``sigma``, the direct sum of the blocks' sigma.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    ssr_key = str(ssr).upper() if str(ssr).lower() != "none" else "none"
    if ssr_key not in ("P", "N", "none"):
        raise ValueError(f"unknown superselection kind {ssr!r}")
    if len(rho.dims) != 2:
        raise ValueError("REE solver expects a bipartite density matrix")

    work = rho if ssr_key == "none" else (gpi_local if ssr_key == "P" else gn_local)(rho)
    keys, flat, dims = _solved_blocks(work.dims, ssr_key)
    blocks = work.mat[flat[:, :, None], flat[:, None, :]]
    diag = np.diagonal(blocks, axis1=1, axis2=2).real
    # weights summed left to right; np.trace pairs the terms, which moves
    # the last bit of X-state values
    weights = np.cumsum(diag, axis=1)[:, -1].tolist()
    if dims == (2, 2):
        x_shaped = np.abs(blocks[:, _NOT_X]).max(axis=1) < 1e-12
        diagonal = (x_shaped & (np.abs(blocks[:, 1, 2]) < 1e-12)).tolist()
        closed = (x_shaped & (np.abs(diag[:, 1] - diag[:, 2]) < 1e-12)).tolist()
    else:
        diagonal = closed = [False] * len(keys)
    sigmas = blocks.copy()  # a product or diagonal block is its own sigma
    terms, gaps, frank_wolfe = {}, [], []
    for g, key in enumerate(keys):
        terms[key] = 0.0
        p = weights[g]
        if p <= 0.0 or diagonal[g]:
            continue
        if closed[g]:
            terms[key], gap, sigmas[g] = _x_block(blocks[g], p)
        else:
            res = _ree_frank_wolfe(_trusted(blocks[g] / p, dims), tol, max_iters)
            terms[key], gap = p * res.value, p * res.gap
            sigmas[g] = p * res.diagnostics["sigma"]
            frank_wolfe.append(res)
        gaps.append(gap)
    sigma = work.mat.copy()
    sigma[flat[:, :, None], flat[:, None, :]] = sigmas

    gap = math.fsum(gaps)
    if gap > tol:
        logger.warning("REE solver hit the iteration cap with gap %.3e", gap)
    counts = {name: sum(r.diagnostics[name] for r in frank_wolfe)
              for name in ("atoms", "objective_evals", "oracle_calls")}
    return EntanglementResult(
        value=math.fsum(terms.values()), ssr=ssr_key,
        method="numeric-ree" if frank_wolfe else "x-state",
        iterations=sum(r.iterations for r in frank_wolfe), gap=gap, converged=gap <= tol,
        diagnostics={**counts, "block_sizes": [n for r in frank_wolfe
                                               for n in r.diagnostics["block_sizes"]],
                     "terms": terms, "sigma": sigma})


def pssr_entanglement(rho: DensityMatrix, tol: float = 1e-7,
                      max_iters: int = 5000) -> EntanglementResult:
    """Parity-superselected entanglement: ``ree_numeric(rho, "P", ...)``.

    The parity pinch leaves four 2 x 2 blocks.  A state that commutes with
    total N and 2Sz has diagonal mixed-parity blocks and X states in the
    others; with equal middle diagonals, as for tight-binding states and
    orbital pairs of (N, Sz) eigenstates with an exchange symmetry, the
    value is exact: method "x-state", a proven gap and no iterations.
    Other blocks take Frank-Wolfe, whose gap is heuristic; ``iterations``
    counts its iterations, and ``max_iters`` caps them.
    """
    return ree_numeric(rho, "P", tol, max_iters)


def nssr_entanglement_dm(rho: DensityMatrix, tol: float = 1e-7,
                         max_iters: int = 5000) -> EntanglementResult:
    """Number-superselected entanglement: ``ree_numeric(rho, "N", ...)``.

    After the number pinch only the one-electron-each block is not a
    product state.  On an X state the value equals ``nssr_entanglement(r,
    t)`` where its corners, |up,up> and |down,down>, carry equal weight, as
    in the tight-binding states.
    """
    return ree_numeric(rho, "N", tol, max_iters)
