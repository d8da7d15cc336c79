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
block adds 0.  An X block, whose only coherence joins its two middle
states, has the separable set |c|^2 <= a d; ``_x_state_ree`` finds its
minimum from the KKT conditions and proves it with a dual bound.  Every
block of a state that commutes with the pair's N and 2Sz is one of these,
so every value the command line prints is exact.

Frank-Wolfe handles the remaining blocks, which only states without that
symmetry have.  It minimizes S(rho || sigma) over the separable set, with
sigma a convex mixture of product states: each outer step asks a linear
oracle for the product state most aligned with the current gradient, and
sequential quadratic programming (SLSQP) re-optimizes the weights.  For
real rho the atoms are kept real: S(rho||conj sigma) = S(rho||sigma), so by
joint convexity the real part of sigma, a separable state, is never worse.
Its duality gap bounds the distance to the optimum when the oracle, a
deterministic grid-seeded local search, finds the global product-state
maximum, so on these blocks the gap is a heuristic bound, not a proven one.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channels import gn_local, gpi_local
from .fock import DensityMatrix, _factor_labels

logger = logging.getLogger(__name__)

LN2 = float(np.log(2.0))
_NORMAL_MIN = sys.float_info.min


def _as_matrix(rho):
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _tr_rho_ln_rho(rho) -> float:
    """Tr[rho ln rho] of a Hermitian matrix, with 0 ln 0 = 0."""
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

    The objective of the solver (``_objective_and_grad``): eigenvalues of
    sigma below 1e-14 times its largest one count as kernel, and the state
    is declared infinitely distinguishable when rho puts more than 1e-12
    weight there.
    """
    r = _as_matrix(rho)
    return _objective_and_grad(r, _tr_rho_ln_rho(r), _as_matrix(sigma))[0]


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
    """S(rho||sigma) and the Frechet derivative G of Tr[rho ln sigma].

    ``rho`` and ``sigma`` are Hermitian matrices of one shape, and so is G.
    The support of sigma follows one kernel rule (``_kernel``); directions
    orthogonal to it are masked (rho carries no genuine weight there while
    the iterate stays interior), and more than 1e-12 of rho's weight on
    them makes the value infinite.
    """
    s, v = np.linalg.eigh(sigma)
    vh = v.conj().T
    rt = vh @ rho @ v
    supp = ~_kernel(s)
    s_safe = np.where(supp, s, 1.0)
    ln_s = np.log(s_safe)

    # divided differences of ln; 2/(s_i + s_j) where s_i and s_j (nearly) meet
    diff = s_safe[:, None] - s_safe[None, :]
    total = s_safe[:, None] + s_safe[None, :]
    far = np.abs(diff) > 1e-14 * total
    g = np.divide(ln_s[:, None] - ln_s[None, :], diff, out=2.0 / total, where=far)
    g *= supp[:, None] & supp[None, :]

    weight = np.diagonal(rt).real
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


def _local_sectors(d: int, kind: str):
    """Basis indices of each local sector of one factor under the pinch ``kind``."""
    labels = _factor_labels((d,), kind)[:, 0]
    return [np.flatnonzero(labels == x) for x in np.unique(labels)]


def _product_oracle(g):
    """Product state maximizing <a,b|G|a,b> on two qubits.

    The first factor is scanned over a fixed Bloch-sphere grid, and one
    point of each of the two best distinct scores is refined (one can stop
    in the lower of two local maxima).  Returns the value, the factors and
    the number of local searches run.
    """
    g4 = g.reshape(2, 2, 2, 2)
    # <a|G|a> on the other factor at each grid point a, and its top eigenvalue
    scan = np.tensordot(_BLOCH_GRID.conj()[:, :, None] * _BLOCH_GRID[:, None, :], g4,
                        axes=([1, 2], [0, 2]))
    # symmetry-equivalent points share a score, so refine one point of each
    # of the best distinct scores
    score = np.round(np.linalg.eigvalsh(scan)[:, -1], 9)
    _, first = np.unique(-score, return_index=True)
    starts = _BLOCH_GRID[first[:2]]
    val = -np.inf
    for a0 in starts:
        cand, ca, cb = _best_product(g4, a0)
        if cand > val:
            val, a, b = cand, ca, cb
    return val, (a, b), len(starts)


def _ree_frank_wolfe(block: np.ndarray, tol: float, max_iters: int):
    """Frank-Wolfe minimum of S(block||sigma) over the separable states of two
    qubits, for a normalized 4 x 4 block that is not X-shaped and so commutes
    with no local phase twirl.  Returns the value, gap and iterations, the
    iterate sigma they belong to, and the counts of ``atoms``,
    ``objective_evals`` and ``oracle_calls``; at the iteration cap the loop
    stops at sigma, before a merge and polish whose value it would not report."""
    mat = 0.5 * (block + block.conj().T)
    real = bool(np.max(np.abs(mat.imag)) < 1e-12)
    rho = mat.real if real else mat
    tr_rho_ln_rho = _tr_rho_ln_rho(rho)

    def compress(v):
        """|v><v| as a row (its real part for real rho)."""
        atom = np.outer(v, v.conj()).ravel()
        return atom.real if real else atom

    counts = {"objective_evals": 0, "oracle_calls": 0}

    def evaluate(stack, w):
        """Objective, gradient and every atom's score Tr[atom G] at sigma(w)."""
        counts["objective_evals"] += 1
        val, grad = _objective_and_grad(rho, tr_rho_ln_rho, (w @ stack).reshape(4, 4))
        return val, grad, (stack @ grad.conj().ravel()).real

    # product basis projectors keep the iterate full rank and already solve
    # the problem exactly for diagonal rho; atoms are kept as rows
    stack = np.eye(16, dtype=rho.dtype)[::5]
    weights = 0.9 * np.clip(np.diag(mat).real, 0.0, None) + 0.1 / 4
    weights /= weights.sum()

    for iteration in range(1, max_iters + 1):
        value, grad, atom_scores = evaluate(stack, weights)
        best_val, (a, b), searches = _product_oracle(grad)
        counts["oracle_calls"] += searches

        sigma_score = float(weights @ atom_scores)
        gap = max(best_val, float(atom_scores.max())) - sigma_score
        if gap <= tol or iteration == max_iters:
            break

        # merge the oracle's atoms into the set: refresh a nearby existing
        # atom in place (keeping its weight) so directions can track the
        # optimum instead of piling up near-duplicates
        candidates = [compress(np.kron(a, b)), compress(np.kron(a.conj(), b.conj()))]
        for atom in candidates:
            dists = np.max(np.abs(stack - atom), axis=1)
            j = int(np.argmin(dists))
            if dists[j] <= 1e-12:
                continue
            if dists[j] < 1e-7 and j >= 4:
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

        stack, weights = _polish_weights(stack, weights, evaluate, gap)

    sigma = (weights @ stack).reshape(4, 4).astype(complex)
    return (max(float(value), 0.0), max(float(gap), 0.0), iteration, sigma,
            {"atoms": len(stack), **counts})


# SLSQP iteration cap of one weight polish; the atom-set gap stop below
# usually ends it much earlier
_POLISH_ITERS = 400


class _Polished(Exception):
    """Ends the weight polish at ``weights``, a point whose atom-set gap is small."""

    def __init__(self, weights):
        super().__init__()
        self.weights = weights


def _polish_weights(stack, weights, evaluate, gap):
    """Fully corrective step: re-optimize mixture weights over the atom set.

    Sequential quadratic programming on the simplex; the first four atoms,
    the product basis, keep a tiny weight floor so sigma stays full rank and
    the objective and its gradient, minus the atom scores, stay finite
    wherever the optimizer looks.  By convexity the Frank-Wolfe gap over the atom set bounds what
    re-weighting can gain, so the polish stops at the first point where it
    is below a hundredth of the outer ``gap``: an exception out of the
    objective, since only recent SciPy releases let a callback stop SLSQP.
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
    bounds = [(1e-12, 1.0)] * 4 + [(0.0, 1.0)] * (m - 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            x = minimize(objective, weights, jac=True,
                         method="SLSQP", bounds=bounds, constraints=constraints,
                         options={"maxiter": _POLISH_ITERS, "ftol": 1e-16}).x
        except _Polished as stop:
            x = stop.weights
    w = np.clip(x, 0.0, None)
    w[:4] = np.maximum(w[:4], 1e-300)
    w /= w.sum()

    f_new = evaluate(stack, w)[0]
    f_old = evaluate(stack, weights)[0]
    if not np.isfinite(f_new) or f_new > f_old:
        w = weights  # keep the incumbent on failure

    keep = w > 1e-18
    keep[:4] = True  # basis atoms guard the support of sigma
    return stack[keep], w[keep] / w[keep].sum()


# ---------------------------------------------------------------------------
# exact REE of a two-qubit X state

def _x_multiplier(r00, r11, s):
    """nu s and 1 - nu where the corners a = r00 + nu s, d = r11 + nu s have
    a d = s^2 >= r00 r11 > 0: both without cancellation, and r00 r11 only
    as g^2, g = sqrt(r00) sqrt(r11), so that nothing underflows."""
    total, root = r00 + r11, math.hypot(r00 - r11, 2.0 * s)
    g = math.sqrt(r00) * math.sqrt(r11)
    nu_s = 2.0 * (s - g) * ((s + g) / (root + total))
    one_minus = 2.0 * (total + g * (g / s)) / (2.0 * s + total + root)
    return nu_s, one_minus


def _x_dual_bound(g_a, g_d, g_plus, g_minus, g_delta=0.0) -> float:
    """Upper bound on Tr[G tau] over normalized separable X states tau.

    G has corners g_a, g_d and the block [[g+, g_delta], [g_delta, g-]] on
    the middle pair (|01> +- |10>)/sqrt2: in |01>, |10> its diagonals are
    h +- g_delta, h = (g+ + g-)/2, and its coherence g = |g+ - g-|/2.
    Splitting the coherence, theta on the partial transpose and 1 - theta
    on the middle block, gives the dual certificate y(theta) =
    max(lambda_max[[g_a, theta g], [theta g, g_d]], h + hypot(g_delta,
    (1 - theta) g)) for every theta in [0, 1].  The first branch rises and
    the second falls; where they meet (closed-form for g_delta = 0,
    bisected otherwise), y is the exact maximum (semidefinite duality over
    tau >= 0, tau^T_B >= 0).
    """
    h, g = 0.5 * (g_plus + g_minus), 0.5 * abs(g_plus - g_minus)
    mean, half = 0.5 * (g_a + g_d), 0.5 * abs(g_a - g_d)

    def branches(theta):
        return mean + math.hypot(half, theta * g), h + math.hypot(g_delta, (1.0 - theta) * g)

    up, down = branches(1.0)
    if up <= down:
        return down  # theta = 1
    up, down = branches(0.0)
    if up >= down:
        return up  # theta = 0
    if g_delta == 0.0:
        k = h + g - mean
        theta = min(max((k * k - half * half) / (2.0 * k * g), 0.0), 1.0)
    else:
        lo, theta = 0.0, 1.0
        for _ in range(64):
            mid = 0.5 * (lo + theta)
            up, down = branches(mid)
            lo, theta = (mid, theta) if up < down else (lo, mid)
    return max(branches(theta))


def _log_mean(x, y):
    """(x - y)/(ln x - ln y) for x, y >= 0: x where they meet, 0 where one is 0."""
    if x == y or min(x, y) <= 0.0:
        return x if x == y else 0.0
    ratio = (x - y) / y
    return (x - y) / (math.log1p(ratio) if abs(ratio) < 0.5 else math.log(x) - math.log(y))


def _divergence_term(r, s):
    """r ln(r/s) - r + s >= 0, with an error of about eps |r - s|.

    Summed over the eigenvalue pairs of commuting rho and sigma, these terms
    give D(rho||sigma) - Tr rho + Tr sigma: for normalized weights the added
    terms sum to 0, and they cancel the first order of the rounding of r and
    s, so a barely entangled heavy block is not noise."""
    if r <= 0.0:
        return s
    return s - r + r * (math.log(r / s) if r < 0.5 * s else math.log1p((r - s) / s))


def _rounded_sum(*terms):
    """The sum of the terms, or 0 below 1e-15 of the largest: a root up to rounding."""
    total = math.fsum(terms)
    return 0.0 if abs(total) <= 1e-15 * max(map(abs, terms)) else total


def _falling_root(f, lo, hi, f_lo=None, f_hi=None):
    """Where f, positive near lo and not near hi, changes sign on (lo, hi).

    f returns its value and data; ``f_lo`` and ``f_hi`` are its limits at
    the ends where known, which are never evaluated.  Regula falsi with the
    Illinois weight shrinks the bracket; a step bisects instead (in
    geometric mean across more than a factor 4) until both ends carry a
    value, and whenever two steps failed to halve the bracket.  Returns the
    data at a root, or the last data with f <= 0 once the bracket is 1e-15
    wide relative to hi.
    """
    found, widths, side = None, [], 0
    for _ in range(200):
        floor = max(lo, _NORMAL_MIN)
        x = math.sqrt(floor) * math.sqrt(hi) if 4.0 * floor < hi else 0.5 * (lo + hi)
        if None not in (f_lo, f_hi) and (len(widths) < 2 or hi - lo <= 0.5 * widths[-2]):
            secant = hi - f_hi * ((hi - lo) / (f_hi - f_lo))
            x = secant if lo < secant < hi else x
        if hi - lo <= 1e-15 * hi or not lo < x < hi:
            break
        widths.append(hi - lo)
        value, data = f(x)
        if value == 0.0:
            return data
        if value > 0.0:
            lo, f_lo, f_hi = x, value, None if f_hi is None else f_hi * (0.5 if side > 0 else 1.0)
            side = 1
        else:
            hi, f_hi, found = x, value, data
            f_lo = None if f_lo is None else f_lo * (0.5 if side < 0 else 1.0)
            side = -1
    return f(hi)[1] if found is None else found


def _x_separable(u, v, s):
    """v moved by at most one float step so that the coherence (u - v)/2 is
    at most s = sqrt(a d)."""
    if 0.5 * (u - v) > s:
        v = u - 2.0 * s
        if 0.5 * (u - v) > s:
            v = math.nextafter(v, u)
    elif 0.5 * (v - u) > s:  # s is below the float spacing at u
        v = u
    return v


def _x_state_ree(r00, r11, p_plus, p_minus, delta=0.0):
    """REE of a normalized two-qubit X state.

    rho has corners r00, r11 and, on the middle pair (|01> +- |10>)/sqrt2
    with the phase of its coherence removed, the block R = [[P+, delta],
    [delta, P-]], P+ >= P-: delta is half the difference of the middle
    diagonals.  sigma takes the same form, corners a, d and middle block M
    = [[u, w], [w, v]]; with c = (u - v)/2 it is separable iff c^2 <= a d.
    For entangled rho the constraint is active, the sum multiplier is 1 by
    homogeneity, and with the constraint's multiplier nu the KKT point has
    s = sqrt(a d) = c, a = r00 + nu s and d = r11 + nu s
    (``_x_multiplier``), and D ln M[R] = diag(1 + nu, 1 - nu).

    For delta = 0, u = P+/(1 + nu) and v = P-/(1 - nu).  With T = r00 +
    r11, S = P+ + P- and D = P+ - P-, nu s = (s D - 2 r00 r11)/(S + 2T)
    turns c(s) = s into A s^2 = B s + C with A = 4(P+ + T)(P- + T), B = D(T
    S + 2 r00^2 + 2 r11^2) and C = r00 r11 (S + 2 r00)(S + 2 r11), all >=
    0, whose one nonnegative root is optimal (a KKT point of a convex
    problem).  Otherwise ``_x_unequal`` searches for the root of c(s) - s.
    Rounding of the normalized sigma moves onto the separable side by at
    most one float step of v.  Subnormal weights count as 0: the gradient's
    ratio of two of them keeps too few bits.  Returns the value, sigma's
    (a, d, u, v, w) and the proven gap y - Tr[G sigma], with y from
    ``_x_dual_bound`` at the gradient G of Tr[rho ln sigma].
    """
    r00, r11, p_plus, p_minus, delta = [x if abs(x) >= _NORMAL_MIN else 0.0
                                        for x in (r00, r11, p_plus, p_minus, delta)]
    if 0.25 * (p_plus - p_minus) ** 2 <= r00 * r11:
        return 0.0, (r00, r11, p_plus, p_minus, delta), 0.0  # PPT, hence separable
    if delta != 0.0:
        return _x_unequal(r00, r11, p_plus, p_minus, delta)
    rho_w = (r00, r11, p_plus, p_minus)
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
        nu_s, one_minus = _x_multiplier(r00, r11, s)
        kkt = (r00 + nu_s, r11 + nu_s, p_plus / (2.0 - one_minus), p_minus / one_minus)
        total = sum(kkt)  # 1 up to rounding: the sum multiplier is 1
        a, d, u, v, s = [x / total for x in (*kkt, s)]
        sigma_w = (a, d, u, _x_separable(u, v, s))
    grad = [r / s if r > 0.0 else 0.0 for r, s in zip(rho_w, sigma_w)]
    value = sum([_divergence_term(r, s) for r, s in zip(rho_w, sigma_w)])
    gap = _x_dual_bound(*grad) - sum(g * s for g, s in zip(grad, sigma_w))
    return value, (*sigma_w, 0.0), max(gap, 0.0)


def _x_unequal(r00, r11, p_plus, p_minus, delta):
    """``_x_state_ree`` of an entangled X state with delta != 0.

    Mirroring |01> - |10> takes delta > 0.  In M's eigenbasis at angle psi
    = psi_R + shift, psi_R that of R's top eigenvector, D ln M[R] = diag(1
    + nu, 1 - nu) reads lambda_1 = R~11/(1 + nu cos 2psi), lambda_2 =
    R~22/(1 - nu cos 2psi) and R~12 = -nu sin 2psi L(lambda_1, lambda_2),
    with L the logarithmic mean; c = cos 2psi (lambda_1 - lambda_2)/2.  The
    residual of the last equation is positive as shift -> 0+ and negative
    as shift -> pi/2-, and its one root between is M (a rank-one R has a
    spurious root at shift 0, outside the open bracket).  Around it, c(s) -
    s falls through 0 on (sqrt(r00 r11), 1/2).  Without corners, a = d = 0
    and M is R's middle diagonal.  The eigenvalues come from R~ written
    through R's eigenvalues, which keeps a small one; their difference and
    the residual from the traceless E = R - (Tr R/2) diag(1 + nu, 1 - nu),
    small where M is near a multiple of the identity and psi nearly free.
    """
    sign, delta = math.copysign(1.0, delta), abs(delta)
    p_minus = max(p_minus, delta * (delta / p_plus))  # R >= 0 despite rounding
    half_d, mean_r = 0.5 * (p_plus - p_minus), 0.5 * (p_plus + p_minus)
    mu1 = mean_r + math.hypot(half_d, delta)
    mu2 = max(float(Fraction(p_plus) * Fraction(p_minus) - Fraction(delta) ** 2) / mu1, 0.0)
    psi_r = 0.5 * math.atan2(delta, half_d)

    def rotated(shift):
        """R~11, R~22, R~12 in the basis at angle psi_R + shift."""
        cs, sn = math.cos(shift), math.sin(shift)
        return (mu1 * cs * cs + mu2 * sn * sn, mu1 * sn * sn + mu2 * cs * cs,
                -(mu1 - mu2) * sn * cs)

    def middle(nu, one_minus, shift):
        """The residual at angle psi_R + shift, and M there."""
        e = half_d - mean_r * nu if nu < 0.5 else mean_r * one_minus - p_minus
        cp, sp = math.cos(psi_r + shift), math.sin(psi_r + shift)
        cos2, sin2 = (cp - sp) * (cp + sp), 2.0 * sp * cp
        a1, a2 = one_minus + 2.0 * nu * cp * cp, one_minus + 2.0 * nu * sp * sp
        r1, r2, _ = rotated(shift)
        lam1, lam2 = r1 / a1, r2 / a2
        e11 = e * cos2 + delta * sin2
        tau = 2.0 * e11 / (a1 * a2 * (lam1 + lam2))  # (lambda_1 - lambda_2)/sum
        if abs(tau) < 1e-2:  # L - Tr R/2 through the series of artanh(tau) - tau
            t2 = tau * tau
            tail = tau * t2 * (1 / 3 + t2 * (1 / 5 + t2 * (1 / 7 + t2 / 9)))
            offset = -nu * cos2 * e11 / (a1 * a2)
            offset -= 0.5 * (lam1 + lam2) * tail / (tau + tail) if tau else 0.0
        else:
            offset = _log_mean(lam1, lam2) - mean_r
        return (_rounded_sum(delta * cos2, -e * sin2, nu * sin2 * offset),
                (shift, lam1, lam2, cos2 * e11 / (a1 * a2)))

    def excess(s):
        nu, one_minus = _x_multiplier(r00, r11, s)
        nu /= s
        edge = nu * math.sin(2.0 * psi_r) * _log_mean(  # the residual at shift 0+
            mu1 / (one_minus + 2.0 * nu * math.cos(psi_r) ** 2),
            mu2 / (one_minus + 2.0 * nu * math.sin(psi_r) ** 2))
        shift, lam1, lam2, c = _falling_root(lambda x: middle(nu, one_minus, x), 0.0,
                                             0.5 * math.pi, *((edge, -edge) if edge else ()))
        return _rounded_sum(c, -s), (shift, lam1, lam2, r00 + nu * s, r11 + nu * s)

    if r00 + r11 == 0.0:
        # M diagonal in |01>, -|10> (psi = pi/4), where R~ is R's middle block
        a = d = s = 0.0
        cp = sp = math.sqrt(0.5)
        shift = 0.25 * math.pi - psi_r
        lam1, lam2 = (math.fsum((mean_r, x)) for x in (delta, -delta))
        u, v, w, r1, r2, r12 = mean_r, mean_r, delta, lam1, lam2, -half_d
    else:
        g = math.sqrt(r00) * math.sqrt(r11)  # where nu = 0 and M = R
        shift, lam1, lam2, a, d = _falling_root(excess, g, 0.5, half_d - g)
        total = a + d + lam1 + lam2  # 1 up to rounding: the sum multiplier is 1
        a, d, lam1, lam2 = (x / total for x in (a, d, lam1, lam2))
        cp, sp = math.cos(psi_r + shift), math.sin(psi_r + shift)
        u, v = lam1 * cp * cp + lam2 * sp * sp, lam1 * sp * sp + lam2 * cp * cp
        w, s, m = (lam1 - lam2) * sp * cp, math.sqrt(a) * math.sqrt(d), 0.5 * (lam1 + lam2)
        spread = math.hypot(s, w)
        if abs(0.5 * (u - v) - s) > 1e-12 * m and spread <= m:
            # psi was nearly free: put M's coherence on s, its eigenbasis from there
            u, v, lam1, lam2 = m + s, m - s, m + spread, m - spread
            shift = 0.5 * math.atan2(w, s) - psi_r
            cp, sp = math.cos(psi_r + shift), math.sin(psi_r + shift)
        v = _x_separable(u, v, s)
        r1, r2, r12 = rotated(shift)
    # R = sum_i mu_i e_i e_i^T and M = sum_j lam_j f_j f_j^T, their bases
    # at angle shift: D(R||M) - Tr R + Tr M is the sum over (i, j) of
    # (e_i . f_j)^2 times the term of (mu_i, lam_j), each >= 0
    cs2, sn2 = math.cos(shift) ** 2, math.sin(shift) ** 2
    # a pair with zero overlap adds nothing, even where its term is infinite
    value = sum(weight * _divergence_term(r, x) for r, x, weight in (
        (r00, a, 1.0), (r11, d, 1.0), (mu1, lam1, cs2), (mu2, lam2, cs2),
        (mu1, lam2, sn2), (mu2, lam1, sn2)) if weight)
    # the gradient at sigma in M's eigenbasis, then on the middle pair
    g_a, g_d, g1, g2 = (r / x if r > 0.0 else 0.0
                        for r, x in ((r00, a), (r11, d), (r1, lam1), (r2, lam2)))
    mean = _log_mean(lam1, lam2)
    g12 = r12 / mean if mean > 0.0 else 0.0
    g_plus = cp * cp * g1 - 2.0 * cp * sp * g12 + sp * sp * g2
    g_minus = sp * sp * g1 + 2.0 * cp * sp * g12 + cp * cp * g2
    g_delta = cp * sp * (g1 - g2) + (cp - sp) * (cp + sp) * g12
    score = g_a * a + g_d * d + g_plus * u + g_minus * v + 2.0 * g_delta * w
    gap = _x_dual_bound(g_a, g_d, g_plus, g_minus, g_delta) - score
    return value, (a, d, u, v, sign * w), max(gap, 0.0)


# ---------------------------------------------------------------------------
# superselected REE: pinch once, then solve block by block

# off-diagonal entries of a 2 x 2 block other than the middle coherence
# between |01> and |10>
_NOT_X = ~np.eye(4, dtype=bool)
_NOT_X[1, 2] = _NOT_X[2, 1] = False


@functools.lru_cache(maxsize=None)
def _solved_blocks(dims, kind):
    """Local label pair and flat basis indices (one row each) of every block
    of the pinch ``kind`` that is not a product state, that is that has no
    one-state local sector.  A local sector holds at most two states, so
    every block listed is 2 x 2.  Cached per argument tuple and read-only.
    """
    labels = [_factor_labels((d,), kind)[:, 0] for d in dims]
    pairs = [(ia, ib) for ia, ib in itertools.product(*(_local_sectors(d, kind) for d in dims))
             if min(len(ia), len(ib)) >= 2]
    keys = tuple((int(labels[0][ia[0]]), int(labels[1][ib[0]])) for ia, ib in pairs)
    flat = np.array([(ia[:, None] * dims[1] + ib).ravel() for ia, ib in pairs],
                    dtype=np.intp).reshape(len(pairs), 4)
    flat.flags.writeable = False
    return keys, flat


def _x_block(block, p, closed):
    """``_x_state_ree`` on one unnormalized 2 x 2 X block of weight p: p E, p
    gap and p sigma.  A ``closed`` block, whose middle diagonals
    ``ree_numeric`` counts as equal, takes both at their mean.  Diagonals are
    clamped at 0, as P- is: a state that passed validation may still carry
    weights a rounding step below it."""
    d0, d1, d2, d3 = (max(x, 0.0) for x in np.diagonal(block).real.tolist())
    z = complex(block[1, 2])
    mid = 0.5 * (d1 + d2)
    val, (a, d, u, v, w), gap = _x_state_ree(
        d0 / p, d3 / p, (mid + abs(z)) / p, max(mid - abs(z), 0.0) / p,
        0.0 if closed else 0.5 * (d1 - d2) / p)
    m, c = p * 0.5 * (u + v), p * 0.5 * (u - v) * (z / abs(z))
    sigma = np.array([[p * a, 0, 0, 0], [0, m + p * w, c, 0], [0, c.conjugate(), m - p * w, 0],
                      [0, 0, 0, p * d]])
    return p * val, p * gap, sigma


# a result is ``converged`` when its summed gap is at most GAP_TOL; Frank-Wolfe
# stops each block there or after _FW_ITERS iterations
GAP_TOL = 1e-7
_FW_ITERS = 5000


def ree_numeric(rho: DensityMatrix, ssr: str) -> EntanglementResult:
    """Relative entropy of entanglement of rho pinched by ``ssr`` ('P' or
    'N'), split once into ``_solved_blocks``.

    Each 2 x 2 block of weight p is routed by rules relative to p, so that
    a dilute block is solved as its normalized state is.  It is X-shaped
    where every off-diagonal entry but its middle coherence z is at most
    1e-12 p, as every block of a state that commutes with the pair's N and
    2Sz is, and then exact: diagonal (it adds 0) where |z| <= 1e-12 p,
    otherwise an X state (``_x_state_ree``, closed-form where its middle
    diagonals differ by at most 1e-12 p).  Every other block goes to
    ``_ree_frank_wolfe``, whose gap is heuristic.  Value and gap are
    p-weighted sums, ``iterations`` and the other Frank-Wolfe counts plain
    sums; exact blocks take none.  ``method`` is "x-state", and the gap
    proven, when no block needed Frank-Wolfe.  ``converged`` flags, without
    raising, whether the summed gap is at most ``GAP_TOL`` (a warning is
    logged when not).  ``diagnostics`` also carries ``terms``, each block's
    p E keyed by its local label pair, and ``sigma``, the blocks' direct sum.
    """
    ssr_key = str(ssr).upper()
    if ssr_key not in ("P", "N"):
        raise ValueError(f"unknown superselection kind {ssr!r}")
    if len(rho.dims) != 2:
        raise ValueError("REE solver expects a bipartite density matrix")

    work = (gpi_local if ssr_key == "P" else gn_local)(rho)
    keys, flat = _solved_blocks(work.dims, ssr_key)
    blocks = work.mat[flat[:, :, None], flat[:, None, :]]
    diag = np.diagonal(blocks, axis1=1, axis2=2).real
    # weights summed left to right; np.trace pairs the terms, which moves
    # the last bit of X-state values
    weights = np.cumsum(diag, axis=1)[:, -1]
    # <= keeps exact zeros in place where 1e-12 p underflows to 0
    small = 1e-12 * weights
    x_shaped = np.abs(blocks[:, _NOT_X]).max(axis=1) <= small
    diagonal = (x_shaped & (np.abs(blocks[:, 1, 2]) <= small)).tolist()
    closed = (np.abs(diag[:, 1] - diag[:, 2]) <= small).tolist()
    weights = weights.tolist()
    sigmas = blocks.copy()  # a product or diagonal block is its own sigma
    terms, gaps, frank_wolfe = {}, [], []  # (iterations, counts) per Frank-Wolfe block
    for g, key in enumerate(keys):
        terms[key] = 0.0
        p = weights[g]
        if p <= 0.0 or diagonal[g]:
            continue
        if x_shaped[g]:
            terms[key], gap, sigmas[g] = _x_block(blocks[g], p, closed[g])
        else:
            value, gap, iterations, sigma_g, block_counts = _ree_frank_wolfe(
                blocks[g] / p, GAP_TOL, _FW_ITERS)
            terms[key], gap, sigmas[g] = p * value, p * gap, p * sigma_g
            frank_wolfe.append((iterations, block_counts))
        gaps.append(gap)
    sigma = work.mat.copy()
    sigma[flat[:, :, None], flat[:, None, :]] = sigmas

    gap = math.fsum(gaps)
    if gap > GAP_TOL:
        logger.warning("REE solver hit the iteration cap with gap %.3e", gap)
    counts = {name: sum(c[name] for _, c in frank_wolfe)
              for name in ("atoms", "objective_evals", "oracle_calls")}
    return EntanglementResult(
        value=math.fsum(terms.values()), ssr=ssr_key,
        method="numeric-ree" if frank_wolfe else "x-state",
        iterations=sum(n for n, _ in frank_wolfe), gap=gap, converged=gap <= GAP_TOL,
        diagnostics={**counts, "terms": terms, "sigma": sigma})


def pssr_entanglement(rho: DensityMatrix) -> EntanglementResult:
    """Parity-superselected entanglement: ``ree_numeric(rho, "P")``.

    The parity pinch leaves four 2 x 2 blocks.  A state that commutes with
    total N and 2Sz, as tight-binding states and orbital pairs of (N, Sz)
    eigenstates do, has diagonal mixed-parity blocks and X states in the
    others: its value is exact, with a proven gap and no iterations.
    """
    return ree_numeric(rho, "P")


def nssr_entanglement_dm(rho: DensityMatrix) -> EntanglementResult:
    """Number-superselected entanglement: ``ree_numeric(rho, "N")``.

    After the number pinch only the one-electron-each block is not a
    product state.  On an X state the value equals ``nssr_entanglement(r,
    t)`` where its corners, |up,up> and |down,down>, carry equal weight, as
    in the tight-binding states.
    """
    return ree_numeric(rho, "N")
