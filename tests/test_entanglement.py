import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fockref import REFLECTION
from fwref import frank_wolfe_pinched
from xstateref import closed_form
from xstateref import x_state_ree as bisected_x_state_ree
from orbent import entanglement
from orbent.channels import gn_local, gpi_local
from orbent.entanglement import (
    _local_sectors,
    _objective_and_grad,
    _product_oracle,
    _x_dual_bound,
    _x_state_ree,
    nssr_entanglement,
    nssr_entanglement_dm,
    pssr_entanglement,
    ree_numeric,
    relative_entropy,
    von_neumann_entropy,
)
from orbent.fock import DensityMatrix, _factor_labels, pure_state_dm, two_orbital_rdm
from orbent.freefermion import two_orbital_state_from_block
from orbent.interacting import HubbardParams, build_hamiltonian, ground_state
from orbent.tightbinding import TbQuery, tb_entanglement, w_kernel

LN2 = np.log(2.0)

# two-orbital basis |alpha>_A |beta>_B, alpha = n_up + 2 n_down, flat = 4a + b
_PSI_PLUS = np.zeros(16)
_PSI_PLUS[[4 * 1 + 2, 4 * 2 + 1]] = 1 / np.sqrt(2)  # (|up,down> + |down,up>)/sqrt2
_PHI_PLUS = np.zeros(16)
_PHI_PLUS[[4 * 0 + 3, 4 * 3 + 0]] = 1 / np.sqrt(2)  # (|0,updown> + |updown,0>)/sqrt2
_UPUP_DOWNDOWN = np.zeros(16)
_UPUP_DOWNDOWN[[4 * 1 + 1, 4 * 2 + 2]] = 1 / np.sqrt(2)  # corner coherence of the oo block

# independently computed (50-digit arithmetic) tight-binding reference point
ETA_HALF_D1 = {
    "W": 0.31830988618379067,
    "A": 0.12342657407585322,
    "B": 0.10132118364233777,
    "t": 0.22474775771819099,
    "r": 0.06631617130054635,
    "E": 0.045549554081600035,
}


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0, 0, 0])) == pytest.approx(0.0)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(LN2)

    def test_three_level_spectrum(self):
        assert von_neumann_entropy(np.diag([0.5, 0.25, 0.25])) == pytest.approx(1.5 * LN2)

    def test_relative_entropy_same_state(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        m = m @ m.T
        m /= np.trace(m)
        assert relative_entropy(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_pure_vs_mixed(self):
        assert relative_entropy(np.diag([1.0, 0, 0, 0]), np.eye(4) / 4) == \
            pytest.approx(np.log(4))

    def test_relative_entropy_diagonal(self):
        val = relative_entropy(np.diag([0.75, 0.25]), np.diag([0.25, 0.75]))
        assert val == pytest.approx(0.5 * np.log(3))

    def test_relative_entropy_infinite_off_support(self):
        assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == np.inf


class TestDecomposeSymmetric:
    """N-SSR values of symmetric states and of states that break one symmetry:
    the closed form where the one-electron-each block allows it, Frank-Wolfe
    otherwise."""

    def test_psi_plus(self):
        res = nssr_entanglement_dm(pure_state_dm(_PSI_PLUS, (4, 4)))
        assert res.method == "x-state" and res.gap <= 1e-15
        assert res.value == pytest.approx(LN2, abs=1e-15)

    def test_sz_broken_state_takes_frank_wolfe(self):
        res = nssr_entanglement_dm(pure_state_dm(_UPUP_DOWNDOWN, (4, 4)))
        assert res.method == "numeric-ree" and res.converged
        assert res.value == pytest.approx(LN2, abs=1e-7)

    def test_reflection_broken_state_is_exact(self):
        # unequal middle diagonals, but no coherence: a diagonal block
        mat = np.zeros((16, 16))
        mat[4 * 1 + 2, 4 * 1 + 2] = 0.8  # |up,down> vs |down,up> asymmetry
        mat[4 * 2 + 1, 4 * 2 + 1] = 0.2
        res = nssr_entanglement_dm(DensityMatrix(mat, (4, 4)))
        assert res.method == "x-state" and res.converged
        assert (res.value, res.gap, res.iterations) == (0.0, 0.0, 0)

    def test_number_broken_state_is_exact(self):
        # the number pinch removes the coherence: a product block and a
        # diagonal one
        v = np.zeros(16)
        v[0] = v[4 * 1 + 2] = 1 / np.sqrt(2)  # vacuum + (up,down) coherence
        res = nssr_entanglement_dm(pure_state_dm(v, (4, 4)))
        assert res.method == "x-state" and res.converged
        assert (res.value, res.gap, res.iterations) == (0.0, 0.0, 0)

    def test_wick_state_matches_reference_parameters(self):
        ref = tb_entanglement(TbQuery(eta=0.5, d=1))
        assert ref.t == pytest.approx(ETA_HALF_D1["t"], abs=1e-12)
        assert ref.r == pytest.approx(ETA_HALF_D1["r"], abs=1e-12)
        dm = two_orbital_state_from_block(0.5, 0.5, ETA_HALF_D1["W"])
        assert nssr_entanglement_dm(dm).value == \
            pytest.approx(nssr_entanglement(ref.r, ref.t), abs=1e-15)

    def test_sector_weights_sum_to_one(self):
        # a diagonal state is separable, and exchange symmetry keeps it exact
        rng = np.random.default_rng(5)
        diag = rng.random(16)
        dm = DensityMatrix(_symmetrize_reflection(np.diag(diag / diag.sum())), (4, 4))
        res = nssr_entanglement_dm(dm)
        assert res.method == "x-state"
        assert res.value == 0.0 and res.gap == 0.0


def _symmetrize_reflection(mat):
    return 0.5 * (mat + REFLECTION @ mat @ REFLECTION)


class TestClosedFormula:
    def test_psi_plus_value(self):
        assert nssr_entanglement(0.0, 1.0) == pytest.approx(LN2)

    def test_zero_when_r_dominates(self):
        assert nssr_entanglement(0.3, 0.2) == 0.0
        assert nssr_entanglement(0.2, 0.2) == 0.0

    def test_continuity_at_branch_point(self):
        assert abs(nssr_entanglement(0.2 * (1 - 1e-9), 0.2)) < 1e-9

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            nssr_entanglement(-0.1, 0.5)

    def test_tight_binding_reference_point(self):
        assert nssr_entanglement(ETA_HALF_D1["r"], ETA_HALF_D1["t"]) == \
            pytest.approx(ETA_HALF_D1["E"], abs=1e-15)

    def test_matches_sector_form_on_grid(self):
        # r = 3(A-B), t = A+B turns the sector formula into the A,B closed
        # form; physical states have B <= A < 2B in the entangled branch
        for a in np.linspace(0.01, 0.2, 15):
            for b in np.linspace(0.005, 0.2, 15):
                if not b <= a < 2 * b:
                    continue
                r, t = 3 * (a - b), a + b
                direct = (a + b) * np.log((a + b) / (2 * a - b))
                if r > 0:
                    direct += r * np.log(r / (2 * a - b))
                assert nssr_entanglement(r, t) == pytest.approx(direct, abs=1e-12)


class TestCriterion:
    def test_psi_plus_entangled(self):
        res = nssr_entanglement_dm(pure_state_dm(_PSI_PLUS, (4, 4)))
        assert res.value == pytest.approx(LN2, abs=1e-15)

    def test_product_state_separable(self):
        v = np.zeros(16)
        v[4 * 1 + 2] = 1.0  # |up> x |down>
        mat = np.outer(v, v)
        sym = DensityMatrix(_symmetrize_reflection(mat), (4, 4))
        # the mixture of |up,down> and |down,up>: no coherence, so separable
        res = nssr_entanglement_dm(sym)
        assert res.method == "x-state"
        assert res.value == 0.0 and res.gap == 0.0


class TestReeNumeric:
    def test_separable_diagonal_mixture(self):
        rng = np.random.default_rng(5)
        diag = rng.random(16)
        dm = DensityMatrix(np.diag(diag / diag.sum()), (4, 4))
        for ssr in ("P", "N"):
            res = ree_numeric(dm, ssr)
            assert res.method == "x-state" and res.converged
            assert (res.value, res.gap) == (0.0, 0.0)

    def test_pure_bell_state_gives_ln2(self):
        # a Bell pair in the oo parity block (the one-electron-each number
        # block) and in the ee parity block, each an X state
        for state, ssr in ((_PSI_PLUS, "P"), (_PSI_PLUS, "N"), (_PHI_PLUS, "P")):
            res = ree_numeric(pure_state_dm(state, (4, 4)), ssr)
            assert res.method == "x-state" and res.gap <= 1e-15
            assert res.value == pytest.approx(LN2, abs=1e-15)

    def test_nssr_projection_matches_closed_form(self):
        # Frank-Wolfe on the block the closed form solves
        dm = two_orbital_state_from_block(0.5, 0.5, ETA_HALF_D1["W"])
        res = frank_wolfe_pinched(dm, "N", tol=1e-7)
        assert res.converged and res.gap <= 1e-7
        assert res.value == pytest.approx(ETA_HALF_D1["E"], abs=1e-6)

    def test_phi_plus_parity_value(self):
        res = pssr_entanglement(pure_state_dm(_PHI_PLUS, (4, 4)))
        assert res.value == pytest.approx(LN2, abs=1e-7)

    def test_gn_projected_phi_plus_separable(self):
        res = ree_numeric(pure_state_dm(_PHI_PLUS, (4, 4)), ssr="N")
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_monotone_under_stronger_ssr(self):
        for eta, d in [(0.2, 1), (0.45, 1), (0.1, 2)]:
            dm = two_orbital_state_from_block(eta, eta, w_kernel(d, eta))
            e_p = ree_numeric(dm, ssr="P").value
            e_n = ree_numeric(dm, ssr="N").value
            assert e_n <= e_p + 1e-6

    def test_bounded_by_marginal_entropy(self):
        dm = two_orbital_state_from_block(0.3, 0.3, w_kernel(1, 0.3))
        work = gn_local(dm)
        res = ree_numeric(dm, ssr="N")
        marg = von_neumann_entropy(work.partial_trace((0,)))
        assert 0.0 <= res.value <= marg + 1e-6

    def test_unknown_ssr_rejected(self):
        # the unpinched relative entropy ("none") is not a superselection rule
        for ssr in ("Q", "none"):
            with pytest.raises(ValueError, match="unknown superselection kind"):
                ree_numeric(pure_state_dm(_PSI_PLUS, (4, 4)), ssr)

    def test_diagnostics_on_parity_blocks(self):
        # white noise leaves three diagonal parity blocks, and the corner
        # coherence sends the oo block to Frank-Wolfe
        dm = DensityMatrix(0.8 * np.outer(_UPUP_DOWNDOWN, _UPUP_DOWNDOWN)
                           + 0.2 * np.eye(16) / 16, (4, 4))
        res = ree_numeric(dm, ssr="P")
        assert res.converged and res.method == "numeric-ree"
        # no total N or 2Sz symmetry inside the oo block: it alone goes to
        # Frank-Wolfe, and the three diagonal blocks add 0
        terms = res.diagnostics["terms"]
        assert list(terms) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert terms[(1, 1)] == res.value > 0.0
        assert [terms[key] for key in [(0, 0), (0, 1), (1, 0)]] == [0.0, 0.0, 0.0]
        # one or two local searches per outer iteration, no random starts
        assert res.iterations <= res.diagnostics["oracle_calls"] <= 2 * res.iterations
        assert res.diagnostics["objective_evals"] > res.iterations
        again = ree_numeric(dm, ssr="P")
        sigma, again_sigma = res.diagnostics.pop("sigma"), again.diagnostics.pop("sigma")
        assert np.array_equal(sigma, again_sigma)
        assert (again.value, again.gap, again.diagnostics) == \
            (res.value, res.gap, res.diagnostics)

    def test_one_state_sectors_give_product_blocks(self):
        # every parity block of two spinless modes is a product state
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        res = ree_numeric(DensityMatrix(x @ x.conj().T / np.trace(x @ x.conj().T).real,
                                        (2, 2)), ssr="P")
        assert (res.value, res.gap, res.iterations, res.converged) == (0.0, 0.0, 0, True)
        # no two-qubit block at all, so none for Frank-Wolfe
        assert (res.method, res.diagnostics["terms"]) == ("x-state", {})

    def test_ee_block_of_hubbard_ring(self):
        # the |0>,|updown> x |0>,|updown> parity block of sites 0 and 2 of the
        # L=6, U=4, N=3, 2Sz=1 ground state, alone in a state of its own; a
        # search over PPT X states finds 1.7448e-4, and Frank-Wolfe refining
        # one Bloch-grid point once stopped at 1.8805e-4.  Its middle
        # diagonals differ, and the exact route proves its minimum
        gs = ground_state(build_hamiltonian(HubbardParams(6, 4.0), 3, 1))
        idx = np.ix_([0, 3, 12, 15], [0, 3, 12, 15])
        block = gpi_local(two_orbital_rdm(gs.state, 0, 2)).mat[idx]
        assert abs(block[1, 1] - block[2, 2]) > 1e-5
        mat = np.zeros((16, 16), dtype=complex)
        mat[idx] = block / np.trace(block).real
        res = ree_numeric(DensityMatrix(mat, (4, 4)), "P")
        assert res.method == "x-state" and res.gap <= 1e-12
        assert res.value <= 1.7450e-4

    def test_nonconvergence_flagged(self):
        # the corner coherence sends the one-electron-each block to Frank-Wolfe
        dm = pure_state_dm(_UPUP_DOWNDOWN, (4, 4))
        res = ree_numeric(dm, ssr="N", tol=1e-13, max_iters=1)
        assert res.method == "numeric-ree" and not res.converged
        assert res.gap > 0

    def test_converged_reads_the_summed_gap(self):
        # (1 - eps)|0,0> + eps |upup + downdown>: only the one-electron-each
        # block is solved, by Frank-Wolfe, and one iteration leaves a gap
        for eps, converged in ((1e-9, True), (0.5, False)):
            m = eps * np.outer(_UPUP_DOWNDOWN, _UPUP_DOWNDOWN)
            m[0, 0] += 1.0 - eps
            res = ree_numeric(DensityMatrix(m, (4, 4)), ssr="N", max_iters=1)
            assert res.method == "numeric-ree" and res.iterations == 1 and res.gap > 0
            assert res.converged is converged is (res.gap <= 1e-7)

    def test_iteration_cap_below_one_rejected(self):
        # zero iterations once returned value and gap inf
        dm = two_orbital_state_from_block(0.5, 0.5, ETA_HALF_D1["W"])
        with pytest.raises(ValueError, match="max_iters"):
            ree_numeric(dm, ssr="P", max_iters=0)


class TestPvsN:
    def test_practically_indistinguishable_at_d2(self):
        for eta in (0.1, 0.3):
            dm = two_orbital_state_from_block(eta, eta, w_kernel(2, eta))
            e_n = tb_entanglement(TbQuery(eta=eta, d=2)).e_nssr
            e_p = pssr_entanglement(dm).value
            assert abs(e_p - e_n) < 1e-3
            assert e_p >= e_n - 1e-7


# ---------------------------------------------------------------------------
# exact P-SSR route: two two-qubit X-state problems

TB_ANCHORS = ((0.2, 1), (0.1, 2), (0.45, 1), (0.5, 1), (0.05, 5), (0.03, 8), (0.01, 20))


def _partial_transpose(mat):
    return mat.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(16, 16)


def _symmetric_state(rng, noise):
    """Mixture of one to three pure states inside (N, 2Sz) sectors, mostly the
    (2, 0) one, plus ``noise`` times a full-rank state that is block diagonal
    in (N, 2Sz); exchange symmetric."""
    keys = sorted(set(zip(_N_TOT.tolist(), _SZ2_TOT.tolist())))
    mat = np.zeros((16, 16), dtype=complex)
    for _ in range(rng.integers(1, 4)):
        n, sz = (2, 0) if rng.random() < 0.6 else keys[rng.integers(len(keys))]
        inside = (_N_TOT == n) & (_SZ2_TOT == sz)
        v = np.zeros(16, dtype=complex)
        v[inside] = rng.normal(size=inside.sum()) + 1j * rng.normal(size=inside.sum())
        mat += rng.uniform(0.1, 1.0) * np.outer(v, v.conj()) / np.vdot(v, v).real
    sectors = np.equal.outer(_N_TOT, _N_TOT) & np.equal.outer(_SZ2_TOT, _SZ2_TOT)
    full = _random_state(rng, sectors)
    mat = (1 - noise) * mat / np.trace(mat).real + noise * full
    return DensityMatrix(_symmetrize_reflection(mat), (4, 4))


@st.composite
def _x_weights(draw):
    """Normalized (r00, r11, P+, P-) of an X state with P+ >= P-: corners and
    P- of 0 or down to 1e-150, and half of the draws with two corners just
    past the PPT boundary (P+ - P-)^2/4 = r00 r11."""
    corner = st.one_of(st.just(0.0), st.floats(1e-150, 1.0),
                       st.floats(-150.0, 0.0).map(lambda e: 10.0 ** e))
    r00, r11 = draw(corner), draw(corner)
    p_minus = draw(st.one_of(st.just(0.0), st.floats(1e-150, 1.0)))
    if r00 * r11 > 0.0 and draw(st.booleans()):
        excess = 10.0 ** draw(st.floats(-12.0, 0.0))
        delta = 2.0 * math.sqrt(r00) * math.sqrt(r11) * (1.0 + excess)
    else:
        delta = draw(st.floats(0.0, 1.0))
    total = r00 + r11 + 2.0 * p_minus + delta
    assume(total > 0.0)
    return r00 / total, r11 / total, (p_minus + delta) / total, p_minus / total


@st.composite
def _x_blocks(draw):
    """Normalized (r00, r11, P+, P-, delta) of an X state, drawn through its
    middle block [[m1, z], [z, m2]] in |01>, |10>: corners of 0 or down to
    1e-150, middle diagonals equal or apart (down to 1e-12 each), and z at
    the rank-one bound z^2 = m1 m2, just past the PPT boundary z^2 = r00
    r11, or between."""
    corner = st.one_of(st.just(0.0), st.floats(1e-150, 1.0),
                       st.floats(-150.0, 0.0).map(lambda e: 10.0 ** e))
    diagonal = st.one_of(st.floats(1e-12, 1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))
    r00, r11, m1 = draw(corner), draw(corner), draw(diagonal)
    m2 = m1 if draw(st.booleans()) else draw(diagonal)
    rank_one = math.sqrt(m1) * math.sqrt(m2)
    kind = draw(st.sampled_from(["rank-one", "ppt-edge", "inside"]))
    if kind == "rank-one":
        z = rank_one
    elif kind == "ppt-edge":
        z = math.sqrt(r00) * math.sqrt(r11) * (1.0 + 10.0 ** draw(st.floats(-12.0, 0.0)))
        assume(z <= rank_one)
    else:
        z = draw(st.floats(0.0, 1.0)) * rank_one
    total = r00 + r11 + m1 + m2
    mid, delta = 0.5 * (m1 + m2) / total, 0.5 * (m1 - m2) / total
    p_plus, p_minus = mid + z / total, max(mid - z / total, 0.0)
    if kind == "rank-one" and delta != 0.0:
        # P+ P- = delta^2 on the rank-one bound; mid - z cancels there and
        # can put P+ P- a rounding step below delta^2, outside the states
        p_minus = delta * delta / p_plus
    return r00 / total, r11 / total, p_plus, p_minus, delta


def _no_subnormal(weights):
    """Whether every weight is 0 or a normal float: ``_x_state_ree`` counts
    subnormal weights as 0, where the closed form's old bits differ."""
    return all(x == 0.0 or abs(x) >= sys.float_info.min for x in weights)


def _x_matrix(r00, r11, p_plus, p_minus, delta=0.0, w=0.0):
    """The 4 x 4 X state of ``_x_state_ree``'s weights, or of a sigma's with w."""
    mid, z = 0.5 * (p_plus + p_minus), 0.5 * (p_plus - p_minus)
    return np.array([[r00, 0, 0, 0], [0, mid + delta + w, z, 0],
                     [0, z, mid - delta - w, 0], [0, 0, 0, r11]])


_FINE_BLOCH = np.stack(
    [np.cos(np.linspace(0, np.pi, 91)[None, :] / 2) + 0j * np.zeros((180, 1)),
     np.exp(1j * np.linspace(0, 2 * np.pi, 180))[:, None]
     * np.sin(np.linspace(0, np.pi, 91)[None, :] / 2)], axis=-1).reshape(-1, 2)


class TestXState:
    """Exact REE of any X block (``_x_state_ree``) against its certificate,
    the product states and Frank-Wolfe; gap bound fixed before the first run."""

    @settings(max_examples=300, deadline=None)
    @given(_x_blocks())
    @example((0.08036526457842039, 0.2793896830964973, 0.6402450523250823, 5e-324, 0.0))
    def test_minimum_with_proven_gap(self, weights):
        value, sigma_w, gap = _x_state_ree(*weights)
        a, d, u, v, w = sigma_w
        assert min(a, d, u, v) >= 0.0 and w * w <= u * v * (1 + 1e-12)
        assert (u - v) ** 2 / 4 <= a * d * (1 + 1e-12)
        assert gap <= 1e-10
        if weights[4] == 0.0 and _no_subnormal(weights):
            assert (value, sigma_w[:4], gap) == closed_form(*weights[:4]) and w == 0.0

        # the dual bound at the gradient G = D ln sigma[rho] is at least every
        # product state's score on a fine Bloch grid of the first factor
        rho, sigma = _x_matrix(*weights), _x_matrix(*sigma_w[:4], weights[4], w)
        _, grad = _objective_and_grad(rho, 0.0, sigma)
        g = grad.real
        h, half = 0.5 * (g[1, 1] + g[2, 2]), 0.5 * (g[1, 1] - g[2, 2])
        bound = _x_dual_bound(g[0, 0], g[3, 3], h + g[1, 2], h - g[1, 2], half)
        m = np.einsum("ni,ikjl,nj->nkl", _FINE_BLOCH.conj(), g.reshape(2, 2, 2, 2),
                      _FINE_BLOCH)
        top = 0.5 * (m[:, 0, 0] + m[:, 1, 1]).real + np.hypot(
            0.5 * (m[:, 0, 0] - m[:, 1, 1]).real, np.abs(m[:, 0, 1]))
        best = top.max()
        assert bound >= best - 1e-12 * max(1.0, abs(bound))

    @settings(max_examples=6, deadline=None)
    @given(_x_blocks())
    def test_below_frank_wolfe(self, weights):
        # the block alone as the ee parity block of a pair state: every
        # Frank-Wolfe iterate is a separable upper bound, and the cap keeps
        # the solve short
        value = _x_state_ree(*weights)[0]
        mat = np.zeros((16, 16))
        mat[np.ix_([0, 3, 12, 15], [0, 3, 12, 15])] = _x_matrix(*weights)
        dm = DensityMatrix(mat, (4, 4))
        assert value <= frank_wolfe_pinched(dm, "P", max_iters=20).value + 1e-12
        assert abs(ree_numeric(dm, "P").value - value) <= 1e-12


class TestPssrExact:
    def test_oo_term_is_nssr_value(self):
        for eta, d in TB_ANCHORS:
            dm = two_orbital_state_from_block(eta, eta, w_kernel(d, eta))
            ref = tb_entanglement(TbQuery(eta=eta, d=d))
            res = pssr_entanglement(dm)
            assert res.method == "x-state"
            oo = res.diagnostics["terms"][(1, 1)]
            assert abs(oo - nssr_entanglement(ref.r, ref.t)) < 1e-12

    def test_dilute_regression_point(self):
        # Frank-Wolfe stops 1.33e-6 above this minimum while reporting a
        # gap of 7.4e-11: its product-state oracle is stuck there
        dm = two_orbital_state_from_block(0.05, 0.05, w_kernel(5, 0.05))
        res = pssr_entanglement(dm)
        assert res.method == "x-state" and res.converged and res.gap <= 1e-10
        assert abs(res.value - 9.4577775218870e-04) < 1e-12

    def test_bell_pair_without_corner_weight(self):
        res = pssr_entanglement(pure_state_dm(_PSI_PLUS, (4, 4)))
        assert res.method == "x-state" and res.gap <= 1e-15
        assert res.value == pytest.approx(LN2, abs=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.02, 0.3]))
    def test_minimum_with_proven_gap(self, seed, noise):
        rng = np.random.default_rng(seed)
        dm = _symmetric_state(rng, noise)
        for ssr, route, pinch in (("P", pssr_entanglement, gpi_local),
                                  ("N", nssr_entanglement_dm, gn_local)):
            res = route(dm)
            assert res.method == "x-state" and res.converged and res.ssr == ssr
            assert res.gap <= 1e-10
            sigma = res.diagnostics["sigma"]
            assert np.linalg.eigvalsh(sigma)[0] >= -1e-12
            assert np.linalg.eigvalsh(_partial_transpose(sigma))[0] >= -1e-12
            pinched = pinch(dm)
            assert abs(relative_entropy(pinched, sigma) - res.value) < 1e-12
            # no PPT mixture of sigma with a random separable X state does better
            for _ in range(20):
                tau = np.diag(rng.random(16)).astype(complex)
                for i1, i2, i0, i3 in ((3, 12, 0, 15), (6, 9, 5, 10)):
                    c = rng.random() * min(np.sqrt(tau[i0, i0] * tau[i3, i3]),
                                           np.sqrt(tau[i1, i1] * tau[i2, i2]))
                    tau[i1, i2] = tau[i2, i1] = c * np.sign(pinched.mat[i1, i2].real or 1.0)
                lam = rng.random() ** 2
                mix = (1 - lam) * sigma + lam * tau / np.trace(tau).real
                assert relative_entropy(pinched, mix) >= res.value - 1e-12
            # every Frank-Wolfe iterate is a separable upper bound; the cap keeps
            # the solve short on rank-deficient draws, where it can take minutes
            assert res.value <= frank_wolfe_pinched(dm, ssr, max_iters=5).value + 1e-12

    def test_iteration_cap_leaves_the_exact_route_alone(self):
        # exact blocks take no iterations, so the cap applies to Frank-Wolfe only
        dm = two_orbital_state_from_block(0.2, 0.2, w_kernel(1, 0.2))
        exact = pssr_entanglement(dm)
        capped = ree_numeric(dm, "P", max_iters=1)
        assert capped.method == exact.method == "x-state" and capped.converged
        assert capped.iterations == exact.iterations == 0
        assert (capped.value, capped.gap) == (exact.value, exact.gap)
        assert np.array_equal(capped.diagnostics["sigma"], exact.diagnostics["sigma"])

    @pytest.mark.parametrize("weights", [(0.1, 0.05, 0.6, 0.25), (0.3, 0.0, 0.7, 0.0),
                                         (1e-6, 1e-6, 0.6, 0.4 - 2e-6)])
    def test_capped_bisection_brackets_the_minimum(self, weights):
        # points where a bisection capped at 0 or 1 steps once left the KKT
        # coherence below -sqrt(a d): the closed form's sigma must be separable
        # and its value, less the gap, must bracket the bisected minimum
        exact = bisected_x_state_ree(*weights)[0]
        value, sigma_w, gap = _x_state_ree(*weights)
        a, d, u, v, w = sigma_w
        assert (u - v) ** 2 / 4 <= a * d * (1 + 1e-12) and min(sigma_w) >= 0.0 and w == 0.0
        assert value - gap <= exact + 1e-15 and exact <= value + 1e-15
        assert gap <= 2e-15

    @settings(max_examples=300, deadline=None)
    @given(_x_weights())
    def test_closed_form_matches_bisection(self, weights):
        value, sigma_w, gap = _x_state_ree(*weights)
        a, d, u, v, w = sigma_w
        assert (u - v) ** 2 / 4 <= a * d * (1 + 1e-12) and min(sigma_w) >= 0.0 and w == 0.0
        assert abs(value - bisected_x_state_ree(*weights)[0]) <= 2e-15
        assert gap <= 2e-15
        if _no_subnormal(weights):
            assert (value, sigma_w[:4], gap) == closed_form(*weights)

    def test_tiny_corner_weights(self):
        # corners of 1e-170 once underflowed the KKT point to a zero divisor
        def state(corner):
            mat = np.zeros((16, 16))
            mat[5, 5] = mat[10, 10] = corner  # |up,up>, |down,down>
            mat[6, 6] = mat[9, 9] = 0.3
            mat[6, 9] = mat[9, 6] = 0.29
            mat[0, 0] = 1.0 - np.trace(mat)
            return DensityMatrix(mat, (4, 4))

        for route in (pssr_entanglement, nssr_entanglement_dm):
            res = route(state(1e-170))
            assert res.method == "x-state" and res.gap <= 1e-15
            assert abs(res.value - route(state(0.0)).value) <= 1e-15

    @pytest.mark.parametrize("pair", [(3, 12), (6, 9)])
    def test_unequal_diagonals_are_exact(self, pair):
        # extra weight on one middle state of the ee or the oo block
        dm = two_orbital_state_from_block(0.2, 0.2, w_kernel(1, 0.2))
        extra = np.zeros((16, 16))
        extra[pair[0], pair[0]] = 1.0
        lopsided = DensityMatrix(0.9 * dm.mat + 0.1 * extra, (4, 4))
        res = pssr_entanglement(lopsided)
        assert res.method == "x-state" and res.iterations == 0 and res.gap <= 1e-12
        assert abs(relative_entropy(gpi_local(lopsided), res.diagnostics["sigma"])
                   - res.value) < 1e-12
        fw = frank_wolfe_pinched(lopsided, "P")
        assert fw.value - fw.gap - 1e-12 <= res.value <= fw.value + 1e-12

    def test_number_pinch_leaves_one_coherent_group(self):
        # under N-SSR only "oo" is coherent: unequal "ee" diagonals only
        # rescale its term, and unequal "oo" ones keep the exact route too
        dm = two_orbital_state_from_block(0.2, 0.2, w_kernel(1, 0.2))

        def lopsided(i):
            return DensityMatrix(0.9 * dm.mat + 0.1 * np.diag(np.eye(16)[i]), (4, 4))

        res = nssr_entanglement_dm(lopsided(3))
        assert res.method == "x-state"
        assert res.value == pytest.approx(0.9 * nssr_entanglement_dm(dm).value, abs=1e-15)
        res = nssr_entanglement_dm(lopsided(6))
        fw = frank_wolfe_pinched(lopsided(6), "N")
        assert res.method == "x-state" and res.gap <= 1e-12
        assert fw.value - fw.gap - 1e-12 <= res.value <= fw.value + 1e-12

    def test_sz_coherence_takes_frank_wolfe(self):
        res = ree_numeric(pure_state_dm(_UPUP_DOWNDOWN, (4, 4)), "P", max_iters=1)
        assert res.method == "numeric-ree"


def test_nssr_entanglement_dm_wrapper():
    dm = two_orbital_state_from_block(0.5, 0.5, ETA_HALF_D1["W"])
    res = nssr_entanglement_dm(dm)
    assert res.method == "x-state" and res.ssr == "N" and res.gap <= 1e-15
    # the one-electron-each block is the only one that is not a product state
    assert res.diagnostics["terms"] == {(1, 1): res.value}
    assert res.value == pytest.approx(ETA_HALF_D1["E"], abs=1e-12)


# ---------------------------------------------------------------------------
# one block split: closed form or Frank-Wolfe on each two-qubit block


def _two_qubit_block(rng, kind):
    """Unnormalized 2 x 2 block (|00>, |01>, |10>, |11>): diagonal with unequal
    entries, an X state with equal or unequal middle diagonals (exact), or
    a corner coherence (Frank-Wolfe)."""
    d = rng.random(4)
    if kind != "corner":
        d[[0, 3]] *= rng.choice([0.0, 0.05, 1.0])  # small or no corner weight
    if kind == "x-equal":
        d[2] = d[1]
    block = np.diag(d).astype(complex)
    if kind != "diagonal":
        i, j = (0, 3) if kind == "corner" else (1, 2)
        block[i, j] = rng.random() * np.sqrt(d[i] * d[j]) * np.exp(2j * np.pi * rng.random())
        block[j, i] = np.conj(block[i, j])
    return block


class TestBlockSplit:
    # Frank-Wolfe takes 0.01-1.6 s on one of these blocks, so few draws
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["P", "N"]),
           st.lists(st.sampled_from(["diagonal", "x-equal", "x-unequal", "corner"]),
                    min_size=4, max_size=4))
    @example(0, "P", ["x-equal", "x-equal", "x-equal", "x-equal"])  # N-breaking eo, oe
    def test_direct_sum_of_random_blocks(self, seed, ssr, kinds):
        # a pinched state built block by block: under P the eo and oe blocks
        # take every shape, including middle coherences that break N
        rng = np.random.default_rng(seed)
        mat = np.zeros((16, 16), dtype=complex)
        solved, needs_fw = [], False
        for ia, ib in itertools.product(_local_sectors(4, ssr), repeat=2):
            flat = (ia[:, None] * 4 + ib).ravel()
            if min(len(ia), len(ib)) == 2:
                kind = kinds[len(solved)]
                needs_fw |= kind == "corner"
                solved.append((flat, kind))
                block = _two_qubit_block(rng, kind)
            else:
                x = rng.normal(size=(len(flat), 2)) + 1j * rng.normal(size=(len(flat), 2))
                block = x @ x.conj().T
            mat[np.ix_(flat, flat)] = rng.random() * block / np.trace(block).real
        dm = DensityMatrix(mat / np.trace(mat).real, (4, 4))

        res = ree_numeric(dm, ssr)
        assert (res.method == "x-state") is (not needs_fw)
        assert (res.method == "numeric-ree") is needs_fw
        assert len(res.diagnostics["terms"]) == len(solved)
        if not needs_fw:
            assert res.gap <= 1e-10

        # E = sum_g p_g E(rho_g / p_g), each block solved as a state of its own
        alone_value = alone_gap = 0.0
        for flat, kind in solved:
            one = np.zeros((16, 16), dtype=complex)
            one[np.ix_(flat, flat)] = dm.mat[np.ix_(flat, flat)]
            p = np.trace(one).real
            alone = ree_numeric(DensityMatrix(one / p, (4, 4)), ssr)
            assert (alone.method == "x-state") is (kind != "corner")
            if alone.method == "x-state":
                assert alone.gap <= 1e-10
            alone_value += p * alone.value
            alone_gap += p * alone.gap
        assert abs(res.value - alone_value) <= res.gap + alone_gap + 1e-12

        sigma = res.diagnostics["sigma"]
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-12
        for flat, _ in solved:
            block = sigma[np.ix_(flat, flat)]
            assert np.linalg.eigvalsh(block.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1)
                                      .reshape(4, 4))[0] >= -1e-12
        assert abs(relative_entropy(dm, sigma) - res.value) < 1e-10

    def test_one_pinch_per_call(self, monkeypatch):
        # one pinch per call, also when a block goes to Frank-Wolfe
        calls = []

        def counted(rho):
            calls.append(rho)
            return gpi_local(rho)

        monkeypatch.setattr(entanglement, "gpi_local", counted)
        dm = DensityMatrix(0.8 * np.outer(_UPUP_DOWNDOWN, _UPUP_DOWNDOWN)
                           + 0.2 * np.eye(16) / 16, (4, 4))
        assert pssr_entanglement(dm).method == "numeric-ree"
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# blockwise objective and local-sector oracle against dense references

_N_TOT = _factor_labels((4, 4), "N").sum(axis=1)
_SZ2_LOCAL = np.array([0, 1, -1, 0])  # 2Sz of |0>, |up>, |down>, |updown>
_SZ2_TOT = np.add.outer(_SZ2_LOCAL, _SZ2_LOCAL).ravel()


def _two_orbital_key(kind):
    """Block key of each (4, 4) basis state: local labels of the pinch, N, 2Sz."""
    if kind == "unstructured":
        return np.zeros((16, 1), dtype=int)
    cols = [_N_TOT, _SZ2_TOT]
    if kind in ("P", "N"):
        local = _factor_labels((4,), kind)[:, 0]
        cols += [np.repeat(local, 4), np.tile(local, 4)]
    return np.stack(cols, axis=1)


def _local_key(kind):
    local = _factor_labels((4,), kind)[:, 0]
    return np.stack([np.repeat(local, 4), np.tile(local, 4)], axis=1)


def _same_block(key):
    return np.all(key[:, None, :] == key[None, :, :], axis=-1)


def _random_state(rng, mask):
    x = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
    mat = (x @ x.conj().T) * mask
    return mat / np.trace(mat).real


def _dense_objective(rho, sigma):
    """S(rho||sigma) and D ln(sigma)[rho] on the full 16 x 16 matrices."""
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-300]
    s, v = np.linalg.eigh(sigma)
    rt = v.conj().T @ rho @ v
    weight = np.diag(rt).real
    kernel = s <= 1e-14 * s.max()
    if np.sum(weight[kernel]) > 1e-12:
        return np.inf, None
    g = np.zeros((16, 16))
    for i in range(16):
        for j in range(16):
            if s[i] == s[j]:
                g[i, j] = 1.0 / s[i]
            else:
                g[i, j] = (np.log(s[i]) - np.log(s[j])) / (s[i] - s[j])
    return float(np.sum(p * np.log(p)) - np.sum(weight * np.log(s))), v @ (rt * g) @ v.conj().T


class TestBlockwiseObjective:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["P", "N", "none", "unstructured"]))
    def test_matches_dense_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        key = _two_orbital_key(kind)
        mask = _same_block(key)
        _, block_of = np.unique(key, axis=0, return_inverse=True)
        blocks = [np.flatnonzero(block_of.ravel() == b) for b in range(block_of.max() + 1)]
        rho = _random_state(rng, mask)
        sigma = _random_state(rng, mask)
        p = np.linalg.eigvalsh(rho)
        tr_rho_ln_rho = float(np.sum(p * np.log(p)))

        # block by block, Tr[rho ln rho] of the whole state added once
        val, dense = tr_rho_ln_rho, np.zeros((16, 16), dtype=complex)
        for b in blocks:
            block_val, dense[np.ix_(b, b)] = _objective_and_grad(
                rho[np.ix_(b, b)], 0.0, sigma[np.ix_(b, b)])
            val += block_val
        ref_val, ref_grad = _dense_objective(rho, sigma)
        assert abs(val - ref_val) < 1e-12
        assert np.max(np.abs(dense - ref_grad)) < 1e-12

        # a sigma whose kernel carries weight of rho is infinitely far away
        diag = rng.random(16) + 0.1
        diag[rng.integers(16)] = 0.0
        kernel_sigma = np.diag(diag / diag.sum())
        val = sum(_objective_and_grad(rho[np.ix_(b, b)], 0.0, kernel_sigma[np.ix_(b, b)])[0]
                  for b in blocks)
        assert val == np.inf
        assert _dense_objective(rho, kernel_sigma)[0] == np.inf


def test_zero_row_of_sigma_is_kernel_in_objective():
    """The objective and ``relative_entropy`` share one kernel rule: eigh
    returns about +-1e-17 for an exactly zero row and column of sigma, which
    is kernel, so rho's weight there makes both infinite."""
    rng = np.random.default_rng(20)
    full = np.ones((16, 16), dtype=bool)
    for _ in range(50):
        rho = _random_state(rng, full)
        sigma = _random_state(rng, full)
        k = rng.integers(16)
        sigma[k, :] = sigma[:, k] = 0.0
        sigma /= np.trace(sigma).real
        p = np.linalg.eigvalsh(rho)
        val, _ = _objective_and_grad(rho, float(np.sum(p * np.log(p))), sigma)
        assert val == np.inf
        assert relative_entropy(rho, sigma) == np.inf


def _sector_search(g, sectors):
    """Best product state for G block diagonal in both local labels: the
    oracle on each 2 x 2 pair of sectors, the exact top eigenvector where a
    sector holds one state; factors as 4-dim vectors."""
    best = -np.inf, None
    for ia in sectors:
        for ib in sectors:
            flat = (ia[:, None] * 4 + ib[None, :]).ravel()
            block = g[np.ix_(flat, flat)]
            if min(len(ia), len(ib)) == 1:
                w, vecs = np.linalg.eigh(block)
                top = vecs[:, -1].reshape(len(ia), len(ib))
                val, (a, b) = w[-1], ((top[:, 0], np.ones(1)) if len(ib) == 1
                                      else (np.ones(1), top[0]))
            else:
                val, (a, b), _ = _product_oracle(block)
            if val > best[0]:
                full_a, full_b = np.zeros(4, dtype=complex), np.zeros(4, dtype=complex)
                full_a[ia], full_b[ib] = a, b
                best = val, (full_a, full_b)
    return best


class TestSectorOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["P", "N"]))
    @example(292760, "N")  # refining one grid point stopped at 4.656172 of 4.657881
    def test_beats_dense_sampling(self, seed, kind):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        g = (x + x.conj().T) * _same_block(_local_key(kind))
        sectors = _local_sectors(4, kind)
        value, (a, b) = _sector_search(g, sectors)

        ab = np.kron(a, b)
        assert abs(np.vdot(ab, g @ ab).real - value) < 1e-12
        assert value <= np.linalg.eigvalsh(g)[-1] + 1e-12
        a_s = rng.normal(size=(4000, 4)) + 1j * rng.normal(size=(4000, 4))
        b_s = rng.normal(size=(4000, 4)) + 1j * rng.normal(size=(4000, 4))
        a_s /= np.linalg.norm(a_s, axis=1, keepdims=True)
        b_s /= np.linalg.norm(b_s, axis=1, keepdims=True)
        prods = (a_s[:, :, None] * b_s[:, None, :]).reshape(-1, 16)
        sampled = np.einsum("ni,ij,nj->n", prods.conj(), g, prods).real
        assert value >= sampled.max() - 1e-12

        # a fine scan of each factor a inside each sector, with the exact best b
        theta, phi = np.meshgrid(np.linspace(0, np.pi, 91), np.linspace(0, 2 * np.pi, 180))
        grid = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)],
                        axis=-1).reshape(-1, 2)
        g4 = g.reshape(4, 4, 4, 4)
        for ia in sectors:
            scan = grid if len(ia) == 2 else np.ones((1, 1))
            for ib in sectors:
                m = np.einsum("ni,ikjl,nj->nkl", scan.conj(), g4[np.ix_(ia, ib, ia, ib)], scan)
                assert value >= np.linalg.eigvalsh(m)[:, -1].max() - 1e-12
