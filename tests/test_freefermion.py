import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockref import amplitudes, apply_annihilate, apply_create, block_entropy, slater_fock_state
from orbent.entanglement import nssr_entanglement, nssr_entanglement_dm, von_neumann_entropy
from orbent.fock import DensityMatrix, two_orbital_rdm
from orbent.freefermion import (
    _PAIR_INDEX,
    _two_mode_gaussian,
    DegenerateFermiLevel,
    diagonalize_one_body,
    peschel_block_entropy,
    slater_1rdm,
    two_orbital_state_from_block,
    wick_two_orbital_rdm,
)
from orbent.tightbinding import ring_one_body

# independently computed (50-digit arithmetic) Wick reference at eta = 1/2,
# W = 1/pi
WICK_REF = {
    "A": 0.12342657407585322,
    "B": 0.10132118364233777,
    "t": 0.22474775771819099,
    "r": 0.06631617130054635,
    "E": 0.045549554081600035,
}


class TestDiagonalize:
    def test_diagonal_input(self):
        e, u = diagonalize_one_body(np.diag([1.0, 2.0]))
        assert np.allclose(e, [1.0, 2.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_two_site_hopping(self):
        h = np.array([[0.0, -0.5], [-0.5, 0.0]])
        e, u = diagonalize_one_body(h)
        assert np.allclose(e, [-0.5, 0.5])
        assert np.max(np.abs(u @ h @ u.conj().T - np.diag(e))) < 1e-10

    def test_four_site_ring_spectrum(self):
        e, _ = diagonalize_one_body(ring_one_body(4))
        assert np.allclose(sorted(e), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_one_body(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSlater1rdm:
    def test_empty_and_full(self):
        h = ring_one_body(8)
        assert np.max(np.abs(slater_1rdm(h, 0))) == 0.0
        assert np.allclose(slater_1rdm(h, 8), np.eye(8))

    def test_idempotence(self):
        g = slater_1rdm(ring_one_body(8), 3)
        assert np.max(np.abs(g @ g - g)) < 1e-10

    def test_sixteen_site_single_fermion_uniform(self):
        g = slater_1rdm(ring_one_body(16), 1)
        assert np.max(np.abs(g - 1.0 / 16.0)) < 1e-12

    def test_degenerate_fermi_level_rejected(self):
        with pytest.raises(DegenerateFermiLevel):
            slater_1rdm(ring_one_body(4), 2)

    def test_translation_invariance(self):
        n = 8
        g = slater_1rdm(ring_one_body(n), 3)
        for sep in range(1, n):
            vals = [g[l, (l + sep) % n] for l in range(n)]
            assert np.max(np.abs(np.diff(vals))) < 1e-12

    def test_complex_hermitian_consistency(self):
        # gamma from the explicit Fock state must match the closed formula
        rng = np.random.default_rng(9)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = h + h.conj().T
        gamma = slater_1rdm(h, 1)
        state = slater_fock_state(h, 1)
        sp = state.space
        for i in range(3):
            for j in range(3):
                op = apply_create(apply_annihilate(state, sp.mode(j, 0)),
                                  sp.mode(i, 0))
                val = np.vdot(amplitudes(state), amplitudes(op))
                # gamma[j, i] = <f_i^dag f_j>
                assert gamma[j, i] == pytest.approx(val, abs=1e-12)


class TestPeschel:
    def test_half_filled_single_orbital(self):
        g = slater_1rdm(ring_one_body(2), 1)
        assert peschel_block_entropy(g, [0]) == pytest.approx(2 * np.log(2))

    def test_uniform_filling_single_orbital(self):
        g = slater_1rdm(ring_one_body(8), 1)
        eta = 1.0 / 8.0
        expected = -2 * (eta * np.log(eta) + (1 - eta) * np.log(1 - eta))
        assert peschel_block_entropy(g, [0]) == pytest.approx(expected)

    def test_whole_system_is_pure(self):
        g = slater_1rdm(ring_one_body(8), 3)
        assert peschel_block_entropy(g, list(range(8))) == pytest.approx(0.0, abs=1e-10)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            peschel_block_entropy(np.eye(4), [])

    @pytest.mark.parametrize("block", [[0], [0, 1], [0, 1, 2], [2, 5, 7]])
    def test_matches_direct_partial_trace(self, block):
        h = ring_one_body(8)
        gamma = slater_1rdm(h, 1)
        state = slater_fock_state(h, 1)
        direct = block_entropy(state, block)
        assert peschel_block_entropy(gamma, block) == pytest.approx(direct, abs=1e-10)


class TestWickTwoOrbital:
    def test_vacuum_block(self):
        dm = two_orbital_state_from_block(0.0, 0.0, 0.0)
        assert dm.mat[0, 0] == pytest.approx(1.0)
        assert nssr_entanglement_dm(dm).value == 0.0

    def test_reference_point_values(self):
        dm = two_orbital_state_from_block(0.5, 0.5, 1.0 / np.pi)
        a = (0.25 - 0.5 - np.pi**-2) ** 2
        assert a == pytest.approx(WICK_REF["A"], abs=1e-15)
        # t is the larger weight on (|up,down> +- |down,up>)/sqrt2 (basis
        # states 6 and 9), r the rest of the one-electron-each block 5, 6, 9, 10
        m = dm.mat.real
        t = 0.5 * (m[6, 6] + m[9, 9]) + abs(m[6, 9])
        assert t == pytest.approx(WICK_REF["t"], abs=1e-12)
        assert m[5, 5] + m[6, 6] + m[9, 9] + m[10, 10] - t == \
            pytest.approx(WICK_REF["r"], abs=1e-12)
        assert nssr_entanglement(WICK_REF["r"], WICK_REF["t"]) == \
            pytest.approx(WICK_REF["E"], abs=1e-12)
        assert nssr_entanglement_dm(dm).value == pytest.approx(WICK_REF["E"], abs=1e-12)

    def test_same_orbital_rejected(self):
        g = slater_1rdm(ring_one_body(8), 1)
        with pytest.raises(ValueError):
            wick_two_orbital_rdm(g, 2, 2)

    def test_orbital_out_of_range_rejected(self):
        # (-1, 0) once read the pair (5, 0), and (0, 6) escaped as IndexError
        g = slater_1rdm(ring_one_body(6), 1)
        for l, lp in ((-1, 0), (0, 6)):
            with pytest.raises(ValueError, match="out of range for d=6"):
                wick_two_orbital_rdm(g, l, lp)

    @pytest.mark.parametrize("n_sites,n_per_spin", [(4, 1), (4, 3), (8, 1), (8, 3)])
    def test_matches_brute_force_partial_trace(self, n_sites, n_per_spin):
        h = ring_one_body(n_sites)
        gamma = slater_1rdm(h, n_per_spin)
        state = slater_fock_state(h, n_per_spin)
        for l in range(n_sites):
            for lp in range(n_sites):
                if l == lp:
                    continue
                brute = two_orbital_rdm(state, l, lp)
                wick = wick_two_orbital_rdm(gamma, l, lp)
                assert np.max(np.abs(brute.mat - wick.mat)) < 1e-10

    def test_entropy_against_peschel(self):
        # the two-orbital state of a Slater determinant has the Gaussian
        # entropy of its restricted correlation block
        h = ring_one_body(8)
        gamma = slater_1rdm(h, 3)
        dm = wick_two_orbital_rdm(gamma, 0, 3)
        assert von_neumann_entropy(dm) == pytest.approx(
            peschel_block_entropy(gamma, [0, 3]), abs=1e-10)

    def test_asymmetric_pair_on_open_chain(self):
        # an open chain breaks translation invariance, so pair occupations
        # differ and the sector decomposition is unavailable; the state
        # itself still matches the brute force
        h = np.zeros((4, 4))
        for l in range(3):
            h[l, l + 1] = h[l + 1, l] = -0.5
        gamma = slater_1rdm(h, 1)
        assert abs(gamma[0, 0] - gamma[1, 1]) > 1e-3
        state = slater_fock_state(h, 1)
        for l, lp in [(0, 1), (0, 3), (1, 2)]:
            wick = wick_two_orbital_rdm(gamma, l, lp)
            brute = two_orbital_rdm(state, l, lp)
            assert np.max(np.abs(brute.mat - wick.mat)) < 1e-10


def _graded_product_by_entry(occ_l, occ_lp, coh):
    """The two-orbital state by definition, one entry at a time: the graded
    product of the two spin-channel Gaussian states, each basis ket regrouped
    from mode order (l up, lp up, l down, lp down) to site-major order with
    the sign (-1)^(n_lp_up * n_l_down)."""
    rho_spin = _two_mode_gaussian(occ_l, occ_lp, coh)
    rho = np.zeros((16, 16), dtype=complex)
    for x in range(16):
        n = [(x >> k) & 1 for k in (3, 2, 1, 0)]  # n_l_up, n_l_dn, n_lp_up, n_lp_dn
        xu, xd = 2 * n[0] + n[2], 2 * n[1] + n[3]
        sx = -1.0 if n[2] & n[1] else 1.0
        xi = 4 * (n[0] + 2 * n[1]) + (n[2] + 2 * n[3])
        for y in range(16):
            m = [(y >> k) & 1 for k in (3, 2, 1, 0)]
            yu, yd = 2 * m[0] + m[2], 2 * m[1] + m[3]
            sy = -1.0 if m[2] & m[1] else 1.0
            yi = 4 * (m[0] + 2 * m[1]) + (m[2] + 2 * m[3])
            rho[xi, yi] = sx * sy * rho_spin[_PAIR_INDEX[xu], _PAIR_INDEX[yu]] \
                * rho_spin[_PAIR_INDEX[xd], _PAIR_INDEX[yd]]
    return DensityMatrix(rho, (4, 4)).mat


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.999, 0.999),
       st.one_of(st.none(), st.floats(0.0, 2 * np.pi)))
def test_block_state_equals_entrywise_definition(occ_l, occ_lp, scale, phase):
    # |coh| inside both the particle and the hole bound keeps the per-spin
    # correlation block between 0 and 1, so the state is valid; no phase
    # means a real coherence
    coh = scale * np.sqrt(min(occ_l * occ_lp, (1 - occ_l) * (1 - occ_lp)))
    if phase is not None:
        coh = coh * np.exp(1j * phase)
    dm = two_orbital_state_from_block(occ_l, occ_lp, coh)
    assert np.array_equal(dm.mat, _graded_product_by_entry(occ_l, occ_lp, coh))
