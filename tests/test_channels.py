import numpy as np
import pytest

from orbent.channels import (
    gn_local,
    gpi_local,
    run_swap_protocol,
    superselected_swap,
    swap_channel,
)
from orbent.entanglement import von_neumann_entropy
from orbent.fock import DensityMatrix, pure_state_dm

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def random_dm(dims, rng):
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m @ m.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def bell_psi_plus():
    v = np.zeros(16)
    v[4 * 1 + 2] = v[4 * 2 + 1] = 1 / np.sqrt(2)
    return pure_state_dm(v, (4, 4))


def bell_phi_plus():
    v = np.zeros(16)
    v[4 * 0 + 3] = v[4 * 3 + 0] = 1 / np.sqrt(2)
    return pure_state_dm(v, (4, 4))


def test_gpi_erases_cross_parity_on_orbital_factor():
    rho = pure_state_dm(np.kron(PLUS, PLUS), (2, 2))
    out = gpi_local(rho, (0,))
    assert np.allclose(out.mat, np.kron(np.eye(2) / 2, np.outer(PLUS, PLUS)))


def test_gpi_fixes_occupation_diagonal_states():
    rng = np.random.default_rng(0)
    diag = rng.random(16)
    dm = DensityMatrix(np.diag(diag / diag.sum()), (4, 4))
    assert np.allclose(gpi_local(dm).mat, dm.mat)


def test_gpi_fixes_phi_plus():
    dm = bell_phi_plus()
    assert np.allclose(gpi_local(dm).mat, dm.mat)


def test_gn_breaks_phi_plus_into_separable_mixture():
    out = gn_local(bell_phi_plus())
    expected = np.zeros((16, 16))
    expected[4 * 0 + 3, 4 * 0 + 3] = 0.5
    expected[4 * 3 + 0, 4 * 3 + 0] = 0.5
    assert np.allclose(out.mat, expected)


def test_gn_fixes_psi_plus():
    dm = bell_psi_plus()
    assert np.allclose(gn_local(dm).mat, dm.mat)


@pytest.mark.parametrize("channel", [gpi_local, gn_local])
def test_pinching_properties_on_random_states(channel):
    rng = np.random.default_rng(7)
    for dims in [(4, 4), (4, 2), (2, 2)]:
        for _ in range(100):
            dm = random_dm(dims, rng)
            out = channel(dm)
            again = channel(out)
            assert np.allclose(out.mat, again.mat, atol=1e-15)  # idempotent
            assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out.mat).min() > -1e-12
            assert von_neumann_entropy(out) >= von_neumann_entropy(dm) - 1e-10
            # every image must pass the validating constructor unchanged
            images = [out, out.partial_trace((0,)), out.partial_trace((1, 0))]
            if dims[0] == dims[1]:
                images += [swap_channel(out), superselected_swap(dm)]
            for image in images:
                assert np.array_equal(DensityMatrix(image.mat, image.dims).mat, image.mat)


def test_number_refines_parity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dm = random_dm((4, 4), rng)
        a = gn_local(gpi_local(dm)).mat
        b = gpi_local(gn_local(dm)).mat
        c = gn_local(dm).mat
        assert np.allclose(a, c, atol=1e-15)
        assert np.allclose(b, c, atol=1e-15)


def test_pinch_labels_only_the_pinched_factors():
    # a factor without Fock labels may sit beside the pinched one, and
    # pinching it is refused
    rng = np.random.default_rng(12)
    dm = random_dm((4, 3), rng)
    for channel in (gpi_local, gn_local):
        out = channel(dm, (0,))
        assert out.dims == (4, 3)
        local = np.array([0, 1, 1, 2]) % (2 if channel is gpi_local else 3)
        key = np.repeat(local, 3)
        assert np.array_equal(out.mat, dm.mat * np.equal.outer(key, key))
        for factors in ((1,), None):
            with pytest.raises(ValueError, match="no occupation labels for local dimension 3"):
                channel(dm, factors)


class TestSwap:
    def test_product_states_swap(self):
        rng = np.random.default_rng(1)
        x = random_dm((2,), rng).mat
        y = random_dm((2,), rng).mat
        dm = DensityMatrix(np.kron(x, y), (2, 2))
        assert np.allclose(swap_channel(dm).mat, np.kron(y, x))

    def test_maximally_mixed_invariant(self):
        dm = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert np.allclose(swap_channel(dm).mat, dm.mat)

    def test_elementwise_definition(self):
        # |0><1| x |1><0|  ->  |1><0| x |0><1|
        m = np.zeros((4, 4), dtype=complex)
        m[0 * 2 + 1, 1 * 2 + 0] = 1.0
        swapped = np.zeros((4, 4), dtype=complex)
        swapped[1 * 2 + 0, 0 * 2 + 1] = 1.0
        dm = DensityMatrix(np.eye(4) / 4 + 0.1 * (m + m.conj().T), (2, 2))
        out = swap_channel(dm)
        expected = DensityMatrix(np.eye(4) / 4 + 0.1 * (swapped + swapped.conj().T),
                                 (2, 2))
        assert np.allclose(out.mat, expected.mat)

    def test_dimension_mismatch_rejected(self):
        dm = DensityMatrix(np.eye(8) / 8, (2, 4))
        with pytest.raises(ValueError):
            swap_channel(dm)


class TestSuperselectedSwap:
    def test_paper_worked_example(self):
        rho = pure_state_dm(np.kron(PLUS, PLUS), (2, 2))
        out = superselected_swap(rho)
        assert np.allclose(out.mat, np.eye(4) / 4)

    def test_parity_eigenstates_swap_losslessly(self):
        rho = pure_state_dm(np.kron([0.0, 1.0], [1.0, 0.0]), (2, 2))
        out = superselected_swap(rho)
        expected = pure_state_dm(np.kron([1.0, 0.0], [0.0, 1.0]), (2, 2))
        assert np.allclose(out.mat, expected.mat)

    def test_parity_diagonal_orbital_transfers_exactly(self):
        rng = np.random.default_rng(5)
        orb = np.diag(rng.random(2))
        orb /= np.trace(orb)
        qb = random_dm((2,), rng).mat
        dm = DensityMatrix(np.kron(orb, qb), (2, 2))
        out = superselected_swap(dm)
        qb_pinched = np.diag(np.diag(qb))
        assert np.allclose(out.mat, np.kron(qb_pinched, orb), atol=1e-14)


class TestSwapProtocol:
    def test_psi_plus_transfers_fully(self):
        rho = bell_psi_plus()
        vac = np.zeros(16)
        vac[0] = 1.0
        res = run_swap_protocol(rho, pure_state_dm(vac, (4, 4)))
        assert np.allclose(res.qubit_state.mat, rho.mat)
        assert res.erased_orbital_coherence == pytest.approx(0.0, abs=1e-14)
        assert res.simulation_residual < 1e-12

    def test_cross_parity_coherence_filtered(self):
        # vacuum-to-(up,up) coherence links different local parities
        v = np.zeros(16)
        v[0] = v[4 * 1 + 1] = 1 / np.sqrt(2)
        rho = pure_state_dm(v, (4, 4))
        vac = np.zeros(16)
        vac[0] = 1.0
        res = run_swap_protocol(rho, pure_state_dm(vac, (4, 4)))
        assert res.qubit_state.mat[0, 4 * 1 + 1] == pytest.approx(0.0)
        assert res.qubit_state.mat[0, 0] == pytest.approx(0.5)
        assert res.erased_orbital_coherence > 0.5

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
    def test_simulation_matches_closed_form(self, dims):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_dm(dims, rng)
            sigma = random_dm(dims, rng)
            res = run_swap_protocol(rho, sigma)
            assert res.simulation_residual < 1e-12

    def test_dimension_match_enforced(self):
        rho = DensityMatrix(np.eye(16) / 16, (4, 4))
        sigma = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            run_swap_protocol(rho, sigma)
