import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockref import (
    amplitudes,
    apply_annihilate,
    apply_create,
    apply_operator_string,
    basis_state,
    config_n,
    config_sz2,
    configs,
    fock_state,
    vacuum_state,
)
from orbent import fock
from orbent.channels import gpi_local
from orbent.fock import DensityMatrix, FockSpace, popcount, pure_state_dm, two_orbital_rdm


def random_state(space, rng):
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return fock_state(space, amps / np.linalg.norm(amps))


def test_mode_ordering_site_major_up_first():
    sp = FockSpace(3)
    assert sp.mode(0, 0) == 0
    assert sp.mode(0, 1) == 1
    assert sp.mode(2, 0) == 4
    with pytest.raises(ValueError):
        sp.mode(3, 0)


def test_dimension_guard():
    with pytest.raises(ValueError):
        FockSpace(0)
    with pytest.raises(ValueError):
        FockSpace(17)


def test_create_on_vacuum():
    sp = FockSpace(2)
    out = apply_operator_string([("create", sp.mode(0, 0))], vacuum_state(sp))
    expected = np.zeros(sp.dim)
    expected[1] = 1.0
    assert np.allclose(amplitudes(out), expected)


def test_anticommutation_sign_on_vacuum():
    sp = FockSpace(2)
    vac = vacuum_state(sp)
    ab = apply_operator_string(
        [("create", sp.mode(1, 0)), ("create", sp.mode(0, 0))], vac)
    ba = apply_operator_string(
        [("create", sp.mode(0, 0)), ("create", sp.mode(1, 0))], vac)
    assert np.allclose(amplitudes(ab), -amplitudes(ba))


def test_annihilate_empty_mode_gives_zero():
    sp = FockSpace(2)
    st = basis_state(sp, 1 << sp.mode(1, 0))
    out = apply_annihilate(st, sp.mode(0, 0))
    assert out.norm == 0.0


def test_create_occupied_mode_gives_zero():
    sp = FockSpace(1)
    st = basis_state(sp, 1)
    assert apply_create(st, 0).norm == 0.0


def test_index_out_of_range():
    sp = FockSpace(2)
    with pytest.raises(ValueError):
        apply_create(vacuum_state(sp), 4)


@pytest.mark.parametrize("i,j", [(0, 1), (0, 3), (2, 5), (1, 4)])
def test_anticommutation_relations(i, j):
    sp = FockSpace(3)
    rng = np.random.default_rng(42)
    st = random_state(sp, rng)
    # {f_i, f_j} = 0 for i != j
    fifj = apply_annihilate(apply_annihilate(st, j), i)
    fjfi = apply_annihilate(apply_annihilate(st, i), j)
    assert np.max(np.abs(amplitudes(fifj) + amplitudes(fjfi))) < 1e-14
    # {f_i, f_i^dag} = 1
    plus = apply_create(apply_annihilate(st, i), i)
    minus = apply_annihilate(apply_create(st, i), i)
    assert np.max(np.abs(amplitudes(plus) + amplitudes(minus) - amplitudes(st))) < 1e-14


def test_same_mode_annihilation_squares_to_zero():
    sp = FockSpace(2)
    rng = np.random.default_rng(0)
    st = random_state(sp, rng)
    out = apply_annihilate(apply_annihilate(st, 1), 1)
    assert out.norm == 0.0


@pytest.mark.parametrize("kind", ["Q", "p", "n", "Sz"])
def test_factor_labels_reject_unknown_kind(kind):
    """Only "N" and "P" name a label table; any other kind used to fall
    through to the occupation labels."""
    with pytest.raises(ValueError, match="unknown sector label kind"):
        fock._factor_labels((4, 4), kind)
    assert fock._factor_labels((4,), "N")[:, 0].tolist() == [0, 1, 1, 2]
    assert fock._factor_labels((4,), "P")[:, 0].tolist() == [0, 1, 1, 0]


class TestTwoOrbitalRdm:
    def test_product_state(self):
        sp = FockSpace(2)
        cfg = (1 << sp.mode(0, 0)) | (1 << sp.mode(1, 1))  # up on 0, down on 1
        rho = two_orbital_rdm(basis_state(sp, cfg), 0, 1)
        expected = np.zeros((16, 16))
        expected[4 * 1 + 2, 4 * 1 + 2] = 1.0
        assert np.allclose(rho.mat, expected)

    def test_psi_plus_projector(self):
        sp = FockSpace(2)
        amps = np.zeros(sp.dim, dtype=complex)
        amps[(1 << sp.mode(0, 0)) | (1 << sp.mode(1, 1))] = 1 / np.sqrt(2)
        amps[(1 << sp.mode(0, 1)) | (1 << sp.mode(1, 0))] = 1 / np.sqrt(2)
        rho = two_orbital_rdm(fock_state(sp, amps), 0, 1)
        psi = np.zeros(16)
        psi[4 * 1 + 2] = psi[4 * 2 + 1] = 1 / np.sqrt(2)
        assert psi @ rho.mat @ psi == pytest.approx(1.0)

    def test_same_orbital_rejected(self):
        sp = FockSpace(2)
        with pytest.raises(ValueError):
            two_orbital_rdm(vacuum_state(sp), 1, 1)

    def test_requires_normalized_state(self):
        sp = FockSpace(2)
        st = fock_state(sp, np.ones(sp.dim))
        with pytest.raises(ValueError):
            two_orbital_rdm(st, 0, 1)
        unit = np.ones(sp.dim) / np.sqrt(sp.dim)
        # within the accepted norm tolerance: the reduced state has unit trace
        rho = two_orbital_rdm(fock_state(sp, unit * (1 + 1e-11)), 0, 1)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="normalized"):
            two_orbital_rdm(fock_state(sp, unit * (1 + 1e-9)), 0, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_valid_density_matrix_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        sp = FockSpace(d)
        st = random_state(sp, rng)
        l, lp = rng.choice(d, size=2, replace=False)
        rho = two_orbital_rdm(st, int(l), int(lp))
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-12
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.mat).min() > -1e-10

    def test_fixed_number_state_block_structure(self):
        # a fixed-N global state gives a pinched RDM commuting with the
        # local pair-number projectors
        sp = FockSpace(3)
        rng = np.random.default_rng(8)
        amps = np.where(config_n(sp) == 2,
                        rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim), 0.0)
        st = fock_state(sp, amps / np.linalg.norm(amps))
        rho = gpi_local(two_orbital_rdm(st, 0, 2))
        labels = fock._factor_labels((4, 4), "N").sum(axis=1)
        for n in range(5):
            proj = np.diag((labels == n).astype(float))
            comm = proj @ rho.mat - rho.mat @ proj
            assert np.max(np.abs(comm)) < 1e-12


def _full_fock_two_orbital_rdm(state, l, lp):
    """The full-Fock construction ``two_orbital_rdm`` replaced, kept as the
    reference: every configuration of the 4**norb space is visited and the
    environment is indexed by its own bits."""
    space = state.space
    sub_modes = [space.mode(l, 0), space.mode(l, 1),
                 space.mode(lp, 0), space.mode(lp, 1)]
    env_modes = [p for p in range(space.n_modes) if p not in sub_modes]

    idx = configs(space)
    bits = [(idx >> p) & 1 for p in sub_modes]

    # local index alpha = n_up + 2*n_down per orbital, flat = 4*alpha_l + alpha_lp
    sub_idx = 4 * (bits[0] + 2 * bits[1]) + (bits[2] + 2 * bits[3])

    env_idx = np.zeros(space.dim, dtype=np.int64)
    for pos, p in enumerate(env_modes):
        env_idx |= ((idx >> p) & 1) << pos

    # permutation sign: pull each occupied subsystem mode to the front in turn
    exponent = np.zeros(space.dim, dtype=np.int64)
    pulled = 0
    for p in sub_modes:
        below = idx & ((1 << p) - 1) & ~pulled
        exponent += bits[sub_modes.index(p)] * popcount(below)
        pulled |= 1 << p
    sign = 1.0 - 2.0 * (exponent & 1)

    psi = np.zeros((16, 1 << len(env_modes)), dtype=complex)
    psi[sub_idx, env_idx] = sign * amplitudes(state)
    rho = psi @ psi.conj().T

    parity = fock._factor_labels((4, 4), "P").sum(axis=1) % 2
    rho *= np.equal.outer(parity, parity)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > fock.TRACE_TOL:
        rho /= tr
    return DensityMatrix(rho, (4, 4))


@st.composite
def _states_and_pairs(draw):
    """A normalized state on 2-5 orbitals and an ordered orbital pair.  The
    state is a random (N, 2Sz) sector state, a random state mixing every N,
    or a state supported on 1-4 random configurations."""
    norb = draw(st.integers(2, 5))
    l, lp = draw(st.permutations(range(norb)))[:2]
    kind = draw(st.sampled_from(["sector", "mixed", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = FockSpace(norb)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    if kind == "sector":
        n = draw(st.integers(1, 2 * norb - 1))
        sz2 = draw(st.sampled_from(sorted(set(config_sz2(space)[config_n(space) == n]))))
        amps = np.where((config_n(space) == n) & (config_sz2(space) == sz2), amps, 0.0)
    elif kind == "sparse":
        support = rng.choice(space.dim, size=draw(st.integers(1, 4)), replace=False)
        amps = np.where(np.isin(configs(space), support), amps, 0.0)
    return fock_state(space, amps / np.linalg.norm(amps)), l, lp


class TestTwoOrbitalRdmSupport:
    """``two_orbital_rdm`` visits only the occupied configurations; it must
    give the full-Fock construction's matrix."""

    @settings(max_examples=120, deadline=None)
    @given(_states_and_pairs())
    def test_matches_full_fock_reference(self, case):
        state, l, lp = case
        new = two_orbital_rdm(state, l, lp).mat
        ref = _full_fock_two_orbital_rdm(state, l, lp).mat
        assert np.max(np.abs(new - ref)) <= 1e-14

    def test_single_configuration(self):
        sp = FockSpace(4)
        cfg = (1 << sp.mode(0, 1)) | (1 << sp.mode(2, 0)) | (1 << sp.mode(3, 1))
        st_ = basis_state(sp, cfg)
        for l, lp in ((0, 2), (2, 0), (1, 3), (3, 0)):
            assert np.array_equal(two_orbital_rdm(st_, l, lp).mat,
                                  _full_fock_two_orbital_rdm(st_, l, lp).mat)


class TestDensityMatrix:
    def test_trace_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4), (2, 2))

    def test_hermiticity_validation(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(m, (2, 2))

    def test_psd_floor(self):
        m = np.diag([1.1, -0.1, 0.0, 0.0])
        with pytest.raises(ValueError):
            DensityMatrix(m, (2, 2))

    def test_small_negative_eigenvalue_clipped(self):
        # above the floor the eigenvalue is set to zero and the trace
        # renormalized; below it the state is rejected
        u = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))[0]
        m = u @ np.diag([0.6 + 1e-12, 0.4, 0.0, -1e-12]) @ u.T
        dm = DensityMatrix(m, (2, 2))
        assert np.trace(dm.mat).real == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.eigvalsh(dm.mat)[0] > -1e-15
        assert np.allclose(dm.mat, u @ np.diag([0.6, 0.4, 0.0, 0.0]) @ u.T, atol=1e-14)
        m = u @ np.diag([0.6 + 1e-9, 0.4, 0.0, -1e-9]) @ u.T
        with pytest.raises(ValueError, match="below PSD floor"):
            DensityMatrix(m, (2, 2))

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        dm = pure_state_dm(np.kron(a, b), (2, 4))
        left = dm.partial_trace((0,))
        right = dm.partial_trace((1,))
        assert np.allclose(left.mat, np.outer(a, a.conj()), atol=1e-14)
        assert np.allclose(right.mat, np.outer(b, b.conj()), atol=1e-14)

    def test_partial_trace_reorder(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        dm = pure_state_dm(v, (2, 2, 2))
        forward = dm.partial_trace((0, 2))
        swapped = dm.partial_trace((2, 0))
        assert np.allclose(
            swapped.mat,
            fock._permute_factors(forward.mat, (2, 2), (1, 0)), atol=1e-14)

    def test_exact_maps_do_not_revalidate(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        m = m @ m.conj().T
        dm = DensityMatrix(m / np.trace(m).real, (4, 4))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        dm.partial_trace((1, 0))
        dm.partial_trace((0,))
        assert calls == []
