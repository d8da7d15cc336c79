import itertools
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import spearmanr

import fcidumpref
import fockref
from fockref import amplitudes, apply_operator_string, basis_state
from orbent import interacting
from orbent.fcidump import FcidumpData, FcidumpError, parse_fcidump, serialize_fcidump
from orbent.fock import FockSpace, popcount
from orbent.freefermion import diagonalize_one_body
from orbent.interacting import (
    NNZ_CAP,
    GroundStateResult,
    HubbardParams,
    ManyBodyOperator,
    build_hamiltonian,
    compare_with_reference,
    ground_state,
    orbital_pair_entanglement,
    reference_lookup,
    reference_table,
    sector_basis,
)
from orbent.tightbinding import TbQuery, ring_one_body, tb_entanglement


class TestFcidump:
    def test_orbital_limit(self):
        with pytest.raises(FcidumpError, match="16"):
            parse_fcidump("&FCI NORB=17,NELEC=2,MS2=0,\n&END\n")
        with pytest.raises(FcidumpError, match="16"):
            FcidumpData(norb=17, nelec=2, ms2=0, h=np.zeros((17, 17)), eri=np.zeros((17,) * 4))
        with pytest.raises(ValueError, match="16"):
            HubbardParams(17, 1.0)

    def test_minimal_single_orbital(self):
        data = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n-1.0 1 1 0 0\n")
        assert data.norb == 1
        assert data.h[0, 0] == -1.0

    def test_core_energy_only(self):
        data = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n/\n0.5 0 0 0 0\n")
        assert data.core == 0.5
        assert np.max(np.abs(data.h)) == 0.0
        assert np.max(np.abs(data.eri)) == 0.0

    def test_namelist_extras_tolerated(self):
        text = (" &FCI NORB=  4,NELEC= 2,MS2=0,\n  ORBSYM=1,1,1,1,\n"
                "  ISYM=1,\n &END\n 1.5 1 1 1 1\n 2.0 2 1 0 0\n")
        data = parse_fcidump(text)
        assert data.norb == 4
        assert data.eri[0, 0, 0, 0] == 1.5
        assert data.h[0, 1] == data.h[1, 0] == 2.0

    def test_eightfold_symmetry_expansion(self):
        data = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n0.7 1 2 1 1\n")
        for idx in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
            assert data.eri[idx] == 0.7

    def test_missing_header_rejected(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("1.0 1 1 0 0\n")

    def test_invalid_integrals_rejected(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(3, 3))
        h = h + h.T
        eri = _eightfold(rng.normal(size=(3,) * 4))
        FcidumpData(norb=3, nelec=2, ms2=0, h=h, eri=eri, core=0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(FcidumpError, match="finite"):
                FcidumpData(norb=3, nelec=2, ms2=0, h=h, eri=eri, core=bad)
            h_bad = h.copy()
            h_bad[0, 0] = bad
            with pytest.raises(FcidumpError, match="finite"):
                FcidumpData(norb=3, nelec=2, ms2=0, h=h_bad, eri=eri)
            eri_bad = eri.copy()
            eri_bad[0, 0, 0, 0] = bad
            with pytest.raises(FcidumpError, match="finite"):
                FcidumpData(norb=3, nelec=2, ms2=0, h=h, eri=eri_bad)
        h_bad = h.copy()
        h_bad[0, 1] += 1e-6
        with pytest.raises(FcidumpError, match="one-electron integrals are not symmetric"):
            FcidumpData(norb=3, nelec=2, ms2=0, h=h_bad, eri=eri)
        # the first generating transposition that moves each entry is the
        # one named: (10|22) -> (01|22), (00|21) -> (00|12), (00|11) -> (11|00)
        for idx, perm in (((1, 0, 2, 2), (1, 0, 2, 3)), ((0, 0, 2, 1), (0, 1, 3, 2)),
                          ((0, 0, 1, 1), (2, 3, 0, 1))):
            eri_bad = eri.copy()
            eri_bad[idx] += 1e-6
            with pytest.raises(FcidumpError, match=re.escape(f"transposition {perm}")):
                FcidumpData(norb=3, nelec=2, ms2=0, h=h, eri=eri_bad)

    def test_missing_field_rejected(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=2,NELEC=2,&END\n")

    def test_index_overflow_rejected(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 3 1 0 0\n")

    def test_inconsistent_duplicate_rejected(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 2 0 0\n2.0 2 1 0 0\n")
        with pytest.raises(FcidumpError, match=re.escape("two-electron entry (2,1,1,1)")):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 2 1 1\n2.0 2 1 1 1\n")

    @pytest.mark.parametrize("body,message", [
        ("&FCI NORB=two,NELEC=2,MS2=0,&END\n", "malformed header field"),
        ("&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 1 0\n", "five-tuples"),
        ("&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 x 0 0\n", "malformed record at token 0"),
        ("&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 0 1 1\n", "invalid mixed record"),
    ])
    def test_malformed_records_rejected(self, body, message):
        with pytest.raises(FcidumpError, match=message):
            parse_fcidump(body)

    def test_orbital_energy_records_skipped(self):
        data = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n-0.5 1 0 0 0\n"
                             "-0.25 2 0 0 0\n1.0 1 2 0 0\n")
        assert np.array_equal(data.h, [[0.0, 1.0], [1.0, 0.0]])
        assert data.core == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        n = 3
        h = rng.normal(size=(n, n))
        h = h + h.T
        eri = rng.normal(size=(n,) * 4)
        # impose the 8-fold symmetry of real orbitals
        eri = eri + eri.transpose(1, 0, 2, 3)
        eri = eri + eri.transpose(0, 1, 3, 2)
        eri = eri + eri.transpose(2, 3, 0, 1)
        data = FcidumpData(norb=n, nelec=2, ms2=0, h=h, eri=eri, core=-1.25)
        back = parse_fcidump(serialize_fcidump(data))
        assert np.allclose(back.h, data.h, atol=0)
        assert np.allclose(back.eri, data.eri, atol=0)
        assert back.core == data.core
        assert (back.norb, back.nelec, back.ms2) == (n, 2, 0)

    def test_duplicate_core_energy(self):
        head = "&FCI NORB=2,NELEC=2,MS2=0,&END\n"
        with pytest.raises(FcidumpError, match="inconsistent duplicate core energy"):
            parse_fcidump(head + "0.5 0 0 0 0\n1.0 1 1 0 0\n0.7 0 0 0 0\n")
        # agreeing to the symmetry tolerance, the last one gives the value
        assert parse_fcidump(head + "0.5 0 0 0 0\n0.50000000001 0 0 0 0\n").core == 0.50000000001

    def test_first_faulty_record_is_named(self):
        head = "&FCI NORB=2,NELEC=2,MS2=0,&END\n0.25 1 1 1 1\n"
        faults = [
            ("1.0 3 1 0 0", "orbital index 3 outside [0, 2]"),
            ("1.0 1 1 99999999999999999999 1", "orbital index 99999999999999999999 outside [0, 2]"),
            ("1.0 1 0 1 1", "invalid mixed record 1.0 1 0 1 1"),
            ("1.0 1 x 0 0", "malformed record at token 5: invalid literal for int() with base 10: 'x'"),
            ("0.5 0 0 0 0\n0.7 0 0 0 0", "inconsistent duplicate core energy"),
            ("1.0 1 2 0 0\n2.0 2 1 0 0", "inconsistent duplicate one-electron entry (2,1)"),
            ("1.0 1 2 1 1\n2.0 2 1 1 1", "inconsistent duplicate two-electron entry (2,1,1,1)"),
        ]
        for (first, message), (second, _) in itertools.permutations(faults, 2):
            with pytest.raises(FcidumpError) as exc:
                parse_fcidump(f"{head}{first}\n{second}\n")
            assert str(exc.value) == message

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip_and_reference_loops(self, data):
        """The whole-array reader and writer against the record loops they
        replaced (``tests/fcidumpref.py``) on 8-fold-symmetric integrals."""
        norb = data.draw(st.integers(1, 6), label="norb")
        value = st.one_of(st.sampled_from([0.0, -0.0, 1e-16, 1.0]),
                          st.floats(-1e3, 1e3, allow_nan=False))
        h = data.draw(arrays(np.float64, (norb, norb), elements=value))
        h = np.triu(h) + np.triu(h, 1).T
        eri = _orbit_symmetric(data.draw(arrays(np.float64, (norb,) * 4, elements=value)))
        fcidump = FcidumpData(norb=norb, nelec=2, ms2=0, h=h, eri=eri, core=data.draw(value))
        text = serialize_fcidump(fcidump)
        assert text == fcidumpref.serialize_fcidump(fcidump)
        back = parse_fcidump(text)
        for got, want in ((back.h, fcidump.h), (back.eri, fcidump.eri)):
            want = np.where(np.abs(want) > 1e-15, want, 0.0)  # at or below _WRITE_TOL: not written
            assert got.tobytes() == want.tobytes()
        assert float(back.core).hex() == float(fcidump.core).hex()

        # the same records with duplicates, orbital energies, a permuted
        # order and, sometimes, one fault
        header, records = text.split("&END\n")
        records = records.splitlines()
        extra = []
        for line in data.draw(st.lists(st.sampled_from(records), max_size=6), label="duplicated"):
            v, i, j, k, l = line.split()
            shift = data.draw(st.sampled_from([0.0, 1e-12, 1e-9]), label="shift")
            i, j, k, l = data.draw(st.permutations([i, j]), label="ij") + \
                data.draw(st.permutations([k, l]), label="kl")
            if k != "0" and data.draw(st.booleans(), label="swap pairs"):
                i, j, k, l = k, l, i, j
            extra.append(f"{float(v) + shift!r} {i} {j} {k} {l}")
        extra += [f"-0.5 {i} 0 0 0" if data.draw(st.booleans()) else f"-0.5 0 {i} 0 0"
                  for i in data.draw(st.lists(st.integers(1, norb), max_size=3), label="energies")]
        extra += data.draw(st.lists(st.sampled_from([
            f"1.0 {norb + 1} 1 1 1", "1.0 -1 0 0 0", "1.0 1 0 1 1", "1.0 0 0 1 0",
            "1.0 1 y 0 0", "nan 1 1 0 0", "inf 1 1 1 1", "0.125 0 0 0 0",
            "1.0 1 1 1 123456789012345678901234567890"]), max_size=2), label="faults")
        records = data.draw(st.permutations(records + extra), label="order")
        extras = data.draw(st.sampled_from(["", "ORBSYM=1,1,1,\n ISYM=1,\n"]), label="extras")
        _assert_parses_as_reference(f"{header}{extras}&END\n" + "\n".join(records) + "\n")


def _orbit_symmetric(raw):
    """``raw`` made constant on each orbit of the 8-fold symmetry: every
    tuple takes the value at the largest flat index of its orbit."""
    i, j, k, l = np.indices(raw.shape).reshape(4, -1)
    members = [np.ravel_multi_index(t, raw.shape)
               for t in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                         (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i))]
    return raw.ravel()[np.max(members, axis=0)].reshape(raw.shape)


def _assert_parses_as_reference(text):
    """``parse_fcidump`` and the record loop agree: the same error message,
    or bit-identical integrals, core and extra header fields."""
    try:
        with np.errstate(invalid="ignore"):  # inf - inf in the loop's duplicate check
            want = fcidumpref.parse_fcidump(text)
    except FcidumpError as exc:
        with pytest.raises(FcidumpError) as got:
            parse_fcidump(text)
        assert str(got.value) == str(exc)
        return
    got = parse_fcidump(text)
    assert got.h.tobytes() == want.h.tobytes()
    assert got.eri.tobytes() == want.eri.tobytes()
    assert float(got.core).hex() == float(want.core).hex()
    assert (got.norb, got.nelec, got.ms2, got.extras) == (want.norb, want.nelec, want.ms2,
                                                          want.extras)


def _eightfold(eri):
    """Average over the 8-fold permutation symmetry of real-orbital integrals."""
    eri = eri + eri.transpose(1, 0, 2, 3)
    eri = eri + eri.transpose(0, 1, 3, 2)
    return (eri + eri.transpose(2, 3, 0, 1)) / 8


@lru_cache(maxsize=None)
def _operator_strings(norb, n_elec, sz2):
    """Sector matrices of sum_s f+_ps f_qs and of the normal-ordered
    sum_{ss'} f+_ps f+_rs' f_ss' f_qs, entry by entry from operator strings
    applied to each basis state of the full Fock space."""
    space = FockSpace(norb)
    basis = sector_basis(norb, n_elec, sz2)
    kets = [basis_state(space, int(c)) for c in basis]
    dim = basis.size
    one = np.zeros((norb, norb, dim, dim))
    two = np.zeros((norb,) * 4 + (dim, dim))
    for p in range(norb):
        for q in range(norb):
            for s in (0, 1):
                ops = [("+", space.mode(p, s)), ("-", space.mode(q, s))]
                for j, ket in enumerate(kets):
                    one[p, q, :, j] += amplitudes(apply_operator_string(ops, ket))[basis].real
    for p, q, r, t in np.ndindex(*(norb,) * 4):
        for s in (0, 1):
            for s2 in (0, 1):
                ops = [("+", space.mode(p, s)), ("+", space.mode(r, s2)),
                       ("-", space.mode(t, s2)), ("-", space.mode(q, s))]
                for j, ket in enumerate(kets):
                    two[p, q, r, t, :, j] += amplitudes(apply_operator_string(ops, ket))[basis].real
    return one, two


# (norb, N, 2Sz): odd N, both spin signs, below and above half filling
_SECTORS = [(3, 1, 1), (3, 2, 0), (3, 3, 1), (3, 3, -1), (3, 4, 2), (3, 5, 1),
            (4, 3, 1), (4, 4, 0), (4, 5, -1)]


@st.composite
def _integrals(draw):
    norb, n_elec, sz2 = draw(st.sampled_from(_SECTORS))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    h = draw(arrays(np.float64, (norb, norb), elements=unit))
    eri = draw(arrays(np.float64, (norb,) * 4, elements=unit))
    core = draw(st.one_of(st.floats(-5.0, -0.1), st.floats(0.1, 5.0)))
    data = FcidumpData(norb=norb, nelec=n_elec, ms2=sz2, h=(h + h.T) / 2,
                       eri=_eightfold(eri), core=core)
    return data, n_elec, sz2


def _grouped_reference(data, n_elec, sz2):
    """Sector Hamiltonian from the grouped assembly
    H = sum_pq h'_pq E_pq + 1/2 sum_pq E_pq W_pq + core, one sparse product
    and one merge per generator pair pq with a nonzero integral row, each
    spin-summed E_pq ranked in the sorted sector basis by binary search:
    the assembly that preceded the alpha/beta string factorization."""
    norb = data.norb
    basis = sector_basis(norb, n_elec, sz2)
    dim = basis.size

    def generator(p, q):
        rows, cols, vals = [], [], []
        for spin in (0, 1):
            mp, mq = 2 * p + spin, 2 * q + spin
            if mp == mq:
                idx = np.nonzero(((basis >> mp) & 1) == 1)[0]
                rows.append(idx)
                cols.append(idx)
                vals.append(np.ones(idx.size))
                continue
            movable = (((basis >> mq) & 1) == 1) & (((basis >> mp) & 1) == 0)
            src = basis[movable]
            inter = src & ~(np.int64(1) << mq)
            sign = 1 - 2 * ((popcount(src & ((np.int64(1) << mq) - 1))
                             + popcount(inter & ((np.int64(1) << mp) - 1))) & 1)
            rows.append(np.searchsorted(basis, inter | (np.int64(1) << mp)))
            cols.append(np.nonzero(movable)[0])
            vals.append(sign.astype(float))
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    one_body = (data.h - 0.5 * np.einsum("pqqs->ps", data.eri)).ravel()
    eri2 = data.eri.reshape(norb * norb, norb * norb)
    touched = np.abs(eri2) > 1e-14
    keys = np.nonzero((np.abs(one_body) > 1e-14) | touched.any(axis=0)
                      | touched.any(axis=1))[0]
    gens = [generator(*divmod(int(k), norb)) for k in keys]
    gens.append((np.arange(dim), np.arange(dim), np.ones(dim)))
    # column j of scatter sums generator j onto the slots of the union pattern
    rows, cols, vals = (np.concatenate(x) for x in zip(*gens))
    slots, slot_of = np.unique(rows * dim + cols, return_inverse=True)
    owner = np.repeat(np.arange(len(gens)), [g[0].size for g in gens])
    scatter = sps.csr_matrix((vals, (slot_of, owner)), shape=(slots.size, len(gens)))
    indices, indptr = slots % dim, np.searchsorted(slots // dim, np.arange(dim + 1))

    def combine(weights):
        return sps.csr_matrix((scatter @ weights, indices, indptr), shape=(dim, dim))

    ham = combine(np.append(one_body[keys], data.core))
    for j in np.nonzero(touched.any(axis=1)[keys])[0]:
        r, c, v = gens[j]
        half_e_pq = sps.csr_matrix((0.5 * v, (r, c)), shape=(dim, dim))
        prod = half_e_pq @ combine(np.append(eri2[keys[j], keys], 0.0))
        prod.sort_indices()
        ham = ham + prod
    ham.eliminate_zeros()
    return ham


def _dense_integrals(norb, seed):
    """Random real-orbital integrals with the 8-fold symmetry, every ERI nonzero."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(norb, norb))
    return FcidumpData(norb=norb, nelec=norb // 2, ms2=0, h=h + h.T,
                       eri=_eightfold(rng.normal(size=(norb,) * 4)), core=-0.7)


@st.composite
def _hubbard_sectors(draw):
    """Hubbard rings of up to 8 sites with one of their (N, 2Sz) sectors."""
    n_sites = draw(st.integers(2, 8))
    n_elec = draw(st.integers(1, 2 * n_sites - 1))
    top = min(n_elec, 2 * n_sites - n_elec)
    sz2 = draw(st.sampled_from(range(-top, top + 1, 2)))
    u = draw(st.floats(0.0, 8.0, allow_nan=False))
    return HubbardParams(n_sites, u), n_elec, sz2


@st.composite
def _canonical_cases(draw):
    """A Hubbard ring or seeded symmetry-free integrals on 3 to 6 orbitals,
    with any non-empty (N, 2Sz) sector, and a shuffle seed."""
    norb = draw(st.integers(3, 6))
    n_elec = draw(st.integers(0, 2 * norb))
    top = min(n_elec, 2 * norb - n_elec)
    sz2 = draw(st.sampled_from(range(-top, top + 1, 2)))
    if draw(st.booleans()):
        source = HubbardParams(norb, draw(st.floats(0.0, 8.0, allow_nan=False)))
    else:
        source = _dense_integrals(norb, seed=draw(st.integers(0, 2**32 - 1)))
    return source, n_elec, sz2, draw(st.integers(0, 2**32 - 1))


class TestBuildHamiltonian:
    @settings(max_examples=60, deadline=None)
    @given(_canonical_cases())
    def test_matrix_is_canonical_csr(self, case):
        # the assembly's own counting sorts leave each row's columns strictly
        # increasing, and scipy's sorting constructor, fed the same entries
        # in shuffled order, rebuilds the very same arrays bit for bit
        source, n_elec, sz2, seed = case
        h = build_hamiltonian(source, n_elec, sz2).matrix
        rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
        assert np.all(np.diff(rows * h.shape[1] + h.indices) > 0)
        shuffle = np.random.default_rng(seed).permutation(h.nnz)
        rebuilt = sps.csr_matrix((h.data[shuffle], (rows[shuffle], h.indices[shuffle])),
                                 shape=h.shape)
        for mine, ref in ((h.indptr, rebuilt.indptr), (h.indices, rebuilt.indices),
                          (h.data, rebuilt.data)):
            assert mine.dtype == ref.dtype
            assert mine.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_integrals())
    def test_matches_operator_strings(self, case):
        data, n_elec, sz2 = case
        one, two = _operator_strings(data.norb, n_elec, sz2)
        ref = (np.einsum("pq,pqij->ij", data.h, one)
               + 0.5 * np.einsum("pqrs,pqrsij->ij", data.eri, two)
               + data.core * np.eye(one.shape[-1]))
        built = build_hamiltonian(data, n_elec, sz2).matrix.toarray()
        assert np.max(np.abs(built - ref)) < 1e-12
        # symmetric integrals give a symmetric H, with no check on H itself
        assert abs(built - built.T).max() <= 1e-12

    @pytest.mark.parametrize("n_elec,sz2", [(2, 0), (3, 1), (3, -1), (4, 0)])
    def test_matches_grouped_reference_dense(self, n_elec, sz2):
        data = _dense_integrals(8, seed=5)
        built = build_hamiltonian(data, n_elec, sz2).matrix
        ref = _grouped_reference(data, n_elec, sz2)
        assert abs(built - ref).max() < 1e-12
        assert built.nnz == ref.nnz

    def test_matches_grouped_reference_hubbard(self):
        source = HubbardParams(8, 4.0)
        built = build_hamiltonian(source, 8, 0).matrix
        ref = _grouped_reference(source.integrals(), 8, 0)
        assert built.shape == (4900, 4900)
        assert abs(built - ref).max() < 1e-12
        assert built.nnz == ref.nnz

    @staticmethod
    def _assert_bound_covers_nnz(source, n_elec, sz2):
        # the pre-assembly check refuses every cap below the assembled nnz
        nnz = build_hamiltonian(source, n_elec, sz2).matrix.nnz
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interacting, "NNZ_CAP", nnz - 1)
            with pytest.raises(ValueError, match="may hold"):
                build_hamiltonian(source, n_elec, sz2)

    @settings(max_examples=30, deadline=None)
    @given(_integrals())
    def test_cap_bound_covers_nnz_random(self, case):
        self._assert_bound_covers_nnz(*case)

    @pytest.mark.parametrize("norb,n_elec,sz2", _SECTORS)
    def test_cap_bound_covers_nnz_dense(self, norb, n_elec, sz2):
        # every integral nonzero, so same-spin double excitations are present
        self._assert_bound_covers_nnz(_dense_integrals(norb, seed=norb), n_elec, sz2)

    @settings(max_examples=30, deadline=None)
    @given(_hubbard_sectors())
    def test_cap_bound_covers_nnz_hubbard(self, case):
        self._assert_bound_covers_nnz(*case)

    def test_cap_admits_the_documented_sectors(self):
        # Hubbard 16 at N = 2 and 4, and the dense 8-orbital N = 8 sector
        # (1 768 900 nonzeros, all its bound allows), fit under the default cap
        for n_elec, dim in ((2, 256), (4, 14400)):
            assert build_hamiltonian(HubbardParams(16, 4.0), n_elec, 0).dim == dim
        op = build_hamiltonian(_dense_integrals(8, seed=5), 8, 0)
        assert (op.dim, op.matrix.nnz) == (4900, 1768900)

    def test_dense_assembly_peak_memory(self):
        # the 784-dim N = 4 sector of a dense 8-orbital set holds 156 016
        # nonzeros (1.9 MB in CSR); assembly stays under 12 MB of
        # Python-visible allocations, with no copy of H made to check it
        data = _dense_integrals(8, seed=11)
        build_hamiltonian(data, 2, 0)  # first call: lazy imports and caches
        tracemalloc.start()
        try:
            op = build_hamiltonian(data, 4, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.matrix.nnz == 156016
        assert peak < 12e6

    def test_nnz_cap(self, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(interacting, "NNZ_CAP", 100)
            with pytest.raises(ValueError, match="nonzero cap"):
                build_hamiltonian(HubbardParams(6, 4.0), 6, 0)
        rng = np.random.default_rng(11)
        h = rng.normal(size=(8, 8))
        data = FcidumpData(norb=8, nelec=4, ms2=0, h=h + h.T,
                           eri=_eightfold(rng.normal(size=(8,) * 4)))
        op = build_hamiltonian(data, 4, 0)
        assert op.dim == 784
        assert 0 < op.matrix.nnz <= NNZ_CAP

    def test_two_site_free_spectrum(self):
        op = build_hamiltonian(HubbardParams(2, 0.0), 2, 0)
        evals = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.allclose(evals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_strong_coupling_trend(self):
        u = 1000.0
        op = build_hamiltonian(HubbardParams(2, u), 2, 0)
        energy = ground_state(op).energy
        assert energy == pytest.approx(-4 * 0.5**2 / u, rel=1e-5)

    def test_free_fcidump_matches_filled_levels(self):
        h1 = ring_one_body(4)
        data = FcidumpData(norb=4, nelec=2, ms2=0, h=h1, eri=np.zeros((4,) * 4))
        energies, _ = diagonalize_one_body(h1)
        gs = ground_state(build_hamiltonian(data, 2, 0))
        assert gs.energy == pytest.approx(2 * energies[0], abs=1e-10)

    def test_core_energy_shift(self):
        data = HubbardParams(2, 0.0).integrals()
        shifted = FcidumpData(norb=2, nelec=2, ms2=0, h=data.h, eri=data.eri,
                              core=3.0)
        gs = ground_state(build_hamiltonian(shifted, 2, 0))
        assert gs.energy == pytest.approx(2.0, abs=1e-10)

    def test_nnz_cap_refuses_before_allocating_the_sector(self):
        # Hubbard 16, N = 8: 3.3M configurations, refused from binomials alone
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="nonzero cap"):
                build_hamiltonian(HubbardParams(16, 4.0), 8, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError):
            sector_basis(2, 3, 3)
        with pytest.raises(ValueError, match="empty sector"):
            build_hamiltonian(HubbardParams(4, 1.0), 4, 1)

    @pytest.mark.parametrize("norb", range(1, 7))
    def test_sector_basis_matches_fock_mask(self, norb):
        # the string enumeration must reproduce the 4**norb mask selection,
        # empty sectors included
        space = FockSpace(norb)
        for n_elec in range(2 * norb + 1):
            for sz2 in range(-norb - 1, norb + 2):
                mask = fockref.config_n(space) == n_elec
                mask &= fockref.config_sz2(space) == sz2
                expected = fockref.configs(space)[mask]
                if expected.size == 0:
                    with pytest.raises(ValueError, match="empty sector"):
                        sector_basis(norb, n_elec, sz2)
                    continue
                basis = sector_basis(norb, n_elec, sz2)
                assert basis.dtype == expected.dtype
                assert np.array_equal(basis, expected)


class TestGroundState:
    def test_diagonal_matrix(self):
        basis = sector_basis(2, 1, 1)
        op = ManyBodyOperator(sps.csr_matrix(np.diag([3.0, -2.0])), basis, FockSpace(2))
        gs = ground_state(op)
        assert gs.energy == -2.0
        assert not gs.degenerate

    def test_two_site_analytic_energy(self):
        op = build_hamiltonian(HubbardParams(2, 1.0), 2, 0)
        gs = ground_state(op)
        assert gs.energy == pytest.approx((1 - np.sqrt(5)) / 2, abs=1e-12)

    def test_degenerate_ground_flagged(self):
        basis = sector_basis(2, 1, 1)
        op = ManyBodyOperator(sps.csr_matrix(np.eye(2)), basis, FockSpace(2))
        assert ground_state(op).degenerate

    def test_iterative_path_agrees_with_dense(self, monkeypatch):
        op = build_hamiltonian(HubbardParams(6, 4.0), 6, 0)
        monkeypatch.setattr(interacting, "_DENSE_CUTOFF", 4000)
        dense = ground_state(op)
        monkeypatch.setattr(interacting, "_DENSE_CUTOFF", 10)
        sparse = ground_state(op)
        assert isinstance(sparse, GroundStateResult)
        assert sparse.energy == pytest.approx(dense.energy, abs=1e-8)
        assert sparse.residual < 1e-9

    @pytest.mark.parametrize("n_sites,n_elec", [(6, 4), (6, 6), (8, 4)])
    def test_default_cutoff_agrees_with_dense(self, n_sites, n_elec, monkeypatch):
        # sector dimensions 225 (dense by default), 400 and 784 (Lanczos)
        op = build_hamiltonian(HubbardParams(n_sites, 4.0), n_elec, 0)
        default = ground_state(op)
        monkeypatch.setattr(interacting, "_DENSE_CUTOFF", 10**6)
        dense = ground_state(op)
        assert not dense.degenerate
        assert default.energy == pytest.approx(dense.energy, abs=1e-12)
        for lp in range(1, n_sites):
            got = orbital_pair_entanglement(default.state, 0, lp, ssr="N").value
            ref = orbital_pair_entanglement(dense.state, 0, lp, ssr="N").value
            assert got == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("u,n_elec,sz2,dim", [(4.0, 5, 1, 1568), (3.0, 6, 2, 1960)])
    def test_lanczos_path_flags_degenerate_level(self, u, n_elec, sz2, dim):
        # two-fold ground levels of the 8-site ring; with k = 2 Lanczos
        # reported gaps of 0.129 and 0.021 here, and with tol = 1e-10 it
        # missed the second copy on the second sector
        op = build_hamiltonian(HubbardParams(8, u), n_elec, sz2)
        assert op.dim == dim  # above the dense cutoff
        gs = ground_state(op)
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        assert dense[1] - dense[0] < 1e-9
        assert gs.degenerate
        assert gs.energy == pytest.approx(dense[0], abs=1e-12)

    def test_lanczos_path_repeats_bit_for_bit(self):
        op = build_hamiltonian(HubbardParams(8, 4.0), 8, 0)
        assert op.dim == 4900  # above the dense cutoff
        first, second = ground_state(op), ground_state(op)
        assert first.energy == second.energy
        assert np.array_equal(first.state.amps, second.state.amps)

    @pytest.mark.parametrize("source,n_elec,sz2,dim", [
        (HubbardParams(8, 4.0), 4, 0, 784),
        (HubbardParams(7, 2.5), 6, 0, 1225),
        (HubbardParams(7, 6.0), 7, 1, 1225),
        ("dense", 4, 0, 784),
        ("dense", 5, 1, 1568),
    ], ids=["hubbard8-N4", "hubbard7-N6", "hubbard7-N7", "dense8-N4", "dense8-N5"])
    def test_lanczos_gap_matches_dense(self, source, n_elec, sz2, dim):
        # the dense-ERI sectors have E0 > 0, through the core energy: a gap
        # run that projected psi out instead of lifting it would find psi's
        # eigenvalue 0 below the level and return a negative gap
        if source == "dense":
            h, eri = _random_integrals(np.random.default_rng(3), 8)
            source = parse_fcidump(serialize_fcidump(
                FcidumpData(norb=8, nelec=n_elec, ms2=sz2, h=h, eri=eri, core=40.0)))
        op = build_hamiltonian(source, n_elec, sz2)
        assert op.dim == dim  # above the dense cutoff
        gs = ground_state(op)
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        if isinstance(source, FcidumpData):
            assert dense[0] > 0.0
        assert gs.energy == pytest.approx(dense[0], abs=1e-12)
        assert gs.degenerate == (dense[1] - dense[0] < 1e-9)
        assert abs(gs.gap - (dense[1] - dense[0])) <= 1e-9
        assert gs.residual <= 1e-9

    def test_lanczos_path_flags_fourfold_level(self):
        # the free 8-site ring at N = 4 fills the k = +-pi/4 pair with one
        # electron of each spin at 2Sz = 0: a fourfold ground level, while
        # the single-vector Krylov space of run 1 holds one vector of it
        op = build_hamiltonian(HubbardParams(8, 0.0), 4, 0)
        assert op.dim == 784  # above the dense cutoff
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        assert dense[3] - dense[0] < 1e-9 < dense[4] - dense[0]
        gs = ground_state(op)
        assert gs.degenerate
        assert gs.energy == pytest.approx(dense[0], abs=1e-12)

    @pytest.mark.parametrize("n_elec", [4, 6])
    def test_kept_and_regenerated_basis_agree_bit_for_bit(self, n_elec, monkeypatch):
        op = build_hamiltonian(HubbardParams(8, 4.0), n_elec, 0)
        paths = []
        ritz_vector = interacting._ritz_vector

        def spy(*args):
            paths.append(args[-1] is None)
            return ritz_vector(*args)

        monkeypatch.setattr(interacting, "_ritz_vector", spy)
        results = []
        for budget in (1 << 62, 0):
            monkeypatch.setattr(interacting, "_basis_budget", lambda matrix, b=budget: b)
            results.append(ground_state(op))
        assert paths == [False, True]
        kept, regenerated = results
        assert np.array_equal(kept.state.amps, regenerated.state.amps)
        assert (kept.energy, kept.gap, kept.residual) == (
            regenerated.energy, regenerated.gap, regenerated.residual)

    def test_lanczos_path_on_a_multiple_of_the_identity(self):
        # every vector is an eigenvector: the Krylov space is exhausted,
        # up to rounding, after one step, and the whole 400-dim sector is
        # one level
        basis = sector_basis(6, 6, 0)
        op = ManyBodyOperator(sps.csr_matrix(2.0 * sps.identity(basis.size)), basis,
                              FockSpace(6))
        gs = ground_state(op)
        assert gs.energy == pytest.approx(2.0, abs=1e-12)
        assert gs.degenerate and gs.residual <= 1e-9

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(interacting, "_MAX_STEPS", 5)
        with pytest.raises(RuntimeError, match="Lanczos did not converge in 5 steps"):
            ground_state(build_hamiltonian(HubbardParams(8, 4.0), 4, 0))


class TestPairEntanglement:
    @pytest.mark.parametrize("n_sites,n_elec", [(4, 2), (4, 6), (6, 2), (6, 6), (16, 2)])
    def test_free_ring_matches_tight_binding(self, n_sites, n_elec):
        op = build_hamiltonian(HubbardParams(n_sites, 0.0), n_elec, 0)
        gs = ground_state(op)
        eta = n_elec / (2.0 * n_sites)
        for l in range(n_sites):
            for lp in range(l + 1, n_sites):
                d = min(lp - l, n_sites - (lp - l))
                res = orbital_pair_entanglement(gs.state, l, lp, ssr="N")
                ref = tb_entanglement(
                    TbQuery(eta=eta, d=d, n_sites=n_sites)).e_nssr
                assert res.value == pytest.approx(ref, abs=1e-8)

    def test_half_filled_repulsive_only_neighbors(self):
        op = build_hamiltonian(HubbardParams(6, 8.0), 6, 0)
        gs = ground_state(op)
        values = {d: orbital_pair_entanglement(gs.state, 0, d, ssr="N").value
                  for d in (1, 2, 3)}
        assert values[1] > 1e-6
        assert values[2] < 1e-6
        assert values[3] < 1e-6

    def test_dilute_repulsive_prefers_distance(self):
        op = build_hamiltonian(HubbardParams(6, 8.0), 2, 0)
        gs = ground_state(op)
        values = {d: orbital_pair_entanglement(gs.state, 0, d, ssr="N").value
                  for d in (1, 3)}
        assert values[3] >= values[1]

    def test_ring_symmetry_across_equivalent_pairs(self):
        op = build_hamiltonian(HubbardParams(6, 8.0), 6, 0)
        gs = ground_state(op)
        by_d = {}
        for l in range(6):
            for lp in range(l + 1, 6):
                d = min(lp - l, 6 - (lp - l))
                val = orbital_pair_entanglement(gs.state, l, lp, ssr="N").value
                by_d.setdefault(d, []).append(val)
        for vals in by_d.values():
            assert max(vals) - min(vals) < 1e-8

    def test_particle_hole_ordering_agreement(self):
        orders = {}
        for n_elec in (2, 10):
            op = build_hamiltonian(HubbardParams(6, 8.0), n_elec, 0)
            gs = ground_state(op)
            orders[n_elec] = [
                orbital_pair_entanglement(gs.state, 0, d, ssr="N").value
                for d in (1, 2, 3)]
        rank = spearmanr(orders[2], orders[10]).statistic
        assert rank == pytest.approx(1.0)

    def test_pssr_close_to_nssr(self):
        op = build_hamiltonian(HubbardParams(4, 2.0), 2, 0)
        gs = ground_state(op)
        res_p = orbital_pair_entanglement(gs.state, 0, 1, ssr="P")
        res_n = orbital_pair_entanglement(gs.state, 0, 1, ssr="N")
        assert res_p.converged
        assert res_p.value >= res_n.value - 1e-7

    # Frank-Wolfe values of the solver that searched every pair of local
    # sectors in one 4 x 4 problem (one BLAS thread): (value, gap).  Each
    # pair has a block with unequal middle diagonals, which the exact route
    # now solves.  L = 8, N = 5 has a twofold ground level, and its values
    # belong to the vector ground_state returns: there they are
    # tests/fwref.py's frank_wolfe_pinched on that vector (one BLAS thread)
    @pytest.mark.parametrize("n_sites,n_elec,pair,ssr,ref", [
        (6, 3, (0, 1), "P", (0.04433018835894709, 9.1e-8)),
        (6, 3, (0, 1), "N", (0.04411422768702744, 2.6e-8)),
        (6, 3, (0, 2), "P", (0.11789997879370562, 3.7e-8)),
        (8, 5, (0, 1), "P", (0.00026511426393508635, 2.6e-8)),
        (8, 5, (0, 2), "P", (4.788037401473388e-16, 1.1e-8)),
    ])
    def test_blockwise_solver_matches_one_problem(self, n_sites, n_elec, pair, ssr, ref):
        gs = ground_state(build_hamiltonian(HubbardParams(n_sites, 4.0), n_elec, n_elec % 2))
        res = orbital_pair_entanglement(gs.state, *pair, ssr=ssr)
        assert res.method == "x-state" and res.converged and res.gap <= 1e-12
        assert abs(res.value - ref[0]) <= ref[1] + res.gap

    def test_symmetry_violation_propagates(self):
        # (upup + downdown)/sqrt2 leaves an Sz-breaking coherence in the RDM
        sp = FockSpace(2)
        amps = np.zeros(sp.dim, dtype=complex)
        amps[(1 << sp.mode(0, 0)) | (1 << sp.mode(1, 0))] = 1 / np.sqrt(2)
        amps[(1 << sp.mode(0, 1)) | (1 << sp.mode(1, 1))] = 1 / np.sqrt(2)
        # the exact route does not apply, so the Frank-Wolfe solver takes it:
        # a Bell pair inside the one-electron-each sector
        res = orbital_pair_entanglement(fockref.fock_state(sp, amps), 0, 1, ssr="N")
        assert res.method == "numeric-ree" and res.converged
        assert res.value == pytest.approx(np.log(2.0), abs=1e-7)


def _random_integrals(rng, norb):
    """Symmetry-free one- and two-electron integrals with the 8-fold ERI symmetry."""
    h = rng.normal(size=(norb, norb))
    eri = rng.normal(size=(norb,) * 4)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        eri = eri + eri.transpose(perm)
    return h + h.T, eri / 8


def _pair_values(data, n_elec, ms2, relabel=None):
    """E_N and E_P of every orbital pair of the sector ground state, keyed by
    the pair's labels after ``relabel`` (old label -> new label), and the
    ground state."""
    gs = ground_state(build_hamiltonian(data, n_elec, ms2))
    relabel = np.arange(data.norb) if relabel is None else relabel
    return {(l, lp, ssr): orbital_pair_entanglement(gs.state, relabel[l], relabel[lp], ssr).value
            for l, lp in itertools.combinations(range(data.norb), 2)
            for ssr in ("N", "P")}, gs


class TestInvariance:
    """Symmetries of the physics on the whole ``ed`` chain (integrals,
    sector Hamiltonian, ground state, pair state, pinch and REE): relabelling
    the orbitals, flipping the sign of one orbital, reversing 2Sz, reversing
    the pair and conjugating particles and holes leave every pair value
    unchanged, on every route.

    Under c -> c^dag on every mode, e_pq -> delta_pq - e_qp for each spin:
    the N-electron, 2Sz sector of (h, (pq|rs)) maps to the 2 norb - N,
    -2Sz sector of (-h + K - 2J, (pq|rs)), with J_pq = sum_r (rr|pq) and
    K_pq = sum_r (pr|rq), up to a constant.  On the pair this is a local
    unitary up to signs that depend on the local parities only, which both
    pinches remove.  Unlike the other maps, it ties the same-spin and the
    opposite-spin parts of the interaction together.
    """

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 5))
    # non-adjacent pairs whose environment occupation between the two
    # orbitals fluctuates, where a wrong reordering sign shows
    @example(0, 5)
    @example(2, 4)
    def test_relabel_flip_reverse(self, seed, norb):
        rng = np.random.default_rng(seed)
        h, eri = _random_integrals(rng, norb)
        n_elec = int(rng.integers(2, 2 * norb - 1))  # two electrons and two holes at least
        ms2 = n_elec % 2 + 2 * int(rng.integers(2) and min(n_elec, 2 * norb - n_elec) > 2)
        data = FcidumpData(norb=norb, nelec=n_elec, ms2=ms2, h=h, eri=eri)
        values, gs = _pair_values(data, n_elec, ms2)
        assume(gs.gap > 1e-3)  # a non-degenerate sector ground level

        perm = rng.permutation(norb)  # new orbital i is old orbital perm[i]
        permuted = FcidumpData(norb=norb, nelec=n_elec, ms2=ms2, h=h[np.ix_(perm, perm)],
                               eri=eri[np.ix_(perm, perm, perm, perm)])
        s = np.ones(norb)
        s[rng.integers(norb)] = -1.0
        flipped = FcidumpData(norb=norb, nelec=n_elec, ms2=ms2, h=h * np.multiply.outer(s, s),
                              eri=eri * np.einsum("i,j,k,l->ijkl", s, s, s, s))
        conjugate = FcidumpData(
            norb=norb, nelec=2 * norb - n_elec, ms2=-ms2,
            h=-h + np.einsum("prrq->pq", eri) - 2.0 * np.einsum("rrpq->pq", eri), eri=eri)
        maps = [_pair_values(permuted, n_elec, ms2, np.argsort(perm))[0],
                _pair_values(flipped, n_elec, ms2)[0],
                _pair_values(data, n_elec, -ms2)[0],
                {(l, lp, ssr): orbital_pair_entanglement(gs.state, lp, l, ssr).value
                 for l, lp, ssr in values},
                _pair_values(conjugate, 2 * norb - n_elec, -ms2)[0]]
        for mapped in maps:
            for key, value in values.items():
                assert abs(mapped[key] - value) <= 1e-12, (key, value, mapped[key])


class TestReferenceTable:
    def test_row_count_and_ordering_invariant(self):
        rows = reference_table()
        assert len(rows) == 112
        assert all(row.e_pssr >= row.e_nssr for row in rows)
        assert all(row.e_pssr >= 1e-5 for row in rows)

    def test_known_lookups(self):
        assert reference_lookup(16, 1, 1).e_pssr == 0.09116
        assert reference_lookup(16, 1, 1).e_nssr == 0.04525
        assert reference_lookup(2, 1, 1).e_pssr == 0.00079
        assert reference_lookup(2, 5, 8).e_nssr == 0.02091
        assert reference_lookup(4, 1, 3).e_nssr == 0.0

    def test_missing_lookup(self):
        with pytest.raises(KeyError):
            reference_lookup(16, 1, 5)

    def test_comparison_harness_reports_without_asserting(self):
        # desk-scale stand-in: the harness runs on any integrals and reports
        # deviations in both logarithm conventions against matching rows
        data = HubbardParams(4, 1.0).integrals()
        report = compare_with_reference(data, 2, 9.0)
        assert report["n_elec"] == 2
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert "e_p" in row and "e_n" in row
        # no bundled rows at R = 9, so no deviation fields
        assert all("dev_p_if_nats" not in row for row in report["rows"])
        # bundled rows exist at (N=2, R=1): both conventions reported
        report = compare_with_reference(data, 2, 1.0)
        for row in report["rows"]:
            assert "dev_p_if_nats" in row and "dev_p_if_bits" in row
            assert "dev_n_if_nats" in row and "dev_n_if_bits" in row
