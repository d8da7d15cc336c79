import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbent import tightbinding

from orbent.entanglement import nssr_entanglement, pssr_entanglement
from orbent.freefermion import slater_1rdm, two_orbital_state_from_block
from orbent.tightbinding import (
    DminExact,
    TbQuery,
    asymptotic_small_eta,
    dispersion,
    dmin_asymptotic,
    dmin_exact,
    pssr_point,
    ring_one_body,
    scan_dmin,
    scan_entanglement,
    separable,
    tb_entanglement,
    w_kernel,
    w_kernel_finite,
)

LN2 = np.log(2.0)

# independently computed (50-digit arithmetic) references
E_HALF_D1 = 0.045549554081600035
DMIN_REF = {0.01: 45, 0.02: 23, 0.05: 10, 0.1: 5, 0.2: 3, 0.3: 2, 0.5: 2}


def _forward_dmin(eta):
    """The forward scan ``dmin_exact`` replaced, kept as the reference: every
    separation from 1 on, until the envelope |W| <= 1/(pi d) guarantees
    separability."""
    last_entangled, d = 0, 1
    while True:
        if not separable(eta, d):
            last_entangled = d
        if eta - eta * eta + (math.pi * d) ** -2 - math.sqrt(2.0) / (math.pi * d) >= 0.0:
            return last_entangled + 1
        d += 1


class TestDispersion:
    @pytest.mark.parametrize("k,expected", [(0, -1.0), (2, 0.0), (4, 1.0)])
    def test_eight_site_values(self, k, expected):
        assert dispersion(k, 8) == pytest.approx(expected, abs=1e-15)

    def test_out_of_brillouin_range(self):
        with pytest.raises(ValueError):
            dispersion(5, 8)

    def test_matches_ring_matrix_spectrum(self):
        n = 10
        e_matrix = np.linalg.eigvalsh(ring_one_body(n))
        e_disp = sorted(dispersion(k, n) for k in range(-4, 6))
        assert np.allclose(sorted(e_matrix), e_disp, atol=1e-12)


class TestWKernel:
    def test_nearest_neighbor_half_filling(self):
        assert w_kernel(1, 0.5) == pytest.approx(1 / np.pi)

    def test_band_edges_vanish(self):
        assert w_kernel(3, 0.0) == 0.0
        assert w_kernel(3, 1.0) == 0.0

    def test_quarter_filling(self):
        assert w_kernel(2, 0.25) == pytest.approx(1 / (2 * np.pi))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            w_kernel(0, 0.5)
        with pytest.raises(ValueError):
            w_kernel(1, 1.5)

    def test_finite_matches_slater_1rdm(self):
        n, n_per_spin = 16, 3  # N = 6 = 4*1 + 2
        gamma = slater_1rdm(ring_one_body(n), n_per_spin)
        for d in range(1, n // 2 + 1):
            assert gamma[0, d] == pytest.approx(
                w_kernel_finite(d, 2 * n_per_spin, n), abs=1e-12)

    def test_finite_requires_closed_shell(self):
        with pytest.raises(ValueError):
            w_kernel_finite(1, 4, 8)

    def test_finite_converges_to_thermodynamic(self):
        n, n_elec = 10_000, 6202
        eta = n_elec / (2 * n)
        for d in range(1, 11):
            assert abs(w_kernel_finite(d, n_elec, n) - w_kernel(d, eta)) < 1e-7


class TestTbEntanglement:
    def test_reference_point(self):
        res = tb_entanglement(TbQuery(eta=0.5, d=1))
        assert res.e_nssr == pytest.approx(E_HALF_D1, abs=1e-14)
        assert res.entangled

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_band_edges_not_entangled(self, eta):
        res = tb_entanglement(TbQuery(eta=eta, d=4))
        assert res.e_nssr == 0.0
        assert not res.entangled

    def test_small_eta_asymptote(self):
        e = tb_entanglement(TbQuery(eta=1e-3, d=1)).e_nssr
        assert e == pytest.approx(2 * LN2 * 1e-6, rel=0.01)

    def test_asymptote_helper_and_warning(self):
        assert asymptotic_small_eta(1e-3, 1) == pytest.approx(2 * LN2 * 1e-6)
        assert asymptotic_small_eta(0.0, 1) == 0.0
        with pytest.warns(UserWarning):
            asymptotic_small_eta(0.3, 1)

    def test_loglog_slope_two(self):
        etas = np.logspace(-4, -3, 30)
        es = [tb_entanglement(TbQuery(eta=float(x), d=1)).e_nssr for x in etas]
        slope, intercept = np.polyfit(np.log(etas), np.log(es), 1)
        assert slope == pytest.approx(2.0, abs=0.01)
        assert np.exp(intercept) == pytest.approx(2 * LN2, rel=0.05)

    def test_particle_hole_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            eta = float(rng.uniform(0, 1))
            d = int(rng.integers(1, 101))
            e1 = tb_entanglement(TbQuery(eta=eta, d=d)).e_nssr
            e2 = tb_entanglement(TbQuery(eta=1 - eta, d=d)).e_nssr
            assert abs(e1 - e2) < 1e-14

    def test_sector_formula_equivalence(self):
        # the A,B expression is the sector formula at r = 3(A-B), t = A+B
        for eta in np.linspace(0.005, 0.995, 40):
            for d in range(1, 6):
                res = tb_entanglement(TbQuery(eta=float(eta), d=d))
                assert res.e_nssr == pytest.approx(
                    nssr_entanglement(res.r, res.t), abs=1e-12)

    def test_entangled_flag_consistency(self):
        for eta in np.linspace(0.01, 0.99, 25):
            for d in (1, 2, 3, 7):
                res = tb_entanglement(TbQuery(eta=float(eta), d=d))
                assert res.entangled == (res.a < 2 * res.b)
                assert (res.e_nssr > 0) == res.entangled

    def test_finite_ring_provenance_and_validation(self):
        res = tb_entanglement(TbQuery(eta=0.25, d=2, n_sites=4))
        assert res.provenance == "finite-L"
        with pytest.raises(ValueError):
            TbQuery(eta=0.5, d=1, n_sites=4)  # N = 4 not of closed-shell form
        with pytest.raises(ValueError):
            TbQuery(eta=0.25, d=3, n_sites=4)  # d beyond L/2

    def test_finite_matches_thermodynamic_at_large_l(self):
        n, n_elec = 10_000, 6202
        eta = n_elec / (2 * n)
        for d in range(1, 11):
            fin = tb_entanglement(TbQuery(eta=eta, d=d, n_sites=n)).e_nssr
            thermo = tb_entanglement(TbQuery(eta=eta, d=d)).e_nssr
            assert abs(fin - thermo) < 1e-6


class TestSeparable:
    def test_half_filling_nearest_neighbor_entangled(self):
        assert not separable(0.5, 1)

    def test_band_edge_separable(self):
        assert separable(0.0, 3)

    def test_dilute_long_distance_separable(self):
        assert separable(0.1, 100)

    def test_matches_a_geq_2b(self):
        for eta in np.linspace(0.02, 0.98, 33):
            for d in range(1, 12):
                res = tb_entanglement(TbQuery(eta=float(eta), d=d))
                assert separable(float(eta), d) == (res.a >= 2 * res.b)


class TestDmin:
    @pytest.mark.parametrize("eta,expected", sorted(DMIN_REF.items()))
    def test_reference_values(self, eta, expected):
        assert dmin_exact(eta) == DminExact(expected, False)

    def test_boundary_witness(self):
        for eta in (0.01, 0.02, 0.05, 0.1):
            dmin = dmin_exact(eta).value
            assert not separable(eta, dmin - 1)  # entangled just below
            assert all(separable(eta, d) for d in range(dmin, 4 * dmin))

    def test_backward_scan_matches_forward_scan(self):
        etas = np.concatenate([np.geomspace(1e-4, 0.5, 400), np.linspace(0.5, 0.9999, 200),
                               np.random.default_rng(5).uniform(1e-3, 1.0, 100)])
        for eta in etas:
            assert dmin_exact(float(eta)) == DminExact(_forward_dmin(float(eta)), False), eta

    def test_backward_scan_stops_at_last_entangled_separation(self, monkeypatch):
        # the forward scan made 450 159 separability calls at this filling
        calls = []

        def counting(eta, d):
            calls.append(d)
            return separable(eta, d)

        monkeypatch.setattr(tightbinding, "separable", counting)
        assert dmin_exact(1e-6).value == _forward_dmin(1e-6)
        assert len(calls) < 20_000

    def test_particle_hole_symmetric(self):
        for eta in (0.05, 0.23, 0.4):
            assert dmin_exact(eta).value == dmin_exact(1 - eta).value

    def test_scan_beyond_cap_refused_before_it_starts(self):
        # the scan would stop near d = 4.5e7, past its 10^7 cap
        with pytest.raises(ValueError, match="cap"):
            dmin_exact(1e-8)

    def test_band_edges_flagged(self):
        assert dmin_exact(0.0) == DminExact(1, True)
        assert dmin_exact(1.0) == DminExact(1, True)

    def test_asymptote_values(self):
        assert dmin_asymptotic(0.01) == pytest.approx(45.470521, abs=1e-5)
        assert dmin_asymptotic(0.5) == pytest.approx(4 * np.sqrt(2) / np.pi, abs=1e-12)
        assert dmin_asymptotic(0.3) == pytest.approx(dmin_asymptotic(0.7))

    def test_asymptote_agreement_where_valid(self):
        # the integer exact value is within 5% of the asymptote at the
        # dilute reference points; at eta = 0.05 it sits at 5.52% (and 9,
        # still entangled, at 5.03%), which is why acceptance criterion 5
        # compares the asymptote with the interval (dmin - 1, dmin]
        for eta in (0.01, 0.02, 0.1):
            rel = abs(dmin_exact(eta).value - dmin_asymptotic(eta)) / dmin_asymptotic(eta)
            assert rel < 0.05
        rel_005 = abs(dmin_exact(0.05).value - dmin_asymptotic(0.05)) / dmin_asymptotic(0.05)
        assert rel_005 == pytest.approx(0.0551847, abs=1e-4)


@st.composite
def _tb_queries(draw):
    """A thermodynamic query, or a closed-shell filling of a finite ring."""
    if draw(st.booleans()):
        return TbQuery(eta=draw(st.floats(0.0, 1.0)), d=draw(st.integers(1, 3000)))
    n_sites = draw(st.integers(2, 60))
    n_elec = 4 * draw(st.integers(0, (2 * n_sites - 2) // 4)) + 2
    return TbQuery(eta=n_elec / (2 * n_sites), d=draw(st.integers(1, n_sites // 2)),
                   n_sites=n_sites)


class TestPssrPoint:
    """The parity value from the block weights against the density-matrix
    route; bounds fixed before the first run."""

    @settings(max_examples=400, deadline=None)
    @given(_tb_queries())
    # a kernel one float step past eta: a negative pair or empty weight
    @example(TbQuery(eta=0.16666666666666666, d=1, n_sites=6))
    @example(TbQuery(eta=0.9666666666666667, d=5, n_sites=30))
    # W^2 below 1e-12: a dilute block's coherence, small but not negligible
    @example(TbQuery(eta=1e-6, d=10))
    # near the band edge, where weights formed by subtraction once put E_P
    # about 3e-15 below E_N
    @example(TbQuery(eta=0.9999572713178061, d=1))
    def test_matches_density_matrix_route(self, query):
        res = pssr_point(query)
        assert (res.method, res.ssr, res.iterations, res.converged) == ("x-state", "P", 0, True)
        closed = tb_entanglement(query)
        assert res.value >= closed.e_nssr - 1e-14
        ref = pssr_entanglement(two_orbital_state_from_block(query.eta, query.eta, closed.w))
        assert abs(res.value - ref.value) <= 1e-15
        assert abs(res.gap - ref.gap) <= 1e-15

    def test_dilute_density_matrix_route(self):
        # both parity blocks carry the middle coherence W^2, just under
        # 1e-12, and the oo block weighs only about 2e-12: measured against
        # each block's own weight, neither coherence counts as 0, so the
        # density-matrix route solves both blocks instead of returning 0, and
        # agrees with the weights route to the last bit; the 80-digit value
        # of the same float eta and W is 1.3862943394399139e-12
        eta = 1e-6
        ref = pssr_entanglement(two_orbital_state_from_block(eta, eta, w_kernel(10, eta)))
        assert (ref.value, ref.gap, ref.method) == (1.3862943394399193e-12, 0.0, "x-state")
        assert ref.value == pssr_point(TbQuery(eta=eta, d=10)).value
        assert ref.value >= tb_entanglement(TbQuery(eta=eta, d=10)).e_nssr

    def test_scan_column(self):
        rows = scan_entanglement([1, 5], eta_min=0.1, eta_max=0.9, points=5, pssr=True)
        for row in rows:
            assert row["E_pssr"] == pssr_point(TbQuery(eta=row["eta"], d=row["d"])).value
            assert row["E_pssr"] >= row["E_nssr"] - 1e-14


class TestScans:
    def test_fig2_row_order_and_count(self):
        rows = scan_entanglement([1, 2], eta_min=0.1, eta_max=0.9, points=5)
        assert len(rows) == 10
        assert [r["d"] for r in rows[:2]] == [1, 2]  # eta outer, d inner
        assert rows[0]["eta"] == rows[1]["eta"]

    def test_fig2_symmetric_halves(self):
        rows = scan_entanglement([1], eta_min=0.2, eta_max=0.8, points=7)
        es = [r["E_nssr"] for r in rows]
        assert np.allclose(es, es[::-1], atol=1e-14)

    def test_fig2_peak_at_half_filling(self):
        rows = scan_entanglement([1], eta_min=0.05, eta_max=0.95, points=91)
        best = max(rows, key=lambda r: r["E_nssr"])
        assert best["eta"] == pytest.approx(0.5, abs=1e-12)

    def test_dmin_scan_contents(self):
        rows = scan_dmin(eta_min=0.01, eta_max=0.5, points=12)
        assert len(rows) == 12
        assert all(r["dmin_exact"] >= 1 for r in rows)
        vals = [r["dmin_exact"] for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))  # non-increasing
