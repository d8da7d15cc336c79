import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import orbent
from orbent import fock, interacting
from orbent.cli import main
from orbent.entanglement import pssr_entanglement
from orbent.freefermion import two_orbital_state_from_block


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTb:
    def test_single_record(self, capsys):
        code, out, _ = run_cli(capsys, "tb", "--eta", "0.5", "--d", "1")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(0.045549554081600035, abs=1e-12)
        assert record["entangled"] is True
        assert record["method"] == "closed-form"
        assert record["w"] == pytest.approx(1 / np.pi)

    def test_band_edge(self, capsys):
        code, out, _ = run_cli(capsys, "tb", "--eta", "0", "--d", "5")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == 0.0
        assert record["entangled"] is False

    def test_log_base_two(self, capsys):
        _, out_e, _ = run_cli(capsys, "tb", "--eta", "0.5", "--d", "1")
        _, out_2, _ = run_cli(capsys, "tb", "--eta", "0.5", "--d", "1",
                              "--log-base", "2")
        ratio = json.loads(out_e)["value"] / json.loads(out_2)["value"]
        assert ratio == pytest.approx(np.log(2))

    def test_pssr_record_carries_gap(self, capsys):
        code, out, _ = run_cli(capsys, "tb", "--eta", "0.3", "--d", "2",
                               "--ssr", "p")
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "x-state"
        assert record["gap"] <= 1e-7
        assert record["converged"] is True

    def test_finite_ring(self, capsys):
        code, out, _ = run_cli(capsys, "tb", "--eta", "0.25", "--d", "2",
                               "--finite-L", "4")
        assert code == 0
        assert json.loads(out)["provenance"] == "finite-L"

    def test_invalid_flags_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "tb", "--eta", "0.5")
        assert code == 2
        code, _, _ = run_cli(capsys, "tb", "--eta", "1.5", "--d", "1")
        assert code == 2

    def test_pssr_gap_follows_log_base(self, capsys):
        argv = ("tb", "--eta", "0.05", "--d", "5", "--ssr", "p")
        _, out_e, _ = run_cli(capsys, *argv)
        _, out_2, _ = run_cli(capsys, *argv, "--log-base", "2")
        nats, bits = json.loads(out_e), json.loads(out_2)
        assert nats["gap"] > 0
        assert bits["gap"] == nats["gap"] / np.log(2)
        assert bits["value"] == nats["value"] / np.log(2)
        assert bits["converged"] is nats["converged"] is True

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "tb", "--eta", "0.2", "--d", "1", "--ssr", "p")
        _, second, _ = run_cli(capsys, "tb", "--eta", "0.2", "--d", "1", "--ssr", "p")
        assert first == second
        # the solver's diagnostics stay off stdout, whose record keeps its schema
        assert set(json.loads(first)) == {
            "model", "eta", "d", "n_sites", "ssr", "log_base", "w", "a", "b", "r", "t",
            "provenance", "value", "method", "gap", "iterations", "converged"}


class TestTbPssr:
    """``tb --ssr p`` solves the two parity blocks from their weights."""

    @pytest.mark.parametrize("eta,d,n_sites", [("0.16666666666666666", "1", "6"),
                                               ("0.9666666666666667", "5", "30")])
    def test_kernel_past_filling_on_finite_ring(self, capsys, eta, d, n_sites):
        # W rounds one float step past eta: the Wick state's pair weight or
        # empty weight is then a rounding step below 0, and so is an
        # odd-odd corner
        code, out, err = run_cli(capsys, "tb", "--eta", eta, "--d", d,
                                 "--finite-L", n_sites, "--ssr", "p")
        assert code == 0, err
        rec = json.loads(out)
        ref = pssr_entanglement(two_orbital_state_from_block(rec["eta"], rec["eta"], rec["w"]))
        assert abs(rec["value"] - ref.value) <= 1e-15
        assert abs(rec["gap"] - ref.gap) <= 1e-15
        assert rec["method"] == "x-state" and rec["converged"] is True

    @pytest.mark.parametrize("eta", ["1e-6", "1e-7"])
    @pytest.mark.parametrize("d", ["1", "10"])
    def test_dilute_parity_value_not_below_number_value(self, capsys, eta, d):
        # W^2 lies below 1e-12 here, where the density-matrix route counts
        # the blocks' coherence as 0
        _, out_p, _ = run_cli(capsys, "tb", "--eta", eta, "--d", d, "--ssr", "p")
        _, out_n, _ = run_cli(capsys, "tb", "--eta", eta, "--d", d, "--ssr", "n")
        e_p, e_n = json.loads(out_p)["value"], json.loads(out_n)["value"]
        assert e_n > 0.0
        assert e_p >= e_n - 1e-14

    def test_builds_no_density_matrix(self, capsys, tmp_path, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("DensityMatrix constructed")

        monkeypatch.setattr(fock.DensityMatrix, "__init__", refuse)
        code, out, err = run_cli(capsys, "tb", "--eta", "0.3", "--d", "1", "--ssr", "p")
        assert code == 0, err
        assert json.loads(out)["value"] > 0.0
        code, _, err = run_cli(capsys, "tb-scan", "--d-list", "1,2", "--points", "11",
                               "--pssr", "--out", str(tmp_path / "scan.csv"))
        assert code == 0, err


class TestTbScan:
    def test_csv_schema_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "tb-scan", "--d-list", "1,2", "--eta-min",
                             "0.1", "--eta-max", "0.9", "--points", "9",
                             "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eta", "d", "E_nssr"]
        assert len(rows) == 1 + 2 * 9
        # eta outer, d inner
        assert rows[1][1] == "1" and rows[2][1] == "2"
        assert rows[1][0] == rows[2][0]
        # float fields round-trip bit-exactly through repr
        eta = float(rows[1][0])
        assert repr(eta) == rows[1][0]

    def test_symmetric_halves(self, tmp_path, capsys):
        out = tmp_path / "sym.csv"
        run_cli(capsys, "tb-scan", "--d-list", "1", "--eta-min", "0.2",
                "--eta-max", "0.8", "--points", "7", "--out", str(out))
        with open(out, newline="") as fh:
            values = [float(r["E_nssr"]) for r in csv.DictReader(fh)]
        assert np.allclose(values, values[::-1], atol=1e-14)

    def test_d1_peaks_at_half_filling(self, tmp_path, capsys):
        out = tmp_path / "peak.csv"
        run_cli(capsys, "tb-scan", "--d-list", "1", "--eta-min", "0.05",
                "--eta-max", "0.95", "--points", "19", "--out", str(out))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        best = max(rows, key=lambda r: float(r["E_nssr"]))
        assert float(best["eta"]) == pytest.approx(0.5)

    def test_pssr_column(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, "tb-scan", "--d-list", "1", "--eta-min",
                             "0.3", "--eta-max", "0.5", "--points", "2",
                             "--pssr", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"eta", "d", "E_nssr", "E_pssr"}
        for row in rows:
            assert float(row["E_pssr"]) >= float(row["E_nssr"]) - 1e-6


class TestDminScan:
    def test_schema_and_monotone(self, tmp_path, capsys):
        out = tmp_path / "dmin.csv"
        code, _, _ = run_cli(capsys, "dmin-scan", "--eta-min", "0.01",
                             "--eta-max", "0.5", "--points", "10",
                             "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eta", "dmin_exact", "dmin_asymptotic"]
        assert len(rows) == 11
        exact = [int(r[1]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(exact, exact[1:]))

    def test_reference_row(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        run_cli(capsys, "dmin-scan", "--eta-min", "0.02", "--eta-max", "0.02",
                "--points", "1", "--out", str(out))
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["dmin_exact"]) == 23
        assert float(row["dmin_asymptotic"]) == pytest.approx(22.967253, abs=1e-5)

    def test_filling_beyond_scan_cap_exit_2(self, tmp_path, capsys):
        # the scan would pass 10^7 separations; it is refused before it starts
        code, _, err = run_cli(capsys, "dmin-scan", "--eta-min", "1e-8", "--eta-max", "1e-8",
                               "--points", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("argv, flag", [
    (["tb-scan", "--d-list", "1", "--points", "0"], "--points"),
    (["tb-scan", "--d-list", "1", "--points", "-3"], "--points"),
    (["dmin-scan", "--points", "0"], "--points"),
    (["tb-scan", "--d-list", ""], "--d-list"),
    (["tb-scan", "--d-list", "1", "--scale", "log", "--eta-min", "0"], "--eta-min"),
    (["dmin-scan", "--eta-max", "-0.5"], "--eta-max"),
])
def test_scan_arguments_exit_2(tmp_path, capsys, argv, flag):
    # refused before any row is written: no CSV with a header and no rows
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and flag in err
    assert not out.exists()


class TestSwapDemo:
    def test_default_demo_reaches_maximally_mixed(self, capsys):
        code, out, _ = run_cli(capsys, "swap-demo")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "single-superselected-swap"
        assert np.allclose(report["output"]["real"], np.eye(4) / 4, atol=1e-14)
        assert np.allclose(report["output"]["imag"], 0.0)
        # eight cross-parity entries of magnitude 1/4 are erased
        assert report["erased_coherence_norm"] == pytest.approx(np.sqrt(0.5))

    def test_protocol_from_state_file(self, tmp_path, capsys):
        psi = np.zeros(16)
        psi[4 * 1 + 2] = psi[4 * 2 + 1] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi)
        payload = {"rho": {"real": rho.tolist(), "imag": (0 * rho).tolist()}}
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "swap-demo", "--state", str(state_file))
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "protocol"
        assert np.allclose(report["qubit_out"]["real"], rho, atol=1e-14)
        assert report["erased_orbital_coherence"] == pytest.approx(0.0, abs=1e-14)
        # number pinching erases nothing here but the report carries the norm
        assert report["erased_number_coherence"] == pytest.approx(0.0, abs=1e-14)
        assert report["simulation_residual"] < 1e-12

    def test_phi_plus_number_erasure_scale(self, tmp_path, capsys):
        phi = np.zeros(16)
        phi[4 * 0 + 3] = phi[4 * 3 + 0] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi)
        state_file = tmp_path / "phi.json"
        state_file.write_text(json.dumps({"rho": {"real": rho.tolist()}}))
        code, out, _ = run_cli(capsys, "swap-demo", "--state", str(state_file))
        assert code == 0
        report = json.loads(out)
        # the two off-diagonal 1/2 entries vanish: Frobenius norm 1/sqrt(2)
        assert report["erased_number_coherence"] == pytest.approx(np.sqrt(0.5))
        assert report["erased_orbital_coherence"] == pytest.approx(0.0, abs=1e-14)

    def test_missing_state_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "swap-demo", "--state", "/no/such/file")
        assert code == 2
        assert "cannot read" in err
        # not JSON, a JSON non-object, a scalar matrix, not UTF-8, and a
        # NaN entry, which json.load accepts
        nan_rho = b'{"rho": [[NaN, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]}'
        state_file = tmp_path / "state.json"
        for content in (b"not json", b"[1, 2]", b'{"rho": 5}', b"\xff\xfe", nan_rho,
                        # entries numpy cannot convert, which raise TypeError
                        b'{"rho": {"real": {"a": 1}}}', b'{"rho": [[{}]]}'):
            state_file.write_bytes(content)
            code, _, err = run_cli(capsys, "swap-demo", "--state", str(state_file))
            assert code == 2, content
            assert err.startswith("error: invalid state file: "), content


class TestEd:
    def test_hubbard_single_pair_record(self, capsys):
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "6,0", "--nelec", "2",
                               "--orbitals", "0,2")
        assert code == 0
        record = json.loads(out)
        assert record["model"] == "hubbard"
        assert record["d"] == 2
        assert record["energy"] == pytest.approx(-2.0, abs=1e-9)

    def test_record_reports_sector_dim_and_residual(self, capsys):
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "6,4", "--nelec", "4",
                               "--all-pairs")
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert record["sector_dim"] == 225  # C(6,2)**2 at 2Sz = 0
            assert 0.0 <= record["residual"] <= 1e-9

    def test_all_pairs_matches_finite_tb(self, capsys):
        from orbent.tightbinding import TbQuery, tb_entanglement
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "6,0", "--nelec", "2",
                               "--all-pairs")
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            ref = tb_entanglement(
                TbQuery(eta=1 / 6, d=record["d"], n_sites=6)).e_nssr
            assert record["value"] == pytest.approx(ref, abs=1e-8)

    def test_fcidump_input(self, tmp_path, capsys):
        from orbent.fcidump import serialize_fcidump
        from orbent.interacting import HubbardParams
        path = tmp_path / "hub.fcidump"
        path.write_text(serialize_fcidump(HubbardParams(4, 2.0).integrals()))
        code, out, _ = run_cli(capsys, "ed", "--fcidump", str(path), "--nelec",
                               "2", "--ms2", "0", "--orbitals", "0,1")
        assert code == 0
        assert json.loads(out)["model"] == "fcidump"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "ed", "--fcidump", "/no/such/file",
                               "--orbitals", "0,1")
        assert code == 2
        assert "cannot read" in err
        bad = tmp_path / "bad.fcidump"
        header = b"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n-0.5 1 2 0 0\n"
        for content, message in ((b"\xff\xfe", "not a UTF-8 text file"),
                                 (header + b"nan 1 1 1 1\n", "integrals must be finite")):
            bad.write_bytes(content)
            code, _, err = run_cli(capsys, "ed", "--fcidump", str(bad), "--orbitals", "0,1")
            assert code == 2, content
            assert err.startswith(f"error: {message}"), content

    @pytest.mark.parametrize("u", ["nan", "inf"])
    def test_non_finite_hubbard_exit_2(self, capsys, u):
        code, out, err = run_cli(capsys, "ed", "--hubbard", f"4,{u}", "--orbitals", "0,1")
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    def test_orbital_limit_checked_before_allocating(self, tmp_path, capsys):
        # 60 orbitals: the integrals alone would take 60**4 doubles (104 MB)
        header_only = tmp_path / "big.fcidump"
        header_only.write_text("&FCI NORB=60,NELEC=4,MS2=0,\n&END\n")
        for source in (["--fcidump", str(header_only)], ["--hubbard", "60,4"]):
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, "ed", *source, "--orbitals", "0,1")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 2, source
            assert err.startswith("error:") and "16" in err, source
            assert peak < 5e6, source

    def test_orbitals_checked_before_solving(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sector was built before --orbitals was checked")

        monkeypatch.setattr(interacting, "build_hamiltonian", unreachable)
        monkeypatch.setattr(interacting, "ground_state", unreachable)
        for bad in ("0,x", "3", "0,16", "-1,2", "2,2"):
            code, out, err = run_cli(capsys, "ed", "--hubbard", "16,4", "--nelec", "4",
                                     f"--orbitals={bad}")
            assert code == 2, bad
            assert out == "" and err.startswith("error:"), bad

    def test_all_pairs_of_one_orbital_exit_2(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sector was built before --all-pairs was checked")

        monkeypatch.setattr(interacting, "build_hamiltonian", unreachable)
        path = tmp_path / "one.fcidump"
        path.write_text("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n-1.0 1 1 0 0\n")
        code, out, err = run_cli(capsys, "ed", "--fcidump", str(path), "--all-pairs")
        assert code == 2
        assert out == "" and err.startswith("error: --all-pairs needs at least two orbitals")

    def test_nnz_cap_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ed", "--hubbard", "16,4", "--nelec", "8",
                               "--orbitals", "0,1")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("n_elec,dim", [(2, 256), (4, 14400)])
    def test_sixteen_site_ring(self, capsys, n_elec, dim):
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "16,4", "--nelec", str(n_elec),
                               "--all-pairs", "--ssr", "p")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 15 and {r["sector_dim"] for r in records} == {dim}
        assert all(r["converged"] for r in records)
        if n_elec == 2:
            # dilute filling: entanglement grows with separation up to d = 8
            values = [r["value"] for r in records[:8]]
            assert values == sorted(values)

    def test_mutually_exclusive_sources(self, capsys):
        code, _, _ = run_cli(capsys, "ed", "--orbitals", "0,1")
        assert code == 2

    def test_pssr_record_carries_gap(self, capsys):
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "6,4", "--nelec", "4",
                               "--orbitals", "0,1", "--ssr", "p")
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "x-state"
        assert record["gap"] <= 1e-7
        assert record["converged"] is True
        assert record["iterations"] == 0

    def test_pssr_gap_follows_log_base(self, capsys):
        # the exact route's gaps are round-off sized, and some are exactly 0
        argv = ("ed", "--hubbard", "6,4", "--nelec", "4", "--all-pairs", "--ssr", "p")
        _, out_e, _ = run_cli(capsys, *argv)
        _, out_2, _ = run_cli(capsys, *argv, "--log-base", "2")
        nats = [json.loads(line) for line in out_e.splitlines()]
        bits = [json.loads(line) for line in out_2.splitlines()]
        assert any(rec["gap"] > 0 for rec in nats)
        for n_rec, b_rec in zip(nats, bits):
            assert b_rec["gap"] == n_rec["gap"] / np.log(2)
            assert b_rec["value"] == n_rec["value"] / np.log(2)

    @pytest.mark.parametrize("n_elec,ms2,d,value", [
        (3, 1, 3, 0.021988), (4, 2, 1, 0.035995), (4, 2, 3, 0.016666), (4, 0, 1, 0.0016192)])
    def test_nssr_matches_frank_wolfe_in_every_sz_sector(self, capsys, n_elec, ms2, d, value):
        # the exact route against Frank-Wolfe on the same pinched block;
        # 2Sz != 0 ground states carry unequal |up,up> and |down,down>
        # weights.  The N = 3 level is twofold degenerate (the record flags
        # it), so its value belongs to the ground vector the dense solver
        # returns
        from fwref import frank_wolfe_pinched
        from orbent.fock import two_orbital_rdm
        from orbent.interacting import HubbardParams, build_hamiltonian, ground_state
        argv = ["ed", "--hubbard", "6,4", "--nelec", str(n_elec), "--orbitals", f"0,{d}"]
        if ms2:
            argv += ["--ms2", str(ms2)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "x-state" and record["converged"] is True
        assert record["gap"] <= 1e-10
        assert record["value"] == pytest.approx(value, abs=5e-7)
        gs = ground_state(build_hamiltonian(HubbardParams(6, 4.0).integrals(), n_elec, ms2))
        fw = frank_wolfe_pinched(two_orbital_rdm(gs.state, 0, d), "N")
        assert fw.converged
        assert fw.value - fw.gap - 1e-9 <= record["value"] <= fw.value + 1e-9

    # the twofold degenerate ground level of the L=6, N=3, 2Sz=1 ring: the
    # values belong to the vector that eigh returns.  Without exchange
    # symmetry in the pair, the ee block under P and the oo block under N
    # have unequal middle diagonals; Frank-Wolfe once took them and sat up
    # to 1.5e-8 above these values
    @pytest.mark.parametrize("d,ssr,value", [
        (1, "n", 0.04411422545815983), (1, "p", 0.04433018067571709),
        (2, "n", 0.11785213821824166), (2, "p", 0.11789997352644761)])
    def test_unequal_diagonals_are_exact(self, capsys, d, ssr, value):
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "6,4", "--nelec", "3",
                               "--orbitals", f"0,{d}", "--ssr", ssr)
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "x-state" and record["converged"] is True
        assert record["iterations"] == 0 and record["gap"] <= 1e-12
        assert record["degenerate_ground"] is True
        assert abs(record["value"] - value) <= 1e-12

    def test_nssr_nonconvergence_exit_3(self, capsys, monkeypatch):
        # the 784-dim sector takes the Lanczos path; an ARPACK failure is
        # a numerical error, with nothing on stdout
        import scipy.sparse.linalg as spsl

        def stalled(*args, **kwargs):
            raise spsl.ArpackNoConvergence("No convergence", [], [])

        monkeypatch.setattr(spsl, "eigsh", stalled)
        code, out, err = run_cli(capsys, "ed", "--hubbard", "8,4", "--nelec", "4",
                                 "--orbitals", "0,1", "--ssr", "n")
        assert code == 3
        assert out == "" and err == "error: ARPACK error -1: No convergence\n"

    @pytest.mark.parametrize("flag,value", [
        ("--ree-max-iters", "0"), ("--ree-max-iters", "-2"), ("--ree-tol", "-0.5"),
        ("--ree-tol", "nan"), ("--ree-tol", "inf")])
    def test_solver_flags_checked_by_the_parser(self, capsys, flag, value):
        # every value is exact, so the solver flags are gone: unknown arguments
        code, out, err = run_cli(capsys, "ed", "--hubbard", "6,4", "--nelec", "3",
                                 "--orbitals", "0,1", "--ssr", "p", flag, value)
        assert code == 2
        assert out == ""
        assert f"error: unrecognized arguments: {flag} {value}" in err

    def test_one_configuration_sector(self, capsys):
        code, out, _ = run_cli(capsys, "ed", "--hubbard", "4,2", "--nelec", "0",
                               "--all-pairs")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["lp"] for r in records] == [1, 2, 3]
        for r in records:
            assert r["sector_dim"] == 1 and r["energy"] == 0.0 and r["residual"] == 0.0
            assert r["value"] == 0.0 and r["degenerate_ground"] is False

    def test_nonconvergence_exit_3(self, capsys, monkeypatch):
        # an eigenpair above the residual tolerance is a numerical error,
        # with nothing on stdout; exit 3 means nothing else
        monkeypatch.setattr(interacting, "_RESIDUAL_TOL", -1.0)
        code, out, err = run_cli(capsys, "ed", "--hubbard", "6,4", "--nelec", "3",
                                 "--orbitals", "0,1", "--ssr", "p")
        assert code == 3
        assert out == "" and err.startswith("error: eigensolver residual")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code, stdout, _ = run_cli(capsys, "ed", "--hubbard", "6,8", "--nelec",
                                  "6", "--all-pairs", "--out", str(out))
        assert code == 0
        assert stdout == ""
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["n_elec"] == 6 for line in lines)


@pytest.mark.parametrize("argv", [
    ["tb-scan", "--d-list", "1", "--points", "3"],
    ["dmin-scan", "--points", "3"],
    ["swap-demo"],
    ["ed", "--hubbard", "4,2", "--nelec", "2", "--orbitals", "0,1"],
])
def test_unwritable_out_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == "" and err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def _python(*args):
    """Run a fresh interpreter on this checkout's package; stdout and stderr as text."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbent.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize costs about 0.2 s to import; only the Frank-Wolfe polish needs it."""
    probe = "import sys, orbent.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert _python("-c", probe).returncode == 0


def test_closed_form_and_swap_commands_load_no_scipy():
    """Only ``ed`` needs scipy; the other commands run without importing it."""
    probe = ("import io, sys, contextlib, orbent.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [orbent.cli.main(['tb', '--eta', '0.3', '--d', '2', '--ssr', 'p']),\n"
             "             orbent.cli.main(['swap-demo'])]\n"
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0] []"


def test_ed_commands_load_no_scipy_optimize():
    """``ed`` reaches no Frank-Wolfe solver, so it never imports its SLSQP
    polish: not on an X block with unequal middle diagonals (the ee block
    of pair 0,1 under P), and not over every pair of a ring."""
    probe = ("import io, sys, contextlib, orbent.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [orbent.cli.main(['ed', '--hubbard', '6,4', '--nelec', '3',\n"
             "                              '--orbitals', '0,1', '--ssr', 'p']),\n"
             "             orbent.cli.main(['ed', '--hubbard', '8,4', '--nelec', '8',\n"
             "                              '--all-pairs'])]\n"
             "print(codes, 'scipy.optimize' in sys.modules, 'scipy' in sys.modules)")
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0] False True"


def test_parser_reuse_keeps_output(capsys):
    """One parser serves every in-process call; a usage error or another
    command between two identical calls leaves their output unchanged."""
    argv = ("tb", "--eta", "0.3", "--d", "2", "--ssr", "p")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, _, err = run_cli(capsys, "tb", "--eta", "0.3")
    assert code == 2 and "--d" in err
    code, out, _ = run_cli(capsys, "ed", "--hubbard", "4,2", "--nelec", "2",
                           "--all-pairs")
    assert code == 0 and len(out.splitlines()) == 3
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert second == first


@pytest.mark.parametrize("module", ["orbent", "orbent.cli"])
def test_module_entry_runs_the_command_line(capsys, module):
    """``python -m orbent`` and ``python -m orbent.cli`` print what ``main``
    prints and exit with its code, a usage error included."""
    argv = ["tb", "--eta", "0.3", "--d", "2", "--ssr", "p"]
    run = _python("-m", module, *argv)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["method"] == "x-state"
    assert run.returncode == 0 and run.stdout == out
    run = _python("-m", module, "tb", "--eta", "0.3")
    assert run.returncode == 2 and "--d" in run.stderr
