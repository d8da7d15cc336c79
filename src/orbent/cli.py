"""Command-line front end.

Single results are printed as JSON records with snake_case keys; parameter
scans are written as CSV whose float fields use ``repr`` so the files parse
back bit-exactly.  Exit codes: 0 on success, 2 on usage errors, 3 when
the eigensolver of ``ed`` fails.  Rows are evaluated one after another and
emitted in deterministic order.  Orbital indices on this interface are
0-based.

``tb --ssr p`` and ``tb-scan --pssr`` solve the tight-binding pair's two
parity blocks from their weights, with no density matrix, and every pair
state that ``ed`` builds commutes with the pair's N and 2Sz, so every value
printed is exact, with a proven gap; no command reaches the Frank-Wolfe
solver, whose gap is heuristic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import channels, entanglement, fcidump, interacting, tightbinding
from .fock import DensityMatrix, check_orbital_pair, pure_state_dm

USAGE_ERROR, NUMERICAL_ERROR = 2, 3


def _write_text(text, out=None) -> int:
    """``text`` and a newline, to the file ``out`` or to stdout; the exit code."""
    if not out:
        print(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _error(f"cannot write {out}: {exc}")
    return 0


def _emit_json(record, out=None) -> int:
    return _write_text(json.dumps(record, indent=2, sort_keys=True), out)


def _matrix_json(mat):
    return {"real": np.real(mat).tolist(), "imag": np.imag(mat).tolist()}


def _matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        return np.asarray(obj["real"], dtype=float) + 1j * np.asarray(
            obj.get("imag", np.zeros_like(obj["real"])), dtype=float)
    return np.asarray(obj, dtype=complex)


def _log_base_value(result_value: float, base: str) -> float:
    return result_value / entanglement.LN2 if base == "2" else result_value


def _solver_fields(res, base: str) -> dict:
    """The record fields of one solver result, value and gap in ``base``."""
    return {"value": _log_base_value(res.value, base), "method": res.method,
            "gap": _log_base_value(res.gap, base), "iterations": res.iterations,
            "converged": res.converged}


def _error(message, code: int = USAGE_ERROR) -> int:
    """Print ``error: message`` to stderr and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_tb(args) -> int:
    try:
        query = tightbinding.TbQuery(eta=args.eta, d=args.d, n_sites=args.finite_l)
    except ValueError as exc:
        return _error(exc)
    closed = tightbinding.tb_entanglement(query)
    record = {
        "model": "tightbinding",
        "eta": args.eta,
        "d": args.d,
        "n_sites": args.finite_l,
        "ssr": args.ssr,
        "log_base": args.log_base,
        "w": closed.w,
        "a": closed.a,
        "b": closed.b,
        "r": closed.r,
        "t": closed.t,
        "provenance": closed.provenance,
    }
    if args.ssr == "n":
        record.update(value=_log_base_value(closed.e_nssr, args.log_base),
                      entangled=closed.entangled, method="closed-form")
    else:
        record.update(_solver_fields(tightbinding.pssr_point(query), args.log_base))
    return _emit_json(record)


def _write_csv(path, header, rows) -> int:
    """The table as CSV to the file ``path``; the exit code."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    except OSError as exc:
        return _error(f"cannot write {path}: {exc}")
    return 0


def cmd_tb_scan(args) -> int:
    try:
        d_list = [int(tok) for tok in args.d_list.split(",") if tok]
    except ValueError:
        return _error("--d-list must be comma-separated integers")
    if not d_list:
        return _error("--d-list must name at least one separation")
    points = args.points if args.points is not None else \
        (2001 if args.scale == "linear" else 200)
    try:
        rows = tightbinding.scan_entanglement(d_list, args.eta_min, args.eta_max,
                                              points, args.scale, pssr=args.pssr)
    except ValueError as exc:
        return _error(exc)
    header = ["eta", "d", "E_nssr"] + (["E_pssr"] if args.pssr else [])
    return _write_csv(args.out, header, [[row[key] for key in header] for row in rows])


def cmd_dmin_scan(args) -> int:
    try:
        rows = tightbinding.scan_dmin(args.eta_min, args.eta_max, args.points,
                                      args.scale)
    except ValueError as exc:
        return _error(exc)
    return _write_csv(args.out, ["eta", "dmin_exact", "dmin_asymptotic"],
                      [[row["eta"], row["dmin_exact"], row["dmin_asymptotic"]]
                       for row in rows])


def cmd_swap_demo(args) -> int:
    if args.state is None:
        # one party swapping |+> x |+> between a spinless mode and a qubit
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = pure_state_dm(np.kron(plus, plus), (2, 2))
        out = channels.superselected_swap(rho, orbital=0, qubit=1)
        erased = float(np.linalg.norm(rho.mat - channels.gpi_local(rho, (0,)).mat))
        return _emit_json({
            "mode": "single-superselected-swap",
            "input": _matrix_json(rho.mat),
            "output": _matrix_json(out.mat),
            "erased_coherence_norm": erased,
        }, args.out)
    try:
        with open(args.state) as fh:
            payload = json.load(fh)
    except OSError as exc:
        return _error(f"cannot read state file: {exc}")
    except ValueError as exc:  # not JSON, or not text
        return _error(f"invalid state file: {exc}")
    try:
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object with a 'rho' entry")
        rho_mat = _matrix_from_json(payload["rho"])
        dims = {4: (2, 2), 16: (4, 4)}.get(rho_mat.shape[0]) if rho_mat.ndim == 2 else None
        if dims is None:
            raise ValueError("rho must be 4x4 (spinless modes) or 16x16 (spinful)")
        rho = DensityMatrix(rho_mat, dims)
        if "sigma" in payload:
            sigma = DensityMatrix(_matrix_from_json(payload["sigma"]), dims)
        else:
            ground = np.zeros(rho.dim)
            ground[0] = 1.0
            sigma = pure_state_dm(ground, dims)
    except (KeyError, TypeError, ValueError) as exc:
        return _error(f"invalid state file: {exc}")
    result = channels.run_swap_protocol(rho, sigma)
    gn = channels.gn_local(rho)
    return _emit_json({
        "mode": "protocol",
        "rho_in": _matrix_json(rho.mat),
        "sigma_in": _matrix_json(sigma.mat),
        "qubit_out": _matrix_json(result.qubit_state.mat),
        "orbital_out": _matrix_json(result.orbital_state.mat),
        "erased_orbital_coherence": result.erased_orbital_coherence,
        "erased_qubit_coherence": result.erased_qubit_coherence,
        "erased_number_coherence": float(np.linalg.norm(rho.mat - gn.mat)),
        "simulation_residual": result.simulation_residual,
    }, args.out)


def cmd_ed(args) -> int:
    if (args.fcidump is None) == (args.hubbard is None):
        return _error("give exactly one of --fcidump or --hubbard")
    if (args.orbitals is None) == (not args.all_pairs):
        return _error("give exactly one of --orbitals or --all-pairs")
    if args.fcidump is not None:
        try:
            data = fcidump.read_fcidump(args.fcidump)
        except OSError as exc:
            return _error(f"cannot read FCIDUMP: {exc}")
        except fcidump.FcidumpError as exc:
            return _error(exc)
        model = {"model": "fcidump", "source": args.fcidump, "norb": data.norb}
    else:
        try:
            l_str, u_str = args.hubbard.split(",")
            params = interacting.HubbardParams(int(l_str), float(u_str))
        except ValueError as exc:
            return _error(f"--hubbard expects 'L,U': {exc}")
        data = params.integrals()
        model = {"model": "hubbard", "n_sites": params.n_sites, "u": params.u,
                 "hopping": tightbinding.HOPPING}
    if args.all_pairs:
        if data.norb < 2:
            return _error(f"--all-pairs needs at least two orbitals, got {data.norb}")
        pairs = [(0, lp) for lp in range(1, data.norb)]
    else:
        try:
            l_str, lp_str = args.orbitals.split(",")
            pairs = [(int(l_str), int(lp_str))]
        except ValueError:
            return _error("--orbitals expects 'i,j' (0-based)")
        try:
            check_orbital_pair(data.norb, *pairs[0])
        except ValueError as exc:
            return _error(exc)
    n_elec = args.nelec if args.nelec is not None else data.nelec
    ms2 = args.ms2 if args.ms2 is not None else (data.ms2 if args.fcidump else n_elec % 2)
    try:
        op = interacting.build_hamiltonian(data, n_elec, ms2)
        gs = interacting.ground_state(op)
    except (ValueError, RuntimeError) as exc:
        return _error(exc, USAGE_ERROR if isinstance(exc, ValueError) else NUMERICAL_ERROR)

    lines = []
    for l, lp in pairs:
        res = interacting.orbital_pair_entanglement(gs.state, l, lp, ssr=args.ssr)
        d = abs(l - lp)
        if model["model"] == "hubbard":
            d = min(d, params.n_sites - d)
        record = dict(model)
        record.update(n_elec=n_elec, ms2=ms2, energy=gs.energy,
                      degenerate_ground=gs.degenerate, sector_dim=op.dim,
                      residual=gs.residual, l=l, lp=lp, d=d,
                      ssr=args.ssr, log_base=args.log_base,
                      **_solver_fields(res, args.log_base))
        lines.append(json.dumps(record, sort_keys=True))
    return _write_text("\n".join(lines), args.out)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: every call of :func:`main`
    parses into a fresh ``Namespace``, and nothing mutates the parser."""
    parser = argparse.ArgumentParser(
        prog="orbent",
        description="Superselection-constrained entanglement between localized "
                    "fermionic orbitals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tb = sub.add_parser("tb", help="one tight-binding orbital pair")
    p_tb.add_argument("--eta", type=float, required=True, help="filling fraction")
    p_tb.add_argument("--d", type=int, required=True, help="orbital separation")
    p_tb.add_argument("--finite-L", dest="finite_l", type=int, default=None,
                      help="evaluate on a finite ring of this many sites")
    p_tb.add_argument("--ssr", choices=("n", "p"), default="n")
    p_tb.add_argument("--log-base", choices=("e", "2"), default="e")
    p_tb.set_defaults(func=cmd_tb)

    p_scan = sub.add_parser("tb-scan", help="entanglement-vs-filling CSV table")
    p_scan.add_argument("--d-list", default="1,2,10,100")
    p_scan.add_argument("--eta-min", type=float, default=1e-4)
    p_scan.add_argument("--eta-max", type=float, default=1 - 1e-4)
    p_scan.add_argument("--points", type=int, default=None,
                        help="grid size (default 2001 linear, 200 log)")
    p_scan.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_scan.add_argument("--pssr", action="store_true",
                        help="add the parity-superselected column")
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=cmd_tb_scan)

    p_dmin = sub.add_parser("dmin-scan", help="disentangling-distance CSV table")
    p_dmin.add_argument("--eta-min", type=float, default=1e-3)
    p_dmin.add_argument("--eta-max", type=float, default=0.5)
    p_dmin.add_argument("--points", type=int, default=60)
    p_dmin.add_argument("--scale", choices=("linear", "log"), default="log")
    p_dmin.add_argument("--out", required=True)
    p_dmin.set_defaults(func=cmd_dmin_scan)

    p_swap = sub.add_parser("swap-demo", help="superselected swap walkthrough")
    p_swap.add_argument("--state", default=None,
                        help="JSON file with 'rho' (and optional 'sigma') matrices")
    p_swap.add_argument("--out", default=None)
    p_swap.set_defaults(func=cmd_swap_demo)

    p_ed = sub.add_parser("ed", help="exact diagonalization orbital-pair records")
    p_ed.add_argument("--fcidump", default=None, help="FCIDUMP integrals file")
    p_ed.add_argument("--hubbard", default=None, help="ring parameters 'L,U'")
    p_ed.add_argument("--nelec", type=int, default=None)
    p_ed.add_argument("--ms2", type=int, default=None)
    p_ed.add_argument("--orbitals", default=None, help="pair 'i,j', 0-based")
    p_ed.add_argument("--all-pairs", action="store_true",
                      help="orbital 0 against every other orbital")
    p_ed.add_argument("--ssr", choices=("n", "p"), default="n")
    p_ed.add_argument("--log-base", choices=("e", "2"), default="e")
    p_ed.add_argument("--out", default=None)
    p_ed.set_defaults(func=cmd_ed)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    return args.func(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
