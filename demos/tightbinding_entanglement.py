#!/usr/bin/env python3
"""Orbital-orbital entanglement across the tight-binding band.

Reproduces the closed-form entanglement-vs-filling curves for several
orbital separations: nearest neighbors peak at half filling, distant pairs
are only entangled at low (or high) filling, and the dilute limit is
quadratic in the filling fraction with slope 2 on a log-log plot.
"""

import numpy as np

from orbent import TbQuery, tb_entanglement
from orbent.entanglement import pssr_entanglement
from orbent.freefermion import two_orbital_state_from_block
from orbent.tightbinding import w_kernel

print("number-superselected entanglement E(eta, d) in nats")
print(f"{'eta':>6} " + "".join(f"{f'd={d}':>12}" for d in (1, 2, 10, 100)))
for eta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
    row = [tb_entanglement(TbQuery(eta=eta, d=d)).e_nssr for d in (1, 2, 10, 100)]
    print(f"{eta:>6} " + "".join(f"{e:>12.3e}" for e in row))

print("\nparticle-hole symmetry: E(eta) = E(1 - eta)")
for eta in (0.1, 0.25):
    a = tb_entanglement(TbQuery(eta=eta, d=2)).e_nssr
    b = tb_entanglement(TbQuery(eta=1 - eta, d=2)).e_nssr
    print(f"  eta={eta}: {a:.12f}  vs  1-eta: {b:.12f}")

etas = np.logspace(-4, -3, 20)
es = [tb_entanglement(TbQuery(eta=float(x), d=1)).e_nssr for x in etas]
slope, intercept = np.polyfit(np.log(etas), np.log(es), 1)
print(f"\ndilute limit, d=1: log-log slope {slope:.4f} (expect 2), "
      f"prefactor {np.exp(intercept):.4f} (expect 2 ln 2 = {2 * np.log(2):.4f})")

print("\nparity vs number superselection near half filling (d = 1):")
for eta in (0.3, 0.5):
    res = tb_entanglement(TbQuery(eta=eta, d=1))
    dm = two_orbital_state_from_block(eta, eta, w_kernel(1, eta))
    e_p = pssr_entanglement(dm).value
    print(f"  eta={eta}: E_N = {res.e_nssr:.6f}   E_P = {e_p:.6f} "
          f"(parity keeps more)")
