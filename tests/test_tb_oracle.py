"""Tight-binding values against a 50-digit oracle at fillings near 0 and 1.

The oracle takes the same float filling and kernel W as the code and
evaluates, in 50-digit mpmath, the per-spin two-mode weights, both parity
X blocks of ``pssr_point`` (through the closed KKT root of an X state with
equal middle diagonals) and the N-SSR formula.  Near the band edges the
per-spin weights cancel unless they are formed as products, and a heavy,
barely entangled block rounds to noise unless its relative entropy is
summed term by term without cancellation; both show here.  Bounds were
fixed before the first run.
"""

import math

import numpy as np
import pytest

from orbent.tightbinding import TbQuery, pssr_point, tb_entanglement, w_kernel

mpmath = pytest.importorskip("mpmath")

DIGITS = 50
REL_TOL = 1e-12
SEPARATIONS = (1, 2, 3, 10, 100, 1000)
_LOW = [float(x) for x in np.logspace(-8, math.log10(0.49), 30)]
ETAS = (_LOW + [1.0 - x for x in _LOW]
        + [float(x) for x in np.linspace(0.01, 0.99, 50)])
# the value of the heavy, barely entangled even-even block once rounded to
# -1.1e-16 there, which put E_P 42% low
POINTS = [(eta, d) for eta in ETAS for d in SEPARATIONS] + [(1.3826221737646563e-08, 1000)]


def _x_ree(r00, r11, p_plus, p_minus):
    """REE of a normalized X state with equal middle diagonals, at the
    nonnegative root s of A s^2 = B s + C (see ``_x_state_ree``)."""
    if (p_plus - p_minus) ** 2 / 4 <= r00 * r11:
        return mpmath.mpf(0)
    t, s_, d_ = r00 + r11, p_plus + p_minus, p_plus - p_minus
    if t == 0:
        sigma = (0, 0, mpmath.mpf(1) / 2, mpmath.mpf(1) / 2)
    else:
        a2 = 4 * (p_plus + t) * (p_minus + t)
        b = d_ * (t * s_ + 2 * r00 ** 2 + 2 * r11 ** 2)
        c = r00 * r11 * (s_ + 2 * r00) * (s_ + 2 * r11)
        s = (b + mpmath.sqrt(b * b + 4 * a2 * c)) / (2 * a2)
        # nu s, and 1 - nu as a sum of positive terms: nu may lie within
        # 1e-13 of 1
        nu_s = (s * d_ - 2 * r00 * r11) / (s_ + 2 * t)
        one_minus = 2 * (s * (p_minus + t) + r00 * r11) / ((s_ + 2 * t) * s)
        sigma = (r00 + nu_s, r11 + nu_s, p_plus / (2 - one_minus), p_minus / one_minus)
        assert abs(sum(sigma) - 1) < mpmath.mpf(10) ** (10 - DIGITS)
    return sum(r * mpmath.log(r / x) for r, x in zip((r00, r11, p_plus, p_minus), sigma) if r > 0)


def _oracle(eta, w):
    """(E_P, E_N, A + B) from the float filling and kernel, or None where
    the kernel lies past the filling and the code clamps a weight at 0."""
    eta, w = mpmath.mpf(eta), mpmath.mpf(w)
    empty, single, pair = (1 - eta) ** 2 - w * w, eta * (1 - eta) + w * w, eta * eta - w * w
    if min(empty, pair) < 0:
        return None
    e_p = mpmath.mpf(0)
    middle = (single ** 2 + w * w, single ** 2 - w * w)
    for corners in ((empty ** 2, pair ** 2), (pair * empty, pair * empty)):
        p = sum(corners) + sum(middle)
        if p > 0:
            e_p += p * _x_ree(*(x / p for x in (*corners, *middle)))
    a, b = single ** 2, w * w
    r, t = 3 * (a - b), a + b
    e_n = mpmath.mpf(0)
    if r < t:
        e_n = t * mpmath.log(2 * t / (r + t)) + (r * mpmath.log(2 * r / (r + t)) if r > 0 else 0)
    return e_p, e_n, a + b


def test_band_edges_match_oracle():
    misses, checked = [], 0
    with mpmath.workdps(DIGITS):
        for eta, d in POINTS:
            ref = _oracle(eta, w_kernel(d, eta))
            if ref is None:
                continue
            checked += 1
            e_p, e_n, scale = (float(x) for x in ref)
            query = TbQuery(eta=eta, d=d)
            got_p, got_n = pssr_point(query).value, tb_entanglement(query).e_nssr
            if abs(got_p - e_p) > REL_TOL * e_p:
                misses.append(("E_P", eta, d, got_p, e_p))
            if abs(got_n - e_n) > REL_TOL * scale:
                misses.append(("E_N", eta, d, got_n, e_n))
            if got_p < got_n * (1.0 - REL_TOL):
                misses.append(("E_P < E_N", eta, d, got_p, got_n))
    assert checked > 600
    assert not misses, misses[:10]
