"""Bisection for the REE of a two-qubit X state with equal middle diagonals.

The reference for :func:`orbent.entanglement._x_state_ree`, which takes the
KKT point from the nonnegative root of a quadratic: here the same condition
c(s) = s is bisected in floating point, with its own copy of the KKT point.
This KKT point forms r00 r11 and s (2s + r00 + r11 + root) directly, so it
raises ``ZeroDivisionError`` once the corner weights fall below about
1e-160 and those products underflow to 0.

A helper module, not a test module: pytest does not collect it, and the
tests import it as ``xstateref`` because their directory is on ``sys.path``.
"""

import math


def kkt_point(r00, r11, p_plus, p_minus, s):
    """Unnormalized sigma weights (a, d, u, v) of the KKT system at sqrt(a d) = s:
    a = r00 + mu t, d = r11 + mu t, u = P+/(1 + mu s), v = P-/(1 - mu s),
    with t = s^2 and mu t chosen so that a d = t."""
    total, root = r00 + r11, math.hypot(r00 - r11, 2.0 * s)
    mu_t = 2.0 * (s * s - r00 * r11) / (root + total)
    one_minus = 2.0 * (s * total + r00 * r11) / (s * (2.0 * s + total + root))
    return r00 + mu_t, r11 + mu_t, p_plus / (2.0 - one_minus), p_minus / one_minus


def x_state_ree(r00, r11, p_plus, p_minus):
    """Value and sigma weights of the REE of a normalized X state with corner
    weights r00, r11 and middle-pair weights P+ >= P-.

    c(s) - s, with c = (u - v)/2 at ``kkt_point(..., s)``, is positive at
    s = sqrt(r00 r11) and negative at s = 1/2; bisection keeps the upper,
    feasible end until the bracket holds adjacent floats.
    """
    rho_w = (r00, r11, p_plus, p_minus)
    if 0.25 * (p_plus - p_minus) ** 2 <= r00 * r11:
        return 0.0, rho_w
    if r00 + r11 == 0.0:
        sigma_w = (0.0, 0.0, 0.5, 0.5)
    else:
        lo, hi = math.sqrt(r00 * r11), 0.5
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            _, _, u, v = kkt_point(r00, r11, p_plus, p_minus, mid)
            if 0.5 * (u - v) > mid:
                lo = mid
            else:
                hi = mid
        a, d, u, v = kkt_point(r00, r11, p_plus, p_minus, hi)
        total = a + d + u + v
        sigma_w = (a / total, d / total, u / total, v / total)
    value = sum(r * math.log(r / s) for r, s in zip(rho_w, sigma_w) if r > 0.0)
    return value, sigma_w
