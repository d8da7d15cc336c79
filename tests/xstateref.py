"""References for the REE of a two-qubit X state with equal middle diagonals.

Two references for the closed case of
:func:`orbent.entanglement._x_state_ree`, which takes the KKT point from the
nonnegative root of a quadratic.  ``x_state_ree`` bisects the same
condition c(s) = s in floating point, with its own copy of the KKT point.
This KKT point forms r00 r11 and s (2s + r00 + r11 + root) directly, so it
raises ``ZeroDivisionError`` once the corner weights fall below about
1e-160 and those products underflow to 0.  ``closed_form`` is the closed
case itself, frozen, to pin its bits.

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


def closed_form(r00, r11, p_plus, p_minus):
    """The closed-form REE of an X state with equal middle diagonals as it
    stood before blocks with unequal ones left Frank-Wolfe: value, sigma
    weights (a, d, u, v) and gap, with the same floating-point operations.
    It pins that the closed case of ``_x_state_ree`` keeps its bits; at a
    subnormal weight it returns the loose gap that case has since shed."""
    rho_w = (r00, r11, p_plus, p_minus)
    if 0.25 * (p_plus - p_minus) ** 2 <= r00 * r11:
        return 0.0, rho_w, 0.0
    corners, middle = r00 + r11, p_plus + p_minus
    if corners == 0.0:
        sigma_w = (0.0, 0.0, 0.5, 0.5)
    else:
        a2 = 4.0 * (p_plus + corners) * (p_minus + corners)
        b = (p_plus - p_minus) * (corners * middle + 2.0 * (r00 * r00 + r11 * r11))
        root_c = math.sqrt(r00) * math.sqrt(r11) * math.sqrt(
            a2 * (middle + 2.0 * r00) * (middle + 2.0 * r11))
        s = (b + math.hypot(b, 2.0 * root_c)) / (2.0 * a2)
        total, root = corners, math.hypot(r00 - r11, 2.0 * s)
        g = math.sqrt(r00) * math.sqrt(r11)
        mu_t = 2.0 * (s - g) * ((s + g) / (root + total))
        one_minus = 2.0 * (total + g * (g / s)) / (2.0 * s + total + root)
        kkt = (r00 + mu_t, r11 + mu_t, p_plus / (2.0 - one_minus), p_minus / one_minus)
        norm = sum(kkt)
        a, d, u, v, s = (x / norm for x in (*kkt, s))
        if 0.5 * (u - v) > s:
            v = u - 2.0 * s
            if 0.5 * (u - v) > s:
                v = math.nextafter(v, u)
        elif 0.5 * (v - u) > s:
            v = u
        sigma_w = (a, d, u, v)
    value = sum(r * math.log(r / s) for r, s in zip(rho_w, sigma_w) if r > 0.0)
    g_a, g_d, g_plus, g_minus = (r / s if r > 0.0 else 0.0 for r, s in zip(rho_w, sigma_w))
    h, g = 0.5 * (g_plus + g_minus), 0.5 * abs(g_plus - g_minus)
    mean, half = 0.5 * (g_a + g_d), 0.5 * abs(g_a - g_d)
    if mean + math.hypot(half, g) <= h:
        theta = 1.0
    elif mean + half >= h + g:
        theta = 0.0
    else:
        k = h + g - mean
        theta = min(max((k * k - half * half) / (2.0 * k * g), 0.0), 1.0)
    bound = max(mean + math.hypot(half, theta * g), h + (1.0 - theta) * g)
    gap = bound - sum(x * s for x, s in zip((g_a, g_d, g_plus, g_minus), sigma_w))
    return value, sigma_w, max(gap, 0.0)
