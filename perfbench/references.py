"""Independent references for the benchmark's correctness checks.

Nothing here calls into ``qwire``: every reference assembles its own dense
matrix, runs its own exact recurrence, or uses a closed form, so a defect in
the code path under test cannot also appear in the value it is checked
against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg


def _wire_dense(n, eps0, v, gamma, eps):
    """Dense wire matrix C(eps): eps0 - eps diagonal, -v off-diagonal, +i gamma/2 corners."""
    c = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    c[idx, idx] = eps0 - eps
    c[idx[:-1], idx[1:]] = -v
    c[idx[1:], idx[:-1]] = -v
    c[0, 0] += 0.5j * gamma
    c[-1, -1] += 0.5j * gamma
    return c


def transmittance_dense(n, eps0, v, gamma, eps):
    """gamma**2 |(C^-1)_{1,n}|**2 by full dense inversion at one energy."""
    inv = np.linalg.inv(_wire_dense(n, eps0, v, gamma, eps))
    return gamma * gamma * abs(inv[0, n - 1]) ** 2


def transmittance_exact(n, eps0, v, gamma, eps):
    """Transmittance from the exact complex determinant, correctly rounded.

    Every double is a dyadic rational, so the wire matrix scaled by a common
    power of two has Gaussian-integer entries and its determinant follows from
    the plain three-term recurrence in Python integers, with the two lead
    corners entered directly.  T = gamma**2 v**(2n-2) / |det C|**2 is then one
    exact integer quotient, which never overflows and underflows only below
    the smallest double.
    """
    a = Fraction(eps0) - Fraction(eps)
    h = Fraction(gamma) / 2
    w = Fraction(v)
    den = max(a.denominator, h.denominator, w.denominator)
    ai = a.numerator * (den // a.denominator)
    hi = h.numerator * (den // h.denominator)
    wi = w.numerator * (den // w.denominator)
    w2 = wi * wi
    if n == 1:
        re, im = ai, 2 * hi
    else:
        # D_1 = a + i h; interior steps multiply by a; the last by a + i h.
        p2_re, p2_im = 1, 0
        p1_re, p1_im = ai, hi
        for _ in range(n - 2):
            p2_re, p2_im, p1_re, p1_im = (
                p1_re, p1_im, ai * p1_re - w2 * p2_re, ai * p1_im - w2 * p2_im
            )
        re = ai * p1_re - hi * p1_im - w2 * p2_re
        im = ai * p1_im + hi * p1_re - w2 * p2_im
    num = (2 * hi) ** 2 * w2 ** (n - 1)
    return num / (re * re + im * im)


def _simpson(y, h):
    """Composite Simpson rule on an odd number of equally spaced samples."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _fermi(eps, mu, temperature):
    return 0.5 * (1.0 - np.tanh((eps - mu) / (2.0 * temperature)))


# Grid of the fine-grid current: samples per narrowest feature, and a cap
# (odd, as Simpson's rule needs).
FINE_STEPS_PER_WIDTH = 40
FINE_MAX_POINTS = 400_001


def current_fine_grid(n, eps0, v, gamma, mu_left, mu_right, temperature):
    """Landauer current from a fine Simpson grid over dense-matrix transmittances.

    Meant for small n: the grid step resolves the narrowest resonance
    (width >= gamma / n) and the Fermi edge.  The window is the bias window at
    T = 0 and the bias window padded by 40 k_B T at T > 0, the same support the
    library integrates over; beyond the pad the occupation difference is
    below 1e-17.
    """
    lo, hi = min(mu_left, mu_right), max(mu_left, mu_right)
    width = gamma / n
    if temperature > 0.0:
        lo -= 40.0 * temperature
        hi += 40.0 * temperature
        width = min(width, temperature)
    points = int(math.ceil((hi - lo) / width * FINE_STEPS_PER_WIDTH)) | 1
    points = min(max(points, 101), FINE_MAX_POINTS)
    grid = np.linspace(lo, hi, points)
    c = _wire_dense(n, eps0, v, gamma, 0.0) - grid[:, None, None] * np.eye(n)
    rhs = np.zeros((points, n, 1), dtype=complex)
    rhs[:, n - 1, 0] = 1.0
    g_1n = np.linalg.solve(c, rhs)[:, 0, 0]
    t = gamma * gamma * np.abs(g_1n) ** 2
    if temperature > 0.0:
        y = (_fermi(grid, mu_left, temperature) - _fermi(grid, mu_right, temperature)) * t
        return _simpson(y, grid[1] - grid[0])
    sign = 1.0 if mu_left > mu_right else -1.0
    return sign * _simpson(t, grid[1] - grid[0])


def current_single_site(eps0, gamma, mu_left, mu_right):
    """T = 0 current of one site: gamma * [atan((hi-eps0)/gamma) - atan((lo-eps0)/gamma)].

    For n = 1 both lead corners sit on the same site, so
    T(eps) = gamma**2 / ((eps - eps0)**2 + gamma**2).
    """
    lo, hi = min(mu_left, mu_right), max(mu_left, mu_right)
    sign = 1.0 if mu_left > mu_right else -1.0
    return sign * gamma * (math.atan((hi - eps0) / gamma) - math.atan((lo - eps0) / gamma))


def relaxation_exact(n, eps0, v, gamma, v_lead, drive_energy, dt, steps):
    """Exact amplitudes U(k dt) = W e^{i w k dt} - e^{A k dt} W, k = 0..steps.

    A = -i H_chain - Gamma/2 (Gamma on the two terminal sites, stacking to
    gamma for n = 1), b = -i v_lead e_1, w = eps0 - drive_energy, and
    W = (i w - A)^{-1} b is the steady state from a dense solve.  The
    transient e^{A k dt} W is carried by repeated products with
    e^{A dt} = scipy.linalg.expm(A dt), a contraction since A is dissipative.
    Returns (W, U) with U[k] the amplitudes at time k dt.
    """
    a = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    a[idx[:-1], idx[1:]] = -1j * v
    a[idx[1:], idx[:-1]] = -1j * v
    a[0, 0] -= 0.5 * gamma
    a[-1, -1] -= 0.5 * gamma
    omega = eps0 - drive_energy
    b = np.zeros(n, dtype=complex)
    b[0] = -1j * v_lead
    w = np.linalg.solve(1j * omega * np.eye(n) - a, b)
    step = scipy.linalg.expm(a * dt)
    transient = np.empty((steps + 1, n), dtype=complex)
    transient[0] = w
    for k in range(steps):
        transient[k + 1] = step @ transient[k]
    phase = np.exp(1j * omega * dt * np.arange(steps + 1))
    return w, w[None, :] * phase[:, None] - transient
