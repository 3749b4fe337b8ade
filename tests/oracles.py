"""Independent dense-matrix and closed-form oracles for the test suite.

Everything here goes through explicitly assembled dense matrices and
numpy's LU-based routines (row reduction with partial pivoting), or through
hand-derived closed forms, never through the recurrence-based code paths
under test.
"""

import numpy as np


def dense_sym_tridiag(alpha, beta, n):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = alpha
        if i + 1 < n:
            m[i, i + 1] = beta
            m[i + 1, i] = beta
    return m


def dense_wire_matrix(p, eps):
    a = p.eps0 - eps
    m = np.zeros((p.n, p.n), dtype=complex)
    for i in range(p.n):
        m[i, i] = a
        if i + 1 < p.n:
            m[i, i + 1] = -p.v
            m[i + 1, i] = -p.v
    m[0, 0] += 0.5j * p.gamma
    m[-1, -1] += 0.5j * p.gamma
    return m


def dense_det(m):
    if m.shape[0] == 0:
        return 1.0
    return np.linalg.det(m)


def dense_corner_cofactor(m):
    """Signed cofactor of the (n, 1) entry: (-1)**(n+1) times the minor."""
    n = m.shape[0]
    minor = m[: n - 1, 1:]
    return (-1) ** (n + 1) * dense_det(minor)


def dense_transmittance(p, eps):
    """gamma**2 |(C^-1)_{1,n}|**2 by full complex inversion."""
    inv = np.linalg.inv(dense_wire_matrix(p, eps))
    return p.gamma ** 2 * abs(inv[0, p.n - 1]) ** 2


def slowest_decay_rate(p):
    """min(-Re lambda) over the eigenvalues of A = -iH - Gamma/2.

    A is the homogeneous part of the amplitude system dU/dt = A U + drive:
    H the tight-binding wire Hamiltonian, Gamma/2 the lead damping gamma/2
    on the first and on the last site (both on the same site for n = 1).
    Every transient decays at least as fast as e^{-rate t}, and the slowest
    mode decays exactly that fast.
    """
    a = np.zeros((p.n, p.n), dtype=complex)
    for i in range(p.n):
        a[i, i] = -1j * p.eps0
        if i + 1 < p.n:
            a[i, i + 1] = -1j * p.v
            a[i + 1, i] = -1j * p.v
    a[0, 0] -= 0.5 * p.gamma
    a[-1, -1] -= 0.5 * p.gamma
    return float(np.min(-np.linalg.eigvals(a).real))


def scalar_evolution_exact(v_lead, gamma, omega, t):
    """N = 1 amplitude: dU/dt = -i v_lead e^{i omega t} - gamma U, U(0) = 0."""
    t = np.asarray(t, dtype=float)
    return -1j * v_lead * (np.exp(1j * omega * t) - np.exp(-gamma * t)) / (
        1j * omega + gamma
    )


def lorentzian_window_integral(gamma, half_width):
    """Integral of gamma**2 / ((eps-eps0)**2 + gamma**2) over eps0 +- half_width."""
    return 2.0 * gamma * np.arctan(half_width / gamma)


def current_dense_grid(p, mu_left, mu_right, temperature=0.0, points=40001):
    """Landauer current by Simpson's rule over dense linear solves.

    On a uniform grid of ``points`` (odd) energies, T(eps) is gamma**2
    |(C^-1)_{1,n}|**2 with the last column of C^-1 from batched
    numpy.linalg.solve on assembled wire matrices.  The occupation difference
    is written with tanh.  The window is the bias window at T = 0 and is
    padded by 40 T on both sides otherwise, where f_L - f_R < 1e-17.
    """
    lo, hi = sorted((mu_left, mu_right))
    if temperature > 0.0:
        lo -= 40.0 * temperature
        hi += 40.0 * temperature
    grid = np.linspace(lo, hi, points)
    base = dense_wire_matrix(p, 0.0)
    rhs = np.zeros((p.n, 1), dtype=complex)
    rhs[-1, 0] = 1.0
    t = np.empty(points)
    chunk = 2048
    for start in range(0, points, chunk):
        e = grid[start:start + chunk]
        mats = base[None, :, :] - e[:, None, None] * np.eye(p.n)
        col = np.linalg.solve(mats, np.broadcast_to(rhs, (e.size, p.n, 1)))
        t[start:start + e.size] = p.gamma ** 2 * np.abs(col[:, 0, 0]) ** 2
    if temperature > 0.0:
        def fermi(mu):
            return 0.5 * (1.0 - np.tanh((grid - mu) / (2.0 * temperature)))
        f = (fermi(mu_left) - fermi(mu_right)) * t
    else:
        f = np.sign(mu_left - mu_right) * t
    h = (hi - lo) / (points - 1)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
