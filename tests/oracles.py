"""Independent dense-matrix and closed-form oracles for the test suite.

Everything here goes through explicitly assembled dense matrices and
numpy's LU-based routines (row reduction with partial pivoting) or its dense
eigensolver, or through hand-derived closed forms, never through the
recurrence-based code paths under test.  ``typed_bits`` is the one
comparison helper: it compares results by type and bits.
"""

import numpy as np
from scipy.special import psi


def dense_sym_tridiag(alpha, beta, n):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = alpha
        if i + 1 < n:
            m[i, i + 1] = beta
            m[i + 1, i] = beta
    return m


def chebyshev_det(alpha, beta, n):
    """Closed form beta**n U_n(alpha/(2 beta)) of the n x n continuant, beta != 0.

    U_n of the second kind comes from its own recurrence
    U_k = 2x U_{k-1} - U_{k-2}, not from the continuant recurrence.
    """
    x = alpha / (2.0 * beta)
    prev2, prev = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n):
        prev2, prev = prev, 2.0 * x * prev - prev2
    return beta ** n * prev


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


def transmittance_closed_form(p, eps):
    """T(eps) from the Chebyshev form of det C, O(1) per energy and any n.

    With ``x = (eps0 - eps)/(2|v|) = (w + 1/w)/2``, |w| <= 1, and
    ``h = gamma/(2|v|)``, both lead corners close det C as

        (w - 1/w) det C = |v|**n [w**(n-1) (w + ih)**2 - w**(-n-1) (1 + ihw)**2],

    so ``T = gamma**2 |v|**(2n-2) / |det C|**2`` is

        gamma**2 |w - 1/w|**2 |w|**(2n+2) / (v**2 |w**(2n) (w + ih)**2 - (1 + ihw)**2|**2),

    with no power of v left.  ``w = x - sqrt(x - 1) sqrt(x + 1)`` is the
    root with |w| <= 1 on either side of the band and on the unit circle in
    it.  The band edges, x = +-1, are 0/0.
    """
    av = abs(p.v)
    ih = 0.5j * p.gamma / av
    x = (p.eps0 - np.asarray(eps, dtype=float)) / (2.0 * av)
    w = x - np.sqrt(x - 1.0 + 0j) * np.sqrt(x + 1.0 + 0j)
    d = w ** (2 * p.n) * (w + ih) ** 2 - (1.0 + ih * w) ** 2
    return (p.gamma ** 2 * np.abs(w - 1.0 / w) ** 2 * np.abs(w) ** (2 * p.n + 2)
            / (av * av * np.abs(d) ** 2))


def _amplitude_generator(p, onsite):
    """A = -iH - Gamma/2 with ``onsite`` on the diagonal of -iH (see ``slowest_decay_rate``)."""
    a = np.zeros((p.n, p.n), dtype=complex)
    for i in range(p.n):
        a[i, i] = onsite
        if i + 1 < p.n:
            a[i, i + 1] = -1j * p.v
            a[i + 1, i] = -1j * p.v
    a[0, 0] -= 0.5 * p.gamma
    a[-1, -1] -= 0.5 * p.gamma
    return a


def slowest_decay_rate(p):
    """min(-Re lambda) over the eigenvalues of A = -iH - Gamma/2.

    A is the homogeneous part of the amplitude system dU/dt = A U + drive:
    H the tight-binding wire Hamiltonian, Gamma/2 the lead damping gamma/2
    on the first and on the last site (both on the same site for n = 1).
    Every transient decays at least as fast as e^{-rate t}, and the slowest
    mode decays exactly that fast.
    """
    a = _amplitude_generator(p, -1j * p.eps0)
    return float(np.min(-np.linalg.eigvals(a).real))


def driven_evolution_exact(p, drive_energy, t):
    """Exact amplitudes U(t) = W e^{i w t} - e^{A t} W for any n, U(0) = 0.

    The system is dU/dt = A U + b e^{i w t} in the frame the integrator uses
    (no on-site term): A = -i H_chain - Gamma/2, b = -i v_lead e_1 and
    w = eps0 - drive_energy.  W = (i w - A)^{-1} b is the steady state, and
    e^{A t} W comes from the eigendecomposition A = V diag(lam) V^{-1}.
    Returns (W, U) with U[k] the amplitudes at time t[k].
    """
    t = np.asarray(t, dtype=float)
    a = _amplitude_generator(p, 0.0)
    omega = p.eps0 - drive_energy
    b = np.zeros(p.n, dtype=complex)
    b[0] = -1j * p.v_lead
    w = np.linalg.solve(1j * omega * np.eye(p.n) - a, b)
    lam, vecs = np.linalg.eig(a)
    coeff = np.linalg.solve(vecs, w)
    transient = (np.exp(np.outer(t, lam)) * coeff) @ vecs.T
    return w, w[None, :] * np.exp(1j * omega * t)[:, None] - transient


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


def current_pole_sum_dense(p, mu_left, mu_right, temperature=0.0):
    """Landauer current as a sum over the eigenvalues of the dense wire matrix.

    K = eps0*I - v*J + i*gamma/2 on both corner sites has eigenvalues lambda_j
    (Im > 0) and, being complex symmetric, eigenvectors with V^T V = I, so
    (C^-1)_{1,n} = ((K - e)^-1)_{1,n} = sum_j a_j / (lambda_j - e) with
    a_j = V_{1j} V_{nj}.  With Gbar_j = sum_k conj(a_k) / (conj(lambda_k) - lambda_j),
    T(e) = 2 gamma**2 Re sum_j a_j Gbar_j / (lambda_j - e), and the current is

        2 gamma**2 Re sum_j a_j Gbar_j L_j,
        L_j = log(lambda_j - mu_R) - log(lambda_j - mu_L)                   (T = 0),
        L_j = psi(1/2 - i(lambda_j - mu_R)/(2 pi T))
              - psi(1/2 - i(lambda_j - mu_L)/(2 pi T))                      (T > 0).

    numpy's ``eig`` leaves errors of a few ulps times the eigenvector
    condition, so each pair is refined by two steps of inverse iteration
    with the complex-symmetric Rayleigh quotient x^T K x / x^T x; a refined
    pair is kept only when it reduces the residual.  A narrow resonance has
    Im lambda_j far below the ulp of ||K||, so its imaginary part is then
    taken from x^H K x = lambda ||x||**2, whose imaginary part is
    gamma/2 (|x_1|**2 + |x_n|**2): Gbar_j is dominated by
    conj(a_j) / (-2i Im lambda_j) and needs Im lambda_j to a few ulps of
    itself.  O(n**4), so keep n in the hundreds.

    The sum is good to some ulps of the sum of its terms' moduli.  Where
    that sum exceeds 4|I| (a window off the resonances, such as one on a
    band edge at small gamma, where the real parts cancel to a small
    current), that is too coarse for a quadrature's error estimate, and
    ``_pole_sum_mp`` takes the sum again in mpmath on refined pairs.
    """
    k = dense_wire_matrix(p, 0.0)
    lam, vecs = np.linalg.eig(k)
    eye = np.eye(p.n)
    for j in range(p.n):
        x = vecs[:, j] / np.linalg.norm(vecs[:, j])
        best = np.linalg.norm(k @ x - lam[j] * x)
        for _ in range(2):
            rq = (x @ k @ x) / (x @ x)
            try:
                y = np.linalg.solve(k - rq * eye, x)
            except np.linalg.LinAlgError:  # rq is an eigenvalue to working precision
                break
            x = y / np.linalg.norm(y)
            rq = (x @ k @ x) / (x @ x)
            residual = np.linalg.norm(k @ x - rq * x)
            if residual < best:
                best, lam[j], vecs[:, j] = residual, rq, x
    weight = np.abs(vecs[0]) ** 2 + np.abs(vecs[-1]) ** 2  # 2|x_1|**2 at n = 1: both corners
    poles = lam.real + 0.5j * p.gamma * weight / np.sum(np.abs(vecs) ** 2, axis=0)
    unit = vecs / np.sqrt(np.sum(vecs * vecs, axis=0))
    a = unit[0] * unit[-1]
    gbar = np.array([np.sum(np.conj(a) / (np.conj(poles) - l)) for l in poles])
    if temperature > 0.0:
        c = 1j / (2.0 * np.pi * temperature)
        ell = psi(0.5 - c * (poles - mu_right)) - psi(0.5 - c * (poles - mu_left))
    else:
        ell = np.log(poles - mu_right) - np.log(poles - mu_left)
    terms = 2.0 * p.gamma ** 2 * a * gbar * ell
    value = float(terms.sum().real)
    if np.abs(terms).sum() <= 4.0 * abs(value):
        return value
    return _pole_sum_mp(k, lam, vecs, p.gamma, mu_left, mu_right, temperature)


def _pole_sum_mp(k, lam, vecs, gamma, mu_left, mu_right, temperature):
    """The pole sum of ``current_pole_sum_dense`` in 30-digit mpmath, on refined pairs.

    Each pair (lambda, x) takes one Newton step on K x = lambda x with
    x^T dx = 0: the residual K x - lambda x in mpmath on the three
    diagonals of K, the step from the bordered system
    [[K - lambda, -x], [x^T, 0]] [dx; dlambda] = [-residual; 0] in double.
    That leaves an error of about the square of the pair's double one, so
    a_j, Im lambda_j and the sum keep about 30 digits.  O(n**2) mpmath
    operations, about 0.3 s at n = 60.
    """
    import mpmath as mp

    n = k.shape[0]
    with mp.workdps(30):
        diag = [mp.mpc(complex(z)) for z in np.diag(k)]
        off = [mp.mpc(complex(z)) for z in np.diag(k, 1)]
        border = np.zeros((n + 1, n + 1), dtype=complex)
        poles, a = [], []
        for j in range(n):
            x = [mp.mpc(complex(z)) for z in vecs[:, j]]
            lam_j = mp.mpc(complex(lam[j]))
            r = [(d - lam_j) * z for d, z in zip(diag, x)]
            for i, b in enumerate(off):
                r[i] += b * x[i + 1]
                r[i + 1] += b * x[i]
            border[:n, :n] = k - lam[j] * np.eye(n)
            border[:n, n] = -vecs[:, j]
            border[n, :n] = vecs[:, j]
            step = np.linalg.solve(border, np.array([-complex(z) for z in r] + [0.0]))
            x = [z + mp.mpc(complex(s)) for z, s in zip(x, step)]
            poles.append(lam_j + mp.mpc(complex(step[n])))
            a.append(x[0] * x[-1] / mp.fsum(z * z for z in x))
        total = []
        for a_j, lam_j in zip(a, poles):
            gbar = mp.fsum(mp.conj(a_k) / (mp.conj(lam_k) - lam_j) for a_k, lam_k in zip(a, poles))
            if temperature > 0.0:
                c = mp.mpc(0, 1) / (2 * mp.pi * temperature)
                ell = (mp.digamma(0.5 - c * (lam_j - mu_right))
                       - mp.digamma(0.5 - c * (lam_j - mu_left)))
            else:
                ell = mp.log(lam_j - mu_right) - mp.log(lam_j - mu_left)
            total.append(a_j * gbar * ell)
        return float(mp.re(2 * mp.mpf(gamma) ** 2 * mp.fsum(total)))


def typed_bits(values):
    """Type and bits of each value: arrays by dtype, shape and bytes, floats by hex.

    Ints and Fractions compare by value; the continuant kernel returns its
    seeds as the ints 1 and 0 at n <= 2.
    """
    out = []
    for x in values:
        if isinstance(x, np.ndarray):
            out.append(("ndarray", x.dtype.str, x.shape, x.tobytes()))
        elif isinstance(x, float):
            out.append(("float", x.hex()))
        else:
            out.append((type(x).__name__, x))
    return out
