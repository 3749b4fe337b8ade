"""Complex-cornered tridiagonal matrix of an N-site wire coupled to two leads.

At probe energy ``eps`` the matrix has ``eps0 - eps`` on the diagonal,
``-v`` on both off-diagonals, and an extra ``+i*gamma/2`` on the (1, 1) and
(N, N) entries from the wide-band lead self-energy.  For N = 1 the two
corners coincide and the contributions stack to ``+i*gamma``.

Only the two corner entries are complex; the corner cofactor is therefore
real, and the determinant splits over the lead-free ("hat") determinants:

    det C = Chat_N + i*gamma*Chat_{N-1} - (gamma**2/4)*Chat_{N-2}

Divided by |v|**N it is the same split in Chebyshev units,
``U_N + i*g*U_{N-1} - (g**2/4)*U_{N-2}`` with ``U_k = Chat_k/|v|**k`` and
``g = gamma/|v|`` (``_chebyshev_dets``), which is what the transmittance
routes evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import NumericalError, SingularMatrixError
from .tridiag_core import _continuant_kernel

TWO_PI = 2.0 * math.pi

EnergyLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class WireParams:
    """Physical parameters of the wire-leads system (hbar = 1).

    Attributes
    ----------
    n : int
        Number of wire sites (>= 1).
    eps0 : float
        On-site energy, identical on every site.
    v : float
        Nearest-neighbour hopping, identical on every bond (nonzero).
    gamma : float
        Wide-band lead broadening on the terminal sites (> 0), the same for
        both leads.
    bandwidth : float
        Effective lead band width D (> 0).

    The lead-wire coupling ``v_lead`` is a property derived from these.
    """

    n: int
    eps0: float
    v: float
    gamma: float
    bandwidth: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"site count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"site count must be >= 1, got {self.n}")
        for name in ("eps0", "v", "gamma", "bandwidth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.bandwidth <= 0.0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.v == 0.0:
            raise ValueError("hopping v must be nonzero")

    @property
    def v_lead(self) -> float:
        """Lead-wire coupling, from the wide-band relation gamma = 2*pi*v_lead**2/bandwidth."""
        return math.sqrt(self.gamma * self.bandwidth / TWO_PI)


@dataclass(frozen=True)
class WireMatrix:
    """The wire matrix evaluated at a single probe energy."""

    params: WireParams
    energy: float

    def __post_init__(self):
        if not math.isfinite(self.energy):
            raise ValueError("probe energy must be finite")

    def diagonal(self) -> np.ndarray:
        p = self.params
        d = np.full(p.n, p.eps0 - self.energy, dtype=complex)
        d[0] += 0.5j * p.gamma
        d[-1] += 0.5j * p.gamma  # stacks with the first entry when n == 1
        return d

    def to_dense(self) -> np.ndarray:
        p = self.params
        m = np.diag(self.diagonal())
        for i in range(p.n - 1):
            m[i, i + 1] = -p.v
            m[i + 1, i] = -p.v
        return m

    def norm_inf(self) -> float:
        """Maximum absolute row sum."""
        p = self.params
        if p.n == 1:
            return abs(complex(p.eps0 - self.energy, p.gamma))
        corner = abs(complex(p.eps0 - self.energy, 0.5 * p.gamma)) + abs(p.v)
        if p.n == 2:
            return corner
        return max(corner, abs(p.eps0 - self.energy) + 2.0 * abs(p.v))


class HatDets(NamedTuple):
    """Determinants of the lead-free wire matrix at dimensions n, n-1, n-2.

    Conventions Chat_0 = 1 and Chat_{-1} = 0 cover the small-n cases.  The
    fields are scalars or arrays, matching the probe-energy argument.  The
    same triple in Chebyshev units (each divided by |v|**k) comes from
    ``_chebyshev_dets``; ``corner_split`` then takes ``gamma/|v|``.
    """

    c_n: EnergyLike
    c_n1: EnergyLike
    c_n2: EnergyLike

    def corner_split(self, gamma: float) -> tuple[EnergyLike, EnergyLike]:
        """Real and imaginary parts of det C, split over the corners (module docstring)."""
        return self.c_n - 0.25 * gamma * gamma * self.c_n2, gamma * self.c_n1


def _diagonal_and_seeds(p: WireParams, eps: EnergyLike) -> tuple:
    """``eps0 - eps`` and the kernel's seeds (A_{-1}, A_0), for a scalar or an array.

    A scalar (0-d) energy gives Python floats, which avoids numpy's
    per-operation dispatch when one energy is evaluated at a time; an array
    gives a fresh float array.  An array of energies takes the Python
    floats 0.0 and 1.0 as seeds when n >= 3: there the seeds enter only as
    factors of A_1 = (eps0 - eps)*1 and of the first doubling step, whose
    products are arrays of the energies' shape with the bits that array
    seeds would give, so no seed array is filled.  At n <= 2 a seed is
    itself returned (A_{n-2} = 1 at n = 2; A_{n-1} = 1 and A_{n-2} = 0 at
    n = 1), so there the seeds are arrays and every field keeps the
    energies' shape.

    Raises ValueError for a non-finite energy.
    """
    if isinstance(eps, (int, float)) or np.ndim(eps) == 0:
        eps = float(eps)
        finite = math.isfinite(eps)
        zero, one = 0.0, 1.0
    else:
        eps = np.asarray(eps, dtype=float)
        finite = np.all(np.isfinite(eps))
        if p.n >= 3:
            zero, one = 0.0, 1.0
        else:
            zero, one = np.zeros_like(eps), np.ones_like(eps)
    if not finite:
        raise ValueError("probe energy must be finite")
    return p.eps0 - eps, zero, one


def hat_dets(p: WireParams, eps: EnergyLike) -> HatDets:
    """Lead-free determinants (Chat_n, Chat_{n-1}, Chat_{n-2}) at probe energy ``eps``.

    These are continuants with diagonal ``eps0 - eps`` and off-diagonal
    ``-v`` (the sign of the off-diagonal is irrelevant: only its square
    enters the recurrence).  Accepts a scalar or an array of energies.

    Both kinds of input run the ``b2`` body of
    ``tridiag_core._continuant_kernel`` (``b2 = v**2``), built once per
    call, which reaches index n by doubling in about 8*log2(n) operations;
    a scalar runs it on Python floats, an array on numpy arrays
    (``_diagonal_and_seeds``).  Floats and arrays go through the same
    operations in the same order, so a scalar result is bit-identical to
    the corresponding element of an array result.

    The transmittance routes do not call this function: they run the unit
    body on ``_chebyshev_dets``, whose values are these divided by
    ``|v|**n``, ``|v|**(n-1)`` and ``|v|**(n-2)``.
    """
    alpha, zero, one = _diagonal_and_seeds(p, eps)
    return HatDets(*_continuant_kernel(p.v * p.v, p.n)(alpha, zero, one))


def _chebyshev_dets(p: WireParams, eps: EnergyLike) -> HatDets:
    """The lead-free determinants in Chebyshev units, ``Chat_k / |v|**k`` for k = n, n-1, n-2.

    In the form ``Chat_k = |v|**k U_k(x)``, ``x = (eps0 - eps)/(2|v|)``, the
    fields are ``U_n``, ``U_{n-1}`` and ``U_{n-2}`` of the second kind, the
    continuants of ``alpha = (eps0 - eps)/|v|`` with ``b2 = 1``: the unit
    body of ``tridiag_core._continuant_kernel``, 7 operations per doubling
    step.  No power of v is taken, and in the band (|x| <= 1)
    ``|U_k| <= k + 1`` for every v.  For an array, ``alpha`` is divided in
    place in the fresh ``eps0 - eps``, one pass.  Scalars and arrays give
    the same bits, as in ``hat_dets``; at |v| = 1 these are the bits of
    ``hat_dets``.

    Raises ValueError for a non-finite energy.
    """
    alpha, zero, one = _diagonal_and_seeds(p, eps)
    alpha /= abs(float(p.v))
    return HatDets(*_continuant_kernel(1.0, p.n)(alpha, zero, one))


def det_wire(p: WireParams, eps: EnergyLike) -> Union[complex, np.ndarray]:
    """Determinant of the wire matrix via the corner split of ``HatDets``.

    Validated against dense complex determinants in the test suite.  Accepts
    a scalar or an array of energies.
    """
    re, im = hat_dets(p, eps).corner_split(p.gamma)
    return re + 1j * im


def corner_cofactor_wire(p: WireParams) -> float:
    """Cofactor of the (n, 1) entry: v**(n-1), real and energy-independent.

    The defining minor is triangular with ``-v`` on its diagonal and the
    sign prefactor (-1)**(n+1) cancels the off-diagonal signs exactly.
    Returns 1.0 for n = 1 (empty minor).

    Raises
    ------
    NumericalError
        ``|v|**(n-1)`` exceeds the double range.
    """
    try:
        return float(p.v) ** (p.n - 1)
    except OverflowError:
        raise NumericalError(
            f"corner cofactor v**(n-1) = {p.v}**{p.n - 1} leaves the double range"
        ) from None


def first_inverse_column(p: WireParams, eps: float) -> np.ndarray:
    """First column of the inverse wire matrix: solves C u = e_1.

    A backward sweep over continuant ratios: ``r_n = v/d_n``,
    ``r_i = v/(d_i - v r_{i+1})`` down to i = 2, ``u_1 = 1/(d_1 - v r_2)``
    and ``u_i = r_i u_{i-1}``, with ``d`` the diagonal of C.  The ratio
    ``r_i = v phi_{i+1}/phi_i`` involves only trailing continuants phi_i of
    rows i..n, which contain the lead corner: the eigenvalues of such a
    block have imaginary part > 0 when gamma > 0, so phi_i cannot vanish at
    a real energy and no pivoting is needed, even at chain resonances where
    the lead-free leading minors do vanish.  The solution is verified to
    satisfy the residual bound
    ``||C u - e_1||_inf <= 1e-10 * max(1, ||C||_inf)``.

    Raises
    ------
    SingularMatrixError
        Residual bound violated or non-finite solution (only possible in
        the gamma -> 0 limit, which WireParams excludes).
    """
    wm = WireMatrix(p, float(eps))
    d = wm.diagonal()
    r = np.zeros(p.n + 1, dtype=complex)  # r[n] = 0 closes the sweep
    for i in range(p.n - 1, 0, -1):
        r[i] = p.v / (d[i] - p.v * r[i + 1])
    u = np.empty(p.n, dtype=complex)
    u[0] = 1.0 / (d[0] - p.v * r[1])
    for i in range(1, p.n):
        u[i] = r[i] * u[i - 1]
    residual = _tridiag_apply(wm, u)
    residual[0] -= 1.0
    bound = 1e-10 * max(1.0, wm.norm_inf())
    worst = float(np.max(np.abs(residual)))
    if not np.isfinite(worst) or worst > bound:
        raise SingularMatrixError(
            f"solution residual {worst:.3e} exceeds bound {bound:.3e}"
        )
    return u


def _tridiag_apply(wm: WireMatrix, x: np.ndarray) -> np.ndarray:
    p = wm.params
    y = wm.diagonal() * x
    if p.n > 1:
        y[:-1] += -p.v * x[1:]
        y[1:] += -p.v * x[:-1]
    return y
