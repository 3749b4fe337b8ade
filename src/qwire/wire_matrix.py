"""The wire matrix C of an N-site wire coupled to two leads, without assembling it.

At probe energy ``eps`` the matrix has ``eps0 - eps`` on the diagonal,
``-v`` on both off-diagonals, and an extra ``+i*gamma/2`` on the (1, 1) and
(N, N) entries from the wide-band lead self-energy.  For N = 1 the two
corners coincide and the contributions stack to ``+i*gamma``.

Only the two corner entries are complex; the corner cofactor, ``v**(N-1)``
(``tridiag_core.corner_cofactor``), is therefore real, and the determinant
splits over the lead-free ("hat") determinants of ``hat_dets``:

    det C = Chat_N + i*gamma*Chat_{N-1} - (gamma**2/4)*Chat_{N-2}

Divided by |v|**N it is the same split in Chebyshev units,
``U_N + i*g*U_{N-1} - (g**2/4)*U_{N-2}`` with ``U_k = Chat_k/|v|**k`` and
``g = gamma/|v|`` (``_chebyshev_dets``), which is what the transmittance
routes evaluate.  Both triples run one closure of
``tridiag_core._continuant_kernel`` on the diagonal ``eps0 - eps``
(``_diagonal``), which starts from Chat_0 = 1 and Chat_{-1} = 0 itself;
``_kernel_dets`` turns those int seeds, returned as fields at N <= 2, into
floats or arrays of the energies' shape.  ``first_inverse_column`` solves
``C u = e_1`` by a sweep over the diagonal alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import SingularMatrixError
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


def _diagonal(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """``eps0 - eps`` for a scalar or an array of energies.

    A scalar (0-d) energy gives a Python float, which avoids numpy's
    per-operation dispatch when one energy is evaluated at a time; an array
    gives a fresh float array.

    Raises ValueError for a non-finite energy.
    """
    if isinstance(eps, (int, float)) or np.ndim(eps) == 0:
        eps = float(eps)
        finite = math.isfinite(eps)
    else:
        eps = np.asarray(eps, dtype=float)
        finite = np.all(np.isfinite(eps))
    if not finite:
        raise ValueError("probe energy must be finite")
    return p.eps0 - eps


def _kernel_dets(kernel, n: int, alpha: EnergyLike) -> HatDets:
    """``kernel(alpha)`` as HatDets, every field a float or an array of alpha's shape.

    From n = 3 every field is made by arithmetic on ``alpha`` and has its
    kind already.  At n <= 2 the kernel returns its seeds A_0 = 1 (and at
    n = 1 A_{-1} = 0) as the ints they are, and at n = 1 ``alpha`` itself;
    here the seeds become floats, or fresh arrays of alpha's shape.
    """
    dets = kernel(alpha)
    if n > 2:
        return HatDets(*dets)
    if isinstance(alpha, np.ndarray):
        return HatDets(*(np.full_like(alpha, d) if isinstance(d, int) else d for d in dets))
    return HatDets(*(float(d) if isinstance(d, int) else d for d in dets))


def hat_dets(p: WireParams, eps: EnergyLike) -> HatDets:
    """Lead-free determinants (Chat_n, Chat_{n-1}, Chat_{n-2}) at probe energy ``eps``.

    These are continuants with diagonal ``eps0 - eps`` and off-diagonal
    ``-v`` (the sign of the off-diagonal is irrelevant: only its square
    enters the recurrence).  Accepts a scalar or an array of energies.

    Both kinds of input run the ``b2`` body of
    ``tridiag_core._continuant_kernel`` (``b2 = v**2``), built once per
    call, which reaches index n by doubling in about 8*log2(n) operations;
    a scalar runs it on Python floats, an array on numpy arrays
    (``_diagonal``), and ``_kernel_dets`` gives every field the kind of
    the input.  Floats and arrays go through the same operations in the
    same order, so a scalar result is bit-identical to the corresponding
    element of an array result.

    The transmittance routes do not call this function: they run the unit
    body on ``_chebyshev_dets``, whose values are these divided by
    ``|v|**n``, ``|v|**(n-1)`` and ``|v|**(n-2)``.
    """
    return _kernel_dets(_continuant_kernel(p.v * p.v, p.n), p.n, _diagonal(p, eps))


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
    alpha = _diagonal(p, eps)
    alpha /= abs(float(p.v))
    return _kernel_dets(_continuant_kernel(1.0, p.n), p.n, alpha)


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
    have a normwise backward error of at most 1e-10:
    ``||C u - e_1||_inf <= 1e-10 * (||C||_inf ||u||_inf + 1)``.  A
    backward-stable sweep leaves a residual of about one ulp of
    ``||C|| ||u||``, and ``||u||`` grows like 1/gamma near a resonance, so
    a bound without ``||u||`` would reject weakly coupled wires.

    Raises
    ------
    ValueError
        Non-finite probe energy.
    SingularMatrixError
        Residual bound violated or non-finite solution.
    """
    eps = float(eps)
    if not math.isfinite(eps):
        raise ValueError("probe energy must be finite")
    a = p.eps0 - eps
    d = np.full(p.n, a, dtype=complex)
    d[0] += 0.5j * p.gamma
    d[-1] += 0.5j * p.gamma  # stacks with the first entry when n == 1
    r = np.zeros(p.n + 1, dtype=complex)  # r[n] = 0 closes the sweep
    for i in range(p.n - 1, 0, -1):
        r[i] = p.v / (d[i] - p.v * r[i + 1])
    u = np.empty(p.n, dtype=complex)
    u[0] = 1.0 / (d[0] - p.v * r[1])
    for i in range(1, p.n):
        u[i] = r[i] * u[i - 1]
    residual = _tridiag_apply(d, p.v, u)
    residual[0] -= 1.0
    # ||C||_inf, the largest absolute row sum: a corner row holds one
    # hopping (none at n = 1), an inner row two.
    norm = abs(complex(d[0])) + (abs(p.v) if p.n > 1 else 0.0)
    if p.n > 2:
        norm = max(norm, abs(a) + 2.0 * abs(p.v))
    bound = 1e-10 * (norm * float(np.max(np.abs(u))) + 1.0)
    worst = float(np.max(np.abs(residual)))
    if not np.isfinite(worst) or worst > bound:
        raise SingularMatrixError(
            f"solution residual {worst:.3e} exceeds bound {bound:.3e}"
        )
    return u


def _tridiag_apply(d: np.ndarray, v: float, x: np.ndarray) -> np.ndarray:
    """C x for the symmetric tridiagonal C with diagonal ``d`` and ``-v`` off it."""
    y = d * x
    if d.size > 1:
        y[:-1] += -v * x[1:]
        y[1:] += -v * x[:-1]
    return y
