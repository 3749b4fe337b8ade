"""Complex-cornered tridiagonal matrix of an N-site wire coupled to two leads.

At probe energy ``eps`` the matrix has ``eps0 - eps`` on the diagonal,
``-v`` on both off-diagonals, and an extra ``+i*gamma/2`` on the (1, 1) and
(N, N) entries from the wide-band lead self-energy.  For N = 1 the two
corners coincide and the contributions stack to ``+i*gamma``.

Only the two corner entries are complex; the corner cofactor is therefore
real, and the determinant splits over the lead-free ("hat") determinants:

    det C = Chat_N + i*gamma*Chat_{N-1} - (gamma**2/4)*Chat_{N-2}
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .errors import SingularMatrixError

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
    v_lead : float, optional
        Lead-wire coupling.  Derived from ``gamma = 2*pi*v_lead**2/bandwidth``
        when omitted; if supplied it must satisfy that relation.
    """

    n: int
    eps0: float
    v: float
    gamma: float
    bandwidth: float = 1.0
    v_lead: float | None = None

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
        derived = math.sqrt(self.gamma * self.bandwidth / TWO_PI)
        if self.v_lead is None:
            object.__setattr__(self, "v_lead", derived)
        else:
            if not math.isfinite(self.v_lead):
                raise ValueError("v_lead must be finite")
            implied = TWO_PI * self.v_lead ** 2 / self.bandwidth
            if abs(implied - self.gamma) > 1e-9 * self.gamma:
                raise ValueError(
                    f"v_lead={self.v_lead} inconsistent with gamma={self.gamma} "
                    f"and bandwidth={self.bandwidth} (implies gamma={implied})"
                )


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

    def to_banded(self) -> np.ndarray:
        """(3, n) diagonal-ordered form for scipy.linalg.solve_banded."""
        p = self.params
        ab = np.zeros((3, p.n), dtype=complex)
        ab[0, 1:] = -p.v
        ab[1, :] = self.diagonal()
        ab[2, :-1] = -p.v
        return ab

    def norm_inf(self) -> float:
        """Maximum absolute row sum."""
        p = self.params
        if p.n == 1:
            return abs(complex(p.eps0 - self.energy, p.gamma))
        corner = abs(complex(p.eps0 - self.energy, 0.5 * p.gamma)) + abs(p.v)
        if p.n == 2:
            return corner
        return max(corner, abs(p.eps0 - self.energy) + 2.0 * abs(p.v))


@dataclass(frozen=True)
class HatDets:
    """Determinants of the lead-free wire matrix at dimensions n, n-1, n-2.

    Conventions Chat_0 = 1 and Chat_{-1} = 0 cover the small-n cases.  The
    fields are scalars or arrays, matching the probe-energy argument.
    """

    c_n: EnergyLike
    c_n1: EnergyLike
    c_n2: EnergyLike


def hat_dets(p: WireParams, eps: EnergyLike) -> HatDets:
    """Lead-free determinants (Chat_n, Chat_{n-1}, Chat_{n-2}) at probe energy ``eps``.

    These are continuants with diagonal ``eps0 - eps`` and off-diagonal
    ``-v`` (the sign of the off-diagonal is irrelevant: only its square
    enters the recurrence).  Accepts a scalar or an array of energies.

    A scalar (0-d) energy runs the recurrence on Python floats, which avoids
    numpy's per-operation dispatch when one energy is evaluated at a time
    (as under adaptive quadrature).  Both kinds of input run the same
    multiplies and subtracts in the same order, so a scalar result is
    bit-identical to the corresponding element of an array result.
    """
    if isinstance(eps, (int, float)) or np.ndim(eps) == 0:
        eps = float(eps)
        finite = math.isfinite(eps)
        zero, one = 0.0, 1.0
    else:
        eps = np.asarray(eps, dtype=float)
        finite = np.all(np.isfinite(eps))
        zero, one = np.zeros_like(eps), np.ones_like(eps)
    if not finite:
        raise ValueError("probe energy must be finite")
    alpha = p.eps0 - eps
    b2 = p.v * p.v
    older = zero   # becomes Chat_{n-2}
    prev2 = zero   # Chat_{-1}
    prev = one     # Chat_0
    for _ in range(p.n):
        older = prev2
        prev2, prev = prev, alpha * prev - b2 * prev2
    return HatDets(prev, prev2, older)


def det_wire(p: WireParams, eps: EnergyLike) -> Union[complex, np.ndarray]:
    """Determinant of the wire matrix via the corner-perturbation split.

    Expanding the two ``i*gamma/2`` corner entries of the determinant gives

        det C = Chat_n + i*gamma*Chat_{n-1} - (gamma**2/4)*Chat_{n-2},

    validated against dense complex determinants in the test suite.  Accepts
    a scalar or an array of energies.
    """
    h = hat_dets(p, eps)
    g = p.gamma
    return h.c_n - 0.25 * g * g * h.c_n2 + 1j * (g * h.c_n1)


def corner_cofactor_wire(p: WireParams) -> float:
    """Cofactor of the (n, 1) entry: v**(n-1), real and energy-independent.

    The defining minor is triangular with ``-v`` on its diagonal and the
    sign prefactor (-1)**(n+1) cancels the off-diagonal signs exactly.
    Returns 1.0 for n = 1 (empty minor).
    """
    return float(p.v) ** (p.n - 1)


def first_inverse_column(p: WireParams, eps: float) -> np.ndarray:
    """First column of the inverse wire matrix: solves C u = e_1.

    Uses banded LU with partial pivoting rather than the pivot-free Thomas
    sweep, since interior leading minors vanish at chain resonances.  The
    solution is verified to satisfy the residual bound
    ``||C u - e_1||_inf <= 1e-10 * max(1, ||C||_inf)``.

    Raises
    ------
    SingularMatrixError
        Singular system or residual bound violated (only possible in the
        gamma -> 0 limit, which WireParams excludes).
    """
    wm = WireMatrix(p, float(eps))
    rhs = np.zeros(p.n, dtype=complex)
    rhs[0] = 1.0
    if p.n == 1:
        d = wm.diagonal()[0]
        if d == 0:
            raise SingularMatrixError("1x1 wire matrix is singular")
        return rhs / d
    try:
        u = scipy.linalg.solve_banded((1, 1), wm.to_banded(), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"banded solve failed: {exc}") from exc
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
