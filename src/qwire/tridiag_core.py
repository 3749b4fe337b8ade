"""Determinant algebra for real symmetric Toeplitz tridiagonal matrices.

The determinant of the n x n matrix with ``alpha`` on the diagonal and
``beta`` on both off-diagonals (a continuant) obeys the three-term
recurrence

    A_k = alpha * A_{k-1} - beta**2 * A_{k-2},    A_0 = 1, A_{-1} = 0.

This module evaluates the determinant sequence in exact (arbitrary
precision) or double arithmetic, the Chebyshev closed form, the corner
cofactor, and the residual of the nonlinear continuant identity

    beta**(2n-2) = A_{n-1}**2 - A_{n-2} * A_n,

which ties the squared corner cofactor to three consecutive determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import DomainError, ModeError

EXACT = "exact"
FLOAT = "float"

Scalar = Union[int, float, Fraction]

# Rescaling threshold for the floating determinant sequence.  Entries are
# rescaled by 2**-_RESCALE_SHIFT (uniformly, so ratios and the identity
# residual stay at matched scale) whenever they exceed 2**_RESCALE_AT.
_RESCALE_AT = 2.0 ** 512
_RESCALE_SHIFT = 512


@dataclass(frozen=True)
class SymToeplitzTridiag:
    """Symmetric Toeplitz tridiagonal matrix: ``alpha`` diagonal, ``beta`` off-diagonal.

    ``n = 0`` denotes the empty matrix (determinant 1).
    """

    alpha: Scalar
    beta: Scalar
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"dimension must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"dimension must be >= 0, got {self.n}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def to_dense(self) -> np.ndarray:
        """Assemble the matrix explicitly (empty (0, 0) array for n = 0)."""
        m = np.zeros((self.n, self.n))
        for i in range(self.n):
            m[i, i] = self.alpha
            if i + 1 < self.n:
                m[i, i + 1] = self.beta
                m[i + 1, i] = self.beta
        return m


@dataclass(frozen=True)
class DetSequence:
    """Determinant sequence [A_0, ..., A_n], possibly rescaled by 2**-scale_exponent.

    In exact mode the exponent is always 0 and the values are ints or
    Fractions.  In float mode every rescale multiplies the entries stored so
    far by 2**-512, so after repeated rescales the earliest entries underflow
    to subnormals or 0: ``values[k] * 2**scale_exponent`` approximates A_k
    only for the entries that survive.
    """

    values: tuple
    scale_exponent: int = 0

    def unscaled(self) -> tuple:
        """All entries with the scale undone; signed infinity beyond the double range."""
        if self.scale_exponent == 0:
            return self.values
        return tuple(_ldexp(v, self.scale_exponent) for v in self.values)

    def determinant(self):
        """Last element with the scale undone (see ``unscaled``)."""
        return self.unscaled()[-1]


def _ldexp(value: float, exponent: int) -> float:
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


def _as_exact(value: Scalar, name: str) -> Union[int, Fraction]:
    if isinstance(value, bool):
        raise ModeError(f"{name} must be a number, got bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if float(value).is_integer():
            return int(value)
        raise ModeError(
            f"{name}={value!r} is not an integer; exact mode needs integer or Fraction inputs"
        )
    raise ModeError(f"{name}={value!r} is not usable in exact mode")


def _check_mode(mode: str) -> str:
    if mode not in (EXACT, FLOAT):
        raise ModeError(f"unknown arithmetic mode {mode!r}")
    return mode


def _exact_continuants(alpha, b2, n: int):
    """Yield A_0, A_1, ..., A_n of the recurrence in exact arithmetic."""
    prev2, prev = 0, 1
    yield prev
    for _ in range(n):
        prev2, prev = prev, alpha * prev - b2 * prev2
        yield prev


def det_sequence(m: SymToeplitzTridiag, mode: str = FLOAT) -> DetSequence:
    """Determinant sequence [A_0, A_1, ..., A_n] via the three-term recurrence.

    In float mode the whole sequence is uniformly rescaled by a power of two
    whenever an entry exceeds 2**512, and the shared exponent is recorded in
    ``scale_exponent``; this keeps long sequences representable while
    preserving ratios between entries.

    Raises
    ------
    ModeError
        Exact mode with inputs that are not integers or Fractions.
    """
    _check_mode(mode)
    if mode == EXACT:
        alpha = _as_exact(m.alpha, "alpha")
        beta = _as_exact(m.beta, "beta")
        return DetSequence(values=tuple(_exact_continuants(alpha, beta * beta, m.n)))

    alpha = float(m.alpha)
    b2 = float(m.beta) * float(m.beta)
    values = [1.0]
    prev2, prev = 0.0, 1.0
    exponent = 0
    for _ in range(m.n):
        prev2, prev = prev, alpha * prev - b2 * prev2
        if abs(prev) > _RESCALE_AT:
            values = [math.ldexp(v, -_RESCALE_SHIFT) for v in values]
            prev = math.ldexp(prev, -_RESCALE_SHIFT)
            prev2 = math.ldexp(prev2, -_RESCALE_SHIFT)
            exponent += _RESCALE_SHIFT
        values.append(prev)
    return DetSequence(values=tuple(values), scale_exponent=exponent)


def det(m: SymToeplitzTridiag, mode: str = FLOAT):
    """Determinant A_n (equals the last element of the sequence)."""
    return det_sequence(m, mode).determinant()


def det_chebyshev(m: SymToeplitzTridiag) -> float:
    """Determinant via the closed form beta**n * U_n(alpha / (2 beta)).

    U_n is the Chebyshev polynomial of the second kind, evaluated by its own
    recurrence U_k = 2x U_{k-1} - U_{k-2}; this route never touches the
    continuant recurrence and serves as an independent cross-check of det().

    Raises
    ------
    DomainError
        beta = 0 (the closed form degenerates; use det(), which gives alpha**n).
    """
    beta = float(m.beta)
    if beta == 0.0:
        raise DomainError("det_chebyshev requires beta != 0")
    x = float(m.alpha) / (2.0 * beta)
    prev2, prev = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(m.n):
        prev2, prev = prev, 2.0 * x * prev - prev2
    return beta ** m.n * prev


def corner_cofactor(m: SymToeplitzTridiag):
    """Corner cofactor of the (n, 1) entry, equal to beta**(n-1).

    The defining minor is triangular with beta along its diagonal, so the
    value is independent of alpha.  Returned with the type of ``beta``
    (int in, int out).

    Raises
    ------
    DomainError
        n = 0 (no (n, 1) entry exists).
    """
    if m.n < 1:
        raise DomainError("corner cofactor needs n >= 1")
    return m.beta ** (m.n - 1)


def _identity_inputs(m: SymToeplitzTridiag, mode: str) -> tuple:
    """Validated (alpha, beta) of ``m`` for ``_residuals``."""
    _check_mode(mode)
    if m.n < 2:
        raise DomainError("identity residual needs n >= 2")
    if mode == EXACT:
        return _as_exact(m.alpha, "alpha"), _as_exact(m.beta, "beta")
    return m.alpha, m.beta


def _residuals(alpha, beta, mode: str, n_max: int, n_min: int) -> list:
    """Identity residuals at sizes n = n_min, ..., n_max >= 2 from one exact continuant pass."""
    if mode == FLOAT:
        # Scale both doubles to integers over a common power-of-two denominator;
        # the identity is homogeneous of degree 2n-2, so the scale cancels.
        na, da = float(alpha).as_integer_ratio()
        nb, db = float(beta).as_integer_ratio()
        den = max(da, db)
        alpha, beta = na * (den // da), nb * (den // db)
    out = []
    a_n2 = a_n1 = 0
    for n, a_n in enumerate(_exact_continuants(alpha, beta * beta, n_max)):
        if n >= n_min:
            power = beta ** (2 * n - 2)
            residual = power - (a_n1 ** 2 - a_n2 * a_n)
            if mode == EXACT:
                out.append(residual)
            elif power == 0:
                out.append(0.0 if residual == 0 else math.inf)
            else:
                out.append(residual / power)  # int true division rounds correctly
        a_n2, a_n1 = a_n1, a_n
    return out


def identity_residual(m: SymToeplitzTridiag, mode: str = FLOAT):
    """Residual of the continuant identity beta**(2n-2) = A_{n-1}**2 - A_{n-2} A_n.

    Exact mode returns the raw difference (an int or Fraction, identically 0
    for a correct recurrence).  Float mode returns the residual divided by
    beta**(2n-2); because doubles are dyadic rationals the difference is
    evaluated in scaled integer arithmetic, which avoids the catastrophic
    cancellation a naive double-precision evaluation would suffer when the
    sequence entries dwarf beta**(2n-2).

    Raises
    ------
    DomainError
        n < 2 (A_{n-2} undefined below the A_0 convention).
    """
    return _residuals(*_identity_inputs(m, mode), mode, m.n, m.n)[0]


def identity_residuals(m: SymToeplitzTridiag, mode: str = FLOAT) -> list:
    """``identity_residual`` of the leading blocks of sizes n = 2, ..., m.n, in one pass.

    Raises DomainError when m.n < 2.
    """
    return _residuals(*_identity_inputs(m, mode), mode, m.n, 2)
