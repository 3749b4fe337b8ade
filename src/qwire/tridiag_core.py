"""Determinant algebra for real symmetric Toeplitz tridiagonal matrices.

The determinant of the n x n matrix with ``alpha`` on the diagonal and
``beta`` on both off-diagonals (a continuant) obeys the three-term
recurrence

    A_k = alpha * A_{k-1} - beta**2 * A_{k-2},    A_0 = 1, A_{-1} = 0.

That start is part of the recurrence, so no caller passes it: the linear
pass ``_continuants`` and the doubling kernel ``_continuant_kernel`` begin
from A_0 = 1 and A_1 = alpha themselves.

This module evaluates the determinant sequence in exact (arbitrary
precision) or double arithmetic, the corner cofactor, and the residual of
the nonlinear continuant identity

    beta**(2n-2) = A_{n-1}**2 - A_{n-2} * A_n,

which ties the squared corner cofactor to three consecutive determinants.
Every caller takes alpha and beta into a mode's arithmetic by ``_inputs``.
The residual is checked modulo the Mersenne prime 2**61 - 1 first and
computed exactly only when that check is nonzero: a reported zero means
"zero mod 2**61 - 1", a nonzero value is exact.  The residual at one size n
reaches A_n by index doubling in ``_continuant_kernel``, in O(log n)
operations.  That is the package's one doubling kernel, with two bodies:
the ``b2`` body serves the check mod 2**61 - 1, the exact pass on ints
and Fractions and ``wire_matrix.hat_dets`` on floats and arrays; the unit
body (``b2 = 1``, no modulus) runs the transmittance routes on floats and
arrays in Chebyshev units.  The determinant sequence,
exact or float, and the residuals at every size 2, ..., n come from one
pass of the linear recurrence ``_continuants``; a float sequence is never
rescaled, and one that leaves the double range raises NumericalError.
Residuals of many diagonals ``alpha`` with one ``beta`` (the bridge of
``transport.equivalence_report``, one alpha per energy) share one
fingerprint pass: one common denominator, and one ``_identity_gaps``
factory, which builds ``beta**2``, the power of ``beta`` and the kernel once.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Union

from .errors import DomainError, ModeError, NumericalError

EXACT = "exact"
FLOAT = "float"

Scalar = Union[int, float, Fraction]

# Modulus of the identity fingerprint: a residual that vanishes modulo this
# prime is reported as zero without the exact big-integer pass.
_FINGERPRINT_PRIME = 2 ** 61 - 1


class _Frozen:
    """Immutable record with value equality, hash and repr over ``_fields``."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SymToeplitzTridiag(_Frozen):
    """Symmetric Toeplitz tridiagonal matrix: ``alpha`` diagonal, ``beta`` off-diagonal.

    ``n = 0`` denotes the empty matrix (determinant 1).
    """

    _fields = ("alpha", "beta", "n")

    def __init__(self, alpha: Scalar, beta: Scalar, n: int):
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"dimension must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"dimension must be >= 0, got {n}")
        for name, value in (("alpha", alpha), ("beta", beta)):
            if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "n", n)


class DetSequence(_Frozen):
    """Determinant sequence [A_0, ..., A_n] as ints or Fractions (exact) or floats.

    ``scale_exponent`` is always 0: the values are the determinants
    themselves, never rescaled.  It stays as a class constant because the
    benchmark's reference values (``perfbench/workloads.py``) still undo a
    scale with ``math.ldexp(value, scale_exponent)``.
    """

    _fields = ("values",)
    scale_exponent = 0

    def __init__(self, values: tuple):
        object.__setattr__(self, "values", values)


def _as_exact(value: Scalar, name: str) -> Union[int, Fraction]:
    if isinstance(value, bool):
        raise ModeError(f"{name} must be a number, got bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):  # numpy registers its scalar types
        return int(value)
    if isinstance(value, numbers.Real):
        if float(value).is_integer():
            return int(value)
        raise ModeError(
            f"{name}={value!r} is not an integer; exact mode needs integer or Fraction inputs"
        )
    raise ModeError(f"{name}={value!r} is not usable in exact mode")


def _as_float(value: Scalar, name: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ModeError(f"{name} lies beyond the double range that float mode needs") from None


def _inputs(m: SymToeplitzTridiag, mode: str) -> tuple:
    """(alpha, beta) of ``m`` in the arithmetic of ``mode``: ints or Fractions, or floats.

    Raises ModeError for an unknown mode and for inputs the mode cannot take.
    """
    if mode == EXACT:
        return _as_exact(m.alpha, "alpha"), _as_exact(m.beta, "beta")
    if mode == FLOAT:
        return _as_float(m.alpha, "alpha"), _as_float(m.beta, "beta")
    raise ModeError(f"unknown arithmetic mode {mode!r}")


def _continuants(alpha, b2, n: int, modulus: int | None = None):
    """Yield A_0, A_1, ..., A_n of the recurrence, mod ``modulus`` if given.

    A_0 = ``b2**0`` is 1 in the type of ``b2`` and A_1 = alpha*A_0, so
    floats, ints and Fractions run one loop: floats round once per
    operation, ints and Fractions are exact.  No product ``b2 * A_{-1}`` is
    formed: where beta**2 overflows to inf it would be nan, and A_0 and A_1
    are finite for any finite alpha.
    """
    if modulus:
        alpha %= modulus
    prev = b2 ** 0
    yield prev
    if n:
        prev2, prev = prev, alpha * prev
        yield prev
        for _ in range(n - 1):
            prev2, prev = prev, alpha * prev - b2 * prev2
            if modulus:
                prev %= modulus
            yield prev


def _continuant_kernel(b2, n, modulus=None):
    """The continuant kernel of ``A_k = alpha*A_{k-1} - b2*A_{k-2}`` at index n >= 1.

    ``kernel(alpha)`` returns (A_n, A_{n-1}, A_{n-2}) of the recurrence's
    own start, A_0 = 1 and A_{-1} = 0.  Index doubling: the constant
    coefficients give the addition formula
    ``A_{j+k} = A_j A_k - b2 A_{j-1} A_{k-1}``, so the pair (A_k, A_{k-1})
    goes to (A_{2k}, A_{2k-1}) or (A_{2k+1}, A_{2k}) in one step.  Starting
    from (A_1, A_0) = (alpha, 1), one such step per bit of n-1 below its top
    bit reaches (A_{n-1}, A_{n-2}), and a last recurrence step gives A_n, in
    place of 3n operations.  The bits of n-1 depend only on the recurrence,
    so they are taken here, once; a caller that evaluates many diagonals
    (energies) with one ``b2`` builds the kernel once and pays only for the
    arithmetic.

    The seeds are the ints 1 and 0, never values computed from alpha (which
    may be inf): a product or sum with an int keeps the bits and the type
    of a float, an array or a Fraction, and keeps ints exact.  At n <= 2
    the triple returns the seed 1 (and at n = 1 the seed 0 and alpha
    itself, reduced by ``modulus`` if given); ``wire_matrix.hat_dets``
    turns those into floats or arrays of the energies' shape, and the
    transmittance routes take them as they come.

    The factory picks one of two loop bodies, by the value of ``b2``:

    - ``b2 == 1`` without ``modulus``: the unit body, the Chebyshev
      recurrence ``U_k = alpha*U_{k-1} - U_{k-2}`` (``U_k = U_k(alpha/2)``
      of the second kind).  It never multiplies by ``b2``, so a step makes
      7 operations and the last step 2: one evaluation takes exactly
      ``7*(n-1).bit_length() - 5`` from n = 2 and none at n = 1, and
      building it none.  From n = 3 the first step's ``d * d`` (and
      ``d + d`` when that step is odd) acts on the int seed alone, so on
      arrays it makes no elementwise pass.  The transmittance routes run
      it in Chebyshev units, ``alpha = (eps0 - e)/|v|``, on floats and
      arrays; the exact pass runs it on ints when |beta| = 1.  It writes
      each step by augmented assignment into products it has just made
      (``t = alpha * c; t -= d + d; t *= c``), which on arrays updates in
      place, and it never writes into ``alpha`` or the pair ``(c, d)`` it
      carries (at k = 1, ``c`` is ``alpha`` itself), so the caller's arrays
      are left as they were.
    - Otherwise the ``b2`` body, 8 operations per step and 3 in the last:
      building it (``2 * b2``) and one evaluation take exactly
      ``8*(n-1).bit_length() - 4`` from n = 2 and 1 at n = 1, within the
      bound ``8*(n-1).bit_length() + 4``.  It serves public ``hat_dets``
      (floats and arrays), the exact pass (ints and Fractions) and, with
      ``modulus`` (ints only), the identity fingerprint: then the pair is
      reduced after every step and the triple once at the end, so the
      values equal those of ``_continuants`` with the same modulus.

    Both bodies run the same operations in the same order for every type,
    so float and array results agree bit for bit, and at ``b2 == 1`` they
    agree with each other (a product by 1 is exact, and ``2*c = c + c``).
    The unit body doubles by ``c + c`` and ``d + d``, cheaper than ``2 * c``
    on a float in CPython; the ``b2`` body by ``2 * c``, a multiplication
    that the fingerprint's cost count includes.
    """
    odd_bits = tuple(bit == "1" for bit in bin(n - 1)[3:])

    if b2 == 1 and not modulus:
        def unit(alpha):
            if n == 1:
                return alpha, 1, 0
            c, d = alpha, 1  # (U_k, U_{k-1}) at k = 1
            for odd in odd_bits:
                c2k = c * c
                c2k -= d * d
                if odd:
                    t = alpha * c
                    t -= d + d
                    t *= c
                    c, d = t, c2k
                else:
                    t = c + c
                    t -= alpha * d
                    t *= d
                    c, d = c2k, t
            u_n = alpha * c
            u_n -= d
            return u_n, c, d

        return unit

    b2x2 = 2 * b2

    def kernel(alpha):
        if n == 1:
            return (alpha % modulus if modulus else alpha), 1, 0
        c, d = alpha, 1  # (A_k, A_{k-1}) at k = 1
        for odd in odd_bits:
            c2k = c * c - b2 * (d * d)
            if odd:
                c, d = c * (alpha * c - b2x2 * d), c2k
            else:
                c, d = c2k, d * (2 * c - alpha * d)
            if modulus:
                c, d = c % modulus, d % modulus
        a_n = alpha * c - b2 * d
        if modulus:
            return a_n % modulus, c % modulus, d % modulus
        return a_n, c, d

    return kernel


def det_sequence(m: SymToeplitzTridiag, mode: str = FLOAT) -> DetSequence:
    """Determinant sequence [A_0, A_1, ..., A_n] via the three-term recurrence.

    Exact and float mode run the same loop, ``_continuants``; float mode
    rounds once per operation.  Once an entry is non-finite every later one
    is too, so only the last is checked on the way out.

    Raises
    ------
    ModeError
        Exact mode with inputs that are not integers or Fractions, or float
        mode with an input beyond the double range.
    NumericalError
        Float mode when some A_k leaves the double range; the message names
        the first such k.
    """
    alpha, beta = _inputs(m, mode)
    values = tuple(_continuants(alpha, beta * beta, m.n))
    if mode == FLOAT and not math.isfinite(values[-1]):
        k = next(k for k, value in enumerate(values) if not math.isfinite(value))
        raise NumericalError(f"determinant A_{k} leaves the double range")
    return DetSequence(values=values)


def det(m: SymToeplitzTridiag, mode: str = FLOAT):
    """Determinant A_n, the last element of ``det_sequence(m, mode)``.

    Raises ModeError and NumericalError as ``det_sequence``.
    """
    return det_sequence(m, mode).values[-1]


def corner_cofactor(m: SymToeplitzTridiag):
    """Corner cofactor of the (n, 1) entry, equal to beta**(n-1).

    The defining minor is triangular with beta along its diagonal, so the
    value is independent of alpha.  Returned with the type of ``beta``
    (int in, int out), except that a numpy ``beta`` is taken as a Python
    int or float first: a numpy integer power wraps around silently, and a
    numpy float power overflows to inf with only a warning.

    Raises
    ------
    DomainError
        n = 0 (no (n, 1) entry exists).
    NumericalError
        A float ``beta`` whose power ``beta**(n-1)`` leaves the double range.
    """
    if m.n < 1:
        raise DomainError("corner cofactor needs n >= 1")
    beta = m.beta
    if isinstance(beta, numbers.Integral):
        beta = int(beta)
    elif isinstance(beta, numbers.Real) and not isinstance(beta, Fraction):
        beta = float(beta)
    try:
        return beta ** (m.n - 1)
    except OverflowError:
        raise NumericalError(
            f"corner cofactor beta**(n-1) = {m.beta}**{m.n - 1} leaves the double range"
        ) from None


def _identity_gaps(b2, n_max: int, n_min: int, modulus: int | None = None):
    """The gaps of the identity at sizes n = n_min, ..., n_max, as a function of alpha.

    ``gaps(alpha)`` gives the pairs (beta**(2n-2), beta**(2n-2) -
    (A_{n-1}**2 - A_{n-2} A_n)), in order of n; ``b2`` is beta**2, shared by
    every alpha, and ``n_min`` is 2 or ``n_max``.  For a single size the
    power and ``_continuant_kernel`` are built here, once, and each alpha
    pays only for the kernel, O(log n) operations; every size from 2 takes
    one ``_continuants`` pass per alpha, streamed.  With ``modulus`` both
    values are only congruent to the exact ones (the continuants and the
    power are reduced, the difference is not).
    """
    if n_min == n_max:
        power = pow(b2, n_max - 1, modulus)
        kernel = _continuant_kernel(b2, n_max, modulus)

        def one_size(alpha):
            a_n, a_n1, a_n2 = kernel(alpha)
            return [(power, power - (a_n1 * a_n1 - a_n2 * a_n))]

        return one_size

    def every_size(alpha):
        continuants = _continuants(alpha, b2, n_max, modulus)
        a_n2, a_n1 = next(continuants), next(continuants)
        power = 1
        for a_n in continuants:
            power *= b2
            if modulus:
                power %= modulus
            yield power, power - (a_n1 * a_n1 - a_n2 * a_n)
            a_n2, a_n1 = a_n1, a_n

    return every_size


def _over_common_denominator(alphas, beta) -> tuple:
    """Integers [alpha * den for each alpha], beta * den and den, for the least common denominator."""
    ratios = [alpha.as_integer_ratio() for alpha in alphas]
    nb, db = beta.as_integer_ratio()
    den = math.lcm(db, *(d for _, d in ratios))
    return [na * (den // da) for na, da in ratios], nb * (den // db), den


def _exact_residuals(alpha, beta, mode: str, n_max: int, n_min: int) -> list:
    """Identity residuals at sizes n = n_min, ..., n_max >= 2 from one exact continuant pass.

    ``alpha`` and ``beta`` are in the arithmetic of ``mode``, as ``_inputs``
    gives them; the pass builds its own ``_identity_gaps``, without a
    modulus.  In float mode a nonzero residual whose quotient by
    beta**(2n-2) rounds to 0.0 is reported as the smallest subnormal with
    the residual's sign, so 0.0 always means an exactly zero residual.
    """
    if mode == FLOAT:
        # Scale both doubles to integers over a common power-of-two denominator;
        # the identity is homogeneous of degree 2n-2, so the scale cancels.
        (alpha,), beta, _ = _over_common_denominator([alpha], beta)
    out = []
    for power, residual in _identity_gaps(beta * beta, n_max, n_min)(alpha):
        if mode == EXACT:
            out.append(residual)
        elif power == 0:
            out.append(0.0 if residual == 0 else math.inf)
        else:
            rel = residual / power  # int true division rounds correctly
            if rel == 0.0 and residual:
                rel = math.ulp(0.0) if residual > 0 else -math.ulp(0.0)
            out.append(rel)
    return out


def _residuals(alphas, beta, mode: str, n_max: int, n_min: int) -> list[tuple[list, bool]]:
    """Identity residuals at sizes n = n_min, ..., n_max >= 2 for each alpha of ``alphas``.

    ``alphas`` and ``beta`` are in the arithmetic of ``mode``, as
    ``_inputs`` gives them.  Returns one (residuals, exact) pair per alpha;
    ``exact`` tells whether the exact pass ran.
    ``n_min`` is 2 (every size, one recurrence pass) or ``n_max`` (one size,
    by index doubling); the check and the exact pass run the same kernel.

    One fingerprint pass serves every alpha.  All alphas and ``beta`` are
    scaled to integers over one common denominator, and beta**2 (and, for
    one size, beta**(2n-2)) is reduced modulo ``_FINGERPRINT_PRIME`` once.
    The identity is homogeneous of degree 2n-2, so the common denominator
    scales an alpha's residual by a power of a divisor of itself, which is
    prime to the modulus whenever the denominator is: whether a residual
    vanishes does not depend on the batch.  Where all of an alpha's
    residuals vanish modulo the prime, the zeros the exact pass gives for a
    correct recurrence are returned (0.0 in float mode, 0 or Fraction(0) in
    exact mode); otherwise ``_exact_residuals`` computes that alpha's true
    values on its own.  A common denominator divisible by the prime leaves
    the check vacuous, so every alpha then takes the exact pass.
    """
    nums, b, den = _over_common_denominator(alphas, beta)
    p = _FINGERPRINT_PRIME
    size = n_max - n_min + 1
    gaps = _identity_gaps(b * b % p, n_max, n_min, p)
    out = []
    for alpha, num in zip(alphas, nums):
        if den % p and not any(residual % p for _, residual in gaps(num % p)):
            zero = 0.0 if mode == FLOAT else 0 * alpha * beta
            out.append(([zero] * size, False))
        else:
            out.append((_exact_residuals(alpha, beta, mode, n_max, n_min), True))
    return out


def identity_residual(m: SymToeplitzTridiag, mode: str = FLOAT):
    """Residual of the continuant identity beta**(2n-2) = A_{n-1}**2 - A_{n-2} A_n.

    Exact mode returns the raw difference (an int or Fraction, identically 0
    for a correct recurrence).  Float mode returns the residual divided by
    beta**(2n-2); because doubles are dyadic rationals the difference is
    evaluated in scaled integer arithmetic, which avoids the catastrophic
    cancellation a naive double-precision evaluation would suffer when the
    sequence entries dwarf beta**(2n-2).  A nonzero residual whose quotient
    underflows is returned as the smallest subnormal, ``math.ulp(0.0)``,
    with the residual's sign, so 0.0 always means zero.

    The residual is first evaluated modulo the prime 2**61 - 1.  A zero
    result means the residual is zero mod 2**61 - 1 (and is returned as 0,
    Fraction(0) or 0.0); only a nonzero one triggers the exact big-integer
    pass, whose value is then returned.  Both reach A_n by index doubling
    in ``_continuant_kernel``, the kernel that ``hat_dets`` runs, in
    O(log n) operations.

    Raises
    ------
    DomainError
        n < 2 (A_{n-2} undefined below the A_0 convention), unless the mode
        is unknown.
    ModeError
        An unknown mode; exact mode with inputs that are not integers or
        Fractions, or float mode with an input beyond the double range.
    """
    if m.n < 2 and mode in (EXACT, FLOAT):
        raise DomainError("identity residual needs n >= 2")
    alpha, beta = _inputs(m, mode)
    [(values, _)] = _residuals([alpha], beta, mode, m.n, m.n)
    return values[0]


def identity_residuals(m: SymToeplitzTridiag, mode: str = FLOAT) -> list:
    """``identity_residual`` of the leading blocks of sizes n = 2, ..., m.n, in one pass.

    Zero mod 2**61 - 1 at every size gives zeros; otherwise every value is
    exact.  Raises DomainError and ModeError as ``identity_residual``.
    """
    if m.n < 2 and mode in (EXACT, FLOAT):
        raise DomainError("identity residual needs n >= 2")
    alpha, beta = _inputs(m, mode)
    [(values, _)] = _residuals([alpha], beta, mode, m.n, 2)
    return values
