"""Transmittance of the wire by two independent analytic routes, plus currents.

The Green's-function route evaluates

    T(eps) = gamma**2 * cof**2 / |det C|**2,        cof = v**(n-1),

while the evolution-operator route evaluates

    T(eps) = gamma**2 / (2 |det C|**2)
             * (cof**2 + Chat_{n-1}**2 - Chat_{n-2} * Chat_n).

Both run in Chebyshev units (the paper's ``A_n = beta**n U_n(alpha/2beta)``):
with ``U_k = Chat_k/|v|**k``, ``g = gamma/|v|`` and
``det C~ = det C/|v|**n = U_n + i g U_{n-1} - (g**2/4) U_{n-2}``,

    T_GF = g**2 / |det C~|**2,
    T_EO = g**2 (1 + U_{n-1}**2 - U_{n-2} U_n) / (2 |det C~|**2),

so no power of v is taken: in the band |U_k| <= k + 1 for every v, and
neither ``v**(n-1)`` nor its square can leave the double range.  One
per-wire evaluator, ``_chebyshev``, takes the energies and gives the U_k at
``alpha = (eps0 - eps)/|v|`` (the kernel's unit body) and ``|det C~|**2``;
both routes, the equivalence report, ``spectrum`` and the quadrature read
it, and each public function shares one evaluation between the routes.
``spectrum`` walks its grid in blocks of ``_BLOCK`` energies, so the
temporaries of both routes stay block-sized.  They agree
because the continuant identity ``beta**(2n-2) = A_{n-1}**2 - A_{n-2} A_n``
reads ``U_{n-1}**2 - U_{n-2} U_n = 1`` in these units.  The equivalence
report verifies that bridge in one fingerprint pass per call (modulo
2**61 - 1, exactly where that check is nonzero) on the unscaled continuants
``Chat_k``, which are integers over a power of two; the check and its exact
pass run the ``b2`` body of the same kernel, O(log n) per energy.

The Landauer current is a sum over the n poles of the open wire, which the
Chebyshev form of the continuants gives in O(n) with no power of v: of log
potentials at T = 0 and of digamma potentials at T > 0.  Newton solves
half of the poles; the chain's reflection symmetry gives the other half.
At either temperature ``scipy.integrate.quad`` over T remains the fallback
wherever that sum's guards or its rounding bound decline it
(``landauer_current``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .tridiag_core import FLOAT, _continuant_kernel, _residuals
from .wire_matrix import EnergyLike, WireParams, _energies

_RECOMBINE_RTOL = 1e-9
_RECOMBINE_ATOL = 1e-12
_T_UPPER = 1.0 + 1e-9
_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200
# Newton steps of ``_pole_angles`` from its first-order start, over
# n = 1..400, 1000 and 3000: 2 to 4 up to h = 0.5, 3 to 5 up to h = 0.95,
# and 4 to 5 from there to h = 1 - 1e-12.  The solved half needs as many
# steps as a solve of all n poles.
_NEWTON_STEPS = 12
# A theta step at most this small leaves a root error of order its square.
_NEWTON_TOL = 1e-13
_ROUNDOFF = 2.0 ** -53  # unit roundoff of a double
# Energies per block of ``spectrum``.  A temporary of 4096 doubles (32 KB)
# stays below glibc's mmap threshold (128 KB), so the allocator reuses its
# pages from block to block instead of faulting fresh ones in; a block's
# dozen live temporaries take about 400 KB.
_BLOCK = 4096


@dataclass(frozen=True)
class EOTerms:
    """The three averaged evolution-operator terms entering the transmittance.

    ``term_u1`` and ``term_uN`` are the mean squared amplitudes reaching the
    first and last site from a lead state, ``term_im`` the interference term
    with the drive; recombined as
    ``gamma/(2*bandwidth) * (term_uN - term_u1) + term_im`` they give the
    evolution-operator transmittance.
    """

    term_u1: EnergyLike
    term_uN: EnergyLike
    term_im: EnergyLike


@dataclass(frozen=True)
class BiasWindow:
    """Chemical potentials of the two leads and a common temperature (k_B = 1)."""

    mu_left: float
    mu_right: float
    temperature: float = 0.0

    def __post_init__(self):
        for name in ("mu_left", "mu_right", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class CurrentResult:
    """Landauer current with its error estimate and integration window.

    Neither route takes a power of v, so no wire length or hopping makes
    the current fail before it is evaluated.

    ``error_estimate`` depends on the route ``landauer_current`` took: at
    every temperature it is normally the pole sum's own rounding bound (at
    most 1e-10 of ``|value|``); where the pole sum declines, it is
    ``scipy.integrate.quad``'s absolute error estimate.  ``window`` is the
    bias window at T = 0 and the bias window padded by 40 k_B T at T > 0, on
    either route.  Zero bias takes neither route: ``value`` and
    ``error_estimate`` are exactly 0 and ``window`` is the unpadded
    ``(mu, mu)`` at every temperature.
    """

    value: float
    error_estimate: float
    window: tuple[float, float]


@dataclass(frozen=True)
class TransmissionSpectrum:
    """Transmittance samples on a strictly increasing energy grid.

    Each sample column is validated by one ``min()`` and one ``max()``: a
    non-finite sample raises NumericalError, a finite one outside
    ``[0, 1 + 1e-9]`` raises PreconditionError (a ValueError).
    """

    energies: np.ndarray
    params: WireParams
    method: str
    t_gf: np.ndarray | None = None
    t_eo: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.energies, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("energy grid must be a non-empty 1-d array")
        if not np.all(grid[1:] > grid[:-1]):  # one bool per point, no float temporary
            raise ValueError("energy grid must be strictly increasing")
        for name in ("t_gf", "t_eo"):
            t = getattr(self, name)
            if t is None:
                continue
            t = np.asarray(t, dtype=float)
            if t.shape != grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            # NaN propagates through min and max and an infinity is one of
            # them, so both are finite exactly when every sample is.
            lo, hi = t.min(), t.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise NumericalError(f"{name} has non-finite samples")
            if lo < 0.0 or hi > _T_UPPER:
                raise PreconditionError(f"{name} leaves [0, 1 + 1e-9]")

    def abs_diff(self) -> np.ndarray:
        if self.t_gf is None or self.t_eo is None:
            raise ValueError("abs_diff needs both routes present")
        return np.abs(self.t_gf - self.t_eo)


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-energy comparison of the two transmittance routes.

    ``hat_gap`` is the combination U_{n-1}**2 - U_{n-2}*U_n in Chebyshev
    units (``U_k = Chat_k/|v|**k``), as the EO route computes it: its exact
    value is 1 at every energy, so its nonzero value shows the two route
    formulas differ termwise, and its distance from 1 is the rounding of the
    route (large out of band, where the squares cancel).
    ``bridge_residual_rel`` is the relative residual of the continuant
    identity that equates the unscaled gap Chat_{n-1}**2 - Chat_{n-2}*Chat_n
    to the squared corner cofactor v**(2n-2): 0.0 where the residual is
    zero mod 2**61 - 1, the exactly computed value otherwise (the smallest
    subnormal where a nonzero value underflows).
    ``bridge_exact_fallbacks`` counts the energies whose residual was nonzero
    mod 2**61 - 1 and so took the exact big-integer pass; it is 0 for a
    correct recurrence.  The check and the exact pass reach Chat_n by index
    doubling in the ``b2`` body of ``tridiag_core._continuant_kernel``, the
    kernel whose unit body gives T, in O(log n) operations per energy.  The
    check of all energies is one pass over one common denominator; its
    flags and values equal those of per-energy ``identity_residual`` calls.
    """

    energies: np.ndarray
    abs_diff: np.ndarray
    max_abs_diff: float
    hat_gap: np.ndarray
    min_abs_hat_gap: float
    max_abs_hat_gap: float
    bridge_residual_rel: np.ndarray
    max_bridge_residual_rel: float
    bridge_exact_fallbacks: int


def _chebyshev(p: WireParams):
    """``(g, dets)``: the routes' one evaluator of their continuants, built per wire.

    ``dets(eps)``, at checked energies (a float or an array), divides the fresh
    ``alpha = eps0 - eps`` by ``|v|`` in place and gives the unit kernel's
    ``(U_n, U_{n-1}, U_{n-2})`` there and ``|det C~|**2 = (U_n - q U_{n-2})**2
    + (g U_{n-1})**2`` with ``g = gamma/|v|`` and ``q = (0.25*g)*g``
    (``corner_split``'s grouping), squared in place in the split's two fresh
    values.  At n <= 2 the kernel's int seeds stay ints, which keep the kind
    and bits of every route output.  A scalar ``|det C~|**2`` of 0 raises
    NumericalError (arrays give nan or inf).  ``_eo_terms``' ``pref/v**2``
    (here it would move ``EOTerms`` bits), the bridge's unscaled ``eps0 - grid``
    and ``_pole_current``'s pole map keep their own ``|v|`` and ``eps0``.
    """
    eps0 = p.eps0
    av = abs(float(p.v))
    g = p.gamma / av
    q = 0.25 * g * g
    kernel = _continuant_kernel(1.0, p.n)

    def dets(eps):
        alpha = eps0 - eps
        alpha /= av
        h = kernel(alpha)
        u_n, u_n1, u_n2 = h
        re = u_n - q * u_n2
        im = g * u_n1
        re *= re
        im *= im
        re += im
        if isinstance(re, float) and re == 0.0:
            raise NumericalError("|det C|**2 underflows to 0 at a scalar energy")
        return h, re

    return g, dets


def _dets(p: WireParams, eps: EnergyLike) -> tuple:
    """``g``, the U_k and ``|det C~|**2`` at ``eps`` (``_energies`` checks it), for both routes."""
    g, dets = _chebyshev(p)
    return (g, *dets(_energies(eps)))


def _require_finite(what: str, *values: EnergyLike) -> None:
    if not all(np.all(np.isfinite(x)) for x in values):
        raise NumericalError(f"{what} is non-finite (the recurrence left the double range)")


def transmittance_gf(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Green's-function transmittance gamma**2 * cof**2 / |det C|**2.

    Evaluated as ``g**2 / |det C~|**2`` in Chebyshev units (module
    docstring).  Accepts a scalar or an array of probe energies.

    Raises
    ------
    NumericalError
        ``|det C|**2`` underflows to 0 at a scalar energy, or any
        transmittance is non-finite.
    """
    with np.errstate(all="ignore"):  # non-finite values raise below
        g, _, det_sq = _dets(p, eps)
        t = g * g / det_sq
    _require_finite("GF transmittance", t)
    return t


def eo_terms(p: WireParams, eps: EnergyLike) -> EOTerms:
    """The three averaged evolution-operator terms at probe energy ``eps``.

    Raises
    ------
    NumericalError
        ``|det C|**2`` underflows to 0 at a scalar energy, or any term is
        non-finite.
    """
    with np.errstate(all="ignore"):  # non-finite values raise below
        terms = _eo_terms(p, *_dets(p, eps))
    _require_finite("EO term", terms.term_u1, terms.term_uN, terms.term_im)
    return terms


def _eo_terms(p: WireParams, g: float, h: tuple, det_sq: EnergyLike) -> EOTerms:
    """The three averaged terms, each built in one temporary of its own.

    With pref = 2*pi*v_lead**2, q = gamma**2/4 and d = |det C|**2::

        term_u1 = pref * (Chat_{n-1}**2 + q*Chat_{n-2}**2) / d
        term_uN = pref * cof**2 / d
        term_im = gamma**2/2 * (2*Chat_{n-1}**2 - Chat_{n-2}*Chat_n + q*Chat_{n-2}**2) / d

    evaluated in Chebyshev units: ``h`` holds the U_k, ``d`` is
    ``|det C~|**2``, ``g = gamma/|v|`` stands for gamma and ``pref/v**2``
    for pref, so ``cof`` is 1.  Each keeps the left-to-right grouping
    written here (a rounded product or sum does not depend on operand
    order), so the augmented assignments change where a value lands, not
    its bits.
    """
    u_n, u_n1, u_n2 = h
    av = abs(float(p.v))
    pref = 2.0 * math.pi * p.v_lead ** 2 / av / av
    # 0.25*g*g*U_{n-2}**2, shared by term_u1 and term_im.
    corner = 0.25 * g * g * u_n2
    corner *= u_n2
    term_u1 = u_n1 * u_n1
    term_u1 += corner
    term_u1 *= pref
    term_u1 /= det_sq
    term_uN = pref / det_sq
    term_im = 2.0 * u_n1
    term_im *= u_n1
    term_im -= u_n2 * u_n
    term_im += corner
    term_im *= 0.5 * g * g
    term_im /= det_sq
    return EOTerms(term_u1=term_u1, term_uN=term_uN, term_im=term_im)


def _eo(
    p: WireParams, g: float, h: tuple, det_sq: EnergyLike, out: np.ndarray | None = None
) -> tuple[EnergyLike, EnergyLike]:
    """EO transmittance and the gap U_{n-1}**2 - U_{n-2}*U_n, in Chebyshev units.

    ``g**2 (1 + gap) / (2 |det C~|**2)``.  The recombination check reuses
    the temporaries of ``_eo_terms``, which this call owns, by augmented
    assignment in the order of the closed form.  With ``out`` (an array of
    the energies' shape) the final division by ``|det C~|**2`` writes the
    transmittance there, and ``out`` is returned; its values are written
    before the check, which may still raise, naming an overflow as such.
    """
    u_n, u_n1, u_n2 = h
    gap = u_n1 * u_n1
    gap -= u_n2 * u_n
    t = gap + 1.0
    t *= 0.5 * g * g
    if out is None:
        t /= det_sq
    else:
        t = np.divide(t, det_sq, out=out)
    terms = _eo_terms(p, g, h, det_sq)
    recombined = terms.term_uN
    recombined -= terms.term_u1
    recombined *= 0.5 * p.gamma / p.bandwidth
    recombined += terms.term_im
    tol = np.maximum(np.abs(t), np.abs(recombined))
    tol *= _RECOMBINE_RTOL
    tol += _RECOMBINE_ATOL
    recombined -= t
    if not np.all(np.abs(recombined) <= tol):
        _require_finite("EO transmittance", t)
        raise NumericalError("averaged-term recombination disagrees with the closed form")
    return t, gap


def transmittance_eo(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Evolution-operator transmittance, independent of the GF route.

    gamma**2/(2 |det C|**2) * (cof**2 + Chat_{n-1}**2 - Chat_{n-2}*Chat_n),
    evaluated in Chebyshev units (module docstring).  The value is
    re-derived from the three averaged terms, which pins the wide-band
    bookkeeping 2*pi*v_lead**2 = gamma*bandwidth.

    Raises
    ------
    NumericalError
        The recombined terms disagree with the closed form, or either is
        non-finite (the recurrence overflowed far outside the band), or
        ``|det C|**2`` underflows to 0 at a scalar energy.
    """
    with np.errstate(all="ignore"):  # non-finite values raise in _eo
        return _eo(p, *_dets(p, eps))[0]


def equivalence_report(p: WireParams, energies: EnergyLike) -> EquivalenceReport:
    """Compare the two routes on a grid and verify the identity bridge.

    Both routes run on the whole grid at once.  The bridge takes one
    fingerprint pass for the call (``tridiag_core._residuals``): the
    energies and ``-v`` share one power-of-two denominator, and ``beta**2``
    and ``beta**(2n-2)`` modulo 2**61 - 1 are taken once, so each energy
    pays only for its continuants by index doubling.  An energy whose
    residual is nonzero modulo 2**61 - 1 takes the exact pass, on its own.

    Raises
    ------
    PreconditionError
        Empty energy grid, or one of more than one dimension.
    """
    grid = np.atleast_1d(np.asarray(energies, dtype=float))
    if grid.size == 0 or grid.ndim > 1:
        raise PreconditionError("energy grid must be a scalar or a non-empty 1-d array")
    with np.errstate(all="ignore"):  # non-finite values raise in _eo
        g, h, det_sq = _dets(p, grid)
        t_gf = g * g / det_sq
        t_eo, gap = _eo(p, g, h, det_sq)
    diff = np.abs(t_gf - t_eo)
    passes = _residuals((p.eps0 - grid).tolist(), float(-p.v), FLOAT, p.n, p.n)
    bridge = np.array([abs(values[0]) for values, _ in passes])
    return EquivalenceReport(
        energies=grid,
        abs_diff=diff,
        max_abs_diff=float(diff.max()),
        hat_gap=gap,
        min_abs_hat_gap=float(np.abs(gap).min()),
        max_abs_hat_gap=float(np.abs(gap).max()),
        bridge_residual_rel=bridge,
        max_bridge_residual_rel=float(bridge.max()),
        bridge_exact_fallbacks=sum(exact for _, exact in passes),
    )


def spectrum(
    p: WireParams,
    e_min: float,
    e_max: float,
    points: int,
    method: str = "both",
) -> TransmissionSpectrum:
    """Transmittance on a uniform inclusive grid, by one or both routes.

    The evaluator of ``_chebyshev`` is built once per call; the routes run
    it over the grid in blocks of ``_BLOCK`` energies, in grid order, and
    write into outputs allocated once; every temporary is block-sized.
    Each block's GF quotient ``g**2 / |det C~|**2`` and EO transmittance
    are divided straight into their slices of the outputs (``out=``), with
    no block copy.  Each value is elementwise, so every sample has the bits of
    ``transmittance_gf(p, grid)`` and ``transmittance_eo(p, grid)``, and the
    first failing block raises the error the whole grid would.
    ``TransmissionSpectrum`` then validates the whole result.

    Raises
    ------
    ValueError
        Invalid grid bounds (including a width ``e_max - e_min`` beyond the
        double range), point count, or method.
    NumericalError
        A route's check fails, or a computed sample is non-finite or leaves [0, 1 + 1e-9].
    """
    if not (math.isfinite(e_min) and math.isfinite(e_max)) or not e_min < e_max:
        raise ValueError(f"need finite e_min < e_max, got [{e_min}, {e_max}]")
    # On Python floats an overflowing width is inf, not a numpy RuntimeWarning.
    if not math.isfinite(float(e_max) - float(e_min)):
        raise ValueError(
            f"grid width e_max - e_min leaves the double range, got [{e_min}, {e_max}]"
        )
    if not isinstance(points, numbers.Integral) or points < 2:
        raise ValueError(f"need an integer count of at least 2 grid points, got {points!r}")
    if method not in ("gf", "eo", "both"):
        raise ValueError(f"method must be gf, eo or both, got {method!r}")
    grid = np.linspace(e_min, e_max, points)
    t_gf = np.empty(points) if method in ("gf", "both") else None
    t_eo = np.empty(points) if method in ("eo", "both") else None
    g, dets = _chebyshev(p)
    # Non-finite values raise in _eo or in TransmissionSpectrum.
    with np.errstate(all="ignore"):
        for start in range(0, points, _BLOCK):
            block = slice(start, start + _BLOCK)
            h, det_sq = dets(grid[block])  # finite energies: linspace of finite bounds
            if t_gf is not None:
                np.divide(g * g, det_sq, out=t_gf[block])
            if t_eo is not None:
                _eo(p, g, h, det_sq, out=t_eo[block])
    try:
        return TransmissionSpectrum(energies=grid, params=p, method=method, t_gf=t_gf, t_eo=t_eo)
    except PreconditionError as exc:  # the samples computed from valid arguments left [0, 1]
        raise NumericalError(str(exc)) from None


def chain_resonances(p: WireParams) -> np.ndarray:
    """Eigenenergies of the isolated chain: eps0 + 2 v cos(m pi / (n+1))."""
    m = np.arange(1, p.n + 1)
    return p.eps0 + 2.0 * p.v * np.cos(m * np.pi / (p.n + 1))


def _pole_angles(n: int, h: float) -> np.ndarray | None:
    """theta_k, k = 1..n, with ``w = exp(i theta_k)`` the poles of an n-site open wire.

    Newton on ``i n theta + log(w + ih) - log(1 + ihw) = i pi k``, for
    k = 1..ceil(n/2) at once, taking the two logs as one, ``log(A/B)``
    (A = w + ih, B = 1 + ihw).  That is the same equation on the solved
    half: there Re theta <= pi/2, |w| <= 1 and h < 1, so arg A lies in
    (0, pi/2] and Re B >= 1 - h > 0 puts arg B in [0, pi/2); the arg of
    A/B then lies in (-pi/2, pi/2], where the principal log of the quotient
    is the difference of the principal logs, with the same branch i pi k
    and the same roots.  Newton starts from the roots to first order in h:
    ``log(A/B) = i theta + 2h sin(theta) + O(h**2)`` moves the chain angles
    ``theta_c = pi k/(n+1)`` (the roots at h = 0) to
    ``theta_c + 2ih sin(theta_c)/(n+1)``, which keeps an odd n's middle
    start on Re theta = pi/2.

    The chain is bipartite with the same corner i gamma/2 at both
    ends, so flipping the sign on every other site maps the poles onto
    ``2 eps0 - conj(lambda)``: they pair as
    ``theta_{n+1-k} = pi - conj(theta_k)``, that is ``w -> -conj(w)`` and
    ``lambda_{n+1-k} = 2 eps0 - conj(lambda_k)``, and the other half is
    taken from that relation, in k order.  An odd n's middle root is its
    own mirror and is solved.  Returns ``None`` when a step is still above
    ``_NEWTON_TOL`` after ``_NEWTON_STEPS`` steps.
    """
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    chain = (math.pi / (n + 1)) * k
    theta = chain + (2j * h / (n + 1)) * np.sin(chain)
    branch = (1j * math.pi) * k
    ih = 1j * h
    iq = 1j * (1.0 + h * h)
    for _ in range(_NEWTON_STEPS):
        it = 1j * theta
        w = np.exp(it)
        a = w + ih
        b = 1.0 + ih * w
        step = (n * it + np.log(a / b) - branch) / (1j * n + iq * w / (a * b))
        theta -= step
        if np.abs(step).max() <= _NEWTON_TOL:
            return np.concatenate((theta, math.pi - theta[: n - half][::-1].conj()))
    return None


def _pole_current(p: WireParams, bias: BiasWindow) -> tuple[float, float] | None:
    """The current as a sum over the n poles of the open wire, at any temperature.

    With ``x = (eps0 - z)/(2|v|) = (w + 1/w)/2`` and ``h = gamma/(2|v|)``, the
    Chebyshev form of the continuants closes ``det C`` with both lead corners:

        (w - 1/w) det C(z) = |v|**n [w**(n-1) (w + ih)**2 - w**(-n-1) (1 + ihw)**2].

    Its zeros with |w| < 1 are the poles ``lambda_j = eps0 - |v|(w + 1/w)``
    (Im > 0) of ``G = (C**-1)_{1n} = sum_j a_j / (lambda_j - z)``, one per
    chain mode k = 1..n (``_pole_angles``, which solves k <= ceil(n/2) and
    mirrors the rest).  On a root
    ``w**n (w + ih) = (-1)**k (1 + ihw)``, so the residue
    ``a_j = sign(v)**(n-1) (-1)**k (w**2 - 1)**2 / (2w (n AB + (1 + h**2) w))``
    (A = w + ih, B = 1 + ihw) and ``conj(G(conj lambda_j)) = sign(v)**(n-1)
    (-1)**k AB / (2i gamma (1 + h**2) w)`` hold no power of v or w.  At
    n = 1, where v does not enter G, ``max(|v|, gamma)`` stands for |v|.  Then
    ``T(e) = 2 gamma**2 Re sum_j a_j conj(G(conj lambda_j)) / (lambda_j - e)``
    and each term integrates against f_L - f_R in closed form:

        I = 2 gamma**2 Re sum_j a_j conj(G(conj lambda_j)) [P_j(mu_R) - P_j(mu_L)],

    with the potential ``P_j(mu) = psi(1/2 - i(lambda_j - mu)/(2 pi T))`` at
    T > 0 and its T -> 0 limit ``P_j(mu) = log(lambda_j - mu)`` at T = 0,
    the integral of 1/(lambda_j - e) over the bias window.  Only the
    potentials depend on T; at T = 0 the sum needs numpy alone.

    The second value is a rounding bound, the sum of: 8 ulps of each
    potential (the cancellation of the difference); the most a pole or a
    potential off by 8 ulps of its scale moves each potential, through
    ``|psi'(x + iy)| <= pi tanh(pi |y|)/(2|y|)`` for x >= 1/2 at T > 0 and
    ``1/|lambda_j - mu|`` at T = 0; ``n + 16`` ulps of every term (their
    products and sum); and the residue defect ``|sum_j a_j| / sum_j |a_j|``
    (0 for n >= 2, since G falls off as z**-n; ``a_1 = 1`` at n = 1) times
    the terms, which catches a lost or doubled root.

    Returns ``None``, so that the quadrature runs instead, when h >= 1 (from
    h = 1, the superradiance transition of the open chain, two poles leave
    the chain branches that the Newton starts follow), when Newton does not
    converge on n roots in the upper half-plane, or when the sum is not
    finite or its bound exceeds ``_QUAD_EPSREL * |I|``.  The last also
    declines where the potential differences cancel to below their
    rounding: bias windows far outside the band, and temperatures far above
    the bias.
    """
    n, g = p.n, p.gamma
    # v does not enter a one-site G = 1/(eps0 + i gamma - z), so any unit
    # |v| > gamma/2 serves there; the larger of |v| and gamma keeps h <= 1/2.
    av = abs(p.v) if n > 1 else max(abs(p.v), g)
    h = 0.5 * g / av
    if not h < 1.0:
        return None
    theta = _pole_angles(n, h)
    if theta is None:
        return None
    w = np.exp(1j * theta)
    ih = 1j * h
    q = 1.0 + h * h
    ab = (w + ih) * (1.0 + ih * w)
    m = (w * w - 1.0) ** 2 / (2.0 * w * (n * ab + q * w))  # a_j up to its sign
    t = m * ab / w * (g / (1j * q))  # 2 gamma**2 a_j conj(G(conj lambda_j))
    lam = p.eps0 - av * (w + 1.0 / w)
    if not lam.imag.min() > 0.0:
        return None
    # Row 0 holds the right lead's potentials of the poles, row 1 the left's.
    mu = np.array([[bias.mu_right], [bias.mu_left]])
    temperature = bias.temperature
    if temperature > 0.0:
        from scipy.special import psi

        z = 0.5 - (1j / (2.0 * math.pi * temperature)) * (lam - mu)
        pot = psi(z)
        # |psi'(x + iy)| <= pi tanh(pi |y|) / (2|y|) for x >= 1/2, and dz/dlambda
        # is 1/(2 pi T).
        y = np.maximum(np.abs(z.imag), 1e-300)
        slope = np.tanh(math.pi * y) / y / (4.0 * temperature)
    else:
        offset = lam - mu
        pot = np.log(offset)
        slope = 1.0 / np.abs(offset)
    terms = t * (pot[0] - pot[1])
    value = float(terms.sum().real)
    size = float(np.abs(terms).sum())
    defect = abs(complex(m[1::2].sum() - m[::2].sum()) - (n == 1)) / float(np.abs(m).sum())
    abs_t = np.abs(t)
    potential = float((abs_t * np.abs(pot)).sum())
    # A pole or a potential off by d moves its potential by at most slope * d.
    reach = abs(p.eps0) + 4.0 * av + np.abs(mu)
    shift = float((abs_t * (slope * reach)).sum())
    bound = _ROUNDOFF * (8.0 * (potential + shift) + (n + 16) * size) + defect * size
    if not (math.isfinite(value) and bound <= _QUAD_EPSREL * abs(value)):
        return None
    return value, bound


def landauer_current(p: WireParams, bias: BiasWindow) -> CurrentResult:
    """Landauer current integral(f_L - f_R) * T(eps) deps, in units e = hbar = 1.

    Two routes give the value; the guards of ``_pole_current`` pick one,
    and no option does.

    - The current is first taken as a sum over the n poles of the open wire
      (``_pole_current``), in O(n) with no quadrature, at every
      temperature: log potentials at T = 0, digamma potentials at T > 0.
      ``error_estimate`` is then that sum's own rounding bound, at most
      ``_QUAD_EPSREL * |value|``.
    - Where a guard fails (h = gamma/(2|v|) >= 1 with n >= 2, Newton not
      converged on n poles, or a bound above that tolerance),
      ``scipy.integrate.quad`` integrates the GF transmittance over the
      window instead, with the Fermi functions in its integrand at T > 0,
      and ``error_estimate`` is quad's absolute error estimate.

    ``window`` is the same on either route: the bias window at T = 0,
    padded by 40 k_B T on both sides at T > 0, beyond which the occupation
    difference is below 1e-17.  Chain resonance energies are
    passed to the quadrature as break points so narrow peaks are not
    missed; when there are at least 200 of them (the subinterval limit), the
    limit is raised by their count.  Zero bias returns exactly 0, with
    error estimate 0 and the unpadded window ``(mu, mu)`` at every
    temperature.

    For the quadrature, T(eps) is the GF transmittance in Chebyshev units
    from the per-wire evaluator of ``_chebyshev``, built once per call with
    the numerator ``g**2``, so each quadrature evaluation pays only for
    arithmetic: the evaluator (``alpha = (eps0 - eps)/|v|``, the kernel's
    about 7*log2(n) float operations and ``|det C~|**2``), the GF quotient
    and, at T > 0, the occupation difference
    ``f_L - f_R = (tanh(b) - tanh(a))/2`` with
    ``a, b = (eps - mu_L)/2T, (eps - mu_R)/2T``, which keeps its digits
    where both Fermi functions are near 1/2 (T far above the bias).  One
    integrand serves both temperatures, so a quadrature point costs three
    Python frames: the integrand, the evaluator and the kernel.  The values
    are bit-identical to ``transmittance_gf(p, eps)``.  No power of v is
    taken, so nothing is checked before the routes run.

    Raises
    ------
    NumericalError
        The padded window or its width leaves the double range,
        ``|det C|**2`` underflows to 0 inside the window, or the quadrature
        returns a non-finite value or error estimate.
    """
    if bias.mu_left == bias.mu_right:
        return CurrentResult(value=0.0, error_estimate=0.0, window=(bias.mu_left, bias.mu_right))
    lo = min(bias.mu_left, bias.mu_right)
    hi = max(bias.mu_left, bias.mu_right)
    sign = 1.0 if bias.mu_left > bias.mu_right else -1.0
    warm = bias.temperature > 0.0
    mu_left, mu_right, temperature = bias.mu_left, bias.mu_right, bias.temperature
    if warm:
        pad = 40.0 * temperature
        lo -= pad
        hi += pad
        if not math.isfinite(hi - lo):  # also inf when an end itself overflowed
            raise NumericalError(
                f"the bias window padded by 40*T at temperature {temperature!r}, "
                "or its width, leaves the double range"
            )
    with np.errstate(all="ignore"):  # a stray Newton iterate fails a guard instead
        poles = _pole_current(p, bias)
    if poles is not None:
        return CurrentResult(value=poles[0], error_estimate=poles[1], window=(lo, hi))
    g, dets = _chebyshev(p)
    num = g * g
    tanh = math.tanh

    def integrand(e: float) -> float:
        det_sq = dets(e)[1]
        if warm:
            # f_L - f_R with f(e) = 0.5 - 0.5*tanh(0.5*(e - mu)/T), the Fermi function.
            occ = 0.5 * (tanh(0.5 * (e - mu_right) / temperature)
                         - tanh(0.5 * (e - mu_left) / temperature))
            return occ * (num / det_sq)
        return num / det_sq

    breaks = [e for e in chain_resonances(p) if lo < e < hi]
    # QUADPACK needs more subintervals than break points; only then is the
    # limit raised, so every other call keeps its exact arguments.
    limit = _QUAD_LIMIT + len(breaks) if len(breaks) >= _QUAD_LIMIT else _QUAD_LIMIT
    # Imported here: only the current integrates, so the spectrum and evolve
    # commands load numpy alone, and ``import qwire`` and identity neither.
    from scipy.integrate import quad

    value, abserr = quad(
        integrand,
        lo,
        hi,
        points=sorted(breaks) or None,
        limit=limit,
        epsabs=_QUAD_EPSABS,
        epsrel=_QUAD_EPSREL,
    )
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise NumericalError(
            f"the current quadrature at temperature {temperature!r} returned "
            f"{value!r} with error estimate {abserr!r}"
        )
    if bias.temperature == 0.0:
        value *= sign
    return CurrentResult(value=value, error_estimate=abserr, window=(lo, hi))
