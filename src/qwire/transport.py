"""Transmittance of the wire by two independent analytic routes, plus currents.

The Green's-function route evaluates

    T(eps) = gamma**2 * cof**2 / |det C|**2,        cof = v**(n-1),

while the evolution-operator route evaluates

    T(eps) = gamma**2 / (2 |det C|**2)
             * (cof**2 + Chat_{n-1}**2 - Chat_{n-2} * Chat_n).

Both read one ``HatDets`` and divide by one ``|det C|**2``, which each public
function evaluates once and shares between the routes.  ``spectrum`` walks
its grid in blocks of ``_BLOCK`` energies, so the temporaries of both routes
stay block-sized while only the grid and the outputs span the whole grid.
They agree because the continuant identity turns
``Chat_{n-1}**2 - Chat_{n-2}*Chat_n`` into ``v**(2n-2) = cof**2``; the
equivalence report verifies that bridge in one fingerprint pass per call
(modulo 2**61 - 1, exactly where that check is nonzero) and shows the
combination is generically nonzero, i.e. the identity is doing real work.
The check, its exact pass and ``hat_dets`` all reach the continuants by
index doubling in one kernel, ``tridiag_core._continuant_kernel``, O(log n)
per energy, so the bridge verifies the code that produces T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .tridiag_core import FLOAT, _continuant_kernel, _residuals
from .wire_matrix import (
    EnergyLike,
    HatDets,
    WireParams,
    corner_cofactor_wire,
    hat_dets,
)

_RECOMBINE_RTOL = 1e-9
_RECOMBINE_ATOL = 1e-12
_T_UPPER = 1.0 + 1e-9
_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200
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
    """Landauer current with the integrator's error estimate and window."""

    value: float
    error_estimate: float
    window: tuple[float, float]


@dataclass(frozen=True)
class TransmissionSpectrum:
    """Transmittance samples on a strictly increasing energy grid."""

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
            if not np.all(np.isfinite(t)):
                raise NumericalError(f"{name} has non-finite samples")
            if t.min() < 0.0 or t.max() > _T_UPPER:
                raise ValueError(f"{name} leaves [0, 1 + 1e-9]")

    def abs_diff(self) -> np.ndarray:
        if self.t_gf is None or self.t_eo is None:
            raise ValueError("abs_diff needs both routes present")
        return np.abs(self.t_gf - self.t_eo)


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-energy comparison of the two transmittance routes.

    ``hat_gap`` is the combination Chat_{n-1}**2 - Chat_{n-2}*Chat_n whose
    generic nonzero value shows the two route formulas differ termwise;
    ``bridge_residual_rel`` is the relative residual of the continuant
    identity that equates the gap to the squared corner cofactor: 0.0 where
    the residual is zero mod 2**61 - 1, the exactly computed value otherwise
    (the smallest subnormal where a nonzero value underflows).
    ``bridge_exact_fallbacks`` counts the energies whose residual was nonzero
    mod 2**61 - 1 and so took the exact big-integer pass; it is 0 for a
    correct recurrence.  The check and the exact pass reach Chat_n by index
    doubling in ``tridiag_core._continuant_kernel``, the kernel that
    ``hat_dets`` runs, in O(log n) operations per energy.  The check of all
    energies is one pass over one common denominator; its flags and values
    equal those of per-energy ``identity_residual`` calls.
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


def _gf_numerator(p: WireParams) -> float:
    """gamma**2 * cof**2, the energy-independent numerator of the GF route.

    Raises
    ------
    NumericalError
        ``cof`` or the numerator leaves the double range.
    """
    cof = corner_cofactor_wire(p)
    num = p.gamma ** 2 * cof * cof
    if not math.isfinite(num):
        raise NumericalError(
            f"GF numerator gamma**2 * cof**2 = {p.gamma}**2 * ({p.v}**{p.n - 1})**2 "
            "leaves the double range"
        )
    return num


def _dets(p: WireParams, eps: EnergyLike) -> tuple[HatDets, EnergyLike]:
    """``hat_dets(p, eps)`` and ``|det C|**2`` from its corner split, for both routes."""
    h = hat_dets(p, eps)
    re, im = h.corner_split(p.gamma)
    det_sq = re * re + im * im
    # Only a scalar quotient by 0.0 raises (ZeroDivisionError); arrays give nan or inf.
    if isinstance(det_sq, float) and det_sq == 0.0:
        raise NumericalError("|det C|**2 underflows to 0 at a scalar energy")
    return h, det_sq


def _require_finite(what: str, *values: EnergyLike) -> None:
    if not all(np.all(np.isfinite(x)) for x in values):
        raise NumericalError(f"{what} is non-finite (the recurrence left the double range)")


def transmittance_gf(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Green's-function transmittance gamma**2 * cof**2 / |det C|**2.

    Accepts a scalar or an array of probe energies.

    Raises
    ------
    NumericalError
        The numerator leaves the double range, ``|det C|**2`` underflows to 0
        at a scalar energy, or any transmittance is non-finite.
    """
    with np.errstate(all="ignore"):  # non-finite values raise below
        det_sq = _dets(p, eps)[1]  # hat_dets and its zero check precede the numerator
        t = _gf_numerator(p) / det_sq
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


def _eo_terms(p: WireParams, h: HatDets, det_sq: EnergyLike) -> EOTerms:
    """The three averaged terms, each built in one temporary of its own.

    With pref = 2*pi*v_lead**2, q = gamma**2/4 and d = |det C|**2::

        term_u1 = pref * (Chat_{n-1}**2 + q*Chat_{n-2}**2) / d
        term_uN = pref * cof**2 / d
        term_im = gamma**2/2 * (2*Chat_{n-1}**2 - Chat_{n-2}*Chat_n + q*Chat_{n-2}**2) / d

    Each keeps the left-to-right grouping written here (a rounded product or
    sum does not depend on operand order), so the augmented assignments
    change where a value lands, not its bits.
    """
    g = p.gamma
    pref = 2.0 * math.pi * p.v_lead ** 2
    cof = corner_cofactor_wire(p)
    # 0.25*g*g*Chat_{n-2}**2, shared by term_u1 and term_im.
    corner = 0.25 * g * g * h.c_n2
    corner *= h.c_n2
    term_u1 = h.c_n1 * h.c_n1
    term_u1 += corner
    term_u1 *= pref
    term_u1 /= det_sq
    term_uN = pref * cof * cof / det_sq
    term_im = 2.0 * h.c_n1
    term_im *= h.c_n1
    term_im -= h.c_n2 * h.c_n
    term_im += corner
    term_im *= 0.5 * g * g
    term_im /= det_sq
    return EOTerms(term_u1=term_u1, term_uN=term_uN, term_im=term_im)


def _eo(p: WireParams, h: HatDets, det_sq: EnergyLike) -> tuple[EnergyLike, EnergyLike]:
    """EO transmittance and the hat gap Chat_{n-1}**2 - Chat_{n-2}*Chat_n.

    The recombination check reuses the temporaries of ``_eo_terms``, which
    this call owns, by augmented assignment in the order of the closed form.
    """
    cof = corner_cofactor_wire(p)
    gap = h.c_n1 * h.c_n1
    gap -= h.c_n2 * h.c_n
    t = cof * cof + gap
    t *= 0.5 * p.gamma ** 2
    t /= det_sq
    terms = _eo_terms(p, h, det_sq)
    recombined = terms.term_uN
    recombined -= terms.term_u1
    recombined *= 0.5 * p.gamma / p.bandwidth
    recombined += terms.term_im
    tol = np.maximum(np.abs(t), np.abs(recombined))
    tol *= _RECOMBINE_RTOL
    tol += _RECOMBINE_ATOL
    recombined -= t
    if not np.all(np.abs(recombined) <= tol):
        raise NumericalError("averaged-term recombination disagrees with the closed form")
    return t, gap


def transmittance_eo(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Evolution-operator transmittance, independent of the GF route.

    gamma**2/(2 |det C|**2) * (cof**2 + Chat_{n-1}**2 - Chat_{n-2}*Chat_n).
    The value is re-derived from the three averaged terms, which pins the
    wide-band bookkeeping 2*pi*v_lead**2 = gamma*bandwidth.

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
        Empty energy grid.
    """
    grid = np.atleast_1d(np.asarray(energies, dtype=float))
    if grid.size == 0:
        raise PreconditionError("energy grid must be non-empty")
    with np.errstate(all="ignore"):  # non-finite values raise in _eo
        h, det_sq = _dets(p, grid)
        t_gf = _gf_numerator(p) / det_sq
        t_eo, gap = _eo(p, h, det_sq)
    diff = np.abs(t_gf - t_eo)
    if p.n > 1:
        passes = _residuals((p.eps0 - grid).tolist(), float(-p.v), FLOAT, p.n, p.n)
    else:
        passes = [([0.0], False)] * grid.size
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

    The routes run over the grid in blocks of ``_BLOCK`` energies, in grid
    order, and write into outputs allocated once; every temporary is
    block-sized.  Each value is elementwise, so every sample has the bits of
    ``transmittance_gf(p, grid)`` and ``transmittance_eo(p, grid)``, and the
    first failing block raises the error the whole grid would.
    ``TransmissionSpectrum`` then validates the whole result.

    Raises
    ------
    ValueError
        Invalid grid bounds (including a width ``e_max - e_min`` beyond the
        double range), point count, or method.
    """
    if not (math.isfinite(e_min) and math.isfinite(e_max)) or not e_min < e_max:
        raise ValueError(f"need finite e_min < e_max, got [{e_min}, {e_max}]")
    # On Python floats an overflowing width is inf, not a numpy RuntimeWarning.
    if not math.isfinite(float(e_max) - float(e_min)):
        raise ValueError(
            f"grid width e_max - e_min leaves the double range, got [{e_min}, {e_max}]"
        )
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    if method not in ("gf", "eo", "both"):
        raise ValueError(f"method must be gf, eo or both, got {method!r}")
    grid = np.linspace(e_min, e_max, points)
    t_gf = np.empty(points) if method in ("gf", "both") else None
    t_eo = np.empty(points) if method in ("eo", "both") else None
    # Non-finite values raise in _eo or in TransmissionSpectrum.  The numerator
    # and cofactor errors do not depend on the energy, so they come from the
    # first block.
    with np.errstate(all="ignore"):
        for start in range(0, points, _BLOCK):
            block = slice(start, start + _BLOCK)
            h, det_sq = _dets(p, grid[block])
            if t_gf is not None:
                t_gf[block] = _gf_numerator(p) / det_sq
            if t_eo is not None:
                t_eo[block] = _eo(p, h, det_sq)[0]
    return TransmissionSpectrum(
        energies=grid, params=p, method=method, t_gf=t_gf, t_eo=t_eo
    )


def chain_resonances(p: WireParams) -> np.ndarray:
    """Eigenenergies of the isolated chain: eps0 + 2 v cos(m pi / (n+1))."""
    m = np.arange(1, p.n + 1)
    return p.eps0 + 2.0 * p.v * np.cos(m * np.pi / (p.n + 1))


def landauer_current(p: WireParams, bias: BiasWindow) -> CurrentResult:
    """Landauer current integral(f_L - f_R) * T(eps) deps, in units e = hbar = 1.

    At temperature zero the integrand support is exactly the bias window; at
    finite temperature the window is padded by 40 k_B T on both sides, beyond
    which the occupation difference is below 1e-17.  Chain resonance energies
    are passed to the quadrature as break points so narrow peaks are not
    missed; when there are at least 200 of them (the subinterval limit), the
    limit is raised by their count.  Zero bias returns exactly 0.

    T(eps) is the GF transmittance, built once per call: the numerator
    ``gamma**2 * cof**2``, the corner constants and the continuant kernel
    (``tridiag_core._continuant_kernel``, with the bits of n-1) are built
    up front, so each quadrature evaluation pays only for arithmetic: the
    kernel's about 8*log2(n) float operations, the corner split and the GF
    quotient, written inline, and at T > 0 the two Fermi functions.  One
    integrand serves both temperatures, so a quadrature point costs two
    Python frames, the integrand and the kernel.  The values are
    bit-identical to ``transmittance_gf(p, eps)``.

    Raises
    ------
    NumericalError
        The corner cofactor ``v**(n-1)`` or the numerator
        ``gamma**2 * cof**2`` leaves the double range, ``|det C|**2``
        underflows to 0 inside the window, the padded window or its width
        leaves the double range, or the quadrature returns a non-finite
        value or error estimate.
    """
    if bias.mu_left == bias.mu_right:
        return CurrentResult(value=0.0, error_estimate=0.0, window=(bias.mu_left, bias.mu_right))
    lo = min(bias.mu_left, bias.mu_right)
    hi = max(bias.mu_left, bias.mu_right)
    sign = 1.0 if bias.mu_left > bias.mu_right else -1.0
    num = _gf_numerator(p)
    eps0, g = p.eps0, p.gamma
    q = 0.25 * g * g  # corner_split's grouping, (0.25*g)*g, so T keeps its bits
    kernel = _continuant_kernel(p.v * p.v, p.n)
    warm = bias.temperature > 0.0
    mu_left, mu_right, temperature = bias.mu_left, bias.mu_right, bias.temperature
    tanh = math.tanh
    if warm:
        pad = 40.0 * temperature
        lo -= pad
        hi += pad
        if not math.isfinite(hi - lo):  # also inf when an end itself overflowed
            raise NumericalError(
                f"the bias window padded by 40*T at temperature {temperature!r}, "
                "or its width, leaves the double range"
            )

    def integrand(e: float) -> float:
        c_n, c_n1, c_n2 = kernel(eps0 - e, 0.0, 1.0)
        re = c_n - q * c_n2
        im = g * c_n1
        det_sq = re * re + im * im
        if det_sq == 0.0:
            raise NumericalError("|det C|**2 underflows to 0 at a scalar energy")
        if warm:
            # f_L - f_R with f(e) = 0.5 - 0.5*tanh(0.5*(e - mu)/T), the Fermi function.
            occ = (0.5 - 0.5 * tanh(0.5 * (e - mu_left) / temperature)) - (
                0.5 - 0.5 * tanh(0.5 * (e - mu_right) / temperature)
            )
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
