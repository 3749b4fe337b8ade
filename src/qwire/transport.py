"""Transmittance of the wire by two independent analytic routes, plus currents.

The Green's-function route evaluates

    T(eps) = gamma**2 * cof**2 / |det C|**2,        cof = v**(n-1),

while the evolution-operator route evaluates

    T(eps) = gamma**2 / (2 |det C|**2)
             * (cof**2 + Chat_{n-1}**2 - Chat_{n-2} * Chat_n).

Both read one ``HatDets``, which each public function evaluates once.  They
agree because the continuant identity turns
``Chat_{n-1}**2 - Chat_{n-2}*Chat_n`` into ``v**(2n-2) = cof**2``; the
equivalence report verifies that bridge (modulo 2**61 - 1, exactly where that
check is nonzero) and shows the combination is generically nonzero, i.e. the
identity is doing real work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .tridiag_core import FLOAT, _residuals
from .wire_matrix import (
    EnergyLike,
    HatDets,
    WireParams,
    _continuants,
    corner_cofactor_wire,
    hat_dets,
)

_RECOMBINE_RTOL = 1e-9
_RECOMBINE_ATOL = 1e-12
_T_UPPER = 1.0 + 1e-9
_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200


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
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
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
    the residual is zero mod 2**61 - 1, the exactly computed value otherwise.
    ``bridge_exact_fallbacks`` counts the energies whose residual was nonzero
    mod 2**61 - 1 and so took the exact big-integer pass; it is 0 for a
    correct recurrence.
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


def _det_sq(re: EnergyLike, im: EnergyLike) -> EnergyLike:
    """``|det C|**2`` from the corner split ``det C = re + i*im``."""
    det_sq = re * re + im * im
    # Only a scalar quotient by 0.0 raises (ZeroDivisionError); arrays give nan or inf.
    if isinstance(det_sq, float) and det_sq == 0.0:
        raise NumericalError("|det C|**2 underflows to 0 at a scalar energy")
    return det_sq


def _gf_numerator(p: WireParams) -> float:
    """gamma**2 * cof**2, the energy-independent numerator of the GF route."""
    cof = corner_cofactor_wire(p)
    return p.gamma ** 2 * cof * cof


def _gf_quotient(num: float, re: EnergyLike, im: EnergyLike) -> EnergyLike:
    """GF transmittance ``num / |det C|**2`` with ``num = _gf_numerator(p)``."""
    return num / _det_sq(re, im)


def _gf(p: WireParams, h: HatDets) -> EnergyLike:
    return _gf_quotient(_gf_numerator(p), *h.corner_split(p.gamma))


def transmittance_gf(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Green's-function transmittance gamma**2 * cof**2 / |det C|**2.

    Accepts a scalar or an array of probe energies.

    Raises
    ------
    NumericalError
        Scalar energy at which ``|det C|**2`` underflows to 0 (an array
        energy yields ``nan`` or ``inf`` there instead).
    """
    return _gf(p, hat_dets(p, eps))


def eo_terms(p: WireParams, eps: EnergyLike) -> EOTerms:
    """The three averaged evolution-operator terms at probe energy ``eps``."""
    h = hat_dets(p, eps)
    return _eo_terms(p, h, _det_sq(*h.corner_split(p.gamma)))


def _eo_terms(p: WireParams, h: HatDets, det_sq: EnergyLike) -> EOTerms:
    g = p.gamma
    pref = 2.0 * math.pi * p.v_lead ** 2
    cof = corner_cofactor_wire(p)
    term_u1 = pref * (h.c_n1 * h.c_n1 + 0.25 * g * g * h.c_n2 * h.c_n2) / det_sq
    term_uN = pref * cof * cof / det_sq
    term_im = (
        0.5 * g * g
        * (2.0 * h.c_n1 * h.c_n1 - h.c_n2 * h.c_n + 0.25 * g * g * h.c_n2 * h.c_n2)
        / det_sq
    )
    return EOTerms(term_u1=term_u1, term_uN=term_uN, term_im=term_im)


def _eo(p: WireParams, h: HatDets) -> tuple[EnergyLike, EnergyLike]:
    """EO transmittance and the hat gap Chat_{n-1}**2 - Chat_{n-2}*Chat_n."""
    det_sq = _det_sq(*h.corner_split(p.gamma))
    cof = corner_cofactor_wire(p)
    gap = h.c_n1 * h.c_n1 - h.c_n2 * h.c_n
    t = 0.5 * p.gamma ** 2 * (cof * cof + gap) / det_sq
    terms = _eo_terms(p, h, det_sq)
    recombined = (
        0.5 * p.gamma / p.bandwidth * (terms.term_uN - terms.term_u1) + terms.term_im
    )
    tol = _RECOMBINE_RTOL * np.maximum(np.abs(t), np.abs(recombined)) + _RECOMBINE_ATOL
    if not np.all(np.abs(recombined - t) <= tol):
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
        return _eo(p, hat_dets(p, eps))[0]


def equivalence_report(p: WireParams, energies: EnergyLike) -> EquivalenceReport:
    """Compare the two routes on a grid and verify the identity bridge.

    Raises
    ------
    PreconditionError
        Empty energy grid.
    """
    grid = np.atleast_1d(np.asarray(energies, dtype=float))
    if grid.size == 0:
        raise PreconditionError("energy grid must be non-empty")
    with np.errstate(all="ignore"):  # non-finite values raise in _eo
        h = hat_dets(p, grid)
        t_gf = _gf(p, h)
        t_eo, gap = _eo(p, h)
    diff = np.abs(t_gf - t_eo)
    if p.n > 1:
        passes = [_residuals(p.eps0 - e, -p.v, FLOAT, p.n, p.n) for e in grid]
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

    Raises
    ------
    ValueError
        Invalid grid bounds, point count, or method.
    """
    if not (math.isfinite(e_min) and math.isfinite(e_max)) or not e_min < e_max:
        raise ValueError(f"need finite e_min < e_max, got [{e_min}, {e_max}]")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    if method not in ("gf", "eo", "both"):
        raise ValueError(f"method must be gf, eo or both, got {method!r}")
    grid = np.linspace(e_min, e_max, points)
    # Non-finite values raise in _eo or in TransmissionSpectrum.
    with np.errstate(all="ignore"):
        h = hat_dets(p, grid)
        t_gf = _gf(p, h) if method in ("gf", "both") else None
        t_eo = _eo(p, h)[0] if method in ("eo", "both") else None
    return TransmissionSpectrum(
        energies=grid, params=p, method=method, t_gf=t_gf, t_eo=t_eo
    )


def chain_resonances(p: WireParams) -> np.ndarray:
    """Eigenenergies of the isolated chain: eps0 + 2 v cos(m pi / (n+1))."""
    m = np.arange(1, p.n + 1)
    return p.eps0 + 2.0 * p.v * np.cos(m * np.pi / (p.n + 1))


def _fermi(eps: float, mu: float, temperature: float) -> float:
    return 0.5 - 0.5 * math.tanh(0.5 * (eps - mu) / temperature)


def landauer_current(p: WireParams, bias: BiasWindow) -> CurrentResult:
    """Landauer current integral(f_L - f_R) * T(eps) deps, in units e = hbar = 1.

    At temperature zero the integrand support is exactly the bias window; at
    finite temperature the window is padded by 40 k_B T on both sides, beyond
    which the occupation difference is below 1e-17.  Chain resonance energies
    are passed to the quadrature as break points so narrow peaks are not
    missed; when there are at least 200 of them (the subinterval limit), the
    limit is raised by their count.  Zero bias returns exactly 0.

    T(eps) is the GF transmittance, built once per call: the numerator
    ``gamma**2 * cof**2`` and the corner constants are computed up front and
    each quadrature evaluation runs only the continuant kernel and the GF
    quotient.  The values are bit-identical to ``transmittance_gf(p, eps)``.

    Raises
    ------
    NumericalError
        The corner cofactor ``v**(n-1)`` leaves the double range, or
        ``|det C|**2`` underflows to 0 inside the window.
    """
    if bias.mu_left == bias.mu_right:
        return CurrentResult(value=0.0, error_estimate=0.0, window=(bias.mu_left, bias.mu_right))
    lo = min(bias.mu_left, bias.mu_right)
    hi = max(bias.mu_left, bias.mu_right)
    sign = 1.0 if bias.mu_left > bias.mu_right else -1.0
    num = _gf_numerator(p)
    eps0, b2, n, g = p.eps0, p.v * p.v, p.n, p.gamma
    q = 0.25 * g * g  # corner_split's grouping, (0.25*g)*g, so T keeps its bits

    def t_gf(e: float) -> float:
        c_n, c_n1, c_n2 = _continuants(eps0 - e, b2, n, 0.0, 1.0)
        return _gf_quotient(num, c_n - q * c_n2, g * c_n1)

    if bias.temperature > 0.0:
        pad = 40.0 * bias.temperature
        lo -= pad
        hi += pad
        mu_left, mu_right, temperature = bias.mu_left, bias.mu_right, bias.temperature

        def integrand(e: float) -> float:
            occ = _fermi(e, mu_left, temperature) - _fermi(e, mu_right, temperature)
            return occ * t_gf(e)
    else:
        integrand = t_gf

    breaks = [e for e in chain_resonances(p) if lo < e < hi]
    # QUADPACK needs more subintervals than break points; only then is the
    # limit raised, so every other call keeps its exact arguments.
    limit = _QUAD_LIMIT + len(breaks) if len(breaks) >= _QUAD_LIMIT else _QUAD_LIMIT
    # Imported here: identity, spectrum and evolve never integrate, so
    # ``import qwire`` and those subcommands need only numpy.
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
    if bias.temperature == 0.0:
        value *= sign
    return CurrentResult(value=value, error_estimate=abserr, window=(lo, hi))
