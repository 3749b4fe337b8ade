"""Transmittance of the wire by two independent analytic routes, plus currents.

The Green's-function route evaluates

    T(eps) = gamma**2 * cof**2 / |det C|**2,        cof = v**(n-1),

while the evolution-operator route evaluates

    T(eps) = gamma**2 / (2 |det C|**2)
             * (cof**2 + Chat_{n-1}**2 - Chat_{n-2} * Chat_n).

The two agree because the continuant identity turns
``Chat_{n-1}**2 - Chat_{n-2}*Chat_n`` into ``v**(2n-2) = cof**2``; the
equivalence report verifies that bridge in exact arithmetic and shows the
combination is generically nonzero, i.e. the identity is doing real work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .errors import NumericalError, PreconditionError
from .wire_matrix import EnergyLike, HatDets, WireParams, corner_cofactor_wire, hat_dets

_RECOMBINE_RTOL = 1e-9
_RECOMBINE_ATOL = 1e-12
_T_UPPER = 1.0 + 1e-9


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
class QuadratureConfig:
    """Adaptive-quadrature knobs for the current integral."""

    epsabs: float = 1e-13
    epsrel: float = 1e-10
    limit: int = 200


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
    ``bridge_residual_rel`` is the exactly computed relative residual of the
    continuant identity that equates the gap to the squared corner cofactor.
    """

    energies: np.ndarray
    abs_diff: np.ndarray
    max_abs_diff: float
    hat_gap: np.ndarray
    min_abs_hat_gap: float
    max_abs_hat_gap: float
    bridge_residual_rel: np.ndarray
    max_bridge_residual_rel: float


def _abs_det_sq(p: WireParams, h: HatDets) -> EnergyLike:
    g = p.gamma
    re = h.c_n - 0.25 * g * g * h.c_n2
    im = g * h.c_n1
    return re * re + im * im


def transmittance_gf(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Green's-function transmittance gamma**2 * cof**2 / |det C|**2.

    Accepts a scalar or an array of probe energies.
    """
    h = hat_dets(p, eps)
    cof = corner_cofactor_wire(p)
    return p.gamma ** 2 * cof * cof / _abs_det_sq(p, h)


def eo_terms(p: WireParams, eps: EnergyLike) -> EOTerms:
    """The three averaged evolution-operator terms at probe energy ``eps``."""
    h = hat_dets(p, eps)
    return _eo_terms(p, h, _abs_det_sq(p, h))


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


def transmittance_eo(p: WireParams, eps: EnergyLike) -> EnergyLike:
    """Evolution-operator transmittance, independent of the GF route.

    gamma**2/(2 |det C|**2) * (cof**2 + Chat_{n-1}**2 - Chat_{n-2}*Chat_n).
    The value is re-derived from the three averaged terms, which pins the
    wide-band bookkeeping 2*pi*v_lead**2 = gamma*bandwidth.

    Raises
    ------
    NumericalError
        The recombined terms disagree with the closed form, or either is
        non-finite (the recurrence overflowed far outside the band).
    """
    h = hat_dets(p, eps)
    det_sq = _abs_det_sq(p, h)
    cof = corner_cofactor_wire(p)
    gap = h.c_n1 * h.c_n1 - h.c_n2 * h.c_n
    t = 0.5 * p.gamma ** 2 * (cof * cof + gap) / det_sq
    terms = _eo_terms(p, h, det_sq)
    recombined = (
        0.5 * p.gamma / p.bandwidth * (terms.term_uN - terms.term_u1) + terms.term_im
    )
    tol = _RECOMBINE_RTOL * np.maximum(np.abs(t), np.abs(recombined)) + _RECOMBINE_ATOL
    if not np.all(np.abs(recombined - t) <= tol):
        raise NumericalError(
            "averaged-term recombination disagrees with the closed form"
        )
    return t


def _bridge_residual_rel(p: WireParams, eps: float) -> float:
    """Relative residual of cof**2 = Chat_{n-1}**2 - Chat_{n-2}*Chat_n, exact.

    Doubles are dyadic rationals, so the identity is evaluated in scaled
    integer arithmetic where it holds exactly; a nonzero value would expose
    an implementation defect rather than rounding.
    """
    na, da = float(p.eps0 - eps).as_integer_ratio()
    nb, db = float(-p.v).as_integer_ratio()
    den = max(da, db)
    ai = na * (den // da)
    bi = nb * (den // db)
    b2 = bi * bi
    prev2, prev = 0, 1
    seq = [1]
    for _ in range(p.n):
        prev2, prev = prev, ai * prev - b2 * prev2
        seq.append(prev)
    c_n = seq[p.n]
    c_n1 = seq[p.n - 1] if p.n >= 1 else 0
    c_n2 = seq[p.n - 2] if p.n >= 2 else 0
    residual = bi ** (2 * p.n - 2) - (c_n1 * c_n1 - c_n2 * c_n)
    denom = bi ** (2 * p.n - 2)
    if denom == 0:
        return 0.0 if residual == 0 else math.inf
    return abs(residual / denom)


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
    t_gf = transmittance_gf(p, grid)
    t_eo = transmittance_eo(p, grid)
    diff = np.abs(t_gf - t_eo)
    h = hat_dets(p, grid)
    gap = h.c_n1 * h.c_n1 - h.c_n2 * h.c_n
    bridge = np.array([_bridge_residual_rel(p, e) for e in grid])
    return EquivalenceReport(
        energies=grid,
        abs_diff=diff,
        max_abs_diff=float(diff.max()),
        hat_gap=gap,
        min_abs_hat_gap=float(np.abs(gap).min()),
        max_abs_hat_gap=float(np.abs(gap).max()),
        bridge_residual_rel=bridge,
        max_bridge_residual_rel=float(bridge.max()),
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
    t_gf = transmittance_gf(p, grid) if method in ("gf", "both") else None
    t_eo = transmittance_eo(p, grid) if method in ("eo", "both") else None
    return TransmissionSpectrum(
        energies=grid, params=p, method=method, t_gf=t_gf, t_eo=t_eo
    )


def chain_resonances(p: WireParams) -> np.ndarray:
    """Eigenenergies of the isolated chain: eps0 + 2 v cos(m pi / (n+1))."""
    m = np.arange(1, p.n + 1)
    return p.eps0 + 2.0 * p.v * np.cos(m * np.pi / (p.n + 1))


def _fermi(eps: np.ndarray, mu: float, temperature: float) -> np.ndarray:
    if temperature == 0.0:
        return np.where(eps < mu, 1.0, np.where(eps > mu, 0.0, 0.5))
    return scipy.special.expit((mu - eps) / temperature)


def landauer_current(
    p: WireParams,
    bias: BiasWindow,
    quadrature: QuadratureConfig | None = None,
) -> CurrentResult:
    """Landauer current integral(f_L - f_R) * T(eps) deps, in units e = hbar = 1.

    At temperature zero the integrand support is exactly the bias window; at
    finite temperature the window is padded by 40 k_B T on both sides, beyond
    which the occupation difference is below 1e-17.  Chain resonance energies
    are passed to the quadrature as break points so narrow peaks are not
    missed; when there are at least ``quadrature.limit`` of them, the
    subinterval limit is raised by their count.  Zero bias returns exactly 0.
    """
    cfg = quadrature or QuadratureConfig()
    if bias.mu_left == bias.mu_right:
        return CurrentResult(value=0.0, error_estimate=0.0, window=(bias.mu_left, bias.mu_right))
    lo = min(bias.mu_left, bias.mu_right)
    hi = max(bias.mu_left, bias.mu_right)
    sign = 1.0 if bias.mu_left > bias.mu_right else -1.0
    if bias.temperature > 0.0:
        pad = 40.0 * bias.temperature
        lo -= pad
        hi += pad

        def integrand(e: float) -> float:
            occ = _fermi(np.asarray(e), bias.mu_left, bias.temperature) - _fermi(
                np.asarray(e), bias.mu_right, bias.temperature
            )
            return float(occ) * float(transmittance_gf(p, e))
    else:

        def integrand(e: float) -> float:
            return float(transmittance_gf(p, e))

    breaks = [e for e in chain_resonances(p) if lo < e < hi]
    # QUADPACK needs more subintervals than break points; only then is the
    # limit raised, so every other call keeps its exact arguments.
    limit = cfg.limit + len(breaks) if len(breaks) >= cfg.limit else cfg.limit
    value, abserr = scipy.integrate.quad(
        integrand,
        lo,
        hi,
        points=sorted(breaks) or None,
        limit=limit,
        epsabs=cfg.epsabs,
        epsrel=cfg.epsrel,
    )
    if bias.temperature == 0.0:
        value *= sign
    return CurrentResult(value=value, error_estimate=abserr, window=(lo, hi))
