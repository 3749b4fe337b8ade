"""Time integration of the lead-to-wire evolution-operator amplitudes.

The N complex amplitudes U_i(t) connecting a lead state of energy ``eps_k``
to wire site i obey the linear system (hbar = 1)

    dU_i/dt = -i v (U_{i+1} + U_{i-1})
              - delta_{i,1} (i v_lead e^{i(eps0 - eps_k) t} + gamma U_1 / 2)
              - delta_{i,N} gamma U_N / 2,

with U_0 = U_{N+1} = 0 and U(0) = 0.  For N = 1 both boundary terms act on
the single site, so the decay rate is gamma.  The long-time state oscillates
at the drive frequency with site amplitudes whose moduli equal
``v_lead * |(C^-1)_{i,1}|``, the first inverse column of the wire matrix
evaluated at the drive energy; relative to that inverse column the
integrated phases carry an extra per-site factor (-1)^i together with a
complex conjugation (a gauge freedom of the site basis), which the
steady-state comparison resolves explicitly.

``integrate`` uses classical RK4 with a fixed step.  The system matrix A is
tridiagonal and the drive is one frequency, so every RK4 step is the same
affine map: a matrix M of half-bandwidth at most 4 (a quartic in A) plus
the drive vector rotated by e^{i(eps0 - eps_k) t}.  Both are built once per
call from one RK4 step, and every step of the loop is one banded product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlowUpError, ConfigError, PreconditionError
from .wire_matrix import WireParams, first_inverse_column

_RESOLUTION_LIMIT = 0.1


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings: requested step ``dt`` and horizon ``t_max``."""

    dt: float
    t_max: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")


@dataclass(frozen=True)
class EvolutionTrajectory:
    """Sampled evolution-operator amplitudes: u[k, i] = U_i(times[k])."""

    times: np.ndarray
    u: np.ndarray
    drive_energy: float

    def __post_init__(self):
        if self.u.ndim != 2 or self.u.shape[0] != self.times.shape[0]:
            raise ValueError("u must have one row per sample time")
        if np.any(self.u[0] != 0):
            raise ValueError("trajectory must start from the zero state")


@dataclass(frozen=True)
class SteadyStateReport:
    """Trailing-window comparison of a trajectory against the steady state.

    ``modulus_deviation`` compares window means of |U_i(t)| with the
    predicted moduli; ``rotated_deviation`` compares the window mean of
    e^{-i(eps0-eps_k)t} U_i(t) with the predicted complex amplitude;
    ``phase_deviation`` holds per-site phase errors after removing one
    global offset fixed at the first site.  ``max_abs_deviation`` is the
    maximum over both amplitude comparisons.
    """

    modulus_deviation: np.ndarray
    rotated_deviation: np.ndarray
    phase_deviation: np.ndarray
    max_abs_deviation: float
    max_phase_deviation: float
    window: tuple[float, float]


def _resolution_scale(p: WireParams, drive_energy: float) -> float:
    return max(abs(p.eps0 - drive_energy), p.gamma, abs(p.v))


def integrate(
    p: WireParams, drive_energy: float, cfg: IntegratorConfig
) -> EvolutionTrajectory:
    """Advance the amplitude system from U(0) = 0 with classical RK4.

    The requested step must resolve the fastest scale:
    ``dt * max(|eps0 - eps_k|, gamma, |v|) <= 0.1``.  The step actually used
    divides the horizon exactly and never exceeds the requested one.  Every
    step is checked for finiteness and against the crude stability bound
    ``|U_i| <= n * v_lead / (gamma / 2)``.

    The system is linear and its drive is e^{i omega t} times a fixed
    vector, so one RK4 step from t_k is exactly
    ``U_{k+1} = M U_k + e^{i omega t_k} c`` with
    ``M = I + B + B**2/2 + B**3/6 + B**4/24``, ``B = dt * A``, and ``c`` the
    step taken from U = 0 at t = 0.  Both come from one textbook RK4 step
    (``_step_map``); each step of the loop is then one banded product and
    one ``cmath.exp``.

    Raises
    ------
    ConfigError
        Resolution guard violated.
    BlowUpError
        Non-finite state or stability bound exceeded during integration.
    """
    if not math.isfinite(drive_energy):
        raise ValueError("drive energy must be finite")
    scale = _resolution_scale(p, drive_energy)
    if cfg.dt * scale > _RESOLUTION_LIMIT * (1.0 + 1e-12):
        raise ConfigError(
            f"dt={cfg.dt} too coarse: dt * {scale} > {_RESOLUTION_LIMIT}; "
            f"reduce dt below {_RESOLUTION_LIMIT / scale:.3e}"
        )
    n_steps = max(1, int(math.ceil(cfg.t_max / cfg.dt - 1e-9)))
    times = np.empty(n_steps + 1)
    u = np.empty((n_steps + 1, p.n), dtype=complex)
    times[0] = 0.0
    u[0] = 0.0
    omega = p.eps0 - drive_energy
    dt = cfg.t_max / n_steps
    band, c = _step_map(p, omega, dt)
    rows = np.conj(band)  # np.vecdot conjugates its first argument
    w = band.shape[1] // 2
    padded = np.zeros(p.n + 2 * w, dtype=complex)  # U with w zero sites each side
    y = padded[w : w + p.n]
    windows = sliding_window_view(padded, 2 * w + 1)  # windows[i, d] = U_{i+d-w}
    bound = p.n * p.v_lead / (0.5 * p.gamma)
    iw = 1j * omega
    exp = cmath.exp
    t = 0.0
    for k in range(1, n_steps + 1):
        np.add(np.vecdot(rows, windows), exp(iw * t) * c, out=y)
        t = k * dt
        _check_step(y, t, bound)
        times[k] = t
        u[k] = y
    return EvolutionTrajectory(times=times, u=u, drive_energy=drive_energy)


def _step_map(
    p: WireParams, omega: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Band of the RK4 step matrix M and the drive vector c.

    ``band[i, d] = M[i, i + d - w]`` (zero outside the wire), with half-width
    ``w = min(4, n - 1)``: M is a quartic in the tridiagonal A.  One RK4 step
    runs on the columns at once: ``2w + 1`` comb vectors, whose ones sit
    ``2w + 1`` sites apart so that their images under M do not overlap, and a
    zero column that alone feels the drive, whose image is c.
    """
    n = p.n
    w = min(4, n - 1)
    width = 2 * w + 1
    iv = 1j * p.v
    ivl = 1j * p.v_lead
    g = 0.5 * p.gamma
    sites = np.arange(n)
    y = np.zeros((n, width + 1), dtype=complex)
    y[sites, sites % width] = 1.0
    driven = np.zeros(width + 1)
    driven[-1] = 1.0

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(y)
        out[:-1] -= iv * y[1:]
        out[1:] -= iv * y[:-1]
        out[0] -= ivl * cmath.exp(1j * omega * t) * driven + g * y[0]
        out[-1] -= g * y[-1]
        return out

    k1 = rhs(0.0, y)
    k2 = rhs(0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(dt, y + dt * k3)
    image = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    cols = sites[:, None] + np.arange(-w, w + 1)
    band = np.where((cols >= 0) & (cols < n), image[sites[:, None], cols % width], 0.0)
    return band, image[:, -1].copy()


def _check_step(y: np.ndarray, t: float, bound: float) -> None:
    with np.errstate(all="ignore"):  # a modulus beyond the double range is inf
        peak = float(np.maximum.reduce(np.abs(y)))
    if not math.isfinite(peak):
        raise BlowUpError(f"non-finite state at t={t:.6g}")
    if peak > bound * (1.0 + 1e-9):
        raise BlowUpError(
            f"|U| = {peak:.3e} exceeds stability bound {bound:.3e} at t={t:.6g}"
        )


def steady_state_amplitudes(p: WireParams, drive_energy: float) -> np.ndarray:
    """Complex site amplitudes of the long-time state (rotating frame).

    This is the first inverse column scaled by the lead coupling, carried to
    the gauge the integrated system actually relaxes to: an extra (-1)^i and
    a complex conjugation relative to the raw inverse column.  Moduli are
    unaffected by the gauge.
    """
    u = first_inverse_column(p, drive_energy)
    signs = np.array([(-1.0) ** (i + 1) for i in range(p.n)])
    return signs * p.v_lead * np.conj(u)


def steady_state_horizon(p: WireParams) -> float:
    """Shortest trajectory horizon ``steady_state_compare`` accepts: 10 / gamma."""
    return 10.0 / p.gamma


def steady_state_compare(traj: EvolutionTrajectory, p: WireParams) -> SteadyStateReport:
    """Compare the trailing quarter of a trajectory against the steady state.

    Raises
    ------
    PreconditionError
        Horizon shorter than 10 / gamma.
    """
    t_end = float(traj.times[-1])
    if t_end < steady_state_horizon(p):
        raise PreconditionError(
            f"horizon {t_end:.6g} is shorter than 10/gamma = {steady_state_horizon(p):.6g}"
        )
    window = 0.25 * t_end
    mask = traj.times >= t_end - window
    omega = p.eps0 - traj.drive_energy
    predicted = steady_state_amplitudes(p, traj.drive_energy)
    pred_mod = np.abs(predicted)

    block = traj.u[mask]
    mean_mod = np.mean(np.abs(block), axis=0)
    rotated = block * np.exp(-1j * omega * traj.times[mask])[:, None]
    mean_rot = np.mean(rotated, axis=0)

    modulus_dev = np.abs(mean_mod - pred_mod)
    rotated_dev = np.abs(mean_rot - predicted)

    floor = 1e-300
    phase_dev = np.zeros(p.n)
    live = (pred_mod > floor) & (np.abs(mean_rot) > floor)
    if np.any(live):
        raw = np.angle(mean_rot[live]) - np.angle(predicted[live])
        first = int(np.flatnonzero(live)[0])
        offset = np.angle(mean_rot[first]) - np.angle(predicted[first])
        wrapped = np.angle(np.exp(1j * (raw - offset)))
        phase_dev[live] = wrapped
    return SteadyStateReport(
        modulus_deviation=modulus_dev,
        rotated_deviation=rotated_dev,
        phase_deviation=phase_dev,
        max_abs_deviation=float(max(modulus_dev.max(), rotated_dev.max())),
        max_phase_deviation=float(np.max(np.abs(phase_dev))),
        window=(t_end - window, t_end),
    )
