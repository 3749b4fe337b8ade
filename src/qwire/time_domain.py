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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigError, PreconditionError
from .wire_matrix import WireParams, first_inverse_column

_RESOLUTION_LIMIT = 0.1
# Largest site count integrated on Python complex.  Median RK4 step, scalar
# against numpy loop (2-core Xeon, Python 3.11, numpy 2.4): n=16 48 vs 66 us,
# n=24 65 vs 68 us, n=26 71 vs 68 us.
_SCALAR_MAX_N = 24


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

    The loop body comes in two forms, picked by the site count alone: up to
    ``_SCALAR_MAX_N`` sites the state is a list of Python ``complex``, which
    avoids numpy's per-operation dispatch on short wires; above it the state
    is a numpy array.  Both run the same multiplies, adds and subtracts in
    the same order, and take the drive from the C library's exp, cos and sin
    (``cmath.exp`` against ``np.exp``), so they return bit-identical
    trajectories; the test suite compares them by ``tobytes()``.

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
    loop = _scalar_steps if p.n <= _SCALAR_MAX_N else _array_steps
    loop(p, p.eps0 - drive_energy, cfg.t_max / n_steps, times, u)
    return EvolutionTrajectory(times=times, u=u, drive_energy=drive_energy)


def _check_step(peak: float, t: float, bound: float) -> None:
    if not math.isfinite(peak):
        raise BlowUpError(f"non-finite state at t={t:.6g}")
    if peak > bound * (1.0 + 1e-9):
        raise BlowUpError(
            f"|U| = {peak:.3e} exceeds stability bound {bound:.3e} at t={t:.6g}"
        )


def _array_steps(
    p: WireParams, omega: float, dt: float, times: np.ndarray, u: np.ndarray
) -> None:
    """RK4 on a numpy state; fills ``times[1:]`` and ``u[1:]``."""
    gamma_half = 0.5 * p.gamma
    v = p.v
    vl = p.v_lead
    n = p.n
    bound = n * vl / gamma_half

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        if n > 1:
            out[:-1] -= 1j * v * y[1:]
            out[1:] -= 1j * v * y[:-1]
        out[0] -= 1j * vl * np.exp(1j * omega * t) + gamma_half * y[0]
        out[n - 1] -= gamma_half * y[n - 1]
        return out

    y = np.zeros(n, dtype=complex)
    t = 0.0
    for k in range(1, times.size):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = k * dt
        _check_step(float(np.max(np.abs(y))), t, bound)
        times[k] = t
        u[k] = y


def _scalar_steps(
    p: WireParams, omega: float, dt: float, times: np.ndarray, u: np.ndarray
) -> None:
    """RK4 on a list of Python ``complex``, bit-identical to ``_array_steps``.

    numpy multiplies a real scalar into a complex array as the complex
    number (x + 0j), so every real factor here is made ``complex`` up front;
    ``0j - a - b`` keeps the signed zeros of numpy's in-place subtracts from
    a zero array, and subtracting a padding ``0j`` is exact.
    """
    n = p.n
    iv = 1j * p.v
    ivl = 1j * p.v_lead
    iw = 1j * omega
    g = complex(0.5 * p.gamma)
    bound = n * p.v_lead / (0.5 * p.gamma)
    half = complex(0.5 * dt)
    full = complex(dt)
    sixth = complex(dt / 6.0)
    two = complex(2.0)
    exp = cmath.exp

    def rhs(t: float, y: list[complex]) -> list[complex]:
        w = [0j, *[iv * z for z in y], 0j]
        out = [0j - r - l for r, l in zip(w[2:], w)]
        out[0] = out[0] - (ivl * exp(iw * t) + g * y[0])
        out[-1] = out[-1] - g * y[-1]
        return out

    y = [0j] * n
    t = 0.0
    for k in range(1, times.size):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + 0.5 * dt, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + dt, [a + full * b for a, b in zip(y, k3)])
        y = [
            a + sixth * (b1 + two * b2 + two * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        t = k * dt
        _check_step(_max_modulus(y), t, bound)
        times[k] = t
        u[k] = y


def _max_modulus(y: list[complex]) -> float:
    """Largest |y_i|; ``inf`` when any site is non-finite or its modulus overflows.

    ``max`` alone would skip a nan that is not first, and ``abs`` raises
    ``OverflowError`` where numpy's modulus overflows to inf.
    """
    try:
        mods = [abs(z) for z in y]
    except OverflowError:
        return math.inf
    return max(mods) if all(map(math.isfinite, mods)) else math.inf


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
