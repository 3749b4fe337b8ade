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
the drive vector rotated by e^{i(eps0 - eps_k) t}.  So is every run of K
steps, with M**K of half-bandwidth 4K: one banded product advances K states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    step taken from U = 0 at t = 0 (``_step_map``).  Hence a block of m states,
    ``U_{k+m} = M**m U_k + e^{i omega t_k} U_m``, is M**m times the block before
    plus rotated copies of U_m.  Blocks double up to ``_block_size(n)`` states, fewer when
    the steps left would not repay a squaring.

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
    dt = cfg.t_max / n_steps
    times = np.arange(n_steps + 1) * dt
    u = np.zeros((n_steps + 1, p.n), dtype=complex)
    omega = p.eps0 - drive_energy
    phase = np.exp(1j * omega * times)[:, None]
    rows, r = _step_map(p, omega, dt)
    bound = p.n * p.v_lead / (0.5 * p.gamma)
    size = _block_size(p.n)
    while size > 1 and 16 * min(8 * size + 1, p.n) > n_steps - size:
        size //= 2  # the squaring at state `size` would cost over 1/8 of the steps left
    x, windows = _banded(rows, 1)
    k = m = 1  # next row to fill; states per block, the m before row k held in x
    with np.errstate(all="ignore"):  # a modulus beyond the double range is inf
        while k <= n_steps:
            if m < size and m < k:  # blocks grow 1, 2, 4, ... up to size
                x[0] = r  # r = U_m becomes U_2m; x is refilled from u below
                r = np.vecdot(rows, windows[:1])[0] + phase[m] * r
                rows = _squared(rows)
                m *= 2
                x, windows = _banded(rows, m)
                x[...] = u[k - m : k]
            end = k + m
            if end > n_steps + 1:  # a shorter last block
                end = n_steps + 1
                x, windows = x[: end - k], windows[: end - k]
            # M**m times the block before, plus the drive from its times
            np.add(np.vecdot(rows, windows), phase[k - m : end - m] * r, out=x)
            _check_rows(x, times[k:end], bound)
            u[k:end] = x
            k = end
    return EvolutionTrajectory(times=times, u=u, drive_energy=drive_energy)


def _step_map(p: WireParams, omega: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Conjugated band (``_banded``) of the RK4 step matrix M, a quartic in A, and the
    drive vector c: one RK4 step of comb vectors and of a zero vector, which alone is driven."""
    iv, ivl, g = 1j * p.v, 1j * p.v_lead, 0.5 * p.gamma

    def rhs(t: float, y: np.ndarray) -> np.ndarray:  # y[i, j]: site i of vector j
        out = np.zeros_like(y)
        out[:-1] -= iv * y[1:]
        out[1:] -= iv * y[:-1]
        out[0, -1] -= ivl * cmath.exp(1j * omega * t)
        out[0] -= g * y[0]
        out[-1] -= g * y[-1]
        return out

    def step(combs: np.ndarray) -> np.ndarray:
        y = np.zeros((p.n, len(combs) + 1), dtype=complex)
        y[:, :-1] = combs.T
        k1 = rhs(0.0, y)
        k2 = rhs(0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(dt, y + dt * k3)
        return (y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).T

    band, image = _read_band(step, p.n, min(4, p.n - 1))
    return band, image[-1].copy()


def _read_band(apply, n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugated band (``_banded``) of the P of half-width w with ``apply(x)[j] = P @ x[j]``,
    and ``apply``'s rows for comb vectors, ones ``2w + 1`` sites apart: images don't overlap."""
    sites = np.arange(n)
    combs = sites % (2 * w + 1) == sites[: 2 * w + 1, None]  # min(2w + 1, n) of them
    image = apply(combs.astype(complex))
    cols = sites[:, None] + np.arange(-w, w + 1)
    entries = np.conj(image[cols % len(combs), sites[:, None]])  # taken where cols is in the wire
    return np.where((cols >= 0) & (cols < n), entries, 0.0), image


def _banded(rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows x (count by n), w zero sites each side, and windows such that, for P given as
    ``rows[i, d] = conj(P[i, i + d - w])``, ``np.vecdot(rows, windows)[j] = P @ x[j]``."""
    n, w = len(rows), rows.shape[1] // 2
    padded = np.zeros((count, n + 2 * w), dtype=complex)
    row, site = padded.strides  # windows[j, i, d] = padded[j, i + d]
    windows = as_strided(padded, (count, n, 2 * w + 1), (row, site, site), writeable=False)
    return padded[:, w : w + n], windows


def _squared(rows: np.ndarray) -> np.ndarray:
    """Conjugated band of P**2 from that of P."""
    n, w = len(rows), min(rows.shape[1] - 1, len(rows) - 1)
    x, windows = _banded(rows, min(2 * w + 1, n))  # one row per comb vector

    def twice(combs: np.ndarray) -> np.ndarray:
        x[...] = combs
        x[...] = np.vecdot(rows, windows)
        return np.vecdot(rows, windows)

    return _read_band(twice, n, w)[0]


def _block_size(n: int) -> int:
    """States per block: the largest power of two K <= 256 whose band of M**K,
    ``min(8K + 1, 2n - 1)`` wide, costs at most 6000 products per state.  Set from
    ``integrate``'s µs per step on one core (best of 5; K = 1/2/4/8/256, * = rule):
    n=32: 5.8/5.5/3.1/2.8/2.0*  n=64: 6.8/5.3/4.0/4.0*/5.9  n=100: 9.3/6.8/5.9*/5.7/14.0
    n=300: 15.5/14.4*/14.2/17.0/-  n=1000: 53.0*/61.1/81.5/148/-
    The benchmark integrates only n <= 4, where M's band is the whole matrix and K = 256 costs
    nothing per state; for larger n, as for the squarings' stop in ``integrate``, it is unmeasured.
    """
    k = 256
    while k > 1 and n * min(8 * k + 1, 2 * n - 1) > 6000:
        k //= 2
    return k


def _check_rows(rows: np.ndarray, times: np.ndarray, bound: float) -> None:
    """Raise at the first state (row) that is non-finite or beyond the stability bound.
    Call under ``np.errstate(all="ignore")``: a square or modulus beyond the double range is inf."""
    limit = bound * (1.0 + 1e-9)
    top = min(limit * limit, math.nextafter(math.inf, 0.0))  # an inf never passes, nor a nan
    # Sums of |U_i|**2, over the block and then over each state, bound every |U_i|**2.
    if np.vdot(rows, rows).real <= top or np.maximum.reduce(np.vecdot(rows, rows).real) <= top:
        return
    for peak, t in zip(np.maximum.reduce(np.abs(rows), axis=1).tolist(), times.tolist()):
        if not math.isfinite(peak):
            raise BlowUpError(f"non-finite state at t={t:.6g}")
        if peak > limit:
            raise BlowUpError(f"|U| = {peak:.3e} exceeds stability bound {bound:.3e} at t={t:.6g}")


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
