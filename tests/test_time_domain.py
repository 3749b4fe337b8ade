"""RK4 integration of the amplitude system and steady-state comparison."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwire.time_domain as time_domain
from qwire import (
    BlowUpError,
    ConfigError,
    EvolutionTrajectory,
    IntegratorConfig,
    PreconditionError,
    WireParams,
    first_inverse_column,
    integrate,
    steady_state_amplitudes,
    steady_state_compare,
)

from oracles import driven_evolution_exact, scalar_evolution_exact


# --- configuration and validation -------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=0.0, t_max=1.0),
        dict(dt=-0.1, t_max=1.0),
        dict(dt=0.1, t_max=0.0),
        dict(dt=0.1, t_max=math.inf),
    ],
)
def test_bad_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        IntegratorConfig(**kwargs)


def test_resolution_guard_rejects_coarse_step():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=2.0)
    with pytest.raises(ConfigError):
        integrate(p, 0.0, IntegratorConfig(dt=0.06, t_max=1.0))  # dt * gamma > 0.1


def test_resolution_guard_accepts_limit_step():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=2.0)
    traj = integrate(p, 0.0, IntegratorConfig(dt=0.05, t_max=1.0))
    assert traj.times[-1] == 1.0


def test_integrate_rejects_non_finite_drive():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        integrate(p, math.nan, IntegratorConfig(dt=0.05, t_max=1.0))


def test_trajectory_must_start_from_zero():
    times = np.array([0.0, 0.1])
    u = np.array([[1.0 + 0j], [0.5 + 0j]])
    with pytest.raises(ValueError):
        EvolutionTrajectory(times=times, u=u, drive_energy=0.0)


def test_step_divides_horizon_exactly():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=1.0)
    traj = integrate(p, 0.0, IntegratorConfig(dt=0.03, t_max=1.0))
    assert traj.times[-1] == 1.0
    steps = np.diff(traj.times)
    assert np.allclose(steps, steps[0], rtol=1e-12)
    assert steps[0] <= 0.03 + 1e-15


# --- single-site analytic oracle ----------------------------------------------

def test_single_site_resonant_matches_closed_form():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=0.8)
    t_max = 10.0 / p.gamma
    traj = integrate(p, 0.0, IntegratorConfig(dt=0.05, t_max=t_max))
    exact = scalar_evolution_exact(p.v_lead, p.gamma, 0.0, traj.times[-1])
    assert abs(traj.u[-1, 0] - exact) <= 1e-8


def test_single_site_off_resonant_matches_closed_form():
    p = WireParams(n=1, eps0=0.2, v=1.0, gamma=1.0)
    drive = -0.7
    omega = p.eps0 - drive
    traj = integrate(p, drive, IntegratorConfig(dt=0.02, t_max=12.0))
    exact = scalar_evolution_exact(p.v_lead, p.gamma, omega, traj.times)
    assert np.max(np.abs(traj.u[:, 0] - exact)) <= 1e-8


def test_trajectory_scales_linearly_with_lead_coupling():
    # quadrupling the band width doubles v_lead; the response doubles exactly
    cfg = IntegratorConfig(dt=0.04, t_max=6.0)
    p1 = WireParams(n=3, eps0=0.0, v=1.0, gamma=1.0, bandwidth=1.0)
    p2 = WireParams(n=3, eps0=0.0, v=1.0, gamma=1.0, bandwidth=4.0)
    assert p2.v_lead == 2.0 * p1.v_lead
    t1 = integrate(p1, 0.3, cfg)
    t2 = integrate(p2, 0.3, cfg)
    assert np.array_equal(2.0 * t1.u, t2.u)


# --- relaxation to the steady state --------------------------------------------

@pytest.mark.parametrize(
    "n, gamma, drive_offset, t_mult, dt, tol",
    [
        (1, 1.0, 0.0, 40.0, 0.05, 1e-6),
        (1, 1.0, 0.6, 40.0, 0.05, 1e-6),
        (2, 1.0, 1.0, 40.0, 0.05, 1e-6),   # off-resonant drive one hopping away
        (2, 1.0, 0.0, 40.0, 0.05, 1e-6),
        (3, 0.1, 0.0, 400.0, 0.05, 1e-6),
        (3, 0.1, 0.6, 400.0, 0.05, 1e-6),
        # at gamma = v the three-site transient floor sits above 1e-6: the
        # slowest decay rate is gamma/4, leaving ~ e^-10 of the transient at
        # t = 40/gamma (see decay-rate sum rule), so only 1e-5 is attainable
        (3, 1.0, 0.0, 40.0, 0.05, 1e-5),
    ],
)
def test_relaxes_to_first_inverse_column(n, gamma, drive_offset, t_mult, dt, tol):
    p = WireParams(n=n, eps0=0.1, v=1.0, gamma=gamma)
    drive = p.eps0 + drive_offset
    traj = integrate(p, drive, IntegratorConfig(dt=dt, t_max=t_mult / gamma))
    report = steady_state_compare(traj, p)
    assert report.max_abs_deviation <= tol


def test_steady_moduli_match_inverse_column():
    p = WireParams(n=4, eps0=0.0, v=1.0, gamma=0.9)
    amps = steady_state_amplitudes(p, 0.5)
    u = first_inverse_column(p, 0.5)
    assert np.allclose(np.abs(amps), p.v_lead * np.abs(u), rtol=1e-13)


def test_phase_consistency_with_steady_prediction():
    cases = [
        (2, 1.0, 1.0, 40.0),
        (3, 0.2, 0.6, 200.0),
        (1, 1.0, 0.3, 40.0),
    ]
    for n, gamma, drive_offset, t_max in cases:
        p = WireParams(n=n, eps0=0.0, v=1.0, gamma=gamma)
        traj = integrate(p, drive_offset, IntegratorConfig(dt=0.05, t_max=t_max))
        report = steady_state_compare(traj, p)
        assert report.max_phase_deviation <= 1e-4


def test_compare_requires_sufficient_horizon():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=1.0)
    traj = integrate(p, 0.0, IntegratorConfig(dt=0.05, t_max=5.0))
    with pytest.raises(PreconditionError):
        steady_state_compare(traj, p)


# --- convergence order ------------------------------------------------------------

def test_fourth_order_against_closed_form():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=1.0)
    drive = -0.6
    omega = p.eps0 - drive
    errors = []
    for dt in (0.08, 0.04, 0.02, 0.01):
        traj = integrate(p, drive, IntegratorConfig(dt=dt, t_max=8.0))
        exact = scalar_evolution_exact(p.v_lead, p.gamma, omega, traj.times[-1])
        errors.append(abs(traj.u[-1, 0] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_fourth_order_against_steady_oracle():
    # at t = 40/gamma the physical transient is dead (e^-20 for one site), so
    # the terminal error against the steady state is pure integrator error
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=1.0)
    drive = -0.6
    omega = p.eps0 - drive
    steady = steady_state_amplitudes(p, drive)
    errors = []
    for dt in (0.0625, 0.03125, 0.015625):
        traj = integrate(p, drive, IntegratorConfig(dt=dt, t_max=40.0))
        expect = steady * np.exp(1j * omega * traj.times[-1])
        errors.append(float(np.max(np.abs(traj.u[-1] - expect))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_relaxation_envelope_rate():
    # deviation from the steady state must decay at least like e^{-gamma t/2};
    # for one site the true rate is gamma, for two sites exactly gamma/2
    for n, expected_floor in ((1, 0.98), (2, 0.49)):
        p = WireParams(n=n, eps0=0.0, v=1.0, gamma=1.0)
        drive = 0.6
        omega = p.eps0 - drive
        traj = integrate(p, drive, IntegratorConfig(dt=0.02, t_max=30.0))
        steady = steady_state_amplitudes(p, drive)
        expect = steady[None, :] * np.exp(1j * omega * traj.times)[:, None]
        dev = np.max(np.abs(traj.u - expect), axis=1)
        mask = (traj.times >= 2.0) & (traj.times <= 20.0) & (dev > 1e-14)
        rate = -np.polyfit(traj.times[mask], np.log(dev[mask]), 1)[0]
        assert rate >= expected_floor * p.gamma


def test_exact_propagator_reduces_to_single_site_closed_form():
    p = WireParams(n=1, eps0=0.2, v=1.0, gamma=1.0)
    t = np.linspace(0.0, 12.0, 61)
    _, u = driven_evolution_exact(p, -0.7, t)
    assert np.max(np.abs(u[:, 0] - scalar_evolution_exact(p.v_lead, p.gamma, 0.9, t))) <= 1e-14


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 6, time_domain._SCALAR_MAX_N, time_domain._SCALAR_MAX_N + 8]
)
def test_multi_site_trajectory_matches_exact_propagator(n):
    # Against U(t) = W e^{iwt} - e^{At} W: the error stays within the RK4
    # leading-term bound t_max * (h lam)**4 * lam / 120 * |W|, with lam the
    # larger of ||A|| and |w|, and halving the step cuts it about 16-fold.
    # The last site count runs the numpy loop, the others the scalar loop.
    rng = np.random.default_rng([41, n])
    t_max = 6.0
    for _ in range(2):
        p = WireParams(
            n=n,
            eps0=float(rng.uniform(-1.0, 1.0)),
            v=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)),
            gamma=float(rng.uniform(0.3, 2.0)),
        )
        drive = p.eps0 + float(rng.uniform(-2.0, 2.0))
        omega = p.eps0 - drive
        scale = max(abs(omega), p.gamma, abs(p.v))
        lam = max(abs(p.v) * 2.0 + p.gamma, abs(omega))  # >= ||A||_2
        errors = []
        for dt in (0.05 / scale, 0.025 / scale):
            traj = integrate(p, drive, IntegratorConfig(dt=dt, t_max=t_max))
            w, exact = driven_evolution_exact(p, drive, traj.times)
            h = traj.times[1]
            err = float(np.max(np.abs(traj.u - exact)))
            assert err <= t_max * (h * lam) ** 4 * lam / 120.0 * np.linalg.norm(w)
            errors.append(err)
        assert 12.0 <= errors[0] / errors[1] <= 20.0


# --- stability guard ---------------------------------------------------------------

def test_blow_up_guard_trips_on_bound_crossing():
    # with v << gamma the steady response itself exceeds the crude bound
    # n * v_lead / (gamma/2), so the guard must fire during the approach
    p = WireParams(n=3, eps0=0.0, v=0.1, gamma=4.0)
    with pytest.raises(BlowUpError):
        integrate(p, 0.0, IntegratorConfig(dt=0.025, t_max=400.0))


def test_moderate_case_stays_within_bound():
    p = WireParams(n=5, eps0=0.0, v=1.0, gamma=1.0)
    traj = integrate(p, 0.0, IntegratorConfig(dt=0.05, t_max=60.0))
    bound = p.n * p.v_lead / (0.5 * p.gamma)
    assert np.max(np.abs(traj.u)) <= bound


# --- the two loop bodies ------------------------------------------------------------

def _outcome(max_scalar_n, p, drive, cfg):
    """Trajectory bytes, or the error, of ``integrate`` under a given crossover."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(time_domain, "_SCALAR_MAX_N", max_scalar_n)
        try:
            traj = integrate(p, drive, cfg)
        except BlowUpError as err:
            return str(err)
    return traj.times.dtype, traj.u.dtype, traj.times.tobytes(), traj.u.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, time_domain._SCALAR_MAX_N + 8),
    eps0=st.floats(-2.0, 2.0),
    v=st.floats(0.05, 3.0).flatmap(lambda m: st.sampled_from([m, -m])),
    gamma=st.floats(0.05, 4.0),
    bandwidth=st.floats(0.1, 10.0),
    detuning=st.floats(-4.0, 4.0),
    resolution=st.floats(0.01, 1.0),
    steps=st.floats(0.5, 40.0),
)
@example(n=3, eps0=0.0, v=0.1, gamma=4.0, bandwidth=1.0, detuning=0.0,
         resolution=1.0, steps=16000.0)  # the blow-up guard's wire
def test_scalar_and_numpy_loops_are_bit_identical(
    n, eps0, v, gamma, bandwidth, detuning, resolution, steps
):
    p = WireParams(n=n, eps0=eps0, v=v, gamma=gamma, bandwidth=bandwidth)
    drive = eps0 + detuning
    dt = resolution * 0.1 / max(abs(detuning), gamma, abs(v))
    cfg = IntegratorConfig(dt=dt, t_max=steps * dt)
    scalar = _outcome(n, p, drive, cfg)  # n sites on the scalar loop
    assert scalar == _outcome(n - 1, p, drive, cfg)  # and on the numpy loop


def test_loop_choice_follows_site_count(monkeypatch):
    used = []
    for name in ("_scalar_steps", "_array_steps"):
        real = getattr(time_domain, name)

        def spy(*args, name=name, real=real):
            used.append(name)
            return real(*args)

        monkeypatch.setattr(time_domain, name, spy)
    cfg = IntegratorConfig(dt=0.05, t_max=0.1)
    for n in (1, time_domain._SCALAR_MAX_N, time_domain._SCALAR_MAX_N + 1):
        integrate(WireParams(n=n, eps0=0.0, v=1.0, gamma=1.0), 0.0, cfg)
    assert used == ["_scalar_steps", "_scalar_steps", "_array_steps"]


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(1.5e308, 1.5e308)]
)
def test_scalar_check_catches_any_site(monkeypatch, bad):
    # max() skips a nan that is not first, and abs() raises OverflowError
    # for a finite value whose modulus overflows: neither may slip through.
    real = time_domain._max_modulus

    def poisoned(y):
        return real([*y[:2], bad, *y[3:]])

    monkeypatch.setattr(time_domain, "_max_modulus", poisoned)
    p = WireParams(n=4, eps0=0.0, v=1.0, gamma=1.0)
    with pytest.raises(BlowUpError, match="non-finite state at t=0.05$"):
        integrate(p, 0.0, IntegratorConfig(dt=0.05, t_max=1.0))
