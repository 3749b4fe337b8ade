"""RK4 integration of the amplitude system and steady-state comparison."""

import math
import warnings

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
    transmittance_gf,
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 24, 32, 100])
def test_multi_site_trajectory_matches_exact_propagator(n):
    # Against U(t) = W e^{iwt} - e^{At} W: the error stays within the RK4
    # leading-term bound t_max * (h lam)**4 * lam / 120 * |W|, with lam the
    # larger of ||A|| and |w|, and halving the step cuts it about 16-fold.
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


# --- the banded step against a stage-by-stage RK4 ----------------------------------

def _plain_rk4(p, drive, cfg):
    """Textbook RK4 on the dense system matrix, four stages per step.

    Takes the step ``integrate`` takes and runs the module's check on every
    new state, so a wire that trips the guard raises the same error.
    """
    n_steps = max(1, int(math.ceil(cfg.t_max / cfg.dt - 1e-9)))
    dt = cfg.t_max / n_steps
    times = np.arange(n_steps + 1) * dt
    omega = p.eps0 - drive
    a = -1j * p.v * (np.eye(p.n, k=1) + np.eye(p.n, k=-1))
    a[0, 0] -= 0.5 * p.gamma
    a[-1, -1] -= 0.5 * p.gamma
    lead = np.zeros(p.n, dtype=complex)
    lead[0] = -1j * p.v_lead
    bound = p.n * p.v_lead / (0.5 * p.gamma)

    def f(t, y):
        return a @ y + np.exp(1j * omega * t) * lead

    u = np.zeros((n_steps + 1, p.n), dtype=complex)
    for k in range(n_steps):
        t, y = k * dt, u[k]
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        u[k + 1] = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        time_domain._check_rows(u[k + 1 : k + 2], times[k + 1 : k + 2], bound)
    return times, u


def _outcome(run, p, drive, cfg):
    try:
        return run(p, drive, cfg)
    except BlowUpError as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    eps0=st.floats(-2.0, 2.0),
    v=st.floats(0.05, 3.0).flatmap(lambda m: st.sampled_from([m, -m])),
    gamma=st.floats(0.05, 4.0),
    bandwidth=st.floats(0.1, 10.0),
    detuning=st.floats(-4.0, 4.0),
    resolution=st.floats(0.01, 1.0),
    steps=st.floats(0.5, 400.0),
)
@example(n=3, eps0=0.0, v=0.1, gamma=4.0, bandwidth=1.0, detuning=0.0,
         resolution=1.0, steps=16000.0)  # the blow-up guard's wire
def test_integrate_matches_stage_by_stage_rk4(
    n, eps0, v, gamma, bandwidth, detuning, resolution, steps
):
    # n <= 4 truncates the band of M to the whole matrix; above, the comb
    # vectors read a half-width of 4 off one step.
    p = WireParams(n=n, eps0=eps0, v=v, gamma=gamma, bandwidth=bandwidth)
    drive = eps0 + detuning
    dt = resolution * 0.1 / max(abs(detuning), gamma, abs(v))
    cfg = IntegratorConfig(dt=dt, t_max=steps * dt)
    got = _outcome(integrate, p, drive, cfg)
    expect = _outcome(_plain_rk4, p, drive, cfg)
    if isinstance(expect, str) or isinstance(got, str):
        assert got == expect
        return
    times, u = expect
    assert np.array_equal(got.times, times)
    assert np.max(np.abs(got.u - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(1.5e308, 1.5e308)]
)
def test_step_check_catches_any_site(monkeypatch, bad):
    # A nan that is not first, an infinite part, and a finite value whose
    # modulus overflows must each fail the check, without a numpy warning, in
    # a state inside a later block and in the first and last states of a block.
    real = time_domain._check_rows
    p = WireParams(n=4, eps0=0.0, v=1.0, gamma=1.0)
    size = time_domain._block_size(p.n)
    assert size > 2
    for k in (2 * size + size // 2, 3 * size, 3 * size - 1):

        def poisoned(rows, times, bound):
            rows = rows.copy()
            rows[times == k * 0.05, 2] = bad
            real(rows, times, bound)

        monkeypatch.setattr(time_domain, "_check_rows", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match=f"non-finite state at t={k * 0.05:.6g}$"):
                integrate(p, 0.0, IntegratorConfig(dt=0.05, t_max=0.05 * 4 * size))


def test_check_rows_compares_moduli_with_the_bound():
    # A bound below 1: the moduli, not their squares, are held against it, and
    # a state whose norm exceeds the bound while no site does passes.
    time_domain._check_rows(np.array([[0.5, 0.5j]]), np.array([1.0]), 0.6)
    rows = np.array([[0.0, 0.5], [0.0, 0.6j]])
    with pytest.raises(BlowUpError, match=r"^\|U\| = 6.000e-01 exceeds .* 5.500e-01 at t=2$"):
        time_domain._check_rows(rows, np.array([1.0, 2.0]), 0.55)
    # Bounds whose squares overflow, under integrate's errstate: sites whose
    # squares overflow pass within the bound and fail beyond it, as does inf.
    times = np.array([1.0, 2.0])
    with np.errstate(all="ignore"):
        time_domain._check_rows(np.array([[1e200, 0.0], [0.0, 1e200j]]), times, 1e201)
        with pytest.raises(BlowUpError, match=r"^\|U\| = 1.000e\+300 exceeds .* 1.000e\+200 at t=2$"):
            time_domain._check_rows(np.array([[1.0, 0.0], [0.0, 1e300j]]), times, 1e200)
        with pytest.raises(BlowUpError, match="^non-finite state at t=2$"):
            time_domain._check_rows(np.array([[1.0, 0.0], [0.0, complex(math.inf, 0.0)]]), times, 1e200)


# --- blocks of states: powers of the step map ----------------------------------------

def _dense(rows):
    """Dense matrix from the conjugated band ``rows[i, d] = conj(P[i, i + d - w])``."""
    n, width = rows.shape
    i, d = np.indices(rows.shape)
    j = i + d - width // 2
    inside = (j >= 0) & (j < n)
    assert not np.any(rows[~inside])
    dense = np.zeros((n, n), dtype=complex)
    dense[i[inside], j[inside]] = np.conj(rows[inside])
    return dense


@pytest.mark.parametrize("steps", [255, 256, 257, 1500])
@pytest.mark.parametrize("n", [1, 2, 4, 5, 9, 40, 100])
def test_integrate_matches_stage_by_stage_rk4_across_blocks(n, steps):
    # Runs that end one state before, at and one state after the 256th state,
    # where the blocks stop doubling, and a run of many full blocks (K = 256
    # for n <= 40, 4 for n = 100).
    p = WireParams(n=n, eps0=0.2, v=-0.9, gamma=0.7, bandwidth=2.0)
    drive = -0.4
    cfg = IntegratorConfig(dt=0.04, t_max=0.04 * steps)
    got = integrate(p, drive, cfg)
    times, u = _plain_rk4(p, drive, cfg)
    assert np.array_equal(got.times, times)
    assert np.max(np.abs(got.u - u)) <= 1e-12 * np.max(np.abs(u))


def test_blow_up_inside_a_later_block_matches_stage_by_stage_rk4():
    p = WireParams(n=3, eps0=0.0, v=0.1, gamma=4.0)
    cfg = IntegratorConfig(dt=0.025, t_max=400.0)
    message = "|U| = 1.197e+00 exceeds stability bound 1.197e+00 at t=36"
    first_failing = 1440  # t = 36
    size = time_domain._block_size(p.n)
    assert first_failing > 2 * size and first_failing % size != 0
    for run in (integrate, _plain_rk4):
        with pytest.raises(BlowUpError) as err:
            run(p, 0.0, cfg)
        assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    log_k=st.integers(0, 8),
    v=st.floats(0.05, 3.0).flatmap(lambda m: st.sampled_from([m, -m])),
    gamma=st.floats(0.05, 4.0),
    detuning=st.floats(-4.0, 4.0),
    resolution=st.floats(0.01, 1.0),
)
def test_doubled_band_matches_dense_matrix_power(n, log_k, v, gamma, detuning, resolution):
    p = WireParams(n=n, eps0=0.0, v=v, gamma=gamma)
    dt = resolution * 0.1 / max(abs(detuning), gamma, abs(v))
    rows, _ = time_domain._step_map(p, detuning, dt)
    step = _dense(rows)
    for _ in range(log_k):
        rows = time_domain._squared(rows)
    assert rows.shape[1] == 2 * min(4 << log_k, n - 1) + 1
    expect = np.linalg.matrix_power(step, 1 << log_k)
    assert np.max(np.abs(_dense(rows) - expect)) <= 1e-13 * np.max(np.abs(expect))


# --- a third route to T: the discrete steady state of the step map -------------------

@pytest.mark.parametrize("eps", [0.3, -1.1])
def test_discrete_fixed_point_gives_transmittance(eps):
    # In the rotating frame V_k = e^{-i omega t_k} U_k the RK4 map is
    # V_{k+1} = N V_k + d with N = e^{-i omega dt} M, d = e^{-i omega dt} c; its
    # fixed point gives T = 2 pi gamma |V*_N|**2 / D to fourth order in dt.
    p = WireParams(n=6, eps0=0.0, v=1.0, gamma=0.7, bandwidth=1.3)
    omega = p.eps0 - eps
    exact = transmittance_gf(p, eps)
    errors = []
    for dt in (0.08, 0.04, 0.02):
        rows, c = time_domain._step_map(p, omega, dt)
        turn = np.exp(-1j * omega * dt)
        fixed = np.linalg.solve(np.eye(p.n) - turn * _dense(rows), turn * c)
        t_td = 2.0 * math.pi * p.gamma * abs(fixed[-1]) ** 2 / p.bandwidth
        errors.append(abs(t_td - exact))
    assert min(errors) > 1e-11  # above the rounding floor, where the ratio drifts
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0
