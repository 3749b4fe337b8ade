"""Transmittance routes, equivalence report, spectra, and Landauer current."""

import math
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwire.transport as transport
import qwire.tridiag_core as tridiag_core
from qwire import (
    BiasWindow,
    NumericalError,
    PreconditionError,
    SymToeplitzTridiag,
    TransmissionSpectrum,
    WireParams,
    chain_resonances,
    eo_terms,
    equivalence_report,
    hat_dets,
    identity_residual,
    landauer_current,
    spectrum,
    transmittance_eo,
    transmittance_gf,
)

from oracles import (
    current_dense_grid,
    current_pole_sum_dense,
    dense_transmittance,
    dense_wire_matrix,
    lorentzian_window_integral,
    transmittance_closed_form,
)


def random_params(rng, n=None):
    return WireParams(
        n=n if n is not None else int(rng.integers(1, 13)),
        eps0=float(rng.uniform(-2, 2)),
        v=float(rng.uniform(0.1, 3)),
        gamma=float(rng.uniform(0.05, 4)),
    )


def sweep_grid(p, points=2001):
    span = 2.0 * p.v + 2.0 * p.gamma
    return np.linspace(p.eps0 - span, p.eps0 + span, points)


# --- Green's-function route ---------------------------------------------------

def test_gf_single_site_resonance():
    p = WireParams(n=1, eps0=0.2, v=1.0, gamma=0.6)
    assert transmittance_gf(p, 0.2) == pytest.approx(1.0, abs=1e-14)


def test_gf_single_site_is_lorentzian():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=0.5)
    grid = np.linspace(-4, 4, 101)
    expect = p.gamma ** 2 / ((grid - p.eps0) ** 2 + p.gamma ** 2)
    assert np.allclose(transmittance_gf(p, grid), expect, rtol=1e-12)


def test_gf_two_sites_matched_resonance():
    v = 0.8
    p = WireParams(n=2, eps0=-0.4, v=v, gamma=2 * v)
    assert transmittance_gf(p, -0.4) == pytest.approx(1.0, rel=1e-12)


def test_gf_decays_far_from_band():
    p = WireParams(n=4, eps0=0.0, v=1.0, gamma=0.5)
    assert transmittance_gf(p, 50.0) < 1e-10
    assert transmittance_gf(p, -50.0) < 1e-10


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_weakly_hopping_wire_gives_a_transmittance_and_a_current():
    # 200 sites with v = 0.01: cof**2 = v**398 and |det C|**2 both fall below
    # the double range at eps = 0, but in Chebyshev units neither is formed:
    # g = gamma/|v| = 50 and |det C~|**2 = (1 + g**2/4)**2.
    p = WireParams(n=200, eps0=0.0, v=0.01, gamma=0.5)
    t = transmittance_closed_form(p, 0.0)
    assert 0.0 < t < 1.0
    for route in (transmittance_gf, transmittance_eo):
        assert route(p, 0.0) == pytest.approx(t, rel=1e-13)
    terms = eo_terms(p, 0.0)
    assert all(math.isfinite(x) for x in (terms.term_u1, terms.term_uN, terms.term_im))
    # h = gamma/(2|v|) = 25 takes the quadrature, which is poor on 200 narrow
    # peaks; the value and its error estimate are finite.
    res = landauer_current(p, BiasWindow(0.01, -0.01))
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
    assert abs(res.value) <= 0.02


def test_gf_matches_dense_inversion():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_params(rng)
        eps = float(rng.uniform(p.eps0 - 2 * p.v - 2 * p.gamma, p.eps0 + 2 * p.v + 2 * p.gamma))
        assert transmittance_gf(p, eps) == pytest.approx(
            dense_transmittance(p, eps), abs=1e-10
        )


def _bits(x):
    return float(x).hex()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 400),
    eps0=st.floats(-2.0, 2.0),
    v=st.floats(0.5, 2.0).flatmap(lambda m: st.sampled_from([m, -m])),
    gamma=st.floats(0.05, 4.0),
    offset=st.floats(-5.0, 5.0),
)
def test_scalar_path_bit_identical_to_array(n, eps0, v, gamma, offset):
    # offset in band widths 4|v|: up to five band widths outside the band,
    # where the recurrence overflows to inf and then nan on both paths.
    p = WireParams(n=n, eps0=eps0, v=v, gamma=gamma)
    eps = eps0 + offset * 4.0 * abs(v)
    with np.errstate(all="ignore"):
        scalar = hat_dets(p, eps)
        array = hat_dets(p, np.array([eps]))
    assert isinstance(scalar.c_n, float)
    for name in ("c_n", "c_n1", "c_n2"):
        assert _bits(getattr(scalar, name)) == _bits(getattr(array, name)[0])
    try:
        t_scalar = transmittance_gf(p, eps)
    except NumericalError:  # a non-finite value raises on both paths
        with pytest.raises(NumericalError):
            transmittance_gf(p, np.array([eps]))
        return
    assert isinstance(t_scalar, float)
    assert _bits(t_scalar) == _bits(transmittance_gf(p, np.array([eps]))[0])


# --- evolution-operator route -------------------------------------------------

def test_eo_terms_single_site_resonant():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=0.7)
    terms = eo_terms(p, 0.0)
    # Chat_0 = 1, Chat_{-1} = 0, |det|^2 = gamma^2: the interference term is
    # gamma^2/(2 gamma^2) * 2 = 1 and the two amplitude terms coincide.
    assert terms.term_im == pytest.approx(1.0, rel=1e-12)
    assert terms.term_u1 == pytest.approx(terms.term_uN, rel=1e-12)
    assert transmittance_eo(p, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_eo_two_sites_matched_resonance():
    v = 1.2
    p = WireParams(n=2, eps0=0.0, v=v, gamma=2 * v)
    assert transmittance_eo(p, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_eo_vanishes_with_gamma_off_resonance():
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=1e-6)
    assert transmittance_eo(p, 0.37) < 1e-9


def test_eo_recombination_from_terms():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_params(rng)
        eps = float(rng.uniform(p.eps0 - 3, p.eps0 + 3))
        t = transmittance_eo(p, eps)
        terms = eo_terms(p, eps)
        recombined = 0.5 * p.gamma / p.bandwidth * (terms.term_uN - terms.term_u1) + terms.term_im
        assert abs(recombined - t) <= 1e-9 * max(abs(t), abs(recombined)) + 1e-12


def test_eo_check_raises_outside_double_range():
    # n = 1000 at eps = 2.5 (band [-2, 2]): the continuants overflow to nan.
    p = WireParams(n=1000, eps0=0.0, v=1.0, gamma=0.5)
    with pytest.raises(NumericalError):
        transmittance_eo(p, np.array([2.5, 2.75]))
    assert issubclass(NumericalError, RuntimeError)


@pytest.mark.parametrize("n", [700, 1650])
def test_overflowing_wire_raises_without_numpy_warnings(n):
    # n = 700 overflows in the products of transport, n = 1650 already in
    # the hat_dets recurrence; either way NumericalError must come first.
    p = WireParams(n=n, eps0=0.0, v=1.0, gamma=0.5)
    grid = np.linspace(-2.5, 2.5, 24)
    calls = [
        lambda: equivalence_report(p, grid),
        lambda: spectrum(p, -2.5, 2.5, 24, "both"),
        lambda: transmittance_eo(p, grid),
        lambda: eo_terms(p, grid),
    ]
    if n == 1650:
        calls.append(lambda: transmittance_gf(p, grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NumericalError):
                call()
        if n == 700:
            # Only |det C|**2 overflows, to inf, so T = 0 there: the true value
            # is about 1e-422, below the smallest subnormal.
            t = transmittance_gf(p, grid)
            assert t[0] == 0.0 and np.all(np.isfinite(t))


@pytest.mark.parametrize("n", [1000, 2000])
def test_long_wires_beyond_the_cofactor_range_give_a_transmittance(n):
    # v = 1.5: at n = 1000 v**(2n-2) ~ 1e352 and at n = 2000 v**(n-1) itself
    # leave the double range, but no route takes a power of v, so every
    # route returns T in [0, 1] and the current is finite, with no numpy
    # warning.
    p = WireParams(n=n, eps0=0.0, v=1.5, gamma=0.5)
    grid = np.linspace(-1.0, 1.0, 3)
    oracle = transmittance_closed_form(p, grid)
    rtol = 1e-13 * n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (transmittance_gf, transmittance_eo):
            assert route(p, 0.05) == pytest.approx(transmittance_closed_form(p, 0.05), rel=rtol)
            np.testing.assert_allclose(route(p, grid), oracle, rtol=rtol, atol=0.0)
        terms = eo_terms(p, 0.1)
        assert all(math.isfinite(x) for x in (terms.term_u1, terms.term_uN, terms.term_im))
        for method in ("gf", "eo", "both"):
            spec = spectrum(p, -1.0, 1.0, 3, method)
            for t in (spec.t_gf, spec.t_eo):
                if t is not None:
                    np.testing.assert_allclose(t, oracle, rtol=rtol, atol=0.0)
        rep = equivalence_report(p, grid)
        assert rep.max_abs_diff <= 1e-13 and rep.max_bridge_residual_rel == 0.0
        for temperature in (0.0, 0.01):
            res = landauer_current(p, BiasWindow(0.1, -0.1, temperature))
            assert math.isfinite(res.value) and 0.0 < res.value <= 0.2


def test_eo_check_runs_under_optimize():
    # Under -O an assert would be stripped; the recombination check must
    # still catch a term that no longer matches the closed form.
    script = textwrap.dedent("""
        import qwire.transport as tr
        from qwire import NumericalError, WireParams
        real = tr._eo_terms

        def skewed(p, g, h, det_sq):
            terms = real(p, g, h, det_sq)
            return tr.EOTerms(terms.term_u1, terms.term_uN, terms.term_im * 1.001)

        tr._eo_terms = skewed
        try:
            tr.transmittance_eo(WireParams(n=3, eps0=0.0, v=1.0, gamma=1.0), 0.2)
        except NumericalError:
            print("raised")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_routes_independent_of_bandwidth():
    p1 = WireParams(n=4, eps0=0.0, v=1.0, gamma=0.8, bandwidth=1.0)
    p2 = WireParams(n=4, eps0=0.0, v=1.0, gamma=0.8, bandwidth=3.7)
    grid = np.linspace(-3, 3, 101)
    assert np.array_equal(transmittance_eo(p1, grid), transmittance_eo(p2, grid))
    assert np.array_equal(transmittance_gf(p1, grid), transmittance_gf(p2, grid))


def test_eo_matches_dense_oracle_three_sites():
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=1.0)
    assert transmittance_eo(p, 0.0) == pytest.approx(dense_transmittance(p, 0.0), abs=1e-12)


def test_closed_form_transmittance_matches_dense_inversion():
    rng = np.random.default_rng(24)
    for _ in range(60):
        p = random_params(rng, n=int(rng.integers(1, 7)))
        span = 2.5 * p.v
        for eps in rng.uniform(p.eps0 - span, p.eps0 + span, 5):
            assert transmittance_closed_form(p, eps) == pytest.approx(
                dense_transmittance(p, eps), rel=1e-12
            )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 300, 1000, 3000])
def test_routes_match_the_closed_form_transmittance_on_long_wires(n):
    # In Chebyshev units no power of v is taken, so |v| far from 1 works up
    # to n = 3000 (v**2999 leaves the double range for both 0.6 and 1.4).
    # The rounding of both sides grows with n, most near the band edges.
    rtol = 1e-13 * n
    x = np.linspace(-1.5, 1.5, 1201)
    for v in (-0.99, 0.6, -1.4):
        p = WireParams(n=n, eps0=0.13, v=v, gamma=0.7)
        band = p.eps0 + 2.0 * abs(v) * np.linspace(-0.999, 0.999, 2001)
        oracle = transmittance_closed_form(p, band)
        np.testing.assert_allclose(transmittance_gf(p, band), oracle, rtol=rtol, atol=0.0)
        # In band only: out of it the EO recombination goes slightly negative.
        np.testing.assert_allclose(transmittance_eo(p, band), oracle, rtol=rtol, atol=0.0)
        # Out of band U_k grows like |w|**-k, |w| = |x| - sqrt(x**2 - 1): GF
        # out to |x| = 1.5 wherever |det C~|**2 ~ |w|**(-2n) stays far inside
        # the double range.
        reach = x[n * np.arccosh(np.maximum(np.abs(x), 1.0)) < 300.0]
        reach = reach[np.abs(np.abs(reach) - 1.0) > 1e-3]  # the edges are 0/0 in the oracle
        wide = p.eps0 + 2.0 * abs(v) * reach
        np.testing.assert_allclose(transmittance_gf(p, wide),
                                   transmittance_closed_form(p, wide), rtol=rtol, atol=0.0)


def test_perfbench_wire_below_the_cofactor_range_gives_its_spectrum():
    # v = 0.6 at n = 800: v**799 ~ 1e-177, so cof**2 and |det C|**2 underflow
    # and the recombination check failed; in Chebyshev units neither is formed.
    spec = spectrum(WireParams(800, 0.0, 0.6, 0.5), -0.5, 0.5, 101, "both")
    for t in (spec.t_gf, spec.t_eo):
        assert 0.419 <= t.min() and t.max() <= 1.0
    assert spec.abs_diff().max() <= 1e-13
    np.testing.assert_allclose(spec.t_gf, transmittance_closed_form(spec.params, spec.energies),
                               rtol=1e-13 * 800, atol=0.0)


# --- equivalence of the two routes ---------------------------------------------

def test_routes_agree_absolutely():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_params(rng)
        grid = sweep_grid(p, 501)
        diff = np.abs(transmittance_gf(p, grid) - transmittance_eo(p, grid))
        assert diff.max() <= 1e-10


def test_equivalence_report_five_sites():
    p = WireParams(n=5, eps0=0.0, v=1.0, gamma=0.5)
    rep = equivalence_report(p, np.linspace(-4.0, 4.0, 1001))
    assert rep.max_abs_diff <= 1e-10
    assert rep.max_bridge_residual_rel <= 1e-9
    assert rep.min_abs_hat_gap > 0.0


def test_equivalence_gap_two_sites_hand_value():
    v = 1.7
    p = WireParams(n=2, eps0=0.0, v=v, gamma=1.0)
    rep = equivalence_report(p, np.array([0.0]))
    # Chat_1^2 - Chat_0 Chat_2 = 0 - (-v^2) = v^2, which in Chebyshev units
    # (U_k = Chat_k/|v|**k) is U_1^2 - U_0 U_2 = 0 - (-1) = 1: nonzero, the
    # identity is needed
    assert rep.hat_gap[0] == 1.0


def _public_routes(p, grid):
    """Both routes, or the error they raise, through the public functions."""
    try:
        return transmittance_gf(p, grid), transmittance_eo(p, grid)
    except NumericalError as exc:
        return exc


def test_shared_hat_dets_bit_identical_to_public_routes():
    # spectrum and equivalence_report evaluate hat_dets once and derive both
    # routes from it; every column must equal the separate public calls.
    rng = np.random.default_rng(29)
    for _ in range(40):
        p = WireParams(
            n=int(rng.integers(1, 401)),
            eps0=float(rng.uniform(-1, 1)),
            v=float(rng.choice([-1, 1]) * rng.uniform(0.3, 2.0)),
            gamma=float(rng.uniform(0.05, 3.0)),
        )
        edge = 2.0 * abs(p.v)  # band [eps0 - edge, eps0 + edge]
        reach = float(rng.uniform(0.5, 1.3))
        lo, hi = p.eps0 - reach * edge, p.eps0 + reach * edge
        with np.errstate(all="ignore"):
            grid = np.linspace(lo, hi, 257)
            public = _public_routes(p, grid)
            if isinstance(public, Exception):
                with pytest.raises(NumericalError):
                    spectrum(p, lo, hi, 257, "both")
            elif min(public[0].min(), public[1].min()) < 0.0:  # EO rounding out of band
                with pytest.raises(ValueError):
                    spectrum(p, lo, hi, 257, "both")
            else:
                spec = spectrum(p, lo, hi, 257, "both")
                assert list(map(_bits, spec.t_gf)) == list(map(_bits, public[0]))
                assert list(map(_bits, spec.t_eo)) == list(map(_bits, public[1]))

            energies = np.sort(rng.uniform(lo, hi, 6))
            public = _public_routes(p, energies)
            if isinstance(public, Exception):
                with pytest.raises(NumericalError):
                    equivalence_report(p, energies)
                continue
            rep = equivalence_report(p, energies)
            # The gap in Chebyshev units, from the unit kernel one energy at a time.
            kernel = tridiag_core._continuant_kernel(1.0, p.n)
            gap = []
            for e in energies.tolist():
                u_n, u_n1, u_n2 = kernel((p.eps0 - e) / abs(p.v))
                gap.append(u_n1 * u_n1 - u_n2 * u_n)
        diff = np.abs(public[0] - public[1])
        bridge = [
            abs(identity_residual(SymToeplitzTridiag(p.eps0 - e, -p.v, p.n))) if p.n > 1 else 0.0
            for e in energies
        ]
        assert list(map(_bits, rep.abs_diff)) == list(map(_bits, diff))
        assert list(map(_bits, rep.hat_gap)) == list(map(_bits, gap))
        assert list(map(_bits, rep.bridge_residual_rel)) == list(map(_bits, bridge))


def test_bridge_never_takes_exact_pass_for_correct_recurrence(monkeypatch):
    calls = []
    real = tridiag_core._exact_residuals
    monkeypatch.setattr(tridiag_core, "_exact_residuals",
                        lambda *a: calls.append(a) or real(*a))
    p = WireParams(n=2000, eps0=0.1, v=1.0, gamma=0.5)
    rep = equivalence_report(p, np.linspace(-1.8, 1.9, 24))
    assert calls == []
    assert rep.bridge_exact_fallbacks == 0
    assert rep.max_bridge_residual_rel == 0.0


def test_broken_recurrence_makes_bridge_report_exact_residual(monkeypatch):
    real = tridiag_core._continuant_kernel

    def sign_slip(b2, n, modulus=None):
        # The last recurrence step adds b2 A_{n-2} instead of subtracting it,
        # so the residual becomes 2 b2 A_{n-2}**2, which depends on the energy.
        kernel = real(b2, n, modulus)

        def slipped(alpha):
            a_n, a_n1, a_n2 = kernel(alpha)
            return a_n + 2 * b2 * a_n2, a_n1, a_n2

        return slipped

    monkeypatch.setattr(tridiag_core, "_continuant_kernel", sign_slip)
    p = WireParams(n=30, eps0=0.1, v=0.8, gamma=0.5)
    grid = np.linspace(-1.2, 1.3, 9)
    rep = equivalence_report(p, grid)
    exact = [
        abs(tridiag_core._exact_residuals(p.eps0 - e, -p.v, tridiag_core.FLOAT, p.n, p.n)[0])
        for e in grid
    ]
    assert list(map(_bits, rep.bridge_residual_rel)) == list(map(_bits, exact))
    assert np.all(rep.bridge_residual_rel > 0.0)
    assert rep.bridge_exact_fallbacks == grid.size


def test_underflowing_bridge_residual_is_not_reported_as_zero(monkeypatch):
    # With A_n + 1 the residual is A_{n-2}, nonzero but about 2**-1600 times
    # beta**(2n-2) at n = 30: its quotient rounds to 0.0, which must still
    # read as nonzero.
    real = tridiag_core._continuant_kernel

    def plus_one(b2, n, modulus=None):
        kernel = real(b2, n, modulus)

        def shifted(alpha):
            a_n, a_n1, a_n2 = kernel(alpha)
            return a_n + 1, a_n1, a_n2

        return shifted

    monkeypatch.setattr(tridiag_core, "_continuant_kernel", plus_one)
    p = WireParams(n=30, eps0=0.1, v=0.8, gamma=0.5)
    rep = equivalence_report(p, np.linspace(-1.2, 1.3, 9))
    assert rep.bridge_exact_fallbacks == 9
    assert np.all(rep.bridge_residual_rel == math.ulp(0.0))
    residual = identity_residual(SymToeplitzTridiag(0.3, 0.7, 30), "float")
    assert abs(residual) == math.ulp(0.0)


@pytest.mark.parametrize("broken", [False, True])
def test_equivalence_report_takes_numpy_scalar_params_as_python_scalars(broken, monkeypatch):
    # The bridge takes -v to a Python float before its common denominator;
    # a numpy integer has no as_integer_ratio.  A broken kernel sends every
    # energy through the exact pass too.
    if broken:
        real = tridiag_core._continuant_kernel

        def plus_one(b2, n, modulus=None):
            kernel = real(b2, n, modulus)

            def shifted(alpha):
                a_n, a_n1, a_n2 = kernel(alpha)
                return a_n + 1, a_n1, a_n2

            return shifted

        monkeypatch.setattr(tridiag_core, "_continuant_kernel", plus_one)
    grid = np.linspace(-2.5, 2.5, 17)
    numpy_p = WireParams(n=12, eps0=np.float32(0.1), v=np.int64(1),
                         gamma=np.float64(0.5), bandwidth=np.float64(2.0))
    python_p = WireParams(n=12, eps0=float(np.float32(0.1)), v=1, gamma=0.5, bandwidth=2.0)
    got, want = equivalence_report(numpy_p, grid), equivalence_report(python_p, grid)
    for name in ("abs_diff", "hat_gap", "bridge_residual_rel"):
        assert list(map(_bits, getattr(got, name))) == list(map(_bits, getattr(want, name)))
    for name in ("max_abs_diff", "min_abs_hat_gap", "max_abs_hat_gap",
                 "max_bridge_residual_rel", "bridge_exact_fallbacks"):
        assert repr(getattr(got, name)) == repr(getattr(want, name))
    assert got.bridge_exact_fallbacks == (grid.size if broken else 0)


def test_hat_dets_evaluated_once_per_call(monkeypatch):
    # The routes read the continuants in Chebyshev units, once per call.
    calls = []
    real = transport._chebyshev_dets

    def counting(p, eps):
        calls.append(eps)
        return real(p, eps)

    monkeypatch.setattr(transport, "_chebyshev_dets", counting)
    p = WireParams(n=6, eps0=0.1, v=0.9, gamma=0.7)
    grid = np.linspace(-2.0, 2.0, 11)
    for call in (
        lambda: spectrum(p, -2.0, 2.0, 11, "both"),
        lambda: equivalence_report(p, grid),
        lambda: transmittance_gf(p, grid),
        lambda: transmittance_eo(p, 0.3),
        lambda: eo_terms(p, 0.3),
    ):
        calls.clear()
        call()
        assert len(calls) == 1


def test_equivalence_report_rejects_empty_grid():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=1.0)
    with pytest.raises(PreconditionError):
        equivalence_report(p, np.array([]))


def test_equivalence_report_rejects_grid_of_two_dimensions():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=1.0)
    with pytest.raises(PreconditionError, match="1-d"):
        equivalence_report(p, np.zeros((2, 2)))


# --- physics sanity -------------------------------------------------------------

def test_unitarity_bound_on_sweeps():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = random_params(rng)
        grid = sweep_grid(p, 501)
        t = transmittance_gf(p, grid)
        assert t.min() >= 0.0
        assert t.max() <= 1.0 + 1e-9


def test_resonant_transmission_odd_chains():
    for n in (1, 3, 5, 7, 9, 11):
        p = WireParams(n=n, eps0=0.3, v=1.1, gamma=0.7)
        assert transmittance_gf(p, 0.3) == pytest.approx(1.0, abs=1e-10)


def test_mirror_symmetry_about_eps0():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_params(rng)
        delta = rng.uniform(0, 3, size=25)
        t_hi = transmittance_gf(p, p.eps0 + delta)
        t_lo = transmittance_gf(p, p.eps0 - delta)
        assert np.allclose(t_hi, t_lo, rtol=1e-12, atol=0.0)


def test_seven_site_chain_has_seven_resonance_peaks():
    p = WireParams(n=7, eps0=0.0, v=1.0, gamma=0.2)
    grid = np.linspace(-2.5, 2.5, 200001)
    t = transmittance_gf(p, grid)
    inner = (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
    peaks = np.flatnonzero(inner) + 1
    assert len(peaks) == 7
    assert all(t[k] >= 0.99 for k in peaks)
    # peak positions sit near the isolated-chain eigenenergies
    expected = np.sort(chain_resonances(p))
    assert np.allclose(np.sort(grid[peaks]), expected, atol=2e-3)


# --- spectrum -------------------------------------------------------------------

def test_spectrum_grid_and_symmetry():
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)
    spec = spectrum(p, -3.0, 3.0, 7, "both")
    assert spec.energies.shape == (7,)
    assert spec.energies[0] == -3.0 and spec.energies[-1] == 3.0
    assert np.allclose(spec.t_gf, spec.t_gf[::-1], rtol=1e-12)
    assert np.max(spec.abs_diff()) <= 1e-10


def test_spectrum_two_points_are_endpoints():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    spec = spectrum(p, -1.0, 2.0, 2, "gf")
    assert np.array_equal(spec.energies, [-1.0, 2.0])
    assert spec.t_eo is None


def test_spectrum_method_selects_columns():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    assert spectrum(p, -1, 1, 3, "gf").t_eo is None
    assert spectrum(p, -1, 1, 3, "eo").t_gf is None
    both = spectrum(p, -1, 1, 3, "both")
    assert both.t_gf is not None and both.t_eo is not None


@pytest.mark.parametrize(
    "args",
    [(1.0, -1.0, 5, "both"), (0.0, 0.0, 5, "both"), (-1.0, 1.0, 1, "both"),
     (-1.0, 1.0, 5, "nope"), (math.nan, 1.0, 5, "both"),
     # The width overflows: a ValueError, not np.linspace's RuntimeWarning.
     (-1e308, 1e308, 3, "both"),
     # A non-integral point count: a ValueError, not np.linspace's TypeError.
     (-1.0, 1.0, 2.5, "both")],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_rejects_bad_arguments(args):
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        spectrum(p, *args)


def test_spectrum_type_validates_bounds():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        TransmissionSpectrum(
            energies=np.array([0.0, 1.0]), params=p, method="gf",
            t_gf=np.array([0.5, 1.5]),
        )
    with pytest.raises(ValueError):
        TransmissionSpectrum(
            energies=np.array([1.0, 0.0]), params=p, method="gf",
            t_gf=np.array([0.5, 0.5]),
        )


def test_spectrum_type_rejects_nonfinite_samples():
    # Each column is checked by its min and max: a non-finite sample raises
    # NumericalError in either column, even beside a negative one, and a
    # finite sample outside [0, 1 + 1e-9] raises ValueError.
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    energies = np.array([0.0, 1.0, 2.0])

    def check(name, samples):
        columns = {"t_gf": np.full(3, 0.5), "t_eo": np.full(3, 0.5), name: np.array(samples)}
        TransmissionSpectrum(energies=energies, params=p, method="both", **columns)

    for name in ("t_gf", "t_eo"):
        for bad in (math.nan, math.inf, -math.inf):
            for samples in ([0.5, bad, 0.25], [bad, 0.5, 0.25], [0.5, 0.25, bad]):
                with pytest.raises(NumericalError, match=f"{name} has non-finite samples"):
                    check(name, samples)
        for samples in ([math.nan, -0.5, 0.25], [0.5, -0.5, math.nan], [2.0, math.nan, 0.5]):
            with pytest.raises(NumericalError, match=f"{name} has non-finite samples"):
                check(name, samples)
        for bad in (-1e-300, -0.5, 1.0 + 2e-9, 7.0):
            with pytest.raises(ValueError, match=rf"{name} leaves \[0, 1 \+ 1e-9\]"):
                check(name, [0.5, bad, 0.25])
        check(name, [0.0, 1.0 + 1e-9, 0.5])


def test_spectrum_type_validation_allocates_no_float_temporary():
    # The monotonicity check compares neighbours into one bool per point; a
    # full-grid float temporary (np.diff) alone would take 8 bytes per point.
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    points = 30000
    energies = np.linspace(-1.0, 1.0, points)
    t = np.full(points, 0.5)
    TransmissionSpectrum(energies=energies, params=p, method="both", t_gf=t, t_eo=t)  # warm up
    tracemalloc.start()
    try:
        TransmissionSpectrum(energies=energies, params=p, method="both", t_gf=t, t_eo=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * points


BLOCK = transport._BLOCK
BLOCK_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]


def _outcome(call):
    """The result of ``call``, or the type and message of the error it raises."""
    try:
        return call()
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_blocked_spectrum_bit_identical_to_whole_grid_routes(points, monkeypatch):
    # The public routes run the whole grid at once; spectrum runs it in
    # blocks of BLOCK energies, and every byte must agree.
    p = WireParams(n=40, eps0=0.1, v=0.9, gamma=0.6)
    grid = np.linspace(-1.6, 1.9, points)
    t_gf, t_eo = transmittance_gf(p, grid), transmittance_eo(p, grid)
    calls = []
    real = transport._chebyshev_dets

    def counting(p, eps):
        calls.append(len(eps))
        return real(p, eps)

    monkeypatch.setattr(transport, "_chebyshev_dets", counting)
    for method in ("gf", "eo", "both"):
        calls.clear()
        spec = spectrum(p, -1.6, 1.9, points, method)
        assert calls == [min(BLOCK, points - start) for start in range(0, points, BLOCK)]
        assert spec.energies.tobytes() == grid.tobytes()
        if method != "eo":
            assert spec.t_gf.tobytes() == t_gf.tobytes()
        if method != "gf":
            assert spec.t_eo.tobytes() == t_eo.tobytes()


def test_blocked_spectrum_raises_recombination_error_of_last_block():
    # At n = 700 the EO check fails above eps = 2.262 (the squared
    # continuants overflow).  Only the last of the three blocks reaches there.
    p = WireParams(n=700, eps0=0.0, v=1.0, gamma=0.5)
    points = 2 * BLOCK + 100
    grid = np.linspace(-2.0, 2.3, points)
    transmittance_eo(p, grid[:2 * BLOCK])
    whole = _outcome(lambda: transmittance_eo(p, grid))
    assert whole == (NumericalError, "averaged-term recombination disagrees with the closed form")
    for method in ("eo", "both"):
        assert _outcome(lambda: spectrum(p, -2.0, 2.3, points, method)) == whole
    spec = spectrum(p, -2.0, 2.3, points, "gf")
    assert spec.t_gf.tobytes() == transmittance_gf(p, grid).tobytes()


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_blocked_spectrum_keeps_error_order(points):
    # 1000 sites with v = 1.5.  A grid whose width overflows is rejected,
    # naming its bounds, before any block; otherwise spectrum fails or
    # succeeds as the whole-grid routes do.
    p = WireParams(n=1000, eps0=0.0, v=1.5, gamma=0.5)
    for method in ("gf", "eo", "both"):
        with pytest.raises(ValueError, match=r"width .* \[-1e\+308, 1e\+308\]"):
            spectrum(p, -1e308, 1e308, points, method)
    grid = np.linspace(-1.0, 1.0, points)
    for method, route in (("gf", transmittance_gf), ("eo", transmittance_eo)):
        whole = _outcome(lambda: route(p, grid))
        got = _outcome(lambda: spectrum(p, -1.0, 1.0, points, method))
        if isinstance(whole, tuple):
            assert got == whole
        else:
            assert getattr(got, "t_" + method).tobytes() == whole.tobytes()


def test_spectrum_temporaries_stay_block_sized():
    # The grid and two outputs span the whole grid; every temporary is
    # block-sized.  About 13 blocks are live at the peak; a whole-grid pass
    # holds about 15 grids.
    p = WireParams(n=300, eps0=0.1, v=1.0, gamma=0.5)
    points = 30000
    spectrum(p, -1.9, 2.0, points, "both")  # warm up
    tracemalloc.start()
    try:
        spectrum(p, -1.9, 2.0, points, "both")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes, block_bytes = 8 * points, 8 * BLOCK
    assert peak < 3 * grid_bytes + 16 * block_bytes


# --- Landauer current -------------------------------------------------------------

def test_current_zero_bias_is_exactly_zero():
    # At T > 0 too, the window is the bias point itself, not padded by 40*T.
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)
    for temperature in (0.0, 0.1):
        res = landauer_current(p, BiasWindow(0.7, 0.7, temperature))
        assert res.value == 0.0
        assert res.error_estimate == 0.0
        assert res.window == (0.7, 0.7)


def test_current_single_site_arctangent_oracle():
    gamma = 0.3
    p = WireParams(n=1, eps0=0.1, v=1.0, gamma=gamma)
    w = 50.0 * gamma
    res = landauer_current(p, BiasWindow(0.1 + w, 0.1 - w))
    oracle = lorentzian_window_integral(gamma, w)
    assert res.value == pytest.approx(oracle, rel=1e-9)
    assert res.error_estimate <= 1e-8 * abs(res.value)


def test_current_wide_window_approaches_pi_gamma():
    gamma = 0.05
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=gamma)
    res = landauer_current(p, BiasWindow(2000 * gamma, -2000 * gamma))
    assert res.value == pytest.approx(math.pi * gamma, rel=1e-3)


def test_current_antisymmetric_under_bias_swap():
    p = WireParams(n=4, eps0=0.0, v=1.0, gamma=0.8)
    fwd = landauer_current(p, BiasWindow(1.3, -0.4))
    rev = landauer_current(p, BiasWindow(-0.4, 1.3))
    assert fwd.value == pytest.approx(-rev.value, rel=1e-12)


def test_current_finite_temperature_smoothly_extends_zero_t():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.6)
    cold = landauer_current(p, BiasWindow(0.9, -0.9, temperature=1e-4))
    sharp = landauer_current(p, BiasWindow(0.9, -0.9))
    assert cold.value == pytest.approx(sharp.value, rel=1e-3)
    swapped = landauer_current(p, BiasWindow(-0.9, 0.9, temperature=1e-4))
    assert swapped.value == pytest.approx(-cold.value, rel=1e-9)


def test_current_window_padding_at_finite_temperature():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=0.5)
    res = landauer_current(p, BiasWindow(1.0, -1.0, temperature=0.05))
    assert res.window[0] == pytest.approx(-1.0 - 2.0)
    assert res.window[1] == pytest.approx(1.0 + 2.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n, mu, temperature, what", [
    (3, 1.0, 3e306, "padded"),  # the padded ends fit, hi - lo = 2.4e308 does not
    (3, 1.0, 5e306, "padded"),  # 40*T itself leaves the double range
    # The ends fit, but the continuants overflow to inf - inf = nan out there.
    # The pole sum now takes this current, so the quadrature's nan guard is
    # tested with the sum declined.
    (4, 1e200, 0.0, "quadrature"),
])
def test_current_beyond_double_range_raises_naming_temperature(n, mu, temperature, what,
                                                               monkeypatch):
    if what == "quadrature":
        _quad_only(monkeypatch)
    p = WireParams(n=n, eps0=0.0, v=1.0, gamma=0.5)
    with pytest.raises(NumericalError, match=what) as info:
        landauer_current(p, BiasWindow(mu, -mu, temperature))
    assert f"temperature {temperature!r}" in str(info.value)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("temperature", [0.0, 0.05])
def test_current_matches_dense_grid(n, temperature):
    p = WireParams(n=n, eps0=0.1, v=-0.9 if n % 2 else 1.1, gamma=0.6)
    res = landauer_current(p, BiasWindow(1.7, -1.3, temperature))
    oracle = current_dense_grid(p, 1.7, -1.3, temperature)
    assert res.value == pytest.approx(oracle, rel=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_current_more_resonances_than_subinterval_limit(monkeypatch):
    # All 20 chain resonances lie in the window, at least the limit of 10:
    # the subinterval limit is raised instead of quad rejecting the input.
    _quad_only(monkeypatch)
    monkeypatch.setattr(transport, "_QUAD_LIMIT", 10)
    p = WireParams(n=20, eps0=0.0, v=1.0, gamma=1.0)
    res = landauer_current(p, BiasWindow(2.5, -2.5))
    oracle = current_dense_grid(p, 2.5, -2.5, points=20001)
    assert math.isfinite(res.error_estimate)
    assert abs(res.value - oracle) <= res.error_estimate
    assert res.value == pytest.approx(oracle, rel=1e-4)


def _quad_only(monkeypatch):
    """Decline the pole sum, so that landauer_current runs its quadrature at any T."""
    monkeypatch.setattr(transport, "_pole_current", lambda p, bias: None)


def _plain_occupation(e, bias):
    """f_L - f_R as (tanh(b) - tanh(a))/2, which keeps its digits at any T."""
    t = bias.temperature
    return 0.5 * (math.tanh(0.5 * (e - bias.mu_right) / t)
                  - math.tanh(0.5 * (e - bias.mu_left) / t))


def _plain_gf(p, e):
    """GF transmittance from a plain index-doubling continuant loop, no library code.

    In Chebyshev units: alpha = (eps0 - e)/|v|, g = gamma/|v| and
    T = g**2/|det C~|**2.  (c, d) = (U_k, U_{k-1}) goes to index 2k or 2k+1
    by the continuant addition formula, following the bits of n-1 from the
    top; one recurrence step then gives U_n.
    """
    av = abs(p.v)
    alpha, g = (p.eps0 - e) / av, p.gamma / av
    if p.n == 1:
        c, d = 1.0, 0.0
    else:
        c, d = alpha * 1.0, 1.0
        m = p.n - 1
        for shift in range(m.bit_length() - 2, -1, -1):
            c2k = c * c - d * d
            if (m >> shift) & 1:
                c, d = c * (alpha * c - 2 * d), c2k
            else:
                c, d = c2k, d * (2 * c - alpha * d)
    re = (alpha * c - d) - 0.25 * g * g * d
    im = g * c
    return g * g / (re * re + im * im)


def _plain_current(p, bias):
    """landauer_current's quad call with the plain integrand above."""
    from scipy.integrate import quad

    lo, hi = sorted((bias.mu_left, bias.mu_right))
    t = bias.temperature
    if t > 0.0:
        lo, hi = lo - 40.0 * t, hi + 40.0 * t

        def integrand(e):
            return _plain_occupation(e, bias) * _plain_gf(p, e)
    else:

        def integrand(e):
            return _plain_gf(p, e)

    breaks = sorted(e for e in chain_resonances(p) if lo < e < hi)
    limit = transport._QUAD_LIMIT
    if len(breaks) >= limit:
        limit += len(breaks)
    value, abserr = quad(integrand, lo, hi, points=breaks or None, limit=limit,
                         epsabs=transport._QUAD_EPSABS, epsrel=transport._QUAD_EPSREL)
    if t == 0.0 and bias.mu_left < bias.mu_right:
        value = -value
    return value, abserr


# (gamma/|v|)**2 need not round as gamma**2/v**2 does (they differ at
# v = -0.7, gamma = 0.3), so the test also pins the numerator's operation order.
@pytest.mark.parametrize("n, v, gamma", [
    (1, 1.0, 0.5), (2, -0.7, 0.3), (7, 0.7, 0.7), (40, -0.7, 1.3), (226, 0.7, 0.2),
])
@pytest.mark.parametrize("temperature", [0.0, 0.03])
@pytest.mark.parametrize("forward", [True, False])
def test_current_bit_identical_to_plain_quad(n, v, gamma, temperature, forward, monkeypatch):
    _quad_only(monkeypatch)
    p = WireParams(n=n, eps0=0.13, v=v, gamma=gamma)
    mu = (0.13 + 1.3 * abs(v), 0.13 - 0.9 * abs(v))
    bias = BiasWindow(*(mu if forward else mu[::-1]), temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # IntegrationWarning at the subdivision limit
        res = landauer_current(p, bias)
        value, abserr = _plain_current(p, bias)
    assert (res.value.hex(), res.error_estimate.hex()) == (value.hex(), abserr.hex())


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_current_bit_identical_to_plain_quad_above_subinterval_limit(monkeypatch):
    _quad_only(monkeypatch)
    monkeypatch.setattr(transport, "_QUAD_LIMIT", 10)
    p = WireParams(n=20, eps0=0.0, v=1.0, gamma=1.0)
    for bias in (BiasWindow(2.5, -2.5), BiasWindow(-2.5, 2.5, 0.02)):
        res = landauer_current(p, bias)
        value, abserr = _plain_current(p, bias)
        assert (res.value.hex(), res.error_estimate.hex()) == (value.hex(), abserr.hex())


@pytest.mark.parametrize("temperature", [0.0, 0.03])
def test_current_builds_continuant_kernel_once_per_call(monkeypatch, temperature):
    _quad_only(monkeypatch)
    builds, evaluations = [], []
    real = transport._continuant_kernel

    def counting(b2, n):
        builds.append(n)
        kernel = real(b2, n)
        return lambda *args: evaluations.append(args) or kernel(*args)

    monkeypatch.setattr(transport, "_continuant_kernel", counting)
    p = WireParams(n=40, eps0=0.13, v=-0.7, gamma=1.3)
    landauer_current(p, BiasWindow(1.0, -0.5, temperature))
    assert builds == [40]
    assert len(evaluations) > 100


@pytest.mark.parametrize("n, v, gamma, mu, temperature", [
    (5, 0.2, 0.5, 0.3, 0.03),  # h = gamma/(2|v|) = 1.25, past the transition at h = 1
    (5, 0.2, 0.5, 0.3, 0.0),
    (3, 1.0, 0.5, 1.0, 1e16),  # the digamma differences cancel to rounding
])
@pytest.mark.parametrize("forward", [True, False])
def test_current_falls_back_to_plain_quad_on_its_own(n, v, gamma, mu, temperature, forward):
    p = WireParams(n=n, eps0=0.0, v=v, gamma=gamma)
    bias = BiasWindow(*((mu, -mu) if forward else (-mu, mu)), temperature)
    assert transport._pole_current(p, bias) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # IntegrationWarning on the 4e17-wide window
        res = landauer_current(p, bias)
        value, abserr = _plain_current(p, bias)
    assert (res.value.hex(), res.error_estimate.hex()) == (value.hex(), abserr.hex())


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_current_far_above_the_bias_keeps_its_digits():
    # n = 3, mu = +-1: the pole sum declines from T = 1e5 and the quadrature
    # runs.  I*T tends to a constant as T grows; (0.5 - 0.5 tanh a) -
    # (0.5 - 0.5 tanh b) lost everything below the ulp of 0.5 (28 % low at
    # T = 1e16, 0.0 at 1e17), (tanh b - tanh a)/2 keeps it.
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)

    def scaled(temperature):
        return landauer_current(p, BiasWindow(1.0, -1.0, temperature)).value * temperature

    reference = scaled(1e12)
    assert reference == pytest.approx(0.61086, rel=1e-4)
    for temperature in (1e16, 1e17):
        assert scaled(temperature) == pytest.approx(reference, rel=1e-6)


def _newton_angles(n, h):
    """All n pole angles by Newton with two logs from the chain angles, with no mirror.

    The independent reference for ``_pole_angles``: the solve it ran before
    it took the upper half of the poles from the mirror, took the two logs
    as one and started from the first order in h.
    """
    k = np.arange(1, n + 1)
    theta = (math.pi / (n + 1)) * k + 0j
    branch = (1j * math.pi) * k
    ih = 1j * h
    q = 1.0 + h * h
    for _ in range(transport._NEWTON_STEPS):
        w = np.exp(1j * theta)
        a = w + ih
        b = 1.0 + ih * w
        step = (1j * n * theta + np.log(a) - np.log(b) - branch) / (1j * (n + q * w / (a * b)))
        theta -= step
        if np.abs(step).max() <= transport._NEWTON_TOL:
            return theta
    return None


def _solved_half(n, h):
    """A copy of the Newton loop of ``_pole_angles``: k = 1..ceil(n/2), no mirror."""
    k = np.arange(1, (n + 1) // 2 + 1)
    chain = (math.pi / (n + 1)) * k
    theta = chain + (2j * h / (n + 1)) * np.sin(chain)
    branch = (1j * math.pi) * k
    ih = 1j * h
    q = 1.0 + h * h
    for _ in range(transport._NEWTON_STEPS):
        w = np.exp(1j * theta)
        a = w + ih
        b = 1.0 + ih * w
        step = (1j * n * theta + np.log(a / b) - branch) / (1j * (n + q * w / (a * b)))
        theta -= step
        if np.abs(step).max() <= transport._NEWTON_TOL:
            return theta
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40, 41, 226])
@pytest.mark.parametrize("h", [0.05, 0.5, 0.95])
def test_pole_angles_take_the_upper_half_from_the_mirror(n, h):
    # Solved: k = 1..ceil(n/2), by Newton itself, the odd middle root
    # included; at n = 1 that is the whole solve.  Mirrored, bit for bit:
    # theta_k = pi - conj(theta_{n+1-k}).  The two-log full solve from the
    # chain angles lands within rounding of both halves.
    theta = transport._pole_angles(n, h)
    half = (n + 1) // 2
    assert theta.shape == (n,)
    assert theta[:half].tobytes() == _solved_half(n, h).tobytes()
    for k in range(half + 1, n + 1):
        assert theta[k - 1] == math.pi - theta[n - k].conjugate()
    assert np.abs(theta - _newton_angles(n, h)).max() <= 4e-15
    if n % 2:
        assert abs(theta[half - 1].real - 0.5 * math.pi) <= 4e-15


@pytest.mark.parametrize("h", [0.05, 0.3, 0.6, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.999999])
def test_pole_angles_solve_the_two_log_equation_up_to_the_transition(h):
    # On the solved half (Re theta <= pi/2, |w| <= 1, h < 1) the principal
    # log of A/B is log A - log B, so the one-log loop has the two-log
    # equation's roots.  Near h = 1 two poles close in on each other.
    for n in [*range(1, 41), 60, 100, 101, 200, 201, 400]:
        theta = transport._pole_angles(n, h)
        assert theta is not None, n
        assert np.abs(theta - _newton_angles(n, h)).max() <= 1e-12, n
        w = np.exp(1j * theta[: (n + 1) // 2])
        a, b = w + 1j * h, 1.0 + 1j * h * w
        assert np.abs(np.log(a / b) - (np.log(a) - np.log(b))).max() <= 1e-14, n


@pytest.mark.parametrize("h", [0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999])
def test_poles_match_dense_eigenvalues_near_the_transition(h):
    # Two poles approach each other as h -> 1; Newton still converges, and
    # lambda_j = eps0 - |v| (w + 1/w) matches the eigenvalues of
    # K = eps0 - vJ + i gamma/2 on both corners.
    for n in [*range(2, 41), 60, 100, 101, 200, 201]:
        p = WireParams(n=n, eps0=0.0, v=1.0, gamma=2.0 * h)
        theta = transport._pole_angles(n, h)
        assert theta is not None, n
        w = np.exp(1j * theta)
        lam = -(w + 1.0 / w)
        dense = np.linalg.eigvals(dense_wire_matrix(p, 0.0))
        gap = np.abs(lam[:, None] - dense[None, :])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-13, n


@pytest.mark.parametrize("n", [7, 101])
@pytest.mark.parametrize("temperature", [0.0, 0.05])
def test_pole_sum_takes_currents_next_to_the_transition(n, temperature):
    # h = 1 - 1e-12: from the chain angles Newton needed more than
    # _NEWTON_STEPS steps and the quadrature ran; from the first-order start
    # it needs 5.
    p = WireParams(n=n, eps0=0.0, v=1.0, gamma=2.0 * (1.0 - 1e-12))
    bias = BiasWindow(0.7, -0.4, temperature)
    assert transport._pole_current(p, bias) is not None
    _assert_matches_pole_oracle(p, bias)


def test_pole_sum_declines_a_doubled_pole(monkeypatch):
    # Newton landing twice on one pole (and so missing another) leaves the
    # residues summing to about a_j, not 0; the residue defect in the bound
    # then exceeds the tolerance, and the quadrature runs.
    p = WireParams(n=8, eps0=0.1, v=-0.8, gamma=0.5)
    biases = [BiasWindow(0.9, -1.1, 0.03), BiasWindow(0.9, -1.1)]
    assert all(transport._pole_current(p, bias) is not None for bias in biases)
    real = transport._pole_angles

    def doubled(n, h):
        theta = real(n, h)
        theta[3] = theta[4]
        return theta

    monkeypatch.setattr(transport, "_pole_angles", doubled)
    assert all(transport._pole_current(p, bias) is None for bias in biases)

    # A doubling inside the solved half, theta_2 = theta_3, which the mirror
    # copies to theta_7 = theta_6: two poles doubled, two missing.
    def doubled_before_the_mirror(n, h):
        solved = real(n, h)[: (n + 1) // 2]
        solved[1] = solved[2]
        return np.concatenate((solved, math.pi - solved[: n // 2][::-1].conj()))

    monkeypatch.setattr(transport, "_pole_angles", doubled_before_the_mirror)
    assert all(transport._pole_current(p, bias) is None for bias in biases)


def _assert_matches_pole_oracle(p, bias):
    res = landauer_current(p, bias)
    oracle = current_pole_sum_dense(p, bias.mu_left, bias.mu_right, bias.temperature)
    assert math.isfinite(res.error_estimate)
    assert abs(res.value - oracle) <= res.error_estimate
    return res, oracle


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    eps0=st.floats(-1.0, 1.0),
    v=st.floats(0.1, 2.0),
    v_sign=st.sampled_from([-1.0, 1.0]),
    h=st.floats(0.005, 0.99),
    centre=st.floats(-1.0, 1.0),
    half_width=st.floats(0.05, 3.0),
    temperature=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    forward=st.booleans(),
)
def test_current_matches_dense_pole_sum(n, eps0, v, v_sign, h, centre, half_width,
                                        temperature, forward):
    # Windows centred in the band, 2.5 % to 1.5 band widths wide; h up to
    # 0.99, near the transition at h = 1, where two poles approach each
    # other and Newton's first-order start is at its poorest.  Far outside
    # the band the current is a small remainder of O(1) terms, which the
    # oracle's own rounding (about 1e-16 of them) no longer resolves.
    p = WireParams(n=n, eps0=eps0, v=v_sign * v, gamma=2.0 * h * v)
    mid, half = eps0 + 2.0 * v * centre, v * half_width
    mu = (mid + half, mid - half) if forward else (mid - half, mid + half)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # IntegrationWarning, should the quadrature run
        _assert_matches_pole_oracle(p, BiasWindow(*mu, temperature))


@pytest.mark.parametrize("n, eps0, v, gamma, mu_left, mu_right, temperature", [
    # The 40*T-padded window overflowed the continuants: quad returned nan.
    (219, -0.129, -0.965, 0.972, 2.035, -1.938, 0.714),
    # quad returned -0.72252465 with an error estimate of 7e-11.
    (57, 0.98127, 0.67257, 0.81137, -0.55775, 1.05251, 0.70828),
    # 226 chain resonances in the window: quad stopped at its subinterval
    # limit, 1.6e-6 off with an estimate of 9.3e-3 at T = 0.
    (226, 0.0, 1.0, 0.3, 2.2, -2.2, 0.0),
    (226, 0.0, 1.0, 0.3, 2.2, -2.2, 1e-3),
])
def test_current_matches_dense_pole_sum_on_long_wires(n, eps0, v, gamma, mu_left, mu_right,
                                                      temperature):
    p = WireParams(n=n, eps0=eps0, v=v, gamma=gamma)
    res, oracle = _assert_matches_pole_oracle(p, BiasWindow(mu_left, mu_right, temperature))
    assert abs(res.value - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("temperature", [1e3, 1e4])
def test_current_keeps_the_band_tails_far_above_the_bias(temperature):
    # At T >> the band every pole contributes about Delta mu / (4T) times its
    # weight, so 2T*I tends to the integral of T(e) over all energies,
    # 1.47840 for this wire.  The quadrature over the (80*T + 2)-wide window
    # sampled too sparsely to see the Lorentzian tails beyond the outermost
    # resonances and gave 1.22171, the integral between +-sqrt(2) alone.
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)
    res, _ = _assert_matches_pole_oracle(p, BiasWindow(1.0, -1.0, temperature))
    assert 2.0 * temperature * res.value == pytest.approx(1.478396, rel=1e-6)


# The integral of T(e) over all energies does not depend on n for this
# choice of eps0, v and gamma.
TOTAL_INTEGRAL = 1.4783965428657


@pytest.mark.parametrize("n, mu", [(3, 1e5), (8, 1e3), (4, 1e100), (4, 1e200)])
@pytest.mark.parametrize("forward", [True, False])
def test_current_keeps_the_band_tails_on_wide_cold_windows(n, mu, forward):
    # The quadrature sampled these windows too sparsely to see the tails
    # beyond the outermost resonances: 1.2217 at n = 3, 1.4516 at n = 8 and
    # 1.3390 at n = 4, mu = +-1e100; at mu = +-1e200 the continuants
    # overflowed and it returned nan.
    p = WireParams(n=n, eps0=0.0, v=1.0, gamma=0.5)
    res, _ = _assert_matches_pole_oracle(p, BiasWindow(*((mu, -mu) if forward else (-mu, mu))))
    assert res.value == pytest.approx(TOTAL_INTEGRAL if forward else -TOTAL_INTEGRAL, rel=1e-12)


def _refuse_quadrature(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("quad ran where the pole sum should have")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)


@pytest.mark.parametrize("temperature", [0.0, 0.05])
def test_one_site_current_takes_the_pole_sum_for_any_hopping(temperature, monkeypatch):
    # h = gamma/(2|v|) = 1.25 here, but v does not enter a one-site G.
    _refuse_quadrature(monkeypatch)
    p = WireParams(n=1, eps0=0.0, v=0.2, gamma=0.5)
    res, oracle = _assert_matches_pole_oracle(p, BiasWindow(0.3, -0.3, temperature))
    assert 0.0 < res.error_estimate <= transport._QUAD_EPSREL * abs(res.value)
    if temperature == 0.0:
        assert abs(res.value - lorentzian_window_integral(0.5, 0.3)) <= res.error_estimate


# Ordinary wires: h <= 0.9, n <= 300, windows overlapping the band.
ORDINARY_WARM_WIRES = [
    (1, 0.0, 1.0, 0.5, 0.3, -0.3, 0.01),
    (2, 0.1, -0.7, 0.3, 0.8, -0.5, 0.05),
    (7, 0.13, 0.7, 0.7, 0.9, -0.6, 0.03),
    (40, 0.13, -0.7, 1.26, 1.0, -0.5, 0.03),
    (95, -0.3, 1.2, 0.1, -0.2, 0.4, 0.005),
    (150, 0.2, 0.5, 0.9, 0.1, 0.15, 0.1),
    (226, 0.13, 0.7, 0.2, -1.0, 1.2, 0.03),
    (300, 0.0, -1.0, 1.8, 2.5, -2.5, 0.02),
]


@pytest.mark.parametrize("n, eps0, v, gamma, mu_left, mu_right, temperature",
                         ORDINARY_WARM_WIRES)
def test_ordinary_warm_currents_never_reach_the_quadrature(
        n, eps0, v, gamma, mu_left, mu_right, temperature, monkeypatch):
    # A guard that declined these would give back the whole gain, silently.
    _refuse_quadrature(monkeypatch)
    p = WireParams(n=n, eps0=eps0, v=v, gamma=gamma)
    res = landauer_current(p, BiasWindow(mu_left, mu_right, temperature))
    assert 0.0 < res.error_estimate <= transport._QUAD_EPSREL * abs(res.value)


@pytest.mark.parametrize("n, eps0, v, gamma, mu_left, mu_right, temperature",
                         ORDINARY_WARM_WIRES)
def test_ordinary_cold_currents_never_reach_the_quadrature(
        n, eps0, v, gamma, mu_left, mu_right, temperature, monkeypatch):
    _refuse_quadrature(monkeypatch)
    p = WireParams(n=n, eps0=eps0, v=v, gamma=gamma)
    res = landauer_current(p, BiasWindow(mu_left, mu_right))
    assert 0.0 < res.error_estimate <= transport._QUAD_EPSREL * abs(res.value)


def test_bias_window_validation():
    with pytest.raises(ValueError):
        BiasWindow(0.0, 1.0, temperature=-0.1)
    with pytest.raises(ValueError):
        BiasWindow(math.nan, 1.0)
