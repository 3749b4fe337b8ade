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

from oracles import current_dense_grid, dense_transmittance, lorentzian_window_integral


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


def test_gf_scalar_underflow_raises_numerical_error():
    # 200 sites with v = 0.01: both cof**2 and |det C|**2 fall below the
    # double range at eps = 0, so the scalar quotient would be 0/0.
    p = WireParams(n=200, eps0=0.0, v=0.01, gamma=0.5)
    for route in (transmittance_gf, transmittance_eo, eo_terms):
        with pytest.raises(NumericalError):
            route(p, 0.0)
    with pytest.raises(NumericalError):
        landauer_current(p, BiasWindow(0.01, -0.01))


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


def test_gf_numerator_overflow_raises_numerical_error():
    # 1000 sites with v = 1.5: v**(n-1) ~ 1e176 fits in a double, its square
    # does not, so every GF value would be inf / inf = nan.
    p = WireParams(n=1000, eps0=0.0, v=1.5, gamma=0.5)
    calls = [
        lambda: transmittance_gf(p, 0.05),
        lambda: transmittance_gf(p, np.array([0.05, 0.1])),
        lambda: spectrum(p, -1.0, 1.0, 3, "gf"),
        lambda: spectrum(p, -1.0, 1.0, 3, "both"),
        lambda: equivalence_report(p, np.linspace(-1.0, 1.0, 3)),
        lambda: landauer_current(p, BiasWindow(0.1, -0.1)),
        lambda: landauer_current(p, BiasWindow(0.1, -0.1, temperature=0.01)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NumericalError, match="GF numerator"):
                call()


def test_cofactor_overflow_raises_numerical_error():
    # 2000 sites with v = 1.5: v**(n-1) exceeds the double range, which a
    # float power reports as OverflowError; every route must name the cofactor.
    p = WireParams(n=2000, eps0=0.0, v=1.5, gamma=0.5)
    calls = [
        lambda: transmittance_gf(p, 0.1),
        lambda: transmittance_eo(p, 0.1),
        lambda: eo_terms(p, 0.1),
        lambda: spectrum(p, -1.0, 1.0, 3, "both"),
        lambda: equivalence_report(p, np.linspace(-1.0, 1.0, 3)),
        lambda: landauer_current(p, BiasWindow(0.1, -0.1)),
        lambda: landauer_current(p, BiasWindow(0.1, -0.1, temperature=0.01)),
    ]
    for call in calls:
        with pytest.raises(NumericalError, match=r"v\*\*\(n-1\)"):
            call()


def test_eo_check_runs_under_optimize():
    # Under -O an assert would be stripped; the recombination check must
    # still catch a term that no longer matches the closed form.
    script = textwrap.dedent("""
        import qwire.transport as tr
        from qwire import NumericalError, WireParams
        real = tr._eo_terms

        def skewed(p, h, det_sq):
            terms = real(p, h, det_sq)
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
    # Chat_1^2 - Chat_0 Chat_2 = 0 - (-v^2) = v^2: nonzero, the identity is needed
    assert rep.hat_gap[0] == pytest.approx(v * v, rel=1e-14)


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
            h = hat_dets(p, energies)
        diff = np.abs(public[0] - public[1])
        gap = h.c_n1 * h.c_n1 - h.c_n2 * h.c_n
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

        def slipped(alpha, zero, one):
            a_n, a_n1, a_n2 = kernel(alpha, zero, one)
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

        def shifted(alpha, zero, one):
            a_n, a_n1, a_n2 = kernel(alpha, zero, one)
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

            def shifted(alpha, zero, one):
                a_n, a_n1, a_n2 = kernel(alpha, zero, one)
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
    calls = []

    def counting(p, eps):
        calls.append(eps)
        return hat_dets(p, eps)

    monkeypatch.setattr(transport, "hat_dets", counting)
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
     (-1e308, 1e308, 3, "both")],
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
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(NumericalError):
            TransmissionSpectrum(
                energies=np.array([0.0, 1.0]), params=p, method="gf",
                t_gf=np.array([0.5, bad]),
            )


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

    def counting(p, eps):
        calls.append(len(eps))
        return hat_dets(p, eps)

    monkeypatch.setattr(transport, "hat_dets", counting)
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
    # 1000 sites with v = 1.5: the GF numerator overflows.  A grid whose
    # width overflows is rejected, naming its bounds, before that; with
    # method "eo" the numerator is never formed, and spectrum fails or
    # succeeds as the whole-grid EO route does.
    p = WireParams(n=1000, eps0=0.0, v=1.5, gamma=0.5)
    for method in ("gf", "eo", "both"):
        with pytest.raises(ValueError, match=r"width .* \[-1e\+308, 1e\+308\]"):
            spectrum(p, -1e308, 1e308, points, method)
    with pytest.raises(NumericalError, match="GF numerator"):
        spectrum(p, -1.0, 1.0, points, "both")
    grid = np.linspace(-1.0, 1.0, points)
    whole = _outcome(lambda: transmittance_eo(p, grid))
    got = _outcome(lambda: spectrum(p, -1.0, 1.0, points, "eo"))
    if isinstance(whole, tuple):
        assert got == whole
    else:
        assert got.t_eo.tobytes() == whole.tobytes()


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
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)
    res = landauer_current(p, BiasWindow(0.7, 0.7))
    assert res.value == 0.0
    assert res.error_estimate == 0.0


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
    (4, 1e200, 0.0, "quadrature"),
])
def test_current_beyond_double_range_raises_naming_temperature(n, mu, temperature, what):
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
    monkeypatch.setattr(transport, "_QUAD_LIMIT", 10)
    p = WireParams(n=20, eps0=0.0, v=1.0, gamma=1.0)
    res = landauer_current(p, BiasWindow(2.5, -2.5))
    oracle = current_dense_grid(p, 2.5, -2.5, points=20001)
    assert math.isfinite(res.error_estimate)
    assert abs(res.value - oracle) <= res.error_estimate
    assert res.value == pytest.approx(oracle, rel=1e-4)


def _plain_fermi(e, mu, temperature):
    return 0.5 - 0.5 * math.tanh(0.5 * (e - mu) / temperature)


def _plain_gf(p, e):
    """GF transmittance from a plain index-doubling continuant loop, no library code.

    (c, d) = (Chat_k, Chat_{k-1}) goes to index 2k or 2k+1 by the continuant
    addition formula, following the bits of n-1 from the top; one recurrence
    step then gives Chat_n.
    """
    alpha, b2, g = p.eps0 - e, p.v * p.v, p.gamma
    if p.n == 1:
        c, d = 1.0, 0.0
    else:
        c, d = alpha * 1.0, 1.0
        m = p.n - 1
        for shift in range(m.bit_length() - 2, -1, -1):
            c2k = c * c - b2 * (d * d)
            if (m >> shift) & 1:
                c, d = c * (alpha * c - 2 * b2 * d), c2k
            else:
                c, d = c2k, d * (2 * c - alpha * d)
    re = (alpha * c - b2 * d) - 0.25 * g * g * d
    im = g * c
    cof = float(p.v) ** (p.n - 1)
    return g ** 2 * cof * cof / (re * re + im * im)


def _plain_current(p, bias):
    """landauer_current's quad call with the plain integrand above."""
    from scipy.integrate import quad

    lo, hi = sorted((bias.mu_left, bias.mu_right))
    t = bias.temperature
    if t > 0.0:
        lo, hi = lo - 40.0 * t, hi + 40.0 * t

        def integrand(e):
            occ = _plain_fermi(e, bias.mu_left, t) - _plain_fermi(e, bias.mu_right, t)
            return occ * _plain_gf(p, e)
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


# Except at n = 1, g**2 * (cof * cof) rounds differently from (g**2 * cof) * cof
# on these wires, so the test also pins the numerator's operation order.
@pytest.mark.parametrize("n, v, gamma", [
    (1, 1.0, 0.5), (2, -0.7, 0.3), (7, 0.7, 0.7), (40, -0.7, 1.3), (226, 0.7, 0.2),
])
@pytest.mark.parametrize("temperature", [0.0, 0.03])
@pytest.mark.parametrize("forward", [True, False])
def test_current_bit_identical_to_plain_quad(n, v, gamma, temperature, forward):
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
    monkeypatch.setattr(transport, "_QUAD_LIMIT", 10)
    p = WireParams(n=20, eps0=0.0, v=1.0, gamma=1.0)
    for bias in (BiasWindow(2.5, -2.5), BiasWindow(-2.5, 2.5, 0.02)):
        res = landauer_current(p, bias)
        value, abserr = _plain_current(p, bias)
        assert (res.value.hex(), res.error_estimate.hex()) == (value.hex(), abserr.hex())


@pytest.mark.parametrize("temperature", [0.0, 0.03])
def test_current_builds_continuant_kernel_once_per_call(monkeypatch, temperature):
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


def test_bias_window_validation():
    with pytest.raises(ValueError):
        BiasWindow(0.0, 1.0, temperature=-0.1)
    with pytest.raises(ValueError):
        BiasWindow(math.nan, 1.0)
