"""Continuant algebra: determinant sequences, cofactor, Chebyshev cross-check, identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwire import (
    EXACT,
    FLOAT,
    DetSequence,
    DomainError,
    ModeError,
    NumericalError,
    SymToeplitzTridiag,
    WireParams,
    corner_cofactor,
    det,
    det_sequence,
    hat_dets,
    identity_residual,
    identity_residuals,
    transport,
    tridiag_core,
    wire_matrix,
)

from oracles import chebyshev_det, dense_det, dense_corner_cofactor, dense_sym_tridiag, typed_bits

ints = st.integers(min_value=-10, max_value=10)
sizes = st.integers(min_value=2, max_value=40)


# --- determinant sequence -------------------------------------------------

def test_sequence_alpha3_beta1():
    m = SymToeplitzTridiag(3, 1, 4)
    assert det_sequence(m, EXACT).values == (1, 3, 8, 21, 55)
    assert det_sequence(m, FLOAT).values == (1.0, 3.0, 8.0, 21.0, 55.0)


def test_sequence_empty_matrix():
    assert det_sequence(SymToeplitzTridiag(7.3, -2.1, 0)).values == (1.0,)
    assert det(SymToeplitzTridiag(7.3, -2.1, 0)) == 1.0


def test_sequence_alpha2_beta1():
    assert det_sequence(SymToeplitzTridiag(2, 1, 3), EXACT).values == (1, 2, 3, 4)


def test_sequence_periodic_case():
    m = SymToeplitzTridiag(1, 1, 6)
    assert det_sequence(m, EXACT).values == (1, 1, 0, -1, -1, 0, 1)
    assert det(m, EXACT) == 1


def test_det_n2_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(-5, 5, size=2)
        assert det(SymToeplitzTridiag(a, b, 2)) == pytest.approx(a * a - b * b, rel=1e-12)


def test_det_alpha3_beta1_n3():
    assert det(SymToeplitzTridiag(3, 1, 3), EXACT) == 21


def test_float_matches_exact_for_integer_inputs():
    rng = np.random.default_rng(11)
    # (7, 3, 213): A_213 passes 2**512 but stays in the double range.
    cases = [(7, 3, 213)] + [
        (int(rng.integers(-10, 11)), int(rng.integers(-10, 11)), int(rng.integers(0, 25)))
        for _ in range(50)
    ]
    for a, b, n in cases:
        m = SymToeplitzTridiag(a, b, n)
        exact = det_sequence(m, EXACT).values
        floats = det_sequence(m, FLOAT).values
        assert len(floats) == len(exact) == n + 1
        for ve, vf in zip(exact, floats):
            assert vf == pytest.approx(float(ve), rel=1e-12, abs=1e-300)


def test_sequence_triples_satisfy_recurrence():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a, b = rng.uniform(-10, 10, size=2)
        n = int(rng.integers(2, 41))
        seq = det_sequence(SymToeplitzTridiag(a, b, n), FLOAT).values
        for k in range(2, n + 1):
            expect = a * seq[k - 1] - b * b * seq[k - 2]
            scale = max(abs(seq[k]), abs(expect), 1e-300)
            assert abs(seq[k] - expect) <= 1e-12 * scale


def test_float_sequence_beyond_double_range_raises():
    for alpha, beta, n, first in (
        # A_k grows like 2**(40k) and passes the largest double at k = 26.
        (2.0 ** 40, 1.0, 64, 26),
        # A_k grows like 9**k; a whole-list rescale once flushed A_0, A_1, A_2
        # to (0.0, -0.0, -0.0) here instead of (1, -1, -80).
        (-1.0, -9.0, 1223, 324),
    ):
        with pytest.raises(NumericalError, match=rf"\bA_{first} leaves the double range"):
            det_sequence(SymToeplitzTridiag(alpha, beta, n), FLOAT)
        # The entries before the first non-finite one are the plain recurrence's.
        head = det_sequence(SymToeplitzTridiag(alpha, beta, first - 1), FLOAT).values
        exact = det_sequence(SymToeplitzTridiag(alpha, beta, first - 1), EXACT).values
        assert all(math.isfinite(v) for v in head)
        assert head[:3] == tuple(map(float, exact[:3]))
        assert head[-1] == pytest.approx(float(exact[-1]), rel=1e-10)


def test_float_det_beyond_double_range_raises_naming_first_index():
    # A_n of alpha = 7, beta = 3 grows like 5.3**n, past the double range at n = 426.
    with pytest.raises(NumericalError, match=r"\bA_426 leaves the double range"):
        det(SymToeplitzTridiag(7.0, 3.0, 1000))
    with pytest.raises(NumericalError, match=r"\bA_426 leaves the double range"):
        det(SymToeplitzTridiag(-7.0, 3.0, 1001))
    assert math.isfinite(det(SymToeplitzTridiag(7.0, 3.0, 425)))


def test_sequence_with_beta_squared_beyond_double_range():
    # beta**2 = 1e400 is inf in float mode, yet A_0 = 1 and A_1 = alpha are
    # finite: the first determinant beyond the double range is
    # A_2 = alpha**2 - beta**2.
    for beta in (1e200, -1e200):
        assert det_sequence(SymToeplitzTridiag(1.0, beta, 0)).values == (1.0,)
        assert det_sequence(SymToeplitzTridiag(1.0, beta, 1)).values == (1.0, 1.0)
        assert det(SymToeplitzTridiag(1.0, beta, 0)) == 1.0
        assert det(SymToeplitzTridiag(-3.5, beta, 1)) == -3.5
        for n in (2, 3, 50):
            with pytest.raises(NumericalError, match=r"\bA_2 leaves the double range"):
                det_sequence(SymToeplitzTridiag(1.0, beta, n))


@pytest.mark.parametrize("mode, alpha, beta, want", [
    (FLOAT, 3, 1, "(1.0, 3.0, 8.0)"),
    (EXACT, 3, 1, "(1, 3, 8)"),
    (EXACT, 3, Fraction(1, 2), "(Fraction(1, 1), Fraction(3, 1), Fraction(35, 4))"),
    (EXACT, Fraction(3, 2), 1, "(1, Fraction(3, 2), Fraction(5, 4))"),
    (EXACT, Fraction(3, 2), Fraction(-1, 3), "(Fraction(1, 1), Fraction(3, 2), Fraction(77, 36))"),
])
def test_sequence_start_takes_the_types_of_its_inputs(mode, alpha, beta, want):
    # A_0 = 1 has the type of beta**2 and A_1 = alpha * A_0 the common type
    # of alpha and beta**2, as every later entry does.
    values = det_sequence(SymToeplitzTridiag(alpha, beta, 2), mode).values
    assert repr(values) == want
    assert repr(det_sequence(SymToeplitzTridiag(alpha, beta, 0), mode).values) == repr(values[:1])


def test_dense_oracle_agreement():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(1, 21))
        a, b = rng.uniform(-10, 10, size=2)
        m = SymToeplitzTridiag(a, b, n)
        oracle = dense_det(dense_sym_tridiag(a, b, n))
        assert det(m) == pytest.approx(oracle, rel=1e-9)


# --- Chebyshev closed form ------------------------------------------------

def test_chebyshev_matches_recurrence_example():
    assert chebyshev_det(3, 1, 4) == pytest.approx(55.0, rel=1e-12)


def test_chebyshev_u2_at_zero():
    assert chebyshev_det(0, 1, 2) == pytest.approx(-1.0, rel=1e-12)


def test_chebyshev_at_band_edge():
    # U_n(1) = n + 1
    assert chebyshev_det(2, 1, 5) == pytest.approx(6.0, rel=1e-12)


def test_chebyshev_agrees_with_det():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(0, 41))
        a = rng.uniform(-10, 10)
        b = rng.uniform(0.1, 10) * rng.choice([-1.0, 1.0])
        d = det(SymToeplitzTridiag(a, b, n))
        c = chebyshev_det(a, b, n)
        if math.isfinite(d) and math.isfinite(c) and abs(d) > 1e-300:
            assert c == pytest.approx(d, rel=1e-9)
            checked += 1
    assert checked > 150


def test_chebyshev_power_underflow_with_zero_chebyshev_factor_is_zero():
    # U_3(0) = 0: the determinant is exactly zero, although beta**3 underflows.
    assert chebyshev_det(0.0, 1e-200, 3) == 0.0 == det(SymToeplitzTridiag(0.0, 1e-200, 3))


# --- corner cofactor ------------------------------------------------------

def test_cofactor_examples():
    assert corner_cofactor(SymToeplitzTridiag(5, 2, 4)) == 8
    assert corner_cofactor(SymToeplitzTridiag(5, 2, 4)) ** 2 == 64 == 2 ** (2 * 4 - 2)
    assert corner_cofactor(SymToeplitzTridiag(0, -3, 3)) == 9
    for n in (1, 2, 5, 9):
        assert corner_cofactor(SymToeplitzTridiag(1.5, 1, n)) == 1


def test_cofactor_squared_matches_dense_minor():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        a, b = rng.uniform(-5, 5, size=2)
        oracle = dense_corner_cofactor(dense_sym_tridiag(a, b, n))
        assert corner_cofactor(SymToeplitzTridiag(a, b, n)) ** 2 == pytest.approx(
            oracle ** 2, rel=1e-9, abs=1e-12
        )


def test_cofactor_rejects_empty_matrix():
    with pytest.raises(DomainError):
        corner_cofactor(SymToeplitzTridiag(1, 1, 0))


def test_cofactor_float_overflow_raises_numerical_error():
    with pytest.raises(NumericalError, match=r"10\.0\*\*399"):
        corner_cofactor(SymToeplitzTridiag(1.0, 10.0, 400))
    # Int and Fraction powers are exact and never overflow.
    assert corner_cofactor(SymToeplitzTridiag(1, 10, 400)) == 10 ** 399


@pytest.mark.filterwarnings("error")
def test_cofactor_numpy_beta_overflow_raises_numerical_error():
    # A numpy float power overflows to inf with only a RuntimeWarning.
    with pytest.raises(NumericalError, match=r"10\.0\*\*399"):
        corner_cofactor(SymToeplitzTridiag(1.0, np.float64(10.0), 400))
    assert corner_cofactor(SymToeplitzTridiag(1.0, np.float64(-1.5), 4)) == -3.375
    # A numpy integer power wraps around silently; the cofactor stays exact.
    assert corner_cofactor(SymToeplitzTridiag(1, np.int64(10), 400)) == 10 ** 399
    assert corner_cofactor(SymToeplitzTridiag(1, np.int32(-3), 4)) == -27


def test_numpy_integer_size_is_stored_as_a_python_int():
    # beta**(n-1) wraps in int64 for a numpy n, and the identity check's
    # three-argument pow takes no numpy exponent (TypeError).
    m = SymToeplitzTridiag(3, 3, np.int64(100))
    assert type(m.n) is int and m == SymToeplitzTridiag(3, 3, 100)
    assert corner_cofactor(m) == 3 ** 99
    for mode in (EXACT, FLOAT):
        for size in (np.int64(5), np.int32(7)):
            want = SymToeplitzTridiag(3, 1, int(size))
            got = SymToeplitzTridiag(3, 1, size)
            assert repr(identity_residual(got, mode)) == repr(identity_residual(want, mode))
            assert repr(identity_residuals(got, mode)) == repr(identity_residuals(want, mode))
    with pytest.raises(ValueError, match=r"^dimension must be >= 0, got -1$"):
        SymToeplitzTridiag(3, 1, np.int64(-1))


def test_exact_mode_takes_numpy_integers_as_python_ints():
    # The module checks types with numbers.Integral and numbers.Real, with
    # which numpy registers its scalar types; it imports no numpy itself.
    m = SymToeplitzTridiag(np.int64(3), np.int64(1), np.int64(6))
    values = det_sequence(m, EXACT).values
    assert values == det_sequence(SymToeplitzTridiag(3, 1, 6), EXACT).values
    assert [type(v) for v in values] == [int] * 7


def test_exact_mode_takes_integral_numpy_float_and_rejects_the_rest():
    m = SymToeplitzTridiag(np.float32(2.0), 1, 4)
    assert det_sequence(m, EXACT).values == (1, 2, 3, 4, 5)
    assert type(det(m, EXACT)) is int
    with pytest.raises(ModeError, match="alpha"):
        det_sequence(SymToeplitzTridiag(np.float32(2.5), 1, 4), EXACT)
    with pytest.raises(ModeError, match="bool"):
        det_sequence(SymToeplitzTridiag(True, 1, 4), EXACT)


# --- nonlinear identity ---------------------------------------------------

def test_identity_hand_case():
    # sequence 1, 3, 8, 21: A_2^2 - A_1 A_3 = 64 - 63 = 1 = cof^2
    assert identity_residual(SymToeplitzTridiag(3, 1, 3), EXACT) == 0


def test_identity_alpha_zero_n2():
    assert identity_residual(SymToeplitzTridiag(0, 1, 2), EXACT) == 0
    assert identity_residual(SymToeplitzTridiag(0, 1, 2), FLOAT) == 0.0


@settings(max_examples=300, deadline=None)
@given(alpha=ints, beta=ints, n=sizes)
def test_identity_exact_for_integers(alpha, beta, n):
    assert identity_residual(SymToeplitzTridiag(alpha, beta, n), EXACT) == 0


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=-10, max_value=10, allow_nan=False),
    beta=st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda b: b != 0),
    n=sizes,
)
def test_identity_float_relative_residual(alpha, beta, n):
    assert abs(identity_residual(SymToeplitzTridiag(alpha, beta, n), FLOAT)) <= 1e-9


def test_identity_with_fractions():
    m = SymToeplitzTridiag(Fraction(7, 3), Fraction(-2, 5), 12)
    r = identity_residual(m, EXACT)
    assert r == 0 and isinstance(r, Fraction)


def test_identity_beta_zero_degenerate():
    # determinants collapse to alpha**k; both sides of the identity vanish
    m = SymToeplitzTridiag(3, 0, 7)
    assert det(m, EXACT) == 3 ** 7
    assert corner_cofactor(m) == 0
    assert identity_residual(m, EXACT) == 0
    assert identity_residual(m, FLOAT) == 0.0


def test_identity_needs_n_at_least_two():
    with pytest.raises(DomainError):
        identity_residual(SymToeplitzTridiag(1, 1, 1), EXACT)
    with pytest.raises(DomainError):
        identity_residuals(SymToeplitzTridiag(1, 1, 1), FLOAT)


@pytest.mark.parametrize("mode, alpha, beta", [
    (EXACT, 3, -2), (EXACT, Fraction(7, 3), Fraction(-2, 5)),
    (FLOAT, 1.5, 0.25), (FLOAT, -0.37, 1.3),
])
def test_identity_residuals_match_per_size_calls(mode, alpha, beta):
    one_pass = identity_residuals(SymToeplitzTridiag(alpha, beta, 30), mode)
    per_size = [identity_residual(SymToeplitzTridiag(alpha, beta, n), mode) for n in range(2, 31)]
    assert list(map(repr, one_pass)) == list(map(repr, per_size))


# --- fingerprint against the exact pass ------------------------------------

P61 = 2 ** 61 - 1


def _exact_reference(m, mode, n_min):
    """The exact pass alone, on the inputs identity_residual(s) would give it."""
    alpha, beta = tridiag_core._inputs(m, mode)
    return tridiag_core._exact_residuals(alpha, beta, mode, m.n, n_min)


exact_scalars = st.one_of(
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.fractions(max_denominator=10 ** 12),
    st.sampled_from([0, Fraction(0), P61, -P61, 3 * P61, Fraction(P61, 7),
                     Fraction(1, P61), Fraction(5, 2 * P61)]),
)
float_scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1.7e308, 2.0 ** 61, float(P61)]),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from([EXACT, FLOAT]),
    n=st.integers(min_value=2, max_value=40),
)
def test_fingerprint_matches_exact_pass(data, mode, n):
    scalars = exact_scalars if mode == EXACT else float_scalars
    m = SymToeplitzTridiag(data.draw(scalars), data.draw(scalars), n)
    assert repr(identity_residual(m, mode)) == repr(_exact_reference(m, mode, n)[0])
    one_pass = identity_residuals(m, mode)
    assert list(map(repr, one_pass)) == list(map(repr, _exact_reference(m, mode, 2)))


@pytest.mark.parametrize("alpha, beta", [
    (5, P61), (P61, P61), (Fraction(3, 4), Fraction(2 * P61, 3)), (7, 0), (Fraction(1, P61), 2),
])
def test_fingerprint_edge_inputs_match_exact_pass(alpha, beta):
    m = SymToeplitzTridiag(alpha, beta, 25)
    one_pass = identity_residuals(m, EXACT)
    assert list(map(repr, one_pass)) == list(map(repr, _exact_reference(m, EXACT, 2)))


# --- doubling kernel of single sizes --------------------------------------

def _continuant_tail(alpha, b2, n, modulus=None):
    """(A_n, A_{n-1}, A_{n-2}) from the one-step recurrence."""
    *_, a_n2, a_n1, a_n = tridiag_core._continuants(alpha, b2, n, modulus)
    return a_n, a_n1, a_n2


DOUBLING_SIZES = [2, 3] + [2 ** k + d for k in range(2, 11) for d in (-1, 0, 1)]
kernel_ints = st.one_of(
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.sampled_from([0, P61, -P61, 3 * P61, P61 - 1, P61 + 1]),
)


@pytest.mark.parametrize("n", DOUBLING_SIZES)
def test_doubling_kernel_matches_continuant_tail(n):
    # hat_dets, the Landauer integrand and the identity bridge run one kernel.
    assert wire_matrix._continuant_kernel is tridiag_core._continuant_kernel
    assert transport._continuant_kernel is tridiag_core._continuant_kernel
    for alpha, b2 in ((3, 1), (-7, 12), (5, 0), (0, 4), (3 * P61, P61), (P61 + 2, 5 * P61),
                      (10 ** 25, 10 ** 30), (Fraction(7, 3), Fraction(4, 25)),
                      (Fraction(-1, P61), 0), (2, Fraction(9, 4))):
        got = tridiag_core._continuant_kernel(b2, n)(alpha)
        assert got == _continuant_tail(alpha, b2, n)
        if not isinstance(alpha, Fraction) and not isinstance(b2, Fraction):
            reduced = tridiag_core._continuant_kernel(b2, n, P61)(alpha)
            assert reduced == _continuant_tail(alpha, b2, n, P61)
            # While every continuant is an integer below 2**53, the float
            # kernel rounds nothing and lands on the int kernel's values.
            # Ints carry no sign of zero, so + 0.0 turns -0.0 into 0.0.
            if max(map(abs, tridiag_core._continuants(alpha, b2, n))) < 2 ** 53:
                floats = tridiag_core._continuant_kernel(float(b2), n)(float(alpha))
                assert [(x + 0.0).hex() for x in floats] == [float(a).hex() for a in got]


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=300),
       modulus=st.sampled_from([None, P61]))
def test_doubling_kernel_matches_continuant_tail_property(data, n, modulus):
    # Reduction mod p is a ring map on the integers only, so Fractions run exact.
    scalars = kernel_ints if modulus else st.one_of(kernel_ints, st.fractions())
    alpha, b2 = data.draw(scalars), data.draw(scalars)
    got = tridiag_core._continuant_kernel(b2, n, modulus)(alpha)
    assert got == _continuant_tail(alpha, b2, n, modulus)


def _seeded_kernel(b2, n, modulus=None):
    """Reference: the kernel as it was while callers passed its seeds, ``kernel(alpha, zero, one)``.

    It starts from (A_0, A_{-1}) = (one, zero) and forms A_1 = alpha*one;
    at n = 1 it takes A_1 = alpha*one - b2*zero in the last step.
    """
    odd_bits = tuple(bit == "1" for bit in bin(n - 1)[3:])

    if b2 == 1 and not modulus:
        def unit(alpha, zero, one):
            c, d = one, zero
            if n > 1:
                c, d = alpha * one, one
                for odd in odd_bits:
                    c2k = c * c
                    c2k -= d * d
                    if odd:
                        t = alpha * c
                        t -= d + d
                        t *= c
                        c, d = t, c2k
                    else:
                        t = c + c
                        t -= alpha * d
                        t *= d
                        c, d = c2k, t
            u_n = alpha * c
            u_n -= d
            return u_n, c, d

        return unit

    b2x2 = 2 * b2

    def kernel(alpha, zero, one):
        c, d = one, zero
        if n > 1:
            c, d = alpha * one, one
            for odd in odd_bits:
                c2k = c * c - b2 * (d * d)
                if odd:
                    c, d = c * (alpha * c - b2x2 * d), c2k
                else:
                    c, d = c2k, d * (2 * c - alpha * d)
                if modulus:
                    c, d = c % modulus, d % modulus
        a_n = alpha * c - b2 * d
        if modulus:
            return a_n % modulus, c % modulus, d % modulus
        return a_n, c, d

    return kernel


SEEDED_SIZES = range(1, 1026)
FLOAT_ALPHAS = [0.3, -1.7, 2.0, -2.0, 0.0, -0.0, 1e-300, 5.5, -1e150]


# v**2 is 1.0, 0.48999999999999994 and 2.25.
HOPPINGS = (1.0, 0.7, 1.5)


def _wire(n, v):
    """A wire whose diagonal ``eps0 - eps`` at ``eps = -alpha`` is alpha, signed zeros too."""
    return WireParams(n=n, eps0=-0.0, v=v, gamma=0.5)


def test_kernel_matches_the_seeded_kernel_on_floats():
    # With the int seeds 0 and 1 the seeded kernel gives the kernel's types
    # and bits at every n; with the float seeds 0.0 and 1.0 it gives the
    # bits and types of hat_dets, which turns the seeds at n <= 2 into
    # floats.  hat_dets rejects a non-finite energy, so +-inf stays on the
    # kernel.
    for n in SEEDED_SIZES:
        alphas = FLOAT_ALPHAS + ([math.inf, -math.inf] if n <= 2 else [])
        for b2 in (1.0, 0.49, 2.25):
            kernel, seeded = tridiag_core._continuant_kernel(b2, n), _seeded_kernel(b2, n)
            for alpha in alphas:
                got = kernel(alpha)
                assert typed_bits(got) == typed_bits(seeded(alpha, 0, 1)), (n, b2, alpha)
        for v in HOPPINGS:
            p, seeded = _wire(n, v), _seeded_kernel(v * v, n)
            for alpha in FLOAT_ALPHAS:
                assert typed_bits(hat_dets(p, -alpha)) == \
                    typed_bits(seeded(alpha, 0.0, 1.0)), (n, v, alpha)


def test_kernel_matches_the_seeded_kernel_on_arrays():
    # hat_dets passed 0.0 and 1.0 from n = 3 and seed arrays at n <= 2;
    # its fields match that call in dtype, shape and bits.
    for n in SEEDED_SIZES:
        alpha = np.array(FLOAT_ALPHAS + ([math.inf, -math.inf] if n <= 2 else []))
        grid = alpha.reshape(-1, 1) if n % 2 else alpha
        for b2 in (1.0, 0.49, 2.25):
            kernel, seeded = tridiag_core._continuant_kernel(b2, n), _seeded_kernel(b2, n)
            before = grid.copy()
            with np.errstate(all="ignore"):
                got = kernel(grid)
                want = seeded(grid, 0, 1)
            assert typed_bits(got) == typed_bits(want), (n, b2)
            assert grid.tobytes() == before.tobytes()
        finite = np.array(FLOAT_ALPHAS)
        grid = finite.reshape(-1, 1) if n % 2 else finite
        for v in HOPPINGS:
            p, seeded = _wire(n, v), _seeded_kernel(v * v, n)
            with np.errstate(all="ignore"):
                fields = hat_dets(p, -grid)
                old = (seeded(grid, 0.0, 1.0) if n > 2
                       else seeded(grid, np.zeros_like(grid), np.ones_like(grid)))
            assert typed_bits(fields) == typed_bits(old), (n, v)


def test_kernel_matches_the_seeded_kernel_on_ints_mod_p():
    for n in SEEDED_SIZES:
        for b2 in (1, 4, P61 - 3, 10 ** 30):
            kernel, seeded = tridiag_core._continuant_kernel(b2, n, P61), _seeded_kernel(b2, n, P61)
            for alpha in (0, 5, P61 - 1, 3 * P61 + 7, -12345678901234567):
                assert typed_bits(kernel(alpha)) == typed_bits(seeded(alpha, 0, 1)), (n, b2, alpha)


def test_kernel_matches_the_seeded_kernel_on_exact_ints_and_fractions():
    # The exact pass passed the ints 0 and 1.  At |beta| = 1 it runs the unit
    # body on ints, whose seeds must stay ints: a float 1.0 would round.
    assert tridiag_core._continuant_kernel(1, 2)(94906266) == (94906266 ** 2 - 1, 94906266, 1)
    for n in SEEDED_SIZES:
        for alpha, b2 in ((7, 1), (-3, 5), (Fraction(3, 7), Fraction(4, 9)),
                          (Fraction(-5, 2), Fraction(1))):
            got = tridiag_core._continuant_kernel(b2, n)(alpha)
            assert typed_bits(got) == typed_bits(_seeded_kernel(b2, n)(alpha, 0, 1)), (n, alpha, b2)


def test_plain_kernel_has_no_modulus_test():
    # The loop body is chosen when the kernel is built: the unit body (b2 = 1,
    # the float body of the transmittance routes) never tests ``modulus`` and
    # never multiplies by b2; the b2 body reduces at every step when given a
    # modulus.
    unit = tridiag_core._continuant_kernel(1.0, 9).__code__
    assert "modulus" not in unit.co_freevars and "b2" not in unit.co_freevars
    assert "modulus" in tridiag_core._continuant_kernel(81, 9, P61).__code__.co_freevars
    assert "b2" in tridiag_core._continuant_kernel(0.81, 9).__code__.co_freevars


class _CountingInt(int):
    """An int that counts its multiplications and reductions.

    ``pow`` counts the 2 * bit length of its exponent that square-and-multiply
    takes.  Subtraction keeps the type and is not counted; any other
    arithmetic raises TypeError, so a kernel that used it would fail the cost
    test rather than go uncounted.
    """

    ops = 0
    pows = 0

    def _op(self, other, f, cost=1):
        _CountingInt.ops += cost
        return _CountingInt(f(int(self), int(other)))

    def __mul__(self, other):
        return self._op(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._op(other, lambda a, b: b * a)

    def __mod__(self, other):
        return self._op(other, lambda a, b: a % b)

    def __sub__(self, other):
        return self._op(other, lambda a, b: a - b, cost=0)

    def __rsub__(self, other):
        return self._op(other, lambda a, b: b - a, cost=0)

    def __pow__(self, exponent, modulus=None):
        _CountingInt.pows += 1
        return self._op(exponent, lambda a, e: pow(a, e, modulus), cost=2 * exponent.bit_length())

    def _refuse(self, *args):
        raise TypeError("uncounted arithmetic")

    __add__ = __radd__ = __neg__ = __floordiv__ = __truediv__ = __rmod__ = _refuse


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 226, 1000, 2 ** 20, 2 ** 20 + 1, 10 ** 6])
def test_single_size_fingerprint_cost_is_logarithmic(n):
    # The every-size pass takes about 7 per size (1578 at n = 226).  Doubling
    # takes 8 per bit of n-1 per alpha; the power takes 2 per bit, once for a
    # batch of k alphas; the rest is constant.
    bits = (n - 1).bit_length()
    for k in (1, 24):
        nums, b, _ = tridiag_core._over_common_denominator([0.3 + 0.01 * j for j in range(k)], 0.7)
        _CountingInt.ops = _CountingInt.pows = 0
        alphas = [_CountingInt(a % P61) for a in nums]
        b2 = _CountingInt(b * b % P61)
        gaps_of = tridiag_core._identity_gaps(b2, n, n, P61)
        gaps = [gaps_of(alpha) for alpha in alphas]
        assert _CountingInt.pows == 1
        assert _CountingInt.ops <= k * (8 * bits + 1) + 2 * bits + 8
        assert len(gaps) == k
        assert all(gap[1] % P61 == 0 for (gap,) in gaps)


@pytest.mark.parametrize("mode, alphas, beta, zeros", [
    (FLOAT, [0.3, -2.0, 0.0], -0.7, ["0.0"] * 3),
    (EXACT, [3, -2, Fraction(1, 3)], 5, ["0", "0", "Fraction(0, 1)"]),
    (EXACT, [3, 0], Fraction(1, 2), ["Fraction(0, 1)"] * 2),
])
def test_vanishing_residuals_take_the_zero_of_the_mode(mode, alphas, beta, zeros):
    # 0.0 in float mode, else 0 * alpha * beta.  One site included: the
    # start A_0 = 1, A_{-1} = 0 makes beta**0 - (A_0**2 - A_{-1} A_1) zero,
    # so equivalence_report takes n = 1 through the same pass.
    for n, n_min in ((1, 1), (2, 2), (6, 6), (6, 2)):
        got = tridiag_core._residuals(alphas, beta, mode, n, n_min)
        assert [(list(map(repr, values)), exact) for values, exact in got] == \
            [([zero] * (n - n_min + 1), False) for zero in zeros]


def test_identity_residual_of_a_million_sites(monkeypatch):
    # The exact pass would multiply integers of about 5e7 bits here.
    def refuse(*args):
        raise AssertionError("the fingerprint missed and the exact pass ran")

    monkeypatch.setattr(tridiag_core, "_exact_residuals", refuse)
    assert repr(identity_residual(SymToeplitzTridiag(0.3, 0.7, 10 ** 6))) == "0.0"


def _sign_flipped_continuants(alpha, b2, n, modulus=None):
    """The continuant loop with a mutation that keeps it homogeneous: + b2 for - b2.

    The identity then reads A_{n-1}**2 - A_{n-2} A_n = (-1)**(n-1) beta**(2n-2),
    so the residual is nonzero at every even n.
    """
    prev2, prev = 0, 1
    yield prev
    for _ in range(n):
        prev2, prev = prev, alpha * prev + b2 * prev2
        if modulus:
            prev %= modulus
        yield prev


_real_kernel = tridiag_core._continuant_kernel


def _sign_flipped_kernel(b2, n, modulus=None):
    """The same mutation in the doubling kernel that single sizes run."""
    return _real_kernel(-b2, n, modulus)


@pytest.mark.parametrize("mode, alpha, beta", [
    (EXACT, 3, -2), (EXACT, Fraction(7, 3), Fraction(-2, 5)), (FLOAT, -0.37, 1.3),
    # A denominator divisible by p makes the scaled fingerprint vacuous.
    (EXACT, Fraction(1, P61), Fraction(3, 2)),
])
def test_broken_recurrence_reaches_the_exact_pass(mode, alpha, beta, monkeypatch):
    monkeypatch.setattr(tridiag_core, "_continuants", _sign_flipped_continuants)
    monkeypatch.setattr(tridiag_core, "_continuant_kernel", _sign_flipped_kernel)
    m = SymToeplitzTridiag(alpha, beta, 20)
    got = identity_residuals(m, mode)
    assert list(map(repr, got)) == list(map(repr, _exact_reference(m, mode, 2)))
    assert all(r != 0 for r in got[::2])  # n = 2, 4, ..., 20
    assert repr(identity_residual(m, mode)) == repr(got[-1])


MIXED_SCALE_ALPHAS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -2.5e-320, 1e300, -1e300, 0.3, -1.7]


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("beta", [0.7, -1.3e-200, 3e150])
def test_batched_fingerprint_matches_per_alpha_calls(beta, broken, monkeypatch):
    # One batch shares one denominator (2**1074 here, from the subnormals);
    # each single call has its own.  Values and exact flags must agree.
    if broken:
        monkeypatch.setattr(tridiag_core, "_continuants", _sign_flipped_continuants)
        monkeypatch.setattr(tridiag_core, "_continuant_kernel", _sign_flipped_kernel)
    for n in (2, 3, 20):
        for n_min in (n, 2):
            batch = tridiag_core._residuals(MIXED_SCALE_ALPHAS, beta, FLOAT, n, n_min)
            single = [tridiag_core._residuals([a], beta, FLOAT, n, n_min)[0]
                      for a in MIXED_SCALE_ALPHAS]
            assert [(list(map(repr, v)), x) for v, x in batch] == \
                [(list(map(repr, v)), x) for v, x in single]
            # The mutation breaks even sizes only; every-size passes include n = 2.
            exact = broken and (n % 2 == 0 or n_min == 2)
            assert all(x == exact for _, x in batch)


def test_float_mode_rejects_input_beyond_double_range():
    for alpha, beta in ((10 ** 400, 1), (1, -(10 ** 400)), (Fraction(10 ** 400, 3), 1)):
        m = SymToeplitzTridiag(alpha, beta, 3)
        name = "alpha" if alpha != 1 else "beta"
        with pytest.raises(ModeError, match=name):
            det_sequence(m, FLOAT)
        with pytest.raises(ModeError, match=name):
            identity_residual(m, FLOAT)
        with pytest.raises(ModeError, match=name):
            identity_residuals(m, FLOAT)
    # exact mode has no range limit
    assert identity_residual(SymToeplitzTridiag(10 ** 400, 1, 3), EXACT) == 0


def test_exact_mode_rejects_non_integer():
    with pytest.raises(ModeError):
        det_sequence(SymToeplitzTridiag(0.5, 1, 3), EXACT)
    with pytest.raises(ModeError):
        identity_residual(SymToeplitzTridiag(1, 0.25, 4), EXACT)


def test_exact_mode_accepts_integral_floats():
    assert det_sequence(SymToeplitzTridiag(3.0, 1.0, 4), EXACT).values == (1, 3, 8, 21, 55)


@settings(max_examples=150, deadline=None)
@given(alpha=ints, beta=ints, n=st.integers(min_value=3, max_value=40))
def test_identity_telescoping_step(alpha, beta, n):
    # one step of the telescoping that proves the identity:
    # A_{n-1}^2 - A_{n-2} A_n = beta^2 (A_{n-2}^2 - A_{n-3} A_{n-1})
    seq = det_sequence(SymToeplitzTridiag(alpha, beta, n), EXACT).values
    lhs = seq[n - 1] ** 2 - seq[n - 2] * seq[n]
    rhs = beta ** 2 * (seq[n - 2] ** 2 - seq[n - 3] * seq[n - 1])
    assert lhs == rhs


def test_telescoping_step_float_in_band():
    rng = np.random.default_rng(31)
    for _ in range(50):
        b = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        a = rng.uniform(-2 * abs(b), 2 * abs(b))
        n = int(rng.integers(3, 13))
        seq = det_sequence(SymToeplitzTridiag(a, b, n), FLOAT).values
        lhs = seq[n - 1] ** 2 - seq[n - 2] * seq[n]
        rhs = b * b * (seq[n - 2] ** 2 - seq[n - 3] * seq[n - 1])
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) <= 1e-9 * scale


# --- construction validation ----------------------------------------------

def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        SymToeplitzTridiag(math.nan, 1.0, 3)
    with pytest.raises(ValueError):
        SymToeplitzTridiag(1.0, math.inf, 3)


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        SymToeplitzTridiag(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        SymToeplitzTridiag(1.0, 1.0, 2.5)


def test_records_compare_hash_print_and_refuse_assignment():
    # The two records keep the behaviour of frozen dataclasses without importing
    # dataclasses: value equality and hash, the field repr, no assignment.
    m = SymToeplitzTridiag(alpha=3, beta=Fraction(1, 2), n=4)
    assert m == SymToeplitzTridiag(3, Fraction(1, 2), 4)
    assert m != SymToeplitzTridiag(3, Fraction(1, 2), 5)
    assert m != (3, Fraction(1, 2), 4)
    assert hash(m) == hash(SymToeplitzTridiag(3, Fraction(1, 2), 4))
    assert repr(m) == "SymToeplitzTridiag(alpha=3, beta=Fraction(1, 2), n=4)"
    seq = det_sequence(SymToeplitzTridiag(2, 1, 2), EXACT)
    assert seq == DetSequence(values=(1, 2, 3))
    assert hash(seq) == hash(DetSequence((1, 2, 3)))
    assert repr(seq) == "DetSequence(values=(1, 2, 3))"
    assert DetSequence.scale_exponent == seq.scale_exponent == 0
    for record, name in ((m, "n"), (m, "other"), (seq, "values"), (seq, "scale_exponent")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (m.alpha, m.beta, m.n, seq.values) == (3, Fraction(1, 2), 4, (1, 2, 3))
    for args, message in (((1.0, 1.0, -1), "dimension must be >= 0, got -1"),
                          ((1.0, 1.0, 2.5), "dimension must be an integer, got 2.5"),
                          ((1.0, 1.0, True), "dimension must be an integer, got True"),
                          ((math.nan, 1.0, 3), "alpha must be finite, got nan"),
                          ((1.0, -math.inf, 3), "beta must be finite, got -inf")):
        with pytest.raises(ValueError) as info:
            SymToeplitzTridiag(*args)
        assert str(info.value) == message
