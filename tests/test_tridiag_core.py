"""Continuant algebra: determinant sequences, cofactor, Chebyshev route, identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwire import (
    EXACT,
    FLOAT,
    DomainError,
    ModeError,
    NumericalError,
    SymToeplitzTridiag,
    corner_cofactor,
    det,
    det_chebyshev,
    det_sequence,
    identity_residual,
    identity_residuals,
    transport,
    tridiag_core,
    wire_matrix,
)

from oracles import dense_det, dense_corner_cofactor, dense_sym_tridiag

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
    assert det_chebyshev(SymToeplitzTridiag(3, 1, 4)) == pytest.approx(55.0, rel=1e-12)


def test_chebyshev_u2_at_zero():
    assert det_chebyshev(SymToeplitzTridiag(0, 1, 2)) == pytest.approx(-1.0, rel=1e-12)


def test_chebyshev_at_band_edge():
    # U_n(1) = n + 1
    assert det_chebyshev(SymToeplitzTridiag(2, 1, 5)) == pytest.approx(6.0, rel=1e-12)


def test_chebyshev_agrees_with_det():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(0, 41))
        a = rng.uniform(-10, 10)
        b = rng.uniform(0.1, 10) * rng.choice([-1.0, 1.0])
        m = SymToeplitzTridiag(a, b, n)
        d = det(m)
        c = det_chebyshev(m)
        if math.isfinite(d) and math.isfinite(c) and abs(d) > 1e-300:
            assert c == pytest.approx(d, rel=1e-9)
            checked += 1
    assert checked > 150


def test_chebyshev_rejects_beta_zero():
    with pytest.raises(DomainError):
        det_chebyshev(SymToeplitzTridiag(2.0, 0.0, 3))


def test_chebyshev_power_overflow_raises_numerical_error():
    # 10.0**400 is beyond the largest double: no bare OverflowError.
    with pytest.raises(NumericalError, match="n=400"):
        det_chebyshev(SymToeplitzTridiag(1.0, 10.0, 400))


def test_chebyshev_nonfinite_product_raises_numerical_error():
    # alpha / (2 beta) overflows and beta**3 underflows: inf * 0 would be nan.
    with pytest.raises(NumericalError, match="n=3"):
        det_chebyshev(SymToeplitzTridiag(1e200, 1e-200, 3))


@pytest.mark.parametrize("alpha, beta, n", [
    (1e-100, 1e-200, 2),     # beta**2 underflows to 0.0; A_2 = alpha**2 - beta**2 = 1e-200
    (3e-160, 1e-160, 2),     # beta**2 = 1e-320 is subnormal, U_2 = 8
    (-1.0, 0.5, 1100),       # 0.5**1100 underflows to 0.0 at a long size
])
def test_chebyshev_power_underflow_raises_numerical_error(alpha, beta, n):
    # U_n is nonzero, so a zero or subnormal beta**n would lose the value.
    with pytest.raises(NumericalError, match=f"n={n}"):
        det_chebyshev(SymToeplitzTridiag(alpha, beta, n))


def test_chebyshev_power_underflow_with_zero_chebyshev_factor_is_zero():
    # U_3(0) = 0: the determinant is exactly zero and needs no power.
    m = SymToeplitzTridiag(0.0, 1e-200, 3)
    assert det_chebyshev(m) == 0.0 == det(m)


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
        got = tridiag_core._continuant_kernel(b2, n)(alpha, 0, 1)
        assert got == _continuant_tail(alpha, b2, n)
        if not isinstance(alpha, Fraction) and not isinstance(b2, Fraction):
            reduced = tridiag_core._continuant_kernel(b2, n, P61)(alpha, 0, 1)
            assert reduced == _continuant_tail(alpha, b2, n, P61)
            # While every continuant is an integer below 2**53, the float
            # kernel rounds nothing and lands on the int kernel's values.
            # Ints carry no sign of zero, so + 0.0 turns -0.0 into 0.0.
            if max(map(abs, tridiag_core._continuants(alpha, b2, n))) < 2 ** 53:
                floats = tridiag_core._continuant_kernel(float(b2), n)(float(alpha), 0.0, 1.0)
                assert [(x + 0.0).hex() for x in floats] == [float(a).hex() for a in got]


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=300),
       modulus=st.sampled_from([None, P61]))
def test_doubling_kernel_matches_continuant_tail_property(data, n, modulus):
    # Reduction mod p is a ring map on the integers only, so Fractions run exact.
    scalars = kernel_ints if modulus else st.one_of(kernel_ints, st.fractions())
    alpha, b2 = data.draw(scalars), data.draw(scalars)
    got = tridiag_core._continuant_kernel(b2, n, modulus)(alpha, 0, 1)
    assert got == _continuant_tail(alpha, b2, n, modulus)


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


def test_to_dense_layout():
    m = SymToeplitzTridiag(2.0, -1.0, 3).to_dense()
    assert np.array_equal(m, np.array([
        [2.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 2.0],
    ]))
