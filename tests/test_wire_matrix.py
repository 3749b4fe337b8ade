"""Wire parameters, lead-free determinants, determinant split, cofactor, first inverse column."""

import inspect
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwire import (
    EXACT,
    SingularMatrixError,
    SymToeplitzTridiag,
    WireParams,
    chain_resonances,
    corner_cofactor,
    det_sequence,
    first_inverse_column,
    hat_dets,
)
import qwire.transport as transport
import qwire.wire_matrix as wire_matrix
from qwire.wire_matrix import _continuant_kernel

from oracles import dense_corner_cofactor, dense_det, dense_wire_matrix, typed_bits

TWO_PI = 2.0 * math.pi


def random_params(rng, n=None):
    return WireParams(
        n=n if n is not None else int(rng.integers(1, 17)),
        eps0=float(rng.uniform(-2, 2)),
        v=float(rng.uniform(0.1, 3)),
        gamma=float(rng.uniform(0.05, 4)),
    )


def det_wire(p, eps):
    """det C from the corner split of the lead-free determinants."""
    re, im = hat_dets(p, eps).corner_split(p.gamma)
    return re + 1j * im


# --- parameter validation ---------------------------------------------------

def test_v_lead_derived_from_wide_band_relation():
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.8, bandwidth=2.5)
    assert p.v_lead == pytest.approx(math.sqrt(0.8 * 2.5 / TWO_PI), rel=1e-14)
    assert TWO_PI * p.v_lead ** 2 / p.bandwidth == pytest.approx(p.gamma, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, eps0=0.0, v=1.0, gamma=1.0),
        dict(n=2.5, eps0=0.0, v=1.0, gamma=1.0),
        dict(n=2, eps0=math.nan, v=1.0, gamma=1.0),
        dict(n=2, eps0=0.0, v=0.0, gamma=1.0),
        dict(n=2, eps0=0.0, v=1.0, gamma=0.0),
        dict(n=2, eps0=0.0, v=1.0, gamma=-0.3),
        dict(n=2, eps0=0.0, v=1.0, gamma=1.0, bandwidth=0.0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        WireParams(**kwargs)


# --- hat determinants -------------------------------------------------------

def test_hat_dets_resonant_two_sites():
    p = WireParams(n=2, eps0=0.7, v=1.3, gamma=0.5)
    h = hat_dets(p, 0.7)
    assert h.c_n == pytest.approx(-(1.3 ** 2), rel=1e-14)
    assert h.c_n1 == 0.0
    assert h.c_n2 == 1.0


def test_hat_dets_single_site_conventions():
    p = WireParams(n=1, eps0=0.25, v=2.0, gamma=1.0)
    h = hat_dets(p, -0.5)
    assert h.c_n == pytest.approx(0.75, rel=1e-14)
    assert h.c_n1 == 1.0
    assert h.c_n2 == 0.0


def test_hat_dets_match_continuant_example():
    p = WireParams(n=4, eps0=3.0, v=1.0, gamma=1.0)
    h = hat_dets(p, 0.0)
    assert (h.c_n, h.c_n1, h.c_n2) == (55.0, 21.0, 8.0)


def test_hat_dets_agree_with_tridiag_core():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_params(rng)
        eps = float(rng.uniform(p.eps0 - 4, p.eps0 + 4))
        h = hat_dets(p, eps)
        seq = det_sequence(
            SymToeplitzTridiag(p.eps0 - eps, -p.v, p.n)
        ).values
        assert h.c_n == pytest.approx(seq[p.n], rel=1e-12, abs=1e-300)
        assert h.c_n1 == pytest.approx(seq[p.n - 1], rel=1e-12, abs=1e-300)


def test_hat_dets_vectorized_matches_scalar():
    p = WireParams(n=6, eps0=0.1, v=0.8, gamma=0.3)
    grid = np.linspace(-2.0, 2.0, 17)
    h = hat_dets(p, grid)
    for k, e in enumerate(grid):
        hs = hat_dets(p, float(e))
        assert h.c_n[k] == hs.c_n
        assert h.c_n1[k] == hs.c_n1
        assert h.c_n2[k] == hs.c_n2


def _one_step_continuants(alpha, b2, n):
    """The recurrence one step per pass from Chat_{-1} = 0 and Chat_0 = 1, keeping Chat_{k-2}."""
    older, prev2, prev = 0, 0, 1
    for _ in range(n):
        older, prev2, prev = prev2, prev, alpha * prev - b2 * prev2
    return prev, prev2, older


def _plain_doubling_continuants(alpha, b2, n):
    """Chat_n, Chat_{n-1}, Chat_{n-2} by index doubling, written out plainly.

    With C_{j+k} = C_j C_k - b2 C_{j-1} C_{k-1}, the pair (C_k, C_{k-1})
    gives C_2k = C_k**2 - b2 C_{k-1}**2, C_{2k-1} = C_{k-1} (2 C_k - alpha
    C_{k-1}) and C_{2k+1} = C_k (alpha C_k - 2 b2 C_{k-1}).  From
    (C_1, C_0) = (alpha, 1) the index k follows the bits of n-1 from the
    top, then one recurrence step gives C_n.
    """
    if n == 1:
        return alpha, 1, 0
    m = n - 1
    k, ck, ck1 = 1, alpha, 1
    for shift in range(m.bit_length() - 2, -1, -1):
        c2k = ck * ck - b2 * (ck1 * ck1)
        if (m >> shift) & 1:
            k, ck, ck1 = 2 * k + 1, ck * (alpha * ck - 2 * b2 * ck1), c2k
        else:
            k, ck, ck1 = 2 * k, c2k, ck1 * (2 * ck - alpha * ck1)
    assert k == m
    return alpha * ck - b2 * ck1, ck, ck1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 400),
    eps0=st.floats(-2.0, 2.0),
    v=st.floats(0.5, 2.0).flatmap(lambda m: st.sampled_from([m, -m])),
    offsets=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
)
@example(n=1, eps0=0.0, v=1.0, offsets=[0.0])
@example(n=2, eps0=0.0, v=1.0, offsets=[0.0])
@example(n=400, eps0=0.3, v=-2.0, offsets=[-5.0, 5.0])
def test_continuant_kernel_matches_plain_doubling_loop(n, eps0, v, offsets):
    # offsets in band widths 4|v|: up to five band widths outside the band,
    # where both loops overflow to inf and then nan in the same places.
    alpha = eps0 - (eps0 + 4.0 * abs(v) * np.array(offsets))
    b2 = v * v
    with np.errstate(all="ignore"):
        got = _continuant_kernel(b2, n)(alpha)
        want = _plain_doubling_continuants(alpha, b2, n)
    assert typed_bits(got) == typed_bits(want)
    for a in alpha.tolist():
        got = _continuant_kernel(b2, n)(a)
        want = _plain_doubling_continuants(a, b2, n)
        assert typed_bits(got) == typed_bits(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_continuant_kernel_keeps_one_step_bits_up_to_three_sites(n):
    alpha = np.linspace(-5.0, 5.0, 101)
    got = _continuant_kernel(0.49, n)(alpha)
    want = _one_step_continuants(alpha, 0.49, n)
    assert typed_bits(got) == typed_bits(want)


def _exact_hat_dets(alpha, v, n):
    """Exact (Chat_n, Chat_{n-1}, Chat_{n-2}) for float (dyadic) alpha and v.

    With S a power of two that clears both denominators, D_k = S**k Chat_k
    obeys the integer recurrence D_k = (S alpha) D_{k-1} - (S v)**2 D_{k-2}.
    """
    a, w = Fraction(alpha), Fraction(v)
    s = max(a.denominator, w.denominator)
    ai, bi = int(a * s), int(w * s) ** 2
    d = [0, 1]  # D_{-1}, D_0
    for _ in range(n):
        d.append(ai * d[-1] - bi * d[-2])
    return tuple(Fraction(d[k + 1], s ** k) if k >= 0 else Fraction(0) for k in (n, n - 1, n - 2))


def _exact_t_and_det(p, c_n, c_n1, c_n2):
    """Exact T and |det C| from hat determinants, taken as exact rationals."""
    g, v = Fraction(p.gamma), Fraction(p.v)
    re, im = Fraction(c_n) - g * g / 4 * Fraction(c_n2), g * Fraction(c_n1)
    det_sq = re * re + im * im
    return g * g * v ** (2 * p.n - 2) / det_sq, math.sqrt(det_sq)


def test_continuant_kernel_transmittance_within_rounding_bound_of_exact():
    # T from the kernel's continuants and from the one-step loop's, against
    # exact rational continuants, on wires with n log-uniform over [2, 1000],
    # in band and within 3 % of a band edge (x = (eps0 - eps)/(2|v|)).  A
    # rounding error made at step k reaches Chat_n with a gain of at most
    # gain = min(n, 1/sin theta), cos theta = x, relative to the envelope
    # |v|**k min(k+1, gain) of Chat_k, so n steps give rel(Chat) ~ n gain u.
    # T divides by |det C|**2, which multiplies that by kappa, the sum of
    # the envelopes of the corner split's terms over |det C|.  Over 1600
    # such wires the largest error over n gain u kappa was 2.3 for the
    # kernel and 1.0 for the one-step loop; the bound allows 8.
    u = 2.0 ** -53
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(1000)))))
        v = float(rng.uniform(0.8, 1.25) * rng.choice([-1, 1]))
        g = float(rng.uniform(0.05, 2))
        p = WireParams(n=n, eps0=float(rng.uniform(-1, 1)), v=v, gamma=g)
        for x in (rng.uniform(-0.95, 0.95), rng.uniform(0.97, 1.01) * rng.choice([-1, 1])):
            eps = p.eps0 - 2.0 * abs(v) * float(x)
            alpha = p.eps0 - eps
            exact = _exact_hat_dets(alpha, v, n)
            t_exact, det = _exact_t_and_det(p, *exact)
            sin_t = math.sqrt(max(0.0, 1.0 - (alpha / (2.0 * abs(v))) ** 2))
            gain = min(n, 1.0 / sin_t) if sin_t > 0.0 else n

            def envelope(k, c):
                return max(abs(float(c)), abs(v) ** k * min(k + 1, gain))

            kappa = (envelope(n, exact[0]) + g * envelope(n - 1, exact[1])
                     + g * g / 4 * envelope(n - 2, exact[2])) / det
            bound = 8.0 * u * n * gain * kappa
            for hats in (hat_dets(p, eps), _one_step_continuants(alpha, v * v, n)):
                t = _exact_t_and_det(p, *hats)[0]
                assert float(abs(t - t_exact) / t_exact) <= bound, (n, v, g, x)


class _CountingFloat:
    """A float that counts its multiplications, additions and subtractions.

    Any other arithmetic raises TypeError, so a kernel that used it would
    fail the cost test rather than go uncounted.
    """

    ops = 0

    def __init__(self, x):
        self.x = float(x)

    def _op(self, other, f):
        _CountingFloat.ops += 1
        return _CountingFloat(f(self.x, other.x if isinstance(other, _CountingFloat) else other))

    def __mul__(self, other):
        return self._op(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._op(other, lambda a, b: b * a)

    def __add__(self, other):
        return self._op(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._op(other, lambda a, b: a - b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 226, 1000, 2 ** 20, 2 ** 20 + 1, 10 ** 6])
def test_continuant_kernel_cost_is_logarithmic(n):
    # A linear loop would take 3n operations; doubling takes 8 per bit of n-1.
    # The bound covers building the kernel and one evaluation.  The seeds
    # the kernel returns at n <= 2 are plain ints.
    _CountingFloat.ops = 0
    got = _continuant_kernel(_CountingFloat(1.0), n)(_CountingFloat(0.3))
    assert _CountingFloat.ops <= 8 * (n - 1).bit_length() + 4
    assert [getattr(c, "x", c) for c in got] == list(_continuant_kernel(1.0, n)(0.3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 226, 1000, 2 ** 20, 2 ** 20 + 1, 10 ** 6])
def test_unit_continuant_kernel_takes_seven_operations_per_bit(n):
    # The unit body (b2 = 1) of the transmittance routes starts from
    # (U_1, U_0) = (alpha, 1) with no operation, then makes 7 per doubling
    # step (one per bit of n-1 below its top bit) and 2 in the last
    # recurrence step, so 7*(n-1).bit_length() - 5 from n = 2 and none at
    # n = 1, where it returns alpha and its seeds; building it costs nothing.
    # The b2 body takes 8 per step and 3 in the last.  From n = 3 the first
    # step squares the int seed d = 1 (d*d), and the unit body's odd step
    # doubles it (d + d): int operations, no elementwise pass on arrays,
    # which _CountingFloat does not see.
    bits = (n - 1).bit_length()
    seed_ops = 0 if n < 3 else 1
    first_odd = 0 if n < 3 else (n - 1) >> (bits - 2) & 1
    _CountingFloat.ops = 0
    got = _continuant_kernel(1.0, n)(_CountingFloat(0.3))
    assert _CountingFloat.ops == (7 * bits - 5 - seed_ops - first_odd if n > 1 else 0)
    assert [getattr(c, "x", c) for c in got] == list(_continuant_kernel(1.0, n)(0.3))
    kernel = _continuant_kernel(_CountingFloat(0.81), n)
    _CountingFloat.ops = 0
    kernel(_CountingFloat(0.3))
    assert _CountingFloat.ops == (8 * bits - 5 - seed_ops if n > 1 else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 226, 2 ** 20 + 1])
@pytest.mark.parametrize("v", [1.0, -1.0, 0.6, -1.4])
def test_chebyshev_dets_are_hat_dets_in_units_of_v(n, v):
    # The routes' evaluator, transport._chebyshev, takes the energies and
    # gives U_k = Chat_k / |v|**k at alpha = (eps0 - eps)/|v| (int seeds at
    # n <= 2, taken as floats here); at |v| = 1 the unit body gives the bits
    # of the b2 body, so the two agree exactly.
    p = WireParams(n=n, eps0=0.2, v=v, gamma=0.4)
    energies = 0.2 + 2.0 * abs(v) * np.linspace(-0.99, 0.99, 17)
    _, dets = transport._chebyshev(p)
    unit = [np.broadcast_to(np.asarray(x, dtype=float), energies.shape)
            for x in dets(energies)[0]]
    for e, *scalar in zip(energies.tolist(), *unit):
        assert [x.hex() for x in scalar] == [float(x).hex() for x in dets(e)[0]]
    if abs(v) == 1.0:
        assert [x.tobytes() for x in unit] == [x.tobytes() for x in hat_dets(p, energies)]
    elif n <= 226:  # beyond, |v|**n leaves the double range
        for k, got, want in zip((n, n - 1, n - 2), unit, hat_dets(p, energies)):
            np.testing.assert_allclose(got * abs(v) ** k, want, rtol=1e-12 * n, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 226, 2 ** 20 + 1])
def test_continuant_kernel_built_once_matches_hat_dets_per_energy(n):
    # One kernel reused over many energies, scalar and array, gives the bits
    # of a fresh hat_dets call at each energy.
    p = WireParams(n=n, eps0=0.2, v=-0.7, gamma=0.4)
    energies = np.linspace(-1.6, 1.7, 23)
    kernel = _continuant_kernel(p.v * p.v, p.n)
    for e in energies.tolist():
        got = kernel(p.eps0 - e)
        assert [float(x).hex() for x in got] == [x.hex() for x in hat_dets(p, e)]
    for grid in (energies, energies[::-2], energies[:1]):
        with np.errstate(all="ignore"):
            got = kernel(p.eps0 - grid)
            want = hat_dets(p, grid)
        assert [np.broadcast_to(np.asarray(x, dtype=float), grid.shape).tobytes()
                for x in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 226, 2 ** 20 + 1])
def test_continuant_kernel_leaves_its_array_arguments_unchanged(n):
    # The unit body (b2 = 1) updates its own products in place; at k = 1 its
    # c is the caller's alpha, so a write into c (or alpha) would change the
    # caller's array.  The sizes cover n <= 2, odd and even steps; the b2
    # body runs too.
    for b2 in (1.0, 0.49):
        kernel = _continuant_kernel(b2, n)
        alpha = np.linspace(-1.7, 1.6, 19)
        before = alpha.copy()
        with np.errstate(all="ignore"):
            got = kernel(alpha)
            want = np.array([kernel(a) for a in alpha.tolist()], dtype=float).T
        assert alpha.tobytes() == before.tobytes()
        assert [np.broadcast_to(np.asarray(x, dtype=float), alpha.shape).tobytes()
                for x in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hat_dets_of_an_array_are_arrays_of_its_shape(n):
    # At n <= 2 a seed of the kernel is itself a field of the result, the
    # int 1 or 0; hat_dets makes it a float array of the energies' shape,
    # or a float for a scalar energy.
    p = WireParams(n=n, eps0=0.1, v=0.8, gamma=0.3)
    energies = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    for field in hat_dets(p, energies):
        assert isinstance(field, np.ndarray) and field.shape == energies.shape
        assert field.dtype == np.float64 and field.flags.writeable
    assert all(type(field) is float for field in hat_dets(p, 0.25))


def test_hat_dets_reject_non_finite_energy():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        hat_dets(p, math.inf)


def test_hat_dets_of_an_array_leaving_the_double_range_warn_nothing():
    # eps0 - eps overflows at the first energy and the continuants at the
    # second; an array gives the inf and nan fields the scalar calls give,
    # with no numpy warning (the suite makes a RuntimeWarning an error).
    p = WireParams(n=3, eps0=1e308, v=1.0, gamma=0.5)
    energies = np.array([-1e308, 0.0])
    fields = hat_dets(p, energies)
    scalars = [hat_dets(p, e) for e in energies.tolist()]
    for k, field in enumerate(fields):
        assert field.tobytes() == np.array([h[k] for h in scalars]).tobytes()
    assert not np.isfinite(fields.c_n).any()


def test_numpy_integer_site_count_is_stored_as_a_python_int():
    p = WireParams(n=np.int64(3), eps0=0.1, v=0.8, gamma=0.3)
    assert type(p.n) is int and p == WireParams(n=3, eps0=0.1, v=0.8, gamma=0.3)
    assert hash(p) == hash(WireParams(n=3, eps0=0.1, v=0.8, gamma=0.3))
    with pytest.raises(ValueError, match=r"^site count must be >= 1, got 0$"):
        WireParams(n=np.int64(0), eps0=0.1, v=0.8, gamma=0.3)


# --- wire determinant -------------------------------------------------------

def test_det_wire_single_site_resonant():
    p = WireParams(n=1, eps0=0.4, v=1.0, gamma=0.9)
    assert det_wire(p, 0.4) == pytest.approx(0.9j, abs=1e-15)


def test_det_wire_two_sites_resonant():
    p = WireParams(n=2, eps0=0.0, v=1.4, gamma=1.1)
    expect = -(1.1 ** 2) / 4.0 - 1.4 ** 2
    assert det_wire(p, 0.0) == pytest.approx(expect, abs=1e-14)


def test_det_wire_small_gamma_approaches_hat():
    p = WireParams(n=5, eps0=0.0, v=1.0, gamma=1e-8)
    eps = 0.37
    h = hat_dets(p, eps)
    assert det_wire(p, eps) == pytest.approx(h.c_n, rel=1e-7)


def test_det_wire_against_dense_oracle():
    rng = np.random.default_rng(19)
    for _ in range(200):
        p = random_params(rng)
        eps = float(rng.uniform(p.eps0 - 2 * p.v - 2 * p.gamma, p.eps0 + 2 * p.v + 2 * p.gamma))
        oracle = dense_det(dense_wire_matrix(p, eps))
        assert det_wire(p, eps) == pytest.approx(oracle, rel=1e-10)


def test_det_wire_never_vanishes_for_positive_gamma():
    rng = np.random.default_rng(21)
    for _ in range(300):
        p = random_params(rng)
        eps = float(rng.uniform(p.eps0 - 3 * p.v, p.eps0 + 3 * p.v))
        assert abs(det_wire(p, eps)) > 0.0


def test_det_wire_energy_mirror_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_params(rng)
        delta = float(rng.uniform(0, 3))
        lhs = abs(det_wire(p, p.eps0 + delta))
        rhs = abs(det_wire(p, p.eps0 - delta))
        assert lhs == pytest.approx(rhs, rel=1e-12)


# --- corner cofactor ---------------------------------------------------------

def test_corner_cofactor_wire_values():
    # The wire's corner cofactor is v**(n-1), the cofactor with beta = v.
    for n, v, want in ((4, 2.0, 8.0), (1, 5.0, 1.0), (3, -2.0, 4.0)):
        assert corner_cofactor(SymToeplitzTridiag(0.0, v, n)) == want


def test_corner_cofactor_wire_matches_dense_signed_cofactor():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = random_params(rng, n=int(rng.integers(1, 10)))
        eps = float(rng.uniform(-2, 2))
        oracle = dense_corner_cofactor(dense_wire_matrix(p, eps))
        assert abs(oracle.imag) < 1e-12 * max(1.0, abs(oracle))  # cofactor is real
        # The minor is triangular with -v on its diagonal, and the sign
        # (-1)**(n+1) cancels the off-diagonal signs: the cofactor is v**(n-1).
        cofactor = corner_cofactor(SymToeplitzTridiag(p.eps0 - eps, p.v, p.n))
        assert cofactor == pytest.approx(oracle.real, rel=1e-10, abs=1e-12)


# --- first inverse column ----------------------------------------------------

def test_first_column_single_site():
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=0.8)
    u = first_inverse_column(p, 0.0)
    assert u[0] == pytest.approx(1.0 / 0.8j, rel=1e-14)


def test_first_column_two_sites_hand_case():
    p = WireParams(n=2, eps0=0.0, v=1.5, gamma=3.0)  # gamma = 2 v
    u = first_inverse_column(p, 0.0)
    assert u[1] == pytest.approx(-1.0 / (2 * 1.5), rel=1e-12)


def test_first_column_solves_system_to_bound():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 65))
        p = random_params(rng, n=n)
        eps = float(rng.uniform(p.eps0 - 2.5 * p.v, p.eps0 + 2.5 * p.v))
        u = first_inverse_column(p, eps)
        c = dense_wire_matrix(p, eps)
        res = c @ u
        res[0] -= 1.0
        assert np.max(np.abs(res)) <= 1e-10 * max(1.0, np.max(np.sum(np.abs(c), axis=1)))


def test_first_column_cramer_consistency():
    rng = np.random.default_rng(37)
    for _ in range(40):
        p = random_params(rng)
        eps = float(rng.uniform(p.eps0 - 2, p.eps0 + 2))
        u = first_inverse_column(p, eps)
        lhs = u[-1] * det_wire(p, eps)
        assert lhs == pytest.approx(p.v ** (p.n - 1), rel=1e-9, abs=1e-12)


def test_first_column_matches_dense_inverse():
    # Random energies plus exact chain resonances, where lead-free leading
    # minors vanish.
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = random_params(rng, n=int(rng.integers(1, 201)))
        resonances = chain_resonances(p)
        for eps in (float(rng.uniform(p.eps0 - 2, p.eps0 + 2)),
                    float(resonances[rng.integers(p.n)])):
            u = first_inverse_column(p, eps)
            inv = np.linalg.inv(dense_wire_matrix(p, eps))
            assert np.max(np.abs(u - inv[:, 0])) < 1e-10 * max(1.0, np.max(np.abs(inv)))


def test_first_column_robust_at_chain_resonance():
    # Lead-free leading minors vanish at eps = eps0 + 2 v cos(m pi / (n+1)).
    # The sweep divides only by trailing continuants that contain the lead
    # corner, which cannot vanish at a real energy when gamma > 0.
    p = WireParams(n=5, eps0=0.0, v=1.0, gamma=0.4)
    eps = 2.0 * math.cos(math.pi / 6.0)
    u = first_inverse_column(p, eps)
    assert np.all(np.isfinite(u))


def test_first_column_of_a_weakly_coupled_wire_solves():
    # ||u|| grows like 1/gamma near a resonance, and so does a backward-stable
    # residual: a bound of 1e-10 max(1, ||C||) rejected this wire (residual
    # 4.657e-10 against 3.717e-10).
    p = WireParams(n=69, eps0=0.0, v=1.0, gamma=1e-6)
    eps = 1.7168975872037322
    u = first_inverse_column(p, eps)
    e1 = np.zeros(p.n)
    e1[0] = 1.0
    want = np.linalg.solve(dense_wire_matrix(p, eps), e1)
    assert np.max(np.abs(u - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("gamma", [1e-6, 1e-8])
def test_first_column_accepts_weakly_coupled_wires_at_resonances(gamma):
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = WireParams(n=int(rng.integers(1, 201)), eps0=0.0, v=1.0, gamma=gamma)
        for eps in (float(rng.uniform(-2.0, 2.0)),
                    float(chain_resonances(p)[rng.integers(p.n)])):
            assert np.all(np.isfinite(first_inverse_column(p, eps)))


def test_first_column_check_catches_a_sign_slip_in_the_sweep():
    # The residual check must still reject a wrong solution: rebuild
    # first_inverse_column with the sweep's sign flipped, which changes r
    # from n = 3 on (at n = 2 it multiplies r_n+1 = 0).
    source = textwrap.dedent(inspect.getsource(wire_matrix.first_inverse_column))
    slipped = source.replace("d[i] - p.v * r[i + 1]", "d[i] + p.v * r[i + 1]")
    assert slipped != source
    namespace = dict(vars(wire_matrix))
    exec(slipped, namespace)
    mutant = namespace["first_inverse_column"]
    rng = np.random.default_rng(47)
    for _ in range(100):
        p = random_params(rng, n=int(rng.integers(3, 201)))
        eps = float(rng.uniform(p.eps0 - 2.5 * p.v, p.eps0 + 2.5 * p.v))
        with pytest.raises(SingularMatrixError):
            mutant(p, eps)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_first_column_rejects_non_finite_energy(eps):
    # The one energy check (wire_matrix._energies) and its message.
    p = WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)
    with pytest.raises(ValueError, match=r"^probe energy must be finite$"):
        first_inverse_column(p, eps)


def test_single_site_corner_contributions_stack():
    # At n = 1 both lead corners sit on the one site: C = eps0 - eps + i*gamma.
    p = WireParams(n=1, eps0=0.6, v=1.0, gamma=0.9)
    u = first_inverse_column(p, 0.1)
    assert u[0] == pytest.approx(1.0 / (0.5 + 0.9j), rel=1e-15)
