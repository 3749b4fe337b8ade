"""Wire matrix assembly, determinant split, cofactor, and first inverse column."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwire import (
    EXACT,
    NumericalError,
    SymToeplitzTridiag,
    WireMatrix,
    WireParams,
    chain_resonances,
    corner_cofactor_wire,
    det_sequence,
    det_wire,
    first_inverse_column,
    hat_dets,
)
from qwire.wire_matrix import _continuants

from oracles import dense_corner_cofactor, dense_det, dense_wire_matrix

TWO_PI = 2.0 * math.pi


def random_params(rng, n=None):
    return WireParams(
        n=n if n is not None else int(rng.integers(1, 17)),
        eps0=float(rng.uniform(-2, 2)),
        v=float(rng.uniform(0.1, 3)),
        gamma=float(rng.uniform(0.05, 4)),
    )


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


def _one_step_continuants(alpha, b2, n, zero, one):
    """The recurrence one step per pass, keeping Chat_{k-2} at every step."""
    older, prev2, prev = zero, zero, one
    for _ in range(n):
        older, prev2, prev = prev2, prev, alpha * prev - b2 * prev2
    return prev, prev2, older


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
def test_continuant_kernel_matches_one_step_recurrence(n, eps0, v, offsets):
    # offsets in band widths 4|v|: up to five band widths outside the band,
    # where both loops overflow to inf and then nan in the same places.
    alpha = eps0 - (eps0 + 4.0 * abs(v) * np.array(offsets))
    b2 = v * v
    with np.errstate(all="ignore"):
        got = _continuants(alpha, b2, n, np.zeros_like(alpha), np.ones_like(alpha))
        want = _one_step_continuants(alpha, b2, n, np.zeros_like(alpha), np.ones_like(alpha))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    for a in alpha.tolist():
        got = _continuants(a, b2, n, 0.0, 1.0)
        want = _one_step_continuants(a, b2, n, 0.0, 1.0)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_hat_dets_reject_non_finite_energy():
    p = WireParams(n=2, eps0=0.0, v=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        hat_dets(p, math.inf)


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
    assert corner_cofactor_wire(WireParams(n=4, eps0=0.0, v=2.0, gamma=1.0)) == 8.0
    assert corner_cofactor_wire(WireParams(n=1, eps0=0.0, v=5.0, gamma=1.0)) == 1.0
    assert corner_cofactor_wire(WireParams(n=3, eps0=0.0, v=-2.0, gamma=1.0)) == 4.0


def test_corner_cofactor_wire_overflow_raises_numerical_error():
    with pytest.raises(NumericalError, match=r"v\*\*\(n-1\)"):
        corner_cofactor_wire(WireParams(n=2000, eps0=0.0, v=1.5, gamma=0.5))


def test_corner_cofactor_wire_matches_dense_signed_cofactor():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = random_params(rng, n=int(rng.integers(1, 10)))
        eps = float(rng.uniform(-2, 2))
        oracle = dense_corner_cofactor(dense_wire_matrix(p, eps))
        assert abs(oracle.imag) < 1e-12 * max(1.0, abs(oracle))  # cofactor is real
        assert corner_cofactor_wire(p) == pytest.approx(oracle.real, rel=1e-10, abs=1e-12)


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
        wm = WireMatrix(p, eps)
        c = wm.to_dense()
        res = c @ u
        res[0] -= 1.0
        assert np.max(np.abs(res)) <= 1e-10 * max(1.0, wm.norm_inf())


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


# --- assembled matrix --------------------------------------------------------

def test_dense_layout_has_complex_corners_and_symmetry():
    p = WireParams(n=4, eps0=0.3, v=1.1, gamma=0.7)
    dense = WireMatrix(p, -0.2).to_dense()
    only_corners_complex = np.imag(dense).nonzero()
    assert set(zip(*only_corners_complex)) == {(0, 0), (3, 3)}
    assert np.array_equal(dense, dense.T)  # symmetric, not Hermitian


def test_single_site_corner_contributions_stack():
    p = WireParams(n=1, eps0=0.6, v=1.0, gamma=0.9)
    wm = WireMatrix(p, 0.1)
    assert wm.to_dense()[0, 0] == pytest.approx(0.5 + 0.9j, abs=1e-15)


def test_norm_inf_matches_dense():
    rng = np.random.default_rng(43)
    for _ in range(20):
        p = random_params(rng)
        eps = float(rng.uniform(-3, 3))
        wm = WireMatrix(p, eps)
        oracle = np.max(np.sum(np.abs(wm.to_dense()), axis=1))
        assert wm.norm_inf() == pytest.approx(oracle, rel=1e-12)
