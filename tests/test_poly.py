import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npp

from tvspec.poly import (
    coefficient_distance,
    compose_affine,
    match_roots,
    polynomial_roots,
    polyval_and_deriv,
    residuals,
)


def _poly_from_roots(roots):
    c = np.array([1.0 + 0.0j])
    for r in roots:
        c = npp.polymul(c, np.array([-r, 1.0]))
    return c


def test_matches_numpy_roots_on_random_polynomials():
    rng = np.random.default_rng(7)
    for deg in range(1, 9):
        for _ in range(5):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[-1] += 3.0  # keep the leading coefficient well away from 0
            mine = polynomial_roots(c)
            ref = np.roots(c[::-1])
            _, dist = match_roots(mine, ref)
            assert dist < 1e-8 * (1.0 + np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=0.0, max_magnitude=4.0,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1, max_size=6,
    )
)
def test_recovers_prescribed_roots(roots):
    roots = np.asarray(roots)
    if len(roots) > 1:
        gaps = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(gaps, np.inf)
        assume(gaps.min() > 0.05)
    c = _poly_from_roots(roots)
    found = polynomial_roots(c)
    _, dist = match_roots(found, roots)
    assert dist < 1e-7 * (1.0 + np.max(np.abs(roots)))


def test_clustered_roots_backward_error():
    # (x - 1)^3 (x + 2): the cluster limits forward accuracy, so check
    # backward error instead of root positions
    c = _poly_from_roots([1.0, 1.0, 1.0, -2.0])
    r = polynomial_roots(c)
    assert len(r) == 4
    res = residuals(c, r)
    assert np.max(res) < 1e-10


def test_residuals_and_polyval():
    c = np.array([2.0, 0.0, 1.0], dtype=complex)  # 2 + x^2
    p, dp = polyval_and_deriv(c, np.array([1j, 2.0]))
    assert abs(p[0] - 1.0) < 1e-14
    assert abs(dp[0] - 2j) < 1e-14
    assert abs(p[1] - 6.0) < 1e-14


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        polynomial_roots(np.array([0.0, 0.0]))
    assert len(polynomial_roots(np.array([3.0]))) == 0
    r = polynomial_roots(np.array([1.0, 2.0]))
    assert abs(r[0] + 0.5) < 1e-14
    # trailing zero coefficients are stripped
    r = polynomial_roots(np.array([1.0, 2.0, 0.0, 0.0]))
    assert abs(r[0] + 0.5) < 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0.0, np.nan)])
def test_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        polynomial_roots(np.array([bad, 1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        polynomial_roots(np.array([1.0, 2.0, bad]))


def test_deterministic():
    rng = np.random.default_rng(3)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    a = polynomial_roots(c)
    b = polynomial_roots(c)
    assert np.array_equal(a, b)


def test_coefficient_distance_pads_and_scales():
    p = np.array([1.0, 2.0], dtype=complex)
    q = np.array([1.0, 2.0, 1e-9], dtype=complex)
    assert coefficient_distance(p, q) == pytest.approx(5e-10, rel=1e-6)
    assert coefficient_distance(q, p) == coefficient_distance(p, q)
    assert coefficient_distance(p, p) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    a=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                         allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=3.0,
                         allow_nan=False, allow_infinity=False),
    x=st.complex_numbers(max_magnitude=2.0,
                         allow_nan=False, allow_infinity=False),
)
def test_compose_affine_property(a, b, x):
    c = np.array([1.0, -2.0, 0.5j, 1.0], dtype=complex)
    comp = compose_affine(c, a, b)
    lhs = npp.polyval(x, comp)
    rhs = npp.polyval(a * x + b, c)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_match_roots_is_permutation_invariant():
    rng = np.random.default_rng(11)
    r = rng.normal(size=5) + 1j * rng.normal(size=5)
    perm, dist = match_roots(r[[3, 1, 4, 0, 2]], r)
    assert dist < 1e-15
    assert sorted(perm) == list(range(5))
    with pytest.raises(ValueError):
        match_roots(r, r[:3])
