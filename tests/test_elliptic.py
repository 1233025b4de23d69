import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    lattice_ref,
    wp_prime_ref,
    wp_prime_theta_ref,
    wp_ref,
    z2_ref,
    zeta_ref,
)
from tvspec.elliptic import (
    POLE_GUARD,
    make_lattice,
    reduce_to_cell,
    wp,
    wp_half_shift,
    wp_series_half,
    wp_series_origin,
    zeta_wp_wp_prime,
)
from tvspec.errors import NonConvergenceError, PoleError
from tvspec.hill import _nearest_lattice_distance
from tvspec.premodular import z_n

from conftest import lattice

TAUS = (1j, 1.3j, 2j, 0.31 + 1.12j, -0.4 + 0.8j)

SAMPLE_Z = (0.31 + 0.17j, 0.12, 0.07j, 0.45, 0.26, 0.33)


def _points(tau):
    return [0.31 + 0.17j, 0.45 * tau, 0.12 + 0.41 * tau, -0.23 + 0.29 * tau]


# the zeta and wp' components of the one evaluator
def zeta_w(z, L):
    return zeta_wp_wp_prime(z, L)[0]


def wp_prime(z, L):
    return zeta_wp_wp_prime(z, L)[2]


@pytest.mark.parametrize(
    "tau", TAUS + (1 + 0.3j, 0.5 + 0.5j, 0.2j, 0.5 + 0.866j)
)
def test_lattice_constants_match_theta_reference(tau):
    L = lattice(tau)
    ref = lattice_ref(tau)
    for name in ("e1", "e2", "e3", "g2", "g3", "eta1"):
        got = getattr(L, name)
        scale = max(1.0, abs(ref[name]))
        assert abs(got - ref[name]) <= 1e-11 * scale, name


@pytest.mark.parametrize("tau", TAUS)
def test_point_values_match_theta_reference(tau):
    L = lattice(tau)
    for z in _points(tau):
        assert abs(wp(z, L) - wp_ref(z, tau)) <= 1e-9
        assert abs(zeta_w(z, L) - zeta_ref(z, tau)) <= 1e-10
        assert abs(wp_prime(z, L) - wp_prime_ref(z, tau)) <= 1e-8


def test_legendre_relation():
    for tau in TAUS:
        L = lattice(tau)
        assert abs(L.eta1 * tau - L.eta2 - 2j * np.pi) < 1e-12


def test_e_sum_and_symmetric_functions():
    for tau in TAUS:
        L = lattice(tau)
        e1, e2, e3 = L.es
        assert abs(e1 + e2 + e3) < 1e-11 * max(1.0, abs(e1))
        assert abs(L.g2 + 4 * (e1 * e2 + e1 * e3 + e2 * e3)) < 1e-10
        assert abs(L.g3 - 4 * e1 * e2 * e3) < 1e-10


def test_half_period_values_are_the_es():
    for tau in TAUS:
        L = lattice(tau)
        h = L.half_periods
        for ek, hk in zip(L.es, h[1:]):
            assert abs(wp(hk, L) - ek) < 1e-10 * max(1.0, abs(ek))
            assert abs(wp_prime(hk, L)) < 1e-7


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.08, 0.92),
    b=st.floats(0.08, 0.92),
    h=st.floats(0.6, 2.4),
)
def test_differential_identity_property(a, b, h):
    tau = 1j * h
    L = lattice(tau)
    z = a + b * tau
    p, dp = wp(z, L), wp_prime(z, L)
    lhs = dp * dp
    rhs = 4 * p ** 3 - L.g2 * p - L.g3
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.1, 0.9),
    b=st.floats(0.1, 0.9),
    re=st.floats(-0.45, 0.45),
    h=st.floats(0.6, 2.2),
    m=st.integers(-2, 2),
    n=st.integers(-2, 2),
)
def test_periodicity_property(a, b, re, h, m, n):
    tau = re + 1j * h
    L = lattice(tau)
    z = a + b * tau
    w = z + m + n * tau
    assert abs(wp(w, L) - wp(z, L)) <= 1e-8 * max(1.0, abs(wp(z, L)))
    # zeta is quasi-periodic with increments eta1, eta2
    inc = m * L.eta1 + n * L.eta2
    assert abs(zeta_w(w, L) - zeta_w(z, L) - inc) <= 1e-9 * max(
        1.0, abs(zeta_w(z, L))
    )


def test_parity():
    for tau in TAUS:
        L = lattice(tau)
        for z in _points(tau):
            assert abs(wp(-z, L) - wp(z, L)) < 1e-10 * max(1.0, abs(wp(z, L)))
            assert abs(zeta_w(-z, L) + zeta_w(z, L)) < 1e-10
            assert abs(wp_prime(-z, L) + wp_prime(z, L)) < 1e-9


def test_second_derivative_identity():
    # wp'' = 6 wp^2 - g2/2, with wp'' the derivative of the evaluator's wp'
    # by the trapezoid rule on a circle of radius 0.02 (16 nodes)
    w = np.exp(2j * np.pi * np.arange(16) / 16)
    for tau in TAUS:
        L = lattice(tau)
        for z in _points(tau):
            p = wp(z, L)
            lhs = np.mean(wp_prime(z + 0.02 * w, L) / w) / 0.02
            rhs = 6 * p * p - L.g2 / 2
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_modular_inversion_of_wp():
    # wp(z/tau; -1/tau) = tau^2 wp(z; tau)
    for tau in (1j, 1.5j, 0.31 + 1.12j):
        L = lattice(tau)
        Ld = lattice(-1 / tau)
        for z in _points(tau):
            lhs = wp(z / tau, Ld)
            rhs = tau ** 2 * wp(z, L)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_half_shift_agrees_with_direct_translation():
    for tau in (1j, 1.3j, 0.31 + 1.12j):
        L = lattice(tau)
        for k in (1, 2, 3):
            for z in _points(tau):
                direct = wp(z + L.half_periods[k], L)
                shifted = wp_half_shift(z, L, k)
                assert abs(direct - shifted) < 1e-8 * max(1.0, abs(direct))


def test_series_match_function_values(lat_i):
    L = lat_i
    c = wp_series_origin(L, 8)
    for z in (0.05 + 0.04j, 0.09, 0.06j):
        val = 1.0 / z ** 2 + sum(c[m] * z ** (2 * m) for m in range(1, len(c)))
        assert abs(val - wp(z, L)) < 1e-9 * max(1.0, abs(wp(z, L)))
    for k in (1, 2, 3):
        a = wp_series_half(L, k, 16)
        for z in (0.05 + 0.04j, 0.07):
            val = sum(a[j] * z ** j for j in range(len(a)))
            ref = wp(z + L.half_periods[k], L)
            assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("tau", TAUS)
def test_series_half_matches_the_loop_convolution(tau):
    # reference: the Cauchy product as a Python loop, one term at a time
    L = lattice(tau)
    for k in (1, 2, 3):
        want = np.zeros(25, dtype=complex)
        want[0] = L.es[k - 1]
        for j in range(23):
            conv = sum(want[i] * want[j - i] for i in range(j + 1))
            want[j + 2] = (6.0 * conv - (L.g2 / 2.0 if j == 0 else 0.0)) \
                / ((j + 2) * (j + 1))
        np.testing.assert_allclose(wp_series_half(L, k, 24), want,
                                   rtol=1e-13, atol=0.0)


def test_pole_guard():
    L = lattice(1j)
    for z in (0.0, 1.0, 1j, 1e-9 + 1e-9j, 1 + 1j):
        with pytest.raises(PoleError):
            wp(z, L)
        with pytest.raises(PoleError):
            zeta_w(z, L)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1j, 0.31 + 1.12j, 3 + 0.5j])
def test_non_finite_points_are_refused(tau):
    # 3 + 0.5i is evaluated on its reduced lattice, after z -> z/lam
    L = lattice(tau)
    bad = (complex(np.nan, 1.0), complex(np.inf, 0.2),
           complex(0.3, np.nan), np.array([0.3 + 0.2j, np.inf]))
    for z in bad:
        with pytest.raises(ValueError, match="finite"):
            zeta_wp_wp_prime(z, L)
        with pytest.raises(ValueError, match="finite"):
            wp(z, L)
    for r, s in ((np.nan, 0.3), (0.3, np.inf), (-np.inf, 0.3)):
        with pytest.raises(ValueError, match="finite"):
            z_n(L, r, s, 2)
    with pytest.raises(ValueError, match="finite"):
        z_n(make_lattice(np.array([1j, tau])), np.nan, 0.3, 2)


@pytest.mark.parametrize("tau", TAUS[:3] + (0.5 + 0.3j, 1 + 0.05j))
def test_public_evaluators_select_from_one_evaluator(tau):
    L = lattice(tau)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-2, 2, (7, 9)) + 1j * rng.uniform(-2, 2, (7, 9))
    for z in (zs, complex(zs[0, 0])):
        assert np.array_equal(wp(z, L), zeta_wp_wp_prime(z, L)[1])
    r = rng.uniform(-1, 1, (4, 5))
    s = rng.uniform(-1, 1, (4, 5))
    zeta = zeta_wp_wp_prime(r + s * tau, L)[0]
    assert np.array_equal(z_n(L, r, s, 1), zeta - r * L.eta1 - s * L.eta2)
    zeta = zeta_wp_wp_prime(0.3 + 0.2 * tau, L)[0]
    assert z_n(L, 0.3, 0.2, 1) == zeta - 0.3 * L.eta1 - 0.2 * L.eta2
    # (r, s) with z = r + s*tau: on a lattice point, 3e-7 off one (inside
    # the guard) and 3e-6 off one (outside it)
    cases = [((0.0, 0.0), True), ((1.0, 1.0), True), ((3e-7, 2.0), True),
             ((3e-6, 2.0), False),
             ((np.array([0.3, -1.0]), np.array([0.2, 3.0])), True)]
    evaluators = (zeta_wp_wp_prime, wp)
    for (r, s), pole in cases:
        z = r + s * tau
        for f in evaluators + (lambda z, L: z_n(L, r, s, 1),):
            if pole:
                with pytest.raises(PoleError):
                    f(z, L)
            else:
                f(z, L)


def test_pole_guard_from_reduced_modulus():
    # After reduction to the cell, |z_red| < POLE_GUARD is the same test
    # as "within POLE_GUARD of some lattice point", down to Im tau = 0.05.
    ratios = np.geomspace(0.3, 3.0, 8)
    angles = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.85]))
    offsets = (ratios[:, None] * angles[None, :]).ravel() * POLE_GUARD
    taus = (1j, 2j, 0.31 + 1.12j, -0.4 + 0.8j, 0.5 + 0.3j, 1 + 0.05j,
            0.9975 + 0.05j)
    inside = np.abs(offsets) < POLE_GUARD
    for tau in taus:
        lattice_pts = np.array([m + n * tau for m in range(-2, 3)
                                for n in range(-2, 3)])
        z = (lattice_pts[:, None] + offsets[None, :]).ravel()
        z_red, _, _ = reduce_to_cell(z, tau)
        guard = np.abs(z_red) < POLE_GUARD
        assert np.array_equal(guard, np.tile(inside, len(lattice_pts)))
        dist = _nearest_lattice_distance(z_red, tau)
        assert np.array_equal(guard, dist < POLE_GUARD)


def test_reduce_to_cell_roundtrip():
    tau = 0.31 + 1.12j
    zs = np.array([3.7 + 2.1j, -5.2 + 0.3j, 0.25 + 0.5 * tau])
    zr, m, n = reduce_to_cell(zs, tau)
    assert np.max(np.abs(zs - (zr + m + n * tau))) < 1e-12


def test_make_lattice_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        make_lattice(-1j)
    with pytest.raises(ValueError):
        make_lattice(0.5)
    for bad in ([1j, -1j], [1j, np.nan], [], [[1j, 2j]]):
        with pytest.raises(ValueError):
            make_lattice(np.array(bad, dtype=complex))


# a mixed batch: Im tau log-spaced over [0.05, 10] in shuffled order, so
# thin lattices (long series) sit beside thick ones (two terms), and the
# cusps 0 and 1 of F0 at the lowest height
_rng = np.random.default_rng(16)
BATCH_TAUS = np.append(_rng.permutation(
    _rng.uniform(-0.5, 1.0, 24) + 1j * np.geomspace(0.05, 10.0, 24)),
    [0.05j, 1 + 0.05j])


def test_lattice_batch_matches_lattices_alone():
    B = make_lattice(BATCH_TAUS)
    assert np.array_equal(B.tau, BATCH_TAUS)
    for i, tau in enumerate(BATCH_TAUS):
        L = make_lattice(complex(tau))
        e = max(abs(L.e1), abs(L.e2), abs(L.e3))
        scales = {"q": abs(L.q), "e1": e, "e2": e, "e3": e, "g2": e ** 2,
                  "g3": e ** 3, "eta1": abs(L.eta1),
                  "eta2": abs(L.eta1 * L.tau)}
        ref = None
        for name, scale in scales.items():
            got, want = getattr(B, name)[i], getattr(L, name)
            if abs(got - want) > 1e-13 * scale:
                # In the batch a lattice may get Eisenstein terms below
                # TRUNCATION_TOL that it does not get alone, and the
                # nome's powers round differently; a lattice that still
                # differs must be no farther from mpmath than the lattice
                # alone.
                ref = ref or lattice_ref(complex(tau))
                assert abs(got - ref[name]) <= 2 * abs(want - ref[name]), \
                    (tau, name)


def test_lattice_batch_of_a_high_and_a_low_lattice():
    # the Im tau = 14 lattice truncates after two theta terms; carried on
    # to the low lattice's term count, its q-power underflows to 0 while
    # the sine overflows, and 0 * inf poisoned the batch with NaN
    taus = np.array([0.5 + 0.0535j, 0.5 + 14j])
    B = make_lattice(taus)
    for i, tau in enumerate(taus):
        L = make_lattice(complex(tau))
        for name in ("q", "e1", "e2", "e3", "g2", "g3", "eta1", "eta2"):
            want = getattr(L, name)
            assert abs(getattr(B, name)[i] - want) <= 1e-14 * abs(want), \
                (tau, name)


def test_z_n_over_a_lattice_batch_matches_lattices_alone():
    B = make_lattice(BATCH_TAUS)
    for n in (1, 2, 3, 4):
        for r, s in ((0.15, 0.15), (0.3, 0.3), (0.7, 0.4)):
            got = z_n(B, r, s, n)
            assert got.shape == BATCH_TAUS.shape
            for tau, value in zip(BATCH_TAUS, got):
                L = make_lattice(complex(tau))
                want = z_n(L, r, s, n)
                zeta, p, pp = zeta_wp_wp_prime(r + s * L.tau, L)
                Z = zeta - r * L.eta1 - s * L.eta2
                # the size of the terms of z_n, a weight-w monomial
                terms = max(abs(Z), abs(p) ** 0.5, abs(pp) ** (1 / 3),
                            abs(L.g2) ** 0.25) ** (n * (n + 1) // 2)
                assert abs(value - want) <= 1e-9 * max(abs(want), terms)
    # one point per lattice, on the last axis of the points
    z = 0.3 + 0.2 * BATCH_TAUS
    for value, tau in zip(wp(z, B), BATCH_TAUS):
        L = make_lattice(complex(tau))
        assert abs(value - wp(complex(0.3 + 0.2 * tau), L)) <= 1e-9 * abs(value)


# thin lattices, Im tau down to 0.01: on the cusps 0 and 1 of F0, at
# Re tau = 1/2 and off the strip; the series run on the reduced lattice
THIN_TAUS = (0.01j, 0.02j, 0.05j, 0.9975 + 0.05j, 0.5 + 0.01j, 2.7 + 0.04j,
             -0.4 + 0.02j)


# 1000.3 + 0.05i lies by the cusp 3001/3: lam = 3 tau - 3001 cancels from
# ~3000 to ~0.18, and forming 3 Re tau - 3001 as a plain product leaves
# ~7e-12 in the e_k
@pytest.mark.parametrize("tau", THIN_TAUS + (1000.3 + 0.05j,))
def test_thin_lattice_constants_match_theta_reference(tau):
    L = make_lattice(tau)
    ref = lattice_ref(tau)
    for name in ("e1", "e2", "e3", "g2", "g3", "eta1"):
        got = getattr(L, name)
        assert abs(got - ref[name]) <= 1e-13 * max(1.0, abs(ref[name])), name


@pytest.mark.parametrize("tau", THIN_TAUS)
def test_thin_lattice_point_values_match_theta_reference(tau):
    L = make_lattice(tau)
    ref = lattice_ref(tau)
    # wp' is accurate to its natural scale |e|^(3/2), not relative to
    # itself: at most of these points, far from the real axis of the tall
    # reduced lattice, it is exponentially small (9e-35 at z = 0.31 + 0.17
    # tau, tau = 0.01i)
    scale = max(abs(ref[k]) for k in ("e1", "e2", "e3")) ** 1.5
    for z in (0.31 + 0.17 * tau, 0.12 + 0.41 * tau, -0.23 + 0.29 * tau):
        zeta, p, pp = zeta_wp_wp_prime(z, L)
        for got, want in ((zeta, zeta_ref(z, tau)), (p, wp_ref(z, tau))):
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), z
        assert abs(pp - wp_prime_theta_ref(z, tau)) <= 1e-13 * scale, z
        # and through wp'^2 = 4 wp^3 - g2 wp - g3 with the oracle's g2, g3
        terms = (4 * p ** 3, ref["g2"] * p, ref["g3"])
        lhs = pp * pp
        rhs = terms[0] - terms[1] - terms[2]
        assert abs(lhs - rhs) <= 1e-13 * max(map(abs, terms)), z


def test_z2_at_a_thin_boundary_lattice_matches_mpmath():
    # a boundary-scan point next to the cusp 1 of F0
    tau, r, s = 0.9975 + 0.05j, 0.875, 0.1375
    want = z2_ref(r, s, tau)
    got = z_n(make_lattice(tau), r, s, 2)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("tau", (0.05j, 0.9975 + 0.05j))
def test_thin_lattice_in_a_batch_equals_it_alone(tau):
    B = make_lattice(np.array([tau, 1j, 0.05j]))
    L = make_lattice(tau)
    e = max(abs(L.e1), abs(L.e2), abs(L.e3))
    scales = {"e1": e, "e2": e, "e3": e, "g2": e ** 2, "g3": e ** 3,
              "eta1": abs(L.eta1)}
    for name, scale in scales.items():
        assert abs(getattr(B, name)[0] - getattr(L, name)) <= 1e-14 * scale, \
            name


def test_make_lattice_refuses_a_reduced_lattice_whose_theta_terms_overflow():
    # Im tau' = 150 is the last height the theta block evaluates finitely;
    # 0.005i reduces to 200i, and 0.5 + 0.001i to 250i
    L = make_lattice(150j)
    assert np.all(np.isfinite([L.e1, L.e2, L.e3, L.g2, L.g3, L.eta1]))
    # the golden ratio's partial quotients keep |c| growing toward 1e9
    golden = (5 ** 0.5 - 1) / 2 + 1e-18j
    for bad in (151j, 0.005j, 0.5 + 0.001j, np.array([1j, 0.005j]), golden,
                np.array([golden, 1j])):
        with pytest.raises(NonConvergenceError):
            make_lattice(bad)
