import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from tvspec.heun import (
    TildeAlpha,
    coeff_sequence,
    heun_from_tuple,
    interlacing_check,
    p_polynomial,
)
from tvspec.poly import match_roots, polynomial_roots

from conftest import lattice


def _ode_residual(h, N, qstar, xs):
    """Residual of the algebraic-form ODE for the truncated series solution
    y = sum_{m<=N} c_m(q*) (x - t3)^m; an independent check by direct
    substitution."""
    cs = coeff_sequence(h, N + 1)
    y = np.array([npp.polyval(qstar, c) for c in cs[: N + 1]], dtype=complex)
    dy = npp.polyder(y)
    d2y = npp.polyder(y, 2)
    worst = 0.0
    for x in xs:
        u = x - h.t3
        yv = npp.polyval(u, y)
        d1v = npp.polyval(u, dy)
        d2v = npp.polyval(u, d2y)
        pre = h.gamma1 / (x - h.t1) + h.gamma2 / (x - h.t2) + h.gamma3 / (
            x - h.t3
        )
        rat = (h.alpha * h.beta * (x - h.t3) - qstar) / (
            (x - h.t1) * (x - h.t2) * (x - h.t3)
        )
        worst = max(worst, abs(d2v + pre * d1v + rat * yv) / max(1.0, abs(yv)))
    return worst


def test_branch_values_and_degree():
    ta = TildeAlpha.from_branches((2, 0, 0, 0), (0, 0, 0, 0))
    assert ta.values == (-1.0, 0.0, 0.0, 0.0)
    assert ta.N == 1
    ta = TildeAlpha.from_branches((3, 1, 0, 0), (0, 0, 1, 1))
    assert ta.values == (-1.5, -0.5, 0.5, 0.5)
    assert ta.N == 1
    with pytest.raises(ValueError):
        TildeAlpha.from_branches((3, 1, 0, 0), (0, 1, 0, 0)).N
    with pytest.raises(ValueError):
        TildeAlpha((0.3, 0, 0, 0))


def test_base_case_c1():
    L = lattice(1j)
    ta = TildeAlpha.from_branches((2, 0, 0, 0), (0, 0, 0, 0))
    h = heun_from_tuple(L, ta)
    c1 = coeff_sequence(h, 1)[1]
    D = (h.t1 - h.t3) * (h.t2 - h.t3)
    assert abs(c1[0]) < 1e-15
    assert abs(c1[1] - 1.0 / (D * h.gamma3)) < 1e-15 * abs(c1[1])


def test_each_cm_has_exact_degree_m():
    L = lattice(1.3j)
    ta = TildeAlpha.from_branches((2, 2, 1, 1), (0, 0, 0, 0))
    h = heun_from_tuple(L, ta)
    cs = coeff_sequence(h, 6)
    for m, c in enumerate(cs):
        assert len(c) == m + 1
        assert abs(c[-1]) > 0


@pytest.mark.parametrize(
    "n,branches",
    [
        ((2, 0, 0, 0), (0, 0, 0, 0)),
        ((2, 2, 1, 1), (0, 0, 0, 0)),
        ((1, 1, 0, 0), (0, 0, 0, 0)),
        ((3, 1, 0, 0), (0, 0, 1, 1)),
    ],
)
def test_p_roots_give_truncating_ode_solutions(n, branches):
    L = lattice(1j)
    ta = TildeAlpha.from_branches(n, branches)
    h = heun_from_tuple(L, ta)
    N = ta.N
    P = p_polynomial(L, ta)
    assert P.degree == N + 1
    assert abs(P.coeffs[-1] - 1.0) < 1e-12
    xs = [1.7 + 0.3j, -2.5 + 1.1j, 9.0, 0.5 - 4.0j, 3.3 + 3.3j]
    cs_tail = coeff_sequence(h, N + 3)
    for E in P.roots():
        qstar = complex(E / 4.0 + h.q0)
        # series truncation: the two coefficients past the solution vanish
        for k in (N + 1, N + 2):
            assert abs(npp.polyval(qstar, cs_tail[k])) < 1e-10
        assert _ode_residual(h, N, qstar, xs) < 1e-10


def test_accessory_map_roundtrip():
    # the roots of c_(N+1) in q are q = E/4 + q0 at the roots E of P
    L = lattice(0.3 + 1.1j)
    for ta in (TildeAlpha((-1.0, 0.0, 0.0, 0.0)),
               TildeAlpha.from_branches((2, 1, 1, 0), (0, 0, 0, 0))):
        h = heun_from_tuple(L, ta)
        q_roots = polynomial_roots(coeff_sequence(h, ta.N + 1)[ta.N + 1])
        e_roots = p_polynomial(L, ta).roots()
        _, dist = match_roots(4.0 * (q_roots - h.q0), e_roots)
        assert dist < 1e-10 * (1.0 + np.max(np.abs(e_roots)))


def test_interlacing_positive_regime():
    L = lattice(1j)
    ta = TildeAlpha.from_branches((1, 1, 0, 0), (0, 0, 0, 0))
    rep = interlacing_check(heun_from_tuple(L, ta), ta.N)
    assert rep.regime == "positive"
    assert rep.all_real_simple
    assert rep.interlaced
    assert rep.leading_pattern_ok
    assert rep.product_signs_ok


def test_interlacing_flip_regime():
    # branch with gamma3 = beta = -1/2, so the sign pattern flips at m = 1
    L = lattice(1j)
    ta = TildeAlpha.from_branches((1, 1, 1, 1), (0, 0, 0, 0))
    rep = interlacing_check(heun_from_tuple(L, ta), ta.N)
    assert rep.regime == "flip"
    assert rep.flip_index == 1
    assert rep.all_real_simple
    assert rep.interlaced
    assert rep.leading_pattern_ok
    assert rep.product_signs_ok


def test_interlacing_rejects_complex_data():
    L = lattice(0.31 + 1.12j)
    ta = TildeAlpha.from_branches((1, 1, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        interlacing_check(heun_from_tuple(L, ta), ta.N)
