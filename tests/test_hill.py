import cmath
import math

import numpy as np
import pytest

from tvspec import hill
from tvspec.elliptic import wp, zeta_wp_wp_prime
from tvspec.errors import CheckError, NonConvergenceError, PoleError
from tvspec.hill import (
    PathPotential,
    _trace_unitary,
    _transfer_batch,
    at_root,
    commutator_check,
    make_problem,
    monodromy,
    rectangular_certificate,
    stability_set_1d,
    trace_on_grid,
    unitarity_grid,
)
from tvspec.spectral import (
    q_via_phi_ansatz,
    roots_and_classify,
    spectral_report,
)

from conftest import lattice, problem


def _roots(tau, n):
    q = q_via_phi_ansatz(lattice(tau), n)
    return q, np.asarray(roots_and_classify(q).roots)


def test_transfer_is_unimodular_and_loops_commute():
    prob = problem(1.1j, (1, 0, 0, 0))
    for e in (-3.0, 0.7, 2.0 + 1.5j):
        for d in ("1", "tau"):
            rec = monodromy(prob, e, d)
            assert rec.det_error < 1e-9
        chk = commutator_check(prob, e)
        assert chk["passed"]
        assert chk["relative"] < 1e-6


def test_trace_is_two_at_every_root():
    q, roots = _roots(1.1j, (1, 0, 0, 0))
    prob = problem(1.1j, (1, 0, 0, 0))
    for e in roots:
        for d in ("1", "tau"):
            rec = monodromy(prob, complex(e), d)
            assert abs(abs(rec.delta) - 2.0) < 1e-7, (e, d)


def test_batch_matches_single():
    prob = problem(1j, (2, 0, 0, 0))
    es = np.array([-8.0, -1.0, 2.5, 7.0 + 2.0j])
    batch, steps, _ = trace_on_grid(prob, es)
    assert steps == 128
    for e, d in zip(es, batch):
        assert abs(monodromy(prob, complex(e)).delta - d) < 1e-8


def test_trace_is_analytic_by_mean_value():
    # Delta is entire in E: its mean over a circle is its value at the
    # centre
    prob = problem(1j, (1, 0, 0, 0))
    center = 1.5 + 0.5j
    ring = center + 0.8 * np.exp(2j * np.pi * np.arange(16) / 16)
    mean = np.mean(trace_on_grid(prob, ring)[0])
    dc = trace_on_grid(prob, [center])[0][0]
    assert abs(mean - dc) / (1.0 + abs(dc)) < 1e-8


def test_band_structure_of_the_classical_potential():
    # bands (-inf, e2] and [e3, e1]
    L = lattice(1j)
    prob = problem(1j, (1, 0, 0, 0))
    bs = stability_set_1d(prob, -12.0, 10.0, num=1101)
    assert len(bs.bands) == 2
    first, second = bs.bands
    assert first.open_left and not first.open_right
    assert not second.open_left and not second.open_right
    assert abs(first.hi - L.e2.real) < 1e-6
    assert abs(second.lo - L.e3.real) < 1e-6
    assert abs(second.hi - L.e1.real) < 1e-6


def test_edges_are_bisected_together(monkeypatch):
    # the brackets are narrowed together: one grid pass plus one batched
    # trace per regula falsi step, however many edges; a converged bracket
    # leaves the batch
    calls = []
    real = hill.trace_on_grid

    def counting(prob, e_values, direction="1"):
        calls.append(len(np.atleast_1d(e_values)))
        return real(prob, e_values, direction)

    monkeypatch.setattr(hill, "trace_on_grid", counting)
    for n, edges in (((1, 0, 0, 0), 3), ((2, 0, 0, 0), 5)):
        calls.clear()
        bs = stability_set_1d(problem(1j, n), -30.0, 30.0, num=1201)
        assert len(bs.finite_edges) == edges
        assert calls[0] == 1201 and calls[1] == edges
        assert calls[1:] == sorted(calls[1:], reverse=True)
        assert len(calls) <= 1 + 8
        assert bs.trace_calls == len(calls)


def test_stalled_bracket_raises(monkeypatch):
    # the +-6.875 brackets stop shrinking at one ulp (~9e-16): an EDGE_TOL
    # of 1e-20 is refused there instead of spending the halving budget
    calls = []
    real = hill.trace_on_grid

    def counting(prob, e_values, direction="1"):
        calls.append(len(np.atleast_1d(e_values)))
        return real(prob, e_values, direction)

    monkeypatch.setattr(hill, "trace_on_grid", counting)
    monkeypatch.setattr(hill, "EDGE_TOL", 1e-20)
    with pytest.raises(NonConvergenceError, match="stalled.*edge_tol=1e-20"):
        stability_set_1d(problem(1j, (1, 0, 0, 0)), -8.0, 8.0, num=161)
    assert len(calls) < 60


def test_exhausted_halving_budget_raises(monkeypatch):
    # a synthetic trace, 0 for E <= 0 and 3 beyond, puts an edge exactly at
    # the grid point 0, so the bracket (0, 1) shrinks toward 0 without
    # stalling; a budget of 3 steps runs out above an EDGE_TOL of 1e-320
    calls = []

    def synthetic(prob, e_values, direction="1"):
        calls.append(len(np.atleast_1d(e_values)))
        return np.where(np.real(e_values) > 0.0, 3.0 + 0j, 0j), 128, 0.0

    monkeypatch.setattr(hill, "trace_on_grid", synthetic)
    monkeypatch.setattr(hill, "_EDGE_STEPS", 3)
    monkeypatch.setattr(hill, "EDGE_TOL", 1e-320)
    with pytest.raises(NonConvergenceError, match="after 3 steps"):
        stability_set_1d(problem(1j, (1, 0, 0, 0)), -1.0, 1.0, num=3)
    assert calls == [3] + [1] * 3


def test_each_node_set_is_sampled_once(monkeypatch):
    # V does not depend on E: the grid pass and every refinement step share
    # the node samples of the step counts 64 and 128, all three nodes of
    # each step from one sampling
    calls = []
    real = PathPotential.__call__

    def counting(self, t):
        calls.append(np.shape(t))
        return real(self, t)

    prob = make_problem(lattice(1j), (1, 0, 0, 0))
    monkeypatch.setattr(PathPotential, "__call__", counting)
    bs = stability_set_1d(prob, -30.0, 30.0, num=1201)
    assert len(bs.finite_edges) == 3
    assert calls == [(3, 64), (3, 128)]


def _coarse_grid(prob):
    trace_on_grid(prob, np.linspace(-20.0, 20.0, 9))


def _partial_interval(prob):
    _transfer_batch(prob.potentials["1"], [0.3, -2.0], 0.4, hill.RTOL,
                    hill.ATOL)


def _tighter_rtol(prob):
    pot = prob.potentials["1"]
    _transfer_batch(pot, [-1.0, 3.0], 1.0, 1e-13, 1e-14)
    assert (1.0, 512) in pot._nodes


@pytest.mark.parametrize("before", [_coarse_grid, _partial_interval,
                                    _tighter_rtol],
                         ids=["other_batch", "t_end_0.4", "tighter_rtol"])
def test_reused_samples_give_the_fresh_traces(before):
    prob = make_problem(lattice(1j), (2, 0, 0, 0))
    before(prob)
    fresh = make_problem(lattice(1j), (2, 0, 0, 0))
    assert np.array_equal(trace_on_grid(prob, ENERGIES)[0],
                          trace_on_grid(fresh, ENERGIES)[0])


def test_bisection_steps_are_determinant_checked(monkeypatch):
    # an off-grid energy with a non-unimodular transfer matrix must not
    # slip through the edge refinement
    grid = np.linspace(-12.0, 10.0, 221)
    real = hill._transfer_batch

    def broken(pot, e_values, t_end, rtol, atol):
        ms, steps, ratio = real(pot, e_values, t_end, rtol, atol)
        e = np.atleast_1d(np.asarray(e_values)).real
        ms[~np.isin(e, grid)] *= 2.0
        return ms, steps, ratio

    monkeypatch.setattr(hill, "_transfer_batch", broken)
    prob = problem(1j, (1, 0, 0, 0))
    with pytest.raises(CheckError, match="determinant"):
        stability_set_1d(prob, grid[0], grid[-1], num=len(grid))


@pytest.mark.parametrize("root", ["e3", "e1"])
def test_edge_on_a_grid_point(root):
    # a trace of +-2 within integrator noise at a grid point must not push
    # the edge across the cell
    L = lattice(1j)
    e = getattr(L, root).real
    h, k = 0.02, 300
    e_min = e - k * h
    bs = stability_set_1d(problem(1j, (1, 0, 0, 0)), e_min, e_min + 600 * h,
                          num=601)
    assert abs(bs.energies[k] - e) < 1e-12
    assert min(abs(x - e) for x in bs.finite_edges) <= hill.EDGE_TOL


def test_band_structure_reports_its_cost():
    prob = problem(1j, (1, 0, 0, 0))
    bs = stability_set_1d(prob, -8.0, 8.0, num=161)
    assert bs.magnus_steps == 128
    assert 2 <= bs.trace_calls <= 1 + 8
    again = stability_set_1d(prob, -8.0, 8.0, num=161)
    assert 0.0 < bs.magnus_error_ratio <= 1.0
    assert ((again.magnus_steps, again.trace_calls, again.magnus_error_ratio)
            == (bs.magnus_steps, bs.trace_calls, bs.magnus_error_ratio))


def test_band_structure_keeps_the_grid_traces():
    prob = problem(1j, (1, 0, 0, 0))
    bs = stability_set_1d(prob, -8.0, 8.0, num=161)
    assert np.array_equal(bs.energies, np.linspace(-8.0, 8.0, 161))
    assert np.array_equal(bs.deltas, trace_on_grid(prob, bs.energies)[0])


# The tolerances are fixed module constants: no keyword lets a vacuous
# value in.

@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_stability_rejects_bad_edge_tol(tol):
    with pytest.raises(TypeError, match="edge_tol"):
        stability_set_1d(problem(1j, (1, 0, 0, 0)), -4.0, 4.0, num=21,
                         edge_tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_hill_refuses_vacuous_tolerances(tol):
    L = lattice(1j)
    for name in ("rtol", "atol"):
        with pytest.raises(TypeError, match=name):
            make_problem(L, (1, 0, 0, 0), **{name: tol})
    prob = problem(1j, (1, 0, 0, 0))
    with pytest.raises(TypeError, match="im_tol"):
        stability_set_1d(prob, -4.0, 4.0, num=21, im_tol=tol)
    q, _ = _roots(1j, (1, 0, 0, 0))
    with pytest.raises(TypeError, match="tol_im"):
        unitarity_grid(prob, q, [0.0], [0.0], tol_im=tol)


@pytest.mark.parametrize("num", [-1, 0, 1, 2.5])
def test_stability_rejects_a_grid_without_cells(num, monkeypatch):
    # one grid point would give a band [e_min, e_min] open at both ends;
    # 2.5 would be truncated
    def no_trace(*args, **kwargs):
        raise AssertionError("a trace was integrated")

    monkeypatch.setattr(hill, "trace_on_grid", no_trace)
    with pytest.raises(ValueError, match="num must be an integer >= 2"):
        stability_set_1d(problem(1j, (1, 0, 0, 0)), -8.0, 8.0, num=num)


def test_stability_rejects_nonreal_trace():
    prob = problem(0.31 + 1.12j, (1, 0, 0, 0))
    with pytest.raises(CheckError):
        stability_set_1d(prob, -4.0, 4.0, num=21)


# the tuples of the rectangular theorem: Lame, three with neither
# condition, and one each of the C1 and C2 conditions
CERT_TUPLES = [(1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0),
               (1, 1, 1, 1), (3, 1, 0, 0), (2, 2, 1, 1), (0, 2, 1, 0),
               (2, 0, 0, 1)]


@pytest.mark.parametrize("n", [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 1, 1)])
def test_rectangular_certificate_fails_with_the_loops_swapped(n, monkeypatch):
    # swapped, the far energy of loop 1 lands in a band of loop tau
    checked_batch = hill._checked_batch

    def swapped(prob, e_values, direction):
        other = {"1": "tau", "tau": "1"}[direction]
        return checked_batch(prob, e_values, other)

    monkeypatch.setattr(hill, "_checked_batch", swapped)
    with pytest.raises(CheckError, match="loop 1 at E"):
        rectangular_certificate(n, 1.5)


@pytest.mark.parametrize("b", [0, -1.0, math.nan, math.inf])
def test_rectangular_certificate_refuses_a_bad_b_first(b, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        raise AssertionError("integrated before the b check")

    monkeypatch.setattr(hill, "_checked_batch", counting)
    monkeypatch.setattr(hill, "spectral_report", counting)
    with pytest.raises(ValueError, match="b must be finite and > 0"):
        rectangular_certificate((1, 0, 0, 0), b)
    assert calls == []


@pytest.mark.parametrize("n", CERT_TUPLES)
def test_rectangular_certificate_far_traces_match_a_finer_product(n):
    b = 1.1
    res = rectangular_certificate(n, b)
    assert res["n"] == n and res["b"] == b
    assert res["lame"] == (n[1] == n[2] == n[3] == 0)
    prob = make_problem(lattice(1j * b), n)
    for loop, sign in (("1", 1.0), ("tau", -1.0)):
        rec = res[loop]
        m = hill._magnus_product(prob.potentials[loop],
                                 np.array([rec["E"]], dtype=complex), 1.0,
                                 4 * rec["magnus_steps"])[0]
        assert abs(m[0, 0] + m[1, 1] - rec["delta"]) <= rec["bound"]
        assert rec["sign"] == sign
        assert rec["margin_ratio"] > 1e6


def test_rectangular_certificate_sign_law_at_root_midpoints():
    # the law the certificate reads from two far traces: between
    # consecutive real roots loop 1 is in a band exactly where Q < 0 and
    # loop tau exactly where Q > 0 (where both traces are clear of +-2)
    checked = 0
    for n in CERT_TUPLES[:7]:
        for b in np.linspace(0.5, 2.5, 9):
            L = lattice(complex(0.0, b))
            rep = spectral_report(L, n)
            roots = np.asarray(rep.root_report.roots)
            real = np.sort(roots[np.abs(roots.imag) <= 1e-6 * (
                1.0 + np.max(np.abs(roots)))].real)
            mids = 0.5 * (real[1:] + real[:-1])
            prob = make_problem(L, n)
            d1 = trace_on_grid(prob, mids, "1")[0].real
            dt = trace_on_grid(prob, mids, "tau")[0].real
            q = np.polynomial.polynomial.polyval(mids, rep.coeffs).real
            clear = ((np.abs(np.abs(d1) - 2.0) > 1e-6)
                     & (np.abs(np.abs(dt) - 2.0) > 1e-6))
            assert np.all(((np.abs(d1) < 2.0) == (q < 0.0))[clear]), (n, b)
            assert np.all(((np.abs(dt) < 2.0) == (q > 0.0))[clear]), (n, b)
            checked += int(np.sum(clear))
    assert checked >= 150


def test_unitarity_probe_and_exclusion_at_real_energies():
    q, roots = _roots(1j, (1, 0, 0, 0))
    prob = problem(1j, (1, 0, 0, 0))
    re_values = [float(roots[1].real), 3.0]
    res = unitarity_grid(prob, q, re_values, [0.0])
    # at a branch point the grid flags at_root and is not unitary
    assert res["at_root"][0, 0] and not res["unitary"][0, 0]
    assert at_root(q, complex(roots[1]))
    # inside the direction-1 band but off the roots: never jointly unitary
    d1, d2 = res["delta1"][0, 1], res["delta2"][0, 1]
    assert not res["at_root"][0, 1]
    assert abs(d1.imag) < 1e-8 and abs(d1.real) < 2.0
    assert abs(d2.real) > 2.0
    assert not res["unitary"][0, 1]


def test_unitarity_grid_shapes_and_negative_result():
    q, _ = _roots(1j, (2, 0, 0, 0))
    prob = problem(1j, (2, 0, 0, 0))
    res = unitarity_grid(prob, q, np.linspace(-12, 12, 7),
                         np.linspace(-6, 6, 5))
    assert res["unitary"].shape == (5, 7)
    assert res["delta1"].shape == (5, 7)
    assert not np.any(res["unitary"])


def test_unitarity_grid_agrees_with_the_probe():
    # the grid agrees point by point with a probe that integrates each
    # loop on its own and applies the same verdict
    q, roots = _roots(1j, (1, 0, 0, 0))
    prob = problem(1j, (1, 0, 0, 0))
    re_values = [float(roots[1].real), 3.0]
    res = unitarity_grid(prob, q, re_values, [0.0])
    assert np.array_equal(res["at_root"], at_root(q, np.array([re_values])))
    for i, e in enumerate(re_values):
        r1, r2 = commutator_check(prob, e)["records"]
        assert abs(res["delta1"][0, i] - r1.delta) < 1e-9
        assert abs(res["delta2"][0, i] - r2.delta) < 1e-9
        assert res["at_root"][0, i] == at_root(q, complex(e))
        assert res["tol_im"] == hill.TOL_IM
        unit = (_trace_unitary(r1.delta) and _trace_unitary(r2.delta)
                and not res["at_root"][0, i])
        assert res["unitary"][0, i] == unit
    assert res["at_root"][0, 0] and not res["at_root"][0, 1]


@pytest.mark.parametrize("tau, n, re_offsets, im_offset", [
    (0.5 + 0.9j, (3, 0, 0, 0), [1e-13], 0.0),
    (1j, (2, 0, 0, 0), [1e-9, 1e-7, 1e-6], 0.0),
    (1j, (2, 0, 0, 0), [0.0], 1e-7),
    (1j, (1, 0, 0, 0), [1e-13, 1e-11, 1e-9, 1e-7], 0.0),
], ids=["n3", "n2_real", "n2_imag", "n1"])
def test_unitarity_grid_refuses_points_next_to_a_root(tau, n, re_offsets,
                                                      im_offset):
    # next to the root E = 0 both traces are +-2 + O(E) while |Q(E)| is
    # above the residual bound of at_root where Q is steep: such points
    # are branch points, not unitary energies
    q, roots = _roots(tau, n)
    r = roots[np.argmin(np.abs(roots))]
    res = unitarity_grid(problem(tau, n), q, r.real + np.array(re_offsets),
                         [r.imag + im_offset])
    assert np.all(res["at_root"]) and not np.any(res["unitary"])


def test_unitarity_grid_reports_the_step_counts():
    q, _ = _roots(1j, (2, 0, 0, 0))
    res = unitarity_grid(problem(1j, (2, 0, 0, 0)), q,
                         np.linspace(-12, 12, 7), np.linspace(-6, 6, 5))
    assert res["magnus_steps"] == {"1": 128, "tau": 128}
    assert set(res["magnus_error_ratio"]) == {"1", "tau"}
    assert all(0.0 < r <= 1.0 for r in res["magnus_error_ratio"].values())


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.5 + 0.9j, 1.7j])
def test_lame_one_traces_match_hermite(tau):
    # n = 1: y = sigma(z + a)/sigma(z) exp(-z zeta(a)) solves
    # y'' = (2 wp(z) + wp(a)) y and gains exp(a eta_k - w_k zeta(a)) over
    # the period w_k, so Delta_k = 2 cosh(a eta_k - w_k zeta(a)) at
    # E = wp(a), with no integration
    L = lattice(tau)
    prob = problem(tau, (1, 0, 0, 0))
    a = np.array([0.2 + 0.1 * tau, 0.3 + 0.25 * tau, 0.1 + 0.4 * tau,
                  0.45 + 0.3 * tau])
    za, e, _ = zeta_wp_wp_prime(a, L)
    for d, eta, w in (("1", L.eta1, 1.0), ("tau", L.eta2, tau)):
        want = 2.0 * np.cosh(a * eta - w * za)
        got = trace_on_grid(prob, e, d)[0]
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("tau, n, e", [
    (0.68928318 + 0.72449203j, (2, 0, 0, 0), -14.433837592 + 15.171123500j),
    (0.5 + 0.9j, (3, 0, 0, 0), -41.1194918 + 0j),
], ids=["n2", "n3"])
def test_unitarity_grid_keeps_unitary_energies(tau, n, e):
    # unitary energies off the roots, with (r, s) of Z^(n)(tau) = 0
    q, _ = _roots(tau, n)
    res = unitarity_grid(problem(tau, n), q, [e.real], [e.imag])
    assert res["unitary"][0, 0] and not res["at_root"][0, 0]


def test_floquet_pair_consistency():
    prob = problem(1j, (1, 0, 0, 0))
    e = 3.0  # inside the finite direction-1 band
    r1, r2 = monodromy(prob, e, "1"), monodromy(prob, e, "tau")
    w, v = np.linalg.eig(r1.matrix)
    # M2 is diagonal in the eigenframe of M1 (the loops commute); each
    # multiplier m of a loop solves m + 1/m = Delta
    d2mat = np.linalg.solve(v, r2.matrix @ v)
    assert abs(d2mat[0, 1]) + abs(d2mat[1, 0]) < 1e-6
    for m, delta in ((w[0], r1.delta), (d2mat[0, 0], r2.delta)):
        assert abs(m + 1.0 / m - delta) < 1e-9
    assert abs(r1.delta - 2 * cmath.cos(cmath.log(w[0]) / 1j)) < 1e-9
    # direction-1 multipliers on the unit circle inside the band
    assert np.all(np.abs(np.abs(w) - 1.0) < 1e-9)


def test_direction1_floquet_density_invariance():
    # inside a direction-1 band the |multiplier| is 1, so the frame density
    # G(s) = sum_j |u_j(s)|^2 is invariant under s -> s+1 even though the
    # joint (both-direction) invariance fails; re-integrate to verify
    prob = problem(1j, (1, 0, 0, 0))
    e = 3.0
    _, v = np.linalg.eig(monodromy(prob, e, "1").matrix)
    pot1 = prob.potentials["1"]
    worst = 0.0
    for s in (0.05, 0.4, 0.6, 0.9):
        y_s = _transfer_batch(pot1, [e], s, hill.RTOL, hill.ATOL)[0][0]
        y_s1 = _transfer_batch(pot1, [e], 1.0 + s, hill.RTOL, hill.ATOL)[0][0]
        u, u1 = y_s @ v, y_s1 @ v
        g = np.sum(np.abs(u[0, :]) ** 2)
        g1 = np.sum(np.abs(u1[0, :]) ** 2)
        worst = max(worst, abs(g1 - g) / max(g, g1))
    assert worst < 1e-7


@pytest.mark.parametrize("n, match", [
    ((1.5, 0, 0, 0), "must be integers"),
    ((-1, 0, 0, 0), "must be non-negative"),
    ((0, 0, 0, 0), "at least one multiplicity must be positive"),
], ids=["fraction", "negative", "zero"])
def test_multiplicities_are_checked(n, match):
    # a fractional entry is refused, not truncated, and a negative or
    # all-zero tuple before any potential is built
    with pytest.raises(ValueError, match=match):
        make_problem(lattice(1j), n)
    with pytest.raises(ValueError, match=match):
        rectangular_certificate(n, 1.0)


def test_problem_construction_guards():
    L = lattice(1j)
    with pytest.raises(PoleError):
        make_problem(L, (1, 0, 0, 0), z_base=0.003 + 0.002j)
    prob = make_problem(L, (1, 0, 0, 0))
    assert prob.z_base == 0.25 + 0.25j
    assert set(prob.potentials) == {"1", "tau"}


@pytest.mark.parametrize("bad", [complex(np.nan, 0.25), complex(0.25, np.inf),
                                 complex(-np.inf, np.nan)])
def test_non_finite_path_is_refused(bad):
    # min(inf, nan) is inf, so a NaN base point once passed the clearance
    # check and was refused only at the first trace
    L = lattice(1j)
    with pytest.raises(ValueError, match="finite"):
        make_problem(L, (1, 0, 0, 0), z_base=bad)
    with pytest.raises(ValueError, match="finite"):
        PathPotential(L, (1, 0, 0, 0), 0.25 + 0.25j, bad)


def test_path_potential_is_the_direct_wp_sum():
    L = lattice(1j)
    n = (2, 1, 1, 0)
    pot = problem(1j, n).potentials["1"]
    ts = np.linspace(0.0, 1.9, 77)  # past 1: loops are extended by s
    z = pot.z0 + ts * pot.omega
    direct = 0
    for k in range(4):
        if n[k]:
            direct = direct + n[k] * (n[k] + 1) * wp(z + L.half_periods[k], L)
    assert np.array_equal(pot(ts), direct)


def _trace(ms):
    return ms[:, 0, 0] + ms[:, 1, 1]


ENERGIES = np.array([-8.0, -1.0, 2.5, 7.0 + 2.0j])


def test_magnus_step_is_sixth_order():
    pot = problem(1j, (2, 0, 0, 0)).potentials["1"]
    ref = _trace(_transfer_batch(pot, ENERGIES, 1.0, 1e-13, 1e-15)[0])
    err = [np.abs(_trace(hill._magnus_product(pot, ENERGIES, 1.0, n))
                  - ref) for n in (64, 128)]
    assert np.all((48.0 <= err[0] / err[1]) & (err[0] / err[1] <= 80.0))


@pytest.mark.parametrize("tau, n, d", [(1j, (2, 0, 0, 0), "1"),
                                       (1.15j, (1, 1, 1, 1), "tau")])
def test_step_doubling_estimate_bounds_the_error(tau, n, d):
    # M_(N/2) - M_N is 63 times the error of M_N to leading order
    pot = problem(tau, n).potentials[d]
    ref = hill._magnus_product(pot, ENERGIES, 1.0, 4096)
    fine = hill._magnus_product(pot, ENERGIES, 1.0, 256)
    coarse = hill._magnus_product(pot, ENERGIES, 1.0, 128)
    est = np.max(np.abs(fine - coarse), axis=(1, 2)) / 63.0
    err = np.max(np.abs(fine - ref), axis=(1, 2))
    assert np.all(err <= 2.0 * est)
    assert np.all(est <= 2.0 * err)


def test_rtol_controls_the_error():
    # the reference takes 4096 steps, past the 256 and 512 that the two
    # tolerances stop at, so neither error is measured against itself
    pot = problem(1.15j, (1, 1, 1, 1)).potentials["tau"]
    ref = hill._magnus_product(pot, ENERGIES, 1.0, 4096)
    runs = [_transfer_batch(pot, ENERGIES, 1.0, rtol, 1e-15)
            for rtol in (1e-11, 1e-12)]
    assert [steps.tolist() for _, steps, _ in runs] == [[256] * 4, [512] * 4]
    err = [np.max(np.abs(ms - ref)) for ms, _, _ in runs]
    assert 0.0 < err[1] < err[0] / 4.0


def test_each_energy_stops_at_its_own_step_count():
    # E = -25 meets the tolerance at 128 steps and E = -1 needs 256; side
    # by side, each keeps its own count and its one-at-a-time matrix
    pot = problem(1.2j, (1, 1, 1, 1)).potentials["tau"]
    alone = [_transfer_batch(pot, [e], 1.0, hill.RTOL, hill.ATOL)
             for e in (-25.0, -1.0)]
    assert [steps.tolist() for _, steps, _ in alone] == [[128], [256]]
    ms, steps, ratio = _transfer_batch(pot, [-25.0, -1.0], 1.0, hill.RTOL,
                                       hill.ATOL)
    assert steps.tolist() == [128, 256]
    assert np.all((0.0 < ratio) & (ratio <= 1.0))
    for m, (m1, _, _) in zip(ms, alone):
        assert np.max(np.abs(m - m1[0])) <= 1e-13 * np.max(np.abs(m1[0]))


def _bands_window(tau, n, num):
    # the window of a `bands` request: smallest root - 8 to largest + 5
    _, roots = _roots(tau, n)
    return np.linspace(roots.real.min() - 8.0, roots.real.max() + 5.0, num)


@pytest.mark.parametrize("tau, n", [(1.1j, (2, 0, 0, 0)),
                                    (1.2j, (1, 1, 1, 1))])
@pytest.mark.parametrize("d", ["1", "tau"])
def test_every_energy_meets_the_tolerance(tau, n, d):
    # the energies that leave the batch early are as accurate as the rest:
    # each is within twice its bound of a 4096-step product
    pot = problem(tau, n).potentials[d]
    e = _bands_window(tau, n, 901)
    ms, steps, _ = _transfer_batch(pot, e, 1.0, hill.RTOL, hill.ATOL)
    ref = hill._magnus_product(pot, e, 1.0, 4096)
    err = np.max(np.abs(ms - ref), axis=(1, 2))
    bound = hill.ATOL + hill.RTOL * np.max(np.abs(ms), axis=(1, 2))
    assert np.all(err <= 2.0 * bound)
    assert np.all(steps <= 256)


def test_large_energies_refine_the_steps():
    # |mu^2| beyond the series bound at 1024 steps: the count doubles
    # instead of truncating the exponential
    pot = problem(1j, (1, 0, 0, 0)).potentials["1"]
    assert hill._magnus_product(pot, np.array([-1e5]), 1.0, 1024) is None
    m = _transfer_batch(pot, [-1e5], 1.0, 1e-10, 1e-12)[0][0]
    assert abs(np.linalg.det(m) - 1.0) < 1e-9
    assert abs(m[0, 0] + m[1, 1]) <= 2.0 + 1e-9


@pytest.mark.parametrize("e", [math.nan, math.inf, complex(0.0, math.nan)])
def test_nonfinite_energies_are_refused(e):
    with pytest.raises(ValueError, match="finite"):
        trace_on_grid(problem(1j, (1, 0, 0, 0)), [0.5, e])


@pytest.mark.parametrize("call", [
    lambda prob, q: trace_on_grid(prob, []),
    lambda prob, q: monodromy(prob, []),
    lambda prob, q: unitarity_grid(prob, q, [], [0.0, 1.0]),
    lambda prob, q: unitarity_grid(prob, q, [0.0, 1.0], []),
], ids=["trace_on_grid", "monodromy", "unitarity_re", "unitarity_im"])
def test_empty_energies_are_refused(call):
    q, _ = _roots(1j, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="energies must not be empty"):
        call(problem(1j, (1, 0, 0, 0)), q)


@pytest.mark.parametrize("call", [
    lambda prob: monodromy(prob, 0.5, "2"),
    lambda prob: trace_on_grid(prob, [0.5], "Tau"),
    lambda prob: stability_set_1d(prob, -1.0, 1.0, num=5, direction="2"),
], ids=["monodromy", "trace_on_grid", "stability_set_1d"])
def test_unknown_direction_is_refused(call):
    with pytest.raises(ValueError, match='"1" or "tau"'):
        call(problem(1j, (1, 0, 0, 0)))


def test_nan_transfer_matrix_fails_the_determinant_check(monkeypatch):
    monkeypatch.setattr(hill, "_transfer_batch",
                        lambda *a: (np.full((1, 2, 2), np.nan + 0j),
                                    np.array([128]), np.zeros(1)))
    with pytest.raises(CheckError, match="determinant"):
        monodromy(problem(1j, (1, 0, 0, 0)), 0.5)


@pytest.mark.parametrize("e_min, e_max", [(10.0, -10.0), (1.0, 1.0),
                                          (math.nan, 1.0), (-1.0, math.inf)])
def test_stability_rejects_empty_or_reversed_window(e_min, e_max):
    with pytest.raises(ValueError, match="e_min < e_max"):
        stability_set_1d(problem(1j, (1, 0, 0, 0)), e_min, e_max, num=21)
