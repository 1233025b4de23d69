import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvspec import spectral
from tvspec.elliptic import zeta_wp_wp_prime
from tvspec.errors import CheckError, NonConvergenceError, NotConstructibleError
from tvspec.poly import coefficient_distance, match_roots
from tvspec.spectral import (
    condition_class,
    genus_of,
    modular_covariance_check,
    q_via_factorization,
    q_via_phi_ansatz,
    roots_and_classify,
    spectral_report,
    tau_scan,
)

from conftest import lattice

EVEN_TUPLES = [
    (1, 0, 0, 1), (1, 1, 0, 0), (2, 0, 0, 0), (1, 1, 1, 1),
    (2, 1, 1, 0), (2, 2, 1, 1), (3, 1, 0, 0), (2, 2, 2, 0),
]


def test_genus_table():
    known = {
        (1, 0, 0, 0): 1, (2, 0, 0, 0): 2, (3, 0, 0, 0): 3,
        (1, 1, 0, 0): 1, (1, 0, 0, 1): 1, (1, 1, 1, 1): 1,
        (2, 1, 1, 0): 2, (2, 2, 1, 1): 2, (3, 1, 0, 0): 3,
        (2, 2, 2, 0): 3, (2, 0, 0, 2): 2, (1, 1, 0, 1): 2,
    }
    for n, g in known.items():
        assert genus_of(n) == g, n


def test_genus_is_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = tuple(int(v) for v in rng.integers(0, 4, size=4))
        if max(n) == 0:
            continue
        g = genus_of(n)
        p = rng.permutation(4)
        assert genus_of(tuple(n[i] for i in p)) == g


def test_condition_class_table():
    c1 = [(0, 1, 1, 0), (1, 2, 2, 1), (0, 2, 1, 0)]
    c2 = [(1, 0, 0, 1), (2, 1, 1, 2), (2, 0, 0, 2)]
    neither = [(1, 0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0), (2, 2, 1, 1)]
    for n in c1:
        assert condition_class(n) == "C1", n
    for n in c2:
        assert condition_class(n) == "C2", n
    for n in neither:
        assert condition_class(n) == "NEITHER", n


def test_multiplicity_tuple_validation():
    L = lattice(1j)
    for n, message in (
        ((0, 0, 0, 0), "at least one multiplicity must be positive"),
        ((-1, 1, 0, 0), "multiplicities must be non-negative"),
        ((1, 0, 0), "need exactly four multiplicities"),
        ((1.5, 0, 0, 0), "multiplicities must be integers"),
    ):
        with pytest.raises(ValueError, match=message):
            q_via_phi_ansatz(L, n)


def test_classical_cubic():
    # single unit source at the origin: the three roots are exactly the es
    for tau in (1j, 1.3j):
        L = lattice(tau)
        q = q_via_phi_ansatz(L, (1, 0, 0, 0))
        _, dist = match_roots(np.asarray(roots_and_classify(q).roots),
                              np.asarray(L.es))
        assert dist < 1e-10


def test_closed_form_conjugate_pair_tuple():
    # (1,0,0,1): one real root and a conjugate pair with closed forms on
    # the halved-modulus lattice
    for b in (1.1, 1.5, 2.0):
        tau = 1j * b
        L = lattice(tau)
        q = q_via_phi_ansatz(L, (1, 0, 0, 1))
        roots = np.asarray(roots_and_classify(q).roots)
        Lh = lattice((1 + tau) / 2.0)
        e3 = L.es[2]
        expected = np.array([
            Lh.e1 - 2 * e3,
            Lh.e2 - 2 * e3,
            np.conj(Lh.e2 - 2 * e3),
        ])
        _, dist = match_roots(roots, expected)
        assert dist < 1e-9


@pytest.mark.parametrize("n", EVEN_TUPLES)
def test_route_agreement(n):
    for tau in (1j, 1.3j):
        L = lattice(tau)
        qa = q_via_phi_ansatz(L, n)
        qf = q_via_factorization(L, n)
        assert qa.dtype == complex and len(qa) - 1 == 2 * genus_of(n) + 1
        assert coefficient_distance(qa, qf) < 1e-8


def test_reachable_odd_tuple_routes_agree():
    L = lattice(1j)
    qa = q_via_phi_ansatz(L, (1, 1, 0, 1))
    qf, det = q_via_factorization(L, (1, 1, 0, 1), details=True)
    assert det["tuple"] == (2, 0, 0, 0)
    assert coefficient_distance(qa, qf) < 1e-10


def test_unreachable_odd_tuple_refused():
    L = lattice(1j)
    with pytest.raises(NotConstructibleError):
        q_via_factorization(L, (3, 0, 0, 0))
    # the principal-part route still works and the report downgrades
    rep = spectral_report(L, (3, 0, 0, 0), route="both")
    assert rep.route == "phi"
    assert rep.factor_degrees is None
    assert len(rep.coeffs) - 1 == 7


KLEIN_PERMS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _partner_by_search(n):
    """Breadth-first search for an even-total tuple under the Klein
    relabelings and the index transform, or None."""
    seen, frontier = {n}, [n]
    while frontier:
        nxt = []
        for t in frontier:
            for perm in KLEIN_PERMS:
                lt = spectral._l_transform_fixed(tuple(t[i] for i in perm))
                if max(lt) < 1 or lt in seen:
                    continue
                if sum(lt) % 2 == 0:
                    return lt
                seen.add(lt)
                nxt.append(lt)
        frontier = nxt
    return None


def test_one_transform_finds_the_searched_partner(monkeypatch):
    # the product itself is left out: the route agreement tests cover it
    monkeypatch.setattr(spectral, "_factor_product",
                        lambda L, n: (None, [n]))
    L = lattice(1j)
    found = 0
    for n in itertools.product(range(9), repeat=4):
        if sum(n) % 2 == 0:
            continue
        want = _partner_by_search(n)
        if want is None:
            with pytest.raises(NotConstructibleError):
                q_via_factorization(L, n)
        else:
            _, det = q_via_factorization(L, n, details=True)
            assert det["tuple"] == want, n
            found += 1
    assert found == 1640


def test_klein_relabeling_invariance():
    # permuting the multiplicities by the half-period translations leaves
    # the spectral polynomial unchanged
    perms = ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    L = lattice(1.3j)
    for n in [(2, 1, 1, 0), (1, 0, 0, 1), (2, 2, 1, 1)]:
        q0 = q_via_phi_ansatz(L, n)
        for p in perms:
            qp = q_via_phi_ansatz(L, tuple(n[i] for i in p))
            assert coefficient_distance(q0, qp) < 1e-9, (n, p)


@settings(max_examples=12, deadline=None)
@given(
    b=st.floats(0.6, 2.2),
    idx=st.integers(0, len(EVEN_TUPLES) - 1),
)
def test_real_coefficients_on_imaginary_axis(b, idx):
    L = lattice(complex(0.0, round(b, 3)))
    c = q_via_phi_ansatz(L, EVEN_TUPLES[idx])
    assert np.max(np.abs(c.imag)) <= 1e-9 * max(1.0, np.max(np.abs(c)))


def test_roots_and_classify_precedence():
    real = np.array([-6.0, 11.0, -6.0, 1.0])          # (x-1)(x-2)(x-3)
    complex_pair = np.array([-1.0, 1.0, -1.0, 1.0])   # (x-1)(x^2+1)
    double = np.array([-2.0, 5.0, -4.0, 1.0])         # (x-1)^2 (x-2)
    assert roots_and_classify(real).classification == "real_distinct"
    assert roots_and_classify(complex_pair).classification == "has_complex"
    assert roots_and_classify(double).classification == "has_multiple"
    rr = roots_and_classify(real)
    assert rr.min_gap == pytest.approx(1.0, abs=1e-8)
    assert rr.max_imag < 1e-12


def test_spectral_report_cross_checks():
    L = lattice(1j)
    rep = spectral_report(L, (2, 0, 0, 0))
    assert rep.route == "both"
    assert rep.route_discrepancy < 1e-10
    assert rep.genus == 2
    assert sum(d for d in rep.factor_degrees) == 5
    assert rep.root_report.classification == "real_distinct"
    assert rep.tolerances["route_tol"] == 1e-8
    assert rep.tolerances["factor_gap_tol"] == 1e-10
    with pytest.raises(ValueError):
        spectral_report(L, (2, 0, 0, 0), route="nope")


def test_route_disagreement_raises():
    L = lattice(1j)
    with pytest.raises(CheckError):
        spectral_report(L, (2, 0, 0, 0), route_tol=1e-18)


def test_factor_union_resolves_thin_gaps():
    # at elongated aspect ratios two bands of (2,2,1,1) nearly touch; the
    # roots of the expanded quintic blur into a cluster while the factor
    # family still separates them cleanly
    L = lattice(2j)
    q = q_via_phi_ansatz(L, (2, 2, 1, 1))
    assert roots_and_classify(q).classification != "real_distinct"
    rep = spectral_report(L, (2, 2, 1, 1))
    assert rep.diagnostics["root_source"] == "factor_union"
    assert rep.root_report.classification == "real_distinct"
    assert 0 < rep.root_report.min_gap < 1e-5
    assert rep.root_report.max_imag < 1e-10
    # tuples without a product form keep the coefficient-route roots
    rep2 = spectral_report(L, (3, 0, 0, 0))
    assert rep2.diagnostics["root_source"] == "coefficients"


def test_modular_covariance():
    for n in [(2, 0, 0, 0), (1, 1, 0, 0)]:
        for tau in (1.5j, 0.7j):
            res = modular_covariance_check(n, tau)
            assert res["passed"], (n, tau, res["max_match_distance"])


@pytest.mark.parametrize("n, tau", [((0, 0, 1, 4), 0.635897j),
                                    ((0, 0, 4, 1), 0.743590j)])
def test_modular_covariance_near_double_roots(n, tau):
    # near-double root pairs (215.6254/215.6263 and 161.408/161.419) on
    # coefficients up to 2.7e18; the S-dual roots agree to ~1e-11
    res = modular_covariance_check(n, tau)
    assert len(res["roots_tau"]) == 9
    scale = 1.0 + max(abs(tau * tau * r) for r in res["roots_tau"])
    assert res["max_match_distance"] <= 1e-9 * scale, (n, tau, res)


def test_tau_scan_collects_failures_and_orders_points():
    res = tau_scan((1, 0, 0, 1), [0.8, 1.0, 1.2])
    assert res.expected == "has_complex"
    assert res.passed and res.failures == 0
    assert [p.b for p in res.points] == [0.8, 1.0, 1.2]
    assert all(len(p.roots) == 3 for p in res.points)


def test_tau_scan_lets_programming_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug, not a data point")

    monkeypatch.setattr(spectral, "spectral_report", broken)
    with pytest.raises(TypeError):
        tau_scan((1, 0, 0, 1), [0.8, 1.0])


def test_tau_scan_records_numerical_failures(monkeypatch):
    real = spectral.spectral_report

    def flaky(L, n, **kwargs):
        if abs(L.tau - 1j) < 1e-12:
            raise NonConvergenceError("budget exhausted")
        return real(L, n, **kwargs)

    monkeypatch.setattr(spectral, "spectral_report", flaky)
    res = tau_scan((1, 0, 0, 1), [0.8, 1.0, 1.2])
    assert [p.b for p in res.points] == [0.8, 1.0, 1.2]
    assert res.failures == 1 and not res.passed
    bad = res.points[1]
    assert bad.classification is None and not bad.ok
    assert bad.error == "NonConvergenceError: budget exhausted"
    assert res.points[0].ok and res.points[2].ok


@pytest.mark.parametrize("n", [(1, 0, 0, 0), (2, 1, 1, 0), (3, 0, 0, 0),
                               (1, 1, 1, 1), (0, 0, 1, 4)])
def test_phi_ansatz_evaluates_each_point_once(n, monkeypatch):
    # one evaluator call on the shifted points of both z0 and z1; the
    # held-out energy reuses the values at z0
    L = lattice(1.1j)
    calls = []
    real = spectral.zeta_wp_wp_prime

    def counting(z, L):
        calls.append(np.size(z))
        return real(z, L)

    monkeypatch.setattr(spectral, "zeta_wp_wp_prime", counting)
    q_via_phi_ansatz(L, n)
    active = sum(1 for nk in n if nk)
    assert calls == [2 * active]


def test_local_values_match_per_point_evaluation():
    # reference: one scalar evaluator call per point and active half
    # period, as the basis values were built before they shared one call
    L = lattice(0.3 + 1.1j)
    n = (2, 1, 0, 3)
    zs = (0.13 + 0.29j, -0.37 + 0.52j)
    for z, (vals, d1, d2, v) in zip(zs, spectral._local_values(L, n, zs)):
        ref = [(1.0, 0.0, 0.0)]
        v_ref = 0.0
        for k in range(4):
            _, p, pp = zeta_wp_wp_prime(z + L.half_periods[k], L)
            v_ref += n[k] * (n[k] + 1) * p
            for w in range(n[k], 0, -1):
                ref.append((p ** w, w * p ** (w - 1) * pp,
                            w * p ** (w - 1) * (6 * p * p - L.g2 / 2)
                            + w * (w - 1) * p ** max(w - 2, 0) * pp * pp))
        for got, want in zip((vals, d1, d2), np.array(ref).T):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        assert v == pytest.approx(v_ref, rel=1e-14)


@pytest.mark.parametrize("n", [(1, 0, 0, 0), (2, 1, 1, 0), (4, 0, 0, 3),
                               (1, 2, 3, 4), (4, 4, 4, 4)])
def test_pencil_rows_match_contour_integrals(n):
    # independent route: the Laurent coefficients of G0 = F''' - 4VF' - 2V'F
    # and G1 = -4F' by the trapezoid rule on a circle of radius 0.2
    # (128 nodes) around each singular w_i/2, from evaluator values of wp
    # and wp' with wp'' = 6 wp^2 - g2/2 and wp''' = 12 wp wp'.  The pencil
    # keeps the orders -1 ... -(2n_i+1); the contour coefficients show that
    # the lowest pole order, -(2n_i+3), carries nothing in G0 or G1.
    u = 0.2 * np.exp(2j * np.pi * np.arange(128) / 128)
    for tau in (1j, 0.3 + 1.1j, -0.4 + 0.9j):
        L = lattice(tau)
        A0, A1 = spectral._pencil(L, n)
        assert A0.shape == A1.shape == (sum(nk + 1 for nk in n if nk), 1 + sum(n))
        # the "constant ansatz term leaked" guard relies on this
        assert np.all(A1[:, 0] == 0)
        rows0, rows1, low0, low1 = [], [], [], []
        for i in range(4):
            if n[i] == 0:
                continue
            z = L.half_periods[i] + u
            # pencil columns F: c0 first, then wp_k^(n_k - j)
            f, f1, f3 = [np.ones_like(u)], [np.zeros_like(u)], [np.zeros_like(u)]
            v = v1 = 0.0
            for k in range(4):
                if n[k] == 0:
                    continue
                _, p, p1 = zeta_wp_wp_prime(z + L.half_periods[k], L)
                p2, p3 = 6 * p * p - L.g2 / 2, 12 * p * p1
                v, v1 = v + n[k] * (n[k] + 1) * p, v1 + n[k] * (n[k] + 1) * p1
                for w in range(n[k], 0, -1):
                    f.append(p ** w)
                    f1.append(w * p ** (w - 1) * p1)
                    f3.append(w * (w - 1) * (w - 2) * p ** max(w - 3, 0) * p1 ** 3
                              + 3 * w * (w - 1) * p ** max(w - 2, 0) * p1 * p2
                              + w * p ** (w - 1) * p3)
            f, f1, f3 = np.array(f), np.array(f1), np.array(f3)
            g0, g1 = f3 - 4 * v * f1 - 2 * v1 * f, -4 * f1
            for r in range(-1, -2 * n[i] - 2, -2):
                weights = u ** (-r) / len(u)
                rows0.append(g0 @ weights)
                rows1.append(g1 @ weights)
            weights = u ** (2 * n[i] + 3) / len(u)
            low0.append(g0 @ weights)
            low1.append(g1 @ weights)
        for got, want, low in ((A0, np.array(rows0), np.array(low0)),
                               (A1, np.array(rows1), np.array(low1))):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
            assert np.max(np.abs(low)) <= 1e-9 * np.max(np.abs(want))


def _block_lstsq_reference(L, n):
    """Q at z0 and the singular value ratio from the block solve as one
    lstsq call plus up to 4 clongdouble refinement steps, each its own
    lstsq call; None where its guards refuse."""
    g = genus_of(n)
    anchor = -L.half_periods[max(range(4), key=lambda k: n[k])]
    local0, _ = spectral._local_values(L, n, (anchor + 0.27 + 0.31 * L.tau,
                                              anchor + 0.41 + 0.23 * L.tau))
    A0, A1 = spectral._pencil(L, n)
    s = 1.0 + sum(nk * (nk + 1) for nk in n) * max(abs(e) for e in L.es)
    m_rows, nunk = A0.shape
    big = np.zeros(((g + 1) * m_rows, g * nunk), dtype=complex)
    for d in range(g):
        big[d * m_rows : (d + 1) * m_rows, d * nunk : (d + 1) * nunk] = A0
        big[(d + 1) * m_rows : (d + 2) * m_rows, d * nunk : (d + 1) * nunk] = s * A1
    rhs = np.zeros((g + 1) * m_rows, dtype=complex)
    rhs[g * m_rows :] = -A0[:, 0]
    col_norm = np.linalg.norm(big, axis=0)
    col_norm[col_norm == 0.0] = 1.0
    beq = big / col_norm
    sol_eq, _, _, sv = np.linalg.lstsq(beq, rhs, rcond=None)
    if sv[-1] < 1e-8 * sv[0]:
        return None
    sol = sol_eq / col_norm
    for _ in range(4):
        r = np.asarray(rhs.astype(np.clongdouble)
                       - big.astype(np.clongdouble) @ sol.astype(np.clongdouble),
                       dtype=complex)
        dx = np.linalg.lstsq(beq, r, rcond=None)[0] / col_norm
        sol = sol + dx
        if np.linalg.norm(dx) <= 1e-15 * np.linalg.norm(sol):
            break
    if np.linalg.norm(big @ sol - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        return None
    e_c0 = np.eye(nunk)[0]
    vhat = np.vstack([sol.reshape(g, nunk), e_c0])
    return spectral._assemble_q_at(local0, vhat, s), sv[-1] / sv[0]


FOURS = [n for n in itertools.product(range(5), repeat=4)
         if 4 in n and sum(n) <= 6]


@pytest.mark.parametrize("tau, tuples", [(0.7j, FOURS), (1.3j, FOURS),
                                         (0.3 + 1.1j, FOURS),
                                         (1.1j, [(4, 4, 4, 4)])])
def test_phi_solve_matches_block_lstsq(tau, tuples):
    # the one-SVD solve against the per-step lstsq it replaced
    L = lattice(tau)
    answered = 0
    for n in tuples:
        ref = _block_lstsq_reference(L, n)
        if ref is None:
            continue
        q, det = q_via_phi_ansatz(L, n, details=True)
        assert coefficient_distance(q, ref[0]) <= 1e-12, n
        assert det["sv_ratio"] == pytest.approx(ref[1], rel=1e-9), n
        assert 1 <= det["refine_steps"] <= 4
        answered += 1
    assert answered == len(tuples)


def test_held_out_check_catches_an_equal_error_at_both_points(monkeypatch):
    # the same error in both assemblies passes the z0/z1 comparison; only
    # the held-out energy, evaluated without assembling Q, can see it
    real = spectral._assemble_q_at

    def perturbed(*args, **kwargs):
        q = real(*args, **kwargs)
        return q * (1.0 + 1e-6)

    monkeypatch.setattr(spectral, "_assemble_q_at", perturbed)
    with pytest.raises(CheckError, match="held-out"):
        q_via_phi_ansatz(lattice(1j), (2, 1, 1, 0))


VACUOUS = [0.0, -1e-6, np.nan, np.inf]


@pytest.mark.parametrize("tol", VACUOUS)
def test_spectral_report_refuses_vacuous_tolerances(tol):
    L = lattice(1j)
    for name in ("tol_im", "tol_gap", "route_tol"):
        with pytest.raises(ValueError, match=name):
            spectral_report(L, (0, 1, 1, 0), **{name: tol})


@pytest.mark.parametrize("tol", VACUOUS)
def test_roots_and_classify_refuses_vacuous_tolerances(tol):
    q = np.array([-6.0, 11.0, -6.0, 1.0])
    for name in ("tol_im", "tol_gap"):
        with pytest.raises(ValueError, match=name):
            roots_and_classify(q, **{name: tol})


@pytest.mark.parametrize("tol", VACUOUS)
def test_tau_scan_refuses_vacuous_tolerances_before_scanning(tol, monkeypatch):
    def no_lattice(tau):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(spectral, "make_lattice", no_lattice)
    for name in ("tol_im", "tol_gap"):
        with pytest.raises(ValueError, match=name):
            tau_scan((1, 0, 0, 1), [0.8, 1.0], **{name: tol})


def test_tau_scan_refuses_an_empty_b_list(monkeypatch):
    # a scan of no points would report passed=True
    def no_lattice(tau):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(spectral, "make_lattice", no_lattice)
    for b_values in ([], np.linspace(0.5, 2.0, 0)):
        with pytest.raises(ValueError, match="b_values must not be empty"):
            tau_scan((1, 0, 0, 1), b_values)


@pytest.mark.parametrize("b_values", [[np.nan, np.inf, 1.0], [1.0, 0.0],
                                      [0.8, -1.0], [1.0, np.inf]])
def test_tau_scan_refuses_bad_b_before_scanning(b_values, monkeypatch):
    def no_lattice(tau):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(spectral, "make_lattice", no_lattice)
    with pytest.raises(ValueError, match="b must be finite and > 0"):
        tau_scan((2, 0, 0, 0), b_values)
