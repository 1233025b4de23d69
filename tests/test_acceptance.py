"""End-to-end acceptance checks, one verdict line per item.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; each
test prints exactly one PASS/FAIL summary before asserting.
"""

import itertools

import numpy as np

from tvspec.elliptic import (
    make_lattice,
    wp,
    wp_half_shift,
    zeta_wp_wp_prime,
)
from tvspec.heun import TildeAlpha, heun_from_tuple, interlacing_check
from tvspec.hill import (
    commutator_check,
    dual_torus_exclusion,
    make_problem,
    monodromy,
    stability_set_1d,
    unitarity_grid,
)
from tvspec.poly import coefficient_distance, match_roots
from tvspec.premodular import (
    boundary_nonvanishing_scan,
    modular_identity,
    zero_find,
    zero_find_multi,
)
from tvspec.spectral import (
    modular_covariance_check,
    q_via_factorization,
    q_via_phi_ansatz,
    roots_and_classify,
    tau_scan,
)

from conftest import lattice, problem


def _report(idx, label, ok, detail):
    print(f"[{idx:2d}] {'PASS' if ok else 'FAIL'}  {label}  ({detail})")
    assert ok, f"{label}: {detail}"


def _sorted_real_roots(tau, n):
    q = q_via_phi_ansatz(lattice(tau), n)
    return q, np.sort(np.asarray(roots_and_classify(q).roots).real)


def test_01_closed_form_conjugate_pair_roots():
    worst = 0.0
    for tau in (1.1j, 1.5j, 2j):
        L = lattice(tau)
        Lh = make_lattice((1.0 + tau) / 2.0)
        inner = Lh.e2 - 2.0 * L.e3
        expected = np.array([Lh.e1 - 2.0 * L.e3, inner, np.conj(inner)])
        q = q_via_phi_ansatz(L, (1, 0, 0, 1))
        found = np.asarray(roots_and_classify(q).roots)
        _, dist = match_roots(found, expected)
        worst = max(worst, dist)
    _report(1, "closed-form roots of the conjugate-pair tuple",
            worst < 1e-8, f"max root error {worst:.2e} < 1e-8")


def test_02_single_pole_eigenfunctions_and_bands():
    L = lattice(1j)
    q = q_via_phi_ansatz(L, (1, 0, 0, 0))
    found = np.asarray(roots_and_classify(q).roots)
    _, root_err = match_roots(found, np.array(L.es))

    rng = np.random.default_rng(2)
    worst_res = 0.0
    for e_i in L.es:
        pts = 0
        while pts < 10:
            z = complex(rng.uniform(0.08, 0.38),
                        0.0) + 1j * rng.uniform(0.08, 0.38)
            f = wp(z, L) - e_i
            if abs(f) < 0.3:
                continue
            pts += 1
            y = np.sqrt(f)
            _, _, fp = zeta_wp_wp_prime(z, L)
            fpp = 6.0 * wp(z, L) ** 2 - L.g2 / 2.0
            ypp = fpp / (2.0 * y) - fp * fp / (4.0 * y ** 3)
            worst_res = max(worst_res,
                            abs(ypp - (2.0 * wp(z, L) + e_i) * y))

    prob = problem(1j, (1, 0, 0, 0))
    bs = stability_set_1d(prob, L.e2.real - 6.0, L.e1.real + 3.0, num=901)
    edge_err = np.inf
    if len(bs.bands) == 2:
        first, second = bs.bands
        if first.open_left and not first.open_right \
                and not second.open_left and not second.open_right:
            edge_err = max(abs(first.hi - L.e2.real),
                           abs(second.lo - L.e3.real),
                           abs(second.hi - L.e1.real))
    ok = root_err < 1e-8 and worst_res < 1e-8 and edge_err < 1e-6
    _report(2, "single-pole roots, eigenfunctions, band structure", ok,
            f"root err {root_err:.2e}, ODE residual {worst_res:.2e}, "
            f"edge err {edge_err:.2e}")


def test_03_route_agreement_even_totals():
    tuples = [n for n in itertools.product(range(7), repeat=4)
              if sum(n) in (2, 4, 6) and max(n) >= 1]
    worst = 0.0
    min_gap = np.inf
    for tau in (1j, 1.3j):
        L = lattice(tau)
        for n in tuples:
            qp = q_via_phi_ansatz(L, n)
            qf, det = q_via_factorization(L, n, details=True)
            worst = max(worst, coefficient_distance(qp, qf))
            rsets = [f.roots() for f in det["factors"] if f.degree > 0]
            for a, b in itertools.combinations(rsets, 2):
                min_gap = min(min_gap,
                              float(np.min(np.abs(a[:, None] - b[None, :]))))
    ok = worst < 1e-8 and min_gap > 1e-6
    _report(3, f"route agreement over {len(tuples)} even tuples x 2 lattices",
            ok, f"worst coeff dist {worst:.2e}, min factor gap {min_gap:.2e}")


REAL_DISTINCT_TUPLES = (
    (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0),
    (1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 1, 0),
)


def test_04_all_roots_real_distinct_along_imaginary_axis():
    b_values = np.linspace(0.5, 2.0, 31)
    bad = []
    for n in REAL_DISTINCT_TUPLES:
        res = tau_scan(n, b_values)
        for pt in res.points:
            if pt.classification != "real_distinct":
                bad.append((n, pt.b, pt.classification))
    _report(4, "real distinct roots for 6 tuples x 31 aspect ratios",
            not bad, f"{6 * 31} points, {len(bad)} off-pattern")


def test_05_conjugate_pair_tuple_never_real():
    res = tau_scan((1, 0, 0, 1), np.linspace(0.5, 2.0, 31))
    bad = [pt.b for pt in res.points if pt.classification != "has_complex"]
    _report(5, "complex pair persists for the C2 tuple over 31 ratios",
            not bad, f"31 points, {len(bad)} without a complex pair")


def test_06_modular_covariance_of_root_sets():
    worst = 0.0
    ok = True
    for n in ((2, 0, 0, 0), (1, 1, 0, 0)):
        for tau in (1.5j, 0.7j):
            res = modular_covariance_check(n, tau, match_tol=1e-6)
            ok = ok and res["passed"]
            worst = max(worst, res["max_match_distance"])
    _report(6, "root sets transform covariantly under lattice inversion",
            ok, f"max match distance {worst:.2e}")


def test_07_monodromy_consistency_at_and_off_roots():
    worst_det = 0.0
    worst_tr = 0.0
    worst_comm = 0.0
    for n in REAL_DISTINCT_TUPLES:
        q, roots = _sorted_real_roots(1.1j, n)
        prob = problem(1.1j, n)
        for e in roots:
            for d in ("1", "tau"):
                rec = monodromy(prob, complex(e), d)
                worst_det = max(worst_det, rec.det_error)
                worst_tr = max(worst_tr, abs(abs(rec.delta) - 2.0))
        gaps = np.diff(roots)
        mid = roots[int(np.argmax(gaps))] + float(np.max(gaps)) / 2.0
        for e_off in (complex(mid), complex(roots[-1] + 1.1, 1.7)):
            if np.min(np.abs(np.asarray(roots) - e_off)) < 1e-3:
                continue
            chk = commutator_check(prob, e_off)
            worst_comm = max(worst_comm, chk["relative"])
            for rec in chk["records"]:
                worst_det = max(worst_det, rec.det_error)
    ok = worst_det < 1e-9 and worst_tr < 1e-5 and worst_comm < 1e-6
    _report(7, "monodromy determinant, commutator, trace at branch points",
            ok, f"det err {worst_det:.2e}, |trace|-2 {worst_tr:.2e}, "
            f"commutator {worst_comm:.2e}")


def test_08_band_edges_equal_polynomial_roots():
    q, roots = _sorted_real_roots(1j, (2, 0, 0, 0))
    prob = problem(1j, (2, 0, 0, 0))
    bs = stability_set_1d(prob, roots[0] - 8.0, roots[-1] + 5.0, num=901)
    edges = []
    semi = 0
    for b in bs.bands:
        if b.open_left or b.open_right:
            semi += 1
        if not b.open_left:
            edges.append(b.lo)
        if not b.open_right:
            edges.append(b.hi)
    edge_err = (np.max(np.abs(np.sort(edges) - roots))
                if len(edges) == len(roots) else np.inf)
    ok = semi == 1 and edge_err < 1e-5
    _report(8, "refined band edges reproduce the 5 sorted roots", ok,
            f"{len(edges)} edges, {semi} semi-infinite band, "
            f"max edge error {edge_err:.2e}")


def test_09_dual_torus_exclusion_and_no_unitary_energy():
    ok = True
    details = []
    for n in ((1, 0, 0, 0), (1, 1, 1, 1), (2, 0, 0, 0)):
        for tau in (1.5j, 0.8j):
            q, roots = _sorted_real_roots(tau, n)
            res = dual_torus_exclusion(n, tau, roots[0] - 6.0,
                                       roots[-1] + 4.0, num=701, qpoly=q)
            ok = ok and res["passed"]
            details.append(f"{n}@{tau}:{len(res['pieces'])}pc")
    L = lattice(1j)
    q = q_via_phi_ansatz(L, (2, 0, 0, 0))
    prob = problem(1j, (2, 0, 0, 0))
    grid = unitarity_grid(prob, q, np.linspace(-12.0, 12.0, 41),
                          np.linspace(-6.0, 6.0, 41))
    n_unitary = int(np.sum(grid["unitary"]))
    ok = ok and n_unitary == 0
    _report(9, "joint-band intersections confined to branch points", ok,
            f"{'; '.join(details)}; unitary points on 41x41 grid: "
            f"{n_unitary}")


def test_10_heun_ladder_interlacing_with_sign_flip():
    ta = TildeAlpha.from_branches((2, 2, 1, 1), (0, 0, 0, 0))
    h = heun_from_tuple(lattice(1j), ta)
    rep = interlacing_check(h, ta.N)
    counts_ok = (len(rep.roots) == ta.N + 1
                 and all(len(rep.roots[m]) == m + 1
                         for m in range(ta.N + 1)))
    ok = (rep.regime == "flip" and rep.flip_index == 1
          and rep.all_real_simple and rep.interlaced and counts_ok
          and rep.leading_pattern_ok and rep.product_signs_ok)
    _report(10, "recursion ladder has real simple interlacing roots", ok,
            f"regime {rep.regime}, flip at {rep.flip_index}, "
            f"min gap {rep.min_gap:.2e}")


def test_11_boundary_nonvanishing_floor():
    floors = {}
    ok = True
    for n in (1, 2):
        res = boundary_nonvanishing_scan(n)
        floors[n] = res["min_abs"]
        ok = ok and res["passed"] and res["points"] == 400 * 60
    _report(11, "no boundary zeros across 24000-point scans", ok,
            f"floors: n=1 {floors[1]:.3e}, n=2 {floors[2]:.3e}, "
            "all > 1e-8")


def test_12_interior_zero_exists_iff_expected():
    hit = zero_find(2, 0.15, 0.15, 0.7 + 0.7j)
    res = zero_find_multi(2, 0.3, 0.3)
    ok = (hit["residual"] < 1e-10 and hit["inside_F0"]
          and hit["location"] == "interior"
          and not res["any_interior_zero"])
    _report(12, "interior zero found at (0.15,0.15), none at (0.3,0.3)", ok,
            f"residual {hit['residual']:.2e} at "
            f"{hit['tau_zero']:.4f}; {len(res['runs'])} starts found "
            f"{len(res['interior_zeros'])} zeros")


def test_13_translation_and_inversion_transformation_laws():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        r, s = rng.uniform(0.05, 0.95, size=2)
        tau = complex(rng.uniform(-0.4, 0.9), rng.uniform(0.6, 1.8))
        for gamma in (((1, -1), (0, 1)), ((1, 0), (-1, 1))):
            worst = max(worst, modular_identity(2, r, s, tau,
                                                gamma)["relative_error"])
    _report(13, "weight-3 transformation laws at 20 random samples",
            worst < 1e-8, f"max relative error {worst:.2e}")


def test_14_elliptic_kernel_identities():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(10):
        tau = complex(rng.uniform(-0.4, 0.6), rng.uniform(0.7, 1.6))
        L = lattice(complex(round(tau.real, 3), round(tau.imag, 3)))
        tau = L.tau
        Ld = make_lattice(-1.0 / tau)
        scale_e = 1.0 + max(abs(e) for e in L.es)
        worst = max(
            worst,
            abs(L.eta1 * tau - L.eta2 - 2j * np.pi) / (1 + abs(L.eta1)),
            abs(L.e1 + L.e2 + L.e3) / scale_e,
        )
        for _ in range(10):
            z = complex(rng.uniform(0.08, 0.42), 0) \
                + tau * rng.uniform(0.08, 0.42)
            _, p, pp = zeta_wp_wp_prime(z, L)
            cubic = 4.0 * p ** 3 - L.g2 * p - L.g3
            worst = max(worst, abs(pp * pp - cubic) / (1.0 + abs(cubic)))
            dual = wp(z / tau, Ld)
            worst = max(worst,
                        abs(dual - tau * tau * p) / (1.0 + abs(dual)))
            for k in (1, 2, 3):
                direct = wp(z + L.half_periods[k], L)
                worst = max(worst,
                            abs(wp_half_shift(z, L, k) - direct)
                            / (1.0 + abs(direct)))
    _report(14, "kernel identities on 100 random samples",
            worst < 1e-9, f"max scaled error {worst:.2e} < 1e-9")
