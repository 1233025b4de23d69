import mpmath as mp
import numpy as np
import pytest

from tvspec import premodular
from tvspec.elliptic import make_lattice, zeta_wp_wp_prime
from tvspec.errors import NonConvergenceError, PoleError
from tvspec.premodular import (
    WEIGHTS,
    boundary_nonvanishing_scan,
    boundary_tau_samples,
    classify_f0,
    is_half_torsion,
    modular_identity,
    rs_grid_default,
    z_n,
    zero_find,
    zero_find_multi,
)

from conftest import lattice
from oracles import lattice_ref, wp_prime_ref, wp_ref, zeta_ref


def test_half_torsion_predicate():
    assert is_half_torsion(0.0, 0.5)
    assert is_half_torsion(1.5, -2.0)
    assert not is_half_torsion(0.25, 0.5)
    assert not is_half_torsion(0.5, 0.3)
    for r, s in ((np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            is_half_torsion(r, s)


def test_z_vanishes_exactly_at_half_periods():
    for tau in (1j, 1.3j, 0.31 + 1.12j):
        L = lattice(tau)
        for r, s in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            assert abs(z_n(L, r, s, 1)) < 1e-12


def test_z_is_odd_and_n1_matches_base():
    L = lattice(0.31 + 1.12j)
    for r, s in ((0.3, 0.2), (0.17, 0.44)):
        assert abs(z_n(L, -r, -s, 1) + z_n(L, r, s, 1)) < 1e-12
        zeta, _, _ = zeta_wp_wp_prime(r + s * L.tau, L)
        base = zeta - r * L.eta1 - s * L.eta2
        assert abs(z_n(L, r, s, 1) - base) < 1e-14


def test_z_pole_at_lattice_points():
    with pytest.raises(PoleError):
        z_n(lattice(1j), 0.0, 0.0, 1)


@pytest.mark.parametrize(
    "tau,loc",
    [
        (0.3 + 1.0j, "interior"),
        (0.5 + 0.5j, "boundary_circle"),
        (0.0 + 2.0j, "boundary_left"),
        (1.0 + 0.7j, "boundary_right"),
        (1.2 + 1.0j, "outside"),
        (0.5 + 0.3j, "outside"),
        (-0.1 + 1.0j, "outside"),
        (0.4 - 1.0j, "outside"),
    ],
)
def test_fundamental_domain_classification(tau, loc):
    pt = classify_f0(tau)
    assert pt.location == loc
    assert pt.inside == (loc != "outside")


@pytest.mark.parametrize("tau", [complex(np.nan, 1.0), complex(0.5, np.nan),
                                 complex(np.inf, 1.0), complex(0.5, np.inf)])
def test_fundamental_domain_refuses_non_finite_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        classify_f0(tau)


T_SHIFT = ((1, -1), (0, 1))      # tau -> tau - 1
S_WEIGHT = ((1, 0), (-1, 1))     # tau -> tau / (1 - tau)
MINUS_I = ((-1, 0), (0, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_translation_and_inversion_identities(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        r, s = rng.uniform(0.05, 0.95, size=2)
        tau = complex(rng.uniform(-0.4, 0.9), rng.uniform(0.6, 1.8))
        assert modular_identity(n, r, s, tau, T_SHIFT)["relative_error"] < 1e-8
        assert modular_identity(n, r, s, tau, S_WEIGHT)["relative_error"] < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_congruence_weight_transformation(n):
    assert WEIGHTS == {1: 1, 2: 3, 3: 6, 4: 10}
    # 5r is an integer at the first two points, so gamma fixes (r, s) mod
    # 1 there; the law holds at the generic third point as well
    gamma = ((1, 0), (5, 1))
    for r, s, tau in ((0.2, 0.3, -0.18 + 0.9j), (0.4, 0.15, 0.1 + 1.2j),
                      (0.23, 0.36, 0.31 + 1.12j)):
        assert modular_identity(n, r, s, tau, gamma)["relative_error"] < 1e-7
    with pytest.raises(ValueError):
        modular_identity(1, 0.3, 0.2, 1j, ((1, 1), (1, 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_translation_signs(n):
    # the quasi-periods absorb integer shifts of (r, s), so translations
    # carry no sign; -I gives the reflection sign (-1)^w
    L = lattice(0.31 + 1.12j)
    base = z_n(L, 0.23, 0.36, n)
    for dr, ds in ((1.0, 0.0), (0.0, 1.0), (-2.0, 3.0)):
        assert abs(z_n(L, 0.23 + dr, 0.36 + ds, n) - base) <= 1e-9 * abs(base)
    out = modular_identity(n, 0.23, 0.36, 0.31 + 1.12j, MINUS_I)
    assert out["relative_error"] < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gamma", [((0, -1), (1, 0)), ((2, 1), (1, 1)),
                                   MINUS_I])
def test_modular_identity_across_sl2z(n, gamma):
    for r, s, tau in ((0.23, 0.36, 0.31 + 1.12j), (0.7, 0.15, -0.2 + 0.9j),
                      (0.41, 0.83, 0.1 + 1.3j)):
        assert modular_identity(n, r, s, tau, gamma)["relative_error"] < 1e-9


def test_zero_find_interior_zeros():
    res = zero_find(1, 0.3, 0.3, 0.55 + 0.85j)
    assert res["converged"] if "converged" in res else True
    assert res["residual"] < 1e-10
    assert res["inside_F0"]
    assert classify_f0(res["tau_zero"]).location == "interior"
    assert abs(res["tau_zero"] - (0.5960 + 0.8030j)) < 5e-3

    res = zero_find(2, 0.15, 0.15, 0.7 + 0.7j)
    assert res["residual"] < 1e-10
    assert abs(res["tau_zero"] - (0.6893 + 0.7245j)) < 5e-3


def test_zero_find_builds_one_lattice_per_step(monkeypatch):
    calls = []

    def counting(tau):
        calls.append(np.size(tau))
        return make_lattice(tau)

    monkeypatch.setattr(premodular, "make_lattice", counting)
    for args in ((1, 0.3, 0.3, 0.55 + 0.85j), (2, 0.15, 0.15, 0.7 + 0.7j)):
        calls.clear()
        res = zero_find(*args)
        # one value per iterate and one more for the first chord, which
        # shares the first batch
        assert sum(calls) == res["iterations"] + 2
        assert calls[0] == 2 and len(calls) == res["iterations"] + 1


def test_zero_find_multi_steps_all_starts_in_lockstep(monkeypatch):
    calls = []

    def counting(tau):
        calls.append(np.size(tau))
        return make_lattice(tau)

    monkeypatch.setattr(premodular, "make_lattice", counting)
    res = zero_find_multi(2, 0.15, 0.15)
    runs, diag = res["runs"], res["diagnostics"]

    def steps(run):
        # a run evaluates Z at iterations 0 .. k when it converges or its
        # slope vanishes at iteration k; at 0 .. k-1 when it leaves the
        # half plane or the strip at k or uses up the budget (k = 60)
        stays = run["converged"] or "underflow" in run["error"]
        return run["iterations"] + stays

    # one batch per step, holding every run still live and, in the first,
    # the end of each first chord
    assert calls[0] == 2 * len(runs)
    assert len(calls) == max(map(steps, runs)) == diag["batched_steps"]
    assert sum(calls) == sum(steps(run) + 1 for run in runs)
    assert diag == {"lattices": sum(calls), "batched_steps": len(calls),
                    "max_iterations": max(run["iterations"] for run in runs)}
    failed = [run for run in runs if not run["converged"]]
    assert failed
    for run in failed:
        assert 0 < run["iterations"] <= 60
        assert str(run["iterations"]) in run["error"]


@pytest.mark.parametrize("n,r,s,interior_runs", [
    (2, 0.15, 0.15, 8), (2, 0.3, 0.3, 0), (1, 0.3, 0.3, 22)])
def test_zero_find_is_one_run_of_zero_find_multi(n, r, s, interior_runs):
    multi = zero_find_multi(n, r, s)
    interior = 0
    for run in multi["runs"]:
        try:
            alone = zero_find(n, r, s, run["seed"])
        except NonConvergenceError:
            alone = {}
        # in a batch a lattice may get Eisenstein terms below
        # TRUNCATION_TOL that it does not get alone; a run that drifts
        # toward a cusp,
        # where |Z| ~ 1e-11, may then end differently, but a run that
        # ends at an interior zero ends there in both
        if "interior" in (run.get("location"), alone.get("location")):
            interior += 1
            assert run["location"] == alone["location"]
            assert run["iterations"] == alone["iterations"]
            assert abs(run["tau_zero"] - alone["tau_zero"]) <= 1e-12
    assert interior == interior_runs


def test_zero_find_failure_modes():
    with pytest.raises(ValueError):
        zero_find(1, 0.3, 0.3, 0.5 - 1j)
    with pytest.raises(ValueError, match="upper half plane"):
        zero_find_multi(1, 0.3, 0.3, seeds=[0.5 + 1j, 0.5 - 1j])
    # iterates chase a real cusp: |Z| decays but tau runs off the strip
    # around F0
    with pytest.raises(NonConvergenceError, match=(
            r"iteration 2 left the strip -1/2 <= Re tau <= 3/2 at -0\.61")):
        zero_find(1, 0.6, 0.1, 0.3 + 1.5j)
    # iterates hover near the cusp 1/2, inside the strip, until the budget
    with pytest.raises(NonConvergenceError, match="within 60 iterations"):
        zero_find(2, 0.4, 0.2, 0.5 + 0.3j)


@pytest.mark.parametrize("r,s,zero", [(0.15, 0.15, True), (0.3, 0.3, False)])
def test_zero_find_multi_ends_runs_that_leave_the_strip(r, s, zero):
    # every default start that fails drifts toward a real cusp and ends at
    # the strip edge, after 18 and 12 batched steps where all 60 were used
    res = zero_find_multi(2, r, s)
    assert res["any_interior_zero"] is zero
    assert res["diagnostics"]["batched_steps"] <= 25
    for run in res["runs"]:
        if not run["converged"]:
            assert "left the strip -1/2 <= Re tau <= 3/2" in run["error"]
            loc = complex(run["error"].rsplit(" at ", 1)[1])
            assert abs(loc.real - 0.5) > 1.0


@pytest.mark.parametrize("n,r,s,tau", [
    (1, 0.3, 0.3, 0.5959676 + 0.8030084j),
    (1, 0.7, 0.7, 0.5959676 + 0.8030084j),
    (2, 0.15, 0.15, 0.6892832 + 0.7244920j),
    (2, 0.85, 0.85, 0.6892832 + 0.7244920j),
    (3, 0.24318861, 0.51362278, 0.5 + 0.9j),
])
def test_zero_find_multi_finds_the_controls(n, r, s, tau):
    # the (r, s) zeros of Z^(n) found at fixed tau by a 2-D grid search,
    # found again as the one interior zero in tau
    res = zero_find_multi(n, r, s)
    (zero,) = res["interior_zeros"]
    assert abs(zero - tau) < 1e-6


def test_zero_find_multi_answers_where_a_batch_went_nan():
    # a start that climbs to Im tau ~ 14 shared batches with starts near
    # Im tau ~ 0.05, and the theta series of its lattice turned to NaN;
    # the winding of Z^(2) along the boundary of F0 (cut at Im tau = 3
    # and by the horocycles of height 3 at 0 and 1) counts no zero
    res = zero_find_multi(2, 0.4, 0.2)
    assert res["any_interior_zero"] is False
    assert all(run["iterations"] > 0 for run in res["runs"])


def test_stalled_secant_run_is_nonconvergence_not_absence():
    # one run stops moving at tau ~ 0.70435+1.15014i with |Z| ~ 1e-8 above
    # tol (the terms of z_4 are ~1e4 there), and Z^(4) has zeros in F0 at
    # this (r, s), so the call must not report absence
    with pytest.raises(NonConvergenceError,
                       match=r"stalled .* tau = 0\.70435.*above tol 1e-10"):
        zero_find_multi(4, 0.15, 0.15)


def test_zero_find_exits_name_their_iteration(monkeypatch):
    # a linear Z sends the first secant step onto its zero, below the
    # usable half plane; a constant Z has a vanishing chord slope
    monkeypatch.setattr(premodular, "z_n",
                        lambda L, r, s, n: L.tau - (0.5 + 0.001j))
    with pytest.raises(NonConvergenceError,
                       match="iteration 1 left the usable half plane"):
        zero_find(2, 0.15, 0.15, 0.6 + 0.4j)
    monkeypatch.setattr(premodular, "z_n",
                        lambda L, r, s, n: np.ones_like(L.tau))
    res = zero_find_multi(2, 0.15, 0.15, seeds=[0.7 + 0.7j, 0.3 + 1j])
    for run in res["runs"]:
        assert run["iterations"] == 0
        assert run["error"] == ("derivative underflow in secant step at "
                                "iteration 0")
    assert res["diagnostics"] == {"lattices": 4, "batched_steps": 1,
                                  "max_iterations": 0}


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_zero_find_refuses_vacuous_tol(tol, monkeypatch):
    def no_lattice(tau):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(premodular, "make_lattice", no_lattice)
    with pytest.raises(ValueError, match="tol"):
        zero_find(2, 0.15, 0.15, 0.7 + 0.7j, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        zero_find_multi(2, 0.15, 0.15, tol=tol)


def test_zero_find_multi_refuses_an_empty_seed_list(monkeypatch):
    # no run at all must not read as "no interior zero"
    def no_lattice(tau):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(premodular, "make_lattice", no_lattice)
    with pytest.raises(ValueError, match="seeds must not be empty"):
        zero_find_multi(2, 0.15, 0.15, seeds=[])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r, s", [(np.nan, 0.3), (np.inf, 0.3),
                                  (0.3, -np.inf)])
def test_zero_finders_refuse_non_finite_torsion_points(r, s):
    with pytest.raises(ValueError, match="finite"):
        zero_find(2, r, s, 0.7 + 0.7j)
    with pytest.raises(ValueError, match="finite"):
        zero_find_multi(2, r, s)


@pytest.mark.parametrize("floor", [0.0, -1.0, np.nan, np.inf])
def test_boundary_scan_refuses_vacuous_floor(floor):
    with pytest.raises(ValueError, match="floor"):
        boundary_nonvanishing_scan(2, rs_grid=[(0.3, 0.3)], tau_grid=[1j],
                                   floor=floor)


@pytest.mark.parametrize("count", [-1, 0, 1, 2])
def test_boundary_tau_samples_need_one_per_piece(count):
    with pytest.raises(ValueError, match="count"):
        boundary_tau_samples(count)


def test_boundary_tau_samples_cover_every_piece():
    for count in (3, 4, 5):
        taus = boundary_tau_samples(count)
        assert len(taus) == count
        locs = {classify_f0(t).location for t in taus}
        assert locs == {"boundary_left", "boundary_right", "boundary_circle"}


def test_zero_find_multi_reports_absence():
    res = zero_find_multi(2, 0.3, 0.3)
    assert not res["any_interior_zero"]
    assert res["interior_zeros"] == ()
    assert len(res["runs"]) >= 20
    assert all(("error" in run) or not run.get("inside_F0", False)
               for run in res["runs"])


def test_boundary_scan_small():
    taus = boundary_tau_samples(12)
    res = boundary_nonvanishing_scan(
        1, rs_grid=[(0.3, 0.3), (0.25, 0.1)], tau_grid=taus
    )
    assert res["passed"]
    assert res["points"] == 24
    assert res["values"].shape == (12, 2)
    assert res["values"].min() == res["min_abs"]
    r, s, tau = res["argmin"]
    assert (r, s) in ((0.3, 0.3), (0.25, 0.1))


@pytest.mark.parametrize("tau", [1j, 0.31 + 1.12j, 1.0 + 0.6j])
def test_array_z_n_matches_scalar(tau):
    L = lattice(tau)
    R, S = np.meshgrid((np.arange(7) + 0.3) / 7, (np.arange(7) + 0.3) / 14)
    zeta, p, pp = zeta_wp_wp_prime(R + S * tau, L)
    Z = zeta - R * L.eta1 - S * L.eta2
    for n in (1, 2, 3, 4):
        arr = z_n(L, R, S, n)
        ref = np.array([[z_n(L, r, s, n) for r, s in zip(rr, ss)]
                        for rr, ss in zip(R, S)])
        # near lattice points the terms of z_n cancel (for n = 4, |Z|^10
        # ~ 1e13 against a value ~ 1e5), and both routes round differently;
        # so compare against the size of the terms, a weight-w monomial
        terms = np.maximum.reduce([
            np.abs(Z), np.abs(p) ** 0.5, np.abs(pp) ** (1 / 3),
            np.full(R.shape, abs(L.g2) ** 0.25),
        ]) ** WEIGHTS[n]
        scale = np.maximum(np.abs(ref), terms)
        assert np.max(np.abs(arr - ref) / scale) < 1e-9, n


def test_z2_routes_match_mpmath():
    for r, s, tau in ((0.3, 0.2, 1.1j), (0.23, 0.36, 0.31 + 1.12j),
                      (0.7, 0.4, 1.0 + 0.6j), (0.525, 0.4875, 1.0 + 1.42j)):
        z = r + s * tau
        eta1 = lattice_ref(tau)["eta1"]
        eta2 = eta1 * tau - 2j * np.pi
        Z = zeta_ref(z, tau) - r * eta1 - s * eta2
        want = Z ** 3 - 3.0 * wp_ref(z, tau) * Z - wp_prime_ref(z, tau)
        L = lattice(tau)
        scalar = z_n(L, r, s, 2)
        array = z_n(L, np.array([r, 0.1]), np.array([s, 0.2]), 2)[0]
        for got in (scalar, array):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (r, s, tau)


# Z^(n) for n = 3, 4 as monomials (c, a, b, d, e, f): c * Z^a wp^b wp'^d
# g2^e g3^f, each of weight a + 2b + 3d + 4e + 6f = WEIGHTS[n]
Z_MONOMIALS = {
    3: [(1, 6, 0, 0, 0, 0), (-15, 4, 1, 0, 0, 0), (-20, 3, 0, 1, 0, 0),
        (27 / 4, 2, 0, 0, 1, 0), (-45, 2, 2, 0, 0, 0), (-12, 1, 1, 1, 0, 0),
        (-5 / 4, 0, 0, 2, 0, 0)],
    4: [(1, 10, 0, 0, 0, 0), (-45, 8, 1, 0, 0, 0), (-120, 7, 0, 1, 0, 0),
        (399 / 4, 6, 0, 0, 1, 0), (-630, 6, 2, 0, 0, 0),
        (-504, 5, 1, 1, 0, 0), (-1050, 4, 3, 0, 0, 0),
        (735 / 4, 4, 1, 0, 1, 0), (1725 / 4, 4, 0, 0, 0, 1),
        (165, 3, 0, 1, 1, 0), (-360, 3, 2, 1, 0, 0), (-315, 2, 4, 0, 0, 0),
        (2205 / 4, 2, 2, 0, 1, 0), (-855 / 2, 2, 1, 0, 0, 1),
        (-189 / 4, 2, 0, 0, 2, 0), (-40, 1, 3, 1, 0, 0),
        (163, 1, 1, 1, 1, 0), (-125, 1, 0, 1, 0, 1), (75 / 4, 0, 0, 2, 1, 0),
        (-9 / 4, 0, 2, 2, 0, 0)],
}


@pytest.mark.parametrize("n", [3, 4])
def test_z3_z4_match_mpmath(n):
    for c, *powers in Z_MONOMIALS[n]:
        assert np.dot(powers, (1, 2, 3, 4, 6)) == WEIGHTS[n]
    for r, s, tau in ((0.3, 0.2, 1.1j), (0.23, 0.36, 0.31 + 1.12j),
                      (0.7, 0.4, 1.0 + 0.6j), (0.525, 0.4875, 1.0 + 1.42j)):
        z = r + s * tau
        ref = lattice_ref(tau)
        eta2 = ref["eta1"] * tau - 2j * np.pi
        Z = zeta_ref(z, tau) - r * ref["eta1"] - s * eta2
        base = [mp.mpc(v) for v in (Z, wp_ref(z, tau), wp_prime_ref(z, tau),
                                     ref["g2"], ref["g3"])]
        want = complex(mp.fsum(
            c * mp.fprod(v ** k for v, k in zip(base, powers))
            for c, *powers in Z_MONOMIALS[n]))
        # the bound of test_array_z_n_matches_scalar: the size of the
        # terms, a weight-w monomial, or |z_n| where that is larger
        terms = max(abs(Z), abs(base[1]) ** 0.5, abs(base[2]) ** (1 / 3),
                    abs(base[3]) ** 0.25) ** WEIGHTS[n]
        scale = max(abs(want), terms)
        L = lattice(tau)
        scalar = z_n(L, r, s, n)
        array = z_n(L, np.array([r, 0.1]), np.array([s, 0.2]), n)[0]
        for got in (scalar, array):
            assert abs(got - want) <= 1e-9 * scale, (r, s, tau)


def _brute_force_scan(n, rs_grid, taus):
    best, argmin, rows = np.inf, None, []
    for tau in taus:
        L = lattice(complex(tau))
        for r, s in rs_grid:
            v = abs(z_n(L, r, s, n))
            rows.append((r, s, complex(tau), v))
            if v < best:
                best, argmin = v, (r, s, complex(tau))
    return best, argmin, rows


def _scan_rows(res):
    """The scan's samples as (r, s, tau, abs) rows in (tau, grid) order."""
    return [(r, s, tau, v)
            for tau, row in zip(res["taus"].tolist(), res["values"].tolist())
            for r, s, v in zip(res["r"].tolist(), res["s"].tolist(), row)]


def _assert_scan_matches_brute_force(n, rs_grid, taus):
    res = boundary_nonvanishing_scan(n, rs_grid=rs_grid, tau_grid=taus)
    best, argmin, rows = _brute_force_scan(n, rs_grid, taus)
    assert res["values"].shape == (len(taus), len(rs_grid))
    assert res["points"] == len(rows) == res["values"].size
    assert res["argmin"] == argmin
    assert all(type(x) in (float, complex) for x in res["argmin"])
    assert abs(res["min_abs"] - best) <= 1e-12 * best
    for got, want in zip(_scan_rows(res), rows):
        assert got[:3] == want[:3]
        assert abs(got[3] - want[3]) <= 1e-9 * want[3]
    return res


@pytest.mark.parametrize("n", [1, 2])
def test_boundary_scan_matches_brute_force(n):
    rs = rs_grid_default(4, 3)
    _assert_scan_matches_brute_force(n, rs, boundary_tau_samples(9))


def test_boundary_scan_tie_goes_to_first_point():
    rs = rs_grid_default(4, 3)
    taus = list(boundary_tau_samples(9))
    r, s, tau = boundary_nonvanishing_scan(2, rs_grid=rs,
                                           tau_grid=taus)["argmin"]
    # the minimizer again later in both the grid and the tau list
    res = _assert_scan_matches_brute_force(2, rs + [(r, s)], taus + [tau])
    ties = [row for row in _scan_rows(res) if row[3] == res["min_abs"]]
    assert len(ties) == 4
    assert res["argmin"] == ties[0][:3] == (r, s, tau)


def test_boundary_scan_rejects_lattice_points_and_empty_grids():
    with pytest.raises(PoleError):
        boundary_nonvanishing_scan(2, rs_grid=[(0.3, 0.3), (1.0, 0.0)],
                                   tau_grid=[1j, 1.5j])
    with pytest.raises(ValueError, match="rs_grid must not be empty"):
        boundary_nonvanishing_scan(2, rs_grid=[], tau_grid=[1j])
    with pytest.raises(ValueError, match="tau_grid must not be empty"):
        boundary_nonvanishing_scan(2, rs_grid=[(0.3, 0.3)], tau_grid=[])


def test_sample_generators():
    rs = rs_grid_default(6, 5)
    assert len(rs) == 30
    assert all(0.0 < r < 1.0 and 0.0 < s < 0.5 for r, s in rs)
    assert not any(is_half_torsion(r, s) for r, s in rs)

    # odd nr would land a row on r = 1/2, where |Z^(n)| decays toward the
    # cusp; the generator must drop it
    assert all(r != 0.5 for r, _ in rs_grid_default(5, 5))
    assert len(rs_grid_default(5, 5)) == 20

    taus = boundary_tau_samples(60)
    assert len(taus) == 60
    assert all(classify_f0(t).location.startswith("boundary") for t in taus)
