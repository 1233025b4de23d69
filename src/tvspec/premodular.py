"""Pre-modular forms attached to torsion parameters (r, s).

The building block is

    Z = Z_{r,s}(tau) = zeta(r + s*tau; tau) - r*eta1(tau) - s*eta2(tau),

odd under (r,s) -> (-r,-s) and vanishing exactly at the half-period
torsion points (r, s in {0, 1/2} mod 1).  For n = 1..4 the pre-modular
form z_n is an explicit polynomial in Z, wp, wp' and the lattice
invariants (all evaluated at r + s*tau) of modular weight n(n+1)/2; its
zeros in the tau plane detect solvability of an associated vortex
equation, and a nonvanishing theorem keeps it away from zero on the
boundary of the fundamental domain

    F0 = {tau : 0 <= Re tau <= 1, |tau - 1/2| >= 1/2, Im tau > 0}.

The module provides the evaluations (on one lattice or on a batch of
lattices over tau), the F0 classifier, grid scans of |z_n| over the three
boundary pieces, secant zero finding in tau (multi-start runs step in
lockstep, one batch of lattices per step), and the one transformation
law: for gamma = ((a, b), (c, d)) in SL2(Z) and w = n(n+1)/2,

    Z^(n)_{ar-bs, -cr+ds}(gamma tau) = (c*tau + d)^w Z^(n)_{r,s}(tau).

The quasi-periods make z_n exactly periodic in r and in s, so -I gives
the reflection sign (-1)^w and the translations of (r, s) carry none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import LatticeData, make_lattice, zeta_wp_wp_prime
from .errors import NonConvergenceError

__all__ = [
    "F0Point",
    "WEIGHTS",
    "z_n",
    "classify_f0",
    "is_half_torsion",
    "modular_identity",
    "rs_grid_default",
    "boundary_tau_samples",
    "boundary_nonvanishing_scan",
    "zero_find",
    "zero_find_multi",
    "SEED_LATTICE",
]

WEIGHTS = {1: 1, 2: 3, 3: 6, 4: 10}

# |2r - round(2r)| and |2s - round(2s)| at most this: half torsion
_HALF_TORSION_TOL = 1e-12
# distance within which tau counts as on a boundary piece of F0
_F0_TOL = 1e-9


def is_half_torsion(r: float, s: float) -> bool:
    """Whether (r, s) lies on the half-integer lattice (mod 1), within
    _HALF_TORSION_TOL.  Raises ValueError unless r and s are finite."""
    if not (np.isfinite(r) and np.isfinite(s)):
        raise ValueError(f"r and s must be finite, got {r}, {s}")
    fr = abs(2.0 * r - round(2.0 * r))
    fs = abs(2.0 * s - round(2.0 * s))
    return fr <= _HALF_TORSION_TOL and fs <= _HALF_TORSION_TOL


@dataclass(frozen=True)
class F0Point:
    tau: complex
    location: str  # interior | boundary_left | boundary_right | boundary_circle | outside

    @property
    def inside(self) -> bool:
        return self.location != "outside"


def classify_f0(tau: complex) -> F0Point:
    """Locate tau relative to F0 = {0 <= Re <= 1, |tau - 1/2| >= 1/2}.

    Boundary pieces win within _F0_TOL; Im tau <= 0 is always outside.
    Raises ValueError unless tau is finite (i*inf is the cusp, not a
    point of F0)."""
    tau = complex(tau)
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau.imag <= _F0_TOL:
        return F0Point(tau, "outside")
    x = tau.real
    circ = abs(tau - 0.5) - 0.5
    if -_F0_TOL <= x <= 1.0 + _F0_TOL and circ >= -_F0_TOL:
        if abs(x) <= _F0_TOL:
            return F0Point(tau, "boundary_left")
        if abs(x - 1.0) <= _F0_TOL:
            return F0Point(tau, "boundary_right")
        if circ <= _F0_TOL:
            return F0Point(tau, "boundary_circle")
        return F0Point(tau, "interior")
    return F0Point(tau, "outside")


# ── evaluations ───────────────────────────────────────────────────────────

def z_n(L: LatticeData, r: float, s: float, n: int):
    """Pre-modular form of weight n(n+1)/2 at (r, s) on lattice L; n = 1
    is Z_{r,s} itself.  Raises PoleError when r + s*tau hits the
    lattice."""
    zeta, p, pp = zeta_wp_wp_prime(r + s * L.tau, L)
    Z = zeta - r * L.eta1 - s * L.eta2
    if n == 1:
        return Z
    if n == 2:
        return Z ** 3 - 3.0 * p * Z - pp
    g2, g3 = L.g2, L.g3
    if n == 3:
        return (
            Z ** 6
            - 15.0 * p * Z ** 4
            - 20.0 * pp * Z ** 3
            + (27.0 / 4.0 * g2 - 45.0 * p ** 2) * Z ** 2
            - 12.0 * p * pp * Z
            - 5.0 / 4.0 * pp ** 2
        )
    if n == 4:
        return (
            Z ** 10
            - 45.0 * p * Z ** 8
            - 120.0 * pp * Z ** 7
            + (399.0 / 4.0 * g2 - 630.0 * p ** 2) * Z ** 6
            - 504.0 * p * pp * Z ** 5
            - 15.0 / 4.0 * (280.0 * p ** 3 - 49.0 * g2 * p - 115.0 * g3) * Z ** 4
            + 15.0 * (11.0 * g2 - 24.0 * p ** 2) * pp * Z ** 3
            - 9.0 / 4.0
            * (140.0 * p ** 4 - 245.0 * g2 * p ** 2 + 190.0 * g3 * p + 21.0 * g2 ** 2)
            * Z ** 2
            - (40.0 * p ** 3 - 163.0 * g2 * p + 125.0 * g3) * pp * Z
            + 3.0 / 4.0 * (25.0 * g2 - 3.0 * p ** 2) * pp ** 2
        )
    raise ValueError("n must be 1, 2, 3 or 4")


# ── transformation law ────────────────────────────────────────────────────

def modular_identity(n: int, r: float, s: float, tau: complex, gamma) -> dict:
    """Both sides of Z^(n)_{ar-bs, -cr+ds}(gamma tau) = (c*tau + d)^w
    Z^(n)_{r,s}(tau) for gamma = ((a, b), (c, d)), w = n(n+1)/2.  Raises
    ValueError unless gamma has determinant 1."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant 1")
    t2 = (a * tau + b) / (c * tau + d)
    lhs = z_n(make_lattice(t2), a * r - b * s, -c * r + d * s, n)
    rhs = (c * tau + d) ** WEIGHTS[n] * z_n(make_lattice(tau), r, s, n)
    scale = max(1.0, abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "relative_error": abs(lhs - rhs) / scale}


# ── boundary scans ────────────────────────────────────────────────────────

_BLOCK = 4096   # (lattice, grid point) pairs per z_n call, as in hill


def rs_grid_default(nr: int = 20, ns: int = 20):
    """(r, s) grid filling (0,1) x (0,1/2) on offset midpoints.  The row
    r = 1/2 (hit when nr is odd) is dropped: those points are not
    half-torsion, but |Z^(n)| decays exponentially along that line toward
    the cusp, so no uniform floor can hold on it."""
    rs = [( (2 * i + 1) / (2 * nr), (2 * j + 1) / (4 * ns) )
          for i in range(nr) for j in range(ns)]
    return [(r, s) for r, s in rs if r != 0.5]


# height range of the boundary samples
_H_MIN, _H_MAX = 0.05, 10.0


def boundary_tau_samples(count: int = 60):
    """tau samples on the three boundary pieces of F0: the vertical lines
    Re = 0 and Re = 1 (heights log-spaced in [0.05, 10]) and the circle
    |tau - 1/2| = 1/2 clipped to Im >= 0.05.  Raises ValueError unless
    count >= 3, one sample per piece."""
    if count < 3:
        raise ValueError(f"count must be >= 3, got {count}")
    per = count // 3
    heights = np.geomspace(_H_MIN, _H_MAX, per)
    left = 1j * heights
    right = 1.0 + 1j * heights
    phi_min = np.arcsin(min(1.0, 2.0 * _H_MIN))
    phis = np.linspace(phi_min, np.pi - phi_min, count - 2 * per)
    circle = 0.5 + 0.5 * np.exp(1j * phis)
    return np.concatenate([left, right, circle])


def boundary_nonvanishing_scan(
    n: int,
    rs_grid=None,
    tau_grid=None,
    floor: float = 1e-8,
) -> dict:
    """min |Z^(n)| over (r,s) x boundary tau, with its argmin and a strict
    positivity verdict against ``floor``.  The theorem behind it promises
    nonvanishing for every non-half-torsion (r, s) on the whole boundary;
    the floor is an empirical regression guard, not a proved bound.

    The boundary taus go in blocks of about _BLOCK (lattice, grid point)
    pairs: each block is one batch of lattices (every tau reduced on its
    own, so the thin lattices near the cusps 0 and 1 cost what thick ones
    do) and one z_n call on the whole (r, s) grid.  Every sampled
    |Z^(n)| is returned as the (len(taus), len(grid)) array "values",
    with the grid as arrays "r" and "s" and the boundary points as
    "taus".  The argmin is the first minimum in (tau index, grid index)
    order; a NaN value fails the verdict.  Raises ValueError unless floor
    is finite and positive (a floor <= 0 passes any values) and both
    grids are non-empty."""
    if not (np.isfinite(floor) and floor > 0):
        raise ValueError(f"floor must be finite and > 0, got {floor}")
    if rs_grid is None:
        rs_grid = rs_grid_default()
    if tau_grid is None:
        tau_grid = boundary_tau_samples()
    rs = np.array([(float(r), float(s)) for r, s in rs_grid]).reshape(-1, 2)
    taus = np.asarray(tau_grid, dtype=complex).ravel()
    for name, grid in (("rs_grid", rs), ("tau_grid", taus)):
        if len(grid) == 0:
            raise ValueError(f"{name} must not be empty")
    r, s = rs[:, 0], rs[:, 1]
    per = max(1, _BLOCK // len(rs))
    vals = np.concatenate([
        np.abs(z_n(make_lattice(taus[lo:lo + per]), r[:, None], s[:, None],
                   n)).T
        for lo in range(0, len(taus), per)])
    it, ig = np.unravel_index(np.argmin(vals), vals.shape)
    best = float(vals[it, ig])
    return {
        "n": n,
        "min_abs": best,
        "argmin": (float(r[ig]), float(s[ig]), complex(taus[it])),
        "points": vals.size,
        "floor": floor,
        "passed": best > floor,
        "values": vals,
        "r": r,
        "s": s,
        "taus": taus,
    }


# ── zero finding ──────────────────────────────────────────────────────────

_FIRST_CHORD = 1e-6   # the first secant runs from the seed to seed + this
_MAX_ITER = 60
# a run ends once |Re tau - 1/2| exceeds this: F0 lies in 0 <= Re tau <= 1
# and a step is at most 0.5 long, so the strip -1/2 <= Re tau <= 3/2
# leaves one full step of margin on each side
_STRIP_HALF_WIDTH = 1.0
# the multi-start seed lattice, Re outer and Im inner: `zero-find-multi
# --seed` draws its jitter in this order
SEED_LATTICE = tuple(x + 1j * y for x in (0.1, 0.3, 0.5, 0.7, 0.9)
                     for y in (0.3, 0.6, 1.0, 1.6, 2.5))


def _secant_lockstep(n: int, r: float, s: float, seeds, tol: float):
    """Secant iterations on tau for Z^(n)_{r,s}(tau) = 0 from every seed
    at once.  Each step builds one batch of lattices, one per run still
    live (the first step also holds each seed + 1e-6, the end of the first
    chord), and every run keeps its own rules: at most 60 steps, each
    clipped to length 0.5; an exit once Im tau < 0.02, an exit once the
    iterate leaves the strip -1/2 <= Re tau <= 3/2 (F0 with one full step
    of margin on each side: such runs drift toward a real cusp and cannot
    end in F0), and an exit on a vanishing chord slope; converged once
    |Z| < tol and the last |step| < tol.

    Returns one dict per seed, in order -- a converged run's tau_zero,
    residual, F0 location and iterations, or a failed run's error message
    and the iteration it stopped at -- and the diagnostics of the batch:
    lattices built, batched steps and the largest iteration count.
    Raises NonConvergenceError, naming tau, |Z| and tol, when a run's
    step no longer moves tau while |Z| is still above tol: there may be a
    zero that the run cannot resolve, so that run must not count as a
    failure.  Raises ValueError unless tol is finite and positive (no
    start could converge otherwise), there is a seed (zero runs cannot
    claim absence) and every seed lies in the upper half plane."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    start = np.array([complex(x) for x in seeds], dtype=complex)
    if start.size == 0:
        raise ValueError("seeds must not be empty")
    if np.any(start.imag <= 0):
        raise ValueError("seed must lie in the upper half plane")
    t = start.copy()
    runs = [None] * t.size
    t_prev, val_prev = np.empty_like(t), np.empty_like(t)
    last_step = np.full(t.size, np.inf)
    last_abs = np.full(t.size, np.nan)
    live = np.arange(t.size)
    lattices = steps = 0

    def fail(i, it, message):
        runs[i] = {"converged": False, "error": message, "iterations": it}

    for it in range(_MAX_ITER):
        low = t[live].imag < 0.02
        for i in live[low]:
            fail(i, it, f"iteration {it} left the usable half plane at "
                        f"{complex(t[i]):.6g}")
        live = live[~low]
        away = np.abs(t[live].real - 0.5) > _STRIP_HALF_WIDTH
        for i in live[away]:
            fail(i, it, f"iteration {it} left the strip -1/2 <= Re tau <= 3/2 "
                        f"at {complex(t[i]):.6g}")
        live = live[~away]
        if live.size == 0:
            break
        batch = t[live]
        if it == 0:
            batch = np.concatenate([batch, batch + _FIRST_CHORD])
        val = z_n(make_lattice(batch), r, s, n)
        lattices += batch.size
        steps += 1
        if it == 0:
            t_prev[live], val_prev[live] = batch[live.size:], val[live.size:]
            val = val[:live.size]
        last_abs[live] = np.abs(val)
        done = (last_abs[live] < tol) & (last_step[live] < tol)
        for i in live[done]:
            loc = classify_f0(t[i])
            runs[i] = {
                "tau_zero": complex(t[i]),
                "residual": float(last_abs[i]),
                "inside_F0": loc.location == "interior",
                "location": loc.location,
                "converged": True,
                "iterations": it,
            }
        live, val = live[~done], val[~done]
        chord = t[live] - t_prev[live]
        if np.any(chord == 0):
            i = live[chord == 0][0]
            raise NonConvergenceError(
                f"secant run from seed {complex(start[i]):.4g} stalled at "
                f"iteration {it}: its step no longer moves tau = "
                f"{complex(t[i]):.10g}, where |Z| = {last_abs[i]:.3g} is "
                f"above tol {tol:g}")
        der = (val - val_prev[live]) / chord
        flat = np.abs(der) < 1e-14 * (1.0 + np.abs(val))
        for i in live[flat]:
            fail(i, it, "derivative underflow in secant step at "
                        f"iteration {it}")
        live, val, der = live[~flat], val[~flat], der[~flat]
        step = -val / der
        big = np.abs(step) > 0.5
        step[big] *= 0.5 / np.abs(step[big])
        t_prev[live], val_prev[live] = t[live], val
        t[live] += step
        last_step[live] = np.abs(step)
    for i in live:
        fail(i, _MAX_ITER, f"no zero within {_MAX_ITER} iterations from "
                           f"seed {complex(start[i]):.4g} "
                           f"(last |Z| = {last_abs[i]:.3g})")
    diagnostics = {
        "lattices": lattices,
        "batched_steps": steps,
        "max_iterations": max((run["iterations"] for run in runs), default=0),
    }
    return runs, diagnostics


def zero_find(
    n: int,
    r: float,
    s: float,
    seed_tau: complex,
    tol: float = 1e-10,
) -> dict:
    """Secant iteration on tau for Z^(n)_{r,s}(tau) = 0 from one seed: the
    slope is that of the chord through the previous iterate (the first
    chord ends at seed + 1e-6), so each step builds one lattice.  It is
    the lockstep iteration of zero_find_multi run on this seed alone.
    Converged means |Z| < tol and |step| < tol; the budget, half-plane,
    strip (-1/2 <= Re tau <= 3/2) and slope-underflow exits raise
    NonConvergenceError naming the iteration they stopped at, and so does
    a step that no longer moves tau.  The returned F0 location tells
    whether the zero counts (interior) or not.  Raises ValueError unless
    tol is finite and positive and the seed lies in the upper half
    plane."""
    (run,), _ = _secant_lockstep(n, r, s, [seed_tau], tol)
    if not run["converged"]:
        raise NonConvergenceError(run["error"])
    return run


def zero_find_multi(
    n: int,
    r: float,
    s: float,
    seeds=None,
    tol: float = 1e-10,
) -> dict:
    """The secant iteration of zero_find run from every seed in lockstep
    (default seeds: the SEED_LATTICE points inside F0), one batch of
    lattices per step, collecting the distinct interior zeros
    (deduplicated at 1e-6).  Used to claim absence: every start either
    fails to converge or lands outside the interior.  A run fails on the
    60-step budget, below Im tau = 0.02, outside the strip
    -1/2 <= Re tau <= 3/2 or on a vanishing slope; a run whose step no
    longer moves tau while |Z| >= tol raises NonConvergenceError for the
    whole call, since it may sit at a zero.  Each run records its seed
    and iterations, a failed run its error; "diagnostics" counts the
    lattices built, the batched steps and the largest iteration count.
    An empty ``seeds`` raises ValueError: with no run, absence would hold
    vacuously."""
    if seeds is None:
        seeds = [t for t in SEED_LATTICE if classify_f0(t).inside]
    seeds = [complex(t) for t in seeds]
    results, diagnostics = _secant_lockstep(n, r, s, seeds, tol)
    zeros = []
    runs = []
    for seed, res in zip(seeds, results):
        runs.append({"seed": seed, **res})
        if res["converged"] and res["inside_F0"]:
            t = res["tau_zero"]
            if all(abs(t - z) > 1e-6 for z in zeros):
                zeros.append(t)
    return {
        "n": n,
        "r": r,
        "s": s,
        "interior_zeros": tuple(zeros),
        "any_interior_zero": bool(zeros),
        "runs": tuple(runs),
        "diagnostics": diagnostics,
    }
