"""Monodromy and stability analysis for the elliptic Hill problem.

The second-order problem y'' = (V + E) y on the torus, with
V(z) = sum_k n_k(n_k+1) wp(z + w_k/2), is integrated along the two
fundamental loops from the common interior base point z_b = 1/4 + tau/4.
With the state (y, dy/dz) the transfer matrices M1 (period 1) and M2
(period tau) have unit determinant and commute; their traces Delta_j are
entire in E.  On top of the raw integrator this module provides:

* real-axis stability sets {E : Delta real, |Delta| <= 2} with band
  edges refined all together by Illinois regula falsi, one batched
  determinant-checked trace per step;
* a two-torus intersection probe (the same potential transported to the
  lattice of -1/tau shares only the spectral-curve branch points);
* the unitarity of the monodromy representation on a complex E grid:
  both traces real in [-2, 2] at a point that is not a branch point.

Integration is a fixed-node 6th-order Magnus method: V is sampled at the
three Gauss nodes of every step, straight from the theta kernel, each
step is the closed-form exponential of a traceless 2x2 matrix, and the
ordered product is reduced pairwise in blocks, for a batch of energies
at once.  V does not depend on E, so each loop keeps its samples per
interval end and step count (t_end, steps) and every later trace on the
problem reuses them: a band-edge refinement samples each node set once,
not once per step.  The step count starts at 256 and doubles until the
step-doubling estimate max |M_N - M_(N/2)| / 63 meets
atol + rtol max |M_N| at every energy of the batch, so the energies of a
batch share one step count (batch results agree with one-at-a-time
integration within the tolerances; all quantities compared against them
carry much looser thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npp

from .elliptic import LatticeData, make_lattice, wp
from .errors import CheckError, NonConvergenceError, PoleError
from .spectral import (
    _as_tuple,
    _check_tolerances,
    q_via_phi_ansatz,
    roots_and_classify,
)

__all__ = [
    "GLEProblem",
    "MonodromyRecord",
    "Band",
    "BandStructure",
    "make_problem",
    "monodromy",
    "trace_on_grid",
    "commutator_check",
    "stability_set_1d",
    "dual_torus_exclusion",
    "unitarity_grid",
    "at_root",
    "ROOT_FACTOR",
]

# ── potential along a loop ────────────────────────────────────────────────

# smallest distance between a loop and a pole of V that make_problem accepts
_MIN_CLEARANCE = 0.03


def _potential(L: LatticeData, n, z):
    """V(z) = sum_k n_k(n_k+1) wp(z + w_k/2), summed in index order, for a
    scalar or an array z."""
    return sum(
        n[k] * (n[k] + 1) * wp(z + L.half_periods[k], L)
        for k in range(4)
        if n[k] >= 1
    )


def _nearest_lattice_distance(z, tau: complex):
    """Distance from z to the nearest of 0 and its eight lattice
    neighbours (the nearest lattice point for z near the cell)."""
    z = np.asarray(z, dtype=complex)
    cands = np.array(
        [0.0, 1.0, -1.0, tau, -tau, 1 + tau, -1 - tau, 1 - tau, -1 + tau],
        dtype=complex,
    )
    d = np.abs(z[..., None] - cands)
    return d.min(axis=-1)


def _check_clearance(L: LatticeData, n, z0, omega):
    ts = np.linspace(0.0, 1.0, 201)
    zs = z0 + ts * omega
    worst = np.inf
    for k in range(4):
        if n[k] == 0:
            continue
        d = _nearest_lattice_distance(zs - L.half_periods[k], L.tau)
        worst = min(worst, float(np.min(d)))
    if worst < _MIN_CLEARANCE:
        raise PoleError(
            f"integration path approaches a potential pole "
            f"(clearance {worst:.3g} < {_MIN_CLEARANCE:g})"
        )


class PathPotential:
    """V along z0 + t*omega, evaluated straight from the theta kernel for
    an array of t.  The loop t in [0, 1] must stay _MIN_CLEARANCE away
    from every pole.  ``nodes`` keeps the Magnus node samples per
    (t_end, steps) on the instance."""

    def __init__(self, L: LatticeData, n, z0: complex, omega: complex):
        self.L = L
        self.n = tuple(n)
        self.z0 = complex(z0)
        self.omega = complex(omega)
        _check_clearance(L, self.n, self.z0, self.omega)
        self._nodes = {}

    def __call__(self, t):
        z = self.z0 + np.asarray(t, dtype=float) * self.omega
        return _potential(self.L, self.n, z)

    def nodes(self, t_end: float, steps: int):
        """(V1, V2, V3): V at the Gauss nodes t_j - (sqrt(15)/10) h, t_j
        and t_j + (sqrt(15)/10) h of the ``steps`` equal steps
        h = t_end / steps with midpoints t_j, one call per node set on
        first use; later calls return the same read-only arrays."""
        key = (t_end, steps)
        if key not in self._nodes:
            h = t_end / steps
            mid = (np.arange(steps) + 0.5) * h
            samples = (self(mid - _GAUSS * h), self(mid),
                       self(mid + _GAUSS * h))
            for v in samples:
                v.flags.writeable = False
            self._nodes[key] = samples
        return self._nodes[key]


@dataclass
class GLEProblem:
    """A multiplicity tuple on a fixed lattice, prepared for integration
    along both fundamental loops from the base point z_base."""

    L: LatticeData
    n: tuple
    z_base: complex
    rtol: float
    atol: float
    potentials: dict = field(repr=False)


def make_problem(
    L: LatticeData,
    n,
    z_base: complex | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> GLEProblem:
    """Prepare loop potentials (with pole-clearance checks) for the tuple
    ``n`` on lattice ``L``.  The default base point 1/4 + tau/4 sits midway
    between the pole lines of both loop directions.  ``n`` must be four
    non-negative integers, not all zero, and rtol and atol finite and
    positive (ValueError)."""
    n = _as_tuple(n)
    _check_tolerances(rtol=rtol, atol=atol)
    if z_base is None:
        z_base = 0.25 + 0.25 * L.tau
    pots = {
        "1": PathPotential(L, n, z_base, 1.0),
        "tau": PathPotential(L, n, z_base, L.tau),
    }
    return GLEProblem(
        L=L, n=n, z_base=complex(z_base), rtol=rtol, atol=atol, potentials=pots
    )


# ── transfer matrices ─────────────────────────────────────────────────────
#
# Along z = z0 + t*omega the state Y = (y, dy/dz) obeys Y' = A(t) Y with
# A = [[0, omega], [omega (V + E), 0]].  A Magnus step of size h samples A
# at the Gauss nodes t_j - g h, t_j, t_j + g h of its interval,
# g = sqrt(15)/10, and takes the 6th-order exponent (Blanes, Casas, Oteo &
# Ros 2009, sec. 4; Iserles & Norsett 1999)
#     a1 = h A2,  a2 = (sqrt(15) h/3)(A3 - A1),  a3 = (10 h/3)(A3 - 2 A2 + A1),
#     C1 = [a1, a2],  C2 = -(1/60) [a1, 2 a3 + C1],
#     Omega = a1 + a3/12 + (1/240) [-20 a1 - a3 + C1, a2 + C2].
# With a = h omega, b2 = (sqrt(15)/3) a (V3 - V1) and
# b3 = (10/3) a (V3 - 2 V2 + V1) (a2 and a3 do not depend on E), this is
#     Omega = [[d, p], [r, -d]],  d = d0 + d1 E,  r = r0 + r1 E,
#     d0 = a b2 (40 a^2 V2 + a b3 - 600) / 7200,  d1 = a^3 b2 / 180,
#     p = a + a^2 (a b2^2 - 20 b3) / 3600,
#     r1 = a + a^2 (a b2^2 + 20 b3) / 3600,
#     r0 = r1 V2 + b3/12 + a (b3^2 - 30 b2^2) / 3600,
# with every coefficient free of E.  Omega is traceless, so
# Omega^2 = mu^2 I with mu^2 = d^2 + p r, and exp(Omega) = C(mu^2) I +
# S(mu^2) Omega, where C and S are the even series of cosh(mu) and
# sinh(mu)/mu.

_GAUSS = math.sqrt(15.0) / 10.0
_STEPS_START = 256       # first step count tried (a power of two)
_STEPS_MAX = 2 ** 16     # step doubling gives up past this count
_BLOCK = 4096            # (energy x step) pairs per block of step matrices
_TERMS = 6
_COSH = tuple(1.0 / math.factorial(2 * k) for k in range(_TERMS))
_SINH = tuple(1.0 / math.factorial(2 * k + 1) for k in range(_TERMS))
# below this |mu^2| the first omitted term, |mu^2|^_TERMS / (2 _TERMS)!,
# is under 2^-54 while C and S stay near 1: the series are exact to rounding
_MU2_MAX = (math.factorial(2 * _TERMS) * 2.0 ** -54) ** (1.0 / _TERMS)


def _series(x, coeffs):
    """sum_k coeffs[k] x^k by Horner's rule."""
    out = coeffs[-1]
    for a in coeffs[-2::-1]:
        out = out * x + a
    return out


def _mul(p, q):
    """2x2 product p @ q, each matrix given by its entries (00, 01, 10, 11)."""
    a, b, c, d = p
    e, f, g, h = q
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _magnus_product(pot: PathPotential, e, t_end, steps):
    """Ordered product of ``steps`` equal Magnus steps along ``pot`` over
    [0, t_end] for each energy of the 1-d array ``e``, shape
    (len(e), 2, 2); None when some |mu^2| exceeds _MU2_MAX."""
    v1, v2, v3 = pot.nodes(t_end, steps)
    a = (t_end / steps) * pot.omega
    b2 = (math.sqrt(15.0) / 3.0) * a * (v3 - v1)
    b3 = (10.0 / 3.0) * a * (v3 - 2.0 * v2 + v1)
    ab22 = a * b2 * b2
    d0 = a * b2 * (40.0 * a * a * v2 + a * b3 - 600.0) / 7200.0
    d1 = a ** 3 * b2 / 180.0
    p = a + a * a * (ab22 - 20.0 * b3) / 3600.0
    r1 = a + a * a * (ab22 + 20.0 * b3) / 3600.0
    r0 = r1 * v2 + b3 / 12.0 + (a * b3 * b3 - 30.0 * ab22) / 3600.0
    e_abs = np.max(np.abs(e))
    mu2_bound = np.max((np.abs(d0) + np.abs(d1) * e_abs) ** 2
                       + np.abs(p) * (np.abs(r0) + np.abs(r1) * e_abs))
    if not mu2_bound <= _MU2_MAX:
        return None

    out = np.empty((len(e), 2, 2), dtype=complex)
    for lo in range(0, len(e), _BLOCK):
        e_blk = e[lo:lo + _BLOCK, None]
        # a power of two, so the pairwise reduction halves evenly
        width = min(steps, 1 << ((_BLOCK // len(e_blk)).bit_length() - 1))
        prod = (1.0, 0.0, 0.0, 1.0)
        for s in range(0, steps, width):
            blk = slice(s, s + width)
            d = d0[blk] + d1[blk] * e_blk
            r = r0[blk] + r1[blk] * e_blk
            x = d * d + p[blk] * r        # mu^2
            cc = _series(x, _COSH)
            ss = _series(x, _SINH)
            sd = ss * d
            m = (cc + sd, ss * p[blk], ss * r, cc - sd)
            while m[0].shape[1] > 1:      # later steps multiply from the left
                m = _mul([q[:, 1::2] for q in m], [q[:, 0::2] for q in m])
            prod = _mul(m, prod)
        for i, entry in enumerate(prod):
            out[lo:lo + len(e_blk), i // 2, i % 2] = entry[:, 0]
    return out


def _transfer_batch(pot: PathPotential, e_values, t_end, rtol, atol):
    """Fundamental matrices Y(t_end) with Y(0)=I along ``pot`` for a batch
    of energies; state rows are (y, dy/dz).  The step count N doubles from
    _STEPS_START until every energy has
    max_ij |M_N - M_(N/2)| / 63 <= atol + rtol max_ij |M_N|
    (the step is 6th order, so halving h divides the error by 2^6 = 64).
    Returns the matrices and the N the batch stopped at."""
    e = np.atleast_1d(np.asarray(e_values, dtype=complex))
    steps = _STEPS_START
    coarse = _magnus_product(pot, e, t_end, steps // 2)
    while steps <= _STEPS_MAX:
        fine = _magnus_product(pot, e, t_end, steps)
        if coarse is not None and fine is not None:
            est = np.max(np.abs(fine - coarse), axis=(1, 2)) / 63.0
            scale = np.max(np.abs(fine), axis=(1, 2))
            if np.all(est <= atol + rtol * scale):
                return fine, steps
        coarse = fine
        steps *= 2
    raise NonConvergenceError(
        f"transfer matrices missed rtol={rtol:g}, atol={atol:g} "
        f"at {_STEPS_MAX} Magnus steps"
    )


@dataclass(frozen=True)
class MonodromyRecord:
    """Transfer matrix over one fundamental loop at one energy."""

    E: complex
    direction: str
    matrix: np.ndarray = field(repr=False)
    delta: complex
    det_error: float


def _checked_batch(prob: GLEProblem, e_values, direction: str):
    """Transfer matrices over one loop for a batch of energies (one shared
    integration), each checked unimodular; returns them with |det M - 1|
    and the Magnus step count."""
    e = np.atleast_1d(np.asarray(e_values, dtype=complex))
    if not np.all(np.isfinite(e)):
        raise ValueError("energies must be finite")
    pot = prob.potentials[direction]
    ms, steps = _transfer_batch(pot, e, 1.0, prob.rtol, prob.atol)
    dets = ms[:, 0, 0] * ms[:, 1, 1] - ms[:, 0, 1] * ms[:, 1, 0]
    det_errors = np.abs(dets - 1.0)
    # det = 1 is exact; the attainable accuracy degrades with the square of
    # the matrix norm once the flow is hyperbolic (cancellation), so the
    # hard failure threshold is scaled while det_error stays absolute
    scale = 1.0 + np.sum(np.abs(ms) ** 2, axis=(1, 2))
    worst = float(np.max(det_errors / scale))
    if not worst <= 1e-8:  # a NaN fails too
        raise CheckError(f"transfer matrix determinant drift {worst:.2e}")
    return ms, det_errors, steps


def monodromy(prob: GLEProblem, e, direction: str = "1") -> MonodromyRecord:
    """Transfer matrix over one loop ("1" or "tau") at energy ``e``."""
    ms, det_errors, _ = _checked_batch(prob, [e], direction)
    m = ms[0]
    return MonodromyRecord(
        E=complex(e), direction=direction, matrix=m,
        delta=complex(m[0, 0] + m[1, 1]), det_error=float(det_errors[0]),
    )


def trace_on_grid(prob: GLEProblem, e_values, direction: str = "1"):
    """Traces Delta(E) over a batch of energies (one shared integration),
    and the Magnus step count the batch needed."""
    ms, _, steps = _checked_batch(prob, e_values, direction)
    return ms[:, 0, 0] + ms[:, 1, 1], steps


# relative commutator norm up to which the loop matrices commute
_COMMUTATOR_TOL = 1e-6


def commutator_check(prob: GLEProblem, e) -> dict:
    """The two loop matrices at a common base point must commute: the
    commutator norm relative to 1 + |M1| |M2| is at most 1e-6."""
    r1 = monodromy(prob, e, "1")
    r2 = monodromy(prob, e, "tau")
    comm = r1.matrix @ r2.matrix - r2.matrix @ r1.matrix
    scale = 1.0 + float(
        np.linalg.norm(r1.matrix, 2) * np.linalg.norm(r2.matrix, 2)
    )
    norm = float(np.linalg.norm(comm, 2))
    return {
        "E": complex(e),
        "commutator_norm": norm,
        "relative": norm / scale,
        "passed": norm / scale <= _COMMUTATOR_TOL,
        "records": (r1, r2),
    }


# ── stability bands on the real axis ──────────────────────────────────────

@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    open_left: bool   # True: band continues past the grid edge
    open_right: bool


@dataclass(frozen=True)
class BandStructure:
    direction: str
    e_min: float
    e_max: float
    bands: tuple
    max_im_delta: float
    edge_tol: float
    energies: np.ndarray = field(repr=False, compare=False)  # the grid
    deltas: np.ndarray = field(repr=False, compare=False)    # Delta on it
    magnus_steps: int     # largest Magnus step count of the traces
    trace_calls: int      # batched traces: the grid and each refinement step

    @property
    def finite_edges(self) -> tuple:
        out = []
        for b in self.bands:
            if not b.open_left:
                out.append(b.lo)
            if not b.open_right:
                out.append(b.hi)
        return tuple(sorted(out))


_EDGE_STEPS = 200        # refinement budget per stability_set_1d call


def stability_set_1d(
    prob: GLEProblem,
    e_min: float,
    e_max: float,
    num: int = 801,
    direction: str = "1",
    edge_tol: float = 1e-8,
    im_tol: float = 1e-6,
) -> BandStructure:
    """Real-axis stability set {E : |Re Delta(E)| <= 2} with refined band
    edges.  Delta is checked to be real (relative im_tol) on the whole
    grid; bands truncated by the grid are flagged open.  Bands narrower
    than the grid spacing can be missed; choose num accordingly.

    Every grid cell where the stability flag flips brackets one edge by a
    point outside the band and one inside.  All brackets are refined
    together, one batched determinant-checked trace per step, until each
    is within edge_tol (at most 200 steps).  A step is Illinois regula
    falsi (Dowell & Jarratt, BIT 11, 1971) on g = sgn Re Delta - 2, with
    sgn the sign of Re Delta at the outer end: the point where the chord
    of g between the two ends crosses zero, the g of an end kept twice in
    a row halved, the midpoint when the chord leaves the bracket, and the
    point kept edge_tol/2 inside both ends, so a point that lands next to
    the edge is followed by one just across it.  The ends' g come from the
    grid traces.  Orientation comes from the roles, not from
    re-sampled signs, so an edge that sits on a grid point (trace equal to
    +-2 within integrator noise) still converges to that point instead of
    drifting across the cell.  edge_tol and im_tol must be finite and
    positive (ValueError).  A bracket that cannot reach edge_tol raises
    NonConvergenceError with the width it reached: at once when its next
    point rounds to one of its ends (edge_tol below the float spacing at
    the edge), or when the 200 steps run out.  ``magnus_steps`` is the
    largest Magnus step count of the call and ``trace_calls`` the number
    of batched traces."""
    _check_tolerances(edge_tol=edge_tol, im_tol=im_tol)
    if not (math.isfinite(e_min) and math.isfinite(e_max) and e_min < e_max):
        raise ValueError(
            f"energy window needs finite e_min < e_max, got {e_min!r}, {e_max!r}"
        )
    grid = np.linspace(float(e_min), float(e_max), int(num))
    deltas, magnus_steps = trace_on_grid(prob, grid, direction)
    max_im = float(np.max(np.abs(deltas.imag) / (1.0 + np.abs(deltas))))
    if max_im > im_tol:
        raise CheckError(
            f"Delta is not real on the grid (relative imag {max_im:.2e}); "
            "the real-axis band picture does not apply"
        )
    inside = np.abs(deltas.real) <= 2.0

    flips = np.flatnonzero(inside[1:] != inside[:-1])
    left_in = inside[flips]
    i_in = np.where(left_in, flips, flips + 1)
    i_out = np.where(left_in, flips + 1, flips)
    e_in, e_out = grid[i_in], grid[i_out]
    sgn = np.sign(deltas.real[i_out])
    g_in = sgn * deltas.real[i_in] - 2.0     # <= 0
    g_out = sgn * deltas.real[i_out] - 2.0   # > 0
    moved = np.zeros(len(flips), dtype=np.int8)  # end moved last: 1 in, -1 out
    for step in range(_EDGE_STEPS + 1):
        act = np.flatnonzero(np.abs(e_in - e_out) > edge_tol)
        if act.size == 0:
            break
        a_in, a_out = e_in[act], e_out[act]
        width = np.abs(a_in - a_out)
        if step == _EDGE_STEPS:
            raise NonConvergenceError(
                f"band-edge bracket still {np.max(width):.3g} wide after "
                f"{_EDGE_STEPS} steps, above edge_tol={edge_tol:g}"
            )
        lo, hi = np.minimum(a_in, a_out), np.maximum(a_in, a_out)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = ((a_in * g_out[act] - a_out * g_in[act])
                 / (g_out[act] - g_in[act]))
        x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
        x = np.clip(x, lo + 0.5 * edge_tol, hi - 0.5 * edge_tol)
        stalled = (x == a_in) | (x == a_out)
        if np.any(stalled):
            raise NonConvergenceError(
                f"band-edge bracket stalled at {np.max(width[stalled]):.3g} "
                f"wide (adjacent floats), above edge_tol={edge_tol:g}"
            )
        trace, steps = trace_on_grid(prob, x, direction)
        re = trace.real
        magnus_steps = max(magnus_steps, steps)
        hit = np.abs(re) <= 2.0
        g = sgn[act] * re - 2.0
        # Illinois: the end that stays put a second time has its g halved
        g_out[act[hit & (moved[act] == 1)]] *= 0.5
        g_in[act[~hit & (moved[act] == -1)]] *= 0.5
        e_in[act[hit]], g_in[act[hit]] = x[hit], g[hit]
        e_out[act[~hit]], g_out[act[~hit]] = x[~hit], g[~hit]
        moved[act] = np.where(hit, 1, -1)

    # edges alternate band entry / band exit in grid order; the grid ends
    # close the bands that run past them
    bounds = list(0.5 * (e_out + e_in))
    if inside[0]:
        bounds.insert(0, grid[0])
    if inside[-1]:
        bounds.append(grid[-1])
    last = len(bounds) // 2 - 1
    bands = tuple(
        Band(float(lo), float(hi), k == 0 and bool(inside[0]),
             k == last and bool(inside[-1]))
        for k, (lo, hi) in enumerate(zip(bounds[0::2], bounds[1::2]))
    )
    return BandStructure(
        direction=direction,
        e_min=float(e_min),
        e_max=float(e_max),
        bands=bands,
        max_im_delta=max_im,
        edge_tol=edge_tol,
        energies=grid,
        deltas=deltas,
        magnus_steps=magnus_steps,
        trace_calls=1 + step,
    )


# an intersection piece must lie this close (times 1 + max |root|) to a root
_DUAL_ROOT_TOL = 1e-4


def dual_torus_exclusion(
    n,
    tau: complex,
    e_min: float,
    e_max: float,
    num: int = 801,
    qpoly: np.ndarray | None = None,
) -> dict:
    """Intersect the period-1 stability set with its transport to the
    lattice of -1/tau (middle multiplicities swapped, energies scaled by
    tau^2).  The overlap should shrink to the spectral-curve branch
    points: every intersection piece must lie within _DUAL_ROOT_TOL
    (1e-4, times 1 + max |root|) of a root of Q.  Pass the coefficients
    of the spectral polynomial as ``qpoly``.  Both problems take
    make_problem's defaults; ``n`` is checked as by make_problem
    (ValueError)."""
    n = _as_tuple(n)
    tau = complex(tau)
    L = make_lattice(tau)
    prob = make_problem(L, n)
    bands = stability_set_1d(prob, e_min, e_max, num=num)

    tau2 = tau * tau
    if abs(tau2.imag) > 1e-12 * abs(tau2):
        raise CheckError("tau^2 must be real for the dual-axis comparison")
    t2 = tau2.real

    n_swap = (n[0], n[2], n[1], n[3])
    Ld = make_lattice(-1.0 / tau)
    prob_d = make_problem(Ld, n_swap)
    lo_d, hi_d = sorted((t2 * e_min, t2 * e_max))
    bands_d = stability_set_1d(prob_d, lo_d, hi_d, num=num)

    mapped = []
    for b in bands_d.bands:
        lo, hi = sorted((b.lo / t2, b.hi / t2))
        ol, orr = (b.open_right, b.open_left) if t2 < 0 else (b.open_left, b.open_right)
        mapped.append(Band(lo, hi, ol, orr))
    mapped.sort(key=lambda b: b.lo)

    pieces = []
    for a in bands.bands:
        for b in mapped:
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo <= hi:
                pieces.append((float(lo), float(hi)))

    if qpoly is None:
        qpoly = q_via_phi_ansatz(L, n)
    roots = np.asarray(roots_and_classify(qpoly).roots)
    real_roots = roots.real
    scale = 1.0 + float(np.max(np.abs(roots)))
    distances = []
    for lo, hi in pieces:
        d = np.min(np.maximum(0.0, np.maximum(real_roots - hi, lo - real_roots)))
        distances.append(float(d))
    passed = all(d <= _DUAL_ROOT_TOL * scale for d in distances)
    return {
        "n": n,
        "tau": tau,
        "bands": bands,
        "dual_bands_mapped": tuple(mapped),
        "pieces": tuple(pieces),
        "piece_root_distances": tuple(distances),
        "roots": tuple(roots.tolist()),
        "root_tol": _DUAL_ROOT_TOL,
        "passed": passed,
    }


# ── unitarity of the monodromy representation ─────────────────────────────

ROOT_FACTOR = 1e-4   # E is a branch point when |Q(E)| <= this * (1 + |E|)^deg


def at_root(qpoly: np.ndarray, e):
    """Whether |Q(E)| is small enough to count E as a branch point
    (elementwise on arrays); ``qpoly`` holds the ascending coefficients
    of Q."""
    e = np.asarray(e, dtype=complex)
    return (np.abs(npp.polyval(e, qpoly))
            <= ROOT_FACTOR * (1.0 + np.abs(e)) ** (len(qpoly) - 1))


def _trace_unitary(delta, tol_im: float):
    """Whether a trace is real and in [-2, 2] within tol_im (elementwise)."""
    return (np.abs(delta.imag) <= tol_im * (1.0 + np.abs(delta))) & (
        np.abs(delta.real) <= 2.0 + tol_im
    )


def _trace_parabolic(delta, tol_im: float):
    """Whether a trace is +-2 within |Delta^2 - 4| <= 16 tol_im
    (elementwise)."""
    return np.abs(delta * delta - 4.0) <= 16.0 * tol_im


def unitarity_grid(
    prob: GLEProblem,
    qpoly: np.ndarray,
    re_values,
    im_values,
    tol_im: float = 1e-6,
) -> dict:
    """Vectorized unitarity classification over a rectangular E-grid.
    Returns the trace arrays and boolean masks (shape len(im) x len(re)).
    A point is unitary when both traces are real in [-2, 2] within tol_im
    and it is not a branch point.  The "at_root" mask marks the branch
    points: ``at_root`` holds, or both traces are +-2 within
    |Delta^2 - 4| <= 16 tol_im.  Both traces are +-2 at every root of Q,
    and next to a root where Q is steep the residual test of ``at_root``
    misses.  "magnus_steps" maps each loop to the Magnus step count its
    batch needed.  tol_im must be finite and positive (ValueError)."""
    _check_tolerances(tol_im=tol_im)
    re_values = np.asarray(re_values, dtype=float)
    im_values = np.asarray(im_values, dtype=float)
    ee = (re_values[None, :] + 1j * im_values[:, None]).ravel()
    d1, steps1 = trace_on_grid(prob, ee, "1")
    d2, steps2 = trace_on_grid(prob, ee, "tau")
    shape = (len(im_values), len(re_values))
    d1 = d1.reshape(shape)
    d2 = d2.reshape(shape)
    rootmask = at_root(qpoly, ee.reshape(shape)) | (
        _trace_parabolic(d1, tol_im) & _trace_parabolic(d2, tol_im))
    unitary = _trace_unitary(d1, tol_im) & _trace_unitary(d2, tol_im) & ~rootmask
    return {
        "re_values": re_values,
        "im_values": im_values,
        "delta1": d1,
        "delta2": d2,
        "at_root": rootmask,
        "unitary": unitary,
        "tol_im": tol_im,
        "magnus_steps": {"1": steps1, "tau": steps2},
    }
