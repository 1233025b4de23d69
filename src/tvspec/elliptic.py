"""Weierstrass elliptic functions on the lattice Z + Z*tau.

Everything is evaluated through Jacobi theta series, and only on an
SL2(Z)-reduced lattice: ``make_lattice`` maps tau to tau' = gamma tau in
|Re tau'| <= 1/2, |tau'| >= 1 (Cohen, GTM 138, Sec. 7.4), so the nome
q' = exp(i*pi*tau') has |q'| <= exp(-pi*sqrt(3)/2) ~ 0.066 and the series
take a few terms.  With gamma = ((a, b), (c, d)) and lam = c*tau + d,
Z + Z*tau = lam (Z + Z*tau'), so every value is carried back by its
weight: with zeta_R, wp_R the functions of Z + Z*tau',
zeta(z) = zeta_R(z/lam)/lam, wp(z) = wp_R(z/lam)/lam^2 and
wp'(z) = wp_R'(z/lam)/lam^3.  The argument z/lam is reduced to the
fundamental cell of tau' before the series run.  Conventions used
throughout the package:

* periods are 1 and tau (Im tau > 0), half-period points
  w0/2 = 0, w1/2 = 1/2, w2/2 = tau/2, w3/2 = (1+tau)/2;
* e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2), so that on the
  imaginary axis tau = i*b the ordering is e1 > e3 > e2 (all real);
* g2 = -4(e1 e2 + e1 e3 + e2 e3), g3 = 4 e1 e2 e3;
* eta1 = 2 zeta(1/2) from the Eisenstein E2 q-series, eta2 from the
  Legendre relation eta1*tau - eta2 = 2*pi*i (never a second series).

A batch of lattices is one LatticeData whose fields are arrays over tau
(``make_lattice`` of a 1-D array); each tau of it is reduced on its own.
The evaluators broadcast against it with tau on the last axis of the
evaluation points.  The theta series gives each lattice of the batch the
terms it would get alone; the Eisenstein series runs until it has
truncated on every lattice.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, PoleError

_TWO_PI_I = 2j * np.pi

# Hard cap on theta/Eisenstein series length; on a reduced lattice the
# series stop after a few terms.
_MAX_TERMS = 4000

# Above this Im tau' the sine of the second theta term overflows at the
# half period tau'/2 (3*pi*Im tau'/2 > 709.8); make_lattice refuses such a
# reduced lattice: Im tau above 150, or tau that close to the real axis
# (Im tau' = Im tau/|c*tau + d|^2, so below 0.0067i over an integer).
_MAX_IM_REDUCED = 150.0

# |c| below this keeps _affine exact; a reduction that needs more (only
# for Im tau below ~3e-16) is refused
_MAX_C = 2 ** 26

# |tau|^2 below this is inverted by the reduction; the margin keeps
# rounding at |tau| = 1 from inverting back and forth.
_UNIT_CIRCLE = 1.0 - 1e-12

# Relative size of the first omitted theta or Eisenstein term; results
# report it as their "truncation_tol".
TRUNCATION_TOL = 1e-14

# Evaluation points closer than this to a lattice point raise PoleError.
POLE_GUARD = 1e-6


@dataclass(frozen=True)
class LatticeData:
    """Cached constants of the lattice Z + Z*tau; for a batch of lattices
    every field is a 1-D array over tau.  ``reduced`` is the lattice
    Z + Z*tau' of the reduced tau' = gamma tau, on which the series run,
    and ``lam`` = c*tau + d, so that Z + Z*tau = lam (Z + Z*tau');
    ``reduced`` is None when tau is already reduced (lam = 1)."""

    tau: complex
    q: complex                # nome exp(i*pi*tau)
    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    eta1: complex
    eta2: complex
    reduced: LatticeData | None = None
    lam: complex = 1.0

    @property
    def half_periods(self):
        """(w0/2, w1/2, w2/2, w3/2) = (0, 1/2, tau/2, (1+tau)/2)."""
        return (0.0 + 0.0j, 0.5 + 0.0j, self.tau / 2, (1 + self.tau) / 2)

    @property
    def es(self):
        """(e1, e2, e3) in the package labeling."""
        return (self.e1, self.e2, self.e3)


def _eisenstein_e2(q: complex) -> complex:
    """E2(tau) = 1 - 24 sum sigma_1(m) p^m, p = q^2, via the Lambert form
    sum_{k>=1} k p^k / (1 - p^k).  An array q sums every nome at once
    until the term is below tolerance on all of them."""
    batch = isinstance(q, np.ndarray)
    p = q * q
    acc = 0.0 + 0.0j
    pk = 1.0 + 0.0j
    for k in range(1, _MAX_TERMS):
        pk *= p
        term = k * pk / (1.0 - pk)
        acc += term
        if batch:
            done = np.all(abs(term) < TRUNCATION_TOL * np.maximum(1.0, abs(acc)))
        else:
            done = abs(term) < TRUNCATION_TOL * max(1.0, abs(acc))
        if done:
            break
    else:
        raise NonConvergenceError("Eisenstein E2 series did not truncate")
    return 1.0 - 24.0 * acc


def _theta1_block(v, q: complex):
    """theta1(v|q) and its first three v-derivatives, vectorized over v.

    q is the nome of a reduced lattice (|q| <= 0.066), and v must be
    reduced to its cell, so |Im v| <= Im tau / 2; that bound
    fixes a safe series length a priori, while the loop still exits early
    once the worst-case next term is below TRUNCATION_TOL * (accumulated
    magnitude).  An array q holds one nome per lattice, matched to the
    last axis of v; each lattice stops taking terms once it has truncated
    (so it gets the terms it would get alone), and the loop runs until
    every lattice has.  Carrying a truncated lattice on would multiply an
    underflowed q-power by an overflowed sine, 0 * inf = NaN, on a high
    lattice batched with a low one.
    """
    v = np.asarray(v, dtype=complex)
    th = np.zeros_like(v)
    th1 = np.zeros_like(v)
    th2 = np.zeros_like(v)
    th3 = np.zeros_like(v)
    block = (th, th1, th2, th3)
    batch = isinstance(q, np.ndarray)
    logq = np.log(abs(q))
    im_bound = -logq / (2.0 * np.pi)
    floor = 0.0
    # batch: the lattices still taking terms, and their slices of v and
    # the sums; a truncated lattice's sums go back into ``block``
    cols = np.arange(q.size) if batch else None
    for n in range(_MAX_TERMS):
        a = (2 * n + 1) * np.pi
        coef = 2.0 * (-1) ** n * q ** ((n + 0.5) ** 2)
        s = np.sin(a * v)
        c = np.cos(a * v)
        th += coef * s
        th1 += coef * a * c
        th2 -= coef * a * a * s
        th3 -= coef * a ** 3 * c
        # worst-case magnitude of the NEXT term (third derivative weight)
        nxt = (2 * n + 3) * np.pi
        bound = 2.0 * np.exp(((n + 1.5) ** 2) * logq + nxt * im_bound) * nxt ** 3
        if batch:
            peak = np.abs(th).reshape(-1, q.size).max(axis=0)
            floor = np.maximum(floor, peak)
            done = bound < TRUNCATION_TOL * np.maximum(floor, 1e-300)
            if n >= 1 and np.any(done):
                for full, part in zip(block, (th, th1, th2, th3)):
                    full[..., cols[done]] = part[..., done]
                keep = ~done
                if not np.any(keep):
                    break
                cols, q, logq, im_bound, floor = (
                    x[keep] for x in (cols, q, logq, im_bound, floor))
                v, th, th1, th2, th3 = (
                    x[..., keep] for x in (v, th, th1, th2, th3))
        else:
            floor = max(floor, float(np.max(np.abs(th))))
            if n >= 1 and bound < TRUNCATION_TOL * max(floor, 1e-300):
                break
    else:
        raise NonConvergenceError("theta1 series did not truncate")
    return block


def _split_lattice_coords(z, tau: complex):
    """Real coordinates (a, b) with z = a + b*tau (tau broadcast against z)."""
    z = np.asarray(z, dtype=complex)
    im_tau = tau.imag
    b = z.imag / im_tau
    a = z.real - b * tau.real
    return a, b


def reduce_to_cell(z, tau: complex):
    """Reduce z modulo the lattice: returns (z_red, m, n) with
    z = z_red + m + n*tau and lattice coordinates of z_red in [-1/2, 1/2].
    An array tau reduces each point on the lattice of its last-axis
    position."""
    a, b = _split_lattice_coords(z, tau)
    n = np.round(b)
    m = np.round(a)
    z_red = (a - m) + (b - n) * tau
    return z_red, m.astype(int), n.astype(int)


def _reduction(tau):
    """gamma = (a, b, c, d) in SL2(Z) that maps tau into |Re| <= 1/2,
    |tau| >= 1: translate to |Re tau| <= 1/2, invert while |tau| < 1.
    Every inversion raises Im tau, so the loop ends; it stops early once
    |c| reaches _MAX_C, which make_lattice refuses.  tau is a Python
    complex and a, b, c, d are ints; a batch reduces its taus one by one."""
    a, b, c, d = 1, 0, 0, 1
    t = tau
    while abs(c) < _MAX_C:
        k = round(t.real)
        t -= k
        a, b = a - k * c, b - k * d
        if t.real * t.real + t.imag * t.imag >= _UNIT_CIRCLE:
            break
        t = -1 / t
        a, b, c, d = -c, -d, a, b
    return a, b, c, d


def _affine(c, tau, d):
    """c*tau + d for whole numbers c, d (|c| < 2^26) with c*Re tau + d
    rounded about once: Dekker's split Re tau = hi + lo makes c*hi and
    c*lo exact, so a small c*tau + d keeps its relative accuracy."""
    x = tau.real
    s = x * 134217729.0                 # 2^27 + 1
    hi = s - (s - x)
    return (c * hi + d) + c * (x - hi) + 1j * (c * tau.imag)


def _lattice_on_cell(tau, batch: bool) -> LatticeData:
    """LatticeData of a reduced tau (complex, or a 1-D array for a batch):
    eta1 from the Eisenstein series, the e_k from one evaluation at the
    half periods."""
    q = np.exp(1j * np.pi * tau)
    eta1 = (np.pi ** 2 / 3.0) * _eisenstein_e2(q)
    eta2 = eta1 * tau - _TWO_PI_I
    if not batch:
        q, eta1, eta2 = complex(q), complex(eta1), complex(eta2)

    # e_k by one evaluation at the three half periods, shape (3,) or
    # (3, len(tau)); it reads only tau, q, eta1 and eta2, so the e_k and
    # g_k are placeholders until then.
    nan = np.full_like(tau, np.nan) if batch else complex(np.nan, np.nan)
    cell = LatticeData(tau=tau, q=q, e1=nan, e2=nan, e3=nan, g2=nan, g3=nan,
                       eta1=eta1, eta2=eta2)
    half = cell.half_periods[1:]
    points = np.array(np.broadcast_arrays(*half) if batch else half)
    _, es, _ = zeta_wp_wp_prime(points, cell)
    e1, e2, e3 = es if batch else (complex(e) for e in es)
    g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3
    return LatticeData(tau=tau, q=q, e1=e1, e2=e2, e3=e3, g2=g2, g3=g3,
                       eta1=eta1, eta2=eta2)


def make_lattice(tau) -> LatticeData:
    """Build the cached lattice constants for Z + Z*tau.

    tau is a scalar or a non-empty 1-D array.  Each tau is reduced on its
    own to tau' = gamma tau in |Re tau'| <= 1/2, |tau'| >= 1, and the
    series run only on Z + Z*tau' (``reduced``; a tau already reduced is
    its own lattice).  With gamma = ((a, b), (c, d)) and lam = c*tau + d
    the constants come back by weight: e_k is the e' of the half period
    w_k/lam over lam^2 (the label fixed by (a, c), (b, d) or (a + b,
    c + d) mod 2), g2 = g2'/lam^4, g3 = g3'/lam^6, and
    eta1 = (a*eta1' - c*eta2')/lam; eta2 follows from the Legendre
    relation.

    For an array the result is one LatticeData whose fields are arrays
    over tau, built by one pass of each series; the evaluators then take
    points with tau on their last axis (a point array of shape
    (len(tau),) puts one point on each lattice), so
    ``z_n(make_lattice(taus), r, s, n)`` is Z^(n)_{r,s} at every tau.  A
    lattice in a batch may get a few Eisenstein terms below
    TRUNCATION_TOL that it would not get alone.

    Raises ValueError unless every tau is finite with Im tau > 0, and
    NonConvergenceError where Im tau' exceeds 150 (the theta terms
    overflow there) or the reduction needs |c| >= 2^26.
    """
    batch = np.ndim(tau) > 0
    if batch:
        tau = np.asarray(tau, dtype=complex)
        if tau.ndim != 1 or tau.size == 0:
            raise ValueError("tau must be a scalar or a non-empty 1-D array")
        if not np.all(np.isfinite(tau)):
            raise ValueError("tau must be finite")
        if np.any(tau.imag <= 0):
            raise ValueError(f"Im tau must be positive, got tau = "
                             f"{tau[tau.imag <= 0][0]}")
    else:
        tau = complex(tau)
        if not np.isfinite(tau.real) or not np.isfinite(tau.imag):
            raise ValueError("tau must be finite")
        if tau.imag <= 0:
            raise ValueError(f"Im tau must be positive, got tau = {tau}")
    if batch:
        a, b, c, d = np.array([_reduction(t) for t in tau.tolist()],
                              dtype=float).T
    else:
        a, b, c, d = _reduction(tau)
    moved = b.any() or c.any() if batch else b or c
    if moved:
        lam = _affine(c, tau, d)
        tau_red = _affine(a, tau, b) / lam
    else:
        tau_red = tau
    if batch:
        far = (np.abs(c) >= _MAX_C) | (tau_red.imag > _MAX_IM_REDUCED)
    else:
        far = abs(c) >= _MAX_C or tau_red.imag > _MAX_IM_REDUCED
    if far.any() if batch else far:
        raise NonConvergenceError(
            f"tau = {tau[far][0] if batch else tau} is out of the kernel's "
            f"range: its reduced lattice needs Im tau' <= "
            f"{_MAX_IM_REDUCED:g} (the theta terms overflow above) and "
            f"|c| < 2^26 in lam = c*tau + d")
    R = _lattice_on_cell(tau_red, batch)
    if not moved:
        return R
    # the half period m/2 + n tau'/2 (m, n mod 2) has label m + 2n - 1 in
    # (e1', e2', e3'); w1/lam = a - c tau', w2/lam = -b + d tau'
    labels = [m % 2 + 2 * (n % 2) - 1
              for m, n in ((a, c), (b, d), (a + b, c + d))]
    lam2 = lam * lam
    if batch:
        es, cols = np.array(R.es), np.arange(tau.size)
        e1, e2, e3 = (es[k.astype(np.intp), cols] / lam2 for k in labels)
        q = np.exp(1j * np.pi * tau)
    else:
        es = R.es
        e1, e2, e3 = (es[k] / lam2 for k in labels)
        q = cmath.exp(1j * cmath.pi * tau)
    lam4 = lam2 * lam2
    eta1 = (a * R.eta1 - c * R.eta2) / lam
    return LatticeData(tau=tau, q=q, e1=e1, e2=e2, e3=e3, g2=R.g2 / lam4,
                       g3=R.g3 / (lam4 * lam2), eta1=eta1,
                       eta2=eta1 * tau - _TWO_PI_I, reduced=R, lam=lam)


def zeta_wp_wp_prime(z, L: LatticeData):
    """(zeta(z), wp(z), wp'(z)) on Z + Z*tau from one cell reduction and
    one theta block.  Accepts scalars or arrays, and a batch L with tau on
    the last axis of z; raises PoleError when a point lies within
    POLE_GUARD of the lattice.

    The series run on the reduced lattice Z + Z*tau' at w = z/lam
    (w = z when tau is reduced), and the values come back as
    (zeta_R(w)/lam, wp_R(w)/lam^2, wp_R'(w)/lam^3), _R marking the
    functions of Z + Z*tau'.  With w = w_red + m + n*tau' and w_red
    reduced to the cell of tau':
    zeta_R(w) = eta1' w_red + theta1'(w_red)/theta1(w_red) + m eta1' + n eta2',
    wp_R = -zeta_R' and wp_R' = -zeta_R''.  Lattice coordinates of w_red lie in
    [-1/2, 1/2], so |w_red| is its distance to the nearest point of
    Z + Z*tau' wherever the guard matters, and |w_red| |lam| the distance
    from z to Z + Z*tau: the guard is |w_red| < POLE_GUARD/|lam|.

    zeta and wp are accurate relative to themselves.  wp' is accurate to
    its natural scale max|e_k|^(3/2), not relative to itself: where it is
    exponentially small (most points of a thin lattice, tau = 0.01i for
    one) the theta quotient cancels to rounding noise of that scale."""
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    R = L if L.reduced is None else L.reduced
    w = z if L.reduced is None else np.asarray(z, dtype=complex) / L.lam
    w_red, m, n = reduce_to_cell(w, R.tau)
    near = np.abs(w_red) < POLE_GUARD / abs(L.lam)
    if np.any(near):
        bad = np.broadcast_to(np.asarray(z, dtype=complex), near.shape)[near]
        raise PoleError(
            f"evaluation point within pole guard {POLE_GUARD:g} of a "
            f"lattice point (e.g. z = {bad[0]})"
        )
    th, th1, th2, th3 = _theta1_block(w_red, R.q)
    zeta = R.eta1 * w_red + th1 / th + m * R.eta1 + n * R.eta2
    p = -R.eta1 - (th2 * th - th1 * th1) / (th * th)
    pp = -(th3 * th * th - 3.0 * th2 * th1 * th + 2.0 * th1 ** 3) / th ** 3
    if L.reduced is not None:
        zeta, p, pp = zeta / L.lam, p / L.lam ** 2, pp / L.lam ** 3
    if scalar:
        return complex(zeta), complex(p), complex(pp)
    return zeta, p, pp


def wp(z, L: LatticeData):
    """Weierstrass wp(z) on Z + Z*tau.  Accepts scalars or arrays."""
    return zeta_wp_wp_prime(z, L)[1]


def wp_half_shift(z, L: LatticeData, k: int):
    """wp(z + w_k/2) through the algebraic half-period identity

        wp(z + w_k/2) = e_k + (e_k - e_k')(e_k - e_k'') / (wp(z) - e_k),

    where {k, k', k''} = {1, 2, 3}.  Exact counterpart of evaluating wp at
    the shifted argument; used as a cross-check of the additive route."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    es = {1: L.e1, 2: L.e2, 3: L.e3}
    ek = es.pop(k)
    ep, epp = es.values()
    return ek + (ek - ep) * (ek - epp) / (wp(z, L) - ek)


# ── local series at the singular points ──────────────────────────────────
#
# The spectral module builds Laurent data of wp-polynomials around each
# half period; these two generators provide the base series.  Both follow
# from wp'' = 6 wp^2 - g2/2 acting on the coefficient arrays.

def wp_series_origin(L: LatticeData, mmax: int) -> np.ndarray:
    """Coefficients c[1..mmax] of wp(u) = u^-2 + sum_{m>=1} c[m] u^{2m}.

    c[0] is kept as 0 so the array indexes by m directly.
    """
    c = np.zeros(mmax + 1, dtype=complex)
    if mmax >= 1:
        c[1] = L.g2 / 20.0
    if mmax >= 2:
        c[2] = L.g3 / 28.0
    for n in range(3, mmax + 1):
        s = sum(c[i] * c[n - 1 - i] for i in range(1, n - 1))
        c[n] = 3.0 * s / ((2 * n + 3) * (n - 2))
    return c


def wp_series_half(L: LatticeData, k: int, jmax: int) -> np.ndarray:
    """Taylor coefficients h[0..jmax] of wp(w_k/2 + u) (odd entries vanish).

    Seeded by h0 = e_k, h1 = 0 (half periods are critical points); higher
    coefficients follow from (j+2)(j+1) h_{j+2} = 6 (h*h)_j - (g2/2) δ_{j0}.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    h = np.zeros(jmax + 1, dtype=complex)
    h[0] = {1: L.e1, 2: L.e2, 3: L.e3}[k]
    for j in range(0, jmax - 1):
        conv = np.einsum("i,i", h[: j + 1], h[j::-1])
        rhs = 6.0 * conv - (L.g2 / 2.0 if j == 0 else 0.0)
        h[j + 2] = rhs / ((j + 2) * (j + 1))
    return h
