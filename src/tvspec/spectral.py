"""Spectral polynomials of four-point elliptic finite-gap potentials.

A multiplicity tuple n = (n0, n1, n2, n3) attaches the doubly periodic
potential V(z) = sum_k n_k(n_k+1) wp(z + w_k/2) to the torus C/(Z + Z*tau).
For every energy E the second-order problem y'' = (V + E) y carries a
one-dimensional space of even elliptic solutions of its second symmetric
power,

    Phi(z; E) = c0(E) + sum_k sum_{j < n_k} b_j^k(E) wp(z + w_k/2)^{n_k - j},

normalized so the coefficient polynomials are coprime with c0 monic of
degree g (the arithmetic genus below).  The z-independent combination

    Q(E) = (V(z) + E) Phi^2 + Phi'^2 / 4 - Phi Phi'' / 2

is then the monic spectral polynomial of degree 2g+1: its roots are the
branch points of the hyperelliptic spectral curve and the periodic/
antiperiodic band edges of the associated Hill problem.

Two independent routes are implemented and cross-checked:

* `q_via_phi_ansatz` — principal-part elimination.  Requiring
  Phi''' - 4(V+E)Phi' - 2V'Phi (an odd elliptic function) to be pole-free
  produces an affine matrix pencil A0 + E*A1 in the ansatz coefficients:
  at each singular half period w_i/2 the Laurent coefficients of orders
  -1, -3, ..., -(2n_i+1), for every ansatz column at once.  The lowest
  pole order, -(2n_i+3), is no row: only the leading term of
  wp(u + w_i/2)^(n_i) reaches it, with the indicial factor
  n_i(n_i+1) - N_i = 0 (N_i u^-2 leads V), so it is exactly zero.  The
  unique polynomial null vector with the normalization above solves one
  block least-squares problem; a single SVD gives its rank guard and,
  through its factors, the first solve and every step of the iterative
  refinement.  Q is assembled by polynomial arithmetic in E at a generic
  point z0, verified at an independent z1 and at a held-out E*.  One
  evaluator call on the shifted points z + w_k/2 of the active half
  periods, for z0 and z1 together, gives the basis values, their
  derivatives and V at both.  The solve guards (rank ratio 1e-8, block
  residual 1e-8, z0/z1 and held-out agreement 1e-9) and the root
  residual factor (1e-8) are fixed constants.

* `q_via_factorization` — products of Heun polynomial families P^(0..3)
  selected by the branch tables (even total multiplicity); odd totals go
  through an isospectral index transform that either reaches an even tuple
  in one step or raises NotConstructibleError.  Never returns an
  unverified guess.

`spectral_report` classifies the roots of the factors when the product
form exists (root_source "factor_union", gap tolerance FACTOR_GAP_TOL =
1e-10) and the roots of the coefficients otherwise (root_source
"coefficients", gap tolerance tol_gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    TRUNCATION_TOL,
    LatticeData,
    make_lattice,
    wp_series_half,
    wp_series_origin,
    zeta_wp_wp_prime,
)
from .errors import CheckError, NotConstructibleError, TvspecError
from .heun import TildeAlpha, p_polynomial
from .poly import (
    ComplexPoly,
    coefficient_distance,
    match_roots,
    residuals,
)

__all__ = [
    "SpectralReport",
    "RootReport",
    "ScanPoint",
    "ScanResult",
    "genus_of",
    "condition_class",
    "q_via_phi_ansatz",
    "q_via_factorization",
    "roots_and_classify",
    "spectral_report",
    "modular_covariance_check",
    "tau_scan",
]

def genus_of(n) -> int:
    """Arithmetic genus of the spectral curve for multiplicities ``n``.

    With m0 >= m1 >= m2 >= m3 the sorted entries:
      total even:  g = m0                     if m0 + m3 >= m1 + m2
                   g = (m0+m1+m2-m3)/2        otherwise
      total odd:   g = m0                     if m0 > m1 + m2 + m3
                   g = (m0+m1+m2+m3+1)/2      otherwise
    """
    m = sorted(n, reverse=True)
    tot = sum(m)
    if tot % 2 == 0:
        if m[0] + m[3] >= m[1] + m[2]:
            return m[0]
        return (m[0] + m[1] + m[2] - m[3]) // 2
    if m[0] > m[1] + m[2] + m[3]:
        return m[0]
    return (tot + 1) // 2


def condition_class(n) -> str:
    """Which root-reality class the tuple falls in on the imaginary axis.

    "C1" if (n1+n2-n0-n3)/2 >= 1 with n1, n2 >= 1;
    "C2" if (n1+n2-n0-n3)/2 <= -1 with n0, n3 >= 1;
    "NEITHER" otherwise.  C1/C2 force a non-real root pair for every
    tau on the positive imaginary axis; NEITHER forces all roots real
    and distinct there (the dichotomy is sharp).
    """
    n0, n1, n2, n3 = n
    d = n1 + n2 - n0 - n3
    if d >= 2 and n1 >= 1 and n2 >= 1:
        return "C1"
    if d <= -2 and n0 >= 1 and n3 >= 1:
        return "C2"
    return "NEITHER"


def _as_tuple(n) -> tuple:
    """``n`` as a validated tuple of four multiplicities."""
    n = tuple(n)
    v = tuple(int(x) for x in n)
    if len(v) != 4:
        raise ValueError("need exactly four multiplicities")
    if any(x != y for x, y in zip(v, n)):
        raise ValueError("multiplicities must be integers")
    if any(x < 0 for x in v):
        raise ValueError("multiplicities must be non-negative")
    if max(v) < 1:
        raise ValueError("at least one multiplicity must be positive")
    return v


# ── principal-part pencil ─────────────────────────────────────────────────

def _pencil(L: LatticeData, n):
    """Affine condition pencil (A0, A1): rows are the principal-part
    coefficients of Phi''' - 4(V+E)Phi' - 2V'Phi at the odd orders
    -1, -3, ..., -(2n_i+1) around every singular half period w_i/2 (the
    even ones vanish, every term being odd about w_i/2), columns the
    ansatz unknowns (c0 first, then each b_j^k).

    The lowest order the poles reach, -(2n_i+3), is not a row: only the
    leading u^(-2n_i) of wp(u + w_i/2)^(n_i) reaches it, with the
    coefficient 4(2n_i+1)(N_i - n_i(n_i+1)) in A0, where N_i u^-2 leads V,
    and nothing in A1.  With N_i = n_i(n_i+1) that row is exactly 0.

    Every series lives on one window of Laurent orders lo..hi (entry
    o - lo holds the u^o coefficient): products are truncated
    convolutions, d/du shifts by one entry and scales by the order, and
    multiplication by V or V' is formed only on the kept rows.  At each
    singular half period G0 = F''' - 4 V F' - 2 V' F and G1 = -4 F' are
    built for all ansatz columns F at once.
    """
    nmax = max(n)
    # every series vanishes below order -2*nmax - 1 (that of F'); the rows
    # read V up to order 2*n_i and F up to order 2, and a power
    # wp(u + w_i/2)^j truncated at hi is exact up to hi - 2(j - 1)
    lo, hi = -2 * nmax - 1, 2 * nmax
    orders = np.arange(lo, hi + 1)
    w = len(orders)
    active = [k for k in range(4) if n[k]]
    # powers[m][j-1]: wp(u + w_m/2)^j around u = 0, for each partner index
    # m = i^k that occurs, up to the largest n_k paired with it
    top = {}
    for i in active:
        for k in active:
            top[i ^ k] = max(top.get(i ^ k, 0), n[k])
    powers = {}
    for m, jmax in top.items():
        b = np.zeros(w, dtype=complex)
        if m == 0:
            b[-2 - lo] = 1.0
            b[2 - lo :: 2] = wp_series_origin(L, hi // 2)[1:]
        else:
            b[-lo:] = wp_series_half(L, m, hi)
        powers[m] = [b]
        for _ in range(jmax - 1):
            powers[m].append(np.convolve(powers[m][-1], b)[-lo : w - lo])

    one = (orders == 0).astype(complex)
    blocks0, blocks1 = [], []
    for i in active:
        # around w_i/2, wp(z + w_k/2) is the base series of index i^k, and
        # b_j^k multiplies its power n_k - j
        F = [one]
        v = np.zeros(w, dtype=complex)
        for k in active:
            F.extend(powers[i ^ k][n[k] - 1 :: -1])
            v += n[k] * (n[k] + 1) * powers[i ^ k][0]
        F = np.array(F)
        DF = np.zeros_like(F)
        DF[:, :-1] = F[:, 1:] * orders[1:]
        Dv = np.zeros(w, dtype=complex)
        Dv[:-1] = v[1:] * orders[1:]
        rows = -(2 * np.arange(n[i] + 1) + 1)   # orders -1, -3, ...
        # T(a) on the kept rows: entry [r, c] is a at order rows[r] - orders[c],
        # which never exceeds hi and is below lo (a zero) where lag < 0
        lag = rows[:, None] - orders[None, :] - lo
        tv = np.where(lag >= 0, v[lag], 0.0)
        tdv = np.where(lag >= 0, Dv[lag], 0.0)
        d3 = ((rows + 1) * (rows + 2) * (rows + 3))[:, None] * F[:, rows + 3 - lo].T
        blocks0.append(d3 - 4.0 * (tv @ DF.T) - 2.0 * (tdv @ F.T))
        blocks1.append(-4.0 * DF[:, rows - lo].T)
    return np.vstack(blocks0), np.vstack(blocks1)


def _local_values(L: LatticeData, n, zs):
    """For each point z of ``zs``: each ansatz basis function (pencil
    column order) with its first two z-derivatives, and V(z).  One
    evaluator call on the active shifted points z + w_k/2 of every z
    serves them all."""
    ks = [k for k in range(4) if n[k]]
    shifts = np.array([L.half_periods[k] for k in ks])
    _, ps, pps = zeta_wp_wp_prime(np.add.outer(np.asarray(zs), shifts), L)
    out = []
    # Python complex scalars keep the arithmetic of a scalar evaluator call
    for p, pp in zip(ps.tolist(), pps.tolist()):
        vals, d1, d2 = [1.0 + 0j], [0.0 + 0j], [0.0 + 0j]
        for k, pk, ppk in zip(ks, p, pp):
            psk = 6.0 * pk * pk - L.g2 / 2.0
            for w in range(n[k], 0, -1):
                vals.append(pk ** w)
                d1.append(w * pk ** (w - 1) * ppk)
                d2.append(w * pk ** (w - 1) * psk
                          + w * (w - 1) * pk ** max(w - 2, 0) * ppk * ppk)
        v = sum(n[k] * (n[k] + 1) * pk for k, pk in zip(ks, p))
        out.append((np.array(vals, dtype=complex), np.array(d1, dtype=complex),
                    np.array(d2, dtype=complex), complex(v)))
    return out


def _assemble_q_at(local, vhat: np.ndarray, s: float):
    """Monic Q in E from the scaled polynomial null vector, by polynomial
    arithmetic on the ``_local_values`` of one point.  vhat[d] holds the
    Ehat^d coefficient."""
    vals, d1, d2, v = local
    phi = vhat @ vals        # ascending polynomials in Ehat = E/s
    phi1 = vhat @ d1
    phi2 = vhat @ d2
    # (v + s Ehat) phi^2 has degree 2g + 1, the other two terms 2g
    qhat = np.convolve(np.array([v, s]), np.convolve(phi, phi))
    qhat[:-1] += np.convolve(phi1, phi1) / 4.0 - np.convolve(phi, phi2) / 2.0
    g = len(vhat) - 1
    lead = qhat[-1] / s
    if abs(lead - 1.0) > 1e-6:
        raise CheckError(
            f"assembled leading coefficient {lead} deviates from monic "
            "normalization; ansatz solve is inconsistent"
        )
    # back to E: q_j = qhat_j * s^(2g - j), then exact monic normalization
    coeffs = qhat * s ** (2.0 * g - np.arange(2 * g + 2))
    return ComplexPoly(tuple(coeffs / coeffs[-1]))


# Fixed guards of the ansatz solve: the smallest/largest singular value
# ratio below which the kernel is not one-dimensional, and the agreement
# required of the two assembly points and of the held-out energy.
_RANK_TOL = 1e-8
_GUARD_TOL = 1e-9


def q_via_phi_ansatz(L: LatticeData, n, details: bool = False):
    """Monic spectral polynomial via principal-part elimination.

    The conditions form the pencil A(E) = A0 + E*A1 with a one-dimensional
    kernel for every E; writing the kernel as v(E) = sum_d v_d E^d with the
    c0 slot of v monic of degree g and the rest of degree < g, coefficient
    matching turns A(E) v(E) = 0 into one block-bidiagonal least-squares
    problem.  E is rescaled internally and the stacked system is column
    equilibrated.  One SVD of it gives the rank guard (smallest/largest
    singular value ratio) and the pseudo-inverse, which makes the first
    solve and every step of a mixed-precision iterative refinement
    (residuals in clongdouble, at most 4 steps; the system is tiny but its
    conditioning grows quickly with the genus).  Both assembly points z0
    and z1 come from one evaluator call.  Guards raise CheckError: block
    residual or smallest singular value out of bounds (kernel not
    one-dimensional), mismatch between the assemblies at z0 and z1, or
    failure at a held-out energy.

    With ``details`` the diagnostics dict holds ``lstsq_residual`` (the
    relative residual of the block solve), ``sv_ratio``,
    ``refine_steps`` (refinement steps taken), ``z_consistency``,
    ``holdout_error`` and ``scale`` (the energy scale s, E = s*Ehat).
    """
    n = _as_tuple(n)
    g = genus_of(n)
    # anchor the evaluation points near the dominant pole so the leading
    # basis term dominates the quadratic form (avoids cancellation)
    anchor = -L.half_periods[max(range(4), key=lambda k: n[k])]
    local0, local1 = _local_values(L, n, (anchor + 0.27 + 0.31 * L.tau,
                                          anchor + 0.41 + 0.23 * L.tau))
    A0, A1 = _pencil(L, n)
    emax = max(abs(e) for e in L.es)
    s = 1.0 + sum(nk * (nk + 1) for nk in n) * emax
    B0, B1 = A0, s * A1

    nunk = A0.shape[1]
    m_rows = A0.shape[0]
    e_c0 = np.zeros(nunk, dtype=complex)
    e_c0[0] = 1.0
    if np.max(np.abs(B1 @ e_c0)) > 1e-12 * max(1.0, np.max(np.abs(B1))):
        raise CheckError("constant ansatz term leaked into the E-block")

    big = np.zeros(((g + 1) * m_rows, g * nunk), dtype=complex)
    rhs = np.zeros((g + 1) * m_rows, dtype=complex)
    for d in range(g + 1):
        rb = slice(d * m_rows, (d + 1) * m_rows)
        if d < g:
            big[rb, d * nunk : (d + 1) * nunk] += B0
        else:
            rhs[rb] -= B0 @ e_c0
        if d >= 1:
            big[rb, (d - 1) * nunk : d * nunk] += B1

    col_norm = np.linalg.norm(big, axis=0)
    col_norm[col_norm == 0.0] = 1.0
    u, sv, vh = np.linalg.svd(big / col_norm, full_matrices=False)
    if sv[-1] < _RANK_TOL * sv[0]:
        raise CheckError(
            "principal-part kernel is not one-dimensional "
            f"(singular value ratio {sv[-1] / sv[0]:.2e})"
        )
    # least-squares solution of big x = b: x = pinv @ b
    pinv = (vh.conj().T / sv) @ u.conj().T / col_norm[:, None]
    sol = pinv @ rhs
    big_hi = big.astype(np.clongdouble)
    rhs_hi = rhs.astype(np.clongdouble)
    for refine_steps in range(1, 5):
        r = np.asarray(rhs_hi - big_hi @ sol.astype(np.clongdouble),
                       dtype=complex)
        dx = pinv @ r
        sol = sol + dx
        if np.linalg.norm(dx) <= 1e-15 * np.linalg.norm(sol):
            break
    resid = np.linalg.norm(big @ sol - rhs) / max(1.0, np.linalg.norm(rhs))
    if resid > 1e-8:
        raise CheckError(f"block solve residual {resid:.2e} exceeds 1e-8")

    vhat = np.vstack([sol.reshape(g, nunk), e_c0])

    q0 = _assemble_q_at(local0, vhat, s)
    q1 = _assemble_q_at(local1, vhat, s)
    zdist = coefficient_distance(q0, q1)
    if zdist > _GUARD_TOL:
        raise CheckError(
            f"z0/z1 assemblies disagree by {zdist:.2e} (> {_GUARD_TOL:g})"
        )

    # held-out energy: coefficients must reproduce the quadratic form
    ehat_star = 0.37
    e_star = s * ehat_star
    vals, d1, d2, v = local0
    w = np.array([ehat_star ** d for d in range(g + 1)]) @ vhat
    phi_v, phi_d1, phi_d2 = w @ vals, w @ d1, w @ d2
    q_direct = ((v + e_star) * phi_v ** 2 + phi_d1 ** 2 / 4.0
                - phi_v * phi_d2 / 2.0)
    q_direct *= s ** (2.0 * g)
    holdout = abs(q0(e_star) - q_direct) / max(1.0, abs(q_direct))
    if holdout > _GUARD_TOL:
        raise CheckError(f"held-out energy check failed ({holdout:.2e})")

    if details:
        return q0, {
            "lstsq_residual": float(resid),
            "sv_ratio": float(sv[-1] / sv[0]),
            "refine_steps": refine_steps,
            "z_consistency": float(zdist),
            "holdout_error": float(holdout),
            "scale": float(s),
        }
    return q0


# ── factorization route ───────────────────────────────────────────────────

def _factor_branches(n):
    """TildeAlpha list for the product form of an even-total tuple: the
    branch -n_i/2 at every index, then one factor per index pairing
    {0, j} | {k, l} whose sums differ (by 2 or more, the total being
    even), with branch (n_i+1)/2 on the pair of the smaller sum.  Equal
    sums give the trivial factor (omitted)."""
    out = [TildeAlpha.from_branches(n, (0, 0, 0, 0))]
    for j in (1, 2, 3):
        d = 2 * (n[0] + n[j]) - sum(n)      # n0 + nj - nk - nl
        if d:
            out.append(TildeAlpha.from_branches(
                n, tuple(int((i in (0, j)) == (d < 0)) for i in range(4))))
    return out


def _factor_product(L: LatticeData, n):
    """Product of the Heun factor polynomials for an even-total tuple."""
    branches = _factor_branches(n)
    factors = [p_polynomial(L, ta) for ta in branches]
    deg = sum(p.degree for p in factors)
    if deg != 2 * genus_of(n) + 1:
        raise CheckError(
            f"factor degrees sum to {deg}, expected {2 * genus_of(n) + 1}"
        )
    prod = factors[0]
    for p in factors[1:]:
        prod = prod.mul(p)
    return prod.monic(), factors


def _l_transform_fixed(n):
    """Index transform for odd totals, with l -> -l-1 applied to negative
    entries (the potential is invariant under that reflection)."""
    n0, n1, n2, n3 = n
    tot = n0 + n1 + n2 + n3
    raw = (
        (tot + 1) // 2,
        (n0 + n1 - n2 - n3 - 1) // 2,
        (n0 - n1 + n2 - n3 - 1) // 2,
        (n0 - n1 - n2 + n3 - 1) // 2,
    )
    return tuple(x if x >= 0 else -x - 1 for x in raw)


def q_via_factorization(L: LatticeData, n, details: bool = False):
    """Monic spectral polynomial as a product of Heun factor families.

    Even totals factor directly.  An odd total s factors through its
    isospectral index transform, whose total is even exactly when an odd
    number of the pairs {0, j} have n0 + nj < s/2.  Each pairing
    {0, j} | {k, l} has one side below s/2, and these three pairs form a
    star or a triangle, so every Klein relabeling of n gives the same
    parity.  When it is odd the route refuses with NotConstructibleError
    rather than guessing: no further transform reaches an even total (the
    tests compare with a breadth-first search over every odd tuple with
    entries <= 8).
    """
    n = _as_tuple(n)
    target = n
    if sum(n) % 2:
        target = _l_transform_fixed(n)
        if sum(target) % 2:
            raise NotConstructibleError(
                f"no even-total partner reachable from {n}; "
                "the product form is not defined for this tuple"
            )
        if genus_of(target) != genus_of(n):
            raise CheckError(
                f"transform target {target} has genus "
                f"{genus_of(target)} != {genus_of(n)}; refusing"
            )
    prod, factors = _factor_product(L, target)
    return (prod, {"tuple": target, "factors": factors}) if details else prod


# ── roots, classification, reports ────────────────────────────────────────

@dataclass(frozen=True)
class RootReport:
    roots: tuple
    classification: str        # real_distinct | has_complex | has_multiple
    residual_max: float
    min_gap: float
    max_imag: float


# Root residuals must stay below this multiple of the Horner evaluation-
# noise bound, and roots taken per factor (see spectral_report) count as
# multiple only when closer than FACTOR_GAP_TOL * (1 + max |root|).
_RESID_FACTOR = 1e-8
FACTOR_GAP_TOL = 1e-10


def _check_tolerances(**tols) -> None:
    """ValueError unless every named tolerance is finite and positive (a
    NaN or infinite tolerance passes or fails every comparison)."""
    for name, value in tols.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_root_residuals(coeffs: np.ndarray, r: np.ndarray) -> float:
    """Guard |p(r)| against an evaluation-noise bound.

    The bound scales with sum_k |p_k| |r|^k (the Horner magnitude sum, the
    natural size of rounding noise when evaluating at r), so it stays
    meaningful for small roots of large-coefficient polynomials."""
    res = residuals(coeffs, r)
    mags = np.abs(r)
    mag_coeffs = np.abs(coeffs).tolist()
    horner = np.full_like(mags, mag_coeffs[-1])
    for c in reversed(mag_coeffs[:-1]):
        horner *= mags
        horner += c
    bound = _RESID_FACTOR * np.maximum((1.0 + mags) ** (len(coeffs) - 1),
                                       horner)
    if np.any(res > bound):
        worst = float(np.max(res / bound))
        raise CheckError(f"root residual exceeds bound by factor {worst:.2e}")
    return float(np.max(res))


def _root_report(polys, tol_im: float, tol_gap: float) -> RootReport:
    """Residual-checked roots of every non-constant polynomial in
    ``polys``, classified as one sorted set (the roots of their product)."""
    parts = []
    residual_max = 0.0
    for p in polys:
        if p.degree == 0:
            continue
        rp = p.roots()
        residual_max = max(residual_max, _check_root_residuals(p.asarray(), rp))
        parts.append(rp)
    r = np.concatenate(parts)
    r = r[np.lexsort((r.imag, r.real))]
    scale = 1.0 + float(np.max(np.abs(r)))
    max_imag = float(np.max(np.abs(r.imag)))
    if len(r) > 1:
        dmat = np.abs(r[:, None] - r[None, :]) + np.diag(np.full(len(r), np.inf))
        min_gap = float(np.min(dmat))
    else:
        min_gap = float("inf")
    if max_imag > tol_im * scale:
        cls = "has_complex"
    elif min_gap <= tol_gap * scale:
        cls = "has_multiple"
    else:
        cls = "real_distinct"
    return RootReport(
        roots=tuple(r.tolist()),
        classification=cls,
        residual_max=residual_max,
        min_gap=min_gap,
        max_imag=max_imag,
    )


def roots_and_classify(
    q: ComplexPoly,
    tol_im: float = 1e-6,
    tol_gap: float = 1e-6,
) -> RootReport:
    """All roots of Q with a reality/simplicity classification.

    Scale-aware tolerances: with scale = 1 + max |root|, a root counts as
    non-real when |Im| > tol_im * scale, and a pair as multiple when
    closer than tol_gap * scale.  The gap default reflects what expanded
    coefficients can resolve (near-multiple roots split by about the
    square root of the coefficient error); root sets assembled from the
    factor family tolerate much tighter gaps, see spectral_report.
    Residuals are guarded against an evaluation-noise bound or CheckError
    is raised.  Both tolerances must be finite and positive (ValueError).
    """
    _check_tolerances(tol_im=tol_im, tol_gap=tol_gap)
    return _root_report([q], tol_im, tol_gap)


@dataclass(frozen=True)
class SpectralReport:
    """One full spectral computation at a fixed lattice."""

    n: tuple
    tau: complex
    genus: int
    condition_class: str
    coeffs: ComplexPoly
    root_report: RootReport
    route: str                     # "phi" | "factor" | "both"
    route_discrepancy: float | None
    factor_degrees: tuple | None
    diagnostics: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)


def spectral_report(
    L: LatticeData,
    n,
    route: str = "both",
    tol_im: float = 1e-6,
    tol_gap: float = 1e-6,
    route_tol: float = 1e-8,
) -> SpectralReport:
    """Compute Q by the requested route(s), classify roots, and cross-check.

    route="both" compares the two constructions and raises CheckError if
    their coefficients disagree beyond route_tol; when the factorization is
    not constructible (some odd totals) the report downgrades to "phi".

    Whenever the factor family is available its root union feeds the
    classification with the tighter FACTOR_GAP_TOL, since each factor is
    low degree and well conditioned: its roots carry near-machine accuracy
    and resolve thin gaps between roots of different factors that the
    expanded coefficients fold into one cluster.  Otherwise the roots come
    from the coefficients with tol_gap.  tol_im, tol_gap and route_tol
    must be finite and positive (ValueError).
    """
    n = _as_tuple(n)
    _check_tolerances(tol_im=tol_im, tol_gap=tol_gap, route_tol=route_tol)
    if route not in ("phi", "factor", "both"):
        raise ValueError(f"unknown route {route!r}")
    diagnostics = {}
    discrepancy = None
    factor_degrees = None
    factors = None
    used = route

    if route == "factor":
        q, det = q_via_factorization(L, n, details=True)
        factors = det["factors"]
        factor_degrees = tuple(p.degree for p in factors)
        diagnostics["factor_tuple"] = det["tuple"]
    else:
        q, det = q_via_phi_ansatz(L, n, details=True)
        diagnostics.update(det)
        if route == "both":
            try:
                qf, fdet = q_via_factorization(L, n, details=True)
            except NotConstructibleError as exc:
                diagnostics["factorization"] = f"not constructible: {exc}"
                used = "phi"
            else:
                factors = fdet["factors"]
                factor_degrees = tuple(p.degree for p in factors)
                diagnostics["factor_tuple"] = fdet["tuple"]
                discrepancy = coefficient_distance(q, qf)
                if discrepancy > route_tol:
                    raise CheckError(
                        f"routes disagree: coefficient distance "
                        f"{discrepancy:.2e} > {route_tol:g} for {n}"
                    )

    if factors is not None:
        rr = _root_report(factors, tol_im, FACTOR_GAP_TOL)
        diagnostics["root_source"] = "factor_union"
    else:
        rr = _root_report([q], tol_im, tol_gap)
        diagnostics["root_source"] = "coefficients"
    return SpectralReport(
        n=n,
        tau=L.tau,
        genus=genus_of(n),
        condition_class=condition_class(n),
        coeffs=q,
        root_report=rr,
        route=used,
        route_discrepancy=discrepancy,
        factor_degrees=factor_degrees,
        diagnostics=diagnostics,
        tolerances={
            "tol_im": tol_im,
            "tol_gap": tol_gap,
            "route_tol": route_tol,
            "factor_gap_tol": FACTOR_GAP_TOL,
            "truncation_tol": TRUNCATION_TOL,
        },
    )


def modular_covariance_check(
    n,
    tau: complex,
    match_tol: float = 1e-6,
):
    """Verify that the roots computed on the lattice of -1/tau (with the
    middle multiplicities swapped) are tau^2 times the roots on tau.

    Returns a dict with the matched root sets and the maximum matching
    distance; ``passed`` uses match_tol * (1 + max |root|).
    """
    n = _as_tuple(n)
    n_swap = (n[0], n[2], n[1], n[3])
    L = make_lattice(tau)
    Ld = make_lattice(-1.0 / tau)
    q = q_via_phi_ansatz(L, n)
    qd = q_via_phi_ansatz(Ld, n_swap)
    r = np.asarray(roots_and_classify(q).roots)
    rd = np.asarray(roots_and_classify(qd).roots)
    expected = tau * tau * r
    _, max_dist = match_roots(rd, expected)
    scale = 1.0 + float(np.max(np.abs(expected)))
    return {
        "n": n,
        "n_swapped": n_swap,
        "tau": tau,
        "roots_tau": tuple(r.tolist()),
        "roots_dual": tuple(rd.tolist()),
        "max_match_distance": float(max_dist),
        "passed": bool(max_dist <= match_tol * scale),
        "match_tol": match_tol,
    }


@dataclass(frozen=True)
class ScanPoint:
    b: float
    classification: str | None
    ok: bool
    max_imag: float | None
    min_gap: float | None
    roots: tuple | None
    error: str | None = None


@dataclass(frozen=True)
class ScanResult:
    n: tuple
    expected: str
    points: tuple
    failures: int
    passed: bool


def tau_scan(
    n,
    b_values,
    tol_im: float = 1e-6,
    tol_gap: float = 1e-6,
) -> ScanResult:
    """Classify the roots of Q along tau = i*b for each b in ``b_values``
    and compare with the class forced by the condition tables: C1/C2 expect
    a complex pair at every b, NEITHER expects real distinct roots at
    every b.  Per-point numerical failures (TvspecError, ValueError) are
    collected, not raised; any other exception propagates.  Vacuous
    tolerances and a non-finite or non-positive b raise ValueError before
    the first point."""
    n = _as_tuple(n)
    _check_tolerances(tol_im=tol_im, tol_gap=tol_gap)
    b_values = [float(b) for b in b_values]
    for b in b_values:
        if not (np.isfinite(b) and b > 0):
            raise ValueError(f"b must be finite and > 0, got {b}")
    cls = condition_class(n)
    expected = "has_complex" if cls in ("C1", "C2") else "real_distinct"

    def worker(b):
        try:
            L = make_lattice(1j * b)
            rr = spectral_report(L, n, route="both",
                                 tol_im=tol_im, tol_gap=tol_gap).root_report
            return ScanPoint(
                b=b,
                classification=rr.classification,
                ok=rr.classification == expected,
                max_imag=rr.max_imag,
                min_gap=rr.min_gap,
                roots=rr.roots,
            )
        except (TvspecError, ValueError) as exc:  # keep scanning
            return ScanPoint(
                b=b, classification=None, ok=False, max_imag=None,
                min_gap=None, roots=None, error=f"{type(exc).__name__}: {exc}",
            )

    points = tuple(worker(b) for b in b_values)
    failures = sum(1 for p in points if not p.ok)
    return ScanResult(
        n=n,
        expected=expected,
        points=points,
        failures=failures,
        passed=failures == 0,
    )
