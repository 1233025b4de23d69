"""Heun-equation polynomial machinery.

The algebraic form used here has regular singular points {t1, t2, t3, inf}:

    y'' + (g1/(x-t1) + g2/(x-t2) + g3/(x-t3)) y'
        + (alpha*beta*(x - t3) - q) / ((x-t1)(x-t2)(x-t3)) y = 0,

expanded around t3 as y = sum_m c_m (x - t3)^m with c_0 = 1.  Each c_m is a
polynomial of exact degree m in the accessory parameter q; the three-term
recursion below generates the whole sequence in exact polynomial arithmetic.

For a multiplicity tuple (n0,n1,n2,n3) the exponent data come from a branch
choice at0 in {-n0/2, (n0+1)/2} at each singular point; the induced degree
N = -sum(at) is a non-negative integer exactly for the branch combinations
the factorization tables use.  The polynomial family

    P_at(E) = monic c_{N+1}(q(E)),  q(E) = E/4 + intercept(at),

is the building block of the product form of the spectral polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .elliptic import LatticeData
from .errors import CheckError
from .poly import compose_affine, polynomial_roots


@dataclass(frozen=True)
class TildeAlpha:
    """Branch choice (at0, at1, at2, at3); each entry is a half-integer."""

    values: tuple

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        if len(v) != 4:
            raise ValueError("need exactly four entries")
        for x in v:
            if abs(2 * x - round(2 * x)) > 1e-12:
                raise ValueError(f"entries must be half-integers, got {x}")
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        """Induced polynomial degree N = -sum(values); must be in Z>=0."""
        s = -sum(self.values)
        n = round(s)
        if abs(s - n) > 1e-12 or n < 0:
            raise ValueError(f"-sum(values) = {s} is not a non-negative integer")
        return n

    @classmethod
    def from_branches(cls, n, branches) -> "TildeAlpha":
        """Branch b_i = 0 picks -n_i/2, b_i = 1 picks (n_i+1)/2."""
        vals = tuple(
            (ni + 1) / 2.0 if b else -ni / 2.0 for ni, b in zip(n, branches)
        )
        return cls(vals)


@dataclass(frozen=True)
class HeunParams:
    """Algebraic Heun data plus the affine accessory map q = E/4 + q0."""

    t1: complex
    t2: complex
    t3: complex
    alpha: complex
    beta: complex
    gamma1: complex
    gamma2: complex
    gamma3: complex
    q0: complex  # intercept of the accessory map


def heun_from_tuple(L: LatticeData, ta: TildeAlpha) -> HeunParams:
    """Exponent/accessory data for the branch choice ``ta`` on lattice ``L``:

        t_i = e_i,  gamma_i = 2*at_i + 1/2,  alpha = sum(at),
        beta = -at0 + 1/2 + at1 + at2 + at3,
        q0 = e1 (at2+at3)^2 + e2 (at1+at3)^2 + e3 (at1+at2)^2 - e3*alpha*beta.
    """
    a0, a1, a2, a3 = ta.values
    alpha = a0 + a1 + a2 + a3
    beta = -a0 + 0.5 + a1 + a2 + a3
    q0 = (
        L.e1 * (a2 + a3) ** 2
        + L.e2 * (a1 + a3) ** 2
        + L.e3 * (a1 + a2) ** 2
        - L.e3 * alpha * beta
    )
    return HeunParams(
        t1=L.e1, t2=L.e2, t3=L.e3,
        alpha=alpha, beta=beta,
        gamma1=2 * a1 + 0.5, gamma2=2 * a2 + 0.5, gamma3=2 * a3 + 0.5,
        q0=q0,
    )


def coeff_sequence(h: HeunParams, m_max: int):
    """c_0 .. c_{m_max} as ascending coefficient arrays in q.

    Three-term recursion (c_{-1} = 0, c_0 = 1):

        (t1-t3)(t2-t3) (m+1)(m+gamma3) c_{m+1} =
            -(m-1+alpha)(m-1+beta) c_{m-1}
            + [ m{ (m-1+gamma3)(t1+t2-2t3)
                   + (t2-t3) gamma1 + (t1-t3) gamma2 } + q ] c_m.

    m = 0 reproduces the base case (t1-t3)(t2-t3) gamma3 c_1 = q.
    Raises CheckError if a leading divisor (m+1)(m+gamma3) vanishes; that
    cannot happen for half-integral gamma3, which is the only family the
    package constructs.
    """
    D = (h.t1 - h.t3) * (h.t2 - h.t3)
    if abs(D) < 1e-15:
        raise CheckError("degenerate singularities: (t1-t3)(t2-t3) ~ 0")
    cs = [np.array([1.0 + 0.0j])]
    prev = np.zeros(1, dtype=complex)  # c_{-1}
    for m in range(0, m_max):
        div = D * (m + 1) * (m + h.gamma3)
        if abs(div) < 1e-15:
            raise CheckError(f"recursion divisor vanished at m = {m}")
        cur = cs[-1]
        bm = (
            (m - 1 + h.gamma3) * (h.t1 + h.t2 - 2 * h.t3)
            + (h.t2 - h.t3) * h.gamma1
            + (h.t1 - h.t3) * h.gamma2
        )
        # (m*bm + q) * c_m  — multiply by the linear-in-q factor
        term = np.zeros(len(cur) + 1, dtype=complex)
        term[:-1] += m * bm * cur
        term[1:] += cur
        acc = term
        scaled_prev = -(m - 1 + h.alpha) * (m - 1 + h.beta) * prev
        n = max(len(acc), len(scaled_prev))
        out = np.zeros(n, dtype=complex)
        out[: len(acc)] += acc
        out[: len(scaled_prev)] += scaled_prev
        prev = cur
        cs.append(out / div)
    return cs


def p_polynomial(L: LatticeData, ta: TildeAlpha) -> np.ndarray:
    """Ascending coefficients of the monic degree-(N+1) polynomial P_at(E):
    c_{N+1} composed with the accessory map q = E/4 + q0 and normalized
    monic."""
    h = heun_from_tuple(L, ta)
    N = ta.N
    c = coeff_sequence(h, N + 1)[N + 1]
    if len(c) != N + 2:
        raise CheckError("c_{N+1} does not have exact degree N+1 in q")
    e_coeffs = compose_affine(c, 0.25, h.q0)
    return e_coeffs / e_coeffs[-1]


# ── Sturm-sequence diagnostics ────────────────────────────────────────────

@dataclass(frozen=True)
class InterlacingReport:
    """Root-reality/interlacing scan of c_1..c_{N+1} in the q variable."""

    regime: str                 # "positive" (gamma3>0, beta>0) or "flip"
    flip_index: int | None      # n3 with gamma3 = beta = 1/2 - n3 (flip only)
    roots: tuple                # tuple of sorted real root arrays, m = 1..N+1
    all_real_simple: bool
    interlaced: bool
    leading_signs: tuple        # sign of the leading coefficient of each c_m
    leading_pattern_ok: bool
    product_signs_ok: bool      # sign(c_{m+1} c_{m-1}) at roots of c_m
    max_imag: float
    min_gap: float


# a root of c_m counts as non-real when |Im| exceeds _INTERLACE_TOL_IM, and
# two as one when closer than _INTERLACE_TOL_GAP, both times 1 + max |root|
_INTERLACE_TOL_IM = 1e-8
_INTERLACE_TOL_GAP = 1e-10


def interlacing_check(h: HeunParams, N: int) -> InterlacingReport:
    """Check the Sturm-sequence root structure of c_1 .. c_{N+1}.

    Preconditions (raise ValueError otherwise): real parameters and
    (t1-t3)(t2-t3) < 0, with either gamma3 > 0 and beta > 0 ("positive"
    regime) or gamma3 = beta = 1/2 - n3 < 0 for an integer n3 >= 1
    ("flip" regime).

    Reported properties, for m = 1..N+1 in the q variable:
      * every c_m has m real simple roots;
      * consecutive root sets strictly interlace;
      * the leading-coefficient sign follows the regime pattern
        (alternating from m = 1 in the positive regime; constant up to
        m = n3 then alternating in the flip regime);
      * sign(c_{m+1}(s) c_{m-1}(s)) < 0 at every root s of c_m, except
        m = n3 in the flip regime where it is > 0.
    """
    vals = [h.t1, h.t2, h.t3, h.alpha, h.beta, h.gamma1, h.gamma2, h.gamma3]
    if max(abs(complex(v).imag) for v in vals) > 1e-9:
        raise ValueError("interlacing analysis needs real Heun data")
    D = ((h.t1 - h.t3) * (h.t2 - h.t3)).real
    if not D < 0:
        raise ValueError("regime requires (t1-t3)(t2-t3) < 0")
    g3r, br = complex(h.gamma3).real, complex(h.beta).real
    if g3r > 0 and br > 0:
        regime, n3 = "positive", None
    elif g3r < 0 and abs(g3r - br) < 1e-9:
        n3f = 0.5 - g3r
        n3 = round(n3f)
        if abs(n3f - n3) > 1e-9 or n3 < 1:
            raise ValueError("gamma3 = beta < 0 must equal 1/2 - n3, n3 >= 1")
        regime = "flip"
    else:
        raise ValueError(
            "parameters fit neither the positive nor the flip regime"
        )

    cs = coeff_sequence(h, N + 1)
    roots_per_m = []
    all_real = True
    max_imag = 0.0
    min_gap = np.inf
    for m in range(1, N + 2):
        r = polynomial_roots(cs[m])
        max_imag = max(max_imag, float(np.max(np.abs(r.imag))) if len(r) else 0.0)
        scale = 1.0 + float(np.max(np.abs(r))) if len(r) else 1.0
        if np.max(np.abs(r.imag)) > _INTERLACE_TOL_IM * scale:
            all_real = False
        rr = np.sort(r.real)
        if len(rr) > 1:
            g = np.min(np.diff(rr))
            min_gap = min(min_gap, float(g))
            if g <= _INTERLACE_TOL_GAP * scale:
                all_real = False
        roots_per_m.append(rr)

    interlaced = True
    for m in range(1, len(roots_per_m)):
        lo, hi = roots_per_m[m - 1], roots_per_m[m]  # m and m+1 roots
        ok = all(hi[i] < lo[i] < hi[i + 1] for i in range(len(lo)))
        interlaced = interlaced and ok

    leading = tuple(int(np.sign(c[-1].real)) for c in cs)
    pattern_ok = True
    for m in range(1, N + 2):
        if regime == "flip" and m <= n3:
            want = 1
        elif regime == "flip":
            want = (-1) ** (m - n3)
        else:
            want = (-1) ** m
        pattern_ok = pattern_ok and (leading[m] == want)

    product_ok = True
    for m in range(1, N + 1):
        s = roots_per_m[m - 1]
        vals_hi = npp.polyval(s, cs[m + 1]).real
        vals_lo = npp.polyval(s, cs[m - 1]).real
        prod = vals_hi * vals_lo
        if regime == "flip" and m == n3:
            ok = bool(np.all(prod > 0))
        else:
            ok = bool(np.all(prod < 0))
        product_ok = product_ok and ok

    return InterlacingReport(
        regime=regime,
        flip_index=n3,
        roots=tuple(roots_per_m),
        all_real_simple=all_real,
        interlaced=interlaced,
        leading_signs=leading,
        leading_pattern_ok=pattern_ok,
        product_signs_ok=product_ok,
        max_imag=max_imag,
        min_gap=float(min_gap) if np.isfinite(min_gap) else 0.0,
    )
