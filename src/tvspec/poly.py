"""Polynomial roots as companion-matrix eigenvalues, with Newton polish.

A polynomial is a plain ascending coefficient array, c[0] + c[1] x + ...,
complex128 and dense; its degree is len(c) - 1, a product is
``np.convolve`` and a value is ``numpy.polynomial.polynomial.polyval``.  The
roots are the eigenvalues of the balanced companion matrix (LAPACK
``geev`` via ``numpy.polynomial.polynomial.polyroots``), which are
backward stable in the coefficients (Edelman & Murakami, Math. Comp. 64,
1995); a few plain Newton steps on the undeflated polynomial follow.
There is no iteration budget and no randomness, so repeated calls give
bit-identical output.
"""

from __future__ import annotations

import numpy as np

POLISH_STEPS = 3


def polyval_and_deriv(coeffs: np.ndarray, x: np.ndarray):
    """Horner evaluation of p(x) and p'(x) for ascending coeffs."""
    p = np.zeros_like(x, dtype=complex)
    dp = np.zeros_like(x, dtype=complex)
    for c in reversed(np.asarray(coeffs).tolist()):
        dp *= x
        dp += p
        p *= x
        p += c
    return p, dp


def polynomial_roots(coeffs) -> np.ndarray:
    """All roots of the polynomial with ascending coefficients ``coeffs``.

    Companion-matrix eigenvalues, then ``POLISH_STEPS`` Newton steps on
    each root.  Raises ValueError for the zero polynomial and for
    non-finite coefficients.
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients must be finite")
    if c.size == 0 or not np.any(c != 0):
        raise ValueError("zero polynomial has no well-defined root set")
    # strip trailing (leading-degree) zeros
    deg = c.size - 1
    while deg > 0 and c[deg] == 0:
        deg -= 1
    c = c[: deg + 1]
    if deg == 0:
        return np.zeros(0, dtype=complex)
    if deg == 1:
        return np.array([-c[0] / c[1]], dtype=complex)

    z = np.polynomial.polynomial.polyroots(c)
    for _ in range(POLISH_STEPS):
        p, dp = polyval_and_deriv(c, z)
        step = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.0)
        z = z - step
    return z


def residuals(coeffs, roots) -> np.ndarray:
    """|p(r)| at each root, for residual-bound reporting."""
    p, _ = polyval_and_deriv(np.asarray(coeffs, dtype=complex), np.asarray(roots))
    return np.abs(p)


def coefficient_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |coef difference| / max(1, |coef|) of two ascending coefficient
    arrays, after zero-padding to a common length.  The relative-agreement
    metric used by route checks."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if len(a) < len(b):
        a, b = b, a
    diff = a.copy()
    diff[: len(b)] -= b
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(diff)) / scale)


def compose_affine(coeffs, a: complex, b: complex) -> np.ndarray:
    """Coefficients of p(a*x + b) given ascending coeffs of p (exact
    Horner in the polynomial ring)."""
    c = np.asarray(coeffs, dtype=complex)
    out = np.array([c[-1]], dtype=complex)
    lin = np.array([b, a], dtype=complex)
    for k in range(len(c) - 2, -1, -1):
        out = np.convolve(out, lin)
        out[0] += c[k]
    return out


def match_roots(found, expected):
    """Greedy global-min pairing of two equal-size root sets.

    Returns (perm, max_dist) with found[perm[i]] matched to expected[i].
    Exact for well-separated near-identical sets, which is the only regime
    route/covariance checks operate in.
    """
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if found.shape != expected.shape:
        raise ValueError("root sets differ in size")
    n = len(found)
    d = np.abs(found[None, :] - expected[:, None])  # d[i, j] = |f_j - e_i|
    perm = np.full(n, -1)
    dm = d.copy()
    maxd = 0.0
    for _ in range(n):
        i, j = np.unravel_index(np.argmin(dm), dm.shape)
        perm[i] = j
        maxd = max(maxd, float(dm[i, j]))
        dm[i, :] = np.inf
        dm[:, j] = np.inf
    return perm, maxd
