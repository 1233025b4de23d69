"""Independent high-precision references for the test suite.

Everything here goes through mpmath's jtheta/nsum machinery, so none of
the package's series code is involved: lattice constants come from theta
constants and Lambert series, point values from log-derivatives of
theta1.  The package takes eta1 from the series of theta1'''(0)/theta1'(0),
so the lattice reference takes it from the Lambert series of E2.
Conventions: lattice Z + Z*tau, e1 = wp(1/2), e2 = wp(tau/2),
e3 = wp((1+tau)/2).
"""

import mpmath as mp

mp.mp.dps = 40


def _nome(tau):
    return mp.e ** (1j * mp.pi * mp.mpc(tau))


def lattice_ref(tau):
    """e1, e2, e3, g2, g3, eta1 from theta constants and Lambert series;
    eta1 = (pi^2/3) E2."""
    q = _nome(tau)
    t2 = mp.jtheta(2, 0, q)
    t3 = mp.jtheta(3, 0, q)
    t4 = mp.jtheta(4, 0, q)
    e1 = mp.pi ** 2 / 3 * (t3 ** 4 + t4 ** 4)
    e3 = mp.pi ** 2 / 3 * (t2 ** 4 - t4 ** 4)
    e2 = -mp.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4)
    p = q * q
    E4 = 1 + 240 * mp.nsum(lambda k: k ** 3 * p ** k / (1 - p ** k), [1, mp.inf])
    E6 = 1 - 504 * mp.nsum(lambda k: k ** 5 * p ** k / (1 - p ** k), [1, mp.inf])
    E2 = 1 - 24 * mp.nsum(lambda k: k * p ** k / (1 - p ** k), [1, mp.inf])
    g2 = 4 * mp.pi ** 4 / 3 * E4
    g3 = 8 * mp.pi ** 6 / 27 * E6
    eta1 = mp.pi ** 2 / 3 * E2
    return {
        "e1": complex(e1), "e2": complex(e2), "e3": complex(e3),
        "g2": complex(g2), "g3": complex(g3), "eta1": complex(eta1),
    }


def _eta1(q):
    return -mp.pi ** 2 / 3 * mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)


def zeta_ref(z, tau):
    """zeta(z) = eta1*z + pi * theta1'(pi z)/theta1(pi z)."""
    q = _nome(tau)
    v = mp.pi * mp.mpc(z)
    return complex(
        _eta1(q) * mp.mpc(z)
        + mp.pi * mp.jtheta(1, v, q, 1) / mp.jtheta(1, v, q)
    )


def _wp_ref_mp(z, tau):
    q = _nome(tau)
    v = mp.pi * mp.mpc(z)
    t = mp.jtheta(1, v, q)
    t1 = mp.jtheta(1, v, q, 1)
    t2 = mp.jtheta(1, v, q, 2)
    return -_eta1(q) - mp.pi ** 2 * (t2 / t - (t1 / t) ** 2)


def wp_ref(z, tau):
    """wp(z) = -eta1 - pi^2 d/dv [theta1'/theta1](v), v = pi z."""
    return complex(_wp_ref_mp(z, tau))


def wp_prime_ref(z, tau):
    """Derivative of wp_ref by mpmath differentiation at full precision."""
    return complex(mp.diff(lambda w: _wp_ref_mp(w, tau), mp.mpc(z)))


def _log_theta_values(z, tau):
    """eta1, zeta(z), wp(z) and wp'(z) in mpmath from the first three
    v-derivatives of theta1 at v = pi z (no numerical differentiation)."""
    q = _nome(tau)
    z = mp.mpc(z)
    t0, t1, t2, t3 = (mp.jtheta(1, mp.pi * z, q, k) for k in range(4))
    eta1 = _eta1(q)
    zeta = eta1 * z + mp.pi * t1 / t0
    wp = -eta1 - mp.pi ** 2 * (t2 / t0 - (t1 / t0) ** 2)
    wpp = -mp.pi ** 3 * (t3 / t0 - 3 * t2 * t1 / t0 ** 2 + 2 * (t1 / t0) ** 3)
    return eta1, zeta, wp, wpp


def wp_prime_theta_ref(z, tau):
    """wp'(z) = -pi^3 d^2/dv^2 [theta1'/theta1](v), v = pi z, from the
    v-derivatives of theta1 rather than by numerical differentiation."""
    return complex(_log_theta_values(z, tau)[3])


def z2_ref(r, s, tau):
    """Z^(2)_{r,s}(tau) = Z^3 - 3 wp Z - wp' at z = r + s*tau, with
    Z = zeta(z) - r*eta1 - s*eta2 and eta2 from the Legendre relation."""
    eta1, zeta, wp, wpp = _log_theta_values(r + s * tau, tau)
    eta2 = eta1 * mp.mpc(tau) - 2j * mp.pi
    Z = zeta - r * eta1 - s * eta2
    return complex(Z ** 3 - 3 * wp * Z - wpp)
